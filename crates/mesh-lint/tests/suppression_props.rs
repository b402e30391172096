//! Property test for the suppression contract on the extended families:
//! across every reason-less `allow(...)` spelling and every rule R6–R8, the
//! finding survives AND the bogus suppression is itself reported.

use mesh_lint::{lint_source, Config, LintOpts};
use proptest::prelude::*;

/// Known-bad one-liners, one per extended per-file rule.
const TRIGGERS: &[(&str, &str, &str)] = &[
    (
        "R6",
        "fn f(o: Option<u32>) -> u32 {\n",
        "    o.unwrap()\n}\n",
    ),
    (
        "R7",
        "fn f(a_s: f64, b_ms: f64) -> f64 {\n",
        "    a_s + b_ms\n}\n",
    ),
    (
        "R8",
        "// mesh-lint: hot(prop)\nfn f() -> String {\n",
        "    format!(\"y\")\n}\n// mesh-lint: end-hot\n",
    ),
];

/// Reason-less suppression spellings: every one must fail to silence.
const BOGUS_FORMS: &[&str] = &["", ",", ", ", ", \"\"", ", unquoted", ", \"   \""];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn reasonless_allows_never_silence_extended_rules(
        which in 0usize..3,
        form in 0usize..6,
        same_line in any::<bool>(),
    ) {
        let (rule, prefix, trigger) = TRIGGERS[which];
        let sup = format!("// mesh-lint: allow({rule}{})", BOGUS_FORMS[form]);
        let src = if same_line {
            // Suppression trailing the offending line itself.
            let (line, rest) = trigger.split_once('\n').unwrap();
            format!("{prefix}{line} {sup}\n{rest}")
        } else {
            format!("{prefix}    {sup}\n{trigger}")
        };
        let fired: Vec<String> = lint_source(
            "crates/mesh-sim/src/prop.rs",
            &src,
            &Config::default(),
            LintOpts { all_families: true, unscoped: false },
        )
        .into_iter()
        .map(|f| f.finding.rule)
        .collect();
        prop_assert!(
            fired.iter().any(|r| r == rule),
            "reason-less allow must not silence {rule}: {src:?} -> {fired:?}"
        );
        prop_assert!(
            fired.iter().any(|r| r == "SUPPRESS"),
            "reason-less allow must itself be reported: {src:?} -> {fired:?}"
        );
    }
}

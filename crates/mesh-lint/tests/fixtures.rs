//! Self-test over the known-bad fixture set: every rule R1–R8 must fire on
//! its fixture, the adversarial clean files must stay silent, and the
//! suppression contract (reason mandatory, wrong forms don't silence) must
//! hold. A second half drives the built CLI binary end-to-end and pins the
//! exit-code and baseline-ratchet contracts.

use std::path::Path;
use std::process::Command;

use mesh_lint::{lint_source, Config, LintOpts};

fn fixture(name: &str) -> String {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    std::fs::read_to_string(dir.join(name))
        .unwrap_or_else(|e| panic!("reading fixture {name}: {e}"))
}

/// Lint a fixture as if it lived in a deterministic crate, with an empty
/// config (no scoping), and return the fired rule ids in order.
fn fired_with(name: &str, opts: LintOpts) -> Vec<String> {
    let src = fixture(name);
    let rel = format!("crates/mesh-sim/src/{name}");
    lint_source(&rel, &src, &Config::default(), opts)
        .into_iter()
        .map(|f| f.finding.rule)
        .collect()
}

/// The determinism family alone (the original R1–R5 mode).
fn fired(name: &str) -> Vec<String> {
    fired_with(name, LintOpts::default())
}

/// Every per-file family, R6–R8 included.
fn fired_all(name: &str) -> Vec<String> {
    fired_with(
        name,
        LintOpts {
            all_families: true,
            unscoped: false,
        },
    )
}

#[test]
fn r1_fixture_fires_on_iteration_only() {
    assert_eq!(fired("r1_hash_iter.rs"), ["R1", "R1", "R1"]);
}

#[test]
fn r2_fixture_fires_on_both_clocks() {
    assert_eq!(fired("r2_wallclock.rs"), ["R2", "R2"]);
}

#[test]
fn r3_fixture_fires_on_ambient_and_degenerate_seeds() {
    assert_eq!(fired("r3_randomness.rs"), ["R3", "R3", "R3"]);
}

#[test]
fn r4_fixture_fires_on_partial_cmp_orderings() {
    assert_eq!(fired("r4_float_sort.rs"), ["R4", "R4", "R4"]);
}

#[test]
fn r5_fixture_fires_on_threading_primitives() {
    assert_eq!(fired("r5_threading.rs"), ["R5", "R5", "R5"]);
}

#[test]
fn r6_fixture_fires_on_panics_and_arithmetic_indexing() {
    assert_eq!(
        fired("r6_panic.rs"),
        Vec::<String>::new(),
        "R6 needs --all-rules"
    );
    assert_eq!(fired_all("r6_panic.rs"), ["R6", "R6", "R6", "R6"]);
}

#[test]
fn r7_fixture_fires_on_unit_mixes_and_call_sites() {
    assert_eq!(fired_all("r7_units.rs"), ["R7", "R7", "R7", "R7"]);
}

#[test]
fn r8_fixture_fires_on_hot_region_allocation() {
    assert_eq!(fired_all("r8_hot_alloc.rs"), ["R8", "R8", "R8", "R8"]);
}

#[test]
fn tricky_clean_fixture_stays_silent() {
    assert_eq!(fired_all("clean_tricky.rs"), Vec::<String>::new());
}

#[test]
fn extended_clean_fixture_stays_silent() {
    assert_eq!(fired_all("clean_r6to8.rs"), Vec::<String>::new());
}

#[test]
fn reasoned_suppressions_silence() {
    assert_eq!(fired("suppressed_ok.rs"), Vec::<String>::new());
}

#[test]
fn reasoned_suppressions_silence_extended_families() {
    assert_eq!(fired_all("suppressed_r6to8.rs"), Vec::<String>::new());
}

#[test]
fn reasonless_suppressions_are_findings_and_do_not_silence() {
    assert_eq!(
        fired("suppressed_no_reason.rs"),
        ["SUPPRESS", "R2", "SUPPRESS", "R2"]
    );
}

/// Per-crate scoping from the real workspace config: R1 is confined to the
/// deterministic crates, so the same R1 fixture is silent when placed in
/// e.g. the testbed crate — unless `--unscoped` overrides scoping.
#[test]
fn workspace_config_scopes_r1_to_deterministic_crates() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let cfg_src = std::fs::read_to_string(root.join("mesh-lint.toml")).unwrap();
    let cfg = mesh_lint::config::parse(&cfg_src).unwrap();
    let src = fixture("r1_hash_iter.rs");

    let in_sim = lint_source("crates/mesh-sim/src/f.rs", &src, &cfg, LintOpts::default());
    assert_eq!(in_sim.len(), 3, "R1 must fire inside mesh-sim");

    let outside = lint_source("crates/testbed/src/f.rs", &src, &cfg, LintOpts::default());
    assert!(outside.is_empty(), "R1 must not fire in the testbed crate");

    let unscoped = lint_source(
        "crates/testbed/src/f.rs",
        &src,
        &cfg,
        LintOpts {
            all_families: false,
            unscoped: true,
        },
    );
    assert_eq!(unscoped.len(), 3, "--unscoped ignores crate scoping");
}

/// R6 honours the workspace config's crate confinement even under
/// `--all-rules`; only `--unscoped` widens it (the fixture-trip mode).
#[test]
fn workspace_config_scopes_r6_to_hot_crates() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let cfg_src = std::fs::read_to_string(root.join("mesh-lint.toml")).unwrap();
    let cfg = mesh_lint::config::parse(&cfg_src).unwrap();
    let src = fixture("r6_panic.rs");
    let all = LintOpts {
        all_families: true,
        unscoped: false,
    };

    let in_sim = lint_source("crates/mesh-sim/src/f.rs", &src, &cfg, all);
    assert_eq!(in_sim.len(), 4, "R6 must fire inside mesh-sim: {in_sim:?}");

    let outside = lint_source("crates/testbed/src/f.rs", &src, &cfg, all);
    assert!(outside.is_empty(), "R6 is confined to the hot crates");

    let in_sim_tests = lint_source("crates/mesh-sim/tests/f.rs", &src, &cfg, all);
    assert!(in_sim_tests.is_empty(), "/tests/ is allowlisted for R6");
}

// ---------------------------------------------------------------------------
// CLI end-to-end: exit codes 0 / 1 / 2, --all-rules, --unscoped, baselines.

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_mesh-lint"))
}

fn workspace_root() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Fresh per-test scratch directory under the target dir.
fn scratch(tag: &str) -> std::path::PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("mesh-lint-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

#[test]
fn cli_workspace_is_lint_clean_under_deny() {
    let out = cli()
        .args(["--deny", "--root"])
        .arg(workspace_root())
        .output()
        .expect("running mesh-lint");
    assert!(
        out.status.success(),
        "workspace must be lint-clean; findings:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
}

#[test]
fn cli_workspace_is_lint_clean_under_deny_with_all_rules() {
    let out = cli()
        .args(["--deny", "--all-rules", "--root"])
        .arg(workspace_root())
        .output()
        .expect("running mesh-lint");
    assert!(
        out.status.success(),
        "workspace must be clean under --all-rules; findings:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
}

#[test]
fn cli_fixture_set_fails_under_deny_with_all_rules_unscoped() {
    let out = cli()
        .args(["--deny", "--all-rules", "--unscoped", "--json", "--root"])
        .arg(workspace_root())
        .arg("crates/mesh-lint/tests/fixtures")
        .output()
        .expect("running mesh-lint");
    assert_eq!(out.status.code(), Some(1), "fixtures must trip --deny");
    let json = String::from_utf8_lossy(&out.stdout);
    for rule in ["R1", "R2", "R3", "R4", "R5", "R6", "R7", "R8", "SUPPRESS"] {
        assert!(
            json.contains(&format!("\"rule\": \"{rule}\"")),
            "{rule} missing from fixture findings:\n{json}"
        );
    }
    for family in ["determinism", "panic-freedom", "unit-safety", "hot-path"] {
        assert!(
            json.contains(&format!("\"family\": \"{family}\"")),
            "{family} family missing from JSON metadata:\n{json}"
        );
    }
}

#[test]
fn cli_fixture_set_fails_under_deny_even_with_default_scoping() {
    // The globally-scoped rules (R2-R4) alone are enough to trip --deny on
    // the fixture directory, with the real workspace config in force.
    let out = cli()
        .args(["--deny", "--root"])
        .arg(workspace_root())
        .arg("crates/mesh-lint/tests/fixtures")
        .output()
        .expect("running mesh-lint");
    assert_eq!(out.status.code(), Some(1));
}

#[test]
fn cli_baseline_ratchet_admits_known_findings_only() {
    let dir = scratch("ratchet");
    let baseline = dir.join("baseline.json");

    // 1. Capture the fixture set's findings as the baseline.
    let out = cli()
        .args(["--all-rules", "--unscoped", "--root"])
        .arg(workspace_root())
        .args(["--write-baseline"])
        .arg(&baseline)
        .arg("crates/mesh-lint/tests/fixtures")
        .output()
        .expect("running mesh-lint");
    assert!(
        out.status.success(),
        "--write-baseline failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    // 2. Same scan against that baseline: everything is known, deny passes.
    let out = cli()
        .args(["--deny", "--all-rules", "--unscoped", "--root"])
        .arg(workspace_root())
        .args(["--baseline"])
        .arg(&baseline)
        .arg("crates/mesh-lint/tests/fixtures")
        .output()
        .expect("running mesh-lint");
    assert!(
        out.status.success(),
        "baselined findings must not fail --deny:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("baselined"),
        "summary must count baselined findings: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    // 3. An empty baseline makes every finding new again.
    std::fs::write(dir.join("empty.json"), "[]\n").unwrap();
    let out = cli()
        .args(["--deny", "--all-rules", "--unscoped", "--root"])
        .arg(workspace_root())
        .args(["--baseline"])
        .arg(dir.join("empty.json"))
        .arg("crates/mesh-lint/tests/fixtures")
        .output()
        .expect("running mesh-lint");
    assert_eq!(out.status.code(), Some(1), "new findings must fail --deny");
}

#[test]
fn cli_stale_baseline_entries_fail_deny() {
    // A baseline entry no scan reproduces is stale: the ratchet must force
    // the baseline file to shrink rather than rot.
    let dir = scratch("stale");
    let baseline = dir.join("baseline.json");
    std::fs::write(
        &baseline,
        "[\n  {\"path\": \"crates/mesh-lint/tests/fixtures/clean_tricky.rs\", \
         \"line\": 1, \"rule\": \"R2\", \"family\": \"determinism\", \
         \"message\": \"long gone\"}\n]\n",
    )
    .unwrap();
    let out = cli()
        .args(["--deny", "--all-rules", "--unscoped", "--root"])
        .arg(workspace_root())
        .args(["--baseline"])
        .arg(&baseline)
        .arg("crates/mesh-lint/tests/fixtures/clean_tricky.rs")
        .output()
        .expect("running mesh-lint");
    assert_eq!(out.status.code(), Some(1), "stale entries must fail --deny");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("stale baseline entry"),
        "stderr must explain the stale entry:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn cli_malformed_baseline_is_a_usage_error() {
    let dir = scratch("badbase");
    let baseline = dir.join("baseline.json");
    std::fs::write(&baseline, "{ not an array }").unwrap();
    let out = cli()
        .args(["--baseline"])
        .arg(&baseline)
        .output()
        .expect("running mesh-lint");
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn cli_missing_explicit_config_is_a_usage_error() {
    let out = cli()
        .args(["--config", "/nonexistent/mesh-lint.toml"])
        .output()
        .expect("running mesh-lint");
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn cli_unknown_flag_is_a_usage_error() {
    let out = cli().arg("--bogus").output().expect("running mesh-lint");
    assert_eq!(out.status.code(), Some(2));
}

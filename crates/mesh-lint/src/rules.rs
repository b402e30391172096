//! The determinism rule catalog (R1–R5) and the suppression mechanism.
//!
//! Every rule is a token-level heuristic over [`crate::lexer`] output — see
//! DESIGN.md §10 for the catalog, the rationale and the known blind spots.
//! False positives are handled by per-line suppression comments of the form
//! `mesh-lint: allow(R2, "reason why this is safe")`; the reason is
//! mandatory so each exception documents itself.

use crate::config::Config;
use crate::lexer::{lex, Token};

/// One violation (or suppression misuse) in one file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule id: `R1`..`R8`, or `SUPPRESS` for malformed suppressions.
    pub rule: String,
    /// 1-based line.
    pub line: u32,
    pub message: String,
}

/// The rule family a rule id belongs to (surfaced in `--json` output so
/// downstream tooling can group/ratchet per family).
pub fn family_of(rule: &str) -> &'static str {
    match rule {
        "R1" | "R2" | "R3" | "R4" | "R5" => "determinism",
        "R6" => "panic-freedom",
        "R7" => "unit-safety",
        "R8" => "hot-path",
        _ => "suppression",
    }
}

/// How one lint run is configured (beyond the config file).
#[derive(Debug, Clone, Copy, Default)]
pub struct LintOpts {
    /// Run every rule family (R6–R8), not just the original determinism
    /// family R1–R5.
    pub all_families: bool,
    /// Ignore crate confinement and `allow_paths` — the fixture self-test
    /// mode, where known-bad files must trip every rule wherever they sit.
    pub unscoped: bool,
}

/// A parsed suppression comment.
#[derive(Debug, Clone)]
struct Suppression {
    rule: String,
    line: u32,
    has_reason: bool,
}

/// HashMap/HashSet methods whose results depend on hash iteration order.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_keys",
    "into_values",
    "drain",
    "into_iter",
    "retain",
];

/// Closure-taking comparators where a `partial_cmp` means a float sort.
const CMP_SINKS: &[&str] = &[
    "sort_by",
    "sort_unstable_by",
    "max_by",
    "min_by",
    "binary_search_by",
];

/// Lint one file's source. `path` is workspace-relative (diagnostics and
/// allowlists), `crate_dir` the `crates/<dir>` name (`wmm` for the umbrella
/// crate).
///
/// This is the multi-pass pipeline: lex once, build the
/// [`crate::scopes::ScopeMap`] token-tree pass once, then run every
/// applicable rule family over the shared token stream.
pub fn lint_source(
    path: &str,
    crate_dir: &str,
    src: &str,
    cfg: &Config,
    opts: LintOpts,
) -> Vec<Finding> {
    let lexed = lex(src);
    let tokens = &lexed.tokens;
    let (sups, mut findings) = parse_suppressions(&lexed.comments);

    let mut raw: Vec<Finding> = Vec::new();
    if cfg.applies("R1", path, crate_dir, opts.unscoped) {
        rule_r1_hash_iteration(tokens, &mut raw);
    }
    if cfg.applies("R2", path, crate_dir, opts.unscoped) {
        rule_r2_wall_clock(tokens, &mut raw);
    }
    if cfg.applies("R3", path, crate_dir, opts.unscoped) {
        rule_r3_ambient_randomness(tokens, &mut raw);
    }
    if cfg.applies("R4", path, crate_dir, opts.unscoped) {
        rule_r4_partial_cmp(tokens, &mut raw);
    }
    if cfg.applies("R5", path, crate_dir, opts.unscoped) {
        rule_r5_threading(tokens, &mut raw);
    }
    if opts.all_families {
        let scopes = crate::scopes::build(&lexed);
        if cfg.applies("R6", path, crate_dir, opts.unscoped) {
            crate::extended::rule_r6_panic_freedom(tokens, &scopes, &mut raw);
        }
        if cfg.applies("R7", path, crate_dir, opts.unscoped) {
            crate::extended::rule_r7_unit_safety(tokens, &scopes, &mut raw);
        }
        if cfg.applies("R8", path, crate_dir, opts.unscoped) {
            crate::extended::rule_r8_hot_alloc(tokens, &scopes, &mut raw);
        }
    }

    raw.sort_by(|a, b| (a.line, &a.rule).cmp(&(b.line, &b.rule)));
    raw.dedup_by(|a, b| a.rule == b.rule && a.line == b.line);

    // A valid suppression on the same line or the line directly above the
    // finding silences it; a reason-less suppression silences nothing (it is
    // itself a finding, emitted by `parse_suppressions`).
    findings.extend(raw.into_iter().filter(|f| {
        !sups
            .iter()
            .any(|s| s.has_reason && s.rule == f.rule && (s.line == f.line || s.line + 1 == f.line))
    }));
    findings.sort_by(|a, b| (a.line, &a.rule).cmp(&(b.line, &b.rule)));
    findings
}

/// Extract suppressions from comments; malformed ones become findings.
fn parse_suppressions(comments: &[(u32, String)]) -> (Vec<Suppression>, Vec<Finding>) {
    let mut sups = Vec::new();
    let mut findings = Vec::new();
    for &(line, ref text) in comments {
        let Some(at) = text.find("mesh-lint:") else {
            continue;
        };
        let rest = text[at + "mesh-lint:".len()..].trim_start();
        // Prose mentioning "mesh-lint:" is not a directive; only the
        // `allow` form is.
        let Some(body) = rest.strip_prefix("allow") else {
            continue;
        };
        let body = body.trim_start();
        // The reason string may itself contain `)` (it often names calls
        // like `cells.len()`), so the closing paren is located *after* the
        // reason's closing quote rather than by a naive split.
        let Some(inner) = body.strip_prefix('(') else {
            findings.push(Finding {
                rule: "SUPPRESS".into(),
                line,
                message: "malformed suppression: expected `allow(RULE, \"reason\")`".into(),
            });
            continue;
        };
        let (rule, reason_rest) = match inner.split_once(',') {
            Some((r, rest)) => (r, Some(rest)),
            None => match inner.split_once(')') {
                Some((r, _)) => (r, None),
                None => {
                    findings.push(Finding {
                        rule: "SUPPRESS".into(),
                        line,
                        message: "malformed suppression: expected `allow(RULE, \"reason\")`".into(),
                    });
                    continue;
                }
            },
        };
        let rule = rule.trim().to_string();
        let has_reason = reason_rest
            .map(str::trim_start)
            .and_then(|s| s.strip_prefix('"'))
            .and_then(|s| s.split_once('"'))
            .is_some_and(|(reason, tail)| {
                !reason.trim().is_empty() && tail.trim_start().starts_with(')')
            });
        if !has_reason {
            findings.push(Finding {
                rule: "SUPPRESS".into(),
                line,
                message: format!(
                    "suppression of {rule} without a reason: write \
                     `mesh-lint: allow({rule}, \"why this is safe\")`"
                ),
            });
        }
        sups.push(Suppression {
            rule,
            line,
            has_reason,
        });
    }
    (sups, findings)
}

/// Token text at index `i` (`""` when out of range). Shared by every rule
/// family; negative indices simplify look-behind at token 0.
pub(crate) fn t(tokens: &[Token], i: isize) -> &str {
    if i < 0 {
        return "";
    }
    tokens
        .get(i as usize)
        .map(|t| t.text.as_str())
        .unwrap_or("")
}

pub(crate) fn is_ident(s: &str) -> bool {
    s.chars()
        .next()
        .is_some_and(|c| c.is_alphabetic() || c == '_')
}

/// R1: no hash-order traversal of `HashMap`/`HashSet` in deterministic
/// crates. Keyed access (`get`, `insert`, `contains`, …) stays legal.
///
/// Heuristic: any identifier declared in this file with a
/// `HashMap`/`HashSet` type annotation or constructor is tracked; calling an
/// iteration-order method on it, or `for`-looping over it, is a finding.
fn rule_r1_hash_iteration(tokens: &[Token], out: &mut Vec<Finding>) {
    let mut declared: Vec<String> = Vec::new();
    for i in 0..tokens.len() {
        if tokens[i].text != "HashMap" && tokens[i].text != "HashSet" {
            continue;
        }
        // Walk back over `std :: collections ::` path segments.
        let mut j = i as isize - 1;
        while matches!(t(tokens, j), "::" | "std" | "collections") {
            j -= 1;
        }
        let name = match t(tokens, j) {
            ":" | "=" => t(tokens, j - 1),
            _ => continue,
        };
        if is_ident(name) && !declared.iter().any(|d| d == name) {
            declared.push(name.to_string());
        }
    }
    if declared.is_empty() {
        return;
    }

    for i in 0..tokens.len() {
        let name = &tokens[i].text;
        if !declared.iter().any(|d| d == name) {
            continue;
        }
        if t(tokens, i as isize + 1) == "."
            && ITER_METHODS.contains(&t(tokens, i as isize + 2))
            && t(tokens, i as isize + 3) == "("
        {
            out.push(Finding {
                rule: "R1".into(),
                line: tokens[i + 2].line,
                message: format!(
                    "`{name}.{}()` iterates a Hash{{Map,Set}} in hash order; use a \
                     BTreeMap/BTreeSet or collect-and-sort before traversing",
                    t(tokens, i as isize + 2)
                ),
            });
        }
    }

    // `for pat in [&[mut]] path.to.declared {` — a bare dotted path ending in
    // a tracked name is hash-order traversal (method calls are caught above).
    for i in 0..tokens.len() {
        if tokens[i].text != "for" {
            continue;
        }
        let mut j = i + 1;
        let mut depth = 0i32;
        let mut in_at = None;
        while j < tokens.len() && j < i + 60 {
            match tokens[j].text.as_str() {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                "in" if depth == 0 => {
                    in_at = Some(j);
                    break;
                }
                "{" | ";" if depth == 0 => break,
                _ => {}
            }
            j += 1;
        }
        let Some(start) = in_at else { continue };
        let mut expr: Vec<&str> = Vec::new();
        let mut k = start + 1;
        while k < tokens.len() && k < start + 12 && tokens[k].text != "{" {
            expr.push(tokens[k].text.as_str());
            k += 1;
        }
        while expr.first().is_some_and(|&s| s == "&" || s == "mut") {
            expr.remove(0);
        }
        // Pure dotted path: ident (. ident)*
        let is_path = !expr.is_empty()
            && expr.iter().enumerate().all(
                |(idx, s)| {
                    if idx % 2 == 0 {
                        is_ident(s)
                    } else {
                        *s == "."
                    }
                },
            )
            && expr.len() % 2 == 1;
        if is_path {
            let last = expr[expr.len() - 1];
            if declared.iter().any(|d| d == last) {
                out.push(Finding {
                    rule: "R1".into(),
                    line: tokens[start].line,
                    message: format!(
                        "`for .. in {}` traverses a Hash{{Map,Set}} in hash order; use a \
                         BTreeMap/BTreeSet or collect-and-sort first",
                        expr.join("")
                    ),
                });
            }
        }
    }
}

/// R2: no wall-clock reads — simulated time only (`SimTime`/`SimDuration`).
fn rule_r2_wall_clock(tokens: &[Token], out: &mut Vec<Finding>) {
    for i in 0..tokens.len() {
        let text = tokens[i].text.as_str();
        if text == "Instant"
            && t(tokens, i as isize + 1) == "::"
            && t(tokens, i as isize + 2) == "now"
        {
            out.push(Finding {
                rule: "R2".into(),
                line: tokens[i].line,
                message: "`Instant::now()` reads the wall clock; simulation code must use \
                          SimTime (allowlist benches/timing wrappers in mesh-lint.toml)"
                    .into(),
            });
        }
        if text == "SystemTime" {
            out.push(Finding {
                rule: "R2".into(),
                line: tokens[i].line,
                message: "`SystemTime` is wall-clock state; replay-relevant code must be a \
                          pure function of (scenario, plan, seed)"
                    .into(),
            });
        }
    }
}

/// R3: no ambient or degenerate randomness — every stream derives from the
/// run seed through the in-tree xoshiro [`SimRng`].
fn rule_r3_ambient_randomness(tokens: &[Token], out: &mut Vec<Finding>) {
    for i in 0..tokens.len() {
        match tokens[i].text.as_str() {
            "thread_rng" => out.push(Finding {
                rule: "R3".into(),
                line: tokens[i].line,
                message: "`thread_rng()` is ambient randomness; derive a stream from the \
                          run seed via SimRng instead"
                    .into(),
            }),
            "from_entropy" => out.push(Finding {
                rule: "R3".into(),
                line: tokens[i].line,
                message: "`from_entropy()` seeds from the OS; derive a stream from the run \
                          seed via SimRng instead"
                    .into(),
            }),
            "seed_from_u64" | "seed_from"
                if t(tokens, i as isize + 1) == "("
                    && is_zero_literal(t(tokens, i as isize + 2))
                    && t(tokens, i as isize + 3) == ")" =>
            {
                out.push(Finding {
                    rule: "R3".into(),
                    line: tokens[i].line,
                    message: format!(
                        "`{}(0)` hard-codes a degenerate seed; thread the scenario \
                         seed through instead of a literal zero",
                        tokens[i].text
                    ),
                });
            }
            _ => {}
        }
    }
}

fn is_zero_literal(s: &str) -> bool {
    let digits: String = s
        .chars()
        .take_while(|c| c.is_ascii_digit() || *c == '_')
        .collect();
    let rest = &s[digits.len()..];
    let digits: String = digits.chars().filter(|c| *c != '_').collect();
    !digits.is_empty()
        && digits.chars().all(|c| c == '0')
        && (rest.is_empty() || rest.starts_with('u') || rest.starts_with('i'))
}

/// R4: floats order with `total_cmp`, never `partial_cmp().unwrap()` or a
/// `partial_cmp` comparator closure — NaN must be impossible *by types*, not
/// by prayer, and `total_cmp` is additionally a total order over bit
/// patterns (replay-stable).
fn rule_r4_partial_cmp(tokens: &[Token], out: &mut Vec<Finding>) {
    // Depths at which a CMP_SINKS call is currently open.
    let mut sink_depths: Vec<i32> = Vec::new();
    let mut depth = 0i32;
    for i in 0..tokens.len() {
        match tokens[i].text.as_str() {
            "(" => {
                depth += 1;
                if CMP_SINKS.contains(&t(tokens, i as isize - 1)) {
                    sink_depths.push(depth);
                }
            }
            ")" => {
                if sink_depths.last() == Some(&depth) {
                    sink_depths.pop();
                }
                depth -= 1;
            }
            "partial_cmp" => {
                if t(tokens, i as isize - 1) == "fn" {
                    continue; // the PartialOrd impl itself, not a call
                }
                if !sink_depths.is_empty() {
                    out.push(Finding {
                        rule: "R4".into(),
                        line: tokens[i].line,
                        message: "float comparator built on `partial_cmp`; use \
                                  `f64::total_cmp` so the order is total and replay-stable"
                            .into(),
                    });
                    continue;
                }
                // `partial_cmp(..).unwrap()` / `.expect(..)` outside a sort.
                if t(tokens, i as isize + 1) == "(" {
                    let mut d = 0i32;
                    let mut j = i + 1;
                    while j < tokens.len() {
                        match tokens[j].text.as_str() {
                            "(" => d += 1,
                            ")" => {
                                d -= 1;
                                if d == 0 {
                                    break;
                                }
                            }
                            _ => {}
                        }
                        j += 1;
                    }
                    if t(tokens, j as isize + 1) == "."
                        && matches!(t(tokens, j as isize + 2), "unwrap" | "expect")
                    {
                        out.push(Finding {
                            rule: "R4".into(),
                            line: tokens[i].line,
                            message: "`partial_cmp().unwrap/expect` panics on NaN and hides \
                                      a partial order; use `f64::total_cmp`"
                                .into(),
                        });
                    }
                }
            }
            _ => {}
        }
    }
}

/// R5: no threading primitives — event-loop code must stay single-threaded;
/// parallelism lives in the experiment runner's scatter/gather only.
fn rule_r5_threading(tokens: &[Token], out: &mut Vec<Finding>) {
    for i in 0..tokens.len() {
        let text = tokens[i].text.as_str();
        if text == "thread"
            && t(tokens, i as isize + 1) == "::"
            && matches!(t(tokens, i as isize + 2), "spawn" | "scope")
        {
            out.push(Finding {
                rule: "R5".into(),
                line: tokens[i].line,
                message: format!(
                    "`thread::{}` introduces scheduling nondeterminism; threading is \
                     confined to experiments::runner::run_jobs_supervised_resumable",
                    t(tokens, i as isize + 2)
                ),
            });
        }
        if text == "mpsc" {
            out.push(Finding {
                rule: "R5".into(),
                line: tokens[i].line,
                message: "`mpsc` channels imply cross-thread event flow; deterministic \
                          crates must stay single-threaded"
                    .into(),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint(src: &str) -> Vec<Finding> {
        lint_source(
            "crates/test/src/lib.rs",
            "test",
            src,
            &Config::default(),
            LintOpts::default(),
        )
    }

    fn rules(src: &str) -> Vec<String> {
        lint(src).into_iter().map(|f| f.rule).collect()
    }

    #[test]
    fn r1_flags_iteration_not_lookup() {
        let src = "struct S { m: HashMap<u32, u64> }\n\
                   fn f(s: &S) { for k in s.m.keys() {} }\n\
                   fn g(s: &S) -> Option<&u64> { s.m.get(&1) }\n";
        assert_eq!(rules(src), ["R1"]);
    }

    #[test]
    fn r1_flags_for_loop_over_set() {
        let src = "fn f() { let mut seen = HashSet::new(); for x in &seen {} }\n";
        assert_eq!(rules(src), ["R1"]);
    }

    #[test]
    fn r1_ignores_btree() {
        let src = "struct S { m: BTreeMap<u32, u64> }\n\
                   fn f(s: &S) { for k in s.m.keys() {} }\n";
        assert!(rules(src).is_empty());
    }

    #[test]
    fn r2_wall_clock() {
        assert_eq!(rules("fn f() { let t = Instant::now(); }"), ["R2"]);
        assert_eq!(
            rules("fn f() { let t = std::time::SystemTime::now(); }"),
            ["R2"]
        );
    }

    #[test]
    fn r3_randomness() {
        assert_eq!(rules("fn f() { let r = thread_rng(); }"), ["R3"]);
        assert_eq!(rules("fn f() { let r = SimRng::seed_from(0); }"), ["R3"]);
        assert!(rules("fn f(s: u64) { let r = SimRng::seed_from(s); }").is_empty());
    }

    #[test]
    fn r4_sort_and_unwrap_forms() {
        assert_eq!(
            rules("fn f(v: &mut [f64]) { v.sort_by(|a, b| a.partial_cmp(b).unwrap()); }"),
            ["R4"]
        );
        assert_eq!(
            rules("fn f() { let _ = a.partial_cmp(&b).expect(\"no NaN\"); }"),
            ["R4"]
        );
        assert!(rules("fn f(v: &mut [f64]) { v.sort_by(f64::total_cmp); }").is_empty());
        // Bare partial_cmp (e.g. propagating the Option) is fine.
        assert!(rules("fn f() { let _ = a.partial_cmp(&b); }").is_empty());
        // The PartialOrd impl delegating to cmp is the sanctioned pattern.
        assert!(rules(
            "impl PartialOrd for S { fn partial_cmp(&self, o: &Self) -> Option<Ordering> \
             { Some(self.cmp(o)) } }"
        )
        .is_empty());
    }

    #[test]
    fn r5_threading() {
        assert_eq!(rules("fn f() { std::thread::spawn(|| {}); }"), ["R5"]);
        assert_eq!(
            rules("fn f() { let (tx, rx) = std::sync::mpsc::channel::<u32>(); }"),
            ["R5"]
        );
    }

    #[test]
    fn hits_inside_strings_and_comments_do_not_fire() {
        let src = "// Instant::now() thread_rng mpsc\n\
                   /* for k in m.keys() */\n\
                   fn f() { let s = \"SystemTime mpsc thread_rng\"; }\n";
        assert!(rules(src).is_empty());
    }

    #[test]
    fn suppression_with_reason_silences() {
        let src = "fn f() {\n\
                   // mesh-lint: allow(R2, \"bench wrapper measures wall time on purpose\")\n\
                   let t = Instant::now();\n\
                   let u = Instant::now(); // mesh-lint: allow(R2, \"same-line form\")\n\
                   }\n";
        assert!(rules(src).is_empty());
    }

    #[test]
    fn suppression_reason_may_contain_parens() {
        let src = "fn f() {\n\
                   // mesh-lint: allow(R2, \"calibrates against cells.len() (cheap)\")\n\
                   let t = Instant::now();\n\
                   }\n";
        assert!(rules(src).is_empty());
    }

    #[test]
    fn suppression_without_reason_is_an_error_and_does_not_silence() {
        let src = "fn f() {\n\
                   // mesh-lint: allow(R2)\n\
                   let t = Instant::now();\n\
                   }\n";
        let got = rules(src);
        assert_eq!(got, ["SUPPRESS", "R2"]);
    }

    #[test]
    fn suppression_for_wrong_rule_does_not_silence() {
        let src = "// mesh-lint: allow(R3, \"wrong rule\")\nfn f() { let t = Instant::now(); }\n";
        assert_eq!(rules(src), ["R2"]);
    }
}

//! The extended rule families R6–R8, built on the [`crate::scopes`]
//! token-tree pass.
//!
//! * **R6 panic-freedom** — no `unwrap()`/`expect()`/`panic!`/
//!   `unreachable!`/`todo!`/`unimplemented!` and no arithmetic slice
//!   indexing in simulator hot crates, outside test code. Each surviving
//!   site is either refactored to `Result`/`get()` or carries a reasoned
//!   `// mesh-lint: allow(R6, "…")` documenting the invariant.
//! * **R7 unit-safety** — the workspace suffix convention (`_dbm`/`_mw`/
//!   `_w` power, `_s`/`_ms`/`_slots` time, `_m`/`_km` distance) is
//!   enforced across `+`/`-`/comparison/assignment boundaries and at
//!   call sites whose in-file signature declares a conflicting suffix.
//! * **R8 hot-path allocation** — inside `// mesh-lint: hot(<label>)`
//!   regions, allocating calls (`Vec::new`, `.clone()`, `.collect()`,
//!   `format!`, `.to_string()`, `Box::new`, …) and bulk buffer growth
//!   (`.resize()`, `.reserve()`, `.extend()`, …) are findings.
//!
//! Known blind spots (documented in DESIGN.md §10): R6's index check only
//! fires on arithmetic indices (`v[i + 1]`) — plain `v[i]` over
//! per-node arrays indexed by validated `NodeId`s would drown the signal;
//! R7 cannot see units through function returns or literal operands; R8
//! only audits regions someone marked.

use crate::lexer::Token;
use crate::rules::{is_ident, t, Finding};
use crate::scopes::{is_keyword, unit_suffix, ScopeMap};

/// Macros that unconditionally panic when reached.
const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// Method calls that panic on the `None`/`Err` arm.
const PANIC_METHODS: &[&str] = &["unwrap", "expect"];

/// Allocation patterns flagged inside hot regions: `Type::method` paths…
const ALLOC_PATHS: &[(&str, &[&str])] = &[
    ("Vec", &["new", "from", "with_capacity"]),
    ("String", &["new", "from", "with_capacity"]),
    ("Box", &["new"]),
];

/// …allocating macros…
const ALLOC_MACROS: &[&str] = &["vec", "format"];

/// …and allocating (or potentially deep-copying) postfix methods, including
/// the bulk growth calls that size a buffer. `Arc::clone(&x)` in path form
/// is deliberately legal: it advertises a refcount bump, not a deep copy.
/// `push` and `insert` stay legal too: pushing into a buffer that is
/// already big enough is the normal hot-path idiom.
const ALLOC_METHODS: &[&str] = &[
    "clone",
    "collect",
    "to_string",
    "to_owned",
    "to_vec",
    "resize",
    "reserve",
    "reserve_exact",
    "extend",
    "extend_from_slice",
];

/// R6: panic-freedom in simulator hot crates (outside test code).
pub fn rule_r6_panic_freedom(tokens: &[Token], scopes: &ScopeMap, out: &mut Vec<Finding>) {
    for i in 0..tokens.len() {
        if scopes.is_test(i) {
            continue;
        }
        let text = tokens[i].text.as_str();
        let prev = t(tokens, i as isize - 1);
        let next = t(tokens, i as isize + 1);
        if PANIC_METHODS.contains(&text) && prev == "." && next == "(" {
            out.push(Finding {
                rule: "R6".into(),
                line: tokens[i].line,
                message: format!(
                    "`.{text}()` can panic mid-simulation; propagate a Result, use \
                     `get()`/`unwrap_or*`, or document the invariant with \
                     `// mesh-lint: allow(R6, \"…\")`"
                ),
            });
        }
        if PANIC_MACROS.contains(&text) && next == "!" {
            out.push(Finding {
                rule: "R6".into(),
                line: tokens[i].line,
                message: format!(
                    "`{text}!` aborts the run; return an error (or `debug_assert!` a \
                     checked invariant), or allow(R6) with the reasoned invariant"
                ),
            });
        }
        // Arithmetic slice indexing: `v[i + 1]` / `buf[n - k]` — the
        // off-by-one panic class. Plain `v[i]` stays legal (per-node state
        // arrays are indexed by validated NodeIds throughout the
        // simulator), as do attributes, slice patterns and array types.
        if text == "[" && ((is_ident(prev) && !is_keyword(prev)) || prev == ")" || prev == "]") {
            let mut depth = 1i32;
            let mut j = i + 1;
            let mut arith_at: Option<u32> = None;
            while j < tokens.len() && depth > 0 {
                match tokens[j].text.as_str() {
                    "[" | "(" | "{" => depth += 1,
                    "]" | ")" | "}" => depth -= 1,
                    "+" | "-" if depth == 1 && arith_at.is_none() => {
                        arith_at = Some(tokens[j].line);
                    }
                    ";" if depth == 1 => {
                        arith_at = None; // `[0u8; N]` array literal/type
                        break;
                    }
                    _ => {}
                }
                j += 1;
            }
            if let Some(line) = arith_at {
                out.push(Finding {
                    rule: "R6".into(),
                    line,
                    message: "arithmetic slice index can go out of bounds and panic; use \
                              `get()`, a checked offset, or allow(R6) with the bound invariant"
                        .into(),
                });
            }
        }
    }
}

/// R7: unit-suffix safety across arithmetic, assignment and call sites.
pub fn rule_r7_unit_safety(tokens: &[Token], scopes: &ScopeMap, out: &mut Vec<Finding>) {
    mixing_pass(tokens, scopes, out);
    call_site_pass(tokens, scopes, out);
}

/// Resolve the operand starting at token `j` to a single identifier chain
/// (`&mut a.b.c_ms`): returns `(last_segment_index, index_past_chain)` or
/// `None` when the operand is not a plain chain (calls, literals, parens).
fn operand_chain(tokens: &[Token], mut j: usize) -> Option<(usize, usize)> {
    while matches!(t(tokens, j as isize), "&" | "mut" | "*") {
        j += 1;
    }
    let first = t(tokens, j as isize);
    if !is_ident(first) || is_keyword(first) {
        return None;
    }
    let mut last = j;
    loop {
        let dot = t(tokens, last as isize + 1);
        let seg = t(tokens, last as isize + 2);
        if dot == "." && is_ident(seg) && !is_keyword(seg) {
            last += 2;
        } else {
            break;
        }
    }
    if t(tokens, last as isize + 1) == "(" || t(tokens, last as isize + 1) == "::" {
        return None; // call or path — return units are invisible to the lexer
    }
    Some((last, last + 1))
}

/// Pass 1: `a_s + b_ms`, `x_dbm < y_w`, `t_ms = u_s` — a unit-bearing
/// identifier combined with a conflicting one across `+`/`-`/comparison/
/// assignment. Multiplication and division legitimately convert units and
/// are exempt, as is any expression that continues past the operand (a
/// `* 1000.0` conversion tail).
fn mixing_pass(tokens: &[Token], scopes: &ScopeMap, out: &mut Vec<Finding>) {
    for i in 0..tokens.len() {
        if scopes.is_test(i) {
            continue;
        }
        if !is_ident(&tokens[i].text) || is_keyword(&tokens[i].text) {
            continue;
        }
        let Some(u1) = unit_suffix(&tokens[i].text) else {
            continue;
        };
        // A `*`/`/` on the left means a conversion is in progress.
        if matches!(t(tokens, i as isize - 1), "*" | "/") {
            continue;
        }
        let p1 = t(tokens, i as isize + 1);
        let p2 = t(tokens, i as isize + 2);
        let (op, operand_at) = match (p1, p2) {
            ("-", ">") | ("=", ">") => continue, // `->` / `=>`
            ("<", "<") | (">", ">") => continue, // shifts
            ("=", "=") => ("==", i + 3),
            ("!", "=") => ("!=", i + 3),
            ("<", "=") => ("<=", i + 3),
            (">", "=") => (">=", i + 3),
            ("+", "=") => ("+=", i + 3),
            ("-", "=") => ("-=", i + 3),
            ("+", _) => ("+", i + 2),
            ("-", _) => ("-", i + 2),
            ("<", _) => ("<", i + 2),
            (">", _) => (">", i + 2),
            ("=", _) => ("=", i + 2),
            _ => continue,
        };
        let Some((last, past)) = operand_chain(tokens, operand_at) else {
            continue;
        };
        let Some(u2) = unit_suffix(t(tokens, last as isize)) else {
            continue;
        };
        // The operand must end the (sub)expression: a continuing `* 1000.0`
        // is a conversion, not a mix.
        if !matches!(
            t(tokens, past as isize),
            ";" | "," | ")" | "}" | "{" | "]" | ""
        ) {
            continue;
        }
        if u1 != u2 {
            out.push(Finding {
                rule: "R7".into(),
                line: tokens[i].line,
                message: format!(
                    "`{}` ({}) {op} `{}` ({}) mixes {} — convert explicitly before combining",
                    tokens[i].text,
                    u1.unit,
                    t(tokens, last as isize),
                    u2.unit,
                    if u1.class == u2.class {
                        format!("{} units ({} vs {})", u1.class, u1.unit, u2.unit)
                    } else {
                        format!("{} with {}", u1.class, u2.class)
                    }
                ),
            });
        }
    }
}

/// Pass 2: a suffixed binding passed to an in-file `fn` whose parameter in
/// that position declares a conflicting suffix.
fn call_site_pass(tokens: &[Token], scopes: &ScopeMap, out: &mut Vec<Finding>) {
    for i in 0..tokens.len() {
        if scopes.is_test(i) {
            continue;
        }
        let name = tokens[i].text.as_str();
        if !is_ident(name) || is_keyword(name) || t(tokens, i as isize + 1) != "(" {
            continue;
        }
        if t(tokens, i as isize - 1) == "fn" {
            continue; // the declaration itself
        }
        let Some(sig) = scopes.fn_sig(name) else {
            continue;
        };
        // Split the argument list at depth-1 commas.
        let mut args: Vec<(usize, usize)> = Vec::new();
        let mut depth = 0i32;
        let mut start = i + 2;
        let mut j = i + 1;
        while j < tokens.len() {
            match tokens[j].text.as_str() {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => {
                    depth -= 1;
                    if depth == 0 {
                        if j > start {
                            args.push((start, j));
                        }
                        break;
                    }
                }
                "," if depth == 1 => {
                    args.push((start, j));
                    start = j + 1;
                }
                _ => {}
            }
            j += 1;
        }
        if args.len() != sig.params.len() {
            continue; // different overload / macro-ish: cannot line up slots
        }
        for (slot, &(a_start, a_stop)) in args.iter().enumerate() {
            let Some(p_unit) = sig.params[slot] else {
                continue;
            };
            let Some((last, past)) = operand_chain(tokens, a_start) else {
                continue;
            };
            if past != a_stop {
                continue; // not a bare binding — conversions exempt
            }
            let Some(a_unit) = unit_suffix(t(tokens, last as isize)) else {
                continue;
            };
            if a_unit != p_unit {
                out.push(Finding {
                    rule: "R7".into(),
                    line: tokens[a_start].line,
                    message: format!(
                        "`{}` ({}) passed to `{name}` parameter {} declared in {} — \
                         convert before the call",
                        t(tokens, last as isize),
                        a_unit.unit,
                        slot + 1,
                        p_unit.unit,
                    ),
                });
            }
        }
    }
}

/// R8: no allocation inside `// mesh-lint: hot(<label>)` regions.
pub fn rule_r8_hot_alloc(tokens: &[Token], scopes: &ScopeMap, out: &mut Vec<Finding>) {
    // Structural marker misuse is itself a finding — a half-closed region
    // must not silently disable the check.
    out.extend(scopes.marker_errors.iter().cloned());
    if scopes.hot.is_empty() {
        return;
    }
    for i in 0..tokens.len() {
        if scopes.is_test(i) {
            continue;
        }
        let line = tokens[i].line;
        let Some(region) = scopes.hot_region_at(line) else {
            continue;
        };
        let text = tokens[i].text.as_str();
        let prev = t(tokens, i as isize - 1);
        let next = t(tokens, i as isize + 1);
        let what = if let Some((ty, methods)) = ALLOC_PATHS.iter().find(|(ty, _)| *ty == text) {
            let m = t(tokens, i as isize + 2);
            (next == "::" && methods.contains(&m)).then(|| format!("{ty}::{m}"))
        } else if ALLOC_MACROS.contains(&text) && next == "!" {
            Some(format!("{text}!"))
        } else if ALLOC_METHODS.contains(&text) && prev == "." && next == "(" {
            Some(format!(".{text}()"))
        } else {
            None
        };
        if let Some(what) = what {
            out.push(Finding {
                rule: "R8".into(),
                line,
                message: format!(
                    "`{what}` can allocate inside hot region `{}`; hoist it out of the hot \
                     path, reuse a scratch buffer, or allow(R8) with the reasoned cost",
                    region.label
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::scopes;

    fn run(src: &str, rule: fn(&[Token], &ScopeMap, &mut Vec<Finding>)) -> Vec<Finding> {
        let lexed = lex(src);
        let map = scopes::build(&lexed);
        let mut out = Vec::new();
        rule(&lexed.tokens, &map, &mut out);
        out
    }

    fn rules(src: &str, rule: fn(&[Token], &ScopeMap, &mut Vec<Finding>)) -> Vec<String> {
        run(src, rule).into_iter().map(|f| f.rule).collect()
    }

    #[test]
    fn r6_flags_panicking_calls_and_macros() {
        assert_eq!(
            rules("fn f() { x.unwrap(); }", rule_r6_panic_freedom),
            ["R6"]
        );
        assert_eq!(
            rules("fn f() { x.expect(\"m\"); }", rule_r6_panic_freedom),
            ["R6"]
        );
        assert_eq!(
            rules("fn f() { panic!(\"m\"); }", rule_r6_panic_freedom),
            ["R6"]
        );
        assert_eq!(
            rules(
                "fn f() { match x { _ => unreachable!() } }",
                rule_r6_panic_freedom
            ),
            ["R6"]
        );
    }

    #[test]
    fn r6_ignores_non_panicking_cousins() {
        let src = "fn f() { x.unwrap_or(0); y.unwrap_or_else(|| 1); z.unwrap_or_default(); \
                   w.expect_err(\"inverse\"); }";
        assert!(rules(src, rule_r6_panic_freedom).is_empty());
    }

    #[test]
    fn r6_ignores_test_code() {
        let src = "#[cfg(test)]\nmod tests {\n fn f() { x.unwrap(); panic!(); }\n}\n\
                   #[test]\nfn t() { y.unwrap(); }\n";
        assert!(rules(src, rule_r6_panic_freedom).is_empty());
    }

    #[test]
    fn r6_flags_arithmetic_indexing_only() {
        assert_eq!(
            rules("fn f() { let x = v[i + 1]; }", rule_r6_panic_freedom),
            ["R6"]
        );
        assert_eq!(
            rules("fn f() { let x = v[n - k]; }", rule_r6_panic_freedom),
            ["R6"]
        );
        assert!(rules("fn f() { let x = v[i]; }", rule_r6_panic_freedom).is_empty());
        assert!(rules("fn f() { let x = v[idx(j)]; }", rule_r6_panic_freedom).is_empty());
        // Array types/literals, attributes and slice patterns are not indexing.
        assert!(rules(
            "fn f() { let x: [u8; N - 1] = [0; N - 1]; }",
            rule_r6_panic_freedom
        )
        .is_empty());
        assert!(rules("#[cfg(feature = \"x\")]\nfn f() {}", rule_r6_panic_freedom).is_empty());
        assert!(rules("fn f() { let [a, b] = pair; }", rule_r6_panic_freedom).is_empty());
        // Nested call arithmetic is the callee's problem, not an index.
        assert!(rules("fn f() { let x = v[idx(j + 1)]; }", rule_r6_panic_freedom).is_empty());
    }

    #[test]
    fn r7_flags_cross_class_and_cross_unit_mixes() {
        assert_eq!(
            rules(
                "fn f() { let z = delay_s + delta_ms; }",
                rule_r7_unit_safety
            ),
            ["R7"]
        );
        assert_eq!(
            rules(
                "fn f() { if power_dbm < floor_w { x(); } }",
                rule_r7_unit_safety
            ),
            ["R7"]
        );
        assert_eq!(
            rules("fn f() { t_ms = hold_s; }", rule_r7_unit_safety),
            ["R7"]
        );
        assert_eq!(
            rules(
                "fn f() { if dist_m == window_s { x(); } }",
                rule_r7_unit_safety
            ),
            ["R7"]
        );
    }

    #[test]
    fn r7_allows_same_unit_and_conversions() {
        assert!(rules(
            "fn f() { let z = delay_s + jitter_s; }",
            rule_r7_unit_safety
        )
        .is_empty());
        // Multiplication/division convert units by design.
        assert!(rules("fn f() { let t_ms = t_s * 1000.0; }", rule_r7_unit_safety).is_empty());
        assert!(rules("fn f() { let r = dist_m / time_s; }", rule_r7_unit_safety).is_empty());
        // A continuing expression is a conversion tail, not a mix.
        assert!(rules(
            "fn f() { let z = delay_s + delta_ms * 0.001; }",
            rule_r7_unit_safety
        )
        .is_empty());
        // Function returns are invisible — no guess.
        assert!(rules(
            "fn f() { let z = delay_s + elapsed_ms(); }",
            rule_r7_unit_safety
        )
        .is_empty());
    }

    #[test]
    fn r7_checks_call_sites_against_in_file_signatures() {
        let src = "fn set_timeout(window_ms: f64) {}\n\
                   fn good(w_ms: f64) { set_timeout(w_ms); }\n\
                   fn bad(w_s: f64) { set_timeout(w_s); }\n";
        let got = run(src, rule_r7_unit_safety);
        assert_eq!(got.len(), 1, "{got:?}");
        assert_eq!(got[0].line, 3);
    }

    #[test]
    fn r7_call_sites_skip_conversions_and_unknown_arity() {
        let src = "fn set_timeout(window_ms: f64) {}\n\
                   fn ok(w_s: f64) { set_timeout(w_s * 1000.0); }\n\
                   fn other() { set_timeout(1.0); }\n";
        assert!(run(src, rule_r7_unit_safety).is_empty());
    }

    #[test]
    fn r8_flags_allocation_inside_hot_regions_only() {
        let src = "fn cold() { let v: Vec<u32> = Vec::new(); }\n\
                   // mesh-lint: hot(fan-out)\n\
                   fn hot(xs: &[u32]) {\n\
                       let v: Vec<u32> = Vec::new();\n\
                       let s = format!(\"x\");\n\
                       let c = xs.to_vec();\n\
                       let d = thing.clone();\n\
                       buf.resize(xs.len(), 0);\n\
                       buf.reserve(8);\n\
                       buf.reserve_exact(8);\n\
                       buf.extend(xs.iter());\n\
                       buf.extend_from_slice(xs);\n\
                       buf.push(1);\n\
                       buf.insert(0, 1);\n\
                   }\n\
                   // mesh-lint: end-hot\n\
                   fn cold2() { let s = String::new(); buf.resize(9, 0); }\n";
        assert_eq!(rules(src, rule_r8_hot_alloc), ["R8"; 9]);
    }

    #[test]
    fn r8_arc_clone_path_form_is_legal() {
        let src = "// mesh-lint: hot(tx)\n\
                   fn hot() { let m = std::sync::Arc::clone(&msg); out.push(m); }\n\
                   // mesh-lint: end-hot\n";
        assert!(rules(src, rule_r8_hot_alloc).is_empty());
    }

    #[test]
    fn r8_marker_misuse_is_a_finding() {
        assert_eq!(
            rules("// mesh-lint: hot(x)\nfn f() {}\n", rule_r8_hot_alloc),
            ["R8"]
        );
        assert_eq!(rules("// mesh-lint: end-hot\n", rule_r8_hot_alloc), ["R8"]);
    }
}

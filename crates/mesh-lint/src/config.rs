//! `mesh-lint.toml`: per-rule scoping without a TOML dependency.
//!
//! The parser accepts the subset the config actually needs — `#` comments,
//! `[rules.RN]` section headers, and `key = ["a", "b"]` string arrays — and
//! rejects everything else loudly (exit code 2 from the CLI) rather than
//! guessing.

use std::collections::BTreeMap;

/// Scope of one rule.
#[derive(Debug, Default, Clone)]
pub struct RuleScope {
    /// Crate directory names (`crates/<name>`) the rule is confined to.
    /// Empty means the rule applies workspace-wide.
    pub crates: Vec<String>,
    /// Workspace-relative path substrings exempt from the rule. Every entry
    /// should be justified by a comment in the config file.
    pub allow_paths: Vec<String>,
}

/// Parsed configuration.
#[derive(Debug, Default, Clone)]
pub struct Config {
    /// Path substrings excluded from workspace discovery (still scanned when
    /// named explicitly on the command line, e.g. the bad-fixture set).
    pub skip_paths: Vec<String>,
    /// Per-rule scopes, keyed by rule id (`R1`..`R8`).
    pub rules: BTreeMap<String, RuleScope>,
}

impl Config {
    /// The scope for `rule` (default scope if the config has no section).
    pub fn scope(&self, rule: &str) -> RuleScope {
        self.rules.get(rule).cloned().unwrap_or_default()
    }

    /// Whether `rule` applies to the file at workspace-relative `path`,
    /// given the crate directory name it belongs to.
    ///
    /// `unscoped` (the CLI's `--unscoped`) ignores crate confinement and
    /// allowlists — used to exercise every rule on the fixture set. Note
    /// this is distinct from `--all-rules`, which enables the extended
    /// families R6–R8 but still honours this scoping.
    pub fn applies(&self, rule: &str, path: &str, crate_dir: &str, unscoped: bool) -> bool {
        if unscoped {
            return true;
        }
        let scope = self.scope(rule);
        if !scope.crates.is_empty() && !scope.crates.iter().any(|c| c == crate_dir) {
            return false;
        }
        !scope.allow_paths.iter().any(|p| path.contains(p.as_str()))
    }
}

/// Parse a config file. Returns `Err(message)` on any line the subset
/// grammar does not cover.
pub fn parse(src: &str) -> Result<Config, String> {
    let mut cfg = Config::default();
    let mut section: Option<String> = None;
    for (no, raw) in src.lines().enumerate() {
        let line = strip_comment(raw).trim().to_string();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('[') {
            let Some(name) = rest.strip_suffix(']') else {
                return Err(format!("line {}: unterminated section header", no + 1));
            };
            let name = name.trim();
            if let Some(rule) = name.strip_prefix("rules.") {
                cfg.rules.entry(rule.to_string()).or_default();
                section = Some(rule.to_string());
            } else {
                return Err(format!("line {}: unknown section [{name}]", no + 1));
            }
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            return Err(format!("line {}: expected `key = value`", no + 1));
        };
        let key = key.trim();
        let values =
            parse_string_array(value.trim()).map_err(|e| format!("line {}: {e}", no + 1))?;
        match (&section, key) {
            (None, "skip_paths") => cfg.skip_paths = values,
            (None, k) => return Err(format!("line {}: unknown top-level key `{k}`", no + 1)),
            (Some(rule), "crates") => {
                cfg.rules.entry(rule.clone()).or_default().crates = values;
            }
            (Some(rule), "allow_paths") => {
                cfg.rules.entry(rule.clone()).or_default().allow_paths = values;
            }
            (Some(rule), k) => {
                return Err(format!(
                    "line {}: unknown key `{k}` in [rules.{rule}]",
                    no + 1
                ));
            }
        }
    }
    Ok(cfg)
}

/// Drop a trailing `#` comment, respecting `"…"` strings.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    let mut prev_backslash = false;
    for (idx, c) in line.char_indices() {
        match c {
            '"' if !prev_backslash => in_str = !in_str,
            '#' if !in_str => return &line[..idx],
            _ => {}
        }
        prev_backslash = c == '\\' && !prev_backslash;
    }
    line
}

/// Parse `["a", "b"]` (trailing comma tolerated).
fn parse_string_array(v: &str) -> Result<Vec<String>, String> {
    let inner = v
        .strip_prefix('[')
        .and_then(|s| s.strip_suffix(']'))
        .ok_or_else(|| format!("expected a string array, got `{v}`"))?;
    let mut out = Vec::new();
    for part in inner.split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        let s = part
            .strip_prefix('"')
            .and_then(|s| s.strip_suffix('"'))
            .ok_or_else(|| format!("expected a quoted string, got `{part}`"))?;
        out.push(s.to_string());
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_sections_arrays_and_comments() {
        let cfg = parse(
            r#"
            # discovery excludes
            skip_paths = ["target/", "tests/fixtures/"]

            [rules.R1]
            crates = ["mesh-sim", "core"]  # deterministic crates

            [rules.R2]
            allow_paths = ["crates/experiments/src/bin/"]
            "#,
        )
        .unwrap();
        assert_eq!(cfg.skip_paths.len(), 2);
        assert_eq!(cfg.scope("R1").crates, ["mesh-sim", "core"]);
        assert_eq!(cfg.scope("R2").allow_paths, ["crates/experiments/src/bin/"]);
        assert!(cfg.scope("R8").crates.is_empty());
    }

    #[test]
    fn scoping_rules() {
        let cfg =
            parse("[rules.R1]\ncrates = [\"odmrp\"]\nallow_paths = [\"src/legacy\"]\n").unwrap();
        assert!(cfg.applies("R1", "crates/odmrp/src/node.rs", "odmrp", false));
        assert!(!cfg.applies("R1", "crates/maodv/src/node.rs", "maodv", false));
        assert!(!cfg.applies("R1", "crates/odmrp/src/legacy.rs", "odmrp", false));
        assert!(cfg.applies("R1", "crates/maodv/src/node.rs", "maodv", true));
        // Unconfigured rules apply everywhere.
        assert!(cfg.applies("R4", "src/lib.rs", "wmm", false));
    }

    #[test]
    fn rejects_unknown_keys() {
        assert!(parse("unknown = [\"x\"]\n").is_err());
        assert!(parse("[weird]\n").is_err());
        assert!(parse("[rules.R1]\nbogus = [\"x\"]\n").is_err());
        assert!(parse("[rules.R1]\ncrates = nope\n").is_err());
    }
}

//! mesh-lint: the workspace static-analysis framework.
//!
//! The whole evaluation of this reproduction rests on bit-identical
//! `(scenario, plan, seed)` replay — the indexed-vs-naive equivalence tests
//! and the differential-replay oracles are vacuous if nondeterminism leaks
//! into event order or stats. mesh-lint statically enforces the replay
//! contract with five project-specific rules (R1–R5, see [`rules`] and
//! DESIGN.md §10) that clippy cannot express, and the runtime closes the
//! loop with a schedule hash over dequeued events
//! (`mesh_sim::Simulator::schedule_hash`).
//!
//! On top of the original determinism family, `--all-rules` enables three
//! further per-file families built on a lightweight token-tree pass
//! ([`scopes`]) — R6 panic-freedom, R7 unit-suffix safety, R8 hot-path
//! allocation hygiene (all in [`extended`]). A committed [`baseline`] turns
//! `--deny` into a ratchet: only new findings (or stale baseline entries)
//! fail CI.
//!
//! Run it with `cargo run -p mesh-lint -- --deny --all-rules` from the
//! workspace root.

pub mod baseline;
pub mod config;
pub mod extended;
pub mod lexer;
pub mod rules;
pub mod scopes;

use std::path::{Path, PathBuf};

pub use config::Config;
pub use rules::{family_of, Finding, LintOpts};

/// A finding bound to the file it occurred in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileFinding {
    /// Workspace-relative path, `/`-separated.
    pub path: String,
    pub finding: Finding,
}

/// The crate directory name a workspace-relative path belongs to
/// (`crates/<name>/…` → `<name>`; everything else is the umbrella crate).
pub fn crate_dir_of(rel_path: &str) -> &str {
    rel_path
        .strip_prefix("crates/")
        .and_then(|rest| rest.split('/').next())
        .unwrap_or("wmm")
}

/// Lint one Rust source string at a given workspace-relative path.
pub fn lint_source(rel_path: &str, src: &str, cfg: &Config, opts: LintOpts) -> Vec<FileFinding> {
    rules::lint_source(rel_path, crate_dir_of(rel_path), src, cfg, opts)
        .into_iter()
        .map(|finding| FileFinding {
            path: rel_path.to_string(),
            finding,
        })
        .collect()
}

/// Recursively collect lintable `.rs` files under `path`, sorted, so
/// diagnostics are stable. `skip` substrings filter workspace discovery;
/// pass `&[]` when the caller named the path explicitly.
pub fn collect_lintable_files(
    root: &Path,
    path: &Path,
    skip: &[String],
) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    collect_into(root, path, skip, &mut out)?;
    out.sort();
    Ok(out)
}

fn collect_into(
    root: &Path,
    path: &Path,
    skip: &[String],
    out: &mut Vec<PathBuf>,
) -> std::io::Result<()> {
    let rel = rel_str(root, path);
    if skip.iter().any(|s| rel.contains(s.as_str())) {
        return Ok(());
    }
    if path.is_file() {
        if path.extension().is_some_and(|e| e == "rs") {
            out.push(path.to_path_buf());
        }
        return Ok(());
    }
    if !path.is_dir() {
        return Ok(());
    }
    let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
    if name == ".git" || name == "target" {
        return Ok(());
    }
    let mut entries: Vec<PathBuf> = std::fs::read_dir(path)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for entry in entries {
        collect_into(root, &entry, skip, out)?;
    }
    Ok(())
}

/// Workspace-relative `/`-separated form of `path`.
pub fn rel_str(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Lint files on disk. `explicit` disables the config's `skip_paths`
/// (used when the caller names e.g. the fixture directory).
pub fn lint_paths(
    root: &Path,
    paths: &[PathBuf],
    cfg: &Config,
    opts: LintOpts,
    explicit: bool,
) -> std::io::Result<(Vec<FileFinding>, usize)> {
    let no_skip: Vec<String> = Vec::new();
    let skip = if explicit { &no_skip } else { &cfg.skip_paths };
    let mut findings = Vec::new();
    let mut scanned = 0usize;
    for path in paths {
        for file in collect_lintable_files(root, path, skip)? {
            let rel = rel_str(root, &file);
            let src = std::fs::read_to_string(&file)?;
            scanned += 1;
            findings.extend(lint_source(&rel, &src, cfg, opts));
        }
    }
    Ok((findings, scanned))
}

/// Render findings as a JSON array (stable field order, hand-escaped — the
/// auditor is dependency-free by design).
pub fn to_json(findings: &[FileFinding]) -> String {
    let mut out = String::from("[");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n  {{\"path\": \"{}\", \"line\": {}, \"rule\": \"{}\", \"family\": \"{}\", \
             \"message\": \"{}\"}}",
            json_escape(&f.path),
            f.finding.line,
            json_escape(&f.finding.rule),
            json_escape(family_of(&f.finding.rule)),
            json_escape(&f.finding.message)
        ));
    }
    out.push_str(if findings.is_empty() { "]" } else { "\n]" });
    out
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crate_dir_resolution() {
        assert_eq!(crate_dir_of("crates/mesh-sim/src/world.rs"), "mesh-sim");
        assert_eq!(crate_dir_of("crates/core/src/lib.rs"), "core");
        assert_eq!(crate_dir_of("src/lib.rs"), "wmm");
        assert_eq!(crate_dir_of("tests/end_to_end.rs"), "wmm");
    }

    #[test]
    fn json_is_escaped_and_stable() {
        let findings = vec![FileFinding {
            path: "a\"b.rs".into(),
            finding: Finding {
                rule: "R2".into(),
                line: 3,
                message: "tab\there".into(),
            },
        }];
        let json = to_json(&findings);
        assert!(json.contains("a\\\"b.rs"));
        assert!(json.contains("tab\\there"));
        assert_eq!(to_json(&[]), "[]");
    }
}

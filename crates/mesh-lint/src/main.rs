//! CLI for the workspace static-analysis framework.
//!
//! ```text
//! mesh-lint [--deny] [--json] [--all-rules] [--unscoped] [--baseline FILE]
//!           [--write-baseline FILE] [--root DIR] [--config FILE] [PATH...]
//! ```
//!
//! Exit codes are stable so CI can rely on them:
//!   0 — no findings (or findings without `--deny`)
//!   1 — `--deny` and: findings present, or (with `--baseline`) new
//!       findings or stale baseline entries
//!   2 — usage, I/O, config or baseline-file error

use std::path::PathBuf;
use std::process::ExitCode;

use mesh_lint::{baseline, config, family_of, lint_paths, to_json, LintOpts};

struct Args {
    deny: bool,
    json: bool,
    opts: LintOpts,
    baseline: Option<PathBuf>,
    write_baseline: Option<PathBuf>,
    root: PathBuf,
    config: Option<PathBuf>,
    paths: Vec<PathBuf>,
}

fn usage() -> String {
    "usage: mesh-lint [--deny] [--json] [--all-rules] [--unscoped] [--baseline FILE]\n\
     \x20                [--write-baseline FILE] [--root DIR] [--config FILE] [PATH...]\n\
     \n\
     Statically audits the workspace's Rust sources (rules R1-R8, see\n\
     DESIGN.md §10). The default run enforces the determinism family R1-R5;\n\
     --all-rules adds panic-freedom (R6), unit-safety (R7) and hot-path\n\
     allocation (R8). With no PATH, scans the whole workspace minus the\n\
     config's skip_paths; explicit PATHs are scanned unconditionally.\n\
     \n\
     --deny             exit 1 if any finding is reported (CI mode)\n\
     --json             machine-readable output (includes rule family)\n\
     --all-rules        enable every rule family, honouring config scoping\n\
     --unscoped         ignore per-crate scoping and allowlists (fixture\n\
     \x20                  self-test mode; implies nothing about families)\n\
     --baseline F       diff findings against a committed baseline: only\n\
     \x20                  new findings or stale entries fail --deny\n\
     --write-baseline F write current findings as the new baseline and exit\n\
     --root DIR         workspace root (default: .)\n\
     --config F         config file (default: <root>/mesh-lint.toml)"
        .to_string()
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        deny: false,
        json: false,
        opts: LintOpts::default(),
        baseline: None,
        write_baseline: None,
        root: PathBuf::from("."),
        config: None,
        paths: Vec::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--deny" => args.deny = true,
            "--json" => args.json = true,
            "--all-rules" => args.opts.all_families = true,
            "--unscoped" => args.opts.unscoped = true,
            "--baseline" => {
                args.baseline = Some(PathBuf::from(it.next().ok_or("--baseline needs a value")?))
            }
            "--write-baseline" => {
                args.write_baseline = Some(PathBuf::from(
                    it.next().ok_or("--write-baseline needs a value")?,
                ))
            }
            "--root" => args.root = PathBuf::from(it.next().ok_or("--root needs a value")?),
            "--config" => {
                args.config = Some(PathBuf::from(it.next().ok_or("--config needs a value")?))
            }
            "--help" | "-h" => return Err(usage()),
            p if !p.starts_with('-') => args.paths.push(PathBuf::from(p)),
            other => return Err(format!("unknown flag `{other}`\n\n{}", usage())),
        }
    }
    if args.baseline.is_some() && args.write_baseline.is_some() {
        return Err("--baseline and --write-baseline are mutually exclusive".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };

    let config_path = args
        .config
        .clone()
        .unwrap_or_else(|| args.root.join("mesh-lint.toml"));
    let cfg = if config_path.is_file() {
        match std::fs::read_to_string(&config_path)
            .map_err(|e| e.to_string())
            .and_then(|src| config::parse(&src))
        {
            Ok(cfg) => cfg,
            Err(e) => {
                eprintln!("mesh-lint: bad config {}: {e}", config_path.display());
                return ExitCode::from(2);
            }
        }
    } else if args.config.is_some() {
        eprintln!("mesh-lint: config {} not found", config_path.display());
        return ExitCode::from(2);
    } else {
        config::Config::default()
    };

    let explicit = !args.paths.is_empty();
    let paths = if explicit {
        args.paths.iter().map(|p| args.root.join(p)).collect()
    } else {
        vec![args.root.clone()]
    };

    let (findings, scanned) = match lint_paths(&args.root, &paths, &cfg, args.opts, explicit) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("mesh-lint: {e}");
            return ExitCode::from(2);
        }
    };

    if let Some(path) = &args.write_baseline {
        if let Err(e) = std::fs::write(path, to_json(&findings) + "\n") {
            eprintln!("mesh-lint: cannot write baseline {}: {e}", path.display());
            return ExitCode::from(2);
        }
        eprintln!(
            "mesh-lint: wrote baseline {} ({} entry(ies))",
            path.display(),
            findings.len()
        );
        return ExitCode::SUCCESS;
    }

    let diff = match &args.baseline {
        Some(path) => {
            let src = match std::fs::read_to_string(path) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("mesh-lint: cannot read baseline {}: {e}", path.display());
                    return ExitCode::from(2);
                }
            };
            match baseline::parse(&src) {
                Ok(entries) => Some(baseline::diff(&findings, &entries)),
                Err(e) => {
                    eprintln!("mesh-lint: bad baseline {}: {e}", path.display());
                    return ExitCode::from(2);
                }
            }
        }
        None => None,
    };

    // Without a baseline, report (and deny on) every finding; with one,
    // only the new findings are actionable output.
    let actionable = diff.as_ref().map(|d| &d.new).unwrap_or(&findings);

    if args.json {
        println!("{}", to_json(actionable));
    } else {
        for f in actionable {
            println!(
                "{}:{}: [{}/{}] {}",
                f.path,
                f.finding.line,
                f.finding.rule,
                family_of(&f.finding.rule),
                f.finding.message
            );
        }
    }
    let denies = match &diff {
        Some(d) => {
            for e in &d.stale {
                eprintln!(
                    "mesh-lint: stale baseline entry {}:{} [{}] — the finding no longer \
                     fires; shrink the baseline in this PR",
                    e.path, e.line, e.rule
                );
            }
            if !args.json {
                eprintln!(
                    "mesh-lint: {} new finding(s), {} baselined, {} stale baseline \
                     entry(ies), {scanned} file(s) scanned",
                    d.new.len(),
                    d.known,
                    d.stale.len()
                );
            }
            !d.new.is_empty() || !d.stale.is_empty()
        }
        None => {
            if !args.json {
                eprintln!(
                    "mesh-lint: {} finding(s) in {scanned} file(s) scanned",
                    findings.len()
                );
            }
            !findings.is_empty()
        }
    };

    if args.deny && denies {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

//! Regenerate the paper's tables and figures.
//!
//! ```text
//! repro --list                       # every figure id, one per line
//! repro --figure fig2 [FLAGS]        # one figure
//! repro --all [FLAGS]                # every figure, in paper order
//! ```
//!
//! `FLAGS` are the shared experiment flags (`--quick`, `--topologies N`,
//! `--seed N`, `--probe-rate X`; see `experiments::cli`). Each figure is a
//! paper-scale deck, a `--quick` deck and a report: the deck compiles to a
//! scenario, the report runs its variant × seed matrix through
//! `experiments::run` and prints our numbers next to the paper's. A failed
//! shape check exits 1.

mod figures;

use experiments::cli::{CliArgs, CliError};

use figures::FIGURES;

enum Action {
    List,
    One(String),
    All,
}

/// Split off `repro`'s own flags; the rest are shared experiment flags.
fn parse(args: Vec<String>) -> Result<(Action, CliArgs), CliError> {
    let mut action = None;
    let mut rest = Vec::new();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        let next = match a.as_str() {
            "--list" => Action::List,
            "--all" => Action::All,
            "--figure" => Action::One(
                it.next()
                    .ok_or_else(|| CliError::Usage("--figure needs a figure id".into()))?,
            ),
            _ => {
                rest.push(a);
                continue;
            }
        };
        if action.replace(next).is_some() {
            return Err(CliError::Usage(
                "give exactly one of --figure ID, --all, --list".into(),
            ));
        }
    }
    let action = action.ok_or_else(|| {
        CliError::Usage("usage: repro (--figure ID | --all | --list) [FLAGS]".into())
    })?;
    Ok((action, CliArgs::parse(rest)?))
}

fn main() {
    let (action, args) = parse(std::env::args().skip(1).collect()).unwrap_or_else(|e| e.exit());
    match action {
        Action::List => {
            for f in &FIGURES {
                println!("{}", f.id);
            }
        }
        Action::One(id) => {
            let Some(f) = FIGURES.iter().find(|f| f.id == id) else {
                CliError::Usage(format!("unknown figure `{id}` (see --list)")).exit()
            };
            if !f.reproduce(&args) {
                std::process::exit(1);
            }
        }
        Action::All => {
            let mut failures = Vec::new();
            for f in &FIGURES {
                println!("\n################ {} ################\n", f.id);
                if !f.reproduce(&args) {
                    failures.push(f.id);
                }
            }
            println!("\n################ summary ################");
            if failures.is_empty() {
                println!("all experiments completed with shape checks passing");
            } else {
                println!("experiments with failed shape checks: {failures:?}");
                std::process::exit(1);
            }
        }
    }
}

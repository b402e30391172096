//! The golden run table: committed `(deck, variant, seed) →
//! (schedule_hash, delivered, sent)` cells that every change to the run
//! path must reproduce bit for bit.
//!
//! The cells cover the paper five plus ODMRP on `fig2-quick` and on the
//! testbed, the MAODV tree deck, and one `city-churn` cell with its churn
//! overlay active. Each deck's data window is cut to end at 45 s so the
//! suite stays fast in debug builds. A deliberate change to the event
//! schedule regenerates the table in the same commit:
//!
//! ```text
//! REGEN_RUN_GOLDEN=1 cargo test -p experiments --test run_golden
//! ```

use std::path::PathBuf;

use experiments::runner::{paper_variants, run_jobs_supervised_resumable};
use experiments::scenario_compiler::{compile, metro_side, variant_name, WorkloadScenario};
use experiments::{run, RunSpec};
use mcast_metrics::MetricKind;
use mesh_sim::time::{SimDuration, SimTime};
use odmrp::Variant;

fn table_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/run-golden.txt")
}

/// A committed deck with its data window cut to end at 45 s.
fn deck(src: &str) -> WorkloadScenario {
    let mut w = compile(src).expect("committed deck compiles").scenario;
    w.mesh.data_stop = SimTime::from_secs(45);
    w.validated()
}

/// `city-churn` shrunk to 60 nodes and 3 groups, with two churners per
/// group still inside the shortened window.
fn shrunk_city_churn() -> WorkloadScenario {
    let mut w = compile(include_str!("../../../scenarios/city-churn.toml"))
        .expect("city-churn compiles")
        .scenario;
    w.mesh.nodes = 60;
    w.mesh.area_side = metro_side(60, 450.0);
    w.mesh.groups = 3;
    w.mesh.data_stop = SimTime::from_secs(45);
    let churn = w.churn.as_mut().expect("city-churn has churn");
    churn.end = SimTime::from_secs(44);
    churn.dwell = SimDuration::from_secs(5);
    w.validated()
}

/// Every cell of the table: `(deck label, scenario, variant, seed)`.
fn cells() -> Vec<(&'static str, WorkloadScenario, Variant, u64)> {
    let fig2 = deck(include_str!("../../../scenarios/fig2-quick.toml"));
    let testbed = deck(include_str!("../../../scenarios/testbed-quick.toml"));
    let tree = deck(include_str!("../../../scenarios/tree-quick.toml"));
    let mut out = Vec::new();
    for (label, w, variants) in [
        ("fig2-quick", &fig2, paper_variants()),
        ("testbed-quick", &testbed, paper_variants()),
        (
            "tree-quick",
            &tree,
            vec![Variant::Original, Variant::Metric(MetricKind::Spp)],
        ),
    ] {
        for v in variants {
            for seed in 1..=3 {
                out.push((label, w.clone(), v, seed));
            }
        }
    }
    out.push((
        "city-churn",
        shrunk_city_churn(),
        Variant::Metric(MetricKind::Ett),
        3,
    ));
    out
}

#[test]
fn committed_decks_replay_the_golden_run_table() {
    let cells = cells();
    let jobs: Vec<(Variant, u64)> = cells.iter().map(|c| (c.2, c.3)).collect();
    let report = run_jobs_supervised_resumable(
        &jobs,
        0,
        |i, v, s, _| run(&RunSpec::new(&cells[i].1, v, s)),
        |_, _| {},
    );
    let mut table = vec!["# deck variant seed schedule_hash delivered sent".to_string()];
    for (cell, m) in cells.iter().zip(report.into_measurements()) {
        table.push(format!(
            "{} {} {} {:#018x} {} {}",
            cell.0,
            variant_name(m.variant),
            m.seed,
            m.schedule_hash,
            m.delivered,
            m.sent
        ));
    }
    let got = table.join("\n") + "\n";
    if std::env::var_os("REGEN_RUN_GOLDEN").is_some() {
        std::fs::write(table_path(), &got).expect("write the golden run table");
        return;
    }
    let want = std::fs::read_to_string(table_path()).expect("read the golden run table");
    for (w, g) in want.lines().zip(got.lines()) {
        assert_eq!(w, g, "golden run cell diverged (want, got)");
    }
    assert_eq!(want, got, "the golden run table changed length");
}

/// The discovery oracles hold on the tree protocol: a supervised
/// `tree-quick` MAODV run completes with the oracles and watchdog on, and
/// supervision leaves its schedule untouched.
#[test]
fn supervised_tree_run_passes_the_discovery_oracles() {
    let tree = deck(include_str!("../../../scenarios/tree-quick.toml"));
    let spp = Variant::Metric(MetricKind::Spp);
    let plain = run(&RunSpec::new(&tree, spp, 1));
    let supervised = run(&RunSpec::new(&tree, spp, 1).supervised());
    assert_eq!(plain.schedule_hash, supervised.schedule_hash);
    assert_eq!(plain.delivered, supervised.delivered);
}

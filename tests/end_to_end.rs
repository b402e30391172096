//! Cross-crate integration tests: metrics + ODMRP + simulator + testbed
//! model + experiment harness, exercised through the umbrella crate.

use wmm::experiments::runner::{paper_variants, run_matrix, summarize};
use wmm::experiments::scenario::MeshScenario;
use wmm::experiments::scenario_compiler::{compile, WorkloadScenario};
use wmm::experiments::{RunMeasurement, RunSpec};
use wmm::mcast_metrics::MetricKind;
use wmm::mesh_sim::time::SimTime;
use wmm::odmrp::Variant;

fn tiny_mesh() -> WorkloadScenario {
    WorkloadScenario::from_mesh(
        "tiny",
        MeshScenario {
            nodes: 20,
            area_side: 600.0,
            groups: 1,
            members_per_group: 5,
            data_start: SimTime::from_secs(15),
            data_stop: SimTime::from_secs(75),
            ..MeshScenario::paper_default()
        },
    )
}

fn run(s: &WorkloadScenario, v: Variant, seed: u64) -> RunMeasurement {
    wmm::experiments::run(&RunSpec::new(s, v, seed))
}

fn testbed_quick() -> WorkloadScenario {
    compile(include_str!("../scenarios/testbed-quick.toml"))
        .expect("testbed-quick deck compiles")
        .scenario
}

#[test]
fn spp_beats_original_on_average() {
    let s = tiny_mesh();
    let seeds = [1u64, 2, 3];
    let mut orig = 0.0;
    let mut spp = 0.0;
    for &seed in &seeds {
        orig += run(&s, Variant::Original, seed).pdr();
        spp += run(&s, Variant::Metric(MetricKind::Spp), seed).pdr();
    }
    assert!(
        spp > orig,
        "SPP ({:.3}) should beat original ODMRP ({:.3}) on average",
        spp / 3.0,
        orig / 3.0
    );
}

#[test]
fn every_variant_delivers_something() {
    let s = tiny_mesh();
    for v in paper_variants() {
        let m = run(&s, v, 5);
        assert!(
            m.pdr() > 0.1,
            "{v}: PDR {:.3} suspiciously low — protocol broken?",
            m.pdr()
        );
        assert!(m.pdr() <= 1.0, "{v}: PDR above 1 — duplicate leak");
        assert!(
            m.mean_delay_s > 0.0 && m.mean_delay_s < 1.0,
            "{v}: delay out of range"
        );
    }
}

#[test]
fn probe_overhead_ordering_matches_table1() {
    // Pair-probing metrics (PP, ETT) must pay several times the overhead of
    // single-probe metrics (ETX, METX, SPP); the baseline pays none.
    let s = tiny_mesh();
    let get = |v: Variant| run(&s, v, 9).probe_overhead_pct;
    let none = get(Variant::Original);
    let etx = get(Variant::Metric(MetricKind::Etx));
    let spp = get(Variant::Metric(MetricKind::Spp));
    let ett = get(Variant::Metric(MetricKind::Ett));
    let pp = get(Variant::Metric(MetricKind::Pp));
    assert_eq!(none, 0.0);
    assert!(etx > 0.0 && spp > 0.0);
    assert!(ett > 2.0 * etx, "ETT {ett:.2}% vs ETX {etx:.2}%");
    assert!(pp > 2.0 * spp, "PP {pp:.2}% vs SPP {spp:.2}%");
}

#[test]
fn experiment_matrix_is_deterministic() {
    let s = tiny_mesh();
    let run = || {
        let r = run_matrix(
            &[Variant::Original, Variant::Metric(MetricKind::Metx)],
            &[4, 5],
            |v, seed| run(&s, v, seed),
        );
        r.iter().map(|m| (m.delivered, m.sent)).collect::<Vec<_>>()
    };
    assert_eq!(run(), run());
}

#[test]
fn summaries_normalize_against_baseline() {
    let s = tiny_mesh();
    let results: Vec<RunMeasurement> = run_matrix(
        &[Variant::Original, Variant::Metric(MetricKind::Spp)],
        &[1, 2],
        |v, seed| run(&s, v, seed),
    );
    let summ = summarize(&results, Variant::Original);
    let base = summ
        .iter()
        .find(|x| x.variant == Variant::Original)
        .unwrap();
    assert!((base.normalized_throughput.mean - 1.0).abs() < 1e-9);
    assert!((base.normalized_delay.mean - 1.0).abs() < 1e-9);
}

#[test]
fn testbed_model_metric_variant_beats_original() {
    let mut s = testbed_quick();
    s.mesh.data_start = SimTime::from_secs(20);
    s.mesh.data_stop = SimTime::from_secs(180);
    let seeds = [1u64, 2, 3];
    let mut orig = 0.0;
    let mut best = 0.0;
    for &seed in &seeds {
        orig += run(&s, Variant::Original, seed).pdr();
        best += run(&s, Variant::Metric(MetricKind::Spp), seed).pdr();
    }
    assert!(
        best > orig,
        "testbed: SPP ({:.3}) should beat original ({:.3})",
        best / 3.0,
        orig / 3.0
    );
}

#[test]
fn analytic_figures_match_paper_exactly() {
    use wmm::mcast_metrics::{choose_path, figure1_candidates, figure3_candidates};
    let f1 = figure1_candidates();
    let metx = choose_path(&MetricKind::Metx.build(), &f1);
    let spp = choose_path(&MetricKind::Spp.build(), &f1);
    assert_eq!(f1[metx.winner].name, "A-B-D");
    assert_eq!(f1[spp.winner].name, "A-C-D");

    let f3 = figure3_candidates();
    let etx = choose_path(&MetricKind::Etx.build(), &f3);
    let spp3 = choose_path(&MetricKind::Spp.build(), &f3);
    assert_eq!(f3[etx.winner].name, "A-E-D");
    assert_eq!(f3[spp3.winner].name, "A-B-C-D");
}

#[test]
fn tree_extraction_produces_connected_edges() {
    let s = testbed_quick();
    let mut sim = s.build(Variant::Metric(MetricKind::Pp), 3);
    sim.run_until(s.run_until());
    let edges = wmm::experiments::trees::tree_usage(&sim);
    assert!(!edges.is_empty(), "no tree edges selected");
    // Every tree edge must be a real link of the floorplan.
    let links: std::collections::HashSet<(u32, u32)> = wmm::testbed::floorplan::links()
        .into_iter()
        .flat_map(|(a, b, _)| [(a, b), (b, a)])
        .collect();
    for e in &edges {
        let a = wmm::testbed::label_of(e.from);
        let b = wmm::testbed::label_of(e.to);
        assert!(links.contains(&(a, b)), "tree edge {a}->{b} is not a link");
    }
}

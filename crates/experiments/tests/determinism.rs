//! Regression tests for the simulator's determinism contract: a fixed
//! `(configuration, seed)` produces bit-identical results run-to-run, and
//! the spatially-indexed medium changes nothing at all.

use experiments::scenario::MeshScenario;
use experiments::scenario_compiler::WorkloadScenario;
use experiments::{RunMeasurement, RunSpec};
use mesh_sim::time::SimTime;
use odmrp::Variant;

/// A small fig2-style configuration that still exercises probing, join
/// floods and CBR data, but finishes in well under a second.
fn tiny() -> WorkloadScenario {
    WorkloadScenario::from_mesh(
        "tiny",
        MeshScenario {
            // Two groups of 10 members + 1 source each need 22 distinct roles.
            nodes: 25,
            area_side: 700.0,
            data_start: SimTime::from_secs(5),
            data_stop: SimTime::from_secs(10),
            ..MeshScenario::paper_default()
        },
    )
}

fn measure(scenario: &WorkloadScenario, variant: Variant, seed: u64) -> RunMeasurement {
    experiments::run(&RunSpec::new(scenario, variant, seed))
}

#[test]
fn same_config_and_seed_is_bit_identical() {
    let scenario = tiny();
    for variant in [
        Variant::Original,
        Variant::Metric(mcast_metrics::MetricKind::Etx),
    ] {
        let a = measure(&scenario, variant, 7);
        let b = measure(&scenario, variant, 7);
        assert_eq!(a.sent, b.sent);
        assert_eq!(a.delivered, b.delivered);
        assert_eq!(a.mean_delay_s.to_bits(), b.mean_delay_s.to_bits());
        assert_eq!(a.counters, b.counters, "counters diverged across reruns");
        assert_eq!(
            a.schedule_hash, b.schedule_hash,
            "event schedules diverged across reruns"
        );
    }
}

/// Three repeated in-process runs of the same `(scenario, variant, seed)`
/// must agree on every counter *and* on the schedule hash. Two runs can
/// agree by luck when nondeterministic state happens to coincide (e.g. a
/// hash map seeded once per process would pass a 2-run check); three runs in
/// the same process make hash-order leaks much harder to miss, and the
/// schedule hash additionally pins the full dequeue order, not just the
/// final tallies.
#[test]
fn three_runs_same_process_identical_counters_and_schedule() {
    let scenario = tiny();
    let runs: Vec<_> = (0..3)
        .map(|_| {
            measure(
                &scenario,
                Variant::Metric(mcast_metrics::MetricKind::Spp),
                11,
            )
        })
        .collect();
    assert!(runs[0].delivered > 0, "nothing delivered — vacuous check");
    for (i, r) in runs.iter().enumerate().skip(1) {
        assert_eq!(
            runs[0].counters, r.counters,
            "run 0 and run {i} disagree on counters"
        );
        assert_eq!(
            runs[0].schedule_hash, r.schedule_hash,
            "run 0 and run {i} disagree on the dequeue schedule"
        );
        assert_eq!(runs[0].mean_delay_s.to_bits(), r.mean_delay_s.to_bits());
    }
}

#[test]
fn indexed_medium_is_bit_identical_to_naive() {
    let mut scenario = tiny();
    for seed in [1u64, 2, 3] {
        scenario.mesh.indexed_medium = true;
        let indexed = measure(&scenario, Variant::Original, seed);
        scenario.mesh.indexed_medium = false;
        let naive = measure(&scenario, Variant::Original, seed);
        assert!(indexed.sent > 0, "no data sent — vacuous comparison");
        assert_eq!(indexed.sent, naive.sent);
        assert_eq!(indexed.delivered, naive.delivered);
        assert_eq!(indexed.mean_delay_s.to_bits(), naive.mean_delay_s.to_bits());
        assert_eq!(
            indexed.counters, naive.counters,
            "seed {seed}: spatial index changed simulation results"
        );
        assert_eq!(
            indexed.schedule_hash, naive.schedule_hash,
            "seed {seed}: spatial index changed the event dequeue schedule"
        );
    }
}

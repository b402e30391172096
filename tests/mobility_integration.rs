//! Mobility integration: the protocol stack keeps functioning while the
//! topology changes under it.

use wmm::experiments::scenario::MeshScenario;
use wmm::experiments::scenario_compiler::WorkloadScenario;
use wmm::experiments::RunMeasurement;
use wmm::mcast_metrics::MetricKind;
use wmm::mesh_sim::geometry::Area;
use wmm::mesh_sim::mobility::RandomWaypoint;
use wmm::mesh_sim::time::{SimDuration, SimTime};
use wmm::odmrp::Variant;

fn scenario() -> WorkloadScenario {
    WorkloadScenario::from_mesh(
        "mobility",
        MeshScenario {
            nodes: 20,
            area_side: 600.0,
            groups: 1,
            members_per_group: 5,
            data_start: SimTime::from_secs(15),
            data_stop: SimTime::from_secs(90),
            ..MeshScenario::paper_default()
        },
    )
}

/// Mobility with a 500 ms tick, which decks do not expose, so the model is
/// attached to the built simulator; `None` attaches no model (a static mesh).
fn run(mobile: Option<(f64, f64)>, variant: Variant, seed: u64) -> RunMeasurement {
    let s = scenario();
    let groups = s.layout(seed).groups;
    let mut sim = s.build(variant, seed);
    if let Some((lo, hi)) = mobile {
        sim.set_mobility(Box::new(
            RandomWaypoint::new(
                Area::square(s.mesh.area_side),
                lo,
                hi,
                SimDuration::from_secs(5),
            )
            .with_tick(SimDuration::from_millis(500)),
        ));
    }
    sim.run_until(s.run_until());
    RunMeasurement::from_sim(&sim, &groups, seed)
}

#[test]
fn protocol_survives_mobility() {
    let m = run(Some((1.0, 8.0)), Variant::Metric(MetricKind::Spp), 2);
    assert!(
        m.pdr() > 0.2,
        "mobile SPP run should still deliver, got {:.3}",
        m.pdr()
    );
    assert!(m.pdr() <= 1.0);
}

#[test]
fn static_arm_matches_the_run_path() {
    // The static arm, a simulator built by hand and run with no mobility
    // model attached, must match the one run path.
    let hand_built = run(None, Variant::Original, 3);
    let run_path = wmm::experiments::run(&wmm::experiments::RunSpec::new(
        &scenario(),
        Variant::Original,
        3,
    ));
    assert_eq!(hand_built.delivered, run_path.delivered);
    assert_eq!(hand_built.sent, run_path.sent);
}

#[test]
fn mobility_runs_are_deterministic() {
    let a = run(Some((1.0, 5.0)), Variant::Metric(MetricKind::Etx), 7);
    let b = run(Some((1.0, 5.0)), Variant::Metric(MetricKind::Etx), 7);
    assert_eq!(a.delivered, b.delivered);
    assert_eq!(a.counters, b.counters);
}

#[test]
fn mobility_shrinks_the_metric_advantage() {
    // Absolute PDR can even *rise* under random waypoint (its center bias
    // densifies the network), but the paper's premise must show up as a
    // shrinking SPP-over-baseline advantage: probe history describes links
    // that no longer exist.
    let seeds = [11u64, 12, 13];
    let gain = |mobile: Option<(f64, f64)>| {
        let mut base = 0.0;
        let mut spp = 0.0;
        for &s in &seeds {
            base += run(mobile, Variant::Original, s).pdr();
            spp += run(mobile, Variant::Metric(MetricKind::Spp), s).pdr();
        }
        spp / base
    };
    let static_gain = gain(None);
    let mobile_gain = gain(Some((15.0, 30.0)));
    assert!(
        static_gain > mobile_gain,
        "SPP advantage should shrink under mobility: static {static_gain:.3} vs mobile {mobile_gain:.3}"
    );
    assert!(static_gain > 1.02, "static mesh should show a real gain");
}

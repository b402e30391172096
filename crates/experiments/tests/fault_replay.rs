//! Differential replay under fault injection.
//!
//! Random `(topology seed, fault plan, variant)` triples on a small mesh
//! must (a) satisfy every runtime invariant oracle, (b) replay to an
//! identical [`mesh_sim::counters::Counters`] whether or not the oracles run,
//! and (c) degrade gracefully — delivery under faults never beats the
//! fault-free run. A deterministic chain scenario then checks the headline
//! acceptance property: a crashed-then-recovered relay comes back to within
//! 5 % of the fault-free delivery rate once ODMRP rebuilds its forwarding
//! group.

use experiments::scenario::MeshScenario;
use experiments::scenario_compiler::{FaultSpec, WorkloadScenario};
use experiments::{run, RunSpec};
use mcast_metrics::MetricKind;
use mesh_sim::fault::FaultPlan;
use mesh_sim::prelude::*;
use odmrp::{NodeRole, OdmrpConfig, OdmrpNode, Variant};
use proptest::prelude::*;

/// A mesh small enough that a proptest case (three full runs) stays fast.
fn tiny_mesh() -> WorkloadScenario {
    WorkloadScenario::from_mesh(
        "tiny",
        MeshScenario {
            nodes: 12,
            area_side: 500.0,
            groups: 1,
            members_per_group: 3,
            data_start: SimTime::from_secs(10),
            data_stop: SimTime::from_secs(40),
            ..MeshScenario::paper_default()
        },
    )
}

const VARIANTS: [Variant; 3] = [
    Variant::Original,
    Variant::Metric(MetricKind::Etx),
    Variant::Metric(MetricKind::Spp),
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The tentpole property: every sampled triple passes the oracle suite,
    /// replays bit-identically, and never delivers more under faults.
    #[test]
    fn fault_triples_hold_oracles_replay_and_degrade(
        seed in 1u64..10_000,
        intensity in 0.2f64..1.0,
        variant_idx in 0usize..3,
    ) {
        let scenario = tiny_mesh();
        let variant = VARIANTS[variant_idx];
        let plan = scenario.random_fault_plan(seed, intensity);
        let with_faults = WorkloadScenario {
            faults: FaultSpec::Random { intensity },
            ..scenario.clone()
        };

        let clean = run(&RunSpec::new(&scenario, variant, seed));
        // (a) with the full oracle suite at 5 s checkpoints: any violated
        // invariant panics inside the run.
        let mut checked = RunSpec::new(&with_faults, variant, seed);
        checked.supervise.oracles = Some(SimDuration::from_secs(5));
        let faulted = run(&checked);
        // (b) replay without oracles: observation must not perturb the run.
        let replay = run(&RunSpec::new(&with_faults, variant, seed));
        prop_assert_eq!(
            &faulted.counters, &replay.counters,
            "replay of the same (scenario, plan, seed) diverged"
        );
        prop_assert_eq!(faulted.delivered, replay.delivered);
        // The schedule hash commits to every dequeued (time, seq, kind), so
        // it catches reorderings that happen to leave the counters equal.
        prop_assert_eq!(
            faulted.schedule_hash, replay.schedule_hash,
            "event schedules diverged between oracle and replay runs"
        );
        // (c) graceful degradation. Small slack: removing a node also
        // removes its collisions, which can nudge delivery up a hair.
        prop_assert!(
            faulted.pdr() <= clean.pdr() + 0.05,
            "faults improved delivery: {} vs {} (plan of {} events)",
            faulted.pdr(), clean.pdr(), plan.len()
        );
    }
}

// ---------------------------------------------------------------------------

/// A lossless 4-node ODMRP chain 0—1—2—3: source 0, member 3, data over
/// relays 1 and 2.
fn chain_sim(variant: Variant, seed: u64) -> Simulator<OdmrpNode> {
    let positions: Vec<Pos> = (0..4).map(|i| Pos::new(200.0 * i as f64, 0.0)).collect();
    let mut medium = LinkTableMedium::new();
    for i in 0..3u32 {
        medium.add_link(NodeId::new(i), NodeId::new(i + 1), 0.0);
    }
    let cfg = match variant {
        Variant::Original => OdmrpConfig::default(),
        Variant::Metric(k) => OdmrpConfig::with_metric(k),
    };
    let roles = vec![
        NodeRole::source(GroupId(0), SimTime::from_secs(5), SimTime::from_secs(65)),
        NodeRole::forwarder(),
        NodeRole::forwarder(),
        NodeRole::member(GroupId(0)),
    ];
    let nodes: Vec<OdmrpNode> = roles
        .into_iter()
        .map(|r| OdmrpNode::new(cfg.clone(), r))
        .collect();
    Simulator::new(
        positions,
        Box::new(medium),
        WorldConfig {
            seed,
            ..WorldConfig::default()
        },
        nodes,
    )
}

/// Packets the member (node 3) has received so far.
fn member_delivered(sim: &Simulator<OdmrpNode>) -> u64 {
    sim.protocols()[3].stats().total_delivered()
}

/// Deliveries inside `[45 s, 60 s)` — comfortably after the relay recovers
/// at 30 s and ODMRP's 3 s refresh rebuilds the forwarding group.
fn recovery_window_delivery(mut sim: Simulator<OdmrpNode>) -> (u64, Simulator<OdmrpNode>) {
    sim.run_until(SimTime::from_secs(45));
    let before = member_delivered(&sim);
    sim.run_until(SimTime::from_secs(60));
    let after = member_delivered(&sim);
    (after - before, sim)
}

/// The acceptance property: crash the only relay carrying data for 10 s;
/// after it recovers, delivery in a steady-state window must be within 5 %
/// of the fault-free run — for the paper's PP/SPP metric.
#[test]
fn recovered_relay_restores_spp_delivery_within_5_percent() {
    let variant = Variant::Metric(MetricKind::Spp);

    let clean = chain_sim(variant, 42);
    let (clean_window, _) = recovery_window_delivery(clean);
    assert!(
        clean_window > 200,
        "baseline chain barely delivers: {clean_window}"
    );

    let mut faulted = chain_sim(variant, 42);
    faulted.set_fault_plan(FaultPlan::new().crash_window(
        NodeId::new(1),
        SimTime::from_secs(20),
        SimTime::from_secs(30),
    ));
    faulted.set_invariant_interval(SimDuration::from_secs(2));
    faulted.add_oracle(odmrp::invariants::oracle());
    let (fault_window, faulted) = recovery_window_delivery(faulted);

    assert!(
        fault_window as f64 >= 0.95 * clean_window as f64,
        "post-recovery window delivered {fault_window}, fault-free {clean_window}"
    );
    assert_eq!(faulted.protocols()[1].stats().restarts, 1);
    // The outage itself was real: total delivery is visibly below clean.
    assert!(member_delivered(&faulted) < clean_window + 1000);
}

/// While the relay is down the member hears nothing; this pins the fault
/// actually bit (guarding the recovery assertion above against a plan that
/// silently failed to apply).
#[test]
fn crashed_relay_blacks_out_the_member_until_recovery() {
    let mut sim = chain_sim(Variant::Metric(MetricKind::Pp), 7);
    sim.set_fault_plan(FaultPlan::new().crash_window(
        NodeId::new(1),
        SimTime::from_secs(20),
        SimTime::from_secs(30),
    ));
    sim.run_until(SimTime::from_secs(21));
    let at_crash = member_delivered(&sim);
    sim.run_until(SimTime::from_secs(30));
    let during = member_delivered(&sim) - at_crash;
    assert_eq!(during, 0, "member got {during} packets across a dead relay");
    sim.run_until(SimTime::from_secs(45));
    assert!(
        member_delivered(&sim) > at_crash,
        "delivery never resumed after recovery"
    );
}

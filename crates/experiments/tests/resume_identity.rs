//! Differential checkpoint/resume identity.
//!
//! The deterministic-resume contract: a run resumed from a checkpoint taken
//! at **any** sim time must produce exactly the same `schedule_hash`,
//! counters, per-node stats and metrics timeseries as the uninterrupted
//! run. Property-tested at random snapshot times — including under an
//! active fault plan (mid-blackout, mid-backoff, quarantined links) and
//! under mobility (live RNG streams, moving spatial index) — and pinned for
//! every paper-five variant, the tree protocol and the testbed. The
//! runner's own checkpoints (quarter marks, through `run`) are pinned too.

use std::cell::RefCell;

use experiments::measure::RunMeasurement;
use experiments::runner::{Checkpoint, CheckpointSlot};
use experiments::scenario::MeshScenario;
use experiments::scenario_compiler::{compile, FaultSpec, MobilitySpec, WorkloadScenario};
use experiments::{run, RunSpec};
use maodv::MaodvNode;
use mcast_metrics::MetricKind;
use mesh_sim::prelude::*;
use mesh_sim::simulator::Simulator;
use odmrp::{OdmrpNode, Variant};
use proptest::prelude::*;

/// A mesh small enough that a proptest case (three runs) stays fast.
fn tiny_workload() -> WorkloadScenario {
    WorkloadScenario::from_mesh(
        "resume-tiny",
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

/// The same mesh under a seeded random fault plan: snapshots land
/// mid-blackout / mid-backoff / with quarantined links in the estimator
/// tables, which is exactly the state the snapshot must carry.
fn faulted_workload() -> WorkloadScenario {
    WorkloadScenario {
        faults: FaultSpec::Random { intensity: 0.6 },
        ..tiny_workload()
    }
}

/// The mesh under pedestrian random-waypoint motion: live mobility RNG
/// streams and an incrementally-maintained spatial index in flight.
fn mobile_workload() -> WorkloadScenario {
    WorkloadScenario {
        mobility: Some(MobilitySpec {
            min_speed: 0.75,
            max_speed: 2.25,
            pause: SimDuration::ZERO,
        }),
        ..tiny_workload()
    }
}

const VARIANTS: [Variant; 3] = [
    Variant::Original,
    Variant::Metric(MetricKind::Etx),
    Variant::Metric(MetricKind::Spp),
];

/// Measure a finished simulator, timeseries attached.
fn measure(mut sim: Simulator<OdmrpNode>, w: &WorkloadScenario, seed: u64) -> RunMeasurement {
    let groups = w.layout(seed).groups;
    let mut m = RunMeasurement::from_sim(&sim, &groups, seed);
    m.timeseries = sim.world_mut().take_metrics();
    m
}

/// Run `w` uninterrupted, and again with a snapshot/restore round-trip at
/// `t_snap`, then assert the two runs are bit-identical.
fn assert_resume_identity(w: &WorkloadScenario, variant: Variant, seed: u64, t_snap: SimTime) {
    let end = w.run_until();
    let fp = w.fingerprint(variant, seed);
    let bucket = SimDuration::from_secs(3);

    // Uninterrupted reference.
    let mut reference = w.build(variant, seed);
    reference.world_mut().set_metrics(bucket);
    reference.run_until(end);
    let expect = measure(reference, w, seed);

    // Interrupted run: snapshot at t_snap...
    let mut first = w.build(variant, seed);
    first.world_mut().set_metrics(bucket);
    first.run_until(t_snap);
    let bytes = first.snapshot(fp);
    drop(first);

    // ...restore into a *fresh* simulator (constructor side effects and all)
    // and run out the horizon.
    let mut resumed = w.build(variant, seed);
    resumed
        .restore(&bytes, fp)
        .expect("checkpoint must restore into a same-cell simulator");
    resumed.run_until(end);
    let got = measure(resumed, w, seed);

    assert_eq!(
        expect.schedule_hash, got.schedule_hash,
        "schedule hash diverged after resume at {t_snap} ({variant} seed {seed})"
    );
    assert_eq!(
        expect.counters, got.counters,
        "counters diverged after resume at {t_snap}"
    );
    assert_eq!(expect.delivered, got.delivered);
    assert_eq!(expect.sent, got.sent);
    assert!(
        (expect.mean_delay_s - got.mean_delay_s).abs() == 0.0,
        "mean delay diverged: {} vs {}",
        expect.mean_delay_s,
        got.mean_delay_s
    );
    assert_eq!(
        expect.timeseries, got.timeseries,
        "metrics timeseries diverged after resume at {t_snap}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The tentpole property: resume from a random snapshot time is exact,
    /// with and without an active fault plan.
    #[test]
    fn resume_is_bit_identical_at_random_times(
        seed in 1u64..10_000,
        frac in 0.05f64..0.95,
        variant_idx in 0usize..3,
        faulted in any::<bool>(),
    ) {
        let w = if faulted { faulted_workload() } else { tiny_workload() };
        let t_snap = SimTime::from_nanos(
            (w.run_until().as_nanos() as f64 * frac) as u64,
        );
        assert_resume_identity(&w, VARIANTS[variant_idx], seed, t_snap);
    }

    /// Mobility keeps its RNG streams and spatial index exact across the
    /// snapshot boundary too.
    #[test]
    fn mobile_resume_is_bit_identical(
        seed in 1u64..10_000,
        frac in 0.05f64..0.95,
    ) {
        let w = mobile_workload();
        let t_snap = SimTime::from_nanos(
            (w.run_until().as_nanos() as f64 * frac) as u64,
        );
        assert_resume_identity(&w, Variant::Metric(MetricKind::Etx), seed, t_snap);
    }
}

/// Pinned: every paper-five variant (plus the baseline) resumes exactly,
/// snapshot taken mid-data-window.
#[test]
fn paper_variants_resume_exactly() {
    let w = tiny_workload();
    let t_snap = SimTime::from_secs(25);
    for variant in experiments::runner::paper_variants() {
        assert_resume_identity(&w, variant, 7, t_snap);
    }
}

/// Pinned: a fault-plan scenario resumes exactly from a snapshot taken
/// while faults are active (the plan runs inside the data window).
#[test]
fn faulted_scenario_resumes_exactly() {
    let w = faulted_workload();
    for &t in &[SimTime::from_secs(18), SimTime::from_secs(33)] {
        assert_resume_identity(&w, Variant::Metric(MetricKind::Spp), 11, t);
    }
}

/// Pinned: the testbed resumes exactly. Its medium walks every link's loss
/// at a fixed cadence, so the checkpoint must carry the walk (link table
/// and next step) as well as the protocol state.
#[test]
fn testbed_resumes_exactly() {
    let w = compile(include_str!("../../../scenarios/testbed-quick.toml"))
        .expect("testbed-quick compiles")
        .scenario;
    for variant in [Variant::Original, Variant::Metric(MetricKind::Spp)] {
        assert_resume_identity(&w, variant, 1, SimTime::from_secs(60));
    }
}

/// A checkpoint refuses to restore into a different cell (wrong variant ⇒
/// wrong fingerprint), and the error is typed, not a panic.
#[test]
fn checkpoint_rejects_foreign_cells() {
    let w = tiny_workload();
    let seed = 3;
    let mut sim = w.build(Variant::Original, seed);
    sim.run_until(SimTime::from_secs(15));
    let bytes = sim.snapshot(w.fingerprint(Variant::Original, seed));

    let mut other = w.build(Variant::Metric(MetricKind::Etx), seed);
    let err = other
        .restore(
            &bytes,
            w.fingerprint(Variant::Metric(MetricKind::Etx), seed),
        )
        .expect_err("foreign checkpoint must be rejected");
    assert!(matches!(
        err,
        mesh_sim::snapshot::SnapError::FingerprintMismatch { .. }
    ));
}

/// The tree protocol resumes exactly too: `tree-quick` (data window cut to
/// 45 s) runs through [`run`] twice with one [`CheckpointSlot`]. The first
/// run fills the slot; the second resumes from its last checkpoint.
#[test]
fn tree_protocol_resumes_exactly_through_run() {
    let mut w = compile(include_str!("../../../scenarios/tree-quick.toml"))
        .expect("tree-quick compiles")
        .scenario;
    w.mesh.data_stop = SimTime::from_secs(45);
    let w = w.validated();
    let seed = 2;
    for variant in [Variant::Original, Variant::Metric(MetricKind::Spp)] {
        let slot = CheckpointSlot::new();
        let checkpointed = |persisted: &RefCell<Vec<SimTime>>| {
            let persist = |at, _: &[u8]| persisted.borrow_mut().push(at);
            let mut spec = RunSpec::new(&w, variant, seed);
            spec.supervise.checkpoint = Some(Checkpoint {
                slot: &slot,
                persist: &persist,
            });
            run(&spec)
        };
        let first = checkpointed(&RefCell::default());
        let (resume_at, bytes) = slot.get().expect("the first run checkpointed");

        // The checkpoint restores into a fresh MAODV simulator.
        let cfg = w.mesh.odmrp_config(variant);
        let (mut fresh, _) = w.assemble(seed, w.medium(seed), |r| MaodvNode::new(cfg.clone(), r));
        fresh
            .restore(&bytes, w.fingerprint(variant, seed))
            .expect("a MAODV checkpoint restores into a same-cell simulator");

        let persisted = RefCell::default();
        let resumed = checkpointed(&persisted);
        // Resumed, not rebuilt: no checkpoint before the resume point.
        assert!(
            persisted.borrow().iter().all(|&t| t > resume_at),
            "{variant}: the second run started over instead of resuming"
        );
        assert_eq!(
            first.schedule_hash, resumed.schedule_hash,
            "{variant}: schedule hash diverged after resume at {resume_at}"
        );
        assert_eq!(first.counters, resumed.counters, "{variant}: counters");
        assert_eq!(first.delivered, resumed.delivered);
        assert_eq!(first.sent, resumed.sent);
    }
}

/// Checkpointing through [`run`] stops at exactly the quarter marks of the
/// horizon and leaves the run untouched: on an ODMRP and a MAODV deck the
/// persist hook sees `end/4`, `end/2` and `3·end/4`, and the measurement,
/// timeseries included, equals the run without checkpoints.
#[test]
fn run_checkpoints_at_the_quarter_marks_without_perturbing_the_run() {
    for (src, variant) in [
        (
            include_str!("../../../scenarios/fig2-quick.toml"),
            Variant::Original,
        ),
        (
            include_str!("../../../scenarios/tree-quick.toml"),
            Variant::Metric(MetricKind::Spp),
        ),
    ] {
        let mut w = compile(src).expect("committed deck compiles").scenario;
        w.mesh.data_stop = SimTime::from_secs(45);
        let w = w.validated();
        let seed = 1;
        let bucket = SimDuration::from_secs(3);
        let plain = run(&RunSpec::new(&w, variant, seed).metrics(bucket));

        let slot = CheckpointSlot::new();
        let persisted = RefCell::new(Vec::new());
        let persist = |at, _: &[u8]| persisted.borrow_mut().push(at);
        let mut spec = RunSpec::new(&w, variant, seed).metrics(bucket);
        spec.supervise.checkpoint = Some(Checkpoint {
            slot: &slot,
            persist: &persist,
        });
        let checkpointed = run(&spec);

        let end = w.run_until().as_nanos();
        let marks: Vec<SimTime> = (1..4).map(|k| SimTime::from_nanos(end / 4 * k)).collect();
        assert_eq!(*persisted.borrow(), marks, "{}: checkpoint times", w.name);
        assert_eq!(slot.time(), Some(marks[2]), "{}: last checkpoint", w.name);
        assert_eq!(
            plain.schedule_hash, checkpointed.schedule_hash,
            "{}: schedule hash",
            w.name
        );
        assert_eq!(
            plain.counters, checkpointed.counters,
            "{}: counters",
            w.name
        );
        assert_eq!(plain.delivered, checkpointed.delivered);
        assert_eq!(plain.sent, checkpointed.sent);
        assert_eq!(
            plain.timeseries, checkpointed.timeseries,
            "{}: timeseries",
            w.name
        );
    }
}

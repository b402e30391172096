//! The observer-effect contract of `mesh_sim::trace` / `mesh_sim::metrics`:
//! attaching a sink or a metrics recorder must not change the simulation in
//! any observable way — same counters, same measurement, bit-identical
//! `schedule_hash` — and the trace itself must be complete: every planned
//! data arrival appears as exactly one `rx_start` with a terminal outcome.

use experiments::scenario::MeshScenario;
use experiments::scenario_compiler::{compile, FaultSpec, FaultWindow, WorkloadScenario};
use experiments::{run, RunSpec};
use mcast_metrics::MetricKind;
use mesh_sim::ids::NodeId;
use mesh_sim::time::{SimDuration, SimTime};
use mesh_sim::trace::{Decision, DropReason, JsonlTrace, RingTrace, TraceEvent, TraceEventKind};
use odmrp::Variant;

/// The determinism-suite scenario: small but exercises probing, join
/// floods and CBR data.
fn tiny() -> WorkloadScenario {
    WorkloadScenario::from_mesh(
        "tiny",
        MeshScenario {
            nodes: 25,
            area_side: 700.0,
            data_start: SimTime::from_secs(5),
            data_stop: SimTime::from_secs(10),
            ..MeshScenario::paper_default()
        },
    )
}

/// [`tiny`] with faults on every fault code path: a crash and a
/// class-targeted loss burst.
fn faulted(windows: Vec<FaultWindow>) -> WorkloadScenario {
    WorkloadScenario {
        faults: FaultSpec::Windows(windows),
        ..tiny()
    }
}

fn plan() -> Vec<FaultWindow> {
    vec![
        FaultWindow::Crash {
            node: 3,
            from: SimTime::from_secs(6),
            to: SimTime::from_secs(8),
        },
        FaultWindow::ClassLoss {
            class: 0,
            drop: 0.3,
            from: SimTime::from_secs(7),
            to: SimTime::from_secs(9),
        },
    ]
}

fn temp_jsonl(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "mesh-sim-observability-{}-{tag}.jsonl",
        std::process::id()
    ))
}

/// `tree-quick` with its data window cut to 15 s: the tree protocol's
/// grafts and its `forward_query` decisions in the trace.
fn tree() -> WorkloadScenario {
    let mut w = compile(include_str!("../../../scenarios/tree-quick.toml"))
        .expect("tree-quick compiles")
        .scenario;
    w.mesh.data_start = SimTime::from_secs(5);
    w.mesh.data_stop = SimTime::from_secs(15);
    w.validated()
}

#[test]
fn tracing_off_ring_and_file_are_bit_identical() {
    let scenario = faulted(plan());
    let seed = 7;

    // The fault plan really changed the run (otherwise the comparison is
    // weaker than it looks).
    let baseline = run(&RunSpec::new(&tiny(), Variant::Original, seed));
    let off = run(&RunSpec::new(&scenario, Variant::Original, seed));
    assert_ne!(baseline.schedule_hash, off.schedule_hash);
    assert!(off.counters.fault_events > 0);

    let tree = tree();
    let cells = [
        ("faulted", &scenario, Variant::Original),
        ("tree", &tree, Variant::Metric(MetricKind::Spp)),
    ];
    for (cell, scenario, variant) in cells {
        let off = run(&RunSpec::new(scenario, variant, seed));
        let ring_spec = RunSpec::new(scenario, variant, seed)
            .metrics(SimDuration::from_secs(2))
            .trace(Box::new(RingTrace::new(1 << 20)));
        let ring = run(&ring_spec);
        let ring_sink = ring_spec.take_trace();
        let path = temp_jsonl(&format!("observer-{cell}"));
        let file_spec = RunSpec::new(scenario, variant, seed)
            .trace(Box::new(JsonlTrace::create(&path).expect("create temp")));
        let file = run(&file_spec);
        let file_sink = file_spec.take_trace();

        for (label, m) in [("ring", &ring), ("file", &file)] {
            assert_eq!(
                off.schedule_hash, m.schedule_hash,
                "{cell}: {label} sink perturbed the event schedule"
            );
            assert_eq!(
                off.counters, m.counters,
                "{cell}: {label} sink changed counters"
            );
            assert_eq!(off.sent, m.sent);
            assert_eq!(off.delivered, m.delivered);
            assert_eq!(off.mean_delay_s.to_bits(), m.mean_delay_s.to_bits());
            assert_eq!(
                off.probe_overhead_pct.to_bits(),
                m.probe_overhead_pct.to_bits()
            );
        }

        // The sinks actually observed the run.
        let ring_sink = ring_sink.expect("ring sink returned");
        let ring_ref: &RingTrace = ring_sink.as_any().downcast_ref().expect("RingTrace");
        assert!(!ring_ref.is_empty(), "{cell}: ring sink saw no events");
        assert!(
            ring_ref.events().any(|e| matches!(
                e.kind,
                TraceEventKind::ProtocolDecision {
                    decision: Decision::ForwardQuery { .. }
                }
            )),
            "{cell}: no forward_query decision traced"
        );
        let ts = ring.timeseries.as_ref().expect("timeseries recorded");
        assert!(!ts.buckets.is_empty());
        assert!(ts.buckets.iter().all(|b| b.throughput_bps().is_finite()));

        let mut file_sink = file_sink.expect("file sink returned");
        let jsonl: &mut JsonlTrace = file_sink.as_any_mut().downcast_mut().expect("JsonlTrace");
        let lines = jsonl.finish().expect("flush trace file");
        assert!(lines > 0, "{cell}: file sink wrote nothing");
        let text = std::fs::read_to_string(&path).expect("read trace back");
        assert_eq!(text.lines().count() as u64, lines);
        for line in text.lines() {
            TraceEvent::parse_jsonl(line).expect("every line parses");
        }
        let _ = std::fs::remove_file(&path);
    }
}

/// The bytes of a whole traced run are pinned: the faulted cell's JSONL
/// file keeps its line count, length and FNV-1a digest, so any change to
/// the encoder's output (key order, spacing, digits) or to what the world
/// traces fails here.
#[test]
fn faulted_trace_file_bytes_are_pinned() {
    let scenario = faulted(plan());
    let path = temp_jsonl("pinned");
    let spec = RunSpec::new(&scenario, Variant::Original, 7)
        .trace(Box::new(JsonlTrace::create(&path).expect("create temp")));
    run(&spec);
    let mut sink = spec.take_trace().expect("sink returned");
    let jsonl: &mut JsonlTrace = sink.as_any_mut().downcast_mut().expect("JsonlTrace");
    let lines = jsonl.finish().expect("flush trace file");
    let bytes = std::fs::read(&path).expect("read trace back");
    let _ = std::fs::remove_file(&path);
    let fnv1a = bytes.iter().fold(0xcbf2_9ce4_8422_2325_u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    });
    assert_eq!(lines, 42_950);
    assert_eq!(bytes.iter().filter(|&&b| b == b'\n').count(), 42_950);
    assert_eq!(bytes.len(), 4_318_001);
    assert_eq!(fnv1a, 0xd85d_73da_65eb_e0fc, "trace bytes changed");
}

/// Trace completeness: `rx_start` count equals `planned_rx_data`, and each
/// `(node, frame)` reception resolves to exactly one terminal event —
/// `delivered` or `rx_drop` — mirroring the counter-conservation oracle.
#[test]
fn every_planned_arrival_has_one_rx_start_and_one_terminal() {
    let scenario = faulted(plan());
    let spec =
        RunSpec::new(&scenario, Variant::Original, 11).trace(Box::new(RingTrace::new(1 << 22)));
    let m = run(&spec);
    let sink = spec.take_trace().expect("sink returned");
    let ring: &RingTrace = sink.as_any().downcast_ref().expect("RingTrace");
    assert!(
        (ring.len() as u64) < (1 << 22),
        "ring overflowed; completeness check would be vacuous"
    );

    let mut starts: Vec<(u32, u64)> = Vec::new();
    let mut terminals: Vec<(u32, u64)> = Vec::new();
    for e in ring.events() {
        let key = |e: &TraceEvent| {
            (
                e.node.expect("rx events carry a node").index() as u32,
                e.frame.expect("rx events carry a frame").as_u64(),
            )
        };
        match e.kind {
            TraceEventKind::RxStart { .. } => starts.push(key(e)),
            // Data-frame terminals: any rx_drop, or a data Delivered.
            TraceEventKind::RxDrop { .. } => terminals.push(key(e)),
            TraceEventKind::Delivered {
                frame_kind: mesh_sim::trace::FrameKind::Data,
                ..
            } => terminals.push(key(e)),
            _ => {}
        }
    }
    assert_eq!(
        starts.len() as u64,
        m.counters.planned_rx_data,
        "rx_start count != planned_rx_data"
    );
    assert!(m.counters.planned_rx_data > 0, "vacuous run");

    starts.sort_unstable();
    terminals.sort_unstable();
    assert_eq!(
        starts, terminals,
        "every reception must resolve to exactly one terminal event"
    );
}

/// Satellite 3: a plan that blacks out every source before data starts must
/// not leak NaN into any reported quantity.
#[test]
fn all_sources_blacked_out_reports_finite_values() {
    let seed = 5;
    // Crash every source for the whole data phase.
    let sources: Vec<NodeId> = {
        let layout = tiny().layout(seed);
        layout
            .groups
            .iter()
            .flat_map(|g| g.sources.clone())
            .collect()
    };
    assert!(!sources.is_empty());
    let scenario = faulted(
        sources
            .iter()
            .map(|s| FaultWindow::Crash {
                node: s.index(),
                from: SimTime::from_secs(1),
                to: SimTime::from_secs(60),
            })
            .collect(),
    );
    let m =
        run(&RunSpec::new(&scenario, Variant::Original, seed).metrics(SimDuration::from_secs(5)));
    assert_eq!(m.delivered, 0, "crashed sources still delivered data");
    assert!(m.pdr().is_finite());
    assert_eq!(m.pdr(), 0.0);
    assert!(m.mean_delay_s.is_finite());
    assert!(m.probe_overhead_pct.is_finite());
    let ts = m.timeseries.as_ref().expect("timeseries recorded");
    for b in &ts.buckets {
        assert!(b.throughput_bps().is_finite());
        assert!(b.mean_delay_s().is_finite());
    }
}

/// The metrics timeseries agrees with the end-of-run counters and the
/// protocol-reported deliveries.
#[test]
fn timeseries_buckets_sum_to_run_totals() {
    let m = run(&RunSpec::new(&tiny(), Variant::Original, 3).metrics(SimDuration::from_secs(1)));
    let ts = m.timeseries.as_ref().expect("timeseries recorded");
    let rx_frames: u64 = ts.buckets.iter().map(|b| b.rx_data_frames).sum();
    let total_counter_rx: u64 = m.counters.rx_data.iter().map(|c| c.frames).sum();
    assert_eq!(rx_frames, total_counter_rx);
    assert_eq!(ts.total_deliveries(), m.delivered);
    // Buckets tile [0, end) with no gaps.
    for w in ts.buckets.windows(2) {
        assert_eq!(w[0].end, w[1].start);
    }
}

/// Drop reasons recorded in the trace agree with the loss counters.
#[test]
fn drop_histogram_matches_loss_counters() {
    let scenario = tiny();
    let spec =
        RunSpec::new(&scenario, Variant::Original, 13).trace(Box::new(RingTrace::new(1 << 22)));
    let m = run(&spec);
    let sink = spec.take_trace().expect("sink returned");
    let ring: &RingTrace = sink.as_any().downcast_ref().expect("RingTrace");
    let count = |r: DropReason| {
        ring.events()
            .filter(|e| matches!(e.kind, TraceEventKind::RxDrop { reason } if reason == r))
            .count() as u64
    };
    let c = &m.counters;
    assert_eq!(
        count(DropReason::Captured)
            + count(DropReason::Collision)
            + count(DropReason::BelowThreshold)
            + count(DropReason::WhileTx),
        c.rx_lost_data,
    );
    assert_eq!(count(DropReason::Corrupted), c.rx_corrupted_data);
    assert_eq!(count(DropReason::Aborted), c.rx_aborted_data);
    assert_eq!(count(DropReason::Duplicate), c.duplicate_rx_suppressed);
    assert_eq!(count(DropReason::NotForUs), c.unicast_overheard);
    assert_eq!(
        count(DropReason::FaultRx) + count(DropReason::ClassBurst),
        c.fault_rx_dropped
    );
}

/// A mobile, incrementally-indexed run exercises all of the medium's
/// index maintenance, as its cumulative `index_stats()` show (the run
/// re-buckets nodes and answers fan-outs from the cache), and — the
/// observer-effect contract — attaching the metrics recorder leaves both
/// `schedule_hash` and those stats bit-identical.
#[test]
fn metrics_recorder_perturbs_neither_the_schedule_nor_the_index_stats() {
    use mesh_sim::geometry::Area;
    use mesh_sim::mobility::RandomWaypoint;
    use mesh_sim::prelude::*;

    /// Periodic broadcaster: steady medium traffic while nodes move.
    #[derive(Debug, Clone)]
    struct Beacon;
    impl Protocol for Beacon {
        type Msg = u32;
        fn start(&mut self, ctx: &mut Ctx<'_, u32>) {
            let jitter = SimDuration::from_micros(211 * (ctx.node().index() as u64 + 1));
            // Faster than the 100 ms mobility tick, so consecutive beacons
            // from one node land under a single move stamp and exercise
            // the cache-hit path, not just refreshes.
            ctx.set_timer(SimDuration::from_millis(40) + jitter, 0);
        }
        fn handle_message(&mut self, _: &mut Ctx<'_, u32>, _: NodeId, _: &u32, _: RxMeta) {}
        fn handle_timer(&mut self, ctx: &mut Ctx<'_, u32>, _: TimerId, _: u64) {
            let _ = ctx.send_broadcast(ctx.node().index() as u32, 64, 0);
            ctx.set_timer(SimDuration::from_millis(40), 0);
        }
    }

    let build = |with_metrics: bool| {
        // An area several candidate-range grid cells wide, so the waypoint
        // walk actually crosses cell boundaries and re-buckets nodes.
        let area = Area::square(5000.0);
        let mut rng = SimRng::seed_from(0x1D_EC5);
        let positions: Vec<Pos> = (0..40)
            .map(|_| {
                Pos::new(
                    rng.uniform_range(0.0, 5000.0),
                    rng.uniform_range(0.0, 5000.0),
                )
            })
            .collect();
        let medium = Box::new(PhysicalMedium::default()); // indexed + incremental
        let mut sim = Simulator::new(positions, medium, WorldConfig::default(), vec![Beacon; 40]);
        sim.set_mobility(Box::new(RandomWaypoint::new(
            area,
            10.0,
            40.0,
            SimDuration::from_millis(200),
        )));
        if with_metrics {
            sim.world_mut().set_metrics(SimDuration::from_secs(2));
        }
        sim.run_until(SimTime::from_secs(12));
        let ts = sim.world_mut().take_metrics();
        let stats = sim.world().index_stats().expect("indexed medium");
        (sim.schedule_hash(), ts, stats)
    };

    let (hash_plain, ts_plain, stats_plain) = build(false);
    let (hash_metrics, ts, stats) = build(true);

    // Observer effect: recording the timeseries changes nothing.
    assert_eq!(
        hash_plain, hash_metrics,
        "metrics recorder perturbed the run"
    );
    assert_eq!(stats_plain, stats);
    assert!(ts_plain.is_none());
    assert!(
        ts.is_some_and(|ts| !ts.buckets.is_empty()),
        "no timeseries recorded"
    );

    // The run actually exercised incremental maintenance — all of it:
    // crossings, move stamps, hits, and misses.
    assert!(
        stats.rebuckets > 0,
        "mobility never crossed a cell: {stats:?}"
    );
    assert!(stats.epoch_bumps > 0);
    assert!(
        stats.cache_hits > 0,
        "no fan-out reused a cached list: {stats:?}"
    );
    assert!(
        stats.cache_refreshes + stats.cache_rebuilds > 0,
        "no fan-out rebuilt/refreshed: {stats:?}"
    );
    assert_eq!(stats.full_invalidations, 0, "incremental mode fell back");
}

//! Scalability benchmarks: how the simulator behaves as the network grows,
//! with the spatially-indexed medium fan-out on vs off.
//!
//! Two families:
//!
//! * `fanout_scale/*` — raw `PhysicalMedium::fan_out` throughput over a
//!   round-robin of transmitters (what `bench_fanout` measures in detail and
//!   records in `results/BENCH_fanout.json`);
//! * `sim_scale/*` — a short slice of a full ODMRP run on the large-N
//!   paper-density configurations (the area grows with `sqrt(N / 50)`, so
//!   each node keeps the paper's expected neighborhood), so MAC/event-queue costs are
//!   included and the medium speedup is seen in context.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use experiments::scenario::MeshScenario;
use experiments::scenario_compiler::WorkloadScenario;
use experiments::{run, RunSpec};
use mesh_sim::prelude::*;
use odmrp::Variant;

/// Drive `frames` fan-out calls round-robin over all transmitters.
fn drive_fanout(indexed: bool, positions: &[Pos], frames: usize) -> usize {
    let mut medium = PhysicalMedium::new(PhyParams::default()).with_indexing(indexed);
    let mut rng = SimRng::seed_from(0xFA0);
    let mut out = Vec::new();
    let mut heard = 0;
    for f in 0..frames {
        let tx = NodeId::new((f % positions.len()) as u32);
        out.clear();
        medium.fan_out(tx, positions, SimTime::ZERO, &mut rng, &mut out);
        heard += out.len();
    }
    heard
}

fn bench_fanout_scale(c: &mut Criterion) {
    let mut group = c.benchmark_group("fanout_scale");
    for &(nodes, side) in &[(50usize, 1000.0), (500, 3162.3), (500, 10_000.0)] {
        let positions = mesh_sim::topology::random_placement(
            nodes,
            Area::square(side),
            &mut SimRng::seed_from(0x5EED ^ nodes as u64 ^ side as u64),
        );
        let frames = nodes * 40;
        for indexed in [false, true] {
            let id = BenchmarkId::new(
                format!("n{nodes}_side{}m", side as u64),
                if indexed { "indexed" } else { "naive" },
            );
            group.bench_with_input(id, &positions, |b, positions| {
                b.iter(|| black_box(drive_fanout(indexed, positions, frames)))
            });
        }
    }
    group.finish();
}

fn bench_sim_scale(c: &mut Criterion) {
    let mut group = c.benchmark_group("sim_scale");
    group.sample_size(2);
    for &nodes in &[50usize, 200] {
        // A thin slice: probing is active from t=0, so five sim-seconds
        // already exercise the medium heavily without CBR data.
        let mut scenario = WorkloadScenario::from_mesh(
            "sim-scale",
            MeshScenario {
                nodes,
                area_side: 1000.0 * (nodes as f64 / 50.0).sqrt(),
                data_start: SimTime::from_secs(4),
                data_stop: SimTime::from_secs(5),
                ..MeshScenario::paper_default()
            },
        );
        for indexed in [false, true] {
            scenario.mesh.indexed_medium = indexed;
            let id = BenchmarkId::new(
                format!("n{nodes}"),
                if indexed { "indexed" } else { "naive" },
            );
            let s = scenario.clone();
            group.bench_function(id, move |b| {
                b.iter(|| black_box(run(&RunSpec::new(&s, Variant::Original, 1)).delivered))
            });
        }
    }
    group.finish();
}

fn tuned() -> Criterion {
    Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_secs(2))
        .sample_size(10)
}

criterion_group! {
    name = benches;
    config = tuned();
    targets =
    bench_fanout_scale,
    bench_sim_scale
}
criterion_main!(benches);

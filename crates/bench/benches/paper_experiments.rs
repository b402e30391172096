//! One benchmark group per table/figure of the paper, each running a
//! scaled-down (but structurally identical) version of the experiment that
//! regenerates it. The full-scale harness is `repro --figure <id>`; these
//! benches track the
//! cost of the underlying scenario machinery and keep every experiment
//! exercised by `cargo bench`.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use experiments::scenario::MeshScenario;
use experiments::scenario_compiler::{compile, WorkloadScenario};
use experiments::{run, RunMeasurement, RunSpec};
use mcast_metrics::{choose_path, figure1_candidates, figure3_candidates, MetricKind};
use mesh_sim::time::SimTime;
use odmrp::Variant;

/// A miniature of the §4.1 mesh: 16 nodes, 20 s of data.
fn tiny_mesh() -> WorkloadScenario {
    WorkloadScenario::from_mesh(
        "tiny",
        MeshScenario {
            nodes: 16,
            area_side: 500.0,
            groups: 1,
            members_per_group: 4,
            data_start: SimTime::from_secs(10),
            data_stop: SimTime::from_secs(30),
            ..MeshScenario::paper_default()
        },
    )
}

/// The testbed deck with 30 s of data.
fn tiny_testbed() -> WorkloadScenario {
    let mut s = compile(include_str!("../../../scenarios/testbed-quick.toml"))
        .expect("testbed-quick compiles")
        .scenario;
    s.mesh.data_start = SimTime::from_secs(10);
    s.mesh.data_stop = SimTime::from_secs(40);
    s
}

fn measure(s: &WorkloadScenario, v: Variant) -> RunMeasurement {
    run(&RunSpec::new(s, v, 1))
}

/// Figures 1 and 3: the analytic worked examples.
fn bench_fig1_fig3(c: &mut Criterion) {
    c.bench_function("fig1_metx_vs_spp_analytic", |b| {
        let cands = figure1_candidates();
        let metx = MetricKind::Metx.build();
        let spp = MetricKind::Spp.build();
        b.iter(|| {
            (
                choose_path(&metx, black_box(&cands)).winner,
                choose_path(&spp, black_box(&cands)).winner,
            )
        })
    });
    c.bench_function("fig3_etx_vs_spp_analytic", |b| {
        let cands = figure3_candidates();
        let etx = MetricKind::Etx.build();
        let spp = MetricKind::Spp.build();
        b.iter(|| {
            (
                choose_path(&etx, black_box(&cands)).winner,
                choose_path(&spp, black_box(&cands)).winner,
            )
        })
    });
}

/// Figure 2, simulation columns (throughput / high-overhead / delay) and
/// Table 1 all run the same matrix; bench one baseline and one metric run,
/// plus the high-overhead configuration.
fn bench_fig2_sim(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig2_sim_tiny");
    g.sample_size(10);
    for variant in [
        Variant::Original,
        Variant::Metric(MetricKind::Spp),
        Variant::Metric(MetricKind::Pp),
    ] {
        g.bench_with_input(
            BenchmarkId::from_parameter(variant.label()),
            &variant,
            |b, &v| {
                let s = tiny_mesh();
                b.iter(|| black_box(measure(&s, v).pdr()))
            },
        );
    }
    g.bench_function("ETX_high_overhead_x5", |b| {
        let mut s = tiny_mesh();
        s.mesh.probe_rate = 5.0; // Fig. 2 "Throughput-high overhead" / §4.2.2
        b.iter(|| black_box(measure(&s, Variant::Metric(MetricKind::Etx)).pdr()))
    });
    g.finish();
}

/// Table 1: probing overhead extraction (the measurement side).
fn bench_table1(c: &mut Criterion) {
    let mut g = c.benchmark_group("table1_overhead_tiny");
    g.sample_size(10);
    g.bench_function("ETT_overhead_measurement", |b| {
        let s = tiny_mesh();
        b.iter(|| black_box(measure(&s, Variant::Metric(MetricKind::Ett)).probe_overhead_pct))
    });
    g.finish();
}

/// §4.3: the multi-source configuration.
fn bench_multi_source(c: &mut Criterion) {
    let mut g = c.benchmark_group("multi_source_tiny");
    g.sample_size(10);
    g.bench_function("two_sources_per_group", |b| {
        let mut s = tiny_mesh();
        s.mesh.members_per_group = 3;
        s.mesh.sources_per_group = 2;
        b.iter(|| black_box(measure(&s, Variant::Metric(MetricKind::Spp)).pdr()))
    });
    g.finish();
}

/// Figure 2 "Throughput-testbed" and Figure 5: the testbed model.
fn bench_testbed(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig2_testbed_tiny");
    g.sample_size(10);
    for variant in [Variant::Original, Variant::Metric(MetricKind::Pp)] {
        g.bench_with_input(
            BenchmarkId::from_parameter(variant.label()),
            &variant,
            |b, &v| {
                let s = tiny_testbed();
                b.iter(|| black_box(measure(&s, v).pdr()))
            },
        );
    }
    g.finish();
}

fn tuned() -> Criterion {
    Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(2))
        .sample_size(10)
}

criterion_group! {
    name = benches;
    config = tuned();
    targets =
    bench_fig1_fig3,
    bench_fig2_sim,
    bench_table1,
    bench_multi_source,
    bench_testbed
}
criterion_main!(benches);

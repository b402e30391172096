//! Turning passes into named metrics.

use odmrp::messages::class;

use crate::span::{Layer, Row};
use crate::workload::{JobOut, Pass};

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// The value, never NaN or infinite.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Samples behind the value.
    pub n: usize,
}

fn metric(name: &str, value: f64, unit: &'static str, n: usize) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
        n,
    }
}

/// `a / b`, or 0 when `b` is 0 (a layer that never ran).
fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Median (mean of the middle two for an even count); 0 for no samples.
pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The jobs of `passes` that finished without a failure.
fn finished(passes: &[Pass], traced: bool) -> Vec<&JobOut> {
    passes
        .iter()
        .flat_map(|p| &p.outs)
        .filter(|o| o.failure.is_none() && o.outputs.is_some() && o.rows.is_some() == traced)
        .collect()
}

/// End-to-end metrics of an untraced run. Every time is normalized by the
/// work it bought, because the work itself varies with the topology a seed
/// draws.
pub fn end_to_end(passes: &[Pass]) -> Vec<Metric> {
    let jobs = finished(passes, false);
    let n = jobs.len();
    let events: f64 = jobs.iter().map(|j| j.counters.events as f64).sum();
    let run_wall: f64 = jobs.iter().map(|j| j.run_wall_s).sum();
    let makespan: f64 = passes.iter().map(|p| p.makespan_s).sum();
    let snapshot_mb: f64 = jobs.iter().map(|j| j.snapshot_bytes as f64 / 1e6).sum();
    let snapshot_s: f64 = jobs.iter().map(|j| j.snapshot_s).sum();
    let setups: Vec<f64> = jobs
        .iter()
        .flat_map(|j| j.setup_s.iter().copied())
        .collect();
    vec![
        metric("events_per_s", ratio(events, run_wall), "1/s", n),
        metric("batch_events_per_s", ratio(events, makespan), "1/s", n),
        metric(
            "snapshot_mb_per_s",
            ratio(snapshot_mb, snapshot_s),
            "MB/s",
            n,
        ),
        metric("setup_s", median(&setups), "s", setups.len()),
    ]
}

/// The finished traced jobs of a run, with sums over their rows.
struct Totals<'a> {
    jobs: Vec<&'a JobOut>,
}

impl Totals<'_> {
    fn rows(&self) -> impl Iterator<Item = &[Row]> + '_ {
        self.jobs
            .iter()
            .filter_map(|j| j.rows.as_ref().map(|r| &r[..]))
    }

    fn sum(&self, layers: &[Layer], f: impl Fn(&Row) -> u64) -> f64 {
        self.rows()
            .map(|r| layers.iter().map(|&l| f(&r[l as usize])).sum::<u64>() as f64)
            .sum()
    }

    fn self_s(&self, layers: &[Layer]) -> f64 {
        self.sum(layers, |r| r.self_ns) / 1e9
    }

    fn calls(&self, layers: &[Layer]) -> f64 {
        self.sum(layers, |r| r.calls)
    }

    fn items(&self, layers: &[Layer]) -> f64 {
        self.sum(layers, |r| r.items)
    }

    fn allocs(&self, layers: &[Layer]) -> f64 {
        self.sum(layers, |r| r.allocs)
    }

    fn wall_s(&self) -> f64 {
        self.self_s(&Layer::ALL)
    }

    fn per_job(&self, total: f64) -> f64 {
        ratio(total, self.jobs.len() as f64)
    }

    fn counter(&self, f: impl Fn(&JobOut) -> u64) -> f64 {
        self.jobs.iter().map(|j| f(j) as f64).sum()
    }

    fn share(&self, layers: &[Layer]) -> f64 {
        ratio(self.self_s(layers), self.wall_s())
    }

    fn ns_per_call(&self, layers: &[Layer]) -> f64 {
        ratio(self.self_s(layers) * 1e9, self.calls(layers))
    }
}

const SCENARIO: [Layer; 3] = [Layer::Compile, Layer::Layout, Layer::Build];
const MEDIUM: [Layer; 2] = [Layer::FanOut, Layer::PositionsChanged];
const ODMRP: [Layer; 4] = [
    Layer::OdmrpMessage,
    Layer::OdmrpTimer,
    Layer::OdmrpTxComplete,
    Layer::OdmrpLifecycle,
];
const SNAPSHOT: [Layer; 2] = [Layer::SnapshotWrite, Layer::SnapshotRead];

/// Per-layer metrics of a traced run. Counts are per traced job; times per
/// call are self time over calls; shares are self time over job wall time.
/// The `process` rows and `simulator.sim_s_per_wall_s` come from the
/// untraced twins.
pub fn per_layer(passes: &[Pass], peak_rss_mb: f64) -> Vec<Metric> {
    let t = Totals {
        jobs: finished(passes, true),
    };
    let n = t.jobs.len();
    let events = t.counter(|j| j.counters.events);
    let tx_data = t.counter(|j| j.counters.tx_data.iter().map(|c| c.frames).sum());
    let tx_frames = tx_data + t.counter(|j| j.counters.tx_ctrl_frames);
    let class_frames = |c: u8| t.per_job(t.counter(|j| j.counters.tx_data[c as usize].frames));
    let index =
        |f: fn(&mesh_sim::medium::IndexStats) -> u64| t.counter(|j| j.index.as_ref().map_or(0, f));
    let lookups = index(|s| s.cache_hits + s.cache_refreshes + s.cache_rebuilds);
    let sim = [Layer::Simulator];
    let allocs = t.allocs(&Layer::ALL);
    let alloc_bytes = t.sum(&Layer::ALL, |r| r.alloc_bytes);

    // Event-loop wall time with and without the shims, from medians: single
    // runs vary too much for a per-pair ratio to mean anything.
    let untraced = finished(passes, false);
    let twins: Vec<f64> = untraced.iter().map(|o| o.run_wall_s).collect();
    let twin_sim_s: f64 = untraced.iter().map(|o| o.sim_s).sum();
    let heap: Vec<f64> = untraced
        .iter()
        .map(|o| o.heap_peak_bytes as f64 / 1e6)
        .collect();
    let traced: Vec<f64> = t.jobs.iter().map(|j| j.run_wall_s).collect();
    let utilization: Vec<f64> = passes
        .iter()
        .map(|p| {
            let busy: f64 = p.outs.iter().map(|o| o.wall_s).sum();
            ratio(busy, p.workers as f64 * p.makespan_s)
        })
        .collect();
    let retries: f64 = passes
        .iter()
        .flat_map(|p| &p.outs)
        .map(|o| o.attempts.saturating_sub(1) as f64)
        .sum();

    let mut m = vec![
        metric("simulator.self_s", t.per_job(t.self_s(&sim)), "s", n),
        metric("simulator.share", t.share(&sim), "ratio", n),
        metric("simulator.events", t.per_job(events), "count", n),
        metric(
            "simulator.ns_per_event",
            ratio(t.self_s(&sim) * 1e9, events),
            "ns",
            n,
        ),
        metric(
            "simulator.events_per_tx_frame",
            ratio(events, tx_frames),
            "ratio",
            n,
        ),
        metric(
            "simulator.sim_s_per_wall_s",
            ratio(twin_sim_s, twins.iter().sum()),
            "s/s",
            twins.len(),
        ),
        metric("mac.tx_frames", t.per_job(tx_frames), "count", n),
        metric(
            "mac.retries",
            t.per_job(t.counter(|j| j.counters.retries)),
            "count",
            n,
        ),
        metric(
            "mac.queue_drops",
            t.per_job(t.counter(|j| j.counters.queue_drops)),
            "count",
            n,
        ),
        metric(
            "mac.collisions",
            t.per_job(t.counter(|j| j.counters.collisions)),
            "count",
            n,
        ),
        metric(
            "mac.rx_decode_ratio",
            ratio(
                t.counter(|j| j.counters.rx_data.iter().map(|c| c.frames).sum()),
                t.counter(|j| j.counters.planned_rx_data),
            ),
            "ratio",
            n,
        ),
        metric(
            "medium.fan_out_calls",
            t.per_job(t.calls(&[Layer::FanOut])),
            "count",
            n,
        ),
        metric("medium.share", t.share(&MEDIUM), "ratio", n),
        metric(
            "medium.ns_per_fan_out",
            t.ns_per_call(&[Layer::FanOut]),
            "ns",
            n,
        ),
        metric(
            "medium.rx_plans_per_fan_out",
            ratio(t.items(&[Layer::FanOut]), t.calls(&[Layer::FanOut])),
            "ratio",
            n,
        ),
        metric(
            "medium.positions_changed_calls",
            t.per_job(t.calls(&[Layer::PositionsChanged])),
            "count",
            n,
        ),
        metric(
            "medium.positions_changed_share",
            t.share(&[Layer::PositionsChanged]),
            "ratio",
            n,
        ),
        metric(
            "medium.index_hit_ratio",
            ratio(index(|s| s.cache_hits), lookups),
            "ratio",
            n,
        ),
        metric(
            "medium.index_rebuckets",
            t.per_job(index(|s| s.rebuckets)),
            "count",
            n,
        ),
        metric(
            "odmrp.message_calls",
            t.per_job(t.calls(&[Layer::OdmrpMessage])),
            "count",
            n,
        ),
        metric(
            "odmrp.message_ns_per_call",
            t.ns_per_call(&[Layer::OdmrpMessage]),
            "ns",
            n,
        ),
        metric(
            "odmrp.timer_calls",
            t.per_job(t.calls(&[Layer::OdmrpTimer])),
            "count",
            n,
        ),
        metric(
            "odmrp.timer_ns_per_call",
            t.ns_per_call(&[Layer::OdmrpTimer]),
            "ns",
            n,
        ),
        metric(
            "odmrp.tx_complete_calls",
            t.per_job(t.calls(&[Layer::OdmrpTxComplete])),
            "count",
            n,
        ),
        metric("odmrp.share", t.share(&ODMRP), "ratio", n),
        metric("odmrp.probe_frames", class_frames(class::PROBE), "count", n),
        metric(
            "odmrp.control_frames",
            class_frames(class::CONTROL),
            "count",
            n,
        ),
        metric("odmrp.data_frames", class_frames(class::DATA), "count", n),
        metric(
            "oracles.calls",
            t.per_job(t.calls(&[Layer::Oracles])),
            "count",
            n,
        ),
        metric("oracles.share", t.share(&[Layer::Oracles]), "ratio", n),
        metric(
            "trace.records",
            t.per_job(t.calls(&[Layer::Trace])),
            "count",
            n,
        ),
        metric(
            "trace.records_per_s",
            ratio(t.calls(&[Layer::Trace]), t.self_s(&[Layer::Trace])),
            "1/s",
            n,
        ),
        metric("trace.share", t.share(&[Layer::Trace]), "ratio", n),
        metric(
            "snapshot.bytes_mean",
            ratio(
                t.items(&[Layer::SnapshotWrite]),
                t.calls(&[Layer::SnapshotWrite]),
            ),
            "bytes",
            n,
        ),
        metric(
            "snapshot.write_mb_per_s",
            ratio(
                t.items(&[Layer::SnapshotWrite]) / 1e6,
                t.self_s(&[Layer::SnapshotWrite]),
            ),
            "MB/s",
            n,
        ),
        metric(
            "snapshot.read_mb_per_s",
            ratio(
                t.items(&[Layer::SnapshotRead]) / 1e6,
                t.self_s(&[Layer::SnapshotRead]),
            ),
            "MB/s",
            n,
        ),
        metric(
            "scenario.compile_s",
            t.ns_per_call(&[Layer::Compile]) / 1e9,
            "s",
            n,
        ),
        metric(
            "scenario.layout_s",
            t.ns_per_call(&[Layer::Layout]) / 1e9,
            "s",
            n,
        ),
        metric(
            "scenario.build_s",
            t.ns_per_call(&[Layer::Build]) / 1e9,
            "s",
            n,
        ),
        metric(
            "runner.utilization",
            median(&utilization),
            "ratio",
            passes.len(),
        ),
        metric(
            "runner.retries",
            ratio(retries, passes.len() as f64),
            "count",
            passes.len(),
        ),
        metric("process.peak_rss_mb", peak_rss_mb, "MB", 1),
        metric("process.heap_peak_mb", median(&heap), "MB", heap.len()),
        metric(
            "process.allocs_per_event",
            ratio(allocs, events),
            "ratio",
            n,
        ),
        metric(
            "process.alloc_bytes_per_event",
            ratio(alloc_bytes, events),
            "bytes",
            n,
        ),
    ];
    for (name, layers) in [
        ("harness.allocs", &[Layer::Harness][..]),
        ("scenario.allocs", &SCENARIO[..]),
        ("simulator.allocs", &sim[..]),
        ("medium.allocs", &MEDIUM[..]),
        ("odmrp.allocs", &ODMRP[..]),
        ("oracles.allocs", &[Layer::Oracles][..]),
        ("trace.allocs", &[Layer::Trace][..]),
        ("snapshot.allocs", &SNAPSHOT[..]),
    ] {
        m.push(metric(name, t.per_job(t.allocs(layers)), "count", n));
    }
    m.push(metric(
        "harness.trace_overhead",
        ratio(median(&traced), median(&twins)) - 1.0,
        "ratio",
        n,
    ));
    m
}

/// One line per traced job: its wall time and each layer's self time.
pub fn job_rows(passes: &[Pass]) -> Vec<String> {
    let mut lines = vec![format!(
        "  {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8}",
        "wall_s",
        "harness",
        "scenario",
        "simulatr",
        "medium",
        "odmrp",
        "oracles",
        "trace",
        "snapshot",
        "sum/wall"
    )];
    for j in finished(passes, true) {
        let Some(rows) = &j.rows else { continue };
        let s =
            |ls: &[Layer]| ls.iter().map(|&l| rows[l as usize].self_ns).sum::<u64>() as f64 / 1e9;
        lines.push(format!(
            "  {:>8.4} {:>8.4} {:>8.4} {:>8.4} {:>8.4} {:>8.4} {:>8.4} {:>8.4} {:>8.4} {:>8.5}",
            j.wall_s,
            s(&[Layer::Harness]),
            s(&SCENARIO),
            s(&[Layer::Simulator]),
            s(&MEDIUM),
            s(&ODMRP),
            s(&[Layer::Oracles]),
            s(&[Layer::Trace]),
            s(&SNAPSHOT),
            s(&Layer::ALL) / j.wall_s
        ));
    }
    lines
}

/// Whether a traced job's layer self times add up to its wall time (1%).
pub fn self_times_add_up(j: &JobOut) -> bool {
    let Some(rows) = &j.rows else { return true };
    let sum = rows.iter().map(|r| r.self_ns).sum::<u64>() as f64 / 1e9;
    (sum - j.wall_s).abs() <= 0.01 * j.wall_s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}

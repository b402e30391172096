//! Paper-style report rendering: our measurements next to the paper's
//! numbers, plus the qualitative "shape" checks DESIGN.md commits to.

use mcast_metrics::MetricKind;
use mesh_sim::metrics::TimeSeries;
use odmrp::Variant;

use crate::paper;
use crate::runner::VariantSummary;
use crate::stats::render_table;

fn find(summaries: &[VariantSummary], v: Variant) -> Option<&VariantSummary> {
    summaries.iter().find(|s| s.variant == v)
}

fn metric_row(summaries: &[VariantSummary], kind: MetricKind) -> Option<&VariantSummary> {
    find(summaries, Variant::Metric(kind))
}

/// Render the normalized-throughput comparison (one Fig. 2 column).
pub fn throughput_table(summaries: &[VariantSummary], paper_col: &[(MetricKind, f64)]) -> String {
    let mut rows = Vec::new();
    if let Some(base) = find(summaries, Variant::Original) {
        rows.push(vec![
            "ODMRP".to_string(),
            format!("{:.3}", base.pdr.mean),
            "1.000".to_string(),
            "1.000".to_string(),
        ]);
    }
    for kind in MetricKind::comparison_kinds() {
        if let Some(s) = metric_row(summaries, kind) {
            rows.push(vec![
                s.variant.label(),
                format!("{:.3}", s.pdr.mean),
                format!(
                    "{:.3} ± {:.3}",
                    s.normalized_throughput.mean,
                    s.normalized_throughput.ci95_half_width()
                ),
                paper::lookup(paper_col, kind)
                    .map(|v| format!("{v:.3}"))
                    .unwrap_or_default(),
            ]);
        }
    }
    render_table(
        &["variant", "PDR", "normalized throughput (ours)", "paper"],
        &rows,
    )
}

/// Render the normalized-delay comparison (Fig. 2, "Delay" column).
pub fn delay_table(summaries: &[VariantSummary]) -> String {
    let mut rows = Vec::new();
    if find(summaries, Variant::Original).is_some() {
        rows.push(vec![
            "ODMRP".to_string(),
            "1.000".to_string(),
            "1.000".to_string(),
        ]);
    }
    for kind in MetricKind::comparison_kinds() {
        if let Some(s) = metric_row(summaries, kind) {
            rows.push(vec![
                s.variant.label(),
                format!(
                    "{:.3} ± {:.3}",
                    s.normalized_delay.mean,
                    s.normalized_delay.ci95_half_width()
                ),
                paper::lookup(&paper::FIG2_DELAY, kind)
                    .map(|v| format!("{v:.3} (approx)"))
                    .unwrap_or_default(),
            ]);
        }
    }
    render_table(&["variant", "normalized delay (ours)", "paper"], &rows)
}

/// Render the probing-overhead comparison (Table 1).
pub fn overhead_table(summaries: &[VariantSummary]) -> String {
    let mut rows = Vec::new();
    for kind in MetricKind::comparison_kinds() {
        if let Some(s) = metric_row(summaries, kind) {
            rows.push(vec![
                kind.name().to_string(),
                format!("{:.2}", s.probe_overhead_pct.mean),
                paper::lookup(&paper::TABLE1_OVERHEAD_PCT, kind)
                    .map(|v| format!("{v:.2}"))
                    .unwrap_or_default(),
            ]);
        }
    }
    render_table(
        &["metric", "% overhead (ours)", "% overhead (paper)"],
        &rows,
    )
}

/// Render a per-bucket view of one run's metrics timeseries: throughput,
/// deliveries and mean delay over time (the "when", next to the end-of-run
/// tables' "how much"), plus the spatial index's maintenance activity
/// (re-buckets, epoch bumps, and the cache hit / miss split, where a miss
/// is a refresh or a rebuild). Buckets with no deliveries render delay as
/// `-` rather than a bogus zero; runs without an index render the index
/// columns as all zeroes.
pub fn timeseries_table(ts: &TimeSeries) -> String {
    let rows: Vec<Vec<String>> = ts
        .buckets
        .iter()
        .map(|b| {
            vec![
                format!("{:.1}-{:.1}", b.start.as_secs_f64(), b.end.as_secs_f64()),
                format!("{:.1}", b.throughput_bps() / 1000.0),
                b.tx_data_frames.to_string(),
                b.rx_data_frames.to_string(),
                b.deliveries.to_string(),
                if b.deliveries > 0 {
                    format!("{:.1}", b.mean_delay_s() * 1000.0)
                } else {
                    "-".to_string()
                },
                (b.collisions + b.rx_lost_data + b.rx_corrupted_data).to_string(),
                (b.queue_drops + b.fault_rx_dropped).to_string(),
                b.index_rebuckets.to_string(),
                b.index_epoch_bumps.to_string(),
                b.index_cache_hits.to_string(),
                (b.index_cache_refreshes + b.index_cache_rebuilds).to_string(),
            ]
        })
        .collect();
    render_table(
        &[
            "t (s)",
            "rx kbit/s",
            "tx data",
            "rx data",
            "delivered",
            "delay ms",
            "phy loss",
            "drops",
            "rebucket",
            "epoch",
            "ix hit",
            "ix miss",
        ],
        &rows,
    )
}

/// The qualitative claims a faithful reproduction must satisfy for the
/// simulation throughput column. Returns human-readable failures (empty =
/// all shape checks hold).
pub fn throughput_shape_failures(summaries: &[VariantSummary]) -> Vec<String> {
    let mut fails = Vec::new();
    let get = |k: MetricKind| metric_row(summaries, k).map(|s| s.normalized_throughput.mean);
    let (Some(ett), Some(etx), Some(metx), Some(pp), Some(spp)) = (
        get(MetricKind::Ett),
        get(MetricKind::Etx),
        get(MetricKind::Metx),
        get(MetricKind::Pp),
        get(MetricKind::Spp),
    ) else {
        return vec!["missing variants in summary".into()];
    };
    for (name, v) in [
        ("ETT", ett),
        ("ETX", etx),
        ("METX", metx),
        ("PP", pp),
        ("SPP", spp),
    ] {
        if v <= 1.0 {
            fails.push(format!(
                "{name} does not beat original ODMRP (normalized {v:.3})"
            ));
        }
    }
    if etx < ett - 0.02 {
        fails.push(format!(
            "ETX ({etx:.3}) should be at least on par with ETT ({ett:.3})"
        ));
    }
    let top = pp.max(spp);
    for (name, v) in [("ETT", ett), ("ETX", etx)] {
        if v > top + 0.02 {
            fails.push(format!(
                "{name} ({v:.3}) should not beat the best of SPP/PP ({top:.3})"
            ));
        }
    }
    if metx > top + 0.02 {
        fails.push(format!(
            "METX ({metx:.3}) should sit between ETX/ETT and SPP/PP (top {top:.3})"
        ));
    }
    fails
}

/// Shape checks for the probing-overhead table: pair-probing metrics (PP,
/// ETT) must cost several times more than single-probe metrics.
pub fn overhead_shape_failures(summaries: &[VariantSummary]) -> Vec<String> {
    let mut fails = Vec::new();
    let get = |k: MetricKind| metric_row(summaries, k).map(|s| s.probe_overhead_pct.mean);
    let (Some(ett), Some(etx), Some(metx), Some(pp), Some(spp)) = (
        get(MetricKind::Ett),
        get(MetricKind::Etx),
        get(MetricKind::Metx),
        get(MetricKind::Pp),
        get(MetricKind::Spp),
    ) else {
        return vec!["missing variants in summary".into()];
    };
    let cheap = etx.max(metx).max(spp);
    for (name, v) in [("PP", pp), ("ETT", ett)] {
        if v < 2.0 * cheap {
            fails.push(format!(
                "{name} overhead ({v:.2}%) should be several times the single-probe metrics ({cheap:.2}%)"
            ));
        }
    }
    if !(0.05..20.0).contains(&etx) {
        fails.push(format!("ETX overhead {etx:.2}% is implausible"));
    }
    fails
}

/// Render a Fig. 2-style horizontal bar chart of normalized throughput:
/// one bar per variant (ours) with the paper's value marked `|`.
pub fn throughput_bars(summaries: &[VariantSummary], paper_col: &[(MetricKind, f64)]) -> String {
    let mut out = String::new();
    let width = 46usize;
    let max_v = summaries
        .iter()
        .map(|s| s.normalized_throughput.mean)
        .chain(paper_col.iter().map(|&(_, v)| v))
        .fold(1.0f64, f64::max)
        * 1.05;
    let scale = |v: f64| ((v / max_v) * width as f64).round() as usize;
    for kind in MetricKind::comparison_kinds() {
        let Some(s) = metric_row(summaries, kind) else {
            continue;
        };
        let ours = s.normalized_throughput.mean;
        let mut bar: Vec<char> = vec![' '; width + 1];
        for c in bar.iter_mut().take(scale(ours).min(width)) {
            *c = '#';
        }
        if let Some(p) = paper::lookup(paper_col, kind) {
            let idx = scale(p).min(width);
            bar[idx] = '|';
        }
        let baseline = scale(1.0).min(width);
        if bar[baseline] == ' ' {
            bar[baseline] = ':';
        }
        out.push_str(&format!(
            "{:<5} {} {:.3}\n",
            kind.name(),
            bar.into_iter().collect::<String>(),
            ours
        ));
    }
    out.push_str("      ('#' = ours, '|' = paper, ':' = ODMRP baseline at 1.0)\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Summary;

    fn mk(v: Variant, tp: f64, delay: f64, oh: f64) -> VariantSummary {
        VariantSummary {
            variant: v,
            pdr: Summary::of([0.5]),
            normalized_throughput: Summary::of([tp]),
            normalized_delay: Summary::of([delay]),
            probe_overhead_pct: Summary::of([oh]),
        }
    }

    fn paper_like() -> Vec<VariantSummary> {
        vec![
            mk(Variant::Original, 1.0, 1.0, 0.0),
            mk(Variant::Metric(MetricKind::Ett), 1.135, 1.06, 3.03),
            mk(Variant::Metric(MetricKind::Etx), 1.145, 0.99, 0.66),
            mk(Variant::Metric(MetricKind::Metx), 1.16, 1.03, 0.61),
            mk(Variant::Metric(MetricKind::Pp), 1.18, 1.05, 2.54),
            mk(Variant::Metric(MetricKind::Spp), 1.18, 0.98, 0.53),
        ]
    }

    #[test]
    fn paper_numbers_pass_all_shape_checks() {
        let s = paper_like();
        assert!(throughput_shape_failures(&s).is_empty());
        assert!(overhead_shape_failures(&s).is_empty());
    }

    #[test]
    fn inverted_results_fail_shape_checks() {
        let mut s = paper_like();
        // Make ETT the best and SPP losing to ODMRP.
        s[1].normalized_throughput = Summary::of([1.5]);
        s[5].normalized_throughput = Summary::of([0.9]);
        let fails = throughput_shape_failures(&s);
        assert!(fails.iter().any(|f| f.contains("SPP")));
        assert!(fails.iter().any(|f| f.contains("ETT")));
    }

    #[test]
    fn bars_render_and_mark_baseline() {
        let s = paper_like();
        let bars = throughput_bars(&s, &paper::FIG2_THROUGHPUT_SIM);
        assert!(bars.contains("SPP"));
        assert!(bars.contains('#'));
        assert!(bars.contains('|') || bars.contains(':'));
        assert_eq!(bars.lines().count(), 6); // 5 metrics + legend
    }

    #[test]
    fn timeseries_table_renders_buckets_without_nan() {
        use mesh_sim::metrics::MetricsBucket;
        use mesh_sim::time::{SimDuration, SimTime};
        let ts = TimeSeries {
            bucket_width: SimDuration::from_secs(10),
            buckets: vec![
                MetricsBucket {
                    start: SimTime::ZERO,
                    end: SimTime::from_secs(10),
                    rx_data_bytes: 125_000,
                    deliveries: 4,
                    delay_sum_s: 0.08,
                    index_rebuckets: 7,
                    index_epoch_bumps: 31,
                    index_cache_hits: 90,
                    index_cache_refreshes: 8,
                    index_cache_rebuilds: 2,
                    ..MetricsBucket::default()
                },
                // An all-idle bucket must not produce NaN anywhere.
                MetricsBucket {
                    start: SimTime::from_secs(10),
                    end: SimTime::from_secs(20),
                    ..MetricsBucket::default()
                },
            ],
        };
        let t = timeseries_table(&ts);
        assert!(t.contains("100.0"), "throughput kbit/s missing:\n{t}");
        assert!(t.contains("20.0"), "delay ms missing:\n{t}");
        assert!(!t.contains("NaN"), "NaN leaked into report:\n{t}");
        // Index maintenance columns: hits, and misses = refreshes + rebuilds.
        for col in ["rebucket", "epoch", "ix hit", "ix miss"] {
            assert!(t.contains(col), "missing column {col} in:\n{t}");
        }
        assert!(t.contains("90"), "index hits missing:\n{t}");
        assert!(t.contains("10"), "index misses (8+2) missing:\n{t}");
        assert_eq!(t.lines().count(), 4);
    }

    #[test]
    fn tables_render_all_variants() {
        let s = paper_like();
        let t = throughput_table(&s, &paper::FIG2_THROUGHPUT_SIM);
        for name in ["ODMRP", "ODMRP_ETT", "ODMRP_SPP"] {
            assert!(t.contains(name), "missing {name} in:\n{t}");
        }
        let d = delay_table(&s);
        assert!(d.contains("ODMRP_ETX"));
        let o = overhead_table(&s);
        assert!(o.contains("3.03"));
    }
}

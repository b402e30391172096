//! Property-based tests of the metric algebra and estimators.

use mcast_metrics::metrics::metx_closed_form;
use mcast_metrics::window::SeqWindow;
use mcast_metrics::{
    choose_path, CandidatePath, EstimatorConfig, LinkEstimate, LinkObservation, Metric, MetricKind,
    Metx, Spp,
};
use mesh_sim::time::{SimDuration, SimTime};
use proptest::prelude::*;

fn df_strategy() -> impl Strategy<Value = f64> {
    // Realistic delivery ratios: strictly positive, at most 1.
    (0.01f64..=1.0).prop_map(|x| x)
}

fn obs(df: f64) -> LinkObservation {
    LinkObservation {
        df,
        delay_s: Some(0.005 / df),
        bandwidth_bps: Some(2.0e6 * df),
        reverse_df: Some(df),
        // Couple congestion to link quality (lossier link = busier
        // forwarder) so WCETT-LB's load term stays monotone with df and the
        // cross-metric laws below apply to it unchanged.
        congestion: Some(1.0 - df),
    }
}

fn all_metrics() -> Vec<mcast_metrics::AnyMetric> {
    // Every kind — a new metric is law-checked automatically.
    MetricKind::ALL.map(MetricKind::build).to_vec()
}

proptest! {
    /// METX's incremental recursion must equal Equation (2)'s closed form.
    #[test]
    fn metx_recursion_equals_closed_form(dfs in prop::collection::vec(df_strategy(), 1..10)) {
        let m = Metx::default();
        let rec = m.path_cost(dfs.iter().map(|&d| m.link_cost(&obs(d)))).value();
        let closed = metx_closed_form(&dfs);
        prop_assert!((rec - closed).abs() / closed < 1e-9,
                     "recursion {rec} vs closed {closed}");
    }

    /// SPP's product equals exp of the sum of logs (numerical sanity) and
    /// lies in (0, 1].
    #[test]
    fn spp_product_in_unit_interval(dfs in prop::collection::vec(df_strategy(), 1..12)) {
        let m = Spp::default();
        let p = m.path_cost(dfs.iter().map(|&d| m.link_cost(&obs(d)))).value();
        let log_sum: f64 = dfs.iter().map(|d| d.ln()).sum();
        prop_assert!(p > 0.0 && p <= 1.0);
        prop_assert!((p.ln() - log_sum).abs() < 1e-9);
    }

    /// Extending a path never makes it better, for every metric.
    #[test]
    fn paths_never_improve_when_extended(
        dfs in prop::collection::vec(df_strategy(), 1..8),
        extra in df_strategy(),
    ) {
        for m in all_metrics() {
            let p = m.path_cost(dfs.iter().map(|&d| m.link_cost(&obs(d))));
            let q = m.accumulate(p, m.link_cost(&obs(extra)));
            prop_assert!(!m.better(q, p),
                         "{}: extended path became better ({} -> {})",
                         m.kind(), p.value(), q.value());
        }
    }

    /// `better` is a strict ordering: irreflexive and asymmetric.
    #[test]
    fn better_is_strict(
        a in prop::collection::vec(df_strategy(), 1..6),
        b in prop::collection::vec(df_strategy(), 1..6),
    ) {
        for m in all_metrics() {
            let pa = m.path_cost(a.iter().map(|&d| m.link_cost(&obs(d))));
            let pb = m.path_cost(b.iter().map(|&d| m.link_cost(&obs(d))));
            prop_assert!(!m.better(pa, pa), "{}: irreflexivity", m.kind());
            prop_assert!(!(m.better(pa, pb) && m.better(pb, pa)),
                         "{}: asymmetry", m.kind());
        }
    }

    /// Every real path beats the metric's `worst()` sentinel.
    #[test]
    fn real_paths_beat_worst(dfs in prop::collection::vec(df_strategy(), 1..8)) {
        for m in all_metrics() {
            let p = m.path_cost(dfs.iter().map(|&d| m.link_cost(&obs(d))));
            prop_assert!(m.better(p, m.worst()), "{}", m.kind());
        }
    }

    /// Improving any single link must not make the whole path worse
    /// (per-link monotonicity of the accumulation).
    #[test]
    fn improving_a_link_never_hurts(
        dfs in prop::collection::vec(df_strategy(), 1..8),
        idx in 0usize..8,
        boost in 1.0f64..3.0,
    ) {
        let idx = idx % dfs.len();
        for m in all_metrics() {
            let worse = m.path_cost(dfs.iter().map(|&d| m.link_cost(&obs(d))));
            let mut improved = dfs.clone();
            improved[idx] = (improved[idx] * boost).min(1.0);
            let betterp = m.path_cost(improved.iter().map(|&d| m.link_cost(&obs(d))));
            prop_assert!(!m.better(worse, betterp),
                         "{}: improving link {idx} made the path worse", m.kind());
        }
    }

    /// The path chosen by `choose_path` is never strictly beaten by another
    /// candidate.
    #[test]
    fn chosen_path_is_maximal(
        paths in prop::collection::vec(prop::collection::vec(df_strategy(), 1..6), 1..5)
    ) {
        let cands: Vec<CandidatePath> = paths
            .iter()
            .enumerate()
            .map(|(i, dfs)| CandidatePath::new(format!("p{i}"), dfs.clone()))
            .collect();
        for m in all_metrics() {
            let choice = choose_path(&m, &cands);
            let win = mcast_metrics::path::path_cost_from_dfs(&m, &cands[choice.winner].dfs);
            for c in &cands {
                let other = mcast_metrics::path::path_cost_from_dfs(&m, &c.dfs);
                prop_assert!(!m.better(other, win), "{}: winner beaten", m.kind());
            }
        }
    }

    /// Sequence windows always report ratios in [0, 1] regardless of the
    /// arrival pattern.
    #[test]
    fn seq_window_ratio_bounded(
        seqs in prop::collection::vec(0u64..200, 0..64),
        missed in 0u32..1000,
    ) {
        let mut w = SeqWindow::new(10);
        for s in &seqs {
            w.record(*s);
        }
        if let Some(r) = w.ratio_with_missed(missed) {
            prop_assert!((0.0..=1.0).contains(&r));
        } else {
            prop_assert!(seqs.is_empty());
        }
    }

    /// The link estimator's forward ratio is always usable: in (0, 1].
    #[test]
    fn estimator_df_always_usable(
        arrivals in prop::collection::vec((0u64..100, 0u64..2_000), 0..50),
        query_at in 0u64..3_000,
    ) {
        let cfg = EstimatorConfig::default();
        let mut e = LinkEstimate::new(&cfg);
        let mut sorted = arrivals.clone();
        sorted.sort_by_key(|&(_, t)| t);
        for (seq, t) in sorted {
            e.on_single(seq, SimDuration::from_secs(5), SimTime::from_secs(t));
        }
        let df = e.forward_ratio(SimTime::from_secs(query_at), &cfg);
        prop_assert!(df > 0.0 && df <= 1.0, "df={df}");
    }

    /// PP's effective delay is positive, finite, and non-decreasing in
    /// elapsed silent time.
    #[test]
    fn pp_delay_monotone_in_silence(
        base_delay_ms in 1u64..50,
        t1 in 0u64..1_000,
        extra in 0u64..10_000,
    ) {
        let cfg = EstimatorConfig::default();
        let mut e = LinkEstimate::new(&cfg);
        let iv = SimDuration::from_secs(10);
        e.on_pair_small(0, iv, SimTime::from_secs(0), &cfg);
        e.on_pair_large(0, 1137,
            SimTime::from_secs(0) + SimDuration::from_millis(base_delay_ms), &cfg);
        let d1 = e.pp_delay_s(SimTime::from_secs(t1), &cfg);
        let d2 = e.pp_delay_s(SimTime::from_secs(t1 + extra), &cfg);
        prop_assert!(d1 > 0.0 && d1.is_finite());
        prop_assert!(d2 >= d1 * 0.999, "delay shrank during silence: {d1} -> {d2}");
    }
}

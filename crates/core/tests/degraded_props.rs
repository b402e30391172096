//! Degraded-input properties: every paper metric must produce finite,
//! non-NaN, non-worst-breaking costs when fed the observations a degraded
//! network actually produces — never-probed links (the no-history default),
//! empty/decayed windows, and long-quarantined estimates whose ratios have
//! decayed to the floor.

use mcast_metrics::{
    AnyMetric, EstimatorConfig, Freshness, LinkEstimate, LinkObservation, Metric, MetricKind,
};
use mesh_sim::time::{SimDuration, SimTime};
use proptest::prelude::*;

fn paper_metrics() -> Vec<AnyMetric> {
    // Historically the paper five; now every kind, so a new metric
    // inherits the degraded-input obligations automatically.
    MetricKind::ALL.map(MetricKind::build).to_vec()
}

/// Cost the observation as a `hops`-long uniform path and check every value
/// along the way is finite, non-NaN and no worse than the metric's own
/// `worst()` sentinel under its ordering.
fn assert_path_sane(
    m: &AnyMetric,
    obs: &LinkObservation,
    hops: usize,
) -> Result<(), TestCaseError> {
    let link = m.link_cost(obs);
    prop_assert!(
        link.value().is_finite(),
        "{:?} produced non-finite link cost {}",
        m.kind(),
        link.value()
    );
    let mut path = m.identity();
    for _ in 0..hops {
        path = m.accumulate(path, link);
        prop_assert!(
            path.value().is_finite(),
            "{:?} produced non-finite path cost {}",
            m.kind(),
            path.value()
        );
        prop_assert!(
            !m.better(m.worst(), path),
            "{:?} produced a cost worse than worst(): {}",
            m.kind(),
            path.value()
        );
    }
    Ok(())
}

proptest! {
    /// Never-probed links: the `unknown` default observation costs finite
    /// for every paper metric, alone and accumulated over many hops.
    #[test]
    fn unknown_observation_costs_are_finite(hops in 1usize..16) {
        let cfg = EstimatorConfig::default();
        let obs = LinkObservation::unknown(&cfg);
        for m in paper_metrics() {
            assert_path_sane(&m, &obs, hops)?;
        }
    }

    /// Empty / fully decayed windows: a link probed once and then silent for
    /// an arbitrary stretch (driving df to the decay floor and quarantining
    /// the estimate) still costs finite for every paper metric.
    #[test]
    fn decayed_window_costs_are_finite(silence_s in 0u64..10_000, hops in 1usize..12) {
        let cfg = EstimatorConfig::default();
        let mut e = LinkEstimate::new(&cfg);
        e.on_single(1, SimDuration::from_secs(1), SimTime::from_secs(1));
        let now = SimTime::from_secs(1 + silence_s);
        let obs = e.observe(now, &cfg);
        prop_assert!(obs.df.is_finite() && obs.df > 0.0, "df floor broken: {}", obs.df);
        for m in paper_metrics() {
            assert_path_sane(&m, &obs, hops)?;
        }
    }

    /// The quarantined regime specifically: past the silence horizon the
    /// estimate classifies Quarantined, and both the measured observation
    /// and the substituted default cost finite.
    #[test]
    fn quarantined_estimates_cost_finite_both_ways(extra_s in 10u64..100_000) {
        let cfg = EstimatorConfig::default();
        let mut e = LinkEstimate::new(&cfg);
        e.on_single(1, SimDuration::from_secs(1), SimTime::from_secs(1));
        let horizon = cfg.staleness.quarantine_silence;
        let now = SimTime::from_secs(1) + horizon + SimDuration::from_secs(extra_s);
        prop_assert_eq!(e.freshness(now, &cfg), Freshness::Quarantined);
        for obs in [e.observe(now, &cfg), LinkObservation::unknown(&cfg)] {
            for m in paper_metrics() {
                assert_path_sane(&m, &obs, 4)?;
            }
        }
    }
}

//! SPP — Success Probability Product (§2.2, adapted from the
//! energy-efficiency metric of Banerjee & Misra).
//!
//! `SPP(path) = Π df_i`: the probability that a packet sent once by the
//! source traverses the whole path under link-layer broadcast. `1/SPP` is
//! the expected number of *source* transmissions for one delivery. Unlike
//! every other metric here, **higher is better**, and a single lossy link
//! collapses the value of the whole path multiplicatively — which is exactly
//! why the paper finds it (with PP) the most effective.

use crate::cost::{LinkCost, PathCost};
use crate::estimator::LinkObservation;
use crate::probe::ProbePlan;

use super::{Metric, MetricKind};

/// The success-probability-product metric.
///
/// ```
/// use mcast_metrics::{Spp, Metric, LinkObservation};
/// let m = Spp::default();
/// let df = |d| LinkObservation {
///     df: d, delay_s: None, bandwidth_bps: None, reverse_df: None,
///     congestion: None,
/// };
/// let p = m.path_cost([m.link_cost(&df(0.8)), m.link_cost(&df(0.5))]);
/// assert!((p.value() - 0.4).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Spp {
    rate: f64,
}

impl Default for Spp {
    fn default() -> Self {
        Spp::with_rate(1.0)
    }
}

impl Spp {
    /// SPP with probe intervals divided by `rate`. Non-positive or
    /// non-finite rates saturate the probe interval instead of panicking
    /// (see [`ProbePlan::single_at_rate`]).
    pub fn with_rate(rate: f64) -> Self {
        Spp { rate }
    }
}

impl Metric for Spp {
    fn kind(&self) -> MetricKind {
        MetricKind::Spp
    }

    fn probe_plan(&self) -> ProbePlan {
        ProbePlan::single_at_rate(self.rate)
    }

    fn link_cost(&self, obs: &LinkObservation) -> LinkCost {
        LinkCost::new(obs.df.clamp(1e-6, 1.0))
    }

    fn identity(&self) -> PathCost {
        PathCost::new(1.0)
    }

    fn accumulate(&self, path: PathCost, link: LinkCost) -> PathCost {
        PathCost::new(path.value() * link.value())
    }

    fn better(&self, a: PathCost, b: PathCost) -> bool {
        a.value() > b.value()
    }

    fn worst(&self) -> PathCost {
        PathCost::new(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(df: f64) -> LinkObservation {
        LinkObservation {
            df,
            delay_s: None,
            bandwidth_bps: None,
            reverse_df: None,
            congestion: None,
        }
    }

    #[test]
    fn higher_is_better() {
        let m = Spp::default();
        assert!(m.better(PathCost::new(0.9), PathCost::new(0.5)));
        assert!(!m.better(PathCost::new(0.5), PathCost::new(0.9)));
    }

    #[test]
    fn empty_path_has_probability_one() {
        let m = Spp::default();
        assert_eq!(m.identity().value(), 1.0);
    }

    #[test]
    fn figure3_example_prefers_long_reliable_path() {
        // Paper Fig. 3: SPP picks A-B-C-D (0.512) over A-E-D (0.36).
        let m = Spp::default();
        let long = m.path_cost([0.8, 0.8, 0.8].map(|d| m.link_cost(&obs(d))));
        let short = m.path_cost([0.9, 0.4].map(|d| m.link_cost(&obs(d))));
        assert!((long.value() - 0.512).abs() < 1e-9);
        assert!((short.value() - 0.36).abs() < 1e-9);
        assert!(m.better(long, short));
    }

    #[test]
    fn one_lossy_link_collapses_the_path() {
        let m = Spp::default();
        let with_bad = m.path_cost([0.95, 0.95, 0.05].map(|d| m.link_cost(&obs(d))));
        let all_mediocre = m.path_cost([0.6, 0.6, 0.6].map(|d| m.link_cost(&obs(d))));
        assert!(m.better(all_mediocre, with_bad));
    }

    #[test]
    fn inverse_is_expected_source_transmissions() {
        // Fig. 1: path A-C-D with df 1.0 and 0.333 → 1/SPP ≈ 3.
        let m = Spp::default();
        let p = m.path_cost([1.0, 1.0 / 3.0].map(|d| m.link_cost(&obs(d))));
        assert!((1.0 / p.value() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn worst_loses_to_anything() {
        let m = Spp::default();
        let p = m.path_cost([m.link_cost(&obs(0.01))]);
        assert!(m.better(p, m.worst()));
    }

    #[test]
    fn df_clamped_to_unit_interval() {
        let m = Spp::default();
        assert!(m.link_cost(&obs(2.0)).value() <= 1.0);
        assert!(m.link_cost(&obs(-1.0)).value() > 0.0);
    }
}

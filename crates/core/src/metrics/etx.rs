//! Multicast ETX (§2.2): `ETX = 1 / df`, forward direction only.
//!
//! Unicast ETX is `1 / (df · dr)` because a transfer needs the data forward
//! *and* the ACK back. With link-layer broadcast there is no ACK, so the
//! adapted metric drops the reverse term. Path cost is the sum of link
//! values, as in the original.

use crate::cost::{LinkCost, PathCost};
use crate::estimator::LinkObservation;
use crate::probe::ProbePlan;

use super::{Metric, MetricKind};

/// The forward-only ETX metric.
///
/// ```
/// use mcast_metrics::{Etx, Metric, LinkObservation};
/// let m = Etx::default();
/// let obs = LinkObservation {
///     df: 0.5, delay_s: None, bandwidth_bps: None, reverse_df: None,
///     congestion: None,
/// };
/// assert_eq!(m.link_cost(&obs).value(), 2.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Etx {
    rate: f64,
}

impl Default for Etx {
    fn default() -> Self {
        Etx::with_rate(1.0)
    }
}

impl Etx {
    /// ETX with probe intervals divided by `rate`. Non-positive or
    /// non-finite rates saturate the probe interval instead of panicking
    /// (see [`ProbePlan::single_at_rate`]).
    pub fn with_rate(rate: f64) -> Self {
        Etx { rate }
    }
}

impl Metric for Etx {
    fn kind(&self) -> MetricKind {
        MetricKind::Etx
    }

    fn probe_plan(&self) -> ProbePlan {
        ProbePlan::single_at_rate(self.rate)
    }

    fn link_cost(&self, obs: &LinkObservation) -> LinkCost {
        LinkCost::new(1.0 / obs.df.max(1e-6))
    }

    fn identity(&self) -> PathCost {
        PathCost::new(0.0)
    }

    fn accumulate(&self, path: PathCost, link: LinkCost) -> PathCost {
        PathCost::new(path.value() + link.value())
    }

    fn better(&self, a: PathCost, b: PathCost) -> bool {
        a.value() < b.value()
    }

    fn worst(&self) -> PathCost {
        PathCost::new(f64::INFINITY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(df: f64, dr: f64) -> LinkObservation {
        LinkObservation {
            df,
            delay_s: None,
            bandwidth_bps: None,
            reverse_df: Some(dr),
            congestion: None,
        }
    }

    #[test]
    fn perfect_link_costs_one() {
        let m = Etx::default();
        assert!((m.link_cost(&obs(1.0, 1.0)).value() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn reverse_direction_is_ignored() {
        // The core multicast adaptation: dr must not distort the value.
        let m = Etx::default();
        assert_eq!(m.link_cost(&obs(0.5, 1.0)), m.link_cost(&obs(0.5, 0.01)));
    }

    #[test]
    fn path_is_additive() {
        let m = Etx::default();
        let p = m.path_cost([m.link_cost(&obs(0.5, 1.0)), m.link_cost(&obs(0.25, 1.0))]);
        assert!((p.value() - 6.0).abs() < 1e-9);
    }

    #[test]
    fn figure3_example_prefers_short_lossy_path() {
        // Paper Fig. 3: ETX picks A-E-D (3.61) over A-B-C-D (3.75) even
        // though the long path has much higher end-to-end success.
        let m = Etx::default();
        let long = m.path_cost([0.8, 0.8, 0.8].map(|d| m.link_cost(&obs(d, 1.0))));
        let short = m.path_cost([0.9, 0.4].map(|d| m.link_cost(&obs(d, 1.0))));
        assert!((long.value() - 3.75).abs() < 1e-9);
        assert!((short.value() - (1.0 / 0.9 + 2.5)).abs() < 1e-9);
        assert!(m.better(short, long), "ETX's known blind spot");
    }

    #[test]
    fn zero_df_does_not_divide_by_zero() {
        let m = Etx::default();
        assert!(m.link_cost(&obs(0.0, 1.0)).value().is_finite());
    }

    #[test]
    fn probe_plan_is_single_5s() {
        match Etx::default().probe_plan() {
            ProbePlan::Single { interval, .. } => {
                assert_eq!(interval, mesh_sim::time::SimDuration::from_secs(5))
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}

//! PP — Packet Pair delay (§2.2).
//!
//! The link cost is an EWMA (0.9 old / 0.1 new) of the delay between a
//! small and a large probe sent back to back, with a **20 % multiplicative
//! penalty on the EWMA whenever either packet of a pair is lost**. On a
//! high-loss link the penalty lands repeatedly and the cost grows
//! exponentially with time; on a moderately lossy link it stabilizes — the
//! asymmetry behind PP's standout testbed result (Fig. 2, "Throughput-
//! testbed"). Path cost is the sum of link values.
//!
//! The EWMA/penalty machinery lives in
//! [`LinkEstimate`](crate::estimator::LinkEstimate); this metric consumes the
//! resulting effective delay.

use crate::cost::{LinkCost, PathCost};
use crate::estimator::LinkObservation;
use crate::probe::ProbePlan;

use super::{Metric, MetricKind};

/// Delay assumed (in seconds) for links whose delay was never measured.
pub const DEFAULT_DELAY_S: f64 = 0.005;

/// The packet-pair delay metric.
///
/// ```
/// use mcast_metrics::{Pp, Metric, LinkObservation};
/// let m = Pp::default();
/// let obs = LinkObservation {
///     df: 1.0, delay_s: Some(0.004), bandwidth_bps: None, reverse_df: None,
///     congestion: None,
/// };
/// // Costs are carried in milliseconds.
/// assert!((m.link_cost(&obs).value() - 4.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Pp {
    rate: f64,
}

impl Default for Pp {
    fn default() -> Self {
        Pp::with_rate(1.0)
    }
}

impl Pp {
    /// PP with probe intervals divided by `rate`. Non-positive or
    /// non-finite rates saturate the probe interval instead of panicking
    /// (see [`ProbePlan::pair_at_rate`]).
    pub fn with_rate(rate: f64) -> Self {
        Pp { rate }
    }
}

impl Metric for Pp {
    fn kind(&self) -> MetricKind {
        MetricKind::Pp
    }

    fn probe_plan(&self) -> ProbePlan {
        ProbePlan::pair_at_rate(self.rate)
    }

    fn link_cost(&self, obs: &LinkObservation) -> LinkCost {
        let delay_s = obs.delay_s.unwrap_or(DEFAULT_DELAY_S);
        LinkCost::new((delay_s * 1e3).min(1e15)) // milliseconds
    }

    fn identity(&self) -> PathCost {
        PathCost::new(0.0)
    }

    fn accumulate(&self, path: PathCost, link: LinkCost) -> PathCost {
        PathCost::new((path.value() + link.value()).min(1e30))
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

    fn obs(delay_s: Option<f64>) -> LinkObservation {
        LinkObservation {
            df: 1.0,
            delay_s,
            bandwidth_bps: None,
            reverse_df: None,
            congestion: None,
        }
    }

    #[test]
    fn lower_delay_wins() {
        let m = Pp::default();
        let fast = m.path_cost([m.link_cost(&obs(Some(0.002)))]);
        let slow = m.path_cost([m.link_cost(&obs(Some(0.020)))]);
        assert!(m.better(fast, slow));
    }

    #[test]
    fn missing_delay_uses_default() {
        let m = Pp::default();
        assert!((m.link_cost(&obs(None)).value() - DEFAULT_DELAY_S * 1e3).abs() < 1e-12);
    }

    #[test]
    fn one_blown_up_link_dooms_the_path() {
        // The exponential-penalty property: a path with one exploded link
        // loses to an arbitrary path of merely-slow links.
        let m = Pp::default();
        let exploded = m.path_cost([m.link_cost(&obs(Some(2.0))), m.link_cost(&obs(Some(0.002)))]);
        let slow_but_sane = m.path_cost(vec![m.link_cost(&obs(Some(0.02))); 5]);
        assert!(m.better(slow_but_sane, exploded));
    }

    #[test]
    fn probe_plan_is_pair() {
        assert!(matches!(Pp::default().probe_plan(), ProbePlan::Pair { .. }));
    }

    #[test]
    fn cost_saturates_finite() {
        let m = Pp::default();
        let huge = m.link_cost(&obs(Some(1e300)));
        assert!(huge.value().is_finite());
        let mut p = m.identity();
        for _ in 0..1000 {
            p = m.accumulate(p, huge);
        }
        assert!(p.value().is_finite());
    }
}

//! Hop count: every link costs 1.
//!
//! This is what all prior multicast protocols minimize (implicitly, via
//! shortest-path or first-arrival route selection). It needs no probing and
//! serves as the explicit-metric baseline in ablations; the *original* ODMRP
//! baseline in the experiments instead uses first-query arrival, which
//! usually coincides with minimum hops.

use crate::cost::{LinkCost, PathCost};
use crate::estimator::LinkObservation;
use crate::probe::ProbePlan;

use super::{Metric, MetricKind};

/// The hop-count metric.
///
/// ```
/// use mcast_metrics::{HopCount, Metric, LinkCost};
/// let m = HopCount;
/// let p = m.path_cost([LinkCost::new(1.0); 3]);
/// assert_eq!(p.value(), 3.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HopCount;

impl Metric for HopCount {
    fn kind(&self) -> MetricKind {
        MetricKind::HopCount
    }

    fn probe_plan(&self) -> ProbePlan {
        ProbePlan::None
    }

    fn link_cost(&self, _obs: &LinkObservation) -> LinkCost {
        LinkCost::new(1.0)
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

    #[test]
    fn ignores_link_quality() {
        let m = HopCount;
        let good = LinkObservation {
            df: 1.0,
            delay_s: None,
            bandwidth_bps: None,
            reverse_df: None,
            congestion: None,
        };
        let bad = LinkObservation { df: 0.01, ..good };
        assert_eq!(m.link_cost(&good), m.link_cost(&bad));
    }

    #[test]
    fn shorter_paths_win() {
        let m = HopCount;
        let two = m.path_cost([LinkCost::new(1.0); 2]);
        let three = m.path_cost([LinkCost::new(1.0); 3]);
        assert!(m.better(two, three));
        assert!(!m.better(three, two));
        assert!(!m.better(two, two));
    }

    #[test]
    fn no_probing() {
        assert_eq!(HopCount.probe_plan(), ProbePlan::None);
    }
}

//! Bidirectional ("unicast-style") ETX — an **ablation**, not one of the
//! paper's metrics.
//!
//! `ETX = 1 / (df · dr)` is the correct definition for unicast, where the
//! data needs the forward direction and the ACK the reverse. §2.1 of the
//! paper argues this must *not* be used for broadcast-based multicast: the
//! reverse term distorts the cost of links whose reverse direction happens to
//! be bad even though data only flows forward. This implementation exists so
//! the experiments can quantify that distortion.
//!
//! Reverse ratios are learned from reports piggybacked on single probes
//! (exactly how unicast ETX implementations do it).

use crate::cost::{LinkCost, PathCost};
use crate::estimator::LinkObservation;
use crate::probe::ProbePlan;

use super::{Metric, MetricKind};

/// The deliberately-bidirectional ETX ablation metric.
#[derive(Debug, Clone, PartialEq)]
pub struct UnicastEtx {
    rate: f64,
}

impl Default for UnicastEtx {
    fn default() -> Self {
        UnicastEtx::with_rate(1.0)
    }
}

impl UnicastEtx {
    /// Bidirectional ETX with probe intervals divided by `rate`.
    /// Non-positive or non-finite rates saturate the probe interval instead
    /// of panicking (see [`ProbePlan::single_at_rate`]).
    pub fn with_rate(rate: f64) -> Self {
        UnicastEtx { rate }
    }
}

impl Metric for UnicastEtx {
    fn kind(&self) -> MetricKind {
        MetricKind::UnicastEtx
    }

    fn probe_plan(&self) -> ProbePlan {
        ProbePlan::single_at_rate(self.rate)
    }

    fn link_cost(&self, obs: &LinkObservation) -> LinkCost {
        let dr = obs.reverse_df.unwrap_or(1.0).max(1e-6);
        LinkCost::new(1.0 / (obs.df.max(1e-6) * dr))
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

    fn obs(df: f64, dr: Option<f64>) -> LinkObservation {
        LinkObservation {
            df,
            delay_s: None,
            bandwidth_bps: None,
            reverse_df: dr,
            congestion: None,
        }
    }

    #[test]
    fn reverse_quality_distorts_cost() {
        // The distortion §2.1 warns about: same forward quality, wildly
        // different cost because of the (irrelevant for broadcast) reverse.
        let m = UnicastEtx::default();
        let sym = m.link_cost(&obs(0.9, Some(0.9)));
        let asym = m.link_cost(&obs(0.9, Some(0.1)));
        assert!(asym.value() > sym.value() * 5.0);
    }

    #[test]
    fn unknown_reverse_degenerates_to_forward_etx() {
        let m = UnicastEtx::default();
        assert!((m.link_cost(&obs(0.5, None)).value() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn perfect_bidirectional_link_costs_one() {
        let m = UnicastEtx::default();
        assert!((m.link_cost(&obs(1.0, Some(1.0))).value() - 1.0).abs() < 1e-12);
    }
}

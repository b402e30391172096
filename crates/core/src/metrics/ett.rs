//! ETT — Expected Transmission Time (§2.2, single-channel adaptation of
//! WCETT).
//!
//! `ETT = ETX · S / B`: expected airtime to get a data packet of size `S`
//! across the link, where the loss rate comes from the small packets of the
//! probe pair and the bandwidth `B` from the large packet's inter-arrival
//! time. Path cost is the sum of link ETTs. ETT pays the packet-pair probing
//! overhead (Table 1: ~3 % vs ETX's 0.66 %), which is why the paper finds it
//! *below* plain ETX for multicast.

use crate::cost::{LinkCost, PathCost};
use crate::estimator::LinkObservation;
use crate::probe::ProbePlan;

use super::{Metric, MetricKind};

/// Nominal data packet size used to scale ETT, in bytes (the paper's CBR
/// payload).
pub const DEFAULT_DATA_BYTES: u32 = 512;

/// The ETT metric.
///
/// ```
/// use mcast_metrics::{Ett, Metric, LinkObservation};
/// let m = Ett::default();
/// let obs = LinkObservation {
///     df: 1.0, delay_s: None, bandwidth_bps: Some(2.0e6), reverse_df: None,
///     congestion: None,
/// };
/// // 512 bytes at 2 Mbps over a perfect link: ~2.05 ms.
/// assert!((m.link_cost(&obs).value() - 512.0 * 8.0 / 2.0e6).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Ett {
    rate: f64,
    data_bytes: u32,
    default_bandwidth_bps: f64,
}

impl Default for Ett {
    fn default() -> Self {
        Ett::with_rate(1.0)
    }
}

impl Ett {
    /// ETT with probe intervals divided by `rate`. Non-positive or
    /// non-finite rates saturate the probe interval instead of panicking
    /// (see [`ProbePlan::pair_at_rate`]).
    pub fn with_rate(rate: f64) -> Self {
        Ett {
            rate,
            data_bytes: DEFAULT_DATA_BYTES,
            default_bandwidth_bps: 2.0e6,
        }
    }

    /// Set the nominal data packet size `S`.
    pub fn with_data_bytes(mut self, bytes: u32) -> Self {
        self.data_bytes = bytes;
        self
    }
}

impl Metric for Ett {
    fn kind(&self) -> MetricKind {
        MetricKind::Ett
    }

    fn probe_plan(&self) -> ProbePlan {
        ProbePlan::pair_at_rate(self.rate)
    }

    fn link_cost(&self, obs: &LinkObservation) -> LinkCost {
        let etx = 1.0 / obs.df.max(1e-6);
        let bw = obs
            .bandwidth_bps
            .unwrap_or(self.default_bandwidth_bps)
            .max(1e3);
        LinkCost::new(etx * (self.data_bytes as f64 * 8.0) / bw)
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

    fn obs(df: f64, bw: Option<f64>) -> LinkObservation {
        LinkObservation {
            df,
            delay_s: None,
            bandwidth_bps: bw,
            reverse_df: None,
            congestion: None,
        }
    }

    #[test]
    fn loss_scales_cost_linearly() {
        let m = Ett::default();
        let full = m.link_cost(&obs(1.0, Some(2.0e6))).value();
        let half = m.link_cost(&obs(0.5, Some(2.0e6))).value();
        assert!((half / full - 2.0).abs() < 1e-9);
    }

    #[test]
    fn slower_links_cost_more() {
        let m = Ett::default();
        let fast = m.link_cost(&obs(1.0, Some(2.0e6)));
        let slow = m.link_cost(&obs(1.0, Some(0.5e6)));
        assert!(slow.value() > fast.value());
    }

    #[test]
    fn unknown_bandwidth_uses_channel_rate() {
        let m = Ett::default();
        assert_eq!(
            m.link_cost(&obs(0.7, None)),
            m.link_cost(&obs(0.7, Some(2.0e6)))
        );
    }

    #[test]
    fn data_size_scales_cost() {
        let small = Ett::default().with_data_bytes(256);
        let big = Ett::default().with_data_bytes(1024);
        let o = obs(1.0, Some(2.0e6));
        assert!((big.link_cost(&o).value() / small.link_cost(&o).value() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn probe_plan_is_pair_10s() {
        match Ett::default().probe_plan() {
            ProbePlan::Pair { interval, .. } => {
                assert_eq!(interval, mesh_sim::time::SimDuration::from_secs(10))
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn path_is_additive() {
        let m = Ett::default();
        let a = m.link_cost(&obs(1.0, Some(2.0e6)));
        let b = m.link_cost(&obs(0.5, Some(1.0e6)));
        let p = m.path_cost([a, b]);
        assert!((p.value() - (a.value() + b.value())).abs() < 1e-12);
    }
}

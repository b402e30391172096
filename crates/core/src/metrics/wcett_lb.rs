//! WCETT-LB — load-balanced WCETT as a routing metric.
//!
//! The mamure line of work extends WCETT with a *load* term so congested
//! forwarders shed traffic: each hop's ETT is inflated by the forwarder's
//! observed congestion, and paths only switch when the challenger undercuts
//! the incumbent by a hysteresis margin,
//!
//! ```text
//! cost(link) = ETT(link) · (1 + σ · congestion)        σ: load weight
//! switch a ← b  iff  cost(a) < cost(b) · (1 − δ)       δ: switching threshold
//! ```
//!
//! `congestion ∈ [0, 1]` arrives through
//! [`LinkObservation::congestion`](crate::LinkObservation): the ODMRP node
//! handling a `JOIN QUERY` is the prospective forwarder, so it charges its
//! *own* outbound MAC-queue occupancy (plus any unicast retry signal its MAC
//! reports) into the path cost. Observations without a congestion reading
//! (`None`) cost exactly like plain ETT, which keeps every congestion-blind
//! metric bit-identical.
//!
//! On the paper's single-channel substrate the per-channel bottleneck term
//! degenerates (§2.2), so the routing form accumulates additively like ETT;
//! the full multi-channel combination lives in
//! [`Wcett::loaded_path_cost`](super::Wcett::loaded_path_cost), which this
//! module's σ/δ semantics mirror.

use crate::cost::{LinkCost, PathCost};
use crate::estimator::LinkObservation;
use crate::probe::ProbePlan;

use super::wcett::Wcett;
use super::{Metric, MetricKind};

/// Default load weight σ (half the raw ETT at full congestion).
pub const DEFAULT_SIGMA: f64 = 0.5;
/// Default path-switching hysteresis δ (a challenger must be 10 % cheaper).
pub const DEFAULT_DELTA: f64 = 0.1;

/// The load-aware WCETT routing metric.
///
/// ```
/// use mcast_metrics::{WcettLb, Metric, LinkObservation};
/// let m = WcettLb::default();
/// let calm = LinkObservation {
///     df: 1.0, delay_s: None, bandwidth_bps: Some(2.0e6), reverse_df: None,
///     congestion: Some(0.0),
/// };
/// let busy = LinkObservation { congestion: Some(1.0), ..calm };
/// // Full congestion inflates the link cost by (1 + sigma) = 1.5x.
/// assert!((m.link_cost(&busy).value() / m.link_cost(&calm).value() - 1.5).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct WcettLb {
    rate: f64,
    sigma: f64,
    delta: f64,
    data_bytes: u32,
    default_bandwidth_bps: f64,
}

impl Default for WcettLb {
    fn default() -> Self {
        WcettLb::with_rate(1.0)
    }
}

impl WcettLb {
    /// WCETT-LB with probe intervals divided by `rate` and the default σ/δ.
    /// Non-positive or non-finite rates saturate the probe interval instead
    /// of panicking (see [`ProbePlan::pair_at_rate`]).
    pub fn with_rate(rate: f64) -> Self {
        WcettLb {
            rate,
            sigma: DEFAULT_SIGMA,
            delta: DEFAULT_DELTA,
            data_bytes: super::ett::DEFAULT_DATA_BYTES,
            default_bandwidth_bps: 2.0e6,
        }
    }

    /// Set the load weight σ (clamped to be non-negative and finite).
    pub fn with_sigma(mut self, sigma: f64) -> Self {
        self.sigma = if sigma.is_finite() {
            sigma.max(0.0)
        } else {
            0.0
        };
        self
    }

    /// Set the switching threshold δ (clamped into `[0, 0.95]` so `better`
    /// stays a strict ordering with a finite margin).
    pub fn with_delta(mut self, delta: f64) -> Self {
        self.delta = if delta.is_finite() {
            delta.clamp(0.0, 0.95)
        } else {
            DEFAULT_DELTA
        };
        self
    }

    /// The load weight in use.
    pub fn sigma(&self) -> f64 {
        self.sigma
    }

    /// The switching threshold in use.
    pub fn delta(&self) -> f64 {
        self.delta
    }

    /// The congestion reading of an observation: missing or non-finite
    /// values count as calm (0), everything else clamps into `[0, 1]`.
    fn congestion(obs: &LinkObservation) -> f64 {
        obs.congestion
            .filter(|c| c.is_finite())
            .unwrap_or(0.0)
            .clamp(0.0, 1.0)
    }
}

impl Metric for WcettLb {
    fn kind(&self) -> MetricKind {
        MetricKind::WcettLb
    }

    fn probe_plan(&self) -> ProbePlan {
        // Same packet-pair plan as ETT: the loss rate comes from the small
        // packets, the bandwidth from the large one.
        ProbePlan::pair_at_rate(self.rate)
    }

    fn link_cost(&self, obs: &LinkObservation) -> LinkCost {
        let etx = 1.0 / obs.df.max(1e-6);
        let bw = obs
            .bandwidth_bps
            .unwrap_or(self.default_bandwidth_bps)
            .max(1e3);
        let ett = etx * (self.data_bytes as f64 * 8.0) / bw;
        LinkCost::new(ett * (1.0 + self.sigma * Self::congestion(obs)))
    }

    fn identity(&self) -> PathCost {
        PathCost::new(0.0)
    }

    fn accumulate(&self, path: PathCost, link: LinkCost) -> PathCost {
        PathCost::new(path.value() + link.value())
    }

    fn better(&self, a: PathCost, b: PathCost) -> bool {
        // δ-hysteresis: `a` must undercut `b` by the switching margin. This
        // is a strict semiorder (irreflexive, asymmetric, and monotone under
        // the additive accumulation), which the metric-law property tests
        // exercise along with every other metric.
        Wcett::should_switch(b.value(), a.value(), self.delta)
    }

    fn worst(&self) -> PathCost {
        PathCost::new(f64::INFINITY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Ett;

    fn obs(df: f64, congestion: Option<f64>) -> LinkObservation {
        LinkObservation {
            df,
            delay_s: None,
            bandwidth_bps: Some(2.0e6),
            reverse_df: None,
            congestion,
        }
    }

    #[test]
    fn no_congestion_reading_costs_exactly_like_ett() {
        let m = WcettLb::default();
        let ett = Ett::default();
        for df in [1.0, 0.5, 0.1] {
            assert_eq!(
                m.link_cost(&obs(df, None)).value().to_bits(),
                ett.link_cost(&obs(df, None)).value().to_bits()
            );
        }
    }

    #[test]
    fn congestion_inflates_cost_by_sigma() {
        let m = WcettLb::default().with_sigma(2.0);
        let calm = m.link_cost(&obs(1.0, Some(0.0))).value();
        let busy = m.link_cost(&obs(1.0, Some(1.0))).value();
        assert!((busy / calm - 3.0).abs() < 1e-12);
    }

    #[test]
    fn congested_path_loses_under_asymmetric_load() {
        // Two link-identical two-hop paths; only one runs through a
        // congested forwarder. The calm path must win decisively (beyond
        // the delta margin).
        let m = WcettLb::default();
        let calm = m.path_cost([
            m.link_cost(&obs(0.9, Some(0.0))),
            m.link_cost(&obs(0.9, Some(0.0))),
        ]);
        let busy = m.path_cost([
            m.link_cost(&obs(0.9, Some(1.0))),
            m.link_cost(&obs(0.9, Some(1.0))),
        ]);
        assert!(m.better(calm, busy));
        assert!(!m.better(busy, calm));
    }

    #[test]
    fn marginal_improvements_do_not_flip_the_path() {
        // delta-hysteresis: a 5% cheaper challenger is not "better" under
        // the default 10% switching threshold...
        let m = WcettLb::default();
        let incumbent = PathCost::new(1.0);
        let marginal = PathCost::new(0.95);
        assert!(!m.better(marginal, incumbent));
        // ...but a 20% cheaper one is.
        let clear = PathCost::new(0.8);
        assert!(m.better(clear, incumbent));
    }

    #[test]
    fn delta_zero_degenerates_to_plain_lower_wins() {
        let m = WcettLb::default().with_delta(0.0);
        assert!(m.better(PathCost::new(0.99), PathCost::new(1.0)));
        assert!(!m.better(PathCost::new(1.0), PathCost::new(1.0)));
    }

    #[test]
    fn bogus_congestion_readings_count_as_calm() {
        let m = WcettLb::default();
        for c in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(
                m.link_cost(&obs(0.5, Some(c))).value().to_bits(),
                m.link_cost(&obs(0.5, None)).value().to_bits()
            );
        }
        // Out-of-range finite readings clamp instead of exploding.
        assert_eq!(
            m.link_cost(&obs(0.5, Some(7.0))).value().to_bits(),
            m.link_cost(&obs(0.5, Some(1.0))).value().to_bits()
        );
    }

    #[test]
    fn probe_plan_is_pair_like_ett() {
        assert_eq!(WcettLb::default().probe_plan(), Ett::default().probe_plan());
    }
}

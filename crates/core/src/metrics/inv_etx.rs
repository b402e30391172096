//! InvETX — ETX inverted into a link *quality* score.
//!
//! "Investigating Quality Routing Link Metrics in Wireless Multi-hop
//! Networks" inverts ETX so the value reads as a quality (higher wins)
//! rather than a cost: a link is worth its forward delivery ratio `df`, and
//! a path is worth the harmonic combination of its links,
//!
//! ```text
//! InvETX(path + link) = 1 / (1/InvETX(path) + 1/df)
//!                     = 1 / Σ_i (1/df_i)  =  1 / ETX(path)
//! ```
//!
//! so InvETX orders paths exactly *inversely* to the ETX sum — same
//! selections, same blind spots (Fig. 3's short lossy path included) — with
//! the paper's better-is-higher comparator, like SPP's. It reuses ETX's
//! probe plan (one small probe every 5 s): same observations, different
//! reading.

use crate::cost::{LinkCost, PathCost};
use crate::estimator::LinkObservation;
use crate::probe::ProbePlan;

use super::{Metric, MetricKind};

/// The inverted-ETX quality metric.
///
/// ```
/// use mcast_metrics::{InvEtx, Metric, LinkObservation};
/// let m = InvEtx::default();
/// let obs = LinkObservation {
///     df: 0.5, delay_s: None, bandwidth_bps: None, reverse_df: None,
///     congestion: None,
/// };
/// // A single link is worth its delivery ratio: 1 / (1/0.5) = 0.5.
/// assert_eq!(m.accumulate(m.identity(), m.link_cost(&obs)).value(), 0.5);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct InvEtx {
    rate: f64,
}

impl Default for InvEtx {
    fn default() -> Self {
        InvEtx::with_rate(1.0)
    }
}

impl InvEtx {
    /// InvETX with probe intervals divided by `rate`. Non-positive or
    /// non-finite rates saturate the probe interval instead of panicking
    /// (see [`ProbePlan::single_at_rate`]).
    pub fn with_rate(rate: f64) -> Self {
        InvEtx { rate }
    }
}

impl Metric for InvEtx {
    fn kind(&self) -> MetricKind {
        MetricKind::InvEtx
    }

    fn probe_plan(&self) -> ProbePlan {
        ProbePlan::single_at_rate(self.rate)
    }

    fn link_cost(&self, obs: &LinkObservation) -> LinkCost {
        // The link's value is its forward delivery ratio, floored exactly
        // like ETX floors its reciprocal so the two stay inverses.
        LinkCost::new(obs.df.max(1e-6))
    }

    fn identity(&self) -> PathCost {
        // The empty path has perfect quality: 1/identity contributes 0 to
        // the harmonic sum below.
        PathCost::new(f64::INFINITY)
    }

    fn accumulate(&self, path: PathCost, link: LinkCost) -> PathCost {
        PathCost::new(1.0 / (1.0 / path.value() + 1.0 / link.value()))
    }

    fn better(&self, a: PathCost, b: PathCost) -> bool {
        // Quality score: higher wins (like SPP).
        a.value() > b.value()
    }

    fn worst(&self) -> PathCost {
        PathCost::new(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Etx;

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
    fn single_link_is_worth_its_delivery_ratio() {
        let m = InvEtx::default();
        let p = m.path_cost([m.link_cost(&obs(0.5))]);
        assert_eq!(p.value(), 0.5);
    }

    #[test]
    fn path_value_is_the_exact_inverse_of_the_etx_sum_on_dyadic_ratios() {
        // Powers of two keep every division exact, so the inverse identity
        // holds to the bit: 1/0.5 + 1/0.25 = 6, and 1/6 both ways.
        let inv = InvEtx::default();
        let etx = Etx::default();
        let dfs = [0.5, 0.25];
        let p_inv = inv.path_cost(dfs.map(|d| inv.link_cost(&obs(d)))).value();
        let p_etx = etx.path_cost(dfs.map(|d| etx.link_cost(&obs(d)))).value();
        assert_eq!(p_inv, 1.0 / p_etx);
        assert_eq!(p_etx, 6.0);
    }

    #[test]
    fn ordering_is_inverse_of_etx() {
        // Same selections as ETX under the flipped comparator: for paths
        // with well-separated costs, ETX-better(a, b) == InvETX-better(a, b).
        let inv = InvEtx::default();
        let etx = Etx::default();
        let paths: [&[f64]; 3] = [&[0.9, 0.9], &[0.5], &[0.3, 0.8, 0.9]];
        for a in paths {
            for b in paths {
                let ia = inv.path_cost(a.iter().map(|&d| inv.link_cost(&obs(d))));
                let ib = inv.path_cost(b.iter().map(|&d| inv.link_cost(&obs(d))));
                let ea = etx.path_cost(a.iter().map(|&d| etx.link_cost(&obs(d))));
                let eb = etx.path_cost(b.iter().map(|&d| etx.link_cost(&obs(d))));
                assert_eq!(
                    inv.better(ia, ib),
                    etx.better(ea, eb),
                    "paths {a:?} vs {b:?} ordered differently"
                );
            }
        }
    }

    #[test]
    fn figure3_inherits_etx_blind_spot() {
        // Fig. 3: ETX prefers the short lossy A-E-D path; InvETX, being its
        // inverse, makes the same (wrong) call — it is a re-reading of ETX,
        // not a fix for it.
        let m = InvEtx::default();
        let long = m.path_cost([0.8, 0.8, 0.8].map(|d| m.link_cost(&obs(d))));
        let short = m.path_cost([0.9, 0.4].map(|d| m.link_cost(&obs(d))));
        assert!(m.better(short, long));
    }

    #[test]
    fn extending_a_path_lowers_quality() {
        let m = InvEtx::default();
        let p = m.path_cost([m.link_cost(&obs(0.9))]);
        let q = m.accumulate(p, m.link_cost(&obs(0.9)));
        assert!(q.value() < p.value());
        assert!(!m.better(q, p));
    }

    #[test]
    fn zero_df_is_still_finite_and_beats_worst() {
        let m = InvEtx::default();
        let p = m.path_cost([m.link_cost(&obs(0.0))]);
        assert!(p.value().is_finite() && p.value() > 0.0);
        assert!(m.better(p, m.worst()));
    }

    #[test]
    fn probe_plan_is_etx_single_5s() {
        assert_eq!(InvEtx::default().probe_plan(), Etx::default().probe_plan());
    }
}

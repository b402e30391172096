//! METX — Multicast ETX (§2.2, adapted from the energy metric of Dong et
//! al. by setting the per-hop energy `W` to 1).
//!
//! `METX(path) = Σ_{i=1..n} 1 / Π_{j=i..n} df_j`: the expected **total**
//! number of transmissions by *all* nodes along the path to deliver one
//! packet, given that a loss anywhere forces the source to start over
//! (unreliable link layer, no retransmissions).
//!
//! The closed form admits an incremental recursion used during query
//! accumulation: appending a link with delivery ratio `df` gives
//! `METX' = (METX + 1) / df`.

use crate::cost::{LinkCost, PathCost};
use crate::estimator::LinkObservation;
use crate::probe::ProbePlan;

use super::{Metric, MetricKind};

/// The METX metric.
///
/// ```
/// use mcast_metrics::{Metx, Metric, LinkObservation};
/// let m = Metx::default();
/// let df = |d| LinkObservation {
///     df: d, delay_s: None, bandwidth_bps: None, reverse_df: None,
///     congestion: None,
/// };
/// // Fig. 1, path A-B-D: links 0.25 then 1.0 → METX = 5.
/// let p = m.path_cost([m.link_cost(&df(0.25)), m.link_cost(&df(1.0))]);
/// assert!((p.value() - 5.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Metx {
    rate: f64,
}

impl Default for Metx {
    fn default() -> Self {
        Metx::with_rate(1.0)
    }
}

impl Metx {
    /// METX with probe intervals divided by `rate`. Non-positive or
    /// non-finite rates saturate the probe interval instead of panicking
    /// (see [`ProbePlan::single_at_rate`]).
    pub fn with_rate(rate: f64) -> Self {
        Metx { rate }
    }
}

impl Metric for Metx {
    fn kind(&self) -> MetricKind {
        MetricKind::Metx
    }

    fn probe_plan(&self) -> ProbePlan {
        ProbePlan::single_at_rate(self.rate)
    }

    /// For METX the "link cost" carried in queries is the link's delivery
    /// ratio itself; composition happens in [`Metric::accumulate`].
    fn link_cost(&self, obs: &LinkObservation) -> LinkCost {
        LinkCost::new(obs.df.clamp(1e-6, 1.0))
    }

    fn identity(&self) -> PathCost {
        PathCost::new(0.0)
    }

    fn accumulate(&self, path: PathCost, link: LinkCost) -> PathCost {
        PathCost::new(((path.value() + 1.0) / link.value()).min(1e30))
    }

    fn better(&self, a: PathCost, b: PathCost) -> bool {
        a.value() < b.value()
    }

    fn worst(&self) -> PathCost {
        PathCost::new(f64::INFINITY)
    }
}

/// Closed-form METX of a path given its link delivery ratios (Equation 2 of
/// the paper); used to cross-check the recursion.
pub fn metx_closed_form(dfs: &[f64]) -> f64 {
    let n = dfs.len();
    let mut total = 0.0;
    for i in 0..n {
        let mut prod = 1.0;
        for &df in &dfs[i..] {
            prod *= df;
        }
        total += 1.0 / prod;
    }
    total
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

    fn path(m: &Metx, dfs: &[f64]) -> PathCost {
        m.path_cost(dfs.iter().map(|&d| m.link_cost(&obs(d))))
    }

    #[test]
    fn recursion_matches_closed_form() {
        let m = Metx::default();
        for dfs in [
            vec![1.0],
            vec![0.5, 0.5],
            vec![0.9, 0.4, 0.7],
            vec![0.25, 1.0],
            vec![0.8, 0.8, 0.8, 0.8, 0.8],
        ] {
            let rec = path(&m, &dfs).value();
            let closed = metx_closed_form(&dfs);
            assert!(
                (rec - closed).abs() / closed < 1e-12,
                "dfs={dfs:?}: {rec} vs {closed}"
            );
        }
    }

    #[test]
    fn figure1_example_values() {
        // Fig. 1: A-C-D has links 1.0 then 1/3 → METX = 6;
        //         A-B-D has links 0.25 then 1.0 → METX = 5.
        let m = Metx::default();
        let acd = path(&m, &[1.0, 1.0 / 3.0]);
        let abd = path(&m, &[0.25, 1.0]);
        assert!((acd.value() - 6.0).abs() < 1e-9, "A-C-D: {acd}");
        assert!((abd.value() - 5.0).abs() < 1e-9, "A-B-D: {abd}");
        // METX prefers A-B-D even though SPP (rightly) prefers A-C-D.
        assert!(m.better(abd, acd));
    }

    #[test]
    fn single_perfect_link_costs_one_transmission() {
        let m = Metx::default();
        assert!((path(&m, &[1.0]).value() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn early_losses_cost_more_than_late_ones() {
        // A lossy link near the *end* of the path wastes all upstream
        // transmissions, so it costs more than the same link at the start.
        let m = Metx::default();
        let lossy_first = path(&m, &[0.5, 1.0, 1.0]);
        let lossy_last = path(&m, &[1.0, 1.0, 0.5]);
        assert!(m.better(lossy_first, lossy_last));
    }

    #[test]
    fn accumulate_saturates_instead_of_overflowing() {
        let m = Metx::default();
        let mut p = m.identity();
        for _ in 0..10_000 {
            p = m.accumulate(p, LinkCost::new(1e-6));
        }
        assert!(p.value().is_finite());
    }
}

//! The `NEIGHBOR_TABLE` of §3.1: per-neighbor link-quality records.
//!
//! Each node records, for every neighbor it has heard probes from, the cost
//! of the link **from that neighbor to itself** (the direction data will
//! travel). When a `JOIN QUERY` arrives, the node looks up the link it came
//! over and accumulates that cost into the query.

use std::collections::BTreeMap;

use mesh_sim::ids::NodeId;
use mesh_sim::snapshot::{Snap, SnapError, SnapReader, SnapWriter};
use mesh_sim::time::SimTime;

use crate::cost::LinkCost;
use crate::estimator::{EstimatorConfig, LinkEstimate, LinkObservation};
use crate::probe::ProbeMsg;
use crate::staleness::Freshness;
use crate::Metric;

/// Per-node table of link estimates keyed by neighbor.
#[derive(Debug, Clone)]
pub struct NeighborTable {
    cfg: EstimatorConfig,
    // Traversed by the report/oracle accessors below: BTreeMap so every
    // traversal is NodeId-ascending, never hash-ordered (mesh-lint R1).
    links: BTreeMap<NodeId, LinkEstimate>,
    /// Freshness last reported through [`NeighborTable::sweep_freshness`],
    /// so the sweep emits transitions, not states.
    reported: BTreeMap<NodeId, Freshness>,
}

impl NeighborTable {
    /// Create an empty table.
    pub fn new(cfg: EstimatorConfig) -> Self {
        NeighborTable {
            cfg,
            links: BTreeMap::new(),
            reported: BTreeMap::new(),
        }
    }

    /// The estimator configuration in use.
    pub fn config(&self) -> &EstimatorConfig {
        &self.cfg
    }

    /// Write the table's mutable state (estimates and reported freshness)
    /// into a checkpoint; the estimator configuration is not serialized.
    pub fn snapshot_state(&self, w: &mut SnapWriter) {
        let NeighborTable {
            cfg: _, // scenario configuration
            links,
            reported,
        } = self;
        links.snap(w);
        reported.snap(w);
    }

    /// Restore the mutable state written by
    /// [`NeighborTable::snapshot_state`]. The table keeps its configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`SnapError`] if the checkpoint is malformed or truncated.
    pub fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.links = Snap::unsnap(r)?;
        self.reported = Snap::unsnap(r)?;
        Ok(())
    }

    /// Process a probe received from `from` at `now`. `me` is this node's id
    /// (needed to pick our entry out of piggybacked reverse reports).
    pub fn handle_probe(&mut self, from: NodeId, msg: &ProbeMsg, me: NodeId, now: SimTime) {
        let cfg = self.cfg.clone();
        let est = self
            .links
            .entry(from)
            .or_insert_with(|| LinkEstimate::new(&cfg));
        match msg {
            ProbeMsg::Single {
                seq,
                interval_ns,
                reverse_df,
            } => {
                est.on_single(
                    *seq,
                    mesh_sim::time::SimDuration::from_nanos(*interval_ns),
                    now,
                );
                if let Some(&(_, df)) = reverse_df.iter().find(|(n, _)| *n == me) {
                    est.on_reverse_report(df as f64);
                }
            }
            ProbeMsg::PairSmall { seq, interval_ns } => {
                est.on_pair_small(
                    *seq,
                    mesh_sim::time::SimDuration::from_nanos(*interval_ns),
                    now,
                    &cfg,
                );
            }
            ProbeMsg::PairLarge { seq, bytes } => {
                est.on_pair_large(*seq, *bytes, now, &cfg);
            }
        }
    }

    /// Current observation of the link *from* `from` to this node;
    /// a pessimistic default if that neighbor was never heard.
    pub fn observe(&self, from: NodeId, now: SimTime) -> LinkObservation {
        match self.links.get(&from) {
            Some(est) => est.observe(now, &self.cfg),
            None => LinkObservation::unknown(&self.cfg),
        }
    }

    /// Cost of the link from `from` under `metric` at `now`.
    pub fn link_cost<M: Metric + ?Sized>(
        &self,
        metric: &M,
        from: NodeId,
        now: SimTime,
    ) -> LinkCost {
        metric.link_cost(&self.observe(from, now))
    }

    /// Freshness class of the estimate for `from` at `now` (`None` when the
    /// neighbor was never heard — there is no estimate to be stale).
    pub fn freshness(&self, from: NodeId, now: SimTime) -> Option<Freshness> {
        self.links.get(&from).map(|e| e.freshness(now, &self.cfg))
    }

    /// The measured observation together with its freshness class.
    ///
    /// Degraded-mode consumers decide from the freshness whether to feed the
    /// measured values to the metric or to substitute
    /// [`LinkObservation::unknown`]; the table itself never hides data.
    pub fn classified_observe(
        &self,
        from: NodeId,
        now: SimTime,
    ) -> (LinkObservation, Option<Freshness>) {
        match self.links.get(&from) {
            Some(est) => (
                est.observe(now, &self.cfg),
                Some(est.freshness(now, &self.cfg)),
            ),
            None => (LinkObservation::unknown(&self.cfg), None),
        }
    }

    /// Whether any estimate in the table is still usable (not quarantined)
    /// at `now`. When this is false a degraded-mode node has no measured
    /// link state at all and falls back to minimum-hop selection.
    pub fn has_usable_estimate(&self, now: SimTime) -> bool {
        self.links
            .values()
            .any(|e| e.freshness(now, &self.cfg) != Freshness::Quarantined)
    }

    /// Re-classify every estimate at `now` and return the `(neighbor, new)`
    /// transitions since the previous sweep, NodeId-ascending. Protocols
    /// call this on their probe tick and trace the quarantine transitions.
    pub fn sweep_freshness(&mut self, now: SimTime) -> Vec<(NodeId, Freshness)> {
        let mut changed = Vec::new();
        for (&n, est) in &self.links {
            let f = est.freshness(now, &self.cfg);
            if self.reported.get(&n) != Some(&f) {
                changed.push((n, f));
            }
        }
        for &(n, f) in &changed {
            self.reported.insert(n, f);
        }
        changed
    }

    /// Forward delivery ratios of all known neighbors (piggybacked into
    /// single probes for the bidirectional-ETX ablation).
    pub fn reverse_report(&self, now: SimTime) -> Vec<(NodeId, f32)> {
        self.links
            .iter()
            .map(|(&n, est)| (n, est.forward_ratio(now, &self.cfg) as f32))
            .collect()
    }

    /// Neighbors heard from within `horizon` before `now`.
    pub fn active_neighbors(
        &self,
        now: SimTime,
        horizon: mesh_sim::time::SimDuration,
    ) -> Vec<NodeId> {
        self.links
            .iter()
            .filter(|(_, est)| {
                est.last_heard()
                    .is_some_and(|t| now.saturating_since(t) <= horizon)
            })
            .map(|(&n, _)| n)
            .collect()
    }

    /// Every neighbor this table has an estimate for, sorted by id.
    ///
    /// Used by the invariant oracles: an entry may exist only for a node
    /// that actually transmitted probes.
    pub fn known_neighbors(&self) -> Vec<NodeId> {
        self.links.keys().copied().collect()
    }

    /// Number of neighbors ever heard.
    pub fn len(&self) -> usize {
        self.links.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.links.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Etx;
    use mesh_sim::time::SimDuration;

    fn single(seq: u64) -> ProbeMsg {
        ProbeMsg::Single {
            seq,
            interval_ns: SimDuration::from_secs(5).as_nanos(),
            reverse_df: Vec::new(),
        }
    }

    #[test]
    fn probes_populate_table() {
        let mut t = NeighborTable::new(EstimatorConfig::default());
        assert!(t.is_empty());
        let me = NodeId::new(0);
        let n1 = NodeId::new(1);
        for i in 0..20 {
            t.handle_probe(n1, &single(i), me, SimTime::from_secs(i * 5));
        }
        assert_eq!(t.len(), 1);
        let obs = t.observe(n1, SimTime::from_secs(96));
        assert!((obs.df - 1.0).abs() < 1e-9);
    }

    #[test]
    fn unknown_neighbor_gets_default_observation() {
        let t = NeighborTable::new(EstimatorConfig::default());
        let obs = t.observe(NodeId::new(9), SimTime::from_secs(1));
        assert_eq!(obs.df, t.config().default_df);
    }

    #[test]
    fn link_cost_via_metric() {
        let mut t = NeighborTable::new(EstimatorConfig::default());
        let me = NodeId::new(0);
        let n1 = NodeId::new(1);
        for i in 0..20 {
            t.handle_probe(n1, &single(i), me, SimTime::from_secs(i * 5));
        }
        let c = t.link_cost(&Etx::default(), n1, SimTime::from_secs(96));
        assert!((c.value() - 1.0).abs() < 1e-6); // perfect link: ETX = 1
    }

    #[test]
    fn reverse_reports_are_extracted() {
        let mut t = NeighborTable::new(EstimatorConfig::default());
        let me = NodeId::new(3);
        let n1 = NodeId::new(1);
        let msg = ProbeMsg::Single {
            seq: 0,
            interval_ns: SimDuration::from_secs(5).as_nanos(),
            reverse_df: vec![(NodeId::new(2), 0.2), (me, 0.75)],
        };
        t.handle_probe(n1, &msg, me, SimTime::from_secs(1));
        assert_eq!(t.observe(n1, SimTime::from_secs(1)).reverse_df, Some(0.75));
    }

    #[test]
    fn active_neighbors_expire() {
        let mut t = NeighborTable::new(EstimatorConfig::default());
        let me = NodeId::new(0);
        t.handle_probe(NodeId::new(1), &single(0), me, SimTime::from_secs(0));
        t.handle_probe(NodeId::new(2), &single(0), me, SimTime::from_secs(50));
        let horizon = SimDuration::from_secs(15);
        let active = t.active_neighbors(SimTime::from_secs(55), horizon);
        assert_eq!(active, vec![NodeId::new(2)]);
    }

    #[test]
    fn freshness_and_usability_follow_silence() {
        let mut t = NeighborTable::new(EstimatorConfig::default());
        let me = NodeId::new(0);
        let n1 = NodeId::new(1);
        for i in 0..4 {
            t.handle_probe(n1, &single(i), me, SimTime::from_secs(i * 5));
        }
        // Heard 1s ago: fresh and usable.
        let now = SimTime::from_secs(16);
        assert_eq!(t.freshness(n1, now), Some(crate::Freshness::Fresh));
        assert!(t.has_usable_estimate(now));
        // Silent past the 9s horizon: quarantined, nothing usable.
        let later = SimTime::from_secs(40);
        assert_eq!(t.freshness(n1, later), Some(crate::Freshness::Quarantined));
        assert!(!t.has_usable_estimate(later));
        // Never-heard neighbor has no freshness at all.
        assert_eq!(t.freshness(NodeId::new(9), later), None);
    }

    #[test]
    fn classified_observe_matches_plain_observe() {
        let mut t = NeighborTable::new(EstimatorConfig::default());
        let me = NodeId::new(0);
        let n1 = NodeId::new(1);
        for i in 0..4 {
            t.handle_probe(n1, &single(i), me, SimTime::from_secs(i * 5));
        }
        let now = SimTime::from_secs(16);
        let (obs, f) = t.classified_observe(n1, now);
        assert_eq!(obs, t.observe(n1, now));
        assert_eq!(f, Some(crate::Freshness::Fresh));
        let (unk, none) = t.classified_observe(NodeId::new(7), now);
        assert_eq!(unk, LinkObservation::unknown(t.config()));
        assert_eq!(none, None);
    }

    #[test]
    fn sweep_reports_transitions_once() {
        let mut t = NeighborTable::new(EstimatorConfig::default());
        let me = NodeId::new(0);
        let n1 = NodeId::new(1);
        t.handle_probe(n1, &single(0), me, SimTime::from_secs(0));
        let first = t.sweep_freshness(SimTime::from_secs(1));
        assert_eq!(first, vec![(n1, crate::Freshness::Fresh)]);
        // No change: nothing reported.
        assert!(t.sweep_freshness(SimTime::from_secs(2)).is_empty());
        // Past the silence horizon: one quarantine transition, then quiet.
        let q = t.sweep_freshness(SimTime::from_secs(20));
        assert_eq!(q, vec![(n1, crate::Freshness::Quarantined)]);
        assert!(t.sweep_freshness(SimTime::from_secs(25)).is_empty());
        // A new probe revives the link: fresh transition reported again.
        t.handle_probe(n1, &single(1), me, SimTime::from_secs(30));
        let back = t.sweep_freshness(SimTime::from_secs(31));
        assert_eq!(back, vec![(n1, crate::Freshness::Fresh)]);
    }

    #[test]
    fn reverse_report_covers_all_neighbors_sorted() {
        let mut t = NeighborTable::new(EstimatorConfig::default());
        let me = NodeId::new(0);
        t.handle_probe(NodeId::new(5), &single(0), me, SimTime::from_secs(0));
        t.handle_probe(NodeId::new(2), &single(0), me, SimTime::from_secs(0));
        let rep = t.reverse_report(SimTime::from_secs(1));
        assert_eq!(rep.len(), 2);
        assert!(rep[0].0 < rep[1].0);
    }
}

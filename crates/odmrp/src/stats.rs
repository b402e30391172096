//! Per-node protocol statistics collected during a run.
//!
//! Maps are `BTreeMap`s, not `HashMap`s: the harness traverses them when
//! aggregating (tree usage, per-group totals), and hash-order traversal
//! would leak into reported floats and replay hashes (mesh-lint rule R1).

use std::collections::BTreeMap;

use mesh_sim::ids::{GroupId, NodeId};
use mesh_sim::time::SimTime;

/// Delivery record for one `(group, source)` pair at a member.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Delivered {
    /// Distinct data packets delivered to the application.
    pub count: u64,
    /// Sum of end-to-end delays in seconds (divide by `count` for the mean).
    pub delay_sum_s: f64,
}

impl Delivered {
    /// Mean end-to-end delay in seconds, if anything was delivered.
    pub fn mean_delay_s(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.delay_sum_s / self.count as f64)
        }
    }
}

mesh_sim::snap_struct!(Delivered { count, delay_sum_s });

/// Everything a node counted during a run.
#[derive(Debug, Clone, Default)]
pub struct NodeStats {
    /// Data packets originated, per group (source side).
    pub sent: BTreeMap<GroupId, u64>,
    /// Data delivered to the application, per `(group, source)` (member side).
    pub delivered: BTreeMap<(GroupId, NodeId), Delivered>,
    /// Data packets rebroadcast as a forwarding-group member.
    pub data_forwards: u64,
    /// `JOIN QUERY` packets originated (as a source).
    pub queries_sent: u64,
    /// `JOIN REPLY` packets broadcast (as member or forwarder).
    pub replies_sent: u64,
    /// Probe packets broadcast.
    pub probes_sent: u64,
    /// Tree edges selected in `JOIN REPLY`s: `(upstream, this node)` counted
    /// once per refresh round the edge was chosen; used for Fig. 5.
    pub tree_edges: BTreeMap<(NodeId, NodeId), u64>,
    /// Times this node rebooted after a fault-injected crash.
    pub restarts: u64,
    /// Last time a `JOIN REPLY` selected this node into the forwarding
    /// group, per group. The forwarding-group soundness oracle checks that a
    /// node only forwards while this is within `fg_timeout` of now.
    pub fg_selected: BTreeMap<GroupId, SimTime>,
    /// Link estimates the staleness sweep newly quarantined (degraded mode).
    pub quarantines: u64,
    /// Query costings where a quarantined estimate was replaced by the
    /// no-history default observation (degraded mode).
    pub quarantine_substitutions: u64,
    /// Times this node lost its last usable estimate and fell back to
    /// minimum-hop selection (degraded mode).
    pub fallback_activations: u64,
    /// Refresh rounds delayed by the no-election exponential backoff
    /// (degraded mode).
    pub refresh_backoffs: u64,
}

mesh_sim::snap_struct!(NodeStats {
    sent,
    delivered,
    data_forwards,
    queries_sent,
    replies_sent,
    probes_sent,
    tree_edges,
    restarts,
    fg_selected,
    quarantines,
    quarantine_substitutions,
    fallback_activations,
    refresh_backoffs,
});

/// Implemented by every multicast protocol node in this workspace so the
/// experiment harness can measure ODMRP and tree-based nodes uniformly.
pub trait MulticastApp {
    /// The statistics collected so far.
    fn node_stats(&self) -> &NodeStats;
    /// The route-selection policy this node runs.
    fn variant(&self) -> crate::Variant;
}

impl NodeStats {
    /// Total data packets delivered across all groups/sources.
    pub fn total_delivered(&self) -> u64 {
        self.delivered.values().map(|d| d.count).sum()
    }

    /// Total data packets originated across all groups.
    pub fn total_sent(&self) -> u64 {
        self.sent.values().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_delay() {
        let mut d = Delivered::default();
        assert_eq!(d.mean_delay_s(), None);
        d.count = 4;
        d.delay_sum_s = 2.0;
        assert_eq!(d.mean_delay_s(), Some(0.5));
    }

    #[test]
    fn totals() {
        let mut s = NodeStats::default();
        s.sent.insert(GroupId(0), 10);
        s.sent.insert(GroupId(1), 5);
        s.delivered.insert(
            (GroupId(0), NodeId::new(1)),
            Delivered {
                count: 7,
                delay_sum_s: 1.0,
            },
        );
        assert_eq!(s.total_sent(), 15);
        assert_eq!(s.total_delivered(), 7);
    }
}

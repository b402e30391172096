//! Multicast-tree extraction for Figure 5.
//!
//! Each node counts, per directed link, the refresh rounds in which it
//! selected that link toward its upstream in a `JOIN REPLY`. The
//! heavily-used links of a run are the edges of the effective dissemination
//! structure — the paper draws exactly those arrows for ODMRP vs ODMRP_PP on
//! the testbed.

use std::collections::BTreeMap;

use mesh_sim::ids::NodeId;
use mesh_sim::simulator::Simulator;
use odmrp::OdmrpNode;

/// A directed edge with its first-copy data traffic count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeUse {
    /// Transmitting node.
    pub from: NodeId,
    /// Receiving node.
    pub to: NodeId,
    /// First-copy data packets carried.
    pub packets: u64,
}

/// Collect the *selected tree edges* — `(upstream, node)` pairs counted once
/// per refresh round they were chosen in a `JOIN REPLY` — sorted by
/// decreasing use. This is what Figure 5 draws.
pub fn tree_usage(sim: &Simulator<OdmrpNode>) -> Vec<EdgeUse> {
    let mut agg: BTreeMap<(NodeId, NodeId), u64> = BTreeMap::new();
    for n in sim.protocols() {
        for (&(from, to), &c) in &n.stats().tree_edges {
            *agg.entry((from, to)).or_insert(0) += c;
        }
    }
    let mut v: Vec<EdgeUse> = agg
        .into_iter()
        .map(|((from, to), packets)| EdgeUse { from, to, packets })
        .collect();
    v.sort_by(|a, b| {
        b.packets
            .cmp(&a.packets)
            .then(a.from.cmp(&b.from))
            .then(a.to.cmp(&b.to))
    });
    v
}

/// The "heavily used" subset: edges carrying at least `fraction` of the
/// busiest edge's traffic.
///
/// # Panics
///
/// Panics if `fraction` is not in `(0, 1]`.
pub fn heavy_edges(edges: &[EdgeUse], fraction: f64) -> Vec<EdgeUse> {
    assert!(fraction > 0.0 && fraction <= 1.0, "fraction in (0,1]");
    let Some(max) = edges.iter().map(|e| e.packets).max() else {
        return Vec::new();
    };
    let cut = (max as f64 * fraction).max(1.0) as u64;
    edges.iter().filter(|e| e.packets >= cut).copied().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(f: u32, t: u32, p: u64) -> EdgeUse {
        EdgeUse {
            from: NodeId::new(f),
            to: NodeId::new(t),
            packets: p,
        }
    }

    #[test]
    fn heavy_edges_filters_by_fraction() {
        let edges = vec![e(0, 1, 100), e(1, 2, 50), e(2, 3, 5)];
        let heavy = heavy_edges(&edges, 0.3);
        assert_eq!(heavy.len(), 2);
        assert!(heavy.iter().all(|x| x.packets >= 30));
    }

    #[test]
    fn heavy_edges_empty_input() {
        assert!(heavy_edges(&[], 0.5).is_empty());
    }

    #[test]
    #[should_panic(expected = "fraction")]
    fn heavy_edges_bad_fraction() {
        let _ = heavy_edges(&[e(0, 1, 1)], 0.0);
    }
}

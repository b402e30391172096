//! The paper's protocol knobs and the layout types every scenario shares.
//!
//! Scenarios themselves are decks (`scenarios/*.toml`) compiled into a
//! [`WorkloadScenario`](crate::scenario_compiler::WorkloadScenario); the
//! [`MeshScenario`] inside one carries the knobs §4.1 defines.

use mcast_metrics::EstimatorConfig;
use mesh_sim::ids::{GroupId, NodeId};
use mesh_sim::rng::SimRng;
use mesh_sim::time::{SimDuration, SimTime};
use odmrp::{CbrSource, NodeRole, OdmrpConfig, Variant};

/// The 50-node random-mesh scenario of §4.1.
#[derive(Debug, Clone, PartialEq)]
pub struct MeshScenario {
    /// Number of nodes (paper: 50).
    pub nodes: usize,
    /// Square deployment area side in meters (paper: 1000).
    pub area_side: f64,
    /// Nominal radio range used for the connectivity check (paper: 250).
    pub range: f64,
    /// Number of multicast groups (paper: 2).
    pub groups: usize,
    /// Receiving members per group (paper: 10).
    pub members_per_group: usize,
    /// Sources per group (paper: 1; §4.3 uses more).
    pub sources_per_group: usize,
    /// CBR starts here (probing warms up before).
    pub data_start: SimTime,
    /// CBR stops here.
    pub data_stop: SimTime,
    /// Probe-rate factor (1.0 = paper default; 5.0 = "high overhead").
    pub probe_rate: f64,
    /// δ — member reply delay (paper: 30 ms).
    pub delta: SimDuration,
    /// α — duplicate-forwarding window (paper: 20 ms).
    pub alpha: SimDuration,
    /// Rayleigh fading on/off (paper: on).
    pub fading: bool,
    /// Use the spatially-indexed fan-out in [`PhysicalMedium`] (default: on).
    /// Results are bit-identical either way; this knob exists for equivalence
    /// tests and for benchmarking the index against the naive full scan, so
    /// it is set in code only (decks have no key for it).
    pub indexed_medium: bool,
    /// Enable degraded-mode resilience (staleness quarantine, refresh
    /// backoff, min-hop fallback) in the protocol configs. Default off, so
    /// baseline sweeps and their replay hashes are untouched.
    pub degraded: bool,
}

impl MeshScenario {
    /// The paper's configuration: 50 nodes, 1000 m², 2 groups × 10 members,
    /// single source per group, 20 pkt/s × 512 B for 360 s of a 400 s run.
    pub fn paper_default() -> Self {
        MeshScenario {
            nodes: 50,
            area_side: 1000.0,
            range: 250.0,
            groups: 2,
            members_per_group: 10,
            sources_per_group: 1,
            data_start: SimTime::from_secs(30),
            data_stop: SimTime::from_secs(390),
            probe_rate: 1.0,
            delta: SimDuration::from_millis(30),
            alpha: SimDuration::from_millis(20),
            fading: true,
            indexed_medium: true,
            degraded: false,
        }
    }

    /// The protocol configuration used for `variant`.
    pub fn odmrp_config(&self, variant: Variant) -> OdmrpConfig {
        OdmrpConfig {
            variant,
            probe_rate: self.probe_rate,
            delta: self.delta,
            alpha: self.alpha,
            estimator: EstimatorConfig::default(),
            degraded: odmrp::DegradedModeConfig {
                enabled: self.degraded,
                ..odmrp::DegradedModeConfig::default()
            },
            ..OdmrpConfig::default()
        }
    }
}

/// A concrete layout: who sits where, who sources, who listens.
#[derive(Debug, Clone)]
pub struct ScenarioLayout {
    /// Node positions.
    pub positions: Vec<mesh_sim::geometry::Pos>,
    /// Per-node roles.
    pub roles: Vec<NodeRole>,
    /// Group membership summary for measurement.
    pub groups: Vec<GroupSpec>,
}

/// Sources and members of one group.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupSpec {
    /// Group id.
    pub group: GroupId,
    /// Source node(s).
    pub sources: Vec<NodeId>,
    /// Member (receiver) nodes (whole-run membership).
    pub members: Vec<NodeId>,
    /// Churning receivers: `(node, expected packets)` pairs where the
    /// expectation counts the source departures inside the node's
    /// membership window. Empty for non-churn scenarios, so measurement is
    /// unchanged there.
    pub churners: Vec<(NodeId, u64)>,
}

/// Draw sources and members for each group without replacement over a
/// Fisher-Yates shuffle of the node ids, continuing `rng`'s stream (the one
/// that placed the nodes). Returns the layout plus the shuffled ids that
/// received no role — one semantics for every topology family and for the
/// churn overlay, which consumes the spare ids.
///
/// # Panics
///
/// Panics if the groups need more distinct roles than there are nodes.
pub(crate) fn draw_layout(
    positions: Vec<mesh_sim::geometry::Pos>,
    rng: &mut SimRng,
    n_groups: usize,
    members_per_group: usize,
    sources_per_group: usize,
    data_start: SimTime,
    data_stop: SimTime,
) -> (ScenarioLayout, Vec<usize>) {
    let nodes = positions.len();
    let needed = n_groups * (members_per_group + sources_per_group);
    assert!(
        needed <= nodes,
        "scenario needs {needed} distinct roles but has {nodes} nodes"
    );
    let mut ids: Vec<usize> = (0..nodes).collect();
    // Fisher-Yates shuffle driven by the scenario RNG.
    for i in (1..ids.len()).rev() {
        let j = rng.uniform_u32(i as u32 + 1) as usize;
        ids.swap(i, j);
    }
    let mut roles = vec![NodeRole::forwarder(); nodes];
    let mut take = ids.into_iter();
    let mut groups = Vec::new();
    for g in 0..n_groups {
        let gid = GroupId(g as u32);
        let mut sources = Vec::new();
        let mut members = Vec::new();
        for _ in 0..sources_per_group {
            let id = take.next().expect("enough nodes");
            roles[id]
                .sources
                .push(CbrSource::paper_default(gid, data_start, data_stop));
            sources.push(NodeId::new(id as u32));
        }
        for _ in 0..members_per_group {
            let id = take.next().expect("enough nodes");
            roles[id].member_of.push(gid);
            members.push(NodeId::new(id as u32));
        }
        groups.push(GroupSpec {
            group: gid,
            sources,
            members,
            churners: Vec::new(),
        });
    }
    let spare: Vec<usize> = take.collect();
    (
        ScenarioLayout {
            positions,
            roles,
            groups,
        },
        spare,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_matches_section_4_1() {
        let s = MeshScenario::paper_default();
        assert_eq!(s.nodes, 50);
        assert_eq!(s.area_side, 1000.0);
        assert_eq!(s.groups, 2);
        assert_eq!(s.members_per_group, 10);
        assert_eq!(s.sources_per_group, 1);
        assert_eq!(s.data_start, SimTime::from_secs(30));
        assert_eq!(s.data_stop, SimTime::from_secs(390));
    }
}

//! Protocol-level invariant oracles.
//!
//! [`check`] inspects every node's soft state at a checkpoint and reports
//! violations of the properties §3.1 relies on. The discovery checks
//! ([`check_discovery`]) hold for every protocol built on the shared
//! [`crate::discovery`] core, ODMRP and the tree protocol alike:
//!
//! * **neighbor-table grounding** — a node's `NEIGHBOR_TABLE` may only hold
//!   entries for real, distinct nodes that actually transmitted probes;
//! * **loop freedom** — following the per-round upstream pointers recorded
//!   from query processing never revisits a node, for any `(source, seq)`
//!   round;
//! * **no quarantined routes** — with degraded mode enabled, no query round
//!   ever costed its chosen upstream from a quarantined link estimate's
//!   measured values (the staleness layer must have substituted the
//!   default observation).
//!
//! Each protocol then adds its own forwarding checks through
//! [`Forwarding::audit`]; ODMRP's is **forwarding-group soundness**
//! ([`check_forwarding_groups`]) — a node forwards data for a group only
//! while an unexpired `JOIN REPLY` selected it (soft state within
//! `fg_timeout` of the last selection).
//!
//! [`oracle`] packages the checks for
//! [`mesh_sim::simulator::Simulator::add_oracle`].

use std::collections::{BTreeMap, HashSet};

use mesh_sim::ids::NodeId;
use mesh_sim::time::SimTime;

use crate::discovery::{Forwarding, MulticastNode};
use crate::node::OdmrpNode;

/// Run every oracle over `nodes` at time `now` — the discovery checks, then
/// the protocol's own; one message per violation, empty when all invariants
/// hold.
pub fn check<F: Forwarding>(now: SimTime, nodes: &[MulticastNode<F>]) -> Vec<String> {
    let mut out = check_discovery(nodes);
    F::audit(now, nodes, &mut out);
    out
}

/// The checks of [`check`] boxed for
/// [`mesh_sim::simulator::Simulator::add_oracle`].
pub fn oracle<F: Forwarding>() -> mesh_sim::simulator::Oracle<MulticastNode<F>> {
    Box::new(|world, nodes| check(world.now(), nodes))
}

/// The discovery checks, valid for any node built on the shared core.
pub fn check_discovery<F: Forwarding>(nodes: &[MulticastNode<F>]) -> Vec<String> {
    let mut out = Vec::new();
    check_neighbor_tables(nodes, &mut out);
    check_loop_freedom(nodes, &mut out);
    check_no_quarantined_routes(nodes, &mut out);
    out
}

fn check_neighbor_tables<F: Forwarding>(nodes: &[MulticastNode<F>], out: &mut Vec<String>) {
    for (i, node) in nodes.iter().enumerate() {
        for n in node.neighbor_table().known_neighbors() {
            if n.index() >= nodes.len() {
                out.push(format!(
                    "[neighbor-exists] node {i} has a table entry for \
                     nonexistent node {n:?}"
                ));
            } else if n.index() == i {
                out.push(format!(
                    "[neighbor-not-self] node {i} has a table entry for itself"
                ));
            } else if nodes[n.index()].stats().probes_sent == 0 {
                out.push(format!(
                    "[neighbor-probed] node {i} has a table entry for \
                     {n:?}, which never sent a probe"
                ));
            }
        }
    }
}

/// ODMRP's forwarding-group soundness check.
pub fn check_forwarding_groups(now: SimTime, nodes: &[OdmrpNode], out: &mut Vec<String>) {
    for (i, node) in nodes.iter().enumerate() {
        let fg_timeout = node.config().fg_timeout;
        for g in node.forwarding_groups() {
            if !node.is_forwarding(g, now) {
                continue;
            }
            let selected = node.stats().fg_selected.get(&g);
            match selected {
                None => out.push(format!(
                    "[fg-join-backed] node {i} forwards for {g:?} but no \
                     JOIN REPLY ever selected it"
                )),
                Some(&t) => {
                    if now.saturating_since(t) > fg_timeout {
                        out.push(format!(
                            "[fg-unexpired-join] node {i} forwards for {g:?} \
                             but its last selection at {t:?} expired"
                        ));
                    }
                }
            }
        }
    }
}

fn check_no_quarantined_routes<F: Forwarding>(nodes: &[MulticastNode<F>], out: &mut Vec<String>) {
    for (i, node) in nodes.iter().enumerate() {
        if !node.config().degraded.enabled {
            continue;
        }
        for (key, used_quarantined) in node.query_audits() {
            if used_quarantined {
                out.push(format!(
                    "[no-quarantined-route] node {i} costed its upstream for \
                     round {key:?} from a quarantined link estimate"
                ));
            }
        }
    }
}

fn check_loop_freedom<F: Forwarding>(nodes: &[MulticastNode<F>], out: &mut Vec<String>) {
    // Upstream pointer of each node, per (source, seq) round. BTreeMaps at
    // both levels so violation messages come out in round/node order —
    // oracle output is part of what differential replay compares.
    let mut rounds: BTreeMap<(NodeId, u32), BTreeMap<usize, NodeId>> = BTreeMap::new();
    for (i, node) in nodes.iter().enumerate() {
        for (key, upstream) in node.query_upstreams() {
            rounds.entry(key).or_default().insert(i, upstream);
        }
    }
    for (key, ptrs) in &rounds {
        for &start in ptrs.keys() {
            let mut visited = HashSet::new();
            let mut cur = start;
            while let Some(&up) = ptrs.get(&cur) {
                if !visited.insert(cur) {
                    out.push(format!(
                        "[query-loop-free] round {key:?}: upstream pointers \
                         from node {start} revisit node {cur}"
                    ));
                    break;
                }
                cur = up.index();
            }
        }
    }
}

//! The ODMRP node: the shared discovery core of [`crate::discovery`] plus
//! ODMRP's forwarding half.
//!
//! Implements original ODMRP (first-query route selection) and the
//! metric-enhanced protocol of §3.1. Discovery — cost-accumulating
//! `JOIN QUERY` floods, bounded duplicate forwarding (α window +
//! improvement rule), the δ wait at members — lives in the core; this
//! module adds what makes it ODMRP: the best-query `JOIN REPLY`,
//! forwarding-group maintenance with soft-state timeouts, and flooding of
//! data over the forwarding group.

use std::collections::{BTreeMap, BTreeSet};

use mesh_sim::ids::{GroupId, NodeId};
use mesh_sim::snapshot::{Snap, SnapError, SnapReader, SnapWriter, SnapshotState};
use mesh_sim::time::SimTime;
use mesh_sim::trace::Decision;
use mesh_sim::world::Ctx;

use crate::discovery::{Core, Forwarding, MulticastNode, NoTimer};
use crate::messages::{class, JoinReply, JoinTableEntry, OdmrpMsg};

/// An ODMRP protocol instance.
///
/// Construct with [`OdmrpNode::new`], hand a `Vec` of them to
/// [`mesh_sim::simulator::Simulator`], and read [`OdmrpNode::stats`] after
/// the run. See the `experiments` crate for turnkey scenario runners.
pub type OdmrpNode = MulticastNode<ForwardingGroup>;

/// ODMRP's forwarding state: per-group forwarding-group membership, built
/// by `JOIN REPLY`s.
#[derive(Debug, Default)]
pub struct ForwardingGroup {
    /// Groups this node currently forwards for, with expiry.
    fg: BTreeMap<GroupId, SimTime>,
    /// (source, seq) reply rounds already forwarded upstream.
    forwarded_reply: BTreeSet<(NodeId, u32)>,
}

impl OdmrpNode {
    /// Whether this node is currently a forwarding-group member of `group`.
    pub fn is_forwarding(&self, group: GroupId, now: SimTime) -> bool {
        self.forwarding().is_forwarding(group, now)
    }

    /// Groups this node has *ever* forwarded for (soft state ignored),
    /// ascending (`fg` is a `BTreeMap`).
    pub fn forwarding_groups(&self) -> Vec<GroupId> {
        self.forwarding().fg.keys().copied().collect()
    }
}

impl ForwardingGroup {
    fn is_forwarding(&self, group: GroupId, now: SimTime) -> bool {
        self.fg.get(&group).is_some_and(|&t| t > now)
    }

    fn send_reply(core: &mut Core<NoTimer>, ctx: &mut Ctx<'_, OdmrpMsg>, source: NodeId, seq: u32) {
        let Some((group, upstream)) = core.route(source, seq) else {
            return;
        };
        let me = core.me();
        let reply = JoinReply {
            group,
            sender: me,
            entries: vec![JoinTableEntry {
                source,
                seq,
                next_hop: upstream,
            }],
        };
        let bytes = reply.bytes();
        if ctx
            .send_broadcast(OdmrpMsg::JoinReply(reply), bytes, class::CONTROL)
            .is_ok()
        {
            let stats = core.stats_mut();
            stats.replies_sent += 1;
            *stats.tree_edges.entry((upstream, me)).or_insert(0) += 1;
            ctx.trace_decision(Decision::SendReply {
                source,
                pkt_seq: seq,
            });
        }
    }

    fn handle_reply(
        &mut self,
        core: &mut Core<NoTimer>,
        ctx: &mut Ctx<'_, OdmrpMsg>,
        r: &JoinReply,
    ) {
        let now = ctx.now();
        let me = core.me();
        for e in &r.entries {
            if e.next_hop != me {
                continue;
            }
            // We were selected: join the forwarding group for this group.
            let expiry = now + core.config().fg_timeout;
            let slot = self.fg.entry(r.group).or_insert(expiry);
            *slot = (*slot).max(expiry);
            ctx.trace_decision(Decision::FgJoin { group: r.group.0 });
            let sel = core.stats_mut().fg_selected.entry(r.group).or_insert(now);
            *sel = (*sel).max(now);

            if e.source == me {
                // The reply chain reached us: this refresh round elected a
                // forwarding group, so the refresh backoff resets.
                core.mark_elected(e.seq);
            }
            if e.source != me && self.forwarded_reply.insert((e.source, e.seq)) {
                Self::send_reply(core, ctx, e.source, e.seq);
            }
        }
    }
}

impl Forwarding for ForwardingGroup {
    type Msg = OdmrpMsg;
    type Timer = NoTimer;

    fn on_delta(
        &mut self,
        core: &mut Core<NoTimer>,
        ctx: &mut Ctx<'_, OdmrpMsg>,
        source: NodeId,
        seq: u32,
    ) {
        Self::send_reply(core, ctx, source, seq);
    }

    fn on_message(
        &mut self,
        core: &mut Core<NoTimer>,
        ctx: &mut Ctx<'_, OdmrpMsg>,
        _from: NodeId,
        msg: &OdmrpMsg,
    ) {
        if let OdmrpMsg::JoinReply(r) = msg {
            self.handle_reply(core, ctx, r);
        }
    }

    fn on_timer(&mut self, _: &mut Core<NoTimer>, _: &mut Ctx<'_, OdmrpMsg>, timer: NoTimer) {
        match timer {}
    }

    fn forwards(&self, group: GroupId, _source: NodeId, now: SimTime) -> bool {
        self.is_forwarding(group, now)
    }

    fn audit(now: SimTime, nodes: &[OdmrpNode], out: &mut Vec<String>) {
        crate::invariants::check_forwarding_groups(now, nodes, out);
    }
}

impl SnapshotState for ForwardingGroup {
    fn snapshot_state(&self, w: &mut SnapWriter) {
        let ForwardingGroup {
            fg,
            forwarded_reply,
        } = self;
        fg.snap(w);
        forwarded_reply.snap(w);
    }

    fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.fg = Snap::unsnap(r)?;
        self.forwarded_reply = Snap::unsnap(r)?;
        Ok(())
    }
}

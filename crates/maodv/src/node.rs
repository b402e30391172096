//! The tree-multicast node: ODMRP's discovery core plus a tree forwarding
//! half.
//!
//! Route discovery is [`odmrp::discovery`] itself, so the *only* structural
//! difference from ODMRP is what §4.3 isolates: state is kept **per source**
//! and activated hop-by-hop with **unicast grafts**, producing a tree with
//! no mesh redundancy.

use std::collections::{BTreeMap, BTreeSet};

use mesh_sim::ids::{GroupId, NodeId, TxHandle};
use mesh_sim::protocol::TxOutcome;
use mesh_sim::snapshot::{Snap, SnapError, SnapReader, SnapWriter, SnapshotState};
use mesh_sim::time::{SimDuration, SimTime};
use mesh_sim::trace::Decision;
use mesh_sim::world::Ctx;
use odmrp::discovery::{Core, Forwarding, MulticastNode};
use odmrp::messages::class;

use crate::messages::{Graft, MaodvMsg};

const GRAFT_RETRIES: u32 = 2;

/// A tree-based multicast protocol instance (MAODV-style). It takes an
/// [`odmrp::OdmrpConfig`]; `fg_timeout` is the tree-branch lifetime.
pub type MaodvNode = MulticastNode<Trees>;

/// Per-`(group, source)` tree membership.
#[derive(Debug, Default)]
struct TreeState {
    /// Downstream tree neighbors and their expiry.
    // Iterated (live_children): BTreeMap so traversal is key-ordered,
    // never hash-ordered (mesh-lint rule R1).
    children: BTreeMap<NodeId, SimTime>,
}

impl TreeState {
    fn live_children(&self, now: SimTime) -> usize {
        self.children.values().filter(|&&t| t > now).count()
    }
}

mesh_sim::snap_struct!(TreeState { children });

/// The tree protocol's forwarding state: per-source trees built by grafts.
#[derive(Debug, Default)]
pub struct Trees {
    trees: BTreeMap<(GroupId, NodeId), TreeState>,
    /// Rounds for which this node already sent its own graft upstream.
    grafted: BTreeSet<(NodeId, u32)>,
    /// Outstanding graft transmissions by MAC handle, for retry on failure.
    pending_grafts: BTreeMap<TxHandle, (Graft, u32)>,
}

impl Trees {
    /// Whether this node currently forwards for the tree of `(group, source)`.
    pub fn is_tree_forwarder(&self, group: GroupId, source: NodeId, now: SimTime) -> bool {
        self.trees
            .get(&(group, source))
            .is_some_and(|t| t.live_children(now) > 0)
    }

    /// Number of distinct `(group, source)` trees this node has children in.
    pub fn tree_count(&self, now: SimTime) -> usize {
        self.trees
            .values()
            .filter(|t| t.live_children(now) > 0)
            .count()
    }

    /// Send (or re-send) a graft unicast to our upstream for its round.
    fn send_graft(
        &mut self,
        core: &mut Core<(Graft, u32)>,
        ctx: &mut Ctx<'_, MaodvMsg>,
        graft: Graft,
        attempt: u32,
    ) {
        let Some((_, upstream)) = core.route(graft.source, graft.seq) else {
            return;
        };
        match ctx.send_unicast(
            upstream,
            MaodvMsg::Graft(graft),
            Graft::BYTES,
            class::CONTROL,
        ) {
            Ok(handle) => {
                self.pending_grafts.insert(handle, (graft, attempt));
                let me = core.me();
                let stats = core.stats_mut();
                stats.replies_sent += 1;
                *stats.tree_edges.entry((upstream, me)).or_insert(0) += 1;
            }
            Err(_) => {
                // Queue full: try again shortly.
                if attempt < GRAFT_RETRIES {
                    core.arm(ctx, SimDuration::from_millis(20), (graft, attempt + 1));
                }
            }
        }
    }

    fn handle_graft(
        &mut self,
        core: &mut Core<(Graft, u32)>,
        ctx: &mut Ctx<'_, MaodvMsg>,
        from: NodeId,
        g: &Graft,
    ) {
        let now = ctx.now();
        // The grafting neighbor becomes our child on this source's tree.
        let tree = self.trees.entry((g.group, g.source)).or_default();
        let expiry = now + core.config().fg_timeout;
        let slot = tree.children.entry(from).or_insert(expiry);
        *slot = (*slot).max(expiry);
        ctx.trace_decision(Decision::TreeJoin {
            group: g.group.0,
            child: from,
        });

        if g.source == core.me() {
            // The branch reached the root: this round elected tree state,
            // so the refresh backoff resets.
            core.mark_elected(g.seq);
            return;
        }
        // Extend the branch toward the source once per round.
        if self.grafted.insert((g.source, g.seq)) {
            let graft = Graft {
                origin: core.me(),
                ..*g
            };
            self.send_graft(core, ctx, graft, 0);
        }
    }
}

impl Forwarding for Trees {
    type Msg = MaodvMsg;
    /// A graft to retry, with its attempt number.
    type Timer = (Graft, u32);

    /// δ expired at a member: graft toward the best upstream of the round.
    fn on_delta(
        &mut self,
        core: &mut Core<(Graft, u32)>,
        ctx: &mut Ctx<'_, MaodvMsg>,
        source: NodeId,
        seq: u32,
    ) {
        if source == core.me() || !self.grafted.insert((source, seq)) {
            return;
        }
        let Some((group, _)) = core.route(source, seq) else {
            return;
        };
        let graft = Graft {
            group,
            source,
            seq,
            origin: core.me(),
        };
        self.send_graft(core, ctx, graft, 0);
    }

    fn on_message(
        &mut self,
        core: &mut Core<(Graft, u32)>,
        ctx: &mut Ctx<'_, MaodvMsg>,
        from: NodeId,
        msg: &MaodvMsg,
    ) {
        if let MaodvMsg::Graft(g) = msg {
            self.handle_graft(core, ctx, from, g);
        }
    }

    fn on_timer(
        &mut self,
        core: &mut Core<(Graft, u32)>,
        ctx: &mut Ctx<'_, MaodvMsg>,
        (graft, attempt): (Graft, u32),
    ) {
        self.send_graft(core, ctx, graft, attempt);
    }

    fn on_tx_complete(
        &mut self,
        core: &mut Core<(Graft, u32)>,
        ctx: &mut Ctx<'_, MaodvMsg>,
        handle: TxHandle,
        outcome: TxOutcome,
    ) {
        if let Some((graft, attempt)) = self.pending_grafts.remove(&handle) {
            if !outcome.is_sent() && attempt < GRAFT_RETRIES {
                // The MAC exhausted its retries; try the graft again after a
                // short pause (the upstream may be temporarily drowned out).
                core.arm(ctx, SimDuration::from_millis(50), (graft, attempt + 1));
            }
        }
    }

    fn forwards(&self, group: GroupId, source: NodeId, now: SimTime) -> bool {
        self.is_tree_forwarder(group, source, now)
    }
}

impl SnapshotState for Trees {
    fn snapshot_state(&self, w: &mut SnapWriter) {
        let Trees {
            trees,
            grafted,
            pending_grafts,
        } = self;
        trees.snap(w);
        grafted.snap(w);
        pending_grafts.snap(w);
    }

    fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.trees = Snap::unsnap(r)?;
        self.grafted = Snap::unsnap(r)?;
        self.pending_grafts = Snap::unsnap(r)?;
        Ok(())
    }
}

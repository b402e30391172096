//! The route-discovery core shared by ODMRP and the tree protocol.
//!
//! §3.1's metric-enhanced route discovery is one mechanism under both
//! protocols §4.3 compares: probe rounds feed the `NEIGHBOR_TABLE`, sources
//! flood cost-accumulating [`JoinQuery`]s every refresh interval (backing
//! off in degraded mode), forwarders rebroadcast improving duplicates inside
//! the α window, and members wait δ before acting on the best upstream of a
//! round. [`MulticastNode`] owns all of that — timers, query rounds, CBR
//! sources, the duplicate data cache, degraded-mode state, restart and
//! snapshot — and is generic over a [`Forwarding`] half that supplies only
//! what the protocols differ in:
//!
//! * what a member does when δ expires (ODMRP broadcasts a `JOIN REPLY`
//!   that builds a per-group forwarding group; the tree protocol sends a
//!   unicast graft that builds a per-source tree);
//! * which data it rebroadcasts, and the forwarding state behind that
//!   predicate, with its snapshot;
//! * its own messages and timers.
//!
//! Dispatch is static: each protocol's node is a monomorphic
//! `MulticastNode<F>`, so no `dyn` call enters the per-message path.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Debug;

use mcast_metrics::probe::ProbeMsg;
use mcast_metrics::{
    AnyMetric, Freshness, LinkObservation, Metric, NeighborTable, PathCost, Prober,
};
use mesh_sim::ids::{GroupId, NodeId, TimerId, TxHandle};
use mesh_sim::protocol::{Protocol, RxMeta, TxOutcome};
use mesh_sim::snapshot::{Snap, SnapError, SnapReader, SnapWriter, SnapshotState};
use mesh_sim::time::{SimDuration, SimTime};
use mesh_sim::trace::Decision;
use mesh_sim::world::Ctx;

use crate::config::{NodeRole, OdmrpConfig};
use crate::dup_cache::DupCache;
use crate::messages::{class, DataPacket, JoinQuery};
use crate::stats::{MulticastApp, NodeStats};

/// A protocol's wire message, as far as discovery is concerned: the core
/// builds probes, queries and data, and hands everything else to the
/// protocol's [`Forwarding`] half.
pub trait DiscoveryMsg: Clone + Debug {
    /// Wrap a link-quality probe.
    fn probe(p: ProbeMsg) -> Self;
    /// Wrap a discovery query.
    fn query(q: JoinQuery) -> Self;
    /// Wrap a multicast data packet.
    fn data(d: DataPacket) -> Self;
    /// Classify a received message.
    fn heard(&self) -> Heard<'_>;
}

/// A received message as classified by [`DiscoveryMsg::heard`].
#[derive(Debug)]
pub enum Heard<'a> {
    /// A link-quality probe.
    Probe(&'a ProbeMsg),
    /// A discovery query.
    Query(&'a JoinQuery),
    /// A multicast data packet.
    Data(&'a DataPacket),
    /// A message of the forwarding half (reply, graft).
    Own,
}

/// The per-protocol half of a [`MulticastNode`]: forwarding state and the
/// messages and timers that build it.
pub trait Forwarding: Default + Debug + SnapshotState {
    /// The protocol's wire message.
    type Msg: DiscoveryMsg;
    /// Payload of the protocol's own timers, armed with [`Core::arm`].
    type Timer: Snap + Debug;

    /// δ expired at a member: act on the best upstream of round
    /// `(source, seq)`.
    fn on_delta(
        &mut self,
        core: &mut Core<Self::Timer>,
        ctx: &mut Ctx<'_, Self::Msg>,
        source: NodeId,
        seq: u32,
    );

    /// A [`Heard::Own`] message arrived from neighbor `from`.
    fn on_message(
        &mut self,
        core: &mut Core<Self::Timer>,
        ctx: &mut Ctx<'_, Self::Msg>,
        from: NodeId,
        msg: &Self::Msg,
    );

    /// A timer armed with [`Core::arm`] fired.
    fn on_timer(
        &mut self,
        core: &mut Core<Self::Timer>,
        ctx: &mut Ctx<'_, Self::Msg>,
        timer: Self::Timer,
    );

    /// A queued transmission completed (default: ignored).
    fn on_tx_complete(
        &mut self,
        core: &mut Core<Self::Timer>,
        ctx: &mut Ctx<'_, Self::Msg>,
        handle: TxHandle,
        outcome: TxOutcome,
    ) {
        let _ = (core, ctx, handle, outcome);
    }

    /// Whether a first copy of `(group, source)` data is rebroadcast at
    /// `now`.
    fn forwards(&self, group: GroupId, source: NodeId, now: SimTime) -> bool;

    /// Append violations of this protocol's forwarding invariants at `now`
    /// to `out`; [`crate::invariants::check`] runs it after the shared
    /// discovery checks. Default: none.
    fn audit(now: SimTime, nodes: &[MulticastNode<Self>], out: &mut Vec<String>) {
        let _ = (now, nodes, out);
    }
}

/// The timer payload of a protocol with no timers of its own.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NoTimer {}

impl Snap for NoTimer {
    fn snap(&self, _w: &mut SnapWriter) {
        match *self {}
    }

    fn unsnap(_r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Err(SnapError::BadTag(OWN_TIMER_TAG as u32))
    }
}

/// Snapshot tag of [`Timer::Own`].
const OWN_TIMER_TAG: u8 = 5;

#[derive(Debug)]
enum Timer<T> {
    /// Send the next probe round.
    Probe,
    /// Emit the next CBR packet of `role.sources[i]`.
    Cbr(usize),
    /// Flood the next query for `role.sources[i]`.
    Refresh(usize),
    /// δ expired: hand the best query of `(source, seq)` to the forwarding
    /// half.
    Delta(NodeId, u32),
    /// Jittered (re)broadcast of the query for `(source, seq)`.
    ForwardQuery(NodeId, u32),
    /// A timer of the forwarding half.
    Own(T),
}

impl<T: Snap> Snap for Timer<T> {
    fn snap(&self, w: &mut SnapWriter) {
        match self {
            Timer::Probe => w.put_u8(0),
            Timer::Cbr(i) => {
                w.put_u8(1);
                w.put_usize(*i);
            }
            Timer::Refresh(i) => {
                w.put_u8(2);
                w.put_usize(*i);
            }
            Timer::Delta(n, s) => {
                w.put_u8(3);
                n.snap(w);
                w.put_u32(*s);
            }
            Timer::ForwardQuery(n, s) => {
                w.put_u8(4);
                n.snap(w);
                w.put_u32(*s);
            }
            Timer::Own(t) => {
                w.put_u8(OWN_TIMER_TAG);
                t.snap(w);
            }
        }
    }

    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(match r.u8()? {
            0 => Timer::Probe,
            1 => Timer::Cbr(r.usize()?),
            2 => Timer::Refresh(r.usize()?),
            3 => Timer::Delta(Snap::unsnap(r)?, r.u32()?),
            4 => Timer::ForwardQuery(Snap::unsnap(r)?, r.u32()?),
            OWN_TIMER_TAG => Timer::Own(T::unsnap(r)?),
            t => return Err(SnapError::BadTag(t as u32)),
        })
    }
}

/// Per-`(source, seq)` query round state (the message cache of §3.1).
#[derive(Debug)]
struct QueryState {
    group: GroupId,
    /// Best accumulated cost seen so far.
    best_cost: PathCost,
    /// Upstream neighbor of the best query.
    upstream: NodeId,
    /// Hop count of the best query (after our hop).
    hop_count: u8,
    /// Forwarding of improving duplicates allowed until here.
    alpha_deadline: SimTime,
    /// Cost at our last rebroadcast, if we rebroadcast already.
    best_forwarded: Option<PathCost>,
    /// A `ForwardQuery` timer is outstanding.
    forward_pending: bool,
    /// Audit bit: the currently-best upstream's cost was computed from a
    /// quarantined link estimate's measured values. Degraded mode must keep
    /// this false everywhere (the no-quarantined-route oracle checks).
    used_quarantined: bool,
}

mesh_sim::snap_struct!(QueryState {
    group,
    best_cost,
    upstream,
    hop_count,
    alpha_deadline,
    best_forwarded,
    forward_pending,
    used_quarantined,
});

/// The discovery state of one node: everything but its forwarding half.
/// `T` is the forwarding half's timer payload.
#[derive(Debug)]
pub struct Core<T> {
    cfg: OdmrpConfig,
    role: NodeRole,
    metric: Option<AnyMetric>,
    prober: Option<Prober>,
    table: NeighborTable,
    me: NodeId,

    // BTree containers throughout: checkpointing serializes them in
    // iteration order, which must be key order, never hash order
    // (mesh-lint rule R1).
    timers: BTreeMap<u64, Timer<T>>,
    timer_token: u64,

    /// Never pruned: a round's entry lives until a crash clears it, so a
    /// member arms its one δ timer exactly when the round's key is new.
    query_state: BTreeMap<(NodeId, u32), QueryState>,

    /// First copies of data heard, for duplicate suppression.
    data_seen: DupCache,
    data_seq: u32,
    refresh_seq: u32,

    /// Per-source refresh-backoff exponent (degraded mode; 0 = nominal).
    backoff_exp: Vec<u32>,
    /// Per-source refresh seq of the most recent query round we flooded.
    last_round: Vec<Option<u32>>,
    /// Per-source token of the pending `Refresh` timer, so a revival can
    /// cancel a backed-off timer and refresh immediately.
    refresh_token: Vec<Option<u64>>,
    /// Refresh rounds (ours, as source) that elected forwarding state — the
    /// forwarding half's reply or graft chain reached us. Keyed access only.
    elected_rounds: BTreeSet<u32>,
    /// Currently routing on the min-hop fallback (no usable estimates).
    fallback_active: bool,
    /// EWMA of MAC transmit failures (unicast retry exhaustion), one input
    /// of the local congestion signal charged by load-aware metrics.
    tx_fail_ewma: f64,

    stats: NodeStats,
}

impl<T> Core<T> {
    fn new(cfg: OdmrpConfig, role: NodeRole) -> Self {
        let metric = cfg
            .variant
            .metric_kind()
            .map(|k| k.build_with_rate(cfg.probe_rate));
        let prober = metric
            .as_ref()
            .map(|m| Prober::new(m.probe_plan()))
            .filter(|p| !matches!(p.plan(), mcast_metrics::ProbePlan::None));
        let table = NeighborTable::new(cfg.estimator.clone());
        let n_sources = role.sources.len();
        Core {
            cfg,
            role,
            metric,
            prober,
            table,
            me: NodeId::new(0),
            timers: BTreeMap::new(),
            timer_token: 0,
            query_state: BTreeMap::new(),
            data_seen: DupCache::default(),
            data_seq: 0,
            refresh_seq: 0,
            backoff_exp: vec![0; n_sources],
            last_round: vec![None; n_sources],
            refresh_token: vec![None; n_sources],
            elected_rounds: BTreeSet::new(),
            fallback_active: false,
            tx_fail_ewma: 0.0,
            stats: NodeStats::default(),
        }
    }

    /// This node's id.
    pub fn me(&self) -> NodeId {
        self.me
    }

    /// The node's configuration.
    pub fn config(&self) -> &OdmrpConfig {
        &self.cfg
    }

    /// The statistics, for the forwarding half to count into.
    pub fn stats_mut(&mut self) -> &mut NodeStats {
        &mut self.stats
    }

    /// The group and best upstream of query round `(source, seq)`, if this
    /// node heard the round.
    pub fn route(&self, source: NodeId, seq: u32) -> Option<(GroupId, NodeId)> {
        self.query_state
            .get(&(source, seq))
            .map(|st| (st.group, st.upstream))
    }

    /// Our own refresh round `seq` elected forwarding state: the
    /// degraded-mode refresh backoff resets at the next refresh.
    pub fn mark_elected(&mut self, seq: u32) {
        self.elected_rounds.insert(seq);
    }

    /// Arm one of the forwarding half's timers `delay` from now; it comes
    /// back through [`Forwarding::on_timer`].
    pub fn arm<M: DiscoveryMsg>(&mut self, ctx: &mut Ctx<'_, M>, delay: SimDuration, timer: T) {
        self.set(ctx, delay, Timer::Own(timer));
    }

    fn set<M: DiscoveryMsg>(
        &mut self,
        ctx: &mut Ctx<'_, M>,
        delay: SimDuration,
        timer: Timer<T>,
    ) -> u64 {
        self.timer_token += 1;
        let token = self.timer_token;
        self.timers.insert(token, timer);
        ctx.set_timer(delay, token);
        token
    }

    fn jitter<M: DiscoveryMsg>(&self, ctx: &mut Ctx<'_, M>) -> SimDuration {
        let max = self.cfg.control_jitter.as_nanos();
        SimDuration::from_nanos((ctx.rng().uniform() * max as f64) as u64)
    }

    /// Local congestion in `[0, 1]`: the worse of MAC-queue occupancy and
    /// the unicast retry-failure EWMA. A node handling a query is the
    /// prospective forwarder, so this is the load that load-aware metrics
    /// (WCETT-LB) charge into the accumulated path cost. Under ODMRP's
    /// pure-broadcast substrate the MAC never reports retry exhaustion
    /// (broadcasts are unacknowledged), so queue occupancy is the live
    /// signal; the tree protocol's unicast grafts feed the retry term.
    fn local_congestion<M: DiscoveryMsg>(&self, ctx: &Ctx<'_, M>) -> f64 {
        let occupancy = ctx.mac_queue_len() as f64 / ctx.mac_queue_cap().max(1) as f64;
        occupancy.clamp(0.0, 1.0).max(self.tx_fail_ewma)
    }

    /// Arm the probe round and every source's refresh and CBR timers, as at
    /// start and after a reboot; sources whose window already closed stay
    /// silent.
    fn arm_periodic<M: DiscoveryMsg>(&mut self, ctx: &mut Ctx<'_, M>) {
        if let Some(interval) = self.prober.as_ref().and_then(|p| p.plan().interval()) {
            // First probe at a random phase within one interval.
            let phase = interval.mul_f64(ctx.rng().uniform());
            self.set(ctx, phase, Timer::Probe);
        }
        let now = ctx.now();
        for i in 0..self.role.sources.len() {
            let spec = self.role.sources[i];
            if now >= spec.stop {
                continue;
            }
            let delay = spec.start.saturating_since(now);
            let token = self.set(ctx, delay, Timer::Refresh(i));
            self.refresh_token[i] = Some(token);
            self.set(ctx, delay, Timer::Cbr(i));
        }
    }

    /// Forget all soft state, as a crash does. Sequence numbers survive
    /// (monotone counters avoid post-reboot duplicate-key collisions at
    /// nodes that cached our pre-crash packets), and stats survive because
    /// they model the experimenter's notebook, not the node's RAM.
    fn clear_soft_state(&mut self) {
        self.timers.clear();
        self.query_state.clear();
        self.data_seen.clear();
        self.table = NeighborTable::new(self.cfg.estimator.clone());
        // Degraded-mode soft state is flushed with the rest: the fresh
        // table has no quarantined entries, backoff restarts at nominal.
        self.backoff_exp.iter_mut().for_each(|e| *e = 0);
        self.last_round.iter_mut().for_each(|r| *r = None);
        self.refresh_token.iter_mut().for_each(|t| *t = None);
        self.elected_rounds.clear();
        self.fallback_active = false;
        self.tx_fail_ewma = 0.0;
        self.stats.restarts += 1;
        self.stats.fg_selected.clear();
    }

    fn send_probe_round<M: DiscoveryMsg>(&mut self, ctx: &mut Ctx<'_, M>) {
        if self.prober.is_none() {
            return;
        }
        if self.cfg.degraded.enabled {
            // Re-classify the table on the probe tick and trace transitions
            // into quarantine.
            let mut revived = false;
            for (peer, f) in self.table.sweep_freshness(ctx.now()) {
                match f {
                    Freshness::Quarantined => {
                        self.stats.quarantines += 1;
                        ctx.trace_decision(Decision::MetricQuarantine { peer });
                    }
                    Freshness::Fresh => revived = true,
                    Freshness::Suspect => {}
                }
            }
            // A neighbor coming back fresh is new routing evidence: a
            // backed-off source cancels its delayed refresh and floods at
            // the nominal cadence again, so recovery is never gated on a
            // backed-off timer armed during the outage.
            if revived {
                for idx in 0..self.backoff_exp.len() {
                    if self.backoff_exp[idx] == 0 {
                        continue;
                    }
                    self.backoff_exp[idx] = 0;
                    self.last_round[idx] = None;
                    if let Some(token) = self.refresh_token[idx].take() {
                        self.timers.remove(&token);
                    }
                    ctx.trace_decision(Decision::RefreshBackoff { factor: 1 });
                    let delay = self.jitter(ctx);
                    let token = self.set(ctx, delay, Timer::Refresh(idx));
                    self.refresh_token[idx] = Some(token);
                }
            }
        }
        let Some(prober) = self.prober.as_mut() else {
            return;
        };
        // Reverse reports are only consumed by the bidirectional-ETX
        // ablation; skip the bytes otherwise.
        let reverse = if matches!(
            self.metric.as_ref().map(|m| m.kind()),
            Some(mcast_metrics::MetricKind::UnicastEtx)
        ) {
            self.table.reverse_report(ctx.now())
        } else {
            Vec::new()
        };
        for (msg, bytes) in prober.next_round(reverse) {
            if ctx
                .send_broadcast(M::probe(msg), bytes, class::PROBE)
                .is_ok()
            {
                self.stats.probes_sent += 1;
            }
        }
        if let Some(interval) = self.prober.as_ref().and_then(|p| p.plan().interval()) {
            // ±10 % desynchronization so probes of different nodes do not
            // phase-lock.
            let f = 0.9 + 0.2 * ctx.rng().uniform();
            self.set(ctx, interval.mul_f64(f), Timer::Probe);
        }
    }

    fn send_cbr<M: DiscoveryMsg>(&mut self, ctx: &mut Ctx<'_, M>, idx: usize) {
        let spec = self.role.sources[idx];
        if ctx.now() >= spec.stop {
            return;
        }
        self.data_seq += 1;
        let pkt = DataPacket {
            group: spec.group,
            source: self.me,
            seq: self.data_seq,
            sent_at: ctx.now(),
            bytes: spec.bytes,
        };
        // Count as sent whether or not the MAC queue had room: the
        // application offered it (drop-tail loss is part of the protocol's
        // performance).
        *self.stats.sent.entry(spec.group).or_insert(0) += 1;
        let _ = ctx.send_broadcast(M::data(pkt), spec.bytes, class::DATA);
        self.set(ctx, spec.interval, Timer::Cbr(idx));
    }

    fn send_refresh<M: DiscoveryMsg>(&mut self, ctx: &mut Ctx<'_, M>, idx: usize) {
        let spec = self.role.sources[idx];
        if ctx.now() >= spec.stop {
            return;
        }
        if self.cfg.degraded.enabled {
            // Adapt to the outcome of the previous round: a round that
            // elected no forwarding state doubles the refresh interval
            // (bounded); any election resets to the nominal cadence.
            if let Some(prev) = self.last_round[idx] {
                if self.elected_rounds.remove(&prev) {
                    self.backoff_exp[idx] = 0;
                } else {
                    self.backoff_exp[idx] =
                        (self.backoff_exp[idx] + 1).min(self.cfg.degraded.max_backoff_exp);
                    self.stats.refresh_backoffs += 1;
                    ctx.trace_decision(Decision::RefreshBackoff {
                        factor: 1u32 << self.backoff_exp[idx],
                    });
                }
            }
        }
        self.refresh_seq += 1;
        let identity = self.metric.as_ref().map_or(0.0, |m| m.identity().value());
        let q = JoinQuery {
            group: spec.group,
            source: self.me,
            seq: self.refresh_seq,
            prev_hop: self.me,
            hop_count: 0,
            cost: identity,
        };
        if ctx
            .send_broadcast(M::query(q), JoinQuery::BYTES, class::CONTROL)
            .is_ok()
        {
            self.stats.queries_sent += 1;
        }
        self.last_round[idx] = Some(self.refresh_seq);
        let exp = self.backoff_exp[idx];
        let interval = if exp == 0 {
            self.cfg.refresh_interval
        } else {
            SimDuration::from_nanos(self.cfg.refresh_interval.as_nanos() << exp)
        };
        let token = self.set(ctx, interval, Timer::Refresh(idx));
        self.refresh_token[idx] = Some(token);
    }

    fn handle_query<M: DiscoveryMsg>(&mut self, ctx: &mut Ctx<'_, M>, from: NodeId, q: &JoinQuery) {
        if q.source == self.me || q.hop_count >= self.cfg.max_hops {
            return;
        }
        let now = ctx.now();
        let key = (q.source, q.seq);
        let is_member = self.role.is_member(q.group, now);

        match self.metric.clone() {
            None => {
                // Original protocol: first copy only, act on it immediately.
                if self.query_state.contains_key(&key) {
                    return;
                }
                self.query_state.insert(
                    key,
                    QueryState {
                        group: q.group,
                        best_cost: PathCost::new(q.hop_count as f64 + 1.0),
                        upstream: from,
                        hop_count: q.hop_count + 1,
                        alpha_deadline: now,
                        best_forwarded: None,
                        forward_pending: true,
                        used_quarantined: false,
                    },
                );
                let j = self.jitter(ctx);
                self.set(ctx, j, Timer::ForwardQuery(q.source, q.seq));
                if is_member {
                    let j = self.jitter(ctx);
                    self.set(ctx, j, Timer::Delta(q.source, q.seq));
                }
            }
            Some(metric) => {
                let (obs, fresh) = self.table.classified_observe(from, now);
                let degraded = self.cfg.degraded.enabled;
                // Degraded mode never feeds a quarantined estimate's
                // measured values to the metric: the no-history default is
                // substituted instead, which costs the link like an
                // unmeasured one (constant per-link cost = min-hop).
                let substitute = degraded && fresh == Some(Freshness::Quarantined);
                let (obs, used_measured) = if substitute {
                    self.stats.quarantine_substitutions += 1;
                    (LinkObservation::unknown(self.table.config()), false)
                } else {
                    (obs, fresh.is_some())
                };
                if degraded {
                    let fallback = !self.table.has_usable_estimate(now);
                    if fallback && !self.fallback_active {
                        self.stats.fallback_activations += 1;
                        ctx.trace_decision(Decision::FallbackActivated);
                    }
                    self.fallback_active = fallback;
                }
                let consumed_quarantined = used_measured && fresh == Some(Freshness::Quarantined);
                // We are the prospective forwarder of this query, so charge
                // our own congestion into the link cost. Congestion-blind
                // metrics ignore the field, leaving their costs (and
                // schedules) untouched.
                let mut obs = obs;
                obs.congestion = Some(self.local_congestion(ctx));
                let link = metric.link_cost(&obs);
                let new_cost = metric.accumulate(PathCost::new(q.cost), link);
                match self.query_state.get_mut(&key) {
                    None => {
                        self.query_state.insert(
                            key,
                            QueryState {
                                group: q.group,
                                best_cost: new_cost,
                                upstream: from,
                                hop_count: q.hop_count + 1,
                                alpha_deadline: now + self.cfg.alpha,
                                best_forwarded: None,
                                forward_pending: true,
                                used_quarantined: consumed_quarantined,
                            },
                        );
                        let j = self.jitter(ctx);
                        self.set(ctx, j, Timer::ForwardQuery(q.source, q.seq));
                        if is_member {
                            self.set(ctx, self.cfg.delta, Timer::Delta(q.source, q.seq));
                        }
                    }
                    Some(st) => {
                        if metric.better(new_cost, st.best_cost) {
                            st.best_cost = new_cost;
                            st.upstream = from;
                            st.hop_count = q.hop_count + 1;
                            st.used_quarantined = consumed_quarantined;
                            // Forward the improvement if the α window is
                            // still open and no forward is already pending.
                            let improves_forwarded =
                                st.best_forwarded.is_none_or(|f| metric.better(new_cost, f));
                            if now <= st.alpha_deadline && improves_forwarded && !st.forward_pending
                            {
                                st.forward_pending = true;
                                let j = self.jitter(ctx);
                                self.set(ctx, j, Timer::ForwardQuery(q.source, q.seq));
                            }
                        }
                    }
                }
            }
        }
    }

    fn forward_query<M: DiscoveryMsg>(&mut self, ctx: &mut Ctx<'_, M>, source: NodeId, seq: u32) {
        let Some(st) = self.query_state.get_mut(&(source, seq)) else {
            return;
        };
        st.forward_pending = false;
        if st.hop_count >= self.cfg.max_hops {
            return;
        }
        if let (Some(metric), Some(fwd)) = (self.metric.as_ref(), st.best_forwarded) {
            if !metric.better(st.best_cost, fwd) {
                return; // nothing new to say
            }
        } else if self.metric.is_none() && st.best_forwarded.is_some() {
            return; // the original protocol forwards once
        }
        st.best_forwarded = Some(st.best_cost);
        let q = JoinQuery {
            group: st.group,
            source,
            seq,
            prev_hop: self.me,
            hop_count: st.hop_count,
            cost: st.best_cost.value(),
        };
        if ctx
            .send_broadcast(M::query(q), JoinQuery::BYTES, class::CONTROL)
            .is_ok()
        {
            ctx.trace_decision(Decision::ForwardQuery {
                source,
                pkt_seq: seq,
            });
        }
    }
}

/// A multicast protocol instance: the shared discovery [`Core`] plus the
/// protocol's [`Forwarding`] half. ODMRP's node is
/// [`OdmrpNode`](crate::OdmrpNode).
///
/// Construct with [`MulticastNode::new`], hand a `Vec` of them to
/// [`mesh_sim::simulator::Simulator`], and read [`MulticastNode::stats`]
/// after the run. See the `experiments` crate for turnkey scenario runners.
#[derive(Debug)]
pub struct MulticastNode<F: Forwarding> {
    core: Core<F::Timer>,
    fwd: F,
}

impl<F: Forwarding> MulticastNode<F> {
    /// Create a node with the given configuration and role.
    pub fn new(cfg: OdmrpConfig, role: NodeRole) -> Self {
        MulticastNode {
            core: Core::new(cfg, role),
            fwd: F::default(),
        }
    }

    /// The statistics collected so far.
    pub fn stats(&self) -> &NodeStats {
        &self.core.stats
    }

    /// The node's role (members/sources).
    pub fn role(&self) -> &NodeRole {
        &self.core.role
    }

    /// The node's configuration.
    pub fn config(&self) -> &OdmrpConfig {
        &self.core.cfg
    }

    /// The link-quality table (empty for the original variant).
    pub fn neighbor_table(&self) -> &NeighborTable {
        &self.core.table
    }

    /// The protocol's forwarding state.
    pub fn forwarding(&self) -> &F {
        &self.fwd
    }

    /// The upstream chosen for every `(source, seq)` query round this node
    /// has state for, sorted by key. The loop-freedom oracle chases these
    /// pointers across nodes: following upstreams of the same round must
    /// never revisit a node.
    pub fn query_upstreams(&self) -> Vec<((NodeId, u32), NodeId)> {
        self.core
            .query_state
            .iter()
            .map(|(&k, st)| (k, st.upstream))
            .collect()
    }

    /// Audit trail for the no-quarantined-route oracle: for every query
    /// round this node has state for, whether the currently-best upstream's
    /// cost consumed the measured values of a quarantined estimate. Sorted
    /// by key.
    pub fn query_audits(&self) -> Vec<((NodeId, u32), bool)> {
        self.core
            .query_state
            .iter()
            .map(|(&k, st)| (k, st.used_quarantined))
            .collect()
    }

    /// Current refresh-backoff exponent per source (degraded mode).
    pub fn backoff_exponents(&self) -> &[u32] {
        &self.core.backoff_exp
    }

    fn handle_data(&mut self, ctx: &mut Ctx<'_, F::Msg>, d: &DataPacket) {
        let core = &mut self.core;
        if d.source == core.me {
            return;
        }
        if !core.data_seen.insert((d.source, d.seq)) {
            ctx.trace_decision(Decision::SuppressDuplicate {
                group: d.group.0,
                source: d.source,
                pkt_seq: d.seq,
            });
            return;
        }

        let now = ctx.now();
        if core.role.is_member(d.group, now) {
            let rec = core.stats.delivered.entry((d.group, d.source)).or_default();
            rec.count += 1;
            rec.delay_sum_s += now.saturating_since(d.sent_at).as_secs_f64();
            ctx.observe_delivery(now.saturating_since(d.sent_at));
        }
        if self.fwd.forwards(d.group, d.source, now)
            && ctx
                .send_broadcast(F::Msg::data(d.clone()), d.bytes, class::DATA)
                .is_ok()
        {
            core.stats.data_forwards += 1;
            ctx.trace_decision(Decision::ForwardData {
                group: d.group.0,
                source: d.source,
                pkt_seq: d.seq,
            });
        }
    }
}

impl<F: Forwarding> SnapshotState for MulticastNode<F> {
    fn snapshot_state(&self, w: &mut SnapWriter) {
        // `cfg`, `role`, and `metric` are configuration: the restoring side
        // rebuilds them from the scenario (fingerprint-checked at the
        // header). Everything else is mutable run state — including `me`,
        // because `start()` never re-runs on a restored simulator.
        let MulticastNode { core, fwd } = self;
        let Core {
            cfg: _,    // configuration
            role: _,   // configuration
            metric: _, // configuration
            prober,
            table,
            me,
            timers,
            timer_token,
            query_state,
            data_seen,
            data_seq,
            refresh_seq,
            backoff_exp,
            last_round,
            refresh_token,
            elected_rounds,
            fallback_active,
            tx_fail_ewma,
            stats,
        } = core;
        me.snap(w);
        timers.snap(w);
        timer_token.snap(w);
        query_state.snap(w);
        fwd.snapshot_state(w);
        data_seen.snap(w);
        data_seq.snap(w);
        refresh_seq.snap(w);
        backoff_exp.snap(w);
        last_round.snap(w);
        refresh_token.snap(w);
        elected_rounds.snap(w);
        fallback_active.snap(w);
        tx_fail_ewma.snap(w);
        stats.snap(w);
        w.put_bool(prober.is_some());
        if let Some(p) = prober {
            p.snapshot_state(w);
        }
        table.snapshot_state(w);
    }

    fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let c = &mut self.core;
        c.me = Snap::unsnap(r)?;
        c.timers = Snap::unsnap(r)?;
        // A CBR or refresh timer indexes the role's sources when it fires.
        let sources = c.role.sources.len();
        if c.timers.values().any(|t| match t {
            Timer::Cbr(i) | Timer::Refresh(i) => *i >= sources,
            _ => false,
        }) {
            return Err(SnapError::StateMismatch("multicast node timer source"));
        }
        c.timer_token = r.u64()?;
        c.query_state = Snap::unsnap(r)?;
        self.fwd.restore_state(r)?;
        c.data_seen = Snap::unsnap(r)?;
        c.data_seq = r.u32()?;
        c.refresh_seq = r.u32()?;
        let backoff_exp: Vec<u32> = Snap::unsnap(r)?;
        if backoff_exp.len() != c.role.sources.len() {
            return Err(SnapError::StateMismatch("multicast node source count"));
        }
        c.backoff_exp = backoff_exp;
        c.last_round = Snap::unsnap(r)?;
        c.refresh_token = Snap::unsnap(r)?;
        if c.last_round.len() != c.backoff_exp.len() || c.refresh_token.len() != c.backoff_exp.len()
        {
            return Err(SnapError::StateMismatch(
                "multicast node per-source state length",
            ));
        }
        c.elected_rounds = Snap::unsnap(r)?;
        c.fallback_active = r.bool()?;
        c.tx_fail_ewma = r.f64()?;
        c.stats = Snap::unsnap(r)?;
        let has_prober = r.bool()?;
        if has_prober != c.prober.is_some() {
            return Err(SnapError::StateMismatch("multicast node prober presence"));
        }
        if let Some(p) = &mut c.prober {
            p.restore_state(r)?;
        }
        c.table.restore_state(r)
    }
}

impl<F: Forwarding> MulticastApp for MulticastNode<F> {
    fn node_stats(&self) -> &NodeStats {
        &self.core.stats
    }
    fn variant(&self) -> crate::Variant {
        self.core.cfg.variant
    }
}

impl<F: Forwarding> Protocol for MulticastNode<F> {
    type Msg = F::Msg;

    fn start(&mut self, ctx: &mut Ctx<'_, F::Msg>) {
        self.core.me = ctx.node();
        self.core.arm_periodic(ctx);
    }

    fn handle_message(
        &mut self,
        ctx: &mut Ctx<'_, F::Msg>,
        src: NodeId,
        msg: &F::Msg,
        _meta: RxMeta,
    ) {
        match msg.heard() {
            Heard::Probe(p) => {
                let now = ctx.now();
                self.core.table.handle_probe(src, p, self.core.me, now);
            }
            Heard::Query(q) => self.core.handle_query(ctx, src, q),
            Heard::Data(d) => self.handle_data(ctx, d),
            Heard::Own => self.fwd.on_message(&mut self.core, ctx, src, msg),
        }
    }

    fn handle_timer(&mut self, ctx: &mut Ctx<'_, F::Msg>, _timer: TimerId, kind: u64) {
        let Some(timer) = self.core.timers.remove(&kind) else {
            return;
        };
        match timer {
            Timer::Probe => self.core.send_probe_round(ctx),
            Timer::Cbr(i) => self.core.send_cbr(ctx, i),
            Timer::Refresh(i) => self.core.send_refresh(ctx, i),
            Timer::Delta(source, seq) => self.fwd.on_delta(&mut self.core, ctx, source, seq),
            Timer::ForwardQuery(source, seq) => self.core.forward_query(ctx, source, seq),
            Timer::Own(t) => self.fwd.on_timer(&mut self.core, ctx, t),
        }
    }

    fn handle_tx_complete(
        &mut self,
        ctx: &mut Ctx<'_, F::Msg>,
        handle: TxHandle,
        outcome: TxOutcome,
    ) {
        // Broadcasts are never retried, so only unicast traffic (the tree
        // protocol's grafts) can fail; ODMRP's EWMA stays 0.
        let fail = if outcome.is_sent() { 0.0 } else { 1.0 };
        self.core.tx_fail_ewma = 0.9 * self.core.tx_fail_ewma + 0.1 * fail;
        self.fwd
            .on_tx_complete(&mut self.core, ctx, handle, outcome);
    }

    fn handle_restart(&mut self, ctx: &mut Ctx<'_, F::Msg>) {
        self.core.clear_soft_state();
        self.fwd = F::default();
        // Re-arm the periodic machinery as `start` does.
        self.core.arm_periodic(ctx);
    }
}

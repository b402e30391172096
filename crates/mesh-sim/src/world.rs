//! The simulation world: event dispatch, PHY reception, and the 802.11 DCF
//! state-machine driver.
//!
//! [`World`] owns everything except the protocol instances; protocol code
//! interacts with it through [`Ctx`], and the world talks back through
//! internal upcalls that the [`crate::simulator::Simulator`] routes to protocols.

use crate::counters::{class_slot, Counters, MAX_CLASSES};
use crate::event::{fold_schedule_hash, EventKind, EventQueue, SCHEDULE_HASH_SEED};
use crate::fault::{FaultKind, FaultPlan};
use crate::frame::{Frame, FrameBody, FrameSlab};
use crate::geometry::Pos;
use crate::ids::{FrameId, NodeId, TimerId, TxHandle};
use crate::mac::{CtrlResponse, Mac, MacParams, MacState, OutFrame};
use crate::medium::{IndexStats, LinkEffect, Medium, PositionDelta, RxPlan};
use crate::metrics::{MetricsRecorder, TimeSeries};
use crate::mobility::Mobility;
use crate::protocol::{RxMeta, TxOutcome};
use crate::radio::{ArrivalOutcome, Radio};
use crate::rng::SimRng;
use crate::snapshot::{Snap, SnapError, SnapReader, SnapWriter};
use crate::time::{SimDuration, SimTime};
use crate::trace::{
    fault_label, Decision, DropReason, FrameKind as TraceFrameKind, TraceEvent, TraceEventKind,
    TraceSink,
};

/// Error for invalid send targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendError {
    /// The MAC transmit queue is full (drop-tail).
    QueueFull,
    /// Destination equals the sender or does not exist.
    BadDestination,
}

impl std::fmt::Display for SendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SendError::QueueFull => write!(f, "MAC transmit queue is full"),
            SendError::BadDestination => write!(f, "invalid destination node"),
        }
    }
}

impl std::error::Error for SendError {}

/// Notifications from the world to a protocol instance.
#[derive(Debug)]
pub(crate) enum Upcall<M> {
    Deliver {
        node: NodeId,
        src: NodeId,
        /// Shared with the frame (and all other receivers of it).
        msg: std::sync::Arc<M>,
        meta: RxMeta,
    },
    TxDone {
        node: NodeId,
        handle: TxHandle,
        outcome: TxOutcome,
    },
    Timer {
        node: NodeId,
        timer: TimerId,
        kind: u64,
    },
    /// A crashed node just recovered; its protocol should re-arm itself.
    Restart { node: NodeId },
}

/// World configuration.
#[derive(Debug, Clone, Default)]
pub struct WorldConfig {
    /// MAC parameters shared by all nodes.
    pub mac: MacParams,
    /// Seed for the world's RNG stream (fading, backoff, jitter).
    pub seed: u64,
}

/// Everything in the simulation except the protocol instances.
pub struct World<M> {
    now: SimTime,
    queue: EventQueue,
    positions: Vec<Pos>,
    pub(crate) radios: Vec<Radio>,
    pub(crate) macs: Vec<Mac<M>>,
    pub(crate) frames: FrameSlab<M>,
    medium: Box<dyn Medium>,
    pub(crate) params: MacParams,
    rng: SimRng,
    counters: Counters,
    timer_seq: u64,
    /// Last [`TxHandle`] drawn; its number is also the frame's MAC
    /// sequence number.
    handle_seq: u64,
    fan_buf: Vec<RxPlan>,
    trace: Option<Box<dyn TraceSink>>,
    metrics: Option<MetricsRecorder>,
    mobility: Option<Box<dyn Mobility>>,
    /// Positions snapshot from just before the last mobility step, used to
    /// diff which nodes actually moved (reused across ticks).
    prev_positions: Vec<Pos>,
    /// Per-tick move list handed to [`Medium::positions_changed`].
    moves_buf: Vec<PositionDelta>,
    /// Crashed (fault-injected) nodes; a down node neither sends nor hears.
    pub(crate) down: Vec<bool>,
    /// Nodes whose in-flight transmission outlived a crash: its `TxEnd`
    /// only releases the frame instead of driving the MAC.
    pub(crate) tx_orphaned: Vec<bool>,
    fault_plan: Option<FaultPlan>,
    /// Directed links blacked out by the active partition fault, so
    /// `HealPartition` can restore exactly those.
    partition_links: Vec<(NodeId, NodeId)>,
    /// Per-class receive drop probability from an active class-loss burst
    /// (indexed by [`class_slot`], so out-of-range classes share the
    /// overflow slot instead of aliasing a real class).
    class_drop: [f64; MAX_CLASSES + 1],
    /// Events observed with a timestamp before `now` (always 0 unless the
    /// queue is broken); checked by the monotonicity oracle in release
    /// builds where the `debug_assert` is compiled out.
    pub(crate) time_regressions: u64,
    /// Running FNV-1a fold over every dequeued event's `(time, seq, kind)`;
    /// see [`crate::event::fold_schedule_hash`].
    sched_hash: u64,
}

impl<M> std::fmt::Debug for World<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("World")
            .field("now", &self.now)
            .field("nodes", &self.positions.len())
            .field("pending_events", &self.queue.len())
            .finish()
    }
}

impl<M: Clone + std::fmt::Debug> World<M> {
    /// Create a world with one node per entry of `positions`.
    ///
    /// # Panics
    ///
    /// Panics if `config.mac` is internally inconsistent
    /// (see [`MacParams::validate`]).
    pub fn new(positions: Vec<Pos>, medium: Box<dyn Medium>, config: WorldConfig) -> Self {
        config.mac.validate();
        let n = positions.len();
        let mut macs: Vec<Mac<M>> = Vec::with_capacity(n);
        for _ in 0..n {
            macs.push(Mac {
                cw: config.mac.cw_min,
                ..Mac::default()
            });
        }
        World {
            now: SimTime::ZERO,
            queue: EventQueue::new(),
            positions,
            radios: vec![Radio::default(); n],
            macs,
            frames: FrameSlab::new(),
            medium,
            params: config.mac,
            rng: SimRng::seed_from(config.seed),
            counters: Counters::default(),
            timer_seq: 0,
            handle_seq: 0,
            fan_buf: Vec::new(),
            trace: None,
            metrics: None,
            mobility: None,
            prev_positions: Vec::new(),
            moves_buf: Vec::new(),
            down: vec![false; n],
            tx_orphaned: vec![false; n],
            fault_plan: None,
            partition_links: Vec::new(),
            class_drop: [0.0; MAX_CLASSES + 1],
            time_regressions: 0,
            sched_hash: SCHEDULE_HASH_SEED,
        }
    }

    /// Attach a fault plan; every scheduled fault becomes a simulator event.
    ///
    /// # Panics
    ///
    /// Panics if a plan is already attached or any fault is scheduled before
    /// the current time.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        assert!(
            self.fault_plan.is_none(),
            "a fault plan is already attached"
        );
        for (idx, &(t, _)) in plan.events().iter().enumerate() {
            assert!(t >= self.now, "fault scheduled in the past");
            self.queue.push(t, EventKind::Fault { idx });
        }
        self.fault_plan = Some(plan);
    }

    /// Whether `node` is currently crashed by a fault.
    pub fn node_is_down(&self, node: NodeId) -> bool {
        self.down[node.index()]
    }

    /// Run the built-in invariant oracles against the current state.
    pub fn check_invariants(&self) -> Vec<crate::invariants::Violation> {
        crate::invariants::check_world(self)
    }

    /// Attach a mobility model; positions update from the next event on.
    pub fn set_mobility(&mut self, mut model: Box<dyn Mobility>) {
        if let Some(next) = model.step(self.now, &mut self.positions, &mut self.rng) {
            self.queue.push(next, EventKind::MobilityTick);
        }
        self.medium.invalidate_positions();
        self.mobility = Some(model);
    }

    /// Attach a trace sink receiving every packet-lifecycle event from now
    /// on. Tracing is observation only: attaching a sink never changes the
    /// event schedule (see [`crate::trace`]).
    pub fn set_trace(&mut self, sink: Box<dyn TraceSink>) {
        self.trace = Some(sink);
    }

    /// Detach and return the current trace sink, if any.
    pub fn take_trace(&mut self) -> Option<Box<dyn TraceSink>> {
        self.trace.take()
    }

    /// Start recording a metrics timeseries with buckets of `width`
    /// (see [`crate::metrics`]). Replaces any recorder already attached.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    pub fn set_metrics(&mut self, width: SimDuration) {
        self.metrics = Some(MetricsRecorder::new(width, self.now));
    }

    /// Stop recording and return the finished timeseries, if one was
    /// attached; the final partial bucket is closed at the current time.
    pub fn take_metrics(&mut self) -> Option<TimeSeries> {
        let index = self.medium.index_stats();
        self.metrics
            .take()
            .map(|rec| rec.finish(self.now, &self.counters, index))
    }

    /// Spatial-index maintenance statistics from the medium, if it keeps an
    /// index (see [`Medium::index_stats`]).
    pub fn index_stats(&self) -> Option<IndexStats> {
        self.medium.index_stats()
    }

    /// Hand `event` to the attached sink. Call sites guard on
    /// `self.trace.is_some()` before building the event, so tracing costs
    /// nothing when off.
    fn emit(&mut self, event: TraceEvent) {
        if let Some(t) = self.trace.as_mut() {
            t.record(event);
        }
    }

    /// `(class, seq, src)` of a frame, if it is a live data frame; `seq` is
    /// its transmit handle's number.
    fn frame_trace_meta(&self, frame: FrameId) -> (Option<u8>, Option<u64>, Option<NodeId>) {
        match self.frames.get(frame) {
            Some(f) => match &f.body {
                FrameBody::Data { class, handle, .. } => {
                    (Some(*class), Some(handle.0), Some(f.src))
                }
                _ => (None, None, Some(f.src)),
            },
            None => (None, None, None),
        }
    }

    /// Trace an [`TraceEventKind::RxDrop`] for `frame` at `node`, stamping
    /// the frame's class/seq when it is still alive.
    fn emit_rx_drop(&mut self, node: NodeId, frame: FrameId, reason: DropReason) {
        if self.trace.is_none() {
            return;
        }
        let (class, seq, _) = self.frame_trace_meta(frame);
        self.emit(TraceEvent {
            at: self.now,
            node: Some(node),
            seq,
            class,
            frame: Some(frame),
            kind: TraceEventKind::RxDrop { reason },
        });
    }

    /// Trace a decoded data frame handed to the protocol at `node`.
    fn emit_data_delivered(&mut self, node: NodeId, frame: FrameId, src: NodeId) {
        if self.trace.is_none() {
            return;
        }
        let (class, seq, _) = self.frame_trace_meta(frame);
        self.emit(TraceEvent {
            at: self.now,
            node: Some(node),
            seq,
            class,
            frame: Some(frame),
            kind: TraceEventKind::Delivered {
                src,
                frame_kind: TraceFrameKind::Data,
            },
        });
    }

    /// Trace the upcoming MAC retry of `node`'s head frame; `attempt`
    /// counts short and long retries together, 1-based.
    fn emit_retry(&mut self, node: NodeId) {
        if self.trace.is_none() {
            return;
        }
        let mac = &self.macs[node.index()];
        let attempt = mac.short_retries + mac.long_retries + 1;
        let (class, seq) = match mac.queue.front() {
            Some(f) => (Some(f.class), Some(f.handle.0)),
            None => (None, None),
        };
        self.emit(TraceEvent {
            at: self.now,
            node: Some(node),
            seq,
            class,
            frame: None,
            kind: TraceEventKind::Retry { attempt },
        });
    }

    fn trace_kind(body: &FrameBody<M>) -> TraceFrameKind {
        match body {
            FrameBody::Rts { .. } => TraceFrameKind::Rts,
            FrameBody::Cts { .. } => TraceFrameKind::Cts,
            FrameBody::Ack { .. } => TraceFrameKind::Ack,
            FrameBody::Data { .. } => TraceFrameKind::Data,
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.positions.len()
    }

    /// Position of a node.
    pub fn position(&self, node: NodeId) -> Pos {
        self.positions[node.index()]
    }

    /// Run statistics so far.
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// Number of frames currently on the medium (test/leak hook).
    pub fn frames_in_flight(&self) -> usize {
        self.frames.live()
    }

    /// Hash of the event schedule processed so far: an FNV-1a fold over the
    /// `(time, seq, kind)` of every dequeued event. Two runs of the same
    /// `(scenario, plan, seed)` must agree on this value at every point —
    /// the runtime cross-check for the static determinism rules enforced by
    /// `mesh-lint` (DESIGN.md §10).
    pub fn schedule_hash(&self) -> u64 {
        self.sched_hash
    }

    // ------------------------------------------------------------------
    // Event processing
    // ------------------------------------------------------------------

    /// Pop and process a single event at or before `limit`, appending any
    /// protocol notifications to `upcalls`. Returns `false` when no such
    /// event exists.
    pub(crate) fn step(&mut self, limit: SimTime, upcalls: &mut Vec<Upcall<M>>) -> bool {
        let Some(ev) = self.queue.pop_if_at_or_before(limit) else {
            return false;
        };
        fold_schedule_hash(&mut self.sched_hash, &ev);
        if ev.time < self.now {
            // Tracked instead of only asserted so the monotonicity oracle
            // also catches this in release builds.
            self.time_regressions += 1;
            debug_assert!(false, "time went backwards");
        } else {
            self.now = ev.time;
        }
        // Close metrics buckets the clock has passed *before* dispatching, so
        // every bucket holds exactly the events inside its time span. Reads
        // counters, mutates nothing else: zero-perturbation. The medium's
        // index stats are read only when a bucket actually closes.
        if let Some(m) = self.metrics.as_mut().filter(|m| m.bucket_due(self.now)) {
            m.advance(self.now, &self.counters, self.medium.index_stats());
        }
        self.counters.events += 1;
        match ev.kind {
            EventKind::MacTimer { node, gen } => self.on_mac_timer(node, gen, upcalls),
            EventKind::CtrlTimer { node, gen } => self.on_ctrl_timer(node, gen),
            EventKind::TxEnd { node, frame } => self.on_tx_end(node, frame, upcalls),
            EventKind::RxStart {
                node,
                frame,
                power_w,
            } => self.on_rx_start(node, frame, power_w),
            EventKind::RxEnd {
                node,
                frame,
                power_w,
            } => self.on_rx_end(node, frame, power_w, upcalls),
            EventKind::ProtoTimer { node, timer, kind } => {
                // Timers of a crashed node are swallowed, not deferred; its
                // protocol re-arms what it needs in `handle_restart`.
                if !self.down[node.index()] {
                    upcalls.push(Upcall::Timer { node, timer, kind });
                }
            }
            EventKind::MobilityTick => {
                if let Some(model) = self.mobility.as_mut() {
                    self.prev_positions.clear();
                    self.prev_positions.extend_from_slice(&self.positions);
                    if let Some(next) = model.step(self.now, &mut self.positions, &mut self.rng) {
                        self.queue.push(next, EventKind::MobilityTick);
                    }
                    // Report exactly which nodes moved (the model may move
                    // nodes even on its final tick); media that cache
                    // geometry invalidate just what the moves touched.
                    self.moves_buf.clear();
                    for (i, (&old, &new)) in
                        self.prev_positions.iter().zip(&self.positions).enumerate()
                    {
                        if old != new {
                            self.moves_buf.push(PositionDelta {
                                node: NodeId::new(i as u32),
                                from: old,
                                to: new,
                            });
                        }
                    }
                    self.medium
                        .positions_changed(&self.moves_buf, &self.positions);
                }
            }
            EventKind::Fault { idx } => self.apply_fault(idx, upcalls),
        }
        true
    }

    // ------------------------------------------------------------------
    // Fault injection
    // ------------------------------------------------------------------

    fn apply_fault(&mut self, idx: usize, upcalls: &mut Vec<Upcall<M>>) {
        let Some(kind) = self
            .fault_plan
            .as_ref()
            .and_then(|p| p.events().get(idx))
            .map(|(_, k)| k.clone())
        else {
            debug_assert!(false, "fault event without a matching plan entry");
            return;
        };
        self.counters.fault_events += 1;
        if self.trace.is_some() {
            let (node, peer, class, fault) = match &kind {
                FaultKind::NodeCrash(n) => (Some(*n), None, None, fault_label::NODE_CRASH),
                FaultKind::NodeRecover(n) => (Some(*n), None, None, fault_label::NODE_RECOVER),
                FaultKind::LinkFault { from, to, .. } => {
                    (Some(*from), Some(*to), None, fault_label::LINK_FAULT)
                }
                FaultKind::LinkRestore { from, to } => {
                    (Some(*from), Some(*to), None, fault_label::LINK_RESTORE)
                }
                FaultKind::Partition { .. } => (None, None, None, fault_label::PARTITION),
                FaultKind::HealPartition => (None, None, None, fault_label::HEAL_PARTITION),
                FaultKind::ClassLossBurst { class, .. } => {
                    (None, None, Some(*class), fault_label::CLASS_LOSS_BURST)
                }
                FaultKind::ClassLossClear { class } => {
                    (None, None, Some(*class), fault_label::CLASS_LOSS_CLEAR)
                }
            };
            self.emit(TraceEvent {
                at: self.now,
                node,
                seq: None,
                class,
                frame: None,
                kind: TraceEventKind::FaultApplied { fault, peer },
            });
        }
        match kind {
            FaultKind::NodeCrash(node) => self.crash_node(node),
            FaultKind::NodeRecover(node) => {
                let i = node.index();
                if self.down[i] {
                    self.down[i] = false;
                    upcalls.push(Upcall::Restart { node });
                }
            }
            FaultKind::LinkFault { from, to, effect } => {
                self.medium.set_link_fault(from, to, effect);
            }
            FaultKind::LinkRestore { from, to } => {
                self.medium.clear_link_fault(from, to);
            }
            FaultKind::Partition { boundary_x_m } => {
                // Judged against the positions at this instant; under
                // mobility, nodes that later cross the boundary stay cut
                // until the partition heals.
                for i in 0..self.positions.len() {
                    for j in 0..self.positions.len() {
                        if i == j {
                            continue;
                        }
                        let crosses = (self.positions[i].x < boundary_x_m)
                            != (self.positions[j].x < boundary_x_m);
                        if crosses {
                            let (a, b) = (NodeId::new(i as u32), NodeId::new(j as u32));
                            self.medium.set_link_fault(a, b, LinkEffect::Blackout);
                            self.partition_links.push((a, b));
                        }
                    }
                }
            }
            FaultKind::HealPartition => {
                for (a, b) in std::mem::take(&mut self.partition_links) {
                    self.medium.clear_link_fault(a, b);
                }
            }
            FaultKind::ClassLossBurst { class, drop } => {
                self.class_drop[class_slot(class)] = drop.clamp(0.0, 1.0);
            }
            FaultKind::ClassLossClear { class } => {
                self.class_drop[class_slot(class)] = 0.0;
            }
        }
    }

    /// Power a node off: silence the radio, purge the MAC, freeze the
    /// protocol (its timers are swallowed while down).
    fn crash_node(&mut self, node: NodeId) {
        let i = node.index();
        if self.down[i] {
            return;
        }
        self.down[i] = true;
        // An in-flight reception dies with the radio.
        if let Some(rx) = self.radios[i].rx.take() {
            if self.frame_is_data(rx.frame) {
                self.counters.rx_aborted_data += 1;
                self.emit_rx_drop(node, rx.frame, DropReason::Aborted);
            }
        }
        // An in-flight transmission keeps propagating (the energy already
        // left the antenna) but its MAC bookkeeping is orphaned: the TxEnd
        // releases the frame without driving the state machine.
        if self.radios[i].tx_until.is_some() {
            self.tx_orphaned[i] = true;
        }
        self.radios[i].energy_until = self.now;
        self.radios[i].nav_until = self.now;
        let cw_min = self.params.cw_min;
        self.counters.fault_tx_purged += self.macs[i].queue.len() as u64;
        let mac = &mut self.macs[i];
        mac.queue.clear();
        mac.state = MacState::Idle;
        mac.backoff_slots = 0;
        mac.pending_ctrl = None;
        mac.rx_dedup.clear();
        mac.bump_timer();
        mac.bump_ctrl();
        mac.reset_contention(cw_min);
    }

    fn frame_is_data(&self, frame: FrameId) -> bool {
        self.frames
            .get(frame)
            .is_some_and(|f| matches!(f.body, FrameBody::Data { .. }))
    }

    /// Data frames currently being decoded by some radio (used by the
    /// counter-conservation oracle: planned arrivals that have neither
    /// resolved nor been lost yet).
    pub(crate) fn data_rx_in_progress(&self) -> u64 {
        self.radios
            .iter()
            .filter_map(|r| r.rx)
            .filter(|rx| self.frame_is_data(rx.frame))
            .count() as u64
    }

    /// Advance the clock to `t` without processing events (used at the end of
    /// a bounded run).
    pub(crate) fn advance_clock(&mut self, t: SimTime) {
        if t > self.now {
            self.now = t;
        }
    }

    // ------------------------------------------------------------------
    // Protocol-facing operations (via Ctx)
    // ------------------------------------------------------------------

    pub(crate) fn set_timer(&mut self, node: NodeId, delay: SimDuration, kind: u64) -> TimerId {
        self.timer_seq += 1;
        let id = TimerId(self.timer_seq);
        self.queue.push(
            self.now + delay,
            EventKind::ProtoTimer {
                node,
                timer: id,
                kind,
            },
        );
        id
    }

    pub(crate) fn send_data(
        &mut self,
        node: NodeId,
        dst: Option<NodeId>,
        msg: M,
        bytes: u32,
        class: u8,
    ) -> Result<TxHandle, SendError> {
        debug_assert!(
            !self.down[node.index()],
            "a crashed node cannot send (no upcalls are delivered while down)"
        );
        if let Some(d) = dst {
            if d == node || d.index() >= self.positions.len() {
                return Err(SendError::BadDestination);
            }
        }
        if self.macs[node.index()].queue.len() >= self.params.queue_cap {
            self.counters.queue_drops += 1;
            if self.trace.is_some() {
                // No seq yet: the frame is dropped before a handle is drawn.
                self.emit(TraceEvent {
                    at: self.now,
                    node: Some(node),
                    seq: None,
                    class: Some(class),
                    frame: None,
                    kind: TraceEventKind::QueueDrop,
                });
            }
            return Err(SendError::QueueFull);
        }
        self.handle_seq += 1;
        let handle = TxHandle(self.handle_seq);
        let was_empty = self.macs[node.index()].queue.is_empty();
        self.macs[node.index()].queue.push_back(OutFrame {
            dst,
            // The payload is boxed once here; every transmission, retry and
            // delivery after this point shares it by refcount.
            msg: std::sync::Arc::new(msg),
            bytes,
            class,
            handle,
        });
        if was_empty && self.macs[node.index()].state == MacState::Idle {
            self.new_head(node);
        }
        Ok(handle)
    }

    // ------------------------------------------------------------------
    // MAC driver
    // ------------------------------------------------------------------

    /// A frame has just become head-of-queue: draw its backoff and contend.
    fn new_head(&mut self, node: NodeId) {
        let mac = &mut self.macs[node.index()];
        debug_assert!(!mac.queue.is_empty());
        mac.reset_contention(self.params.cw_min);
        let cw = mac.cw;
        mac.backoff_slots = self.rng.uniform_u32(cw + 1);
        self.contend(node);
    }

    /// Begin (or resume) contention for the head frame.
    fn contend(&mut self, node: NodeId) {
        let i = node.index();
        if self.radios[i].busy_with_nav(self.now) {
            self.macs[i].state = MacState::WaitChannel;
            let gen = self.macs[i].bump_timer();
            if let Some(h) = self.radios[i].busy_horizon(self.now) {
                // Busy only due to lingering energy/NAV: wake when it lapses.
                self.queue.push(h, EventKind::MacTimer { node, gen });
            }
            // Otherwise an RxEnd/TxEnd will call `channel_maybe_idle`.
        } else {
            self.macs[i].state = MacState::Difs;
            let gen = self.macs[i].bump_timer();
            self.queue.push(
                self.now + self.params.difs,
                EventKind::MacTimer { node, gen },
            );
        }
    }

    /// Energy appeared at `node` (or it started transmitting): freeze DCF.
    fn channel_became_busy(&mut self, node: NodeId) {
        let i = node.index();
        match self.macs[i].state {
            MacState::Difs => {
                self.macs[i].bump_timer();
                self.macs[i].state = MacState::WaitChannel;
            }
            MacState::Backoff { slot_start } => {
                let elapsed = self.now.saturating_since(slot_start).as_nanos()
                    / self.params.slot.as_nanos().max(1);
                let mac = &mut self.macs[i];
                mac.backoff_slots = mac.backoff_slots.saturating_sub(elapsed as u32);
                mac.bump_timer();
                mac.state = MacState::WaitChannel;
            }
            _ => {}
        }
    }

    /// The channel at `node` may have gone idle: resume contention if waiting.
    fn channel_maybe_idle(&mut self, node: NodeId) {
        let i = node.index();
        if self.macs[i].state == MacState::WaitChannel {
            if !self.radios[i].busy_with_nav(self.now) {
                self.macs[i].state = MacState::Difs;
                let gen = self.macs[i].bump_timer();
                self.queue.push(
                    self.now + self.params.difs,
                    EventKind::MacTimer { node, gen },
                );
            } else if let Some(h) = self.radios[i].busy_horizon(self.now) {
                let gen = self.macs[i].bump_timer();
                self.queue.push(h, EventKind::MacTimer { node, gen });
            }
        }
    }

    fn on_mac_timer(&mut self, node: NodeId, gen: u64, upcalls: &mut Vec<Upcall<M>>) {
        let i = node.index();
        if gen != self.macs[i].timer_gen {
            return; // stale
        }
        match self.macs[i].state {
            MacState::WaitChannel => self.channel_maybe_idle(node),
            MacState::Difs => {
                debug_assert!(!self.radios[i].busy_with_nav(self.now));
                if self.macs[i].backoff_slots == 0 {
                    self.transmit_head(node);
                } else {
                    let slots = self.macs[i].backoff_slots;
                    self.macs[i].state = MacState::Backoff {
                        slot_start: self.now,
                    };
                    let gen = self.macs[i].bump_timer();
                    self.queue.push(
                        self.now + self.params.slot.saturating_mul(slots as u64),
                        EventKind::MacTimer { node, gen },
                    );
                }
            }
            MacState::Backoff { .. } => {
                self.macs[i].backoff_slots = 0;
                self.transmit_head(node);
            }
            MacState::WaitCts => {
                self.counters.retries += 1;
                self.emit_retry(node);
                self.retry_head(node, true, upcalls);
            }
            MacState::WaitAck => {
                self.counters.retries += 1;
                self.emit_retry(node);
                let long = self.head_uses_rts(node);
                self.retry_head(node, !long, upcalls);
            }
            MacState::SifsBeforeData => self.transmit_data(node),
            MacState::Idle | MacState::TxData | MacState::TxRts => {
                debug_assert!(false, "MAC timer fired in state {:?}", self.macs[i].state);
            }
        }
    }

    fn head_uses_rts(&self, node: NodeId) -> bool {
        let mac = &self.macs[node.index()];
        match mac.queue.front() {
            Some(f) => f.dst.is_some() && f.bytes >= self.params.rts_threshold_bytes,
            None => false,
        }
    }

    // mesh-lint: hot(mac-transmit)
    /// Contention won: send either an RTS or the data frame itself.
    fn transmit_head(&mut self, node: NodeId) {
        // One queue read decides RTS-vs-data and yields the head fields, so
        // the `head_uses_rts` predicate needs no second (panicking) lookup.
        let rts_head = self.macs[node.index()].queue.front().and_then(|f| {
            f.dst
                .filter(|_| f.bytes >= self.params.rts_threshold_bytes)
                .map(|dst| (dst, f.bytes))
        });
        if let Some((dst, bytes)) = rts_head {
            let nav = self.params.rts_nav(bytes);
            self.macs[node.index()].state = MacState::TxRts;
            let rts_bytes = self.params.rts_bytes;
            self.counters.tx_ctrl_frames += 1;
            self.counters.tx_ctrl_bytes += rts_bytes as u64;
            self.transmit_frame(
                node,
                FrameBody::Rts { dst, nav },
                rts_bytes,
                self.params.ctrl_airtime(rts_bytes),
            );
        } else {
            self.transmit_data(node);
        }
    }

    fn transmit_data(&mut self, node: NodeId) {
        let (body, bytes, class) = {
            // mesh-lint: allow(R6, "TxData/SifsBeforeData are only entered while a head frame is queued; finish_head is what leaves them")
            let f = self.macs[node.index()].queue.front().expect("head exists");
            (
                FrameBody::Data {
                    dst: f.dst,
                    msg: std::sync::Arc::clone(&f.msg),
                    class: f.class,
                    handle: f.handle,
                },
                f.bytes,
                f.class,
            )
        };
        self.macs[node.index()].state = MacState::TxData;
        self.counters.record_tx_data(class, bytes as u64);
        let air = self.params.data_airtime(bytes);
        self.transmit_frame(node, body, bytes, air);
    }

    /// Put a frame on the air: radio TX, fan-out to receivers, TxEnd event.
    fn transmit_frame(&mut self, node: NodeId, body: FrameBody<M>, bytes: u32, air: SimDuration) {
        // Capture trace metadata before `body` moves into the slab; the
        // event itself is emitted after insertion so it carries the FrameId.
        let trace_meta = if self.trace.is_some() {
            Some((Self::trace_kind(&body), body_dst(&body)))
        } else {
            None
        };
        let end = self.now + air;
        // Half-duplex: starting our own transmission aborts any reception.
        if let Some(rx) = self.radios[node.index()].rx {
            if self.frame_is_data(rx.frame) {
                self.counters.rx_aborted_data += 1;
                self.emit_rx_drop(node, rx.frame, DropReason::Aborted);
            }
        }
        self.radios[node.index()].start_tx(end);
        self.channel_became_busy(node);

        self.fan_buf.clear();
        self.medium.fan_out(
            node,
            &self.positions,
            self.now,
            &mut self.rng,
            &mut self.fan_buf,
        );
        let refs = self.fan_buf.len() as u32 + 1;
        let id = self.frames.insert(Frame {
            src: node,
            body,
            bytes,
            duration: air,
            refs,
        });
        if let Some((frame_kind, dst)) = trace_meta {
            let (class, seq, _) = self.frame_trace_meta(id);
            self.emit(TraceEvent {
                at: self.now,
                node: Some(node),
                seq,
                class,
                frame: Some(id),
                kind: TraceEventKind::TxStart {
                    frame_kind,
                    dst,
                    bytes,
                },
            });
        }
        self.queue.push_fanout(self.now, id, air, &self.fan_buf);
        self.queue.push(end, EventKind::TxEnd { node, frame: id });
    }
    // mesh-lint: end-hot

    fn on_tx_end(&mut self, node: NodeId, frame: FrameId, upcalls: &mut Vec<Upcall<M>>) {
        let i = node.index();
        self.radios[i].end_tx();
        if self.tx_orphaned[i] {
            // The sender crashed mid-transmission; the MAC was already reset
            // (and possibly restarted since), so only release the frame.
            self.tx_orphaned[i] = false;
            self.frames.release(frame);
            if !self.down[i] {
                self.channel_maybe_idle(node);
            }
            return;
        }
        debug_assert!(!self.down[i], "down node finished a non-orphaned tx");

        enum After {
            Nothing,
            RtsSent,
            BroadcastDone(TxHandle),
            UnicastSent,
        }
        let after = match self.frames.get(frame).map(|f| &f.body) {
            Some(FrameBody::Rts { .. }) => After::RtsSent,
            Some(FrameBody::Data {
                dst: None, handle, ..
            }) => After::BroadcastDone(*handle),
            Some(FrameBody::Data { dst: Some(_), .. }) => After::UnicastSent,
            Some(FrameBody::Cts { .. }) | Some(FrameBody::Ack { .. }) => After::Nothing,
            None => After::Nothing,
        };
        self.frames.release(frame);

        match after {
            After::RtsSent => {
                debug_assert_eq!(self.macs[i].state, MacState::TxRts);
                self.macs[i].state = MacState::WaitCts;
                let gen = self.macs[i].bump_timer();
                self.queue.push(
                    self.now + self.params.cts_timeout(),
                    EventKind::MacTimer { node, gen },
                );
            }
            After::BroadcastDone(handle) => {
                debug_assert_eq!(self.macs[i].state, MacState::TxData);
                upcalls.push(Upcall::TxDone {
                    node,
                    handle,
                    outcome: TxOutcome::Sent,
                });
                self.finish_head(node);
            }
            After::UnicastSent => {
                debug_assert_eq!(self.macs[i].state, MacState::TxData);
                self.macs[i].state = MacState::WaitAck;
                let gen = self.macs[i].bump_timer();
                self.queue.push(
                    self.now + self.params.ack_timeout(),
                    EventKind::MacTimer { node, gen },
                );
            }
            After::Nothing => {}
        }
        self.channel_maybe_idle(node);
    }

    /// Head frame is done (success or abandoned): move to the next one.
    fn finish_head(&mut self, node: NodeId) {
        let mac = &mut self.macs[node.index()];
        mac.queue.pop_front();
        mac.reset_contention(self.params.cw_min);
        if mac.queue.is_empty() {
            mac.state = MacState::Idle;
            mac.bump_timer();
        } else {
            self.new_head(node);
        }
    }

    /// A unicast attempt failed (no CTS / no ACK): retry or abandon.
    fn retry_head(&mut self, node: NodeId, short: bool, upcalls: &mut Vec<Upcall<M>>) {
        let i = node.index();
        let over = {
            let mac = &mut self.macs[i];
            if short {
                mac.short_retries += 1;
                mac.short_retries > self.params.short_retry_limit
            } else {
                mac.long_retries += 1;
                mac.long_retries > self.params.long_retry_limit
            }
        };
        if over {
            self.counters.unicast_failures += 1;
            let (handle, retries) = {
                let mac = &self.macs[i];
                // mesh-lint: allow(R6, "retry_head only fires from WaitAck/TxRts timeouts, which require the head frame still queued")
                let f = mac.queue.front().expect("head exists");
                (f.handle, mac.short_retries + mac.long_retries)
            };
            upcalls.push(Upcall::TxDone {
                node,
                handle,
                outcome: TxOutcome::Failed { retries },
            });
            self.finish_head(node);
        } else {
            let mac = &mut self.macs[i];
            mac.cw = self.params.next_cw(mac.cw);
            let cw = mac.cw;
            mac.backoff_slots = self.rng.uniform_u32(cw + 1);
            self.contend(node);
        }
    }

    fn on_rx_start(&mut self, node: NodeId, frame: FrameId, power_w: f64) {
        let i = node.index();
        let Some(f) = self.frames.get(frame) else {
            debug_assert!(false, "RxStart for dead frame");
            return;
        };
        let end = self.now + f.duration;
        let is_data = matches!(f.body, FrameBody::Data { .. });
        if is_data {
            self.counters.planned_rx_data += 1;
            // Every planned data arrival opens a traced reception — even at
            // a crashed receiver — so count(RxStart) == planned_rx_data and
            // each one can be paired with exactly one terminal event.
            if self.trace.is_some() {
                let (class, seq, src) = self.frame_trace_meta(frame);
                self.emit(TraceEvent {
                    at: self.now,
                    node: Some(node),
                    seq,
                    class,
                    frame: Some(frame),
                    kind: TraceEventKind::RxStart {
                        // mesh-lint: allow(R6, "frame_trace_meta returns src = Some for every live frame; the slot was checked alive above")
                        src: src.expect("live frame has a source"),
                    },
                });
            }
        }
        if self.down[i] {
            // A crashed radio hears nothing — no carrier sense, no capture.
            if is_data {
                self.counters.fault_rx_dropped += 1;
                self.emit_rx_drop(node, frame, DropReason::FaultRx);
            }
            return;
        }
        // Remember what was being decoded: on capture the *old* frame is
        // the one lost, and it will no longer match at its RxEnd.
        let prev_rx_frame = self.radios[i].rx.map(|rx| rx.frame);
        let phy = self.medium.phy();
        let outcome =
            self.radios[i].arrival(frame, power_w, end, phy.rx_threshold_w, phy.capture_ratio);
        match outcome {
            ArrivalOutcome::StartedRx => {}
            ArrivalOutcome::CapturedOver => {
                self.counters.capture_losses += 1;
                // The *previous* reception is the one lost here; the new
                // frame is now being decoded and resolves at its own RxEnd.
                if let Some(prev) = prev_rx_frame.filter(|&p| self.frame_is_data(p)) {
                    self.counters.rx_lost_data += 1;
                    self.emit_rx_drop(node, prev, DropReason::Captured);
                }
            }
            ArrivalOutcome::LostToStronger => {
                self.counters.capture_losses += 1;
                if is_data {
                    self.counters.rx_lost_data += 1;
                    self.emit_rx_drop(node, frame, DropReason::Captured);
                }
            }
            ArrivalOutcome::Collision => {
                self.counters.collisions += 1;
                // The ongoing frame is corrupted too; it resolves as
                // `rx_corrupted_data` at its own RxEnd.
                if is_data {
                    self.counters.rx_lost_data += 1;
                    self.emit_rx_drop(node, frame, DropReason::Collision);
                }
            }
            ArrivalOutcome::BelowRxThreshold => {
                self.counters.below_rx_threshold += 1;
                if is_data {
                    self.counters.rx_lost_data += 1;
                    self.emit_rx_drop(node, frame, DropReason::BelowThreshold);
                }
            }
            ArrivalOutcome::WhileTx => {
                self.counters.rx_while_tx += 1;
                if is_data {
                    self.counters.rx_lost_data += 1;
                    self.emit_rx_drop(node, frame, DropReason::WhileTx);
                }
            }
        }
        self.channel_became_busy(node);
    }

    fn on_rx_end(
        &mut self,
        node: NodeId,
        frame: FrameId,
        _power_w: f64,
        upcalls: &mut Vec<Upcall<M>>,
    ) {
        let i = node.index();
        if self.down[i] {
            // Any accounting for this arrival happened at RxStart or at the
            // moment of the crash.
            self.frames.release(frame);
            return;
        }
        let done = self.radios[i].arrival_end(frame);
        if let Some(rx) = done {
            if !rx.corrupted {
                self.decode_frame(node, frame, rx.power_w, upcalls);
            } else if self.frame_is_data(frame) {
                self.counters.rx_corrupted_data += 1;
                self.emit_rx_drop(node, frame, DropReason::Corrupted);
            }
        }
        self.frames.release(frame);
        self.channel_maybe_idle(node);
    }

    /// A frame was received intact at `node`: act on its body.
    fn decode_frame(
        &mut self,
        node: NodeId,
        frame: FrameId,
        power_w: f64,
        upcalls: &mut Vec<Upcall<M>>,
    ) {
        let i = node.index();
        let (src, body) = {
            // mesh-lint: allow(R6, "frames are freed only after their last scheduled RxEnd has been delivered, so the slot is alive here")
            let f = self.frames.get(frame).expect("frame alive at RxEnd");
            (f.src, f.body.clone())
        };
        // Control frames have no RxStart/terminal pairing; a bare Delivered
        // marks the successful decode. Data frames are traced per outcome
        // below so each RxStart resolves to exactly one terminal event.
        if self.trace.is_some() && !matches!(body, FrameBody::Data { .. }) {
            self.emit(TraceEvent {
                at: self.now,
                node: Some(node),
                seq: None,
                class: None,
                frame: Some(frame),
                kind: TraceEventKind::Delivered {
                    src,
                    frame_kind: Self::trace_kind(&body),
                },
            });
        }
        match body {
            FrameBody::Rts { dst, nav } => {
                if dst == node {
                    // Respond with CTS after SIFS unless our NAV forbids it.
                    if self.radios[i].nav_until <= self.now {
                        let cts_nav = nav
                            - (self.params.sifs + self.params.ctrl_airtime(self.params.cts_bytes));
                        self.macs[i].pending_ctrl = Some(CtrlResponse::Cts {
                            dst: src,
                            nav: cts_nav,
                        });
                        let gen = self.macs[i].bump_ctrl();
                        self.queue.push(
                            self.now + self.params.sifs,
                            EventKind::CtrlTimer { node, gen },
                        );
                    }
                } else {
                    self.radios[i].nav_until = self.radios[i].nav_until.max(self.now + nav);
                }
            }
            FrameBody::Cts { dst, nav } => {
                if dst == node {
                    if self.macs[i].state == MacState::WaitCts {
                        self.macs[i].state = MacState::SifsBeforeData;
                        let gen = self.macs[i].bump_timer();
                        self.queue.push(
                            self.now + self.params.sifs,
                            EventKind::MacTimer { node, gen },
                        );
                    }
                } else {
                    self.radios[i].nav_until = self.radios[i].nav_until.max(self.now + nav);
                }
            }
            FrameBody::Ack { dst } => {
                if dst == node && self.macs[i].state == MacState::WaitAck {
                    let handle = self.macs[i]
                        .queue
                        .front()
                        .map(|f| f.handle)
                        // mesh-lint: allow(R6, "WaitAck is only entered after transmitting the queued head, and finish_head leaves the state before popping")
                        .expect("head exists in WaitAck");
                    self.macs[i].bump_timer();
                    upcalls.push(Upcall::TxDone {
                        node,
                        handle,
                        outcome: TxOutcome::Sent,
                    });
                    self.finish_head(node);
                }
            }
            FrameBody::Data {
                dst,
                msg,
                class,
                handle,
                ..
            } => {
                let bytes = self.frames.get(frame).map(|f| f.bytes).unwrap_or(0);
                match dst {
                    None => {
                        // An active class-loss burst (fault injection) drops
                        // received broadcasts of the class probabilistically.
                        let burst = self.class_drop[class_slot(class)];
                        if burst > 0.0 && self.rng.chance(burst) {
                            self.counters.fault_rx_dropped += 1;
                            self.emit_rx_drop(node, frame, DropReason::ClassBurst);
                            return;
                        }
                        self.counters.record_rx_data(class, bytes as u64);
                        self.emit_data_delivered(node, frame, src);
                        upcalls.push(Upcall::Deliver {
                            node,
                            src,
                            msg,
                            meta: RxMeta {
                                at: self.now,
                                power_w,
                            },
                        });
                    }
                    Some(d) if d == node => {
                        // ACK even duplicates (the sender missed our ACK).
                        self.macs[i].pending_ctrl = Some(CtrlResponse::Ack { dst: src });
                        let gen = self.macs[i].bump_ctrl();
                        self.queue.push(
                            self.now + self.params.sifs,
                            EventKind::CtrlTimer { node, gen },
                        );
                        let dup = self.macs[i].rx_dedup.get(&src) == Some(&handle);
                        if dup {
                            self.counters.duplicate_rx_suppressed += 1;
                            self.emit_rx_drop(node, frame, DropReason::Duplicate);
                        } else {
                            self.macs[i].rx_dedup.insert(src, handle);
                            self.counters.record_rx_data(class, bytes as u64);
                            self.emit_data_delivered(node, frame, src);
                            upcalls.push(Upcall::Deliver {
                                node,
                                src,
                                msg,
                                meta: RxMeta {
                                    at: self.now,
                                    power_w,
                                },
                            });
                        }
                    }
                    Some(_) => {
                        // Unicast overheard by a third party; the MAC drops
                        // it, but the conservation oracle still balances it.
                        self.counters.unicast_overheard += 1;
                        self.emit_rx_drop(node, frame, DropReason::NotForUs);
                    }
                }
            }
        }
    }

    fn on_ctrl_timer(&mut self, node: NodeId, gen: u64) {
        let i = node.index();
        if gen != self.macs[i].ctrl_gen {
            return;
        }
        let Some(resp) = self.macs[i].pending_ctrl.take() else {
            return;
        };
        if self.radios[i].tx_until.is_some() {
            // Radio busy transmitting something else; the response is lost.
            return;
        }
        match resp {
            CtrlResponse::Cts { dst, nav } => {
                let bytes = self.params.cts_bytes;
                self.counters.tx_ctrl_frames += 1;
                self.counters.tx_ctrl_bytes += bytes as u64;
                self.transmit_frame(
                    node,
                    FrameBody::Cts { dst, nav },
                    bytes,
                    self.params.ctrl_airtime(bytes),
                );
            }
            CtrlResponse::Ack { dst } => {
                let bytes = self.params.ack_bytes;
                self.counters.tx_ctrl_frames += 1;
                self.counters.tx_ctrl_bytes += bytes as u64;
                self.transmit_frame(
                    node,
                    FrameBody::Ack { dst },
                    bytes,
                    self.params.ctrl_airtime(bytes),
                );
            }
        }
    }
}

impl<M: Clone + std::fmt::Debug + Snap> World<M> {
    /// Serialize every piece of mutable world state into a checkpoint
    /// (DESIGN.md §14). Configuration is *not* written — a restore target is
    /// rebuilt from the same scenario config and only its mutable state is
    /// overwritten. Each scratch buffer is fully rewritten before its next
    /// read, so it restores empty. Read-only: never perturbs the schedule.
    pub(crate) fn snapshot_state(&self, w: &mut SnapWriter) {
        let World {
            now,
            queue,
            positions,
            radios,
            macs,
            frames,
            medium,
            params: _, // scenario configuration
            rng,
            counters,
            timer_seq,
            handle_seq,
            fan_buf: _, // scratch
            trace: _,   // an observer, attached per run
            metrics,
            mobility,
            prev_positions: _, // scratch
            moves_buf: _,      // scratch
            down,
            tx_orphaned,
            fault_plan,
            partition_links,
            class_drop,
            time_regressions,
            sched_hash,
        } = self;
        now.snap(w);
        queue.snap(w);
        positions.snap(w);
        radios.snap(w);
        macs.snap(w);
        frames.snap(w);
        medium.snapshot_state(w);
        rng.snap(w);
        counters.snap(w);
        timer_seq.snap(w);
        handle_seq.snap(w);
        metrics.snap(w);
        match mobility {
            Some(model) => {
                w.put_bool(true);
                model.snapshot_state(w);
            }
            None => w.put_bool(false),
        }
        down.snap(w);
        tx_orphaned.snap(w);
        fault_plan.snap(w);
        partition_links.snap(w);
        class_drop.snap(w);
        time_regressions.snap(w);
        sched_hash.snap(w);
    }

    /// Overwrite this world's mutable state from a checkpoint written by
    /// [`World::snapshot_state`]. The world must have been freshly built from
    /// the same scenario config (same node count, medium, mobility and fault
    /// plan); constructor side effects like the initial mobility tick or the
    /// fault plan's scheduled events are wholly superseded because the event
    /// queue, RNG and all per-node state are replaced. `fault_plan` is
    /// assigned directly — *not* via [`World::set_fault_plan`] — because the
    /// restored queue already holds the pending `Fault` events.
    ///
    /// Per-node state must have one entry per node, and every queued event
    /// must be due no earlier than the restored clock, name a node of this
    /// world and, for `RxStart`/`RxEnd`/`TxEnd`, a live frame, or for a
    /// `Fault`, an entry of the fault plan, whose faults name nodes of this
    /// world. The frame slab's bookkeeping, the medium's copy of the
    /// positions and the metrics recorder's bucket bases are checked too.
    /// Anything else would panic in a later `step` that reaches it, so it
    /// is a [`SnapError::StateMismatch`] naming the field.
    pub(crate) fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let n = self.positions.len();
        self.now = Snap::unsnap(r)?;
        self.queue = Snap::unsnap(r)?;
        self.positions = unsnap_per_node(r, n, "node count")?;
        self.radios = unsnap_per_node(r, n, "radios")?;
        self.macs = unsnap_per_node(r, n, "macs")?;
        self.frames = Snap::unsnap(r)?;
        self.frames.check()?;
        self.medium.restore_state(r)?;
        self.medium.check_positions(&self.positions)?;
        self.rng = Snap::unsnap(r)?;
        self.counters = Snap::unsnap(r)?;
        self.timer_seq = r.u64()?;
        self.handle_seq = r.u64()?;
        self.metrics = Snap::unsnap(r)?;
        if let Some(m) = &self.metrics {
            m.check(&self.counters, self.medium.index_stats())?;
        }
        let has_mobility = r.bool()?;
        match self.mobility.as_mut() {
            Some(model) if has_mobility => model.restore_state(r)?,
            None if !has_mobility => {}
            _ => return Err(SnapError::StateMismatch("mobility model presence")),
        }
        self.down = unsnap_per_node(r, n, "down")?;
        self.tx_orphaned = unsnap_per_node(r, n, "tx_orphaned")?;
        self.fault_plan = Snap::unsnap(r)?;
        let faults = self.fault_plan.as_ref().map_or(&[][..], |p| p.events());
        if faults
            .iter()
            .any(|(_, f)| f.nodes().any(|v| v.index() >= n))
        {
            return Err(SnapError::StateMismatch("fault plan node"));
        }
        self.partition_links = Snap::unsnap(r)?;
        self.class_drop = Snap::unsnap(r)?;
        self.time_regressions = r.u64()?;
        self.sched_hash = r.u64()?;
        self.fan_buf.clear();
        self.prev_positions.clear();
        self.moves_buf.clear();
        for ev in self.queue.pending() {
            if ev.time < self.now {
                return Err(SnapError::StateMismatch("queued event time"));
            }
            let (node, frame) = match ev.kind {
                EventKind::MacTimer { node, .. }
                | EventKind::CtrlTimer { node, .. }
                | EventKind::ProtoTimer { node, .. } => (Some(node), None),
                EventKind::TxEnd { node, frame }
                | EventKind::RxStart { node, frame, .. }
                | EventKind::RxEnd { node, frame, .. } => (Some(node), Some(frame)),
                EventKind::Fault { idx } if idx >= faults.len() => {
                    return Err(SnapError::StateMismatch("queued fault"));
                }
                EventKind::MobilityTick | EventKind::Fault { .. } => (None, None),
            };
            if node.is_some_and(|v| v.index() >= n) {
                return Err(SnapError::StateMismatch("queued event node"));
            }
            if frame.is_some_and(|f| self.frames.get(f).is_none()) {
                return Err(SnapError::StateMismatch("queued event frame"));
            }
        }
        Ok(())
    }
}

/// Decode a per-node vector, rejecting one that is not `nodes` long.
fn unsnap_per_node<T: Snap>(
    r: &mut SnapReader<'_>,
    nodes: usize,
    field: &'static str,
) -> Result<Vec<T>, SnapError> {
    let v: Vec<T> = Snap::unsnap(r)?;
    if v.len() == nodes {
        Ok(v)
    } else {
        Err(SnapError::StateMismatch(field))
    }
}

fn body_dst<M>(body: &FrameBody<M>) -> Option<NodeId> {
    match body {
        FrameBody::Rts { dst, .. } | FrameBody::Cts { dst, .. } | FrameBody::Ack { dst } => {
            Some(*dst)
        }
        FrameBody::Data { dst, .. } => *dst,
    }
}

/// The API surface a protocol sees while handling an event.
///
/// A `Ctx` borrows the world for the duration of one protocol callback; all
/// actions (sending, timers) are performed through it.
pub struct Ctx<'a, M> {
    pub(crate) world: &'a mut World<M>,
    pub(crate) node: NodeId,
}

impl<M> std::fmt::Debug for Ctx<'_, M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ctx")
            .field("node", &self.node)
            .field("now", &self.world.now)
            .finish()
    }
}

impl<'a, M: Clone + std::fmt::Debug> Ctx<'a, M> {
    /// The node this callback runs on.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.world.now()
    }

    /// Total number of nodes in the network.
    pub fn num_nodes(&self) -> usize {
        self.world.num_nodes()
    }

    /// Position of this node.
    pub fn position(&self) -> Pos {
        self.world.position(self.node)
    }

    /// Deterministic RNG (shared world stream).
    pub fn rng(&mut self) -> &mut SimRng {
        &mut self.world.rng
    }

    /// Queue a link-layer **broadcast** of `msg` with an on-air payload size
    /// of `bytes`, tagged with traffic `class` for accounting.
    ///
    /// # Errors
    ///
    /// Returns [`SendError::QueueFull`] if the MAC queue is full.
    pub fn send_broadcast(&mut self, msg: M, bytes: u32, class: u8) -> Result<TxHandle, SendError> {
        self.world.send_data(self.node, None, msg, bytes, class)
    }

    /// Queue a link-layer **unicast** of `msg` to `dst` (RTS/CTS + ACK +
    /// retransmissions as configured).
    ///
    /// # Errors
    ///
    /// Returns [`SendError::QueueFull`] if the MAC queue is full, or
    /// [`SendError::BadDestination`] if `dst` is this node or out of range of
    /// valid ids.
    pub fn send_unicast(
        &mut self,
        dst: NodeId,
        msg: M,
        bytes: u32,
        class: u8,
    ) -> Result<TxHandle, SendError> {
        self.world
            .send_data(self.node, Some(dst), msg, bytes, class)
    }

    /// Arm a one-shot timer `delay` from now; `kind` is echoed back.
    pub fn set_timer(&mut self, delay: SimDuration, kind: u64) -> TimerId {
        self.world.set_timer(self.node, delay, kind)
    }

    /// Current MAC transmit queue length of this node.
    pub fn mac_queue_len(&self) -> usize {
        self.world.macs[self.node.index()].queue.len()
    }

    /// Capacity of this node's MAC transmit queue (the drop threshold).
    /// Together with [`Ctx::mac_queue_len`] this gives protocols a local
    /// occupancy signal, e.g. for load-aware metrics.
    pub fn mac_queue_cap(&self) -> usize {
        self.world.params.queue_cap
    }

    /// Run counters (read-only).
    pub fn counters(&self) -> &Counters {
        self.world.counters()
    }

    /// Record a protocol-level decision in the attached trace. Observation
    /// only — a no-op when tracing is off, and never schedules events, draws
    /// randomness or touches counters (see [`crate::trace`]).
    pub fn trace_decision(&mut self, decision: Decision) {
        if self.world.trace.is_some() {
            let at = self.world.now;
            self.world.emit(TraceEvent {
                at,
                node: Some(self.node),
                seq: None,
                class: None,
                frame: None,
                kind: TraceEventKind::ProtocolDecision { decision },
            });
        }
    }

    /// Report one application-level delivery with its end-to-end `delay` to
    /// the metrics timeseries (see [`crate::metrics`]). No-op when metrics
    /// recording is off.
    pub fn observe_delivery(&mut self, delay: SimDuration) {
        if let Some(m) = self.world.metrics.as_mut() {
            m.record_delivery(delay);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::ScheduledEvent;
    use crate::medium::LinkTableMedium;

    fn three_nodes() -> World<u32> {
        let mut medium = LinkTableMedium::new();
        medium
            .add_link(NodeId::new(0), NodeId::new(1), 0.0)
            .add_link(NodeId::new(1), NodeId::new(2), 0.0);
        World::new(
            vec![Pos::default(); 3],
            Box::new(medium),
            WorldConfig::default(),
        )
    }

    /// A 3-node world with node 0's broadcast on the air: the queue holds
    /// its `TxEnd` and node 1's `RxStart`/`RxEnd` burst.
    fn mid_transmission() -> World<u32> {
        let mut w = three_nodes();
        w.send_data(NodeId::new(0), None, 7, 100, 0).unwrap();
        let mut upcalls = Vec::new();
        while w.frames_in_flight() == 0 {
            assert!(w.step(SimTime::MAX, &mut upcalls), "the frame never left");
        }
        assert!(w.now() > SimTime::ZERO);
        w
    }

    fn snapshot(w: &World<u32>) -> Vec<u8> {
        let mut out = SnapWriter::new();
        w.snapshot_state(&mut out);
        out.into_bytes()
    }

    /// Restore `bytes` into a freshly built 3-node world.
    fn restore(bytes: &[u8]) -> Result<(), SnapError> {
        three_nodes().restore_state(&mut SnapReader::new(bytes))
    }

    fn mismatch(bytes: &[u8]) -> Option<&'static str> {
        match restore(bytes) {
            Err(SnapError::StateMismatch(field)) => Some(field),
            other => panic!("expected a state mismatch, got {other:?}"),
        }
    }

    #[test]
    fn restore_accepts_a_world_mid_transmission() {
        let w = mid_transmission();
        assert_eq!(w.queue.len(), 3);
        assert_eq!(restore(&snapshot(&w)), Ok(()));
    }

    #[test]
    fn restore_rejects_per_node_state_of_another_length() {
        type Defect = fn(&mut World<u32>);
        let defects: [(&str, Defect); 4] = [
            ("radios", |w| w.radios.push(Radio::default())),
            ("macs", |w| {
                w.macs.pop();
            }),
            ("down", |w| w.down.push(false)),
            ("tx_orphaned", |w| w.tx_orphaned.clear()),
        ];
        for (field, defect) in defects {
            let mut w = mid_transmission();
            defect(&mut w);
            assert_eq!(mismatch(&snapshot(&w)), Some(field));
        }
    }

    #[test]
    fn restore_rejects_queued_events_a_step_would_panic_on() {
        let mut w = mid_transmission();
        w.queue.push(
            w.now(),
            EventKind::MacTimer {
                node: NodeId::new(3),
                gen: 0,
            },
        );
        assert_eq!(mismatch(&snapshot(&w)), Some("queued event node"));

        let mut w = mid_transmission();
        let past = SimTime::from_nanos(w.now().as_nanos() - 1);
        w.queue.push(past, EventKind::MobilityTick);
        assert_eq!(mismatch(&snapshot(&w)), Some("queued event time"));

        let mut w = mid_transmission();
        let stale = FrameId(99);
        assert!(w.frames.get(stale).is_none());
        w.queue.push(
            w.now(),
            EventKind::TxEnd {
                node: NodeId::new(1),
                frame: stale,
            },
        );
        assert_eq!(mismatch(&snapshot(&w)), Some("queued event frame"));
    }

    #[test]
    fn restore_rejects_faults_naming_an_absent_node_or_plan_entry() {
        let mut w = three_nodes();
        w.fault_plan = Some(FaultPlan::new().at(
            SimTime::from_secs(1),
            FaultKind::LinkRestore {
                from: NodeId::new(0),
                to: NodeId::new(3),
            },
        ));
        assert_eq!(mismatch(&snapshot(&w)), Some("fault plan node"));

        let mut w = three_nodes();
        w.queue
            .push(SimTime::from_secs(1), EventKind::Fault { idx: 0 });
        assert_eq!(mismatch(&snapshot(&w)), Some("queued fault"));
    }

    #[test]
    fn restore_rejects_a_queue_out_of_order_or_reusing_a_seq() {
        // Two timers of one encoded length, so their records can be
        // swapped in place: now (8 bytes), count (8), records, counter (8).
        let mut w = three_nodes();
        let timer = |t| ScheduledEvent {
            time: SimTime::from_nanos(t),
            seq: 0,
            kind: EventKind::MacTimer {
                node: NodeId::new(2),
                gen: 1,
            },
        };
        for t in [10, 20] {
            w.queue.push(timer(t).time, timer(t).kind);
        }
        let rec = {
            let mut out = SnapWriter::new();
            timer(10).snap(&mut out);
            out.into_bytes().len()
        };
        let bytes = snapshot(&w);
        assert_eq!(restore(&bytes), Ok(()));

        let mut swapped = bytes.clone();
        swapped[16..16 + 2 * rec].rotate_left(rec);
        assert_eq!(mismatch(&swapped), Some("event queue (time, seq) order"));

        let mut reused = bytes;
        let counter = 16 + 2 * rec;
        reused[counter..counter + 8].copy_from_slice(&1u64.to_le_bytes());
        assert_eq!(mismatch(&reused), Some("event queue sequence counter"));
    }
}

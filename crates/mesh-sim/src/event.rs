//! The discrete-event queue.
//!
//! Events are ordered by `(time, sequence number)`: ties in simulated time
//! are broken by insertion order, which makes runs fully deterministic.
//!
//! A transmitted frame's receptions enter the queue as one *burst*
//! ([`EventQueue::push_fanout`]) instead of as two heap entries per
//! receiver. The dequeue order is the one pushing every reception on its
//! own gives (DESIGN.md §5).

use std::cmp::Ordering;
use std::collections::binary_heap::PeekMut;
use std::collections::BinaryHeap;

use crate::ids::{FrameId, NodeId, TimerId};
use crate::medium::RxPlan;
use crate::snapshot::{Snap, SnapError, SnapReader, SnapWriter};
use crate::time::{SimDuration, SimTime};

/// The kinds of events the simulator processes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum EventKind {
    /// A MAC state-machine timer (DIFS end, backoff end, CTS/ACK timeout).
    MacTimer { node: NodeId, gen: u64 },
    /// A pending SIFS-spaced control response (CTS or ACK) is due.
    CtrlTimer { node: NodeId, gen: u64 },
    /// A transmission by `node` finishes.
    TxEnd { node: NodeId, frame: FrameId },
    /// The first energy of `frame` arrives at `node`.
    RxStart {
        node: NodeId,
        frame: FrameId,
        power_w: f64,
    },
    /// The last energy of `frame` leaves `node`.
    RxEnd {
        node: NodeId,
        frame: FrameId,
        power_w: f64,
    },
    /// A protocol timer fires.
    ProtoTimer {
        node: NodeId,
        timer: TimerId,
        kind: u64,
    },
    /// The mobility model is due for a position update.
    MobilityTick,
    /// Entry `idx` of the attached fault plan fires.
    Fault { idx: usize },
}

#[derive(Debug, Clone)]
pub(crate) struct ScheduledEvent {
    pub time: SimTime,
    pub seq: u64,
    pub kind: EventKind,
}

/// Fold one dequeued event into a running FNV-1a schedule hash.
///
/// The hash commits to the exact dequeue order `(time, seq, kind)` of every
/// event the simulator processes, so two runs of the same
/// `(scenario, plan, seed)` agree on it iff their event schedules are
/// bit-identical. This is the runtime cross-check behind the static
/// determinism rules (mesh-lint R1–R5, DESIGN.md §10): counters can collide
/// by luck, the schedule hash cannot realistically do so.
///
/// Each `u64` field counts as its 8 little-endian bytes. A zero byte leaves
/// the XOR step unchanged, so `v`'s high zero bytes fold as one multiply by
/// a power of the prime; only the significant bytes are folded one by one.
pub(crate) fn fold_schedule_hash(h: &mut u64, ev: &ScheduledEvent) {
    fn fold(h: &mut u64, v: u64) {
        let mut x = *h;
        let mut rest = v;
        while rest != 0 {
            x ^= rest & 0xff;
            x = x.wrapping_mul(FNV_PRIME);
            rest >>= 8;
        }
        *h = x.wrapping_mul(FNV_POW[(v.leading_zeros() / 8) as usize]);
    }
    fold(h, ev.time.as_nanos());
    fold(h, ev.seq);
    match ev.kind {
        EventKind::MacTimer { node, gen } => {
            fold(h, 1);
            fold(h, node.as_u32() as u64);
            fold(h, gen);
        }
        EventKind::CtrlTimer { node, gen } => {
            fold(h, 2);
            fold(h, node.as_u32() as u64);
            fold(h, gen);
        }
        EventKind::TxEnd { node, frame } => {
            fold(h, 3);
            fold(h, node.as_u32() as u64);
            fold(h, frame.as_u64());
        }
        EventKind::RxStart {
            node,
            frame,
            power_w,
        } => {
            fold(h, 4);
            fold(h, node.as_u32() as u64);
            fold(h, frame.as_u64());
            fold(h, power_w.to_bits());
        }
        EventKind::RxEnd {
            node,
            frame,
            power_w,
        } => {
            fold(h, 5);
            fold(h, node.as_u32() as u64);
            fold(h, frame.as_u64());
            fold(h, power_w.to_bits());
        }
        EventKind::ProtoTimer { node, timer, kind } => {
            fold(h, 6);
            fold(h, node.as_u32() as u64);
            fold(h, timer.0);
            fold(h, kind);
        }
        EventKind::MobilityTick => fold(h, 7),
        EventKind::Fault { idx } => {
            fold(h, 8);
            fold(h, idx as u64);
        }
    }
}

/// FNV-1a offset basis: the schedule hash of a run with zero events.
pub(crate) const SCHEDULE_HASH_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// The 64-bit FNV-1a prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// `FNV_POW[k]` = `FNV_PRIME`^k (wrapping): folding k zero bytes.
const FNV_POW: [u64; 9] = {
    let mut pow = [1u64; 9];
    let mut acc = 1u64;
    let mut k = 0;
    while k < pow.len() {
        pow[k] = acc;
        acc = acc.wrapping_mul(FNV_PRIME);
        k += 1;
    }
    pow
};

// Wire tags match the schedule-hash kind tags (1–8) so the two encodings
// can never silently drift apart.
impl Snap for EventKind {
    fn snap(&self, w: &mut SnapWriter) {
        match *self {
            EventKind::MacTimer { node, gen } => {
                w.put_u8(1);
                node.snap(w);
                w.put_u64(gen);
            }
            EventKind::CtrlTimer { node, gen } => {
                w.put_u8(2);
                node.snap(w);
                w.put_u64(gen);
            }
            EventKind::TxEnd { node, frame } => {
                w.put_u8(3);
                node.snap(w);
                frame.snap(w);
            }
            EventKind::RxStart {
                node,
                frame,
                power_w,
            } => {
                w.put_u8(4);
                node.snap(w);
                frame.snap(w);
                w.put_f64(power_w);
            }
            EventKind::RxEnd {
                node,
                frame,
                power_w,
            } => {
                w.put_u8(5);
                node.snap(w);
                frame.snap(w);
                w.put_f64(power_w);
            }
            EventKind::ProtoTimer { node, timer, kind } => {
                w.put_u8(6);
                node.snap(w);
                timer.snap(w);
                w.put_u64(kind);
            }
            EventKind::MobilityTick => w.put_u8(7),
            EventKind::Fault { idx } => {
                w.put_u8(8);
                w.put_usize(idx);
            }
        }
    }

    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(match r.u8()? {
            1 => EventKind::MacTimer {
                node: NodeId::unsnap(r)?,
                gen: r.u64()?,
            },
            2 => EventKind::CtrlTimer {
                node: NodeId::unsnap(r)?,
                gen: r.u64()?,
            },
            3 => EventKind::TxEnd {
                node: NodeId::unsnap(r)?,
                frame: FrameId::unsnap(r)?,
            },
            4 => EventKind::RxStart {
                node: NodeId::unsnap(r)?,
                frame: FrameId::unsnap(r)?,
                power_w: r.f64()?,
            },
            5 => EventKind::RxEnd {
                node: NodeId::unsnap(r)?,
                frame: FrameId::unsnap(r)?,
                power_w: r.f64()?,
            },
            6 => EventKind::ProtoTimer {
                node: NodeId::unsnap(r)?,
                timer: TimerId::unsnap(r)?,
                kind: r.u64()?,
            },
            7 => EventKind::MobilityTick,
            8 => EventKind::Fault { idx: r.usize()? },
            t => return Err(SnapError::BadTag(t as u32)),
        })
    }
}

crate::snap_struct!(ScheduledEvent { time, seq, kind });

impl Snap for EventQueue {
    fn snap(&self, w: &mut SnapWriter) {
        // The heap's internal layout is not canonical and bursts are an
        // in-memory form only: serialize every pending event flat, in its
        // (unique) `(time, seq)` dequeue order, so equal queues always
        // produce equal bytes.
        let EventQueue {
            heap: _,   // written flat through `pending()`
            bursts: _, // likewise
            free: _,   // scratch: slot indices for reuse
            keys: _,   // scratch: sort keys
            seq,
        } = self;
        let mut pending = self.pending();
        pending.sort_by_key(|e| (e.time, e.seq));
        w.put_usize(pending.len());
        for ev in &pending {
            ev.snap(w);
        }
        seq.snap(w);
    }

    /// Restores the flat list as single events; transmissions after the
    /// restore form bursts again. Rejects a list that is not strictly
    /// increasing in `(time, seq)` or holds a `seq` the counter would hand
    /// out again: either would make the dequeue order non-canonical.
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let n = r.len()?;
        let mut heap = BinaryHeap::with_capacity(n);
        let mut last: Option<(SimTime, u64)> = None;
        let mut max_seq: Option<u64> = None;
        for _ in 0..n {
            let ev = ScheduledEvent::unsnap(r)?;
            if last.is_some_and(|key| key >= (ev.time, ev.seq)) {
                return Err(SnapError::StateMismatch("event queue (time, seq) order"));
            }
            last = Some((ev.time, ev.seq));
            max_seq = max_seq.max(Some(ev.seq));
            heap.push(ev.into());
        }
        let seq = r.u64()?;
        if max_seq.is_some_and(|s| s >= seq) {
            return Err(SnapError::StateMismatch("event queue sequence counter"));
        }
        Ok(EventQueue {
            heap,
            seq,
            ..EventQueue::default()
        })
    }
}

/// A heap entry, keyed by the `(time, seq)` of the event it yields next:
/// either one event, or a cursor over one of a burst's two reception
/// sequences.
#[derive(Debug)]
struct Entry {
    time: SimTime,
    seq: u64,
    item: Item,
}

#[derive(Debug, Clone, Copy)]
enum Item {
    Single(EventKind),
    /// Reception `pos`, in burst order, of burst `slot`: its `RxEnd` if
    /// `end`, else its `RxStart`.
    Cursor {
        slot: u32,
        pos: u32,
        end: bool,
    },
}

impl From<ScheduledEvent> for Entry {
    fn from(ScheduledEvent { time, seq, kind }: ScheduledEvent) -> Self {
        Entry {
            time,
            seq,
            item: Item::Single(kind),
        }
    }
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for Entry {}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse: BinaryHeap is a max-heap, we want the earliest event first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// One transmitted frame's receptions, held outside the heap.
///
/// Plan index `i` of the fan-out owns sequence numbers `base + 2i` (its
/// `RxStart`, at `now + delay_i`) and `base + 2i + 1` (its `RxEnd`, at
/// `(now + delay_i) + air`): exactly what pushing them one by one, in plan
/// order, assigns. `rx` is sorted by `(delay, plan index)`, so along `rx`
/// both sequences increase in `(time, seq)`, ties included, and each is
/// walked by one heap cursor.
#[derive(Debug)]
struct Burst {
    frame: FrameId,
    air: SimDuration,
    base: u64,
    rx: Vec<BurstRx>,
}

#[derive(Debug, Clone, Copy)]
struct BurstRx {
    /// `now + delay`: when the `RxStart` is due.
    at: SimTime,
    /// Position in the medium's plan list.
    idx: u32,
    node: NodeId,
    power_w: f64,
}

impl Burst {
    /// `(time, seq)` of `r`'s `RxEnd` if `end`, else of its `RxStart`.
    fn key(&self, r: &BurstRx, end: bool) -> (SimTime, u64) {
        let seq = self.base + 2 * u64::from(r.idx);
        if end {
            (r.at + self.air, seq + 1)
        } else {
            (r.at, seq)
        }
    }

    fn event(&self, r: &BurstRx, end: bool) -> ScheduledEvent {
        let (time, seq) = self.key(r, end);
        let (node, frame, power_w) = (r.node, self.frame, r.power_w);
        let kind = if end {
            EventKind::RxEnd {
                node,
                frame,
                power_w,
            }
        } else {
            EventKind::RxStart {
                node,
                frame,
                power_w,
            }
        };
        ScheduledEvent { time, seq, kind }
    }
}

/// Min-heap of scheduled events with deterministic tie-breaking.
///
/// A frame's receptions enter as a burst ([`EventQueue::push_fanout`]):
/// two heap entries instead of two per receiver. The dequeued
/// `(time, seq, kind)` stream is the one a plain heap of every event gives.
#[derive(Debug, Default)]
pub(crate) struct EventQueue {
    heap: BinaryHeap<Entry>,
    /// Burst slots, indexed by the cursors' `slot`.
    bursts: Vec<Burst>,
    /// Slots whose cursors have both left the heap, reused (with their
    /// receiver buffers) before `bursts` grows.
    free: Vec<u32>,
    /// Packed `delay << 32 | plan index` sort keys, reused across bursts.
    keys: Vec<u64>,
    seq: u64,
}

impl EventQueue {
    pub fn new() -> Self {
        EventQueue::default()
    }

    /// Schedule `kind` at absolute time `time`.
    pub fn push(&mut self, time: SimTime, kind: EventKind) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(ScheduledEvent { time, seq, kind }.into());
    }

    // mesh-lint: hot(event-queue)
    /// Schedule the `RxStart` and `RxEnd` of every receiver in `plans` of
    /// `frame`, sent at `now` for `air`. Equivalent to pushing, for each plan
    /// in order, `RxStart` at `now + delay` and then `RxEnd` at
    /// `now + delay + air`.
    pub fn push_fanout(
        &mut self,
        now: SimTime,
        frame: FrameId,
        air: SimDuration,
        plans: &[RxPlan],
    ) {
        let base = self.seq;
        self.seq += 2 * plans.len() as u64;
        // `delay << 32 | plan index` keys sort into the exact burst order
        // while delays fit in 32 bits. Indices do, as a fan-out plans each
        // node once and a `NodeId` is a `u32`.
        self.keys.clear();
        let mut delays = 0u64;
        for (i, p) in plans.iter().enumerate() {
            delays |= p.delay.as_nanos();
            self.keys.push((p.delay.as_nanos() << 32) | i as u64);
        }
        // `Medium` is a public trait, so a delay can be anything. Past
        // 2^32 ns the keys are inexact, and where an arrival saturates at
        // `SimTime::MAX` the two cursors' orders can differ.
        let exact = delays >> 32 == 0
            && now
                .as_nanos()
                .checked_add(delays)
                .and_then(|t| t.checked_add(air.as_nanos()))
                .is_some();
        if exact {
            self.keys.sort_unstable();
        }
        let slot = match self.free.pop() {
            Some(slot) => slot,
            None => {
                self.bursts.push(Burst {
                    frame,
                    air,
                    base,
                    // mesh-lint: allow(R8, "a slot is only added while every slot is in use; freed slots keep their receiver buffers, so steady state adds none")
                    rx: Vec::new(),
                });
                (self.bursts.len() - 1) as u32
            }
        };
        let burst = &mut self.bursts[slot as usize];
        (burst.frame, burst.air, burst.base) = (frame, air, base);
        burst.rx.clear();
        // mesh-lint: allow(R8, "the slot's receiver buffer is reused across bursts, so it grows only when a fan-out plans more receivers than any earlier one in this slot")
        burst.rx.extend(self.keys.iter().map(|&key| {
            let p = &plans[key as u32 as usize];
            BurstRx {
                at: now + p.delay,
                idx: key as u32,
                node: p.node,
                power_w: p.power_w,
            }
        }));
        match burst.rx.first() {
            Some(&first) if exact => {
                for end in [false, true] {
                    let (time, seq) = burst.key(&first, end);
                    let item = Item::Cursor { slot, pos: 0, end };
                    self.heap.push(Entry { time, seq, item });
                }
            }
            _ => {
                // No receivers, or outside the exact case: one heap entry
                // per event, with the same keys.
                for r in &burst.rx {
                    self.heap.push(burst.event(r, false).into());
                    self.heap.push(burst.event(r, true).into());
                }
                self.free.push(slot);
            }
        }
    }

    /// Pop the earliest event if it occurs at or before `limit`.
    pub fn pop_if_at_or_before(&mut self, limit: SimTime) -> Option<ScheduledEvent> {
        let mut top = self.heap.peek_mut().filter(|e| e.time <= limit)?;
        let (slot, pos, end) = match top.item {
            Item::Single(kind) => {
                let (time, seq) = (top.time, top.seq);
                PeekMut::pop(top);
                return Some(ScheduledEvent { time, seq, kind });
            }
            Item::Cursor { slot, pos, end } => (slot, pos, end),
        };
        let burst = &self.bursts[slot as usize];
        let ev = burst.event(&burst.rx[pos as usize], end);
        match burst.rx.get(pos as usize + 1) {
            Some(next) => {
                // Re-key the cursor in place; dropping `top` sifts it down,
                // usually not at all, as the next arrival is nanoseconds
                // away.
                (top.time, top.seq) = burst.key(next, end);
                top.item = Item::Cursor {
                    slot,
                    pos: pos + 1,
                    end,
                };
            }
            None => {
                PeekMut::pop(top);
                // Each `RxEnd` follows its own `RxStart`, so the `RxEnd`
                // cursor is always the burst's last to leave the heap.
                if end {
                    self.free.push(slot);
                }
            }
        }
        Some(ev)
    }
    // mesh-lint: end-hot

    /// Every pending event, bursts flattened, in no particular order.
    pub fn pending(&self) -> Vec<ScheduledEvent> {
        let mut out = Vec::with_capacity(self.heap.len());
        for e in &self.heap {
            match e.item {
                Item::Single(kind) => out.push(ScheduledEvent {
                    time: e.time,
                    seq: e.seq,
                    kind,
                }),
                Item::Cursor { slot, pos, end } => {
                    let burst = &self.bursts[slot as usize];
                    out.extend(burst.rx[pos as usize..].iter().map(|r| burst.event(r, end)));
                }
            }
        }
        out
    }

    /// Time of the next event, if any.
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.time)
    }

    /// Number of pending events, counting each burst reception.
    pub fn len(&self) -> usize {
        self.pending().len()
    }

    #[cfg_attr(not(test), allow(dead_code))]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::TestRng;

    fn dummy(node: u32) -> EventKind {
        EventKind::MacTimer {
            node: NodeId::new(node),
            gen: 0,
        }
    }

    /// A heap entry of the reference queue: earliest `(time, seq)` first.
    struct Keyed(ScheduledEvent);

    impl PartialEq for Keyed {
        fn eq(&self, other: &Self) -> bool {
            (self.0.time, self.0.seq) == (other.0.time, other.0.seq)
        }
    }
    impl Eq for Keyed {}

    impl Ord for Keyed {
        fn cmp(&self, other: &Self) -> Ordering {
            (other.0.time, other.0.seq).cmp(&(self.0.time, self.0.seq))
        }
    }

    impl PartialOrd for Keyed {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }

    /// The queue before bursts: one heap entry per event, fan-outs pushed
    /// receiver by receiver. The burst queue must match it event for event
    /// and byte for byte.
    #[derive(Default)]
    struct Reference {
        heap: BinaryHeap<Keyed>,
        seq: u64,
    }

    impl Reference {
        fn push(&mut self, time: SimTime, kind: EventKind) {
            let seq = self.seq;
            self.seq += 1;
            self.heap.push(Keyed(ScheduledEvent { time, seq, kind }));
        }

        fn push_fanout(
            &mut self,
            now: SimTime,
            frame: FrameId,
            air: SimDuration,
            plans: &[RxPlan],
        ) {
            for plan in plans {
                let (node, power_w) = (plan.node, plan.power_w);
                self.push(
                    now + plan.delay,
                    EventKind::RxStart {
                        node,
                        frame,
                        power_w,
                    },
                );
                self.push(
                    now + plan.delay + air,
                    EventKind::RxEnd {
                        node,
                        frame,
                        power_w,
                    },
                );
            }
        }

        fn pop_if_at_or_before(&mut self, limit: SimTime) -> Option<ScheduledEvent> {
            if self.heap.peek().is_some_and(|e| e.0.time <= limit) {
                self.heap.pop().map(|e| e.0)
            } else {
                None
            }
        }

        fn snap(&self) -> Vec<u8> {
            let mut pending: Vec<&ScheduledEvent> = self.heap.iter().map(|e| &e.0).collect();
            pending.sort_by_key(|e| (e.time, e.seq));
            let mut w = SnapWriter::new();
            w.put_usize(pending.len());
            for ev in pending {
                ev.snap(&mut w);
            }
            w.put_u64(self.seq);
            w.into_bytes()
        }
    }

    fn snap_bytes(q: &EventQueue) -> Vec<u8> {
        let mut w = SnapWriter::new();
        q.snap(&mut w);
        w.into_bytes()
    }

    fn unsnap_bytes(bytes: &[u8]) -> Result<EventQueue, SnapError> {
        let mut r = SnapReader::new(bytes);
        let q = EventQueue::unsnap(&mut r)?;
        r.finish()?;
        Ok(q)
    }

    fn key(ev: Option<ScheduledEvent>) -> Option<(SimTime, u64, EventKind)> {
        ev.map(|e| (e.time, e.seq, e.kind))
    }

    fn plan(node: u32, delay_ns: u64) -> RxPlan {
        RxPlan {
            node: NodeId::new(node),
            power_w: 1e-9 * f64::from(node + 1),
            delay: SimDuration::from_nanos(delay_ns),
        }
    }

    /// Push the same fan-out into both queues, then drain both.
    fn drain_both(now: SimTime, air: SimDuration, plans: &[RxPlan]) {
        let (mut q, mut reference) = (EventQueue::new(), Reference::default());
        q.push(now, dummy(0));
        reference.push(now, dummy(0));
        q.push_fanout(now, FrameId(7), air, plans);
        reference.push_fanout(now, FrameId(7), air, plans);
        q.push(now + air, dummy(1));
        reference.push(now + air, dummy(1));
        assert_eq!(snap_bytes(&q), reference.snap());
        loop {
            let (a, b) = (
                q.pop_if_at_or_before(SimTime::MAX),
                reference.pop_if_at_or_before(SimTime::MAX),
            );
            let done = a.is_none();
            assert_eq!(key(a), key(b));
            if done {
                break;
            }
        }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(30), dummy(3));
        q.push(SimTime::from_nanos(10), dummy(1));
        q.push(SimTime::from_nanos(20), dummy(2));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop_if_at_or_before(SimTime::MAX))
            .map(|e| e.time.as_nanos())
            .collect();
        assert_eq!(order, vec![10, 20, 30]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos(5);
        q.push(t, dummy(1));
        q.push(t, dummy(2));
        q.push(t, dummy(3));
        let nodes: Vec<u32> = std::iter::from_fn(|| q.pop_if_at_or_before(SimTime::MAX))
            .map(|e| match e.kind {
                EventKind::MacTimer { node, .. } => node.as_u32(),
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(nodes, vec![1, 2, 3]);
    }

    #[test]
    fn respects_limit() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(100), dummy(1));
        assert!(q.pop_if_at_or_before(SimTime::from_nanos(99)).is_none());
        assert!(q.pop_if_at_or_before(SimTime::from_nanos(100)).is_some());
        assert!(q.is_empty());
    }

    #[test]
    fn schedule_hash_commits_to_dequeue_order() {
        let drain = |pushes: &[(u64, u32)]| {
            let mut q = EventQueue::new();
            for &(t, n) in pushes {
                q.push(SimTime::from_nanos(t), dummy(n));
            }
            let mut h = SCHEDULE_HASH_SEED;
            while let Some(ev) = q.pop_if_at_or_before(SimTime::MAX) {
                fold_schedule_hash(&mut h, &ev);
            }
            h
        };
        let a = drain(&[(10, 1), (20, 2)]);
        let b = drain(&[(10, 1), (20, 2)]);
        let swapped = drain(&[(10, 2), (20, 1)]);
        assert_eq!(a, b, "identical schedules must hash identically");
        assert_ne!(a, swapped, "different event payloads must change the hash");
        assert_ne!(a, SCHEDULE_HASH_SEED, "events must perturb the seed value");
    }

    /// The byte-serial FNV-1a fold of all 8 bytes: the reference the
    /// significant-byte fold must match bit for bit.
    fn reference_fold(h: &mut u64, v: u64) {
        for byte in v.to_le_bytes() {
            *h ^= byte as u64;
            *h = h.wrapping_mul(FNV_PRIME);
        }
    }

    /// Fold a fault event whose time, seq and plan index are all `v` onto
    /// `h` with both folds; returns (fast, reference).
    fn both_folds(h: u64, v: u64) -> (u64, u64) {
        let ev = ScheduledEvent {
            time: SimTime::from_nanos(v),
            seq: v,
            kind: EventKind::Fault { idx: v as usize },
        };
        let mut fast = h;
        fold_schedule_hash(&mut fast, &ev);
        let mut reference = h;
        for field in [v, v, 8, v] {
            reference_fold(&mut reference, field);
        }
        (fast, reference)
    }

    #[test]
    fn hash_fold_matches_byte_serial_fold_at_every_width() {
        let mut values = vec![0, 1, u64::MAX];
        for k in 1..8 {
            let p = 1u64 << (8 * k); // 256^k
            values.extend([p - 1, p, p + 1]);
        }
        for v in values {
            let (fast, reference) = both_folds(SCHEDULE_HASH_SEED, v);
            assert_eq!(fast, reference, "fold differs at {v:#x}");
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(1024))]

        #[test]
        fn hash_fold_matches_byte_serial_fold(
            h in proptest::any::<u64>(),
            v in proptest::any::<u64>(),
            shift in 0u32..64,
        ) {
            let (fast, reference) = both_folds(h, v >> shift);
            proptest::prop_assert_eq!(fast, reference);
        }
    }

    #[test]
    fn fanouts_dequeue_like_the_reference() {
        // `LinkTableMedium` gives every receiver the same delay: the plan
        // index alone orders the receptions, as `seq` did.
        let equal: Vec<RxPlan> = [4, 2, 9, 0, 1].map(|n| plan(n, 200)).to_vec();
        let mixed: Vec<RxPlan> = [(3, 300), (1, 100), (4, 100), (1, 500), (5, 0), (9, 300)]
            .map(|(n, d)| plan(n, d))
            .to_vec();
        // Zero airtime ties each `RxEnd` with its own `RxStart` in time.
        for air_ns in [0, 50, 100, 250, 10_000] {
            let air = SimDuration::from_nanos(air_ns);
            drain_both(SimTime::from_nanos(1_000), air, &equal);
            drain_both(SimTime::from_nanos(77), air, &mixed);
        }
    }

    #[test]
    fn fanouts_outside_the_packed_range_match_too() {
        // Arrivals saturating at `SimTime::MAX`, and a delay of 2^32 ns or
        // more: the burst's packed order does not apply, the result must
        // not change.
        let plans: Vec<RxPlan> = [(2, 300), (1, 100), (0, 300), (3, 200)]
            .map(|(n, d)| plan(n, d))
            .to_vec();
        let near_end = SimTime::from_nanos(u64::MAX - 250);
        drain_both(near_end, SimDuration::from_nanos(30), &plans);
        drain_both(near_end, SimDuration::ZERO, &plans);
        let far = [plan(0, 1 << 33), plan(1, 5), plan(2, 1 << 33)];
        drain_both(SimTime::from_nanos(9), SimDuration::from_nanos(40), &far);
    }

    #[test]
    fn burst_slots_are_reused() {
        let plans: Vec<RxPlan> = (0..40).map(|n| plan(n, u64::from(n % 7) * 10)).collect();
        let mut q = EventQueue::new();
        let mut now = SimTime::ZERO;
        let mut first_caps = Vec::new();
        for round in 0..100 {
            q.push_fanout(now, FrameId(1), SimDuration::from_nanos(500), &plans);
            q.push_fanout(now, FrameId(2), SimDuration::from_nanos(90), &plans);
            while let Some(ev) = q.pop_if_at_or_before(SimTime::MAX) {
                now = ev.time;
            }
            let caps: Vec<usize> = q.bursts.iter().map(|b| b.rx.capacity()).collect();
            if round == 0 {
                first_caps = caps;
            } else {
                assert_eq!(caps, first_caps, "receiver buffers grew in round {round}");
            }
        }
        assert_eq!(q.bursts.len(), 2, "two bursts in flight need two slots");
        assert_eq!(q.free.len(), 2, "drained bursts return their slots");
    }

    /// Delay sets for generated fan-outs: one all-equal set (as
    /// `LinkTableMedium` gives) and two small mixed ones, so ties between
    /// receivers, and between bursts and single events, are common.
    const DELAY_SETS: [&[u64]; 3] = [&[200], &[0, 100, 200], &[1, 2, 150, 3_000]];

    /// Offsets from the clock for single events and pop limits.
    const OFFSETS: [u64; 6] = [0, 1, 100, 200, 450, 5_000];

    fn pick(rng: &mut TestRng, from: &[u64]) -> u64 {
        from[rng.below(from.len() as u64) as usize]
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// The burst queue against the reference heap under random
        /// interleavings of `push`, `push_fanout` (0–80 receivers),
        /// `pop_if_at_or_before` with limits that stop mid-burst, and
        /// snapshots, some of them restored and continued from.
        #[test]
        fn burst_queue_matches_reference_heap(seed in proptest::any::<u64>(), steps in 1usize..120) {
            let mut rng = TestRng::from_state(seed);
            let (mut q, mut reference) = (EventQueue::new(), Reference::default());
            let mut clock = SimTime::ZERO;
            for frame in 0..steps as u64 {
                match rng.below(8) {
                    0 | 1 => {
                        let at = clock + SimDuration::from_nanos(pick(&mut rng, &OFFSETS));
                        let kind = dummy(rng.below(4) as u32);
                        q.push(at, kind);
                        reference.push(at, kind);
                    }
                    2..=4 => {
                        let delays = DELAY_SETS[rng.below(DELAY_SETS.len() as u64) as usize];
                        let plans: Vec<RxPlan> = (0..rng.below(81))
                            .map(|_| plan(rng.below(300) as u32, pick(&mut rng, delays)))
                            .collect();
                        let air = SimDuration::from_nanos(pick(&mut rng, &[0, 100, 200, 2_000]));
                        q.push_fanout(clock, FrameId(frame), air, &plans);
                        reference.push_fanout(clock, FrameId(frame), air, &plans);
                    }
                    5 | 6 => {
                        let limit = clock + SimDuration::from_nanos(pick(&mut rng, &OFFSETS));
                        for _ in 0..rng.below(200) {
                            let (a, b) = (
                                q.pop_if_at_or_before(limit),
                                reference.pop_if_at_or_before(limit),
                            );
                            let done = a.is_none();
                            if let Some(ev) = &a {
                                clock = ev.time;
                            }
                            proptest::prop_assert_eq!(key(a), key(b));
                            if done {
                                break;
                            }
                        }
                    }
                    _ => {
                        let bytes = snap_bytes(&q);
                        proptest::prop_assert_eq!(&bytes, &reference.snap());
                        if rng.below(2) == 0 {
                            q = unsnap_bytes(&bytes).map_err(|e| {
                                proptest::TestCaseError::fail(format!("restore failed: {e}"))
                            })?;
                        }
                    }
                }
                proptest::prop_assert_eq!(q.len(), reference.heap.len());
            }
            loop {
                let (a, b) = (
                    q.pop_if_at_or_before(SimTime::MAX),
                    reference.pop_if_at_or_before(SimTime::MAX),
                );
                let done = a.is_none();
                proptest::prop_assert_eq!(key(a), key(b));
                if done {
                    break;
                }
            }
        }
    }

    #[test]
    fn peek_time() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.push(SimTime::from_nanos(42), dummy(1));
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(42)));
        assert_eq!(q.len(), 1);
    }
}

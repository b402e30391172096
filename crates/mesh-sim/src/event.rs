//! The discrete-event queue.
//!
//! Events are ordered by `(time, sequence number)`: ties in simulated time
//! are broken by insertion order, which makes runs fully deterministic.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::ids::{FrameId, NodeId, TimerId};
use crate::snapshot::{Snap, SnapError, SnapReader, SnapWriter};
use crate::time::SimTime;

/// The kinds of events the simulator processes.
#[derive(Debug, Clone, PartialEq)]
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

impl PartialEq for ScheduledEvent {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for ScheduledEvent {}

impl Ord for ScheduledEvent {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse: BinaryHeap is a max-heap, we want the earliest event first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl PartialOrd for ScheduledEvent {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
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

impl Snap for ScheduledEvent {
    fn snap(&self, w: &mut SnapWriter) {
        self.time.snap(w);
        w.put_u64(self.seq);
        self.kind.snap(w);
    }

    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(ScheduledEvent {
            time: SimTime::unsnap(r)?,
            seq: r.u64()?,
            kind: EventKind::unsnap(r)?,
        })
    }
}

impl Snap for EventQueue {
    fn snap(&self, w: &mut SnapWriter) {
        // The heap's internal layout is not canonical; serialize the pending
        // events in their (unique) `(time, seq)` dequeue order instead so
        // equal queues always produce equal bytes.
        let mut pending: Vec<&ScheduledEvent> = self.heap.iter().collect();
        pending.sort_by_key(|e| (e.time, e.seq));
        w.put_usize(pending.len());
        for ev in pending {
            ev.snap(w);
        }
        w.put_u64(self.seq);
    }

    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let n = r.len()?;
        let mut heap = BinaryHeap::with_capacity(n);
        for _ in 0..n {
            heap.push(ScheduledEvent::unsnap(r)?);
        }
        let seq = r.u64()?;
        Ok(EventQueue { heap, seq })
    }
}

/// Min-heap of scheduled events with deterministic tie-breaking.
#[derive(Debug, Default)]
pub(crate) struct EventQueue {
    heap: BinaryHeap<ScheduledEvent>,
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
        self.heap.push(ScheduledEvent { time, seq, kind });
    }

    /// Pop the earliest event if it occurs at or before `limit`.
    pub fn pop_if_at_or_before(&mut self, limit: SimTime) -> Option<ScheduledEvent> {
        if self.heap.peek().is_some_and(|e| e.time <= limit) {
            self.heap.pop()
        } else {
            None
        }
    }

    /// Time of the next event, if any.
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.time)
    }

    pub fn len(&self) -> usize {
        self.heap.len()
    }

    #[cfg_attr(not(test), allow(dead_code))]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy(node: u32) -> EventKind {
        EventKind::MacTimer {
            node: NodeId::new(node),
            gen: 0,
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
    fn peek_time() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.push(SimTime::from_nanos(42), dummy(1));
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(42)));
        assert_eq!(q.len(), 1);
    }
}

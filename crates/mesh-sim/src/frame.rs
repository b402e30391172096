//! Frames in flight on the medium, and their storage.
//!
//! The simulator never serializes payloads: a frame carries the protocol
//! message by value plus an explicit on-air size in bytes. Frames live in a
//! slab while any reception or transmission event still references them.

use crate::ids::{FrameId, NodeId, TxHandle};
use crate::snapshot::{Snap, SnapError, SnapReader, SnapWriter};
use crate::time::SimDuration;
use std::sync::Arc;

/// What a frame is, at the MAC level.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum FrameBody<M> {
    /// Request-to-send; `nav` covers CTS + DATA + ACK.
    Rts { dst: NodeId, nav: SimDuration },
    /// Clear-to-send; `nav` covers DATA + ACK.
    Cts { dst: NodeId, nav: SimDuration },
    /// Link-layer acknowledgment.
    Ack { dst: NodeId },
    /// A data frame carrying a protocol message.
    Data {
        /// `None` means link-layer broadcast.
        dst: Option<NodeId>,
        /// Shared payload: cloning a frame body (one clone per receiver on
        /// broadcast fan-out) bumps a refcount instead of copying `M`.
        msg: Arc<M>,
        /// Protocol-defined traffic class for byte accounting.
        class: u8,
        /// The sender's transmit handle. Its number is also the MAC-level
        /// sequence number for receive-side duplicate detection (constant
        /// across retransmissions of the same frame).
        handle: TxHandle,
    },
}

/// A frame occupying the medium.
#[derive(Debug, Clone)]
pub(crate) struct Frame<M> {
    pub src: NodeId,
    pub body: FrameBody<M>,
    /// Total on-air size in bytes (payload + MAC header for data frames).
    pub bytes: u32,
    /// Airtime of the frame.
    pub duration: SimDuration,
    /// Outstanding event references (one per scheduled RxEnd, plus TxEnd).
    pub refs: u32,
}

impl<M> Frame<M> {
    /// Destination of the frame, `None` for broadcast.
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn dst(&self) -> Option<NodeId> {
        match &self.body {
            FrameBody::Rts { dst, .. } | FrameBody::Cts { dst, .. } | FrameBody::Ack { dst } => {
                Some(*dst)
            }
            FrameBody::Data { dst, .. } => *dst,
        }
    }
}

/// Slab of in-flight frames with id reuse.
#[derive(Debug)]
pub(crate) struct FrameSlab<M> {
    slots: Vec<Option<Frame<M>>>,
    free: Vec<u32>,
    /// Generation counters make stale `FrameId`s detectable.
    gens: Vec<u32>,
}

impl<M> Default for FrameSlab<M> {
    fn default() -> Self {
        FrameSlab {
            slots: Vec::new(),
            free: Vec::new(),
            gens: Vec::new(),
        }
    }
}

impl<M> FrameSlab<M> {
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert a frame with an initial reference count.
    pub fn insert(&mut self, frame: Frame<M>) -> FrameId {
        if let Some(slot) = self.free.pop() {
            self.slots[slot as usize] = Some(frame);
            FrameId(encode(slot, self.gens[slot as usize]))
        } else {
            let slot = self.slots.len() as u32;
            self.slots.push(Some(frame));
            self.gens.push(0);
            FrameId(encode(slot, 0))
        }
    }

    pub fn get(&self, id: FrameId) -> Option<&Frame<M>> {
        let (slot, gen) = decode(id.0);
        if self.gens.get(slot as usize) != Some(&gen) {
            return None;
        }
        self.slots[slot as usize].as_ref()
    }

    #[cfg_attr(not(test), allow(dead_code))]
    pub fn get_mut(&mut self, id: FrameId) -> Option<&mut Frame<M>> {
        let (slot, gen) = decode(id.0);
        if self.gens.get(slot as usize) != Some(&gen) {
            return None;
        }
        self.slots[slot as usize].as_mut()
    }

    /// Drop one reference; frees the frame when the count reaches zero.
    /// Returns the frame if this was the final reference.
    pub fn release(&mut self, id: FrameId) -> Option<Frame<M>> {
        let (slot, gen) = decode(id.0);
        if self.gens.get(slot as usize) != Some(&gen) {
            return None;
        }
        let f = self.slots[slot as usize].as_mut()?;
        debug_assert!(f.refs > 0, "released a frame with zero refs");
        f.refs -= 1;
        if f.refs == 0 {
            let f = self.slots[slot as usize].take();
            self.gens[slot as usize] = self.gens[slot as usize].wrapping_add(1);
            self.free.push(slot);
            f
        } else {
            None
        }
    }

    /// Number of live frames (for leak assertions in tests).
    pub fn live(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }

    /// Check a restored slab's bookkeeping, which a later insert or release
    /// would index by: one generation per slot and a free list of distinct
    /// empty slots.
    pub fn check(&self) -> Result<(), SnapError> {
        if self.gens.len() != self.slots.len() {
            return Err(SnapError::StateMismatch("frame slab generations"));
        }
        let mut listed = vec![false; self.slots.len()];
        for &slot in &self.free {
            let i = slot as usize;
            if !matches!(self.slots.get(i), Some(None)) || listed[i] {
                return Err(SnapError::StateMismatch("frame slab free list"));
            }
            listed[i] = true;
        }
        Ok(())
    }
}

impl<M: Snap> Snap for FrameBody<M> {
    fn snap(&self, w: &mut SnapWriter) {
        match self {
            FrameBody::Rts { dst, nav } => {
                w.put_u8(0);
                dst.snap(w);
                nav.snap(w);
            }
            FrameBody::Cts { dst, nav } => {
                w.put_u8(1);
                dst.snap(w);
                nav.snap(w);
            }
            FrameBody::Ack { dst } => {
                w.put_u8(2);
                dst.snap(w);
            }
            FrameBody::Data {
                dst,
                msg,
                class,
                handle,
            } => {
                w.put_u8(3);
                dst.snap(w);
                msg.snap(w);
                w.put_u8(*class);
                handle.snap(w);
            }
        }
    }

    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(match r.u8()? {
            0 => FrameBody::Rts {
                dst: Snap::unsnap(r)?,
                nav: Snap::unsnap(r)?,
            },
            1 => FrameBody::Cts {
                dst: Snap::unsnap(r)?,
                nav: Snap::unsnap(r)?,
            },
            2 => FrameBody::Ack {
                dst: Snap::unsnap(r)?,
            },
            3 => FrameBody::Data {
                dst: Snap::unsnap(r)?,
                msg: Snap::unsnap(r)?,
                class: r.u8()?,
                handle: Snap::unsnap(r)?,
            },
            t => return Err(SnapError::BadTag(t as u32)),
        })
    }
}

crate::snap_struct!(Frame<M> { src, body, bytes, duration, refs });

// The slab is serialized structurally (slots, free list, generations) so
// restored `FrameId`s — which encode `(slot, generation)` and are referenced
// from the event queue — keep resolving to the same frames.
crate::snap_struct!(FrameSlab<M> { slots, free, gens });

fn encode(slot: u32, gen: u32) -> u64 {
    ((gen as u64) << 32) | slot as u64
}

fn decode(id: u64) -> (u32, u32) {
    (id as u32, (id >> 32) as u32)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(refs: u32) -> Frame<u32> {
        Frame {
            src: NodeId::new(0),
            body: FrameBody::Data {
                dst: None,
                msg: Arc::new(7),
                class: 0,
                handle: TxHandle(1),
            },
            bytes: 100,
            duration: SimDuration::from_micros(400),
            refs,
        }
    }

    #[test]
    fn insert_get_release() {
        let mut slab = FrameSlab::new();
        let id = slab.insert(frame(2));
        assert!(slab.get(id).is_some());
        assert!(slab.release(id).is_none());
        assert_eq!(slab.live(), 1);
        let last = slab.release(id);
        assert!(last.is_some());
        assert_eq!(slab.live(), 0);
        assert!(slab.get(id).is_none());
    }

    #[test]
    fn stale_ids_do_not_alias_reused_slots() {
        let mut slab = FrameSlab::new();
        let a = slab.insert(frame(1));
        slab.release(a);
        let b = slab.insert(frame(1));
        // Slot is reused but generation differs.
        assert!(slab.get(a).is_none());
        assert!(slab.get(b).is_some());
        assert_ne!(a, b);
    }

    #[test]
    fn dst_of_bodies() {
        let f = frame(1);
        assert_eq!(f.dst(), None);
        let r: Frame<u32> = Frame {
            body: FrameBody::Rts {
                dst: NodeId::new(4),
                nav: SimDuration::ZERO,
            },
            ..frame(1)
        };
        assert_eq!(r.dst(), Some(NodeId::new(4)));
    }

    /// Restored bookkeeping that a later insert or release would index by
    /// or count down is a [`SnapError::StateMismatch`].
    #[test]
    fn check_rejects_bookkeeping_a_later_step_would_trip_on() {
        // Slot 0 freed, slot 1 live.
        let slab = || {
            let mut s = FrameSlab::new();
            let a = s.insert(frame(1));
            s.insert(frame(1));
            s.release(a);
            s
        };
        assert_eq!(slab().check(), Ok(()));
        type Defect = fn(&mut FrameSlab<u32>);
        let defects: [(&str, Defect); 4] = [
            ("frame slab free list", |s| s.free.push(7)),
            ("frame slab free list", |s| s.free.push(1)),
            ("frame slab free list", |s| s.free.push(0)),
            ("frame slab generations", |s| {
                s.gens.pop();
            }),
        ];
        for (field, defect) in defects {
            let mut s = slab();
            defect(&mut s);
            assert_eq!(s.check(), Err(SnapError::StateMismatch(field)));
        }
    }

    #[test]
    fn get_mut_allows_marking() {
        let mut slab = FrameSlab::new();
        let id = slab.insert(frame(1));
        if let Some(f) = slab.get_mut(id) {
            f.bytes = 200;
        }
        assert_eq!(slab.get(id).unwrap().bytes, 200);
    }
}

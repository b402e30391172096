//! Versioned, hand-rolled binary checkpoint format (DESIGN.md §14).
//!
//! The workspace is dependency-free, so there is no serde: snapshots are a
//! flat little-endian byte stream written by [`SnapWriter`] and replayed by
//! [`SnapReader`]. Every snapshot starts with a fixed header — the magic
//! `b"MSNP"`, the [`SNAPSHOT_FORMAT_VERSION`], and a caller-supplied
//! *configuration fingerprint* — so a checkpoint can never be restored into
//! a simulation built from a different scenario without an explicit error.
//!
//! Two traits split the work:
//!
//! * [`Snap`] — value types that serialize themselves field-by-field
//!   (primitives, containers, ids, times, protocol messages).
//! * [`SnapshotState`] — stateful components (protocol nodes, media,
//!   mobility models) that write their *mutable* state into an existing
//!   stream and restore it in place. Configuration that is re-derived from
//!   the scenario constructor is deliberately **not** serialized; the header
//!   fingerprint is what proves both sides were built from the same config.
//!
//! The format is strict: readers must consume every byte ([`SnapReader::
//! finish`] returns [`SnapError::TrailingBytes`] otherwise), unknown enum
//! tags are hard errors, map and set keys must be strictly ascending, and
//! any version drift requires regenerating the committed golden fixture in
//! the same PR (see `crates/experiments/tests/snapshot_format.rs`).

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;
use std::sync::Arc;

/// Current snapshot format version. Bump on ANY wire-format change and
/// regenerate the golden fixture in the same PR.
pub const SNAPSHOT_FORMAT_VERSION: u32 = 5;

/// Magic bytes opening every snapshot ("Mesh SNaPshot").
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"MSNP";

/// Everything that can go wrong while decoding a snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapError {
    /// The stream does not begin with [`SNAPSHOT_MAGIC`].
    BadMagic,
    /// The stream was written by an unknown format version.
    UnsupportedVersion(u32),
    /// The snapshot was taken from a simulation built with a different
    /// configuration fingerprint than the one restoring it.
    FingerprintMismatch {
        /// Fingerprint the restoring simulation expects.
        expected: u64,
        /// Fingerprint recorded in the snapshot header.
        found: u64,
    },
    /// The stream ended before the value was fully decoded.
    Truncated,
    /// An enum discriminant outside the encodable range.
    BadTag(u32),
    /// Bytes were left over after the top-level value was decoded.
    TrailingBytes,
    /// The snapshot is structurally incompatible with the restoring
    /// simulation (e.g. different node count or mobility model presence).
    StateMismatch(&'static str),
}

impl fmt::Display for SnapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapError::BadMagic => write!(f, "snapshot does not start with the MSNP magic"),
            SnapError::UnsupportedVersion(v) => {
                write!(f, "unsupported snapshot format version {v}")
            }
            SnapError::FingerprintMismatch { expected, found } => write!(
                f,
                "config fingerprint mismatch: snapshot {found:#018x}, expected {expected:#018x}"
            ),
            SnapError::Truncated => write!(f, "snapshot truncated mid-value"),
            SnapError::BadTag(t) => write!(f, "unknown enum tag {t} in snapshot"),
            SnapError::TrailingBytes => write!(f, "trailing bytes after snapshot payload"),
            SnapError::StateMismatch(what) => {
                write!(f, "snapshot incompatible with this simulation: {what}")
            }
        }
    }
}

impl std::error::Error for SnapError {}

/// Append-only binary writer for snapshot payloads.
#[derive(Debug, Default)]
pub struct SnapWriter {
    buf: Vec<u8>,
}

impl SnapWriter {
    /// An empty writer with no header (for nested payloads and tests).
    pub fn new() -> Self {
        SnapWriter { buf: Vec::new() }
    }

    /// A writer primed with the snapshot header: magic, format version and
    /// the caller's configuration fingerprint.
    pub fn with_header(fingerprint: u64) -> Self {
        let mut w = SnapWriter::new();
        w.buf.extend_from_slice(&SNAPSHOT_MAGIC);
        w.put_u32(SNAPSHOT_FORMAT_VERSION);
        w.put_u64(fingerprint);
        w
    }

    /// Append one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a little-endian u32.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian u64.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a usize, widened to u64 on the wire.
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Append an f64 by its exact bit pattern (NaN payloads survive).
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Append an f32 by its exact bit pattern.
    pub fn put_f32(&mut self, v: f32) {
        self.put_u32(v.to_bits());
    }

    /// Append a bool as one byte (0 or 1).
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(v as u8);
    }

    /// Append raw bytes with no length prefix.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Finish writing and take the payload.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// Sequential reader over a snapshot payload.
#[derive(Debug)]
pub struct SnapReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SnapReader<'a> {
    /// A reader over a headerless payload (for nested payloads and tests).
    pub fn new(buf: &'a [u8]) -> Self {
        SnapReader { buf, pos: 0 }
    }

    /// Open a snapshot: verify magic, format version and the configuration
    /// fingerprint, then position the reader at the payload.
    pub fn with_header(buf: &'a [u8], fingerprint: u64) -> Result<Self, SnapError> {
        let mut r = SnapReader::new(buf);
        if r.take(SNAPSHOT_MAGIC.len())? != SNAPSHOT_MAGIC {
            return Err(SnapError::BadMagic);
        }
        let version = r.u32()?;
        if version != SNAPSHOT_FORMAT_VERSION {
            return Err(SnapError::UnsupportedVersion(version));
        }
        let found = r.u64()?;
        if found != fingerprint {
            return Err(SnapError::FingerprintMismatch {
                expected: fingerprint,
                found,
            });
        }
        Ok(r)
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8, SnapError> {
        let b = *self.buf.get(self.pos).ok_or(SnapError::Truncated)?;
        self.pos += 1;
        Ok(b)
    }

    /// Take the next `n` bytes as one slice: a decoder of a run of
    /// fixed-width records bounds-checks the whole run once, then splits
    /// it (for example with `chunks_exact`).
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], SnapError> {
        let end = self.pos.checked_add(n).ok_or(SnapError::Truncated)?;
        let bytes = self.buf.get(self.pos..end).ok_or(SnapError::Truncated)?;
        self.pos = end;
        Ok(bytes)
    }

    /// Read a little-endian u32.
    pub fn u32(&mut self) -> Result<u32, SnapError> {
        let arr: [u8; 4] = self.take(4)?.try_into().map_err(|_| SnapError::Truncated)?;
        Ok(u32::from_le_bytes(arr))
    }

    /// Read a little-endian u64.
    pub fn u64(&mut self) -> Result<u64, SnapError> {
        let arr: [u8; 8] = self.take(8)?.try_into().map_err(|_| SnapError::Truncated)?;
        Ok(u64::from_le_bytes(arr))
    }

    /// Read a usize (stored as u64 on the wire).
    pub fn usize(&mut self) -> Result<usize, SnapError> {
        usize::try_from(self.u64()?).map_err(|_| SnapError::StateMismatch("usize out of range"))
    }

    /// Read an f64 from its exact bit pattern.
    pub fn f64(&mut self) -> Result<f64, SnapError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Read an f32 from its exact bit pattern.
    pub fn f32(&mut self) -> Result<f32, SnapError> {
        Ok(f32::from_bits(self.u32()?))
    }

    /// Read a bool; any byte other than 0/1 is a [`SnapError::BadTag`].
    pub fn bool(&mut self) -> Result<bool, SnapError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            t => Err(SnapError::BadTag(t as u32)),
        }
    }

    /// Read a container length written by [`SnapWriter::put_usize`],
    /// sanity-checked against the remaining bytes (each element takes at
    /// least one byte) so corrupt streams cannot force huge allocations.
    ///
    /// Not a container `len`: this *consumes* stream bytes, so there is no
    /// `is_empty` counterpart (use [`SnapReader::remaining`]).
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&mut self) -> Result<usize, SnapError> {
        let n = self.usize()?;
        if n > self.remaining() {
            return Err(SnapError::Truncated);
        }
        Ok(n)
    }

    /// Assert the stream is fully consumed.
    pub fn finish(self) -> Result<(), SnapError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(SnapError::TrailingBytes)
        }
    }
}

/// Field-by-field binary serialization for value types.
///
/// Implementations must be **lossless and canonical**: `unsnap(snap(x)) ==
/// x` bit-for-bit, equal values produce equal bytes, and `unsnap` accepts
/// only bytes that `snap` writes back unchanged. Floats are encoded by bit
/// pattern, never by text.
pub trait Snap: Sized {
    /// Write this value into `w`.
    fn snap(&self, w: &mut SnapWriter);
    /// Decode one value from `r`.
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError>;
}

/// Implement [`Snap`] for a struct from one list of its fields: `snap`
/// writes them in list order and `unsnap` reads them back in the same
/// order, each with its own `Snap` impl. The list **is** the wire layout.
///
/// `snap` destructures `self` without `..`, so a field missing from the
/// list does not compile:
///
/// ```compile_fail,E0027
/// struct Link { from: u32, to: u32, loss: f64 }
/// mesh_sim::snap_struct!(Link { from, to });
/// ```
///
/// With every field listed it compiles and round-trips. Generic structs
/// name their type parameters, which get a `Snap` bound:
///
/// ```
/// use mesh_sim::snapshot::{Snap, SnapReader, SnapWriter};
///
/// #[derive(Debug, PartialEq)]
/// struct Link { from: u32, to: u32, loss: f64 }
/// mesh_sim::snap_struct!(Link { from, to, loss });
///
/// #[derive(Debug, PartialEq)]
/// struct Tagged<T> { tag: u8, value: T }
/// mesh_sim::snap_struct!(Tagged<T> { tag, value });
///
/// let v = Tagged { tag: 7, value: Link { from: 1, to: 2, loss: 0.25 } };
/// let mut w = SnapWriter::new();
/// v.snap(&mut w);
/// let bytes = w.into_bytes();
/// assert_eq!(bytes.len(), 1 + 4 + 4 + 8);
/// let mut r = SnapReader::new(&bytes);
/// assert_eq!(Tagged::<Link>::unsnap(&mut r).unwrap(), v);
/// r.finish().unwrap();
/// ```
#[macro_export]
macro_rules! snap_struct {
    ($ty:ident $(< $($param:ident),+ >)? { $($field:ident),+ $(,)? }) => {
        impl $(< $($param: $crate::snapshot::Snap),+ >)? $crate::snapshot::Snap
            for $ty $(< $($param),+ >)?
        {
            fn snap(&self, w: &mut $crate::snapshot::SnapWriter) {
                let $ty { $($field),+ } = self;
                $($crate::snapshot::Snap::snap($field, w);)+
            }

            fn unsnap(
                r: &mut $crate::snapshot::SnapReader<'_>,
            ) -> ::core::result::Result<Self, $crate::snapshot::SnapError> {
                ::core::result::Result::Ok($ty {
                    $($field: $crate::snapshot::Snap::unsnap(r)?),+
                })
            }
        }
    };
}

/// In-place snapshot/restore for stateful simulation components.
///
/// Unlike [`Snap`], implementors are *rebuilt from configuration* first and
/// then have their mutable state overwritten; `restore_state` must leave the
/// component exactly as it was at snapshot time, assuming the surrounding
/// simulation was constructed from the same scenario. The header
/// fingerprint proves the scenario; components still check what a later
/// step would index by (per-node lengths, queued events, the spatial
/// index) and reject a mismatch as [`SnapError::StateMismatch`].
///
/// `snapshot_state` opens with an exhaustive destructure of `self` (no
/// `..`) that binds each field it does not write to `_` with the reason, so
/// a field added later must be placed before it compiles.
pub trait SnapshotState {
    /// Write all mutable state into `w`.
    fn snapshot_state(&self, w: &mut SnapWriter);
    /// Overwrite all mutable state from `r`.
    fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError>;
}

impl Snap for u8 {
    fn snap(&self, w: &mut SnapWriter) {
        w.put_u8(*self);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        r.u8()
    }
}

impl Snap for u32 {
    fn snap(&self, w: &mut SnapWriter) {
        w.put_u32(*self);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        r.u32()
    }
}

impl Snap for u64 {
    fn snap(&self, w: &mut SnapWriter) {
        w.put_u64(*self);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        r.u64()
    }
}

impl Snap for usize {
    fn snap(&self, w: &mut SnapWriter) {
        w.put_usize(*self);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        r.usize()
    }
}

impl Snap for f64 {
    fn snap(&self, w: &mut SnapWriter) {
        w.put_f64(*self);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        r.f64()
    }
}

impl Snap for f32 {
    fn snap(&self, w: &mut SnapWriter) {
        w.put_f32(*self);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        r.f32()
    }
}

impl Snap for bool {
    fn snap(&self, w: &mut SnapWriter) {
        w.put_bool(*self);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        r.bool()
    }
}

impl Snap for String {
    fn snap(&self, w: &mut SnapWriter) {
        w.put_usize(self.len());
        w.put_bytes(self.as_bytes());
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let n = r.len()?;
        String::from_utf8(r.take(n)?.to_vec())
            .map_err(|_| SnapError::StateMismatch("invalid utf-8 string"))
    }
}

impl<T: Snap> Snap for Option<T> {
    fn snap(&self, w: &mut SnapWriter) {
        match self {
            None => w.put_u8(0),
            Some(v) => {
                w.put_u8(1);
                v.snap(w);
            }
        }
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        match r.u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::unsnap(r)?)),
            t => Err(SnapError::BadTag(t as u32)),
        }
    }
}

impl<T: Snap> Snap for Vec<T> {
    fn snap(&self, w: &mut SnapWriter) {
        w.put_usize(self.len());
        for v in self {
            v.snap(w);
        }
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let n = r.len()?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(T::unsnap(r)?);
        }
        Ok(out)
    }
}

impl<T: Snap> Snap for VecDeque<T> {
    fn snap(&self, w: &mut SnapWriter) {
        w.put_usize(self.len());
        for v in self {
            v.snap(w);
        }
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let n = r.len()?;
        let mut out = VecDeque::with_capacity(n);
        for _ in 0..n {
            out.push_back(T::unsnap(r)?);
        }
        Ok(out)
    }
}

impl<K: Snap + Ord, V: Snap> Snap for BTreeMap<K, V> {
    fn snap(&self, w: &mut SnapWriter) {
        w.put_usize(self.len());
        for (k, v) in self {
            k.snap(w);
            v.snap(w);
        }
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(unsnap_ascending(r, |(k, _): &(K, V)| k)?
            .into_iter()
            .collect())
    }
}

impl<T: Snap + Ord> Snap for BTreeSet<T> {
    fn snap(&self, w: &mut SnapWriter) {
        w.put_usize(self.len());
        for v in self {
            v.snap(w);
        }
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(unsnap_ascending(r, |v: &T| v)?.into_iter().collect())
    }
}

/// Decode the entries of a map or set. Their writer emits a B-tree's keys,
/// ascending and unique, so a key that is not strictly greater than the one
/// before it is a [`SnapError::StateMismatch`]: restoring it would build a
/// collection that snapshots to other bytes. The sorted run lets `collect()`
/// bulk-build the tree in O(n) with full leaves, instead of n inserts.
fn unsnap_ascending<T: Snap, K: Ord>(
    r: &mut SnapReader<'_>,
    key: impl Fn(&T) -> &K,
) -> Result<Vec<T>, SnapError> {
    let n = r.len()?;
    let mut out: Vec<T> = Vec::with_capacity(n);
    for _ in 0..n {
        let entry = T::unsnap(r)?;
        if out.last().is_some_and(|prev| key(prev) >= key(&entry)) {
            return Err(SnapError::StateMismatch(
                "map or set keys not strictly ascending",
            ));
        }
        out.push(entry);
    }
    Ok(out)
}

impl<A: Snap, B: Snap> Snap for (A, B) {
    fn snap(&self, w: &mut SnapWriter) {
        self.0.snap(w);
        self.1.snap(w);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok((A::unsnap(r)?, B::unsnap(r)?))
    }
}

impl<A: Snap, B: Snap, C: Snap> Snap for (A, B, C) {
    fn snap(&self, w: &mut SnapWriter) {
        self.0.snap(w);
        self.1.snap(w);
        self.2.snap(w);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok((A::unsnap(r)?, B::unsnap(r)?, C::unsnap(r)?))
    }
}

// Fixed-size arrays carry no length prefix: `N` is part of the type.
impl<T: Snap, const N: usize> Snap for [T; N] {
    fn snap(&self, w: &mut SnapWriter) {
        for v in self {
            v.snap(w);
        }
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let mut out = Vec::with_capacity(N);
        for _ in 0..N {
            out.push(T::unsnap(r)?);
        }
        out.try_into()
            .map_err(|_| SnapError::StateMismatch("array length"))
    }
}

// Arc serializes by value: pointer sharing is a memory optimisation, not
// observable simulation state, so restore may produce distinct allocations.
impl<T: Snap> Snap for Arc<T> {
    fn snap(&self, w: &mut SnapWriter) {
        T::snap(self, w);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(Arc::new(T::unsnap(r)?))
    }
}

impl Snap for crate::time::SimTime {
    fn snap(&self, w: &mut SnapWriter) {
        w.put_u64(self.as_nanos());
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(crate::time::SimTime::from_nanos(r.u64()?))
    }
}

impl Snap for crate::time::SimDuration {
    fn snap(&self, w: &mut SnapWriter) {
        w.put_u64(self.as_nanos());
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(crate::time::SimDuration::from_nanos(r.u64()?))
    }
}

impl Snap for crate::ids::NodeId {
    fn snap(&self, w: &mut SnapWriter) {
        w.put_u32(self.as_u32());
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(crate::ids::NodeId::new(r.u32()?))
    }
}

impl Snap for crate::ids::GroupId {
    fn snap(&self, w: &mut SnapWriter) {
        w.put_u32(self.0);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(crate::ids::GroupId(r.u32()?))
    }
}

impl Snap for crate::ids::TxHandle {
    fn snap(&self, w: &mut SnapWriter) {
        w.put_u64(self.0);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(crate::ids::TxHandle(r.u64()?))
    }
}

impl Snap for crate::ids::TimerId {
    fn snap(&self, w: &mut SnapWriter) {
        w.put_u64(self.0);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(crate::ids::TimerId(r.u64()?))
    }
}

impl Snap for crate::ids::FrameId {
    fn snap(&self, w: &mut SnapWriter) {
        w.put_u64(self.as_u64());
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(crate::ids::FrameId(r.u64()?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn encode<T: Snap>(v: &T) -> Vec<u8> {
        let mut w = SnapWriter::new();
        v.snap(&mut w);
        w.into_bytes()
    }

    /// Decode `v`'s bytes back to an equal value that encodes to the same
    /// bytes again.
    fn roundtrip<T: Snap + PartialEq + std::fmt::Debug>(v: T) {
        let bytes = encode(&v);
        let mut r = SnapReader::new(&bytes);
        let back = T::unsnap(&mut r).expect("decode");
        r.finish().expect("fully consumed");
        assert_eq!(back, v);
        assert_eq!(encode(&back), bytes, "re-encoding moved bytes");
    }

    #[test]
    fn primitives_roundtrip() {
        roundtrip(0u8);
        roundtrip(255u8);
        roundtrip(0xdead_beefu32);
        roundtrip(u64::MAX);
        roundtrip(usize::MAX);
        roundtrip(true);
        roundtrip(false);
        roundtrip(-0.0f64);
        roundtrip(f64::INFINITY);
        roundtrip(1.5f32);
        roundtrip("héllo\nworld".to_string());
    }

    #[test]
    fn nan_bit_patterns_survive() {
        let weird = f64::from_bits(0x7ff8_0000_0000_1234);
        let mut w = SnapWriter::new();
        weird.snap(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        let back = f64::unsnap(&mut r).unwrap();
        assert_eq!(back.to_bits(), weird.to_bits());
    }

    #[test]
    fn containers_roundtrip() {
        roundtrip(vec![1u64, 2, 3]);
        roundtrip(Vec::<u32>::new());
        roundtrip(Some(7u32));
        roundtrip(Option::<u32>::None);
        roundtrip(VecDeque::from([1u8, 2, 3]));
        // Maps and sets either side of std's B-tree node capacity (11
        // keys), up to a tree four levels deep.
        for n in [0u32, 1, 11, 12, 200, 5_000] {
            roundtrip(
                (0..n)
                    .map(|i| (i * 7 + 3, u64::from(i) << 33 | 5))
                    .collect::<BTreeMap<_, _>>(),
            );
            roundtrip((0..n).map(|i| (i / 4, i * 3)).collect::<BTreeSet<_>>());
        }
        roundtrip((1u32, 2u64));
        roundtrip((1u8, 2u32, 3u64));
        roundtrip(Arc::new(42u64));
        roundtrip([7u32, 8, 9]);
        let mut w = SnapWriter::new();
        [1u64, 2].snap(&mut w);
        assert_eq!(w.len(), 16, "arrays carry no length prefix");
    }

    /// Hand-built payloads of two `u32 → u64` entries or two `(u32, u32)`
    /// keys, in the order given.
    fn two_entries(keys: [u32; 2]) -> (Vec<u8>, Vec<u8>) {
        let (mut map, mut set) = (SnapWriter::new(), SnapWriter::new());
        map.put_usize(2);
        set.put_usize(2);
        for k in keys {
            (k, 9u64).snap(&mut map);
            (k, 1u32).snap(&mut set);
        }
        (map.into_bytes(), set.into_bytes())
    }

    /// The writer emits a B-tree's keys ascending and unique, so a
    /// duplicate or descending key is corrupt input, not a smaller map.
    #[test]
    fn maps_and_sets_reject_keys_out_of_order() {
        for keys in [[4, 4], [9, 2]] {
            let (map, set) = two_entries(keys);
            assert!(
                matches!(
                    BTreeMap::<u32, u64>::unsnap(&mut SnapReader::new(&map)),
                    Err(SnapError::StateMismatch(_))
                ),
                "map keys {keys:?} restored"
            );
            assert!(
                matches!(
                    BTreeSet::<(u32, u32)>::unsnap(&mut SnapReader::new(&set)),
                    Err(SnapError::StateMismatch(_))
                ),
                "set keys {keys:?} restored"
            );
        }
        let (map, set) = two_entries([2, 9]);
        assert_eq!(
            BTreeMap::<u32, u64>::unsnap(&mut SnapReader::new(&map)).unwrap(),
            BTreeMap::from([(2, 9), (9, 9)])
        );
        assert_eq!(
            BTreeSet::<(u32, u32)>::unsnap(&mut SnapReader::new(&set)).unwrap(),
            BTreeSet::from([(2, 1), (9, 1)])
        );
    }

    /// A length prefix past the entries that follow it stays `Truncated`,
    /// whether the decode runs out mid-entry (3) or `len` refuses a count
    /// above the bytes left (`u64::MAX / 2`).
    #[test]
    fn map_and_set_length_past_the_payload_is_truncated() {
        let (map, set) = two_entries([2, 9]);
        for n in [3u64, u64::MAX / 2] {
            let (mut map, mut set) = (map.clone(), set.clone());
            map[..8].copy_from_slice(&n.to_le_bytes());
            set[..8].copy_from_slice(&n.to_le_bytes());
            assert_eq!(
                BTreeMap::<u32, u64>::unsnap(&mut SnapReader::new(&map)).unwrap_err(),
                SnapError::Truncated
            );
            assert_eq!(
                BTreeSet::<(u32, u32)>::unsnap(&mut SnapReader::new(&set)).unwrap_err(),
                SnapError::Truncated
            );
        }
    }

    #[test]
    fn sim_types_roundtrip() {
        use crate::geometry::Pos;
        use crate::ids::{GroupId, NodeId, TxHandle};
        use crate::time::{SimDuration, SimTime};
        roundtrip(SimTime::from_nanos(123_456_789));
        roundtrip(SimDuration::from_millis(250));
        roundtrip(NodeId::new(17));
        roundtrip(GroupId(3));
        roundtrip(TxHandle(99));
        roundtrip(Pos { x: 1.5, y: -2.25 });
    }

    #[test]
    fn header_roundtrip_and_mismatches() {
        let w = SnapWriter::with_header(0xABCD);
        let bytes = w.into_bytes();
        let r = SnapReader::with_header(&bytes, 0xABCD).expect("header ok");
        r.finish().expect("empty payload");

        assert_eq!(
            SnapReader::with_header(&bytes, 0x1234).unwrap_err(),
            SnapError::FingerprintMismatch {
                expected: 0x1234,
                found: 0xABCD
            }
        );

        let mut bad_magic = bytes.clone();
        bad_magic[0] = b'X';
        assert_eq!(
            SnapReader::with_header(&bad_magic, 0xABCD).unwrap_err(),
            SnapError::BadMagic
        );

        let mut bad_version = bytes.clone();
        bad_version[4] = 0xFF;
        assert!(matches!(
            SnapReader::with_header(&bad_version, 0xABCD).unwrap_err(),
            SnapError::UnsupportedVersion(_)
        ));

        assert_eq!(
            SnapReader::with_header(&bytes[..6], 0xABCD).unwrap_err(),
            SnapError::Truncated
        );
    }

    #[test]
    fn truncation_and_trailing_are_detected() {
        let mut w = SnapWriter::new();
        vec![1u64, 2, 3].snap(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes[..bytes.len() - 1]);
        assert_eq!(
            Vec::<u64>::unsnap(&mut r).unwrap_err(),
            SnapError::Truncated
        );

        let mut r = SnapReader::new(&bytes);
        let _ = Vec::<u64>::unsnap(&mut r).unwrap();
        let mut extra = bytes.clone();
        extra.push(0);
        let mut r = SnapReader::new(&extra);
        let _ = Vec::<u64>::unsnap(&mut r).unwrap();
        assert_eq!(r.finish().unwrap_err(), SnapError::TrailingBytes);
    }

    #[test]
    fn corrupt_length_cannot_force_huge_allocation() {
        let mut w = SnapWriter::new();
        w.put_usize(usize::MAX / 2);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert_eq!(Vec::<u8>::unsnap(&mut r).unwrap_err(), SnapError::Truncated);
    }

    #[test]
    fn bad_enum_tags_error() {
        let mut r = SnapReader::new(&[7]);
        assert_eq!(
            Option::<u8>::unsnap(&mut r).unwrap_err(),
            SnapError::BadTag(7)
        );
        let mut r = SnapReader::new(&[2]);
        assert_eq!(bool::unsnap(&mut r).unwrap_err(), SnapError::BadTag(2));
    }
}

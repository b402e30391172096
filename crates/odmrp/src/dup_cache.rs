//! The duplicate data cache of §3: a node rebroadcasts and delivers only
//! the first copy of each `(source, seq)` data packet it hears.
//!
//! A source numbers its packets consecutively, so the cached seqs of one
//! source form dense runs. [`DupCache`] keeps them as a sparse bitmap, one
//! `u64` mask per 64-wide block of seqs, beside the FIFO of the same keys
//! that decides eviction. A probe and an insert are one B-tree lookup in a
//! tree about 64 times smaller than a set of keys.
//!
//! The checkpoint keeps the layout of the `BTreeSet<(NodeId, u32)>` +
//! `VecDeque<(NodeId, u32)>` pair this type replaced (format v3): the set's
//! keys ascending, then the FIFO in queue order, each run a `usize` count
//! and 8-byte `(source, seq)` records. Both runs are written and read in
//! bulk, since they are most of an ODMRP checkpoint's bytes (DESIGN.md §14).

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, VecDeque};

use mesh_sim::ids::NodeId;
use mesh_sim::snapshot::{Snap, SnapError, SnapReader, SnapWriter};

/// Bound on the network-layer duplicate cache (per node).
pub(crate) const DATA_CACHE_CAP: usize = 50_000;

/// Bytes of one `(source, seq)` record on the wire.
const KEY_BYTES: usize = 8;

/// Records staged per [`SnapWriter::put_bytes`] call.
const STAGE_KEYS: usize = 64;

/// The `(source, seq)` keys of the last [`DATA_CACHE_CAP`] first copies a
/// node heard, oldest evicted first.
#[derive(Debug, Default)]
pub(crate) struct DupCache {
    /// `(source, seq >> 6)` → mask of the cached seqs of that 64-wide block
    /// (bit `seq & 63`). A block whose mask empties is removed.
    blocks: BTreeMap<(NodeId, u32), u64>,
    /// Keys set across `blocks`.
    len: usize,
    /// The cached keys in arrival order, oldest first.
    order: VecDeque<(NodeId, u32)>,
}

impl DupCache {
    /// Cache `key` unless it is cached already. True on a first copy, which
    /// evicts the oldest key once the cache holds more than
    /// [`DATA_CACHE_CAP`].
    pub(crate) fn insert(&mut self, key: (NodeId, u32)) -> bool {
        let (source, seq) = key;
        let bit = 1u64 << (seq & 63);
        let mask = self.blocks.entry((source, seq >> 6)).or_insert(0);
        if *mask & bit != 0 {
            return false;
        }
        *mask |= bit;
        self.len += 1;
        self.order.push_back(key);
        if self.order.len() > DATA_CACHE_CAP {
            if let Some(old) = self.order.pop_front() {
                self.remove(old);
            }
        }
        true
    }

    /// Forget `key`. A key the bitmap does not hold is left alone: only a
    /// restored FIFO that names a key twice evicts one that is gone.
    fn remove(&mut self, (source, seq): (NodeId, u32)) {
        let bit = 1u64 << (seq & 63);
        if let Entry::Occupied(mut block) = self.blocks.entry((source, seq >> 6)) {
            if *block.get() & bit != 0 {
                *block.get_mut() &= !bit;
                self.len -= 1;
                if *block.get() == 0 {
                    block.remove();
                }
            }
        }
    }

    /// Forget every key, as a crash does.
    pub(crate) fn clear(&mut self) {
        self.blocks.clear();
        self.len = 0;
        self.order.clear();
    }

    /// The cached keys in `(source, seq)` order.
    fn keys(&self) -> impl Iterator<Item = (NodeId, u32)> + '_ {
        self.blocks.iter().flat_map(|(&(source, block), &mask)| {
            let mut rest = mask;
            std::iter::from_fn(move || {
                if rest == 0 {
                    return None;
                }
                let bit = rest.trailing_zeros();
                rest &= rest - 1;
                Some((source, block << 6 | bit))
            })
        })
    }
}

/// A key's wire record: the source's `u32`, then the seq's, little-endian.
fn encode_key((source, seq): (NodeId, u32)) -> [u8; KEY_BYTES] {
    (u64::from(seq) << 32 | u64::from(source.as_u32())).to_le_bytes()
}

fn decode_key(record: [u8; KEY_BYTES]) -> (NodeId, u32) {
    let v = u64::from_le_bytes(record);
    (NodeId::new(v as u32), (v >> 32) as u32)
}

/// Write `n`, then the `n` keys of `keys` as records, staged in fixed
/// blocks so that a run costs one append per [`STAGE_KEYS`] keys.
fn put_keys(w: &mut SnapWriter, n: usize, keys: impl Iterator<Item = (NodeId, u32)>) {
    w.put_usize(n);
    let mut stage = [[0u8; KEY_BYTES]; STAGE_KEYS];
    let mut staged = 0;
    for key in keys {
        stage[staged] = encode_key(key);
        staged += 1;
        if staged == STAGE_KEYS {
            w.put_bytes(stage.as_flattened());
            staged = 0;
        }
    }
    w.put_bytes(stage[..staged].as_flattened());
}

/// Read a count and, as one bounds-checked slice, the run of records after
/// it.
fn take_keys<'a>(
    r: &mut SnapReader<'a>,
) -> Result<impl ExactSizeIterator<Item = (NodeId, u32)> + 'a, SnapError> {
    let n = r.len()?;
    let run = r.take(n.checked_mul(KEY_BYTES).ok_or(SnapError::Truncated)?)?;
    let (records, _) = run.as_chunks::<KEY_BYTES>();
    Ok(records.iter().map(|&record| decode_key(record)))
}

impl Snap for DupCache {
    fn snap(&self, w: &mut SnapWriter) {
        let DupCache {
            blocks: _, // walked by `keys`
            len,
            order,
        } = self;
        put_keys(w, *len, self.keys());
        put_keys(w, order.len(), order.iter().copied());
    }

    /// The set's keys must be strictly ascending, as for any B-tree set
    /// ([`SnapError::StateMismatch`] otherwise), and no real run writes a
    /// FIFO of another length than the set or longer than
    /// [`DATA_CACHE_CAP`].
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let keys = take_keys(r)?;
        let len = keys.len();
        let mut blocks: Vec<((NodeId, u32), u64)> = Vec::new();
        let mut prev = None;
        for key in keys {
            if prev.is_some_and(|p| p >= key) {
                return Err(SnapError::StateMismatch(
                    "map or set keys not strictly ascending",
                ));
            }
            prev = Some(key);
            let (source, seq) = key;
            let bit = 1u64 << (seq & 63);
            match blocks.last_mut() {
                Some((block, mask)) if *block == (source, seq >> 6) => *mask |= bit,
                _ => blocks.push(((source, seq >> 6), bit)),
            }
        }
        let order = take_keys(r)?;
        if order.len() != len {
            return Err(SnapError::StateMismatch(
                "duplicate cache FIFO length differs from its key count",
            ));
        }
        if order.len() > DATA_CACHE_CAP {
            return Err(SnapError::StateMismatch(
                "duplicate cache FIFO longer than its capacity",
            ));
        }
        // The blocks are ascending, so `collect()` bulk-builds the tree.
        Ok(DupCache {
            blocks: blocks.into_iter().collect(),
            len,
            order: order.collect(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mesh_sim::rng::SimRng;
    use std::collections::BTreeSet;

    /// The cache this type replaced: a set of keys and their FIFO, kept in
    /// step, with the same eviction.
    #[derive(Default)]
    struct Reference {
        set: BTreeSet<(NodeId, u32)>,
        order: VecDeque<(NodeId, u32)>,
    }

    impl Reference {
        fn insert(&mut self, key: (NodeId, u32)) -> bool {
            if !self.set.insert(key) {
                return false;
            }
            self.order.push_back(key);
            if self.order.len() > DATA_CACHE_CAP {
                let old = self.order.pop_front().expect("over capacity");
                self.set.remove(&old);
            }
            true
        }

        fn bytes(&self) -> Vec<u8> {
            let mut w = SnapWriter::new();
            self.set.snap(&mut w);
            self.order.snap(&mut w);
            w.into_bytes()
        }
    }

    fn bytes(cache: &DupCache) -> Vec<u8> {
        let mut w = SnapWriter::new();
        cache.snap(&mut w);
        w.into_bytes()
    }

    fn decode(bytes: &[u8]) -> Result<DupCache, SnapError> {
        let mut r = SnapReader::new(bytes);
        let cache = DupCache::unsnap(&mut r)?;
        r.finish()?;
        Ok(cache)
    }

    fn key(source: u32, seq: u32) -> (NodeId, u32) {
        (NodeId::new(source), seq)
    }

    /// Feed `keys` to the cache and to the reference, in order, and check
    /// that both answer alike and that the cache writes the reference's
    /// bytes and restores to them.
    fn assert_same_bytes(keys: impl IntoIterator<Item = (NodeId, u32)>) {
        let (mut cache, mut reference) = (DupCache::default(), Reference::default());
        for k in keys {
            assert_eq!(cache.insert(k), reference.insert(k), "insert {k:?}");
        }
        let expected = reference.bytes();
        assert_eq!(bytes(&cache), expected, "writer");
        let restored = decode(&expected).expect("the reference's bytes restore");
        assert_eq!(bytes(&restored), expected, "restore");
        assert_eq!(restored.len, reference.set.len());
    }

    #[test]
    fn writes_the_bytes_of_a_set_and_its_fifo() {
        assert_same_bytes([]);
        // Block edges and the extremes of both halves of a key.
        let edges = [
            0,
            63,
            64,
            65,
            127,
            128,
            u32::MAX - 64,
            u32::MAX - 1,
            u32::MAX,
        ];
        for source in [0, 1, 7, u32::MAX] {
            assert_same_bytes(edges.map(|seq| key(source, seq)));
            assert_same_bytes(edges.iter().rev().map(|&seq| key(source, seq)));
        }
        // Runs across block edges from several sources, interleaved as
        // their packets arrive, with every other copy a duplicate.
        assert_same_bytes((60..200).flat_map(|seq| {
            [3, 1, 4]
                .into_iter()
                .flat_map(move |s| [key(s, seq), key(s, seq)])
        }));
        let mut rng = SimRng::seed_from(26);
        for trial in 0..20 {
            let sources = 1 + rng.uniform_u32(5);
            // Sparse: seqs anywhere in the u32 range. Dense: a few blocks.
            let span = if trial % 2 == 0 { u32::MAX } else { 300 };
            let keys: Vec<_> = (0..1 + rng.uniform_u32(2_000))
                .map(|_| key(rng.uniform_u32(sources), rng.uniform_u32(span)))
                .collect();
            assert_same_bytes(keys);
        }
    }

    #[test]
    fn eviction_is_fifo_exact() {
        let k = 100;
        let keys: Vec<_> = (0..(DATA_CACHE_CAP + k) as u32)
            .map(|i| key(i % 7, i / 7 * 3))
            .collect();
        let (mut cache, mut reference) = (DupCache::default(), Reference::default());
        for &key in &keys {
            assert!(cache.insert(key) && reference.insert(key));
        }
        assert_eq!(cache.len, DATA_CACHE_CAP);
        assert!(cache.keys().eq(reference.set.iter().copied()));
        assert_eq!(cache.order, reference.order);
        let (evicted, kept) = keys.split_at(k);
        assert!(evicted
            .iter()
            .all(|key| !reference.set.contains(key) && !cache.order.contains(key)));
        assert!(!cache.insert(kept[0]), "the oldest kept key is cached");
        // A replay of an evicted key is a first copy again, and evicts the
        // oldest kept key in its turn.
        assert!(cache.insert(evicted[0]) && reference.insert(evicted[0]));
        assert!(cache.insert(kept[0]) && reference.insert(kept[0]));
        assert_eq!(bytes(&cache), reference.bytes());
    }

    /// A set run then a FIFO run, with the counts given.
    fn payload(set: (u64, &[(u32, u32)]), fifo: (u64, &[(u32, u32)])) -> Vec<u8> {
        let mut w = SnapWriter::new();
        for (n, keys) in [set, fifo] {
            w.put_u64(n);
            for &(s, seq) in keys {
                key(s, seq).snap(&mut w);
            }
        }
        w.into_bytes()
    }

    fn mismatch(bytes: &[u8]) -> bool {
        matches!(decode(bytes), Err(SnapError::StateMismatch(_)))
    }

    #[test]
    fn duplicate_and_descending_keys_are_a_state_mismatch() {
        for keys in [[(1, 4), (1, 4)], [(1, 9), (1, 2)], [(2, 0), (1, 9)]] {
            assert!(mismatch(&payload((2, &keys), (2, &keys))), "{keys:?}");
        }
        let keys = [(1, 2), (1, 9)];
        assert!(decode(&payload((2, &keys), (2, &keys))).is_ok());
    }

    #[test]
    fn a_count_past_the_payload_is_truncated() {
        let keys = [(1, 2), (1, 9)];
        // The set's count past its two keys, with the FIFO run cut off.
        let mut set_only = payload((3, &keys), (0, &[]));
        set_only.truncate(8 + 2 * KEY_BYTES);
        let mut cut = payload((2, &keys), (2, &keys));
        cut.pop();
        for bad in [
            payload((u64::MAX / 2, &keys), (2, &keys)),
            set_only,
            payload((2, &keys), (3, &keys)),
            payload((2, &keys), (u64::MAX / 2, &keys)),
            cut,
        ] {
            assert_eq!(decode(&bad).err(), Some(SnapError::Truncated));
        }
    }

    #[test]
    fn a_fifo_of_another_length_or_over_capacity_is_a_state_mismatch() {
        let keys = [(1, 2), (1, 9)];
        assert!(mismatch(&payload((2, &keys), (1, &keys[..1]))));
        assert!(mismatch(&payload((1, &keys[..1]), (2, &keys))));
        let full: Vec<_> = (0..=DATA_CACHE_CAP as u32).map(|seq| (0, seq)).collect();
        let n = full.len() as u64;
        assert!(mismatch(&payload((n, &full), (n, &full))));
        assert!(decode(&payload((n - 1, &full[1..]), (n - 1, &full[1..]))).is_ok());
    }

    /// A FIFO that names a key twice restores (its length matches the set's
    /// count), and evicting the second copy leaves the count alone.
    #[test]
    fn evicting_a_key_twice_keeps_the_count() {
        let mut cache = decode(&payload((2, &[(1, 2), (1, 9)]), (2, &[(1, 2), (1, 2)])))
            .expect("lengths match");
        for seq in 0..DATA_CACHE_CAP as u32 {
            assert!(cache.insert(key(2, seq)));
        }
        // Both copies of (1, 2) left the FIFO, the key left the bitmap
        // once, and (1, 9), never in the FIFO, stays.
        assert_eq!(cache.order.len(), DATA_CACHE_CAP);
        assert_eq!(cache.len, cache.keys().count());
        assert_eq!(cache.len, DATA_CACHE_CAP + 1);
        // The set run is counted by the bitmap, not by the FIFO.
        assert_eq!(bytes(&cache)[..8], (cache.len as u64).to_le_bytes());
        assert!(!cache.insert(key(1, 9)));
        assert!(cache.insert(key(1, 2)));
    }
}

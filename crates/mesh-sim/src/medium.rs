//! The shared wireless medium.
//!
//! A [`Medium`] decides, for each transmission, which nodes hear it, at what
//! power, and after what propagation delay. Two implementations are provided:
//!
//! * [`PhysicalMedium`] — positions + path loss + fading (the simulation
//!   configuration of the paper), and
//! * trace-driven media (see the `testbed` crate) that replace physics with
//!   measured/synthetic per-link loss processes, used to reproduce the
//!   testbed experiments.

use crate::geometry::Pos;
use crate::ids::NodeId;
use crate::neighbor_index::NeighborIndex;
use crate::propagation::{MeanPowerEval, PhyParams};
use crate::rng::SimRng;
use crate::snapshot::{Snap, SnapError, SnapReader, SnapWriter};
use crate::time::{SimDuration, SimTime};
use std::collections::BTreeMap;

/// One node's position change over a mobility tick, as reported by the world
/// to the medium through [`Medium::positions_changed`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PositionDelta {
    /// The node that moved.
    pub node: NodeId,
    /// Its position before the tick.
    pub from: Pos,
    /// Its position after the tick (equals `positions[node]`).
    pub to: Pos,
}

/// Maintenance statistics of an incrementally-maintained spatial index
/// (see [`PhysicalMedium`]). Purely observational: deliberately kept out of
/// [`crate::counters::Counters`] so indexed and naive runs still compare
/// equal counter-for-counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IndexStats {
    /// Nodes moved between grid cells by `update_position`.
    pub rebuckets: u64,
    /// Per-cell epoch slots advanced (membership or motion).
    pub epoch_bumps: u64,
    /// Fan-outs answered by replaying a cached candidate list unchanged.
    pub cache_hits: u64,
    /// Fan-outs that re-filtered a cached superset (nodes moved within
    /// cells near the transmitter, so distances changed but membership of
    /// the cell block did not).
    pub cache_refreshes: u64,
    /// Fan-outs that rebuilt a candidate list from a fresh grid query
    /// (cell membership near the transmitter changed, or first use).
    pub cache_rebuilds: u64,
    /// Wholesale cache invalidations (explicit
    /// [`Medium::invalidate_positions`] calls while indexed).
    pub full_invalidations: u64,
}

crate::snap_struct!(IndexStats {
    rebuckets,
    epoch_bumps,
    cache_hits,
    cache_refreshes,
    cache_rebuilds,
    full_invalidations,
});

/// A fault-injected override applied to one directed link (see
/// [`crate::fault`]). Effects replace each other: setting a second effect on
/// the same link overwrites the first, and clearing removes any effect.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LinkEffect {
    /// Additional Bernoulli loss composed with the link's base loss process:
    /// a frame that would have been received is independently dropped with
    /// this probability.
    ExtraLoss(f64),
    /// The link carries nothing at all (not even channel-busying energy).
    Blackout,
}

impl Snap for LinkEffect {
    fn snap(&self, w: &mut SnapWriter) {
        match *self {
            LinkEffect::ExtraLoss(p) => {
                w.put_u8(0);
                w.put_f64(p);
            }
            // Tag 1 stays unused, so the tags in existing checkpoints keep
            // their meaning and restore rejects a 1.
            LinkEffect::Blackout => w.put_u8(2),
        }
    }

    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(match r.u8()? {
            0 => LinkEffect::ExtraLoss(r.f64()?),
            2 => LinkEffect::Blackout,
            t => return Err(SnapError::BadTag(t as u32)),
        })
    }
}

/// One receiver's view of a transmitted frame, as decided by the medium.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RxPlan {
    /// The receiving node.
    pub node: NodeId,
    /// Received power in watts (already includes fading).
    pub power_w: f64,
    /// Propagation delay from transmitter to this receiver.
    pub delay: SimDuration,
}

/// Strategy deciding who hears a transmission and how strongly.
///
/// Implementations must be deterministic given the `rng` stream. Receivers
/// whose power would fall below any threshold of interest may simply be
/// omitted from `out`.
pub trait Medium {
    /// Plan the reception of one frame transmitted by `tx` at `now`.
    ///
    /// Appends one [`RxPlan`] per node that hears any energy. Must not include
    /// `tx` itself.
    fn fan_out(
        &mut self,
        tx: NodeId,
        positions: &[Pos],
        now: SimTime,
        rng: &mut SimRng,
        out: &mut Vec<RxPlan>,
    );

    /// The PHY parameters (thresholds, capture ratio) the world should use to
    /// interpret the powers this medium emits.
    fn phy(&self) -> &PhyParams;

    /// Notification that node positions have (or may have) changed since the
    /// last `fan_out`. Media that cache anything derived from geometry must
    /// drop those caches here; the default is a no-op for media that don't
    /// look at positions. Callers that know *which* nodes moved should
    /// prefer [`Medium::positions_changed`].
    fn invalidate_positions(&mut self) {}

    /// Notification that exactly the nodes in `moves` changed position over
    /// one mobility tick; `positions` is the post-move snapshot. Media that
    /// maintain geometry caches incrementally override this; the default
    /// conservatively forwards to [`Medium::invalidate_positions`], so a
    /// medium that only implements wholesale invalidation stays correct.
    fn positions_changed(&mut self, moves: &[PositionDelta], positions: &[Pos]) {
        let _ = (moves, positions);
        self.invalidate_positions();
    }

    /// Spatial-index maintenance statistics since construction, if this
    /// medium keeps an index ([`None`] otherwise, the default).
    fn index_stats(&self) -> Option<IndexStats> {
        None
    }

    /// Apply a fault-injected [`LinkEffect`] to the directed link
    /// `from -> to`, replacing any previous effect on it. Media that do not
    /// model per-link faults may ignore this (the default).
    fn set_link_fault(&mut self, from: NodeId, to: NodeId, effect: LinkEffect) {
        let _ = (from, to, effect);
    }

    /// Remove any fault-injected effect from the directed link `from -> to`
    /// (no-op if none is set).
    fn clear_link_fault(&mut self, from: NodeId, to: NodeId) {
        let _ = (from, to);
    }

    /// Write the medium's mutable state into a checkpoint (DESIGN.md §14).
    /// There is no default: a medium with state must not be able to forget
    /// it, and a stateless one says so by writing nothing.
    fn snapshot_state(&self, w: &mut SnapWriter);

    /// Restore the medium's mutable state from a checkpoint. The medium is
    /// assumed to be freshly constructed from the same scenario config.
    fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError>;

    /// Check a restored medium against the world's restored node
    /// `positions`: a medium that keeps its own copy of them must hold the
    /// same ones ([`SnapError::StateMismatch`] otherwise). The default
    /// accepts, for media that keep none.
    fn check_positions(&self, positions: &[Pos]) -> Result<(), SnapError> {
        let _ = positions;
        Ok(())
    }
}

/// A potential receiver of one transmitter, with its geometry-derived
/// quantities precomputed. Membership is exactly the old full-scan predicate
/// `mean_rx_power_w(d) >= floor_w / 100`, and lists are NodeId-ascending, so
/// replaying a cached list draws the same RNG sequence as the full scan.
///
/// Stores the distance, not the propagation delay: like the naive scan, the
/// delay is only computed for candidates whose sampled power clears the
/// floor — a small fraction of the list — instead of for every candidate on
/// every refresh.
#[derive(Debug, Clone, Copy)]
struct Candidate {
    node: NodeId,
    mean_w: f64,
    dist_m: f64,
}

crate::snap_struct!(Candidate {
    node,
    mean_w,
    dist_m
});

/// The distance-independent inputs of one [`FanOutCache::refilter`] pass,
/// bundled so both call sites in `plan_with` hand over one value.
#[derive(Clone, Copy)]
struct RefilterParams {
    tx: NodeId,
    candidate_range_m: f64,
    floor_w: f64,
    eval: MeanPowerEval,
}

/// One bucket-membership change (a node entering or leaving a grid cell),
/// kept in a short per-cell log so cached supersets can be patched in order
/// instead of rebuilt from a grid query.
#[derive(Debug, Clone, Copy)]
struct MembershipPatch {
    /// Global order stamp, monotone across all cells; a node crossing cells
    /// logs its removal before its insertion.
    seq: u64,
    node: u32,
    /// True if the node entered the cell, false if it left.
    added: bool,
}

crate::snap_struct!(MembershipPatch { seq, node, added });

/// Per-cell epoch pair, kept adjacent so the hot block scan in
/// [`FanOutCache::plan_with`] touches one slot per cell instead of two
/// parallel arrays.
#[derive(Debug, Clone, Copy, Default)]
struct CellEpochs {
    /// Epoch of the last bucket-membership change (a node entered or left).
    membership: u64,
    /// Epoch of the last movement of any node bucketed in the cell.
    motion: u64,
}

crate::snap_struct!(CellEpochs { membership, motion });

/// Bounded log of recent [`MembershipPatch`]es for one grid cell, oldest
/// first. Patching a cached superset is valid only while every patch newer
/// than the superset is still retained; once the log overflows, older
/// transmitter entries fall back to a full rebuild.
#[derive(Debug, Clone)]
struct CellLog {
    patches: Vec<MembershipPatch>,
    /// Every patch with `seq < retained_from` has been dropped.
    retained_from: u64,
}

/// Retained patches per cell. Sized so several mobility ticks' worth of
/// crossings fit between two transmissions of the same node at realistic
/// densities; overflow costs a rebuild, never correctness.
const CELL_LOG_CAP: usize = 16;

impl CellLog {
    fn new() -> Self {
        CellLog {
            patches: Vec::new(),
            retained_from: 1,
        }
    }

    fn push(&mut self, p: MembershipPatch) {
        if self.patches.len() == CELL_LOG_CAP {
            self.retained_from = self.patches[0].seq + 1;
            self.patches.remove(0);
        }
        self.patches.push(p);
    }
}

crate::snap_struct!(CellLog {
    patches,
    retained_from
});

/// One transmitter's cached fan-out state (see [`FanOutCache`]).
#[derive(Debug, Clone)]
struct TxEntry {
    /// The grid cell the transmitter occupied when `superset` was captured;
    /// a transmitter that changed cells always rebuilds.
    home_cell: u32,
    /// Value of the cache epoch when `superset` was captured: current while
    /// no cell of the 3×3 block has a newer membership epoch.
    seen_membership: u64,
    /// Value of the cache epoch when `list` was filtered: valid while no
    /// cell of the block has a newer motion epoch.
    seen_motion: u64,
    /// Global patch sequence the superset is synchronized to: applying every
    /// retained block-cell patch with a larger `seq` brings it current.
    seen_seq: u64,
    /// Every node bucketed in the 3×3 cell block around `home_cell`,
    /// NodeId-ascending — a superset of all possible candidates.
    superset: Vec<u32>,
    /// `superset` filtered through the exact floor predicate, with
    /// geometry-derived quantities precomputed.
    list: Vec<Candidate>,
}

crate::snap_struct!(TxEntry {
    home_cell,
    seen_membership,
    seen_motion,
    seen_seq,
    superset,
    list,
});

/// Geometry caches for [`PhysicalMedium`], maintained incrementally across
/// position changes.
///
/// Invalidation is per-cell, not global: every mobility tick advances
/// `epoch`, and each move stamps that epoch onto the affected cells — onto
/// the **membership** epoch of the cells a node left/entered (the set of
/// nodes bucketed there changed) and onto the **motion** epoch of any cell
/// containing a node that moved at all (distances from nearby transmitters
/// changed, membership did not). A transmitter's cached state is then aged
/// against the 3×3 cell block around it:
///
/// * block membership newer than the entry → rebuild superset and list from
///   the grid (the only path that queries and sorts);
/// * block motion newer → re-filter the cached superset (distance math only,
///   no query, no sort, no allocation);
/// * neither → replay the cached list unchanged.
///
/// The block covers every node within the candidate radius of the
/// transmitter (cells are at least that wide), so correctness never depends
/// on the epochs being precise — only on them never going backwards.
#[derive(Debug, Clone)]
struct FanOutCache {
    /// The positions the grid and entries are maintained against; checked
    /// (debug builds) to catch positions changing without
    /// `positions_changed`/`invalidate_positions`.
    positions: Vec<Pos>,
    /// Search radius covering every node that can pass the floor predicate;
    /// anything farther is rejected on squared distance alone, skipping the
    /// expensive path-loss evaluation for most of a cell block.
    candidate_range_m: f64,
    grid: NeighborIndex,
    /// Block radius in cells: `rings × grid.cell_size_m()` covers
    /// `candidate_range_m`, so the `(2·rings+1)²` block around a
    /// transmitter's cell is a superset of its audible disc.
    rings: usize,
    /// Monotone tick counter; cell epochs are stamped from it.
    epoch: u64,
    /// Per-cell membership/motion epochs (see [`CellEpochs`]).
    cell_epochs: Vec<CellEpochs>,
    /// Per-cell membership patch logs (see [`CellLog`]).
    cell_logs: Vec<CellLog>,
    /// Last [`MembershipPatch::seq`] issued (0 before any crossing).
    last_seq: u64,
    /// Lazily-built per-transmitter entries.
    per_tx: Vec<Option<TxEntry>>,
    /// Scratch for the refilter distance pass: `(node, d_sq)` survivors.
    near_scratch: Vec<(u32, f64)>,
    /// Scratch for collecting block-cell patches in sequence order.
    patch_scratch: Vec<MembershipPatch>,
    /// Precomputed path-loss evaluator, bit-identical to the medium's
    /// [`PhyParams::mean_rx_power_w`] (rebuilt with the cache whenever the
    /// medium's parameters change).
    eval: MeanPowerEval,
}

impl FanOutCache {
    fn new(positions: &[Pos], phy: &PhyParams, floor_w: f64) -> Self {
        // Smallest distance already below the floor predicate, padded so
        // bisection slop can't exclude a passing node; the exact per-node
        // predicate decides membership either way.
        let candidate_range_m = phy.range_for_mean_power(floor_w / 100.0) * 1.001 + 1.0;
        // Full-range cells: finer cells shrink the superset scan but double
        // the crossing rate (and with it patch/epoch traffic), which costs
        // more than the scan saves at realistic densities. `rings` is
        // computed rather than assumed so the invariant
        // `rings × cell ≥ candidate_range` survives the grid widening its
        // cells (per-axis cap or degenerate extents).
        let grid = NeighborIndex::build(positions, candidate_range_m);
        let mut rings = 1usize;
        while (rings as f64) * grid.cell_size_m() < candidate_range_m {
            rings += 1;
        }
        let (cols, rows) = grid.grid_dims();
        FanOutCache {
            positions: positions.to_vec(),
            candidate_range_m,
            grid,
            rings,
            epoch: 0,
            cell_epochs: vec![CellEpochs::default(); cols * rows],
            cell_logs: vec![CellLog::new(); cols * rows],
            last_seq: 0,
            per_tx: vec![None; positions.len()],
            near_scratch: Vec::new(),
            patch_scratch: Vec::new(),
            eval: phy.mean_power_eval(),
        }
    }

    // mesh-lint: hot(index-replay)
    /// Absorb one mobility tick's moves, stamping epochs onto the affected
    /// cells. `stats` is the owning medium's maintenance ledger.
    fn absorb_moves(&mut self, moves: &[PositionDelta], stats: &mut IndexStats) {
        self.epoch += 1;
        let epoch = self.epoch;
        let mut bump = |slot: &mut u64| {
            if *slot != epoch {
                *slot = epoch;
                stats.epoch_bumps += 1;
            }
        };
        for mv in moves {
            let i = mv.node.index();
            self.positions[i] = mv.to;
            match self.grid.update_position(i as u32, mv.to) {
                Some((old, new)) => {
                    stats.rebuckets += 1;
                    bump(&mut self.cell_epochs[old].membership);
                    bump(&mut self.cell_epochs[old].motion);
                    bump(&mut self.cell_epochs[new].membership);
                    bump(&mut self.cell_epochs[new].motion);
                    // Log the crossing, removal first, so cached supersets
                    // can replay membership changes in order.
                    self.last_seq += 1;
                    self.cell_logs[old].push(MembershipPatch {
                        seq: self.last_seq,
                        node: i as u32,
                        added: false,
                    });
                    self.last_seq += 1;
                    self.cell_logs[new].push(MembershipPatch {
                        seq: self.last_seq,
                        node: i as u32,
                        added: true,
                    });
                }
                None => bump(&mut self.cell_epochs[self.grid.node_cell(i as u32)].motion),
            }
        }
    }

    /// Filter `entry.superset` through the exact floor predicate into
    /// `entry.list`, invoking `visit` on each candidate as it is produced
    /// (so a refresh feeds the caller in the same single pass that rebuilds
    /// the list). Membership and order match the full naive scan: the
    /// superset is NodeId-ascending and the predicate is the same, so the
    /// visit sequence draws the same RNG stream as the full scan.
    fn refilter(
        entry: &mut TxEntry,
        scratch: &mut Vec<(u32, f64)>,
        positions: &[Pos],
        p: RefilterParams,
        mut visit: impl FnMut(&Candidate),
    ) {
        let RefilterParams {
            tx,
            candidate_range_m,
            floor_w,
            eval,
        } = p;
        let src = positions[tx.index()];
        // Everything passing the floor predicate lies strictly inside the
        // (padded) candidate range, so nodes beyond it are rejected on
        // squared distance alone — no path-loss math for the bulk of the
        // cell block that merely surrounds the audible disc. The distance
        // pass is branchless (survivors are compacted by a conditional
        // index bump) so the superset scan pipelines regardless of how
        // node order interleaves near and far nodes.
        let range_sq = candidate_range_m * candidate_range_m;
        let floor = floor_w / 100.0;
        // Grow-only: every slot up to `k` is overwritten before it is read,
        // so stale contents beyond `k` never matter and the buffer is not
        // re-zeroed on each refresh.
        if scratch.len() < entry.superset.len() {
            scratch.resize(entry.superset.len(), (0, 0.0));
        }
        let mut k = 0usize;
        // The superset never contains `tx` itself (excluded at rebuild and
        // patch time), so the pass is a pure distance test.
        for &i in &entry.superset {
            let d_sq = src.distance_sq(positions[i as usize]);
            scratch[k] = (i, d_sq);
            k += usize::from(d_sq <= range_sq);
        }
        entry.list.clear();
        for &(i, d_sq) in &scratch[..k] {
            let d = d_sq.sqrt();
            let mean_w = eval.eval(d);
            if mean_w < floor {
                continue;
            }
            let c = Candidate {
                node: NodeId::new(i),
                mean_w,
                dist_m: d,
            };
            // Visit before the push: copying `c` into the list first and
            // then handing the out-of-line visitor a pointer to the spilled
            // copy stalls store forwarding, measured at about 30% of a
            // mobile fan-out.
            visit(&c);
            entry.list.push(c);
        }
    }

    /// Produce `tx`'s candidates in NodeId order, invoking `visit` once per
    /// candidate. Serves from the cached list when nothing nearby moved;
    /// otherwise patches/rebuilds the superset and re-filters, visiting each
    /// candidate in the same pass that rebuilds the list.
    fn plan_with(
        &mut self,
        tx: NodeId,
        floor_w: f64,
        stats: &mut IndexStats,
        mut visit: impl FnMut(&Candidate),
    ) {
        let params = RefilterParams {
            tx,
            candidate_range_m: self.candidate_range_m,
            floor_w,
            eval: self.eval,
        };
        let cell = self.grid.node_cell(tx.index() as u32);
        let (mut mem_max, mut mot_max) = (0u64, 0u64);
        self.grid.for_each_block_cell(cell, self.rings, |c| {
            let e = self.cell_epochs[c];
            mem_max = mem_max.max(e.membership);
            mot_max = mot_max.max(e.motion);
        });
        let slot = &mut self.per_tx[tx.index()];
        let stale_superset = match slot {
            Some(e) => e.home_cell as usize != cell || e.seen_membership < mem_max,
            None => true,
        };
        if stale_superset {
            // A stale superset is usually a few cell crossings old, not
            // wrong everywhere: if every block cell still retains all
            // patches newer than the superset, replaying them (ordered
            // insert/remove) brings it current without a grid query or a
            // sort. Only log overflow or a transmitter that itself changed
            // cells forces the full rebuild.
            let patchable = match slot {
                Some(e) if e.home_cell as usize == cell => {
                    let seen = e.seen_seq;
                    self.patch_scratch.clear();
                    let mut ok = true;
                    let (logs, patches) = (&self.cell_logs, &mut self.patch_scratch);
                    self.grid.for_each_block_cell(cell, self.rings, |c| {
                        let log = &logs[c];
                        ok &= seen + 1 >= log.retained_from;
                        // Logs are seq-ascending, so the patches newer than
                        // the entry are exactly the tail past the partition
                        // point — typically empty or a couple of entries,
                        // never a scan of the whole retained history.
                        let start = log.patches.partition_point(|p| p.seq <= seen);
                        patches.extend_from_slice(&log.patches[start..]);
                    });
                    ok
                }
                _ => false,
            };
            let entry = slot.get_or_insert_with(|| TxEntry {
                home_cell: 0,
                seen_membership: 0,
                seen_motion: 0,
                seen_seq: 0,
                // mesh-lint: allow(R8, "capacity-0 Vec::new() does not allocate; the buffers grow on the entry's first rebuild only")
                superset: Vec::new(),
                // mesh-lint: allow(R8, "capacity-0 Vec::new() does not allocate; the buffers grow on the entry's first rebuild only")
                list: Vec::new(),
            });
            if patchable {
                stats.cache_refreshes += 1;
                self.patch_scratch.sort_unstable_by_key(|p| p.seq);
                for p in &self.patch_scratch {
                    // The transmitter is never a member of its own superset;
                    // its crossings (which kept `home_cell` unchanged, or we
                    // would be rebuilding) replay as no-ops.
                    if p.node as usize == tx.index() {
                        continue;
                    }
                    match (p.added, entry.superset.binary_search(&p.node)) {
                        (true, Err(at)) => entry.superset.insert(at, p.node),
                        (false, Ok(at)) => {
                            entry.superset.remove(at);
                        }
                        // A patch re-adding a present node (or removing an
                        // absent one) cannot happen: patches replay the
                        // grid's own bucket operations in sequence order.
                        (added, _) => debug_assert!(false, "inconsistent patch added={added}"),
                    }
                }
            } else {
                stats.cache_rebuilds += 1;
                entry.home_cell = cell as u32;
                entry.superset.clear();
                self.grid
                    .nodes_in_block(cell, self.rings, &mut entry.superset);
                // NodeId-ascending so the RNG draw order matches the full
                // scan; the transmitter itself (always bucketed in its own
                // block) is excluded so the refilter pass needs no self-test.
                entry.superset.sort_unstable();
                if let Ok(at) = entry.superset.binary_search(&(tx.index() as u32)) {
                    entry.superset.remove(at);
                }
            }
            entry.seen_membership = self.epoch;
            entry.seen_motion = self.epoch;
            entry.seen_seq = self.last_seq;
            Self::refilter(
                entry,
                &mut self.near_scratch,
                &self.positions,
                params,
                visit,
            );
        } else {
            // mesh-lint: allow(R6, "stale_superset above is true whenever the slot is None, so this branch only runs on an occupied slot")
            let entry = slot.as_mut().expect("entry exists when not stale");
            if entry.seen_motion < mot_max {
                stats.cache_refreshes += 1;
                entry.seen_motion = self.epoch;
                entry.seen_seq = self.last_seq;
                Self::refilter(
                    entry,
                    &mut self.near_scratch,
                    &self.positions,
                    params,
                    visit,
                );
            } else {
                stats.cache_hits += 1;
                for c in &entry.list {
                    visit(c);
                }
            }
        }
    }
    // mesh-lint: end-hot

    /// Write the cache's mutable state. The derived fields are recomputed
    /// on restore and the scratch buffers restore empty.
    fn snap_state(&self, w: &mut SnapWriter) {
        let FanOutCache {
            positions,
            candidate_range_m: _, // derived from the PHY configuration
            grid,
            rings: _, // derived from `candidate_range_m` and the grid's cells
            epoch,
            cell_epochs,
            cell_logs,
            last_seq,
            per_tx,
            near_scratch: _,  // scratch
            patch_scratch: _, // scratch
            eval: _,          // derived from the PHY configuration
        } = self;
        positions.snap(w);
        grid.snap(w);
        epoch.snap(w);
        cell_epochs.snap(w);
        cell_logs.snap(w);
        last_seq.snap(w);
        per_tx.snap(w);
    }

    /// Rebuild a cache from a checkpoint written by
    /// [`FanOutCache::snap_state`]. The serialized grid keeps the frame it
    /// was built with (fixed at the *initial* positions), so `rings` is
    /// recomputed against its cell size — building a fresh grid from the
    /// current (moved) positions could choose a different frame and diverge.
    fn unsnap_state(
        r: &mut SnapReader<'_>,
        phy: &PhyParams,
        floor_w: f64,
    ) -> Result<Self, SnapError> {
        let positions: Vec<Pos> = Snap::unsnap(r)?;
        let grid: NeighborIndex = Snap::unsnap(r)?;
        let epoch = r.u64()?;
        let cell_epochs: Vec<CellEpochs> = Snap::unsnap(r)?;
        let cell_logs: Vec<CellLog> = Snap::unsnap(r)?;
        let last_seq = r.u64()?;
        let per_tx: Vec<Option<TxEntry>> = Snap::unsnap(r)?;
        let (cols, rows) = grid.grid_dims();
        let n = positions.len();
        if cell_epochs.len() != cols * rows
            || cell_logs.len() != cols * rows
            || per_tx.len() != n
            || grid.len() != n
        {
            return Err(SnapError::StateMismatch("fan-out cache geometry"));
        }
        // A fan-out indexes positions by every node an entry or a patch
        // names, and patches by binary search into the superset.
        if cell_logs
            .iter()
            .any(|log| log.patches.iter().any(|p| p.node as usize >= n))
        {
            return Err(SnapError::StateMismatch("fan-out cache patch node"));
        }
        for (tx, entry) in per_tx.iter().enumerate() {
            let Some(e) = entry else { continue };
            if e.home_cell as usize >= cols * rows
                || !e.superset.is_sorted_by(|a, b| a < b)
                || e.superset.last().is_some_and(|&i| i as usize >= n)
                || e.superset.binary_search(&(tx as u32)).is_ok()
                || e.list.iter().any(|c| c.node.index() >= n)
            {
                return Err(SnapError::StateMismatch("fan-out cache entry"));
            }
        }
        let candidate_range_m = phy.range_for_mean_power(floor_w / 100.0) * 1.001 + 1.0;
        let mut rings = 1usize;
        while (rings as f64) * grid.cell_size_m() < candidate_range_m {
            rings += 1;
        }
        Ok(FanOutCache {
            positions,
            candidate_range_m,
            grid,
            rings,
            epoch,
            cell_epochs,
            cell_logs,
            last_seq,
            per_tx,
            near_scratch: Vec::new(),
            patch_scratch: Vec::new(),
            eval: phy.mean_power_eval(),
        })
    }
}

/// Physics-based medium: path loss + fading from node positions.
///
/// By default the medium runs **indexed**: per-transmitter candidate lists
/// (who can possibly hear me, at what mean power and delay) are computed once
/// per positions snapshot via a [`NeighborIndex`] grid and replayed per
/// frame, so static topologies pay the O(N) geometry math once instead of
/// per transmission. Every mobility tick reports its moves through
/// [`Medium::positions_changed`], which re-buckets the moved nodes and
/// stamps epochs on the cells they touched, so the next fan-out refreshes
/// only the cached lists near them. [`Medium::invalidate_positions`] drops
/// the caches wholesale; the world calls it only when a mobility model is
/// attached.
///
/// Determinism is preserved exactly: candidate membership is the same
/// predicate the full scan applies, lists are NodeId-ascending, and fading is
/// sampled from the cached mean with the same RNG draws — a fixed
/// `(config, seed)` produces bit-identical results with indexing on or off.
#[derive(Debug, Clone)]
pub struct PhysicalMedium {
    phy: PhyParams,
    /// Powers below `cs_threshold * floor_factor` are dropped outright; they
    /// cannot affect carrier sense or capture in the reception model.
    floor_w: f64,
    indexed: bool,
    stats: IndexStats,
    cache: Option<FanOutCache>,
    /// Fault-injected per-link overrides; empty in fault-free runs, and the
    /// fan-out fast-paths on that so clean runs draw the exact same RNG
    /// stream they did before fault injection existed. A `BTreeMap` because
    /// checkpointing serializes it in iteration order (mesh-lint rule R1).
    faults: BTreeMap<(NodeId, NodeId), LinkEffect>,
}

impl PhysicalMedium {
    /// Create a physical medium with the given PHY parameters.
    pub fn new(phy: PhyParams) -> Self {
        let floor_w = phy.cs_threshold_w;
        PhysicalMedium {
            phy,
            floor_w,
            indexed: true,
            stats: IndexStats::default(),
            cache: None,
            faults: BTreeMap::new(),
        }
    }

    /// Resolve a fault override into a possibly-adjusted power; `None` means
    /// the receiver hears nothing from this frame.
    fn apply_fault(
        faults: &BTreeMap<(NodeId, NodeId), LinkEffect>,
        tx: NodeId,
        rx: NodeId,
        power: f64,
        rng: &mut SimRng,
    ) -> Option<f64> {
        match faults.get(&(tx, rx)) {
            None => Some(power),
            Some(LinkEffect::Blackout) => None,
            Some(LinkEffect::ExtraLoss(p)) => {
                if rng.chance(*p) {
                    None
                } else {
                    Some(power)
                }
            }
        }
    }

    /// Enable or disable the spatial index / candidate caches (on by
    /// default). Disabled, every fan-out is a full O(N) scan — useful as the
    /// reference implementation in equivalence tests and benchmarks.
    pub fn with_indexing(mut self, indexed: bool) -> Self {
        self.indexed = indexed;
        self.cache = None;
        self
    }

    fn fan_out_scan(&self, tx: NodeId, positions: &[Pos], rng: &mut SimRng, out: &mut Vec<RxPlan>) {
        let src = positions[tx.index()];
        for (i, &pos) in positions.iter().enumerate() {
            if i == tx.index() {
                continue;
            }
            let d = src.distance_to(pos);
            // Skip nodes whose *mean* power is hopelessly below the floor
            // (fading is unit-mean; a 100x margin keeps the tail harmless
            // while pruning the fan-out for large networks).
            if self.phy.mean_rx_power_w(d) < self.floor_w / 100.0 {
                continue;
            }
            let mut power = self.phy.sample_rx_power_w(d, rng);
            if !self.faults.is_empty() {
                match Self::apply_fault(&self.faults, tx, NodeId::new(i as u32), power, rng) {
                    Some(p) => power = p,
                    None => continue,
                }
            }
            if power < self.floor_w {
                continue;
            }
            out.push(RxPlan {
                node: NodeId::new(i as u32),
                power_w: power,
                delay: self.phy.propagation_delay(d),
            });
        }
    }
}

impl Default for PhysicalMedium {
    fn default() -> Self {
        PhysicalMedium::new(PhyParams::default())
    }
}

impl Medium for PhysicalMedium {
    // mesh-lint: hot(fan-out)
    fn fan_out(
        &mut self,
        tx: NodeId,
        positions: &[Pos],
        _now: SimTime,
        rng: &mut SimRng,
        out: &mut Vec<RxPlan>,
    ) {
        if !self.indexed {
            self.fan_out_scan(tx, positions, rng, out);
            return;
        }
        let Self {
            cache,
            phy,
            floor_w,
            faults,
            stats,
            ..
        } = self;
        let cache = match cache {
            Some(c) if c.positions.len() == positions.len() => c,
            slot => slot.insert(FanOutCache::new(positions, phy, *floor_w)),
        };
        debug_assert_eq!(
            cache.positions, positions,
            "positions changed without Medium::positions_changed()"
        );
        let floor_w = *floor_w;
        cache.plan_with(tx, floor_w, stats, |c| {
            let mut power = phy.sample_from_mean_w(c.mean_w, rng);
            if !faults.is_empty() {
                match Self::apply_fault(faults, tx, c.node, power, rng) {
                    Some(p) => power = p,
                    None => return,
                }
            }
            if power < floor_w {
                return;
            }
            // The delay is computed only here, for plans that are emitted.
            out.push(RxPlan {
                node: c.node,
                power_w: power,
                delay: phy.propagation_delay(c.dist_m),
            });
        });
    }
    // mesh-lint: end-hot

    fn phy(&self) -> &PhyParams {
        &self.phy
    }

    fn invalidate_positions(&mut self) {
        if self.indexed && self.cache.is_some() {
            self.stats.full_invalidations += 1;
        }
        self.cache = None;
    }

    fn positions_changed(&mut self, moves: &[PositionDelta], positions: &[Pos]) {
        if !self.indexed {
            return; // the scan path reads positions directly, nothing cached
        }
        match self.cache.as_mut() {
            // Not built yet (or node count changed — not a supported move
            // set): the next fan_out builds from the current positions.
            Some(c) if c.positions.len() != positions.len() => self.cache = None,
            Some(c) => c.absorb_moves(moves, &mut self.stats),
            None => {}
        }
    }

    fn index_stats(&self) -> Option<IndexStats> {
        self.indexed.then_some(self.stats)
    }

    fn set_link_fault(&mut self, from: NodeId, to: NodeId, effect: LinkEffect) {
        self.faults.insert((from, to), effect);
    }

    fn clear_link_fault(&mut self, from: NodeId, to: NodeId) {
        self.faults.remove(&(from, to));
    }

    fn snapshot_state(&self, w: &mut SnapWriter) {
        let PhysicalMedium {
            phy: _,     // scenario configuration
            floor_w: _, // derived from `phy`
            indexed: _, // scenario configuration
            stats,
            cache,
            faults,
        } = self;
        stats.snap(w);
        faults.snap(w);
        match cache {
            Some(c) => {
                w.put_bool(true);
                c.snap_state(w);
            }
            None => w.put_bool(false),
        }
    }

    fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.stats = Snap::unsnap(r)?;
        self.faults = Snap::unsnap(r)?;
        self.cache = if r.bool()? {
            Some(FanOutCache::unsnap_state(r, &self.phy, self.floor_w)?)
        } else {
            None
        };
        Ok(())
    }

    fn check_positions(&self, positions: &[Pos]) -> Result<(), SnapError> {
        match &self.cache {
            Some(c) if c.positions != positions => {
                Err(SnapError::StateMismatch("fan-out cache positions"))
            }
            _ => Ok(()),
        }
    }
}

/// Trace/table-driven medium: reception is a Bernoulli trial per directed
/// link, ignoring positions and physics.
///
/// This models environments — like the paper's indoor testbed — where link
/// quality is dominated by obstacles rather than distance. A lost frame is
/// still delivered to the receiver *below the decode threshold*, so it
/// occupies the channel (carrier sense, collisions) exactly like a real
/// corrupted frame would.
///
/// Links absent from the table can never carry or interfere. Loss
/// probabilities may be changed between events ([`LinkTableMedium::set_loss`])
/// to model temporal variation.
#[derive(Debug, Clone)]
pub struct LinkTableMedium {
    phy: PhyParams,
    /// Directed link -> loss probability in `[0, 1]`. A `BTreeMap` because
    /// `rebuild_adjacency` traverses it; hash-order traversal is banned in
    /// this crate (mesh-lint rule R1). The `faults` maps are `BTreeMap`s for
    /// the same reason: checkpointing serializes them in iteration order.
    links: BTreeMap<(NodeId, NodeId), f64>,
    /// Per-transmitter outgoing links `(receiver, loss)` sorted by receiver,
    /// so `fan_out` iterates actual links instead of probing the map per
    /// node. Rebuilt lazily after any mutation.
    adjacency: Vec<Vec<(NodeId, f64)>>,
    adjacency_stale: bool,
    /// Fixed propagation delay applied to every link.
    delay: SimDuration,
    /// Fault-injected per-link overrides. These compose with (rather than
    /// replace) the base loss process set via [`LinkTableMedium::set_loss`]:
    /// an `ExtraLoss(p)` makes the effective loss `1 - (1-base)(1-p)`.
    faults: BTreeMap<(NodeId, NodeId), LinkEffect>,
}

impl LinkTableMedium {
    /// Create an empty table medium (no links).
    pub fn new() -> Self {
        LinkTableMedium {
            // Thresholds are kept from the default PHY; emitted powers are
            // chosen relative to them.
            phy: PhyParams::default(),
            links: BTreeMap::new(),
            adjacency: Vec::new(),
            adjacency_stale: false,
            delay: SimDuration::from_nanos(200),
            faults: BTreeMap::new(),
        }
    }

    /// Add (or update) a **bidirectional** link with the given loss
    /// probability in each direction.
    ///
    /// # Panics
    ///
    /// Panics if `loss` is not in `[0, 1]`.
    pub fn add_link(&mut self, a: NodeId, b: NodeId, loss: f64) -> &mut Self {
        assert!((0.0..=1.0).contains(&loss), "loss must be a probability");
        self.links.insert((a, b), loss);
        self.links.insert((b, a), loss);
        self.adjacency_stale = true;
        self
    }

    /// Set the loss probability of one **directed** link (must exist).
    ///
    /// # Panics
    ///
    /// Panics if the link does not exist or `loss` is not in `[0, 1]`.
    pub fn set_loss(&mut self, from: NodeId, to: NodeId, loss: f64) {
        assert!((0.0..=1.0).contains(&loss), "loss must be a probability");
        let slot = self
            .links
            .get_mut(&(from, to))
            // mesh-lint: allow(R6, "documented # Panics contract: scenario construction API, misuse is a caller bug caught before any run starts")
            .expect("link must be added before set_loss");
        *slot = loss;
        // Membership and order are unchanged; patch the adjacency in place
        // (media like the testbed walk losses every few sim-seconds, and a
        // full rebuild per walk step would defeat the point of the lists).
        if !self.adjacency_stale {
            if let Some(list) = self.adjacency.get_mut(from.index()) {
                if let Ok(i) = list.binary_search_by_key(&to, |&(n, _)| n) {
                    list[i].1 = loss;
                }
            }
        }
    }

    /// Current loss probability of a directed link, if present.
    pub fn loss(&self, from: NodeId, to: NodeId) -> Option<f64> {
        self.links.get(&(from, to)).copied()
    }

    /// Directed links in the table.
    pub fn num_links(&self) -> usize {
        self.links.len()
    }

    fn rebuild_adjacency(&mut self) {
        let n = self
            .links
            .keys()
            .map(|&(from, _)| from.index() + 1)
            .max()
            .unwrap_or(0);
        self.adjacency.clear();
        self.adjacency.resize(n, Vec::new());
        for (&(from, to), &loss) in &self.links {
            self.adjacency[from.index()].push((to, loss));
        }
        for list in &mut self.adjacency {
            // NodeId-ascending: the RNG draw order must match the old
            // 0..N map-probe loop.
            list.sort_unstable_by_key(|&(node, _)| node);
        }
        self.adjacency_stale = false;
    }
}

impl Default for LinkTableMedium {
    fn default() -> Self {
        LinkTableMedium::new()
    }
}

impl Medium for LinkTableMedium {
    fn fan_out(
        &mut self,
        tx: NodeId,
        positions: &[Pos],
        _now: SimTime,
        rng: &mut SimRng,
        out: &mut Vec<RxPlan>,
    ) {
        if self.adjacency_stale {
            self.rebuild_adjacency();
        }
        let Some(list) = self.adjacency.get(tx.index()) else {
            return;
        };
        for &(node, loss) in list {
            // The old full scan only considered ids below the positions
            // length and never the transmitter; keep both for identical
            // RNG draw order.
            if node == tx || node.index() >= positions.len() {
                continue;
            }
            // Fault overrides fold into the link's loss process so each link
            // still costs exactly one RNG draw; fault-free runs take the
            // empty-map fast path and draw the identical stream.
            let fault = if self.faults.is_empty() {
                None
            } else {
                self.faults.get(&(tx, node))
            };
            if matches!(fault, Some(LinkEffect::Blackout)) {
                continue;
            }
            let eff_loss = match fault {
                Some(LinkEffect::ExtraLoss(p)) => 1.0 - (1.0 - loss) * (1.0 - p),
                _ => loss,
            };
            let decodable = !rng.chance(eff_loss);
            let power = if decodable {
                self.phy.rx_threshold_w * 10.0
            } else {
                // Below decode, above carrier sense: busies the channel.
                self.phy.cs_threshold_w * 2.0
            };
            out.push(RxPlan {
                node,
                power_w: power,
                delay: self.delay,
            });
        }
    }

    fn phy(&self) -> &PhyParams {
        &self.phy
    }

    fn set_link_fault(&mut self, from: NodeId, to: NodeId, effect: LinkEffect) {
        self.faults.insert((from, to), effect);
    }

    fn clear_link_fault(&mut self, from: NodeId, to: NodeId) {
        self.faults.remove(&(from, to));
    }

    fn snapshot_state(&self, w: &mut SnapWriter) {
        // `links` mutates at runtime (testbed loss walks via `set_loss`);
        // the adjacency lists are derived, so only staleness is implied —
        // restore marks them stale and the next fan_out rebuilds.
        let LinkTableMedium {
            phy: _, // scenario configuration
            links,
            adjacency: _,       // derived from `links`
            adjacency_stale: _, // restore marks the adjacency stale
            delay: _,           // scenario configuration
            faults,
        } = self;
        links.snap(w);
        faults.snap(w);
    }

    fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.links = Snap::unsnap(r)?;
        self.faults = Snap::unsnap(r)?;
        self.adjacency.clear();
        self.adjacency_stale = true;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn positions() -> Vec<Pos> {
        vec![
            Pos::new(0.0, 0.0),
            Pos::new(100.0, 0.0),
            Pos::new(400.0, 0.0),
            Pos::new(5000.0, 0.0),
        ]
    }

    #[test]
    fn fan_out_excludes_sender() {
        let mut m = PhysicalMedium::default();
        let mut rng = SimRng::seed_from(1);
        let mut out = Vec::new();
        m.fan_out(
            NodeId::new(0),
            &positions(),
            SimTime::ZERO,
            &mut rng,
            &mut out,
        );
        assert!(out.iter().all(|p| p.node != NodeId::new(0)));
    }

    #[test]
    fn far_node_never_hears() {
        let mut m = PhysicalMedium::default();
        let mut rng = SimRng::seed_from(2);
        for _ in 0..200 {
            let mut out = Vec::new();
            m.fan_out(
                NodeId::new(0),
                &positions(),
                SimTime::ZERO,
                &mut rng,
                &mut out,
            );
            assert!(out.iter().all(|p| p.node != NodeId::new(3)));
        }
    }

    #[test]
    fn near_node_usually_hears_strongly() {
        let mut m = PhysicalMedium::default();
        let mut rng = SimRng::seed_from(3);
        let mut decodable = 0;
        let trials = 500;
        for _ in 0..trials {
            let mut out = Vec::new();
            m.fan_out(
                NodeId::new(0),
                &positions(),
                SimTime::ZERO,
                &mut rng,
                &mut out,
            );
            if out
                .iter()
                .any(|p| p.node == NodeId::new(1) && p.power_w >= m.phy().rx_threshold_w)
            {
                decodable += 1;
            }
        }
        assert!(decodable as f64 / trials as f64 > 0.85);
    }

    #[test]
    fn delays_increase_with_distance() {
        let mut m = PhysicalMedium::new(PhyParams {
            fading: crate::propagation::FadingModel::None,
            ..PhyParams::default()
        });
        let mut rng = SimRng::seed_from(4);
        let mut out = Vec::new();
        m.fan_out(
            NodeId::new(0),
            &positions(),
            SimTime::ZERO,
            &mut rng,
            &mut out,
        );
        let d1 = out.iter().find(|p| p.node == NodeId::new(1)).unwrap().delay;
        let d2 = out.iter().find(|p| p.node == NodeId::new(2)).unwrap().delay;
        assert!(d2 > d1);
    }

    #[test]
    fn no_fading_fan_out_is_deterministic() {
        let mut m = PhysicalMedium::new(PhyParams {
            fading: crate::propagation::FadingModel::None,
            ..PhyParams::default()
        });
        let mut rng = SimRng::seed_from(5);
        let mut a = Vec::new();
        let mut b = Vec::new();
        m.fan_out(
            NodeId::new(0),
            &positions(),
            SimTime::ZERO,
            &mut rng,
            &mut a,
        );
        m.fan_out(
            NodeId::new(0),
            &positions(),
            SimTime::ZERO,
            &mut rng,
            &mut b,
        );
        assert_eq!(a, b);
    }

    #[test]
    fn link_table_respects_topology() {
        let mut m = LinkTableMedium::new();
        m.add_link(NodeId::new(0), NodeId::new(1), 0.0);
        assert_eq!(m.num_links(), 2);
        let mut rng = SimRng::seed_from(6);
        let mut out = Vec::new();
        m.fan_out(
            NodeId::new(0),
            &positions(),
            SimTime::ZERO,
            &mut rng,
            &mut out,
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].node, NodeId::new(1));
        assert!(out[0].power_w >= m.phy().rx_threshold_w);
        // Node 2 has no link from 0: never appears.
        out.clear();
        m.fan_out(
            NodeId::new(2),
            &positions(),
            SimTime::ZERO,
            &mut rng,
            &mut out,
        );
        assert!(out.is_empty());
    }

    #[test]
    fn link_table_loss_rate_matches_probability() {
        let mut m = LinkTableMedium::new();
        m.add_link(NodeId::new(0), NodeId::new(1), 0.4);
        let mut rng = SimRng::seed_from(7);
        let trials = 20_000;
        let mut decoded = 0;
        let mut out = Vec::new();
        for _ in 0..trials {
            out.clear();
            m.fan_out(
                NodeId::new(0),
                &positions(),
                SimTime::ZERO,
                &mut rng,
                &mut out,
            );
            // A lost frame is still sensed, just not decodable.
            assert_eq!(out.len(), 1);
            if out[0].power_w >= m.phy().rx_threshold_w {
                decoded += 1;
            }
        }
        let rate = decoded as f64 / trials as f64;
        assert!((rate - 0.6).abs() < 0.02, "rate={rate}");
    }

    #[test]
    fn link_table_set_loss_updates_direction() {
        let mut m = LinkTableMedium::new();
        m.add_link(NodeId::new(0), NodeId::new(1), 0.1);
        m.set_loss(NodeId::new(0), NodeId::new(1), 0.9);
        assert_eq!(m.loss(NodeId::new(0), NodeId::new(1)), Some(0.9));
        assert_eq!(m.loss(NodeId::new(1), NodeId::new(0)), Some(0.1));
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn link_table_rejects_bad_loss() {
        LinkTableMedium::new().add_link(NodeId::new(0), NodeId::new(1), 1.5);
    }

    #[test]
    fn link_table_blackout_silences_one_direction() {
        let mut m = LinkTableMedium::new();
        m.add_link(NodeId::new(0), NodeId::new(1), 0.0);
        m.set_link_fault(NodeId::new(0), NodeId::new(1), LinkEffect::Blackout);
        let mut rng = SimRng::seed_from(8);
        let mut out = Vec::new();
        m.fan_out(
            NodeId::new(0),
            &positions(),
            SimTime::ZERO,
            &mut rng,
            &mut out,
        );
        assert!(out.is_empty(), "blacked-out link emitted {out:?}");
        // Reverse direction unaffected.
        m.fan_out(
            NodeId::new(1),
            &positions(),
            SimTime::ZERO,
            &mut rng,
            &mut out,
        );
        assert_eq!(out.len(), 1);
        // Clearing restores the link.
        m.clear_link_fault(NodeId::new(0), NodeId::new(1));
        out.clear();
        m.fan_out(
            NodeId::new(0),
            &positions(),
            SimTime::ZERO,
            &mut rng,
            &mut out,
        );
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn link_table_extra_loss_composes_with_base() {
        let mut m = LinkTableMedium::new();
        m.add_link(NodeId::new(0), NodeId::new(1), 0.2);
        m.set_link_fault(NodeId::new(0), NodeId::new(1), LinkEffect::ExtraLoss(0.5));
        let mut rng = SimRng::seed_from(9);
        let trials = 20_000;
        let mut decoded = 0;
        let mut out = Vec::new();
        for _ in 0..trials {
            out.clear();
            m.fan_out(
                NodeId::new(0),
                &positions(),
                SimTime::ZERO,
                &mut rng,
                &mut out,
            );
            if out[0].power_w >= m.phy().rx_threshold_w {
                decoded += 1;
            }
        }
        // Effective delivery = (1-0.2)*(1-0.5) = 0.4.
        let rate = decoded as f64 / trials as f64;
        assert!((rate - 0.4).abs() < 0.02, "rate={rate}");
    }

    #[test]
    fn physical_blackout_silences_until_cleared() {
        let phy = PhyParams {
            fading: crate::propagation::FadingModel::None,
            ..PhyParams::default()
        };
        let mut m = PhysicalMedium::new(phy);
        let mut rng = SimRng::seed_from(11);
        let mut out = Vec::new();
        m.fan_out(
            NodeId::new(0),
            &positions(),
            SimTime::ZERO,
            &mut rng,
            &mut out,
        );
        let clean_power = out
            .iter()
            .find(|p| p.node == NodeId::new(1))
            .expect("node 1 in range")
            .power_w;

        m.set_link_fault(NodeId::new(0), NodeId::new(1), LinkEffect::Blackout);
        out.clear();
        m.fan_out(
            NodeId::new(0),
            &positions(),
            SimTime::ZERO,
            &mut rng,
            &mut out,
        );
        assert!(out.iter().all(|p| p.node != NodeId::new(1)));

        m.clear_link_fault(NodeId::new(0), NodeId::new(1));
        out.clear();
        m.fan_out(
            NodeId::new(0),
            &positions(),
            SimTime::ZERO,
            &mut rng,
            &mut out,
        );
        let restored = out.iter().find(|p| p.node == NodeId::new(1));
        assert_eq!(restored.map(|p| p.power_w), Some(clean_power));
    }

    #[test]
    fn link_effect_tag_1_is_rejected() {
        for effect in [LinkEffect::ExtraLoss(0.25), LinkEffect::Blackout] {
            let mut w = SnapWriter::new();
            effect.snap(&mut w);
            let bytes = w.into_bytes();
            assert_eq!(LinkEffect::unsnap(&mut SnapReader::new(&bytes)), Ok(effect));
        }
        let mut w = SnapWriter::new();
        w.put_u8(1);
        w.put_f64(0.5);
        let bytes = w.into_bytes();
        assert_eq!(
            LinkEffect::unsnap(&mut SnapReader::new(&bytes)),
            Err(SnapError::BadTag(1))
        );
    }

    /// A cache whose grid indexes fewer nodes than it has positions was
    /// restored before, and the next mobility tick moving the missing node
    /// indexed past the grid's `node_cell`.
    #[test]
    fn restore_rejects_a_cache_whose_grid_indexes_other_nodes() {
        let p = positions();
        let mut m = PhysicalMedium::default();
        let mut rng = SimRng::seed_from(3);
        m.fan_out(NodeId::new(0), &p, SimTime::ZERO, &mut rng, &mut Vec::new());
        let cache = m.cache.as_mut().expect("the fan-out built the cache");
        // Node 1 lies inside the bounding box, so the frame stays the same.
        let short = NeighborIndex::build(&[p[0], p[2], p[3]], cache.grid.cell_size_m());
        assert_eq!(short.grid_dims(), cache.grid.grid_dims());
        cache.grid = short;
        let mut w = SnapWriter::new();
        m.snapshot_state(&mut w);
        let bytes = w.into_bytes();
        assert_eq!(
            PhysicalMedium::default()
                .restore_state(&mut SnapReader::new(&bytes))
                .unwrap_err(),
            SnapError::StateMismatch("fan-out cache geometry")
        );
    }

    /// Entries and patches whose node ids a later fan-out would index
    /// positions by, and positions that differ from the world's, restore
    /// as a [`SnapError::StateMismatch`].
    #[test]
    fn restore_rejects_cache_entries_a_fan_out_would_panic_on() {
        let p = positions();
        let mut built = PhysicalMedium::default();
        let mut rng = SimRng::seed_from(3);
        built.fan_out(NodeId::new(0), &p, SimTime::ZERO, &mut rng, &mut Vec::new());
        let restore = |m: &PhysicalMedium| {
            let mut w = SnapWriter::new();
            m.snapshot_state(&mut w);
            let mut fresh = PhysicalMedium::default();
            fresh.restore_state(&mut SnapReader::new(&w.into_bytes()))?;
            fresh.check_positions(&p)
        };
        assert_eq!(restore(&built), Ok(()));
        type Defect = fn(&mut FanOutCache);
        fn entry(c: &mut FanOutCache) -> &mut TxEntry {
            c.per_tx[0].as_mut().expect("node 0 sent")
        }
        let defects: [(&str, Defect); 7] = [
            ("fan-out cache entry", |c| entry(c).superset.push(4)),
            ("fan-out cache entry", |c| entry(c).superset.reverse()),
            ("fan-out cache entry", |c| entry(c).superset.insert(0, 0)),
            ("fan-out cache entry", |c| entry(c).home_cell = u32::MAX),
            ("fan-out cache entry", |c| {
                entry(c).list[0].node = NodeId::new(9)
            }),
            ("fan-out cache patch node", |c| {
                c.cell_logs[0].push(MembershipPatch {
                    seq: 1,
                    node: 4,
                    added: true,
                })
            }),
            ("fan-out cache positions", |c| c.positions[2].x += 1.0),
        ];
        for (field, defect) in defects {
            let mut m = built.clone();
            defect(m.cache.as_mut().expect("the fan-out built the cache"));
            assert_eq!(restore(&m), Err(SnapError::StateMismatch(field)));
        }
    }
}

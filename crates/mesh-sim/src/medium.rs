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
    /// Its position after the tick (equals `positions[node]`).
    pub to: Pos,
}

/// Maintenance statistics of an incrementally-maintained spatial index
/// (see [`PhysicalMedium`]). Purely observational: deliberately kept out of
/// [`crate::counters::Counters`] so indexed and naive runs still compare
/// equal counter-for-counter. They count this medium's work since it was
/// built and are not checkpointed: a restored medium rebuilds its cache and
/// counts that work again.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IndexStats {
    /// Nodes moved between grid cells by `update_position`.
    pub rebuckets: u64,
    /// Mobility ticks that moved a node, each advancing the cache's move
    /// stamp (and so staling every cached candidate list).
    pub epoch_bumps: u64,
    /// Fan-outs answered by replaying a cached candidate list unchanged.
    pub cache_hits: u64,
    /// Fan-outs that rebuilt a transmitter's existing candidate list
    /// because a node moved since it was built.
    pub cache_refreshes: u64,
    /// Fan-outs that built a transmitter's first candidate list (after
    /// the cache was built, invalidated or restored).
    pub cache_rebuilds: u64,
    /// Wholesale cache invalidations (explicit
    /// [`Medium::invalidate_positions`] calls while indexed).
    pub full_invalidations: u64,
}

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
    /// keep geometry caches across ticks override this (the indexed
    /// [`PhysicalMedium`] re-buckets the movers in its grid and stales its
    /// candidate lists); the default conservatively forwards to
    /// [`Medium::invalidate_positions`], so a medium that only implements
    /// wholesale invalidation stays correct.
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
}

/// A potential receiver of one transmitter, with its geometry-derived
/// quantities precomputed. Membership is exactly the old full-scan predicate
/// `mean_rx_power_w(d) >= floor_w / 100`, and lists are NodeId-ascending, so
/// replaying a cached list draws the same RNG sequence as the full scan.
///
/// Stores the distance, not the propagation delay: like the naive scan, the
/// delay is only computed for candidates whose sampled power clears the
/// floor — a small fraction of the list — instead of for every candidate on
/// every rebuild.
#[derive(Debug, Clone, Copy)]
struct Candidate {
    node: NodeId,
    mean_w: f64,
    dist_m: f64,
}

/// Geometry caches for [`PhysicalMedium`]: a grid over the node positions
/// and one candidate list per transmitter, kept across mobility ticks.
///
/// Each list carries the move stamp it was built at. A mobility tick that
/// moves a node re-buckets the movers in the grid and advances the stamp,
/// so a fan-out either replays its transmitter's list (the stamp is
/// current) or rebuilds it from the positions (the stamp is older). The
/// rebuild visits the `(2·rings+1)²` cell block around the transmitter,
/// sets one bit per block member inside the candidate radius in a bitmap
/// indexed by NodeId, and walks the bitmap's words in order, so the list
/// comes out NodeId-ascending with no sort.
///
/// One stamp for the whole cache, not one per cell: under the paper's
/// radio the candidate radius is about 1.7 km, so the grid of every shipped
/// scenario has at most 2×2 cells and the block around any cell is the
/// whole grid, where any move reaches every list. The grid still pays on
/// sparse fields (`bench_fanout`'s 10–40 km configurations), where a block
/// leaves most nodes out and a rebuild touches only the nodes in it.
#[derive(Debug, Clone)]
struct FanOutCache {
    /// Search radius covering every node that can pass the floor predicate;
    /// anything farther is rejected on squared distance alone, skipping the
    /// expensive path-loss evaluation for most of a cell block.
    candidate_range_m: f64,
    grid: NeighborIndex,
    /// Block radius in cells: `rings × grid.cell_size_m()` covers
    /// `candidate_range_m`, so the `(2·rings+1)²` block around a
    /// transmitter's cell is a superset of its audible disc.
    rings: usize,
    /// Advanced by every mobility tick that moves a node. It starts at 1,
    /// so a list stamped 0 has never been built.
    stamp: u64,
    /// Per transmitter: the stamp its list was built at, and the list.
    lists: Vec<(u64, Vec<Candidate>)>,
    /// One bit per node: a rebuild sets the bits of the block members
    /// inside the candidate radius, and its walk clears them as it reads.
    in_range: Vec<u64>,
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
        // Full-range cells, so the block is 3×3 cells: finer cells would
        // tighten the block but multiply the cells a rebuild visits and the
        // crossings a move re-buckets. `rings` is
        // computed rather than assumed so the invariant
        // `rings × cell ≥ candidate_range` survives the grid widening its
        // cells (per-axis cap or degenerate extents).
        let grid = NeighborIndex::build(positions, candidate_range_m);
        let mut rings = 1usize;
        while (rings as f64) * grid.cell_size_m() < candidate_range_m {
            rings += 1;
        }
        FanOutCache {
            candidate_range_m,
            grid,
            rings,
            stamp: 1,
            lists: vec![(0, Vec::new()); positions.len()],
            in_range: vec![0; positions.len().div_ceil(64)],
            eval: phy.mean_power_eval(),
        }
    }

    // mesh-lint: hot(index-replay)
    /// Absorb one mobility tick's moves: re-bucket the movers and, if any
    /// node moved, advance the stamp. `stats` is the owning medium's
    /// maintenance ledger.
    fn absorb_moves(&mut self, moves: &[PositionDelta], stats: &mut IndexStats) {
        for mv in moves {
            let crossed = self.grid.update_position(mv.node.index() as u32, mv.to);
            stats.rebuckets += u64::from(crossed.is_some());
        }
        if !moves.is_empty() {
            self.stamp += 1;
            stats.epoch_bumps += 1;
        }
    }

    /// `tx`'s candidates in NodeId order: the cached list while no node
    /// has moved since it was built, else a list rebuilt from `positions`.
    fn plan_with(
        &mut self,
        tx: NodeId,
        positions: &[Pos],
        floor_w: f64,
        stats: &mut IndexStats,
    ) -> &[Candidate] {
        let FanOutCache {
            candidate_range_m,
            grid,
            rings,
            stamp,
            lists,
            in_range,
            eval,
        } = self;
        let (built, list) = &mut lists[tx.index()];
        if *built == *stamp {
            stats.cache_hits += 1;
            return list;
        }
        if *built == 0 {
            stats.cache_rebuilds += 1;
        } else {
            stats.cache_refreshes += 1;
        }
        *built = *stamp;
        let src = positions[tx.index()];
        // Everything passing the floor predicate lies strictly inside the
        // (padded) candidate range, so the rest of the block is ruled out
        // on squared distance alone: its bits stay clear, and the mark is
        // an OR, not a branch, however near and far nodes interleave.
        let range_sq = *candidate_range_m * *candidate_range_m;
        let grid = &*grid;
        grid.for_each_block_cell(grid.node_cell(tx.index() as u32), *rings, |c| {
            for &i in grid.nodes_in_cell(c) {
                let near = src.distance_sq(positions[i as usize]) <= range_sq;
                in_range[i as usize / 64] |= u64::from(near) << (i % 64);
            }
        });
        // The transmitter is always in its own block but never a receiver.
        in_range[tx.index() / 64] &= !(1u64 << (tx.index() % 64));
        let floor = floor_w / 100.0;
        list.clear();
        for (w, word) in in_range.iter_mut().enumerate() {
            // Taking the word clears it for the next rebuild.
            let mut bits = std::mem::take(word);
            while bits != 0 {
                let i = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let d = src.distance_sq(positions[i]).sqrt();
                let mean_w = eval.eval(d);
                if mean_w < floor {
                    continue;
                }
                list.push(Candidate {
                    node: NodeId::new(i as u32),
                    mean_w,
                    dist_m: d,
                });
            }
        }
        list
    }
    // mesh-lint: end-hot
}

/// Physics-based medium: path loss + fading from node positions.
///
/// By default the medium runs **indexed**: per-transmitter candidate lists
/// (who can possibly hear me, at what mean power and delay) are computed once
/// per positions snapshot via a [`NeighborIndex`] grid and replayed per
/// frame, so static topologies pay the O(N) geometry math once instead of
/// per transmission. Every mobility tick reports its moves through
/// [`Medium::positions_changed`], which re-buckets the moved nodes and
/// advances the cache's move stamp, so each transmitter's next fan-out
/// rebuilds its list from the grid. [`Medium::invalidate_positions`] drops
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
    /// Scratch for the indexed fan-out's first pass: `(list index, fading
    /// draw)` of the candidates it keeps.
    kept_scratch: Vec<(u32, f64)>,
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
            kept_scratch: Vec::new(),
        }
    }

    /// The probability that the fault override of the link `tx -> rx`
    /// drops a frame: 1 for a blackout, `p` for extra loss, 0 without an
    /// override. `SimRng::chance` draws only for a probability strictly
    /// between 0 and 1, so a blackout and a link without a fault draw
    /// nothing. Kept out of line and away from the RNG, so the fan-out
    /// loop can hold the generator's state in registers.
    #[inline(never)]
    fn fault_loss(faults: &BTreeMap<(NodeId, NodeId), LinkEffect>, tx: NodeId, rx: NodeId) -> f64 {
        match faults.get(&(tx, rx)) {
            None => 0.0,
            Some(LinkEffect::Blackout) => 1.0,
            Some(LinkEffect::ExtraLoss(p)) => *p,
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
            let power = self.phy.sample_rx_power_w(d, rng);
            if !self.faults.is_empty()
                && rng.chance(Self::fault_loss(&self.faults, tx, NodeId::new(i as u32)))
            {
                continue;
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
            kept_scratch,
            ..
        } = self;
        let cache = match cache {
            Some(c) if c.lists.len() == positions.len() => c,
            slot => slot.insert(FanOutCache::new(positions, phy, *floor_w)),
        };
        let (floor_w, fading, faulted) = (*floor_w, phy.fading, !faults.is_empty());
        let list = cache.plan_with(tx, positions, floor_w, stats);
        // Pass 1 makes every RNG draw, in list order and in the scan's
        // order per candidate (fading, then the fault's trial), and keeps a
        // candidate unless its fault silences it or its draw surely puts
        // it below the floor. The keep is an index bump, not a branch: the
        // draws are random, so a branch on them mispredicts often.
        // Grow-only: every slot up to `k` is written before it is read.
        if kept_scratch.len() < list.len() {
            // mesh-lint: allow(R8, "grow-only: the buffer reaches the longest candidate list once and is never shrunk, so steady state resizes nothing")
            kept_scratch.resize(list.len(), (0, 0.0));
        }
        let kept = &mut kept_scratch[..list.len()];
        let mut k = 0usize;
        for (i, c) in list.iter().enumerate() {
            let y = fading.draw(rng);
            let loss = if faulted {
                Self::fault_loss(faults, tx, c.node)
            } else {
                0.0
            };
            let dropped = rng.chance(loss);
            kept[k] = (i as u32, y);
            k += usize::from(!dropped & !fading.surely_below(c.mean_w, y, floor_w));
        }
        // Pass 2 takes the logarithm only for the kept candidates and
        // applies the scan's exact floor test to the power.
        for &(i, y) in &kept[..k] {
            let c = &list[i as usize];
            let power = fading.power_w(c.mean_w, y);
            if power < floor_w {
                continue;
            }
            // The delay is computed only here, for plans that are emitted.
            out.push(RxPlan {
                node: c.node,
                power_w: power,
                delay: phy.propagation_delay(c.dist_m),
            });
        }
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
            Some(c) if c.lists.len() != positions.len() => self.cache = None,
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
        // Who hears whom is a function of the positions the world restores,
        // so only the link faults are run state.
        let PhysicalMedium {
            phy: _,     // scenario configuration
            floor_w: _, // derived from `phy`
            indexed: _, // scenario configuration
            stats: _,   // counts this medium's cache work, which a resume redoes
            cache: _,   // derived from the positions; the next fan-out rebuilds it
            faults,
            kept_scratch: _, // scratch
        } = self;
        faults.snap(w);
    }

    /// Restores the link faults and drops the cache, so the next fan-out
    /// rebuilds the grid and the candidate lists from the restored
    /// positions, as the first fan-out does. A candidate list is the
    /// NodeId-ascending set of nodes whose mean power clears
    /// `floor_w / 100`, whatever grid frame built it, so the rebuilt lists
    /// draw the RNG exactly as the uninterrupted run's do.
    fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.faults = Snap::unsnap(r)?;
        self.cache = None;
        Ok(())
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

    /// The links faulted on every medium of the checkpoint tests below.
    fn fault_links(m: &mut PhysicalMedium) {
        m.set_link_fault(NodeId::new(0), NodeId::new(1), LinkEffect::Blackout);
        m.set_link_fault(NodeId::new(2), NodeId::new(5), LinkEffect::ExtraLoss(0.5));
        m.set_link_fault(NodeId::new(7), NodeId::new(3), LinkEffect::ExtraLoss(0.25));
    }

    fn snapshot(m: &PhysicalMedium) -> Vec<u8> {
        let mut w = SnapWriter::new();
        m.snapshot_state(&mut w);
        w.into_bytes()
    }

    /// One mobility tick: every node moves by up to `step_m` per axis.
    fn tick(positions: &mut [Pos], rng: &mut SimRng, step_m: f64) -> Vec<PositionDelta> {
        let mut moves = Vec::with_capacity(positions.len());
        for (i, p) in positions.iter_mut().enumerate() {
            p.x += rng.uniform_range(-step_m, step_m);
            p.y += rng.uniform_range(-step_m, step_m);
            moves.push(PositionDelta {
                node: NodeId::new(i as u32),
                to: *p,
            });
        }
        moves
    }

    /// An indexed medium over 40 nodes in a 5 km square (a 3×3 grid of
    /// candidate-range cells) with the links of [`fault_links`] faulted,
    /// which has fanned out twice from every node before each of four
    /// mobility ticks of up to 300 m per axis. Returned with the current
    /// positions and the stream that drew them.
    fn worked_medium() -> (PhysicalMedium, Vec<Pos>, SimRng) {
        let mut rng = SimRng::seed_from(0xC4EC);
        let area = crate::geometry::Area::square(5000.0);
        let mut positions = crate::topology::random_placement(40, area, &mut rng);
        let mut m = PhysicalMedium::default();
        fault_links(&mut m);
        let mut out = Vec::new();
        for _ in 0..4 {
            for tx in (0..2 * positions.len()).map(|k| k % positions.len()) {
                let tx = NodeId::new(tx as u32);
                m.fan_out(tx, &positions, SimTime::ZERO, &mut rng, &mut out);
            }
            let moves = tick(&mut positions, &mut rng, 300.0);
            m.positions_changed(&moves, &positions);
        }
        let stats = m.index_stats().expect("indexed");
        assert!(stats.rebuckets > 0 && stats.cache_hits > 0, "{stats:?}");
        assert!(!out.is_empty() && m.cache.is_some());
        (m, positions, rng)
    }

    /// A medium that has fanned out and re-bucketed nodes checkpoints the
    /// bytes of a fresh medium with the same link faults, indexed or not:
    /// its spatial index, candidate lists and stats are not run state.
    #[test]
    fn a_worked_medium_checkpoints_only_its_link_faults() {
        let (worked, _, _) = worked_medium();
        let mut fresh = PhysicalMedium::default();
        fault_links(&mut fresh);
        let mut naive = PhysicalMedium::default().with_indexing(false);
        fault_links(&mut naive);
        let bytes = snapshot(&worked);
        assert_eq!(bytes, snapshot(&fresh));
        assert_eq!(bytes, snapshot(&naive));
    }

    /// Restored into a fresh medium, a worked medium's checkpoint rebuilds
    /// the cache from the current positions on the next fan-out, in a grid
    /// frame of its own, and from then on plans every frame as the
    /// original and the naive scan do, leaving the RNG at the same draw.
    #[test]
    fn a_restored_medium_plans_as_the_original_and_the_scan() {
        let (original, mut positions, mut move_rng) = worked_medium();
        let mut restored = PhysicalMedium::default();
        restored
            .restore_state(&mut SnapReader::new(&snapshot(&original)))
            .expect("the checkpoint restores");
        assert!(restored.cache.is_none(), "restore drops the cache");
        let mut naive = PhysicalMedium::default().with_indexing(false);
        fault_links(&mut naive);
        let mut media = [original, restored, naive];
        let mut rngs = [(); 3].map(|_| SimRng::seed_from(0x5EED));
        let mut planned = 0;
        for k in 0..80u32 {
            if k % 16 == 15 {
                let moves = tick(&mut positions, &mut move_rng, 300.0);
                for m in &mut media {
                    m.positions_changed(&moves, &positions);
                }
            }
            let tx = NodeId::new(k * 7 % 40);
            let plans: Vec<Vec<RxPlan>> = media
                .iter_mut()
                .zip(&mut rngs)
                .map(|(m, rng)| {
                    let mut out = Vec::new();
                    m.fan_out(tx, &positions, SimTime::ZERO, rng, &mut out);
                    out
                })
                .collect();
            assert_eq!(plans[1], plans[0], "fan-out {k} from {tx}: restored");
            assert_eq!(plans[2], plans[0], "fan-out {k} from {tx}: naive scan");
            let next = rngs.each_ref().map(|r| r.clone().next_u64());
            assert_eq!(next, [next[0]; 3], "next draw after fan-out {k}");
            planned += plans[0].len();
        }
        assert!(planned > 0, "nothing was planned");
        let stats = media[1].index_stats().expect("indexed");
        assert!(stats.rebuckets > 0, "the restored medium never re-bucketed");
    }
}

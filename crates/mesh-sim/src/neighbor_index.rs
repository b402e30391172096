//! Uniform-grid spatial index over node positions, with incremental
//! re-bucketing.
//!
//! [`NeighborIndex`] buckets nodes into square cells so that range queries
//! ("every node within `r` meters of this node") touch only the block of
//! cells around the node's own cell instead of scanning all N nodes. The
//! medium uses it to build a transmitter's candidate list from the K nodes
//! of its cell block (plus one bitmap word per 64 nodes) rather than from
//! all N.
//!
//! The index observes position changes through [`NeighborIndex::update_position`]:
//! a node that moved is re-bucketed only if its position crossed a grid-cell
//! boundary, in O(bucket) instead of the O(N) of a full rebuild. Intra-cell
//! ordering is stable (node ids ascending), so the index, enumeration order
//! included, is identical to a from-scratch build over the same grid frame
//! ([`NeighborIndex::rebuilt`] checks exactly that in tests). The medium
//! does not depend on that order: it sorts a block's members by NodeId
//! through a bitmap.
//!
//! The grid *frame* (origin, cell size, dimensions) is fixed at build time
//! from the initial bounding box. Nodes that later wander outside the frame
//! are clamped into the border cells — block queries stay conservative
//! (clamping never moves a node farther from another in cells), only less
//! selective. A workload whose population migrates far off the original
//! frame should rebuild the index.

use crate::geometry::Pos;

/// Upper bound on grid cells per axis; keeps degenerate configurations
/// (tiny radio range in a huge area) from allocating unbounded cell arrays.
/// Cells just get coarser — queries stay correct, only less selective.
const MAX_CELLS_PER_AXIS: usize = 256;

/// A uniform grid over a set of node positions supporting conservative
/// range queries and incremental position updates.
///
/// Queries return a **superset** of the nodes within the radius (everything
/// in the block of cells around a node's cell); callers apply their exact
/// predicate per node.
#[derive(Debug, Clone, PartialEq)]
pub struct NeighborIndex {
    origin: Pos,
    /// Cell side length in meters.
    cell_m: f64,
    cols: usize,
    rows: usize,
    /// Node indices per cell, ascending within each cell.
    cells: Vec<Vec<u32>>,
    /// Inverse mapping: the cell each node is currently bucketed in.
    node_cell: Vec<u32>,
}

impl NeighborIndex {
    /// Build an index with cells of (at least) `cell_m` meters per side.
    ///
    /// `cell_m` is normally the query radius the caller intends to use, so a
    /// query touches at most 3×3 = 9 cells — and the 3×3 block around a
    /// node's own cell ([`NeighborIndex::nodes_in_block`]) covers every node
    /// within `cell_m` of it.
    ///
    /// # Panics
    ///
    /// Panics if `cell_m` is not positive and finite, or any position is
    /// non-finite.
    pub fn build(positions: &[Pos], cell_m: f64) -> Self {
        assert!(
            cell_m > 0.0 && cell_m.is_finite(),
            "cell size must be positive and finite"
        );
        let (mut min_x, mut min_y) = (f64::INFINITY, f64::INFINITY);
        let (mut max_x, mut max_y) = (f64::NEG_INFINITY, f64::NEG_INFINITY);
        for p in positions {
            assert!(p.x.is_finite() && p.y.is_finite(), "non-finite position");
            min_x = min_x.min(p.x);
            min_y = min_y.min(p.y);
            max_x = max_x.max(p.x);
            max_y = max_y.max(p.y);
        }
        if positions.is_empty() {
            (min_x, min_y, max_x, max_y) = (0.0, 0.0, 0.0, 0.0);
        }
        let span_x = (max_x - min_x).max(0.0);
        let span_y = (max_y - min_y).max(0.0);
        let cols = grid_extent(span_x, cell_m);
        let rows = grid_extent(span_y, cell_m);
        // Widen cells if the axis cap kicked in, so coverage stays complete.
        let cell_m = cell_m.max(span_x / cols as f64).max(span_y / rows as f64);

        let mut index = NeighborIndex {
            origin: Pos::new(min_x, min_y),
            cell_m,
            cols,
            rows,
            cells: vec![Vec::new(); cols * rows],
            node_cell: Vec::with_capacity(positions.len()),
        };
        index.fill(positions);
        index
    }

    /// Rebuild this index's contents from `positions` **in the same grid
    /// frame** (origin, cell size, dimensions). This is the reference the
    /// incremental path must match bucket-for-bucket: applying
    /// [`NeighborIndex::update_position`] for every moved node must leave
    /// the index equal to `rebuilt(&new_positions)`.
    pub fn rebuilt(&self, positions: &[Pos]) -> NeighborIndex {
        let mut index = NeighborIndex {
            origin: self.origin,
            cell_m: self.cell_m,
            cols: self.cols,
            rows: self.rows,
            cells: vec![Vec::new(); self.cols * self.rows],
            node_cell: Vec::with_capacity(positions.len()),
        };
        index.fill(positions);
        index
    }

    /// Bucket every position into the (already sized) grid. Pushing in
    /// ascending node order keeps each cell's list ascending.
    fn fill(&mut self, positions: &[Pos]) {
        for (i, &p) in positions.iter().enumerate() {
            assert!(p.x.is_finite() && p.y.is_finite(), "non-finite position");
            let c = self.cell_of(p);
            self.cells[c].push(i as u32);
            self.node_cell.push(c as u32);
        }
    }

    /// Re-bucket `node` after it moved to `new_pos`. Returns
    /// `Some((old_cell, new_cell))` if the position crossed a cell boundary
    /// (the node was moved between buckets, keeping both sorted), `None` if
    /// it stayed in its cell (the index is untouched).
    ///
    /// # Panics
    ///
    /// Panics if `new_pos` is non-finite or `node` is not indexed.
    // mesh-lint: hot(cell-crossing)
    pub fn update_position(&mut self, node: u32, new_pos: Pos) -> Option<(usize, usize)> {
        assert!(
            new_pos.x.is_finite() && new_pos.y.is_finite(),
            "non-finite position"
        );
        let old = self.node_cell[node as usize] as usize;
        let new = self.cell_of(new_pos);
        if old == new {
            return None;
        }
        let bucket = &mut self.cells[old];
        let i = bucket
            .binary_search(&node)
            // mesh-lint: allow(R6, "node_cell and the buckets move in lockstep, and restore rejects an index where they do not: node_cell[n] == old implies n is in cells[old]")
            .expect("node present in its bucket");
        bucket.remove(i);
        let bucket = &mut self.cells[new];
        let i = bucket
            .binary_search(&node)
            .expect_err("node cannot already be in the target bucket");
        bucket.insert(i, node);
        self.node_cell[node as usize] = new as u32;
        Some((old, new))
    }
    // mesh-lint: end-hot

    /// Grid dimensions `(cols, rows)`; exposed for diagnostics.
    pub fn grid_dims(&self) -> (usize, usize) {
        (self.cols, self.rows)
    }

    /// Actual cell side in meters (at least the `cell_m` passed to
    /// [`NeighborIndex::build`]; wider when the per-axis cell cap widened
    /// them). Callers size their block radius from this: a block of `rings`
    /// rings covers `rings × cell_size_m` meters around the center cell.
    pub fn cell_size_m(&self) -> f64 {
        self.cell_m
    }

    /// The cell `node` is currently bucketed in.
    pub fn node_cell(&self, node: u32) -> usize {
        self.node_cell[node as usize] as usize
    }

    /// The nodes bucketed in `cell`, ascending.
    pub fn nodes_in_cell(&self, cell: usize) -> &[u32] {
        &self.cells[cell]
    }

    fn cell_coords(&self, p: Pos) -> (usize, usize) {
        let cx = ((p.x - self.origin.x) / self.cell_m) as usize;
        let cy = ((p.y - self.origin.y) / self.cell_m) as usize;
        (cx.min(self.cols - 1), cy.min(self.rows - 1))
    }

    fn cell_of(&self, p: Pos) -> usize {
        let (cx, cy) = self.cell_coords(p);
        cy * self.cols + cx
    }

    /// Visit every cell of the `(2·rings+1)²` block centered on `cell`
    /// (clamped at the grid border). The clamped cell mapping moves by at
    /// most one cell index per [`NeighborIndex::cell_size_m`] meters of
    /// displacement, so whenever `rings × cell_size_m` is at least the query
    /// radius, this block covers every node within that radius of any point
    /// inside `cell` — including clamped out-of-frame positions. It is the
    /// conservative cell neighborhood the medium rebuilds a transmitter's
    /// candidate list from.
    pub fn for_each_block_cell(&self, cell: usize, rings: usize, mut f: impl FnMut(usize)) {
        let (cx, cy) = (cell % self.cols, cell / self.cols);
        for y in cy.saturating_sub(rings)..=(cy + rings).min(self.rows - 1) {
            for x in cx.saturating_sub(rings)..=(cx + rings).min(self.cols - 1) {
                f(y * self.cols + x);
            }
        }
    }

    /// Append to `out` every node bucketed in the `(2·rings+1)²` block
    /// centered on `cell` (see [`NeighborIndex::for_each_block_cell`]).
    /// Within a cell nodes come out ascending, but cells are visited
    /// row-major, so the overall order is not sorted.
    pub fn nodes_in_block(&self, cell: usize, rings: usize, out: &mut Vec<u32>) {
        self.for_each_block_cell(cell, rings, |c| out.extend_from_slice(&self.cells[c]));
    }
}

/// Cells needed to cover `span` meters with `cell`-sized cells, capped.
fn grid_extent(span: f64, cell: f64) -> usize {
    ((span / cell).floor() as usize + 1).min(MAX_CELLS_PER_AXIS)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;

    fn brute_force(positions: &[Pos], center: Pos, r: f64) -> Vec<u32> {
        let mut v: Vec<u32> = positions
            .iter()
            .enumerate()
            .filter(|(_, p)| center.distance_to(**p) <= r)
            .map(|(i, _)| i as u32)
            .collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn block_prunes_far_nodes() {
        // A long line of nodes: the block around one end must not return
        // the whole line.
        let positions: Vec<Pos> = (0..1000).map(|i| Pos::new(i as f64 * 10.0, 0.0)).collect();
        let idx = NeighborIndex::build(&positions, 100.0);
        let mut got = Vec::new();
        idx.nodes_in_block(idx.node_cell(0), 1, &mut got);
        assert!(got.len() < 100, "pruning failed: {} candidates", got.len());
        for e in brute_force(&positions, positions[0], 100.0) {
            assert!(got.contains(&e));
        }
    }

    #[test]
    fn handles_degenerate_inputs() {
        // Empty: one cell, holding nothing.
        let idx = NeighborIndex::build(&[], 10.0);
        assert!(idx.nodes_in_cell(0).is_empty());
        assert_eq!(idx.grid_dims(), (1, 1));
        let mut out = Vec::new();
        idx.nodes_in_block(0, 1, &mut out);
        assert!(out.is_empty());
        // All co-located: one cell, ascending.
        let positions = vec![Pos::new(5.0, 5.0); 7];
        let idx = NeighborIndex::build(&positions, 1.0);
        idx.nodes_in_block(idx.node_cell(0), 0, &mut out);
        assert_eq!(out, (0..7).collect::<Vec<u32>>());
    }

    #[test]
    fn tiny_cell_size_is_capped_not_exploding() {
        let positions = vec![Pos::new(0.0, 0.0), Pos::new(1.0e6, 1.0e6)];
        let idx = NeighborIndex::build(&positions, 0.001);
        let (cols, rows) = idx.grid_dims();
        assert!(cols <= MAX_CELLS_PER_AXIS && rows <= MAX_CELLS_PER_AXIS);
        assert_ne!(idx.node_cell(0), idx.node_cell(1));
    }

    #[test]
    fn cells_preserve_ascending_order_within_cell() {
        let positions = vec![
            Pos::new(1.0, 1.0),
            Pos::new(2.0, 2.0),
            Pos::new(3.0, 1.5),
            Pos::new(1.5, 2.5),
        ];
        let idx = NeighborIndex::build(&positions, 100.0);
        assert_eq!(idx.nodes_in_cell(idx.node_cell(2)), &[0, 1, 2, 3]);
    }

    #[test]
    fn incremental_updates_match_frame_rebuild() {
        let mut rng = SimRng::seed_from(0x1DC);
        let n = 60;
        let mut positions: Vec<Pos> = (0..n)
            .map(|_| {
                Pos::new(
                    rng.uniform_range(0.0, 2000.0),
                    rng.uniform_range(0.0, 2000.0),
                )
            })
            .collect();
        let mut idx = NeighborIndex::build(&positions, 250.0);
        for _ in 0..200 {
            let i = rng.uniform_u32(n as u32) as usize;
            positions[i] = Pos::new(
                positions[i].x + rng.uniform_range(-400.0, 400.0),
                positions[i].y + rng.uniform_range(-400.0, 400.0),
            );
            idx.update_position(i as u32, positions[i]);
            assert_eq!(idx, idx.rebuilt(&positions));
        }
    }

    #[test]
    fn block_covers_radius_around_any_cell_member() {
        let mut rng = SimRng::seed_from(0xB10C);
        let positions: Vec<Pos> = (0..80)
            .map(|_| {
                Pos::new(
                    rng.uniform_range(-300.0, 1700.0),
                    rng.uniform_range(0.0, 1300.0),
                )
            })
            .collect();
        let r = 180.0;
        let idx = NeighborIndex::build(&positions, r);
        for (i, &p) in positions.iter().enumerate() {
            let mut block = Vec::new();
            idx.nodes_in_block(idx.node_cell(i as u32), 1, &mut block);
            for e in brute_force(&positions, p, r) {
                assert!(
                    block.contains(&e),
                    "node {e} within {r} m of node {i} missing"
                );
            }
        }
    }

    #[test]
    fn update_position_reports_crossings_only() {
        let positions = vec![Pos::new(50.0, 50.0), Pos::new(150.0, 50.0)];
        let mut idx = NeighborIndex::build(&positions, 100.0);
        // Intra-cell wiggle: no re-bucket.
        assert_eq!(idx.update_position(0, Pos::new(60.0, 60.0)), None);
        // Boundary crossing: re-bucketed, both cells reported.
        let crossed = idx.update_position(0, Pos::new(150.0, 50.0));
        let (old, new) = crossed.expect("crossed a cell boundary");
        assert_ne!(old, new);
        assert_eq!(idx.node_cell(0), idx.node_cell(1));
        assert_eq!(idx.nodes_in_cell(new), &[0, 1]);
        assert!(idx.nodes_in_cell(old).is_empty());
    }
}

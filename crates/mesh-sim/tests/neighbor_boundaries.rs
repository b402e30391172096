//! Boundary coverage for the spatial [`NeighborIndex`] and its interaction
//! with mobility-driven cache updates.
//!
//! The medium's fan-out cache relies on one promise: the block of
//! `rings = ⌈r / cell_size_m⌉` rings around a node's cell
//! ([`NeighborIndex::nodes_in_block`]) holds every node within `r` meters of
//! that node. These tests probe the places where that promise is easiest to
//! break: positions exactly on cell edges (ties in the `f64 → usize` cell
//! mapping), coincident positions, a negative edge-aligned origin, radius
//! zero, and — through the indexed [`PhysicalMedium`] under random-waypoint
//! mobility — `positions_changed` arriving every mobility tick.

use mesh_sim::geometry::Area;
use mesh_sim::mobility::RandomWaypoint;
use mesh_sim::prelude::*;

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

/// The block around `node`'s cell, `⌈r / cell_size_m⌉` rings wide.
fn block(idx: &NeighborIndex, node: usize, r: f64) -> Vec<u32> {
    let rings = (r / idx.cell_size_m()).ceil() as usize;
    let mut got = Vec::new();
    idx.nodes_in_block(idx.node_cell(node as u32), rings, &mut got);
    got
}

fn assert_block_covers(idx: &NeighborIndex, positions: &[Pos], node: usize, r: f64) {
    let got = block(idx, node, r);
    for e in brute_force(positions, positions[node], r) {
        assert!(
            got.contains(&e),
            "node {e} within {r} m of node {node} missing from its block"
        );
    }
}

#[test]
fn nodes_exactly_on_cell_edges_are_never_lost() {
    // A lattice whose points all sit exactly on cell boundaries (multiples
    // of the 100 m cell size), including the far corner of the grid, plus
    // one node at every cell midpoint.
    let cell = 100.0;
    let lattice = (0..=5).flat_map(|i| (0..=5).map(move |j| (i as f64, j as f64)));
    let midpoints = (0..5).flat_map(|i| (0..5).map(move |j| (i as f64 + 0.5, j as f64 + 0.5)));
    let positions: Vec<Pos> = lattice
        .chain(midpoints)
        .map(|(i, j)| Pos::new(i * cell, j * cell))
        .collect();
    let idx = NeighborIndex::build(&positions, cell);
    // Radii that also land the covered distance exactly on edges.
    for node in 0..positions.len() {
        for r in [cell, cell / 2.0, 1.5 * cell] {
            assert_block_covers(&idx, &positions, node, r);
        }
    }
}

#[test]
fn zero_radius_block_on_an_edge_still_holds_the_node_there() {
    let positions = vec![
        Pos::new(0.0, 0.0),
        Pos::new(100.0, 0.0),
        Pos::new(200.0, 0.0),
    ];
    let idx = NeighborIndex::build(&positions, 100.0);
    for i in 0..positions.len() {
        assert!(
            block(&idx, i, 0.0).contains(&(i as u32)),
            "node {i} lost at zero radius"
        );
    }
}

#[test]
fn coincident_nodes_on_an_edge_all_appear_once() {
    // Seven nodes stacked on a cell corner plus two one cell away.
    let mut positions = vec![Pos::new(100.0, 100.0); 7];
    positions.push(Pos::new(0.0, 100.0));
    positions.push(Pos::new(200.0, 100.0));
    let idx = NeighborIndex::build(&positions, 100.0);
    let got = block(&idx, 0, 1.0);
    for e in 0..7 {
        assert_eq!(
            got.iter().filter(|&&g| g == e).count(),
            1,
            "node {e} duplicated or lost"
        );
    }
    assert_block_covers(&idx, &positions, 0, 100.0);
}

#[test]
fn negative_coordinates_with_edge_aligned_origin() {
    // Origin at a negative edge-aligned coordinate: the origin-relative cell
    // mapping must not truncate toward zero differently on either side.
    let positions = vec![
        Pos::new(-200.0, -100.0),
        Pos::new(-100.0, -100.0),
        Pos::new(0.0, 0.0),
        Pos::new(100.0, 100.0),
    ];
    let idx = NeighborIndex::build(&positions, 100.0);
    for node in 0..positions.len() {
        assert_block_covers(&idx, &positions, node, 150.0);
    }
    // A block reaching past the grid on the low side.
    assert_block_covers(&idx, &positions, 0, 400.0);
}

/// A silent protocol; the medium, index and mobility do all the work.
#[derive(Debug, Clone)]
struct Beacon;

impl Protocol for Beacon {
    type Msg = u32;
    fn start(&mut self, ctx: &mut Ctx<'_, u32>) {
        ctx.set_timer(SimDuration::from_millis(200), 0);
    }
    fn handle_message(&mut self, _: &mut Ctx<'_, u32>, _: NodeId, _: &u32, _: RxMeta) {}
    fn handle_timer(&mut self, ctx: &mut Ctx<'_, u32>, _: TimerId, _: u64) {
        let _ = ctx.send_broadcast(ctx.node().index() as u32, 64, 0);
        ctx.set_timer(SimDuration::from_millis(200), 0);
    }
}

/// Under random-waypoint mobility, every tick reports its moves to the
/// indexed medium through `positions_changed`, between transmissions.
/// Indexed and unindexed media must stay bit-identical anyway — any stale
/// cache shows up as diverging counters.
#[test]
fn indexed_medium_matches_scan_under_mobility_invalidation() {
    let run = |indexed: bool| {
        let area = Area::square(600.0);
        let mut rng = SimRng::seed_from(99);
        let positions: Vec<Pos> = (0..20)
            .map(|_| Pos::new(rng.uniform_range(0.0, 600.0), rng.uniform_range(0.0, 600.0)))
            .collect();
        let phy = PhyParams {
            fading: FadingModel::None,
            ..PhyParams::default()
        };
        let medium = Box::new(PhysicalMedium::new(phy).with_indexing(indexed));
        let mut sim = Simulator::new(
            positions,
            medium,
            WorldConfig {
                seed: 5,
                ..WorldConfig::default()
            },
            vec![Beacon; 20],
        );
        sim.set_mobility(Box::new(RandomWaypoint::new(
            area,
            5.0,
            20.0,
            SimDuration::from_millis(500),
        )));
        sim.set_invariant_interval(SimDuration::from_secs(1));
        sim.run_until(SimTime::from_secs(12));
        sim.counters().clone()
    };
    let with_index = run(true);
    let without_index = run(false);
    assert_eq!(
        with_index, without_index,
        "indexed medium diverged from the full scan under mobility"
    );
    assert!(with_index.planned_rx_data > 0, "nothing was ever received");
}

// ---------------------------------------------------------------------------
// Incremental re-bucketing (`update_position`) edge cases. The contract in
// every one of them is the same: after any sequence of updates the index must
// equal `rebuilt(&positions)` — a fresh fill of the same grid frame — so the
// incremental path can never drift from the from-scratch reference.

#[test]
fn rebucket_onto_exact_cell_edge_matches_fresh_build() {
    // 100 m cells anchored at x = 0. A node landing exactly on x = 100.0
    // (the tie between cells 0 and 1) must bucket the same way a fresh
    // build buckets it.
    let mut positions = vec![Pos::new(50.0, 50.0), Pos::new(250.0, 50.0)];
    let mut idx = NeighborIndex::build(&positions, 100.0);
    positions[0] = Pos::new(100.0, 50.0);
    idx.update_position(0, positions[0]);
    assert_eq!(idx, idx.rebuilt(&positions));
    // And again landing on a corner (both axes tied at once).
    positions[0] = Pos::new(100.0, 100.0);
    idx.update_position(0, positions[0]);
    assert_eq!(idx, idx.rebuilt(&positions));
}

#[test]
fn zero_displacement_never_rebuckets() {
    let positions = vec![Pos::new(10.0, 10.0), Pos::new(110.0, 10.0)];
    let mut idx = NeighborIndex::build(&positions, 100.0);
    let before = idx.clone();
    // Moving to exactly where the node already is must report no crossing
    // and leave the index bit-identical — including for a node sitting
    // exactly on a cell edge.
    assert_eq!(idx.update_position(0, positions[0]), None);
    assert_eq!(idx.update_position(1, positions[1]), None);
    assert_eq!(idx, before);
    assert_eq!(idx, idx.rebuilt(&positions));
}

#[test]
fn displacement_of_exactly_one_cell_width_crosses_once() {
    let mut positions = vec![Pos::new(50.0, 50.0), Pos::new(350.0, 50.0)];
    let mut idx = NeighborIndex::build(&positions, 100.0);
    let from_cell = idx.node_cell(0);
    // A displacement of exactly one cell width keeps the intra-cell offset
    // and must land exactly one column over.
    positions[0] = Pos::new(150.0, 50.0);
    let (old, new) = idx
        .update_position(0, positions[0])
        .expect("one-cell-width move must cross");
    assert_eq!(old, from_cell);
    assert_eq!(new, from_cell + 1);
    assert_eq!(idx, idx.rebuilt(&positions));
}

#[test]
fn coincident_nodes_move_independently() {
    // Five nodes stacked on one spot; moving some of them away (one onto an
    // edge, one onto the same cell, one across) must keep every bucket
    // sorted and equal to the fresh build, with the unmoved stack intact.
    let mut positions = vec![Pos::new(150.0, 150.0); 5];
    positions.push(Pos::new(450.0, 150.0));
    let mut idx = NeighborIndex::build(&positions, 100.0);
    positions[1] = Pos::new(250.0, 150.0); // crossing
    idx.update_position(1, positions[1]);
    positions[3] = Pos::new(100.0, 150.0); // onto the low edge of cell 1
    idx.update_position(3, positions[3]);
    positions[2] = Pos::new(160.0, 160.0); // intra-cell
    assert_eq!(idx.update_position(2, positions[2]), None);
    assert_eq!(idx, idx.rebuilt(&positions));
    // The two untouched stacked nodes still share their original cell.
    assert_eq!(idx.node_cell(0), idx.node_cell(4));
}

#[test]
fn out_of_frame_moves_clamp_into_border_cells() {
    // The grid frame is fixed at build time; nodes that wander past the
    // origin or the far corner are clamped into the border cells, exactly
    // as a fresh fill of the same frame clamps them.
    let mut positions = vec![
        Pos::new(0.0, 0.0),
        Pos::new(200.0, 200.0),
        Pos::new(400.0, 400.0),
    ];
    let mut idx = NeighborIndex::build(&positions, 100.0);
    let far_corner = idx.node_cell(2);
    positions[0] = Pos::new(-250.0, -1.0); // past the negative origin
    idx.update_position(0, positions[0]);
    positions[2] = Pos::new(1e6, 1e6); // far past the high corner
    idx.update_position(2, positions[2]);
    assert_eq!(idx, idx.rebuilt(&positions));
    assert_eq!(idx.node_cell(0), 0, "clamped into the origin cell");
    assert_eq!(idx.node_cell(2), far_corner, "clamped into the corner cell");
    // Re-entering the frame un-clamps.
    positions[0] = Pos::new(350.0, 50.0);
    idx.update_position(0, positions[0]);
    assert_eq!(idx, idx.rebuilt(&positions));
}

#[test]
fn random_rebucket_walk_matches_fresh_build_and_stays_a_superset() {
    // A randomized mobility walk — wiggles, cell-width hops, edge landings
    // and out-of-frame excursions — checking after every tick that the
    // incrementally-maintained index equals the from-scratch rebuild and
    // that its blocks still cover the radius.
    let mut rng = SimRng::seed_from(0x5EED_CAFE);
    let mut positions: Vec<Pos> = (0..40)
        .map(|_| Pos::new(rng.uniform_range(0.0, 900.0), rng.uniform_range(0.0, 900.0)))
        .collect();
    let mut idx = NeighborIndex::build(&positions, 150.0);
    for tick in 0..60 {
        for (i, slot) in positions.iter_mut().enumerate() {
            if rng.chance(0.3) {
                continue; // resting node: not updated
            }
            let p = *slot;
            let to = match tick % 4 {
                0 => Pos::new(p.x + rng.uniform_range(-20.0, 20.0), p.y),
                1 => Pos::new(p.x, (p.x / 150.0).floor() * 150.0), // edge landing
                2 => Pos::new(p.x + 150.0, p.y - 150.0),           // exact cell hops
                _ => Pos::new(
                    rng.uniform_range(-300.0, 1200.0), // may leave the frame
                    rng.uniform_range(-300.0, 1200.0),
                ),
            };
            *slot = to;
            idx.update_position(i as u32, to);
        }
        assert_eq!(idx, idx.rebuilt(&positions), "diverged at tick {tick}");
        let node = (tick * 7) % positions.len();
        assert_block_covers(&idx, &positions, node, 150.0);
        assert_block_covers(&idx, &positions, node, 300.0);
    }
}

//! The indexed fan-out paths must be *bit-identical* to the naive reference
//! scans — same receiver sets, same powers (same RNG draw order), same
//! delays — across random topologies, after position changes, with link
//! faults, without fading, and in full simulations under mobility.

use mesh_sim::geometry::{Area, Pos};
use mesh_sim::ids::NodeId;
use mesh_sim::medium::{
    LinkEffect, LinkTableMedium, Medium, PhysicalMedium, PositionDelta, RxPlan,
};
use mesh_sim::mobility::RandomWaypoint;
use mesh_sim::prelude::*;
use mesh_sim::propagation::{FadingModel, PhyParams};
use mesh_sim::rng::SimRng;
use mesh_sim::time::{SimDuration, SimTime};
use mesh_sim::topology;
use proptest::prelude::*;

fn plans(m: &mut PhysicalMedium, tx: usize, positions: &[Pos], rng: &mut SimRng) -> Vec<RxPlan> {
    let mut out = Vec::new();
    m.fan_out(
        NodeId::new(tx as u32),
        positions,
        SimTime::ZERO,
        rng,
        &mut out,
    );
    out
}

proptest! {
    /// Indexed and naive `PhysicalMedium` fan-out produce identical RxPlan
    /// sequences *and* consume identical RNG streams, for every transmitter
    /// of a random topology — including after nodes move (with
    /// `invalidate_positions`).
    #[test]
    fn physical_indexed_matches_naive(
        n in 2usize..60,
        seed in any::<u64>(),
        side in 100.0f64..4000.0,
    ) {
        let mut layout_rng = SimRng::seed_from(seed);
        let mut positions =
            topology::random_placement(n, Area::square(side), &mut layout_rng);
        let mut naive = PhysicalMedium::default().with_indexing(false);
        let mut indexed = PhysicalMedium::default().with_indexing(true);
        for round in 0..3u64 {
            for tx in 0..n {
                let mut rng_n = SimRng::seed_from(seed ^ (round << 8) ^ tx as u64);
                let mut rng_i = rng_n.clone();
                let p_n = plans(&mut naive, tx, &positions, &mut rng_n);
                let p_i = plans(&mut indexed, tx, &positions, &mut rng_i);
                prop_assert_eq!(p_n, p_i);
                // Same number of draws consumed: the next draw must agree.
                prop_assert_eq!(rng_n.next_u64(), rng_i.next_u64());
            }
            // Move every node and tell the media; the indexed cache must
            // rebuild rather than replay stale geometry.
            for p in &mut positions {
                p.x += layout_rng.uniform_range(-50.0, 50.0);
                p.y += layout_rng.uniform_range(-50.0, 50.0);
            }
            naive.invalidate_positions();
            indexed.invalidate_positions();
        }
    }

    /// The two maintenance modes — naive O(N) scan and incrementally
    /// maintained index — stay bit-identical while a
    /// random-waypoint walk feeds per-tick [`Medium::positions_changed`]
    /// deltas: identical plan sequences, identical RNG consumption, for
    /// every transmitter on every tick. Resting nodes are deliberately left
    /// out of the move list so partial deltas (the incremental fast path)
    /// are exercised, not just full-population ticks. Up to 199 nodes, so
    /// transmitters and receivers straddle the 64-node words of the
    /// rebuild's bitmap, on sides up to 12 km, where the grid has up to 7×7
    /// candidate-range cells and most blocks leave cells out.
    #[test]
    fn incremental_matches_naive(
        n in 2usize..200,
        seed in any::<u64>(),
        side in 200.0f64..12000.0,
        speed in 0.5f64..40.0,
    ) {
        let mut rng = SimRng::seed_from(seed);
        let area = Area::square(side);
        let mut positions = topology::random_placement(n, area, &mut rng);
        let mut waypoints = positions.clone();
        let mut naive = PhysicalMedium::default().with_indexing(false);
        let mut incremental = PhysicalMedium::default();
        for tick in 0..6u64 {
            for tx in 0..n {
                let mut rng_n = SimRng::seed_from(seed ^ (tick << 8) ^ tx as u64);
                let mut rng_i = rng_n.clone();
                let p_n = plans(&mut naive, tx, &positions, &mut rng_n);
                let p_i = plans(&mut incremental, tx, &positions, &mut rng_i);
                prop_assert_eq!(&p_n, &p_i, "incremental diverged at tick {} tx {}", tick, tx);
                let probe = rng_n.next_u64();
                prop_assert_eq!(probe, rng_i.next_u64());
            }
            // One random-waypoint tick: walk toward the waypoint at `speed`,
            // re-aiming on arrival; some nodes rest and are not reported.
            let mut moves = Vec::new();
            for i in 0..n {
                if rng.chance(0.2) {
                    continue;
                }
                let (p, w) = (positions[i], waypoints[i]);
                let (dx, dy) = (w.x - p.x, w.y - p.y);
                let dist = (dx * dx + dy * dy).sqrt();
                let to = if dist <= speed {
                    waypoints[i] =
                        Pos::new(rng.uniform_range(0.0, side), rng.uniform_range(0.0, side));
                    w
                } else {
                    Pos::new(p.x + dx / dist * speed, p.y + dy / dist * speed)
                };
                positions[i] = to;
                moves.push(PositionDelta { node: NodeId::new(i as u32), to });
            }
            naive.positions_changed(&moves, &positions);
            incremental.positions_changed(&moves, &positions);
        }
    }

    /// With link faults on random directed links — blackouts and extra
    /// loss, so the fault trial draws between fading draws — the indexed
    /// fan-out still emits the naive scan's plans and leaves the RNG where
    /// the scan leaves it. Faults are set, replaced and cleared between
    /// rounds while nodes move. Node counts and sides reach past the
    /// bitmap's word boundaries and a 3×3 grid, as in
    /// `incremental_matches_naive`.
    #[test]
    fn faulted_indexed_matches_naive(
        n in 2usize..200,
        seed in any::<u64>(),
        side in 100.0f64..10000.0,
        faulted_links in 1usize..300,
    ) {
        let mut layout_rng = SimRng::seed_from(seed);
        let mut positions =
            topology::random_placement(n, Area::square(side), &mut layout_rng);
        let mut naive = PhysicalMedium::default().with_indexing(false);
        let mut indexed = PhysicalMedium::default();
        let mut fault_rng = SimRng::seed_from(seed ^ 0xFA_17);
        for round in 0..3u64 {
            for _ in 0..faulted_links {
                let from = NodeId::new(fault_rng.uniform_u32(n as u32));
                let to = NodeId::new(fault_rng.uniform_u32(n as u32));
                let effect = match fault_rng.uniform_u32(4) {
                    0 => LinkEffect::Blackout,
                    1 => LinkEffect::ExtraLoss(1.0),
                    _ => LinkEffect::ExtraLoss(fault_rng.uniform()),
                };
                naive.set_link_fault(from, to, effect);
                indexed.set_link_fault(from, to, effect);
            }
            for tx in 0..n {
                let mut rng_n = SimRng::seed_from(seed ^ (round << 8) ^ tx as u64);
                let mut rng_i = rng_n.clone();
                let p_n = plans(&mut naive, tx, &positions, &mut rng_n);
                let p_i = plans(&mut indexed, tx, &positions, &mut rng_i);
                prop_assert_eq!(p_n, p_i, "round {} tx {}", round, tx);
                prop_assert_eq!(rng_n.next_u64(), rng_i.next_u64());
            }
            for _ in 0..faulted_links / 2 {
                let from = NodeId::new(fault_rng.uniform_u32(n as u32));
                let to = NodeId::new(fault_rng.uniform_u32(n as u32));
                naive.clear_link_fault(from, to);
                indexed.clear_link_fault(from, to);
            }
            for p in &mut positions {
                p.x += layout_rng.uniform_range(-50.0, 50.0);
                p.y += layout_rng.uniform_range(-50.0, 50.0);
            }
            naive.invalidate_positions();
            indexed.invalidate_positions();
        }
    }

    /// Without fading nothing is drawn and the power is the mean: the
    /// indexed fan-out emits the naive scan's plans, draws nothing either,
    /// and stays equal while nodes move by random per-tick deltas.
    #[test]
    fn no_fading_indexed_matches_naive(
        n in 2usize..60,
        seed in any::<u64>(),
        side in 100.0f64..4000.0,
    ) {
        let phy = PhyParams {
            fading: FadingModel::None,
            ..PhyParams::default()
        };
        let mut layout_rng = SimRng::seed_from(seed);
        let mut positions =
            topology::random_placement(n, Area::square(side), &mut layout_rng);
        let mut naive = PhysicalMedium::new(phy.clone()).with_indexing(false);
        let mut indexed = PhysicalMedium::new(phy);
        for round in 0..3u64 {
            for tx in 0..n {
                let mut rng_n = SimRng::seed_from(seed ^ (round << 8) ^ tx as u64);
                let mut rng_i = rng_n.clone();
                let untouched = rng_n.clone().next_u64();
                let p_n = plans(&mut naive, tx, &positions, &mut rng_n);
                let p_i = plans(&mut indexed, tx, &positions, &mut rng_i);
                prop_assert_eq!(p_n, p_i, "round {} tx {}", round, tx);
                prop_assert_eq!(rng_n.next_u64(), untouched);
                prop_assert_eq!(rng_i.next_u64(), untouched);
            }
            let mut moves = Vec::new();
            for (i, p) in positions.iter_mut().enumerate() {
                p.x += layout_rng.uniform_range(-80.0, 80.0);
                p.y += layout_rng.uniform_range(-80.0, 80.0);
                moves.push(PositionDelta { node: NodeId::new(i as u32), to: *p });
            }
            naive.positions_changed(&moves, &positions);
            indexed.positions_changed(&moves, &positions);
        }
    }

    /// `LinkTableMedium`'s adjacency-list fan-out matches a reference scan
    /// over all node ids in ascending order probing `loss()` — the shape of
    /// the original implementation — including after `set_loss` updates.
    #[test]
    fn link_table_matches_reference_scan(
        n in 2usize..20,
        links in prop::collection::vec((any::<u8>(), any::<u8>(), 0.0f64..1.0), 0..40),
        seed in any::<u64>(),
    ) {
        let mut m = LinkTableMedium::new();
        for &(a, b, loss) in &links {
            let a = a as usize % n;
            let b = b as usize % n;
            if a != b {
                m.add_link(NodeId::new(a as u32), NodeId::new(b as u32), loss);
            }
        }
        let positions = vec![Pos::new(0.0, 0.0); n];
        for round in 0..2u64 {
            for tx in 0..n {
                let tx = NodeId::new(tx as u32);
                let mut rng_m = SimRng::seed_from(seed ^ (round << 8) ^ tx.index() as u64);
                let mut rng_r = rng_m.clone();
                let mut got = Vec::new();
                m.fan_out(tx, &positions, SimTime::ZERO, &mut rng_m, &mut got);
                // Reference: ascending node-id probe of the loss table.
                let mut want = Vec::new();
                for i in 0..n {
                    let node = NodeId::new(i as u32);
                    if node == tx {
                        continue;
                    }
                    if let Some(loss) = m.loss(tx, node) {
                        let decodable = !rng_r.chance(loss);
                        let power = if decodable {
                            m.phy().rx_threshold_w * 10.0
                        } else {
                            m.phy().cs_threshold_w * 2.0
                        };
                        want.push(RxPlan {
                            node,
                            power_w: power,
                            delay: SimDuration::from_nanos(200),
                        });
                    }
                }
                prop_assert_eq!(got, want);
                prop_assert_eq!(rng_m.next_u64(), rng_r.next_u64());
            }
            // Walk every link's loss (keeping membership) and re-check: the
            // in-place adjacency patch must track the table.
            let mut walk = SimRng::seed_from(seed ^ 0x10_55);
            for &(a, b, _) in &links {
                let a = NodeId::new((a as usize % n) as u32);
                let b = NodeId::new((b as usize % n) as u32);
                if a != b {
                    m.set_loss(a, b, walk.uniform());
                }
            }
        }
    }
}

/// A protocol that beacons periodically: every node broadcasts on a timer
/// and counts what it hears — steady medium traffic while nodes move.
#[derive(Debug, Default)]
struct Beacon {
    heard: u64,
}

impl Protocol for Beacon {
    type Msg = u32;
    fn start(&mut self, ctx: &mut Ctx<'_, u32>) {
        // Stagger the first beacons so they don't all collide at t=0.
        let jitter = SimDuration::from_micros(137 * (ctx.node().index() as u64 + 1));
        ctx.set_timer(SimDuration::from_millis(200) + jitter, 0);
    }
    fn handle_message(&mut self, _: &mut Ctx<'_, u32>, _: NodeId, _: &u32, _: RxMeta) {
        self.heard += 1;
    }
    fn handle_timer(&mut self, ctx: &mut Ctx<'_, u32>, _: TimerId, _: u64) {
        let _ = ctx.send_broadcast(ctx.node().index() as u32, 64, 0);
        ctx.set_timer(SimDuration::from_millis(200), 0);
    }
}

fn mobile_run(indexed: bool) -> (Vec<u64>, mesh_sim::counters::Counters, u64) {
    let mut rng = SimRng::seed_from(0xB0B);
    let area = Area::square(600.0);
    let positions = topology::random_placement(25, area, &mut rng);
    let medium = Box::new(PhysicalMedium::default().with_indexing(indexed));
    let protos = (0..25).map(|_| Beacon::default()).collect();
    let mut sim = Simulator::new(positions, medium, WorldConfig::default(), protos);
    sim.set_mobility(Box::new(RandomWaypoint::new(
        area,
        1.0,
        10.0,
        SimDuration::from_secs(1),
    )));
    sim.run_until(SimTime::from_secs(20));
    let heard = sim.protocols().iter().map(|p| p.heard).collect();
    let hash = sim.schedule_hash();
    (heard, sim.counters().clone(), hash)
}

/// Under random-waypoint mobility both maintenance modes must match
/// exactly: identical per-node delivery counts, counters, and — the
/// strongest fingerprint the simulator has — `schedule_hash`, which folds
/// every scheduled event of the run.
#[test]
fn mobility_two_modes_bit_identical() {
    let (heard_naive, counters_naive, hash_naive) = mobile_run(false);
    let (heard_incr, counters_incr, hash_incr) = mobile_run(true);
    assert!(
        heard_naive.iter().sum::<u64>() > 0,
        "beacons should be heard — otherwise the test is vacuous"
    );
    assert_eq!(heard_naive, heard_incr);
    assert_eq!(counters_naive, counters_incr);
    assert_eq!(hash_naive, hash_incr);
}

//! Time-varying link-loss medium for the testbed model.
//!
//! §5.3 notes that the testbed's loss rates "change fairly quickly" due to
//! random environmental variation, and that the dashed links sit in the
//! 40–60 % band. [`TestbedMedium`] models each directed link's loss as a
//! bounded random walk inside its class band, re-stepped at a fixed cadence,
//! on top of the table-driven reception model of
//! [`LinkTableMedium`](mesh_sim::medium::LinkTableMedium).

use mesh_sim::geometry::Pos;
use mesh_sim::ids::NodeId;
use mesh_sim::medium::{LinkTableMedium, Medium, RxPlan};
use mesh_sim::propagation::PhyParams;
use mesh_sim::rng::SimRng;
use mesh_sim::snapshot::{Snap, SnapError, SnapReader, SnapWriter};
use mesh_sim::time::{SimDuration, SimTime};

use crate::floorplan::{self, LinkClass};

/// How strongly a link wanders per update step (std-dev of the walk).
const WALK_STEP: f64 = 0.04;

/// Cadence of the random walk.
const UPDATE_INTERVAL: SimDuration = SimDuration::from_secs(5);

#[derive(Debug, Clone)]
struct WalkingLink {
    from: NodeId,
    to: NodeId,
    class: LinkClass,
    loss: f64,
}

/// The testbed's wireless medium: Figure-4 links with temporally-varying
/// loss.
#[derive(Debug, Clone)]
pub struct TestbedMedium {
    table: LinkTableMedium,
    walkers: Vec<WalkingLink>,
    next_update: SimTime,
}

impl TestbedMedium {
    /// Build the medium for the Figure-4 floorplan. `rng` seeds each link's
    /// starting point within its class band.
    pub fn new(rng: &mut SimRng) -> Self {
        let mut table = LinkTableMedium::new();
        let mut walkers = Vec::new();
        for (la, lb, class) in floorplan::links() {
            let a = floorplan::id_of(la);
            let b = floorplan::id_of(lb);
            let (lo, hi) = class.loss_range();
            // Each direction starts and walks independently.
            let init_ab = rng.uniform_range(lo, hi);
            let init_ba = rng.uniform_range(lo, hi);
            table.add_link(a, b, init_ab);
            table.set_loss(b, a, init_ba);
            walkers.push(WalkingLink {
                from: a,
                to: b,
                class,
                loss: init_ab,
            });
            walkers.push(WalkingLink {
                from: b,
                to: a,
                class,
                loss: init_ba,
            });
        }
        TestbedMedium {
            table,
            walkers,
            next_update: SimTime::ZERO + UPDATE_INTERVAL,
        }
    }

    /// Current loss of the directed link `from → to`, if it exists.
    pub fn loss(&self, from: NodeId, to: NodeId) -> Option<f64> {
        self.table.loss(from, to)
    }

    fn step_walk(&mut self, rng: &mut SimRng) {
        for w in &mut self.walkers {
            let (lo, hi) = w.class.loss_range();
            // Symmetric triangular-ish step from two uniforms.
            let step = (rng.uniform() + rng.uniform() - 1.0) * 2.0 * WALK_STEP;
            w.loss = (w.loss + step).clamp(lo, hi);
            self.table.set_loss(w.from, w.to, w.loss);
        }
    }
}

impl Medium for TestbedMedium {
    fn fan_out(
        &mut self,
        tx: NodeId,
        positions: &[Pos],
        now: SimTime,
        rng: &mut SimRng,
        out: &mut Vec<RxPlan>,
    ) {
        while now >= self.next_update {
            self.step_walk(rng);
            self.next_update += UPDATE_INTERVAL;
        }
        self.table.fan_out(tx, positions, now, rng, out)
    }

    fn phy(&self) -> &PhyParams {
        self.table.phy()
    }

    fn set_link_fault(&mut self, from: NodeId, to: NodeId, effect: mesh_sim::medium::LinkEffect) {
        self.table.set_link_fault(from, to, effect);
    }

    fn clear_link_fault(&mut self, from: NodeId, to: NodeId) {
        self.table.clear_link_fault(from, to);
    }

    fn snapshot_state(&self, w: &mut SnapWriter) {
        // Every walker's loss is its directed link's loss in the table, so
        // the table (losses and link faults) carries the walk; `next_update`
        // is when it steps next.
        let TestbedMedium {
            table,
            walkers: _, // restored from the table's losses
            next_update,
        } = self;
        table.snapshot_state(w);
        next_update.snap(w);
    }

    fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.table.restore_state(r)?;
        self.next_update = Snap::unsnap(r)?;
        for w in &mut self.walkers {
            w.loss = self
                .table
                .loss(w.from, w.to)
                .ok_or(SnapError::StateMismatch(
                    "testbed link missing from the table",
                ))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::floorplan::{id_of, positions};

    #[test]
    fn initial_losses_respect_class_bands() {
        let mut rng = SimRng::seed_from(1);
        let m = TestbedMedium::new(&mut rng);
        for (la, lb, class) in floorplan::links() {
            let (lo, hi) = class.loss_range();
            for (f, t) in [(la, lb), (lb, la)] {
                let loss = m.loss(id_of(f), id_of(t)).unwrap();
                assert!(
                    (lo..=hi).contains(&loss),
                    "{f}->{t}: loss {loss} outside [{lo}, {hi}]"
                );
            }
        }
    }

    #[test]
    fn losses_vary_over_time_but_stay_in_band() {
        let mut rng = SimRng::seed_from(2);
        let mut m = TestbedMedium::new(&mut rng);
        let lossy_from = id_of(2);
        let lossy_to = id_of(5);
        let initial = m.loss(lossy_from, lossy_to).unwrap();
        let mut out = Vec::new();
        let mut changed = false;
        for s in 1..200u64 {
            m.fan_out(
                id_of(2),
                &positions(),
                SimTime::from_secs(s * 5),
                &mut rng,
                &mut out,
            );
            out.clear();
            let now_loss = m.loss(lossy_from, lossy_to).unwrap();
            let (lo, hi) = LinkClass::Lossy.loss_range();
            assert!((lo..=hi).contains(&now_loss));
            if (now_loss - initial).abs() > 1e-9 {
                changed = true;
            }
        }
        assert!(changed, "loss never moved");
    }

    #[test]
    fn directions_walk_independently() {
        let mut rng = SimRng::seed_from(3);
        let mut m = TestbedMedium::new(&mut rng);
        let mut out = Vec::new();
        for s in 1..50u64 {
            m.fan_out(
                id_of(2),
                &positions(),
                SimTime::from_secs(s * 5),
                &mut rng,
                &mut out,
            );
            out.clear();
        }
        let ab = m.loss(id_of(2), id_of(5)).unwrap();
        let ba = m.loss(id_of(5), id_of(2)).unwrap();
        assert_ne!(ab, ba);
    }

    #[test]
    fn unconnected_pairs_never_hear_each_other() {
        // Nodes 5 and 3 share no link in Figure 4.
        let mut rng = SimRng::seed_from(4);
        let mut m = TestbedMedium::new(&mut rng);
        let mut out = Vec::new();
        for _ in 0..100 {
            m.fan_out(
                id_of(5),
                &positions(),
                SimTime::from_secs(1),
                &mut rng,
                &mut out,
            );
            assert!(out.iter().all(|p| p.node != id_of(3)));
            out.clear();
        }
    }

    #[test]
    fn same_seed_same_medium() {
        let mut r1 = SimRng::seed_from(9);
        let mut r2 = SimRng::seed_from(9);
        let a = TestbedMedium::new(&mut r1);
        let b = TestbedMedium::new(&mut r2);
        for (la, lb, _) in floorplan::links() {
            assert_eq!(a.loss(id_of(la), id_of(lb)), b.loss(id_of(la), id_of(lb)));
        }
    }
}

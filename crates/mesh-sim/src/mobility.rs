//! Node mobility models.
//!
//! The paper's networks are *static* meshes — that stationarity is what
//! makes link-quality routing metrics pay off. ODMRP itself, however, was
//! designed for mobile ad-hoc networks, and the natural robustness question
//! is how the metrics behave when nodes move. This module provides the
//! classic random-waypoint model behind the [`Mobility`] trait; attach one
//! with [`Simulator::set_mobility`](crate::simulator::Simulator::set_mobility).
//! A static mesh attaches no model.

use crate::geometry::{Area, Pos};
use crate::rng::SimRng;
use crate::snapshot::{Snap, SnapError, SnapReader, SnapWriter};
use crate::time::{SimDuration, SimTime};

/// A mobility model: updates node positions as simulated time advances.
pub trait Mobility: std::fmt::Debug {
    /// Advance the model to `now`, updating `positions` in place.
    ///
    /// Returns when the model wants to be stepped next, or `None` if the
    /// positions will never change again.
    fn step(&mut self, now: SimTime, positions: &mut [Pos], rng: &mut SimRng) -> Option<SimTime>;

    /// Write the model's mutable state into a checkpoint (DESIGN.md §14).
    /// There is no default: a model with state must not be able to forget
    /// it.
    fn snapshot_state(&self, w: &mut SnapWriter);

    /// Restore the model's mutable state from a checkpoint. The model is
    /// assumed to be freshly constructed from the same scenario config.
    fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError>;
}

#[derive(Debug, Clone, Copy)]
enum WaypointState {
    /// Paused until the given instant.
    Paused { until: SimTime },
    /// Moving toward `target` at `speed` m/s.
    Moving { target: Pos, speed: f64 },
}

/// The random-waypoint model: each node repeatedly picks a uniform target in
/// the area, moves there at a uniform-random speed, pauses, and repeats.
#[derive(Debug)]
pub struct RandomWaypoint {
    area: Area,
    min_speed: f64,
    max_speed: f64,
    pause: SimDuration,
    tick: SimDuration,
    states: Vec<WaypointState>,
    last_update: SimTime,
    started: bool,
}

impl RandomWaypoint {
    /// Create a model over `area` with speeds in `[min_speed, max_speed]`
    /// m/s and the given pause time at each waypoint.
    ///
    /// # Panics
    ///
    /// Panics if speeds are non-positive or `min_speed > max_speed`.
    pub fn new(area: Area, min_speed: f64, max_speed: f64, pause: SimDuration) -> Self {
        assert!(
            min_speed > 0.0 && max_speed >= min_speed,
            "speeds must be positive and ordered"
        );
        RandomWaypoint {
            area,
            min_speed,
            max_speed,
            pause,
            tick: SimDuration::from_millis(100),
            states: Vec::new(),
            last_update: SimTime::ZERO,
            started: false,
        }
    }

    /// Position-update granularity (default 100 ms).
    pub fn with_tick(mut self, tick: SimDuration) -> Self {
        assert!(tick > SimDuration::ZERO, "tick must be positive");
        self.tick = tick;
        self
    }

    fn new_leg(&self, now: SimTime, rng: &mut SimRng) -> WaypointState {
        if self.pause > SimDuration::ZERO && rng.chance(0.5) {
            WaypointState::Paused {
                until: now + self.pause,
            }
        } else {
            WaypointState::Moving {
                target: Pos::new(
                    rng.uniform_range(0.0, self.area.width),
                    rng.uniform_range(0.0, self.area.height),
                ),
                speed: rng.uniform_range(self.min_speed, self.max_speed),
            }
        }
    }
}

impl Mobility for RandomWaypoint {
    fn step(&mut self, now: SimTime, positions: &mut [Pos], rng: &mut SimRng) -> Option<SimTime> {
        if !self.started {
            self.started = true;
            self.states = (0..positions.len())
                .map(|_| self.new_leg(now, rng))
                .collect();
            self.last_update = now;
            return Some(now + self.tick);
        }
        let dt = now.saturating_since(self.last_update).as_secs_f64();
        self.last_update = now;
        for (i, state) in self.states.iter_mut().enumerate() {
            match *state {
                WaypointState::Paused { until } => {
                    if now >= until {
                        *state = WaypointState::Moving {
                            target: Pos::new(
                                rng.uniform_range(0.0, self.area.width),
                                rng.uniform_range(0.0, self.area.height),
                            ),
                            speed: rng.uniform_range(self.min_speed, self.max_speed),
                        };
                    }
                }
                WaypointState::Moving { target, speed } => {
                    let p = positions[i];
                    let dist = p.distance_to(target);
                    let step = speed * dt;
                    if step >= dist {
                        positions[i] = target;
                        *state = if self.pause > SimDuration::ZERO {
                            WaypointState::Paused {
                                until: now + self.pause,
                            }
                        } else {
                            WaypointState::Moving {
                                target: Pos::new(
                                    rng.uniform_range(0.0, self.area.width),
                                    rng.uniform_range(0.0, self.area.height),
                                ),
                                speed: rng.uniform_range(self.min_speed, self.max_speed),
                            }
                        };
                    } else if dist > 0.0 {
                        let f = step / dist;
                        positions[i] =
                            Pos::new(p.x + (target.x - p.x) * f, p.y + (target.y - p.y) * f);
                    }
                }
            }
        }
        Some(now + self.tick)
    }

    fn snapshot_state(&self, w: &mut SnapWriter) {
        let RandomWaypoint {
            area: _,      // scenario configuration
            min_speed: _, // scenario configuration
            max_speed: _, // scenario configuration
            pause: _,     // scenario configuration
            tick: _,      // scenario configuration
            states,
            last_update,
            started,
        } = self;
        states.snap(w);
        last_update.snap(w);
        started.snap(w);
    }

    fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.states = Snap::unsnap(r)?;
        self.last_update = Snap::unsnap(r)?;
        self.started = r.bool()?;
        Ok(())
    }
}

impl Snap for WaypointState {
    fn snap(&self, w: &mut SnapWriter) {
        match *self {
            WaypointState::Paused { until } => {
                w.put_u8(0);
                until.snap(w);
            }
            WaypointState::Moving { target, speed } => {
                w.put_u8(1);
                target.snap(w);
                w.put_f64(speed);
            }
        }
    }

    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(match r.u8()? {
            0 => WaypointState::Paused {
                until: Snap::unsnap(r)?,
            },
            1 => WaypointState::Moving {
                target: Snap::unsnap(r)?,
                speed: r.f64()?,
            },
            t => return Err(SnapError::BadTag(t as u32)),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn waypoint_moves_nodes_within_area() {
        let area = Area::square(100.0);
        let mut m = RandomWaypoint::new(area, 1.0, 5.0, SimDuration::ZERO);
        let mut ps = vec![Pos::new(50.0, 50.0); 5];
        let mut rng = SimRng::seed_from(2);
        let mut t = SimTime::ZERO;
        let mut moved = false;
        for _ in 0..200 {
            let next = m.step(t, &mut ps, &mut rng).expect("keeps moving");
            assert!(next > t);
            t = next;
            for p in &ps {
                assert!(area.contains(*p), "node escaped: {p}");
            }
            if ps[0] != Pos::new(50.0, 50.0) {
                moved = true;
            }
        }
        assert!(moved, "nobody moved in 20 simulated seconds");
    }

    #[test]
    fn movement_speed_is_bounded() {
        let area = Area::square(1000.0);
        let mut m = RandomWaypoint::new(area, 2.0, 4.0, SimDuration::ZERO);
        let mut ps = vec![Pos::new(500.0, 500.0)];
        let mut rng = SimRng::seed_from(3);
        let mut t = m.step(SimTime::ZERO, &mut ps, &mut rng).unwrap();
        for _ in 0..100 {
            let before = ps[0];
            let next = m.step(t, &mut ps, &mut rng).unwrap();
            let dt = next.saturating_since(t).as_secs_f64();
            let d = before.distance_to(ps[0]);
            // Distance per tick bounded by max speed (allow epsilon).
            assert!(d <= 4.0 * dt.max(0.1) + 1e-9, "d={d} in dt={dt}");
            t = next;
        }
    }

    #[test]
    fn pause_keeps_node_still() {
        let area = Area::square(100.0);
        // All-pause model: chance(0.5) decides, so force by long pause then
        // check at least some nodes hold still between consecutive ticks.
        let mut m = RandomWaypoint::new(area, 1.0, 1.0, SimDuration::from_secs(3600));
        let mut ps = vec![Pos::new(10.0, 10.0); 8];
        let mut rng = SimRng::seed_from(4);
        let mut t = m.step(SimTime::ZERO, &mut ps, &mut rng).unwrap();
        let snapshot = ps.clone();
        for _ in 0..10 {
            t = m.step(t, &mut ps, &mut rng).unwrap();
        }
        let still = ps.iter().zip(&snapshot).filter(|(a, b)| a == b).count();
        assert!(still > 0, "with an hour-long pause someone must be paused");
    }

    #[test]
    #[should_panic(expected = "speeds")]
    fn bad_speeds_rejected() {
        let _ = RandomWaypoint::new(Area::square(10.0), 0.0, 1.0, SimDuration::ZERO);
    }
}

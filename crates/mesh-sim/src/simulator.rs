//! The top-level simulator: owns the world and the protocol instances and
//! routes upcalls between them.

use crate::counters::Counters;
use crate::fault::FaultPlan;
use crate::geometry::Pos;
use crate::medium::Medium;
use crate::protocol::Protocol;
use crate::snapshot::{Snap, SnapError, SnapReader, SnapWriter, SnapshotState};
use crate::time::{SimDuration, SimTime};
use crate::world::{Ctx, Upcall, World, WorldConfig};

/// A protocol-level invariant oracle: inspects the world and the protocol
/// instances at a checkpoint and returns a message per violation.
pub type Oracle<P> = Box<dyn FnMut(&World<<P as Protocol>::Msg>, &[P]) -> Vec<String> + Send>;

/// Stable prefix of the panic message raised by the sim-time watchdog, so
/// supervisors (`run_jobs_supervised_resumable`) can classify a livelock
/// apart from any other panic.
pub const WATCHDOG_PANIC_PREFIX: &str = "sim-time watchdog: ";

/// Livelock budget for [`Simulator::set_watchdog`].
///
/// The watchdog is sim-time based (never wall-clock, per the replay
/// contract): a run is declared livelocked when more than `max_events`
/// events are dispatched while simulated time advances by less than
/// `min_progress`. A healthy protocol schedules bounded work per unit of
/// simulated time; a zero-delay timer loop or a send/ack storm does not.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WatchdogBudget {
    /// Events allowed per `min_progress` of simulated time.
    pub max_events: u64,
    /// The simulated-time quantum the budget applies to.
    pub min_progress: SimDuration,
}

/// A complete simulation: world + one protocol instance per node.
///
/// # Examples
///
/// ```
/// use mesh_sim::prelude::*;
///
/// struct Quiet;
/// impl Protocol for Quiet {
///     type Msg = ();
///     fn start(&mut self, _ctx: &mut Ctx<'_, ()>) {}
///     fn handle_message(&mut self, _: &mut Ctx<'_, ()>, _: NodeId, _: &(), _: RxMeta) {}
///     fn handle_timer(&mut self, _: &mut Ctx<'_, ()>, _: TimerId, _: u64) {}
/// }
///
/// let positions = vec![Pos::new(0.0, 0.0), Pos::new(100.0, 0.0)];
/// let medium = Box::new(PhysicalMedium::default());
/// let mut sim = Simulator::new(positions, medium, WorldConfig::default(),
///                              vec![Quiet, Quiet]);
/// sim.run_until(SimTime::from_secs(1));
/// assert_eq!(sim.now(), SimTime::from_secs(1));
/// ```
pub struct Simulator<P: Protocol> {
    world: World<P::Msg>,
    protocols: Vec<P>,
    started: bool,
    upcall_buf: Vec<Upcall<P::Msg>>,
    /// How often the invariant oracles run; `None` disables checkpoints.
    check_interval: Option<SimDuration>,
    next_check: Option<SimTime>,
    oracles: Vec<Oracle<P>>,
    watchdog: Option<WatchdogBudget>,
    /// Start of the current watchdog window.
    wd_anchor: SimTime,
    /// Events dispatched since `wd_anchor`.
    wd_events: u64,
}

impl<P: Protocol> std::fmt::Debug for Simulator<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulator")
            .field("world", &self.world)
            .field("nodes", &self.protocols.len())
            .field("started", &self.started)
            .finish()
    }
}

impl<P: Protocol> Simulator<P> {
    /// Create a simulator.
    ///
    /// # Panics
    ///
    /// Panics if `positions` and `protocols` have different lengths.
    pub fn new(
        positions: Vec<Pos>,
        medium: Box<dyn Medium>,
        config: WorldConfig,
        protocols: Vec<P>,
    ) -> Self {
        assert_eq!(
            positions.len(),
            protocols.len(),
            "one protocol instance required per node"
        );
        Simulator {
            world: World::new(positions, medium, config),
            protocols,
            started: false,
            upcall_buf: Vec::new(),
            check_interval: None,
            next_check: None,
            oracles: Vec::new(),
            watchdog: None,
            wd_anchor: SimTime::ZERO,
            wd_events: 0,
        }
    }

    /// Arm the sim-time watchdog (see [`WatchdogBudget`]). Exceeding the
    /// budget panics with a message starting with [`WATCHDOG_PANIC_PREFIX`].
    ///
    /// # Panics
    ///
    /// Panics if `min_progress` is zero or `max_events` is zero.
    pub fn set_watchdog(&mut self, budget: WatchdogBudget) {
        assert!(
            budget.min_progress.as_nanos() > 0,
            "watchdog quantum must be positive"
        );
        assert!(
            budget.max_events > 0,
            "watchdog event budget must be positive"
        );
        self.watchdog = Some(budget);
        self.wd_anchor = self.world.now();
        self.wd_events = 0;
    }

    /// Attach a deterministic fault plan (see [`crate::fault`]).
    ///
    /// # Panics
    ///
    /// Panics if a plan is already attached, or a fault is scheduled in the
    /// past or names a node the world does not have.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.world.set_fault_plan(plan);
    }

    /// Run the invariant oracles every `every` of simulated time (plus once
    /// at the end of each `run_until`). A violation panics with the full
    /// list of broken invariants.
    pub fn set_invariant_interval(&mut self, every: SimDuration) {
        assert!(every.as_nanos() > 0, "checkpoint interval must be positive");
        self.check_interval = Some(every);
        self.next_check = None;
    }

    /// Register an additional protocol-level oracle run at each checkpoint
    /// alongside the built-in world oracles.
    pub fn add_oracle(&mut self, oracle: Oracle<P>) {
        self.oracles.push(oracle);
    }

    /// Run the world oracles plus registered protocol oracles once.
    ///
    /// # Panics
    ///
    /// Panics if any invariant is violated.
    pub fn check_invariants(&mut self) {
        let msgs = self.violations();
        assert!(
            msgs.is_empty(),
            "invariant violation(s) at {:?}:\n  {}",
            self.world.now(),
            msgs.join("\n  ")
        );
    }

    /// What the world oracles and the registered oracles find broken now.
    fn violations(&mut self) -> Vec<String> {
        let mut msgs: Vec<String> = self
            .world
            .check_invariants()
            .iter()
            .map(|v| v.to_string())
            .collect();
        let world = &self.world;
        let protocols = &self.protocols;
        for oracle in &mut self.oracles {
            msgs.extend(oracle(world, protocols));
        }
        msgs
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.world.now()
    }

    /// Run statistics so far.
    pub fn counters(&self) -> &Counters {
        self.world.counters()
    }

    /// Schedule hash over every event processed so far (see
    /// [`World::schedule_hash`]): equal seeds must yield equal hashes.
    pub fn schedule_hash(&self) -> u64 {
        self.world.schedule_hash()
    }

    /// Immutable access to the protocol instances (indexed by node id).
    pub fn protocols(&self) -> &[P] {
        &self.protocols
    }

    /// The world (read-only introspection: positions, counters, frames).
    pub fn world(&self) -> &World<P::Msg> {
        &self.world
    }

    /// Mutable world access (attaching trace sinks and similar plumbing).
    pub fn world_mut(&mut self) -> &mut World<P::Msg> {
        &mut self.world
    }

    /// Attach a mobility model (default: nodes are static).
    pub fn set_mobility(&mut self, model: Box<dyn crate::mobility::Mobility>) {
        self.world.set_mobility(model);
    }

    /// Advance the simulation until `t`, processing every event scheduled at
    /// or before it. On first call, `start` is invoked on every protocol.
    pub fn run_until(&mut self, t: SimTime) {
        if !self.started {
            self.started = true;
            for i in 0..self.protocols.len() {
                let node = crate::ids::NodeId::new(i as u32);
                let mut ctx = Ctx {
                    world: &mut self.world,
                    node,
                };
                self.protocols[i].start(&mut ctx);
            }
        }
        loop {
            let more = self.world.step(t, &mut self.upcall_buf);
            // Route upcalls generated by this event before the next one,
            // in the order the world produced them. Protocol callbacks do
            // not generate further upcalls (sends are asynchronous), so a
            // simple take-and-drain is safe.
            let mut ups = std::mem::take(&mut self.upcall_buf);
            for up in ups.drain(..) {
                match up {
                    Upcall::Deliver {
                        node,
                        src,
                        msg,
                        meta,
                    } => {
                        let mut ctx = Ctx {
                            world: &mut self.world,
                            node,
                        };
                        self.protocols[node.index()].handle_message(
                            &mut ctx,
                            src,
                            msg.as_ref(),
                            meta,
                        );
                    }
                    Upcall::TxDone {
                        node,
                        handle,
                        outcome,
                    } => {
                        let mut ctx = Ctx {
                            world: &mut self.world,
                            node,
                        };
                        self.protocols[node.index()].handle_tx_complete(&mut ctx, handle, outcome);
                    }
                    Upcall::Timer { node, timer, kind } => {
                        let mut ctx = Ctx {
                            world: &mut self.world,
                            node,
                        };
                        self.protocols[node.index()].handle_timer(&mut ctx, timer, kind);
                    }
                    Upcall::Restart { node } => {
                        let mut ctx = Ctx {
                            world: &mut self.world,
                            node,
                        };
                        self.protocols[node.index()].handle_restart(&mut ctx);
                    }
                }
            }
            self.upcall_buf = ups;
            if let Some(wd) = self.watchdog {
                let now = self.world.now();
                if now.saturating_since(self.wd_anchor) >= wd.min_progress {
                    self.wd_anchor = now;
                    self.wd_events = 0;
                } else {
                    self.wd_events += 1;
                    assert!(
                        self.wd_events <= wd.max_events,
                        "{WATCHDOG_PANIC_PREFIX}{} events dispatched within {:?} \
                         of simulated time at {:?} — livelocked run",
                        self.wd_events,
                        wd.min_progress,
                        now
                    );
                }
            }
            if let Some(every) = self.check_interval {
                let due = *self
                    .next_check
                    .get_or_insert_with(|| self.world.now() + every);
                if self.world.now() >= due {
                    self.check_invariants();
                    let mut next = due;
                    while next <= self.world.now() {
                        next += every;
                    }
                    self.next_check = Some(next);
                }
            }
            if !more {
                break;
            }
        }
        self.world.advance_clock(t);
        if self.check_interval.is_some() {
            self.check_invariants();
        }
    }

    /// Finish the run and extract the protocol instances and counters.
    pub fn into_parts(self) -> (Vec<P>, Counters) {
        let counters = self.world.counters().clone();
        (self.protocols, counters)
    }
}

impl<P> Simulator<P>
where
    P: Protocol + SnapshotState,
    P::Msg: Snap,
{
    /// Serialize the complete simulation state into a versioned checkpoint
    /// (DESIGN.md §14). `fingerprint` is an opaque hash of the scenario
    /// configuration: [`Simulator::restore`] refuses checkpoints stamped
    /// with a different one, catching restores into a mismatched scenario
    /// before any state is overwritten.
    ///
    /// Read-only — taking a snapshot never perturbs the run.
    pub fn snapshot(&self, fingerprint: u64) -> Vec<u8> {
        let Simulator {
            world,
            protocols,
            started,
            upcall_buf: _,     // scratch, empty between events
            check_interval: _, // run configuration
            next_check,
            oracles: _,  // run configuration
            watchdog: _, // run configuration
            wd_anchor,
            wd_events,
        } = self;
        let mut w = SnapWriter::with_header(fingerprint);
        started.snap(&mut w);
        wd_anchor.snap(&mut w);
        wd_events.snap(&mut w);
        next_check.snap(&mut w);
        world.snapshot_state(&mut w);
        for p in protocols {
            p.snapshot_state(&mut w);
        }
        w.into_bytes()
    }

    /// Overwrite this simulator's state from a checkpoint produced by
    /// [`Simulator::snapshot`] on a simulator built from the **same scenario
    /// configuration** (enforced via `fingerprint`). After a successful
    /// restore, continuing with [`Simulator::run_until`] reproduces the
    /// original run bit-for-bit: same schedule hash, counters and
    /// timeseries.
    ///
    /// # Errors
    ///
    /// Returns a [`SnapError`] if the checkpoint is malformed, truncated,
    /// from an unsupported format version, or stamped with a different
    /// configuration fingerprint. It also refuses, as
    /// [`SnapError::StateMismatch`], a state that the world oracles or the
    /// registered ones (see [`Simulator::add_oracle`]) find broken, whether
    /// or not an invariant interval is set: a supervised run's first check
    /// would panic on it, and an unsupervised one would report it. The
    /// simulator may be partially overwritten on error and must be
    /// discarded.
    pub fn restore(&mut self, bytes: &[u8], fingerprint: u64) -> Result<(), SnapError> {
        let mut r = SnapReader::with_header(bytes, fingerprint)?;
        self.started = r.bool()?;
        self.wd_anchor = Snap::unsnap(&mut r)?;
        self.wd_events = r.u64()?;
        self.next_check = Snap::unsnap(&mut r)?;
        self.world.restore_state(&mut r)?;
        for p in &mut self.protocols {
            p.restore_state(&mut r)?;
        }
        r.finish()?;
        if !self.violations().is_empty() {
            return Err(SnapError::StateMismatch("invariant oracles"));
        }
        Ok(())
    }
}

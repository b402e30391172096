//! Deterministic fault injection.
//!
//! A [`FaultPlan`] is a schedule of [`FaultKind`]s applied to the world as
//! ordinary simulator events: a plan attached before the run is replayed
//! bit-identically on every execution with the same seed, which is what the
//! differential-replay tests rely on.
//!
//! The fault model covers the failure classes the paper's metrics are meant
//! to survive:
//!
//! * **node crash / recover** — the radio goes silent, the MAC queue is
//!   purged and the protocol instance is rebooted on recovery (see
//!   [`crate::protocol::Protocol::handle_restart`]);
//! * **link blackout / degradation** — per-directed-link [`LinkEffect`]
//!   overrides applied by the medium (extra Bernoulli loss or total
//!   blackout);
//! * **regional partition** — every link crossing a vertical boundary is
//!   blacked out (snapshot of positions at fault time);
//! * **class loss bursts** — broadcast frames of one traffic class (e.g.
//!   probes) are dropped at the receiver with a given probability, modelling
//!   interference that selectively hits small periodic frames.

use crate::ids::NodeId;
use crate::medium::LinkEffect;
use crate::rng::SimRng;
use crate::time::SimTime;

/// One injectable fault.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultKind {
    /// Power off a node: radio silent, MAC queue purged, protocol frozen.
    NodeCrash(NodeId),
    /// Power a crashed node back on; its protocol gets a restart callback.
    NodeRecover(NodeId),
    /// Apply a [`LinkEffect`] override to one directed link.
    LinkFault {
        /// Transmitting side of the affected link.
        from: NodeId,
        /// Receiving side of the affected link.
        to: NodeId,
        /// The override to apply.
        effect: LinkEffect,
    },
    /// Remove any override from one directed link.
    LinkRestore {
        /// Transmitting side of the restored link.
        from: NodeId,
        /// Receiving side of the restored link.
        to: NodeId,
    },
    /// Black out every link crossing the vertical line `x = boundary_x_m`,
    /// judged against node positions at the instant the fault fires.
    Partition {
        /// The x coordinate of the partition boundary, in meters.
        boundary_x_m: f64,
    },
    /// Undo a previous [`FaultKind::Partition`] (restores exactly the links
    /// the partition blacked out).
    HealPartition,
    /// Drop received broadcast frames of `class` with probability `drop`.
    ClassLossBurst {
        /// Traffic class affected (e.g. the probe class).
        class: u8,
        /// Per-frame drop probability in `[0, 1]`.
        drop: f64,
    },
    /// End a [`FaultKind::ClassLossBurst`] for `class`.
    ClassLossClear {
        /// Traffic class restored.
        class: u8,
    },
}

impl FaultKind {
    /// The nodes this fault acts on: none for partitions and class bursts.
    pub(crate) fn nodes(&self) -> impl Iterator<Item = NodeId> {
        let (a, b) = match *self {
            FaultKind::NodeCrash(n) | FaultKind::NodeRecover(n) => (Some(n), None),
            FaultKind::LinkFault { from, to, .. } | FaultKind::LinkRestore { from, to } => {
                (Some(from), Some(to))
            }
            _ => (None, None),
        };
        a.into_iter().chain(b)
    }
}

/// A deterministic schedule of faults, applied as simulator events.
///
/// Build one with the chained helpers and attach it via
/// [`crate::simulator::Simulator::set_fault_plan`] (or
/// [`crate::world::World::set_fault_plan`]) before the run starts. A plan
/// is scenario configuration: a checkpoint does not hold it, and a restore
/// keeps the plan of the simulator it restores into.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    events: Vec<(SimTime, FaultKind)>,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Schedule one fault at an absolute time.
    pub fn at(mut self, t: SimTime, fault: FaultKind) -> Self {
        self.events.push((t, fault));
        self
    }

    /// Crash `node` at `t1` and recover it at `t2`.
    ///
    /// # Panics
    ///
    /// Panics if `t2 <= t1`.
    pub fn crash_window(self, node: NodeId, t1: SimTime, t2: SimTime) -> Self {
        assert!(t2 > t1, "recovery must follow the crash");
        self.at(t1, FaultKind::NodeCrash(node))
            .at(t2, FaultKind::NodeRecover(node))
    }

    /// Black out the link between `a` and `b` (both directions) during
    /// `[t1, t2)`.
    ///
    /// # Panics
    ///
    /// Panics if `t2 <= t1`.
    pub fn link_blackout_window(self, a: NodeId, b: NodeId, t1: SimTime, t2: SimTime) -> Self {
        assert!(t2 > t1, "restore must follow the blackout");
        self.at(
            t1,
            FaultKind::LinkFault {
                from: a,
                to: b,
                effect: LinkEffect::Blackout,
            },
        )
        .at(
            t1,
            FaultKind::LinkFault {
                from: b,
                to: a,
                effect: LinkEffect::Blackout,
            },
        )
        .at(t2, FaultKind::LinkRestore { from: a, to: b })
        .at(t2, FaultKind::LinkRestore { from: b, to: a })
    }

    /// Degrade the link between `a` and `b` (both directions) with extra
    /// Bernoulli loss `extra` during `[t1, t2)`.
    ///
    /// # Panics
    ///
    /// Panics if `t2 <= t1` or `extra` is not a probability.
    pub fn link_degrade_window(
        self,
        a: NodeId,
        b: NodeId,
        extra: f64,
        t1: SimTime,
        t2: SimTime,
    ) -> Self {
        assert!(t2 > t1, "restore must follow the degradation");
        assert!((0.0..=1.0).contains(&extra), "extra loss is a probability");
        self.at(
            t1,
            FaultKind::LinkFault {
                from: a,
                to: b,
                effect: LinkEffect::ExtraLoss(extra),
            },
        )
        .at(
            t1,
            FaultKind::LinkFault {
                from: b,
                to: a,
                effect: LinkEffect::ExtraLoss(extra),
            },
        )
        .at(t2, FaultKind::LinkRestore { from: a, to: b })
        .at(t2, FaultKind::LinkRestore { from: b, to: a })
    }

    /// Partition the network at `x = boundary_x_m` during `[t1, t2)`.
    ///
    /// # Panics
    ///
    /// Panics if `t2 <= t1`.
    pub fn partition_window(self, boundary_x_m: f64, t1: SimTime, t2: SimTime) -> Self {
        assert!(t2 > t1, "heal must follow the partition");
        self.at(t1, FaultKind::Partition { boundary_x_m })
            .at(t2, FaultKind::HealPartition)
    }

    /// Drop received broadcast frames of `class` with probability `drop`
    /// during `[t1, t2)`.
    ///
    /// # Panics
    ///
    /// Panics if `t2 <= t1` or `drop` is not a probability.
    pub fn class_loss_window(self, class: u8, drop: f64, t1: SimTime, t2: SimTime) -> Self {
        assert!(t2 > t1, "clear must follow the burst");
        assert!((0.0..=1.0).contains(&drop), "drop is a probability");
        self.at(t1, FaultKind::ClassLossBurst { class, drop })
            .at(t2, FaultKind::ClassLossClear { class })
    }

    /// The scheduled `(time, fault)` pairs, in insertion order. Events firing
    /// at the same instant apply in this order.
    pub fn events(&self) -> &[(SimTime, FaultKind)] {
        &self.events
    }

    /// Number of scheduled fault events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The time of the last scheduled event (recovery/clearance included).
    pub fn last_event_time(&self) -> Option<SimTime> {
        self.events.iter().map(|&(t, _)| t).max()
    }

    /// Generate a random plan from `cfg` using `rng` — same `(cfg, rng
    /// state)` always yields the same plan, so a `(scenario, plan seed,
    /// run seed)` triple fully determines a faulted run.
    ///
    /// Every injected fault is cleared by `cfg.window.1`, so runs extending
    /// past the window observe the post-clearance recovery.
    pub fn random(cfg: &RandomFaultConfig, rng: &mut SimRng) -> FaultPlan {
        let mut plan = FaultPlan::new();
        let (start, end) = cfg.window;
        let span = end.saturating_since(start);
        if cfg.nodes == 0 || span.as_nanos() == 0 || cfg.intensity <= 0.0 {
            return plan;
        }
        let eligible: Vec<NodeId> = (0..cfg.nodes as u32)
            .map(NodeId::new)
            .filter(|n| !cfg.protected.contains(n))
            .collect();
        // A window that starts in the first 60% of the span and lasts
        // 5%..30% of it, clamped so it always clears before `end`.
        let window = |rng: &mut SimRng| {
            let t1 = start + span.mul_f64(rng.uniform() * 0.6);
            let dur = span.mul_f64(0.05 + 0.25 * rng.uniform());
            let t2 = (t1 + dur).min(end);
            (t1, t2.max(t1 + crate::time::SimDuration::from_nanos(1)))
        };
        let crashes = (cfg.intensity * cfg.max_crashes as f64).round() as usize;
        for _ in 0..crashes {
            if eligible.is_empty() {
                break;
            }
            let node = eligible[rng.uniform_u32(eligible.len() as u32) as usize];
            let (t1, t2) = window(rng);
            plan = plan.crash_window(node, t1, t2);
        }
        let link_faults = (cfg.intensity * cfg.max_link_faults as f64).round() as usize;
        for _ in 0..link_faults {
            if cfg.nodes < 2 {
                break;
            }
            let a = NodeId::new(rng.uniform_u32(cfg.nodes as u32));
            let mut b = NodeId::new(rng.uniform_u32(cfg.nodes as u32));
            if b == a {
                b = NodeId::new((a.as_u32() + 1) % cfg.nodes as u32);
            }
            let (t1, t2) = window(rng);
            let pick = rng.uniform();
            if pick < 0.4 {
                plan = plan.link_blackout_window(a, b, t1, t2);
            } else {
                let extra = 0.3 + 0.6 * rng.uniform();
                plan = plan.link_degrade_window(a, b, extra, t1, t2);
            }
        }
        if cfg.probe_bursts && rng.chance(cfg.intensity) {
            let (t1, t2) = window(rng);
            let drop = 0.5 + 0.5 * rng.uniform();
            plan = plan.class_loss_window(cfg.burst_class, drop, t1, t2);
        }
        if let Some(width) = cfg.area_width_m {
            if rng.chance(cfg.intensity * 0.5) {
                let (t1, t2) = window(rng);
                let boundary = width * (0.3 + 0.4 * rng.uniform());
                plan = plan.partition_window(boundary, t1, t2);
            }
        }
        plan
    }
}

/// Parameters for [`FaultPlan::random`]. `intensity` in `[0, 1]` scales the
/// number and severity of injected faults; `0.0` yields an empty plan.
#[derive(Debug, Clone, PartialEq)]
pub struct RandomFaultConfig {
    /// Number of nodes in the scenario.
    pub nodes: usize,
    /// Nodes that must never crash (typically the traffic sources).
    pub protected: Vec<NodeId>,
    /// `(start, end)`: faults are injected and fully cleared inside this span.
    pub window: (SimTime, SimTime),
    /// Fault intensity in `[0, 1]`.
    pub intensity: f64,
    /// Crash/recover windows at intensity 1.
    pub max_crashes: usize,
    /// Link blackout/degradation windows at intensity 1.
    pub max_link_faults: usize,
    /// Whether to consider a probe-loss burst.
    pub probe_bursts: bool,
    /// Traffic class hit by bursts (the protocol's probe class).
    pub burst_class: u8,
    /// Area width for partitions; `None` disables partition faults.
    pub area_width_m: Option<f64>,
}

impl RandomFaultConfig {
    /// A moderate default for an `n`-node run faulted inside `window`.
    pub fn new(nodes: usize, window: (SimTime, SimTime)) -> Self {
        RandomFaultConfig {
            nodes,
            protected: Vec::new(),
            window,
            intensity: 0.5,
            max_crashes: 3,
            max_link_faults: 4,
            probe_bursts: true,
            burst_class: 1,
            area_width_m: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimTime;

    fn s(x: u64) -> SimTime {
        SimTime::from_secs(x)
    }

    #[test]
    fn builders_accumulate_events() {
        let plan = FaultPlan::new()
            .crash_window(NodeId::new(1), s(10), s(20))
            .link_blackout_window(NodeId::new(0), NodeId::new(2), s(5), s(15))
            .class_loss_window(1, 0.8, s(8), s(12));
        assert_eq!(plan.len(), 8);
        assert_eq!(plan.last_event_time(), Some(s(20)));
    }

    #[test]
    fn random_is_deterministic_and_bounded() {
        let cfg = RandomFaultConfig {
            intensity: 1.0,
            area_width_m: Some(1000.0),
            ..RandomFaultConfig::new(20, (s(10), s(30)))
        };
        let a = FaultPlan::random(&cfg, &mut SimRng::seed_from(7));
        let b = FaultPlan::random(&cfg, &mut SimRng::seed_from(7));
        assert_eq!(a, b, "same seed must yield the same plan");
        assert!(!a.is_empty());
        assert!(
            a.last_event_time().unwrap() <= s(30),
            "faults clear in window"
        );
    }

    #[test]
    fn zero_intensity_is_empty() {
        let cfg = RandomFaultConfig {
            intensity: 0.0,
            ..RandomFaultConfig::new(10, (s(1), s(2)))
        };
        assert!(FaultPlan::random(&cfg, &mut SimRng::seed_from(1)).is_empty());
    }

    #[test]
    fn protected_nodes_never_crash() {
        let protected: Vec<NodeId> = (0..5).map(NodeId::new).collect();
        let cfg = RandomFaultConfig {
            intensity: 1.0,
            protected: protected.clone(),
            ..RandomFaultConfig::new(5, (s(1), s(20)))
        };
        for seed in 0..20 {
            let plan = FaultPlan::random(&cfg, &mut SimRng::seed_from(seed));
            for (_, f) in plan.events() {
                assert!(
                    !matches!(f, FaultKind::NodeCrash(n) if protected.contains(n)),
                    "protected node crashed in {plan:?}"
                );
            }
        }
    }
}

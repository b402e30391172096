//! The scenario every run is built from.
//!
//! A [`WorkloadScenario`] is what a deck (`scenarios/*.toml`) compiles to:
//! the paper's [`MeshScenario`] knobs plus the topology family (random
//! mesh, grid, metro density, or the §5 testbed floor plan), the multicast
//! protocol, the traffic mix, per-group receiver churn, mobility and
//! faults. Every derived artifact (layout, medium, simulator, fault plan)
//! is a pure function of the struct plus `(variant, seed)`, so two equal
//! `WorkloadScenario`s run bit-identically. [`WorkloadScenario::assemble`]
//! is the one place a simulator is put together.

use mesh_sim::fault::{FaultPlan, RandomFaultConfig};
use mesh_sim::geometry::Area;
use mesh_sim::ids::{GroupId, NodeId};
use mesh_sim::mac::MacParams;
use mesh_sim::medium::{Medium, PhysicalMedium};
use mesh_sim::mobility::RandomWaypoint;
use mesh_sim::propagation::{FadingModel, PhyParams};
use mesh_sim::protocol::Protocol;
use mesh_sim::rng::SimRng;
use mesh_sim::simulator::Simulator;
use mesh_sim::time::{SimDuration, SimTime};
use mesh_sim::topology;
use mesh_sim::world::WorldConfig;
use odmrp::{CbrSource, MembershipWindow, NodeRole, OdmrpNode, Variant};
use testbed::TestbedMedium;

use crate::measure::RunMeasurement;
use crate::runner::{run, Checkpoint, CheckpointSlot, RunSpec};
use crate::scenario::{draw_layout, GroupSpec, MeshScenario, ScenarioLayout};

/// How nodes are placed.
#[derive(Debug, Clone, PartialEq)]
pub enum TopologyFamily {
    /// The paper's procedure: uniform placement in `mesh.area_side`²,
    /// resampled until connected at `mesh.range` ([`MeshScenario::layout`]).
    Random,
    /// A `cols × rows` grid with the given spacing (meters). `mesh.nodes`
    /// and `mesh.area_side` are derived — use [`WorkloadScenario::grid`].
    Grid {
        /// Grid columns.
        cols: usize,
        /// Grid rows.
        rows: usize,
        /// Node spacing in meters.
        spacing: f64,
    },
    /// Metro density: uniform placement (no connectivity requirement) over
    /// an area whose side is `side_per_50 × nodes / 50` meters, so the
    /// corridor density stays constant as the city grows.
    Metro {
        /// Area side at 50 nodes, meters.
        side_per_50: f64,
    },
    /// The §5 testbed: the Figure-4 office floor plan, its two groups
    /// (node 2 → {3, 5}, node 4 → {1, 7}) and the lossy-link
    /// [`TestbedMedium`] in place of the radio model. `mesh.nodes`,
    /// `mesh.area_side` and the group shape are fixed by the floor plan.
    Testbed,
}

/// Which multicast protocol the nodes run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtocolKind {
    /// Mesh-based ODMRP (§3), the paper's protocol.
    Odmrp,
    /// The MAODV-style shared tree (§4.3's comparison point).
    Maodv,
}

/// The per-source traffic shape.
#[derive(Debug, Clone, PartialEq)]
pub enum TrafficMix {
    /// One CBR stream spanning the whole data window (the paper's workload).
    Steady,
    /// On/off bursts: each source alternates `on` seconds of CBR with `off`
    /// seconds of silence across the data window, compiled into one
    /// [`CbrSource`] segment per burst — no protocol changes needed.
    Bursty {
        /// Burst length.
        on: SimDuration,
        /// Gap between bursts.
        off: SimDuration,
    },
}

/// One explicit membership window from a `[[churn.window]]` table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnWindow {
    /// Node index.
    pub node: usize,
    /// Group index.
    pub group: u32,
    /// Join instant.
    pub join: SimTime,
    /// Leave instant (exclusive; clamped to the end of the run).
    pub leave: SimTime,
}

/// Receiver join/leave churn: generated per-group churners plus explicit
/// windows. Generated churners are drawn deterministically from the nodes
/// the base layout left roleless, so the base layout is untouched.
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnSpec {
    /// Churning receivers added to each group (0 = explicit windows only).
    pub per_group: usize,
    /// Earliest generated join.
    pub start: SimTime,
    /// Latest generated leave (flash churners stay until here).
    pub end: SimTime,
    /// How long each staggered churner stays joined.
    pub dwell: SimDuration,
    /// Join-time spacing between a group's churners.
    pub stagger: SimDuration,
    /// Flash-crowd mode: every churner joins near `start` (staggered by
    /// `stagger`) and stays until `end` — the webcast-goes-viral shape.
    pub flash: bool,
    /// Explicit windows on named nodes, applied after the generated ones.
    pub explicit: Vec<ChurnWindow>,
}

impl ChurnSpec {
    /// The `(join, leave)` window of generated churner `k` of a group
    /// (before clamping to the end of the run).
    fn generated_window(&self, k: usize) -> (SimTime, SimTime) {
        let join = self.start + self.stagger.saturating_mul(k as u64);
        let leave = if self.flash {
            self.end
        } else {
            join + self.dwell
        };
        (join, leave)
    }
}

/// Random-waypoint mobility parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct MobilitySpec {
    /// Minimum speed, m/s (must be > 0).
    pub min_speed: f64,
    /// Maximum speed, m/s.
    pub max_speed: f64,
    /// Pause at each waypoint.
    pub pause: SimDuration,
}

/// One explicit fault window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultWindow {
    /// Node down between `from` and `to`.
    Crash {
        /// Node index.
        node: usize,
        /// Fault start.
        from: SimTime,
        /// Fault end.
        to: SimTime,
    },
    /// Link `a`—`b` blacked out between `from` and `to`.
    LinkBlackout {
        /// One endpoint.
        a: usize,
        /// Other endpoint.
        b: usize,
        /// Fault start.
        from: SimTime,
        /// Fault end.
        to: SimTime,
    },
    /// Vertical partition at `x` meters between `from` and `to`.
    Partition {
        /// Boundary x coordinate, meters.
        x: f64,
        /// Fault start.
        from: SimTime,
        /// Fault end.
        to: SimTime,
    },
    /// Class-targeted loss burst: drop `drop` of class `class` frames.
    ClassLoss {
        /// Frame class (see `odmrp::messages::class`).
        class: u8,
        /// Drop probability in `[0, 1]`.
        drop: f64,
        /// Fault start.
        from: SimTime,
        /// Fault end.
        to: SimTime,
    },
}

/// Where the fault plan comes from.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultSpec {
    /// No faults.
    None,
    /// A seeded random plan at the given intensity, sources protected
    /// (the PR-2 generator).
    Random {
        /// Intensity in `[0, 1]`.
        intensity: f64,
    },
    /// Explicit windows, applied in order.
    Windows(Vec<FaultWindow>),
}

/// A declarative workload: the paper's mesh scenario plus topology family,
/// traffic mix, receiver churn, mobility and faults.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadScenario {
    /// Scenario name (the TOML `name` key; used in reports and JSONL).
    pub name: String,
    /// Core knobs shared with the paper runners.
    pub mesh: MeshScenario,
    /// Node placement family.
    pub topology: TopologyFamily,
    /// Multicast protocol.
    pub protocol: ProtocolKind,
    /// Traffic shape.
    pub traffic: TrafficMix,
    /// Receiver join/leave churn.
    pub churn: Option<ChurnSpec>,
    /// Random-waypoint mobility.
    pub mobility: Option<MobilitySpec>,
    /// Fault plan source.
    pub faults: FaultSpec,
}

/// The area side of a `cols × rows` grid with `spacing` (the larger span;
/// at least 1 m so [`Area`] stays valid for 1×N chains).
pub fn grid_side(cols: usize, rows: usize, spacing: f64) -> f64 {
    let span = spacing * (cols.max(rows).saturating_sub(1)) as f64;
    span.max(1.0)
}

/// The area side of a metro placement: `side_per_50 × nodes / 50`.
pub fn metro_side(nodes: usize, side_per_50: f64) -> f64 {
    side_per_50 * nodes as f64 / 50.0
}

/// Nodes on the Figure-4 floor plan.
pub const TESTBED_NODES: usize = 8;

/// The side of the square holding the Figure-4 floor plan, meters.
pub fn testbed_side() -> f64 {
    testbed::floorplan::positions()
        .iter()
        .fold(1.0, |side, p| side.max(p.x).max(p.y))
}

impl WorkloadScenario {
    /// Wrap a plain [`MeshScenario`]: random topology, ODMRP, steady CBR,
    /// no churn/mobility/faults.
    pub fn from_mesh(name: &str, mesh: MeshScenario) -> Self {
        WorkloadScenario {
            name: name.to_string(),
            mesh,
            topology: TopologyFamily::Random,
            protocol: ProtocolKind::Odmrp,
            traffic: TrafficMix::Steady,
            churn: None,
            mobility: None,
            faults: FaultSpec::None,
        }
    }

    /// A grid workload: `base` supplies the group/time/protocol knobs;
    /// `nodes` and `area_side` are derived from the grid shape.
    pub fn grid(name: &str, cols: usize, rows: usize, spacing: f64, base: MeshScenario) -> Self {
        let mesh = MeshScenario {
            nodes: cols * rows,
            area_side: grid_side(cols, rows, spacing),
            ..base
        };
        WorkloadScenario {
            topology: TopologyFamily::Grid {
                cols,
                rows,
                spacing,
            },
            ..WorkloadScenario::from_mesh(name, mesh)
        }
    }

    /// A metro-density workload: `nodes` nodes over a
    /// `side_per_50 × nodes / 50` square.
    pub fn metro(name: &str, nodes: usize, side_per_50: f64, base: MeshScenario) -> Self {
        let mesh = MeshScenario {
            nodes,
            area_side: metro_side(nodes, side_per_50),
            ..base
        };
        WorkloadScenario {
            topology: TopologyFamily::Metro { side_per_50 },
            ..WorkloadScenario::from_mesh(name, mesh)
        }
    }

    /// When the whole run ends: two seconds after the data window, so the
    /// last packets can arrive.
    pub fn run_until(&self) -> SimTime {
        self.mesh.data_stop + SimDuration::from_secs(2)
    }

    /// Cross-field validation: every rule the TOML front-end enforces, so a
    /// hand-built scenario and a sweep-mutated one meet the same contract.
    /// Returns a human-readable message for the first violation.
    pub fn validate(&self) -> Result<(), String> {
        // Finite and strictly positive; NaN fails.
        fn positive(v: f64) -> bool {
            v.is_finite() && v > 0.0
        }
        let n = self.mesh.nodes;
        if n < 2 {
            return Err(format!("topology needs at least 2 nodes, got {n}"));
        }
        if !positive(self.mesh.area_side) || !positive(self.mesh.range) {
            return Err("area_side and range must be positive".into());
        }
        if self.mesh.data_stop <= self.mesh.data_start {
            return Err(format!(
                "data_stop ({:.1}s) must be after data_start ({:.1}s)",
                self.mesh.data_stop.as_secs_f64(),
                self.mesh.data_start.as_secs_f64()
            ));
        }
        if !positive(self.mesh.probe_rate) {
            return Err("probe_rate must be positive".into());
        }
        match self.topology {
            TopologyFamily::Random => {}
            TopologyFamily::Grid {
                cols,
                rows,
                spacing,
            } => {
                if cols == 0 || rows == 0 {
                    return Err("grid cols and rows must be at least 1".into());
                }
                if !positive(spacing) {
                    return Err("grid spacing must be positive".into());
                }
                if cols * rows != n {
                    return Err(format!(
                        "grid is {cols}x{rows} = {} nodes but mesh.nodes is {n}",
                        cols * rows
                    ));
                }
                if self.mesh.area_side != grid_side(cols, rows, spacing) {
                    return Err(
                        "grid area_side is inconsistent; build via WorkloadScenario::grid".into(),
                    );
                }
            }
            TopologyFamily::Metro { side_per_50 } => {
                if !positive(side_per_50) {
                    return Err("metro side_per_50 must be positive".into());
                }
                if self.mesh.area_side != metro_side(n, side_per_50) {
                    return Err(
                        "metro area_side is inconsistent; build via WorkloadScenario::metro".into(),
                    );
                }
            }
            TopologyFamily::Testbed => {
                if n != TESTBED_NODES || self.mesh.area_side != testbed_side() {
                    return Err(format!(
                        "the testbed floor plan has {TESTBED_NODES} nodes; nodes and area_side are fixed"
                    ));
                }
                if (
                    self.mesh.groups,
                    self.mesh.members_per_group,
                    self.mesh.sources_per_group,
                ) != (2, 2, 1)
                {
                    return Err(
                        "the testbed floor plan fixes Figure 4's two groups (1 source, 2 members each)"
                            .into(),
                    );
                }
            }
        }
        let churners_per_group = self.churn.as_ref().map_or(0, |c| c.per_group);
        let needed = self.mesh.groups
            * (self.mesh.members_per_group + self.mesh.sources_per_group + churners_per_group);
        if needed > n {
            return Err(format!(
                "roles need {needed} distinct nodes ({} groups x ({} members + {} sources + {churners_per_group} churners)) but the topology has {n}",
                self.mesh.groups, self.mesh.members_per_group, self.mesh.sources_per_group
            ));
        }
        if let TrafficMix::Bursty { on, off } = self.traffic {
            if on == SimDuration::ZERO {
                return Err("bursty traffic needs on_secs > 0".into());
            }
            let _ = off; // zero gap degenerates to steady, which is fine
        }
        if let Some(churn) = &self.churn {
            self.validate_churn(churn)?;
        }
        if let Some(m) = &self.mobility {
            if !positive(m.min_speed) || m.max_speed < m.min_speed {
                return Err(format!(
                    "mobility speeds must satisfy 0 < min_speed <= max_speed, got [{}, {}]",
                    m.min_speed, m.max_speed
                ));
            }
        }
        match &self.faults {
            FaultSpec::None => {}
            FaultSpec::Random { intensity } => {
                if !(0.0..=1.0).contains(intensity) {
                    return Err(format!(
                        "fault random_intensity must be in [0, 1], got {intensity}"
                    ));
                }
            }
            FaultSpec::Windows(ws) => {
                for w in ws {
                    self.validate_fault_window(w)?;
                }
            }
        }
        Ok(())
    }

    fn validate_churn(&self, churn: &ChurnSpec) -> Result<(), String> {
        let n = self.mesh.nodes;
        let end_of_run = self.run_until();
        if churn.per_group == 0 && churn.explicit.is_empty() {
            return Err(
                "churn section defines no windows (per_group = 0 and no [[churn.window]])".into(),
            );
        }
        if churn.per_group > 0 {
            if churn.end <= churn.start {
                return Err(format!(
                    "churn end ({:.1}s) must be after start ({:.1}s)",
                    churn.end.as_secs_f64(),
                    churn.start.as_secs_f64()
                ));
            }
            if !churn.flash && churn.dwell == SimDuration::ZERO {
                return Err("staggered churn needs dwell > 0".into());
            }
            let (last_join, last_leave) = churn.generated_window(churn.per_group - 1);
            if last_join >= churn.end {
                return Err(format!(
                    "churner {} would join at {:.1}s, at/after churn end ({:.1}s) — reduce stagger or per_group",
                    churn.per_group - 1,
                    last_join.as_secs_f64(),
                    churn.end.as_secs_f64()
                ));
            }
            if last_leave > churn.end {
                return Err(format!(
                    "churner {} would leave at {:.1}s, after churn end ({:.1}s) — reduce dwell, stagger or per_group",
                    churn.per_group - 1,
                    last_leave.as_secs_f64(),
                    churn.end.as_secs_f64()
                ));
            }
        }
        // Explicit windows: in-range references, ordered windows, no
        // overlapping membership of the same (node, group).
        for w in &churn.explicit {
            if w.node >= n {
                return Err(format!(
                    "churn window names node {} but the topology has {n} nodes",
                    w.node
                ));
            }
            if w.group as usize >= self.mesh.groups {
                return Err(format!(
                    "churn window names group {} but the scenario has {} groups",
                    w.group, self.mesh.groups
                ));
            }
            if w.leave <= w.join {
                return Err(format!(
                    "churn window leave ({:.1}s) must be after join ({:.1}s)",
                    w.leave.as_secs_f64(),
                    w.join.as_secs_f64()
                ));
            }
            if w.join >= end_of_run {
                return Err(format!(
                    "churn window joins at {:.1}s, at/after the end of the run ({:.1}s)",
                    w.join.as_secs_f64(),
                    end_of_run.as_secs_f64()
                ));
            }
        }
        for (i, a) in churn.explicit.iter().enumerate() {
            for b in churn.explicit.iter().skip(i + 1) {
                if a.node == b.node && a.group == b.group && a.join < b.leave && b.join < a.leave {
                    return Err(format!(
                        "overlapping churn windows for node {} group {}: [{:.1}s, {:.1}s) and [{:.1}s, {:.1}s)",
                        a.node,
                        a.group,
                        a.join.as_secs_f64(),
                        a.leave.as_secs_f64(),
                        b.join.as_secs_f64(),
                        b.leave.as_secs_f64()
                    ));
                }
            }
        }
        Ok(())
    }

    fn validate_fault_window(&self, w: &FaultWindow) -> Result<(), String> {
        let n = self.mesh.nodes;
        let (from, to) = match *w {
            FaultWindow::Crash { node, from, to } => {
                if node >= n {
                    return Err(format!(
                        "fault crash names node {node} but the topology has {n} nodes"
                    ));
                }
                (from, to)
            }
            FaultWindow::LinkBlackout { a, b, from, to } => {
                if a >= n || b >= n {
                    return Err(format!(
                        "fault blackout names nodes {a},{b} but the topology has {n} nodes"
                    ));
                }
                if a == b {
                    return Err(format!(
                        "fault blackout needs two distinct nodes, got {a} twice"
                    ));
                }
                (from, to)
            }
            FaultWindow::Partition { from, to, .. } => (from, to),
            FaultWindow::ClassLoss { drop, from, to, .. } => {
                if !(0.0..=1.0).contains(&drop) {
                    return Err(format!(
                        "fault class loss drop must be in [0, 1], got {drop}"
                    ));
                }
                (from, to)
            }
        };
        if to <= from {
            return Err(format!(
                "fault window to ({:.1}s) must be after from ({:.1}s)",
                to.as_secs_f64(),
                from.as_secs_f64()
            ));
        }
        Ok(())
    }

    /// `validate` or panic — for hand-built scenarios, where an invalid
    /// spec is a programmer error.
    pub fn validated(self) -> Self {
        if let Err(e) = self.validate() {
            panic!("invalid workload scenario `{}`: {e}", self.name);
        }
        self
    }

    /// The layout: base layout per the topology family, then the traffic
    /// mix rewrite and the churn overlay. Pure function of `(self, seed)`.
    pub fn layout(&self, seed: u64) -> ScenarioLayout {
        let (mut layout, spare) = match self.topology {
            TopologyFamily::Random => {
                let mut rng = SimRng::seed_from(seed ^ 0xC0FF_EE00);
                let positions = topology::random_connected(
                    self.mesh.nodes,
                    Area::square(self.mesh.area_side),
                    self.mesh.range,
                    &mut rng,
                    10_000,
                );
                draw_layout(
                    positions,
                    &mut rng,
                    self.mesh.groups,
                    self.mesh.members_per_group,
                    self.mesh.sources_per_group,
                    self.mesh.data_start,
                    self.mesh.data_stop,
                )
            }
            TopologyFamily::Grid {
                cols,
                rows,
                spacing,
            } => {
                let mut rng = SimRng::seed_from(seed ^ 0xC0FF_EE00);
                draw_layout(
                    topology::grid(cols, rows, spacing),
                    &mut rng,
                    self.mesh.groups,
                    self.mesh.members_per_group,
                    self.mesh.sources_per_group,
                    self.mesh.data_start,
                    self.mesh.data_stop,
                )
            }
            TopologyFamily::Metro { .. } => {
                let mut rng = SimRng::seed_from(seed ^ 0xC0FF_EE00);
                let positions = topology::random_placement(
                    self.mesh.nodes,
                    Area::square(self.mesh.area_side),
                    &mut rng,
                );
                draw_layout(
                    positions,
                    &mut rng,
                    self.mesh.groups,
                    self.mesh.members_per_group,
                    self.mesh.sources_per_group,
                    self.mesh.data_start,
                    self.mesh.data_stop,
                )
            }
            TopologyFamily::Testbed => self.testbed_layout(),
        };
        self.apply_traffic(&mut layout);
        self.apply_churn(&mut layout, spare);
        layout
    }

    /// The Figure-4 roles (§5.3), plus the roleless node ids in ascending
    /// order for the churn overlay.
    fn testbed_layout(&self) -> (ScenarioLayout, Vec<usize>) {
        let mut roles = vec![NodeRole::forwarder(); TESTBED_NODES];
        let mut groups = Vec::new();
        for (g, (src, members)) in testbed::paper_groups().into_iter().enumerate() {
            let gid = GroupId(g as u32);
            let sid = testbed::id_of(src);
            roles[sid.index()].sources.push(CbrSource::paper_default(
                gid,
                self.mesh.data_start,
                self.mesh.data_stop,
            ));
            let mut mlist = Vec::new();
            for m in members {
                let mid = testbed::id_of(m);
                roles[mid.index()].member_of.push(gid);
                mlist.push(mid);
            }
            groups.push(GroupSpec {
                group: gid,
                sources: vec![sid],
                members: mlist,
                churners: Vec::new(),
            });
        }
        let spare = (0..TESTBED_NODES)
            .filter(|&i| roles[i].sources.is_empty() && roles[i].member_of.is_empty())
            .collect();
        let layout = ScenarioLayout {
            positions: testbed::floorplan::positions(),
            roles,
            groups,
        };
        (layout, spare)
    }

    /// Rewrite each whole-window CBR source into its burst segments.
    fn apply_traffic(&self, layout: &mut ScenarioLayout) {
        let TrafficMix::Bursty { on, off } = self.traffic else {
            return;
        };
        for role in &mut layout.roles {
            if role.sources.is_empty() {
                continue;
            }
            let originals = std::mem::take(&mut role.sources);
            for src in originals {
                let mut start = src.start;
                while start < src.stop {
                    let stop = (start + on).min(src.stop);
                    role.sources.push(CbrSource { start, stop, ..src });
                    start = stop + off;
                    if off == SimDuration::ZERO {
                        break; // zero gap: the single segment already covers everything
                    }
                }
            }
        }
    }

    /// Attach churn windows: generated churners consume the spare shuffled
    /// ids (group-major, so group 0 gets the first `per_group` spares), then
    /// explicit windows land on their named nodes. Leaves clamp to the end
    /// of the run. Each churner is recorded on its [`GroupSpec`] with its
    /// expected packet count for measurement.
    fn apply_churn(&self, layout: &mut ScenarioLayout, spare: Vec<usize>) {
        let Some(churn) = &self.churn else {
            return;
        };
        let end_of_run = self.run_until();
        let mut spare = spare.into_iter();
        for g in 0..layout.groups.len() {
            let gid = layout.groups[g].group;
            for k in 0..churn.per_group {
                let id = spare
                    .next()
                    .expect("validate() guarantees enough spare nodes for churners");
                let (join, leave) = churn.generated_window(k);
                self.attach_window(layout, g, gid, id, join, leave.min(end_of_run));
            }
        }
        for w in churn.explicit.clone() {
            let g = w.group as usize;
            let gid = layout.groups[g].group;
            self.attach_window(layout, g, gid, w.node, w.join, w.leave.min(end_of_run));
        }
    }

    fn attach_window(
        &self,
        layout: &mut ScenarioLayout,
        g: usize,
        gid: GroupId,
        node: usize,
        join: SimTime,
        leave: SimTime,
    ) {
        assert!(leave > join, "churn window must keep leave after join");
        layout.roles[node].windows.push(MembershipWindow {
            group: gid,
            join,
            leave,
        });
        let expected = expected_packets(layout, g, join, leave);
        layout.groups[g]
            .churners
            .push((NodeId::new(node as u32), expected));
    }

    /// Draw a random but fully deterministic fault plan for topology `seed`:
    /// crashes, link faults and possibly a partition inside the data window,
    /// scaled by `intensity` in `[0, 1]`. Sources are protected — crashing
    /// the only traffic generator makes every delivery measurement vacuous —
    /// and faults clear before the run ends so recovery is observable.
    pub fn random_fault_plan(&self, seed: u64, intensity: f64) -> FaultPlan {
        let layout = self.layout(seed);
        let protected: Vec<NodeId> = layout
            .groups
            .iter()
            .flat_map(|g| g.sources.iter().copied())
            .collect();
        let margin = SimDuration::from_secs(5);
        let mut cfg = RandomFaultConfig::new(
            self.mesh.nodes,
            (self.mesh.data_start + margin, self.mesh.data_stop),
        );
        cfg.protected = protected;
        cfg.intensity = intensity;
        cfg.area_width_m = Some(self.mesh.area_side);
        // Decorrelate the plan from the topology and MAC streams.
        let mut rng = SimRng::seed_from(seed ^ 0xFA17_0000);
        FaultPlan::random(&cfg, &mut rng)
    }

    /// The fault plan for `seed`, if the scenario has one.
    pub fn fault_plan(&self, seed: u64) -> Option<FaultPlan> {
        match &self.faults {
            FaultSpec::None => None,
            FaultSpec::Random { intensity } => Some(self.random_fault_plan(seed, *intensity)),
            FaultSpec::Windows(ws) => {
                let mut plan = FaultPlan::new();
                for w in ws {
                    plan = match *w {
                        FaultWindow::Crash { node, from, to } => {
                            plan.crash_window(NodeId::new(node as u32), from, to)
                        }
                        FaultWindow::LinkBlackout { a, b, from, to } => plan.link_blackout_window(
                            NodeId::new(a as u32),
                            NodeId::new(b as u32),
                            from,
                            to,
                        ),
                        FaultWindow::Partition { x, from, to } => {
                            plan.partition_window(x, from, to)
                        }
                        FaultWindow::ClassLoss {
                            class,
                            drop,
                            from,
                            to,
                        } => plan.class_loss_window(class, drop, from, to),
                    };
                }
                Some(plan)
            }
        }
    }

    /// The medium of topology `seed`: the Figure-4 testbed model (its
    /// link-loss walk seeded from `seed`) or the paper's two-ray ground
    /// medium, Rayleigh-faded per `mesh.fading` and spatially indexed per
    /// `mesh.indexed_medium`.
    pub fn medium(&self, seed: u64) -> Box<dyn Medium> {
        if self.topology == TopologyFamily::Testbed {
            let mut rng = SimRng::seed_from(seed ^ 0x7E57_BED0);
            return Box::new(TestbedMedium::new(&mut rng));
        }
        let phy = PhyParams {
            fading: if self.mesh.fading {
                FadingModel::Rayleigh
            } else {
                FadingModel::None
            },
            ..PhyParams::default()
        };
        Box::new(PhysicalMedium::new(phy).with_indexing(self.mesh.indexed_medium))
    }

    /// Put a simulator together for topology `seed`: layout, one node per
    /// role from `node`, `medium`, then mobility and the fault plan. Returns
    /// the groups for measurement alongside. Generic over the node type, so
    /// every protocol's event loop stays monomorphic.
    pub fn assemble<P: Protocol>(
        &self,
        seed: u64,
        medium: Box<dyn Medium>,
        node: impl FnMut(NodeRole) -> P,
    ) -> (Simulator<P>, Vec<GroupSpec>) {
        let layout = self.layout(seed);
        let nodes: Vec<P> = layout.roles.into_iter().map(node).collect();
        let mut sim = Simulator::new(
            layout.positions,
            medium,
            WorldConfig {
                mac: MacParams::default(),
                seed,
            },
            nodes,
        );
        if let Some(m) = &self.mobility {
            sim.set_mobility(Box::new(RandomWaypoint::new(
                Area::square(self.mesh.area_side),
                m.min_speed,
                m.max_speed,
                m.pause,
            )));
        }
        if let Some(plan) = self.fault_plan(seed) {
            sim.set_fault_plan(plan);
        }
        (sim, layout.groups)
    }

    /// Build a ready-to-run ODMRP simulator for `variant` on topology
    /// `seed`, with mobility and the fault plan attached.
    ///
    /// # Panics
    ///
    /// Panics for a MAODV scenario, whose nodes are not [`OdmrpNode`]s;
    /// [`run`](crate::runner::run) runs either protocol.
    pub fn build(&self, variant: Variant, seed: u64) -> Simulator<OdmrpNode> {
        assert_eq!(
            self.protocol,
            ProtocolKind::Odmrp,
            "`{}` runs MAODV; build its simulator through experiments::run",
            self.name
        );
        let cfg = self.mesh.odmrp_config(variant);
        self.assemble(seed, self.medium(seed), |r| OdmrpNode::new(cfg.clone(), r))
            .0
    }

    /// The snapshot-header fingerprint of one `(scenario, variant, seed)`
    /// cell: FNV-1a over the scenario's full debug form plus the variant and
    /// seed. A checkpoint restores only into a simulator built from the same
    /// cell — everything the snapshot does *not* serialize (topology,
    /// configs, roles) is pinned by this value.
    pub fn fingerprint(&self, variant: Variant, seed: u64) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut fold = |bytes: &[u8]| {
            for &b in bytes {
                h ^= b as u64;
                h = h.wrapping_mul(0x100_0000_01b3);
            }
        };
        fold(format!("{self:?}").as_bytes());
        fold(format!("{variant:?}").as_bytes());
        fold(&seed.to_le_bytes());
        h
    }

    /// One fully supervised run (see [`RunSpec::supervised`]) with
    /// **checkpoint/restore** through `slot`: if `slot` holds a checkpoint
    /// (left behind by a previous panicking attempt), the run resumes from
    /// it instead of replaying from `t = 0`; either way it checkpoints into
    /// `slot` at each quarter mark of the simulated horizon and hands each
    /// checkpoint to `persist` — the sweep binary mirrors them to disk so a
    /// SIGKILLed sweep can resume mid-cell in a fresh process. A thin
    /// wrapper over [`run`].
    pub fn run_supervised_checkpointed(
        &self,
        variant: Variant,
        seed: u64,
        slot: &CheckpointSlot,
        persist: impl Fn(SimTime, &[u8]),
    ) -> RunMeasurement {
        let mut spec = RunSpec::new(self, variant, seed).supervised();
        spec.supervise.checkpoint = Some(Checkpoint {
            slot,
            persist: &persist,
        });
        run(&spec)
    }
}

/// Nominal packet departures of group `g`'s sources inside `[join, leave)`:
/// the expected delivery opportunities of a windowed receiver (edge
/// approximation: a packet departing just before `leave` may arrive after
/// it and go uncredited).
fn expected_packets(layout: &ScenarioLayout, g: usize, join: SimTime, leave: SimTime) -> u64 {
    let gid = layout.groups[g].group;
    let mut total = 0u64;
    for s in &layout.groups[g].sources {
        for seg in &layout.roles[s.index()].sources {
            if seg.group != gid {
                continue;
            }
            total += departures_in(seg, join, leave);
        }
    }
    total
}

/// Departures of one CBR segment inside `[lo, hi)`: packets leave at
/// `start + k * interval` for `k = 0, 1, ...` while strictly before `stop`.
fn departures_in(seg: &CbrSource, lo: SimTime, hi: SimTime) -> u64 {
    let lo = lo.max(seg.start);
    let hi = hi.min(seg.stop);
    if hi <= lo {
        return 0;
    }
    let start = seg.start.as_nanos();
    let step = seg.interval.as_nanos().max(1);
    // First k with start + k*step >= lo.
    let k0 = (lo.as_nanos() - start).div_ceil(step);
    let t0 = start + k0 * step;
    if t0 >= hi.as_nanos() {
        return 0;
    }
    // Last k with start + k*step < hi.
    1 + (hi.as_nanos() - 1 - t0) / step
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> MeshScenario {
        MeshScenario {
            nodes: 12,
            area_side: 500.0,
            groups: 1,
            members_per_group: 3,
            data_start: SimTime::from_secs(10),
            data_stop: SimTime::from_secs(40),
            ..MeshScenario::paper_default()
        }
    }

    #[test]
    fn layout_is_deterministic_and_disjoint() {
        let w = WorkloadScenario::from_mesh("tiny", tiny()).validated();
        let a = w.layout(3);
        let b = w.layout(3);
        assert_eq!(a.positions, b.positions);
        assert_eq!(a.groups, b.groups);
        assert_ne!(a.positions, w.layout(4).positions);
        // Sources and members are all distinct nodes.
        let mut seen = std::collections::HashSet::new();
        for g in &a.groups {
            for n in g.sources.iter().chain(g.members.iter()) {
                assert!(seen.insert(*n), "node {n} has two roles");
            }
        }
    }

    fn testbed() -> WorkloadScenario {
        WorkloadScenario {
            topology: TopologyFamily::Testbed,
            ..WorkloadScenario::from_mesh(
                "tb",
                MeshScenario {
                    nodes: TESTBED_NODES,
                    area_side: testbed_side(),
                    members_per_group: 2,
                    ..MeshScenario::paper_default()
                },
            )
        }
        .validated()
    }

    #[test]
    fn testbed_layout_matches_paper() {
        let l = testbed().layout(1);
        assert_eq!(l.positions.len(), 8);
        assert_eq!(l.groups.len(), 2);
        assert_eq!(l.groups[0].sources, vec![testbed::id_of(2)]);
        assert_eq!(
            l.groups[0].members,
            vec![testbed::id_of(3), testbed::id_of(5)]
        );
        assert_eq!(l.groups[1].sources, vec![testbed::id_of(4)]);
        // The layout is the floor plan, whatever the seed.
        assert_eq!(l.positions, testbed().layout(9).positions);
    }

    #[test]
    fn testbed_rejects_a_different_group_shape() {
        let mut w = testbed();
        w.mesh.groups = 3;
        assert!(w.validate().unwrap_err().contains("Figure 4"));
    }

    #[test]
    fn grid_layout_places_a_grid() {
        let w = WorkloadScenario::grid("g", 4, 3, 100.0, tiny()).validated();
        let l = w.layout(1);
        assert_eq!(l.positions.len(), 12);
        assert_eq!(l.positions, topology::grid(4, 3, 100.0));
        // Roles still drawn: 1 source + 3 members.
        assert_eq!(l.groups[0].members.len(), 3);
    }

    #[test]
    fn metro_layout_scales_the_area() {
        let base = MeshScenario {
            groups: 1,
            members_per_group: 3,
            ..MeshScenario::paper_default()
        };
        let w = WorkloadScenario::metro("m", 100, 1000.0, base).validated();
        assert_eq!(w.mesh.area_side, 2000.0);
        let l = w.layout(3);
        assert_eq!(l.positions.len(), 100);
        assert!(l.positions.iter().all(|p| p.x <= 2000.0 && p.y <= 2000.0));
    }

    #[test]
    fn bursty_traffic_segments_cover_the_window() {
        let mut w = WorkloadScenario::from_mesh("b", tiny());
        w.traffic = TrafficMix::Bursty {
            on: SimDuration::from_secs(5),
            off: SimDuration::from_secs(5),
        };
        let w = w.validated();
        let l = w.layout(1);
        let src = &l.groups[0].sources[0];
        let segs = &l.roles[src.index()].sources;
        // 30 s window, 5 on / 5 off => 3 bursts.
        assert_eq!(segs.len(), 3);
        assert_eq!(segs[0].start, SimTime::from_secs(10));
        assert_eq!(segs[0].stop, SimTime::from_secs(15));
        assert_eq!(segs[2].start, SimTime::from_secs(30));
        assert_eq!(segs[2].stop, SimTime::from_secs(35));
    }

    #[test]
    fn churn_draws_from_spare_nodes_and_records_expectations() {
        let mut w = WorkloadScenario::from_mesh("c", tiny());
        w.churn = Some(ChurnSpec {
            per_group: 2,
            start: SimTime::from_secs(15),
            end: SimTime::from_secs(40),
            dwell: SimDuration::from_secs(10),
            stagger: SimDuration::from_secs(5),
            flash: false,
            explicit: vec![],
        });
        let w = w.validated();
        let base = WorkloadScenario::from_mesh("c0", tiny()).layout(9);
        let l = w.layout(9);
        // Base roles (positions, sources, members) are untouched by churn.
        assert_eq!(l.positions, base.positions);
        assert_eq!(l.groups[0].sources, base.groups[0].sources);
        assert_eq!(l.groups[0].members, base.groups[0].members);
        assert_eq!(l.groups[0].churners.len(), 2);
        for (c, expected) in &l.groups[0].churners {
            // 10 s window at 20 pkt/s => 200 expected departures.
            assert_eq!(*expected, 200, "churner {c}");
            assert_eq!(l.roles[c.index()].windows.len(), 1);
            // Churners were spare nodes: not sources, not permanent members.
            assert!(!l.groups[0].sources.contains(c));
            assert!(!l.groups[0].members.contains(c));
        }
    }

    #[test]
    fn flash_churners_stay_to_the_end() {
        let mut w = WorkloadScenario::from_mesh("f", tiny());
        w.churn = Some(ChurnSpec {
            per_group: 3,
            start: SimTime::from_secs(20),
            end: SimTime::from_secs(40),
            dwell: SimDuration::ZERO,
            stagger: SimDuration::from_millis(200),
            flash: true,
            explicit: vec![],
        });
        let l = w.validated().layout(2);
        for (c, _) in &l.groups[0].churners {
            let win = l.roles[c.index()].windows[0];
            assert_eq!(win.leave, SimTime::from_secs(40));
            assert!(win.join >= SimTime::from_secs(20));
            assert!(win.join < SimTime::from_secs(21));
        }
    }

    #[test]
    fn explicit_windows_attach_and_clamp() {
        let mut w = WorkloadScenario::from_mesh("e", tiny());
        w.churn = Some(ChurnSpec {
            per_group: 0,
            start: SimTime::ZERO,
            end: SimTime::ZERO,
            dwell: SimDuration::ZERO,
            stagger: SimDuration::ZERO,
            flash: false,
            explicit: vec![ChurnWindow {
                node: 5,
                group: 0,
                join: SimTime::from_secs(20),
                leave: SimTime::from_secs(999), // past the end: clamps to 42 s
            }],
        });
        let l = w.validated().layout(4);
        let win = l.roles[5].windows.last().copied().unwrap();
        assert_eq!(win.leave, SimTime::from_secs(42));
    }

    #[test]
    fn validation_rejects_bad_specs() {
        let mut w = WorkloadScenario::from_mesh("v", tiny());
        w.mesh.nodes = 0;
        assert!(w.validate().unwrap_err().contains("at least 2 nodes"));

        let mut w = WorkloadScenario::from_mesh("v", tiny());
        w.churn = Some(ChurnSpec {
            per_group: 0,
            start: SimTime::ZERO,
            end: SimTime::ZERO,
            dwell: SimDuration::ZERO,
            stagger: SimDuration::ZERO,
            flash: false,
            explicit: vec![ChurnWindow {
                node: 1,
                group: 0,
                join: SimTime::from_secs(30),
                leave: SimTime::from_secs(20),
            }],
        });
        assert!(w.validate().unwrap_err().contains("leave"));

        // Overlapping explicit windows on the same (node, group).
        let mut w = WorkloadScenario::from_mesh("v", tiny());
        let mk = |j: u64, l: u64| ChurnWindow {
            node: 2,
            group: 0,
            join: SimTime::from_secs(j),
            leave: SimTime::from_secs(l),
        };
        w.churn = Some(ChurnSpec {
            per_group: 0,
            start: SimTime::ZERO,
            end: SimTime::ZERO,
            dwell: SimDuration::ZERO,
            stagger: SimDuration::ZERO,
            flash: false,
            explicit: vec![mk(10, 30), mk(20, 40)],
        });
        assert!(w.validate().unwrap_err().contains("overlapping"));

        // Too many churners for the node count.
        let mut w = WorkloadScenario::from_mesh("v", tiny());
        w.churn = Some(ChurnSpec {
            per_group: 50,
            start: SimTime::from_secs(10),
            end: SimTime::from_secs(40),
            dwell: SimDuration::from_secs(1),
            stagger: SimDuration::ZERO,
            flash: false,
            explicit: vec![],
        });
        assert!(w.validate().unwrap_err().contains("distinct nodes"));

        let mut w = WorkloadScenario::from_mesh("v", tiny());
        w.mobility = Some(MobilitySpec {
            min_speed: 0.0,
            max_speed: 3.0,
            pause: SimDuration::ZERO,
        });
        assert!(w.validate().unwrap_err().contains("min_speed"));
    }

    #[test]
    fn departures_count_window_intersections() {
        let seg =
            CbrSource::paper_default(GroupId(0), SimTime::from_secs(10), SimTime::from_secs(20));
        // Whole stream: 10 s at 20 pkt/s.
        assert_eq!(
            departures_in(&seg, SimTime::ZERO, SimTime::from_secs(99)),
            200
        );
        // Half window.
        assert_eq!(
            departures_in(&seg, SimTime::from_secs(15), SimTime::from_secs(99)),
            100
        );
        // Disjoint.
        assert_eq!(
            departures_in(&seg, SimTime::from_secs(30), SimTime::from_secs(40)),
            0
        );
        // Departure at exactly `lo` counts; at exactly `hi` does not.
        assert_eq!(
            departures_in(
                &seg,
                SimTime::from_secs(10),
                SimTime::from_nanos(10_000_000_001)
            ),
            1
        );
    }
}

//! Timing shims around the simulator's public extension points. Each one
//! forwards every call unchanged to the wrapped value inside a span, so a
//! traced run dispatches exactly the events an untraced run does (the
//! zero-perturbation check compares their schedule hashes).

use std::any::Any;

use experiments::scenario::GroupSpec;
use experiments::scenario_compiler::WorkloadScenario;
use mesh_sim::geometry::{Area, Pos};
use mesh_sim::ids::{NodeId, TimerId, TxHandle};
use mesh_sim::mac::MacParams;
use mesh_sim::medium::{IndexStats, LinkEffect, Medium, PhysicalMedium, PositionDelta, RxPlan};
use mesh_sim::mobility::RandomWaypoint;
use mesh_sim::propagation::{FadingModel, PathLossModel, PhyParams};
use mesh_sim::protocol::{Protocol, RxMeta, TxOutcome};
use mesh_sim::rng::SimRng;
use mesh_sim::simulator::{Oracle, Simulator};
use mesh_sim::snapshot::{SnapError, SnapReader, SnapWriter, SnapshotState};
use mesh_sim::time::SimTime;
use mesh_sim::trace::{JsonlTrace, TraceEvent, TraceSink};
use mesh_sim::world::{Ctx, WorldConfig};
use odmrp::{MulticastApp, NodeStats, OdmrpMsg, OdmrpNode, Variant};

use crate::span::{add_items, span, Layer};

/// `PhysicalMedium` with `fan_out` and `positions_changed` timed.
pub struct TimedMedium(pub PhysicalMedium);

impl Medium for TimedMedium {
    fn fan_out(
        &mut self,
        tx: NodeId,
        positions: &[Pos],
        now: SimTime,
        rng: &mut SimRng,
        out: &mut Vec<RxPlan>,
    ) {
        let before = out.len();
        span(Layer::FanOut, || {
            self.0.fan_out(tx, positions, now, rng, out)
        });
        add_items(Layer::FanOut, (out.len() - before) as u64);
    }

    fn phy(&self) -> &PhyParams {
        self.0.phy()
    }

    fn invalidate_positions(&mut self) {
        self.0.invalidate_positions();
    }

    fn positions_changed(&mut self, moves: &[PositionDelta], positions: &[Pos]) {
        span(Layer::PositionsChanged, || {
            self.0.positions_changed(moves, positions)
        });
    }

    fn index_stats(&self) -> Option<IndexStats> {
        self.0.index_stats()
    }

    fn set_link_fault(&mut self, from: NodeId, to: NodeId, effect: LinkEffect) {
        self.0.set_link_fault(from, to, effect);
    }

    fn clear_link_fault(&mut self, from: NodeId, to: NodeId) {
        self.0.clear_link_fault(from, to);
    }

    fn snapshot_state(&self, w: &mut SnapWriter) {
        self.0.snapshot_state(w);
    }

    fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.0.restore_state(r)
    }
}

/// `OdmrpNode` with every protocol callback timed. Transparent so a slice
/// of shims can be handed to the ODMRP oracle as a slice of nodes.
#[repr(transparent)]
pub struct TimedNode(pub OdmrpNode);

impl Protocol for TimedNode {
    type Msg = OdmrpMsg;

    fn start(&mut self, ctx: &mut Ctx<'_, OdmrpMsg>) {
        span(Layer::OdmrpLifecycle, || self.0.start(ctx));
    }

    fn handle_message(
        &mut self,
        ctx: &mut Ctx<'_, OdmrpMsg>,
        src: NodeId,
        msg: &OdmrpMsg,
        meta: RxMeta,
    ) {
        span(Layer::OdmrpMessage, || {
            self.0.handle_message(ctx, src, msg, meta)
        });
    }

    fn handle_timer(&mut self, ctx: &mut Ctx<'_, OdmrpMsg>, timer: TimerId, kind: u64) {
        span(Layer::OdmrpTimer, || self.0.handle_timer(ctx, timer, kind));
    }

    fn handle_tx_complete(
        &mut self,
        ctx: &mut Ctx<'_, OdmrpMsg>,
        handle: TxHandle,
        outcome: TxOutcome,
    ) {
        span(Layer::OdmrpTxComplete, || {
            self.0.handle_tx_complete(ctx, handle, outcome)
        });
    }

    fn handle_restart(&mut self, ctx: &mut Ctx<'_, OdmrpMsg>) {
        span(Layer::OdmrpLifecycle, || self.0.handle_restart(ctx));
    }
}

impl MulticastApp for TimedNode {
    fn node_stats(&self) -> &NodeStats {
        self.0.node_stats()
    }

    fn variant(&self) -> Variant {
        self.0.variant()
    }
}

impl SnapshotState for TimedNode {
    fn snapshot_state(&self, w: &mut SnapWriter) {
        self.0.snapshot_state(w);
    }

    fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.0.restore_state(r)
    }
}

/// The ODMRP invariant oracle, timed.
pub fn timed_oracle() -> Oracle<TimedNode> {
    Box::new(|world, nodes| {
        span(Layer::Oracles, || {
            odmrp::invariants::check(world.now(), as_nodes(nodes))
        })
    })
}

fn as_nodes(shims: &[TimedNode]) -> &[OdmrpNode] {
    // SAFETY: `TimedNode` is `repr(transparent)` over `OdmrpNode`, so both
    // slices have the same element size, alignment and layout; the returned
    // slice borrows `shims` for the same lifetime and is read-only.
    unsafe { std::slice::from_raw_parts(shims.as_ptr().cast::<OdmrpNode>(), shims.len()) }
}

/// `JsonlTrace` with `record` timed.
#[derive(Debug)]
pub struct TimedSink(pub JsonlTrace);

impl TraceSink for TimedSink {
    fn record(&mut self, event: TraceEvent) {
        span(Layer::Trace, || self.0.record(event));
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// `WorkloadScenario::layout` + `build` with the shims in place: the same
/// construction, field for field, over `TimedNode`s and a `TimedMedium`.
pub fn build_traced(
    scenario: &WorkloadScenario,
    variant: Variant,
    seed: u64,
) -> (Simulator<TimedNode>, Vec<GroupSpec>) {
    let layout = span(Layer::Layout, || scenario.layout(seed));
    span(Layer::Build, || {
        let mesh = &scenario.mesh;
        let cfg = mesh.odmrp_config(variant);
        let nodes: Vec<TimedNode> = layout
            .roles
            .into_iter()
            .map(|r| TimedNode(OdmrpNode::new(cfg.clone(), r)))
            .collect();
        let phy = PhyParams {
            fading: if mesh.fading {
                FadingModel::Rayleigh
            } else {
                FadingModel::None
            },
            path_loss: PathLossModel::TwoRayGround,
            ..PhyParams::default()
        };
        let medium = PhysicalMedium::new(phy).with_indexing(mesh.indexed_medium);
        let mut sim = Simulator::new(
            layout.positions,
            Box::new(TimedMedium(medium)),
            WorldConfig {
                mac: MacParams::default(),
                seed,
            },
            nodes,
        );
        if let Some(m) = &scenario.mobility {
            sim.set_mobility(Box::new(RandomWaypoint::new(
                Area::square(mesh.area_side),
                m.min_speed,
                m.max_speed,
                m.pause,
            )));
        }
        if let Some(plan) = scenario.fault_plan(seed) {
            sim.set_fault_plan(plan);
        }
        (sim, layout.groups)
    })
}

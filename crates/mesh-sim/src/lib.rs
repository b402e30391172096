//! # mesh-sim — a deterministic wireless mesh network simulator
//!
//! This crate is the simulation substrate for the reproduction of
//! *"High-Throughput Multicast Routing Metrics in Wireless Mesh Networks"*
//! (ICDCS 2006). It provides what the paper obtained from GloMoSim:
//!
//! * a **discrete-event engine** with deterministic, seeded randomness
//!   ([`simulator::Simulator`], [`world::World`]);
//! * **radio propagation**: the paper's two-ray ground-reflection path loss
//!   with Rayleigh fading on or off ([`propagation`]), or fully custom media
//!   via the [`medium::Medium`] trait (the `testbed` crate uses this for
//!   trace-driven link loss);
//! * a **threshold/capture PHY** reception model (the `radio` module);
//! * an **802.11 DCF MAC** ([`mac`]) in which — crucially for the paper —
//!   *unicast* frames get RTS/CTS, ACKs and retransmissions while *broadcast*
//!   frames get carrier sense and backoff only, one attempt per link;
//! * **topology generators** matching the paper's setup ([`topology`]).
//!
//! Protocols implement [`protocol::Protocol`] and drive the world through
//! [`world::Ctx`]. See the `odmrp` crate for a full multicast protocol built
//! on this interface.
//!
//! ## Example
//!
//! A two-node network where node 0 broadcasts one message:
//!
//! ```
//! use mesh_sim::prelude::*;
//!
//! #[derive(Default)]
//! struct Hello { received: u32 }
//!
//! impl Protocol for Hello {
//!     type Msg = &'static str;
//!     fn start(&mut self, ctx: &mut Ctx<'_, &'static str>) {
//!         if ctx.node().index() == 0 {
//!             ctx.send_broadcast("hello", 64, 0).expect("queue empty");
//!         }
//!     }
//!     fn handle_message(&mut self, _ctx: &mut Ctx<'_, &'static str>,
//!                       _src: NodeId, _msg: &&'static str, _meta: RxMeta) {
//!         self.received += 1;
//!     }
//!     fn handle_timer(&mut self, _: &mut Ctx<'_, &'static str>, _: TimerId, _: u64) {}
//! }
//!
//! // Disable fading so the outcome is deterministic for the doctest.
//! let phy = PhyParams { fading: FadingModel::None, ..PhyParams::default() };
//! let medium = Box::new(PhysicalMedium::new(phy));
//! let positions = vec![Pos::new(0.0, 0.0), Pos::new(100.0, 0.0)];
//! let mut sim = Simulator::new(positions, medium, WorldConfig::default(),
//!                              vec![Hello::default(), Hello::default()]);
//! sim.run_until(SimTime::from_secs(1));
//! assert_eq!(sim.protocols()[1].received, 1);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod counters;
mod event;
pub mod fault;
mod frame;
pub mod geometry;
pub mod ids;
pub mod invariants;
pub mod mac;
pub mod medium;
pub mod metrics;
pub mod mobility;
pub mod neighbor_index;
pub mod propagation;
pub mod protocol;
mod radio;
pub mod rng;
pub mod simulator;
pub mod snapshot;
pub mod time;
pub mod topology;
pub mod trace;
pub mod world;

/// Convenient re-exports of the items most users need.
pub mod prelude {
    pub use crate::counters::Counters;
    pub use crate::fault::{FaultKind, FaultPlan, RandomFaultConfig};
    pub use crate::geometry::{Area, Pos};
    pub use crate::ids::{GroupId, NodeId, TimerId, TxHandle};
    pub use crate::invariants::Violation;
    pub use crate::mac::MacParams;
    pub use crate::medium::{LinkEffect, LinkTableMedium, Medium, PhysicalMedium, RxPlan};
    pub use crate::metrics::{MetricsBucket, TimeSeries};
    pub use crate::neighbor_index::NeighborIndex;
    pub use crate::propagation::{FadingModel, PathLossModel, PhyParams};
    pub use crate::protocol::{Protocol, RxMeta, TxOutcome};
    pub use crate::rng::SimRng;
    pub use crate::simulator::{Simulator, WatchdogBudget};
    pub use crate::snapshot::{Snap, SnapError, SnapReader, SnapWriter, SnapshotState};
    pub use crate::time::{SimDuration, SimTime};
    pub use crate::trace::{Decision, DropReason, JsonlTrace, RingTrace, TraceEvent, TraceSink};
    pub use crate::world::{Ctx, SendError, World, WorldConfig};
}

//! # maodv — tree-based on-demand multicast over `mesh-sim`
//!
//! §4.3 of the paper argues that high-throughput metrics "continue to be
//! effective in multicast protocols that are tree-based such as MAODV" even
//! when ODMRP's per-group forwarding-mesh redundancy washes the gains out.
//! This crate provides that comparison point: an MAODV-style protocol whose
//! route discovery is *identical* to metric-enhanced ODMRP by construction —
//! a [`MaodvNode`] is ODMRP's [`odmrp::discovery`] core (cost-accumulating
//! query floods, α-window duplicate forwarding, δ-delayed best-route
//! selection, probes, degraded mode, snapshot) with a different forwarding
//! half, [`Trees`], that keeps a **per-source tree**:
//!
//! * members activate their chosen branch with **unicast grafts**
//!   (MACT-style), sent hop-by-hop toward the source over the reliable
//!   RTS/CTS/ACK MAC path with protocol-level retries on MAC failure;
//! * a node forwards data of `(group, source)` only while it has live
//!   children on *that* tree — there is no per-group mesh, so a bad route
//!   choice is not masked by other sources' forwarders.
//!
//! The node takes an [`odmrp::OdmrpConfig`]; its `fg_timeout` is the
//! tree-branch lifetime. The `repro --figure tree-multicast` experiment uses
//! this crate to reproduce the §4.3 claim: with multiple sources per group,
//! ODMRP's relative gains shrink while the tree protocol's persist.
//!
//! ## Example
//!
//! ```
//! use maodv::MaodvNode;
//! use odmrp::{NodeRole, OdmrpConfig};
//! use mcast_metrics::MetricKind;
//! use mesh_sim::prelude::*;
//!
//! let cfg = OdmrpConfig::with_metric(MetricKind::Spp);
//! let node = MaodvNode::new(cfg, NodeRole::member(GroupId(0)));
//! assert_eq!(node.stats().total_delivered(), 0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod messages;
mod node;

pub use messages::MaodvMsg;
pub use node::{MaodvNode, Trees};

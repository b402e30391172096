//! # odmrp — On-Demand Multicast Routing Protocol over `mesh-sim`
//!
//! A from-scratch implementation of ODMRP (Lee, Gerla, Chiang — WCNC 1999)
//! and the metric-enhanced version described in §3 of *"High-Throughput
//! Multicast Routing Metrics in Wireless Mesh Networks"* (ICDCS 2006):
//!
//! * sources flood `JOIN QUERY` packets every refresh interval;
//! * in the metric variants, each forwarder charges the incoming link's cost
//!   (from its `NEIGHBOR_TABLE`, fed by the probes of `mcast-metrics`) into
//!   the query before rebroadcasting, and **forwards improving duplicates**
//!   for up to α after the first copy;
//! * members wait **δ** after the first query of a round, then answer the
//!   best one with a `JOIN REPLY` naming their chosen upstream;
//! * nodes named in a reply join the **forwarding group** (soft state with
//!   timeout) and propagate the reply toward the source;
//! * data packets are **link-layer broadcast** and rebroadcast by forwarding-
//!   group members, with a duplicate cache.
//!
//! Route discovery lives in [`discovery`], shared with the tree protocol of
//! the `maodv` crate; an [`OdmrpNode`] is that core plus ODMRP's
//! [`ForwardingGroup`].
//!
//! The original protocol (`Variant::Original`) answers the *first* query
//! instead and never forwards duplicates — making route selection equivalent
//! to minimum-delay/minimum-hop, which is exactly the baseline the paper
//! measures against.
//!
//! ## Example
//!
//! Build the node set for a 3-node chain where node 0 multicasts to node 2:
//!
//! ```
//! use odmrp::{CbrSource, NodeRole, OdmrpConfig, OdmrpNode, Variant};
//! use mcast_metrics::MetricKind;
//! use mesh_sim::prelude::*;
//!
//! let cfg = OdmrpConfig::with_metric(MetricKind::Spp);
//! let roles = vec![
//!     NodeRole::source(GroupId(0), SimTime::from_secs(1), SimTime::from_secs(10)),
//!     NodeRole::forwarder(),
//!     NodeRole::member(GroupId(0)),
//! ];
//! let nodes: Vec<OdmrpNode> =
//!     roles.into_iter().map(|r| OdmrpNode::new(cfg.clone(), r)).collect();
//! assert_eq!(nodes.len(), 3);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod config;
pub mod discovery;
mod dup_cache;
pub mod invariants;
pub mod messages;
mod node;
pub mod stats;

pub use config::{CbrSource, DegradedModeConfig, MembershipWindow, NodeRole, OdmrpConfig, Variant};
pub use discovery::MulticastNode;
pub use messages::OdmrpMsg;
pub use node::{ForwardingGroup, OdmrpNode};
pub use stats::{Delivered, MulticastApp, NodeStats};

//! # mcast-metrics — high-throughput routing metrics for multicast
//!
//! This crate implements the contribution of *"High-Throughput Multicast
//! Routing Metrics in Wireless Mesh Networks"* (Roy, Koutsonikolas, Das, Hu —
//! ICDCS 2006): link-quality routing metrics adapted for protocols that send
//! data with **link-layer broadcast** (as ODMRP and most multicast protocols
//! do).
//!
//! Broadcast differs from unicast in two ways that reshape metric design
//! (§2.1 of the paper):
//!
//! 1. there are no ACKs, so only the **forward** direction of a link
//!    matters, and
//! 2. there are no retransmissions, so a packet gets **one chance per
//!    link** — multiplying link success probabilities describes a path
//!    better than summing per-link costs.
//!
//! The five adapted metrics (all [`Metric`] implementations):
//!
//! | Metric | Link cost | Path accumulation | Better | Probing |
//! |--------|-----------|-------------------|--------|---------|
//! | [`Etx`] | `1/df` | sum | lower | 1 probe / 5 s |
//! | [`Ett`] | `(1/df)·S/B` | sum | lower | pair / 10 s |
//! | [`Pp`]  | delay EWMA (+20 % loss penalty) | sum | lower | pair / 10 s |
//! | [`Metx`] | `df` | `(p+1)/df` | lower | 1 probe / 5 s |
//! | [`Spp`] | `df` | product | **higher** | 1 probe / 5 s |
//!
//! plus [`HopCount`] (baseline), [`UnicastEtx`] (a deliberately-wrong
//! bidirectional ETX used as an ablation), and two post-paper entrants:
//! [`InvEtx`] (ETX inverted into a quality score, higher wins) and
//! [`WcettLb`] (load-aware ETT with a queue/retry congestion term and σ/δ
//! switching thresholds).
//!
//! [`MetricKind`] is the one list of metrics: [`MetricKind::from_name`]
//! resolves deck/CLI names (case-insensitively, aliases included), and every
//! comparison table and sweep axis walks [`MetricKind::ALL`]. Adding a metric
//! is one new file plus one variant with its arms in `metrics/mod.rs`.
//!
//! ## Example: why SPP beats ETX on the paper's Figure 3 network
//!
//! ```
//! use mcast_metrics::{choose_path, figure3_candidates, Etx, Spp};
//!
//! let candidates = figure3_candidates();
//! let etx = choose_path(&Etx::default(), &candidates);
//! let spp = choose_path(&Spp::default(), &candidates);
//! // ETX prefers the short path with one very lossy link...
//! assert_eq!(candidates[etx.winner].name, "A-E-D");
//! // ...SPP avoids it: one bad link collapses the product.
//! assert_eq!(candidates[spp.winner].name, "A-B-C-D");
//! ```
//!
//! ## Wiring into a protocol
//!
//! A node using these metrics owns a [`Prober`] (what to send) and a
//! [`NeighborTable`] (what was heard). When a route-discovery packet arrives
//! over a link, the node charges that link's cost
//! ([`NeighborTable::link_cost`]) into the packet's accumulated
//! [`PathCost`] via [`Metric::accumulate`], and receivers compare candidates
//! with [`Metric::better`]. The `odmrp` crate does exactly this.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod cost;
pub mod estimator;
pub mod metrics;
pub mod neighbor_table;
pub mod path;
pub mod probe;
pub mod staleness;
pub mod window;

pub use cost::{LinkCost, PathCost};
pub use estimator::{EstimatorConfig, LinkEstimate, LinkObservation};
pub use metrics::{
    AnyMetric, ChannelHop, Ett, Etx, HopCount, InvEtx, Metric, MetricKind, Metx, Pp, Spp,
    UnicastEtx, Wcett, WcettLb,
};
pub use neighbor_table::NeighborTable;
pub use path::{choose_path, figure1_candidates, figure3_candidates, CandidatePath, PathChoice};
pub use probe::{ProbeMsg, ProbePlan, Prober};
pub use staleness::{Freshness, StalenessConfig};

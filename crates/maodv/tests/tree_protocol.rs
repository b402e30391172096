//! End-to-end tests of the tree-multicast protocol.

use std::collections::BTreeSet;

use maodv::MaodvNode;
use mcast_metrics::MetricKind;
use mesh_sim::ids::FrameId;
use mesh_sim::prelude::*;
use mesh_sim::trace::TraceEventKind;
use odmrp::messages::JoinQuery;
use odmrp::{MulticastApp, NodeRole, OdmrpConfig, OdmrpNode, Variant};

const GROUP: GroupId = GroupId(0);

fn chain_sim(
    variant: Variant,
    n: usize,
    loss: f64,
    seconds: u64,
    seed: u64,
) -> Simulator<MaodvNode> {
    let mut medium = LinkTableMedium::new();
    for i in 0..n - 1 {
        medium.add_link(NodeId::new(i as u32), NodeId::new(i as u32 + 1), loss);
    }
    let cfg = OdmrpConfig {
        variant,
        ..OdmrpConfig::default()
    };
    let mut roles = vec![NodeRole::forwarder(); n];
    roles[0] = NodeRole::source(GROUP, SimTime::from_secs(20), SimTime::from_secs(seconds));
    roles[n - 1] = NodeRole::member(GROUP);
    let nodes: Vec<MaodvNode> = roles
        .into_iter()
        .map(|r| MaodvNode::new(cfg.clone(), r))
        .collect();
    Simulator::new(
        mesh_sim::topology::chain(n, 50.0),
        Box::new(medium),
        WorldConfig {
            seed,
            ..WorldConfig::default()
        },
        nodes,
    )
}

#[test]
fn tree_multicast_delivers_over_chain() {
    for variant in [Variant::Original, Variant::Metric(MetricKind::Spp)] {
        let mut sim = chain_sim(variant, 4, 0.0, 60, 1);
        sim.run_until(SimTime::from_secs(62));
        let sent = sim.protocols()[0].node_stats().total_sent();
        let got = sim.protocols()[3].node_stats().total_delivered();
        assert!(
            got as f64 > 0.95 * sent as f64,
            "{variant}: {got}/{sent} delivered"
        );
        // Intermediate nodes joined the tree via grafts.
        assert!(
            sim.protocols()[1]
                .forwarding()
                .tree_count(SimTime::from_secs(55))
                > 0
        );
        assert!(
            sim.protocols()[2]
                .forwarding()
                .tree_count(SimTime::from_secs(55))
                > 0
        );
        // Grafts are unicast: control exchanges used the RTS-less ACK path
        // (36B < RTS threshold), so control frames (ACKs) flowed.
        assert!(sim.counters().tx_ctrl_frames > 0, "{variant}: no ACKs seen");
    }
}

#[test]
fn tree_has_no_mesh_redundancy() {
    // On a clean diamond, ODMRP can end up with both relays forwarding
    // (per-group mesh); the tree protocol must activate only the chosen one.
    //
    // The structural property — each packet crosses one relay, not both —
    // must hold on *every* seed; which relay wins any given round is
    // seed-sensitive (probe losses on the 0.1 links can tie the two paths),
    // so the winner's identity is only asserted in aggregate across the
    // seed set instead of pinning one lucky seed. The branch lifetime
    // (`fg_timeout`) is shortened to one refresh period: with the 9 s default, stale branches
    // from upstream flips survive two extra rounds (deliberate soft-state
    // slack), which would mask the per-round single-branch structure this
    // test is about.
    let diamond = |seed: u64| {
        let mut medium = LinkTableMedium::new();
        let n = |i: u32| NodeId::new(i);
        // Relay 1 is strictly better than relay 2 under ETX.
        medium.add_link(n(0), n(1), 0.0);
        medium.add_link(n(0), n(2), 0.1);
        medium.add_link(n(1), n(3), 0.0);
        medium.add_link(n(2), n(3), 0.1);
        medium.add_link(n(1), n(2), 1.0); // sense-only
        let cfg = OdmrpConfig {
            fg_timeout: mesh_sim::time::SimDuration::from_secs(3),
            ..OdmrpConfig::with_metric(MetricKind::Etx)
        };
        let roles = vec![
            NodeRole::source(GROUP, SimTime::from_secs(20), SimTime::from_secs(80)),
            NodeRole::forwarder(),
            NodeRole::forwarder(),
            NodeRole::member(GROUP),
        ];
        let nodes: Vec<MaodvNode> = roles
            .into_iter()
            .map(|r| MaodvNode::new(cfg.clone(), r))
            .collect();
        Simulator::new(
            vec![
                Pos::new(0.0, 0.0),
                Pos::new(50.0, 30.0),
                Pos::new(50.0, -30.0),
                Pos::new(100.0, 0.0),
            ],
            Box::new(medium),
            WorldConfig {
                seed,
                ..WorldConfig::default()
            },
            nodes,
        )
    };

    let mut relay1_wins = 0usize;
    let seeds = [1u64, 2, 3, 4, 5];
    for &seed in &seeds {
        let mut sim = diamond(seed);
        // Let probe windows converge and early grafts expire, then measure
        // forwarding in the steady-state window only.
        sim.run_until(SimTime::from_secs(55));
        let warm1 = sim.protocols()[1].node_stats().data_forwards;
        let warm2 = sim.protocols()[2].node_stats().data_forwards;
        let warm_got = sim.protocols()[3].node_stats().total_delivered();
        sim.run_until(SimTime::from_secs(82));
        let fwd1 = sim.protocols()[1].node_stats().data_forwards - warm1;
        let fwd2 = sim.protocols()[2].node_stats().data_forwards - warm2;
        let delivered = sim.protocols()[3].node_stats().total_delivered() - warm_got;
        let total = fwd1 + fwd2;
        assert!(total > 0, "seed {seed}: nothing forwarded in steady state");
        assert!(
            delivered > 0,
            "seed {seed}: nothing delivered in steady state"
        );
        // The structural tree property, per packet rather than per relay:
        // a tree forwards each packet through exactly one relay (ratio ≈ 1)
        // even if re-grafts move the active relay around mid-window, while
        // ODMRP's mesh forwards through both (ratio ≈ 2). Brief overlap —
        // old children persisting one branch lifetime across a re-graft —
        // keeps the bound at 1.4 rather than 1.0.
        let redundancy = total as f64 / delivered as f64;
        assert!(
            redundancy < 1.4,
            "seed {seed}: mesh-like redundancy {redundancy:.2} \
             ({fwd1} + {fwd2} forwards for {delivered} deliveries)"
        );
        if fwd1 > fwd2 {
            relay1_wins += 1;
        }
        // The member still gets the vast majority. Not ~everything: rounds
        // where a probe-window tie sends the branch through relay 2 ride two
        // 0.1-loss broadcast hops with no redundant path to cover them —
        // the tree/mesh delivery trade-off the paper's §4.3 describes.
        let sent = sim.protocols()[0].node_stats().total_sent();
        let got = sim.protocols()[3].node_stats().total_delivered();
        assert!(got as f64 > 0.85 * sent as f64, "seed {seed}: {got}/{sent}");
    }
    // The metric preference shows up across seeds even though any single
    // seed may settle on the worse relay for a while.
    assert!(
        relay1_wins * 2 > seeds.len(),
        "the better relay should win most seeds: {relay1_wins}/{}",
        seeds.len()
    );
}

#[test]
fn metric_tree_routes_around_lossy_link() {
    // Same diamond as the ODMRP test: direct lossy vs clean detour.
    let run = |variant: Variant, seed: u64| {
        let mut medium = LinkTableMedium::new();
        let n = |i: u32| NodeId::new(i);
        medium.add_link(n(0), n(2), 0.65);
        medium.add_link(n(0), n(1), 0.02);
        medium.add_link(n(1), n(2), 0.02);
        let cfg = OdmrpConfig {
            variant,
            fg_timeout: mesh_sim::time::SimDuration::from_secs(3),
            ..OdmrpConfig::default()
        };
        let roles = vec![
            NodeRole::source(GROUP, SimTime::from_secs(40), SimTime::from_secs(160)),
            NodeRole::forwarder(),
            NodeRole::member(GROUP),
        ];
        let nodes: Vec<MaodvNode> = roles
            .into_iter()
            .map(|r| MaodvNode::new(cfg.clone(), r))
            .collect();
        let mut sim = Simulator::new(
            mesh_sim::topology::chain(3, 50.0),
            Box::new(medium),
            WorldConfig {
                seed,
                ..WorldConfig::default()
            },
            nodes,
        );
        sim.run_until(SimTime::from_secs(162));
        let sent = sim.protocols()[0].node_stats().total_sent();
        let got = sim.protocols()[2].node_stats().total_delivered();
        got as f64 / sent as f64
    };
    let seeds = [1u64, 2, 3];
    let orig: f64 = seeds
        .iter()
        .map(|&s| run(Variant::Original, s))
        .sum::<f64>()
        / 3.0;
    let spp: f64 = seeds
        .iter()
        .map(|&s| run(Variant::Metric(MetricKind::Spp), s))
        .sum::<f64>()
        / 3.0;
    assert!(
        spp > orig + 0.05,
        "tree SPP ({spp:.3}) should beat tree original ({orig:.3})"
    );
}

#[test]
fn deterministic_runs() {
    let run = || {
        let mut sim = chain_sim(Variant::Metric(MetricKind::Pp), 5, 0.0, 40, 9);
        sim.run_until(SimTime::from_secs(42));
        (
            sim.protocols()[4].node_stats().total_delivered(),
            sim.counters().clone(),
        )
    };
    assert_eq!(run(), run());
}

/// The tree protocol probes exactly as ODMRP does: under the
/// bidirectional-ETX ablation the reverse reports ride the probes, so the
/// probe bytes exceed plain ETX's on the same lossy chain.
#[test]
fn unicast_etx_probes_carry_reverse_reports() {
    let probe_bytes = |kind: MetricKind| {
        let mut sim = chain_sim(Variant::Metric(kind), 4, 0.1, 40, 1);
        sim.run_until(SimTime::from_secs(42));
        sim.counters().tx_data[odmrp::messages::class::PROBE as usize].bytes
    };
    let etx = probe_bytes(MetricKind::Etx);
    let unicast_etx = probe_bytes(MetricKind::UnicastEtx);
    assert!(
        unicast_etx > etx,
        "reverse reports missing: UnicastETX {unicast_etx} B vs ETX {etx} B"
    );
}

/// Run one `JOIN QUERY` round on a diamond whose member, node 3, hears the
/// source, node 0, only through relays 1 and 2 (which hear each other).
/// Returns the relays node 3 decoded the round's query from and node 3's
/// `replies_sent`.
fn diamond_round<P: Protocol + MulticastApp>(node: impl Fn(NodeRole) -> P) -> (Vec<u32>, u64) {
    let mut medium = LinkTableMedium::new();
    for (a, b) in [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)] {
        medium.add_link(NodeId::new(a), NodeId::new(b), 0.0);
    }
    // The source's window closes before its second refresh: one round.
    let start = SimTime::from_secs(10);
    let roles = [
        NodeRole::source(GROUP, start, start + SimDuration::from_millis(1)),
        NodeRole::forwarder(),
        NodeRole::forwarder(),
        NodeRole::member(GROUP),
    ];
    let mut sim = Simulator::new(
        mesh_sim::topology::chain(4, 50.0),
        Box::new(medium),
        WorldConfig::default(),
        roles.into_iter().map(node).collect(),
    );
    sim.world_mut().set_trace(Box::new(RingTrace::new(1 << 16)));
    sim.run_until(start + SimDuration::from_secs(2));
    let sink = sim.world_mut().take_trace().expect("trace attached");
    let ring: &RingTrace = sink.as_any().downcast_ref().expect("RingTrace");
    let queries: BTreeSet<FrameId> = ring
        .events()
        .filter(|e| matches!(e.kind, TraceEventKind::TxStart { bytes, .. } if bytes == JoinQuery::BYTES))
        .filter_map(|e| e.frame)
        .collect();
    let heard_from: BTreeSet<u32> = ring
        .events()
        .filter(|e| e.node == Some(NodeId::new(3)))
        .filter(|e| e.frame.is_some_and(|f| queries.contains(&f)))
        .filter_map(|e| match e.kind {
            TraceEventKind::Delivered { src, .. } => Some(src.as_u32()),
            _ => None,
        })
        .collect();
    let replies = sim.protocols()[3].node_stats().replies_sent;
    (heard_from.into_iter().collect(), replies)
}

/// A member that hears one query round over two upstreams arms one δ timer
/// and answers once: one `JOIN REPLY` on ODMRP, one graft on the tree
/// protocol, under first-copy and metric route selection alike.
#[test]
fn one_delta_per_round_over_two_upstreams() {
    for variant in [Variant::Original, Variant::Metric(MetricKind::Spp)] {
        let cfg = OdmrpConfig {
            variant,
            ..OdmrpConfig::default()
        };
        assert_eq!(
            diamond_round(|r| OdmrpNode::new(cfg.clone(), r)),
            (vec![1, 2], 1),
            "OdmrpNode, {variant}"
        );
        assert_eq!(
            diamond_round(|r| MaodvNode::new(cfg.clone(), r)),
            (vec![1, 2], 1),
            "MaodvNode, {variant}"
        );
    }
}

//! Randomized whole-protocol invariants for the tree protocol: arbitrary
//! topologies, losses and variants must never violate safety properties.

use maodv::MaodvNode;
use mcast_metrics::MetricKind;
use mesh_sim::prelude::*;
use odmrp::{MulticastApp, NodeRole, OdmrpConfig, Variant};
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct Setup {
    n: usize,
    links: Vec<(usize, usize, f64)>,
    source: usize,
    members: Vec<usize>,
    variant_idx: usize,
    seed: u64,
}

fn setup_strategy() -> impl Strategy<Value = Setup> {
    (3usize..8, 0usize..6, any::<u64>()).prop_flat_map(|(n, variant_idx, seed)| {
        let pairs: Vec<(usize, usize)> = (0..n)
            .flat_map(|i| ((i + 1)..n).map(move |j| (i, j)))
            .collect();
        let k = pairs.len();
        (
            prop::collection::vec(prop::option::weighted(0.7, 0.0f64..0.9), k),
            0usize..n,
            prop::collection::vec(0usize..n, 1..4),
        )
            .prop_map(move |(losses, source, members)| Setup {
                n,
                links: pairs
                    .iter()
                    .zip(&losses)
                    .filter_map(|(&(i, j), &l)| l.map(|loss| (i, j, loss)))
                    .collect(),
                source,
                members,
                variant_idx,
                seed,
            })
    })
}

fn variant(idx: usize) -> Variant {
    match idx {
        0 => Variant::Original,
        1 => Variant::Metric(MetricKind::Etx),
        2 => Variant::Metric(MetricKind::Ett),
        3 => Variant::Metric(MetricKind::Pp),
        4 => Variant::Metric(MetricKind::Metx),
        _ => Variant::Metric(MetricKind::Spp),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn tree_protocol_safety_invariants(setup in setup_strategy()) {
        let group = GroupId(0);
        let mut medium = LinkTableMedium::new();
        for &(i, j, loss) in &setup.links {
            medium.add_link(NodeId::new(i as u32), NodeId::new(j as u32), loss);
        }
        let cfg = OdmrpConfig {
            variant: variant(setup.variant_idx),
            ..OdmrpConfig::default()
        };
        let mut roles = vec![NodeRole::forwarder(); setup.n];
        roles[setup.source] =
            NodeRole::source(group, SimTime::from_secs(5), SimTime::from_secs(35));
        for &m in &setup.members {
            if m != setup.source && !roles[m].member_of.contains(&group) {
                roles[m].member_of.push(group);
            }
        }
        let member_set: Vec<usize> = (0..setup.n)
            .filter(|&i| roles[i].member_of.contains(&group))
            .collect();
        let nodes: Vec<MaodvNode> = roles
            .into_iter()
            .map(|r| MaodvNode::new(cfg.clone(), r))
            .collect();
        let mut sim = Simulator::new(
            mesh_sim::topology::chain(setup.n, 10.0),
            Box::new(medium),
            WorldConfig { seed: setup.seed, ..WorldConfig::default() },
            nodes,
        );
        sim.run_until(SimTime::from_secs(40));

        let sent = sim.protocols()[setup.source].node_stats().total_sent();
        prop_assert!((590..=610).contains(&sent), "CBR produced {sent}");
        for (i, node) in sim.protocols().iter().enumerate() {
            let delivered = node.node_stats().total_delivered();
            if member_set.contains(&i) {
                prop_assert!(delivered <= sent, "member {i}: {delivered} > {sent}");
            } else {
                prop_assert_eq!(delivered, 0, "non-member {} delivered", i);
            }
        }
        // Probing never stops, so a frame may legitimately be mid-air at the
        // instant the run ends; a *leak* would accumulate beyond the number
        // of simultaneously-transmitting nodes.
        prop_assert!(
            sim.world().frames_in_flight() <= setup.n,
            "frames leaked: {} in flight",
            sim.world().frames_in_flight()
        );
        // The source never grafts toward itself.
        prop_assert_eq!(
            sim.protocols()[setup.source].node_stats().replies_sent, 0,
            "source sent a graft"
        );
    }
}

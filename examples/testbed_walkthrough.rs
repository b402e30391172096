//! Walk through the paper's 8-node office-floor testbed (§5): run
//! ODMRP_PP on the Figure-4 topology and inspect what the protocol built —
//! per-receiver delivery, the forwarding group, and the selected tree edges
//! (lossy links are tagged).
//!
//! Run with: `cargo run --release --example testbed_walkthrough`

use wmm::experiments::scenario_compiler::compile;
use wmm::experiments::trees::{heavy_edges, tree_usage};
use wmm::mcast_metrics::MetricKind;
use wmm::odmrp::Variant;
use wmm::testbed::{label_of, paper_groups, LinkClass};

fn main() {
    let deck = include_str!("../scenarios/testbed.toml");
    let scenario = compile(deck).expect("testbed deck compiles").scenario;
    println!("8-node testbed, groups: 2 -> {{3,5}} and 4 -> {{1,7}}; 400s runs\n");

    let mut sim = scenario.build(Variant::Metric(MetricKind::Pp), 1);
    sim.run_until(scenario.run_until());

    let layout = scenario.layout(1);
    println!("per-receiver delivery (ODMRP_PP):");
    for g in &layout.groups {
        let sent: u64 = sim.protocols()[g.sources[0].index()]
            .stats()
            .sent
            .values()
            .sum();
        for m in &g.members {
            let got = sim.protocols()[m.index()].stats().total_delivered();
            println!(
                "  source {} -> receiver {}: {}/{} ({:.1}%)",
                label_of(g.sources[0]),
                label_of(*m),
                got,
                sent,
                100.0 * got as f64 / sent as f64
            );
        }
    }

    println!("\nforwarding-group membership (ever joined):");
    for (i, node) in sim.protocols().iter().enumerate() {
        let groups = node.forwarding_groups();
        if !groups.is_empty() {
            println!(
                "  node {}: {:?}",
                label_of(wmm::mesh_sim::ids::NodeId::new(i as u32)),
                groups.iter().map(|g| g.0).collect::<Vec<_>>()
            );
        }
    }

    let lossy: std::collections::HashSet<(u32, u32)> = wmm::testbed::floorplan::links()
        .into_iter()
        .filter(|(_, _, c)| *c == LinkClass::Lossy)
        .flat_map(|(a, b, _)| [(a, b), (b, a)])
        .collect();
    println!("\nselected tree edges (by refresh rounds):");
    for e in heavy_edges(&tree_usage(&sim), 0.1) {
        let (a, b) = (label_of(e.from), label_of(e.to));
        let tag = if lossy.contains(&(a, b)) {
            "  <-- LOSSY"
        } else {
            ""
        };
        println!("  {:>2} -> {:<2} {:>5} rounds{}", a, b, e.packets, tag);
    }
    println!(
        "\nPer the paper (Fig. 5), PP's tree should detour 2->10->5 and 4->9->7 \
         rather than using the lossy 2->5 and 4->7 links."
    );
    let _ = paper_groups();
}

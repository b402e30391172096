//! A motivating workload from the paper's introduction: webcast-style video
//! distribution to a multicast group over a community mesh network.
//!
//! One source streams CBR "video" (512-byte packets, 20/s ≈ 80 kbps) to 15
//! subscribers for five simulated minutes. We compare every routing metric
//! on the same network and report per-subscriber quality: delivery ratio and
//! the share of subscribers with watchable quality (>90 % delivery).
//!
//! Run with: `cargo run --release --example video_multicast`

use wmm::experiments::scenario::MeshScenario;
use wmm::experiments::scenario_compiler::WorkloadScenario;
use wmm::mcast_metrics::MetricKind;
use wmm::mesh_sim::time::SimTime;
use wmm::odmrp::Variant;

fn main() {
    let scenario = WorkloadScenario::from_mesh(
        "video",
        MeshScenario {
            nodes: 40,
            groups: 1,
            members_per_group: 15,
            data_start: SimTime::from_secs(30),
            data_stop: SimTime::from_secs(330),
            ..MeshScenario::paper_default()
        },
    );

    let seed = 11;
    let layout = scenario.layout(seed);
    let group = &layout.groups[0];
    println!(
        "video webcast: source {} -> {} subscribers, 300s of 80kbps CBR\n",
        group.sources[0],
        group.members.len()
    );

    let mut variants = vec![Variant::Original];
    variants.extend(MetricKind::PAPER_SET.map(Variant::Metric));

    println!(
        "{:<12} {:>10} {:>12} {:>18}",
        "variant", "mean PDR", "worst sub", "watchable (>90%)"
    );
    for v in variants {
        let mut sim = scenario.build(v, seed);
        sim.run_until(scenario.run_until());
        let nodes = sim.protocols();
        let sent = nodes[group.sources[0].index()]
            .stats()
            .sent
            .values()
            .sum::<u64>() as f64;
        let mut ratios = Vec::new();
        for m in &group.members {
            let got = nodes[m.index()].stats().total_delivered() as f64;
            ratios.push(got / sent);
        }
        let mean = ratios.iter().sum::<f64>() / ratios.len() as f64;
        let worst = ratios.iter().copied().fold(f64::INFINITY, f64::min);
        let watchable = ratios.iter().filter(|&&r| r > 0.9).count();
        println!(
            "{:<12} {:>10.3} {:>12.3} {:>15}/{}",
            v.label(),
            mean,
            worst,
            watchable,
            ratios.len()
        );
    }
    println!("\nLink-quality metrics lift both the mean and the tail subscriber experience.");
}

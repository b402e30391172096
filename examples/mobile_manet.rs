//! Beyond the paper: what happens to link-quality multicast routing when the
//! "mesh" assumption breaks and nodes move (the MANET regime ODMRP was
//! originally designed for)?
//!
//! Runs ODMRP_SPP and original ODMRP on the same network, static vs.
//! random-waypoint mobility. Expect the metric's edge to shrink under
//! mobility: probe windows describe links that no longer exist.
//!
//! Run with: `cargo run --release --example mobile_manet`

use wmm::experiments::scenario_compiler::{compile, WorkloadScenario};
use wmm::experiments::RunMeasurement;
use wmm::mcast_metrics::MetricKind;
use wmm::mesh_sim::geometry::Area;
use wmm::mesh_sim::mobility::RandomWaypoint;
use wmm::mesh_sim::time::{SimDuration, SimTime};
use wmm::odmrp::Variant;

/// Mobility with a 500 ms tick and 10 s pauses, attached to the built
/// simulator.
fn run(scenario: &WorkloadScenario, variant: Variant, seed: u64, mobile: bool) -> RunMeasurement {
    let groups = scenario.layout(seed).groups;
    let mut sim = scenario.build(variant, seed);
    if mobile {
        sim.set_mobility(Box::new(
            RandomWaypoint::new(
                Area::square(scenario.mesh.area_side),
                1.0,
                5.0, // pedestrian-to-bike speeds
                SimDuration::from_secs(10),
            )
            .with_tick(SimDuration::from_millis(500)),
        ));
    }
    sim.run_until(scenario.run_until());
    RunMeasurement::from_sim(&sim, &groups, seed)
}

fn main() {
    let deck = include_str!("../scenarios/fig2-quick.toml");
    let mut scenario = compile(deck).expect("fig2-quick compiles").scenario;
    scenario.mesh.groups = 1;
    scenario.mesh.members_per_group = 8;
    scenario.mesh.data_stop = SimTime::from_secs(200);

    println!(
        "{:<22} {:>10} {:>10} {:>10}",
        "configuration", "ODMRP", "ODMRP_SPP", "SPP gain"
    );
    for (label, mobile) in [("static mesh", false), ("random waypoint 1-5 m/s", true)] {
        let mut base = 0.0;
        let mut spp = 0.0;
        let seeds = [3u64, 4, 5];
        for &s in &seeds {
            base += run(&scenario, Variant::Original, s, mobile).pdr();
            spp += run(&scenario, Variant::Metric(MetricKind::Spp), s, mobile).pdr();
        }
        base /= seeds.len() as f64;
        spp /= seeds.len() as f64;
        println!(
            "{:<22} {:>10.3} {:>10.3} {:>9.1}%",
            label,
            base,
            spp,
            100.0 * (spp / base - 1.0)
        );
    }
    println!(
        "\nThe paper's premise in action: link-quality metrics presume a stationary \
         network; under mobility the probe history goes stale and the advantage shrinks."
    );
}

//! Scenario-compiler round trip: randomized scenarios serialize through
//! `to_toml` → `parse` → `compile` unchanged, and the flagship deck carries
//! its sweep. (Replay of the committed decks is pinned by `run_golden`.)

use experiments::scenario::MeshScenario;
use experiments::scenario_compiler::{
    compile, to_toml, ChurnSpec, FaultSpec, FaultWindow, MobilitySpec, SweepSpec, TrafficMix,
    WorkloadScenario,
};
use mesh_sim::time::{SimDuration, SimTime};
use odmrp::Variant;
use proptest::prelude::*;

#[test]
fn city_churn_deck_carries_its_sweep() {
    let c = compile(include_str!("../../../scenarios/city-churn.toml"))
        .unwrap_or_else(|e| panic!("city-churn.toml failed to compile: {e}"));
    // The flagship file carries the 100-run sweep: 2 group counts x
    // 2 churn rates x 5 variants x 5 seeds, capped at 120.
    assert_eq!(c.sweep.seeds, 5);
    assert_eq!(c.sweep.limit, Some(120));
    assert_eq!(c.sweep.variants.len(), 5);
    assert_eq!(
        c.sweep.axes,
        vec![
            ("groups.count".to_string(), vec![6.0, 12.0]),
            ("churn.per_group".to_string(), vec![2.0, 4.0]),
        ]
    );
    assert_eq!(experiments::scenario_compiler::job_count(&c.sweep), 100);
}

/// Build a canonical scenario from sampled knobs. Bounds are chosen so
/// every combination passes `validate()` (roles never exceed nodes).
#[allow(clippy::too_many_arguments)]
fn sampled_scenario(
    family: usize,
    nodes: usize,
    groups: usize,
    members: usize,
    probe_rate: f64,
    bursty: bool,
    churn_per_group: usize,
    mobility: bool,
    faults: usize,
) -> WorkloadScenario {
    let base = MeshScenario {
        groups,
        members_per_group: members,
        sources_per_group: 1,
        data_start: SimTime::from_secs(20),
        data_stop: SimTime::from_secs(80),
        probe_rate,
        ..MeshScenario::paper_default()
    };
    let mut w = match family {
        0 => WorkloadScenario::from_mesh(
            "prop",
            MeshScenario {
                nodes,
                area_side: 900.0,
                ..base
            },
        ),
        1 => WorkloadScenario::grid("prop", 6, 6, 150.0, base),
        _ => WorkloadScenario::metro("prop", nodes, 800.0, base),
    };
    if bursty {
        w.traffic = TrafficMix::Bursty {
            on: SimDuration::from_secs(3),
            off: SimDuration::from_millis(1500),
        };
    }
    if churn_per_group > 0 {
        w.churn = Some(ChurnSpec {
            per_group: churn_per_group,
            start: SimTime::from_secs(25),
            end: SimTime::from_secs(75),
            dwell: SimDuration::from_secs(10),
            stagger: SimDuration::from_secs(2),
            flash: false,
            explicit: Vec::new(),
        });
    }
    if mobility {
        w.mobility = Some(MobilitySpec {
            min_speed: 0.5,
            max_speed: 2.5,
            pause: SimDuration::from_secs(1),
        });
    }
    w.faults = match faults {
        0 => FaultSpec::None,
        1 => FaultSpec::Random { intensity: 0.4 },
        _ => FaultSpec::Windows(vec![FaultWindow::Crash {
            node: 1,
            from: SimTime::from_secs(40),
            to: SimTime::from_secs(60),
        }]),
    };
    w.validated()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Round-trip: serialize → parse → compile reproduces the exact struct,
    /// sweep spec included.
    #[test]
    fn random_scenarios_round_trip_through_toml(
        family in 0usize..3,
        nodes in 36usize..60,
        groups in 1usize..4,
        members in 1usize..5,
        probe_rate in 1u32..5,
        bursty in 0usize..2,
        churn_per_group in 0usize..3,
        mobility in 0usize..2,
        faults in 0usize..3,
        seeds in 1u64..6,
        base_seed in 1u64..100,
    ) {
        let w = sampled_scenario(
            family, nodes, groups, members, f64::from(probe_rate), bursty == 1,
            churn_per_group, mobility == 1, faults,
        );
        let spec = SweepSpec {
            seeds,
            base_seed,
            retries: 1,
            variants: vec![Variant::Original, Variant::Metric(mcast_metrics::MetricKind::Ett)],
            limit: Some(64),
            axes: vec![("protocol.probe_rate".to_string(), vec![1.0, 2.0])],
        };
        let src = to_toml(&w, Some(&spec));
        let back = compile(&src)
            .unwrap_or_else(|e| panic!("canonical TOML failed to compile: {e}\n{src}"));
        prop_assert_eq!(&back.scenario, &w, "scenario drifted:\n{}", src);
        prop_assert_eq!(&back.sweep, &spec, "sweep spec drifted:\n{}", src);
        // Idempotence: serializing the compiled struct reproduces the text.
        let again = to_toml(&back.scenario, Some(&back.sweep));
        prop_assert_eq!(src, again, "serialization is not a fixed point");
    }
}

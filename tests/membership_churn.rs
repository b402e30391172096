//! Dynamic group membership: receivers joining and leaving mid-run, the
//! churn ODMRP's on-demand forwarding group was designed to absorb.

use wmm::mcast_metrics::MetricKind;
use wmm::mesh_sim::prelude::*;
use wmm::odmrp::{NodeRole, OdmrpConfig, OdmrpNode, Variant};

const GROUP: GroupId = GroupId(0);

fn run(window: Option<(u64, u64)>) -> Vec<OdmrpNode> {
    let mut medium = LinkTableMedium::new();
    for i in 0..3u32 {
        medium.add_link(NodeId::new(i), NodeId::new(i + 1), 0.0);
    }
    let cfg = OdmrpConfig {
        variant: Variant::Metric(MetricKind::Etx),
        ..OdmrpConfig::default()
    };
    let mut roles = vec![NodeRole::forwarder(); 4];
    roles[0] = NodeRole::source(GROUP, SimTime::from_secs(10), SimTime::from_secs(130));
    roles[3] = match window {
        Some((j, l)) => {
            NodeRole::member_during(GROUP, SimTime::from_secs(j), SimTime::from_secs(l))
        }
        None => NodeRole::member(GROUP),
    };
    let nodes: Vec<OdmrpNode> = roles
        .into_iter()
        .map(|r| OdmrpNode::new(cfg.clone(), r))
        .collect();
    let mut sim = Simulator::new(
        mesh_sim::topology::chain(4, 50.0),
        Box::new(medium),
        WorldConfig {
            seed: 17,
            ..WorldConfig::default()
        },
        nodes,
    );
    sim.run_until(SimTime::from_secs(132));
    let (nodes, _) = sim.into_parts();
    nodes
}

#[test]
fn windowed_member_receives_roughly_its_window() {
    // Member is subscribed for 60 s of the 120 s transmission.
    let nodes = run(Some((40, 100)));
    let got = nodes[3].stats().total_delivered();
    let sent = nodes[0].stats().total_sent();
    // 60/120 of the stream, minus the join latency of roughly one refresh
    // round; forwarding-group soft state may deliver a little past the
    // leave instant, but never the whole stream.
    let share = got as f64 / sent as f64;
    assert!(
        (0.40..=0.55).contains(&share),
        "windowed member got {share:.3} of the stream ({got}/{sent})"
    );
}

#[test]
fn permanent_member_beats_windowed_member() {
    let windowed = run(Some((40, 100)))[3].stats().total_delivered();
    let permanent = run(None)[3].stats().total_delivered();
    assert!(permanent > windowed + 500);
}

#[test]
fn never_joined_receives_nothing() {
    // A window entirely outside the transmission delivers nothing.
    let nodes = run(Some((500, 600)));
    assert_eq!(nodes[3].stats().total_delivered(), 0);
    // And the forwarding group was never established through node 2.
    assert_eq!(nodes[2].stats().data_forwards, 0);
}

// ---------------------------------------------------------------------------
// Compiled multi-group churn: the same membership semantics driven from a
// declarative TOML scenario — generated per-group churners plus an explicit
// window — supervised by the ODMRP + world invariant oracles.
// ---------------------------------------------------------------------------

use wmm::experiments::scenario_compiler::compile;
use wmm::experiments::{RunSpec, WorkloadScenario};
use wmm::mesh_sim::simulator::Simulator;
use wmm::odmrp::stats::MulticastApp as _;

/// Two groups, two receivers each, two generated churners per group cycling
/// through a 15–45 s window, and one explicit window on node 0.
const CHURN_TOML: &str = r#"
name = "churn-multi"

[topology]
family = "random"
nodes = 26
area_side = 600.0
range = 250.0

[groups]
count = 2
members = 2
sources = 1

[time]
data_start_secs = 10.0
data_stop_secs = 50.0

[churn]
per_group = 2
start_secs = 15.0
end_secs = 45.0
dwell_secs = 10.0
stagger_secs = 3.0

[[churn.window]]
node = 0
group = 0
join_secs = 20.0
leave_secs = 30.0
"#;

fn compiled_churn() -> WorkloadScenario {
    compile(CHURN_TOML).expect("CHURN_TOML compiles").scenario
}

/// Delivery credit node `who` holds for `gid` from each of `sources`.
fn credited(sim: &Simulator<OdmrpNode>, who: NodeId, gid: GroupId, sources: &[NodeId]) -> u64 {
    let stats = sim.protocols()[who.index()].node_stats();
    sources
        .iter()
        .filter_map(|s| stats.delivered.get(&(gid, *s)))
        .map(|d| d.count)
        .sum()
}

#[test]
fn compiled_multi_group_churn_passes_oracles_and_credits_windows() {
    let w = compiled_churn();
    let layout = w.layout(1);
    assert_eq!(layout.groups.len(), 2);
    // Two generated churners per group, plus the explicit window on group 0.
    assert_eq!(layout.groups[0].churners.len(), 3);
    assert_eq!(layout.groups[1].churners.len(), 2);
    for g in &layout.groups {
        for (c, expected) in &g.churners {
            assert!(
                layout.roles[c.index()]
                    .windows
                    .iter()
                    .any(|mw| mw.group == g.group),
                "churner {c:?} has no membership window for its group"
            );
            assert!(*expected > 0, "churner {c:?} expects no packets");
        }
    }
    // Supervised runs (invariant oracles every refresh round) complete and
    // never credit more than the windowed expectations.
    for (variant, seed) in [
        (Variant::Original, 1),
        (Variant::Metric(MetricKind::Ett), 1),
    ] {
        let m = wmm::experiments::run(&RunSpec::new(&w, variant, seed).supervised());
        assert!(m.sent > 0, "{variant:?}: no data sent");
        assert!(m.delivered > 0, "{variant:?}: nothing delivered");
        assert!(
            m.delivered <= m.expected,
            "{variant:?}: delivered {} beats the windowed expectation {}",
            m.delivered,
            m.expected
        );
    }
}

#[test]
fn compiled_churner_gains_no_delivery_credit_after_leaving() {
    let w = compiled_churn();
    let seed = 2;
    let layout = w.layout(seed);
    let group = &layout.groups[0];
    let (churner, expected) = group.churners[0];
    let window = *layout.roles[churner.index()]
        .windows
        .iter()
        .find(|mw| mw.group == group.group)
        .expect("generated churner has a window");
    assert!(expected > 0);

    let mut sim = w.build(Variant::Metric(MetricKind::Etx), seed);
    sim.run_until(window.leave);
    let at_leave = credited(&sim, churner, group.group, &group.sources);
    assert!(
        at_leave > 0,
        "churner {churner:?} received nothing inside its window"
    );
    sim.run_until(w.run_until());
    let at_end = credited(&sim, churner, group.group, &group.sources);
    // Delivery credit is gated on membership at arrival time: the count is
    // frozen the instant the receiver leaves, even though data keeps
    // flowing to the permanent members for another 15+ seconds.
    assert_eq!(
        at_end, at_leave,
        "churner {churner:?} kept accruing delivery credit after leaving"
    );
    assert!(
        at_end <= expected,
        "credit {at_end} beats expectation {expected}"
    );
}

#[test]
fn flash_crowd_windows_join_staggered_and_leave_together() {
    let src = CHURN_TOML.replace("stagger_secs = 3.0", "stagger_secs = 3.0\nflash = true");
    let w = compile(&src).expect("flash TOML compiles").scenario;
    let layout = w.layout(3);
    for g in &layout.groups {
        // Generated churners only (the explicit window keeps its own times).
        let windows: Vec<_> = g.churners[..2]
            .iter()
            .map(|(c, _)| {
                *layout.roles[c.index()]
                    .windows
                    .iter()
                    .find(|mw| mw.group == g.group)
                    .expect("churner window")
            })
            .collect();
        assert_eq!(windows[0].join, SimTime::from_secs(15));
        assert_eq!(windows[1].join, SimTime::from_secs(18));
        // A flash crowd stays until the churn window closes.
        assert!(windows.iter().all(|mw| mw.leave == SimTime::from_secs(45)));
    }
}

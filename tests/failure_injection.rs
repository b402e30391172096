//! Failure-injection tests: links die mid-run and the metric-enhanced
//! protocol must route around them within a few refresh cycles.

use wmm::mcast_metrics::MetricKind;
use wmm::mesh_sim::geometry::Pos;
use wmm::mesh_sim::ids::{GroupId, NodeId};
use wmm::mesh_sim::medium::{LinkTableMedium, Medium, RxPlan};
use wmm::mesh_sim::prelude::*;
use wmm::odmrp::{NodeRole, OdmrpConfig, OdmrpNode, Variant};

/// Medium wrapper that rewrites link losses at scheduled instants.
#[derive(Debug)]
struct ScriptedMedium {
    inner: LinkTableMedium,
    /// `(when, from, to, new_loss)`, sorted by time.
    script: Vec<(SimTime, NodeId, NodeId, f64)>,
    next: usize,
}

impl ScriptedMedium {
    fn new(inner: LinkTableMedium, mut script: Vec<(SimTime, NodeId, NodeId, f64)>) -> Self {
        script.sort_by_key(|e| e.0);
        ScriptedMedium {
            inner,
            script,
            next: 0,
        }
    }
}

impl Medium for ScriptedMedium {
    fn fan_out(
        &mut self,
        tx: NodeId,
        positions: &[Pos],
        now: SimTime,
        rng: &mut SimRng,
        out: &mut Vec<RxPlan>,
    ) {
        while self.next < self.script.len() && self.script[self.next].0 <= now {
            let (_, a, b, loss) = self.script[self.next];
            self.inner.set_loss(a, b, loss);
            self.inner.set_loss(b, a, loss);
            self.next += 1;
        }
        self.inner.fan_out(tx, positions, now, rng, out)
    }

    fn phy(&self) -> &PhyParams {
        self.inner.phy()
    }

    // These runs are never checkpointed.
    fn snapshot_state(&self, _w: &mut SnapWriter) {}

    fn restore_state(&mut self, _r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        Ok(())
    }
}

const GROUP: GroupId = GroupId(0);

fn n(i: u32) -> NodeId {
    NodeId::new(i)
}

/// Diamond: source 0, relays 1 (path A) and 2 (path B), member 3.
/// Path A starts perfect; at t=150s it goes black. Path B is always decent.
fn run_blackout(variant: Variant) -> (u64, u64, u64) {
    let mut table = LinkTableMedium::new();
    table.add_link(n(0), n(1), 0.02);
    table.add_link(n(1), n(3), 0.02);
    table.add_link(n(0), n(2), 0.10);
    table.add_link(n(2), n(3), 0.10);
    // Sense-only link (loss 1.0): the relays can carrier-sense each other's
    // transmissions but never decode them, avoiding the hidden-terminal
    // collisions at the member that would otherwise dominate the result.
    table.add_link(n(1), n(2), 1.0);
    let blackout = SimTime::from_secs(150);
    let medium = ScriptedMedium::new(
        table,
        vec![(blackout, n(0), n(1), 1.0), (blackout, n(1), n(3), 1.0)],
    );
    let cfg = OdmrpConfig {
        variant,
        ..OdmrpConfig::default()
    };
    let roles = vec![
        NodeRole::source(GROUP, SimTime::from_secs(30), SimTime::from_secs(300)),
        NodeRole::forwarder(),
        NodeRole::forwarder(),
        NodeRole::member(GROUP),
    ];
    let nodes: Vec<OdmrpNode> = roles
        .into_iter()
        .map(|r| OdmrpNode::new(cfg.clone(), r))
        .collect();
    let positions = vec![
        Pos::new(0.0, 0.0),
        Pos::new(50.0, 30.0),
        Pos::new(50.0, -30.0),
        Pos::new(100.0, 0.0),
    ];
    let mut sim = Simulator::new(
        positions,
        Box::new(medium),
        WorldConfig {
            seed: 21,
            ..WorldConfig::default()
        },
        nodes,
    );
    // Deliveries before the blackout...
    sim.run_until(blackout);
    let before = sim.protocols()[3].stats().total_delivered();
    // ...a grace window for re-routing (a few refresh cycles)...
    sim.run_until(blackout + SimDuration::from_secs(30));
    let during = sim.protocols()[3].stats().total_delivered();
    // ...and the steady state after.
    sim.run_until(SimTime::from_secs(302));
    let after = sim.protocols()[3].stats().total_delivered();
    (before, during - before, after - during)
}

#[test]
fn metric_odmrp_recovers_from_link_blackout() {
    let (before, _grace, after) = run_blackout(Variant::Metric(MetricKind::Spp));
    // 120s of data before the blackout, 120s after the grace window.
    assert!(
        before as f64 > 0.9 * 2400.0,
        "pre-blackout delivery broken: {before}"
    );
    assert!(
        after as f64 > 0.6 * 2400.0,
        "no recovery after blackout: {after} of ~2400"
    );
}

#[test]
fn recovery_holds_for_every_metric() {
    for kind in MetricKind::PAPER_SET {
        let (before, _, after) = run_blackout(Variant::Metric(kind));
        assert!(before > 2000, "{kind}: pre-blackout {before}");
        assert!(after > 1200, "{kind}: post-blackout {after}");
    }
}

#[test]
fn original_odmrp_also_recovers_via_flooding() {
    // Original ODMRP re-floods queries every refresh, so it finds the
    // surviving path too (it just cannot *prefer* good links).
    let (before, _, after) = run_blackout(Variant::Original);
    assert!(before > 2000);
    assert!(after > 1200, "original ODMRP failed to re-route: {after}");
}

#[test]
fn total_link_failure_stops_delivery() {
    // Sanity check of the injection mechanism itself: kill both paths and
    // delivery must cease.
    let mut table = LinkTableMedium::new();
    table.add_link(n(0), n(1), 0.0);
    table.add_link(n(1), n(3), 0.0);
    table.add_link(n(0), n(2), 0.0);
    table.add_link(n(2), n(3), 0.0);
    table.add_link(n(1), n(2), 1.0); // sense-only: no hidden terminal
    let blackout = SimTime::from_secs(60);
    let medium = ScriptedMedium::new(
        table,
        vec![
            (blackout, n(0), n(1), 1.0),
            (blackout, n(1), n(3), 1.0),
            (blackout, n(0), n(2), 1.0),
            (blackout, n(2), n(3), 1.0),
        ],
    );
    let cfg = OdmrpConfig::default();
    let roles = vec![
        NodeRole::source(GROUP, SimTime::from_secs(10), SimTime::from_secs(120)),
        NodeRole::forwarder(),
        NodeRole::forwarder(),
        NodeRole::member(GROUP),
    ];
    let nodes: Vec<OdmrpNode> = roles
        .into_iter()
        .map(|r| OdmrpNode::new(cfg.clone(), r))
        .collect();
    let mut sim = Simulator::new(
        vec![
            Pos::new(0.0, 0.0),
            Pos::new(50.0, 30.0),
            Pos::new(50.0, -30.0),
            Pos::new(100.0, 0.0),
        ],
        Box::new(medium),
        WorldConfig::default(),
        nodes,
    );
    sim.run_until(blackout);
    let before = sim.protocols()[3].stats().total_delivered();
    sim.run_until(SimTime::from_secs(122));
    let after = sim.protocols()[3].stats().total_delivered();
    assert!(before > 900);
    assert_eq!(after, before, "packets delivered across dead links");
}

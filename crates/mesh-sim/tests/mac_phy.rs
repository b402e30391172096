//! End-to-end tests of the PHY + 802.11 DCF MAC through the public API.

use mesh_sim::prelude::*;

/// A scriptable test protocol: sends preconfigured messages at start and
/// records everything it hears.
#[derive(Debug, Default, Clone)]
struct Probe {
    /// (dst, payload, bytes) to send at start; dst None = broadcast.
    sends: Vec<(Option<NodeId>, u64, u32)>,
    received: Vec<(NodeId, u64)>,
    outcomes: Vec<TxOutcome>,
}

impl Protocol for Probe {
    type Msg = u64;

    fn start(&mut self, ctx: &mut Ctx<'_, u64>) {
        for (dst, msg, bytes) in self.sends.clone() {
            let res = match dst {
                None => ctx.send_broadcast(msg, bytes, 1),
                Some(d) => ctx.send_unicast(d, msg, bytes, 1),
            };
            res.expect("queue should accept start-time sends");
        }
    }

    fn handle_message(&mut self, _ctx: &mut Ctx<'_, u64>, src: NodeId, msg: &u64, _meta: RxMeta) {
        self.received.push((src, *msg));
    }

    fn handle_timer(&mut self, _ctx: &mut Ctx<'_, u64>, _timer: TimerId, _kind: u64) {}

    fn handle_tx_complete(
        &mut self,
        _ctx: &mut Ctx<'_, u64>,
        _handle: TxHandle,
        outcome: TxOutcome,
    ) {
        self.outcomes.push(outcome);
    }
}

fn no_fading() -> Box<PhysicalMedium> {
    Box::new(PhysicalMedium::new(PhyParams {
        fading: FadingModel::None,
        ..PhyParams::default()
    }))
}

fn sim_with(positions: Vec<Pos>, protos: Vec<Probe>, seed: u64) -> Simulator<Probe> {
    Simulator::new(
        positions,
        no_fading(),
        WorldConfig {
            seed,
            ..WorldConfig::default()
        },
        protos,
    )
}

#[test]
fn broadcast_reaches_neighbors_in_range_only() {
    let positions = vec![
        Pos::new(0.0, 0.0),
        Pos::new(200.0, 0.0), // in range (250m nominal)
        Pos::new(400.0, 0.0), // out of range
    ];
    let mut protos = vec![Probe::default(); 3];
    protos[0].sends.push((None, 42, 512));
    let mut sim = sim_with(positions, protos, 1);
    sim.run_until(SimTime::from_secs(1));

    assert_eq!(sim.protocols()[1].received, vec![(NodeId::new(0), 42)]);
    assert!(sim.protocols()[2].received.is_empty());
    // Broadcast completes with Sent even with no ACKs.
    assert_eq!(sim.protocols()[0].outcomes, vec![TxOutcome::Sent]);
}

#[test]
fn unicast_delivers_and_acks() {
    let positions = vec![Pos::new(0.0, 0.0), Pos::new(150.0, 0.0)];
    let mut protos = vec![Probe::default(); 2];
    protos[0].sends.push((Some(NodeId::new(1)), 7, 512));
    let mut sim = sim_with(positions, protos, 2);
    sim.run_until(SimTime::from_secs(1));

    assert_eq!(sim.protocols()[1].received, vec![(NodeId::new(0), 7)]);
    assert_eq!(sim.protocols()[0].outcomes, vec![TxOutcome::Sent]);
    // RTS/CTS/ACK happened: at least 3 control frames (512 >= rts threshold).
    assert!(sim.counters().tx_ctrl_frames >= 3);
    assert_eq!(sim.counters().unicast_failures, 0);
}

#[test]
fn small_unicast_skips_rts() {
    let positions = vec![Pos::new(0.0, 0.0), Pos::new(150.0, 0.0)];
    let mut protos = vec![Probe::default(); 2];
    protos[0].sends.push((Some(NodeId::new(1)), 9, 64)); // below 256B threshold
    let mut sim = sim_with(positions, protos, 3);
    sim.run_until(SimTime::from_secs(1));

    assert_eq!(sim.protocols()[1].received.len(), 1);
    // Only the ACK: exactly one control frame.
    assert_eq!(sim.counters().tx_ctrl_frames, 1);
}

#[test]
fn unicast_to_unreachable_fails_after_retries() {
    let positions = vec![Pos::new(0.0, 0.0), Pos::new(5000.0, 0.0)];
    let mut protos = vec![Probe::default(); 2];
    protos[0].sends.push((Some(NodeId::new(1)), 1, 512));
    let mut sim = sim_with(positions, protos, 4);
    sim.run_until(SimTime::from_secs(5));

    assert!(sim.protocols()[1].received.is_empty());
    assert_eq!(sim.protocols()[0].outcomes.len(), 1);
    match sim.protocols()[0].outcomes[0] {
        TxOutcome::Failed { retries } => assert!(retries > 0),
        other => panic!("expected failure, got {other:?}"),
    }
    assert_eq!(sim.counters().unicast_failures, 1);
    assert!(sim.counters().retries > 0);
}

#[test]
fn broadcast_gets_no_retransmissions() {
    // Out-of-range broadcast: exactly one data frame on the air, no failure
    // report (fire and forget) — the core asymmetry the paper builds on.
    let positions = vec![Pos::new(0.0, 0.0), Pos::new(5000.0, 0.0)];
    let mut protos = vec![Probe::default(); 2];
    protos[0].sends.push((None, 1, 512));
    let mut sim = sim_with(positions, protos, 5);
    sim.run_until(SimTime::from_secs(5));

    assert_eq!(sim.protocols()[0].outcomes, vec![TxOutcome::Sent]);
    assert_eq!(sim.counters().tx_data[1].frames, 1);
    assert_eq!(sim.counters().retries, 0);
}

#[test]
fn queue_overflow_reports_error() {
    struct Flooder {
        accepted: u32,
        rejected: u32,
    }
    impl Protocol for Flooder {
        type Msg = u64;
        fn start(&mut self, ctx: &mut Ctx<'_, u64>) {
            for i in 0..200 {
                match ctx.send_broadcast(i, 512, 0) {
                    Ok(_) => self.accepted += 1,
                    Err(SendError::QueueFull) => self.rejected += 1,
                    Err(e) => panic!("unexpected error {e}"),
                }
            }
        }
        fn handle_message(&mut self, _: &mut Ctx<'_, u64>, _: NodeId, _: &u64, _: RxMeta) {}
        fn handle_timer(&mut self, _: &mut Ctx<'_, u64>, _: TimerId, _: u64) {}
    }
    let mut sim = Simulator::new(
        vec![Pos::new(0.0, 0.0)],
        no_fading(),
        WorldConfig::default(),
        vec![Flooder {
            accepted: 0,
            rejected: 0,
        }],
    );
    sim.run_until(SimTime::from_secs(60));
    let f = &sim.protocols()[0];
    assert_eq!(f.accepted, 50); // default queue cap
    assert_eq!(f.rejected, 150);
    assert_eq!(sim.counters().queue_drops, 150);
    // All accepted frames eventually go out.
    assert_eq!(sim.counters().tx_data[0].frames, 50);
}

#[test]
fn bad_destination_rejected() {
    struct SelfSender;
    impl Protocol for SelfSender {
        type Msg = u64;
        fn start(&mut self, ctx: &mut Ctx<'_, u64>) {
            assert_eq!(
                ctx.send_unicast(ctx.node(), 0, 64, 0),
                Err(SendError::BadDestination)
            );
            assert_eq!(
                ctx.send_unicast(NodeId::new(99), 0, 64, 0),
                Err(SendError::BadDestination)
            );
        }
        fn handle_message(&mut self, _: &mut Ctx<'_, u64>, _: NodeId, _: &u64, _: RxMeta) {}
        fn handle_timer(&mut self, _: &mut Ctx<'_, u64>, _: TimerId, _: u64) {}
    }
    let mut sim = Simulator::new(
        vec![Pos::new(0.0, 0.0), Pos::new(10.0, 0.0)],
        no_fading(),
        WorldConfig::default(),
        vec![SelfSender, SelfSender],
    );
    sim.run_until(SimTime::from_secs(1));
}

#[test]
fn hidden_terminal_broadcasts_collide_at_middle() {
    // A and C cannot hear each other (600m apart > 550m CS range) but B in
    // the middle hears both. Simultaneous broadcasts must collide at B in a
    // deterministic no-fading world.
    let positions = vec![
        Pos::new(0.0, 0.0),
        Pos::new(300.0, 0.0),
        Pos::new(600.0, 0.0),
    ];
    let mut lost_at_b = 0;
    let trials = 20;
    for seed in 0..trials {
        let mut protos = vec![Probe::default(); 3];
        protos[0].sends.push((None, 1, 512));
        protos[2].sends.push((None, 2, 512));
        let mut sim = sim_with(positions.clone(), protos, seed);
        sim.run_until(SimTime::from_secs(1));
        // B is at 300m from each sender: beyond RX range (250m), within CS.
        // So B never decodes; the senders cannot carrier-sense each other.
        // Move B closer for a decodable variant below; here both arrivals
        // are interference only.
        let b = &sim.protocols()[1];
        if b.received.len() < 2 {
            lost_at_b += 1;
        }
    }
    assert!(lost_at_b > 0);
}

#[test]
fn hidden_terminal_decodable_variant() {
    // B at 200m from each of A (0m) and C (400m): decodable from both; A and
    // C are 400m apart — within CS range (550m), so they defer to each other
    // and most transmissions serialize. With randomized start jitter both
    // messages normally arrive.
    let positions = vec![
        Pos::new(0.0, 0.0),
        Pos::new(200.0, 0.0),
        Pos::new(400.0, 0.0),
    ];
    let mut total_received = 0;
    let trials = 10;
    for seed in 0..trials {
        let mut protos = vec![Probe::default(); 3];
        protos[0].sends.push((None, 1, 512));
        protos[2].sends.push((None, 2, 512));
        let mut sim = sim_with(positions.clone(), protos, 1000 + seed);
        sim.run_until(SimTime::from_secs(1));
        total_received += sim.protocols()[1].received.len();
    }
    // At least half of all messages should get through on average.
    assert!(
        total_received as f64 >= trials as f64,
        "B received {total_received} of {} messages",
        2 * trials
    );
}

#[test]
fn no_frames_leak_after_quiescence() {
    let positions = vec![Pos::new(0.0, 0.0), Pos::new(150.0, 0.0)];
    let mut protos = vec![Probe::default(); 2];
    protos[0].sends.push((None, 1, 512));
    protos[0].sends.push((Some(NodeId::new(1)), 2, 512));
    protos[1].sends.push((None, 3, 512));
    let mut sim = sim_with(positions, protos, 6);
    sim.run_until(SimTime::from_secs(10));
    assert_eq!(sim.world().frames_in_flight(), 0);
}

#[test]
fn identical_seeds_identical_runs() {
    let run = |seed: u64| {
        let positions = vec![
            Pos::new(0.0, 0.0),
            Pos::new(180.0, 40.0),
            Pos::new(120.0, 190.0),
        ];
        let mut protos = vec![Probe::default(); 3];
        for (n, p) in protos.iter_mut().enumerate() {
            p.sends.push((None, n as u64, 512));
        }
        // Fading on: exercise the stochastic path.
        let medium = Box::new(PhysicalMedium::default());
        let mut sim = Simulator::new(
            positions,
            medium,
            WorldConfig {
                seed,
                ..WorldConfig::default()
            },
            protos,
        );
        sim.run_until(SimTime::from_secs(2));
        let received: Vec<_> = sim.protocols().iter().map(|p| p.received.clone()).collect();
        (received, sim.counters().clone())
    };
    assert_eq!(run(77), run(77));
    // And the run actually did something.
    let (_, c) = run(77);
    assert_eq!(c.tx_data[1].frames, 3);
}

#[test]
fn rayleigh_fading_causes_partial_loss_on_long_links() {
    // Repeated broadcasts over a 230m link under Rayleigh fading: the paper's
    // core premise is that long links are lossy. Expect meaningful but
    // partial delivery.
    #[derive(Debug)]
    struct Beacon {
        count: u32,
        received: u32,
    }
    impl Protocol for Beacon {
        type Msg = u32;
        fn start(&mut self, ctx: &mut Ctx<'_, u32>) {
            if ctx.node().index() == 0 {
                ctx.set_timer(SimDuration::from_millis(10), 0);
            }
        }
        fn handle_message(&mut self, _: &mut Ctx<'_, u32>, _: NodeId, _: &u32, _: RxMeta) {
            self.received += 1;
        }
        fn handle_timer(&mut self, ctx: &mut Ctx<'_, u32>, _: TimerId, _: u64) {
            if self.count < 200 {
                self.count += 1;
                let _ = ctx.send_broadcast(self.count, 512, 0);
                ctx.set_timer(SimDuration::from_millis(10), 0);
            }
        }
        fn handle_tx_complete(&mut self, _: &mut Ctx<'_, u32>, _: TxHandle, _: TxOutcome) {}
    }
    let positions = vec![Pos::new(0.0, 0.0), Pos::new(230.0, 0.0)];
    let mut sim = Simulator::new(
        positions,
        Box::new(PhysicalMedium::default()),
        WorldConfig {
            seed: 99,
            ..WorldConfig::default()
        },
        vec![
            Beacon {
                count: 0,
                received: 0,
            },
            Beacon {
                count: 0,
                received: 0,
            },
        ],
    );
    sim.run_until(SimTime::from_secs(5));
    let got = sim.protocols()[1].received;
    assert!(got > 50, "received only {got}/200");
    assert!(got < 200, "no loss at all under Rayleigh fading?");
}

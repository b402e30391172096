//! Property-based tests of the simulator substrate.

use mesh_sim::prelude::*;
use proptest::prelude::*;

/// Protocol that arms a batch of timers at start and records fire order.
#[derive(Debug, Default)]
struct TimerRecorder {
    delays_ms: Vec<u64>,
    fired: Vec<u64>, // kinds, in fire order
}

impl Protocol for TimerRecorder {
    type Msg = ();
    fn start(&mut self, ctx: &mut Ctx<'_, ()>) {
        for (i, &d) in self.delays_ms.iter().enumerate() {
            ctx.set_timer(SimDuration::from_millis(d), i as u64);
        }
    }
    fn handle_message(&mut self, _: &mut Ctx<'_, ()>, _: NodeId, _: &(), _: RxMeta) {}
    fn handle_timer(&mut self, _: &mut Ctx<'_, ()>, _: TimerId, kind: u64) {
        self.fired.push(kind);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Timers fire in non-decreasing time order, ties in insertion order.
    #[test]
    fn timers_fire_in_schedule_order(delays in prop::collection::vec(0u64..5_000, 1..40)) {
        let mut sim = Simulator::new(
            vec![Pos::new(0.0, 0.0)],
            Box::new(PhysicalMedium::default()),
            WorldConfig::default(),
            vec![TimerRecorder { delays_ms: delays.clone(), fired: Vec::new() }],
        );
        sim.run_until(SimTime::from_secs(10));
        let fired = &sim.protocols()[0].fired;
        prop_assert_eq!(fired.len(), delays.len());
        // Expected: indices sorted by (delay, index).
        let mut expect: Vec<usize> = (0..delays.len()).collect();
        expect.sort_by_key(|&i| (delays[i], i));
        let got: Vec<usize> = fired.iter().map(|&k| k as usize).collect();
        prop_assert_eq!(got, expect);
    }

    /// Two-ray mean received power is monotone non-increasing with
    /// distance.
    #[test]
    fn power_monotone_in_distance(mut ds in prop::collection::vec(1.0f64..5_000.0, 2..20)) {
        ds.sort_by(f64::total_cmp);
        let phy = PhyParams::default();
        let mut last = f64::INFINITY;
        for &d in &ds {
            let p = phy.mean_rx_power_w(d);
            prop_assert!(p <= last * (1.0 + 1e-12), "at {d}");
            last = p;
        }
    }

    /// Fading never produces negative or NaN powers.
    #[test]
    fn sampled_power_is_sane(d in 1.0f64..2_000.0, seed in 0u64..1_000) {
        let phy = PhyParams::default();
        let mut rng = SimRng::seed_from(seed);
        for _ in 0..32 {
            let p = phy.sample_rx_power_w(d, &mut rng);
            prop_assert!(p.is_finite() && p >= 0.0);
        }
    }

    /// Data airtime is strictly monotone in payload size and always exceeds
    /// the PLCP overhead.
    #[test]
    fn airtime_monotone(a in 0u32..3_000, b in 0u32..3_000) {
        let p = MacParams::default();
        let (lo, hi) = (a.min(b), a.max(b));
        prop_assert!(p.data_airtime(lo) <= p.data_airtime(hi));
        prop_assert!(p.data_airtime(lo) > p.plcp_overhead);
    }

    /// Contention windows never exceed the maximum and never shrink.
    #[test]
    fn cw_growth_bounded(steps in 0u32..20) {
        let p = MacParams::default();
        let mut cw = p.cw_min;
        for _ in 0..steps {
            let next = p.next_cw(cw);
            prop_assert!(next >= cw);
            prop_assert!(next <= p.cw_max);
            cw = next;
        }
    }

    /// `random_connected` placements are connected and inside the area.
    #[test]
    fn random_connected_holds_invariants(seed in 0u64..200) {
        let mut rng = SimRng::seed_from(seed);
        let area = Area::square(600.0);
        let ps = mesh_sim::topology::random_connected(20, area, 250.0, &mut rng, 10_000);
        prop_assert!(mesh_sim::topology::is_connected(&ps, 250.0));
        prop_assert!(ps.iter().all(|&p| area.contains(p)));
    }

    /// Hop distances satisfy the neighbor property: adjacent nodes differ by
    /// at most one hop.
    #[test]
    fn hop_distance_lipschitz(seed in 0u64..200) {
        let mut rng = SimRng::seed_from(seed);
        let ps = mesh_sim::topology::random_connected(
            15, Area::square(500.0), 250.0, &mut rng, 10_000);
        let d = mesh_sim::topology::hop_distances(&ps, 250.0, 0);
        let adj = mesh_sim::topology::disk_graph(&ps, 250.0);
        for (i, ns) in adj.iter().enumerate() {
            for &j in ns {
                prop_assert!(d[i].abs_diff(d[j]) <= 1);
            }
        }
    }

    /// Duration arithmetic: saturating add/sub round-trips within range.
    #[test]
    fn duration_arithmetic(a in 0u64..u64::MAX / 4, b in 0u64..u64::MAX / 4) {
        let da = SimDuration::from_nanos(a);
        let db = SimDuration::from_nanos(b);
        prop_assert_eq!((da + db).as_nanos(), a + b);
        prop_assert_eq!((da + db) - db, da);
        let t = SimTime::from_nanos(a) + db;
        prop_assert_eq!(t.saturating_since(SimTime::from_nanos(a)), db);
    }
}

//! Per-link estimation state.
//!
//! A [`LinkEstimate`] is the receiver-side record for one neighbor: which
//! probes arrived (forward delivery ratio), the packet-pair delay EWMA with
//! PP's 20 % loss penalty, and the bandwidth estimate for ETT. A snapshot of
//! the quantities the metrics consume is exposed as [`LinkObservation`].

use mesh_sim::time::{SimDuration, SimTime};

use crate::staleness::{Freshness, StalenessConfig};
use crate::window::SeqWindow;

/// Tuning knobs for link estimation (defaults follow §2.2 of the paper).
#[derive(Debug, Clone, PartialEq)]
pub struct EstimatorConfig {
    /// Sequence window size for delivery-ratio estimation.
    pub window_k: u32,
    /// Weight of the accumulated average in the delay EWMA (paper: 0.9).
    pub ewma_old_weight: f64,
    /// Multiplicative penalty per lost pair packet (paper: 1.2 = "20 %").
    pub pp_penalty: f64,
    /// Delay assumed before the first complete pair, in seconds.
    pub pp_default_delay_s: f64,
    /// Cap on lazily-applied penalties for a currently-silent link.
    pub max_open_gap_penalties: u32,
    /// Forward ratio assumed for links never probed.
    pub default_df: f64,
    /// Bandwidth assumed before the first pair completes (channel rate).
    pub default_bandwidth_bps: f64,
    /// Thresholds of the fresh → suspect → quarantined state machine.
    pub staleness: StalenessConfig,
}

impl Default for EstimatorConfig {
    fn default() -> Self {
        EstimatorConfig {
            window_k: 10,
            ewma_old_weight: 0.9,
            pp_penalty: 1.2,
            pp_default_delay_s: 0.005,
            max_open_gap_penalties: 100,
            default_df: 0.1,
            default_bandwidth_bps: 2.0e6,
            staleness: StalenessConfig::default(),
        }
    }
}

/// Snapshot of one link's measured quality, consumed by the metrics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkObservation {
    /// Forward delivery ratio `df` in `(0, 1]`.
    pub df: f64,
    /// Packet-pair delay in seconds (PP), if ever measured.
    pub delay_s: Option<f64>,
    /// Link bandwidth estimate in bits/s (ETT), if ever measured.
    pub bandwidth_bps: Option<f64>,
    /// Our delivery ratio as measured *by the neighbor* (reverse direction);
    /// only used by the bidirectional-ETX ablation.
    pub reverse_df: Option<f64>,
    /// Congestion of the prospective *forwarder* in `[0, 1]` (MAC-queue
    /// occupancy / unicast retry pressure), filled in by the protocol layer
    /// at query-handling time; only used by load-aware metrics (WCETT-LB).
    /// `None` means no reading, which every metric treats as calm — link
    /// estimation itself never produces a value here.
    pub congestion: Option<f64>,
}

impl LinkObservation {
    /// The observation assumed for a link with no probe history.
    pub fn unknown(cfg: &EstimatorConfig) -> Self {
        LinkObservation {
            df: cfg.default_df,
            delay_s: None,
            bandwidth_bps: None,
            reverse_df: None,
            congestion: None,
        }
    }
}

/// Receiver-side estimation state for the link *from* one neighbor.
#[derive(Debug, Clone)]
pub struct LinkEstimate {
    single: SeqWindow,
    pair: SeqWindow,
    single_interval: Option<SimDuration>,
    pair_interval: Option<SimDuration>,
    last_single: Option<SimTime>,
    last_pair_event: Option<SimTime>,
    /// Small packet of a pair received, large not yet seen: `(seq, arrival)`.
    pending_pair: Option<(u64, SimTime)>,
    /// Highest pair sequence number for which loss accounting is complete.
    pair_accounted: Option<u64>,
    ewma_delay_s: Option<f64>,
    ewma_bandwidth_bps: Option<f64>,
    reverse_df: Option<f64>,
}

mesh_sim::snap_struct!(LinkEstimate {
    single,
    pair,
    single_interval,
    pair_interval,
    last_single,
    last_pair_event,
    pending_pair,
    pair_accounted,
    ewma_delay_s,
    ewma_bandwidth_bps,
    reverse_df,
});

impl LinkEstimate {
    /// Fresh estimate with the given window size.
    pub fn new(cfg: &EstimatorConfig) -> Self {
        LinkEstimate {
            single: SeqWindow::new(cfg.window_k),
            pair: SeqWindow::new(cfg.window_k),
            single_interval: None,
            pair_interval: None,
            last_single: None,
            last_pair_event: None,
            pending_pair: None,
            pair_accounted: None,
            ewma_delay_s: None,
            ewma_bandwidth_bps: None,
            reverse_df: None,
        }
    }

    /// A single probe with sequence `seq` arrived at `now`.
    pub fn on_single(&mut self, seq: u64, interval: SimDuration, now: SimTime) {
        self.single.record(seq);
        self.single_interval = Some(interval);
        self.last_single = Some(now);
    }

    /// The neighbor reported measuring our transmissions at ratio `df`.
    pub fn on_reverse_report(&mut self, df: f64) {
        self.reverse_df = Some(df.clamp(0.0, 1.0));
    }

    /// The small packet of pair `seq` arrived at `now`.
    pub fn on_pair_small(
        &mut self,
        seq: u64,
        interval: SimDuration,
        now: SimTime,
        cfg: &EstimatorConfig,
    ) {
        // A still-pending previous small means its large packet was lost.
        if self.pending_pair.take().is_some() {
            self.apply_penalty(1, cfg);
        }
        self.account_gap(seq, cfg);
        self.pair.record(seq);
        self.pair_interval = Some(interval);
        self.last_pair_event = Some(now);
        self.pending_pair = Some((seq, now));
    }

    /// The large packet of pair `seq` (of `bytes` bytes) arrived at `now`.
    pub fn on_pair_large(&mut self, seq: u64, bytes: u32, now: SimTime, cfg: &EstimatorConfig) {
        self.last_pair_event = Some(now);
        match self.pending_pair.take() {
            Some((pending_seq, small_at)) if pending_seq == seq => {
                let delay = now.saturating_since(small_at).as_secs_f64();
                if delay > 0.0 {
                    self.update_ewma_delay(delay, cfg);
                    let bw = bytes as f64 * 8.0 / delay;
                    self.ewma_bandwidth_bps = Some(match self.ewma_bandwidth_bps {
                        None => bw,
                        Some(old) => cfg.ewma_old_weight * old + (1.0 - cfg.ewma_old_weight) * bw,
                    });
                }
            }
            Some(_) | None => {
                // Small packet of this pair was lost: penalty, and the pair
                // still proves the sender reached `seq`.
                self.apply_penalty(1, cfg);
                self.account_gap(seq, cfg);
            }
        }
    }

    /// Apply pair-loss penalties for pairs `pair_accounted+1 .. seq` that
    /// were never heard at all. The paper penalizes 20 % per lost *packet*
    /// ("in case either the large or the small packet is lost"); a wholly
    /// missed pair loses both packets, hence two penalties per pair.
    fn account_gap(&mut self, seq: u64, cfg: &EstimatorConfig) {
        let missed = match self.pair_accounted {
            None => 0,
            Some(acc) if seq > acc + 1 => (seq - acc - 1).min(u64::from(u32::MAX) / 2) as u32,
            Some(_) => 0,
        };
        if missed > 0 {
            self.apply_penalty(2 * missed, cfg);
        }
        self.pair_accounted = Some(self.pair_accounted.map_or(seq, |a| a.max(seq)));
    }

    fn apply_penalty(&mut self, n: u32, cfg: &EstimatorConfig) {
        let factor = cfg
            .pp_penalty
            .powi(n.min(cfg.max_open_gap_penalties) as i32);
        let base = self.ewma_delay_s.unwrap_or(cfg.pp_default_delay_s);
        self.ewma_delay_s = Some((base * factor).min(1e12));
    }

    fn update_ewma_delay(&mut self, sample_s: f64, cfg: &EstimatorConfig) {
        self.ewma_delay_s = Some(match self.ewma_delay_s {
            None => sample_s,
            Some(old) => cfg.ewma_old_weight * old + (1.0 - cfg.ewma_old_weight) * sample_s,
        });
    }

    /// Probes we know were sent but not heard, inferred from elapsed time.
    fn open_gap(last: Option<SimTime>, interval: Option<SimDuration>, now: SimTime) -> u32 {
        match (last, interval) {
            (Some(t), Some(iv)) if iv > SimDuration::ZERO => {
                let elapsed = now.saturating_since(t).as_nanos();
                (elapsed / iv.as_nanos().max(1))
                    .saturating_sub(1)
                    .min(u64::from(u32::MAX)) as u32
            }
            _ => 0,
        }
    }

    /// Forward delivery ratio at `now`, floored at a small positive value so
    /// cost formulas never divide by zero.
    pub fn forward_ratio(&self, now: SimTime, cfg: &EstimatorConfig) -> f64 {
        let single = self.single.ratio_with_missed(Self::open_gap(
            self.last_single,
            self.single_interval,
            now,
        ));
        let pair = self.pair.ratio_with_missed(Self::open_gap(
            self.last_pair_event,
            self.pair_interval,
            now,
        ));
        let df = match (single, pair) {
            (Some(s), _) => s,
            (None, Some(p)) => p,
            (None, None) => cfg.default_df,
        };
        df.max(1e-3)
    }

    /// Effective PP delay at `now` in seconds: the stored EWMA with penalties
    /// for the currently-open silence gap applied lazily (so a dead link's
    /// cost keeps growing even though no events arrive). Two penalties per
    /// silent pair interval — both packets of those pairs were lost.
    pub fn pp_delay_s(&self, now: SimTime, cfg: &EstimatorConfig) -> f64 {
        let base = self.ewma_delay_s.unwrap_or(cfg.pp_default_delay_s);
        let gap = Self::open_gap(self.last_pair_event, self.pair_interval, now)
            .saturating_mul(2)
            .min(cfg.max_open_gap_penalties);
        (base * cfg.pp_penalty.powi(gap as i32)).min(1e12)
    }

    /// Snapshot for metric evaluation.
    pub fn observe(&self, now: SimTime, cfg: &EstimatorConfig) -> LinkObservation {
        LinkObservation {
            df: self.forward_ratio(now, cfg),
            delay_s: Some(self.pp_delay_s(now, cfg)),
            bandwidth_bps: self.ewma_bandwidth_bps,
            reverse_df: self.reverse_df,
            congestion: None,
        }
    }

    /// Last time anything was heard from this neighbor.
    pub fn last_heard(&self) -> Option<SimTime> {
        match (self.last_single, self.last_pair_event) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        }
    }

    /// Probes inferred missing at `now`: the larger open gap across the
    /// single-probe and pair-probe streams (whichever stream the deployed
    /// metric uses, its silence counts).
    pub fn missed_probes(&self, now: SimTime) -> u32 {
        let single = Self::open_gap(self.last_single, self.single_interval, now);
        let pair = Self::open_gap(self.last_pair_event, self.pair_interval, now);
        single.max(pair)
    }

    /// Freshness class of this estimate at `now` per `cfg.staleness`.
    pub fn freshness(&self, now: SimTime, cfg: &EstimatorConfig) -> Freshness {
        let silence = self.last_heard().map(|t| now.saturating_since(t));
        cfg.staleness.classify(self.missed_probes(now), silence)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> EstimatorConfig {
        EstimatorConfig::default()
    }

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    const IV: SimDuration = SimDuration::from_secs(5);

    #[test]
    fn perfect_single_probes_give_df_one() {
        let c = cfg();
        let mut e = LinkEstimate::new(&c);
        for i in 0..20u64 {
            e.on_single(i, IV, t(i * 5));
        }
        let df = e.forward_ratio(t(96), &c);
        assert!((df - 1.0).abs() < 1e-9);
    }

    #[test]
    fn half_loss_gives_half_df() {
        let c = cfg();
        let mut e = LinkEstimate::new(&c);
        for i in (0..40u64).step_by(2) {
            e.on_single(i, IV, t(i * 5));
        }
        let df = e.forward_ratio(t(191), &c);
        assert!((df - 0.5).abs() < 0.01, "df={df}");
    }

    #[test]
    fn silent_link_ratio_decays_over_time() {
        let c = cfg();
        let mut e = LinkEstimate::new(&c);
        for i in 0..10u64 {
            e.on_single(i, IV, t(i * 5));
        }
        let fresh = e.forward_ratio(t(46), &c);
        let stale = e.forward_ratio(t(146), &c); // ~20 intervals of silence
        assert!(stale < fresh);
        assert!(stale >= 1e-3);
    }

    #[test]
    fn unprobed_link_uses_default() {
        let c = cfg();
        let e = LinkEstimate::new(&c);
        assert_eq!(e.forward_ratio(t(100), &c), c.default_df);
        assert!(e.last_heard().is_none());
    }

    #[test]
    fn complete_pair_measures_delay_and_bandwidth() {
        let c = cfg();
        let mut e = LinkEstimate::new(&c);
        let iv = SimDuration::from_secs(10);
        let small_at = t(10);
        let large_at = small_at + SimDuration::from_millis(5);
        e.on_pair_small(0, iv, small_at, &c);
        e.on_pair_large(0, 1137, large_at, &c);
        let obs = e.observe(large_at, &c);
        assert!((obs.delay_s.unwrap() - 0.005).abs() < 1e-9);
        // 1137 bytes in 5 ms ≈ 1.82 Mbps.
        let bw = obs.bandwidth_bps.unwrap();
        assert!((bw - 1137.0 * 8.0 / 0.005).abs() / bw < 1e-9);
    }

    #[test]
    fn ewma_weights_history_90_10() {
        let c = cfg();
        let mut e = LinkEstimate::new(&c);
        let iv = SimDuration::from_secs(10);
        e.on_pair_small(0, iv, t(0), &c);
        e.on_pair_large(0, 1137, t(0) + SimDuration::from_millis(10), &c);
        e.on_pair_small(1, iv, t(10), &c);
        e.on_pair_large(1, 1137, t(10) + SimDuration::from_millis(20), &c);
        // EWMA = 0.9 * 10ms + 0.1 * 20ms = 11ms.
        let d = e.pp_delay_s(t(10) + SimDuration::from_millis(20), &c);
        assert!((d - 0.011).abs() < 1e-9, "d={d}");
    }

    #[test]
    fn lost_large_packet_incurs_20pct_penalty() {
        let c = cfg();
        let mut e = LinkEstimate::new(&c);
        let iv = SimDuration::from_secs(10);
        e.on_pair_small(0, iv, t(0), &c);
        e.on_pair_large(0, 1137, t(0) + SimDuration::from_millis(10), &c);
        // Pair 1: small arrives, large lost; detected at pair 2's small.
        e.on_pair_small(1, iv, t(10), &c);
        e.on_pair_small(2, iv, t(20), &c);
        e.on_pair_large(2, 1137, t(20) + SimDuration::from_millis(10), &c);
        // After penalty: 10ms * 1.2 = 12ms, then EWMA with the 10ms sample:
        // 0.9*12 + 0.1*10 = 11.8ms.
        let d = e.pp_delay_s(t(20) + SimDuration::from_millis(10), &c);
        assert!((d - 0.0118).abs() < 1e-6, "d={d}");
    }

    #[test]
    fn wholly_missed_pairs_penalize_per_pair() {
        let c = cfg();
        let mut e = LinkEstimate::new(&c);
        let iv = SimDuration::from_secs(10);
        e.on_pair_small(0, iv, t(0), &c);
        e.on_pair_large(0, 1137, t(0) + SimDuration::from_millis(10), &c);
        // Pairs 1,2,3 vanish entirely; pair 4 arrives.
        e.on_pair_small(4, iv, t(40), &c);
        // Three missed pairs = six lost packets: 10ms * 1.2^6 ≈ 29.86ms.
        let d = e.pp_delay_s(t(40), &c);
        assert!((d - 0.01 * 1.2f64.powi(6)).abs() < 1e-6, "d={d}");
    }

    #[test]
    fn lost_small_but_received_large_penalizes() {
        let c = cfg();
        let mut e = LinkEstimate::new(&c);
        let iv = SimDuration::from_secs(10);
        e.on_pair_small(0, iv, t(0), &c);
        e.on_pair_large(0, 1137, t(0) + SimDuration::from_millis(10), &c);
        e.on_pair_large(1, 1137, t(10), &c); // small of pair 1 lost
        let d = e.pp_delay_s(t(10), &c);
        assert!((d - 0.012).abs() < 1e-9, "d={d}");
    }

    #[test]
    fn dead_link_cost_grows_exponentially_with_time() {
        // The property the paper's testbed result hinges on.
        let c = cfg();
        let mut e = LinkEstimate::new(&c);
        let iv = SimDuration::from_secs(10);
        e.on_pair_small(0, iv, t(0), &c);
        e.on_pair_large(0, 1137, t(0) + SimDuration::from_millis(10), &c);
        let d1 = e.pp_delay_s(t(30), &c);
        let d2 = e.pp_delay_s(t(130), &c);
        let d3 = e.pp_delay_s(t(330), &c);
        assert!(d2 > d1 * 4.0, "d1={d1} d2={d2}");
        assert!(d3 > d2 * 10.0, "d2={d2} d3={d3}");
    }

    #[test]
    fn penalty_capped_for_very_long_silence() {
        let c = cfg();
        let mut e = LinkEstimate::new(&c);
        let iv = SimDuration::from_secs(10);
        e.on_pair_small(0, iv, t(0), &c);
        let far = e.pp_delay_s(SimTime::from_secs(1_000_000), &c);
        assert!(far.is_finite());
    }

    #[test]
    fn reverse_report_is_stored_and_clamped() {
        let c = cfg();
        let mut e = LinkEstimate::new(&c);
        e.on_reverse_report(1.7);
        assert_eq!(e.observe(t(0), &c).reverse_df, Some(1.0));
        e.on_reverse_report(0.4);
        assert_eq!(e.observe(t(0), &c).reverse_df, Some(0.4));
    }

    #[test]
    fn pair_window_feeds_df_when_no_singles() {
        let c = cfg();
        let mut e = LinkEstimate::new(&c);
        let iv = SimDuration::from_secs(10);
        for i in 0..10u64 {
            e.on_pair_small(i, iv, t(i * 10), &c);
        }
        let df = e.forward_ratio(t(91), &c);
        assert!((df - 1.0).abs() < 1e-9, "df={df}");
    }

    #[test]
    fn freshness_progresses_with_silence() {
        let c = cfg();
        let iv1 = SimDuration::from_secs(1);
        let mut e = LinkEstimate::new(&c);
        for i in 0..10u64 {
            e.on_single(i, iv1, t(i));
        }
        // Last probe at t=9s, interval 1s.
        assert_eq!(e.freshness(t(10), &c), Freshness::Fresh);
        // 3 intervals elapsed = 2 missed -> suspect; silence 3s < 9s.
        assert_eq!(e.freshness(t(12), &c), Freshness::Suspect);
        // 7 intervals elapsed = 6 missed -> quarantined by missed count.
        assert_eq!(e.freshness(t(16), &c), Freshness::Quarantined);
        assert_eq!(e.freshness(t(500), &c), Freshness::Quarantined);
    }

    #[test]
    fn silence_horizon_quarantines_slow_probe_schedules() {
        // With 5s probes, missed-count thresholds take 15s+ to trip; the
        // absolute fg_timeout-scale horizon quarantines at 9s regardless.
        let c = cfg();
        let mut e = LinkEstimate::new(&c);
        for i in 0..10u64 {
            e.on_single(i, IV, t(i * 5));
        }
        assert_eq!(e.freshness(t(53), &c), Freshness::Fresh);
        assert_eq!(e.freshness(t(54), &c), Freshness::Quarantined);
    }

    #[test]
    fn missed_probes_tracks_the_noisier_stream() {
        let c = cfg();
        let mut e = LinkEstimate::new(&c);
        e.on_single(0, IV, t(0));
        e.on_pair_small(0, SimDuration::from_secs(10), t(0), &c);
        // At t=21s: singles 4 intervals elapsed (missed 3), pairs 2 elapsed
        // (missed 1).
        assert_eq!(e.missed_probes(t(21)), 3);
    }

    #[test]
    fn df_floor_prevents_division_blowups() {
        let c = cfg();
        let mut e = LinkEstimate::new(&c);
        e.on_single(0, IV, t(0));
        let df = e.forward_ratio(SimTime::from_secs(100_000), &c);
        assert!(df >= 1e-3);
    }
}

//! Time-to-recover analysis: how fast a protocol's delivery ratio climbs
//! back after a fault window clears.
//!
//! The analysis is pure arithmetic over the per-bucket metrics timeseries a
//! run records (see [`crate::runner::Observe::metrics`]): bucket width is
//! set to the protocol's refresh interval, so "recovered within N buckets"
//! reads directly as "recovered within N refresh rounds". A run counts as
//! recovered at the first post-fault bucket whose PDR is within the spec's
//! tolerance of the pre-fault PDR.

use mesh_sim::fault::FaultPlan;
use mesh_sim::metrics::TimeSeries;
use mesh_sim::time::{SimDuration, SimTime};

use crate::scenario::MeshScenario;

/// What "recovered" means for one run.
#[derive(Debug, Clone, Copy)]
pub struct RecoverySpec {
    /// CBR traffic start — buckets before it carry no deliveries.
    pub data_start: SimTime,
    /// CBR traffic stop — buckets after it carry no deliveries.
    pub data_stop: SimTime,
    /// First fault event; pre-fault PDR is measured strictly before this.
    pub fault_start: SimTime,
    /// Last fault event; recovery is scanned strictly after this.
    pub fault_end: SimTime,
    /// Delivery opportunities per second of data time
    /// (`Σ_groups sources × members × packet rate`).
    pub expected_per_s: f64,
    /// Fraction of the pre-fault PDR that counts as recovered (paper
    /// criterion: 0.95 — "within 5%").
    pub threshold: f64,
}

impl RecoverySpec {
    /// Build the spec for `scenario` under `plan`, with the paper's
    /// within-5% criterion.
    ///
    /// # Panics
    ///
    /// Panics if `plan` is empty — recovery from nothing is vacuous.
    pub fn for_scenario(scenario: &MeshScenario, plan: &FaultPlan) -> Self {
        let times: Vec<SimTime> = plan.events().iter().map(|&(t, _)| t).collect();
        let fault_start = times.iter().copied().min().expect("non-empty fault plan");
        let fault_end = times.iter().copied().max().expect("non-empty fault plan");
        // 20 pkt/s per source (50 ms CBR interval), each fanned out to every
        // member of its group.
        let expected_per_s =
            (scenario.groups * scenario.sources_per_group * scenario.members_per_group) as f64
                * 20.0;
        RecoverySpec {
            data_start: scenario.data_start,
            data_stop: scenario.data_stop,
            fault_start,
            fault_end,
            expected_per_s,
            threshold: 0.95,
        }
    }
}

/// The verdict of [`analyze`] for one run.
#[derive(Debug, Clone, Copy)]
pub struct RecoveryAnalysis {
    /// PDR over the complete buckets between traffic start and the first
    /// fault (deliveries summed, then divided — not a mean of ratios).
    pub pre_fault_pdr: f64,
    /// PDR over the fault window itself — the depth of the degradation.
    pub during_fault_pdr: f64,
    /// Refresh rounds (buckets) after the last fault event until the first
    /// recovered bucket, counting that bucket. `None` = never recovered.
    pub rounds_to_recover: Option<u32>,
    /// Simulated time from the last fault event to the end of the first
    /// recovered bucket.
    pub time_to_recover: Option<SimDuration>,
}

impl RecoveryAnalysis {
    /// Whether the run recovered at all within its data window.
    pub fn recovered(&self) -> bool {
        self.rounds_to_recover.is_some()
    }
}

/// Windowed PDR: deliveries in complete buckets inside `[from, to)` over
/// the opportunities their widths imply. 0 when no bucket qualifies.
fn window_pdr(ts: &TimeSeries, from: SimTime, to: SimTime, expected_per_s: f64) -> f64 {
    let mut delivered = 0u64;
    let mut expected = 0.0f64;
    for b in &ts.buckets {
        if b.start >= from && b.end <= to {
            delivered += b.deliveries;
            expected += expected_per_s * b.width_s();
        }
    }
    if expected > 0.0 {
        delivered as f64 / expected
    } else {
        0.0
    }
}

/// Analyze one run's timeseries against `spec`.
pub fn analyze(ts: &TimeSeries, spec: &RecoverySpec) -> RecoveryAnalysis {
    let pre_fault_pdr = window_pdr(ts, spec.data_start, spec.fault_start, spec.expected_per_s);
    let during_fault_pdr = window_pdr(ts, spec.fault_start, spec.fault_end, spec.expected_per_s);
    let bar = spec.threshold * pre_fault_pdr;
    let mut rounds = 0u32;
    let mut rounds_to_recover = None;
    let mut time_to_recover = None;
    for b in &ts.buckets {
        // Only complete post-fault buckets inside the data window count as
        // rounds; partial buckets would understate their own PDR.
        if b.start < spec.fault_end || b.end > spec.data_stop {
            continue;
        }
        rounds += 1;
        let expected = spec.expected_per_s * b.width_s();
        let pdr = if expected > 0.0 {
            b.deliveries as f64 / expected
        } else {
            0.0
        };
        if pdr >= bar {
            rounds_to_recover = Some(rounds);
            time_to_recover = Some(b.end.saturating_since(spec.fault_end));
            break;
        }
    }
    RecoveryAnalysis {
        pre_fault_pdr,
        during_fault_pdr,
        rounds_to_recover,
        time_to_recover,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mesh_sim::metrics::MetricsBucket;

    /// A timeseries of 1-second buckets carrying the given delivery counts.
    fn series(deliveries: &[u64]) -> TimeSeries {
        let width = SimDuration::from_secs(1);
        TimeSeries {
            bucket_width: width,
            buckets: deliveries
                .iter()
                .enumerate()
                .map(|(i, &d)| MetricsBucket {
                    start: SimTime::from_secs(i as u64),
                    end: SimTime::from_secs(i as u64 + 1),
                    deliveries: d,
                    ..MetricsBucket::default()
                })
                .collect(),
        }
    }

    fn spec() -> RecoverySpec {
        RecoverySpec {
            data_start: SimTime::from_secs(0),
            data_stop: SimTime::from_secs(10),
            fault_start: SimTime::from_secs(3),
            fault_end: SimTime::from_secs(6),
            expected_per_s: 10.0,
            threshold: 0.95,
        }
    }

    #[test]
    fn recovery_counts_rounds_after_fault_end() {
        // Pre-fault: 10/10. Fault: 0. Post: climbs back on the 2nd round.
        let ts = series(&[10, 10, 10, 0, 0, 0, 5, 10, 10, 10]);
        let a = analyze(&ts, &spec());
        assert!((a.pre_fault_pdr - 1.0).abs() < 1e-12);
        assert!((a.during_fault_pdr - 0.0).abs() < 1e-12);
        assert_eq!(a.rounds_to_recover, Some(2));
        assert_eq!(a.time_to_recover, Some(SimDuration::from_secs(2)));
        assert!(a.recovered());
    }

    #[test]
    fn unrecovered_run_reports_none() {
        let ts = series(&[10, 10, 10, 0, 0, 0, 2, 3, 2, 3]);
        let a = analyze(&ts, &spec());
        assert_eq!(a.rounds_to_recover, None);
        assert!(!a.recovered());
    }

    #[test]
    fn threshold_scales_with_pre_fault_pdr() {
        // Pre-fault PDR 0.5, so 5/10 per bucket already clears 0.95 × 0.5.
        let ts = series(&[5, 5, 5, 0, 0, 0, 5, 5, 5, 5]);
        let a = analyze(&ts, &spec());
        assert!((a.pre_fault_pdr - 0.5).abs() < 1e-12);
        assert_eq!(a.rounds_to_recover, Some(1));
    }

    #[test]
    fn empty_timeseries_is_unrecovered_without_nan() {
        let ts = TimeSeries {
            bucket_width: SimDuration::from_secs(1),
            buckets: Vec::new(),
        };
        let a = analyze(&ts, &spec());
        assert_eq!(a.pre_fault_pdr, 0.0);
        assert!(!a.recovered());
    }

    #[test]
    fn spec_for_scenario_brackets_the_plan() {
        let s = MeshScenario::paper_default();
        let plan = FaultPlan::new().crash_window(
            mesh_sim::ids::NodeId::new(1),
            SimTime::from_secs(40),
            SimTime::from_secs(70),
        );
        let spec = RecoverySpec::for_scenario(&s, &plan);
        assert_eq!(spec.fault_start, SimTime::from_secs(40));
        assert_eq!(spec.fault_end, SimTime::from_secs(70));
        // 2 groups × 1 source × 10 members × 20 pkt/s.
        assert!((spec.expected_per_s - 400.0).abs() < 1e-12);
        assert!((spec.threshold - 0.95).abs() < 1e-12);
    }
}

//! Running one cell ([`run`]) and variant × topology matrices of them, in
//! parallel across topologies.

use std::cell::RefCell;

use maodv::MaodvNode;
use mesh_sim::simulator::{Simulator, WatchdogBudget};
use mesh_sim::snapshot::Snap;
use mesh_sim::time::{SimDuration, SimTime};
use mesh_sim::trace::TraceSink;
use odmrp::discovery::Forwarding;
use odmrp::{MulticastNode, OdmrpNode, Variant};

use crate::measure::RunMeasurement;
use crate::scenario::GroupSpec;
use crate::scenario_compiler::{ProtocolKind, WorkloadScenario};
use crate::stats::Summary;

/// All variants of Figure 2, baseline first. This is the *paper's* set —
/// frozen so golden-shape checks keep comparing exactly what the paper
/// plotted; the runners' comparison tables use [`comparison_variants`].
pub fn paper_variants() -> Vec<Variant> {
    let mut v = vec![Variant::Original];
    v.extend(
        mcast_metrics::MetricKind::PAPER_SET
            .iter()
            .map(|&k| Variant::Metric(k)),
    );
    v
}

/// Baseline plus every metric the comparison tables list: the paper five
/// and the post-paper entrants (InvETX, WCETT-LB). A new metric whose
/// [`MetricKind::in_comparison`](mcast_metrics::MetricKind::in_comparison)
/// arm says `true` appears here — and therefore in every fig2/table1
/// runner — without touching any runner code.
pub fn comparison_variants() -> Vec<Variant> {
    let mut v = vec![Variant::Original];
    v.extend(mcast_metrics::MetricKind::comparison_kinds().map(Variant::Metric));
    v
}

/// What a run records besides its measurement. Observation only: the
/// measurement — `schedule_hash` included — is bit-identical with or
/// without it, apart from the attached `timeseries`.
#[derive(Debug, Default)]
pub struct Observe {
    /// Record a metrics timeseries with buckets this wide into
    /// [`RunMeasurement::timeseries`].
    pub metrics: Option<SimDuration>,
    /// Stream the typed event trace into this sink. [`run`] puts the sink
    /// back when the run ends; take it with [`RunSpec::take_trace`] to
    /// downcast a ring buffer or finish a JSONL file.
    pub trace: RefCell<Option<Box<dyn TraceSink>>>,
}

/// How a run is supervised.
#[derive(Debug, Clone, Default)]
pub struct Supervise<'a> {
    /// Check the world invariant oracles and the protocol's oracles (the
    /// discovery checks, plus forwarding-group soundness on ODMRP runs) at
    /// this interval; a violation panics.
    pub oracles: Option<SimDuration>,
    /// Arm the sim-time [`WATCHDOG`], which turns a livelocked run into a
    /// panic carrying [`mesh_sim::simulator::WATCHDOG_PANIC_PREFIX`].
    pub watchdog: bool,
    /// Resume from, and checkpoint into, a [`CheckpointSlot`].
    pub checkpoint: Option<Checkpoint<'a>>,
}

/// Checkpoint/restore through a [`CheckpointSlot`]: a run finding a
/// checkpoint in the slot resumes from it, and every run stops at each
/// quarter mark of its horizon (¼, ½, ¾) still ahead of its clock,
/// snapshots into the slot and hands the checkpoint to `persist`.
#[derive(Clone, Copy)]
pub struct Checkpoint<'a> {
    /// Where checkpoints land and resumes come from.
    pub slot: &'a CheckpointSlot,
    /// Called with each checkpoint's sim time and bytes as it lands.
    pub persist: &'a dyn Fn(SimTime, &[u8]),
}

impl std::fmt::Debug for Checkpoint<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Checkpoint")
            .field("slot", &self.slot)
            .finish_non_exhaustive()
    }
}

/// The livelock budget of supervised runs: a healthy run dispatches well
/// under a million events per 100 ms of simulated time; only a zero-delay
/// scheduling loop gets anywhere near this.
pub const WATCHDOG: WatchdogBudget = WatchdogBudget {
    max_events: 20_000_000,
    min_progress: SimDuration::from_millis(100),
};

/// Everything one run needs: which cell, what to record, how to supervise.
#[derive(Debug)]
pub struct RunSpec<'a> {
    /// The scenario (compiled from a deck).
    pub scenario: &'a WorkloadScenario,
    /// Protocol variant.
    pub variant: Variant,
    /// Topology / randomness seed.
    pub seed: u64,
    /// Observers to attach.
    pub observe: Observe,
    /// Oracles, watchdog and checkpointing.
    pub supervise: Supervise<'a>,
}

impl<'a> RunSpec<'a> {
    /// A plain run of `(scenario, variant, seed)`: no observers, no
    /// supervision.
    pub fn new(scenario: &'a WorkloadScenario, variant: Variant, seed: u64) -> Self {
        RunSpec {
            scenario,
            variant,
            seed,
            observe: Observe::default(),
            supervise: Supervise::default(),
        }
    }

    /// Full supervision, the shape sweep jobs run under: the invariant
    /// oracles every refresh interval and the [`WATCHDOG`].
    pub fn supervised(mut self) -> Self {
        let refresh = self
            .scenario
            .mesh
            .odmrp_config(self.variant)
            .refresh_interval;
        self.supervise.oracles = Some(refresh);
        self.supervise.watchdog = true;
        self
    }

    /// Record a metrics timeseries with buckets `width` wide.
    pub fn metrics(mut self, width: SimDuration) -> Self {
        self.observe.metrics = Some(width);
        self
    }

    /// Stream the event trace into `sink`.
    pub fn trace(self, sink: Box<dyn TraceSink>) -> Self {
        *self.observe.trace.borrow_mut() = Some(sink);
        self
    }

    /// Take the trace sink back after [`run`].
    pub fn take_trace(&self) -> Option<Box<dyn TraceSink>> {
        self.observe.trace.borrow_mut().take()
    }
}

/// Run one `(scenario, variant, seed)` cell to completion and measure it —
/// the one way a simulation runs. The scenario's protocol picks the node
/// type; the simulator stays monomorphic in each arm.
pub fn run(spec: &RunSpec) -> RunMeasurement {
    let w = spec.scenario;
    let cfg = w.mesh.odmrp_config(spec.variant);
    match w.protocol {
        ProtocolKind::Odmrp => drive(spec, || {
            w.assemble(spec.seed, w.medium(spec.seed), |r| {
                OdmrpNode::new(cfg.clone(), r)
            })
        }),
        ProtocolKind::Maodv => drive(spec, || {
            w.assemble(spec.seed, w.medium(spec.seed), |r| {
                MaodvNode::new(cfg.clone(), r)
            })
        }),
    }
}

/// The body of [`run`] for one protocol: attach what `spec` asks for,
/// resume from a checkpoint if one is waiting, run (stopping at the
/// quarter marks to checkpoint), measure.
fn drive<F: Forwarding>(
    spec: &RunSpec,
    build: impl Fn() -> (Simulator<MulticastNode<F>>, Vec<GroupSpec>),
) -> RunMeasurement
where
    F::Msg: Snap,
{
    let w = spec.scenario;
    let setup = || {
        let (mut sim, groups) = build();
        if let Some(width) = spec.observe.metrics {
            sim.world_mut().set_metrics(width);
        }
        if let Some(every) = spec.supervise.oracles {
            sim.set_invariant_interval(every);
            sim.add_oracle(odmrp::invariants::oracle());
        }
        if spec.supervise.watchdog {
            sim.set_watchdog(WATCHDOG);
        }
        (sim, groups)
    };
    let (mut sim, groups) = setup();
    let ckpt = spec
        .supervise
        .checkpoint
        .map(|c| (c, w.fingerprint(spec.variant, spec.seed)));
    if let Some((c, fp)) = ckpt {
        if let Some((_, bytes)) = c.slot.get() {
            if sim.restore(&bytes, fp).is_err() {
                // Stale or foreign checkpoint: discard it and rebuild (the
                // restore may have half-overwritten the simulator).
                c.slot.clear();
                sim = setup().0;
            }
        }
    }
    if let Some(sink) = spec.take_trace() {
        sim.world_mut().set_trace(sink);
    }
    let end = w.run_until();
    if let Some((c, fp)) = ckpt {
        // Stopping at a mark and snapshotting are both read-only: the run
        // is bit-identical to one without checkpoints.
        for k in 1..4 {
            let mark = SimTime::from_nanos(end.as_nanos() / 4 * k);
            if mark <= sim.now() {
                continue;
            }
            sim.run_until(mark);
            let bytes = sim.snapshot(fp);
            (c.persist)(mark, &bytes);
            c.slot.store(mark, bytes);
        }
    }
    sim.run_until(end);
    let mut m = RunMeasurement::from_sim(&sim, &groups, spec.seed);
    m.timeseries = sim.world_mut().take_metrics();
    *spec.observe.trace.borrow_mut() = sim.world_mut().take_trace();
    m
}

/// A mailbox holding the **last good checkpoint** of one job: the newest
/// `(time, bytes)`, or `None` before the first one lands.
///
/// The supervised pool hands one slot to every job attempt; a run given it
/// through [`Checkpoint`] snapshots into it at each quarter mark. Because
/// the slot lives *outside* the `catch_unwind` boundary, a panicking
/// attempt's most recent checkpoint survives the unwind, and the retry can
/// resume from it instead of from `t = 0`.
#[derive(Debug, Default)]
pub struct CheckpointSlot {
    inner: RefCell<Option<(SimTime, Vec<u8>)>>,
}

impl CheckpointSlot {
    /// An empty slot (no checkpoint yet).
    pub fn new() -> Self {
        Self::default()
    }

    /// Replace the stored checkpoint with a newer one.
    pub fn store(&self, at: SimTime, bytes: Vec<u8>) {
        *self.inner.borrow_mut() = Some((at, bytes));
    }

    /// Sim time of the stored checkpoint, if any.
    pub fn time(&self) -> Option<SimTime> {
        self.inner.borrow().as_ref().map(|(t, _)| *t)
    }

    /// Clone the stored checkpoint bytes, if any.
    pub fn get(&self) -> Option<(SimTime, Vec<u8>)> {
        self.inner.borrow().clone()
    }

    /// Drop the stored checkpoint (e.g. after it failed to deserialize).
    pub fn clear(&self) {
        *self.inner.borrow_mut() = None;
    }
}

/// Why one `(variant, seed)` job of the supervised pool failed.
#[derive(Debug, Clone)]
pub struct RunFailure {
    /// The variant the failing job ran.
    pub variant: Variant,
    /// The seed the failing job ran.
    pub seed: u64,
    /// Attempts made (1 = no retry succeeded or none configured).
    pub attempts: u32,
    /// Where each attempt started: `None` = from scratch (`t = 0`),
    /// `Some(t)` = resumed from the checkpoint taken at sim time `t`. One
    /// entry per attempt, so salvage reports can distinguish "retried from
    /// scratch N times" from "resumed and failed again" — a watchdog
    /// livelock *after* a resume points at the checkpoint, not the run.
    pub resume_points: Vec<Option<SimTime>>,
    /// Whether the last failure was the sim-time watchdog declaring a
    /// livelock (classified by [`mesh_sim::simulator::WATCHDOG_PANIC_PREFIX`]).
    pub livelock: bool,
    /// Panic payload of the last attempt.
    pub reason: String,
}

impl RunFailure {
    /// Whether the last attempt started from a checkpoint rather than from
    /// scratch.
    pub fn last_attempt_resumed(&self) -> bool {
        self.resume_points.last().is_some_and(|p| p.is_some())
    }

    /// ` [livelock]` when the watchdog ended the last attempt, ` [livelock
    /// after resume]` when that attempt had resumed from a checkpoint (the
    /// livelock then points at the checkpoint, not the run), else empty.
    pub fn livelock_tag(&self) -> &'static str {
        match (self.livelock, self.last_attempt_resumed()) {
            (true, true) => " [livelock after resume]",
            (true, false) => " [livelock]",
            (false, _) => "",
        }
    }

    /// Where each attempt started, as `scratch, ckpt@t, ...`; `None` when
    /// every attempt started from scratch.
    pub fn resume_trail(&self) -> Option<String> {
        if self.resume_points.iter().all(|p| p.is_none()) {
            return None;
        }
        let pts: Vec<String> = self
            .resume_points
            .iter()
            .map(|p| match p {
                None => "scratch".to_string(),
                Some(t) => format!("ckpt@{t}"),
            })
            .collect();
        Some(pts.join(", "))
    }
}

impl std::fmt::Display for RunFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let tag = self.livelock_tag();
        write!(
            f,
            "{} seed {} failed after {} attempt(s){}: {}",
            self.variant, self.seed, self.attempts, tag, self.reason
        )?;
        if let Some(trail) = self.resume_trail() {
            write!(f, " (attempts: {trail})")?;
        }
        Ok(())
    }
}

/// Outcome of [`run_jobs_supervised_resumable`]: one slot per
/// `(variant, seed)` job in deterministic input order, each either a
/// measurement or a structured failure — a partial matrix survives
/// individual bad runs.
#[derive(Debug)]
pub struct MatrixReport {
    /// Per-job outcomes, in job order.
    pub runs: Vec<Result<RunMeasurement, RunFailure>>,
}

impl MatrixReport {
    /// The successful measurements, input-ordered.
    pub fn successes(&self) -> Vec<&RunMeasurement> {
        self.runs.iter().filter_map(|r| r.as_ref().ok()).collect()
    }

    /// The failures, input-ordered.
    pub fn failures(&self) -> Vec<&RunFailure> {
        self.runs.iter().filter_map(|r| r.as_ref().err()).collect()
    }

    /// Whether every job produced a measurement.
    pub fn is_complete(&self) -> bool {
        self.runs.iter().all(|r| r.is_ok())
    }

    /// Unwrap into plain measurements.
    ///
    /// # Panics
    ///
    /// Panics with an aggregated failure summary if any job failed.
    pub fn into_measurements(self) -> Vec<RunMeasurement> {
        let failures: Vec<String> = self
            .runs
            .iter()
            .filter_map(|r| r.as_ref().err().map(|f| f.to_string()))
            .collect();
        assert!(
            failures.is_empty(),
            "{} of {} matrix runs failed:\n  {}",
            failures.len(),
            self.runs.len(),
            failures.join("\n  ")
        );
        self.runs
            .into_iter()
            .map(|r| r.expect("checked above"))
            .collect()
    }
}

/// Extract a printable panic payload.
fn panic_reason(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The supervised job pool: run an explicit list of `(variant, seed)` jobs
/// — which may each mean a *different scenario* (the sweep harness keys its
/// per-job configs by index) — in parallel across available cores,
/// isolating each job with `catch_unwind` so one panicking run cannot
/// discard the sweep.
///
/// A failing job is retried with the **same seed** up to `retries` extra
/// times (a deterministic panic fails identically; the retry budget exists
/// for jobs whose failure depends on sweep composition, and to record
/// `attempts` evidence that the failure is deterministic). Failures are
/// returned as structured [`RunFailure`]s in the job's slot; the rest of
/// the jobs are salvaged. Watchdog livelocks (see
/// [`mesh_sim::simulator::WatchdogBudget`]) are classified via their stable
/// panic prefix.
///
/// Retries are **checkpoint-aware**: every job gets a [`CheckpointSlot`]
/// that outlives the panic boundary. A job that hands the slot to [`run`]
/// (through [`Checkpoint`]) leaves its last good checkpoint behind when it
/// panics, and the retry (same closure, same slot) restores from it
/// instead of replaying from `t = 0` — see
/// `WorkloadScenario::run_supervised_checkpointed`. Each attempt's starting
/// point (`None` = scratch, `Some(t)` = resumed from the checkpoint at `t`)
/// is recorded in [`RunFailure::resume_points`].
///
/// `run` receives the job index alongside the variant and seed so callers
/// can look up per-job context. `on_result` is invoked on the calling
/// thread **in completion order** as each job finishes — the streaming hook
/// the sweep binary uses to append JSONL while hundreds of runs are still
/// in flight. `run` must be pure: the returned report is input-ordered
/// regardless of completion order.
pub fn run_jobs_supervised_resumable<F, O>(
    jobs: &[(Variant, u64)],
    retries: u32,
    run: F,
    mut on_result: O,
) -> MatrixReport
where
    F: Fn(usize, Variant, u64, &CheckpointSlot) -> RunMeasurement + Sync,
    O: FnMut(usize, &Result<RunMeasurement, RunFailure>),
{
    type Slot = Result<RunMeasurement, RunFailure>;
    let next: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(jobs.len().max(1));
    // Workers send `(index, outcome)` over a channel; the single collector
    // writes each slot exactly once — no shared mutable vector, no lock on
    // the hot path, and a missing or duplicated slot is a bug we catch
    // loudly instead of a silently-discarded `Option`.
    // mesh-lint: allow(R5, "the supervised job pool is the one sanctioned scatter/gather point")
    let (tx, rx) = std::sync::mpsc::channel::<(usize, Slot)>();
    let mut results: Vec<Option<Slot>> = jobs.iter().map(|_| None).collect();
    // mesh-lint: allow(R5, "workers run independent variant-seed jobs; results are index-keyed")
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let tx = tx.clone();
            let next = &next;
            let run = &run;
            scope.spawn(move || loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if i >= jobs.len() {
                    break;
                }
                let (v, s) = jobs[i];
                let mut outcome: Option<Slot> = None;
                // The slot outlives every catch_unwind below, so a
                // panicking attempt's last checkpoint survives for the
                // retry to resume from.
                let ckpt = CheckpointSlot::new();
                let mut resume_points: Vec<Option<SimTime>> = Vec::new();
                for attempt in 1..=retries + 1 {
                    resume_points.push(ckpt.time());
                    // The closure only borrows `run` (required Sync), Copy
                    // job parameters and the checkpoint slot; the slot is
                    // the *only* state a panicking attempt leaves behind
                    // for later attempts, and it holds a checkpoint taken
                    // strictly before the panic.
                    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        run(i, v, s, &ckpt)
                    })) {
                        Ok(m) => {
                            outcome = Some(Ok(m));
                            break;
                        }
                        Err(payload) => {
                            let reason = panic_reason(payload.as_ref());
                            let livelock =
                                reason.starts_with(mesh_sim::simulator::WATCHDOG_PANIC_PREFIX);
                            outcome = Some(Err(RunFailure {
                                variant: v,
                                seed: s,
                                attempts: attempt,
                                resume_points: resume_points.clone(),
                                livelock,
                                reason,
                            }));
                        }
                    }
                }
                let slot = outcome.expect("at least one attempt ran");
                tx.send((i, slot)).expect("collector outlives workers");
            });
        }
        // Collect inside the scope so `on_result` streams while workers are
        // still producing; dropping the original sender first lets the loop
        // end when the last worker hangs up.
        drop(tx);
        for (i, m) in rx {
            on_result(i, &m);
            let slot = results.get_mut(i).unwrap_or_else(|| {
                panic!("worker produced out-of-range job index {i}");
            });
            assert!(slot.is_none(), "job {i} produced two results");
            *slot = Some(m);
        }
    });
    MatrixReport {
        runs: results
            .into_iter()
            .enumerate()
            .map(|(i, m)| m.unwrap_or_else(|| panic!("job {i} produced no result")))
            .collect(),
    }
}

/// Run every `(variant, seed)` pair, parallelized across available cores.
///
/// `run` must be pure: results are collected and re-ordered by input index,
/// so the output order matches the input order deterministically.
///
/// # Panics
///
/// Panics if any job panicked — but only after the **whole** matrix has
/// run, with an aggregated summary of every failing `(variant, seed)`
/// (previously a single panicking run discarded the entire sweep). Callers
/// that want the salvaged partial matrix run the job list on
/// [`run_jobs_supervised_resumable`].
pub fn run_matrix<F>(variants: &[Variant], seeds: &[u64], run: F) -> Vec<RunMeasurement>
where
    F: Fn(Variant, u64) -> RunMeasurement + Sync,
{
    let jobs = matrix_jobs(variants, seeds);
    run_jobs_supervised_resumable(&jobs, 0, |_, v, s, _| run(v, s), |_, _| {}).into_measurements()
}

/// The job list of a `variants × seeds` matrix, variants outer: what
/// [`run_matrix`] hands to the supervised pool.
pub fn matrix_jobs(variants: &[Variant], seeds: &[u64]) -> Vec<(Variant, u64)> {
    variants
        .iter()
        .flat_map(|&v| seeds.iter().map(move |&s| (v, s)))
        .collect()
}

/// Aggregate of one variant across topologies, normalized to the baseline.
#[derive(Debug, Clone)]
pub struct VariantSummary {
    /// The variant.
    pub variant: Variant,
    /// PDR across topologies.
    pub pdr: Summary,
    /// Throughput normalized to the baseline variant, per-topology ratios
    /// summarized (this is what Fig. 2 plots).
    pub normalized_throughput: Summary,
    /// End-to-end delay normalized to the baseline.
    pub normalized_delay: Summary,
    /// Probe overhead %, Table-1 definition.
    pub probe_overhead_pct: Summary,
}

/// Group raw measurements by variant and normalize against `baseline`
/// per-topology (matching seeds), as the paper does.
///
/// # Panics
///
/// Panics if `baseline` is missing from `measurements` or seed sets differ.
pub fn summarize(measurements: &[RunMeasurement], baseline: Variant) -> Vec<VariantSummary> {
    let base: std::collections::HashMap<u64, &RunMeasurement> = measurements
        .iter()
        .filter(|m| m.variant == baseline)
        .map(|m| (m.seed, m))
        .collect();
    assert!(!base.is_empty(), "baseline variant missing");

    let mut variants: Vec<Variant> = Vec::new();
    for m in measurements {
        if !variants.contains(&m.variant) {
            variants.push(m.variant);
        }
    }

    variants
        .into_iter()
        .map(|v| {
            let of_v: Vec<&RunMeasurement> =
                measurements.iter().filter(|m| m.variant == v).collect();
            let pdr = Summary::of(of_v.iter().map(|m| m.pdr()));
            let norm_tp = Summary::of(of_v.iter().map(|m| {
                let b = base.get(&m.seed).expect("baseline run for seed");
                if b.pdr() > 0.0 {
                    m.pdr() / b.pdr()
                } else {
                    1.0
                }
            }));
            let norm_delay = Summary::of(of_v.iter().map(|m| {
                let b = base.get(&m.seed).expect("baseline run for seed");
                if b.mean_delay_s > 0.0 {
                    m.mean_delay_s / b.mean_delay_s
                } else {
                    1.0
                }
            }));
            let overhead = Summary::of(of_v.iter().map(|m| m.probe_overhead_pct));
            VariantSummary {
                variant: v,
                pdr,
                normalized_throughput: norm_tp,
                normalized_delay: norm_delay,
                probe_overhead_pct: overhead,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mesh_sim::counters::Counters;

    fn meas(variant: Variant, seed: u64, pdr_milli: u64, delay: f64) -> RunMeasurement {
        RunMeasurement {
            variant,
            seed,
            sent: 1000,
            expected: 1000,
            delivered: pdr_milli,
            mean_delay_s: delay,
            probe_overhead_pct: 1.0,
            counters: Counters::default(),
            schedule_hash: 0,
            timeseries: None,
        }
    }

    #[test]
    fn summarize_normalizes_per_seed() {
        let spp = Variant::Metric(mcast_metrics::MetricKind::Spp);
        let ms = vec![
            meas(Variant::Original, 1, 500, 0.02),
            meas(Variant::Original, 2, 400, 0.04),
            meas(spp, 1, 600, 0.01),
            meas(spp, 2, 480, 0.02),
        ];
        let sums = summarize(&ms, Variant::Original);
        let spp_sum = sums.iter().find(|s| s.variant == spp).unwrap();
        // 600/500 = 1.2 and 480/400 = 1.2.
        assert!((spp_sum.normalized_throughput.mean - 1.2).abs() < 1e-9);
        assert!((spp_sum.normalized_delay.mean - 0.5).abs() < 1e-9);
        let base_sum = sums
            .iter()
            .find(|s| s.variant == Variant::Original)
            .unwrap();
        assert!((base_sum.normalized_throughput.mean - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "baseline variant missing")]
    fn summarize_requires_baseline() {
        let spp = Variant::Metric(mcast_metrics::MetricKind::Spp);
        let ms = vec![meas(spp, 1, 600, 0.01)];
        let _ = summarize(&ms, Variant::Original);
    }

    #[test]
    fn run_matrix_preserves_order_and_runs_all() {
        let variants = [
            Variant::Original,
            Variant::Metric(mcast_metrics::MetricKind::Etx),
        ];
        let seeds = [10u64, 20, 30];
        let out = run_matrix(&variants, &seeds, |v, s| meas(v, s, s, 0.01));
        assert_eq!(out.len(), 6);
        assert_eq!(out[0].variant, Variant::Original);
        assert_eq!(out[0].seed, 10);
        assert_eq!(out[5].seed, 30);
    }

    #[test]
    fn paper_variants_start_with_baseline() {
        let v = paper_variants();
        assert_eq!(v[0], Variant::Original);
        assert_eq!(v.len(), 6);
    }

    #[test]
    fn comparison_variants_extend_the_paper_set() {
        let v = comparison_variants();
        // Prefix is exactly the paper set (same order), so existing tables
        // read the same; new entrants append after it.
        assert_eq!(v[..6], paper_variants()[..]);
        assert!(v.contains(&Variant::Metric(mcast_metrics::MetricKind::InvEtx)));
        assert!(v.contains(&Variant::Metric(mcast_metrics::MetricKind::WcettLb)));
        // The baseline and opt-outs appear exactly once / not at all.
        assert!(!v.contains(&Variant::Metric(mcast_metrics::MetricKind::HopCount)));
        assert!(!v.contains(&Variant::Metric(mcast_metrics::MetricKind::UnicastEtx)));
    }

    /// Regression: one panicking run used to propagate out of the worker
    /// scope and discard the entire sweep. Now the supervised pool salvages
    /// every other slot and reports the failure structurally.
    #[test]
    fn supervised_matrix_salvages_around_a_panicking_run() {
        let variants = [
            Variant::Original,
            Variant::Metric(mcast_metrics::MetricKind::Etx),
        ];
        let jobs = matrix_jobs(&variants, &[10, 20, 30]);
        let report = run_jobs_supervised_resumable(
            &jobs,
            0,
            |_, v, s, _| {
                assert!(
                    !(v == Variant::Original && s == 20),
                    "injected failure for seed 20"
                );
                meas(v, s, s, 0.01)
            },
            |_, _| {},
        );
        assert!(!report.is_complete());
        assert_eq!(report.successes().len(), 5);
        let failures = report.failures();
        assert_eq!(failures.len(), 1);
        let f = failures[0];
        assert_eq!(f.variant, Variant::Original);
        assert_eq!(f.seed, 20);
        assert_eq!(f.attempts, 1);
        assert!(!f.livelock);
        assert!(f.reason.contains("injected failure"), "got: {}", f.reason);
        // The failing slot sits exactly where its measurement would have.
        assert!(report.runs[1].is_err());
        assert!(report.runs[0].is_ok() && report.runs[2].is_ok());
    }

    #[test]
    fn supervised_matrix_retries_preserve_the_seed() {
        let calls = std::sync::atomic::AtomicU32::new(0);
        let report = run_jobs_supervised_resumable(
            &[(Variant::Original, 7u64)],
            2,
            |_, _, s, _| {
                assert_eq!(s, 7, "retries must re-run the same seed");
                calls.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                panic!("always fails");
            },
            |_, _| {},
        );
        assert_eq!(calls.load(std::sync::atomic::Ordering::SeqCst), 3);
        let failures = report.failures();
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].attempts, 3);
    }

    #[test]
    fn supervised_matrix_classifies_watchdog_livelocks() {
        let report = run_jobs_supervised_resumable(
            &[(Variant::Original, 1u64)],
            0,
            |_, _, _, _| {
                panic!(
                    "{}42 events dispatched without progress",
                    mesh_sim::simulator::WATCHDOG_PANIC_PREFIX
                );
            },
            |_, _| {},
        );
        assert!(report.failures()[0].livelock);
    }

    #[test]
    fn jobs_supervised_streams_every_result_and_orders_the_report() {
        // Heterogeneous job list: same variant, distinct seeds, and the
        // runner must hand the job index through so per-job context works.
        let jobs = vec![
            (Variant::Original, 11u64),
            (Variant::Original, 22),
            (Variant::Metric(mcast_metrics::MetricKind::Spp), 33),
        ];
        let mut streamed = Vec::new();
        let report = run_jobs_supervised_resumable(
            &jobs,
            0,
            |i, v, s, _| {
                assert_eq!(jobs[i], (v, s), "index must identify the job");
                meas(v, s, s, 0.01)
            },
            |i, r| {
                assert!(r.is_ok());
                streamed.push(i);
            },
        );
        // Every job streamed exactly once, whatever the completion order.
        streamed.sort_unstable();
        assert_eq!(streamed, vec![0, 1, 2]);
        // The report is input-ordered.
        let seeds: Vec<u64> = report
            .runs
            .iter()
            .map(|r| r.as_ref().unwrap().seed)
            .collect();
        assert_eq!(seeds, vec![11, 22, 33]);
    }

    /// Satellite of the checkpoint/restore PR: a retry that found a
    /// checkpoint in the slot records where it resumed from, per attempt,
    /// and the salvage report distinguishes post-resume livelocks.
    #[test]
    fn resumable_retries_record_resume_points() {
        let t3 = SimTime::ZERO + SimDuration::from_secs(3);
        let report = run_jobs_supervised_resumable(
            &[(Variant::Original, 5u64)],
            2,
            |_, _, _, slot| {
                if slot.time().is_none() {
                    // First attempt: checkpoint at t=3s, then die.
                    slot.store(t3, vec![1, 2, 3]);
                    panic!("dies after checkpointing");
                }
                // Resumed attempts find the checkpoint and die again.
                assert_eq!(slot.get().map(|(_, b)| b), Some(vec![1, 2, 3]));
                panic!(
                    "{}no progress after resume",
                    mesh_sim::simulator::WATCHDOG_PANIC_PREFIX
                );
            },
            |_, _| {},
        );
        let failures = report.failures();
        let f = failures[0];
        assert_eq!(f.attempts, 3);
        assert_eq!(f.resume_points, vec![None, Some(t3), Some(t3)]);
        assert!(f.last_attempt_resumed());
        assert!(f.livelock);
        assert_eq!(f.livelock_tag(), " [livelock after resume]");
        assert_eq!(
            f.resume_trail(),
            Some(format!("scratch, ckpt@{t3}, ckpt@{t3}"))
        );
        let shown = f.to_string();
        assert!(
            shown.contains("[livelock after resume]"),
            "post-resume livelock must be classified distinctly, got: {shown}"
        );
        assert!(
            shown.contains("scratch") && shown.contains("ckpt@"),
            "{shown}"
        );
    }

    /// A job that never checkpoints never resumes, so its failures read as
    /// plain scratch retries (and the legacy `[livelock]` tag survives).
    #[test]
    fn plain_supervised_failures_are_all_scratch() {
        let report = run_jobs_supervised_resumable(
            &[(Variant::Original, 1u64)],
            1,
            |_, _, _, _| {
                panic!(
                    "{}stuck from the start",
                    mesh_sim::simulator::WATCHDOG_PANIC_PREFIX
                )
            },
            |_, _| {},
        );
        let failures = report.failures();
        let f = failures[0];
        assert_eq!(f.resume_points, vec![None, None]);
        assert!(!f.last_attempt_resumed());
        assert_eq!((f.livelock_tag(), f.resume_trail()), (" [livelock]", None));
        let shown = f.to_string();
        assert!(shown.contains("[livelock]") && !shown.contains("after resume"));
    }

    #[test]
    #[should_panic(expected = "1 of 6 matrix runs failed")]
    fn run_matrix_aggregates_failures_after_completing_the_sweep() {
        let variants = [
            Variant::Original,
            Variant::Metric(mcast_metrics::MetricKind::Etx),
        ];
        let seeds = [10u64, 20, 30];
        let done = std::sync::atomic::AtomicU32::new(0);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_matrix(&variants, &seeds, |v, s| {
                assert!(s != 20 || v != Variant::Original, "boom");
                done.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                meas(v, s, s, 0.01)
            })
        }));
        // Every healthy job ran to completion before the aggregate panic.
        assert_eq!(done.load(std::sync::atomic::Ordering::SeqCst), 5);
        std::panic::resume_unwind(result.unwrap_err());
    }
}

//! The four workloads: their committed decks, their job lists, and one pass
//! over a list of jobs, traced or not.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;

use experiments::runner::{run_jobs_supervised_resumable, CheckpointSlot};
use experiments::scenario::GroupSpec;
use experiments::scenario_compiler::{compile, expand, quicken, WorkloadScenario};
use experiments::RunMeasurement;
use mesh_sim::counters::Counters;
use mesh_sim::medium::IndexStats;
use mesh_sim::protocol::Protocol;
use mesh_sim::simulator::{Simulator, WatchdogBudget};
use mesh_sim::snapshot::{Snap, SnapshotState};
use mesh_sim::time::{SimDuration, SimTime};
use mesh_sim::trace::{JsonlTrace, TraceSink};
use odmrp::{MulticastApp, OdmrpMsg, OdmrpNode, Variant};

use crate::shims::{build_traced, timed_oracle, TimedNode, TimedSink};
use crate::span::{self, add_items, span, Layer, Row, LAYERS};

/// How a workload's jobs run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// `WorkloadScenario::run_once`, one job at a time.
    Plain,
    /// `WorkloadScenario::run_supervised_checkpointed` on the runner pool.
    Supervised,
    /// A JSONL trace and metrics buckets attached, a snapshot every
    /// [`SNAPSHOT_EVERY`] restored into a fresh simulator, and one mid-run
    /// restore continued to the end.
    Observed,
}

/// One benchmark workload.
pub struct Workload {
    /// Name given to `--workload`.
    pub name: &'static str,
    /// The committed deck: scenario plus the `[sweep]` that lists its jobs.
    pub deck: &'static str,
    /// How its jobs run.
    pub shape: Shape,
}

/// Every workload, in the order a bare invocation runs them.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "paper-static",
        deck: include_str!("../scenarios/paper-static.toml"),
        shape: Shape::Plain,
    },
    Workload {
        name: "mobile-metro",
        deck: include_str!("../scenarios/mobile-metro.toml"),
        shape: Shape::Plain,
    },
    Workload {
        name: "city-sweep",
        deck: include_str!("../scenarios/city-sweep.toml"),
        shape: Shape::Supervised,
    },
    Workload {
        name: "observe-resume",
        deck: include_str!("../scenarios/observe-resume.toml"),
        shape: Shape::Observed,
    },
];

/// Setups timed per job for `setup_s`; only the last one is run.
const SETUP_REPS: usize = 8;
/// Restores (each followed by a snapshot) of a job's last checkpoint.
const PROBE_REPS: usize = 3;
/// Snapshot cadence of [`Shape::Observed`] jobs.
const SNAPSHOT_EVERY: SimDuration = SimDuration::from_secs(10);
/// Metrics bucket width of [`Shape::Observed`] jobs.
const METRICS_BUCKET: SimDuration = SimDuration::from_secs(1);
/// Where [`Shape::Observed`] jobs stream their trace, so the benchmark
/// measures serialization and not the disk.
const TRACE_PATH: &str = "/dev/null";
/// The livelock budget `WorkloadScenario::run_supervised` arms.
const WATCHDOG: WatchdogBudget = WatchdogBudget {
    max_events: 20_000_000,
    min_progress: SimDuration::from_millis(100),
};

/// One `(config, variant, seed)` run of a workload.
#[derive(Debug, Clone)]
pub struct Job {
    /// Sweep-axis assignment, `-` when the deck has no axes.
    pub config: String,
    /// The fully derived scenario.
    pub scenario: WorkloadScenario,
    /// Protocol variant.
    pub variant: Variant,
    /// Topology seed, after the `--seed` shift.
    pub seed: u64,
}

/// A workload's jobs, seed-major, plus the deck's same-seed retry budget.
pub fn jobs(w: &Workload, shift: u64, smoke: bool) -> Result<(Vec<Job>, u32), String> {
    let mut compiled = compile(w.deck).map_err(|e| format!("{}: {e}", w.name))?;
    if smoke {
        quicken(&mut compiled);
    }
    let mut expanded = expand(&compiled)?;
    // Seed-major, so slow drift in host speed hits every variant alike.
    expanded.sort_by_key(|j| j.seed);
    if smoke {
        expanded.truncate(1);
    }
    let jobs = expanded
        .into_iter()
        .map(|j| Job {
            config: if j.label.is_empty() {
                "-".to_string()
            } else {
                j.label
            },
            scenario: j.scenario,
            variant: j.variant,
            seed: j.seed.wrapping_add(shift),
        })
        .collect();
    Ok((jobs, compiled.sweep.retries))
}

/// The replay-contract outputs a job is checked on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outputs {
    /// `Simulator::schedule_hash`.
    pub schedule_hash: u64,
    /// Data packets delivered to member applications.
    pub delivered: u64,
    /// Data packets originated.
    pub sent: u64,
}

/// Everything one job reports.
#[derive(Debug, Default)]
pub struct JobOut {
    /// Replay outputs; `None` if the job failed before finishing its run.
    pub outputs: Option<Outputs>,
    /// Why the job failed, if it did.
    pub failure: Option<String>,
    /// Wall time of the whole job, seconds.
    pub wall_s: f64,
    /// Wall time inside `Simulator::run_until` of the measured run, seconds.
    pub run_wall_s: f64,
    /// Simulated seconds of the measured run.
    pub sim_s: f64,
    /// World counters of the measured run.
    pub counters: Counters,
    /// Spatial-index statistics, when the job kept its simulator.
    pub index: Option<IndexStats>,
    /// Wall time of each set-up (compile + layout + build), seconds.
    pub setup_s: Vec<f64>,
    /// Wall time spent in `Simulator::snapshot` and `Simulator::restore`.
    pub snapshot_s: f64,
    /// Bytes those calls wrote and read.
    pub snapshot_bytes: u64,
    /// Peak heap bytes this job held above its start, up to the end of its
    /// measured run.
    pub heap_peak_bytes: u64,
    /// Per-layer rows (traced jobs only).
    pub rows: Option<[Row; LAYERS]>,
    /// Attempts the runner made (1 unless a supervised job was retried).
    pub attempts: u32,
    measurement: Option<RunMeasurement>,
    heap_base: i64,
}

impl JobOut {
    fn record<P: Protocol + MulticastApp>(
        &mut self,
        sim: &Simulator<P>,
        groups: &[GroupSpec],
        job: &Job,
    ) {
        self.index = sim.world().index_stats();
        self.absorb(RunMeasurement::from_sim(sim, groups, job.seed), job);
    }

    fn absorb(&mut self, m: RunMeasurement, job: &Job) {
        self.heap_peak_bytes = span::heap_peak_since(self.heap_base);
        self.outputs = Some(Outputs {
            schedule_hash: m.schedule_hash,
            delivered: m.delivered,
            sent: m.sent,
        });
        self.sim_s = job.scenario.run_until().as_secs_f64();
        self.counters = m.counters.clone();
        self.measurement = Some(m);
    }
}

/// One scheduled run: which job, and whether it runs behind the shims.
#[derive(Debug, Clone, Copy)]
pub struct Slot {
    /// Index into the job list.
    pub job: usize,
    /// Traced (shims + spans) or not.
    pub traced: bool,
}

/// The result of one pass over a list of slots.
#[derive(Debug)]
pub struct Pass {
    /// Wall time from the first job's start to the last job's end.
    pub makespan_s: f64,
    /// Workers that ran the pass.
    pub workers: usize,
    /// One result per slot, in slot order.
    pub outs: Vec<JobOut>,
}

/// Run `plan` once: sequentially, or on the runner pool for supervised
/// workloads.
pub fn run_pass(w: &Workload, jobs: &[Job], retries: u32, plan: &[Slot]) -> Pass {
    let t0 = span::now();
    let (outs, workers) = match w.shape {
        Shape::Supervised => pool(w, jobs, retries, plan),
        Shape::Plain | Shape::Observed => {
            let outs = plan
                .iter()
                .map(|s| {
                    let mut out = guarded(|out| run_slot(w, &jobs[s.job], s.traced, None, out));
                    out.attempts = 1;
                    out
                })
                .collect();
            (outs, 1)
        }
    };
    Pass {
        makespan_s: t0.elapsed().as_secs_f64(),
        workers,
        outs,
    }
}

/// Run the first job once, untimed, before measuring.
pub fn warm_up(w: &Workload, jobs: &[Job]) -> JobOut {
    let slot = CheckpointSlot::new();
    guarded(|out| run_slot(w, &jobs[0], false, Some(&slot), out))
}

/// Run `f` with a panic turned into a recorded failure.
fn guarded(f: impl FnOnce(&mut JobOut) -> Result<(), String>) -> JobOut {
    let mut out = JobOut::default();
    let t0 = span::now();
    let res = catch_unwind(AssertUnwindSafe(|| f(&mut out)));
    out.wall_s = t0.elapsed().as_secs_f64();
    match res {
        Ok(Ok(())) => {}
        Ok(Err(e)) => out.failure = Some(e),
        Err(payload) => out.failure = Some(panic_text(payload.as_ref())),
    }
    out
}

fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<String>() {
        format!("panic: {s}")
    } else if let Some(s) = payload.downcast_ref::<&str>() {
        format!("panic: {s}")
    } else {
        "panic".to_string()
    }
}

fn run_slot(
    w: &Workload,
    job: &Job,
    traced: bool,
    slot: Option<&CheckpointSlot>,
    out: &mut JobOut,
) -> Result<(), String> {
    out.heap_base = span::heap_mark();
    if traced {
        span::begin_job();
    }
    let res = match (w.shape, traced) {
        (Shape::Plain, false) => plain::<Untraced>(w, job, out),
        (Shape::Plain, true) => plain::<Traced>(w, job, out),
        (Shape::Observed, false) => observed::<Untraced>(w, job, out),
        (Shape::Observed, true) => observed::<Traced>(w, job, out),
        (Shape::Supervised, false) => {
            supervised(w, job, slot.expect("supervised jobs run with a slot"), out)
        }
        (Shape::Supervised, true) => supervised_traced(w, job, out),
    };
    if traced {
        out.rows = Some(span::end_job());
    }
    res
}

fn pool(w: &Workload, jobs: &[Job], retries: u32, plan: &[Slot]) -> (Vec<JobOut>, usize) {
    let pairs: Vec<(Variant, u64)> = plan
        .iter()
        .map(|s| (jobs[s.job].variant, jobs[s.job].seed))
        .collect();
    let done: Mutex<Vec<Option<JobOut>>> = Mutex::new(plan.iter().map(|_| None).collect());
    let attempts: Vec<AtomicU32> = plan.iter().map(|_| AtomicU32::new(0)).collect();
    let report = run_jobs_supervised_resumable(
        &pairs,
        retries,
        |i, _, _, ckpt| {
            attempts[i].fetch_add(1, Ordering::Relaxed);
            let mut out = JobOut::default();
            let t0 = span::now();
            let res = run_slot(w, &jobs[plan[i].job], plan[i].traced, Some(ckpt), &mut out);
            out.wall_s = t0.elapsed().as_secs_f64();
            if let Err(e) = res {
                out.failure = Some(e);
            }
            // The runner needs a measurement; a job that failed before
            // producing one is handed back as a panic, which it retries.
            let m = out.measurement.clone().unwrap_or_else(|| {
                panic!("{}", out.failure.clone().unwrap_or_default());
            });
            done.lock().expect("result table poisoned")[i] = Some(out);
            m
        },
        |_, _| {},
    );
    let mut done = done.into_inner().expect("result table poisoned");
    let outs = report
        .runs
        .iter()
        .enumerate()
        .map(|(i, r)| {
            let mut out = match r {
                Ok(_) => done[i].take().expect("a successful job stored its result"),
                Err(f) => JobOut {
                    failure: Some(f.to_string()),
                    ..JobOut::default()
                },
            };
            out.attempts = attempts[i].load(Ordering::Relaxed);
            out
        })
        .collect();
    // The runner's own worker count, for `runner.utilization`.
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(plan.len().max(1));
    (outs, workers)
}

/// The simulator flavour a job runs on: the plain types, or the shims.
trait Flavor {
    type Node: Protocol<Msg = OdmrpMsg> + MulticastApp + SnapshotState;
    /// The job's timed set-up; returns the simulator to run.
    fn setup(w: &Workload, job: &Job, out: &mut JobOut) -> (Simulator<Self::Node>, Vec<GroupSpec>);
    /// A fresh simulator to restore a checkpoint into.
    fn fresh(job: &Job) -> Simulator<Self::Node>;
    /// The trace sink around `trace`.
    fn sink(trace: JsonlTrace) -> Box<dyn TraceSink>;
}

struct Untraced;

impl Flavor for Untraced {
    type Node = OdmrpNode;

    fn setup(w: &Workload, job: &Job, out: &mut JobOut) -> (Simulator<OdmrpNode>, Vec<GroupSpec>) {
        let mut built = None;
        for _ in 0..SETUP_REPS {
            // Free the previous rep's simulator first, so every rep builds
            // into the memory the last one used.
            drop(built.take());
            let t0 = span::now();
            compile_deck(w);
            let groups = job.scenario.layout(job.seed).groups;
            let sim = job.scenario.build(job.variant, job.seed);
            out.setup_s.push(t0.elapsed().as_secs_f64());
            built = Some((sim, groups));
        }
        built.expect("SETUP_REPS is positive")
    }

    fn fresh(job: &Job) -> Simulator<OdmrpNode> {
        job.scenario.build(job.variant, job.seed)
    }

    fn sink(trace: JsonlTrace) -> Box<dyn TraceSink> {
        Box::new(trace)
    }
}

struct Traced;

impl Flavor for Traced {
    type Node = TimedNode;

    fn setup(w: &Workload, job: &Job, out: &mut JobOut) -> (Simulator<TimedNode>, Vec<GroupSpec>) {
        let t0 = span::now();
        span(Layer::Compile, || compile_deck(w));
        let built = build_traced(&job.scenario, job.variant, job.seed);
        out.setup_s.push(t0.elapsed().as_secs_f64());
        built
    }

    fn fresh(job: &Job) -> Simulator<TimedNode> {
        build_traced(&job.scenario, job.variant, job.seed).0
    }

    fn sink(trace: JsonlTrace) -> Box<dyn TraceSink> {
        Box::new(TimedSink(trace))
    }
}

/// Compile and expand the deck, as every user run starts.
fn compile_deck(w: &Workload) {
    let compiled = compile(w.deck).expect("committed decks compile");
    std::hint::black_box(expand(&compiled).expect("committed decks expand"));
}

fn plain<F: Flavor>(w: &Workload, job: &Job, out: &mut JobOut) -> Result<(), String> {
    let (mut sim, groups) = F::setup(w, job, out);
    run(&mut sim, job.scenario.run_until(), out);
    out.record(&sim, &groups, job);
    let fp = job.scenario.fingerprint(job.variant, job.seed);
    let bytes = snapshot(&sim, fp, out);
    probe::<F>(job, &bytes, fp, out)
}

fn observed<F: Flavor>(w: &Workload, job: &Job, out: &mut JobOut) -> Result<(), String> {
    let (mut sim, groups) = F::setup(w, job, out);
    let trace = JsonlTrace::create(TRACE_PATH).map_err(|e| format!("trace sink: {e}"))?;
    sim.world_mut().set_metrics(METRICS_BUCKET);
    sim.world_mut().set_trace(F::sink(trace));
    let end = job.scenario.run_until();
    let fp = job.scenario.fingerprint(job.variant, job.seed);
    let half = SimTime::from_nanos(end.as_nanos() / 2);
    let mut continuation = None;
    let mut t = SimTime::ZERO + SNAPSHOT_EVERY;
    while t < end {
        run(&mut sim, t, out);
        let bytes = snapshot(&sim, fp, out);
        let mut fresh = F::fresh(job);
        restore(&mut fresh, &bytes, fp, out)?;
        if continuation.is_none() && t >= half {
            continuation = Some(fresh);
        }
        t += SNAPSHOT_EVERY;
    }
    run(&mut sim, end, out);
    let mut sink = sim.world_mut().take_trace().ok_or("trace sink missing")?;
    finish_trace(sink.as_mut()).map_err(|e| format!("trace sink: {e}"))?;
    let series = sim.world_mut().take_metrics();
    out.record(&sim, &groups, job);

    let mut resumed = continuation.ok_or("run too short for a mid-run restore")?;
    span(Layer::Simulator, || resumed.run_until(end));
    let twin = RunMeasurement::from_sim(&resumed, &groups, job.seed);
    let main = out.measurement.as_ref().expect("recorded above");
    if twin.schedule_hash != main.schedule_hash
        || twin.counters != main.counters
        || twin.delivered != main.delivered
        || twin.sent != main.sent
        || resumed.world_mut().take_metrics() != series
    {
        return Err("the restored continuation diverged from the uninterrupted run".into());
    }
    Ok(())
}

fn finish_trace(sink: &mut dyn TraceSink) -> std::io::Result<u64> {
    let any = sink.as_any_mut();
    if let Some(timed) = any.downcast_mut::<TimedSink>() {
        return timed.0.finish();
    }
    match any.downcast_mut::<JsonlTrace>() {
        Some(plain) => plain.finish(),
        None => Err(std::io::Error::other("unexpected trace sink type")),
    }
}

/// The path users take for a sweep cell; set-up is timed separately.
fn supervised(
    w: &Workload,
    job: &Job,
    slot: &CheckpointSlot,
    out: &mut JobOut,
) -> Result<(), String> {
    drop(Untraced::setup(w, job, out));
    let t0 = span::now();
    let m = job
        .scenario
        .run_supervised_checkpointed(job.variant, job.seed, slot, |_, _| {});
    out.run_wall_s += t0.elapsed().as_secs_f64();
    out.absorb(m, job);
    let (_, bytes) = slot.get().ok_or("no checkpoint landed")?;
    probe::<Untraced>(
        job,
        &bytes,
        job.scenario.fingerprint(job.variant, job.seed),
        out,
    )
}

/// [`supervised`] behind the shims: the same oracle, watchdog and invariant
/// cadence, with the four quarter checkpoints taken by direct
/// `Simulator::snapshot` calls so they can be timed.
fn supervised_traced(w: &Workload, job: &Job, out: &mut JobOut) -> Result<(), String> {
    let (mut sim, groups) = Traced::setup(w, job, out);
    let refresh = job.scenario.mesh.odmrp_config(job.variant).refresh_interval;
    sim.set_invariant_interval(refresh);
    sim.add_oracle(timed_oracle());
    sim.set_watchdog(WATCHDOG);
    let end = job.scenario.run_until();
    let fp = job.scenario.fingerprint(job.variant, job.seed);
    let quarter = end.as_nanos() / 4;
    let mut last = Vec::new();
    for k in 1..=4 {
        let t = if k == 4 {
            end
        } else {
            SimTime::from_nanos(quarter * k)
        };
        run(&mut sim, t, out);
        last = snapshot(&sim, fp, out);
    }
    out.record(&sim, &groups, job);
    probe::<Traced>(job, &last, fp, out)
}

/// Restore a job's checkpoint into fresh simulators and snapshot them
/// again: the bytes must come back unchanged.
fn probe<F: Flavor>(job: &Job, bytes: &[u8], fp: u64, out: &mut JobOut) -> Result<(), String> {
    for _ in 0..PROBE_REPS {
        let mut fresh = F::fresh(job);
        restore(&mut fresh, bytes, fp, out)?;
        if snapshot(&fresh, fp, out) != bytes {
            return Err("a restored simulator snapshots to different bytes".into());
        }
    }
    Ok(())
}

fn run<P: Protocol>(sim: &mut Simulator<P>, t: SimTime, out: &mut JobOut) {
    let t0 = span::now();
    span(Layer::Simulator, || sim.run_until(t));
    out.run_wall_s += t0.elapsed().as_secs_f64();
}

fn snapshot<P>(sim: &Simulator<P>, fp: u64, out: &mut JobOut) -> Vec<u8>
where
    P: Protocol + SnapshotState,
    P::Msg: Snap,
{
    let t0 = span::now();
    let bytes = span(Layer::SnapshotWrite, || sim.snapshot(fp));
    out.snapshot_s += t0.elapsed().as_secs_f64();
    out.snapshot_bytes += bytes.len() as u64;
    add_items(Layer::SnapshotWrite, bytes.len() as u64);
    bytes
}

fn restore<P>(sim: &mut Simulator<P>, bytes: &[u8], fp: u64, out: &mut JobOut) -> Result<(), String>
where
    P: Protocol + SnapshotState,
    P::Msg: Snap,
{
    let t0 = span::now();
    span(Layer::SnapshotRead, || sim.restore(bytes, fp)).map_err(|e| format!("restore: {e}"))?;
    out.snapshot_s += t0.elapsed().as_secs_f64();
    out.snapshot_bytes += bytes.len() as u64;
    add_items(Layer::SnapshotRead, bytes.len() as u64);
    Ok(())
}

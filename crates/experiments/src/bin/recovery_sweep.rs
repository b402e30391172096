//! Recovery sweep: time-to-recover per metric variant after a replayed
//! fault plan, with degraded mode off vs on.
//!
//! For every topology seed the same deterministic fault plan used by the
//! fault sweep (`WorkloadScenario::random_fault_plan`) is replayed against every
//! variant twice — once with the baseline protocol and once with degraded
//! mode (staleness quarantine, refresh backoff, min-hop fallback). Each run
//! records a metrics timeseries with buckets one refresh interval wide, so
//! the recovery verdict reads directly in refresh rounds: the time-to-recover
//! is the number of rounds after the last fault event until per-bucket PDR is
//! back within 5% of the pre-fault PDR.
//!
//! Runs are supervised: a panicking or livelocked `(variant, seed)` job is
//! reported as a structured failure and the rest of the sweep is salvaged.

use experiments::recovery::{analyze, RecoverySpec};
use experiments::runner::{paper_variants, run_matrix_supervised};
use experiments::scenario_compiler::{compile, FaultSpec, WorkloadScenario};
use experiments::{cli::CliArgs, run, RunMeasurement, RunSpec};
use odmrp::Variant;

const FAULT_INTENSITY: f64 = 0.6;

fn main() {
    let args = CliArgs::from_env();
    let deck = if args.quick {
        include_str!("../../../../scenarios/fig2-quick.toml")
    } else {
        include_str!("../../../../scenarios/fig2.toml")
    };
    let mut base = compile(deck).expect("committed deck compiles").scenario;
    base.faults = FaultSpec::Random {
        intensity: FAULT_INTENSITY,
    };
    let seeds = args.seeds(5).unwrap_or_else(|e| e.exit());
    let variants = paper_variants();
    eprintln!(
        "recovery sweep: {} nodes, {} topologies, fault intensity {FAULT_INTENSITY}",
        base.mesh.nodes,
        seeds.len(),
    );
    let t0 = std::time::Instant::now();

    let mut rows: Vec<String> = Vec::new();
    println!(
        "{:<12} {:>9} | {:>8} {:>8} {:>7} | {:>8} {:>8} {:>7}",
        "variant", "seed", "pre", "fault", "TTR", "pre", "fault", "TTR"
    );
    println!(
        "{:<12} {:>9} | {:^25} | {:^25}",
        "", "", "degraded off", "degraded on"
    );
    for degraded in [false, true] {
        let mut scenario = base.clone();
        scenario.mesh.degraded = degraded;
        if let Some(r) = args.probe_rate {
            scenario.mesh.probe_rate = r;
        }
        let report = run_matrix_supervised(&variants, &seeds, 1, |v, s| {
            // Buckets one refresh interval wide, so time-to-recover reads
            // in refresh rounds.
            let refresh = scenario.mesh.odmrp_config(v).refresh_interval;
            let m = run(&RunSpec::new(&scenario, v, s).supervised().metrics(refresh));
            eprintln!(
                "  {} seed={} degraded={} pdr={:.3} ({:.1}s elapsed)",
                m.variant,
                s,
                degraded,
                m.pdr(),
                t0.elapsed().as_secs_f64()
            );
            m
        });
        for f in report.failures() {
            eprintln!("  FAILED: {f}");
        }
        for m in report.successes() {
            rows.push(render_row(&scenario, m, degraded));
        }
    }
    // Interleave off/on rows per (variant, seed) for side-by-side reading.
    rows.sort();
    for r in &rows {
        println!("{r}");
    }
    eprintln!("done in {:.1}s", t0.elapsed().as_secs_f64());
}

fn render_row(scenario: &WorkloadScenario, m: &RunMeasurement, degraded: bool) -> String {
    let plan = scenario.random_fault_plan(m.seed, FAULT_INTENSITY);
    let spec = RecoverySpec::for_scenario(&scenario.mesh, &plan);
    let ts = m.timeseries.as_ref().expect("recovery runs record metrics");
    let a = analyze(ts, &spec);
    let ttr = match a.rounds_to_recover {
        Some(r) => format!("{r}r"),
        None => "never".to_string(),
    };
    format!(
        "{:<12} seed={:<3} degraded={:<5} pre={:.3} fault={:.3} ttr={}",
        variant_key(m.variant),
        m.seed,
        degraded,
        a.pre_fault_pdr,
        a.during_fault_pdr,
        ttr
    )
}

fn variant_key(v: Variant) -> String {
    v.to_string()
}

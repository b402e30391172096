//! `bench_e2e`: the end-to-end simulator benchmark.
//!
//! Runs the committed workloads in `scenarios/`, checks every job's outputs
//! against `golden.tsv` and against its own reruns, and prints every metric
//! by name and unit. The last line for each workload is one JSON object.
//! `--trace` replaces the end-to-end pass with a traced pass that reports
//! per-layer metrics. See README.md.

mod report;
mod shims;
mod span;
mod workload;

use std::collections::BTreeMap;
use std::process::ExitCode;

use experiments::scenario_compiler::variant_name;

use report::Metric;
use workload::{Job, JobOut, Outputs, Slot, Workload, WORKLOADS};

#[global_allocator]
static ALLOC: span::CountingAlloc = span::CountingAlloc;

const USAGE: &str =
    "usage: bench_e2e [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] [--smoke]";

/// The seed `golden.tsv` was recorded at.
const DEFAULT_SEED: u64 = 1;
/// Topology-seed shift per `--seed` step, so neighbouring seeds share no
/// topology.
const SEED_STRIDE: u64 = 1000;

const GOLDEN: &str = include_str!("../golden.tsv");
const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/golden.tsv");
const GOLDEN_HEADER: &str = "# workload\tconfig\tvariant\tseed\tschedule_hash\tdelivered\tsent";

#[derive(Debug)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args(args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: 0.0,
        trace: false,
        smoke: false,
    };
    let mut it = args.peekable();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or(format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => out.workload = Some(value()?),
            "--seed" => {
                let v = value()?;
                out.seed = v.parse().map_err(|_| format!("bad --seed {v}"))?;
            }
            "--seconds" => {
                let v = value()?;
                out.seconds = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or(format!("bad --seconds {v}"))?;
            }
            "--trace" => {
                // A bare `--trace` means on; `--trace 0|1` sets it.
                out.trace = it
                    .next_if(|v| v == "0" || v == "1")
                    .is_none_or(|v| v == "1");
            }
            "--smoke" => out.smoke = true,
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    Ok(out)
}

type GoldenKey = (String, String, String, u64);
type Golden = BTreeMap<GoldenKey, Outputs>;

fn key(w: &Workload, job: &Job) -> GoldenKey {
    (
        w.name.to_string(),
        job.config.clone(),
        variant_name(job.variant).to_string(),
        job.seed,
    )
}

fn parse_golden(text: &str) -> Result<Golden, String> {
    let mut rows = Golden::new();
    for (i, line) in text.lines().enumerate() {
        if line.starts_with('#') || line.trim().is_empty() {
            continue;
        }
        let bad = || format!("golden.tsv line {}: malformed row", i + 1);
        let f: Vec<&str> = line.split('\t').collect();
        let [workload, config, variant, seed, hash, delivered, sent] = f[..] else {
            return Err(bad());
        };
        let num = |s: &str| s.parse::<u64>().map_err(|_| bad());
        let hash = hash
            .strip_prefix("0x")
            .and_then(|h| u64::from_str_radix(h, 16).ok())
            .ok_or_else(bad)?;
        rows.insert(
            (
                workload.to_string(),
                config.to_string(),
                variant.to_string(),
                num(seed)?,
            ),
            Outputs {
                schedule_hash: hash,
                delivered: num(delivered)?,
                sent: num(sent)?,
            },
        );
    }
    Ok(rows)
}

fn golden_text(rows: &Golden) -> String {
    let mut s = format!("{GOLDEN_HEADER}\n");
    for ((w, c, v, seed), o) in rows {
        s.push_str(&format!(
            "{w}\t{c}\t{v}\t{seed}\t{:#018x}\t{}\t{}\n",
            o.schedule_hash, o.delivered, o.sent
        ));
    }
    s
}

/// `VmHWM` of this process, MB (0 where `/proc` is unavailable).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What one workload reported.
struct Outcome {
    lines: Vec<String>,
    metrics: Vec<Metric>,
    attempted: usize,
    failed: usize,
}

fn run_workload(
    w: &Workload,
    args: &Args,
    golden: &Golden,
    regen: Option<&mut Golden>,
) -> Result<Outcome, String> {
    let shift = args
        .seed
        .wrapping_sub(DEFAULT_SEED)
        .wrapping_mul(SEED_STRIDE);
    let (jobs, retries) = workload::jobs(w, shift, args.smoke)?;
    // The traced pass replays the first third of the jobs, each beside its
    // untraced twin.
    let plan: Vec<Slot> = if args.trace {
        (0..jobs.len().div_ceil(3))
            .flat_map(|job| [false, true].map(|traced| Slot { job, traced }))
            .collect()
    } else {
        (0..jobs.len())
            .map(|job| Slot { job, traced: false })
            .collect()
    };

    let warm = (!args.smoke).then(|| workload::warm_up(w, &jobs));
    let start = span::now();
    let mut passes = vec![workload::run_pass(w, &jobs, retries, &plan)];
    // Whole passes only, so every run measures the same job mix; another
    // pass starts only if one more of the last one's length fits in --seconds.
    while start.elapsed().as_secs_f64() + passes[passes.len() - 1].makespan_s <= args.seconds {
        passes.push(workload::run_pass(w, &jobs, retries, &plan));
    }
    let measured_s = start.elapsed().as_secs_f64();

    let use_golden = args.seed == DEFAULT_SEED && !args.smoke && regen.is_none();
    let mut seen: Vec<Option<Outputs>> = vec![None; jobs.len()];
    let mut failures = Vec::new();
    let runs = warm.iter().map(|o| (0, o)).chain(
        passes
            .iter()
            .flat_map(|p| plan.iter().zip(&p.outs).map(|(s, o)| (s.job, o))),
    );
    let mut attempted = 0;
    for (j, out) in runs {
        attempted += 1;
        let job = &jobs[j];
        if let Err(e) = check(
            out,
            &mut seen[j],
            use_golden.then(|| golden.get(&key(w, job))),
        ) {
            failures.push(format!(
                "FAIL {} {} seed {}: {e}",
                job.config,
                variant_name(job.variant),
                job.seed
            ));
        }
    }
    if let Some(rows) = regen {
        rows.retain(|k, _| k.0 != w.name);
        for (job, o) in jobs.iter().zip(&seen) {
            if let Some(o) = o {
                rows.insert(key(w, job), *o);
            }
        }
    }

    let metrics = if args.trace {
        report::per_layer(&passes, peak_rss_mb())
    } else {
        report::end_to_end(&passes)
    };
    let mut lines = vec![format!(
        "bench_e2e {}: seed {}, {} jobs, {} pass(es) of {} runs on {} worker(s), {}, {:.1} s",
        w.name,
        args.seed,
        jobs.len(),
        passes.len(),
        plan.len(),
        passes[0].workers,
        if args.trace { "traced" } else { "untraced" },
        measured_s
    )];
    for m in &metrics {
        lines.push(format!(
            "  {:<34} {:>18} {:<6} (n={})",
            m.name, m.value, m.unit, m.n
        ));
    }
    if args.trace {
        lines.extend(report::job_rows(&passes));
    }
    let failed = failures.len();
    lines.extend(failures);
    Ok(Outcome {
        lines,
        metrics,
        attempted,
        failed,
    })
}

/// A run's correctness: it finished, its layer self times add up, and its
/// outputs match every earlier run of the same job (the warm-up, earlier
/// passes, the untraced twin) and the golden row. `golden` is `None` where
/// goldens do not apply and `Some(None)` when the job has no row.
fn check(
    out: &JobOut,
    seen: &mut Option<Outputs>,
    golden: Option<Option<&Outputs>>,
) -> Result<(), String> {
    if let Some(e) = &out.failure {
        return Err(e.clone());
    }
    let got = out.outputs.ok_or("no outputs")?;
    if !report::self_times_add_up(out) {
        return Err("layer self times do not add up to the job's wall time".into());
    }
    match golden {
        Some(None) => return Err("no golden row".into()),
        Some(Some(g)) if *g != got => {
            return Err(format!("outputs {got:?} differ from golden {g:?}"));
        }
        _ => {}
    }
    match seen {
        Some(prev) if *prev != got => Err(format!(
            "outputs {got:?} differ from an earlier run of the same job {prev:?}"
        )),
        _ => {
            *seen = Some(got);
            Ok(())
        }
    }
}

fn json_line(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.failed == 0,
        o.attempted,
        o.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bench_e2e: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let selected: Vec<&Workload> = match &args.workload {
        None => WORKLOADS.iter().collect(),
        Some(name) => match WORKLOADS.iter().find(|w| w.name == name) {
            Some(w) => vec![w],
            None => {
                let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                eprintln!(
                    "bench_e2e: unknown workload {name} (one of {})",
                    names.join(", ")
                );
                return ExitCode::from(2);
            }
        },
    };
    let golden = match parse_golden(GOLDEN) {
        Ok(g) => g,
        Err(e) => {
            eprintln!("bench_e2e: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut regen = std::env::var("REGEN_BENCH_GOLDEN")
        .is_ok_and(|v| v == "1")
        .then(|| golden.clone());
    if regen.is_some() && (args.seed != DEFAULT_SEED || args.smoke || args.trace) {
        eprintln!("bench_e2e: REGEN_BENCH_GOLDEN=1 needs the default seed, no --smoke, no --trace");
        return ExitCode::from(2);
    }

    let mut ok = true;
    for w in &selected {
        if selected.len() > 1 {
            // Reset VmHWM so each workload reports its own peak.
            let _ = std::fs::write("/proc/self/clear_refs", "5");
        }
        let outcome = match run_workload(w, &args, &golden, regen.as_mut()) {
            Ok(o) => o,
            Err(e) => {
                eprintln!("bench_e2e: {e}");
                return ExitCode::FAILURE;
            }
        };
        for line in &outcome.lines {
            println!("{line}");
        }
        if let Some(m) = outcome.metrics.iter().find(|m| !m.value.is_finite()) {
            eprintln!("bench_e2e: {} is not finite", m.name);
            return ExitCode::FAILURE;
        }
        println!("{}", json_line(&outcome));
        ok &= outcome.failed == 0;
    }
    if let Some(rows) = regen {
        if let Err(e) = std::fs::write(GOLDEN_PATH, golden_text(&rows)) {
            eprintln!("bench_e2e: writing {GOLDEN_PATH}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!(
            "bench_e2e: wrote {} golden rows to {GOLDEN_PATH}",
            rows.len()
        );
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

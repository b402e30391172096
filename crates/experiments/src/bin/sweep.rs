//! `sweep` — compile a declarative scenario file and run its sweep matrix
//! under supervision, with crash-surviving resume.
//!
//! ```text
//! sweep scenarios/city-churn.toml [--quick] [--limit N] [--out DIR]
//!       [--retries N] [--dry-run] [--check]
//! sweep --resume DIR
//! ```
//!
//! The file's `[sweep.axes]` cartesian grid is expanded into
//! `configs × variants × seeds` jobs and run through the supervised
//! scatter/gather runner (panic isolation, checkpoint-aware same-seed
//! retries, watchdog livelock classification). Every finished run is
//! appended to `<out>/<name>.jsonl` *as it completes* — a killed sweep
//! still leaves a parseable record — and per-configuration comparison
//! tables land in `<out>/<name>-summary.md` and on stdout.
//!
//! Crash recovery: before running, the sweep writes
//! `<out>/<name>.manifest.json` (scenario file, effective flags, a
//! fingerprint of the expanded grid), and each in-flight cell persists its
//! latest checkpoint to `<out>/<name>.ckpt/job-<idx>.bin`. After a crash or
//! SIGKILL, `sweep --resume <out>` re-expands the grid from the manifest,
//! repairs a truncated trailing JSONL line (truncating to the last complete
//! record and re-running that cell), skips finished cells, and resumes
//! interrupted ones from their on-disk checkpoints. On success the JSONL is
//! rewritten in job order, so a resumed sweep's output is byte-identical to
//! an uninterrupted one; the manifest and checkpoint directory are then
//! removed.
//!
//! Sweeps are capped: the job count must not exceed the file's `limit` (or
//! `--limit`, which overrides it); with no cap declared anywhere, anything
//! above [`DEFAULT_CAP`] jobs is refused. `--quick` shrinks the matrix to a
//! CI-sized smoke run (≤ 2 values per axis, 2 variants, 1 seed, 20 s data
//! window) and suffixes output names with `-quick`.
//!
//! Exit status: 0 when the sweep finished, 1 when it failed (an unreadable
//! or malformed deck, an unwritable output, a refused resume), 2 on a
//! usage error (an unknown flag, a bad value, `--help`, no scenario file,
//! `--resume` with other flags), as for `repro` and `trace`.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use experiments::runner::{run_jobs_supervised_resumable, CheckpointSlot, RunFailure};
use experiments::scenario_compiler::{
    check, compile, expand, job_count, quicken, variant_name, CompiledScenario, SweepJob,
    DEFAULT_CAP,
};
use experiments::stats::{render_table, Summary};
use experiments::RunMeasurement;
use mesh_sim::counters::Counters;
use mesh_sim::time::SimTime;
use odmrp::Variant;

struct Args {
    file: Option<String>,
    quick: bool,
    limit: Option<usize>,
    out: String,
    retries: Option<u32>,
    dry_run: bool,
    check: bool,
    resume: Option<String>,
}

fn parse_args<I: Iterator<Item = String>>(mut it: I) -> Result<Args, String> {
    let mut file = None;
    let mut quick = false;
    let mut limit = None;
    let mut out = "results".to_string();
    let mut retries = None;
    let mut dry_run = false;
    let mut check_only = false;
    let mut resume = None;
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--dry-run" => dry_run = true,
            "--check" => check_only = true,
            "--limit" => {
                let v = it.next().ok_or("--limit needs a value")?;
                limit = Some(
                    v.parse()
                        .map_err(|_| format!("bad value for --limit: {v}"))?,
                );
            }
            "--retries" => {
                let v = it.next().ok_or("--retries needs a value")?;
                retries = Some(
                    v.parse()
                        .map_err(|_| format!("bad value for --retries: {v}"))?,
                );
            }
            "--out" => {
                out = it.next().ok_or("--out needs a value")?;
            }
            "--resume" => {
                resume = Some(it.next().ok_or("--resume needs a directory")?);
            }
            "--help" | "-h" => {
                return Err(
                    "usage: sweep <scenario.toml> [--quick] [--limit N] [--out DIR] \
                     [--retries N] [--dry-run] [--check]\n       sweep --resume DIR"
                        .into(),
                )
            }
            other if other.starts_with('-') => return Err(format!("unknown argument: {other}")),
            other => {
                if file.replace(other.to_string()).is_some() {
                    return Err("exactly one scenario file expected".into());
                }
            }
        }
    }
    if resume.is_some() {
        // The manifest records the scenario file and every effective flag;
        // accepting overrides here would let a resumed grid silently drift
        // from the recorded one.
        if file.is_some() || quick || limit.is_some() || retries.is_some() {
            return Err(
                "--resume takes only a directory; the manifest supplies the scenario \
                 file and flags"
                    .into(),
            );
        }
    } else if file.is_none() {
        return Err(
            "usage: sweep <scenario.toml> [--quick] [--limit N] [--out DIR] | sweep --resume DIR"
                .into(),
        );
    }
    Ok(Args {
        file,
        quick,
        limit,
        out,
        retries,
        dry_run,
        check: check_only,
        resume,
    })
}

/// Minimal JSON string escaping for the JSONL stream.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Decode one flat JSON object (the shapes `jsonl_line` and the manifest
/// write — string / number / bool values, no nesting) into key→raw-value
/// pairs, string values unescaped. `None` on any structural damage, which
/// resume treats as "this record never happened".
fn json_fields(line: &str) -> Option<BTreeMap<String, String>> {
    let mut chars = line.trim().chars().peekable();
    fn skip_ws(it: &mut std::iter::Peekable<std::str::Chars<'_>>) {
        while it.peek().is_some_and(|c| c.is_ascii_whitespace()) {
            it.next();
        }
    }
    fn parse_string(it: &mut std::iter::Peekable<std::str::Chars<'_>>) -> Option<String> {
        if it.next()? != '"' {
            return None;
        }
        let mut s = String::new();
        loop {
            match it.next()? {
                '"' => return Some(s),
                '\\' => match it.next()? {
                    '"' => s.push('"'),
                    '\\' => s.push('\\'),
                    'n' => s.push('\n'),
                    'r' => s.push('\r'),
                    't' => s.push('\t'),
                    'u' => {
                        let hex: String = (0..4).map_while(|_| it.next()).collect();
                        let code = u32::from_str_radix(&hex, 16).ok()?;
                        s.push(char::from_u32(code)?);
                    }
                    _ => return None,
                },
                c => s.push(c),
            }
        }
    }
    let mut fields = BTreeMap::new();
    skip_ws(&mut chars);
    if chars.next()? != '{' {
        return None;
    }
    loop {
        skip_ws(&mut chars);
        if chars.peek() == Some(&'}') {
            chars.next();
            break;
        }
        let key = parse_string(&mut chars)?;
        skip_ws(&mut chars);
        if chars.next()? != ':' {
            return None;
        }
        skip_ws(&mut chars);
        let value = if chars.peek() == Some(&'"') {
            parse_string(&mut chars)?
        } else {
            let mut v = String::new();
            while let Some(&c) = chars.peek() {
                if c == ',' || c == '}' {
                    break;
                }
                v.push(c);
                chars.next();
            }
            v.trim().to_string()
        };
        fields.insert(key, value);
        skip_ws(&mut chars);
        match chars.next()? {
            ',' => {}
            '}' => break,
            _ => return None,
        }
    }
    Some(fields)
}

/// One JSONL line per finished run; `ok` discriminates the two shapes.
fn jsonl_line(job: &SweepJob, result: &Result<RunMeasurement, RunFailure>) -> String {
    let head = format!(
        "{{\"config\":{},\"label\":{},\"variant\":{},\"seed\":{}",
        job.config,
        json_str(&job.label),
        json_str(variant_name(job.variant)),
        job.seed
    );
    match result {
        Ok(m) => format!(
            "{head},\"ok\":true,\"pdr\":{:?},\"sent\":{},\"expected\":{},\"delivered\":{},\
             \"mean_delay_s\":{:?},\"probe_overhead_pct\":{:?},\"schedule_hash\":{}}}",
            m.pdr(),
            m.sent,
            m.expected,
            m.delivered,
            m.mean_delay_s,
            m.probe_overhead_pct,
            m.schedule_hash
        ),
        Err(f) => format!(
            "{head},\"ok\":false,\"attempts\":{},\"livelock\":{},\"reason\":{}}}",
            f.attempts,
            f.livelock,
            json_str(&f.reason)
        ),
    }
}

/// Rebuild the outcome a finished JSONL record described, so a resumed
/// sweep's summary covers recovered cells too. Counters and timeseries are
/// not in the stream; the summary only needs the headline measurements.
fn result_from_fields(
    job: &SweepJob,
    f: &BTreeMap<String, String>,
) -> Option<Result<RunMeasurement, RunFailure>> {
    match f.get("ok")?.as_str() {
        "true" => Some(Ok(RunMeasurement {
            variant: job.variant,
            seed: job.seed,
            sent: f.get("sent")?.parse().ok()?,
            expected: f.get("expected")?.parse().ok()?,
            delivered: f.get("delivered")?.parse().ok()?,
            mean_delay_s: f.get("mean_delay_s")?.parse().ok()?,
            probe_overhead_pct: f.get("probe_overhead_pct")?.parse().ok()?,
            counters: Counters::default(),
            schedule_hash: f.get("schedule_hash")?.parse().ok()?,
            timeseries: None,
        })),
        "false" => Some(Err(RunFailure {
            variant: job.variant,
            seed: job.seed,
            attempts: f.get("attempts")?.parse().ok()?,
            resume_points: Vec::new(),
            livelock: f.get("livelock")? == "true",
            reason: f.get("reason")?.clone(),
        })),
        _ => None,
    }
}

/// FNV-1a over the expanded grid: every job's `(config, label, variant,
/// seed)` plus the sweep name. A resumed sweep recompiles the scenario file
/// and refuses to continue if this drifted — a changed deck means the
/// recorded results and the pending jobs no longer describe the same grid.
fn grid_fingerprint(name: &str, jobs: &[SweepJob]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut fold = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    };
    fold(name.as_bytes());
    for j in jobs {
        fold(&(j.config as u64).to_le_bytes());
        fold(j.label.as_bytes());
        fold(variant_name(j.variant).as_bytes());
        fold(&j.seed.to_le_bytes());
    }
    h
}

/// Everything `--resume` needs to reconstruct the sweep.
struct Manifest {
    scenario_file: String,
    name: String,
    quick: bool,
    retries: u32,
    limit: Option<usize>,
    jobs: usize,
    grid: u64,
}

impl Manifest {
    fn render(&self) -> String {
        format!(
            "{{\"scenario_file\":{},\"name\":{},\"quick\":{},\"retries\":{},\"limit\":{},\
             \"jobs\":{},\"grid_fingerprint\":{}}}\n",
            json_str(&self.scenario_file),
            json_str(&self.name),
            self.quick,
            self.retries,
            self.limit.map_or("null".to_string(), |l| l.to_string()),
            self.jobs,
            self.grid,
        )
    }

    fn parse(text: &str) -> Result<Manifest, String> {
        let f = json_fields(text).ok_or("manifest is not a flat JSON object")?;
        let get = |k: &str| f.get(k).ok_or_else(|| format!("manifest missing `{k}`"));
        Ok(Manifest {
            scenario_file: get("scenario_file")?.clone(),
            name: get("name")?.clone(),
            quick: get("quick")? == "true",
            retries: get("retries")?
                .parse()
                .map_err(|_| "bad `retries` in manifest")?,
            limit: match get("limit")?.as_str() {
                "null" => None,
                v => Some(v.parse().map_err(|_| "bad `limit` in manifest")?),
            },
            jobs: get("jobs")?.parse().map_err(|_| "bad `jobs` in manifest")?,
            grid: get("grid_fingerprint")?
                .parse()
                .map_err(|_| "bad `grid_fingerprint` in manifest")?,
        })
    }
}

fn manifest_path(out: &str, name: &str) -> PathBuf {
    Path::new(out).join(format!("{name}.manifest.json"))
}

fn ckpt_dir(out: &str, name: &str) -> PathBuf {
    Path::new(out).join(format!("{name}.ckpt"))
}

fn ckpt_file(dir: &Path, job: usize) -> PathBuf {
    dir.join(format!("job-{job}.bin"))
}

/// Persist one cell checkpoint: 8-byte LE sim-time-nanos prefix, then the
/// snapshot bytes. Written to a temp file and renamed so a SIGKILL can
/// never leave a half-written checkpoint behind. Best-effort: a full disk
/// must not panic the worker (that would read as a sim failure).
fn write_ckpt(dir: &Path, job: usize, at: SimTime, bytes: &[u8]) {
    let tmp = dir.join(format!("job-{job}.tmp"));
    let mut buf = Vec::with_capacity(8 + bytes.len());
    buf.extend_from_slice(&at.as_nanos().to_le_bytes());
    buf.extend_from_slice(bytes);
    if std::fs::write(&tmp, &buf).is_ok() {
        let _ = std::fs::rename(&tmp, ckpt_file(dir, job));
    }
}

/// Load a persisted cell checkpoint, if one survived. A damaged file is
/// simply ignored — the cell then restarts from scratch, which is always
/// correct, just slower.
fn read_ckpt(dir: &Path, job: usize) -> Option<(SimTime, Vec<u8>)> {
    let buf = std::fs::read(ckpt_file(dir, job)).ok()?;
    if buf.len() < 8 {
        return None;
    }
    let nanos = u64::from_le_bytes(buf[..8].try_into().expect("8-byte prefix"));
    Some((SimTime::from_nanos(nanos), buf[8..].to_vec()))
}

fn mean_ci(s: &Summary) -> String {
    format!("{:.3} ± {:.3}", s.mean, s.ci95_half_width())
}

/// Render the per-configuration comparison tables plus a failure appendix.
fn summary_markdown(
    name: &str,
    jobs: &[SweepJob],
    runs: &[Result<RunMeasurement, RunFailure>],
) -> String {
    let mut md = String::new();
    md.push_str(&format!("# sweep `{name}`\n\n"));
    let ok = runs.iter().filter(|r| r.is_ok()).count();
    md.push_str(&format!(
        "{ok}/{} runs succeeded ({} salvaged as failures).\n",
        runs.len(),
        runs.len() - ok
    ));

    let n_configs = jobs.iter().map(|j| j.config).max().map_or(0, |c| c + 1);
    for config in 0..n_configs {
        let label = jobs
            .iter()
            .find(|j| j.config == config)
            .map(|j| j.label.as_str())
            .unwrap_or("");
        let title = if label.is_empty() {
            "base scenario"
        } else {
            label
        };
        md.push_str(&format!("\n## config {config}: {title}\n\n"));

        // Variants in first-seen job order for this config.
        let mut variants: Vec<Variant> = Vec::new();
        for j in jobs.iter().filter(|j| j.config == config) {
            if !variants.contains(&j.variant) {
                variants.push(j.variant);
            }
        }
        let mut rows = Vec::new();
        for &variant in &variants {
            let idx: Vec<usize> = (0..jobs.len())
                .filter(|&i| jobs[i].config == config && jobs[i].variant == variant)
                .collect();
            let good: Vec<&RunMeasurement> =
                idx.iter().filter_map(|&i| runs[i].as_ref().ok()).collect();
            let pdr = Summary::of(good.iter().map(|m| m.pdr()));
            let delay = Summary::of(good.iter().map(|m| m.mean_delay_s));
            let overhead = Summary::of(good.iter().map(|m| m.probe_overhead_pct));
            rows.push(vec![
                variant_name(variant).to_string(),
                format!("{}/{}", good.len(), idx.len()),
                mean_ci(&pdr),
                format!("{:.4}", delay.mean),
                format!("{:.2}", overhead.mean),
            ]);
        }
        md.push_str("```\n");
        md.push_str(&render_table(
            &[
                "variant",
                "runs",
                "PDR (mean ± 95% CI)",
                "delay s",
                "probe %",
            ],
            &rows,
        ));
        md.push_str("```\n");
    }

    let failures: Vec<(usize, &RunFailure)> = runs
        .iter()
        .enumerate()
        .filter_map(|(i, r)| r.as_ref().err().map(|f| (i, f)))
        .collect();
    if !failures.is_empty() {
        md.push_str("\n## failures\n\n");
        for (i, f) in failures {
            md.push_str(&format!(
                "- job {i} (config {}, {} seed {}): {} after {} attempt(s){}\n",
                jobs[i].config,
                variant_name(f.variant),
                f.seed,
                f.reason.lines().next().unwrap_or("panic"),
                f.attempts,
                f.livelock_tag()
            ));
            if let Some(trail) = f.resume_trail() {
                md.push_str(&format!("  - attempts started from: {trail}\n"));
            }
        }
    }
    md
}

/// Compile + expand one scenario file with the given effective flags.
fn expand_grid(
    file: &str,
    quick: bool,
    retries: Option<u32>,
    limit: Option<usize>,
) -> Result<(CompiledScenario, Vec<SweepJob>, String), String> {
    let src = std::fs::read_to_string(file).map_err(|e| format!("cannot read {file}: {e}"))?;
    let mut compiled: CompiledScenario = compile(&src).map_err(|e| format!("{file}: {e}"))?;
    if quick {
        quicken(&mut compiled);
    }
    if let Some(r) = retries {
        compiled.sweep.retries = r;
    }
    if let Some(l) = limit {
        compiled.sweep.limit = Some(l);
    }
    let count = job_count(&compiled.sweep);
    let cap = compiled.sweep.limit.unwrap_or(DEFAULT_CAP);
    if count > cap {
        return Err(format!(
            "sweep expands to {count} runs, above the cap of {cap} — raise it with --limit \
             (or a `limit` key in [sweep])"
        ));
    }
    let jobs = expand(&compiled)?;
    let name = if quick {
        format!("{}-quick", compiled.scenario.name)
    } else {
        compiled.scenario.name.clone()
    };
    Ok((compiled, jobs, name))
}

/// One recovered sweep cell: the original JSONL line (kept verbatim so the
/// final rewrite is byte-identical) plus the parsed result, or `None` if
/// the cell never finished.
type RecoveredCell = Option<(String, Result<RunMeasurement, RunFailure>)>;

/// Recover a crashed sweep's progress from `<out>/<name>.jsonl`: map every
/// complete record back to its job index. A truncated trailing line (the
/// SIGKILL landed mid-append) is repaired by truncating the file to the
/// last complete record; that cell simply re-runs.
fn recover_jsonl(jsonl_path: &Path, jobs: &[SweepJob]) -> Result<Vec<RecoveredCell>, String> {
    let mut done: Vec<RecoveredCell> = jobs.iter().map(|_| None).collect();
    let raw = match std::fs::read_to_string(jsonl_path) {
        Ok(r) => r,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(done),
        Err(e) => return Err(format!("cannot read {}: {e}", jsonl_path.display())),
    };
    let complete = match raw.rfind('\n') {
        Some(last_nl) if last_nl + 1 < raw.len() => {
            eprintln!(
                "resume: {} has a truncated trailing record ({} bytes); truncating to the \
                 last complete line and re-running that cell",
                jsonl_path.display(),
                raw.len() - last_nl - 1
            );
            let complete = &raw[..=last_nl];
            std::fs::write(jsonl_path, complete)
                .map_err(|e| format!("cannot repair {}: {e}", jsonl_path.display()))?;
            complete
        }
        Some(_) => raw.as_str(),
        None if raw.is_empty() => return Ok(done),
        None => {
            // A single partial line and no newline at all: nothing usable.
            eprintln!(
                "resume: {} holds only a truncated record; starting the grid over",
                jsonl_path.display()
            );
            std::fs::write(jsonl_path, "")
                .map_err(|e| format!("cannot repair {}: {e}", jsonl_path.display()))?;
            return Ok(done);
        }
    };

    let mut index: BTreeMap<(usize, String, u64), usize> = BTreeMap::new();
    for (i, j) in jobs.iter().enumerate() {
        index.insert((j.config, variant_name(j.variant).to_string(), j.seed), i);
    }
    for line in complete.lines() {
        let Some(fields) = json_fields(line) else {
            eprintln!("resume: skipping unparseable record: {line}");
            continue;
        };
        let key = (|| {
            Some((
                fields.get("config")?.parse::<usize>().ok()?,
                fields.get("variant")?.clone(),
                fields.get("seed")?.parse::<u64>().ok()?,
            ))
        })();
        let Some(key) = key else {
            eprintln!("resume: skipping record without a job key: {line}");
            continue;
        };
        let Some(&i) = index.get(&key) else {
            eprintln!(
                "resume: record for unknown cell (config {}, {} seed {}) ignored",
                key.0, key.1, key.2
            );
            continue;
        };
        match result_from_fields(&jobs[i], &fields) {
            Some(outcome) => done[i] = Some((line.to_string(), outcome)),
            None => eprintln!("resume: re-running job {i}: unreadable record: {line}"),
        }
    }
    Ok(done)
}

fn run(args: &Args) -> Result<(), String> {
    if args.check {
        let file = args
            .file
            .as_deref()
            .ok_or("--check needs a scenario file")?;
        let src = std::fs::read_to_string(file).map_err(|e| format!("cannot read {file}: {e}"))?;
        // The same static check the tests run on every committed deck:
        // compile, cap validation, full expansion — nothing runs.
        let report = check(&src).map_err(|e| format!("{file}: {e}"))?;
        println!(
            "{}: ok — {} jobs over {} config(s), cap {}",
            report.name, report.jobs, report.configs, report.cap
        );
        return Ok(());
    }

    // Resolve the grid: either from the CLI (fresh sweep) or the manifest
    // (resumed sweep), plus whatever finished results already exist.
    let (compiled, jobs, name, out_dir, done) = if let Some(dir) = &args.resume {
        let mut manifests: Vec<PathBuf> = std::fs::read_dir(dir)
            .map_err(|e| format!("cannot read {dir}: {e}"))?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.ends_with(".manifest.json"))
            })
            .collect();
        manifests.sort();
        let manifest_file = match manifests.len() {
            0 => {
                return Err(format!(
                    "nothing to resume in {dir}: no .manifest.json (the sweep either \
                     finished — manifests are removed on success — or never started)"
                ))
            }
            1 => manifests.remove(0),
            _ => {
                return Err(format!(
                    "{dir} holds {} manifests ({}); resume them from separate directories",
                    manifests.len(),
                    manifests
                        .iter()
                        .filter_map(|p| p.file_name().and_then(|n| n.to_str()))
                        .collect::<Vec<_>>()
                        .join(", ")
                ))
            }
        };
        let text = std::fs::read_to_string(&manifest_file)
            .map_err(|e| format!("cannot read {}: {e}", manifest_file.display()))?;
        let m = Manifest::parse(&text).map_err(|e| format!("{}: {e}", manifest_file.display()))?;
        let (compiled, jobs, name) =
            expand_grid(&m.scenario_file, m.quick, Some(m.retries), m.limit)?;
        if name != m.name {
            return Err(format!(
                "manifest names sweep `{}` but {} now compiles to `{name}`",
                m.name, m.scenario_file
            ));
        }
        if jobs.len() != m.jobs || grid_fingerprint(&name, &jobs) != m.grid {
            return Err(format!(
                "{} changed since the sweep started (grid fingerprint drifted); \
                 the recorded results no longer describe the same jobs",
                m.scenario_file
            ));
        }
        let jsonl_path = Path::new(dir).join(format!("{name}.jsonl"));
        let done = recover_jsonl(&jsonl_path, &jobs)?;
        (compiled, jobs, name, dir.clone(), done)
    } else {
        let file = args.file.as_deref().expect("checked in parse_args");
        let (compiled, jobs, name) = expand_grid(file, args.quick, args.retries, args.limit)?;
        let done = jobs.iter().map(|_| None).collect();
        (compiled, jobs, name, args.out.clone(), done)
    };

    let recovered = done.iter().filter(|d| d.is_some()).count();
    let pending: Vec<usize> = (0..jobs.len()).filter(|&i| done[i].is_none()).collect();
    eprintln!(
        "sweep `{name}`: {} jobs ({} configs x {} variants x {} seeds), retries {}{}",
        jobs.len(),
        jobs.iter().map(|j| j.config).max().map_or(0, |c| c + 1),
        compiled.sweep.variants.len(),
        compiled.sweep.seeds,
        compiled.sweep.retries,
        if args.resume.is_some() {
            format!(
                " — resuming, {recovered} recovered, {} to run",
                pending.len()
            )
        } else {
            String::new()
        }
    );
    if args.dry_run {
        for (i, j) in jobs.iter().enumerate() {
            println!(
                "{i:4}  config {}  {}  {} seed {}",
                j.config,
                if j.label.is_empty() { "-" } else { &j.label },
                variant_name(j.variant),
                j.seed
            );
        }
        return Ok(());
    }

    std::fs::create_dir_all(&out_dir).map_err(|e| format!("cannot create {out_dir}: {e}"))?;
    let jsonl_path = format!("{out_dir}/{name}.jsonl");
    let mut jsonl = if args.resume.is_some() {
        std::io::BufWriter::new(
            std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(&jsonl_path)
                .map_err(|e| format!("cannot open {jsonl_path}: {e}"))?,
        )
    } else {
        std::io::BufWriter::new(
            std::fs::File::create(&jsonl_path)
                .map_err(|e| format!("cannot create {jsonl_path}: {e}"))?,
        )
    };

    // The crash-recovery trio: manifest (what the grid is), per-cell
    // checkpoints (how far each in-flight cell got), JSONL (which cells
    // finished). All three survive a SIGKILL; all three are cleaned up on a
    // successful finish.
    let ckpts = ckpt_dir(&out_dir, &name);
    std::fs::create_dir_all(&ckpts)
        .map_err(|e| format!("cannot create {}: {e}", ckpts.display()))?;
    let manifest = Manifest {
        scenario_file: args.file.clone().unwrap_or_else(|| "resumed".to_string()),
        name: name.clone(),
        quick: args.quick,
        retries: compiled.sweep.retries,
        limit: compiled.sweep.limit,
        jobs: jobs.len(),
        grid: grid_fingerprint(&name, &jobs),
    };
    if args.resume.is_none() {
        std::fs::write(manifest_path(&out_dir, &name), manifest.render())
            .map_err(|e| format!("cannot write manifest: {e}"))?;
    }

    // `lines[i]` collects every job's JSONL record — recovered or fresh —
    // so the file can be rewritten in job order at the end: a resumed sweep
    // then produces byte-identical output to an uninterrupted one.
    let mut lines: Vec<Option<String>> = done
        .iter()
        .map(|d| d.as_ref().map(|(line, _)| line.clone()))
        .collect();
    let mut runs: Vec<Option<Result<RunMeasurement, RunFailure>>> =
        done.into_iter().map(|d| d.map(|(_, r)| r)).collect();

    let pairs: Vec<(Variant, u64)> = pending
        .iter()
        .map(|&i| (jobs[i].variant, jobs[i].seed))
        .collect();
    let started = std::time::Instant::now();
    let total = pairs.len();
    let mut done_count = 0usize;
    // An append failure (disk full, file yanked) must not panic the whole
    // sweep from inside the progress callback: record the first error, stop
    // writing, and surface it once the in-flight jobs have drained.
    let mut jsonl_err: Option<std::io::Error> = None;
    let report = run_jobs_supervised_resumable(
        &pairs,
        compiled.sweep.retries,
        |pi, v, s, slot: &CheckpointSlot| {
            let i = pending[pi];
            // First attempt after a process-level crash: adopt the cell's
            // on-disk checkpoint so the rerun starts mid-run, not at t = 0.
            if slot.time().is_none() {
                if let Some((t, bytes)) = read_ckpt(&ckpts, i) {
                    slot.store(t, bytes);
                }
            }
            jobs[i]
                .scenario
                .run_supervised_checkpointed(v, s, slot, |at, bytes| {
                    write_ckpt(&ckpts, i, at, bytes);
                })
        },
        |pi, result| {
            let i = pending[pi];
            if jsonl_err.is_none() {
                let line = jsonl_line(&jobs[i], result);
                jsonl_err = writeln!(jsonl, "{line}").and_then(|()| jsonl.flush()).err();
                lines[i] = Some(line);
            }
            let _ = std::fs::remove_file(ckpt_file(&ckpts, i));
            done_count += 1;
            match result {
                Ok(m) => eprintln!(
                    "[{done_count}/{total}] ok   config {} {} seed {}: pdr {:.3}",
                    jobs[i].config,
                    variant_name(jobs[i].variant),
                    jobs[i].seed,
                    m.pdr()
                ),
                Err(f) => eprintln!(
                    "[{done_count}/{total}] FAIL config {} {} seed {}: {}{}",
                    jobs[i].config,
                    variant_name(jobs[i].variant),
                    jobs[i].seed,
                    f.reason.lines().next().unwrap_or("panic"),
                    f.livelock_tag()
                ),
            }
        },
    );
    drop(jsonl);
    if let Some(e) = jsonl_err {
        return Err(format!(
            "cannot append to {jsonl_path}: {e} (the sweep kept running; later results \
             were not recorded)"
        ));
    }
    for (pi, r) in report.runs.into_iter().enumerate() {
        runs[pending[pi]] = Some(r);
    }
    let runs: Vec<Result<RunMeasurement, RunFailure>> = runs
        .into_iter()
        .map(|r| r.expect("every job ran or was recovered"))
        .collect();

    // Canonicalize: the streamed file is in completion order (and, resumed,
    // split across processes); rewrite it in job order via a temp file so
    // the final artifact is deterministic byte-for-byte.
    let canonical: String = lines
        .into_iter()
        .map(|l| {
            let mut l = l.expect("every job has a record");
            l.push('\n');
            l
        })
        .collect();
    let tmp = format!("{jsonl_path}.tmp");
    std::fs::write(&tmp, &canonical).map_err(|e| format!("cannot write {tmp}: {e}"))?;
    std::fs::rename(&tmp, &jsonl_path).map_err(|e| format!("cannot finalize {jsonl_path}: {e}"))?;
    eprintln!(
        "sweep `{name}`: {} runs ({recovered} recovered) in {:.1}s, JSONL at {jsonl_path}",
        runs.len(),
        started.elapsed().as_secs_f64()
    );

    let md = summary_markdown(&name, &jobs, &runs);
    let md_path = format!("{out_dir}/{name}-summary.md");
    std::fs::write(&md_path, &md).map_err(|e| format!("cannot write {md_path}: {e}"))?;
    println!("{md}");
    eprintln!("summary at {md_path}");

    // A finished sweep needs no recovery state.
    let _ = std::fs::remove_file(manifest_path(&out_dir, &name));
    let _ = std::fs::remove_dir_all(&ckpts);
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("sweep: {e}");
            ExitCode::FAILURE
        }
    }
}

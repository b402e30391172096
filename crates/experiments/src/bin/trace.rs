//! Packet-lifecycle trace tooling over the `mesh_sim::trace` JSONL format.
//!
//! Subcommands:
//!
//! * `run` — run a short traced scenario and write a JSONL trace file;
//! * `filter` — print the events matching node/class/frame/kind/time filters;
//! * `lifecycle` — reconstruct one packet's life (by frame id or MAC seq);
//! * `drops` — histogram of `rx_drop` reasons;
//! * `validate` — parse every line, failing loudly on the first bad one;
//! * `bisect` — binary-search checkpoint times to localize the first event
//!   where a resumed run diverges from the uninterrupted one (a broken
//!   `Snap`/`SnapshotState` impl shows up here as a narrow time window).
//!
//! See TESTING.md for the debugging workflow this supports.

use std::io::{BufRead, BufReader};

use experiments::scenario::MeshScenario;
use experiments::scenario_compiler::{FaultSpec, WorkloadScenario};
use experiments::stats::render_table;
use experiments::{run, RunSpec};
use mesh_sim::time::SimTime;
use mesh_sim::trace::{JsonlTrace, TraceEvent, TraceEventKind};
use odmrp::Variant;

const USAGE: &str = "usage: trace <subcommand> [options]

  run       --out FILE [--seed N] [--faults X]   run a short traced scenario
  filter    FILE [--node N] [--class C] [--frame F] [--ev NAME]
                 [--from SECS] [--to SECS]       print matching JSONL events
  lifecycle FILE (--frame F | --seq S)           one packet's full life
  drops     FILE                                 rx_drop reason histogram
  validate  FILE                                 parse-check every line
  bisect    [--seed N] [--faults X] [--variant V] [--probes K]
                                                 localize the first snapshot
                                                 time whose resume diverges";

fn die(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}

fn parse_u64(flag: &str, v: Option<String>) -> u64 {
    let Some(v) = v else {
        die(&format!("{flag} needs a value"));
    };
    v.parse()
        .unwrap_or_else(|_| die(&format!("bad value for {flag}: {v}")))
}

fn parse_f64(flag: &str, v: Option<String>) -> f64 {
    let Some(v) = v else {
        die(&format!("{flag} needs a value"));
    };
    v.parse()
        .unwrap_or_else(|_| die(&format!("bad value for {flag}: {v}")))
}

/// A deliberately small mesh: enough traffic for every event kind in a few
/// wall-clock seconds. `faults` draws a random plan at that intensity.
fn small_mesh(faults: Option<f64>) -> WorkloadScenario {
    let mut w = WorkloadScenario::from_mesh(
        "trace-bisect",
        MeshScenario {
            nodes: 25,
            area_side: 700.0,
            data_start: SimTime::from_secs(5),
            data_stop: SimTime::from_secs(15),
            ..MeshScenario::paper_default()
        },
    );
    if let Some(x) = faults {
        w.faults = FaultSpec::Random { intensity: x };
    }
    w
}

/// Read and parse every line of a JSONL trace file; line numbers are
/// 1-based in error messages.
fn load(path: &str) -> Vec<TraceEvent> {
    let file = std::fs::File::open(path).unwrap_or_else(|e| die(&format!("open {path}: {e}")));
    let mut events = Vec::new();
    for (i, line) in BufReader::new(file).lines().enumerate() {
        let line = line.unwrap_or_else(|e| die(&format!("read {path}: {e}")));
        if line.is_empty() {
            continue;
        }
        match TraceEvent::parse_jsonl(&line) {
            Ok(e) => events.push(e),
            Err(e) => die(&format!("{path}:{}: {e}", i + 1)),
        }
    }
    events
}

fn cmd_run(mut args: std::vec::IntoIter<String>) {
    let mut out = String::from("results/trace.jsonl");
    let mut seed = 1u64;
    let mut faults: Option<f64> = None;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--out" => out = args.next().unwrap_or_else(|| die("--out needs a value")),
            "--seed" => seed = parse_u64("--seed", args.next()),
            "--faults" => faults = Some(parse_f64("--faults", args.next())),
            other => die(&format!("unknown argument: {other}")),
        }
    }
    let scenario = small_mesh(faults);
    if let Some(dir) = std::path::Path::new(&out).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).unwrap_or_else(|e| die(&format!("mkdir {dir:?}: {e}")));
        }
    }
    let sink = JsonlTrace::create(&out).unwrap_or_else(|e| die(&format!("create {out}: {e}")));
    let spec = RunSpec::new(&scenario, Variant::Original, seed).trace(Box::new(sink));
    let m = run(&spec);
    let mut sink = spec.take_trace().expect("sink returned");
    let jsonl: &mut JsonlTrace = sink
        .as_any_mut()
        .downcast_mut()
        .expect("JsonlTrace installed");
    let lines = jsonl
        .finish()
        .unwrap_or_else(|e| die(&format!("write {out}: {e}")));
    println!(
        "wrote {lines} events to {out} (seed {seed}, delivered {}, pdr {:.3}, schedule hash {:#018x})",
        m.delivered,
        m.pdr(),
        m.schedule_hash
    );
}

fn cmd_filter(mut args: std::vec::IntoIter<String>) {
    let path = args.next().unwrap_or_else(|| die(USAGE));
    let mut node: Option<u64> = None;
    let mut class: Option<u64> = None;
    let mut frame: Option<u64> = None;
    let mut ev: Option<String> = None;
    let mut from: Option<f64> = None;
    let mut to: Option<f64> = None;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--node" => node = Some(parse_u64("--node", args.next())),
            "--class" => class = Some(parse_u64("--class", args.next())),
            "--frame" => frame = Some(parse_u64("--frame", args.next())),
            "--ev" => ev = Some(args.next().unwrap_or_else(|| die("--ev needs a value"))),
            "--from" => from = Some(parse_f64("--from", args.next())),
            "--to" => to = Some(parse_f64("--to", args.next())),
            other => die(&format!("unknown argument: {other}")),
        }
    }
    let mut shown = 0u64;
    for e in load(&path) {
        if let Some(n) = node {
            if e.node.map(|x| x.index() as u64) != Some(n) {
                continue;
            }
        }
        if let Some(c) = class {
            if e.class.map(u64::from) != Some(c) {
                continue;
            }
        }
        if let Some(f) = frame {
            if e.frame.map(|x| x.as_u64()) != Some(f) {
                continue;
            }
        }
        if let Some(name) = &ev {
            if e.ev_name() != name {
                continue;
            }
        }
        let t = e.at().as_secs_f64();
        if from.is_some_and(|f| t < f) || to.is_some_and(|f| t > f) {
            continue;
        }
        println!("{}", e.to_jsonl());
        shown += 1;
    }
    eprintln!("{shown} events matched");
}

fn describe(e: &TraceEvent) -> String {
    match e.kind {
        TraceEventKind::TxStart {
            frame_kind,
            dst,
            bytes,
        } => match dst {
            Some(d) => format!("{} tx start -> {d} ({bytes} B)", frame_kind.label()),
            None => format!("{} tx start, broadcast ({bytes} B)", frame_kind.label()),
        },
        TraceEventKind::RxStart { src } => format!("rx start from {src}"),
        TraceEventKind::RxDrop { reason } => format!("DROPPED: {}", reason.label()),
        TraceEventKind::Delivered { src, frame_kind } => {
            format!("{} delivered from {src}", frame_kind.label())
        }
        TraceEventKind::QueueDrop => "queue drop (MAC queue full)".to_string(),
        TraceEventKind::Retry { attempt } => format!("retry, attempt {attempt}"),
        TraceEventKind::FaultApplied { fault, peer } => match peer {
            Some(p) => format!("fault: {fault} (peer {p})"),
            None => format!("fault: {fault}"),
        },
        TraceEventKind::ProtocolDecision { decision } => {
            format!("decision: {}", decision.label())
        }
    }
}

fn cmd_lifecycle(mut args: std::vec::IntoIter<String>) {
    let path = args.next().unwrap_or_else(|| die(USAGE));
    let mut frame: Option<u64> = None;
    let mut seq: Option<u64> = None;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--frame" => frame = Some(parse_u64("--frame", args.next())),
            "--seq" => seq = Some(parse_u64("--seq", args.next())),
            other => die(&format!("unknown argument: {other}")),
        }
    }
    if frame.is_none() && seq.is_none() {
        die("lifecycle needs --frame F or --seq S");
    }
    let rows: Vec<Vec<String>> = load(&path)
        .iter()
        .filter(|e| {
            let frame_hit = frame.is_some() && e.frame.map(|x| x.as_u64()) == frame;
            let seq_hit = seq.is_some() && e.seq == seq;
            frame_hit || seq_hit
        })
        .map(|e| {
            vec![
                format!("{:.6}", e.at().as_secs_f64()),
                e.node.map(|n| n.to_string()).unwrap_or_default(),
                e.frame.map(|f| f.to_string()).unwrap_or_default(),
                e.seq.map(|s| s.to_string()).unwrap_or_default(),
                describe(e),
            ]
        })
        .collect();
    if rows.is_empty() {
        die("no events match that frame/seq");
    }
    print!(
        "{}",
        render_table(&["t (s)", "node", "frame", "seq", "event"], &rows)
    );
}

fn cmd_drops(mut args: std::vec::IntoIter<String>) {
    let path = args.next().unwrap_or_else(|| die(USAGE));
    if let Some(a) = args.next() {
        die(&format!("unknown argument: {a}"));
    }
    use mesh_sim::trace::DropReason;
    let mut counts = [0u64; DropReason::ALL.len()];
    let mut total = 0u64;
    for e in load(&path) {
        if let TraceEventKind::RxDrop { reason } = e.kind {
            let i = DropReason::ALL
                .iter()
                .position(|&r| r == reason)
                .expect("reason in ALL");
            counts[i] += 1;
            total += 1;
        }
    }
    let rows: Vec<Vec<String>> = DropReason::ALL
        .iter()
        .zip(counts.iter())
        .filter(|(_, &c)| c > 0)
        .map(|(r, &c)| {
            vec![
                r.label().to_string(),
                c.to_string(),
                if total > 0 {
                    format!("{:.1}", 100.0 * c as f64 / total as f64)
                } else {
                    "0.0".to_string()
                },
            ]
        })
        .collect();
    print!("{}", render_table(&["reason", "count", "%"], &rows));
    println!("total: {total}");
}

/// Binary-search checkpoint times on the bisect scenario: find the earliest
/// snapshot time whose resumed run no longer reproduces the uninterrupted
/// run's schedule hash. On a healthy tree every probe resumes exactly and
/// the command reports so; after a checkpoint regression the reported
/// window brackets the first event whose state round-trips unfaithfully.
fn cmd_bisect(mut args: std::vec::IntoIter<String>) {
    use experiments::scenario_compiler::parse_variant;

    let mut seed = 1u64;
    let mut faults: Option<f64> = None;
    let mut variant = Variant::Original;
    let mut probes = 8u64;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--seed" => seed = parse_u64("--seed", args.next()),
            "--faults" => faults = Some(parse_f64("--faults", args.next())),
            "--probes" => probes = parse_u64("--probes", args.next()).max(1),
            "--variant" => {
                let v = args
                    .next()
                    .unwrap_or_else(|| die("--variant needs a value"));
                variant = parse_variant(&v).unwrap_or_else(|e| die(&e));
            }
            other => die(&format!("unknown argument: {other}")),
        }
    }
    // The same small mesh `trace run` uses.
    let w = small_mesh(faults);
    let end = w.run_until();
    let fp = w.fingerprint(variant, seed);

    let mut reference = w.build(variant, seed);
    reference.run_until(end);
    let want = reference.schedule_hash();

    // One probe: snapshot the run at `t`, restore into a fresh simulator,
    // run out the horizon, and compare final schedule hashes.
    let resumed_hash = |t: SimTime| -> u64 {
        let mut donor = w.build(variant, seed);
        donor.run_until(t);
        let bytes = donor.snapshot(fp);
        let mut resumed = w.build(variant, seed);
        resumed
            .restore(&bytes, fp)
            .unwrap_or_else(|e| die(&format!("snapshot at {t} failed to restore: {e}")));
        resumed.run_until(end);
        resumed.schedule_hash()
    };

    // Coarse scan for the first divergent probe, then binary search the
    // good→bad boundary down to 1 ms of sim time.
    let mut last_good = SimTime::from_nanos(0);
    let mut first_bad: Option<(SimTime, u64)> = None;
    for i in 1..=probes {
        let t = SimTime::from_nanos(end.as_nanos() * i / (probes + 1));
        let got = resumed_hash(t);
        let verdict = if got == want { "ok" } else { "DIVERGED" };
        eprintln!("probe {i}/{probes} at {t}: {verdict}");
        if got == want {
            last_good = t;
        } else {
            first_bad = Some((t, got));
            break;
        }
    }
    let Some((mut bad, mut bad_hash)) = first_bad else {
        println!("no divergence: {probes} resume points all reproduce schedule hash {want:#018x}");
        return;
    };
    let resolution = 1_000_000; // 1 ms in nanos
    while bad.as_nanos() - last_good.as_nanos() > resolution {
        let mid = SimTime::from_nanos((last_good.as_nanos() + bad.as_nanos()) / 2);
        let got = resumed_hash(mid);
        eprintln!(
            "bisect [{last_good} .. {bad}] -> {mid}: {}",
            if got == want { "ok" } else { "DIVERGED" }
        );
        if got == want {
            last_good = mid;
        } else {
            bad = mid;
            bad_hash = got;
        }
    }
    println!(
        "first divergent checkpoint in ({last_good} .. {bad}]: resume from {bad} yields \
         schedule hash {bad_hash:#018x}, uninterrupted run {want:#018x}"
    );
    println!(
        "the snapshot taken at {bad} round-trips some state unfaithfully; inspect events \
         between {last_good} and {bad} (trace filter --from {:.3} --to {:.3})",
        last_good.as_secs_f64(),
        bad.as_secs_f64()
    );
    std::process::exit(1);
}

fn cmd_validate(mut args: std::vec::IntoIter<String>) {
    let path = args.next().unwrap_or_else(|| die(USAGE));
    if let Some(a) = args.next() {
        die(&format!("unknown argument: {a}"));
    }
    let events = load(&path);
    // Round-trip check: every parsed event re-encodes to a parseable line.
    for e in &events {
        let line = e.to_jsonl();
        let back = TraceEvent::parse_jsonl(&line)
            .unwrap_or_else(|err| die(&format!("round-trip failed for {line}: {err}")));
        if back != *e {
            die(&format!("round-trip changed event: {line}"));
        }
    }
    println!("{}: {} events, all valid", path, events.len());
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        die(USAGE);
    }
    let sub = args.remove(0);
    let rest = args.into_iter();
    match sub.as_str() {
        "run" => cmd_run(rest),
        "filter" => cmd_filter(rest),
        "lifecycle" => cmd_lifecycle(rest),
        "drops" => cmd_drops(rest),
        "validate" => cmd_validate(rest),
        "bisect" => cmd_bisect(rest),
        "--help" | "-h" => println!("{USAGE}"),
        other => die(&format!("unknown subcommand: {other}\n{USAGE}")),
    }
}

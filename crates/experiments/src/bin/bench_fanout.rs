//! Scalability benchmark for `PhysicalMedium::fan_out`: the naive full scan
//! vs the spatially-indexed cache, whose candidate lists are replayed until
//! a node moves and then rebuilt from the transmitter's grid block, across
//! network sizes, densities and mobility patterns.
//! Verifies both paths produce bit-identical `RxPlan` streams and RNG
//! positions before timing them, on the timed medium and on a faulted and
//! a fading-off twin, and writes
//! `results/BENCH_fanout.json` (then re-reads and validates it: missing
//! fields or a NaN/inf anywhere fail the run).
//!
//! Density matters: at the paper's density (50 nodes / 1000 m square) the
//! interference floor covers a large fraction of the area, so the index can
//! only prune so much. The "metro" configurations keep the same node count
//! over a proportionally larger area (constant nodes-per-kilometre corridor
//! spacing), where pruning dominates and the speedup grows with N.
//!
//! Mobility is where the maintenance policy matters: the indexed path
//! re-buckets only cell-crossing nodes, and a move stales every cached
//! list, but each transmitter rebuilds its own lazily, at its next frame,
//! from the nodes of its grid block rather than from all N, into the
//! list's own buffer (dropping the whole cache on every move, the earliest
//! policy, managed only ~1.26× at mobile-metro-n500).

use std::fmt::Write as _;
use std::time::Instant;

use experiments::cli::CliArgs;
use mesh_sim::geometry::{Area, Pos};
use mesh_sim::ids::NodeId;
use mesh_sim::medium::{LinkEffect, Medium, PhysicalMedium, PositionDelta, RxPlan};
use mesh_sim::mobility::{Mobility, RandomWaypoint};
use mesh_sim::propagation::{FadingModel, PhyParams};
use mesh_sim::rng::SimRng;
use mesh_sim::time::{SimDuration, SimTime};
use mesh_sim::topology;

/// How positions evolve while the benchmark drives fan-outs.
#[derive(Clone, Copy)]
enum Motion {
    /// Nodes never move.
    Static,
    /// Every node jitters by ±5 m every `every` frames — the worst case for
    /// cache maintenance: all nodes move, none very far.
    Perturb { every: usize },
    /// Random-waypoint at speeds around `speed_mps`, one 100 ms model tick
    /// every `every` frames.
    Waypoint { speed_mps: f64, every: usize },
}

impl Motion {
    fn is_mobile(&self) -> bool {
        !matches!(self, Motion::Static)
    }
}

/// The two measured fan-out implementations.
#[derive(Clone, Copy, PartialEq)]
enum Mode {
    /// Full O(N) scan per frame, no caching.
    Naive,
    /// Spatial index with incremental re-bucketing; a move stamp stales
    /// the cached candidate lists, which rebuild from the grid block.
    Incremental,
}

/// The media the equivalence check runs both modes on. Only `Timed` is
/// timed; with the other two, every branch of the indexed fan-out meets
/// the naive scan.
#[derive(Clone, Copy, Debug)]
enum Setup {
    /// The paper's radio: Rayleigh fading, no faults.
    Timed,
    /// A blackout or 50% extra loss on a tenth of the directed links
    /// shorter than 1 km, so fault trials draw between fading draws.
    Faulted,
    /// No fading: nothing is drawn and every power is the mean.
    NoFading,
}

fn medium(mode: Mode, setup: Setup, positions: &[Pos]) -> PhysicalMedium {
    let fading = match setup {
        Setup::NoFading => FadingModel::None,
        Setup::Timed | Setup::Faulted => FadingModel::Rayleigh,
    };
    let phy = PhyParams {
        fading,
        ..PhyParams::default()
    };
    let mut m = PhysicalMedium::new(phy).with_indexing(mode == Mode::Incremental);
    if let Setup::Faulted = setup {
        let mut rng = SimRng::seed_from(0xFA17);
        for (a, &pa) in positions.iter().enumerate() {
            for (b, &pb) in positions.iter().enumerate() {
                if a != b && pa.distance_to(pb) < 1000.0 && rng.chance(0.1) {
                    let effect = if rng.chance(0.5) {
                        LinkEffect::Blackout
                    } else {
                        LinkEffect::ExtraLoss(0.5)
                    };
                    m.set_link_fault(NodeId::new(a as u32), NodeId::new(b as u32), effect);
                }
            }
        }
    }
    m
}

struct Config {
    name: String,
    nodes: usize,
    side: f64,
    motion: Motion,
}

struct Measurement {
    config: Config,
    frames: usize,
    ns_naive: f64,
    ns_incremental: f64,
}

impl Measurement {
    /// Incremental-index speedup over the naive scan. Never NaN/inf.
    fn speedup(&self) -> f64 {
        if self.ns_incremental > 0.0 {
            self.ns_naive / self.ns_incremental
        } else {
            0.0
        }
    }
}

fn configs(quick: bool) -> Vec<Config> {
    let sizes: &[usize] = if quick {
        &[50, 200]
    } else {
        &[50, 200, 500, 1000]
    };
    let mut out = Vec::new();
    for &n in sizes {
        // Paper density: area grows with sqrt(N), every node keeps ~10
        // in-range neighbors and a large in-floor candidate set.
        out.push(Config {
            name: format!("paper-n{n}"),
            nodes: n,
            side: 1000.0 * (n as f64 / 50.0).sqrt(),
            motion: Motion::Static,
        });
        // Metro density: area side grows linearly with N, so the candidate
        // set stays roughly constant while the full scan grows with N.
        if n > 50 {
            out.push(Config {
                name: format!("metro-n{n}"),
                nodes: n,
                side: 1000.0 * (n as f64 / 50.0),
                motion: Motion::Static,
            });
        }
    }
    // All-node perturbation every 64 frames: the historical mobility cliff,
    // and the acceptance configuration (mobile-metro-n500 >= 4x).
    let n = if quick { 200 } else { 500 };
    out.push(Config {
        name: format!("mobile-metro-n{n}"),
        nodes: n,
        side: 1000.0 * (n as f64 / 50.0),
        motion: Motion::Perturb { every: 64 },
    });
    // Random-waypoint sweeps: pedestrian / vehicular / highway speeds at
    // metro density, plus a city-scale N=2000 run.
    let rwp_sizes: &[(usize, &[f64])] = if quick {
        &[(200, &[10.0])]
    } else {
        &[(500, &[1.5, 10.0, 30.0]), (2000, &[10.0])]
    };
    for &(n, speeds) in rwp_sizes {
        for &v in speeds {
            out.push(Config {
                name: format!("rwp-metro-n{n}-v{v}"),
                nodes: n,
                side: 1000.0 * (n as f64 / 50.0),
                motion: Motion::Waypoint {
                    speed_mps: v,
                    every: 64,
                },
            });
        }
    }
    out
}

/// Drive `frames` fan-out calls (round-robin transmitter) against `m`,
/// evolving positions per `motion` and reporting every move through
/// [`Medium::positions_changed`] — maintenance cost lands inside the timed
/// region. Returns elapsed nanoseconds, the concatenated plans when
/// `record` is set (for the equivalence check), and the fading stream's
/// next draw.
fn drive(
    m: &mut PhysicalMedium,
    positions: &mut [Pos],
    area: Area,
    frames: usize,
    motion: Motion,
    record: bool,
) -> (f64, Vec<RxPlan>, u64) {
    // Fixed seeds so all modes consume identical fading and movement
    // streams — required for the equivalence check and for fair timing.
    let mut rng = SimRng::seed_from(0xFA0);
    let mut move_rng = SimRng::seed_from(0x30B11E);
    let tick = SimDuration::from_millis(100);
    let mut clock = SimTime::ZERO;
    let mut model = match motion {
        Motion::Waypoint { speed_mps, .. } => {
            let mut model = RandomWaypoint::new(
                area,
                (speed_mps * 0.5).max(0.1),
                speed_mps * 1.5,
                SimDuration::ZERO,
            )
            .with_tick(tick);
            // First step only assigns waypoints; do it outside the timing.
            model.step(clock, positions, &mut move_rng);
            Some(model)
        }
        _ => None,
    };
    let mut prev: Vec<Pos> = Vec::with_capacity(positions.len());
    let mut moves: Vec<PositionDelta> = Vec::new();
    let mut out = Vec::new();
    let mut all = Vec::new();
    let t0 = Instant::now();
    for f in 0..frames {
        let move_now = match motion {
            Motion::Static => false,
            Motion::Perturb { every } | Motion::Waypoint { every, .. } => {
                every != 0 && f % every == 0 && f != 0
            }
        };
        if move_now {
            prev.clear();
            prev.extend_from_slice(positions);
            match motion {
                Motion::Perturb { .. } => {
                    for p in positions.iter_mut() {
                        p.x += move_rng.uniform_range(-5.0, 5.0);
                        p.y += move_rng.uniform_range(-5.0, 5.0);
                    }
                }
                Motion::Waypoint { .. } => {
                    clock += tick;
                    let model = model.as_mut().expect("waypoint model built above");
                    model.step(clock, positions, &mut move_rng);
                }
                Motion::Static => unreachable!(),
            }
            moves.clear();
            for (i, (&old, &new)) in prev.iter().zip(positions.iter()).enumerate() {
                if old != new {
                    moves.push(PositionDelta {
                        node: NodeId::new(i as u32),
                        to: new,
                    });
                }
            }
            m.positions_changed(&moves, positions);
        }
        let tx = NodeId::new((f % positions.len()) as u32);
        out.clear();
        m.fan_out(tx, positions, SimTime::ZERO, &mut rng, &mut out);
        if record {
            all.extend_from_slice(&out);
        }
    }
    (t0.elapsed().as_nanos() as f64, all, rng.next_u64())
}

fn measure(config: Config, quick: bool) -> Measurement {
    let mut layout_rng = SimRng::seed_from(0x5EED ^ config.nodes as u64);
    let area = Area::square(config.side);
    let positions = topology::random_placement(config.nodes, area, &mut layout_rng);
    // Round-robin over transmitters, with enough frames that each node
    // transmits ~40+ times — a real run sends thousands of frames per node,
    // so the per-transmitter cache fill must be amortized, not dominant.
    // Capped so the N=2000 naive reference stays affordable.
    let frames = (config.nodes * 40).clamp(20_000, 40_000) / if quick { 10 } else { 1 };

    // Equivalence first: both paths must emit bit-identical RxPlan
    // streams and leave the RNG at the same draw under identical movement.
    for setup in [Setup::Timed, Setup::Faulted, Setup::NoFading] {
        let run_plans = |mode: Mode| {
            let (_, plans, next_draw) = drive(
                &mut medium(mode, setup, &positions),
                &mut positions.clone(),
                area,
                frames.min(2000),
                config.motion,
                true,
            );
            (plans, next_draw)
        };
        let naive = run_plans(Mode::Naive);
        assert!(!naive.0.is_empty(), "{} ({setup:?}): no plans", config.name);
        assert_eq!(
            naive,
            run_plans(Mode::Incremental),
            "{} ({setup:?}): incremental fan-out diverged from the naive scan",
            config.name
        );
    }

    // Timing: best of three samples per mode, interleaved.
    let mut best = [f64::INFINITY; 2];
    for _ in 0..3 {
        for (slot, mode) in [Mode::Naive, Mode::Incremental].into_iter().enumerate() {
            let (t, _, _) = drive(
                &mut medium(mode, Setup::Timed, &positions),
                &mut positions.clone(),
                area,
                frames,
                config.motion,
                false,
            );
            best[slot] = best[slot].min(t / frames as f64);
        }
    }
    Measurement {
        config,
        frames,
        ns_naive: best[0],
        ns_incremental: best[1],
    }
}

fn json(measurements: &[Measurement]) -> String {
    let mut s = String::from(
        "{\n  \"bench\": \"fanout\",\n  \"unit\": \"ns_per_frame\",\n  \"configs\": [\n",
    );
    for (i, m) in measurements.iter().enumerate() {
        let sep = if i + 1 == measurements.len() { "" } else { "," };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"nodes\": {}, \"area_side_m\": {:.1}, \
             \"mobile\": {}, \"frames\": {}, \"ns_per_frame_naive\": {:.1}, \
             \"ns_per_frame_incremental\": {:.1}, \"speedup\": {:.2}}}{}",
            m.config.name,
            m.config.nodes,
            m.config.side,
            m.config.motion.is_mobile(),
            m.frames,
            m.ns_naive,
            m.ns_incremental,
            m.speedup(),
            sep
        );
    }
    s.push_str("  ]\n}\n");
    s
}

/// Re-read the written report and reject malformed output: every config
/// line must carry every field, and no numeric value may be NaN/inf.
fn validate_report(text: &str, expected_configs: usize) -> Result<(), String> {
    for bad in ["NaN", "nan", "inf"] {
        if text.contains(bad) {
            return Err(format!("report contains non-finite value token {bad:?}"));
        }
    }
    let required = [
        "\"name\":",
        "\"nodes\":",
        "\"frames\":",
        "\"ns_per_frame_naive\":",
        "\"ns_per_frame_incremental\":",
        "\"speedup\":",
    ];
    for key in required {
        let count = text.matches(key).count();
        if count != expected_configs {
            return Err(format!(
                "field {key} appears {count} times, expected {expected_configs}"
            ));
        }
    }
    // Every speedup value must parse as a finite, non-negative number.
    for chunk in text.split("\"speedup\": ").skip(1) {
        let value: String = chunk
            .chars()
            .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-')
            .collect();
        let v: f64 = value
            .parse()
            .map_err(|_| format!("unparseable speedup value {value:?}"))?;
        if !v.is_finite() || v < 0.0 {
            return Err(format!("bad speedup value {v}"));
        }
    }
    if text.matches('{').count() != text.matches('}').count() {
        return Err("unbalanced braces in report".into());
    }
    Ok(())
}

fn main() {
    let args = CliArgs::from_env();
    let mut measurements = Vec::new();
    for config in configs(args.quick) {
        if !args.matches(&config.name) {
            continue;
        }
        eprintln!("measuring {} ...", config.name);
        let m = measure(config, args.quick);
        eprintln!(
            "  {}: naive {:.0} ns/frame, incremental {:.0} ns/frame, speedup {:.2}x",
            m.config.name,
            m.ns_naive,
            m.ns_incremental,
            m.speedup()
        );
        measurements.push(m);
    }
    if measurements.is_empty() {
        eprintln!("no configuration matches the filter");
        std::process::exit(2);
    }

    let out = json(&measurements);
    let path = std::path::Path::new("results/BENCH_fanout.json");
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).expect("create results dir");
    }
    std::fs::write(path, &out).expect("write BENCH_fanout.json");
    println!("{out}");
    println!("wrote {}", path.display());

    let mut failed = false;
    // Self-validation: the report on disk must be well-formed.
    let written = std::fs::read_to_string(path).expect("re-read BENCH_fanout.json");
    if let Err(e) = validate_report(&written, measurements.len()) {
        eprintln!("FAIL: malformed report: {e}");
        failed = true;
    }

    // Acceptance checks (only for configurations actually measured; --quick
    // and --filter drop some).
    let find = |name: &str| measurements.iter().find(|m| m.config.name == name);
    if let Some(m) = find("metro-n500") {
        if m.speedup() < 5.0 {
            eprintln!("FAIL: metro-n500 speedup {:.2}x < 5x", m.speedup());
            failed = true;
        }
    }
    if let Some(m) = find("paper-n50") {
        // Small-N regression guard, with slack for timer noise.
        if m.speedup() < 0.8 {
            eprintln!("FAIL: paper-n50 regressed: {:.2}x", m.speedup());
            failed = true;
        }
    }
    if let Some(m) = find("mobile-metro-n500") {
        // The mobility cliff: wholesale rebuild managed only ~1.26x here.
        if m.speedup() < 4.0 {
            eprintln!("FAIL: mobile-metro-n500 speedup {:.2}x < 4x", m.speedup());
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
}

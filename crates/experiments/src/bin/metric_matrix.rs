//! Registry smoke matrix: run the quick 30-node mesh once per *registered*
//! metric — not just the comparison set — plus the ODMRP baseline, and fail
//! loudly if any metric is missing from the output or produced a non-finite
//! measurement.
//!
//! This is the CI tripwire for the plugin registry: adding a metric that
//! registers but crashes, hangs, or yields NaN under the standard scenario
//! shows up here long before anyone runs the full figure matrix.

use experiments::cli::CliArgs;
use experiments::report;
use experiments::runner::{run_matrix, summarize};
use experiments::scenario_compiler::compile;
use experiments::{run, RunSpec};
use mcast_metrics::{MetricKind, MetricRegistry};
use odmrp::Variant;

fn main() {
    let args = CliArgs::from_env();
    let deck = if args.quick {
        include_str!("../../../../scenarios/fig2-quick.toml")
    } else {
        include_str!("../../../../scenarios/fig2.toml")
    };
    let mut scenario = compile(deck).expect("committed deck compiles").scenario;
    if let Some(r) = args.probe_rate {
        scenario.mesh.probe_rate = r;
    }
    let seeds = args.seeds(2).unwrap_or_else(|e| e.exit());

    // Baseline plus *every* registered plugin, including the ones that opt
    // out of the paper comparison tables (HOP, ETX-bidir).
    let mut variants = vec![Variant::Original];
    variants.extend(MetricKind::ALL.map(Variant::Metric));
    eprintln!(
        "metric matrix: {} variants x {} seeds, {} nodes",
        variants.len(),
        seeds.len(),
        scenario.mesh.nodes
    );

    let results = run_matrix(&variants, &seeds, |v, s| {
        let m = run(&RunSpec::new(&scenario, v, s));
        eprintln!("  {} seed={} pdr={:.3}", m.variant, s, m.pdr());
        m
    });
    let summaries = summarize(&results, Variant::Original);

    println!(
        "== Registry metric matrix (quick={} seeds={}) ==",
        args.quick,
        seeds.len()
    );
    let throughput = report::throughput_table(&summaries, &[]);
    println!("{throughput}");
    println!("{}", report::overhead_table(&summaries));

    let mut fails = Vec::new();
    for kind in MetricKind::ALL {
        let Some(s) = summaries
            .iter()
            .find(|s| s.variant == Variant::Metric(kind))
        else {
            fails.push(format!("{kind} produced no summary row"));
            continue;
        };
        for (what, v) in [
            ("pdr", s.pdr.mean),
            ("normalized throughput", s.normalized_throughput.mean),
            ("normalized delay", s.normalized_delay.mean),
            ("probe overhead", s.probe_overhead_pct.mean),
        ] {
            if !v.is_finite() {
                fails.push(format!("{kind}: non-finite {what} ({v})"));
            }
        }
    }
    // Every comparison-set metric must have made it into the rendered table.
    for kind in MetricRegistry::global().comparison_kinds() {
        let label = Variant::Metric(kind).label();
        if !throughput.contains(&label) {
            fails.push(format!("{label} missing from the throughput table"));
        }
    }

    if fails.is_empty() {
        println!(
            "metric matrix: all {} registered metrics ran and reported finite numbers",
            MetricKind::ALL.len()
        );
    } else {
        println!("metric matrix FAILED:");
        for f in &fails {
            println!("  - {f}");
        }
        std::process::exit(1);
    }
}

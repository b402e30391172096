//! Fault-injection sweep: delivery of each metric variant on the 50-node
//! random mesh as the fault intensity rises from none to heavy.
//!
//! For every topology seed, one deterministic fault plan per intensity level
//! is drawn (crashes, link blackouts/degradations, possibly a partition —
//! sources protected), the same plan is applied to every variant, and the
//! invariant-oracle suite runs throughout. The output is a table of mean PDR
//! per (variant, intensity); graceful degradation means each column is no
//! better than the one to its left.

use experiments::cli::CliArgs;
use experiments::runner::{paper_variants, run_matrix};
use experiments::scenario_compiler::{compile, FaultSpec};
use experiments::{run, RunSpec};
use mesh_sim::time::SimDuration;

const INTENSITIES: [f64; 3] = [0.3, 0.6, 1.0];

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
    let seeds = args.seeds(5).unwrap_or_else(|e| e.exit());
    eprintln!(
        "fault sweep: {} nodes, {} topologies, intensities {:?}",
        scenario.mesh.nodes,
        seeds.len(),
        INTENSITIES
    );

    let variants = paper_variants();
    let t0 = std::time::Instant::now();

    // Column 0: fault-free baseline.
    let clean = run_matrix(&variants, &seeds, |v, s| {
        run(&RunSpec::new(&scenario, v, s))
    });
    let mut columns = vec![("none".to_string(), clean)];
    for &intensity in &INTENSITIES {
        let mut faulted = scenario.clone();
        faulted.faults = FaultSpec::Random { intensity };
        let runs = run_matrix(&variants, &seeds, |v, s| {
            let mut spec = RunSpec::new(&faulted, v, s);
            spec.supervise.oracles = Some(SimDuration::from_secs(10));
            let m = run(&spec);
            eprintln!(
                "  {} seed={} intensity={} faults={} pdr={:.3} ({:.1}s elapsed)",
                m.variant,
                s,
                intensity,
                faulted.random_fault_plan(s, intensity).len(),
                m.pdr(),
                t0.elapsed().as_secs_f64()
            );
            m
        });
        columns.push((format!("{intensity}"), runs));
    }

    println!("== mean PDR by fault intensity ==");
    print!("{:<12}", "variant");
    for (label, _) in &columns {
        print!(" {label:>8}");
    }
    println!();
    for (vi, v) in variants.iter().enumerate() {
        print!("{:<12}", v.to_string());
        for (_, runs) in &columns {
            let of_v: Vec<f64> = runs
                .iter()
                .enumerate()
                .filter(|(i, _)| i / seeds.len() == vi)
                .map(|(_, m)| m.pdr())
                .collect();
            let mean = of_v.iter().sum::<f64>() / of_v.len().max(1) as f64;
            print!(" {mean:>8.3}");
        }
        println!();
    }
    println!();
    println!("invariant oracles ran every 10 s of simulated time: no violations.");
}

//! # experiments — regenerating the paper's evaluation
//!
//! Scenario decks, measurement, parallel runners and report rendering for
//! every table and figure of *"High-Throughput Multicast Routing Metrics in
//! Wireless Mesh Networks"* (ICDCS 2006). The mapping from experiment to
//! `repro` figure id lives in `DESIGN.md`; results are recorded in
//! `EXPERIMENTS.md`.
//!
//! The crate is a library so tests and benches can run scaled-down versions
//! of each experiment. [`run`] is the one way a simulation runs (and the one
//! place checkpoints are taken); [`run_jobs_supervised_resumable`] is the
//! one supervised job pool, and [`run_matrix`] its cartesian wrapper. The
//! `repro` binary turns each figure's deck into a variant × seed matrix of
//! such runs and prints our numbers next to the paper's.
//!
//! ## Example: a miniature Figure-2 run
//!
//! ```no_run
//! use experiments::runner::{paper_variants, run_matrix, summarize};
//! use experiments::scenario_compiler::compile;
//! use experiments::{run, RunSpec};
//! use odmrp::Variant;
//!
//! let deck = std::fs::read_to_string("scenarios/fig2-quick.toml").unwrap();
//! let scenario = compile(&deck).unwrap().scenario;
//! let results = run_matrix(&paper_variants(), &[1, 2, 3], |v, s| {
//!     run(&RunSpec::new(&scenario, v, s))
//! });
//! let summaries = summarize(&results, Variant::Original);
//! println!("{}", experiments::report::throughput_table(
//!     &summaries, &experiments::paper::FIG2_THROUGHPUT_SIM));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod ascii_map;
pub mod cli;
pub mod measure;
pub mod paper;
pub mod recovery;
pub mod report;
pub mod runner;
pub mod scenario;
pub mod scenario_compiler;
pub mod stats;
pub mod trees;

pub use measure::RunMeasurement;
pub use recovery::{RecoveryAnalysis, RecoverySpec};
pub use runner::{
    paper_variants, run, run_jobs_supervised_resumable, run_matrix, summarize, MatrixReport,
    RunFailure, RunSpec, VariantSummary,
};
pub use scenario::{GroupSpec, MeshScenario, ScenarioLayout};
pub use scenario_compiler::WorkloadScenario;

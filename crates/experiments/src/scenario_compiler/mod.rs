//! Declarative scenario compiler: TOML files → runnable workloads.
//!
//! The pipeline is `toml::parse` (dependency-free TOML-subset parser with
//! line-numbered errors) → `compile::compile` (strict semantic checking
//! into a [`workload::WorkloadScenario`] + [`compile::SweepSpec`]) →
//! `sweep::expand` (cartesian axis expansion into supervised jobs).
//! `serialize::to_toml` closes the loop: compiled scenarios serialize back
//! to canonical TOML that re-compiles to an equal struct.
//!
//! Decks are the only source of scenarios: everything a scenario produces
//! (layouts, fault plans, simulators) is a pure function of the compiled
//! struct plus `(variant, seed)`, so equal structs run bit-identically, and
//! the `run_golden` suite pins the `schedule_hash` of committed decks.

pub mod compile;
pub mod serialize;
pub mod sweep;
pub mod toml;
pub mod workload;

pub use compile::{compile, parse_variant, variant_name, CompiledScenario, SweepSpec};
pub use serialize::to_toml;
pub use sweep::{check, expand, job_count, quicken, CheckReport, SweepJob, DEFAULT_CAP};
pub use toml::TomlError;
pub use workload::{
    grid_side, metro_side, testbed_side, ChurnSpec, ChurnWindow, FaultSpec, FaultWindow,
    MobilitySpec, ProtocolKind, TopologyFamily, TrafficMix, WorkloadScenario, TESTBED_NODES,
};

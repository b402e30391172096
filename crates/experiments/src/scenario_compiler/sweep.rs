//! Expanding `[sweep.axes]` cartesian grids into concrete supervised jobs.
//!
//! An axis is a dotted scenario path plus a list of values; expansion takes
//! the cartesian product of all axes (file order, first axis outermost),
//! applies each assignment to a clone of the base scenario, re-derives the
//! dependent fields (metro/grid areas), re-validates, and crosses the
//! resulting configurations with the sweep's variants and seeds. The
//! expansion is a pure function of `(scenario, spec)` — same file, same
//! job list, same order.

use odmrp::Variant;

use crate::scenario_compiler::compile::{
    nonneg_secs, CompiledScenario, SweepSpec, NO_GROUP, NO_SOURCE, SUPPORTED_AXES,
};
use crate::scenario_compiler::toml::TomlError;
use crate::scenario_compiler::workload::{
    grid_side, metro_side, FaultSpec, TopologyFamily, TrafficMix, WorkloadScenario,
};
use mesh_sim::time::{SimDuration, SimTime};

/// One concrete run of a sweep.
#[derive(Debug, Clone)]
pub struct SweepJob {
    /// Index of the axis configuration this job belongs to.
    pub config: usize,
    /// Human-readable axis assignment, e.g. `churn.per_group=2 groups.count=12`
    /// (empty when the sweep has no axes).
    pub label: String,
    /// The fully-derived scenario for this configuration.
    pub scenario: WorkloadScenario,
    /// Variant to run.
    pub variant: Variant,
    /// Topology seed.
    pub seed: u64,
}

/// Convert an axis value to a count, rejecting non-integers.
fn as_count(key: &str, v: f64) -> Result<usize, String> {
    if v < 0.0 || v.fract() != 0.0 || v > u32::MAX as f64 {
        return Err(format!("axis `{key}` needs non-negative integers, got {v}"));
    }
    Ok(v as usize)
}

/// A count of at least one: the deck body rejects zero with `msg`, so the
/// axis does too instead of clamping it.
fn at_least_one(key: &str, v: f64, msg: &str) -> Result<usize, String> {
    match as_count(key, v)? {
        0 => Err(msg.into()),
        n => Ok(n),
    }
}

/// Apply one axis assignment to a scenario, then re-derive dependent fields.
/// A value the deck body would reject fails with the compiler's wording;
/// other errors are human-readable and name the axis.
pub fn apply_axis(w: &mut WorkloadScenario, key: &str, v: f64) -> Result<(), String> {
    match key {
        "topology.nodes" => {
            if matches!(
                w.topology,
                TopologyFamily::Grid { .. } | TopologyFamily::Testbed
            ) {
                return Err("axis `topology.nodes` does not apply to grid or testbed topologies (sweep `topology.spacing` or cols/rows instead)".into());
            }
            let n = as_count(key, v)?;
            if n < 2 {
                return Err(format!(
                    "axis `topology.nodes` needs at least 2 nodes, got {n}"
                ));
            }
            w.mesh.nodes = n;
        }
        "topology.side_per_50" => match &mut w.topology {
            TopologyFamily::Metro { side_per_50 } => *side_per_50 = v,
            _ => return Err("axis `topology.side_per_50` only applies to metro topologies".into()),
        },
        "topology.spacing" => match &mut w.topology {
            TopologyFamily::Grid { spacing, .. } => *spacing = v,
            _ => return Err("axis `topology.spacing` only applies to grid topologies".into()),
        },
        "groups.count" => w.mesh.groups = at_least_one(key, v, NO_GROUP)?,
        "groups.members" => w.mesh.members_per_group = as_count(key, v)?,
        "groups.sources" => w.mesh.sources_per_group = at_least_one(key, v, NO_SOURCE)?,
        "time.data_stop_secs" => w.mesh.data_stop = SimTime::ZERO + nonneg_secs(key, v)?,
        "protocol.probe_rate" => w.mesh.probe_rate = v,
        "traffic.on_secs" | "traffic.off_secs" => match &mut w.traffic {
            TrafficMix::Bursty { on, off } => {
                if key.ends_with("on_secs") {
                    *on = nonneg_secs(key, v)?;
                } else {
                    *off = nonneg_secs(key, v)?;
                }
            }
            TrafficMix::Steady => {
                return Err(format!("axis `{key}` needs [traffic] mix = \"bursty\""))
            }
        },
        "churn.per_group" | "churn.dwell_secs" | "churn.stagger_secs" => {
            let Some(churn) = &mut w.churn else {
                return Err(format!(
                    "axis `{key}` needs a [churn] section with start/end"
                ));
            };
            match key {
                "churn.per_group" => churn.per_group = as_count(key, v)?,
                "churn.dwell_secs" => churn.dwell = nonneg_secs(key, v)?,
                _ => churn.stagger = nonneg_secs(key, v)?,
            }
            if churn.per_group > 0 && churn.end <= churn.start {
                return Err(format!(
                    "axis `{key}` produces generated churn but the [churn] section has no valid start/end window"
                ));
            }
        }
        "mobility.max_speed" => match &mut w.mobility {
            Some(m) => m.max_speed = v,
            None => return Err("axis `mobility.max_speed` needs a [mobility] section".into()),
        },
        "faults.random_intensity" => match &mut w.faults {
            FaultSpec::Random { intensity } => *intensity = v,
            _ => {
                return Err(
                    "axis `faults.random_intensity` needs [faults] mode = \"random\"".into(),
                )
            }
        },
        other => {
            return Err(format!(
                "unsupported sweep axis `{other}` (supported: {})",
                SUPPORTED_AXES.join(", ")
            ))
        }
    }
    rederive(w);
    w.validate()
        .map_err(|e| format!("axis `{key}` = {v} makes the scenario invalid: {e}"))
}

/// Re-derive fields that depend on swept ones (areas of derived-area
/// families).
fn rederive(w: &mut WorkloadScenario) {
    match w.topology {
        TopologyFamily::Random | TopologyFamily::Testbed => {}
        TopologyFamily::Grid {
            cols,
            rows,
            spacing,
        } => {
            w.mesh.nodes = cols * rows;
            w.mesh.area_side = grid_side(cols, rows, spacing);
        }
        TopologyFamily::Metro { side_per_50 } => {
            w.mesh.area_side = metro_side(w.mesh.nodes, side_per_50);
        }
    }
}

/// Format an axis value the way labels and JSONL want it: integral values
/// without the trailing `.0`.
fn fmt_value(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// Expand a compiled scenario into its full supervised job list:
/// `configs × variants × seeds`, axes outermost in file order, then
/// variants, then seeds (`base_seed .. base_seed + seeds`).
pub fn expand(compiled: &CompiledScenario) -> Result<Vec<SweepJob>, String> {
    let spec = &compiled.sweep;
    let mut jobs = Vec::new();
    for (config, assignment) in assignments(spec).into_iter().enumerate() {
        let mut scenario = compiled.scenario.clone();
        let mut parts = Vec::new();
        for (key, v) in &assignment {
            apply_axis(&mut scenario, key, *v)?;
            parts.push(format!("{key}={}", fmt_value(*v)));
        }
        let label = parts.join(" ");
        for &variant in &spec.variants {
            for s in 0..spec.seeds {
                jobs.push(SweepJob {
                    config,
                    label: label.clone(),
                    scenario: scenario.clone(),
                    variant,
                    seed: spec.base_seed + s,
                });
            }
        }
    }
    Ok(jobs)
}

/// The cartesian product of the axes, first axis outermost. A sweep with no
/// axes has exactly one (empty) assignment.
fn assignments(spec: &SweepSpec) -> Vec<Vec<(String, f64)>> {
    let mut out: Vec<Vec<(String, f64)>> = vec![Vec::new()];
    for (key, values) in &spec.axes {
        let mut next = Vec::with_capacity(out.len() * values.len());
        for prefix in &out {
            for &v in values {
                let mut a = prefix.clone();
                a.push((key.clone(), v));
                next.push(a);
            }
        }
        out = next;
    }
    out
}

/// The number of jobs [`expand`] will produce, without building them.
pub fn job_count(spec: &SweepSpec) -> usize {
    let configs: usize = spec
        .axes
        .iter()
        .map(|(_, vs)| vs.len())
        .product::<usize>()
        .max(1);
    configs * spec.variants.len() * spec.seeds as usize
}

/// Default expansion cap when neither the file's `limit` key nor a caller
/// override (the sweep binary's `--limit`) declares one.
pub const DEFAULT_CAP: usize = 32;

/// What a static check of a scenario file established.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckReport {
    /// Scenario name from the file.
    pub name: String,
    /// Total jobs the sweep expands to.
    pub jobs: usize,
    /// Distinct axis configurations.
    pub configs: usize,
    /// The effective expansion cap the job count was validated against.
    pub cap: usize,
}

/// Statically validate scenario source: compile it, enforce the expansion
/// cap, and expand the full job list — without running anything. This is
/// the entry point mesh-lint's R9 scenario audit drives, so schema drift in
/// committed `scenarios/*.toml` fails `--deny` before any sweep runs.
///
/// Expansion and cap errors arise from axis values rather than a single
/// TOML construct, so they carry line 0.
pub fn check(src: &str) -> Result<CheckReport, TomlError> {
    let compiled = crate::scenario_compiler::compile(src)?;
    let count = job_count(&compiled.sweep);
    let cap = compiled.sweep.limit.unwrap_or(DEFAULT_CAP);
    if count > cap {
        return Err(TomlError::at(
            0,
            format!(
                "sweep expands to {count} runs, above the cap of {cap} — declare a higher \
                 `limit` in [sweep]"
            ),
        ));
    }
    let jobs = expand(&compiled).map_err(|msg| TomlError::at(0, msg))?;
    Ok(CheckReport {
        name: compiled.scenario.name.clone(),
        jobs: jobs.len(),
        configs: jobs.iter().map(|j| j.config).max().map_or(0, |c| c + 1),
        cap,
    })
}

/// Shrink a sweep for smoke runs: at most 2 values per axis, 2 variants
/// (baseline first if present), a single seed, and a data window capped at
/// 20 s — the `--quick` contract the CI job drives.
///
/// Churn is clamped *into* the shortened run rather than dropped, so a
/// smoke run of a churn sweep still exercises the overlay: the window ends
/// at `data_stop`, and dwell/stagger rescale to fractions of it so the
/// generated windows validate for any plausible swept `per_group`. Only
/// when nothing of the churn spec survives (window collapsed, no explicit
/// windows left) is it removed — together with any now-inapplicable
/// `churn.*` sweep axes.
pub fn quicken(compiled: &mut CompiledScenario) {
    for (_, values) in &mut compiled.sweep.axes {
        values.truncate(2);
    }
    compiled.sweep.variants.truncate(2);
    compiled.sweep.seeds = compiled.sweep.seeds.min(1);
    let mesh = &mut compiled.scenario.mesh;
    let cap = mesh.data_start + SimDuration::from_secs(20);
    if mesh.data_stop > cap {
        mesh.data_stop = cap;
    }
    let end_of_run = compiled.scenario.mesh.data_stop;
    if let Some(churn) = &mut compiled.scenario.churn {
        if churn.per_group > 0 {
            if churn.end > end_of_run {
                churn.end = end_of_run;
            }
            if churn.end <= churn.start {
                churn.per_group = 0;
            } else {
                let window = churn.end.saturating_since(churn.start);
                churn.stagger = churn.stagger.min(window.div(10));
                churn.dwell = churn
                    .dwell
                    .min(window.div(4))
                    .max(SimDuration::from_nanos(1));
            }
        }
        churn.explicit.retain(|w| w.join < end_of_run);
        if churn.per_group == 0 && churn.explicit.is_empty() {
            compiled.scenario.churn = None;
        }
    }
    if compiled.scenario.churn.is_none() {
        compiled
            .sweep
            .axes
            .retain(|(key, _)| !key.starts_with("churn."));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario_compiler::compile::compile;

    const SWEPT: &str = r#"
name = "sw"
[topology]
family = "metro"
nodes = 40
side_per_50 = 800.0
[groups]
count = 1
members = 3
[sweep]
seeds = 2
base_seed = 7
variants = ["ODMRP", "SPP"]
[sweep.axes]
"topology.nodes" = [40, 60]
"groups.members" = [3, 5, 7]
"#;

    #[test]
    fn expansion_is_cartesian_and_ordered() {
        let c = compile(SWEPT).unwrap();
        assert_eq!(job_count(&c.sweep), 2 * 3 * 2 * 2);
        let jobs = expand(&c).unwrap();
        assert_eq!(jobs.len(), 24);
        // First axis outermost; variants then seeds innermost.
        assert_eq!(jobs[0].label, "topology.nodes=40 groups.members=3");
        assert_eq!(jobs[0].seed, 7);
        assert_eq!(jobs[1].seed, 8);
        assert_eq!(
            jobs[2].variant,
            Variant::Metric(mcast_metrics::MetricKind::Spp)
        );
        assert_eq!(jobs[4].label, "topology.nodes=40 groups.members=5");
        assert_eq!(jobs[12].label, "topology.nodes=60 groups.members=3");
        // Config index groups the 4 jobs of each assignment.
        assert_eq!(jobs[0].config, 0);
        assert_eq!(jobs[3].config, 0);
        assert_eq!(jobs[4].config, 1);
        // Metro area re-derives from the swept node count.
        assert_eq!(jobs[0].scenario.mesh.area_side, 800.0 * 40.0 / 50.0);
        assert_eq!(jobs[12].scenario.mesh.area_side, 800.0 * 60.0 / 50.0);
        // Expansion is deterministic.
        let again = expand(&c).unwrap();
        assert_eq!(jobs.len(), again.len());
        assert!(jobs
            .iter()
            .zip(&again)
            .all(|(a, b)| a.scenario == b.scenario && a.label == b.label && a.seed == b.seed));
    }

    #[test]
    fn invalid_axis_values_fail_with_the_axis_named() {
        let c = compile(SWEPT).unwrap();
        let mut w = c.scenario.clone();
        let err = apply_axis(&mut w, "groups.members", 2.5).unwrap_err();
        assert!(err.contains("groups.members"), "{err}");
        let err = apply_axis(&mut w, "topology.spacing", 100.0).unwrap_err();
        assert!(err.contains("grid"), "{err}");
        // A value that makes roles exceed nodes is caught by re-validation.
        let err = apply_axis(&mut w, "groups.members", 200.0).unwrap_err();
        assert!(err.contains("invalid"), "{err}");
    }

    #[test]
    fn quicken_bounds_the_matrix() {
        let mut c = compile(SWEPT).unwrap();
        quicken(&mut c);
        assert_eq!(job_count(&c.sweep), 2 * 2 * 2);
        assert!(
            c.scenario.mesh.data_stop <= c.scenario.mesh.data_start + SimDuration::from_secs(20)
        );
        let jobs = expand(&c).unwrap();
        assert_eq!(jobs.len(), 8);
    }
}

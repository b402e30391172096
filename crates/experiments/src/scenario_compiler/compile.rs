//! Compiling a parsed TOML document into a [`WorkloadScenario`] + sweep spec.
//!
//! The compiler is strict by design: unknown sections, unknown keys, keys
//! that don't apply to the declared family/mode, type mismatches, and
//! semantically-impossible values (leave before join, zero-node topologies,
//! overlapping membership windows, unsupported sweep axes) are all hard
//! errors carrying the 1-based line number of the offending construct —
//! a scenario file either compiles to exactly one meaning or not at all.

use mesh_sim::time::{SimDuration, SimTime};
use odmrp::Variant;

use crate::scenario::MeshScenario;
use crate::scenario_compiler::toml::{self, Doc, Entry, Table, TomlError};
use crate::scenario_compiler::workload::{
    grid_side, metro_side, testbed_side, ChurnSpec, ChurnWindow, FaultSpec, FaultWindow,
    MobilitySpec, ProtocolKind, TopologyFamily, TrafficMix, WorkloadScenario, TESTBED_NODES,
};

/// Sweep settings compiled from `[sweep]` / `[sweep.axes]`.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSpec {
    /// Topology seeds per configuration (seeds run `base_seed..base_seed+n`).
    pub seeds: u64,
    /// First seed.
    pub base_seed: u64,
    /// Same-seed retries per job in the supervised runner.
    pub retries: u32,
    /// Variants to run (default: baseline + the paper's five metrics).
    pub variants: Vec<Variant>,
    /// Expansion cap declared in the file (the binary's `--limit` overrides).
    pub limit: Option<usize>,
    /// Sweep axes in file order: `(dotted key, values)`.
    pub axes: Vec<(String, Vec<f64>)>,
}

impl SweepSpec {
    /// The default when a file has no `[sweep]` section: 5 seeds from 1,
    /// one retry, all paper variants, no axes.
    pub fn default_spec() -> Self {
        SweepSpec {
            seeds: 5,
            base_seed: 1,
            retries: 1,
            variants: crate::runner::paper_variants(),
            limit: None,
            axes: Vec::new(),
        }
    }
}

/// A compiled scenario file: the base scenario plus its sweep settings.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledScenario {
    /// The base (un-swept) scenario.
    pub scenario: WorkloadScenario,
    /// Sweep settings (defaults when the file has no `[sweep]`).
    pub sweep: SweepSpec,
}

/// The axis keys [`apply_axis`] understands, for error messages.
pub const SUPPORTED_AXES: &[&str] = &[
    "topology.nodes",
    "topology.side_per_50",
    "topology.spacing",
    "groups.count",
    "groups.members",
    "groups.sources",
    "time.data_stop_secs",
    "protocol.probe_rate",
    "traffic.on_secs",
    "traffic.off_secs",
    "churn.per_group",
    "churn.dwell_secs",
    "churn.stagger_secs",
    "mobility.max_speed",
    "faults.random_intensity",
];

/// Compile TOML source text into a validated scenario + sweep spec.
pub fn compile(src: &str) -> Result<CompiledScenario, TomlError> {
    let doc = toml::parse(src)?;
    compile_doc(&doc)
}

const SECTIONS: &[&str] = &[
    "topology",
    "groups",
    "time",
    "protocol",
    "traffic",
    "churn",
    "churn.window",
    "mobility",
    "faults",
    "faults.crash",
    "faults.blackout",
    "faults.partition",
    "faults.class_loss",
    "sweep",
    "sweep.axes",
];

fn compile_doc(doc: &Doc) -> Result<CompiledScenario, TomlError> {
    doc.reject_unknown_sections(SECTIONS)?;
    for name in [
        "churn.window",
        "faults.crash",
        "faults.blackout",
        "faults.partition",
        "faults.class_loss",
    ] {
        for t in &doc.tables {
            if t.name == name && !t.is_array {
                return Err(TomlError::at(
                    t.line,
                    format!("[{name}] must be an array table — write [[{name}]]"),
                ));
            }
        }
    }

    let root = doc
        .table("")
        .ok_or_else(|| TomlError::at(1, "missing required key `name`"))?;
    root.reject_unknown(&["name"])?;
    let name = root.require("name")?.str()?.to_string();
    if name.is_empty() {
        return Err(TomlError::at(
            root.require("name")?.line,
            "`name` must not be empty",
        ));
    }

    let mut mesh = MeshScenario::paper_default();
    compile_time(doc, &mut mesh)?;
    let protocol = compile_protocol(doc, &mut mesh)?;
    compile_groups(doc, &mut mesh)?;
    let (topology, topo_line) = compile_topology(doc, &mut mesh)?;

    let mut scenario = WorkloadScenario::from_mesh(&name, mesh);
    scenario.topology = topology;
    scenario.protocol = protocol;
    scenario.traffic = compile_traffic(doc)?;
    scenario.churn = compile_churn(doc, scenario.run_until())?;
    scenario.mobility = compile_mobility(doc)?;
    scenario.faults = compile_faults(doc)?;
    let sweep = compile_sweep(doc, &scenario)?;

    // Backstop: every cross-field rule, attributed to the most relevant
    // section header (per-key rules above already carry exact lines).
    if let Err(msg) = scenario.validate() {
        return Err(TomlError::at(blame_line(doc, &msg, topo_line), msg));
    }
    Ok(CompiledScenario { scenario, sweep })
}

/// Pick the section header a cross-field validation message belongs to.
fn blame_line(doc: &Doc, msg: &str, topo_line: usize) -> usize {
    let section = if msg.contains("churn") {
        "churn"
    } else if msg.contains("mobility") || msg.contains("speed") {
        "mobility"
    } else if msg.contains("fault") {
        "faults"
    } else if msg.contains("bursty") {
        "traffic"
    } else if msg.contains("data_") || msg.contains("probe_rate") {
        "time"
    } else {
        return topo_line;
    };
    doc.table(section)
        .map(|t| t.line)
        .or_else(|| {
            // A file can declare churn purely via [[churn.window]] tables.
            doc.array_tables(&format!("{section}.window"))
                .first()
                .map(|t| t.line)
        })
        .unwrap_or(topo_line)
        .max(1)
}

/// The rejection of `groups.count = 0`, in the deck body and on a sweep axis.
pub(super) const NO_GROUP: &str = "a scenario needs at least one group";
/// The rejection of `groups.sources = 0`, in the deck body and on a sweep axis.
pub(super) const NO_SOURCE: &str = "each group needs at least one source";

/// `v` seconds as a duration; negative values are rejected rather than
/// saturated to zero. Deck keys and sweep axes share this check.
pub(super) fn nonneg_secs(key: &str, v: f64) -> Result<SimDuration, String> {
    if v < 0.0 {
        return Err(format!("key `{key}` must be >= 0, got {v}"));
    }
    Ok(SimDuration::from_secs_f64(v))
}

fn secs_time(e: &Entry) -> Result<SimTime, TomlError> {
    Ok(SimTime::ZERO + secs_duration(e)?)
}

fn secs_duration(e: &Entry) -> Result<SimDuration, TomlError> {
    nonneg_secs(&e.key, e.float()?).map_err(|msg| TomlError::at(e.line, msg))
}

fn compile_topology(
    doc: &Doc,
    mesh: &mut MeshScenario,
) -> Result<(TopologyFamily, usize), TomlError> {
    let t = doc
        .table("topology")
        .ok_or_else(|| TomlError::at(1, "missing required section [topology]"))?;
    t.reject_unknown(&[
        "family",
        "nodes",
        "area_side",
        "range",
        "cols",
        "rows",
        "spacing",
        "side_per_50",
    ])?;
    if let Some(e) = t.get("range") {
        mesh.range = e.float()?;
    }
    let family = t.require("family")?;
    let forbid = |keys: &[&str], why: &str| -> Result<(), TomlError> {
        for k in keys {
            if let Some(e) = t.get(k) {
                return Err(TomlError::at(
                    e.line,
                    format!(
                        "key `{k}` is not valid for family \"{}\" ({why})",
                        family.str().unwrap_or("?")
                    ),
                ));
            }
        }
        Ok(())
    };
    let require_nodes = |mesh: &mut MeshScenario| -> Result<(), TomlError> {
        let e = t.require("nodes")?;
        let n = e.usize()?;
        if n < 2 {
            return Err(TomlError::at(
                e.line,
                format!("topology needs at least 2 nodes, got {n}"),
            ));
        }
        mesh.nodes = n;
        Ok(())
    };
    let fam = match family.str()? {
        "random" => {
            forbid(
                &["cols", "rows", "spacing", "side_per_50"],
                "they belong to grid/metro",
            )?;
            require_nodes(mesh)?;
            if let Some(e) = t.get("area_side") {
                mesh.area_side = e.float()?;
            }
            TopologyFamily::Random
        }
        "grid" => {
            forbid(
                &["nodes", "area_side", "side_per_50"],
                "grids derive them from cols/rows/spacing",
            )?;
            let cols = t.require("cols")?.usize()?;
            let rows = t.require("rows")?.usize()?;
            let spacing = t.require("spacing")?.float()?;
            if cols * rows < 2 {
                return Err(TomlError::at(
                    t.require("cols")?.line,
                    format!("topology needs at least 2 nodes, got a {cols}x{rows} grid"),
                ));
            }
            mesh.nodes = cols * rows;
            mesh.area_side = grid_side(cols, rows, spacing);
            TopologyFamily::Grid {
                cols,
                rows,
                spacing,
            }
        }
        "metro" => {
            forbid(
                &["cols", "rows", "spacing", "area_side"],
                "metro derives the area from side_per_50",
            )?;
            require_nodes(mesh)?;
            let side = t.require("side_per_50")?.float()?;
            mesh.area_side = metro_side(mesh.nodes, side);
            TopologyFamily::Metro { side_per_50: side }
        }
        "testbed" => {
            forbid(
                &[
                    "nodes",
                    "area_side",
                    "cols",
                    "rows",
                    "spacing",
                    "side_per_50",
                ],
                "the Figure-4 floor plan fixes the placement",
            )?;
            if let Some(g) = doc.table("groups") {
                return Err(TomlError::at(
                    g.line,
                    "[groups] does not apply to family \"testbed\": Figure 4 fixes its two groups",
                ));
            }
            mesh.nodes = TESTBED_NODES;
            mesh.area_side = testbed_side();
            mesh.groups = 2;
            mesh.members_per_group = 2;
            mesh.sources_per_group = 1;
            TopologyFamily::Testbed
        }
        other => {
            return Err(TomlError::at(
                family.line,
                format!(
                    "unknown topology family \"{other}\" (expected random, grid, metro or testbed)"
                ),
            ))
        }
    };
    Ok((fam, t.line))
}

fn compile_groups(doc: &Doc, mesh: &mut MeshScenario) -> Result<(), TomlError> {
    let Some(t) = doc.table("groups") else {
        return Ok(());
    };
    t.reject_unknown(&["count", "members", "sources"])?;
    if let Some(e) = t.get("count") {
        let n = e.usize()?;
        if n == 0 {
            return Err(TomlError::at(e.line, NO_GROUP));
        }
        mesh.groups = n;
    }
    if let Some(e) = t.get("members") {
        mesh.members_per_group = e.usize()?;
    }
    if let Some(e) = t.get("sources") {
        let n = e.usize()?;
        if n == 0 {
            return Err(TomlError::at(e.line, NO_SOURCE));
        }
        mesh.sources_per_group = n;
    }
    Ok(())
}

fn compile_time(doc: &Doc, mesh: &mut MeshScenario) -> Result<(), TomlError> {
    let Some(t) = doc.table("time") else {
        return Ok(());
    };
    t.reject_unknown(&["data_start_secs", "data_stop_secs"])?;
    if let Some(e) = t.get("data_start_secs") {
        mesh.data_start = secs_time(e)?;
    }
    if let Some(e) = t.get("data_stop_secs") {
        mesh.data_stop = secs_time(e)?;
        if mesh.data_stop <= mesh.data_start {
            return Err(TomlError::at(
                e.line,
                format!(
                    "data_stop_secs ({:.1}) must be after data_start_secs ({:.1})",
                    mesh.data_stop.as_secs_f64(),
                    mesh.data_start.as_secs_f64()
                ),
            ));
        }
    }
    Ok(())
}

fn compile_protocol(doc: &Doc, mesh: &mut MeshScenario) -> Result<ProtocolKind, TomlError> {
    let Some(t) = doc.table("protocol") else {
        return Ok(ProtocolKind::Odmrp);
    };
    t.reject_unknown(&[
        "kind",
        "probe_rate",
        "delta_ms",
        "alpha_ms",
        "fading",
        "degraded",
    ])?;
    if let Some(e) = t.get("probe_rate") {
        let v = e.float()?;
        // Rejected here, at the deck line, rather than deep in a run: the
        // core saturates degenerate rates instead of panicking, but a rate
        // of 0 (or NaN/inf) in a deck is always a typo worth naming.
        if !(v.is_finite() && v > 0.0) {
            return Err(TomlError::at(
                e.line,
                format!("probe_rate must be positive and finite, got {v}"),
            ));
        }
        mesh.probe_rate = v;
    }
    if let Some(e) = t.get("delta_ms") {
        mesh.delta = SimDuration::from_secs_f64(e.float()? / 1000.0);
    }
    if let Some(e) = t.get("alpha_ms") {
        mesh.alpha = SimDuration::from_secs_f64(e.float()? / 1000.0);
    }
    if let Some(e) = t.get("fading") {
        mesh.fading = e.bool()?;
    }
    if let Some(e) = t.get("degraded") {
        mesh.degraded = e.bool()?;
    }
    match t.get("kind") {
        None => Ok(ProtocolKind::Odmrp),
        Some(e) => match e.str()? {
            "odmrp" => Ok(ProtocolKind::Odmrp),
            "maodv" => Ok(ProtocolKind::Maodv),
            other => Err(TomlError::at(
                e.line,
                format!("unknown protocol kind \"{other}\" (expected odmrp or maodv)"),
            )),
        },
    }
}

fn compile_traffic(doc: &Doc) -> Result<TrafficMix, TomlError> {
    let Some(t) = doc.table("traffic") else {
        return Ok(TrafficMix::Steady);
    };
    t.reject_unknown(&["mix", "on_secs", "off_secs"])?;
    let mix = t.require("mix")?;
    match mix.str()? {
        "steady" => {
            for k in ["on_secs", "off_secs"] {
                if let Some(e) = t.get(k) {
                    return Err(TomlError::at(
                        e.line,
                        format!("key `{k}` only applies to mix = \"bursty\""),
                    ));
                }
            }
            Ok(TrafficMix::Steady)
        }
        "bursty" => {
            let on_e = t.require("on_secs")?;
            let on = secs_duration(on_e)?;
            if on == SimDuration::ZERO {
                return Err(TomlError::at(on_e.line, "on_secs must be positive"));
            }
            let off = secs_duration(t.require("off_secs")?)?;
            Ok(TrafficMix::Bursty { on, off })
        }
        other => Err(TomlError::at(
            mix.line,
            format!("unknown traffic mix \"{other}\" (expected steady or bursty)"),
        )),
    }
}

fn compile_churn(doc: &Doc, end_of_run: SimTime) -> Result<Option<ChurnSpec>, TomlError> {
    let section = doc.table("churn");
    let windows = doc.array_tables("churn.window");
    if section.is_none() && windows.is_empty() {
        return Ok(None);
    }
    let mut spec = ChurnSpec {
        per_group: 0,
        start: SimTime::ZERO,
        end: SimTime::ZERO,
        dwell: SimDuration::ZERO,
        stagger: SimDuration::ZERO,
        flash: false,
        explicit: Vec::new(),
    };
    if let Some(t) = section {
        t.reject_unknown(&[
            "per_group",
            "start_secs",
            "end_secs",
            "dwell_secs",
            "stagger_secs",
            "flash",
        ])?;
        if let Some(e) = t.get("per_group") {
            spec.per_group = e.usize()?;
        }
        if spec.per_group > 0 {
            spec.start = secs_time(t.require("start_secs")?)?;
            let end_e = t.require("end_secs")?;
            spec.end = secs_time(end_e)?;
            if spec.end <= spec.start {
                return Err(TomlError::at(
                    end_e.line,
                    format!(
                        "end_secs ({:.1}) must be after start_secs ({:.1})",
                        spec.end.as_secs_f64(),
                        spec.start.as_secs_f64()
                    ),
                ));
            }
        }
        if let Some(e) = t.get("dwell_secs") {
            spec.dwell = secs_duration(e)?;
        }
        if let Some(e) = t.get("stagger_secs") {
            spec.stagger = secs_duration(e)?;
        }
        if let Some(e) = t.get("flash") {
            spec.flash = e.bool()?;
        }
    }
    for w in windows {
        w.reject_unknown(&["node", "group", "join_secs", "leave_secs"])?;
        let join = secs_time(w.require("join_secs")?)?;
        let leave_e = w.require("leave_secs")?;
        let leave = secs_time(leave_e)?;
        if leave <= join {
            return Err(TomlError::at(
                leave_e.line,
                format!(
                    "leave_secs ({:.1}) must be after join_secs ({:.1})",
                    leave.as_secs_f64(),
                    join.as_secs_f64()
                ),
            ));
        }
        let join_e = w.require("join_secs")?;
        if join >= end_of_run {
            return Err(TomlError::at(
                join_e.line,
                format!(
                    "join_secs ({:.1}) is at/after the end of the run ({:.1}s)",
                    join.as_secs_f64(),
                    end_of_run.as_secs_f64()
                ),
            ));
        }
        let group_e = w.require("group")?;
        let group = u32::try_from(group_e.usize()?)
            .map_err(|_| TomlError::at(group_e.line, "group index out of range"))?;
        spec.explicit.push(ChurnWindow {
            node: w.require("node")?.usize()?,
            group,
            join,
            leave,
        });
    }
    Ok(Some(spec))
}

fn compile_mobility(doc: &Doc) -> Result<Option<MobilitySpec>, TomlError> {
    let Some(t) = doc.table("mobility") else {
        return Ok(None);
    };
    t.reject_unknown(&["min_speed", "max_speed", "pause_secs"])?;
    let min_e = t.require("min_speed")?;
    let min_speed = min_e.float()?;
    if min_speed <= 0.0 {
        return Err(TomlError::at(
            min_e.line,
            format!("min_speed must be positive (got {min_speed}); use no [mobility] section for static nodes"),
        ));
    }
    let max_e = t.require("max_speed")?;
    let max_speed = max_e.float()?;
    if max_speed < min_speed {
        return Err(TomlError::at(
            max_e.line,
            format!("max_speed ({max_speed}) must be >= min_speed ({min_speed})"),
        ));
    }
    let pause = match t.get("pause_secs") {
        Some(e) => secs_duration(e)?,
        None => SimDuration::ZERO,
    };
    Ok(Some(MobilitySpec {
        min_speed,
        max_speed,
        pause,
    }))
}

fn fault_window_times(t: &Table) -> Result<(SimTime, SimTime), TomlError> {
    let from = secs_time(t.require("from_secs")?)?;
    let to_e = t.require("to_secs")?;
    let to = secs_time(to_e)?;
    if to <= from {
        return Err(TomlError::at(
            to_e.line,
            format!(
                "to_secs ({:.1}) must be after from_secs ({:.1})",
                to.as_secs_f64(),
                from.as_secs_f64()
            ),
        ));
    }
    Ok((from, to))
}

fn compile_faults(doc: &Doc) -> Result<FaultSpec, TomlError> {
    let section = doc.table("faults");
    let crash = doc.array_tables("faults.crash");
    let blackout = doc.array_tables("faults.blackout");
    let partition = doc.array_tables("faults.partition");
    let class_loss = doc.array_tables("faults.class_loss");
    let has_windows = !crash.is_empty()
        || !blackout.is_empty()
        || !partition.is_empty()
        || !class_loss.is_empty();
    let Some(t) = section else {
        if has_windows {
            return Err(TomlError::at(
                crash
                    .first()
                    .or(blackout.first())
                    .or(partition.first())
                    .or(class_loss.first())
                    .map(|t| t.line)
                    .unwrap_or(1),
                "fault windows need a [faults] section with mode = \"windows\"",
            ));
        }
        return Ok(FaultSpec::None);
    };
    t.reject_unknown(&["mode", "random_intensity"])?;
    let mode = t.require("mode")?;
    match mode.str()? {
        "random" => {
            if has_windows {
                return Err(TomlError::at(
                    mode.line,
                    "mode = \"random\" cannot be combined with explicit fault windows",
                ));
            }
            let e = t.require("random_intensity")?;
            let intensity = e.float()?;
            if !(0.0..=1.0).contains(&intensity) {
                return Err(TomlError::at(
                    e.line,
                    format!("random_intensity must be in [0, 1], got {intensity}"),
                ));
            }
            Ok(FaultSpec::Random { intensity })
        }
        "windows" => {
            if let Some(e) = t.get("random_intensity") {
                return Err(TomlError::at(
                    e.line,
                    "random_intensity only applies to mode = \"random\"",
                ));
            }
            let mut ws = Vec::new();
            // File order within each kind; kinds in a fixed order so the
            // compiled plan is deterministic.
            for w in crash {
                w.reject_unknown(&["node", "from_secs", "to_secs"])?;
                let (from, to) = fault_window_times(w)?;
                ws.push(FaultWindow::Crash {
                    node: w.require("node")?.usize()?,
                    from,
                    to,
                });
            }
            for w in blackout {
                w.reject_unknown(&["a", "b", "from_secs", "to_secs"])?;
                let (from, to) = fault_window_times(w)?;
                ws.push(FaultWindow::LinkBlackout {
                    a: w.require("a")?.usize()?,
                    b: w.require("b")?.usize()?,
                    from,
                    to,
                });
            }
            for w in partition {
                w.reject_unknown(&["x", "from_secs", "to_secs"])?;
                let (from, to) = fault_window_times(w)?;
                ws.push(FaultWindow::Partition {
                    x: w.require("x")?.float()?,
                    from,
                    to,
                });
            }
            for w in class_loss {
                w.reject_unknown(&["class", "drop", "from_secs", "to_secs"])?;
                let (from, to) = fault_window_times(w)?;
                let class_e = w.require("class")?;
                let class = u8::try_from(class_e.int()?)
                    .map_err(|_| TomlError::at(class_e.line, "class must fit in 0..=255"))?;
                ws.push(FaultWindow::ClassLoss {
                    class,
                    drop: w.require("drop")?.float()?,
                    from,
                    to,
                });
            }
            if ws.is_empty() {
                return Err(TomlError::at(
                    mode.line,
                    "mode = \"windows\" but no [[faults.crash]] / [[faults.blackout]] / [[faults.partition]] / [[faults.class_loss]] tables follow",
                ));
            }
            Ok(FaultSpec::Windows(ws))
        }
        other => Err(TomlError::at(
            mode.line,
            format!("unknown fault mode \"{other}\" (expected random or windows)"),
        )),
    }
}

/// Parse a variant name: `ODMRP` is the baseline; any name registered in
/// the [`MetricRegistry`](mcast_metrics::MetricRegistry) (canonical or
/// alias, case-insensitive) selects that metric variant. The `ODMRP_` label
/// prefix is accepted. Unknown names list every registered metric so the
/// deck error is self-repairing.
pub fn parse_variant(s: &str) -> Result<Variant, String> {
    let core = s.strip_prefix("ODMRP_").unwrap_or(s);
    if core.eq_ignore_ascii_case("ODMRP") {
        return Ok(Variant::Original);
    }
    let registry = mcast_metrics::MetricRegistry::global();
    match registry.lookup(core) {
        Some(plugin) => Ok(Variant::Metric(plugin.kind)),
        None => {
            let names: Vec<&str> = registry.names().collect();
            Err(format!(
                "unknown variant \"{core}\" (expected ODMRP or a registered metric: {})",
                names.join(", ")
            ))
        }
    }
}

/// The canonical name [`parse_variant`] round-trips.
pub fn variant_name(v: Variant) -> &'static str {
    match v {
        Variant::Original => "ODMRP",
        Variant::Metric(k) => k.name(),
    }
}

fn compile_sweep(doc: &Doc, scenario: &WorkloadScenario) -> Result<SweepSpec, TomlError> {
    let mut spec = SweepSpec::default_spec();
    if let Some(t) = doc.table("sweep") {
        t.reject_unknown(&["seeds", "base_seed", "retries", "variants", "limit"])?;
        if let Some(e) = t.get("seeds") {
            let n = e.usize()? as u64;
            if n == 0 {
                return Err(TomlError::at(e.line, "seeds must be at least 1"));
            }
            spec.seeds = n;
        }
        if let Some(e) = t.get("base_seed") {
            spec.base_seed = e.usize()? as u64;
        }
        if let Some(e) = t.get("retries") {
            spec.retries = e.usize()? as u32;
        }
        if let Some(e) = t.get("variants") {
            let names = e.str_array()?;
            if names.is_empty() {
                return Err(TomlError::at(e.line, "variants must not be empty"));
            }
            spec.variants = names
                .iter()
                .map(|n| parse_variant(n).map_err(|msg| TomlError::at(e.line, msg)))
                .collect::<Result<_, _>>()?;
        }
        if let Some(e) = t.get("limit") {
            spec.limit = Some(e.usize()?);
        }
    }
    if let Some(t) = doc.table("sweep.axes") {
        for e in &t.entries {
            let values = e.float_array()?;
            if values.is_empty() {
                return Err(TomlError::at(
                    e.line,
                    format!("axis `{}` has no values", e.key),
                ));
            }
            if !SUPPORTED_AXES.contains(&e.key.as_str()) {
                return Err(TomlError::at(
                    e.line,
                    format!(
                        "unsupported sweep axis `{}` (supported: {})",
                        e.key,
                        SUPPORTED_AXES.join(", ")
                    ),
                ));
            }
            // Prove every value applies cleanly now, with a line to point at,
            // instead of failing mid-sweep.
            for &v in &values {
                let mut probe = scenario.clone();
                super::sweep::apply_axis(&mut probe, &e.key, v)
                    .map_err(|msg| TomlError::at(e.line, msg))?;
            }
            spec.axes.push((e.key.clone(), values));
        }
    }
    Ok(spec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcast_metrics::MetricKind;

    const MINIMAL: &str = "name = \"t\"\n[topology]\nfamily = \"random\"\nnodes = 30\n";

    #[test]
    fn minimal_file_gets_paper_defaults() {
        let c = compile(MINIMAL).unwrap();
        assert_eq!(c.scenario.name, "t");
        assert_eq!(c.scenario.mesh.nodes, 30);
        assert_eq!(c.scenario.mesh.groups, 2);
        assert_eq!(c.scenario.mesh.probe_rate, 1.0);
        assert_eq!(c.scenario.topology, TopologyFamily::Random);
        assert_eq!(c.scenario.traffic, TrafficMix::Steady);
        assert!(c.scenario.churn.is_none());
        assert_eq!(c.sweep, SweepSpec::default_spec());
    }

    #[test]
    fn zero_node_topology_is_an_error_with_the_nodes_line() {
        let err =
            compile("name = \"t\"\n[topology]\nfamily = \"random\"\nnodes = 0\n").unwrap_err();
        assert_eq!(err.line, 4);
        assert!(err.msg.contains("at least 2 nodes"), "{}", err.msg);
    }

    #[test]
    fn grid_derives_nodes_and_rejects_explicit_ones() {
        let src =
            "name = \"g\"\n[topology]\nfamily = \"grid\"\ncols = 5\nrows = 5\nspacing = 200.0\n";
        let c = compile(src).unwrap();
        assert_eq!(c.scenario.mesh.nodes, 25);
        assert_eq!(c.scenario.mesh.area_side, 800.0);

        let err = compile("name = \"g\"\n[topology]\nfamily = \"grid\"\nnodes = 25\ncols = 5\nrows = 5\nspacing = 200.0\n")
            .unwrap_err();
        assert_eq!(err.line, 4);
        assert!(err.msg.contains("not valid for family"), "{}", err.msg);
    }

    #[test]
    fn testbed_family_fixes_the_floor_plan() {
        let c = compile("name = \"tb\"\n[topology]\nfamily = \"testbed\"\n").unwrap();
        assert_eq!(c.scenario.topology, TopologyFamily::Testbed);
        assert_eq!(c.scenario.mesh.nodes, 8);
        assert_eq!(c.scenario.mesh.members_per_group, 2);
        let err =
            compile("name = \"tb\"\n[topology]\nfamily = \"testbed\"\nnodes = 8\n").unwrap_err();
        assert_eq!(err.line, 4);
        let err = compile("name = \"tb\"\n[topology]\nfamily = \"testbed\"\n[groups]\ncount = 1\n")
            .unwrap_err();
        assert_eq!(err.line, 4);
        assert!(err.msg.contains("Figure 4"), "{}", err.msg);
    }

    #[test]
    fn protocol_kind_selects_the_tree_protocol() {
        assert_eq!(
            compile(MINIMAL).unwrap().scenario.protocol,
            ProtocolKind::Odmrp
        );
        let c = compile(&format!("{MINIMAL}[protocol]\nkind = \"maodv\"\n")).unwrap();
        assert_eq!(c.scenario.protocol, ProtocolKind::Maodv);
        let err = compile(&format!("{MINIMAL}[protocol]\nkind = \"dvmrp\"\n")).unwrap_err();
        assert_eq!(err.line, 6);
        assert!(err.msg.contains("unknown protocol kind"), "{}", err.msg);
    }

    #[test]
    fn unknown_key_points_at_its_line() {
        let err = compile("name = \"t\"\n[topology]\nfamily = \"random\"\nnodes = 30\nwat = 1\n")
            .unwrap_err();
        assert_eq!(err.line, 5);
        assert!(err.msg.contains("unknown key `wat`"), "{}", err.msg);
    }

    #[test]
    fn churn_window_leave_before_join_is_rejected_at_the_leave_line() {
        let src = "name = \"t\"\n[topology]\nfamily = \"random\"\nnodes = 30\n\
                   [[churn.window]]\nnode = 3\ngroup = 0\njoin_secs = 50.0\nleave_secs = 40.0\n";
        let err = compile(src).unwrap_err();
        assert_eq!(err.line, 9);
        assert!(err.msg.contains("must be after join_secs"), "{}", err.msg);
    }

    #[test]
    fn overlapping_explicit_windows_are_rejected() {
        let src = "name = \"t\"\n[topology]\nfamily = \"random\"\nnodes = 30\n\
                   [[churn.window]]\nnode = 3\ngroup = 0\njoin_secs = 40.0\nleave_secs = 90.0\n\
                   [[churn.window]]\nnode = 3\ngroup = 0\njoin_secs = 60.0\nleave_secs = 120.0\n";
        let err = compile(src).unwrap_err();
        assert!(err.msg.contains("overlapping churn windows"), "{}", err.msg);
    }

    #[test]
    fn variants_parse_and_unknown_names_fail() {
        let c = compile(&format!(
            "{MINIMAL}[sweep]\nvariants = [\"ODMRP\", \"SPP\", \"InvETX\", \"wcett_lb\"]\n"
        ))
        .unwrap();
        assert_eq!(
            c.sweep.variants,
            vec![
                Variant::Original,
                Variant::Metric(MetricKind::Spp),
                Variant::Metric(MetricKind::InvEtx),
                Variant::Metric(MetricKind::WcettLb),
            ]
        );
        let err = compile(&format!("{MINIMAL}[sweep]\nvariants = [\"WAT\"]\n")).unwrap_err();
        assert_eq!(err.line, 6);
        assert!(err.msg.contains("unknown variant"), "{}", err.msg);
        // The rejection names every registered metric, so a deck author can
        // fix the typo without opening the source.
        for name in mcast_metrics::MetricRegistry::global().names() {
            assert!(err.msg.contains(name), "error omits {name}: {}", err.msg);
        }
        for v in crate::runner::paper_variants() {
            assert_eq!(parse_variant(variant_name(v)).unwrap(), v);
        }
    }

    #[test]
    fn every_registered_metric_is_deck_selectable() {
        // Tentpole acceptance: names come from the registry, so UnicastEtx
        // (never listed in the old hand-written match) and the new entrants
        // are all reachable from decks, prefix and case included.
        for p in mcast_metrics::MetricRegistry::global().plugins() {
            assert_eq!(
                parse_variant(p.name).unwrap(),
                Variant::Metric(p.kind),
                "{}",
                p.name
            );
            assert_eq!(
                parse_variant(&format!("ODMRP_{}", p.name)).unwrap(),
                Variant::Metric(p.kind)
            );
            assert_eq!(
                parse_variant(&p.name.to_ascii_lowercase()).unwrap(),
                Variant::Metric(p.kind)
            );
            for alias in p.aliases {
                assert_eq!(parse_variant(alias).unwrap(), Variant::Metric(p.kind));
            }
        }
        assert_eq!(
            parse_variant("ETX-bidir").unwrap(),
            Variant::Metric(MetricKind::UnicastEtx)
        );
    }

    #[test]
    fn degenerate_probe_rates_fail_at_their_line() {
        for bad in ["0.0", "0", "-1.0"] {
            let err = compile(&format!("{MINIMAL}[protocol]\nprobe_rate = {bad}\n")).unwrap_err();
            assert_eq!(err.line, 6, "probe_rate = {bad}");
            assert!(
                err.msg.contains("probe_rate must be positive and finite"),
                "probe_rate = {bad}: {}",
                err.msg
            );
        }
        // Non-finite literals never even reach the check: the TOML subset
        // rejects them while lexing the value, same line anchoring.
        let err = compile(&format!("{MINIMAL}[protocol]\nprobe_rate = 1e999\n")).unwrap_err();
        assert_eq!(err.line, 6);
        assert!(err.msg.contains("non-finite"), "{}", err.msg);
        let ok = compile(&format!("{MINIMAL}[protocol]\nprobe_rate = 5.0\n")).unwrap();
        assert_eq!(ok.scenario.mesh.probe_rate, 5.0);
    }

    #[test]
    fn unsupported_sweep_axis_is_rejected_at_its_line() {
        let err = compile(&format!(
            "{MINIMAL}[sweep.axes]\n\"protocol.delta_ms\" = [10, 20]\n"
        ))
        .unwrap_err();
        assert_eq!(err.line, 6);
        assert!(err.msg.contains("unsupported sweep axis"), "{}", err.msg);
    }

    /// A sweep axis value that the deck body rejects fails at the axis
    /// line with the body's wording: it is not clamped to one (counts) or
    /// saturated to zero (negative durations) and then run under a label
    /// naming the value it did not run.
    #[test]
    fn sweep_axes_reject_what_the_deck_body_rejects() {
        let base = format!(
            "{MINIMAL}[traffic]\nmix = \"bursty\"\non_secs = 1.0\noff_secs = 2.0\n\
             [churn]\nper_group = 1\nstart_secs = 40.0\nend_secs = 80.0\n\
             dwell_secs = 10.0\nstagger_secs = 1.0\n"
        );
        let axis_line = base.lines().count() + 2;
        compile(&base).expect("the base deck compiles");
        for (axis, bad, msg) in [
            ("groups.count", "0", "a scenario needs at least one group"),
            (
                "groups.sources",
                "0",
                "each group needs at least one source",
            ),
            (
                "traffic.off_secs",
                "-1",
                "key `traffic.off_secs` must be >= 0, got -1",
            ),
            (
                "churn.stagger_secs",
                "-2",
                "key `churn.stagger_secs` must be >= 0, got -2",
            ),
            (
                "churn.dwell_secs",
                "-3",
                "key `churn.dwell_secs` must be >= 0, got -3",
            ),
        ] {
            let deck = format!("{base}[sweep.axes]\n\"{axis}\" = [{bad}, 2]\n");
            let err = compile(&deck).unwrap_err();
            assert_eq!(
                (err.line, err.msg.as_str()),
                (axis_line, msg),
                "axis `{axis}`"
            );
        }
    }

    #[test]
    fn traffic_bursty_needs_positive_on() {
        let err = compile(&format!(
            "{MINIMAL}[traffic]\nmix = \"bursty\"\non_secs = 0.0\noff_secs = 2.0\n"
        ))
        .unwrap_err();
        assert_eq!(err.line, 7);
        assert!(err.msg.contains("on_secs must be positive"), "{}", err.msg);

        let err = compile(&format!(
            "{MINIMAL}[traffic]\nmix = \"steady\"\non_secs = 1.0\n"
        ))
        .unwrap_err();
        assert!(err.msg.contains("only applies to"), "{}", err.msg);
    }

    #[test]
    fn fault_modes_are_mutually_exclusive_with_windows() {
        let src = format!(
            "{MINIMAL}[faults]\nmode = \"random\"\nrandom_intensity = 0.4\n\
             [[faults.crash]]\nnode = 1\nfrom_secs = 40.0\nto_secs = 60.0\n"
        );
        let err = compile(&src).unwrap_err();
        assert!(err.msg.contains("cannot be combined"), "{}", err.msg);

        let ok = compile(&format!(
            "{MINIMAL}[faults]\nmode = \"random\"\nrandom_intensity = 0.4\n"
        ))
        .unwrap();
        assert_eq!(ok.scenario.faults, FaultSpec::Random { intensity: 0.4 });
    }

    #[test]
    fn cross_field_backstop_blames_a_section() {
        // Roles exceed node count only when groups are combined with the
        // topology — a genuinely cross-field failure.
        let err = compile(
            "name = \"t\"\n[topology]\nfamily = \"random\"\nnodes = 10\n[groups]\ncount = 4\nmembers = 5\n",
        )
        .unwrap_err();
        assert!(err.line > 0);
        assert!(err.msg.contains("distinct nodes"), "{}", err.msg);
    }

    #[test]
    fn generated_churn_requires_start_and_end() {
        let err = compile(&format!("{MINIMAL}[churn]\nper_group = 2\n")).unwrap_err();
        assert!(
            err.msg.contains("missing required key `start_secs`"),
            "{}",
            err.msg
        );
    }
}

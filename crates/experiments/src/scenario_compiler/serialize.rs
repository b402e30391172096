//! Serializing a [`WorkloadScenario`] back to canonical TOML.
//!
//! The emitted text is the compiler's fixed point: `compile(to_toml(w))`
//! returns a scenario equal to `w` for every scenario in canonical form —
//! which is every scenario the compiler itself produces (the round-trip
//! property test drives this through randomized specs). Canonical form
//! means derived fields are consistent (`validate()` passes), disabled
//! features carry their zero values (e.g. a churn spec with
//! `per_group = 0` and no explicit windows is `None`, not a zeroed spec),
//! and the medium is indexed (`mesh.indexed_medium`, which no deck key
//! sets).

use crate::scenario_compiler::compile::{variant_name, SweepSpec};
use crate::scenario_compiler::workload::{
    FaultSpec, FaultWindow, ProtocolKind, TopologyFamily, TrafficMix, WorkloadScenario,
};
use mesh_sim::time::{SimDuration, SimTime};
use std::fmt::Write as _;

fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            _ => out.push(c),
        }
    }
    out
}

/// Format an `f64` so it parses back bit-identically and is always a TOML
/// float (Rust's `{:?}` prints `1000.0`, never `1000`).
fn f(v: f64) -> String {
    format!("{v:?}")
}

fn secs(t: SimTime) -> String {
    f(t.as_secs_f64())
}

fn dur_secs(d: SimDuration) -> String {
    f(d.as_secs_f64())
}

/// Render a scenario (and optionally its sweep settings) as canonical TOML.
pub fn to_toml(w: &WorkloadScenario, sweep: Option<&SweepSpec>) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "name = \"{}\"", esc(&w.name));

    let _ = writeln!(s, "\n[topology]");
    match w.topology {
        TopologyFamily::Random => {
            let _ = writeln!(s, "family = \"random\"");
            let _ = writeln!(s, "nodes = {}", w.mesh.nodes);
            let _ = writeln!(s, "area_side = {}", f(w.mesh.area_side));
        }
        TopologyFamily::Grid {
            cols,
            rows,
            spacing,
        } => {
            let _ = writeln!(s, "family = \"grid\"");
            let _ = writeln!(s, "cols = {cols}");
            let _ = writeln!(s, "rows = {rows}");
            let _ = writeln!(s, "spacing = {}", f(spacing));
        }
        TopologyFamily::Metro { side_per_50 } => {
            let _ = writeln!(s, "family = \"metro\"");
            let _ = writeln!(s, "nodes = {}", w.mesh.nodes);
            let _ = writeln!(s, "side_per_50 = {}", f(side_per_50));
        }
        TopologyFamily::Testbed => {
            let _ = writeln!(s, "family = \"testbed\"");
        }
    }
    let _ = writeln!(s, "range = {}", f(w.mesh.range));

    if w.topology != TopologyFamily::Testbed {
        let _ = writeln!(s, "\n[groups]");
        let _ = writeln!(s, "count = {}", w.mesh.groups);
        let _ = writeln!(s, "members = {}", w.mesh.members_per_group);
        let _ = writeln!(s, "sources = {}", w.mesh.sources_per_group);
    }

    let _ = writeln!(s, "\n[time]");
    let _ = writeln!(s, "data_start_secs = {}", secs(w.mesh.data_start));
    let _ = writeln!(s, "data_stop_secs = {}", secs(w.mesh.data_stop));

    let _ = writeln!(s, "\n[protocol]");
    if w.protocol == ProtocolKind::Maodv {
        let _ = writeln!(s, "kind = \"maodv\"");
    }
    let _ = writeln!(s, "probe_rate = {}", f(w.mesh.probe_rate));
    let _ = writeln!(s, "delta_ms = {}", f(w.mesh.delta.as_secs_f64() * 1000.0));
    let _ = writeln!(s, "alpha_ms = {}", f(w.mesh.alpha.as_secs_f64() * 1000.0));
    let _ = writeln!(s, "fading = {}", w.mesh.fading);
    let _ = writeln!(s, "degraded = {}", w.mesh.degraded);

    match w.traffic {
        TrafficMix::Steady => {}
        TrafficMix::Bursty { on, off } => {
            let _ = writeln!(s, "\n[traffic]");
            let _ = writeln!(s, "mix = \"bursty\"");
            let _ = writeln!(s, "on_secs = {}", dur_secs(on));
            let _ = writeln!(s, "off_secs = {}", dur_secs(off));
        }
    }

    if let Some(churn) = &w.churn {
        let _ = writeln!(s, "\n[churn]");
        if churn.per_group > 0 {
            let _ = writeln!(s, "per_group = {}", churn.per_group);
            let _ = writeln!(s, "start_secs = {}", secs(churn.start));
            let _ = writeln!(s, "end_secs = {}", secs(churn.end));
            let _ = writeln!(s, "dwell_secs = {}", dur_secs(churn.dwell));
            let _ = writeln!(s, "stagger_secs = {}", dur_secs(churn.stagger));
            let _ = writeln!(s, "flash = {}", churn.flash);
        }
        for win in &churn.explicit {
            let _ = writeln!(s, "\n[[churn.window]]");
            let _ = writeln!(s, "node = {}", win.node);
            let _ = writeln!(s, "group = {}", win.group);
            let _ = writeln!(s, "join_secs = {}", secs(win.join));
            let _ = writeln!(s, "leave_secs = {}", secs(win.leave));
        }
    }

    if let Some(m) = &w.mobility {
        let _ = writeln!(s, "\n[mobility]");
        let _ = writeln!(s, "min_speed = {}", f(m.min_speed));
        let _ = writeln!(s, "max_speed = {}", f(m.max_speed));
        let _ = writeln!(s, "pause_secs = {}", dur_secs(m.pause));
    }

    match &w.faults {
        FaultSpec::None => {}
        FaultSpec::Random { intensity } => {
            let _ = writeln!(s, "\n[faults]");
            let _ = writeln!(s, "mode = \"random\"");
            let _ = writeln!(s, "random_intensity = {}", f(*intensity));
        }
        FaultSpec::Windows(ws) => {
            let _ = writeln!(s, "\n[faults]");
            let _ = writeln!(s, "mode = \"windows\"");
            // The compiler reads kinds in a fixed order (crash, blackout,
            // partition, class loss), so emit them grouped the same way.
            for w in ws {
                if let FaultWindow::Crash { node, from, to } = w {
                    let _ = writeln!(s, "\n[[faults.crash]]");
                    let _ = writeln!(s, "node = {node}");
                    let _ = writeln!(s, "from_secs = {}", secs(*from));
                    let _ = writeln!(s, "to_secs = {}", secs(*to));
                }
            }
            for w in ws {
                if let FaultWindow::LinkBlackout { a, b, from, to } = w {
                    let _ = writeln!(s, "\n[[faults.blackout]]");
                    let _ = writeln!(s, "a = {a}");
                    let _ = writeln!(s, "b = {b}");
                    let _ = writeln!(s, "from_secs = {}", secs(*from));
                    let _ = writeln!(s, "to_secs = {}", secs(*to));
                }
            }
            for w in ws {
                if let FaultWindow::Partition { x, from, to } = w {
                    let _ = writeln!(s, "\n[[faults.partition]]");
                    let _ = writeln!(s, "x = {}", f(*x));
                    let _ = writeln!(s, "from_secs = {}", secs(*from));
                    let _ = writeln!(s, "to_secs = {}", secs(*to));
                }
            }
            for w in ws {
                if let FaultWindow::ClassLoss {
                    class,
                    drop,
                    from,
                    to,
                } = w
                {
                    let _ = writeln!(s, "\n[[faults.class_loss]]");
                    let _ = writeln!(s, "class = {class}");
                    let _ = writeln!(s, "drop = {}", f(*drop));
                    let _ = writeln!(s, "from_secs = {}", secs(*from));
                    let _ = writeln!(s, "to_secs = {}", secs(*to));
                }
            }
        }
    }

    if let Some(spec) = sweep {
        let _ = writeln!(s, "\n[sweep]");
        let _ = writeln!(s, "seeds = {}", spec.seeds);
        let _ = writeln!(s, "base_seed = {}", spec.base_seed);
        let _ = writeln!(s, "retries = {}", spec.retries);
        let names: Vec<String> = spec
            .variants
            .iter()
            .map(|&v| format!("\"{}\"", variant_name(v)))
            .collect();
        let _ = writeln!(s, "variants = [{}]", names.join(", "));
        if let Some(limit) = spec.limit {
            let _ = writeln!(s, "limit = {limit}");
        }
        if !spec.axes.is_empty() {
            let _ = writeln!(s, "\n[sweep.axes]");
            for (key, values) in &spec.axes {
                let vs: Vec<String> = values.iter().map(|&v| f(v)).collect();
                let _ = writeln!(s, "\"{}\" = [{}]", esc(key), vs.join(", "));
            }
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::MeshScenario;
    use crate::scenario_compiler::compile::compile;
    use crate::scenario_compiler::workload::{ChurnSpec, ChurnWindow, MobilitySpec};
    use mesh_sim::time::{SimDuration, SimTime};

    #[test]
    fn round_trips_a_full_featured_scenario() {
        let mut w = WorkloadScenario::metro(
            "full",
            60,
            900.0,
            MeshScenario {
                groups: 3,
                members_per_group: 4,
                data_start: SimTime::from_secs(20),
                data_stop: SimTime::from_secs(80),
                probe_rate: 2.5,
                ..MeshScenario::paper_default()
            },
        );
        w.traffic = TrafficMix::Bursty {
            on: SimDuration::from_secs(4),
            off: SimDuration::from_millis(1500),
        };
        w.churn = Some(ChurnSpec {
            per_group: 2,
            start: SimTime::from_secs(25),
            end: SimTime::from_secs(75),
            dwell: SimDuration::from_secs(15),
            stagger: SimDuration::from_secs(5),
            flash: false,
            explicit: vec![ChurnWindow {
                node: 9,
                group: 1,
                join: SimTime::from_secs(30),
                leave: SimTime::from_secs(50),
            }],
        });
        w.mobility = Some(MobilitySpec {
            min_speed: 0.5,
            max_speed: 2.0,
            pause: SimDuration::from_secs(3),
        });
        w.faults = FaultSpec::Random { intensity: 0.35 };
        let w = w.validated();

        let src = to_toml(&w, None);
        let back = compile(&src).unwrap_or_else(|e| panic!("canonical TOML failed: {e}\n{src}"));
        assert_eq!(back.scenario, w, "round-trip changed the scenario:\n{src}");
    }

    #[test]
    fn round_trips_a_testbed_tree_scenario() {
        let src = "name = \"tb\"\n[topology]\nfamily = \"testbed\"\n[protocol]\nkind = \"maodv\"\n";
        let w = compile(src).unwrap().scenario;
        let back = compile(&to_toml(&w, None)).unwrap();
        assert_eq!(back.scenario, w);
    }

    #[test]
    fn round_trips_fault_windows_and_sweep() {
        let mut w = WorkloadScenario::grid("fw", 5, 5, 150.0, MeshScenario::paper_default());
        w.faults = FaultSpec::Windows(vec![
            FaultWindow::Crash {
                node: 3,
                from: SimTime::from_secs(40),
                to: SimTime::from_secs(60),
            },
            FaultWindow::LinkBlackout {
                a: 1,
                b: 2,
                from: SimTime::from_secs(45),
                to: SimTime::from_secs(55),
            },
            FaultWindow::Partition {
                x: 300.0,
                from: SimTime::from_secs(50),
                to: SimTime::from_secs(70),
            },
            FaultWindow::ClassLoss {
                class: 2,
                drop: 0.5,
                from: SimTime::from_secs(40),
                to: SimTime::from_secs(50),
            },
        ]);
        let w = w.validated();
        let spec = SweepSpec {
            seeds: 3,
            base_seed: 11,
            retries: 2,
            variants: crate::runner::paper_variants(),
            limit: Some(40),
            axes: vec![("topology.spacing".into(), vec![150.0, 200.0])],
        };
        let src = to_toml(&w, Some(&spec));
        let back = compile(&src).unwrap_or_else(|e| panic!("canonical TOML failed: {e}\n{src}"));
        assert_eq!(back.scenario, w, "scenario drifted:\n{src}");
        assert_eq!(back.sweep, spec, "sweep drifted:\n{src}");
    }
}

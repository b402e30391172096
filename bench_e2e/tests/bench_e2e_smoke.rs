//! Runs `bench_e2e --smoke` (one short job per workload), untraced and
//! traced, and checks that every metric `BENCHMARK.json` declares is
//! printed for every workload, finite and in its declared unit.

use std::path::Path;
use std::process::Command;

/// `(name, unit)` of every metric in one of `BENCHMARK.json`'s metric lists.
fn declared(list: &str) -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{list}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {list}"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("metric lists are arrays")];
    let metrics: Vec<(String, String)> = body
        .split('{')
        .skip(1)
        .map(|obj| (field(obj, "name"), field(obj, "unit")))
        .collect();
    assert!(!metrics.is_empty(), "{list} is empty");
    metrics
}

/// The string value of `"key": "value"` inside one JSON object's text.
fn field(obj: &str, key: &str) -> String {
    let (_, rest) = obj
        .split_once(&format!("\"{key}\": \""))
        .unwrap_or_else(|| panic!("metric without {key}: {obj}"));
    rest.split('"').next().expect("closing quote").to_string()
}

/// The JSON result line of each workload of a smoke run.
fn smoke(trace: &str) -> Vec<String> {
    let out = Command::new(env!("CARGO_BIN_EXE_bench_e2e"))
        .args(["--smoke", "--trace", trace])
        .output()
        .expect("bench_e2e runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "bench_e2e --smoke --trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let lines: Vec<String> = stdout
        .lines()
        .filter(|l| l.starts_with('{'))
        .map(String::from)
        .collect();
    assert_eq!(lines.len(), 4, "one result line per workload:\n{stdout}");
    lines
}

fn assert_reported(lines: &[String], metrics: &[(String, String)]) {
    for line in lines {
        assert!(line.contains("\"correct\": true"), "{line}");
        for (name, unit) in metrics {
            let key = format!("\"{name}\": {{\"value\": ");
            let (_, rest) = line
                .split_once(&key)
                .unwrap_or_else(|| panic!("{name} missing from {line}"));
            let (value, rest) = rest.split_once(", \"unit\": \"").expect("value, then unit");
            let value: f64 = value.parse().expect("numeric value");
            assert!(value.is_finite(), "{name} = {value}");
            assert!(
                rest.starts_with(&format!("{unit}\"")),
                "{name} is not in {unit}: {line}"
            );
        }
    }
}

#[test]
fn smoke_reports_every_end_to_end_metric() {
    assert_reported(&smoke("0"), &declared("end_to_end"));
}

#[test]
fn smoke_reports_every_per_layer_metric() {
    assert_reported(&smoke("1"), &declared("per_layer"));
}

//! `MetricKind` ↔ deck ↔ report round-trips: `MetricKind::ALL` is the
//! single list of metrics, so every kind must (a) be selectable from a TOML
//! deck, (b) round-trip through the variant parser, (c) show up in the
//! comparison tables, and (d) be documented in EXPERIMENTS.md. A metric you
//! can build but not select, render, or read about is a half-added metric —
//! this suite makes that a test failure instead of a code-review hope.

use experiments::report;
use experiments::runner::{comparison_variants, paper_variants, VariantSummary};
use experiments::scenario_compiler::{compile, parse_variant, variant_name};
use experiments::stats::Summary;
use mcast_metrics::MetricKind;
use odmrp::Variant;

/// A minimal deck selecting `names` on the sweep variants axis.
fn deck_with_variants(names: &[&str]) -> String {
    let quoted: Vec<String> = names.iter().map(|n| format!("\"{n}\"")).collect();
    format!(
        "name = \"t\"\n[topology]\nfamily = \"random\"\nnodes = 30\n\
         [sweep]\nvariants = [{}]\n",
        quoted.join(", ")
    )
}

#[test]
fn every_metric_name_compiles_from_a_deck() {
    for kind in MetricKind::ALL {
        // Canonical name and every alias, bare and lowercased, with and
        // without the ODMRP_ label prefix in any case.
        let mut spellings = Vec::new();
        for name in std::iter::once(kind.name()).chain(kind.aliases().iter().copied()) {
            for prefix in ["", "ODMRP_", "odmrp_", "Odmrp_"] {
                spellings.push(format!("{prefix}{name}"));
                spellings.push(format!("{prefix}{}", name.to_ascii_lowercase()));
            }
        }
        for spelling in spellings {
            let deck = deck_with_variants(&[&spelling]);
            let compiled = compile(&deck)
                .unwrap_or_else(|e| panic!("deck with variant {spelling:?} rejected: {e}"));
            assert_eq!(
                compiled.sweep.variants,
                vec![Variant::Metric(kind)],
                "spelling {spelling:?}"
            );
        }
    }
}

#[test]
fn variant_names_round_trip_through_the_parser() {
    let mut all = vec![Variant::Original];
    all.extend(MetricKind::ALL.map(Variant::Metric));
    for v in all {
        assert_eq!(parse_variant(variant_name(v)).unwrap(), v, "{v:?}");
        // The display label (what reports print) parses back too.
        assert_eq!(parse_variant(&v.label()).unwrap(), v, "{v:?}");
    }
}

#[test]
fn unknown_variant_rejection_names_every_metric() {
    let err = compile(&deck_with_variants(&["WAT"])).unwrap_err();
    assert!(err.msg.contains("unknown variant \"WAT\""), "{}", err.msg);
    for kind in MetricKind::ALL {
        let name = kind.name();
        assert!(err.msg.contains(name), "error omits {name}: {}", err.msg);
    }
}

/// A synthetic per-variant summary with distinguishable numbers.
fn synthetic_summary(v: Variant, x: f64) -> VariantSummary {
    let s = |m: f64| Summary::of([m, m]);
    VariantSummary {
        variant: v,
        pdr: s(0.5 + x / 100.0),
        normalized_throughput: s(1.0 + x / 10.0),
        normalized_delay: s(1.0 - x / 50.0),
        probe_overhead_pct: s(x),
    }
}

#[test]
fn comparison_tables_render_every_comparison_metric() {
    let mut summaries = vec![synthetic_summary(Variant::Original, 0.0)];
    summaries.extend(
        MetricKind::ALL
            .iter()
            .enumerate()
            .map(|(i, &k)| synthetic_summary(Variant::Metric(k), 1.0 + i as f64)),
    );
    let throughput = report::throughput_table(&summaries, &[]);
    let delay = report::delay_table(&summaries);
    let overhead = report::overhead_table(&summaries);
    let bars = report::throughput_bars(&summaries, &[]);
    for kind in MetricKind::comparison_kinds() {
        let label = Variant::Metric(kind).label();
        // Throughput/delay rows carry the full variant label; overhead and
        // the bar chart use the bare metric name.
        for (table, text) in [("throughput", &throughput), ("delay", &delay)] {
            assert!(
                text.contains(&label),
                "{label} missing from the {table} table:\n{text}"
            );
        }
        for (table, text) in [("overhead", &overhead), ("bars", &bars)] {
            assert!(
                text.contains(kind.name()),
                "{} missing from the {table} table:\n{text}",
                kind.name()
            );
        }
    }
}

#[test]
fn comparison_set_extends_the_frozen_paper_set() {
    // paper_variants() is frozen (golden shapes depend on it); the
    // comparison set must keep it as an exact prefix.
    let comparison = comparison_variants();
    assert_eq!(comparison[..paper_variants().len()], paper_variants());
    assert!(comparison.contains(&Variant::Metric(MetricKind::InvEtx)));
    assert!(comparison.contains(&Variant::Metric(MetricKind::WcettLb)));
}

#[test]
fn experiments_doc_lists_every_metric_name() {
    let doc = std::fs::read_to_string(
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../EXPERIMENTS.md"),
    )
    .expect("EXPERIMENTS.md at the repo root");
    for kind in MetricKind::ALL {
        assert!(
            doc.contains(kind.name()),
            "EXPERIMENTS.md does not mention metric {}",
            kind.name()
        );
    }
}

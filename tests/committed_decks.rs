//! Every committed scenario deck passes the scenario compiler's static
//! check: parse, compile, validate the sweep expansion against its cap and
//! expand every axis, without running anything. A deck that drifted out
//! from under a compiler change fails here with its file and line, not at
//! the top of a sweep or a benchmark run.

use wmm::experiments::scenario_compiler::check;

#[test]
fn every_committed_deck_passes_the_static_check() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut failures = Vec::new();
    for dir in ["scenarios", "bench_e2e/scenarios"] {
        let mut decks: Vec<std::path::PathBuf> = std::fs::read_dir(root.join(dir))
            .unwrap_or_else(|e| panic!("read {dir}: {e}"))
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|x| x == "toml"))
            .collect();
        decks.sort();
        assert!(!decks.is_empty(), "no decks in {dir}");
        for deck in decks {
            let src = std::fs::read_to_string(&deck)
                .unwrap_or_else(|e| panic!("read {}: {e}", deck.display()));
            if let Err(e) = check(&src) {
                let name = deck.file_name().unwrap().to_string_lossy();
                failures.push(format!("{dir}/{name}:{}: {}", e.line, e.msg));
            }
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

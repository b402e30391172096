//! CLI regression tests for the `sweep` binary's failure paths: malformed
//! decks, unwritable output and mid-run JSONL write failures must all be
//! reported as clean errors with a nonzero exit — never as panics (a panic
//! inside the progress callback used to take the whole sweep down with it).
//! A usage error exits 2 and a failed sweep 1, so scripts can tell them
//! apart.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// A deliberately small deck: one config x one variant x one seed, with the
/// shortest data window the fig2-quick topology validates.
const TINY_DECK: &str = r#"
name = "tiny"

[topology]
family = "random"
nodes = 30
area_side = 800.0
range = 250.0

[groups]
count = 2
members = 10
sources = 1

[time]
data_start_secs = 30.0
data_stop_secs = 40.0

[sweep]
seeds = 1
variants = ["ODMRP"]
"#;

fn sweep() -> Command {
    Command::new(env!("CARGO_BIN_EXE_sweep"))
}

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/scenarios")
        .join(name)
}

/// Fresh per-test scratch directory under the target dir (kept out of the
/// source tree so workspace scans never see generated decks).
fn scratch(tag: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("sweep-cli-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn write_deck(dir: &Path) -> PathBuf {
    let deck = dir.join("tiny.toml");
    std::fs::write(&deck, TINY_DECK).expect("write deck");
    deck
}

#[track_caller]
fn assert_clean_failure(out: &Output, needle: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "expected failure, got: {stderr}");
    assert!(
        !stderr.contains("panicked"),
        "error path panicked instead of reporting: {stderr}"
    );
    assert!(
        stderr.contains(needle),
        "stderr missing {needle:?}: {stderr}"
    );
}

#[test]
fn malformed_deck_is_a_clean_error() {
    let out = sweep()
        .arg(fixture("unknown-key.toml"))
        .output()
        .expect("spawn sweep");
    assert_clean_failure(&out, "unknown key `rage`");
    assert_eq!(out.status.code(), Some(1), "a failed sweep exits 1");
}

#[test]
fn usage_errors_exit_2() {
    let cases: [(&[&str], &str); 4] = [
        (&["--bogus"], "unknown argument: --bogus"),
        (
            &["deck.toml", "--limit", "many"],
            "bad value for --limit: many",
        ),
        (&["--help"], "usage: sweep"),
        (&["--quick"], "usage: sweep"),
    ];
    for (args, needle) in cases {
        let out = sweep().args(args).output().expect("spawn sweep");
        assert_clean_failure(&out, needle);
        assert_eq!(out.status.code(), Some(2), "sweep {args:?}");
    }
}

#[test]
fn check_mode_validates_without_running() {
    let dir = scratch("check-ok");
    let out = sweep()
        .arg(write_deck(&dir))
        .arg("--check")
        .output()
        .expect("spawn sweep");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "--check failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        stdout.contains("tiny: ok") && stdout.contains("1 jobs over 1 config(s)"),
        "unexpected --check report: {stdout}"
    );
    assert!(
        !dir.join("results").exists(),
        "--check must not create output"
    );
}

#[test]
fn check_mode_rejects_bad_decks() {
    let out = sweep()
        .arg(fixture("bad-sweep-axis.toml"))
        .arg("--check")
        .output()
        .expect("spawn sweep");
    assert_clean_failure(&out, "unsupported sweep axis");
}

#[test]
fn unwritable_out_dir_is_a_clean_error() {
    let dir = scratch("unwritable");
    let deck = write_deck(&dir);
    let blocker = dir.join("blocker");
    std::fs::write(&blocker, "a file, not a dir").expect("write blocker");
    let out = sweep()
        .arg(deck)
        .arg("--out")
        .arg(blocker.join("nested"))
        .output()
        .expect("spawn sweep");
    assert_clean_failure(&out, "cannot create");
}

#[test]
fn resume_with_no_manifest_is_a_clean_error() {
    let dir = scratch("resume-empty");
    let out = sweep()
        .arg("--resume")
        .arg(&dir)
        .output()
        .expect("spawn sweep");
    assert_clean_failure(&out, "nothing to resume");
}

#[test]
fn resume_rejects_extra_flags() {
    let dir = scratch("resume-flags");
    let deck = write_deck(&dir);
    let out = sweep()
        .arg(deck)
        .arg("--resume")
        .arg(&dir)
        .output()
        .expect("spawn sweep");
    assert_clean_failure(&out, "--resume takes only a directory");
    assert_eq!(out.status.code(), Some(2), "a usage error exits 2");
}

#[test]
fn resume_rejects_drifted_deck() {
    // A manifest whose grid fingerprint no longer matches what the deck
    // expands to (here: a bogus fingerprint) must refuse to resume — the
    // recorded JSONL and the pending jobs would describe different grids.
    let dir = scratch("resume-drift");
    let deck = write_deck(&dir);
    std::fs::write(
        dir.join("tiny.manifest.json"),
        format!(
            "{{\"scenario_file\":\"{}\",\"name\":\"tiny\",\"quick\":false,\"retries\":1,\
             \"limit\":null,\"jobs\":1,\"grid_fingerprint\":12345}}\n",
            deck.display()
        ),
    )
    .expect("write manifest");
    let out = sweep()
        .arg("--resume")
        .arg(&dir)
        .output()
        .expect("spawn sweep");
    assert_clean_failure(&out, "grid fingerprint drifted");
}

#[test]
fn finished_sweep_leaves_no_recovery_state() {
    let dir = scratch("resume-done");
    let deck = write_deck(&dir);
    let results = dir.join("results");
    let out = sweep()
        .arg(deck)
        .arg("--out")
        .arg(&results)
        .output()
        .expect("spawn sweep");
    assert!(
        out.status.success(),
        "sweep failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        !results.join("tiny.manifest.json").exists(),
        "manifest must be removed on success"
    );
    assert!(
        !results.join("tiny.ckpt").exists(),
        "checkpoint dir must be removed on success"
    );
    // ...so resuming a finished sweep reports there is nothing to do.
    let out = sweep()
        .arg("--resume")
        .arg(&results)
        .output()
        .expect("spawn sweep");
    assert_clean_failure(&out, "nothing to resume");
}

#[cfg(unix)]
#[test]
fn jsonl_write_failure_mid_run_is_a_clean_error() {
    // /dev/full accepts opens and fails every write with ENOSPC — the
    // classic disk-full simulation. Routing the JSONL stream there through
    // a symlink exercises the in-callback error capture.
    if !Path::new("/dev/full").exists() {
        eprintln!("skipping: /dev/full not available");
        return;
    }
    let dir = scratch("devfull");
    let deck = write_deck(&dir);
    let results = dir.join("results");
    std::fs::create_dir_all(&results).expect("create results dir");
    std::os::unix::fs::symlink("/dev/full", results.join("tiny.jsonl")).expect("symlink");
    let out = sweep()
        .arg(deck)
        .arg("--out")
        .arg(&results)
        .output()
        .expect("spawn sweep");
    assert_clean_failure(&out, "cannot append");
}

//! Golden snapshot-format fixture (DESIGN.md §14).
//!
//! `fixtures/checkpoint-v2.bin` is a committed checkpoint taken from a
//! pinned scenario (faults + mobility + metrics recorder active, so the
//! widest slice of the wire format is exercised). It must keep
//! deserializing forever under the current [`SNAPSHOT_FORMAT_VERSION`]:
//! any wire-format change breaks these tests, and the fix is to bump the
//! version **and** regenerate the fixture in the same PR:
//!
//! ```text
//! REGEN_SNAPSHOT_FIXTURE=1 cargo test -p experiments --test snapshot_format
//! ```

use experiments::scenario::MeshScenario;
use experiments::scenario_compiler::{FaultSpec, MobilitySpec, WorkloadScenario};
use mcast_metrics::MetricKind;
use mesh_sim::prelude::*;
use mesh_sim::snapshot::{SNAPSHOT_FORMAT_VERSION, SNAPSHOT_MAGIC};
use odmrp::Variant;
use std::path::PathBuf;

const FIXTURE_SEED: u64 = 42;
const FIXTURE_SNAP_AT: SimTime = SimTime::from_secs(20);
const FIXTURE_VARIANT: Variant = Variant::Metric(MetricKind::Etx);

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(format!("checkpoint-v{SNAPSHOT_FORMAT_VERSION}.bin"))
}

/// The pinned scenario the fixture was generated from. Faults, mobility and
/// the metrics recorder are all on so the checkpoint carries fault-plan
/// cursors, mobility RNG streams, link effects, estimator quarantine
/// machines and mid-bucket recorder state.
fn fixture_workload() -> WorkloadScenario {
    WorkloadScenario {
        mobility: Some(MobilitySpec {
            min_speed: 0.75,
            max_speed: 2.25,
            pause: SimDuration::ZERO,
        }),
        faults: FaultSpec::Random { intensity: 0.6 },
        ..WorkloadScenario::from_mesh(
            "snapshot-fixture",
            MeshScenario {
                nodes: 12,
                area_side: 500.0,
                groups: 1,
                members_per_group: 3,
                data_start: SimTime::from_secs(10),
                data_stop: SimTime::from_secs(40),
                ..MeshScenario::paper_default()
            },
        )
    }
}

fn generate_fixture_bytes() -> Vec<u8> {
    let w = fixture_workload();
    let mut sim = w.build(FIXTURE_VARIANT, FIXTURE_SEED);
    sim.world_mut().set_metrics(SimDuration::from_secs(3));
    sim.run_until(FIXTURE_SNAP_AT);
    sim.snapshot(w.fingerprint(FIXTURE_VARIANT, FIXTURE_SEED))
}

fn load_fixture() -> Vec<u8> {
    let path = fixture_path();
    if std::env::var_os("REGEN_SNAPSHOT_FIXTURE").is_some() {
        let bytes = generate_fixture_bytes();
        std::fs::create_dir_all(path.parent().expect("fixture dir")).expect("mkdir fixtures");
        std::fs::write(&path, &bytes).expect("write fixture");
        eprintln!("regenerated {} ({} bytes)", path.display(), bytes.len());
    }
    std::fs::read(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {} ({e}); regenerate with \
             REGEN_SNAPSHOT_FIXTURE=1 after a deliberate format bump",
            path.display()
        )
    })
}

/// Fingerprint recorded in the fixture header (bytes 8..16, LE). Read from
/// the file rather than recomputed so the fixture stays valid even if the
/// `Debug`-derived fingerprint input ever shifts — only *wire-format* drift
/// may invalidate a committed checkpoint.
fn header_fingerprint(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes[8..16].try_into().expect("8-byte fingerprint"))
}

/// The committed fixture must carry the current magic and version; bumping
/// [`SNAPSHOT_FORMAT_VERSION`] without regenerating the fixture (the file
/// name embeds the version) fails here.
#[test]
fn golden_fixture_header_matches_current_version() {
    let bytes = load_fixture();
    assert!(bytes.len() > 16, "fixture shorter than the snapshot header");
    assert_eq!(&bytes[0..4], &SNAPSHOT_MAGIC, "fixture magic drifted");
    let version = u32::from_le_bytes(bytes[4..8].try_into().expect("4-byte version"));
    assert_eq!(
        version, SNAPSHOT_FORMAT_VERSION,
        "fixture written by format v{version}, crate is v{SNAPSHOT_FORMAT_VERSION}: \
         regenerate the fixture in the same PR as the version bump"
    );
}

/// The committed fixture must keep restoring into a simulator built from
/// the pinned scenario, and the resumed run must complete. Any change to
/// the serialized layout of any [`Snap`]/[`SnapshotState`] impl breaks this
/// test until the format version is bumped and the fixture regenerated.
#[test]
fn golden_fixture_still_restores_and_runs() {
    let bytes = load_fixture();
    let w = fixture_workload();
    let mut sim = w.build(FIXTURE_VARIANT, FIXTURE_SEED);
    sim.world_mut().set_metrics(SimDuration::from_secs(3));
    sim.restore(&bytes, header_fingerprint(&bytes))
        .unwrap_or_else(|e| {
            panic!(
                "golden fixture no longer deserializes ({e}); the wire format \
                 changed — bump SNAPSHOT_FORMAT_VERSION and regenerate"
            )
        });
    assert_eq!(sim.now(), FIXTURE_SNAP_AT, "restored clock drifted");
    sim.run_until(w.run_until());
    assert!(sim.now() >= w.run_until());
    assert_ne!(sim.schedule_hash(), 0, "resumed run produced no events");
}

/// The current writer round-trips through the current reader byte-for-byte:
/// snapshotting the restored simulator reproduces the fixture exactly.
#[test]
fn snapshot_of_restored_sim_is_byte_identical() {
    let bytes = load_fixture();
    let w = fixture_workload();
    let fp = header_fingerprint(&bytes);
    let mut sim = w.build(FIXTURE_VARIANT, FIXTURE_SEED);
    sim.world_mut().set_metrics(SimDuration::from_secs(3));
    sim.restore(&bytes, fp).expect("fixture restores");
    assert_eq!(
        sim.snapshot(fp),
        bytes,
        "restore → snapshot is not the identity; serializer and \
         deserializer disagree about some field"
    );
}

//! Golden snapshot-format fixture and writer pins (DESIGN.md §14).
//!
//! `fixtures/checkpoint-v<N>.bin`, `N` the current
//! [`SNAPSHOT_FORMAT_VERSION`], is a committed checkpoint taken from a
//! pinned scenario (faults + mobility + metrics recorder active, so the
//! widest slice of the wire format is exercised), and the only one there.
//! It must keep deserializing under the current version; a wire-format
//! change is made by bumping the version, regenerating the fixture and
//! deleting the old one in the same commit:
//!
//! ```text
//! REGEN_SNAPSHOT_FIXTURE=1 cargo test -p experiments --test snapshot_format
//! ```
//!
//! Restoring the fixture and snapshotting it again cannot see a layout
//! change that the writer and the reader make together, such as two
//! swapped fields of one struct. So the writer is pinned as well: a fresh
//! snapshot of the pinned scenario must equal the fixture past its header,
//! and two deck snapshots that the fixture does not reach (MAODV trees,
//! the testbed's loss walk) keep literal length and FNV-1a pins. A
//! deliberate change to the event schedule moves both: regenerate the
//! fixture and update the pins in the same commit.
//!
//! Decoding is canonical: every truncated or bit-flipped mutant of the
//! fixture is either refused with a typed [`SnapError`] or restores into a
//! simulator whose snapshot is the mutant's exact bytes, and none panics.
//! An ignored forward pass runs every mutant that restores under the
//! world and ODMRP oracles on to the scenario's end, where none may panic
//! either. Replay one mutant by its name:
//!
//! ```text
//! SNAPSHOT_MUTANT='flip 2472.4' cargo test -p experiments --test snapshot_format \
//!     muta -- --include-ignored --nocapture
//! ```

use experiments::scenario::MeshScenario;
use experiments::scenario_compiler::{compile, FaultSpec, MobilitySpec, WorkloadScenario};
use maodv::MaodvNode;
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

/// `tests/fixtures/` holds exactly one checkpoint, the one named for the
/// current [`SNAPSHOT_FORMAT_VERSION`]: a version bump that regenerates
/// the fixture must delete the old one.
#[test]
fn only_the_current_version_has_a_fixture() {
    let dir = fixture_path().parent().expect("fixture dir").to_path_buf();
    let mut checkpoints: Vec<String> = std::fs::read_dir(&dir)
        .expect("read fixture dir")
        .map(|e| e.expect("fixture dir entry").file_name())
        .filter_map(|name| name.into_string().ok())
        .filter(|name| name.starts_with("checkpoint-v") && name.ends_with(".bin"))
        .collect();
    checkpoints.sort();
    assert_eq!(
        checkpoints,
        [format!("checkpoint-v{SNAPSHOT_FORMAT_VERSION}.bin")],
        "stale checkpoint fixtures in {}",
        dir.display()
    );
}

/// The committed fixture must keep restoring into a simulator built from
/// the pinned scenario, and the resumed run must complete. A layout change
/// that the reader cannot parse (a field added or removed, a tag changed)
/// breaks this test until the format version is bumped and the fixture
/// regenerated.
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

/// The writer itself is pinned: a fresh snapshot of the pinned scenario
/// equals the committed fixture past its 16-byte header. The round-trip
/// tests above cannot see a reordered field, because restore and
/// re-snapshot apply the same reorder; this one can.
#[test]
fn fresh_snapshot_equals_the_fixture_payload() {
    let bytes = load_fixture();
    let fresh = generate_fixture_bytes();
    assert_eq!(fresh.len(), bytes.len(), "snapshot length drifted");
    assert!(
        fresh[16..] == bytes[16..],
        "a fresh snapshot no longer matches the committed fixture: the \
         writer's layout or the event schedule changed"
    );
}

/// Byte length and FNV-1a digest of a snapshot's payload (past the header).
fn payload_pin(bytes: &[u8]) -> (usize, u64) {
    let digest = bytes[16..].iter().fold(0xcbf2_9ce4_8422_2325_u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    });
    (bytes.len(), digest)
}

/// Snapshot one committed deck at 60 s on seed 1, its nodes made by `node`.
fn deck_snapshot<P>(
    src: &str,
    variant: Variant,
    node: impl Fn(odmrp::OdmrpConfig, odmrp::NodeRole) -> P,
) -> Vec<u8>
where
    P: Protocol + SnapshotState,
    P::Msg: Snap,
{
    let w = compile(src).expect("committed deck compiles").scenario;
    let seed = 1;
    let cfg = w.mesh.odmrp_config(variant);
    let (mut sim, _) = w.assemble(seed, w.medium(seed), |r| node(cfg.clone(), r));
    sim.run_until(SimTime::from_secs(60));
    sim.snapshot(w.fingerprint(variant, seed))
}

/// The writer is pinned where the fixture does not reach: MAODV's grafts
/// and trees on `tree-quick` (SPP), and the testbed's link-table medium
/// with its loss walk on `testbed-quick` (ODMRP). A deliberate change to
/// the event schedule moves these pins; update them in the same commit.
#[test]
fn tree_and_testbed_snapshots_are_pinned() {
    let tree = deck_snapshot(
        include_str!("../../../scenarios/tree-quick.toml"),
        Variant::Metric(MetricKind::Spp),
        MaodvNode::new,
    );
    let testbed = deck_snapshot(
        include_str!("../../../scenarios/testbed-quick.toml"),
        Variant::Original,
        odmrp::OdmrpNode::new,
    );
    assert_eq!(
        payload_pin(&tree),
        (465_182, 0xf107_5b1a_5a43_27f2),
        "tree-quick MAODV snapshot"
    );
    assert_eq!(
        payload_pin(&testbed),
        (58_863, 0xf779_860d_8bb2_7c4d),
        "testbed-quick ODMRP snapshot"
    );
}

/// Restore `mutant` into a fresh fixture simulator, trusting its own
/// header fingerprint so that flipped fingerprint bits still reach the
/// body. Restore always refuses a state the world oracles find broken;
/// with `oracles` the simulator also registers the ODMRP oracle and checks
/// both every refresh interval, as supervised runs do.
fn restore_mutant(
    w: &WorkloadScenario,
    mutant: &[u8],
    oracles: bool,
) -> Result<(Simulator<odmrp::OdmrpNode>, u64), SnapError> {
    let fp = if mutant.len() >= 16 {
        header_fingerprint(mutant)
    } else {
        0
    };
    let mut sim = w.build(FIXTURE_VARIANT, FIXTURE_SEED);
    sim.world_mut().set_metrics(SimDuration::from_secs(3));
    if oracles {
        sim.set_invariant_interval(w.mesh.odmrp_config(FIXTURE_VARIANT).refresh_interval);
        sim.add_oracle(odmrp::invariants::oracle());
    }
    sim.restore(mutant, fp)?;
    Ok((sim, fp))
}

/// Restore runs the world oracles whether or not an invariant interval is
/// set, so a simulator without one refuses a checkpoint whose counters no
/// longer balance (one planned data arrival more than the resolved ones)
/// instead of resuming and reporting them.
#[test]
fn unsupervised_restore_refuses_unbalanced_counters() {
    let bytes = load_fixture();
    let w = fixture_workload();
    let (sim, _) = restore_mutant(&w, &bytes, false).expect("the fixture restores");
    let encode = |c: &Counters| {
        let mut out = SnapWriter::new();
        c.snap(&mut out);
        out.into_bytes()
    };
    let mut bumped = sim.counters().clone();
    bumped.planned_rx_data += 1;
    let (old, new) = (encode(sim.counters()), encode(&bumped));
    let at = bytes
        .windows(old.len())
        .position(|b| b == old)
        .expect("the world's counters in the fixture");
    let mut mutant = bytes.clone();
    mutant[at..at + old.len()].copy_from_slice(&new);
    assert_eq!(
        restore_mutant(&w, &mutant, false).err(),
        Some(SnapError::StateMismatch("invariant oracles"))
    );
}

/// Every 16th truncation of the fixture, then 2 000 single-bit flips at
/// bits drawn from `SimRng::seed_from(7)`, each with its name (`trunc
/// <len>` or `flip <offset>.<bit>`). `SNAPSHOT_MUTANT` set to one name
/// keeps that mutant alone.
fn mutants(bytes: &[u8]) -> impl Iterator<Item = (String, Vec<u8>)> + '_ {
    let only = std::env::var("SNAPSHOT_MUTANT").ok();
    let bits = u32::try_from(bytes.len() * 8).expect("fixture under 512 MiB");
    let mut rng = SimRng::seed_from(7);
    let flips = (0..2_000).map(move |_| {
        let at = rng.uniform_u32(bits) as usize;
        let mut m = bytes.to_vec();
        m[at / 8] ^= 1 << (at % 8);
        (format!("flip {}.{}", at / 8, at % 8), m)
    });
    let cuts = (0..bytes.len())
        .step_by(16)
        .map(|len| (format!("trunc {len}"), bytes[..len].to_vec()));
    cuts.chain(flips)
        .filter(move |(name, _)| only.as_ref().is_none_or(|o| o == name))
}

/// Run `f` on a mutant, turning a panic into `Err` with the mutant's name.
fn guarded<T>(name: &str, f: impl FnOnce() -> T) -> Result<T, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).map_err(|_| name.to_string())
}

/// Every mutant of [`mutants`] must be refused with a typed [`SnapError`]
/// or restore canonically, to a simulator that snapshots to the mutant's
/// exact bytes; no mutant may panic.
#[test]
fn mutated_checkpoints_fail_typed_or_restore_canonically() {
    let bytes = load_fixture();
    let w = fixture_workload();
    let (mut ok, mut typed) = (0, 0);
    let (mut panics, mut non_canonical) = (Vec::new(), Vec::new());
    for (name, mutant) in mutants(&bytes) {
        let outcome = guarded(&name, || {
            restore_mutant(&w, &mutant, false)
                .ok()
                .map(|(sim, fp)| sim.snapshot(fp))
        });
        match outcome {
            Err(name) => panics.push(name),
            Ok(None) => typed += 1,
            Ok(Some(again)) if again == mutant => ok += 1,
            Ok(Some(_)) => non_canonical.push(name),
        }
    }
    eprintln!(
        "mutants: {ok} restored canonically, {typed} typed errors, {} non-canonical, {} panics",
        non_canonical.len(),
        panics.len()
    );
    assert!(panics.is_empty(), "mutants panicked: {panics:?}");
    assert!(
        non_canonical.is_empty(),
        "mutants restored but snapshot to other bytes: {non_canonical:?}"
    );
    assert!(ok + typed > 0, "no mutant has the SNAPSHOT_MUTANT name");
}

/// Canonical is not enough: a restored index can still name a node, slot
/// or cell that does not exist and panic steps later. Flips of these fields
/// once restored canonically and then panicked on the way to the
/// scenario's end: a frame-slab free-list slot and the source index of an
/// ODMRP node's pending refresh and CBR timers. Restore refuses each.
#[test]
fn mutants_that_panicked_later_fail_typed() {
    let bytes = load_fixture();
    let w = fixture_workload();
    for (at, bit, field) in [
        (2016, 7, "frame slab free list"),
        (4875, 0, "multicast node timer source"),
        (4895, 2, "multicast node timer source"),
    ] {
        let mut mutant = bytes.clone();
        mutant[at] ^= 1 << bit;
        assert_eq!(
            restore_mutant(&w, &mutant, false).err(),
            Some(SnapError::StateMismatch(field)),
            "flip {at}.{bit}"
        );
    }
}

/// Every mutant that restores runs on to the scenario's end under the
/// world and ODMRP oracles, and none panics: restore refuses every index
/// that a later step would follow out of bounds. Slow in a debug build,
/// so it runs with `--include-ignored` (CI's `checkpoint` job):
///
/// ```text
/// cargo test --release -p experiments --test snapshot_format \
///     accepted_mutants -- --include-ignored --nocapture
/// ```
#[test]
#[ignore = "runs about 1 300 restored mutants to the scenario's end"]
fn accepted_mutants_run_to_the_end_under_the_oracles() {
    let bytes = load_fixture();
    let w = fixture_workload();
    let mut ran = 0;
    let mut panics = Vec::new();
    for (name, mutant) in mutants(&bytes) {
        let outcome = guarded(&name, || {
            if let Ok((mut sim, _)) = restore_mutant(&w, &mutant, true) {
                sim.run_until(w.run_until());
                ran += 1;
            }
        });
        if let Err(name) = outcome {
            panics.push(name);
        }
    }
    eprintln!(
        "forward: {ran} restored mutants ran to the end, {} panicked",
        panics.len()
    );
    assert!(panics.is_empty(), "mutants panicked: {panics:?}");
    assert!(ran + panics.len() > 0, "no mutant restored");
}

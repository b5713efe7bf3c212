//! Kill-and-recover harness for the crash-safe checkpoint layer.
//!
//! Drives the [`IndoorQuerySystem`] facade with a scripted detection
//! stream, kills it at arbitrary points, recovers a fresh process image
//! from the durable snapshot, replays the reading suffix, and demands
//! the recovered run be **byte-identical** to an uninterrupted one —
//! query answers and the full metrics snapshot (minus the `recovery.*`
//! bookkeeping counters, which by design differ) — across worker counts
//! 1/2/4 with candidate pruning off and on, arbitrary checkpoint cadences
//! (the harness calls `checkpoint_now` before every due second), and
//! proptest-chosen kill points. Damaged snapshots (bit flips anywhere in the file) and
//! snapshots taken in another world (another reader deployment) must
//! never panic: they quarantine to `*.corrupt` and rebuild cold.
//!
//! The on-disk frame layout itself is pinned by the
//! `tests/fixtures/expected_snapshot_header.txt` golden
//! (regenerate with `RIPQ_REGEN_GOLDEN=1 cargo test --test recovery`).

use proptest::prelude::*;
use ripq::core::{IndoorQuerySystem, QueryId, RecoveryOutcome, SystemConfig, TimingMode};
use ripq::floorplan::{office_building, OfficeParams};
use ripq::geom::Rect;
use ripq::persist::{load_snapshot, seal_snapshot, write_atomic};
use ripq::rfid::{ObjectId, ReaderId};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

const STREAM_SECONDS: u64 = 48;
const STREAM_OBJECTS: u32 = 5;
/// Evaluation timestamps the harness fires as the stream advances.
const EVAL_TIMES: [u64; 3] = [15, 30, 48];
const SEED: u64 = 0x05EC_04E3;

fn fixture_path(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ripq_recovery_{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Scripted walk: every object hops across the reader deployment with a
/// periodic silent second, so episodes, handoffs and coasting all occur.
fn detections(second: u64, readers: &[ReaderId]) -> Vec<(ObjectId, ReaderId)> {
    let mut out = Vec::new();
    for i in 0..STREAM_OBJECTS {
        if (second + u64::from(i)).is_multiple_of(13) {
            continue;
        }
        let r = (u64::from(i) * 3 + second / 5) % readers.len() as u64;
        out.push((ObjectId::new(i), readers[r as usize]));
    }
    out
}

/// A reader deployment on the office plan: reader count and activation
/// range.
type World = (u32, f64);

/// The deployment every harness life runs in unless a test says otherwise.
const WORLD: World = (8, 2.0);

fn new_system(workers: Option<usize>, prune: bool) -> IndoorQuerySystem {
    system_in(WORLD, workers, prune)
}

fn system_in(world: World, workers: Option<usize>, prune: bool) -> IndoorQuerySystem {
    let floor = office_building(&OfficeParams::default()).expect("valid office");
    let config = SystemConfig {
        reader_count: world.0,
        activation_range: world.1,
        prune_candidates: prune,
        parallelism: workers,
        timing: TimingMode::Logical,
        observability: true,
        ..SystemConfig::default()
    };
    IndoorQuerySystem::new(floor, config, SEED)
}

/// Queries are deliberately not part of the snapshot — a recovered
/// process re-registers them in the same order, like any client would.
fn register_queries(sys: &mut IndoorQuerySystem) -> (QueryId, QueryId) {
    let bounds = sys.plan().bounds();
    let range_q = sys
        .register_range(Rect::new(
            bounds.min().x,
            bounds.min().y,
            bounds.width() * 0.5,
            bounds.height() * 0.5,
        ))
        .expect("range query");
    let knn_point = sys.readers()[0].position();
    let knn_q = sys.register_knn(knn_point, 2).expect("kNN query");
    (range_q, knn_q)
}

/// Ingests seconds `from..=to`, evaluating at each due timestamp, and
/// appends every evaluation's exact answers to `transcript`. With a
/// cadence `every > 0` it checkpoints before each second that is a
/// multiple of `every`, so that snapshot covers the seconds before it.
fn drive(
    sys: &mut IndoorQuerySystem,
    queries: (QueryId, QueryId),
    from: u64,
    to: u64,
    every: u64,
    transcript: &mut String,
) {
    let readers: Vec<ReaderId> = sys.readers().iter().map(|r| r.id()).collect();
    for s in from..=to {
        if every > 0 && s > 0 && s.is_multiple_of(every) {
            sys.checkpoint_now().expect("checkpoints healthy");
        }
        sys.ingest_detections(s, &detections(s, &readers));
        if EVAL_TIMES.contains(&s) {
            let report = sys.evaluate(s);
            for (kind, q) in [("range", queries.0), ("knn", queries.1)] {
                let rs = match kind {
                    "range" => &report.range_results[&q],
                    _ => &report.knn_results[&q],
                };
                for r in rs.sorted() {
                    writeln!(
                        transcript,
                        "t{s} {kind} {} {:016x}",
                        r.object.raw(),
                        r.probability.to_bits()
                    )
                    .expect("string write");
                }
            }
        }
    }
}

/// The full comparable state at end of run: the evaluation transcript
/// plus every metric except the `recovery.*` counters (checkpoint and
/// recovery bookkeeping legitimately differs between lives).
fn final_render(sys: &IndoorQuerySystem, transcript: &str) -> String {
    let mut snap = sys.recorder().snapshot();
    snap.counters.retain(|k, _| !k.starts_with("recovery."));
    format!("{transcript}\n{}", snap.to_json())
}

/// One uninterrupted reference life, checkpointing disabled.
fn golden_run(workers: Option<usize>, prune: bool) -> String {
    let mut sys = new_system(workers, prune);
    let queries = register_queries(&mut sys);
    let mut transcript = String::new();
    drive(&mut sys, queries, 0, STREAM_SECONDS, 0, &mut transcript);
    final_render(&sys, &transcript)
}

/// Life 1: run with checkpointing until the crash at `kill_at` (the
/// kill second itself is never ingested). Returns the second recovery
/// replayed from, plus life 2's rendered suffix transcript.
fn kill_and_recover(
    workers: Option<usize>,
    prune: bool,
    every: u64,
    kill_at: u64,
    dir: &Path,
) -> (u64, String) {
    let mut life1 = new_system(workers, prune);
    life1.set_checkpoint_dir(dir);
    let q1 = register_queries(&mut life1);
    let mut discarded = String::new();
    if kill_at > 0 {
        drive(&mut life1, q1, 0, kill_at - 1, every, &mut discarded);
    }
    drop(life1); // the crash: everything in memory is gone

    let mut life2 = new_system(workers, prune);
    life2.set_checkpoint_dir(dir);
    let outcome = life2.recover(dir).expect("recover succeeds");
    let replay_from = match outcome {
        RecoveryOutcome::Resumed { replay_from } => {
            assert!(replay_from <= kill_at, "snapshot never covers the future");
            replay_from
        }
        RecoveryOutcome::ColdStart => 0,
        RecoveryOutcome::Quarantined { path } => {
            panic!("unexpected quarantine of a healthy snapshot: {path:?}")
        }
    };
    let q2 = register_queries(&mut life2);
    let mut transcript = String::new();
    drive(
        &mut life2,
        q2,
        replay_from,
        STREAM_SECONDS,
        every,
        &mut transcript,
    );
    (replay_from, final_render(&life2, &transcript))
}

/// The uninterrupted transcript restricted to evaluations a recovered
/// life re-runs (those at or past `replay_from`), plus the metrics tail.
/// Also normalizes trailing newlines, so compare both sides through it.
fn golden_suffix(golden: &str, replay_from: u64) -> String {
    golden
        .lines()
        .filter(|l| {
            if let Some(rest) = l.strip_prefix('t') {
                let t: u64 = rest
                    .split(' ')
                    .next()
                    .and_then(|n| n.parse().ok())
                    .unwrap_or(0);
                t >= replay_from
            } else {
                true // metrics JSON + separator always compare
            }
        })
        .collect::<Vec<_>>()
        .join("\n")
}

// ---------------------------------------------------------------------
// The kill grid
// ---------------------------------------------------------------------

#[test]
fn kill_and_recover_is_byte_identical_across_worker_counts() {
    // Pruning on adds the per-reader distance rows (rebuilt when the
    // recovered life re-registers its queries) and the distance-scan
    // counters (restored from the snapshot) to what must match.
    for prune in [false, true] {
        for workers in [Some(1), Some(2), Some(4)] {
            let golden = golden_run(workers, prune);
            let dir = temp_dir(&format!(
                "grid_w{}_p{}",
                workers.unwrap_or(0),
                u8::from(prune)
            ));
            // Kill at 29 with cadence 8: snapshots at 8/16/24, so recovery
            // replays 24..=48 and re-runs the evaluations at 30 and 48.
            let (replay_from, recovered) = kill_and_recover(workers, prune, 8, 29, &dir);
            assert_eq!(replay_from, 24, "cadence 8 kill 29 resumes at 24");
            assert_eq!(
                golden_suffix(&golden, 24),
                golden_suffix(&recovered, 0),
                "workers {workers:?}, pruning {prune}: recovered life diverged from \
                 uninterrupted run"
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

#[test]
fn worker_count_may_change_across_the_crash() {
    // Snapshot written by a sequential life, resumed by a 4-worker life:
    // per-object RNG streams make the answers bit-identical anyway.
    let golden = golden_run(Some(4), false);
    let dir = temp_dir("cross_workers");
    let mut life1 = new_system(Some(1), false);
    life1.set_checkpoint_dir(&dir);
    let q1 = register_queries(&mut life1);
    let mut discarded = String::new();
    drive(&mut life1, q1, 0, 33, 10, &mut discarded);
    drop(life1);

    let mut life2 = new_system(Some(4), false);
    life2.set_checkpoint_dir(&dir);
    let outcome = life2.recover(&dir).expect("recover succeeds");
    assert_eq!(outcome, RecoveryOutcome::Resumed { replay_from: 30 });
    let q2 = register_queries(&mut life2);
    let mut transcript = String::new();
    drive(&mut life2, q2, 30, STREAM_SECONDS, 10, &mut transcript);
    assert_eq!(
        golden_suffix(&golden, 30),
        golden_suffix(&final_render(&life2, &transcript), 0)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Damage: bit flips quarantine, never panic, and rebuild cold
// ---------------------------------------------------------------------

#[test]
fn bit_flipped_snapshot_is_quarantined_and_rebuilt_cold() {
    let golden = golden_run(Some(2), false);
    let dir = temp_dir("bitflip");
    let mut life1 = new_system(Some(2), false);
    life1.set_checkpoint_dir(&dir);
    let q1 = register_queries(&mut life1);
    let mut discarded = String::new();
    drive(&mut life1, q1, 0, 28, 8, &mut discarded);
    drop(life1);

    let path = dir.join("system.ckpt");
    let mut bytes = std::fs::read(&path).expect("snapshot exists");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x10;
    std::fs::write(&path, &bytes).expect("plant corruption");

    let mut life2 = new_system(Some(2), false);
    life2.set_checkpoint_dir(&dir);
    match life2.recover(&dir).expect("recover never errors on damage") {
        RecoveryOutcome::Quarantined { path: moved } => {
            assert!(moved.to_string_lossy().ends_with(".corrupt"));
            assert!(moved.exists(), "damaged file preserved for forensics");
            assert!(!path.exists(), "damaged file moved out of the way");
        }
        other => panic!("bit flip must quarantine, got {other:?}"),
    }
    assert_eq!(
        life2
            .recorder()
            .snapshot()
            .counters
            .get("recovery.quarantined"),
        Some(&1),
        "quarantine must be counted"
    );

    // Cold rebuild: replay the whole stream; answers match the golden.
    let q2 = register_queries(&mut life2);
    let mut transcript = String::new();
    drive(&mut life2, q2, 0, STREAM_SECONDS, 8, &mut transcript);
    assert_eq!(
        golden_suffix(&golden, 0),
        golden_suffix(&final_render(&life2, &transcript), 0)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn snapshot_from_another_world_is_quarantined_and_rebuilt_cold() {
    // (world the snapshot was taken in, world that recovers it). A valid
    // frame from another deployment must never resume: its reader ids
    // and cached particles mean nothing here.
    for (written_in, read_in) in [((19, 2.0), (6, 2.0)), (WORLD, (8, 1.5))] {
        let tag = format!("world_{}_{}", written_in.0, read_in.0);
        let dir = temp_dir(&tag);
        let mut life1 = system_in(written_in, Some(1), false);
        life1.set_checkpoint_dir(&dir);
        let q1 = register_queries(&mut life1);
        let mut discarded = String::new();
        drive(&mut life1, q1, 0, 12, 10, &mut discarded);
        drop(life1);

        let mut cold = system_in(read_in, Some(1), false);
        let q = register_queries(&mut cold);
        let mut transcript = String::new();
        drive(&mut cold, q, 0, STREAM_SECONDS, 0, &mut transcript);
        let golden = final_render(&cold, &transcript);

        let mut life2 = system_in(read_in, Some(1), false);
        life2.set_checkpoint_dir(&dir);
        let outcome = life2.recover(&dir).expect("recover never errors on damage");
        assert!(
            matches!(outcome, RecoveryOutcome::Quarantined { .. }),
            "{tag}: a snapshot of another world must not resume, got {outcome:?}"
        );
        let q2 = register_queries(&mut life2);
        let mut transcript = String::new();
        drive(&mut life2, q2, 0, STREAM_SECONDS, 10, &mut transcript);
        assert_eq!(
            golden_suffix(&golden, 0),
            golden_suffix(&final_render(&life2, &transcript), 0),
            "{tag}: cold rebuild must match a run that never saw the snapshot"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn snapshot_naming_an_unknown_reader_is_quarantined() {
    // A detection naming reader 19 of a 19-reader deployment breaks the
    // ingest precondition. The snapshot carrying it is CRC-valid, but
    // resuming it would index the deployment out of bounds at the next
    // evaluation: restore checks the collector against the deployment.
    let world = (19, 2.0);
    let dir = temp_dir("unknown_reader");
    let mut life1 = system_in(world, Some(1), false);
    life1.set_checkpoint_dir(&dir);
    life1.ingest_detections(0, &[(ObjectId::new(0), ReaderId::new(19))]);
    life1.checkpoint_now().expect("checkpoints healthy");
    drop(life1);

    let mut life2 = system_in(world, Some(1), false);
    let outcome = life2.recover(&dir).expect("recover never errors on damage");
    assert!(
        matches!(outcome, RecoveryOutcome::Quarantined { .. }),
        "a snapshot naming an unknown reader must not resume, got {outcome:?}"
    );
    let (_, knn_q) = register_queries(&mut life2);
    let reader = life2.readers()[3].id();
    life2.ingest_detections(1, &[(ObjectId::new(0), reader)]);
    let report = life2.evaluate(1);
    assert_eq!(
        report.knn_results[&knn_q].len(),
        1,
        "the one object answers"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn snapshot_naming_an_unknown_anchor_is_quarantined() {
    // A CRC-valid snapshot whose live index names anchor u32::MAX: the
    // frame is re-sealed after the edit, so only the index decoder's
    // bounds check stands between it and evaluation.
    let dir = temp_dir("unknown_anchor");
    let mut life1 = new_system(Some(1), true);
    life1.set_checkpoint_dir(&dir);
    register_queries(&mut life1);
    let readers: Vec<ReaderId> = life1.readers().iter().map(|r| r.id()).collect();
    for s in 0..=10 {
        life1.ingest_detections(s, &detections(s, &readers));
    }
    assert!(life1.evaluate(10).index.object_count() > 0);
    life1.checkpoint_now().expect("checkpoints healthy");
    drop(life1);

    // The index closes the payload: its last 12 bytes are the last
    // object's last (anchor u32, probability f64) pair.
    let path = dir.join("system.ckpt");
    let mut payload = load_snapshot(&path).expect("a sealed snapshot");
    let at = payload.len() - 12;
    payload[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    let frame = seal_snapshot(|w| payload.iter().for_each(|&b| w.put_u8(b)));
    write_atomic(&path, &frame).expect("rewrite");

    let mut life2 = new_system(Some(1), true);
    let outcome = life2.recover(&dir).expect("recover never errors on damage");
    assert!(
        matches!(outcome, RecoveryOutcome::Quarantined { .. }),
        "a snapshot naming an unknown anchor must not resume, got {outcome:?}"
    );
    assert_eq!(life2.collector().objects().count(), 0, "nothing restored");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_recovered_system_runs_its_configured_reorder_window() {
    // The window is configuration, not state: a snapshot taken under one
    // window resumes with the window the recovering system is configured
    // for, in both directions.
    let with_window = |reorder_window| {
        let floor = office_building(&OfficeParams::default()).expect("valid office");
        let config = SystemConfig {
            reader_count: WORLD.0,
            activation_range: WORLD.1,
            reorder_window,
            ..SystemConfig::default()
        };
        IndoorQuerySystem::new(floor, config, SEED)
    };
    // (window saved under, window recovered into, current second after
    // delivery 6): with no window delivery 6 finalizes through second 6;
    // under 3 s it finalizes only through second 3.
    for (saved, configured, now) in [(3, 0, 6), (0, 3, 5)] {
        let dir = temp_dir(&format!("reorder_window_{saved}_{configured}"));
        let mut life1 = with_window(saved);
        life1.set_checkpoint_dir(&dir);
        let (o, reader) = (ObjectId::new(0), life1.readers()[0].id());
        life1.ingest_delivery(5, &[(4, o, reader)]);
        life1.checkpoint_now().expect("checkpoints healthy");
        drop(life1);

        let mut life2 = with_window(configured);
        let outcome = life2.recover(&dir).expect("recover never errors on damage");
        assert!(
            matches!(outcome, RecoveryOutcome::Resumed { .. }),
            "{outcome:?}"
        );
        assert_eq!(life2.collector().reorder_window(), configured);
        life2.ingest_delivery(6, &[(6, o, reader)]);
        assert_eq!(life2.collector().current_second(), Some(now));
        let _ = std::fs::remove_dir_all(&dir);
    }
}

// ---------------------------------------------------------------------
// Properties: arbitrary kill points, cadences and corruptions
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any (kill point, cadence) pair recovers to the uninterrupted
    /// transcript — including cadences that never fire before the kill
    /// (pure cold start) and cadence 1 (a snapshot every second).
    #[test]
    fn any_kill_point_and_cadence_recover_exactly(
        kill_at in 1u64..STREAM_SECONDS,
        every in 1u64..16,
    ) {
        static GOLDEN: std::sync::OnceLock<String> = std::sync::OnceLock::new();
        let golden = GOLDEN.get_or_init(|| golden_run(Some(2), false));
        let dir = temp_dir(&format!("prop_{kill_at}_{every}"));
        let (replay_from, recovered) = kill_and_recover(Some(2), false, every, kill_at, &dir);
        // The snapshot cadence is exact: recovery resumes from the last
        // grid point strictly before the kill.
        let expected_replay = if kill_at > every {
            ((kill_at - 1) / every) * every
        } else {
            0
        };
        prop_assert_eq!(replay_from, expected_replay);
        prop_assert_eq!(
            golden_suffix(golden, replay_from),
            golden_suffix(&recovered, 0)
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Arbitrary single-byte corruption anywhere in the snapshot file is
    /// always detected (CRC/framing), always quarantined, never a panic
    /// — and the cold rebuild still answers correctly.
    #[test]
    fn arbitrary_corruption_never_panics_and_rebuilds(
        pos_fraction in 0.0f64..1.0,
        mask in 1u8..=255,
    ) {
        let dir = temp_dir(&format!("corrupt_{:.3}_{mask}", pos_fraction));
        let mut life1 = new_system(Some(1), false);
        life1.set_checkpoint_dir(&dir);
        let q1 = register_queries(&mut life1);
        let mut discarded = String::new();
        drive(&mut life1, q1, 0, 20, 8, &mut discarded);
        drop(life1);

        let path = dir.join("system.ckpt");
        let mut bytes = std::fs::read(&path).expect("snapshot exists");
        let pos = ((bytes.len() - 1) as f64 * pos_fraction) as usize;
        bytes[pos] ^= mask;
        std::fs::write(&path, &bytes).expect("plant corruption");

        let mut life2 = new_system(Some(1), false);
        life2.set_checkpoint_dir(&dir);
        let outcome = life2.recover(&dir).expect("damage is not an error");
        prop_assert!(
            matches!(outcome, RecoveryOutcome::Quarantined { .. }),
            "corruption at byte {pos} (mask {mask:#x}) was not caught: {outcome:?}"
        );
        // The rebuild completes and produces live answers.
        let q2 = register_queries(&mut life2);
        let mut transcript = String::new();
        drive(&mut life2, q2, 0, 20, 8, &mut transcript);
        // The kNN query always accumulates k objects' worth of
        // probability, so a live rebuild must produce t15 answers.
        prop_assert!(transcript.contains("t15 knn"), "cold rebuild answered");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

// ---------------------------------------------------------------------
// Snapshot format golden
// ---------------------------------------------------------------------

#[test]
fn snapshot_format_matches_golden_header_spec() {
    let actual = format!(
        "# On-disk checkpoint frame contract. Any drift must bump\n\
         # FORMAT_VERSION and be a deliberate, reviewed change.\n\
         # Regenerate: RIPQ_REGEN_GOLDEN=1 cargo test --test recovery\n\
         {}",
        ripq::persist::format_spec()
    );
    let path = fixture_path("expected_snapshot_header.txt");
    if std::env::var_os("RIPQ_REGEN_GOLDEN").is_some() {
        std::fs::write(&path, &actual).expect("write snapshot header fixture");
        eprintln!("regenerated {}", path.display());
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .expect("missing snapshot header fixture; run with RIPQ_REGEN_GOLDEN=1 to create it");
    assert_eq!(
        expected, actual,
        "snapshot frame layout drifted from the golden contract; if \
         intentional, bump FORMAT_VERSION and regenerate with \
         RIPQ_REGEN_GOLDEN=1 cargo test --test recovery"
    );
}

#[test]
fn written_snapshot_carries_the_pinned_magic_and_version() {
    let dir = temp_dir("header_bytes");
    let mut sys = new_system(Some(1), false);
    sys.set_checkpoint_dir(&dir);
    let readers: Vec<ReaderId> = sys.readers().iter().map(|r| r.id()).collect();
    for s in 0..=5 {
        sys.ingest_detections(s, &detections(s, &readers));
    }
    sys.checkpoint_now().expect("manual checkpoint");
    let bytes = std::fs::read(dir.join("system.ckpt")).expect("snapshot written");
    assert!(bytes.len() > ripq::persist::HEADER_LEN);
    assert_eq!(&bytes[..8], &ripq::persist::MAGIC[..]);
    assert_eq!(
        u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes")),
        ripq::persist::FORMAT_VERSION
    );
    let _ = std::fs::remove_dir_all(&dir);
}

//! Streaming-server transcript replay: the determinism headline and the
//! crash-recovery continuity contract.
//!
//! * Replaying a recorded transcript produces **byte-identical** response
//!   lines and metrics JSON across repeated runs and across worker
//!   counts 1/2/4.
//! * The canonical fixture pair (`tests/fixtures/server_transcript.txt`
//!   → `tests/fixtures/expected_server_deltas.txt`) pins the full
//!   response stream. Regenerate after an intentional change with
//!
//!   ```text
//!   RIPQ_REGEN_GOLDEN=1 cargo test --test server_stream
//!   ```
//!
//! * Killing the server mid-transcript and recovering from `server.ckpt`
//!   resumes the stream byte-equal to the uninterrupted golden's suffix;
//!   a damaged snapshot restores nothing and the server replays the
//!   golden from scratch.

use proptest::prelude::*;
use ripq::floorplan::{office_building, OfficeParams};
use ripq::rfid::{ObjectId, ReaderId};
use ripq::server::{
    encode_frame, json, parse_request, Request, ServerConfig, ServerCore, ServerRecovery,
};
use ripq::sim::transcript::{record_transcript, Transcript, TranscriptSpec};
use std::path::{Path, PathBuf};

const CHECKPOINT_FRAME: &str = "{\"op\":\"checkpoint\"}";

fn fixture_path(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ripq_server_stream_{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// The spec behind the committed fixtures. `metrics_frame` is off so the
/// recovery test can demand byte-equality of the whole resumed suffix
/// (restored metrics counters legitimately encode a different history).
fn fixture_spec() -> TranscriptSpec {
    TranscriptSpec {
        seed: 0x51E9,
        objects: 8,
        seconds: 60,
        tick_every: 10,
        range_subs: 2,
        knn_subs: 1,
        checkpoint_after: Some(30),
        metrics_frame: false,
        tick_budget: None,
    }
}

fn fresh_core(workers: Option<usize>) -> ServerCore {
    let plan = office_building(&OfficeParams::default()).expect("default office plan");
    ServerCore::new(
        plan,
        ServerConfig {
            workers,
            ..ServerConfig::default()
        },
    )
}

/// Feeds `frames` to `core` until it acknowledges a shutdown.
fn feed(core: &mut ServerCore, frames: &[String]) -> Vec<String> {
    let mut lines = Vec::new();
    for frame in frames {
        lines.extend(core.handle_frame(frame.as_bytes()));
        if core.is_shutdown() {
            break;
        }
    }
    lines
}

/// Replays all frames through a core, returning (response lines, final
/// metrics JSON).
fn replay(
    frames: &[String],
    workers: Option<usize>,
    checkpoint_dir: Option<&Path>,
) -> (Vec<String>, String) {
    let mut core = fresh_core(workers);
    if let Some(dir) = checkpoint_dir {
        core.set_checkpoint_dir(dir);
    }
    let lines = feed(&mut core, frames);
    (lines, core.metrics_json())
}

/// The determinism headline, enforced at tier 1: byte-identical delta
/// output and metrics snapshots across repeated runs and worker counts
/// 1, 2 and 4.
#[test]
fn transcript_replay_is_byte_identical_across_runs_and_workers() {
    let transcript = record_transcript(&TranscriptSpec {
        objects: 6,
        seconds: 40,
        checkpoint_after: None,
        ..TranscriptSpec::default()
    });
    let (base_lines, base_metrics) = replay(&transcript.frames, Some(1), None);
    assert!(
        base_lines.iter().any(|l| l.starts_with("{\"delta\":")),
        "scenario must produce deltas"
    );
    assert!(base_lines
        .iter()
        .any(|l| l.starts_with("{\"counters\"") || l.contains("\"counters\"")));
    for workers in [Some(1), Some(2), Some(4)] {
        for run in 0..2 {
            let (lines, metrics) = replay(&transcript.frames, workers, None);
            assert_eq!(
                lines, base_lines,
                "run {run} with workers {workers:?} diverged"
            );
            assert_eq!(metrics, base_metrics, "metrics diverged ({workers:?})");
        }
    }
}

/// Feeding the same transcript as a framed byte stream (through the
/// embedded decoder, in awkward chunk sizes) is the same computation as
/// frame-at-a-time replay.
#[test]
fn framed_byte_stream_matches_frame_replay() {
    let transcript = record_transcript(&TranscriptSpec {
        objects: 5,
        seconds: 30,
        checkpoint_after: None,
        ..TranscriptSpec::default()
    });
    let (expected, _) = replay(&transcript.frames, None, None);
    let mut wire = Vec::new();
    for payload in transcript.payloads() {
        wire.extend_from_slice(&encode_frame(&payload));
    }
    let mut core = fresh_core(None);
    let mut lines = Vec::new();
    for chunk in wire.chunks(257) {
        lines.extend(core.ingest_bytes(chunk));
    }
    lines.extend(core.finish_input());
    assert_eq!(lines, expected);
}

/// The committed transcript fixture replays to the committed golden,
/// byte for byte.
#[test]
fn golden_fixture_replay() {
    let transcript_path = fixture_path("server_transcript.txt");
    let golden_path = fixture_path("expected_server_deltas.txt");
    let regen = std::env::var_os("RIPQ_REGEN_GOLDEN").is_some();

    let transcript = if regen {
        let t = record_transcript(&fixture_spec());
        t.save(&transcript_path).expect("write transcript fixture");
        eprintln!("regenerated {}", transcript_path.display());
        t
    } else {
        Transcript::load(&transcript_path)
            .expect("missing transcript fixture; run with RIPQ_REGEN_GOLDEN=1 to create it")
    };

    let dir = temp_dir("golden");
    let (lines, _) = replay(&transcript.frames, None, Some(&dir));
    let mut actual = lines.join("\n");
    actual.push('\n');

    if regen {
        std::fs::write(&golden_path, &actual).expect("write golden fixture");
        eprintln!("regenerated {}", golden_path.display());
    } else {
        let expected = std::fs::read_to_string(&golden_path)
            .expect("missing golden fixture; run with RIPQ_REGEN_GOLDEN=1 to create it");
        assert_eq!(
            expected, actual,
            "server response stream drifted from the golden fixture; if \
             intentional, regenerate with RIPQ_REGEN_GOLDEN=1 cargo test --test server_stream"
        );
    }
    assert!(
        lines.iter().any(|l| l.starts_with("{\"delta\":")),
        "golden scenario must exercise deltas"
    );
    assert!(
        lines.iter().any(|l| l == "{\"ok\":\"checkpoint\"}"),
        "golden scenario must checkpoint"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// One second's detections as a `raw` frame: each detection becomes three
/// samples of its reader and one of the next reader id (another reader of
/// the `readers`-reader deployment), dealt out in four rounds across the
/// objects so each object's samples interleave with the others'.
fn raw_frame(second: u64, detections: &[(ObjectId, ReaderId)], readers: u32) -> String {
    let slots = 4 * detections.len();
    let mut samples = Vec::with_capacity(slots);
    for round in 0..4 {
        for (i, &(object, reader)) in detections.iter().enumerate() {
            let reader = if round == 1 {
                (reader.raw() + 1) % readers
            } else {
                reader.raw()
            };
            let time = second as f64 + (round * detections.len() + i) as f64 / slots as f64;
            samples.push(format!("[{time},{},{reader}]", object.raw()));
        }
    }
    format!(
        "{{\"op\":\"raw\",\"second\":{second},\"samples\":[{}]}}",
        samples.join(",")
    )
}

/// The committed transcript with every `reading` frame re-sent as a `raw`
/// frame for the same second reproduces the golden stream: the collector's
/// per-second majority rebuilds each detection from its samples, so every
/// delta, event and tick line is the golden's, and a data ack differs only
/// in its op and its count (four samples per detection).
#[test]
fn raw_session_reproduces_the_golden_stream() {
    if std::env::var_os("RIPQ_REGEN_GOLDEN").is_some() {
        return;
    }
    let transcript =
        Transcript::load(&fixture_path("server_transcript.txt")).expect("transcript fixture");
    let golden = std::fs::read_to_string(fixture_path("expected_server_deltas.txt"))
        .expect("golden fixture");
    let readers = fresh_core(None).system().readers().len() as u32;
    let frames: Vec<String> = transcript
        .frames
        .iter()
        .map(|frame| match parse_request(frame.as_bytes()) {
            Ok(Request::Readings { second, detections }) => raw_frame(second, &detections, readers),
            _ => frame.clone(),
        })
        .collect();
    assert!(frames.iter().any(|f| f.contains("\"samples\":[[")));

    let dir = temp_dir("raw_session");
    let (lines, _) = replay(&frames, None, Some(&dir));
    let expected: Vec<String> = golden
        .lines()
        .map(|line| {
            if !line.starts_with("{\"ok\":\"reading\",") {
                return line.to_string();
            }
            let ack = json::parse(line.as_bytes()).expect("golden ack is JSON");
            let field = |key: &str| {
                ack.as_obj()
                    .and_then(|o| o.get(key))
                    .and_then(json::Value::as_u64)
                    .expect("ack field")
            };
            format!(
                "{{\"ok\":\"raw\",\"second\":{},\"count\":{}}}",
                field("second"),
                4 * field("count")
            )
        })
        .collect();
    assert_eq!(lines.len(), expected.len(), "line count");
    for (i, (got, want)) in lines.iter().zip(&expected).enumerate() {
        assert_eq!(got, want, "line {}", i + 1);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Kill the server mid-transcript (after the checkpoint), recover a
/// fresh instance from `server.ckpt`, replay the rest:
/// the resumed stream must be byte-equal to the uninterrupted golden
/// from the checkpoint's line offset on.
#[test]
fn crash_recovery_resumes_the_golden_stream() {
    if std::env::var_os("RIPQ_REGEN_GOLDEN").is_some() {
        // Fixtures are being rewritten by `golden_fixture_replay` in
        // this same run; test order is not deterministic.
        return;
    }
    let transcript = Transcript::load(&fixture_path("server_transcript.txt"))
        .expect("transcript fixture (regenerate with RIPQ_REGEN_GOLDEN=1)");
    let golden = std::fs::read_to_string(fixture_path("expected_server_deltas.txt"))
        .expect("golden fixture (regenerate with RIPQ_REGEN_GOLDEN=1)");
    let golden_lines: Vec<&str> = golden.lines().collect();

    let checkpoint_frame = transcript
        .frames
        .iter()
        .position(|f| f == CHECKPOINT_FRAME)
        .expect("fixture contains a checkpoint frame");
    // Die a few frames past the checkpoint — mid-transcript, no shutdown.
    let kill_at = (checkpoint_frame + 4).min(transcript.frames.len() - 2);

    let dir = temp_dir("recovery");
    let mut life1 = fresh_core(None);
    life1.set_checkpoint_dir(&dir);
    let mut life1_lines = Vec::new();
    for frame in &transcript.frames[..kill_at] {
        life1_lines.extend(life1.handle_frame(frame.as_bytes()));
    }
    assert!(!life1.is_shutdown(), "must die before the shutdown frame");
    // Sanity: the first life tracked the golden exactly while it lived.
    assert_eq!(
        life1_lines,
        golden_lines[..life1_lines.len()]
            .iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>()
    );
    drop(life1); // the crash

    let mut life2 = fresh_core(None);
    let outcome = life2.recover(&dir).expect("recovery succeeds");
    let ServerRecovery::Resumed {
        skip_frames,
        lines_emitted,
    } = outcome
    else {
        panic!("expected Resumed, got {outcome:?}");
    };
    assert!(skip_frames > 0 && (skip_frames as usize) <= kill_at);
    assert!(lines_emitted > 0 && (lines_emitted as usize) <= life1_lines.len());

    let mut resumed = Vec::new();
    for frame in &transcript.frames[skip_frames as usize..] {
        resumed.extend(life2.handle_frame(frame.as_bytes()));
        if life2.is_shutdown() {
            break;
        }
    }
    let expected_suffix: Vec<String> = golden_lines[lines_emitted as usize..]
        .iter()
        .map(|s| s.to_string())
        .collect();
    assert_eq!(
        resumed, expected_suffix,
        "resumed stream must continue the golden byte-for-byte"
    );
    assert!(life2.is_shutdown());
    assert_eq!(
        life2.lines_emitted() as usize,
        golden_lines.len(),
        "combined lives emit exactly the uninterrupted stream"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

fn joined(lines: &[String]) -> String {
    let mut out = lines.join("\n");
    out.push('\n');
    out
}

/// A damaged `server.ckpt` is quarantined, not trusted: recovery reports
/// it and restores nothing, so the same core replays the whole transcript
/// to the golden. A cold life that then dies before its first checkpoint
/// leaves nothing to resume, and the next restart is a plain cold start.
#[test]
fn damaged_sidecar_is_quarantined_and_cold_start_matches_golden() {
    if std::env::var_os("RIPQ_REGEN_GOLDEN").is_some() {
        return;
    }
    let transcript =
        Transcript::load(&fixture_path("server_transcript.txt")).expect("transcript fixture");
    let golden = std::fs::read_to_string(fixture_path("expected_server_deltas.txt"))
        .expect("golden fixture");
    let frames = &transcript.frames;

    // Life 1 checkpoints and dies; the checkpoint directory is then
    // damaged, and copied for a second restart below.
    let dir = temp_dir("quarantine");
    let mut life1 = fresh_core(None);
    life1.set_checkpoint_dir(&dir);
    feed(&mut life1, &frames[..frames.len() - 1]);
    drop(life1);
    let snapshot = dir.join("server.ckpt");
    let mut bytes = std::fs::read(&snapshot).expect("snapshot written");
    let last = bytes.len() - 1;
    bytes[last] ^= 0x40;
    std::fs::write(&snapshot, &bytes).expect("corrupt snapshot");
    let restart_dir = temp_dir("quarantine_restart");
    for entry in std::fs::read_dir(&dir).expect("list checkpoint dir") {
        let entry = entry.expect("dir entry");
        std::fs::copy(entry.path(), restart_dir.join(entry.file_name())).expect("copy");
    }

    let mut life2 = fresh_core(None);
    match life2.recover(&dir).expect("recovery handles damage") {
        ServerRecovery::Quarantined { path } => {
            assert!(path.to_string_lossy().contains("corrupt"));
            assert!(path.exists());
        }
        other => panic!("expected Quarantined, got {other:?}"),
    }
    // Nothing was restored: this very core replays from scratch.
    assert_eq!(joined(&feed(&mut life2, frames)), golden);

    // A cold life after the same quarantine dies before the checkpoint
    // frame; the restart after it must not trip over the old snapshot.
    let checkpoint_frame = frames
        .iter()
        .position(|f| f == CHECKPOINT_FRAME)
        .expect("fixture contains a checkpoint frame");
    let mut life3 = fresh_core(None);
    let outcome = life3
        .recover(&restart_dir)
        .expect("recovery handles damage");
    assert!(matches!(outcome, ServerRecovery::Quarantined { .. }));
    feed(&mut life3, &frames[..checkpoint_frame]);
    drop(life3);
    let mut life4 = fresh_core(None);
    assert_eq!(
        life4
            .recover(&restart_dir)
            .expect("restart after a quarantine"),
        ServerRecovery::ColdStart
    );
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&restart_dir);
}

/// A snapshot is one file, so putting an older `server.ckpt` back over a
/// newer one — a crash between two renames of a split snapshot, or a
/// rollback — resumes exactly that older checkpoint: the stream equals
/// that of a life which only ever checkpointed there.
#[test]
fn older_snapshot_restored_over_a_newer_one_resumes_consistently() {
    if std::env::var_os("RIPQ_REGEN_GOLDEN").is_some() {
        return;
    }
    let transcript =
        Transcript::load(&fixture_path("server_transcript.txt")).expect("transcript fixture");
    let frames = &transcript.frames;
    let checkpoint = || vec![CHECKPOINT_FRAME.to_string()];
    // Checkpoint after frame 20 and return that snapshot; run on to frame
    // 40, checkpointing again there when `again`; die.
    let first_life = |dir: &Path, again: bool| -> Vec<u8> {
        let mut life = fresh_core(None);
        life.set_checkpoint_dir(dir);
        feed(&mut life, &[&frames[..20], &checkpoint()].concat());
        let first = std::fs::read(dir.join("server.ckpt")).expect("first checkpoint");
        feed(&mut life, &frames[20..40]);
        if again {
            feed(&mut life, &checkpoint());
        }
        first
    };
    let resume = |dir: &Path| -> Vec<String> {
        let mut life = fresh_core(None);
        let outcome = life.recover(dir).expect("recovery succeeds");
        assert!(
            matches!(
                outcome,
                ServerRecovery::Resumed {
                    skip_frames: 21,
                    ..
                }
            ),
            "{outcome:?}"
        );
        feed(&mut life, &frames[20..])
    };

    let reference_dir = temp_dir("older_reference");
    first_life(&reference_dir, false);
    let restored_dir = temp_dir("older_restored");
    let first = first_life(&restored_dir, true);
    std::fs::write(restored_dir.join("server.ckpt"), first).expect("restore the older snapshot");
    let reference = resume(&reference_dir);
    assert!(reference.iter().any(|l| l.starts_with("{\"delta\":")));
    assert_eq!(
        resume(&restored_dir),
        reference,
        "an older snapshot must resume as its own checkpoint"
    );
    let _ = std::fs::remove_dir_all(&reference_dir);
    let _ = std::fs::remove_dir_all(&restored_dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any single-byte corruption of `server.ckpt` (any position, any
    /// mask) is caught: recovery quarantines it — never an error, never a
    /// panic — and the same core replays the transcript to the golden.
    #[test]
    fn corrupted_server_snapshot_is_quarantined_and_replays_to_the_golden(
        pos_fraction in 0.0f64..1.0,
        mask in 1u8..=255,
    ) {
        if std::env::var_os("RIPQ_REGEN_GOLDEN").is_some() {
            return Ok(());
        }
        static SNAPSHOT: std::sync::OnceLock<(Transcript, String, Vec<u8>)> =
            std::sync::OnceLock::new();
        let (transcript, golden, snapshot) = SNAPSHOT.get_or_init(|| {
            let transcript = Transcript::load(&fixture_path("server_transcript.txt"))
                .expect("transcript fixture");
            let golden = std::fs::read_to_string(fixture_path("expected_server_deltas.txt"))
                .expect("golden fixture");
            // The snapshot a life writes at the fixture's checkpoint
            // frame, dying just before its shutdown frame.
            let dir = temp_dir("corrupt_source");
            let mut life = fresh_core(None);
            life.set_checkpoint_dir(&dir);
            feed(&mut life, &transcript.frames[..transcript.frames.len() - 1]);
            let snapshot = std::fs::read(dir.join("server.ckpt")).expect("snapshot written");
            let _ = std::fs::remove_dir_all(&dir);
            (transcript, golden, snapshot)
        });
        let mut bytes = snapshot.clone();
        let pos = ((bytes.len() - 1) as f64 * pos_fraction) as usize;
        bytes[pos] ^= mask;
        let dir = temp_dir(&format!("corrupt_{pos}_{mask}"));
        std::fs::write(dir.join("server.ckpt"), &bytes).expect("plant corruption");

        let mut core = fresh_core(None);
        let outcome = core.recover(&dir);
        prop_assert!(
            matches!(outcome, Ok(ServerRecovery::Quarantined { .. })),
            "corruption at byte {pos} (mask {mask:#x}): {outcome:?}"
        );
        prop_assert_eq!(&joined(&feed(&mut core, &transcript.frames)), golden);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

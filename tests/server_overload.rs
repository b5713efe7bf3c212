//! Overload harness: admission control, the deterministic retry client,
//! supervised executors with the dead-letter queue, and graceful
//! shutdown — the PR 10 acceptance suite.
//!
//! The headline invariant: because the server sheds data frames as a
//! strict *suffix* of each tick interval and defers the tick itself,
//! a flooded session driven by the seeded backoff client converges to
//! response lines **byte-identical** to the unthrottled run — across
//! repeated runs and worker counts 1/2/4.

use proptest::prelude::*;
use ripq::floorplan::{office_building, OfficeParams};
use ripq::server::{
    replay_with_retry, Executor, RetryPolicy, ServerConfig, ServerCore, ServerEvent,
    ServerRecovery, SupervisorPolicy,
};
use ripq::sim::transcript::{record_transcript, TranscriptSpec};
use std::path::PathBuf;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ripq_server_overload_{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn core_with(config: ServerConfig) -> ServerCore {
    let plan = office_building(&OfficeParams::default()).expect("default office plan");
    ServerCore::new(plan, config)
}

fn reader_count() -> u32 {
    core_with(ServerConfig::default()).system().readers().len() as u32
}

/// A dense synthetic session: whole-floor subscription, `objects`
/// tags hopping across the reader deployment every second, a tick
/// closing every interval. `outage` silences a reader id range for a
/// window of seconds — the chaos-cell knob.
fn flood_frames(
    seconds: u64,
    tick_every: u64,
    objects: u32,
    outage: Option<(std::ops::Range<u32>, std::ops::Range<u64>)>,
) -> Vec<String> {
    let readers = reader_count().max(1);
    let mut frames =
        vec!["{\"op\":\"subscribe\",\"sub\":1,\"range\":[-500,-500,1000,1000]}".to_string()];
    for second in 0..seconds {
        let readings: Vec<String> = (0..objects)
            .filter_map(|o| {
                let reader = (o + second as u32) % readers;
                if let Some((dead_readers, window)) = &outage {
                    if dead_readers.contains(&reader) && window.contains(&second) {
                        return None; // reader dark: its samples never arrive
                    }
                }
                Some(format!("[{o},{reader}]"))
            })
            .collect();
        frames.push(format!(
            "{{\"op\":\"reading\",\"second\":{second},\"readings\":[{}]}}",
            readings.join(",")
        ));
        if tick_every > 0 && (second + 1) % tick_every == 0 {
            frames.push(format!("{{\"op\":\"tick\",\"second\":{second}}}"));
        }
    }
    frames
}

fn replay_plain(frames: &[String], config: ServerConfig) -> Vec<String> {
    let mut core = core_with(config);
    let mut lines = Vec::new();
    for frame in frames {
        lines.extend(core.handle_frame(frame.as_bytes()));
        if core.is_shutdown() {
            break;
        }
    }
    lines
}

/// The tentpole: a flooded session recovered by the deterministic retry
/// client is byte-identical to the unthrottled run, across 2 runs and
/// worker counts 1/2/4.
#[test]
fn flooded_retry_session_converges_across_runs_and_workers() {
    let frames = flood_frames(40, 10, 4, None);
    let expected = replay_plain(&frames, ServerConfig::default());
    assert!(
        expected.iter().any(|l| l.starts_with("{\"delta\":")),
        "scenario must produce deltas"
    );
    for workers in [1usize, 2, 4] {
        for run in 0..2 {
            let mut flooded = core_with(ServerConfig {
                workers: Some(workers),
                max_frames_per_tick: 6,
                ..ServerConfig::default()
            });
            let outcome = replay_with_retry(&mut flooded, &frames, &RetryPolicy::default());
            assert!(outcome.busy_lines > 0, "budget 6 vs 10 frames must shed");
            assert!(!outcome.gave_up && outcome.frames_abandoned == 0);
            assert_eq!(
                outcome.lines, expected,
                "run {run} with {workers} workers diverged from the unthrottled stream"
            );
        }
    }
}

/// Two clients with different retry seeds back off differently but
/// deliver the same bytes: the jitter schedule is presentation, the
/// converged stream is the contract.
#[test]
fn retry_seed_changes_backoff_but_not_the_delivered_stream() {
    let frames = flood_frames(30, 10, 4, None);
    let expected = replay_plain(&frames, ServerConfig::default());
    // Budget 3 against 10-frame intervals forces multi-round retries,
    // where the jitter window opens past 1 tick and seeds can differ.
    let flooded_config = || ServerConfig {
        max_frames_per_tick: 3,
        ..ServerConfig::default()
    };
    let mut a = core_with(flooded_config());
    let mut b = core_with(flooded_config());
    let out_a = replay_with_retry(
        &mut a,
        &frames,
        &RetryPolicy {
            seed: 1,
            max_rounds: 8,
        },
    );
    let out_b = replay_with_retry(
        &mut b,
        &frames,
        &RetryPolicy {
            seed: 2,
            max_rounds: 8,
        },
    );
    assert_eq!(out_a.lines, expected);
    assert_eq!(out_b.lines, expected);
    assert_ne!(
        out_a.backoff_ticks, out_b.backoff_ticks,
        "different seeds should jitter differently over many rounds"
    );
}

/// The chaos cell: reader outages crossed with admission-control
/// shedding. The flooded-and-retried session must still converge on the
/// degraded (outage-filtered) timeline, across worker counts.
#[test]
fn outage_crossed_with_shedding_still_converges() {
    let readers = reader_count();
    let dark = 0..(readers / 3).max(1);
    for window in [10u64..20, 5u64..25] {
        let frames = flood_frames(30, 10, 4, Some((dark.clone(), window.clone())));
        let expected = replay_plain(&frames, ServerConfig::default());
        for workers in [1usize, 2, 4] {
            let mut flooded = core_with(ServerConfig {
                workers: Some(workers),
                max_frames_per_tick: 6,
                ..ServerConfig::default()
            });
            let outcome = replay_with_retry(&mut flooded, &frames, &RetryPolicy::default());
            assert!(outcome.busy_lines > 0);
            assert_eq!(
                outcome.lines, expected,
                "outage {window:?} × shedding diverged at {workers} workers"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Property form of the tentpole over recorded transcripts: any
    /// seed × budget × object count, with every interval closed by a
    /// tick, converges byte-identically.
    #[test]
    fn flooded_transcript_replay_converges(
        seed in 0u64..1_000,
        budget in 2u64..=6,
        objects in 3usize..=5,
        ticks in 2u64..=3,
    ) {
        let transcript = record_transcript(&TranscriptSpec {
            seed,
            objects,
            seconds: ticks * 10,
            tick_every: 10,
            checkpoint_after: None,
            metrics_frame: false,
            ..TranscriptSpec::default()
        });
        let expected = replay_plain(&transcript.frames, ServerConfig::default());
        let mut flooded = core_with(ServerConfig {
            max_frames_per_tick: budget,
            ..ServerConfig::default()
        });
        let outcome = replay_with_retry(&mut flooded, &transcript.frames, &RetryPolicy::default());
        prop_assert!(!outcome.gave_up);
        prop_assert_eq!(outcome.frames_abandoned, 0u64);
        prop_assert_eq!(outcome.lines, expected);
    }
}

/// An executor that always panics — fault injection for the supervisor.
/// Lives in the test crate so the production panic ratchet stays at
/// zero.
struct AlwaysPanics;

impl Executor for AlwaysPanics {
    fn name(&self) -> &'static str {
        "flaky"
    }

    fn on_event(&mut self, _event: &ServerEvent) -> Vec<String> {
        panic!("injected executor fault")
    }
}

fn supervised_config() -> ServerConfig {
    ServerConfig {
        supervisor: SupervisorPolicy {
            max_attempts: 2,
            quarantine_after: 1,
            open_ticks: 1_000, // stays open for the whole scenario
            dead_letter_capacity: 16,
        },
        ..ServerConfig::default()
    }
}

/// Frames that fire a geofence event: subscribe on a window around one
/// reader, park an object there, tick.
fn event_frames() -> Vec<String> {
    let core = core_with(ServerConfig::default());
    let reader = core.system().readers()[2];
    let window = ripq::geom::Rect::centered(reader.position(), 10.0, 6.0);
    let mut frames = vec![format!(
        "{{\"op\":\"subscribe\",\"sub\":7,\"range\":[{},{},{},{}]}}",
        window.min().x,
        window.min().y,
        window.width(),
        window.height()
    )];
    for s in 0..3u64 {
        frames.push(format!(
            "{{\"op\":\"reading\",\"second\":{s},\"readings\":[[0,{}]]}}",
            reader.id().raw()
        ));
    }
    frames.push("{\"op\":\"tick\",\"second\":3}".to_string());
    frames
}

/// Breaker trip + dead-letter durability: a panicking executor is
/// retried, quarantined behind an open circuit, its event diverted to
/// the dead-letter queue — and both the breaker and the queue survive a
/// crash/recover cycle through `server.ckpt`.
#[test]
fn breaker_trips_and_dead_letters_survive_crash_recovery() {
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {})); // keep injected panics quiet
    let dir = temp_dir("dlq");

    let mut life1 = core_with(supervised_config());
    life1.push_executor(Box::new(AlwaysPanics));
    life1.set_checkpoint_dir(&dir);
    for frame in event_frames() {
        life1.handle_frame(frame.as_bytes());
    }
    assert!(
        life1.dead_letters().count() >= 1,
        "exhausted retries must dead-letter the event"
    );
    assert_eq!(life1.quarantined_executors(), vec!["flaky"]);
    let listing = life1.handle_frame(b"{\"op\":\"dead_letters\"}");
    assert!(listing[0].starts_with("{\"dead_letters\":"));
    assert!(listing[0].contains("\"executor\":\"flaky\""));
    assert!(life1
        .metrics_json()
        .contains("\"server.executor.quarantined\": 1"));
    life1.handle_frame(b"{\"op\":\"checkpoint\"}");
    drop(life1); // the crash

    let mut life2 = core_with(supervised_config());
    life2.push_executor(Box::new(AlwaysPanics));
    let outcome = life2.recover(&dir).expect("recovery succeeds");
    assert!(matches!(outcome, ServerRecovery::Resumed { .. }));
    assert!(
        life2.dead_letters().count() >= 1,
        "dead letters must survive the checkpoint round trip"
    );
    assert_eq!(
        life2.quarantined_executors(),
        vec!["flaky"],
        "the open breaker must survive recovery"
    );
    // While the circuit is open, new events go straight to the queue —
    // the executor is never re-invoked (it would panic again).
    let before = life2.dead_letters().count();
    life2.handle_frame(b"{\"op\":\"reading\",\"second\":20,\"readings\":[]}");
    life2.handle_frame(b"{\"op\":\"tick\",\"second\":21}");
    assert!(
        life2.dead_letters().count() >= before,
        "open circuit short-circuits"
    );

    // Drain empties the queue through the protocol.
    let drained = life2.handle_frame(b"{\"op\":\"dead_letters\",\"drain\":true}");
    assert!(drained[0].starts_with("{\"dead_letters\":"));
    assert_eq!(life2.dead_letters().count(), 0);
    let empty = life2.handle_frame(b"{\"op\":\"dead_letters\"}");
    assert_eq!(empty[0], "{\"dead_letters\":0,\"letters\":[]}");

    std::panic::set_hook(hook);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Kill-vs-graceful byte identity: the checkpoint a graceful shutdown
/// writes before its ack is byte-for-byte the checkpoint an explicit
/// `checkpoint` frame would have written at the same point — an
/// operator stop loses nothing a crash after a checkpoint wouldn't.
#[test]
fn graceful_shutdown_checkpoint_matches_explicit_checkpoint_bytes() {
    let frames = flood_frames(20, 10, 3, None);

    let dir_kill = temp_dir("kill");
    let mut killed = core_with(ServerConfig::default());
    killed.set_checkpoint_dir(&dir_kill);
    for frame in &frames {
        killed.handle_frame(frame.as_bytes());
    }
    killed.handle_frame(b"{\"op\":\"checkpoint\"}");
    drop(killed); // kill -9 right after the checkpoint

    let dir_graceful = temp_dir("graceful");
    let mut graceful = core_with(ServerConfig::default());
    graceful.set_checkpoint_dir(&dir_graceful);
    for frame in &frames {
        graceful.handle_frame(frame.as_bytes());
    }
    let ack = graceful.handle_frame(b"{\"op\":\"shutdown\"}");
    assert_eq!(
        ack.last().map(String::as_str),
        Some("{\"ok\":\"shutdown\"}")
    );
    assert!(graceful.is_shutdown());

    let killed_bytes = std::fs::read(dir_kill.join("server.ckpt")).expect("kill-path checkpoint");
    let graceful_bytes =
        std::fs::read(dir_graceful.join("server.ckpt")).expect("graceful-path checkpoint");
    assert_eq!(
        killed_bytes, graceful_bytes,
        "server.ckpt must be byte-identical between kill-after-checkpoint and graceful shutdown"
    );

    // And the graceful checkpoint is a usable recovery point.
    let mut life2 = core_with(ServerConfig::default());
    let outcome = life2.recover(&dir_graceful).expect("recovery succeeds");
    let ServerRecovery::Resumed { skip_frames, .. } = outcome else {
        panic!("expected Resumed, got {outcome:?}");
    };
    assert_eq!(skip_frames as usize, frames.len() + 1);

    let _ = std::fs::remove_dir_all(&dir_kill);
    let _ = std::fs::remove_dir_all(&dir_graceful);
}

/// Shed-path instruments land in the metrics snapshot with the exact
/// registry names, and stay silent when admission control is off.
#[test]
fn overload_counters_register_only_under_pressure() {
    let frames = flood_frames(20, 10, 4, None);

    let calm = {
        let mut core = core_with(ServerConfig::default());
        for frame in &frames {
            core.handle_frame(frame.as_bytes());
        }
        core.metrics_json()
    };
    assert!(
        !calm.contains("server.overload."),
        "no overload counters without admission control"
    );

    let mut flooded = core_with(ServerConfig {
        max_frames_per_tick: 6,
        ..ServerConfig::default()
    });
    let _ = replay_with_retry(&mut flooded, &frames, &RetryPolicy::default());
    let metrics = flooded.metrics_json();
    for key in [
        "server.overload.frames_shed",
        "server.overload.ticks_deferred",
        "server.overload.busy_responses",
    ] {
        assert!(metrics.contains(key), "missing {key} in:\n{metrics}");
    }
}

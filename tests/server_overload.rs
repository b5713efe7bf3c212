//! Overload harness: admission control, the deterministic retry client
//! in process and over a socket, and graceful shutdown.
//!
//! The headline invariant: because the server sheds data frames as a
//! strict *suffix* of each tick interval and defers the tick itself,
//! a flooded session driven by the seeded backoff client converges to
//! response lines **byte-identical** to the unthrottled run — across
//! repeated runs and worker counts 1/2/4.

use proptest::prelude::*;
use ripq::floorplan::{office_building, OfficeParams};
use ripq::server::{
    replay_with_retry, send_frames_with_retry, Endpoint, RetryPolicy, Server, ServerConfig,
    ServerCore, ServerRecovery,
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

/// The socket client and the in-process replay run one retry loop: a
/// flooded session sent over a UDS socket to a throttled daemon delivers
/// what `replay_with_retry` delivers, which is the unthrottled stream.
#[test]
fn socket_retry_session_matches_in_process_replay() {
    let mut frames = flood_frames(30, 10, 4, None);
    frames.push("{\"op\":\"shutdown\"}".to_string());
    let expected = replay_plain(&frames, ServerConfig::default());
    let throttled = || ServerConfig {
        max_frames_per_tick: 4,
        ..ServerConfig::default()
    };
    let in_process = replay_with_retry(
        &mut core_with(throttled()),
        &frames,
        &RetryPolicy::default(),
    );
    assert!(in_process.busy_lines > 0, "budget 4 vs 10 frames must shed");

    let path = std::env::temp_dir().join("ripq_server_overload_retry.sock");
    let server = Server::bind(&Endpoint::Uds(path.clone())).expect("bind the socket");
    let endpoint = server.endpoint();
    let mut core = core_with(throttled());
    // The session ends in `shutdown`, so `serve` returns.
    let daemon = std::thread::spawn(move || server.serve(&mut core));
    let payloads: Vec<Vec<u8>> = frames.iter().map(|f| f.clone().into_bytes()).collect();
    let socket = send_frames_with_retry(&endpoint, &payloads, &RetryPolicy::default())
        .expect("socket session");
    daemon
        .join()
        .expect("daemon thread")
        .expect("serve returns after shutdown");

    assert_eq!(socket.lines, in_process.lines);
    assert_eq!(socket.lines, expected);
    assert_eq!(socket, in_process, "same loop, same retry accounting");
    assert!(!path.exists(), "socket file removed after shutdown");
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

//! `ripq-server` — the streaming indoor spatial query daemon.
//!
//! ```text
//! ripq-server serve --uds /tmp/ripq.sock            # run the daemon
//! ripq-server record --out transcript.txt           # simulate a client session
//! ripq-server send --uds /tmp/ripq.sock --transcript transcript.txt
//! ripq-server replay --transcript transcript.txt    # in-process, no sockets
//! ```
//!
//! `replay` drives the deterministic engine directly and prints one
//! response frame per line — the format the golden fixtures and the CI
//! `server` job diff byte-for-byte. `--fail-after-frames N` simulates a
//! crash for recovery drills; a later `replay --recover` resumes from
//! the checkpoint directory and emits exactly the uninterrupted
//! stream's suffix.
//!
//! A flag value that does not parse is a usage error (exit 2), as is
//! `--retry` together with `--fail-after-frames`.

use ripq::floorplan::{office_building, OfficeParams};
use ripq::server::{Endpoint, RetryPolicy, Server, ServerConfig, ServerCore, ServerRecovery};
use ripq::sim::transcript::{record_transcript, Transcript, TranscriptSpec};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map(String::as_str).unwrap_or("help");
    let rest = args.get(1..).unwrap_or(&[]);
    let code = match cmd {
        "serve" => cmd_serve(rest),
        "record" => cmd_record(rest),
        "replay" => cmd_replay(rest),
        "send" => cmd_send(rest),
        _ => {
            eprintln!(
                "usage: ripq-server <serve|record|replay|send> [options]\n\
                 \n\
                 serve  (--uds PATH | --tcp ADDR) [--workers N] [--seed N]\n\
                 \x20      [--checkpoint-dir DIR] [--checkpoint-every-ticks N] [--recover]\n\
                 \x20      [--metrics-json FILE] [--max-frames-per-tick N]\n\
                 \x20      [--max-subscriptions N] [--max-conn-bytes N] [--query-budget N]\n\
                 record --out FILE [--seed N] [--objects N] [--seconds N]\n\
                 \x20      [--tick-every N] [--range-subs N] [--knn-subs N]\n\
                 \x20      [--checkpoint-after S | --no-checkpoint] [--no-metrics]\n\
                 \x20      [--tick-budget N]\n\
                 replay --transcript FILE [--workers N] [--seed N] [--metrics-json FILE]\n\
                 \x20      [--checkpoint-dir DIR] [--recover] [--fail-after-frames N]\n\
                 \x20      [--max-frames-per-tick N] [--max-subscriptions N]\n\
                 \x20      [--query-budget N] [--retry] [--retry-seed N] [--retry-max-rounds N]\n\
                 send   (--uds PATH | --tcp ADDR) --transcript FILE\n\
                 \x20      [--retry] [--retry-seed N] [--retry-max-rounds N]\n\
                 \n\
                 --workers default: every core for a tick of more than one object"
            );
            if cmd == "help" {
                0
            } else {
                2
            }
        }
    };
    std::process::exit(code);
}

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// The value of flag `name` parsed as a `T`, or `None` when the flag is
/// absent. A value that does not parse is an error naming both.
fn parse_flag<T: std::str::FromStr>(args: &[String], name: &str) -> Result<Option<T>, String> {
    flag(args, name)
        .map(|v| {
            v.parse()
                .map_err(|_| format!("invalid value `{v}` for {name}"))
        })
        .transpose()
}

/// Reports a usage error; returns its exit code.
fn usage_error(message: &str) -> i32 {
    eprintln!("error: {message}");
    2
}

fn endpoint_from(args: &[String]) -> Option<Endpoint> {
    if let Some(path) = flag(args, "--uds") {
        return Some(Endpoint::Uds(path.into()));
    }
    flag(args, "--tcp").map(Endpoint::Tcp)
}

fn server_config(args: &[String]) -> Result<ServerConfig, String> {
    let defaults = ServerConfig::default();
    Ok(ServerConfig {
        seed: parse_flag(args, "--seed")?.unwrap_or(defaults.seed),
        workers: parse_flag(args, "--workers")?,
        checkpoint_every_ticks: parse_flag(args, "--checkpoint-every-ticks")?.unwrap_or(0),
        max_frames_per_tick: parse_flag(args, "--max-frames-per-tick")?.unwrap_or(0),
        max_subscriptions: parse_flag(args, "--max-subscriptions")?.unwrap_or(0),
        max_conn_response_bytes: parse_flag(args, "--max-conn-bytes")?.unwrap_or(0),
        query_budget: parse_flag(args, "--query-budget")?,
    })
}

fn retry_policy(args: &[String]) -> Result<Option<RetryPolicy>, String> {
    if !args.iter().any(|a| a == "--retry") {
        return Ok(None);
    }
    let defaults = RetryPolicy::default();
    Ok(Some(RetryPolicy {
        seed: parse_flag(args, "--retry-seed")?.unwrap_or(defaults.seed),
        max_rounds: parse_flag(args, "--retry-max-rounds")?.unwrap_or(defaults.max_rounds),
    }))
}

fn report_retry(outcome: &ripq::server::RetryOutcome) {
    eprintln!(
        "retry: {} busy lines, {} rounds, {} frames resent, {} backoff ticks{}{}",
        outcome.busy_lines,
        outcome.retry_rounds,
        outcome.frames_resent,
        outcome.backoff_ticks,
        if outcome.gave_up { ", GAVE UP" } else { "" },
        if outcome.frames_abandoned > 0 {
            format!(", {} frames abandoned", outcome.frames_abandoned)
        } else {
            String::new()
        }
    );
}

/// Builds the daemon core over the default office plan, wiring the
/// checkpoint directory and (optionally) recovering a previous life.
/// Returns the core plus how many input frames recovery already covers.
fn build_core(args: &[String], config: ServerConfig) -> Result<(ServerCore, u64), String> {
    let plan = office_building(&OfficeParams::default()).map_err(|e| e.to_string())?;
    let mut core = ServerCore::new(plan, config);
    let checkpoint_dir = flag(args, "--checkpoint-dir");
    let recover = args.iter().any(|a| a == "--recover");
    let mut skip = 0;
    if let Some(dir) = &checkpoint_dir {
        std::fs::create_dir_all(dir).map_err(|e| format!("{dir}: {e}"))?;
        if recover {
            match core.recover(dir).map_err(|e| e.to_string())? {
                ServerRecovery::ColdStart => eprintln!("recovery: cold start"),
                ServerRecovery::Resumed {
                    skip_frames,
                    lines_emitted,
                } => {
                    eprintln!(
                        "recovery: resumed past {skip_frames} frames / {lines_emitted} lines"
                    );
                    skip = skip_frames;
                }
                ServerRecovery::Quarantined { path } => eprintln!(
                    "recovery: damaged snapshot quarantined to {}; starting cold",
                    path.display()
                ),
            }
        } else {
            core.set_checkpoint_dir(dir);
        }
    } else if recover {
        return Err("--recover needs --checkpoint-dir".to_string());
    }
    Ok((core, skip))
}

fn write_metrics(args: &[String], core: &ServerCore) -> Result<(), String> {
    if let Some(path) = flag(args, "--metrics-json") {
        std::fs::write(&path, core.metrics_json()).map_err(|e| format!("{path}: {e}"))?;
        eprintln!("wrote metrics to {path}");
    }
    Ok(())
}

fn cmd_serve(args: &[String]) -> i32 {
    let Some(endpoint) = endpoint_from(args) else {
        eprintln!("error: serve needs --uds PATH or --tcp ADDR");
        return 2;
    };
    let config = match server_config(args) {
        Ok(c) => c,
        Err(e) => return usage_error(&e),
    };
    let (mut core, _) = match build_core(args, config) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: {e}");
            return 1;
        }
    };
    let server = match Server::bind(&endpoint) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            return 1;
        }
    };
    match server.endpoint() {
        Endpoint::Tcp(addr) => println!("listening tcp:{addr}"),
        Endpoint::Uds(path) => println!("listening uds:{}", path.display()),
    }
    if let Err(e) = server.serve(&mut core) {
        eprintln!("error: {e}");
        return 1;
    }
    eprintln!(
        "shutdown after {} frames / {} lines",
        core.frames_processed(),
        core.lines_emitted()
    );
    if let Err(e) = write_metrics(args, &core) {
        eprintln!("error: {e}");
        return 1;
    }
    0
}

fn transcript_spec(args: &[String]) -> Result<TranscriptSpec, String> {
    let defaults = TranscriptSpec::default();
    Ok(TranscriptSpec {
        seed: parse_flag(args, "--seed")?.unwrap_or(defaults.seed),
        objects: parse_flag(args, "--objects")?.unwrap_or(defaults.objects),
        seconds: parse_flag(args, "--seconds")?.unwrap_or(defaults.seconds),
        tick_every: parse_flag(args, "--tick-every")?.unwrap_or(defaults.tick_every),
        range_subs: parse_flag(args, "--range-subs")?.unwrap_or(defaults.range_subs),
        knn_subs: parse_flag(args, "--knn-subs")?.unwrap_or(defaults.knn_subs),
        checkpoint_after: if args.iter().any(|a| a == "--no-checkpoint") {
            None
        } else {
            Some(
                parse_flag(args, "--checkpoint-after")?
                    .unwrap_or(defaults.checkpoint_after.unwrap_or(60)),
            )
        },
        metrics_frame: !args.iter().any(|a| a == "--no-metrics"),
        tick_budget: parse_flag(args, "--tick-budget")?,
    })
}

fn cmd_record(args: &[String]) -> i32 {
    let Some(out) = flag(args, "--out") else {
        eprintln!("error: record needs --out FILE");
        return 2;
    };
    let spec = match transcript_spec(args) {
        Ok(spec) => spec,
        Err(e) => return usage_error(&e),
    };
    let transcript = record_transcript(&spec);
    if let Err(e) = transcript.save(std::path::Path::new(&out)) {
        eprintln!("error: {out}: {e}");
        return 1;
    }
    eprintln!("recorded {} frames to {out}", transcript.frames.len());
    0
}

fn cmd_replay(args: &[String]) -> i32 {
    let Some(path) = flag(args, "--transcript") else {
        eprintln!("error: replay needs --transcript FILE");
        return 2;
    };
    let parsed = server_config(args).and_then(|config| {
        let fail_after: Option<u64> = parse_flag(args, "--fail-after-frames")?;
        let retry = retry_policy(args)?;
        // The retry loop owns frame pacing, so it cannot simulate a crash.
        if retry.is_some() && fail_after.is_some() {
            return Err("--retry cannot be combined with --fail-after-frames".to_string());
        }
        Ok((config, fail_after, retry))
    });
    let (config, fail_after, retry) = match parsed {
        Ok(v) => v,
        Err(e) => return usage_error(&e),
    };
    let transcript = match Transcript::load(std::path::Path::new(&path)) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: {e}");
            return 1;
        }
    };
    let (mut core, skip) = match build_core(args, config) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: {e}");
            return 1;
        }
    };
    if let Some(policy) = retry {
        // Shed-aware replay: the in-process equivalent of the backoff
        // socket client.
        let remaining: Vec<String> = transcript
            .frames
            .iter()
            .skip(skip as usize)
            .cloned()
            .collect();
        let outcome = ripq::server::replay_with_retry(&mut core, &remaining, &policy);
        for line in &outcome.lines {
            println!("{line}");
        }
        report_retry(&outcome);
    } else {
        for (i, frame) in transcript.frames.iter().enumerate().skip(skip as usize) {
            if fail_after.is_some_and(|n| (i as u64) >= n) {
                eprintln!("simulated crash before frame {i}");
                return 3;
            }
            for line in core.handle_frame(frame.as_bytes()) {
                println!("{line}");
            }
            if core.is_shutdown() {
                break;
            }
        }
    }
    if let Err(e) = write_metrics(args, &core) {
        eprintln!("error: {e}");
        return 1;
    }
    0
}

fn cmd_send(args: &[String]) -> i32 {
    let Some(endpoint) = endpoint_from(args) else {
        eprintln!("error: send needs --uds PATH or --tcp ADDR");
        return 2;
    };
    let Some(path) = flag(args, "--transcript") else {
        eprintln!("error: send needs --transcript FILE");
        return 2;
    };
    let retry = match retry_policy(args) {
        Ok(r) => r,
        Err(e) => return usage_error(&e),
    };
    let transcript = match Transcript::load(std::path::Path::new(&path)) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: {e}");
            return 1;
        }
    };
    if let Some(policy) = retry {
        return match ripq::server::send_frames_with_retry(
            &endpoint,
            &transcript.payloads(),
            &policy,
        ) {
            Ok(outcome) => {
                for line in &outcome.lines {
                    println!("{line}");
                }
                report_retry(&outcome);
                i32::from(outcome.gave_up)
            }
            Err(e) => {
                eprintln!("error: {e}");
                1
            }
        };
    }
    match ripq::server::send_frames(&endpoint, &transcript.payloads()) {
        Ok(lines) => {
            for line in &lines {
                println!("{line}");
            }
            0
        }
        Err(e) => {
            eprintln!("error: {e}");
            1
        }
    }
}

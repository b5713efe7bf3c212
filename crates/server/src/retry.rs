//! The deterministic retry client.
//!
//! When the server sheds load it answers a typed `busy` line with a
//! `retry_after_ticks` hint instead of silently stalling. This module is
//! the client half of that contract: shed data frames are queued, and
//! when a tick is deferred the client waits a seeded
//! exponential-backoff-with-jitter number of logical ticks (never less
//! than the server's hint), resends the queued frames **in their
//! original order**, and retries the tick — repeating until the tick is
//! admitted or the round bound is hit.
//!
//! Because the server sheds data frames as a strict suffix of each tick
//! interval (the admission budget exhausts monotonically) and the
//! client replays them in order before the deferred tick, every
//! evaluated tick sees exactly the frame timeline an unthrottled
//! session would have produced. The response lines of a retried session
//! are therefore **byte-identical** to the unthrottled run — the busy
//! lines themselves are accounted separately, not interleaved. The
//! overload proptests pin exactly this property.
//!
//! Backoff is purely logical (SplitMix64 stream over `(seed, round)` —
//! the PR 1 idiom): nothing sleeps, but the waits are summed in
//! [`RetryOutcome::backoff_ticks`] so a trace of the exchange is fully
//! reproducible from the seed.

use crate::core::ServerCore;
use rand::split_mix64;
use ripq_core::RipqError;

/// Client-side retry knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Seed of the jitter stream (a client identity; two clients with
    /// the same seed back off identically).
    pub seed: u64,
    /// Retry rounds per deferred tick before giving up.
    pub max_rounds: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            seed: 0x5EED,
            max_rounds: 8,
        }
    }
}

/// What a retried session did and received.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RetryOutcome {
    /// Response lines of every ultimately-delivered frame, in delivery
    /// order — byte-identical to the unthrottled session when retry
    /// converged. `busy` lines are **not** included.
    pub lines: Vec<String>,
    /// `busy` responses received (shed frames + deferred ticks).
    pub busy_lines: u64,
    /// Retry rounds run across all deferred ticks.
    pub retry_rounds: u64,
    /// Queued frames resent (a frame shed twice counts twice).
    pub frames_resent: u64,
    /// Logical ticks spent backing off, `max(server hint, jittered
    /// exponential)` summed over rounds.
    pub backoff_ticks: u64,
    /// `true` if the round bound was hit with work still pending.
    pub gave_up: bool,
    /// Frames still undelivered when the session ended (0 unless
    /// `gave_up` or the transcript never ticked after a shed).
    pub frames_abandoned: u64,
}

/// The op of a `busy` line (`{"busy":"tick",...}` → `"tick"`), if the
/// line is one.
fn busy_op(line: &str) -> Option<&str> {
    let rest = line.strip_prefix("{\"busy\":\"")?;
    let end = rest.find('"')?;
    rest.get(..end)
}

/// The `retry_after_ticks` hint of a `busy` line.
fn busy_hint(line: &str) -> Option<u64> {
    busy_op(line)?;
    let key = "\"retry_after_ticks\":";
    let idx = line.find(key)?;
    let digits = line
        .get(idx + key.len()..)?
        .split(|c: char| !c.is_ascii_digit())
        .next()
        .unwrap_or("");
    digits.parse().ok()
}

/// The client's jittered exponential backoff for retry `round` (1-based):
/// a window of `2^min(round-1, 6)` logical ticks plus a seeded draw
/// inside the window. Deterministic in `(seed, round)`.
fn client_backoff_ticks(seed: u64, round: u32) -> u64 {
    let window = 1u64 << u64::from(round.saturating_sub(1).min(6));
    let mut state = seed ^ u64::from(round).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    window + split_mix64(&mut state) % window
}

/// Replays `frames` against `core` with shed-aware retry: the
/// in-process equivalent of the socket client in
/// [`crate::net::send_frames_with_retry`]. See the module docs for the
/// algorithm and the byte-identity guarantee.
pub fn replay_with_retry(
    core: &mut ServerCore,
    frames: &[String],
    policy: &RetryPolicy,
) -> RetryOutcome {
    // Handling a frame in process never fails, so there is no error to
    // lose here.
    retry_session(frames, policy, |frame| Ok(core.handle_frame(frame))).unwrap_or_default()
}

/// The shed-aware session both clients run: `send` delivers one frame
/// and returns its response lines. Shed frames queue; a deferred tick
/// starts backoff rounds that resend the queue in order and retry the
/// tick. The session stops after the `{"ok":"shutdown"}` line.
pub(crate) fn retry_session<F: AsRef<[u8]>>(
    frames: &[F],
    policy: &RetryPolicy,
    mut send: impl FnMut(&[u8]) -> Result<Vec<String>, RipqError>,
) -> Result<RetryOutcome, RipqError> {
    let mut outcome = RetryOutcome::default();
    let mut queued: Vec<&[u8]> = Vec::new();
    for frame in frames {
        let frame = frame.as_ref();
        let mut lines = send(frame)?;
        let Some(op) = lines.last().and_then(|l| busy_op(l)) else {
            outcome.lines.append(&mut lines);
            if outcome
                .lines
                .last()
                .is_some_and(|l| l == "{\"ok\":\"shutdown\"}")
            {
                break;
            }
            continue;
        };
        outcome.busy_lines += 1;
        if op != "tick" {
            // A shed data/subscribe frame: queue it for the deferred
            // tick's retry rounds.
            queued.push(frame);
            continue;
        }
        let mut hint = lines.last().and_then(|l| busy_hint(l)).unwrap_or(1);
        let mut round = 0u32;
        loop {
            round += 1;
            if round > policy.max_rounds.max(1) {
                outcome.gave_up = true;
                break;
            }
            outcome.retry_rounds += 1;
            outcome.backoff_ticks += hint.max(client_backoff_ticks(policy.seed, round));
            // Resend everything shed so far, oldest first — order is
            // what makes the replayed timeline identical.
            for f in std::mem::take(&mut queued) {
                outcome.frames_resent += 1;
                let mut ls = send(f)?;
                if ls.last().and_then(|l| busy_op(l)).is_some() {
                    outcome.busy_lines += 1;
                    queued.push(f);
                } else {
                    outcome.lines.append(&mut ls);
                }
            }
            let mut tick_lines = send(frame)?;
            match tick_lines.last().and_then(|l| busy_hint(l)) {
                Some(next_hint) => {
                    outcome.busy_lines += 1;
                    hint = next_hint;
                }
                None => {
                    outcome.lines.append(&mut tick_lines);
                    break;
                }
            }
        }
    }
    outcome.frames_abandoned = queued.len() as u64;
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn busy_line_parsing() {
        let line = "{\"busy\":\"reading\",\"second\":5,\"retry_after_ticks\":1}";
        assert_eq!(busy_op(line), Some("reading"));
        assert_eq!(busy_hint(line), Some(1));
        assert_eq!(busy_op("{\"ok\":\"reading\"}"), None);
        assert_eq!(busy_hint("{\"ok\":\"tick\",\"second\":3}"), None);
        assert_eq!(
            busy_hint("{\"busy\":\"tick\",\"second\":9,\"retry_after_ticks\":12}"),
            Some(12)
        );
    }

    #[test]
    fn backoff_is_deterministic_and_window_bounded() {
        for round in 1..=12u32 {
            let a = client_backoff_ticks(0x5EED, round);
            assert_eq!(a, client_backoff_ticks(0x5EED, round));
            let window = 1u64 << u64::from(round.saturating_sub(1).min(6));
            assert!(a >= window && a < 2 * window, "round {round}: {a}");
        }
        let seq =
            |seed: u64| -> Vec<u64> { (1..=12).map(|r| client_backoff_ticks(seed, r)).collect() };
        assert_ne!(seq(1), seq(2), "seed must matter somewhere in the schedule");
    }
}

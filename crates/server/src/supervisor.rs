//! Executor supervision: crash isolation, deterministic retry, and the
//! circuit breaker feeding the dead-letter queue.
//!
//! Every [`Executor`](crate::executor::Executor) dispatch runs under
//! `catch_unwind`, so a panicking executor can never take a tick (or the
//! daemon) down. A failed dispatch is retried a bounded number of times
//! with a deterministically-jittered logical backoff (SplitMix64 stream
//! derived from the server seed, the executor name and the event
//! identity — the same construction as `ripq_sim`'s fault seeds and
//! `ripq_pf`'s particle streams). An executor that keeps failing trips a
//! circuit breaker: while the breaker is open its events go straight to
//! the dead-letter queue instead of being attempted, and after
//! [`SupervisorPolicy::open_ticks`] logical ticks one probe event is
//! allowed through (half-open) — success re-closes the breaker, another
//! failure re-opens it. Undeliverable events are **never dropped
//! silently**: they become [`DeadLetter`]s that persist in
//! `server.ckpt` and can be listed or drained through the
//! `dead_letters` protocol op.
//!
//! Everything here is driven by logical tick time and seeded streams, so
//! a supervised replay stays byte-identical across runs and worker
//! counts.

use crate::executor::{Executor, ServerEvent};
use rand::split_mix64;
use ripq_core::Recorder;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Supervision knobs. All bounds are enforced to be at least 1 at use
/// sites, so a zeroed policy degenerates to "one attempt, quarantine
/// immediately" instead of dividing by zero or looping forever.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SupervisorPolicy {
    /// Total dispatch attempts per event per executor (first try
    /// included).
    pub max_attempts: u32,
    /// Consecutive failed *events* (all attempts exhausted) before the
    /// executor's circuit breaker opens.
    pub quarantine_after: u32,
    /// Logical ticks the breaker stays open before a half-open probe.
    pub open_ticks: u64,
    /// Dead letters retained in memory and in `server.ckpt`; overflow
    /// drops the oldest letter and counts it — never silently.
    pub dead_letter_capacity: usize,
}

impl Default for SupervisorPolicy {
    fn default() -> Self {
        SupervisorPolicy {
            max_attempts: 3,
            quarantine_after: 2,
            open_ticks: 2,
            dead_letter_capacity: 256,
        }
    }
}

/// The circuit-breaker state of one supervised executor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: events are dispatched normally.
    Closed,
    /// Quarantined: events dead-letter without being attempted until
    /// `until_tick`.
    Open {
        /// The first tick second at which a half-open probe is allowed.
        until_tick: u64,
    },
    /// One probe event is in flight; success re-closes, failure
    /// re-opens. Transient within a single dispatch — never persisted.
    HalfOpen,
}

/// An event the supervisor could not deliver, with why.
#[derive(Debug, Clone, PartialEq)]
pub struct DeadLetter {
    /// The executor that should have handled the event.
    pub executor: String,
    /// The undelivered event.
    pub event: ServerEvent,
    /// The tick second the delivery failed at.
    pub second: u64,
    /// Human-readable failure reason (panic payload or breaker state).
    pub reason: String,
}

/// How one supervised dispatch concluded.
#[derive(Debug)]
pub enum DispatchOutcome {
    /// The executor handled the event; its response frames follow.
    Delivered(Vec<String>),
    /// Delivery failed permanently (or the breaker was open); the event
    /// belongs in the dead-letter queue.
    DeadLettered(DeadLetter),
}

/// A stable u64 identity for an event — folds the kind and every field,
/// so the jitter stream of one event never depends on another.
fn event_ident(event: &ServerEvent) -> u64 {
    match event {
        ServerEvent::GeofenceEntered {
            sub,
            object,
            second,
        } => chain(&[1, *sub, u64::from(object.raw()), *second]),
        ServerEvent::GeofenceLeft {
            sub,
            object,
            second,
        } => chain(&[2, *sub, u64::from(object.raw()), *second]),
        ServerEvent::ObjectUnseen {
            object,
            second,
            last_seen,
        } => chain(&[3, u64::from(object.raw()), *second, *last_seen]),
    }
}

/// FNV-1a over a name, for folding executor names into seed chains.
fn name_hash(name: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in name.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// Successive SplitMix64 outputs folded over the inputs — the workspace
/// seed-derivation idiom (`ripq_pf::derive_stream_seed`,
/// `ripq_sim::faults`).
fn chain(parts: &[u64]) -> u64 {
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut out = 0u64;
    for p in parts {
        state ^= *p;
        out ^= split_mix64(&mut state);
    }
    out
}

/// The deterministic jittered backoff (in logical ticks) before retry
/// `attempt` of `event` on executor `name`: an exponential window
/// `2^min(attempt-1, 6)` plus a seeded jitter draw inside the same
/// window. Purely logical — nothing sleeps — but the waits are recorded
/// so overload behavior is observable and reproducible.
pub fn backoff_ticks(seed: u64, name: &str, event: &ServerEvent, attempt: u32) -> u64 {
    let window = 1u64 << u64::from(attempt.saturating_sub(1).min(6));
    let draw = chain(&[
        seed,
        name_hash(name),
        event_ident(event),
        u64::from(attempt),
    ]);
    window + draw % window
}

/// An [`Executor`] wrapped with its supervision state.
pub struct SupervisedExecutor {
    inner: Box<dyn Executor>,
    /// Consecutive events for which every attempt failed.
    pub consecutive_failures: u32,
    /// The circuit-breaker state.
    pub breaker: BreakerState,
}

impl SupervisedExecutor {
    /// Wraps an executor with a closed breaker.
    pub fn new(inner: Box<dyn Executor>) -> Self {
        SupervisedExecutor {
            inner,
            consecutive_failures: 0,
            breaker: BreakerState::Closed,
        }
    }

    /// The wrapped executor's stable name.
    pub fn name(&self) -> &'static str {
        self.inner.name()
    }

    /// `true` while the breaker is open (the executor is quarantined).
    pub fn is_quarantined(&self) -> bool {
        matches!(self.breaker, BreakerState::Open { .. })
    }

    /// Dispatches one event under supervision. See the module docs for
    /// the state machine; `seed` feeds the jitter stream and `recorder`
    /// receives the `server.executor.*` accounting.
    pub fn dispatch(
        &mut self,
        event: &ServerEvent,
        second: u64,
        policy: &SupervisorPolicy,
        seed: u64,
        recorder: &Recorder,
    ) -> DispatchOutcome {
        match self.breaker {
            BreakerState::Open { until_tick } if second < until_tick => {
                return DispatchOutcome::DeadLettered(DeadLetter {
                    executor: self.inner.name().to_string(),
                    event: *event,
                    second,
                    reason: format!("circuit open until tick {until_tick}"),
                });
            }
            BreakerState::Open { .. } => self.breaker = BreakerState::HalfOpen,
            _ => {}
        }
        let mut attempt = 1u32;
        loop {
            // The executor may be left mid-update by a panic; the
            // AssertUnwindSafe is deliberate — a failing executor is
            // retried and then quarantined, never trusted to be
            // consistent.
            let result = catch_unwind(AssertUnwindSafe(|| self.inner.on_event(event)));
            match result {
                Ok(frames) => {
                    if matches!(self.breaker, BreakerState::HalfOpen) {
                        recorder.add("server.executor.reclosed", 1);
                    }
                    self.breaker = BreakerState::Closed;
                    self.consecutive_failures = 0;
                    return DispatchOutcome::Delivered(frames);
                }
                Err(payload) => {
                    recorder.add("server.executor.failures", 1);
                    if attempt < policy.max_attempts.max(1) {
                        recorder.add("server.executor.retries", 1);
                        recorder.add(
                            "server.executor.backoff_ticks",
                            backoff_ticks(seed, self.inner.name(), event, attempt),
                        );
                        attempt += 1;
                        continue;
                    }
                    self.consecutive_failures = self.consecutive_failures.saturating_add(1);
                    let was_probe = matches!(self.breaker, BreakerState::HalfOpen);
                    if was_probe || self.consecutive_failures >= policy.quarantine_after.max(1) {
                        self.breaker = BreakerState::Open {
                            until_tick: second.saturating_add(policy.open_ticks.max(1)),
                        };
                    }
                    return DispatchOutcome::DeadLettered(DeadLetter {
                        executor: self.inner.name().to_string(),
                        event: *event,
                        second,
                        reason: panic_text(payload),
                    });
                }
            }
        }
    }

    /// Restores persisted supervision state (crash recovery).
    pub fn restore(&mut self, consecutive_failures: u32, breaker: BreakerState) {
        self.consecutive_failures = consecutive_failures;
        // HalfOpen is transient and never persisted; normalize defensively.
        self.breaker = match breaker {
            BreakerState::HalfOpen => BreakerState::Closed,
            other => other,
        };
    }
}

fn panic_text(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        return format!("panic: {s}");
    }
    if let Some(s) = payload.downcast_ref::<String>() {
        return format!("panic: {s}");
    }
    "panic: <non-string payload>".to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ripq_rfid::ObjectId;

    /// Panics on the first `fail_times` events, then succeeds.
    struct FlakyExecutor {
        fail_times: u32,
        calls: u32,
    }

    impl Executor for FlakyExecutor {
        fn name(&self) -> &'static str {
            "flaky"
        }

        fn on_event(&mut self, event: &ServerEvent) -> Vec<String> {
            self.calls += 1;
            if self.calls <= self.fail_times {
                // ripq-lint: allow(no-panic-paths) -- deliberate fault injection: this panic is the supervision test fixture, caught by the dispatch catch_unwind
                panic!("flaky failure {}", self.calls);
            }
            vec![format!(
                "{{\"ok\":\"flaky\",\"event\":\"{}\"}}",
                event.name()
            )]
        }
    }

    fn event() -> ServerEvent {
        ServerEvent::GeofenceEntered {
            sub: 1,
            object: ObjectId::new(4),
            second: 9,
        }
    }

    fn quiet_recorder() -> Recorder {
        Recorder::from_flag(true)
    }

    #[test]
    fn retry_recovers_a_flaky_executor() {
        let mut s = SupervisedExecutor::new(Box::new(FlakyExecutor {
            fail_times: 2,
            calls: 0,
        }));
        let recorder = quiet_recorder();
        let out = s.dispatch(&event(), 9, &SupervisorPolicy::default(), 7, &recorder);
        match out {
            DispatchOutcome::Delivered(frames) => {
                assert_eq!(frames.len(), 1);
                assert!(frames.first().is_some_and(|f| f.contains("flaky")));
            }
            DispatchOutcome::DeadLettered(l) => panic!("should have recovered: {l:?}"),
        }
        assert_eq!(s.consecutive_failures, 0);
        assert_eq!(s.breaker, BreakerState::Closed);
        let snap = recorder.snapshot().to_json();
        assert!(snap.contains("server.executor.retries"));
    }

    #[test]
    fn persistent_failure_trips_the_breaker_then_half_open_probe_recloses() {
        let mut s = SupervisedExecutor::new(Box::new(FlakyExecutor {
            fail_times: u32::MAX,
            calls: 0,
        }));
        let policy = SupervisorPolicy::default();
        let recorder = quiet_recorder();
        // Two exhausted events → breaker opens.
        for second in [10, 11] {
            match s.dispatch(&event(), second, &policy, 7, &recorder) {
                DispatchOutcome::DeadLettered(l) => {
                    assert_eq!(l.executor, "flaky");
                    assert!(l.reason.contains("panic"));
                }
                DispatchOutcome::Delivered(_) => panic!("must fail"),
            }
        }
        assert!(s.is_quarantined());
        // While open: straight to the DLQ, no attempts.
        match s.dispatch(&event(), 12, &policy, 7, &recorder) {
            DispatchOutcome::DeadLettered(l) => assert!(l.reason.contains("circuit open")),
            DispatchOutcome::Delivered(_) => panic!("breaker must be open"),
        }
        // Past open_ticks, a now-healthy executor re-closes via probe.
        let mut healthy = SupervisedExecutor::new(Box::new(FlakyExecutor {
            fail_times: 0,
            calls: 0,
        }));
        healthy.restore(s.consecutive_failures, s.breaker);
        match healthy.dispatch(&event(), 14, &policy, 7, &recorder) {
            DispatchOutcome::Delivered(_) => {}
            DispatchOutcome::DeadLettered(l) => panic!("probe should succeed: {l:?}"),
        }
        assert_eq!(healthy.breaker, BreakerState::Closed);
    }

    #[test]
    fn half_open_failure_reopens_immediately() {
        let mut s = SupervisedExecutor::new(Box::new(FlakyExecutor {
            fail_times: u32::MAX,
            calls: 0,
        }));
        let policy = SupervisorPolicy {
            quarantine_after: 1,
            ..SupervisorPolicy::default()
        };
        let recorder = quiet_recorder();
        let _ = s.dispatch(&event(), 10, &policy, 7, &recorder);
        assert_eq!(s.breaker, BreakerState::Open { until_tick: 12 });
        // Probe at 12 fails → reopen relative to the probe tick.
        let _ = s.dispatch(&event(), 12, &policy, 7, &recorder);
        assert_eq!(s.breaker, BreakerState::Open { until_tick: 14 });
    }

    #[test]
    fn backoff_is_deterministic_jittered_and_window_bounded() {
        let e = event();
        for attempt in 1..=10u32 {
            let a = backoff_ticks(7, "frames", &e, attempt);
            let b = backoff_ticks(7, "frames", &e, attempt);
            assert_eq!(a, b, "same inputs, same backoff");
            let window = 1u64 << u64::from(attempt.saturating_sub(1).min(6));
            assert!(a >= window && a < 2 * window, "attempt {attempt}: {a}");
        }
        // Seed, executor and event identity all matter.
        assert!(
            backoff_ticks(7, "frames", &e, 3) != backoff_ticks(8, "frames", &e, 3)
                || backoff_ticks(7, "frames", &e, 3) != backoff_ticks(7, "other", &e, 3)
        );
    }

    #[test]
    fn restore_normalizes_half_open() {
        let mut s = SupervisedExecutor::new(Box::new(FlakyExecutor {
            fail_times: 0,
            calls: 0,
        }));
        s.restore(3, BreakerState::HalfOpen);
        assert_eq!(s.breaker, BreakerState::Closed);
        assert_eq!(s.consecutive_failures, 3);
        s.restore(1, BreakerState::Open { until_tick: 20 });
        assert!(s.is_quarantined());
    }
}

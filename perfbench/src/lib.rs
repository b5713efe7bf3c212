//! RIPQ benchmark: end-to-end and per-layer metrics for three workloads.
//!
//! * `paper-batch` drives the library path (`IndoorQuerySystem::ingest_*`
//!   then `evaluate`) at the paper's Table 2 defaults;
//! * `query-fanout` and `stream-ingest` drive the daemon path
//!   (`ServerCore::handle_frame`).
//!
//! Each run is a single-client closed loop on one thread. A run repeats
//! fixed *episodes* — set-up (build, register, warm-up ingest, first cold
//! evaluation) followed by a fixed stream of measured seconds. The number
//! of episodes follows from the time budget alone ([`planned_episodes`]),
//! never from the speed of the code under test, so every run of one budget
//! measures the same work.
//! See `README.md` in this directory for the workloads, metrics and layer
//! map.

pub mod batch;
pub mod daemon;
pub mod inputs;
pub mod layers;
pub mod stats;

use inputs::Workload;
use ripq_core::continuous::SubscriptionKind;
use ripq_core::ResultSet;
use ripq_rfid::ObjectId;
use ripq_sim::metrics::{self, Mean};
use ripq_sim::GroundTruth;
use stats::Samples;
use std::path::PathBuf;
use std::time::Instant;

/// What one benchmark invocation runs.
#[derive(Debug, Clone)]
pub struct Options {
    pub workload: Workload,
    /// Workload seed: every input is derived from it.
    pub seed: u64,
    /// Time budget of the timed loop, in seconds.
    pub seconds: f64,
    /// Run the traced (per-layer) variant instead of the timed one.
    pub trace: bool,
    /// Shrink the workload (the package tests only).
    pub smoke: bool,
    /// Private scratch directory for checkpoints; created and removed by
    /// the caller.
    pub scratch: PathBuf,
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// The outcome of one run.
#[derive(Debug, Default)]
pub struct Report {
    pub checks: Checks,
    pub metrics: Vec<Metric>,
    /// Extra run facts as `(key, rendered JSON value)`: input digest,
    /// sample counts, tail percentiles, span totals.
    pub detail: Vec<(String, String)>,
}

impl Report {
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// Operation accounting and output checks.
#[derive(Debug, Default)]
pub struct Checks {
    /// Operations issued (ingest calls or frames, evaluations, checkpoints).
    pub attempted: u64,
    /// Operations that failed: error or busy lines, panics, answers tagged
    /// below full fidelity.
    pub failed: u64,
    /// Output checks that did not hold.
    pub wrong: u64,
    /// The first few problems, for the log.
    pub problems: Vec<String>,
}

impl Checks {
    fn note(&mut self, why: String) {
        if self.problems.len() < 20 {
            self.problems.push(why);
        }
    }

    /// Records a failed operation.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.note(why);
    }

    /// Records an incorrect output.
    pub fn wrong(&mut self, why: String) {
        self.wrong += 1;
        self.note(why);
    }

    /// Checks `ok`, recording `why()` when it does not hold.
    pub fn expect(&mut self, ok: bool, why: impl FnOnce() -> String) {
        if !ok {
            self.wrong(why());
        }
    }

    /// A run is correct when no output check failed and no operation
    /// failed.
    pub fn correct(&self) -> bool {
        self.wrong == 0 && self.failed == 0
    }
}

/// Largest tolerated probability rounding excess.
pub const PROB_EPS: f64 = 1e-9;

/// Whether `p` is a valid probability.
pub fn is_probability(p: f64) -> bool {
    p.is_finite() && (0.0..=1.0 + PROB_EPS).contains(&p)
}

/// Timing samples of one episode of the timed loop.
#[derive(Debug, Default)]
pub struct Episode {
    /// Evaluation latencies (ms): one `evaluate` call or `tick` frame.
    pub tick: Samples,
    /// Ingest latencies (ms): one second of readings.
    pub ingest: Samples,
    /// Other measured calls (ms), such as `checkpoint` frames.
    pub other: Samples,
    /// Simulated seconds fully ingested and evaluated.
    pub sim_seconds: u64,
}

impl Episode {
    /// Time spent inside the system's calls (ingest, evaluation and
    /// checkpoint), in seconds; the client's own checking is left out.
    pub fn busy_s(&self) -> f64 {
        (self.tick.sum() + self.ingest.sum() + self.other.sum()) / 1e3
    }
}

/// Wall seconds of time budget counted per episode: every workload's
/// episode, with its share of set-up and checking, takes about 3 s on a
/// 2-vCPU virtual machine.
pub const EPISODE_BUDGET_S: f64 = 3.5;

/// The timed loop stops starting episodes once it would run past this, so
/// that a run on a much slower build still ends within its 180 s.
pub const HARD_LIMIT_S: f64 = 120.0;

/// Episodes a timed run of `seconds` plays: at least one, and the same for
/// every build.
pub fn planned_episodes(seconds: f64) -> usize {
    ((seconds / EPISODE_BUDGET_S).round() as usize).max(1)
}

/// Timing samples of the timed loop.
#[derive(Debug, Default)]
pub struct Timings {
    /// Set-up times (ms), one per set-up.
    pub setup: Samples,
    /// Completed episodes, in run order.
    pub episodes: Vec<Episode>,
    /// Episodes the run set out to play.
    pub planned: usize,
    /// Peak resident memory (MiB) at the end of the timed episodes.
    pub peak_rss_mb: f64,
}

impl Timings {
    pub fn new(seconds: f64) -> Timings {
        Timings {
            planned: planned_episodes(seconds),
            ..Timings::default()
        }
    }

    /// Whether to play one more episode: fewer than planned are done and,
    /// at the average pace so far, it still ends within [`HARD_LIMIT_S`]
    /// of `start`.
    pub fn wants_another_episode(&self, start: Instant) -> bool {
        let elapsed = start.elapsed().as_secs_f64();
        self.episodes.len() < self.planned
            && elapsed * (1.0 + 1.0 / self.episodes.len().max(1) as f64) <= HARD_LIMIT_S
    }
}

/// Accuracy against ground truth, over the first episode.
#[derive(Debug, Default)]
pub struct Accuracy {
    pub kl: Mean,
    pub hit: Mean,
}

/// The best latency at each call position over all episodes: every
/// episode issues the same calls in the same order, so position `i` does
/// the same work in each, and its fastest run is the one least disturbed.
fn best_by_position(episodes: &[Episode], calls: fn(&Episode) -> &Samples) -> Samples {
    let len = episodes.iter().map(|e| calls(e).len()).min().unwrap_or(0);
    let mut best = Samples::default();
    for i in 0..len {
        best.push(
            episodes
                .iter()
                .map(|e| calls(e).as_slice()[i])
                .fold(f64::INFINITY, f64::min),
        );
    }
    best
}

/// Assembles the end-to-end metrics and their detail facts.
///
/// Every episode of a run replays identical inputs, so episodes differ
/// only by interference from outside the process; on a shared host it
/// comes in bursts of seconds that slow every call alike. Each call
/// position therefore keeps its fastest latency over the run's fixed
/// number of episodes ([`best_by_position`]), and medians and tails are
/// taken over those. Throughput is that of the fastest whole episode, and
/// set-up time is the shortest set-up. The `detail` line lists every
/// episode's own median, so the bursts stay visible. A run in which no
/// episode completed is not correct.
pub fn end_to_end(t: &Timings, acc: &Accuracy, checks: &mut Checks, report: &mut Report) {
    if t.episodes.is_empty() {
        checks.wrong("no episode completed".into());
    }
    let tick = best_by_position(&t.episodes, |e| &e.tick);
    let ingest = best_by_position(&t.episodes, |e| &e.ingest);
    let sim_s_per_s = t
        .episodes
        .iter()
        .map(|e| e.sim_seconds as f64 / e.busy_s().max(1e-9))
        .fold(0.0, f64::max);
    let tick_tail = tick.tail();
    let ingest_tail = ingest.tail();
    let ok_ratio = 1.0 - checks.failed as f64 / checks.attempted.max(1) as f64;
    report.metrics = vec![
        Metric {
            name: "setup_s",
            value: t.setup.min() / 1e3,
            unit: "s",
        },
        Metric {
            name: "sim_s_per_s",
            value: sim_s_per_s,
            unit: "1/s",
        },
        Metric {
            name: "tick_p50_ms",
            value: tick.median(),
            unit: "ms",
        },
        Metric {
            name: "tick_tail_ms",
            value: tick_tail.value,
            unit: "ms",
        },
        Metric {
            name: "ingest_p50_ms",
            value: ingest.median(),
            unit: "ms",
        },
        Metric {
            name: "ingest_tail_ms",
            value: ingest_tail.value,
            unit: "ms",
        },
        Metric {
            name: "ok_ratio",
            value: ok_ratio,
            unit: "ratio",
        },
        Metric {
            name: "peak_rss_mb",
            value: t.peak_rss_mb,
            unit: "MiB",
        },
        Metric {
            name: "range_kl",
            value: acc.kl.value(),
            unit: "nats",
        },
        Metric {
            name: "knn_hit_rate",
            value: acc.hit.value(),
            unit: "ratio",
        },
    ];
    report.detail.extend([
        ("setups".to_string(), t.setup.len().to_string()),
        ("episodes".to_string(), t.episodes.len().to_string()),
        ("episodes_planned".to_string(), t.planned.to_string()),
        (
            "tick_samples_per_episode".to_string(),
            tick_tail.n.to_string(),
        ),
        (
            "tick_tail_percentile".to_string(),
            format!("{:.3}", tick_tail.percentile),
        ),
        (
            "ingest_samples_per_episode".to_string(),
            ingest_tail.n.to_string(),
        ),
        (
            "ingest_tail_percentile".to_string(),
            format!("{:.3}", ingest_tail.percentile),
        ),
        (
            "episode_tick_p50_ms".to_string(),
            format!(
                "[{}]",
                t.episodes
                    .iter()
                    .map(|e| format!("{:.4}", e.tick.median()))
                    .collect::<Vec<_>>()
                    .join(",")
            ),
        ),
        ("range_kl_samples".to_string(), acc.kl.count().to_string()),
        ("knn_hit_samples".to_string(), acc.hit.count().to_string()),
    ]);
}

/// Scores one answer against ground truth at `second`: KL divergence for
/// range answers (when the true set is not empty), hit rate for kNN.
pub fn score(
    truth: &GroundTruth<'_>,
    universe: &[ObjectId],
    kind: &SubscriptionKind,
    answer: &ResultSet,
    second: u64,
    acc: &mut Accuracy,
) {
    match kind {
        SubscriptionKind::Range(window) => {
            let members = truth.range(window, second);
            if let Some(kl) = metrics::range_kl(&members, answer, universe) {
                acc.kl.push(kl);
            }
        }
        SubscriptionKind::Knn(point, k) => {
            let nearest = truth.knn(*point, *k, second);
            acc.hit
                .push(metrics::knn_hit_rate(answer.objects(), &nearest, *k));
        }
    }
}

/// Renders `(name, samples)` span totals as a JSON object.
pub fn spans_json(spans: &[(&str, &Samples)]) -> String {
    let body: Vec<String> = spans
        .iter()
        .map(|(name, s)| {
            format!(
                "\"{name}\":{{\"count\":{},\"total_ms\":{:.3}}}",
                s.len(),
                s.sum()
            )
        })
        .collect();
    format!("{{{}}}", body.join(","))
}

/// Runs one workload.
pub fn run(opts: &Options) -> Report {
    match opts.workload {
        Workload::PaperBatch => batch::run(opts),
        Workload::QueryFanout | Workload::StreamIngest => daemon::run(opts),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_failed_operation_makes_the_run_incorrect() {
        let mut checks = Checks::default();
        assert!(checks.correct());
        checks.fail("busy".into());
        assert!(!checks.correct());
    }

    #[test]
    fn a_run_without_episodes_is_incorrect() {
        let mut checks = Checks::default();
        let mut report = Report::default();
        end_to_end(
            &Timings::new(40.0),
            &Accuracy::default(),
            &mut checks,
            &mut report,
        );
        assert!(!checks.correct());
    }

    #[test]
    fn the_episode_count_follows_the_budget_only() {
        assert_eq!(planned_episodes(0.0), 1);
        assert_eq!(planned_episodes(40.0), 11);
    }
}

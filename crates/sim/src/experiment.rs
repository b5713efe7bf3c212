//! The end-to-end accuracy experiment: the harness behind every figure of
//! §5.
//!
//! One [`Experiment::run`] reproduces the paper's measurement procedure:
//! generate true traces, stream noisy readings into the system, and at
//! each evaluation timestamp compare the particle-filter method (PF) and
//! the symbolic-model baseline (SM) against ground truth on randomly
//! generated range and kNN queries. The PF side is the
//! [`IndoorQuerySystem`] facade itself; the SM side reads the facade's
//! collector.

use crate::{
    checkpoint,
    metrics::{self, Mean},
    ExperimentParams, FaultInjector, GroundTruth, ReadingGenerator, SimWorld, TraceGenerator,
};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use ripq_core::checkpoint::Recovered;
use ripq_core::{
    evaluate_knn, evaluate_range, Clock, DegradationLevel, IndoorQuerySystem, KnnQuery, QueryId,
    RecoveryOutcome, SystemConfig,
};
use ripq_geom::{Point2, Rect};
use ripq_obs::MetricsSnapshot;
use ripq_pf::PreprocessorConfig;
use ripq_rfid::ObjectId;
use serde::{Deserialize, Serialize};
use std::path::PathBuf;
use std::sync::Mutex;

/// Averaged accuracy results of one experiment — one point on each curve
/// of Figures 9–13.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct AccuracyReport {
    /// Range-query KL divergence, particle-filter method.
    pub range_kl_pf: f64,
    /// Range-query KL divergence, symbolic-model baseline.
    pub range_kl_sm: f64,
    /// kNN average hit rate, particle-filter method.
    pub knn_hit_pf: f64,
    /// kNN average hit rate, symbolic-model baseline.
    pub knn_hit_sm: f64,
    /// Top-1 success rate of the particle filter's location inference.
    pub top1_success: f64,
    /// Top-2 success rate of the particle filter's location inference.
    pub top2_success: f64,
    /// Mean localization error (expected Euclidean distance between the
    /// inferred distribution and the true position, meters) — particle
    /// filter. One of the paper's §6 "more performance evaluation
    /// metrics".
    pub mean_error_pf: f64,
    /// Mean localization error, symbolic baseline.
    pub mean_error_sm: f64,
    /// Range queries that contributed to the KL averages.
    pub range_queries_evaluated: u64,
    /// kNN query evaluations performed.
    pub knn_queries_evaluated: u64,
}

/// One fully-specified accuracy experiment.
pub struct Experiment {
    params: ExperimentParams,
    world: SimWorld,
    /// Directory holding the crash-recovery snapshot (`experiment.ckpt`);
    /// `None` disables both checkpointing and resume.
    checkpoint_dir: Option<PathBuf>,
    /// Simulated-crash knob: abandon the run at the top of this second,
    /// before any checkpoint due there is written. For recovery tests.
    kill_after: Option<u64>,
    /// What the most recent run found on disk (behind a mutex only to
    /// keep `Experiment: Sync`; `run` takes `&self`).
    last_recovery: Mutex<Option<RecoveryOutcome>>,
}

impl Experiment {
    /// Builds the world for `params`.
    pub fn new(params: ExperimentParams) -> Self {
        let world = SimWorld::build(&params);
        Experiment::with_world(params, world)
    }

    /// Runs the experiment over a caller-supplied world (any floor plan).
    pub fn with_world(params: ExperimentParams, world: SimWorld) -> Self {
        Experiment {
            params,
            world,
            checkpoint_dir: None,
            kill_after: None,
            last_recovery: Mutex::new(None),
        }
    }

    /// Enables crash recovery: `run` first tries to resume from
    /// `dir/experiment.ckpt` (quarantining a damaged or mismatched file),
    /// then writes a fresh snapshot there every
    /// [`ExperimentParams::checkpoint_every`] simulated seconds.
    pub fn with_checkpoint_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.checkpoint_dir = Some(dir.into());
        self
    }

    /// The configured checkpoint directory, if any.
    pub fn checkpoint_dir(&self) -> Option<&std::path::Path> {
        self.checkpoint_dir.as_deref()
    }

    /// Simulates a crash: the run loop abandons everything at the top of
    /// `second`, before writing any checkpoint due there. The partial
    /// report it returns is exactly what a killed process would never get
    /// to use; a subsequent `run` on a checkpoint-enabled experiment
    /// resumes from the last durable snapshot.
    pub fn with_kill_after(mut self, second: u64) -> Self {
        self.kill_after = Some(second);
        self
    }

    /// What the most recent `run` found on disk: `None` before any run,
    /// when no checkpoint directory is configured, or when the snapshot
    /// could not be read.
    pub fn last_recovery(&self) -> Option<RecoveryOutcome> {
        self.last_recovery
            .lock()
            .map(|g| g.clone())
            .unwrap_or_default()
    }

    /// The parameters in use.
    pub fn params(&self) -> &ExperimentParams {
        &self.params
    }

    /// The simulated world.
    pub fn world(&self) -> &SimWorld {
        &self.world
    }

    /// Generates a random query window of the configured area fraction,
    /// fully inside the floor-plan bounds.
    fn random_window<R: rand::Rng + RngExt>(&self, rng: &mut R) -> Rect {
        let bounds = self.world.plan.bounds();
        let area = bounds.area() * self.params.query_window_fraction;
        let side = area.sqrt();
        let w = side.min(bounds.width());
        let h = (area / w).min(bounds.height());
        let x = rng.random_range(bounds.min().x..=(bounds.max().x - w).max(bounds.min().x));
        let y = rng.random_range(bounds.min().y..=(bounds.max().y - h).max(bounds.min().y));
        Rect::new(x, y, w, h)
    }

    /// Generates the fixed kNN query points (random indoor locations).
    fn knn_points<R: rand::Rng + RngExt>(&self, rng: &mut R) -> Vec<Point2> {
        let bounds = self.world.plan.bounds();
        (0..self.params.knn_query_points)
            .map(|_| {
                // Rejection-sample an indoor point; fall back to the raw
                // point (it is snapped to the graph anyway).
                for _ in 0..32 {
                    let p = Point2::new(
                        rng.random_range(bounds.min().x..=bounds.max().x),
                        rng.random_range(bounds.min().y..=bounds.max().y),
                    );
                    if !matches!(self.world.plan.locate(p), ripq_floorplan::Location::Outside) {
                        return p;
                    }
                }
                bounds.center()
            })
            .collect()
    }

    /// Runs the experiment and returns the averaged accuracy metrics.
    pub fn run(&self) -> AccuracyReport {
        self.run_inner(false).0
    }

    /// Runs the experiment with pipeline observability controlled by
    /// [`ExperimentParams::observability`], returning the accuracy report
    /// together with the metrics snapshot (`None` when observability is
    /// off).
    ///
    /// The snapshot is the system facade's: every instrumented stage the
    /// run exercises — collector ingestion, the evaluation pass, particle
    /// filter and cache — plus the harness's own `sim.*` and `faults.*`
    /// counters. Counters, gauges, histograms and span counts are
    /// deterministic: same params, same values, regardless of
    /// `parallelism`.
    pub fn run_with_metrics(&self) -> (AccuracyReport, Option<MetricsSnapshot>) {
        self.run_inner(self.params.observability)
    }

    /// The facade configuration of a run. Pruning is off: every known
    /// object is preprocessed, in id order. With an active fault plan the
    /// system ingests delivery-tagged batches behind a reorder window
    /// matching the injector's jitter bound. The walking-speed bound and
    /// the coast cutoff are the facade's defaults.
    fn system_config(&self, observability: bool) -> SystemConfig {
        let p = &self.params;
        SystemConfig {
            anchor_spacing: p.anchor_spacing,
            preprocess: PreprocessorConfig {
                num_particles: p.num_particles,
                negative_evidence: p.negative_evidence,
                resample_threshold: p.resample_threshold,
                kde_bandwidth: p.kde_bandwidth,
                adaptive: p.kld_adaptive.then(ripq_pf::KldConfig::default),
                motion: ripq_pf::MotionModel {
                    room_enter_probability: p.room_enter_probability,
                    ..Default::default()
                },
                ..Default::default()
            },
            use_cache: p.use_cache,
            prune_candidates: false,
            parallelism: p.parallelism,
            reorder_window: if p.faults.is_active() {
                p.faults.max_delay_seconds
            } else {
                0
            },
            observability,
            query_budget: p.query_budget,
            ..SystemConfig::default()
        }
    }

    fn run_inner(&self, observability: bool) -> (AccuracyReport, Option<MetricsSnapshot>) {
        let config = self.system_config(observability);
        // Spans read the system's clock, in its `timing` mode, and only
        // while the recorder is live, so an observability-off run never
        // records them. Under the default wall clock, span *durations* are
        // the one non-deterministic part of a sim snapshot (span counts
        // and every counter/gauge/histogram are exact).
        let clock = Clock::new(config.timing);
        let t_run = observability.then(|| clock.now());
        let p = &self.params;
        let w = &self.world;
        let mut rng_trace = StdRng::seed_from_u64(p.seed.wrapping_add(1));
        let mut rng_sense = StdRng::seed_from_u64(p.seed.wrapping_add(2));
        let mut rng_query = StdRng::seed_from_u64(p.seed.wrapping_add(4));

        // 1. True traces and noisy detections.
        let traces = TraceGenerator::new(p.room_dwell_mean).generate(
            &mut rng_trace,
            &w.graph,
            w.plan.rooms().len(),
            p.num_objects,
            p.duration,
        );
        let reading_gen = ReadingGenerator::new(&w.graph, &w.readers, p.sensing);
        let ground_truth = GroundTruth::new(&w.graph, &traces);
        let objects: Vec<ObjectId> = traces.iter().map(|t| t.object).collect();
        let knn_points = self.knn_points(&mut rng_query);

        // 2. The system under test: the facade over this world's plan and
        // readers, configured by `system_config`. Its master RNG is seeded
        // `seed + 3`; with no PTkNN query registered, its only draw is the
        // per-timestamp pass seed, and every object then filters on its
        // own stream derived from it, so `parallelism` never changes the
        // numbers.
        //
        // Fault layer (off by default). When active, readings pass through
        // the injector; evaluation then happens at the *watermark*
        // (delivery second minus the reorder window), the moment a logical
        // second is final. With `W = 0` faults the watermark equals the
        // second, and an inactive plan takes the exact classic path.
        let jitter = p.faults.max_delay_seconds;
        let mut sys = IndoorQuerySystem::with_readers(
            w.plan.clone(),
            w.readers.clone(),
            config,
            p.seed.wrapping_add(3),
        );
        let recorder = sys.recorder().clone();
        let mut injector = p
            .faults
            .is_active()
            .then(|| FaultInjector::new(p.faults, w.readers.len(), p.duration));
        if let Some(inj) = injector.as_mut() {
            inj.set_recorder(&recorder);
            for o in inj.outages() {
                sys.note_reader_outage(o.reader, o.from, o.until);
            }
        }

        let timestamps = p.timestamps();
        let mut next_ts = 0usize;

        let mut kl_pf = Mean::default();
        let mut kl_sm = Mean::default();
        let mut hit_pf = Mean::default();
        let mut hit_sm = Mean::default();
        let mut top1 = Mean::default();
        let mut top2 = Mean::default();
        let mut err_pf = Mean::default();
        let mut err_sm = Mean::default();

        // Crash recovery. Everything above this point — traces, readers,
        // ground truth, query points, the outage schedule — is a pure
        // function of the params and the world and was regenerated
        // identically; the snapshot restores only what the loop below
        // mutates (the facade's state included), then the loop re-enters
        // at the checkpointed second. Fingerprint checks quarantine
        // snapshots from other parameter sets and other worlds.
        let fingerprint = checkpoint::params_fingerprint(p);
        let ckpt_path = self
            .checkpoint_dir
            .as_deref()
            .map(checkpoint::snapshot_path);
        let mut start_second = 0u64;
        if let Some(path) = &ckpt_path {
            let recovered = ripq_core::checkpoint::recover(&mut sys, path, |r| {
                checkpoint::HarnessState::decode(r, fingerprint)
            });
            let outcome = match recovered {
                Ok(Recovered::Resumed {
                    replay_from,
                    section: h,
                }) => {
                    rng_sense = StdRng::from_state(h.rng_sense);
                    rng_query = StdRng::from_state(h.rng_query);
                    next_ts = h.next_ts as usize;
                    [kl_pf, kl_sm, hit_pf, hit_sm, top1, top2, err_pf, err_sm] =
                        h.means.map(Mean::from_state);
                    if let Some(inj) = injector.as_mut() {
                        inj.restore_pending(h.pending);
                    }
                    start_second = replay_from;
                    Some(RecoveryOutcome::Resumed { replay_from })
                }
                Ok(other) => Some(other.outcome()),
                // An unreadable snapshot stays on disk and the run goes
                // cold, as after a failed write.
                Err(_) => {
                    recorder.add("recovery.checkpoint_errors", 1);
                    None
                }
            };
            if let Ok(mut slot) = self.last_recovery.lock() {
                *slot = outcome;
            }
        }

        let horizon = if injector.is_some() {
            p.duration + jitter
        } else {
            p.duration
        };
        for second in start_second..=horizon {
            // Simulated crash — before the checkpoint due this second, so
            // recovery replays from the previous snapshot, never this one.
            if self.kill_after == Some(second) {
                break;
            }
            if let Some(path) = &ckpt_path {
                if p.checkpoint_every > 0 && second > 0 && second.is_multiple_of(p.checkpoint_every)
                {
                    let harness = checkpoint::HarnessState {
                        next_ts: next_ts as u64,
                        rng_sense: rng_sense.state(),
                        rng_query: rng_query.state(),
                        means: [kl_pf, kl_sm, hit_pf, hit_sm, top1, top2, err_pf, err_sm]
                            .map(|m| m.state()),
                        pending: injector
                            .as_ref()
                            .map(|inj| inj.pending().clone())
                            .unwrap_or_default(),
                    };
                    let saved = ripq_core::checkpoint::save(&sys, path, |w| {
                        harness.encode(fingerprint, w);
                    });
                    // Best effort: a full disk must degrade durability,
                    // not kill the run.
                    if saved.is_err() {
                        recorder.add("recovery.checkpoint_errors", 1);
                    }
                }
            }
            match injector.as_mut() {
                None => {
                    let detections = reading_gen.detections_at(&mut rng_sense, &traces, second);
                    sys.ingest_detections(second, &detections);
                }
                Some(inj) => {
                    // Past `duration` nothing new is generated; the extra
                    // seconds only drain the injector's jitter buffer.
                    let detections = if second <= p.duration {
                        reading_gen.detections_at(&mut rng_sense, &traces, second)
                    } else {
                        Vec::new()
                    };
                    let delivered = inj.step(second, &detections);
                    sys.ingest_delivery(second, &delivered);
                }
            }
            let watermark = if injector.is_some() {
                second.saturating_sub(jitter)
            } else {
                second
            };

            while next_ts < timestamps.len() && timestamps[next_ts] == watermark {
                next_ts += 1;
                let now = watermark;
                recorder.add("sim.timestamps_evaluated", 1);

                // Both probabilistic indexes over all objects: the
                // facade's evaluation pass for PF (panic isolation and the
                // deadline-budget ladder included), the symbolic model
                // over the same collector for SM.
                let t_pf = observability.then(|| clock.now());
                let report = sys.evaluate(now);
                // Lazily counted so budget-free runs never see the name.
                let degraded = report
                    .object_degradation
                    .values()
                    .filter(|&&level| level > DegradationLevel::Full)
                    .count();
                if degraded > 0 {
                    recorder.add("sim.objects_degraded", degraded as u64);
                }
                let pf_index = report.index;
                if let Some(t) = t_pf {
                    recorder.record_span("run/pf_index", clock.since(t));
                }
                let t_sm = observability.then(|| clock.now());
                let sm_index = w.symbolic.build_index(sys.collector(), &objects, now);
                if let Some(t) = t_sm {
                    recorder.record_span("run/sm_index", clock.since(t));
                }
                let t_queries = observability.then(|| clock.now());

                // Range queries.
                recorder.add(
                    "sim.range_queries_issued",
                    p.range_queries_per_timestamp as u64,
                );
                for _ in 0..p.range_queries_per_timestamp {
                    let window = self.random_window(&mut rng_query);
                    let truth = ground_truth.range(&window, now);
                    if truth.is_empty() {
                        continue;
                    }
                    let pf_rs = evaluate_range(&w.plan, &w.anchors, &pf_index, &window);
                    let sm_rs = evaluate_range(&w.plan, &w.anchors, &sm_index, &window);
                    if let Some(kl) = metrics::range_kl(&truth, &pf_rs, &objects) {
                        kl_pf.push(kl);
                    }
                    if let Some(kl) = metrics::range_kl(&truth, &sm_rs, &objects) {
                        kl_sm.push(kl);
                    }
                }

                // kNN queries.
                recorder.add("sim.knn_queries_issued", knn_points.len() as u64);
                for (qi, &point) in knn_points.iter().enumerate() {
                    let truth = ground_truth.knn(point, p.k, now);
                    let query = KnnQuery::new(QueryId::new(qi as u32), point, p.k).expect("k >= 1");
                    let pf_rs = evaluate_knn(&w.graph, &w.anchors, &pf_index, &query);
                    let sm_rs = evaluate_knn(&w.graph, &w.anchors, &sm_index, &query);
                    hit_pf.push(metrics::knn_hit_rate(pf_rs.objects(), &truth, p.k));
                    // SM: only the maximum-probability k-set counts.
                    hit_sm.push(metrics::knn_hit_rate(
                        metrics::top_k_objects(&sm_rs, p.k),
                        &truth,
                        p.k,
                    ));
                }

                // Top-k success of the PF inference, plus the mean
                // localization error of both methods.
                for t in &traces {
                    let true_pos = t.at(now);
                    let true_pt = w.graph.point_of(true_pos);
                    if let Some(dist) = pf_index.distribution(&t.object) {
                        top1.push(f64::from(metrics::top_k_success(
                            w.symbolic.cells(),
                            &w.anchors,
                            dist,
                            true_pos,
                            1,
                        )));
                        top2.push(f64::from(metrics::top_k_success(
                            w.symbolic.cells(),
                            &w.anchors,
                            dist,
                            true_pos,
                            2,
                        )));
                        err_pf.push(metrics::expected_error(&w.anchors, dist, true_pt));
                    }
                    if let Some(dist) = sm_index.distribution(&t.object) {
                        err_sm.push(metrics::expected_error(&w.anchors, dist, true_pt));
                    }
                }
                if let Some(t) = t_queries {
                    recorder.record_span("run/queries", clock.since(t));
                }
            }
        }
        if let Some(t) = t_run {
            recorder.record_span("run", clock.since(t));
        }
        let report = AccuracyReport {
            range_kl_pf: kl_pf.value(),
            range_kl_sm: kl_sm.value(),
            knn_hit_pf: hit_pf.value(),
            knn_hit_sm: hit_sm.value(),
            top1_success: top1.value(),
            top2_success: top2.value(),
            mean_error_pf: err_pf.value(),
            mean_error_sm: err_sm.value(),
            range_queries_evaluated: kl_pf.count(),
            knn_queries_evaluated: hit_pf.count(),
        };
        (report, observability.then(|| recorder.snapshot()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_experiment_produces_sane_metrics() {
        let report = Experiment::new(ExperimentParams::smoke()).run();
        assert!(report.range_queries_evaluated > 0);
        assert!(report.knn_queries_evaluated > 0);
        assert!(report.range_kl_pf.is_finite() && report.range_kl_pf >= 0.0);
        assert!(report.range_kl_sm.is_finite() && report.range_kl_sm >= 0.0);
        assert!((0.0..=1.0).contains(&report.knn_hit_pf));
        assert!((0.0..=1.0).contains(&report.knn_hit_sm));
        assert!((0.0..=1.0).contains(&report.top1_success));
        assert!((0.0..=1.0).contains(&report.top2_success));
        assert!(
            report.top2_success >= report.top1_success,
            "top-2 dominates top-1 by construction"
        );
    }

    #[test]
    fn pf_beats_sm_on_default_style_run() {
        // The paper's headline result at (near-)default parameters: the
        // particle filter's KL divergence is lower and its hit rate higher
        // than the symbolic model's. A smoke-sized run shows the same
        // ordering.
        let params = ExperimentParams {
            num_objects: 40,
            duration: 200,
            warmup: 50,
            eval_timestamps: 8,
            range_queries_per_timestamp: 30,
            knn_query_points: 10,
            ..Default::default()
        };
        let report = Experiment::new(params).run();
        assert!(
            report.range_kl_pf < report.range_kl_sm,
            "PF KL {} must beat SM KL {}",
            report.range_kl_pf,
            report.range_kl_sm
        );
        assert!(
            report.knn_hit_pf > report.knn_hit_sm,
            "PF hit rate {} must beat SM hit rate {}",
            report.knn_hit_pf,
            report.knn_hit_sm
        );
    }

    #[test]
    fn experiment_is_deterministic() {
        let params = ExperimentParams::smoke();
        let r1 = Experiment::new(params).run();
        let r2 = Experiment::new(params).run();
        assert_eq!(r1, r2);
    }

    #[test]
    fn parallel_preprocessing_does_not_change_results() {
        let base = ExperimentParams::smoke();
        let sequential = Experiment::new(base).run();
        let parallel = Experiment::new(ExperimentParams {
            parallelism: Some(4),
            ..base
        })
        .run();
        // AccuracyReport is Copy/PartialEq over f64 fields: this is a
        // bit-for-bit comparison of every metric.
        assert_eq!(sequential, parallel);
    }

    #[test]
    fn metrics_snapshot_is_parallelism_invariant() {
        let base = ExperimentParams {
            observability: true,
            ..ExperimentParams::smoke()
        };
        let (r1, s1) = Experiment::new(base).run_with_metrics();
        let (r2, s2) = Experiment::new(ExperimentParams {
            parallelism: Some(4),
            ..base
        })
        .run_with_metrics();
        assert_eq!(r1, r2);
        let s1 = s1.expect("observability on yields a snapshot");
        let s2 = s2.expect("observability on yields a snapshot");
        // All metric operations commute, so every counter, gauge and
        // histogram is identical regardless of worker scheduling. Span
        // durations are wall-clock here (the experiment runs under the
        // default `TimingMode::Wall`) — only their keys and counts are
        // checked.
        assert_eq!(s1.counters, s2.counters);
        assert_eq!(s1.gauges, s2.gauges);
        assert_eq!(s1.histograms, s2.histograms);
        let span_counts = |s: &ripq_obs::MetricsSnapshot| {
            s.spans
                .iter()
                .map(|(k, v)| (k.clone(), v.count))
                .collect::<Vec<_>>()
        };
        assert_eq!(span_counts(&s1), span_counts(&s2));
        assert!(s1.spans.contains_key("run/pf_index"));
        assert!(s1.counters.contains_key("collector.detections"));
        assert!(s1.counters.contains_key("pf.sir_iterations"));
        assert!(s1.counters.contains_key("sim.timestamps_evaluated"));
        assert!(s1.histograms.contains_key("pf.ess"));
    }

    #[test]
    fn metrics_absent_when_observability_off() {
        let (_, snapshot) = Experiment::new(ExperimentParams::smoke()).run_with_metrics();
        assert!(snapshot.is_none());
    }

    #[test]
    fn inactive_fault_plan_takes_the_classic_path_bit_for_bit() {
        let base = ExperimentParams::smoke();
        let clean = Experiment::new(base).run();
        // An all-zero plan — even with a different fault seed — must not
        // perturb a single RNG draw or collector call.
        let inert = Experiment::new(ExperimentParams {
            faults: crate::FaultPlan {
                seed: 0xDEAD_BEEF,
                ..crate::FaultPlan::none()
            },
            ..base
        })
        .run();
        assert_eq!(clean, inert);
    }

    #[test]
    fn faulted_run_is_deterministic_and_parallelism_invariant() {
        let params = ExperimentParams {
            faults: crate::FaultPlan {
                drop_probability: 0.2,
                duplicate_probability: 0.1,
                max_delay_seconds: 3,
                outage_rate: 0.002,
                ..crate::FaultPlan::none()
            },
            ..ExperimentParams::smoke()
        };
        let r1 = Experiment::new(params).run();
        let r2 = Experiment::new(params).run();
        assert_eq!(r1, r2, "same fault plan must reproduce bit-for-bit");
        let r4 = Experiment::new(ExperimentParams {
            parallelism: Some(4),
            ..params
        })
        .run();
        assert_eq!(r1, r4, "worker count must not leak into faulted results");
        assert!(r1.range_queries_evaluated > 0);
    }

    #[test]
    fn absorbable_faults_leave_answers_unchanged() {
        let base = ExperimentParams::smoke();
        let clean = Experiment::new(base).run();

        // Duplicates only: the collector's idempotent ingest absorbs every
        // copy, so the report matches the fault-free run exactly.
        let dup_only = Experiment::new(ExperimentParams {
            faults: crate::FaultPlan {
                duplicate_probability: 0.5,
                ..crate::FaultPlan::none()
            },
            ..base
        })
        .run();
        assert_eq!(clean, dup_only, "duplicates must be absorbed exactly");

        // Delays bounded by the reorder window only: the watermark waits
        // out the jitter, so every reading lands before its logical second
        // is evaluated.
        let delay_only = Experiment::new(ExperimentParams {
            faults: crate::FaultPlan {
                max_delay_seconds: 4,
                ..crate::FaultPlan::none()
            },
            ..base
        })
        .run();
        assert_eq!(clean, delay_only, "in-window reorder must be absorbed");
    }

    fn ckpt_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("ripq_sim_exp_ckpt_{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Counters/gauges minus the `recovery.*` bookkeeping, which by
    /// design differs between an uninterrupted life and a resumed one.
    fn comparable_counters(s: &MetricsSnapshot) -> std::collections::BTreeMap<String, u64> {
        s.counters
            .iter()
            .filter(|(k, _)| !k.starts_with("recovery."))
            .map(|(k, v)| (k.clone(), *v))
            .collect()
    }

    #[test]
    fn killed_run_resumes_bit_for_bit() {
        let params = ExperimentParams {
            checkpoint_every: 20,
            observability: true,
            ..ExperimentParams::smoke()
        };
        let (golden, golden_snap) = Experiment::new(params).run_with_metrics();
        let golden_snap = golden_snap.expect("observability on");

        let dir = ckpt_dir("resume");
        let life1 = Experiment::new(params)
            .with_checkpoint_dir(&dir)
            .with_kill_after(90);
        let _ = life1.run_with_metrics();
        assert_eq!(life1.last_recovery(), Some(RecoveryOutcome::ColdStart));

        // Life 2 resumes — under a different worker count, which must not
        // change a single bit of the answers.
        let life2 = Experiment::new(ExperimentParams {
            parallelism: Some(2),
            ..params
        })
        .with_checkpoint_dir(&dir);
        let (report, snap) = life2.run_with_metrics();
        let snap = snap.expect("observability on");
        assert_eq!(
            life2.last_recovery(),
            Some(RecoveryOutcome::Resumed { replay_from: 80 })
        );
        // AccuracyReport is Copy/PartialEq over f64 fields — this is a
        // bit-for-bit comparison of every metric.
        assert_eq!(report, golden);
        assert_eq!(
            comparable_counters(&snap),
            comparable_counters(&golden_snap)
        );
        assert_eq!(snap.gauges, golden_snap.gauges);
        assert_eq!(snap.histograms, golden_snap.histograms);
        let span_counts = |s: &MetricsSnapshot| {
            s.spans
                .iter()
                .map(|(k, v)| (k.clone(), v.count))
                .collect::<Vec<_>>()
        };
        assert_eq!(span_counts(&snap), span_counts(&golden_snap));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn faulted_run_resumes_through_the_jitter_buffer() {
        // Delay + drop faults keep readings in the injector's in-flight
        // buffer across the kill point, so this exercises the pending
        // snapshot/restore path end to end.
        let params = ExperimentParams {
            faults: crate::FaultPlan {
                drop_probability: 0.2,
                duplicate_probability: 0.1,
                max_delay_seconds: 3,
                outage_rate: 0.002,
                ..crate::FaultPlan::none()
            },
            checkpoint_every: 7,
            ..ExperimentParams::smoke()
        };
        let golden = Experiment::new(params).run();

        let dir = ckpt_dir("faulted_resume");
        let _ = Experiment::new(params)
            .with_checkpoint_dir(&dir)
            .with_kill_after(93)
            .run();
        let life2 = Experiment::new(params).with_checkpoint_dir(&dir);
        let report = life2.run();
        assert_eq!(
            life2.last_recovery(),
            Some(RecoveryOutcome::Resumed { replay_from: 91 })
        );
        assert_eq!(report, golden);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn damaged_snapshot_quarantines_and_cold_rebuild_matches() {
        let params = ExperimentParams {
            checkpoint_every: 20,
            ..ExperimentParams::smoke()
        };
        let golden = Experiment::new(params).run();

        let dir = ckpt_dir("damaged");
        let _ = Experiment::new(params)
            .with_checkpoint_dir(&dir)
            .with_kill_after(100)
            .run();
        // Flip one bit in the middle of the snapshot.
        let path = crate::checkpoint::snapshot_path(&dir);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        // ripq-lint: allow(atomic-persistence) -- test deliberately plants a corrupted file
        std::fs::write(&path, &bytes).unwrap();

        let life2 = Experiment::new(params).with_checkpoint_dir(&dir);
        let report = life2.run();
        match life2.last_recovery() {
            Some(RecoveryOutcome::Quarantined { path: moved }) => {
                assert!(moved.to_string_lossy().ends_with(".corrupt"));
                assert!(moved.exists());
            }
            other => panic!("expected quarantine, got {other:?}"),
        }
        assert_eq!(report, golden, "cold rebuild after quarantine must match");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_params_snapshot_is_not_resumed() {
        let params = ExperimentParams {
            checkpoint_every: 20,
            ..ExperimentParams::smoke()
        };
        // Same directory, a different experiment: another seed (the
        // params fingerprint must refuse it) or the same params over a
        // mall (the facade's world fingerprint must).
        let other_seed = ExperimentParams {
            seed: params.seed + 1,
            ..params
        };
        for (tag, kill_at) in [("stale_params", 100), ("other_world", 90)] {
            let other = || match tag {
                "stale_params" => Experiment::new(other_seed),
                _ => {
                    let plan =
                        ripq_floorplan::shopping_mall(&Default::default()).expect("valid mall");
                    Experiment::with_world(params, SimWorld::build_with_plan(plan, &params))
                }
            };
            let dir = ckpt_dir(tag);
            let _ = Experiment::new(params)
                .with_checkpoint_dir(&dir)
                .with_kill_after(kill_at)
                .run();
            let golden = other().run();
            let life2 = other().with_checkpoint_dir(&dir);
            let report = life2.run();
            assert!(
                matches!(
                    life2.last_recovery(),
                    Some(RecoveryOutcome::Quarantined { .. })
                ),
                "{tag}: {:?}",
                life2.last_recovery()
            );
            assert_eq!(report, golden, "{tag}");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn checkpointing_does_not_perturb_results() {
        let base = ExperimentParams::smoke();
        let clean = Experiment::new(base).run();
        let dir = ckpt_dir("overhead");
        let checked = Experiment::new(ExperimentParams {
            checkpoint_every: 10,
            ..base
        })
        .with_checkpoint_dir(&dir);
        let report = checked.run();
        assert_eq!(checked.last_recovery(), Some(RecoveryOutcome::ColdStart));
        assert_eq!(clean, report, "checkpoint writes must not touch results");
        assert!(crate::checkpoint::snapshot_path(&dir).exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn query_budget_degrades_deterministically() {
        let params = ExperimentParams {
            query_budget: Some(500),
            observability: true,
            ..ExperimentParams::smoke()
        };
        let (r1, s1) = Experiment::new(params).run_with_metrics();
        let (r2, s2) = Experiment::new(ExperimentParams {
            parallelism: Some(4),
            ..params
        })
        .run_with_metrics();
        assert_eq!(r1, r2, "budgeted degradation must stay deterministic");
        let s1 = s1.unwrap();
        assert_eq!(s1.counters, s2.unwrap().counters);
        assert!(
            s1.counters
                .get("sim.objects_degraded")
                .copied()
                .unwrap_or(0)
                > 0,
            "a 500-unit budget over 30 objects must force degradation"
        );
        // Degraded answers are still answers.
        assert!(r1.range_queries_evaluated > 0);
        assert!((0.0..=1.0).contains(&r1.knn_hit_pf));
        // Without a budget every object is answered in full, so the
        // counter is never registered.
        let (_, free) = Experiment::new(ExperimentParams {
            query_budget: None,
            ..params
        })
        .run_with_metrics();
        let free = free.unwrap();
        assert!(free.counters["pf.objects_processed"] > 0);
        assert_eq!(free.counters.get("sim.objects_degraded"), None);
    }
}

//! The particle filter-based preprocessing module — **Algorithm 2**.
//!
//! For every candidate object the preprocessor replays its retained
//! aggregated readings through the SIR filter: particles are seeded inside
//! the activation range of the second-most-recent detecting device, move
//! along the walking graph second by second, are reweighted and resampled
//! at every observation, coast for at most 60 s beyond the last reading,
//! and are finally snapped to anchor points to populate the `APtoObjHT`
//! hash table (§4.4).
//!
//! # Parallel preprocessing
//!
//! Objects are independent: the world state (graph, anchors, readers) is
//! read-only, and each object's run owns its plan, its cache entry and a
//! copy of its readings, so [`ParticlePreprocessor::process`] can hand
//! runs to the process's helper threads (the `pool` module), which share
//! nothing with the calling thread but the pass's work queue. To keep the
//! output *bit-identical* regardless of the worker count, each object
//! draws from its own RNG stream, derived deterministically from
//! `(pass_seed, object id, resume timestamp)` by [`derive_stream_seed`] —
//! no draw ever depends on which objects were processed before it, or on
//! which thread it ran. Every pass with more than one run fans out, up to
//! one worker per core ([`pass_workers`]), and merges each run as it
//! finishes: the merge's every step commutes.

use crate::cache::{CacheEntry, EpisodeKey};
use crate::pool::{available_cores, lock, Help, Pool};
use crate::sir::{Particles, Sir, SirModel, Update};
use crate::{FilterWorld, IndoorState, KldConfig, MeasurementModel, MotionModel, ParticleCache};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ripq_graph::{AnchorId, AnchorObjectIndex, DeltaOutcome, IndexDeltaStats};
use ripq_obs::{Counter, Histogram, Recorder};
use ripq_rfid::{DataCollector, ObjectId, ReaderId};
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::BTreeMap;
use std::fmt;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, PoisonError};

/// The worker count of one pass, the calling thread included: `Some(n)`
/// caps it at `n` and `None` at `cores()`, and either way at one worker
/// per run and at least one. A pass of one run never asks `cores`, so the
/// first read of the machine's core count, which allocates, never lands
/// in it.
fn pass_workers(parallelism: Option<usize>, runs: usize, cores: impl FnOnce() -> usize) -> usize {
    if runs <= 1 {
        return 1;
    }
    parallelism.unwrap_or_else(cores).clamp(1, runs)
}

/// Derives the seed of one object's private RNG stream for one
/// preprocessing pass.
///
/// The three inputs are folded into a SplitMix64 chain one at a time:
/// `pass_seed` separates evaluation passes, the object id separates
/// objects within a pass, and the resume timestamp separates a fresh
/// filter run from a cache-resumed one (which starts at a different
/// second and must not replay the same deviates). The result is
/// independent of processing order, which is what makes the parallel
/// fan-out bit-identical to the sequential loop.
pub fn derive_stream_seed(pass_seed: u64, object: ObjectId, resume_timestamp: u64) -> u64 {
    let mut state = pass_seed;
    let mut out = rand::split_mix64(&mut state);
    state ^= u64::from(object.raw()).rotate_left(32);
    out ^= rand::split_mix64(&mut state);
    state ^= resume_timestamp;
    out ^ rand::split_mix64(&mut state)
}

/// Tuning parameters of Algorithm 2.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PreprocessorConfig {
    /// Number of particles per object (`Ns`; Table 2 default: 64).
    pub num_particles: usize,
    /// Object motion model.
    pub motion: MotionModel,
    /// Device sensing model for weighting.
    pub measurement: MeasurementModel,
    /// Maximum seconds the filter keeps running past the last active
    /// reading (Algorithm 2 line 6: `tmin = min(td + 60, tcurrent)`).
    pub coast_seconds: u64,
    /// Use *negative* observations too: during a second with no reading,
    /// particles sitting inside any reader's activation range are
    /// down-weighted — the aggregated per-second miss probability is
    /// essentially zero (§4.1), so an undetected object cannot be inside a
    /// range. Algorithm 2 as printed skips null entries (lines 18–19);
    /// this flag is our documented strengthening, on by default, with an
    /// ablation benchmark quantifying its effect.
    pub negative_evidence: bool,
    /// Resample when the effective sample size drops below this fraction
    /// of `Ns`. The original SIR filter (and the paper) resamples at every
    /// observation (`1.0`); the default `0.5` preserves hypothesis
    /// diversity at small particle counts, where per-second resampling
    /// collapses the cloud into clones of a single lineage.
    pub resample_threshold: f64,
    /// Kernel-density bandwidth (meters) used when converting the final
    /// particle set into an anchor distribution. A raw `Ns`-particle
    /// histogram is overconfident; triangular-kernel smoothing is the
    /// standard density conversion. `0` = plain nearest-anchor snapping.
    pub kde_bandwidth: f64,
    /// KLD-sampling (Fox 2001): adapt the particle count to the posterior
    /// spread at every resampling step. `None` keeps the paper's fixed
    /// `Ns`.
    pub adaptive: Option<KldConfig>,
}

impl Default for PreprocessorConfig {
    fn default() -> Self {
        PreprocessorConfig {
            num_particles: 64,
            motion: MotionModel::default(),
            measurement: MeasurementModel::default(),
            coast_seconds: 60,
            negative_evidence: true,
            resample_threshold: 0.5,
            kde_bandwidth: 2.0,
            adaptive: None,
        }
    }
}

/// How much of the full particle-filter pipeline produced an object's
/// answer distribution, ordered from best to worst. A query's overall
/// level is the maximum over the objects it touched.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum DegradationLevel {
    /// Full Algorithm 2 run at the configured particle count.
    Full,
    /// The per-query budget forced a reduced particle count (the
    /// KLD-sampling floor), trading sharpness for latency.
    ReducedParticles,
    /// The budget was exhausted: the answer is a uniform distribution
    /// over the anchors inside the object's pruning circle (§4.3) — the
    /// weakest statement the readings still support.
    UniformFallback,
    /// The object's filter panicked past the retry limit; the answer is
    /// the same uniform pruning-circle distribution, and the object is
    /// flagged so operators know inference is persistently failing.
    Quarantined,
}

impl fmt::Display for DegradationLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            DegradationLevel::Full => "full",
            DegradationLevel::ReducedParticles => "reduced-particles",
            DegradationLevel::UniformFallback => "uniform-fallback",
            DegradationLevel::Quarantined => "quarantined",
        })
    }
}

/// Panicking filter runs are retried (from a fresh reseed, cache
/// disabled) at most this many times before the object is quarantined.
const RETRY_LIMIT: usize = 1;

/// Knobs of [`ParticlePreprocessor::process`]: the per-pass evaluation
/// budget and a fault hook for the worker-isolation tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SupervisionOptions {
    /// Evaluation budget for the whole pass in cost units (simulated
    /// seconds × particle count, a deterministic logical-clock model).
    /// `None` = unbounded (every object runs the full filter).
    pub budget: Option<u64>,
    /// Deterministic fault hook for tests: this object's filter panics on
    /// its first [`SupervisionOptions::panic_attempts`] attempts.
    pub panic_object: Option<ObjectId>,
    /// How many attempts of [`SupervisionOptions::panic_object`] panic.
    pub panic_attempts: usize,
}

impl Default for SupervisionOptions {
    fn default() -> Self {
        SupervisionOptions {
            budget: None,
            panic_object: None,
            panic_attempts: 1,
        }
    }
}

/// Everything [`Job::filter_object`] needs that was decided *before* any
/// random draw: the episode identity, the simulation window, and the
/// object's cache entry. Splitting this out lets the pass derive the
/// per-object RNG from the resume timestamp before the filter body runs.
struct ObjectPlan {
    episode_key: EpisodeKey,
    /// `tmin = min(td + coast, now)` — Algorithm 2 line 6.
    tmin: u64,
    /// Second-most-recent detecting device (`dᵢ`), the fresh-seed source.
    seed_device: ReaderId,
    /// First retained second of the object's readings (`t0`).
    agg_start: u64,
    /// The last detecting reader and the second it last detected the
    /// object: the center and age of the fallback's pruning circle.
    last_detection: (ReaderId, u64),
    /// On a cache hit, the entry the pass took out of the cache (the
    /// lookup already counted toward the statistics).
    cached: Option<CacheEntry>,
    /// Whether the pass keeps a cache entry for the object.
    caching: bool,
    /// The second this pass's filtering effectively starts from: the
    /// cached timestamp on a hit, the aggregation start on a miss. Feeds
    /// [`derive_stream_seed`].
    resume_timestamp: u64,
    /// Seconds the filter simulates, `tmin − resume_timestamp` (0 when the
    /// cached cloud is already past `tmin`). The budget ladder charges
    /// this figure, and the work queue runs the longest first.
    work_seconds: u64,
}

impl ObjectPlan {
    /// The plan of a retry: the same window with no cached states, so the
    /// filter reseeds from the last readings instead of resuming whatever
    /// states a panicking run left behind.
    fn reseeded(&self) -> ObjectPlan {
        ObjectPlan {
            cached: None,
            resume_timestamp: self.agg_start,
            work_seconds: self.tmin.saturating_sub(self.agg_start),
            ..*self
        }
    }
}

/// One planned candidate as a worker takes it from the queue: its plan,
/// its level, and its readings as a range of the job's copy, so that no
/// helper ever reads the collector.
struct Run {
    object: ObjectId,
    plan: ObjectPlan,
    level: DegradationLevel,
    detections: Range<usize>,
}

/// What supervising one run hands back to the merge.
struct Outcome {
    object: ObjectId,
    /// The answered distribution, and the level it was produced at.
    answer: (Vec<(AnchorId, f64)>, DegradationLevel),
    /// The entry the object's cache slot holds after the pass.
    entry: Option<CacheEntry>,
    /// A panicking run took the planned entry down with it, which counts
    /// as an invalidation.
    dropped: bool,
}

/// What one worker's runs counted, recorded by the pass's calling thread
/// once the pass is over, so that no helper touches a shared metric.
/// Every recording commutes, so the totals are those of recording each
/// step as it happens. Raw histogram observations are kept only while
/// the recorder is on.
#[derive(Debug, Default)]
struct Tally {
    observe: bool,
    objects: u64,
    sir_iterations: u64,
    resamples: u64,
    sensor_resets: u64,
    cache_resumes: u64,
    cutoff_hits: u64,
    cutoff_seconds_skipped: u64,
    panics: u64,
    retries: u64,
    quarantined: u64,
    ess: Vec<f64>,
    resume_depth: Vec<u64>,
    final_particles: Vec<u64>,
}

impl Tally {
    fn new(observe: bool) -> Self {
        Tally {
            observe,
            ..Tally::default()
        }
    }

    /// Counts the 60 s coast cutoff when it truncates the window.
    fn cutoff(&mut self, tmin: u64, now: u64) {
        if tmin < now {
            self.cutoff_hits += 1;
            self.cutoff_seconds_skipped += now - tmin;
        }
    }

    fn record(&self, m: &PfMetrics) {
        m.objects.add(self.objects);
        m.sir_iterations.add(self.sir_iterations);
        m.resamples.add(self.resamples);
        m.sensor_resets.add(self.sensor_resets);
        m.cache_resumes.add(self.cache_resumes);
        m.cutoff_hits.add(self.cutoff_hits);
        m.cutoff_seconds_skipped.add(self.cutoff_seconds_skipped);
        for &ess in &self.ess {
            m.ess.observe_f64(ess);
        }
        for &depth in &self.resume_depth {
            m.resume_depth.observe(depth);
        }
        for &kept in &self.final_particles {
            m.final_particles.observe(kept);
        }
        // `degrade.*` names appear only once degradation happens.
        if self.panics > 0 {
            m.recorder.add("degrade.pf_panics", self.panics);
        }
        if self.retries > 0 {
            m.recorder.add("degrade.retries", self.retries);
        }
        if self.quarantined > 0 {
            m.recorder.add("degrade.quarantined", self.quarantined);
        }
    }
}

/// Resolved `pf.*` metric handles: resolving registers every name at
/// zero, so a system resolves them once, on its first pass, and hands
/// them to each pass's preprocessor. Only the pass's calling thread
/// records through them, from the runs' tallies. The default is all
/// no-ops.
#[derive(Debug, Clone, Default)]
pub struct PfMetrics {
    /// Objects run through Algorithm 2.
    objects: Counter,
    /// SIR main-loop seconds simulated (Algorithm 2 lines 7–31).
    sir_iterations: Counter,
    /// Effective sample size at each observation step, floored.
    ess: Histogram,
    /// Resampling steps actually taken (ESS below threshold).
    resamples: Counter,
    /// Sensor resets (reading contradicted every hypothesis).
    sensor_resets: Counter,
    /// Filter runs resumed from cached particles.
    cache_resumes: Counter,
    /// Seconds of replay a cache resume skipped.
    resume_depth: Histogram,
    /// Passes where the 60 s coast cutoff truncated the simulation.
    cutoff_hits: Counter,
    /// Seconds the coast cutoff culled from the simulation window.
    cutoff_seconds_skipped: Counter,
    /// Final particle-set size per object (KLD sampling may shrink it).
    final_particles: Histogram,
    /// Cache invalidations caused by a same-device episode split: the
    /// reading stream went dark long enough (reader outage, deep drop
    /// burst) to break the episode even though the same reader re-detected
    /// the object, forcing a fresh reseed.
    outage_resets: Counter,
    /// Kept for lazily registered `degrade.*` counters: unlike the
    /// handles above, degradation counters only appear in snapshots once
    /// degradation actually happens.
    recorder: Recorder,
}

impl PfMetrics {
    /// Resolves the `pf.*` handles in `recorder`.
    pub fn new(recorder: &Recorder) -> Self {
        PfMetrics {
            objects: recorder.counter("pf.objects_processed"),
            sir_iterations: recorder.counter("pf.sir_iterations"),
            ess: recorder.histogram("pf.ess"),
            resamples: recorder.counter("pf.resamples"),
            sensor_resets: recorder.counter("pf.sensor_resets"),
            cache_resumes: recorder.counter("pf.cache_resumes"),
            resume_depth: recorder.histogram("pf.resume_depth_seconds"),
            cutoff_hits: recorder.counter("pf.coast_cutoff_hits"),
            cutoff_seconds_skipped: recorder.counter("pf.coast_seconds_skipped"),
            final_particles: recorder.histogram("pf.final_particles"),
            outage_resets: recorder.counter("pf.outage_resets"),
            recorder: recorder.clone(),
        }
    }
}

/// The model the filter of `config` applies.
fn sir_model(config: &PreprocessorConfig) -> SirModel {
    SirModel {
        motion: config.motion,
        measurement: config.measurement,
        negative_evidence: config.negative_evidence,
        resample_threshold: config.resample_threshold,
        adaptive: config.adaptive,
        num_particles: config.num_particles,
    }
}

/// Where one pass's runs stand.
struct Progress {
    /// The runs no worker has taken yet, longest first.
    queue: std::vec::IntoIter<Run>,
    /// Runs a helper holds.
    held: usize,
    /// Runs helpers finished that the calling thread has not merged.
    finished: Vec<Outcome>,
    /// The tallies of helpers that found the queue empty.
    tallies: Vec<Tally>,
}

/// One pass's runs and everything they read, shared by the calling
/// thread and the helpers that take the pass's tickets.
struct Job {
    world: Arc<FilterWorld>,
    config: PreprocessorConfig,
    pass_seed: u64,
    now: u64,
    options: SupervisionOptions,
    /// Whether tallies keep raw histogram observations.
    observe: bool,
    /// Every run's retained detections, copied from the collector on the
    /// calling thread: a retry replays them from the first.
    detections: Vec<(u64, ReaderId)>,
    progress: Mutex<Progress>,
}

/// A run a helper holds. Should the helper unwind past the run's own
/// isolation, dropping this releases the run, absent from the merge, so
/// the calling thread never waits on it.
struct Held<'j> {
    job: &'j Job,
    released: bool,
}

impl Held<'_> {
    /// Hands `outcome` in and takes the next run, if any.
    fn finish(mut self, outcome: Outcome, tally: &mut Tally) -> Option<Run> {
        self.released = true;
        self.job.hand_in(Some(outcome), tally)
    }
}

impl Drop for Held<'_> {
    fn drop(&mut self) {
        if !self.released {
            let mut progress = lock(&self.job.progress);
            progress.held = progress.held.saturating_sub(1);
        }
    }
}

impl Help for Job {
    fn help(&self, particles: &mut Particles) {
        let sir = self.sir();
        sir.reserve(particles);
        let mut tally = Tally::new(self.observe);
        let mut next = self.hand_in(None, &mut tally);
        while let Some(run) = next {
            let held = Held {
                job: self,
                released: false,
            };
            let outcome = self.run_supervised(&sir, particles, &mut tally, run);
            next = held.finish(outcome, &mut tally);
        }
    }
}

impl Job {
    fn sir(&self) -> Sir<'_> {
        self.world.sir(sir_model(&self.config))
    }

    /// A helper's one critical section per run: hands in the outcome of
    /// the run it held, if any, and takes the next run; when none is
    /// left, it leaves its tally instead, in the same section, so a pass
    /// that sees no run held has every helper's tally.
    fn hand_in(&self, outcome: Option<Outcome>, tally: &mut Tally) -> Option<Run> {
        let mut progress = lock(&self.progress);
        if let Some(outcome) = outcome {
            progress.finished.push(outcome);
            progress.held -= 1;
        }
        let next = progress.queue.next();
        match next {
            Some(_) => progress.held += 1,
            None => progress.tallies.push(std::mem::take(tally)),
        }
        next
    }

    /// The calling thread's turn: swaps the outcomes helpers finished into
    /// the empty `finished`, and takes the next run. Also tells whether a
    /// helper still holds a run.
    fn take_for_caller(&self, finished: &mut Vec<Outcome>) -> (Option<Run>, bool) {
        let mut progress = lock(&self.progress);
        std::mem::swap(&mut progress.finished, finished);
        (progress.queue.next(), progress.held > 0)
    }

    /// Lines 7–36 of Algorithm 2: seed or resume the filter in
    /// `particles`, replay the retained `detections` up to `tmin`, snap to
    /// anchors. All random draws of the object happen here, in a fixed
    /// order independent of other objects. `particles_override` runs the
    /// same filter with fewer particles on the degraded-evaluation path.
    ///
    /// Also returns the entry the object's cache slot holds afterwards: the
    /// cached entry untouched when its cloud is already past `tmin`;
    /// otherwise, when the plan keeps an entry, the filtered cloud, written
    /// into the cached entry's own buffer on a hit.
    #[allow(clippy::too_many_arguments)]
    fn filter_object<R: Rng>(
        &self,
        sir: &Sir<'_>,
        rng: &mut R,
        particles: &mut Particles,
        tally: &mut Tally,
        detections: &[(u64, ReaderId)],
        plan: ObjectPlan,
        particles_override: Option<usize>,
    ) -> (Vec<(AnchorId, f64)>, Option<CacheEntry>) {
        let num_particles = particles_override.unwrap_or(self.config.num_particles);
        let start = match &plan.cached {
            Some(entry) => {
                tally.cache_resumes += 1;
                if tally.observe {
                    let depth = entry.timestamp.saturating_sub(plan.agg_start);
                    tally.resume_depth.push(depth);
                }
                // A reduced-budget resume keeps a deterministic prefix of
                // the cached cloud rather than discarding the prior
                // entirely.
                let cloud: &[IndoorState] = &entry.particles;
                let prefix = particles_override.and_then(|n| cloud.get(..n));
                particles.resume(prefix.unwrap_or(cloud));
                if entry.timestamp > plan.tmin {
                    // Cached states are already past tmin: reuse directly.
                    return (self.finish(particles, tally, 0), plan.cached);
                }
                entry.timestamp + 1
            }
            None => {
                // Fresh start: seed within the second-most-recent device's
                // activation range at the first retained second (line 5).
                let reader = sir.reader(plan.seed_device);
                sir.seed(particles, rng, reader, num_particles);
                plan.agg_start + 1
            }
        };

        // Main loop — lines 7..31. Line 17: the reading of tj, the next
        // retained detection if it falls on tj, else None (silent).
        let mut next = detections.partition_point(|&(s, _)| s < start);
        let mut simulated = 0u64;
        for tj in start..=plan.tmin {
            let reading = match detections.get(next) {
                Some(&(s, reader)) if s == tj => {
                    next += 1;
                    Some(reader)
                }
                _ => None,
            };
            let update = sir.iterate(particles, rng, reading);
            simulated += 1;
            match update {
                Update::Coasted => {}
                Update::Reweighted { ess, resampled } => {
                    if tally.observe {
                        tally.ess.push(ess);
                    }
                    tally.resamples += u64::from(resampled);
                }
                Update::Reset => tally.sensor_resets += 1,
            }
        }

        let entry = plan.caching.then(|| {
            // A hit refills the buffer it resumed from: no allocation.
            let mut states = plan.cached.map(|e| e.particles).unwrap_or_default();
            states.clear();
            states.extend_from_slice(particles.states());
            CacheEntry {
                particles: states,
                timestamp: plan.tmin.max(start.saturating_sub(1)),
                episode: plan.episode_key,
            }
        });
        (self.finish(particles, tally, simulated), entry)
    }

    /// Lines 32–36: snaps each particle to its nearest anchor point,
    /// `p(o at ap) = n/Ns`, smoothed by the configured kernel.
    fn finish(
        &self,
        particles: &mut Particles,
        tally: &mut Tally,
        simulated: u64,
    ) -> Vec<(AnchorId, f64)> {
        tally.objects += 1;
        tally.sir_iterations += simulated;
        if tally.observe {
            tally.final_particles.push(particles.states().len() as u64);
        }
        particles.distribution(self.world.anchors(), self.config.kde_bandwidth)
    }

    /// The weakest answer the readings still support: a uniform
    /// distribution over the anchors inside the object's pruning circle
    /// (§4.3), centered at the last detecting reader with radius
    /// `activation_range + v_max · (now − t_last)`.
    fn fallback_distribution(&self, sir: &Sir<'_>, last: (ReaderId, u64)) -> Vec<(AnchorId, f64)> {
        let (reader, t_last) = last;
        let r = sir.reader(reader);
        let center = r.position();
        // The motion model draws speeds from N(μ, σ²); μ + 3σ bounds the
        // population for the same purpose SystemConfig::max_speed serves
        // in query pruning.
        let v_max = self.config.motion.speed_mean + 3.0 * self.config.motion.speed_std;
        let radius = r.activation_range() + v_max * self.now.saturating_sub(t_last) as f64;
        let anchors = self.world.anchors();
        let inside: Vec<AnchorId> = anchors
            .anchors()
            .iter()
            .filter(|a| a.point.distance(center) <= radius)
            .map(|a| a.id)
            .collect();
        let ids = if inside.is_empty() {
            // Degenerate circle (no anchor inside): the nearest anchor to
            // the reader carries all the mass.
            vec![anchors.nearest(r.graph_pos())]
        } else {
            inside
        };
        let mass = 1.0 / ids.len() as f64;
        ids.into_iter().map(|a| (a, mass)).collect()
    }

    /// One supervised run: the (possibly budget-reduced) filter in the
    /// worker's `particles` under panic isolation with bounded retry,
    /// degrading to the uniform fallback when the filter is persistently
    /// poisoned. The outcome holds the answered distribution, the level it
    /// was produced at, and the entry the object's cache slot holds
    /// afterwards: untouched when nothing ran, none after a panic unless a
    /// retry refilled it.
    fn run_supervised(
        &self,
        sir: &Sir<'_>,
        particles: &mut Particles,
        tally: &mut Tally,
        run: Run,
    ) -> Outcome {
        let Run {
            object,
            plan,
            level,
            detections,
        } = run;
        let last = plan.last_detection;
        if matches!(level, DegradationLevel::UniformFallback) {
            return Outcome {
                object,
                answer: (self.fallback_distribution(sir, last), level),
                entry: plan.cached,
                dropped: false,
            };
        }
        let detections = self.detections.get(detections).unwrap_or_default();
        let particles_override = match level {
            DegradationLevel::ReducedParticles => Some(
                self.config
                    .adaptive
                    .unwrap_or_default()
                    .min_particles
                    .min(self.config.num_particles),
            ),
            _ => None,
        };
        let options = &self.options;
        let fresh = plan.reseeded();
        let mut plan = Some(plan);
        let mut dropped = false;
        for attempt in 0..=RETRY_LIMIT {
            let p = plan.take().unwrap_or_else(|| {
                // A retry plans the same window again, as the first
                // attempt's planning did.
                tally.cutoff(fresh.tmin, self.now);
                fresh.reseeded()
            });
            let resume = p.resume_timestamp;
            let carried = p.cached.is_some();
            let result = catch_unwind(AssertUnwindSafe(|| {
                if options.panic_object == Some(object) && attempt < options.panic_attempts {
                    // ripq-lint: allow(no-panic-paths) -- deliberate fault injection: the panic is the supervision test fixture, caught by this catch_unwind
                    panic!("injected particle-filter fault (attempt {attempt})");
                }
                let seed = derive_stream_seed(self.pass_seed, object, resume);
                let mut rng = StdRng::seed_from_u64(seed);
                let override_ = particles_override;
                self.filter_object(sir, &mut rng, particles, tally, detections, p, override_)
            }));
            if let Ok((out, entry)) = result {
                return Outcome {
                    object,
                    answer: (out, level),
                    entry,
                    dropped,
                };
            }
            tally.panics += 1;
            // The cached entry unwound with the panicking attempt, so its
            // half-updated states never reach a later pass.
            dropped |= carried;
            if attempt < RETRY_LIMIT {
                tally.retries += 1;
            } else {
                tally.quarantined += 1;
            }
        }
        Outcome {
            object,
            answer: (
                self.fallback_distribution(sir, last),
                DegradationLevel::Quarantined,
            ),
            entry: None,
            dropped,
        }
    }
}

/// The merge of one pass's outcomes into the caller's cache and
/// `APtoObjHT`, one outcome at a time as runs finish. Every step commutes:
/// each outcome touches only its own object's cache slot and index rows,
/// rows stay sorted by object, the cache is an ordered map and the
/// statistics are sums, so any completion order leaves the same index,
/// cache, statistics and levels.
struct Merge<'a> {
    cache: Option<&'a mut ParticleCache>,
    index: &'a mut AnchorObjectIndex<ObjectId>,
    stats: IndexDeltaStats,
    degradation: BTreeMap<ObjectId, DegradationLevel>,
    /// Objects answered so far; sorted before the retraction.
    answered: Vec<ObjectId>,
}

impl<'a> Merge<'a> {
    fn new(
        cache: Option<&'a mut ParticleCache>,
        index: &'a mut AnchorObjectIndex<ObjectId>,
        runs: usize,
    ) -> Self {
        Merge {
            cache,
            index,
            stats: IndexDeltaStats::default(),
            degradation: BTreeMap::new(),
            answered: Vec::with_capacity(runs),
        }
    }

    /// Puts the object's cache entry back and applies its answer as a
    /// delta ([`AnchorObjectIndex::apply_object`]).
    fn apply(&mut self, outcome: Outcome) {
        let Outcome {
            object,
            answer: (distribution, level),
            entry,
            dropped,
        } = outcome;
        if let Some(cache) = self.cache.as_deref_mut() {
            cache.put_back(object, entry, dropped);
        }
        match self.index.apply_object(object, distribution) {
            DeltaOutcome::Inserted | DeltaOutcome::Updated => self.stats.applied += 1,
            DeltaOutcome::Unchanged => self.stats.unchanged += 1,
        }
        self.degradation.insert(object, level);
        self.answered.push(object);
    }

    /// Retracts the objects that fell out of the answered set (pruned
    /// away, vanished, never seen this pass).
    fn finish(mut self) -> (BTreeMap<ObjectId, DegradationLevel>, IndexDeltaStats) {
        self.answered.sort_unstable();
        let answered = &self.answered;
        self.stats.retracted = self
            .index
            .retain_objects(|o| answered.binary_search(o).is_ok());
        (self.degradation, self.stats)
    }
}

/// Algorithm 2 runner over a shared [`FilterWorld`].
pub struct ParticlePreprocessor {
    world: Arc<FilterWorld>,
    config: PreprocessorConfig,
    metrics: PfMetrics,
}

impl ParticlePreprocessor {
    /// Creates a preprocessor over a fixed graph / anchor set / reader
    /// deployment. Every pass and every helper it fans out to shares
    /// `world`.
    pub fn new(world: Arc<FilterWorld>, config: PreprocessorConfig) -> Self {
        ParticlePreprocessor {
            world,
            config,
            metrics: PfMetrics::default(),
        }
    }

    /// Records `pf.*` counters and histograms (and `degrade.*` ones when
    /// they happen) through `metrics` from now on; the pass's calling
    /// thread records each worker's tally once the pass is over.
    pub fn with_metrics(mut self, metrics: &PfMetrics) -> Self {
        self.metrics = metrics.clone();
        self
    }

    /// The configuration in use.
    pub fn config(&self) -> &PreprocessorConfig {
        &self.config
    }

    /// Lines 1–6 of Algorithm 2 plus the cache lookup (§4.5): everything
    /// that happens before the first random draw. A hit takes the entry
    /// out of `cache` into the plan. Returns the plan with the object's
    /// retained detections; `None` when the collector has never seen the
    /// object.
    fn plan_object<'c>(
        &self,
        collector: &'c DataCollector,
        object: ObjectId,
        now: u64,
        cache: Option<&mut ParticleCache>,
    ) -> Option<(ObjectPlan, &'c [(u64, ReaderId)])> {
        let detections = collector.detections(object);
        let &(agg_start, _) = detections.first()?;
        let last_detection = collector.last_detection(object)?;
        let (di, _) = collector.last_two_devices(object)?;
        let (ep_reader, ep_first, _) = collector.last_episode(object)?;
        let episode_key = (ep_reader, ep_first);

        // `tmin = min(td + 60, tcurrent)` — line 6.
        let tmin = (last_detection.1 + self.config.coast_seconds).min(now);
        if tmin < now {
            self.metrics.cutoff_hits.inc();
            self.metrics.cutoff_seconds_skipped.add(now - tmin);
        }

        let caching = cache.is_some();
        let cached = match cache.map(|c| c.take(object, episode_key)) {
            Some(Ok(entry)) => Some(entry),
            // Classify the invalidation: the same reader starting a new
            // episode means the stream went dark past the gap tolerance
            // (outage-style), not that the object moved to a new device.
            Some(Err(Some(stale))) if stale.0 == ep_reader => {
                self.metrics.outage_resets.inc();
                None
            }
            _ => None,
        };
        let resume_timestamp = cached.as_ref().map_or(agg_start, |e| e.timestamp);
        let plan = ObjectPlan {
            episode_key,
            tmin,
            seed_device: di,
            agg_start,
            last_detection,
            cached,
            caching,
            resume_timestamp,
            work_seconds: tmin.saturating_sub(resume_timestamp),
        };
        Some((plan, detections))
    }

    /// Runs Algorithm 2 for every candidate — the one preprocessing pass —
    /// and applies the answers to the caller-owned `APtoObjHT` `index`.
    ///
    /// Each object draws from its own RNG stream, derived from
    /// `(pass_seed, object, resume timestamp)` by [`derive_stream_seed`],
    /// so the answers do not depend on the candidate order or on the
    /// worker count. `candidates` must be distinct: a pass takes each
    /// object's cache entry once. The pass runs in three phases:
    ///
    /// 1. **Plan** (sequential, candidate order): lines 1–6 of Algorithm 2
    ///    plus the cache lookup for every candidate, which takes a hit's
    ///    entry out of `cache` into the object's plan. Every metric update
    ///    commutes, so planning everything up front changes no total. Each
    ///    plan knows the seconds its filter simulates, `tmin` − resume
    ///    second, and the object's retained detections are copied beside
    ///    it, so no helper reads the collector.
    /// 2. **Budget** (sequential, candidate order): each object's filter
    ///    costs its simulated seconds (at least one) × particle count — a
    ///    logical-clock model, so the ladder decisions are reproducible.
    ///    Objects run full-size while [`SupervisionOptions::budget`]
    ///    lasts, then at the KLD floor, then degrade to the uniform
    ///    pruning-circle fallback.
    /// 3. **Filter and merge**: the runs queue longest first (ties in
    ///    candidate order). A pass of more than one run publishes them to
    ///    the process's helper pool, to at most `workers − 1` helpers;
    ///    `Some(n)` caps `workers` at `n`, `None` at every core, and no
    ///    pass takes more than one worker per run. The calling thread
    ///    filters beside the helpers and never waits for one to start; it
    ///    waits only for runs a helper already holds. Once no run is left,
    ///    it takes back the tickets no helper took and waits for the
    ///    helpers that took one to let go of the pass, so no helper works
    ///    on the pass, or frees it, after the call returns. Each object runs
    ///    under `catch_unwind` isolation with bounded retry; a
    ///    persistently panicking object is quarantined with a fallback
    ///    answer instead of aborting the pass. As each run finishes, the
    ///    calling thread puts its entry back into `cache` and applies its
    ///    answer as a delta; objects that left the answered set are
    ///    retracted last. Workers count into private tallies, which the
    ///    calling thread records once the pass is over.
    ///
    /// The index is maintained *incrementally*: answered objects are
    /// applied as deltas ([`AnchorObjectIndex::apply_object`]), a
    /// bit-identical stored distribution costs no structural work, and
    /// objects that fell out are retracted. Per-anchor lists stay sorted
    /// by object key, so the index after any delta sequence equals a
    /// rebuild of the same answer set on an empty index, whatever order
    /// the runs finished in.
    ///
    /// Returns the degradation level of every answered object (objects the
    /// collector has never seen are absent, as they are from the index)
    /// plus the [`IndexDeltaStats`] of this pass (the `index.delta_*`
    /// observability family).
    #[allow(clippy::too_many_arguments)]
    pub fn process(
        &self,
        pass_seed: u64,
        collector: &DataCollector,
        candidates: &[ObjectId],
        now: u64,
        mut cache: Option<&mut ParticleCache>,
        parallelism: Option<usize>,
        options: &SupervisionOptions,
        index: &mut AnchorObjectIndex<ObjectId>,
    ) -> (BTreeMap<ObjectId, DegradationLevel>, IndexDeltaStats) {
        // Phase 1: plan.
        let planned: Vec<_> = candidates
            .iter()
            .filter_map(|&o| {
                self.plan_object(collector, o, now, cache.as_deref_mut())
                    .map(|(plan, detections)| (o, plan, detections))
            })
            .collect();

        // Phase 2: budget ladder, and the readings each run replays.
        let mut remaining = options.budget;
        let reduced_count = self
            .config
            .adaptive
            .unwrap_or_default()
            .min_particles
            .min(self.config.num_particles) as u64;
        let copied = planned.iter().map(|(_, _, d)| d.len()).sum();
        let mut detections = Vec::with_capacity(copied);
        let mut runs: Vec<Run> = planned
            .into_iter()
            .map(|(object, plan, readings)| {
                let level = match remaining.as_mut() {
                    None => DegradationLevel::Full,
                    Some(rem) => {
                        let secs = plan.work_seconds.max(1);
                        let cost_full = secs.saturating_mul(self.config.num_particles as u64);
                        let cost_reduced = secs.saturating_mul(reduced_count);
                        if *rem >= cost_full {
                            *rem -= cost_full;
                            DegradationLevel::Full
                        } else if *rem >= cost_reduced {
                            *rem -= cost_reduced;
                            self.metrics.recorder.add("degrade.reduced", 1);
                            DegradationLevel::ReducedParticles
                        } else {
                            *rem = rem.saturating_sub(1);
                            self.metrics.recorder.add("degrade.fallback", 1);
                            self.metrics.recorder.add("degrade.budget_exhausted", 1);
                            DegradationLevel::UniformFallback
                        }
                    }
                };
                let from = detections.len();
                detections.extend_from_slice(readings);
                Run {
                    object,
                    plan,
                    level,
                    detections: from..detections.len(),
                }
            })
            .collect();

        // Phase 3: filter, longest first, on the calling thread and the
        // helpers, merging each run as it finishes. The sort is stable, so
        // equal runs keep candidate order.
        runs.sort_by_key(|run| Reverse(run.plan.work_seconds));
        let workers = pass_workers(parallelism, runs.len(), available_cores);
        let mut merge = Merge::new(cache, index, runs.len());
        let observe = self.metrics.recorder.is_enabled();
        let job = Arc::new(Job {
            world: Arc::clone(&self.world),
            config: self.config,
            pass_seed,
            now,
            options: *options,
            observe,
            detections,
            progress: Mutex::new(Progress {
                queue: runs.into_iter(),
                held: 0,
                finished: Vec::new(),
                tallies: Vec::new(),
            }),
        });
        let help: Option<Arc<dyn Help>> = (workers > 1).then(|| {
            let help: Arc<dyn Help> = job.clone();
            Pool::get().publish(&help, workers - 1);
            help
        });
        let sir = job.sir();
        let mut particles = sir.particles();
        let mut tally = Tally::new(observe);
        let mut finished = Vec::new();
        loop {
            let (run, helpers_busy) = job.take_for_caller(&mut finished);
            for outcome in finished.drain(..) {
                merge.apply(outcome);
            }
            match run {
                Some(run) => merge.apply(job.run_supervised(&sir, &mut particles, &mut tally, run)),
                // A helper still filters a run of this pass: wait for it
                // without sleeping.
                None if helpers_busy => std::thread::yield_now(),
                None => break,
            }
        }
        // The pass ends here for the helpers too: tickets no helper took
        // are taken back, and the calling thread waits for the helpers
        // that took one to let go, so none of them touches the job, or
        // frees it, after the call returns.
        if let Some(help) = help {
            Pool::get().retract(&help);
        }
        let progress = (reclaim(job).progress)
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner);
        tally.record(&self.metrics);
        for helper in &progress.tallies {
            helper.record(&self.metrics);
        }
        merge.finish()
    }
}

/// Waits, without sleeping, until `job` has no holder but the calling
/// thread, and takes it. Once the job's queue is empty and its ticket
/// taken back, a helper holding it is at most one critical section from
/// letting go.
fn reclaim(mut job: Arc<Job>) -> Job {
    loop {
        match Arc::try_unwrap(job) {
            Ok(job) => return job,
            Err(shared) => {
                job = shared;
                std::thread::yield_now();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ripq_floorplan::{office_building, OfficeParams};
    use ripq_graph::{build_walking_graph, AnchorSet};
    use ripq_obs::MetricsSnapshot;
    use ripq_persist::ByteWriter;
    use ripq_rfid::deploy_uniform;

    type World = Arc<FilterWorld>;

    fn world() -> World {
        let plan = office_building(&OfficeParams::default()).unwrap();
        let graph = build_walking_graph(&plan);
        let anchors = AnchorSet::generate(&graph, &plan, 1.0);
        let readers = deploy_uniform(&plan, &graph, 19, 2.0);
        Arc::new(FilterWorld::new(graph, anchors, readers))
    }

    const O: ObjectId = ObjectId::new(0);

    fn preprocessor(w: &World) -> ParticlePreprocessor {
        ParticlePreprocessor::new(Arc::clone(w), PreprocessorConfig::default())
    }

    /// A preprocessor recording into a fresh enabled recorder.
    fn observed(w: &World, config: PreprocessorConfig) -> (ParticlePreprocessor, Recorder) {
        let recorder = Recorder::enabled();
        let pre = ParticlePreprocessor::new(Arc::clone(w), config)
            .with_metrics(&PfMetrics::new(&recorder));
        (pre, recorder)
    }

    /// Runs one pass into an empty index; returns it with the levels.
    #[allow(clippy::too_many_arguments)]
    fn fresh(
        pre: &ParticlePreprocessor,
        pass_seed: u64,
        c: &DataCollector,
        candidates: &[ObjectId],
        now: u64,
        cache: Option<&mut ParticleCache>,
        parallelism: Option<usize>,
        options: &SupervisionOptions,
    ) -> (
        AnchorObjectIndex<ObjectId>,
        BTreeMap<ObjectId, DegradationLevel>,
    ) {
        let mut index = AnchorObjectIndex::new();
        let (levels, _) = pre.process(
            pass_seed,
            c,
            candidates,
            now,
            cache,
            parallelism,
            options,
            &mut index,
        );
        (index, levels)
    }

    /// [`fresh`] with no forced worker count and default supervision.
    fn pass(
        pre: &ParticlePreprocessor,
        pass_seed: u64,
        c: &DataCollector,
        candidates: &[ObjectId],
        now: u64,
        cache: Option<&mut ParticleCache>,
    ) -> AnchorObjectIndex<ObjectId> {
        let opts = SupervisionOptions::default();
        fresh(pre, pass_seed, c, candidates, now, cache, None, &opts).0
    }

    /// The cache's canonical snapshot bytes: its entries, then its stats.
    fn cache_bytes(cache: &ParticleCache) -> Vec<u8> {
        let mut w = ByteWriter::new();
        cache.encode_state(&mut w);
        w.into_bytes()
    }

    fn counter(snap: &MetricsSnapshot, name: &str) -> u64 {
        snap.counters.get(name).copied().unwrap_or(0)
    }

    fn distribution_total(index: &AnchorObjectIndex<ObjectId>, o: ObjectId) -> f64 {
        let dist = index.distribution(&o).expect("object answered");
        dist.iter().map(|(_, p)| p).sum()
    }

    /// Feeds the collector a synthetic walk past two adjacent readers on
    /// the same hallway, left to right.
    fn feed_two_reader_walk(w: &World, c: &mut DataCollector) -> (ReaderId, ReaderId, u64) {
        // Two readers on hallway 0 (same y), adjacent in deployment order.
        let (r1, r2) = {
            let mut found = None;
            for pair in w.readers().windows(2) {
                if (pair[0].position().y - pair[1].position().y).abs() < 1e-9 {
                    found = Some((pair[0], pair[1]));
                    break;
                }
            }
            found.expect("adjacent same-hallway readers exist")
        };
        let gap = r1.position().distance(r2.position());
        // Walk at 1 m/s from r1 to r2: in r1's range seconds 0..4,
        // silent while between, in r2's range near the end.
        let mut t = 0u64;
        let total_seconds = gap.ceil() as u64 + 4;
        for s in 0..=total_seconds {
            let x = r1.position().x - 2.0 + s as f64; // enters r1 range at t=0
            let p = ripq_geom::Point2::new(x, r1.position().y);
            if r1.covers(p) {
                c.ingest_second(s, &[(O, r1.id())]);
            } else if r2.covers(p) {
                c.ingest_second(s, &[(O, r2.id())]);
            } else {
                c.ingest_second(s, &[]);
            }
            t = s;
        }
        (r1.id(), r2.id(), t)
    }

    #[test]
    fn distribution_sums_to_one() {
        let w = world();
        let mut c = DataCollector::new();
        let (_, _, now) = feed_two_reader_walk(&w, &mut c);
        let (pre, recorder) = observed(&w, PreprocessorConfig::default());
        let index = pass(&pre, 20, &c, &[O], now, None);
        let total = distribution_total(&index, O);
        assert!((total - 1.0).abs() < 1e-9, "total {total}");
        let snap = recorder.snapshot();
        assert_eq!(counter(&snap, "pf.cache_resumes"), 0);
        let kept = &snap.histograms["pf.final_particles"];
        assert_eq!((kept.count, kept.min, kept.max), (1, 64, 64));
    }

    #[test]
    fn filter_learns_direction_after_two_readers() {
        // The Fig. 1 scenario: after d2 then d3 readings, mass should be
        // ahead of (or at) the second reader, not behind the first.
        let w = world();
        let mut c = DataCollector::new();
        let (r1, r2, now) = feed_two_reader_walk(&w, &mut c);
        let pre = preprocessor(&w);
        let index = pass(&pre, 21, &c, &[O], now, None);
        let p1 = w.readers()[r1.index()].position();
        let p2 = w.readers()[r2.index()].position();
        // Probability mass closer to r2 than to r1:
        let mut near_r2 = 0.0;
        for &(a, p) in index.distribution(&O).unwrap() {
            let pt = w.anchors().anchor(a).point;
            if pt.distance(p2) < pt.distance(p1) {
                near_r2 += p;
            }
        }
        assert!(
            near_r2 > 0.7,
            "mass near the most recent reader should dominate, got {near_r2}"
        );
    }

    #[test]
    fn coast_cutoff_limits_simulation() {
        let w = world();
        let mut c = DataCollector::new();
        // One short detection, then a very long silence.
        let r0 = w.readers()[0].id();
        c.ingest_second(0, &[(O, r0)]);
        for s in 1..=500 {
            c.ingest_second(s, &[]);
        }
        let (pre, recorder) = observed(&w, PreprocessorConfig::default());
        let mut cache = ParticleCache::new();
        // td = 0, coast = 60 → 60 simulated seconds. The budget charges
        // those alone: 60 × 64 = 3,840 units fit in 4,000, where the 500
        // seconds since the detection would cost 32,000.
        let opts = SupervisionOptions {
            budget: Some(4_000),
            ..Default::default()
        };
        let (_, levels) = fresh(&pre, 22, &c, &[O], 500, Some(&mut cache), None, &opts);
        assert_eq!(levels.get(&O), Some(&DegradationLevel::Full));
        let snap = recorder.snapshot();
        assert_eq!(counter(&snap, "pf.sir_iterations"), 60);
        assert_eq!(counter(&snap, "pf.coast_cutoff_hits"), 1);
        assert_eq!(counter(&snap, "pf.coast_seconds_skipped"), 440);
        // The cached states sit at the cutoff second.
        let entry = cache.entry(O).expect("states cached");
        assert_eq!((entry.timestamp, entry.episode), (60, (r0, 0)));
    }

    #[test]
    fn cache_resume_skips_earlier_seconds() {
        let w = world();
        let mut c = DataCollector::new();
        let (_, _, now) = feed_two_reader_walk(&w, &mut c);
        let (pre, recorder) = observed(&w, PreprocessorConfig::default());
        let mut cache = ParticleCache::new();
        pass(&pre, 23, &c, &[O], now, Some(&mut cache));
        let first = recorder.snapshot();
        assert_eq!(counter(&first, "pf.cache_resumes"), 0);
        let buffer = cache.entry(O).expect("cached").particles.as_ptr();
        // Advance the world a little with no new readings.
        let later = now + 5;
        for s in now + 1..=later {
            c.ingest_second(s, &[]);
        }
        pass(&pre, 24, &c, &[O], later, Some(&mut cache));
        let second = recorder.snapshot();
        assert_eq!(counter(&second, "pf.cache_resumes"), 1);
        let simulated =
            counter(&second, "pf.sir_iterations") - counter(&first, "pf.sir_iterations");
        assert!(
            simulated <= 5,
            "resume should only simulate the delta, got {simulated}"
        );
        assert_eq!(cache.stats().hits, 1);
        // The hit refilled the cached buffer instead of allocating one.
        let entry = cache.entry(O).expect("cached");
        assert_eq!(entry.timestamp, later);
        assert_eq!(entry.particles.as_ptr(), buffer);
    }

    #[test]
    fn entries_the_pass_does_not_refilter_come_back_unchanged() {
        let w = world();
        let mut c = DataCollector::new();
        let (_, _, now) = feed_two_reader_walk(&w, &mut c);
        let pre = preprocessor(&w);
        let mut cache = ParticleCache::new();
        pass(&pre, 40, &c, &[O], now, Some(&mut cache));
        let entry_bytes = |cache: &ParticleCache| {
            let mut bytes = cache_bytes(cache);
            // Drop the hit/miss/invalidation counters.
            bytes.truncate(bytes.len() - 24);
            bytes
        };
        let stored = entry_bytes(&cache);
        // The cloud sits at `now`; a pass at `now − 1` finds it past tmin.
        // A pass costs at least 64 units at full size and 16 reduced.
        let cases = [
            (now, Some(0), DegradationLevel::UniformFallback),
            (now - 1, None, DegradationLevel::Full),
            // Resumes from a 16-particle prefix of the cloud.
            (now - 1, Some(32), DegradationLevel::ReducedParticles),
        ];
        for (at, budget, level) in cases {
            let opts = SupervisionOptions {
                budget,
                ..Default::default()
            };
            let (_, levels) = fresh(&pre, 41, &c, &[O], at, Some(&mut cache), None, &opts);
            assert_eq!(levels.get(&O), Some(&level));
            assert_eq!(entry_bytes(&cache), stored, "{level} at second {at}");
        }
        assert_eq!(cache.stats().hits, 3);
    }

    #[test]
    fn cache_invalidated_by_new_device() {
        let w = world();
        let mut c = DataCollector::new();
        let (_, _, now) = feed_two_reader_walk(&w, &mut c);
        let (pre, recorder) = observed(&w, PreprocessorConfig::default());
        let mut cache = ParticleCache::new();
        pass(&pre, 24, &c, &[O], now, Some(&mut cache));
        // A brand-new reader episode starts.
        let other = w.readers()[10].id();
        c.ingest_second(now + 1, &[(O, other)]);
        pass(&pre, 25, &c, &[O], now + 1, Some(&mut cache));
        assert_eq!(
            counter(&recorder.snapshot(), "pf.cache_resumes"),
            0,
            "new device must invalidate"
        );
        assert_eq!(cache.stats().invalidations, 1);
    }

    #[test]
    fn cache_invalidated_when_new_device_detects_mid_resume() {
        // The §4.5 contract under a device handoff that happens *between*
        // cache resumes: fill the cache, resume it once (hit), then let a
        // brand-new device detect the object — the next pass must discard
        // the cached particles instead of resuming them.
        let w = world();
        let mut c = DataCollector::new();
        let (_, _, now) = feed_two_reader_walk(&w, &mut c);
        let (pre, recorder) = observed(&w, PreprocessorConfig::default());
        let mut cache = ParticleCache::new();
        let resumes = || counter(&recorder.snapshot(), "pf.cache_resumes");

        pass(&pre, 11, &c, &[O], now, Some(&mut cache));
        assert_eq!(resumes(), 0);

        // Mid-stream resume: silent seconds, same episode → cache hit.
        for s in now + 1..=now + 4 {
            c.ingest_second(s, &[]);
        }
        pass(&pre, 12, &c, &[O], now + 4, Some(&mut cache));
        assert_eq!(resumes(), 1);

        // A new device detects the object before the next resume.
        let other = w.readers()[10].id();
        c.ingest_second(now + 5, &[(O, other)]);
        pass(&pre, 13, &c, &[O], now + 5, Some(&mut cache));
        assert_eq!(resumes(), 1, "new device must invalidate");
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.stats().invalidations, 1);
        // A handoff to a *different* device is not an outage reset.
        let counters = recorder.snapshot().counters;
        assert_eq!(counters.get("pf.outage_resets"), Some(&0));
    }

    #[test]
    fn same_device_episode_split_counts_as_outage_reset() {
        let w = world();
        let mut c = DataCollector::new();
        let r = w.readers()[2].id();
        for s in 0..3u64 {
            c.ingest_second(s, &[(O, r)]);
        }
        let (pre, recorder) = observed(&w, PreprocessorConfig::default());
        let mut cache = ParticleCache::new();
        pass(&pre, 21, &c, &[O], 3, Some(&mut cache));

        // Dark stream past the gap tolerance, then the *same* reader
        // re-detects: a new episode of the same device.
        for s in 3..=9u64 {
            c.ingest_second(s, &[]);
        }
        c.ingest_second(10, &[(O, r)]);
        pass(&pre, 22, &c, &[O], 10, Some(&mut cache));
        let counters = recorder.snapshot().counters;
        assert_eq!(
            counters.get("pf.cache_resumes"),
            Some(&0),
            "episode split must invalidate"
        );
        assert_eq!(counters.get("pf.outage_resets"), Some(&1));
        assert_eq!(cache.stats().invalidations, 1);
    }

    #[test]
    fn unknown_object_yields_no_answer() {
        let w = world();
        let c = DataCollector::new();
        let pre = preprocessor(&w);
        let opts = SupervisionOptions::default();
        let (index, levels) = fresh(&pre, 7, &c, &[ObjectId::new(42)], 10, None, None, &opts);
        assert_eq!(index.object_count(), 0);
        assert!(levels.is_empty());
    }

    #[test]
    fn process_builds_index_for_all_candidates() {
        let w = world();
        let mut c = DataCollector::new();
        let o2 = ObjectId::new(7);
        c.ingest_second(0, &[(O, w.readers()[0].id()), (o2, w.readers()[5].id())]);
        c.ingest_second(1, &[(O, w.readers()[0].id()), (o2, w.readers()[5].id())]);
        let pre = preprocessor(&w);
        let index = pass(&pre, 26, &c, &[O, o2, ObjectId::new(99)], 5, None);
        assert_eq!(index.object_count(), 2, "unknown candidate skipped");
        assert!((index.total_probability(&O) - 1.0).abs() < 1e-9);
        assert!((index.total_probability(&o2) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn single_reading_object_still_processable() {
        // Only one device has ever seen the object — Algorithm 2 "still
        // runs, although one device's readings alone can hardly determine
        // the object's moving direction".
        let w = world();
        let mut c = DataCollector::new();
        c.ingest_second(0, &[(O, w.readers()[3].id())]);
        let pre = preprocessor(&w);
        let index = pass(&pre, 27, &c, &[O], 3, None);
        let total = distribution_total(&index, O);
        assert!((total - 1.0).abs() < 1e-9);
        // Mass is spread around reader 3 within ~3 s of walking.
        let rp = w.readers()[3].position();
        for &(a, _) in index.distribution(&O).unwrap() {
            let d = w.anchors().anchor(a).point.distance(rp);
            assert!(d < 2.0 + 3.0 * 1.5 + 3.0, "anchor too far: {d}");
        }
    }

    #[test]
    fn adaptive_particles_shrink_when_confined() {
        // A freshly observed object is confined to one activation range
        // (few anchor bins): KLD-sampling drops the particle count toward
        // the minimum, while the fixed-size filter keeps 64.
        let w = world();
        let mut c = DataCollector::new();
        for s in 0..6u64 {
            c.ingest_second(s, &[(O, w.readers()[4].id())]);
        }
        let cfg = PreprocessorConfig {
            adaptive: Some(crate::KldConfig::default()),
            ..Default::default()
        };
        let (pre, recorder) = observed(&w, cfg);
        let index = pass(&pre, 30, &c, &[O], 6, None);
        let kept = recorder.snapshot().histograms["pf.final_particles"].max;
        assert!(kept < 64, "confined cloud should shrink, kept {kept}");
        let total = distribution_total(&index, O);
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn deterministic_given_seed() {
        let w = world();
        let mut c = DataCollector::new();
        let (_, _, now) = feed_two_reader_walk(&w, &mut c);
        let pre = preprocessor(&w);
        let out1 = pass(&pre, 42, &c, &[O], now, None);
        let out2 = pass(&pre, 42, &c, &[O], now, None);
        assert_eq!(out1.distribution(&O), out2.distribution(&O));
    }

    #[test]
    fn stream_seeds_separate_objects_passes_and_resume_points() {
        let o1 = ObjectId::new(1);
        let o2 = ObjectId::new(2);
        assert_eq!(derive_stream_seed(5, o1, 10), derive_stream_seed(5, o1, 10));
        assert_ne!(derive_stream_seed(5, o1, 10), derive_stream_seed(5, o2, 10));
        assert_ne!(derive_stream_seed(5, o1, 10), derive_stream_seed(6, o1, 10));
        assert_ne!(derive_stream_seed(5, o1, 10), derive_stream_seed(5, o1, 11));
    }

    #[test]
    fn result_is_independent_of_candidate_order() {
        let w = world();
        let mut c = DataCollector::new();
        let o2 = ObjectId::new(7);
        for s in 0..4u64 {
            c.ingest_second(s, &[(O, w.readers()[0].id()), (o2, w.readers()[5].id())]);
        }
        let pre = preprocessor(&w);
        let fwd = pass(&pre, 99, &c, &[O, o2], 6, None);
        let rev = pass(&pre, 99, &c, &[o2, O], 6, None);
        assert_eq!(fwd.distribution(&O), rev.distribution(&O));
        assert_eq!(fwd.distribution(&o2), rev.distribution(&o2));
    }

    /// A collector with `n` objects walking past distinct readers.
    fn populated_collector(w: &World, n: u32) -> DataCollector {
        let mut c = DataCollector::new();
        for s in 0..6u64 {
            let det: Vec<_> = (0..n)
                .map(|i| {
                    (
                        ObjectId::new(i),
                        w.readers()[i as usize % w.readers().len()].id(),
                    )
                })
                .collect();
            c.ingest_second(s, &det);
        }
        c
    }

    #[test]
    fn default_supervision_answers_every_object_in_full() {
        let w = world();
        let c = populated_collector(&w, 10);
        let objects: Vec<ObjectId> = (0..10u32).map(ObjectId::new).collect();
        let pre = preprocessor(&w);
        let opts = SupervisionOptions::default();
        let mut a_cache = ParticleCache::new();
        let (a, _) = fresh(&pre, 77, &c, &objects, 8, Some(&mut a_cache), None, &opts);
        let mut b_cache = ParticleCache::new();
        let (b, levels) = fresh(
            &pre,
            77,
            &c,
            &objects,
            8,
            Some(&mut b_cache),
            Some(2),
            &opts,
        );
        for o in &objects {
            assert_eq!(a.distribution(o), b.distribution(o));
            assert_eq!(levels.get(o), Some(&DegradationLevel::Full));
        }
        assert_eq!(a_cache.stats(), b_cache.stats());
    }

    #[test]
    fn incremental_index_pass_equals_fresh_rebuild() {
        let w = world();
        let c = populated_collector(&w, 5);
        let objects: Vec<ObjectId> = (0..5u32).map(ObjectId::new).collect();
        let pre = preprocessor(&w);
        let opts = SupervisionOptions::default();

        // Pass 1 on an empty live index: everything is an insert.
        let mut live = AnchorObjectIndex::new();
        let (_, s1) = pre.process(31, &c, &objects, 8, None, None, &opts, &mut live);
        assert_eq!(s1.applied, 5);
        assert_eq!(s1.retracted, 0);
        let fresh1 = pass(&pre, 31, &c, &objects, 8, None);
        assert_eq!(live, fresh1, "first pass equals a rebuild");

        // Pass 2 with a shrunk candidate set and a different seed: the two
        // dropped objects are retracted, the rest are updated in place —
        // and the maintained index still equals the fresh build.
        let keep = &objects[..3];
        let (_, s2) = pre.process(32, &c, keep, 9, None, None, &opts, &mut live);
        assert_eq!(s2.retracted, 2);
        assert_eq!(s2.applied + s2.unchanged, 3);
        let fresh2 = pass(&pre, 32, &c, keep, 9, None);
        assert_eq!(live, fresh2, "incremental pass equals a rebuild");

        // Replaying the identical pass is all no-ops.
        let (_, s3) = pre.process(32, &c, keep, 9, None, None, &opts, &mut live);
        assert_eq!(s3.unchanged, 3);
        assert_eq!(s3.applied, 0);
        assert_eq!(s3.retracted, 0);
        assert_eq!(live, fresh2);
    }

    #[test]
    fn panicking_object_is_retried_then_recovers() {
        let w = world();
        let c = populated_collector(&w, 4);
        let objects: Vec<ObjectId> = (0..4u32).map(ObjectId::new).collect();
        let (pre, recorder) = observed(&w, PreprocessorConfig::default());
        let victim = ObjectId::new(2);
        let opts = SupervisionOptions {
            panic_object: Some(victim),
            panic_attempts: 1,
            ..Default::default()
        };
        let (index, levels) = fresh(&pre, 5, &c, &objects, 8, None, None, &opts);
        // One panic, one successful retry: the object still gets a full
        // answer and nobody else is affected.
        assert_eq!(levels.get(&victim), Some(&DegradationLevel::Full));
        assert_eq!(index.object_count(), 4);
        let counters = recorder.snapshot().counters;
        assert_eq!(counters.get("degrade.pf_panics"), Some(&1));
        assert_eq!(counters.get("degrade.retries"), Some(&1));
        assert_eq!(counters.get("degrade.quarantined"), None);
    }

    #[test]
    fn persistently_panicking_object_is_quarantined_with_fallback() {
        let w = world();
        let c = populated_collector(&w, 4);
        let objects: Vec<ObjectId> = (0..4u32).map(ObjectId::new).collect();
        let (pre, recorder) = observed(&w, PreprocessorConfig::default());
        let victim = ObjectId::new(1);
        let opts = SupervisionOptions {
            panic_object: Some(victim),
            panic_attempts: usize::MAX,
            ..Default::default()
        };
        for workers in [1usize, 3] {
            let mut cache = ParticleCache::new();
            let (index, levels) = fresh(
                &pre,
                6,
                &c,
                &objects,
                8,
                Some(&mut cache),
                Some(workers),
                &opts,
            );
            assert_eq!(
                levels.get(&victim),
                Some(&DegradationLevel::Quarantined),
                "at {workers} workers"
            );
            // The quarantined answer is still a proper distribution...
            let total: f64 = index.total_probability(&victim);
            assert!((total - 1.0).abs() < 1e-9, "total {total}");
            // ...and the healthy objects got full answers.
            for o in objects.iter().filter(|&&o| o != victim) {
                assert_eq!(levels.get(o), Some(&DegradationLevel::Full));
            }
        }
        let counters = recorder.snapshot().counters;
        assert_eq!(counters.get("degrade.quarantined"), Some(&2));
    }

    #[test]
    fn a_panicking_run_drops_the_entry_it_resumed() {
        let w = world();
        let c = populated_collector(&w, 4);
        let objects: Vec<ObjectId> = (0..4u32).map(ObjectId::new).collect();
        let pre = preprocessor(&w);
        let victim = ObjectId::new(2);
        let clean = SupervisionOptions::default();
        // A retry reseeds, so it stores what a cold cache would.
        let mut cold = ParticleCache::new();
        fresh(&pre, 6, &c, &objects, 9, Some(&mut cold), None, &clean);
        for (panic_attempts, kept) in [(usize::MAX, false), (1, true)] {
            let mut cache = ParticleCache::new();
            fresh(&pre, 5, &c, &objects, 8, Some(&mut cache), None, &clean);
            let opts = SupervisionOptions {
                panic_object: Some(victim),
                panic_attempts,
                ..Default::default()
            };
            fresh(&pre, 6, &c, &objects, 9, Some(&mut cache), None, &opts);
            let stats = cache.stats();
            assert_eq!(
                (stats.hits, stats.invalidations),
                (4, 1),
                "{panic_attempts}"
            );
            let expected = if kept { cold.entry(victim) } else { None };
            assert_eq!(cache.entry(victim), expected, "{panic_attempts}");
            assert_eq!(cache.len(), 3 + usize::from(kept));
        }
    }

    #[test]
    fn budget_ladder_degrades_later_objects_deterministically() {
        let w = world();
        let c = populated_collector(&w, 6);
        let objects: Vec<ObjectId> = (0..6u32).map(ObjectId::new).collect();
        let (pre, recorder) = observed(&w, PreprocessorConfig::default());
        // Each object costs ~(8-0)·64 = 512 full / 8·16 = 128 reduced.
        // 700 buys one full run, one reduced run, then fallbacks.
        let opts = SupervisionOptions {
            budget: Some(700),
            ..Default::default()
        };
        let run = |workers| fresh(&pre, 9, &c, &objects, 8, None, Some(workers), &opts);
        let (index, levels) = run(1);
        let ladder: Vec<DegradationLevel> = objects.iter().map(|o| levels[o]).collect();
        assert_eq!(ladder[0], DegradationLevel::Full);
        assert_eq!(ladder[1], DegradationLevel::ReducedParticles);
        assert!(ladder[2..]
            .iter()
            .all(|&l| l == DegradationLevel::UniformFallback));
        // Every answer is still a distribution.
        for o in &objects {
            let total: f64 = index.total_probability(o);
            assert!((total - 1.0).abs() < 1e-9);
        }
        // Same budget, more workers: identical ladder and answers.
        let (par_index, par_levels) = run(4);
        for o in &objects {
            assert_eq!(levels.get(o), par_levels.get(o));
            assert_eq!(index.distribution(o), par_index.distribution(o));
        }
        let counters = recorder.snapshot().counters;
        assert_eq!(counters.get("degrade.reduced"), Some(&2));
        assert_eq!(counters.get("degrade.fallback"), Some(&8));
        assert_eq!(counters.get("degrade.budget_exhausted"), Some(&8));
    }

    #[test]
    fn passes_of_more_than_one_run_take_up_to_one_worker_per_run() {
        // A forced count caps the pass, the calling thread included.
        assert_eq!(pass_workers(Some(4), 10, || 1), 4);
        assert_eq!(pass_workers(Some(4), 3, || 8), 3);
        assert_eq!(pass_workers(Some(1), 10, || 8), 1);
        assert_eq!(pass_workers(Some(0), 10, || 8), 1);
        // No forced count: every core, at most one per run.
        assert_eq!(pass_workers(None, 10, || 8), 8);
        assert_eq!(pass_workers(None, 2, || 8), 2);
        assert_eq!(pass_workers(None, 10, || 1), 1);
        // A pass of one run stays on the calling thread and never reads
        // the core count.
        let never = || -> usize { panic!("core count read") };
        assert_eq!(pass_workers(None, 1, never), 1);
        assert_eq!(pass_workers(Some(4), 0, never), 1);
        assert!(available_cores() >= 1);
    }

    #[test]
    fn degradation_levels_order_worst_last() {
        assert!(DegradationLevel::Full < DegradationLevel::ReducedParticles);
        assert!(DegradationLevel::ReducedParticles < DegradationLevel::UniformFallback);
        assert!(DegradationLevel::UniformFallback < DegradationLevel::Quarantined);
        assert_eq!(
            DegradationLevel::ReducedParticles.to_string(),
            "reduced-particles"
        );
    }

    #[test]
    fn fallback_distribution_stays_near_last_reader() {
        let w = world();
        let mut c = DataCollector::new();
        let r = &w.readers()[6];
        for s in 0..3u64 {
            c.ingest_second(s, &[(O, r.id())]);
        }
        let pre = preprocessor(&w);
        let opts = SupervisionOptions {
            budget: Some(0),
            ..Default::default()
        };
        let (index, levels) = fresh(&pre, 3, &c, &[O], 4, None, None, &opts);
        assert_eq!(levels.get(&O), Some(&DegradationLevel::UniformFallback));
        let total = distribution_total(&index, O);
        assert!((total - 1.0).abs() < 1e-9);
        // now=4, t_last=2 → radius = 2.0 + (1.0+0.3)·2 = 4.6.
        for &(a, _) in index.distribution(&O).unwrap() {
            let d = w.anchors().anchor(a).point.distance(r.position());
            assert!(d <= 4.6 + 1e-9, "anchor {a} at distance {d} outside circle");
        }
    }

    #[test]
    fn parallel_process_matches_sequential_bit_for_bit() {
        let w = world();
        let mut c = DataCollector::new();
        let objects: Vec<ObjectId> = (0..12u32).map(ObjectId::new).collect();
        for s in 0..6u64 {
            let det: Vec<_> = objects
                .iter()
                .enumerate()
                .map(|(i, &o)| (o, w.readers()[i % w.readers().len()].id()))
                .collect();
            c.ingest_second(s, &det);
        }
        let pre = preprocessor(&w);
        let opts = SupervisionOptions::default();
        let mut seq_cache = ParticleCache::new();
        let (sequential, _) = fresh(
            &pre,
            1234,
            &c,
            &objects,
            8,
            Some(&mut seq_cache),
            None,
            &opts,
        );
        for workers in [1usize, 2, 4] {
            let mut par_cache = ParticleCache::new();
            let (parallel, _) = fresh(
                &pre,
                1234,
                &c,
                &objects,
                8,
                Some(&mut par_cache),
                Some(workers),
                &opts,
            );
            for o in &objects {
                assert_eq!(
                    sequential.distribution(o),
                    parallel.distribution(o),
                    "distribution of {o} differs at {workers} workers"
                );
            }
            assert_eq!(
                cache_bytes(&seq_cache),
                cache_bytes(&par_cache),
                "cache differs at {workers} workers"
            );
        }
    }

    /// The merge as passes made it before runs merged in completion
    /// order: retract the objects missing from a `BTreeSet` of the
    /// answered ones first, then put each entry back and apply each delta
    /// in candidate order.
    fn candidate_order_merge(
        outcomes: Vec<Outcome>,
        cache: &mut ParticleCache,
        index: &mut AnchorObjectIndex<ObjectId>,
    ) -> (BTreeMap<ObjectId, DegradationLevel>, IndexDeltaStats) {
        let answered: std::collections::BTreeSet<ObjectId> =
            outcomes.iter().map(|out| out.object).collect();
        let mut stats = IndexDeltaStats {
            retracted: index.retain_objects(|o| answered.contains(o)),
            ..IndexDeltaStats::default()
        };
        let mut degradation = BTreeMap::new();
        for out in outcomes {
            cache.put_back(out.object, out.entry, out.dropped);
            let (distribution, level) = out.answer;
            match index.apply_object(out.object, distribution) {
                DeltaOutcome::Inserted | DeltaOutcome::Updated => stats.applied += 1,
                DeltaOutcome::Unchanged => stats.unchanged += 1,
            }
            degradation.insert(out.object, level);
        }
        (degradation, stats)
    }

    /// A small distribution over ascending anchors, picked by `seed`.
    fn some_distribution(seed: u64) -> Vec<(AnchorId, f64)> {
        let n = 1 + seed % 4;
        (0..n)
            .map(|k| (AnchorId::new((seed % 40 + 3 * k) as u32), 1.0 / n as f64))
            .collect()
    }

    fn some_entry(seed: u64, episode: EpisodeKey) -> CacheEntry {
        let state = IndoorState {
            pos: ripq_graph::GraphPos::new(ripq_graph::EdgeId::new(seed as u32 % 9), 0.5),
            heading: crate::Heading::TowardB,
            speed: 1.0 + seed as f64 / 64.0,
        };
        CacheEntry {
            particles: vec![state; 1 + seed as usize % 3],
            timestamp: seed % 100,
            episode,
        }
    }

    /// `(pass object, in the earlier index: 0 no / 1 other / 2 same
    /// distribution, distribution seed, level + 4 × entry kind + 12 ×
    /// dropped, completion key)`.
    type MergeSpec = (u32, u8, u64, u8, u64);

    /// The index and cache after an earlier pass, with the pass's plans
    /// already taken out of the cache, and the pass's outcomes in
    /// candidate order. Objects 100.. sit in the earlier index and cache
    /// but not in the pass, so the merge retracts them.
    fn merge_case(
        specs: &[MergeSpec],
        stale: &[u64],
    ) -> (
        AnchorObjectIndex<ObjectId>,
        ParticleCache,
        Vec<(u64, Outcome)>,
    ) {
        let mut index = AnchorObjectIndex::new();
        let mut cache = ParticleCache::new();
        let episode = |o: u32, k: u64| (ReaderId::new(o % 5), k);
        for (i, &seed) in stale.iter().enumerate() {
            let o = ObjectId::new(100 + i as u32);
            index.apply_object(o, some_distribution(seed));
            cache.put_back(o, Some(some_entry(seed, episode(o.raw(), 1))), false);
        }
        let mut seen = std::collections::BTreeSet::new();
        let mut outcomes = Vec::new();
        for &(pick, earlier, seed, packed, key) in specs {
            let (level, entry, dropped) = (packed % 4, packed / 4 % 3, packed / 12 % 2);
            if !seen.insert(pick) {
                continue;
            }
            let o = ObjectId::new(pick);
            let fresh = some_distribution(seed);
            match earlier {
                1 => drop(index.apply_object(o, some_distribution(seed + 1))),
                2 => drop(index.apply_object(o, fresh.clone())),
                _ => {}
            }
            // Entry kinds: none cached; a hit planning takes and the run
            // refills; a stale episode planning discards.
            if entry > 0 {
                cache.put_back(o, Some(some_entry(seed, episode(pick, 1))), false);
                let wanted = episode(pick, u64::from(entry));
                let _ = cache.take(o, wanted);
            }
            let level = [
                DegradationLevel::Full,
                DegradationLevel::ReducedParticles,
                DegradationLevel::UniformFallback,
                DegradationLevel::Quarantined,
            ][usize::from(level)];
            let refill = (entry % 2 == 1).then(|| some_entry(seed + 7, episode(pick, 1)));
            outcomes.push((
                key,
                Outcome {
                    object: o,
                    answer: (fresh, level),
                    entry: refill,
                    dropped: dropped == 1,
                },
            ));
        }
        (index, cache, outcomes)
    }

    proptest::proptest! {
        /// Merging one pass's outcomes as runs finish, in any order,
        /// leaves the index, statistics, cache bytes and levels that the
        /// candidate-order merge leaves.
        #[test]
        fn completion_order_merge_matches_candidate_order(
            specs in proptest::collection::vec(
                (0u32..24, 0u8..3, 0u64..1_000, 0u8..24, 0u64..1_000_000),
                0..16,
            ),
            stale in proptest::collection::vec(0u64..1_000, 0..4),
        ) {
            let (mut ref_index, mut ref_cache, outcomes) = merge_case(&specs, &stale);
            let reference = candidate_order_merge(
                outcomes.into_iter().map(|(_, out)| out).collect(),
                &mut ref_cache,
                &mut ref_index,
            );
            let (mut index, mut cache, mut outcomes) = merge_case(&specs, &stale);
            outcomes.sort_by_key(|&(key, _)| key);
            let mut merge = Merge::new(Some(&mut cache), &mut index, outcomes.len());
            for (_, out) in outcomes {
                merge.apply(out);
            }
            let merged = merge.finish();
            proptest::prop_assert_eq!(&merged, &reference);
            proptest::prop_assert_eq!(&index, &ref_index);
            proptest::prop_assert_eq!(cache_bytes(&cache), cache_bytes(&ref_cache));
        }
    }
}

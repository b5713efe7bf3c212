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
//! read-only, and each object's cache entry travels with the object, so
//! [`ParticlePreprocessor::process`] can fan candidates out over worker
//! threads whose only shared pass state is their work queue. To keep the
//! output *bit-identical* regardless of the worker count, each object
//! draws from its own RNG stream, derived deterministically from
//! `(pass_seed, object id, resume timestamp)` by [`derive_stream_seed`] —
//! no draw ever depends on which objects were processed before it, or on
//! which thread it ran. Unless the caller forces a worker count, each pass
//! picks one with [`pass_workers`]: every core once its planned work
//! reaches [`FAN_OUT_WORK`], else the calling thread alone.

use crate::cache::{CacheEntry, EpisodeKey};
use crate::sir::{Particles, Sir, SirModel, Update};
use crate::{FilterTables, IndoorState, KldConfig, MeasurementModel, MotionModel, ParticleCache};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ripq_graph::{
    AnchorId, AnchorObjectIndex, AnchorSet, DeltaOutcome, IndexDeltaStats, WalkingGraph,
};
use ripq_obs::{Counter, Histogram, Recorder};
use ripq_rfid::{DataCollector, ObjectId, Reader, ReaderId};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::OnceLock;

/// Planned particle-seconds (Σ simulated seconds × `Ns` over a pass's
/// runs) at which a pass with no forced worker count fans out over every
/// core. 2^16 particle-seconds take about 3 ms to filter, and a helper
/// thread costs about 50 µs to start and join, so below this a pass stays
/// on the calling thread.
pub const FAN_OUT_WORK: u64 = 1 << 16;

/// The worker count of one pass. `Some(n)` forces `n`; `None` takes
/// `cores()` once `planned_work` reaches [`FAN_OUT_WORK`], else one.
/// Either way the count is clamped to `1..=runs`, so no worker starts
/// without a run to take. `cores` is asked only when a pass fans out, so
/// the first read of the machine's core count, which allocates, never
/// lands in a small pass.
fn pass_workers(
    parallelism: Option<usize>,
    planned_work: u64,
    runs: usize,
    cores: impl FnOnce() -> usize,
) -> usize {
    let wanted = match parallelism {
        Some(n) => n,
        None if planned_work >= FAN_OUT_WORK => cores(),
        None => 1,
    };
    wanted.clamp(1, runs.max(1))
}

/// `std::thread::available_parallelism`, read once per process (1 when
/// the platform cannot tell): the worker count of a large pass with no
/// forced count.
pub fn available_cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, NonZeroUsize::get))
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

/// Everything [`ParticlePreprocessor::filter_object`] needs that was
/// decided *before* any random draw: the episode identity, the simulation
/// window, and the object's cache entry. Splitting this out lets the pass
/// derive the per-object RNG from the resume timestamp before the filter
/// body runs.
struct ObjectPlan {
    episode_key: EpisodeKey,
    /// `tmin = min(td + coast, now)` — Algorithm 2 line 6.
    tmin: u64,
    /// Second-most-recent detecting device (`dᵢ`), the fresh-seed source.
    seed_device: ReaderId,
    /// First retained second of the object's readings (`t0`).
    agg_start: u64,
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
    /// cached cloud is already past `tmin`). The budget ladder and the
    /// fan-out decision both charge this figure.
    work_seconds: u64,
}

/// What supervising one planned candidate hands back to the merge.
struct Outcome {
    /// The answered distribution and its level; `None` when the object has
    /// no answer, not even the fallback.
    answer: Option<(Vec<(AnchorId, f64)>, DegradationLevel)>,
    /// The entry the object's cache slot holds after the pass.
    entry: Option<CacheEntry>,
    /// A panicking run took the planned entry down with it, which counts
    /// as an invalidation.
    dropped: bool,
}

/// Resolved `pf.*` metric handles. Every recording operation is
/// commutative (atomic adds, histogram bucket counts), so worker threads
/// sharing one preprocessor produce interleaving-independent totals.
/// All handles default to no-ops until a recorder is attached.
#[derive(Debug, Clone, Default)]
struct PfMetrics {
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
}

/// Algorithm 2 runner, borrowing the static world description.
pub struct ParticlePreprocessor<'a> {
    anchors: &'a AnchorSet,
    /// The SIR filter every object runs, over the borrowed graph and
    /// readers.
    sir: Sir<'a>,
    config: PreprocessorConfig,
    metrics: PfMetrics,
    /// Kept for lazily registered `degrade.*` counters: unlike the
    /// pre-resolved [`PfMetrics`] handles (which register their names at
    /// zero the moment a recorder is attached), degradation counters only
    /// appear in snapshots once degradation actually happens.
    recorder: Recorder,
}

impl<'a> ParticlePreprocessor<'a> {
    /// Creates a preprocessor over a fixed graph / anchor set / reader
    /// deployment and that deployment's [`FilterTables`], built once from
    /// the same `graph` and `readers`. `readers` must be dense:
    /// `readers[id.index()].id() == id`.
    pub fn new(
        graph: &'a WalkingGraph,
        anchors: &'a AnchorSet,
        readers: &'a [Reader],
        tables: &'a FilterTables,
        config: PreprocessorConfig,
    ) -> Self {
        let model = SirModel {
            motion: config.motion,
            measurement: config.measurement,
            negative_evidence: config.negative_evidence,
            resample_threshold: config.resample_threshold,
            adaptive: config.adaptive,
            num_particles: config.num_particles,
        };
        ParticlePreprocessor {
            anchors,
            sir: Sir::new(graph, anchors, readers, tables, model),
            config,
            metrics: PfMetrics::default(),
            recorder: Recorder::default(),
        }
    }

    /// Attaches an observability recorder: `pf.*` counters and histograms
    /// are recorded from now on. Handles are resolved once here, so the
    /// per-step cost is an atomic add (or a no-op branch when the
    /// recorder is disabled).
    pub fn with_recorder(mut self, recorder: &Recorder) -> Self {
        self.metrics = PfMetrics {
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
        };
        self.recorder = recorder.clone();
        self
    }

    /// The configuration in use.
    pub fn config(&self) -> &PreprocessorConfig {
        &self.config
    }

    /// Lines 1–6 of Algorithm 2 plus the cache lookup (§4.5): everything
    /// that happens before the first random draw. A hit takes the entry
    /// out of `cache` into the plan. `None` when the collector has never
    /// seen the object.
    fn plan_object(
        &self,
        collector: &DataCollector,
        object: ObjectId,
        now: u64,
        cache: Option<&mut ParticleCache>,
    ) -> Option<ObjectPlan> {
        let &(agg_start, _) = collector.detections(object).first()?;
        let (_, td) = collector.last_detection(object)?;
        let (di, _) = collector.last_two_devices(object)?;
        let (ep_reader, ep_first, _) = collector.last_episode(object)?;
        let episode_key = (ep_reader, ep_first);

        // `tmin = min(td + 60, tcurrent)` — line 6.
        let tmin = (td + self.config.coast_seconds).min(now);
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
        Some(ObjectPlan {
            episode_key,
            tmin,
            seed_device: di,
            agg_start,
            cached,
            caching,
            resume_timestamp,
            work_seconds: tmin.saturating_sub(resume_timestamp),
        })
    }

    /// Lines 7–36 of Algorithm 2: seed or resume the filter in
    /// `particles`, replay the retained readings up to `tmin`, snap to
    /// anchors. All random draws of the object happen here, in a fixed
    /// order independent of other objects. `particles_override` runs the
    /// same filter with fewer particles on the degraded-evaluation path.
    ///
    /// Also returns the entry the object's cache slot holds afterwards: the
    /// cached entry untouched when its cloud is already past `tmin`;
    /// otherwise, when the plan keeps an entry, the filtered cloud, written
    /// into the cached entry's own buffer on a hit.
    fn filter_object<R: Rng>(
        &self,
        rng: &mut R,
        particles: &mut Particles,
        collector: &DataCollector,
        object: ObjectId,
        plan: ObjectPlan,
        particles_override: Option<usize>,
    ) -> (Vec<(AnchorId, f64)>, Option<CacheEntry>) {
        let num_particles = particles_override.unwrap_or(self.config.num_particles);
        let start = match &plan.cached {
            Some(entry) => {
                self.metrics.cache_resumes.inc();
                self.metrics
                    .resume_depth
                    .observe(entry.timestamp.saturating_sub(plan.agg_start));
                // A reduced-budget resume keeps a deterministic prefix of
                // the cached cloud rather than discarding the prior
                // entirely.
                let cloud: &[IndoorState] = &entry.particles;
                let prefix = particles_override.and_then(|n| cloud.get(..n));
                particles.resume(prefix.unwrap_or(cloud));
                if entry.timestamp > plan.tmin {
                    // Cached states are already past tmin: reuse directly.
                    return (self.finish(particles, 0), plan.cached);
                }
                entry.timestamp + 1
            }
            None => {
                // Fresh start: seed within the second-most-recent device's
                // activation range at the first retained second (line 5).
                let reader = self.sir.reader(plan.seed_device);
                self.sir.seed(particles, rng, reader, num_particles);
                plan.agg_start + 1
            }
        };

        // Main loop — lines 7..31. Line 17: the reading of tj, the next
        // retained detection if it falls on tj, else None (silent).
        let detections = collector.detections(object);
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
            let update = self.sir.iterate(particles, rng, reading);
            simulated += 1;
            match update {
                Update::Coasted => {}
                Update::Reweighted { ess, resampled } => {
                    self.metrics.ess.observe_f64(ess);
                    if resampled {
                        self.metrics.resamples.inc();
                    }
                }
                Update::Reset => self.metrics.sensor_resets.inc(),
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
        (self.finish(particles, simulated), entry)
    }

    /// Lines 32–36: snaps each particle to its nearest anchor point,
    /// `p(o at ap) = n/Ns`, smoothed by the configured kernel.
    fn finish(&self, particles: &Particles, simulated: u64) -> Vec<(AnchorId, f64)> {
        let states = particles.states();
        self.metrics.objects.inc();
        self.metrics.sir_iterations.add(simulated);
        self.metrics.final_particles.observe(states.len() as u64);
        let n = states.len() as f64;
        self.anchors.kde_distribution(
            states.iter().map(|s| (s.pos, 1.0 / n)),
            self.config.kde_bandwidth,
        )
    }

    /// The weakest answer the readings still support: a uniform
    /// distribution over the anchors inside the object's pruning circle
    /// (§4.3), centered at the last detecting reader with radius
    /// `activation_range + v_max · (now − t_last)`. `None` when the
    /// collector has never detected the object (or no anchors exist).
    fn fallback_distribution(
        &self,
        collector: &DataCollector,
        object: ObjectId,
        now: u64,
    ) -> Option<Vec<(AnchorId, f64)>> {
        let (reader, t_last) = collector.last_detection(object)?;
        let r = self.sir.reader(reader);
        let center = r.position();
        // The motion model draws speeds from N(μ, σ²); μ + 3σ bounds the
        // population for the same purpose SystemConfig::max_speed serves
        // in query pruning.
        let v_max = self.config.motion.speed_mean + 3.0 * self.config.motion.speed_std;
        let radius = r.activation_range() + v_max * now.saturating_sub(t_last) as f64;
        let inside: Vec<AnchorId> = self
            .anchors
            .anchors()
            .iter()
            .filter(|a| a.point.distance(center) <= radius)
            .map(|a| a.id)
            .collect();
        let ids = if inside.is_empty() {
            // Degenerate circle (no anchor inside): the nearest anchor to
            // the reader carries all the mass.
            vec![self.anchors.nearest(r.graph_pos())]
        } else {
            inside
        };
        let mass = 1.0 / ids.len() as f64;
        Some(ids.into_iter().map(|a| (a, mass)).collect())
    }

    /// One supervised candidate: run the (possibly budget-reduced) filter
    /// in the worker's `particles` under panic isolation with bounded
    /// retry, degrading to the uniform fallback when the filter is
    /// persistently poisoned. Returns the answered distribution, the level
    /// it was produced at, and the entry the object's cache slot holds
    /// afterwards: untouched when nothing ran, none after a panic unless a
    /// retry refilled it.
    #[allow(clippy::too_many_arguments)]
    fn run_supervised_object(
        &self,
        particles: &mut Particles,
        pass_seed: u64,
        collector: &DataCollector,
        object: ObjectId,
        plan: ObjectPlan,
        level: DegradationLevel,
        now: u64,
        options: &SupervisionOptions,
    ) -> Outcome {
        let fallback = |level| {
            self.fallback_distribution(collector, object, now)
                .map(|d| (d, level))
        };
        if matches!(level, DegradationLevel::UniformFallback) {
            return Outcome {
                answer: fallback(level),
                entry: plan.cached,
                dropped: false,
            };
        }
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
        // A retry replans with no cached states, so the filter reseeds from
        // the last readings instead of resuming whatever states the
        // panicking run left behind.
        let caching = plan.caching;
        let replan = || {
            self.plan_object(collector, object, now, None)
                .map(|p| ObjectPlan { caching, ..p })
        };
        let mut plan = Some(plan);
        let mut dropped = false;
        for attempt in 0..=RETRY_LIMIT {
            let Some(p) = plan.take().or_else(replan) else {
                break;
            };
            let resume = p.resume_timestamp;
            let carried = p.cached.is_some();
            let result = catch_unwind(AssertUnwindSafe(|| {
                if options.panic_object == Some(object) && attempt < options.panic_attempts {
                    // ripq-lint: allow(no-panic-paths) -- deliberate fault injection: the panic is the supervision test fixture, caught by this catch_unwind
                    panic!("injected particle-filter fault (attempt {attempt})");
                }
                let mut rng = StdRng::seed_from_u64(derive_stream_seed(pass_seed, object, resume));
                self.filter_object(
                    &mut rng,
                    particles,
                    collector,
                    object,
                    p,
                    particles_override,
                )
            }));
            if let Ok((out, entry)) = result {
                let answer = Some((out, level));
                return Outcome {
                    answer,
                    entry,
                    dropped,
                };
            }
            self.recorder.add("degrade.pf_panics", 1);
            // The cached entry unwound with the panicking attempt, so its
            // half-updated states never reach a later pass.
            dropped |= carried;
            if attempt < RETRY_LIMIT {
                self.recorder.add("degrade.retries", 1);
            } else {
                self.recorder.add("degrade.quarantined", 1);
            }
        }
        Outcome {
            answer: fallback(DegradationLevel::Quarantined),
            entry: None,
            dropped,
        }
    }

    /// Runs Algorithm 2 for every candidate — the one preprocessing pass —
    /// and applies the answers to the caller-owned `APtoObjHT` `index`.
    ///
    /// Each object draws from its own RNG stream, derived from
    /// `(pass_seed, object, resume timestamp)` by [`derive_stream_seed`],
    /// so the answers do not depend on the candidate order or on the
    /// worker count. `candidates` must be distinct: a pass takes each
    /// object's cache entry once. The pass runs in three deterministic
    /// phases:
    ///
    /// 1. **Plan** (sequential, candidate order): lines 1–6 of Algorithm 2
    ///    plus the cache lookup for every candidate, which takes a hit's
    ///    entry out of `cache` into the object's plan. Every metric update
    ///    commutes, so planning everything up front changes no total. Each
    ///    plan knows the seconds its filter simulates, `tmin` − resume
    ///    second, and the pass's planned work is their sum × `Ns`.
    /// 2. **Budget** (sequential, candidate order): each object's filter
    ///    costs its simulated seconds (at least one) × particle count — a
    ///    logical-clock model, so the ladder decisions are reproducible.
    ///    Objects run full-size while [`SupervisionOptions::budget`]
    ///    lasts, then at the KLD floor, then degrade to the uniform
    ///    pruning-circle fallback.
    /// 3. **Filter**: the calling thread and `workers − 1` scoped helpers
    ///    pull plans from one queue, the only pass state they share, and
    ///    return their answers through their join handles. `Some(n)`
    ///    forces `workers = n`; `None` takes every core once the planned
    ///    work reaches [`FAN_OUT_WORK`], else one. Each object runs under
    ///    `catch_unwind` isolation with bounded retry; a persistently
    ///    panicking object is quarantined with a fallback answer instead
    ///    of aborting the pass. Answers merge in candidate order, and each
    ///    object's entry goes back into `cache` beside its index delta.
    ///
    /// The index is maintained *incrementally*: objects that left the
    /// answered set are retracted, answered objects are applied as deltas
    /// ([`AnchorObjectIndex::apply_object`]), and a bit-identical stored
    /// distribution costs no structural work. Per-anchor lists stay sorted
    /// by object key, so the index after any delta sequence equals a
    /// rebuild of the same answer set on an empty index.
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
        let planned: Vec<(usize, ObjectId, ObjectPlan)> = candidates
            .iter()
            .enumerate()
            .filter_map(|(i, &o)| {
                self.plan_object(collector, o, now, cache.as_deref_mut())
                    .map(|p| (i, o, p))
            })
            .collect();
        let planned_work = planned
            .iter()
            .fold(0u64, |sum, (_, _, p)| sum.saturating_add(p.work_seconds))
            .saturating_mul(self.config.num_particles as u64);

        // Phase 2: budget ladder.
        let mut remaining = options.budget;
        let reduced_count = self
            .config
            .adaptive
            .unwrap_or_default()
            .min_particles
            .min(self.config.num_particles) as u64;
        let items: Vec<_> = planned
            .into_iter()
            .map(|(i, o, plan)| {
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
                            self.recorder.add("degrade.reduced", 1);
                            DegradationLevel::ReducedParticles
                        } else {
                            *rem = rem.saturating_sub(1);
                            self.recorder.add("degrade.fallback", 1);
                            self.recorder.add("degrade.budget_exhausted", 1);
                            DegradationLevel::UniformFallback
                        }
                    }
                };
                (i, o, plan, level)
            })
            .collect();

        // Phase 3: supervised filtering, one worker loop on the calling
        // thread and on each helper.
        let workers = pass_workers(parallelism, planned_work, items.len(), available_cores);
        let queue = Mutex::new(items.into_iter());
        let worker = || {
            let mut particles = self.sir.particles();
            let mut outcomes = Vec::new();
            loop {
                // `let else`, not `while let`: the guard drops with the
                // statement instead of living through the object's run.
                let Some((i, o, plan, level)) = queue.lock().next() else {
                    break;
                };
                let outcome = self.run_supervised_object(
                    &mut particles,
                    pass_seed,
                    collector,
                    o,
                    plan,
                    level,
                    now,
                    options,
                );
                outcomes.push((i, o, outcome));
            }
            outcomes
        };
        let mut outcomes = std::thread::scope(|scope| {
            let helpers: Vec<_> = (1..workers).map(|_| scope.spawn(worker)).collect();
            let mut outcomes = worker();
            for h in helpers {
                // Per-object panics are already caught inside
                // run_supervised_object, so a helper thread dying is out
                // of model; its objects would simply be absent from the
                // answer set and the cache.
                if let Ok(theirs) = h.join() {
                    outcomes.extend(theirs);
                }
            }
            outcomes
        });
        outcomes.sort_unstable_by_key(|&(i, _, _)| i);

        // Incremental maintenance: retract objects that fell out of the
        // answered set (pruned away, vanished, never seen this pass),
        // then apply each answered distribution as a delta and put the
        // object's cache entry back.
        let answered: BTreeSet<ObjectId> = outcomes
            .iter()
            .filter(|(_, _, out)| out.answer.is_some())
            .map(|&(_, o, _)| o)
            .collect();
        let mut stats = IndexDeltaStats {
            retracted: index.retain_objects(|o| answered.contains(o)),
            ..IndexDeltaStats::default()
        };
        let mut degradation = BTreeMap::new();
        for (_, o, outcome) in outcomes {
            if let Some(c) = cache.as_deref_mut() {
                c.put_back(o, outcome.entry, outcome.dropped);
            }
            if let Some((distribution, level)) = outcome.answer {
                match index.apply_object(o, distribution) {
                    DeltaOutcome::Inserted | DeltaOutcome::Updated => stats.applied += 1,
                    DeltaOutcome::Unchanged => stats.unchanged += 1,
                }
                degradation.insert(o, level);
            }
        }
        (degradation, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ripq_floorplan::{office_building, OfficeParams};
    use ripq_graph::build_walking_graph;
    use ripq_obs::MetricsSnapshot;
    use ripq_persist::ByteWriter;
    use ripq_rfid::deploy_uniform;

    struct World {
        graph: WalkingGraph,
        anchors: AnchorSet,
        readers: Vec<Reader>,
        tables: FilterTables,
    }

    fn world() -> World {
        let plan = office_building(&OfficeParams::default()).unwrap();
        let graph = build_walking_graph(&plan);
        let anchors = AnchorSet::generate(&graph, &plan, 1.0);
        let readers = deploy_uniform(&plan, &graph, 19, 2.0);
        let tables = FilterTables::new(&graph, &readers);
        World {
            graph,
            anchors,
            readers,
            tables,
        }
    }

    const O: ObjectId = ObjectId::new(0);

    fn preprocessor(w: &World) -> ParticlePreprocessor<'_> {
        ParticlePreprocessor::new(
            &w.graph,
            &w.anchors,
            &w.readers,
            &w.tables,
            PreprocessorConfig::default(),
        )
    }

    /// A preprocessor recording into a fresh enabled recorder.
    fn observed(w: &World, config: PreprocessorConfig) -> (ParticlePreprocessor<'_>, Recorder) {
        let recorder = Recorder::enabled();
        let pre = ParticlePreprocessor::new(&w.graph, &w.anchors, &w.readers, &w.tables, config)
            .with_recorder(&recorder);
        (pre, recorder)
    }

    /// Runs one pass into an empty index; returns it with the levels.
    #[allow(clippy::too_many_arguments)]
    fn fresh(
        pre: &ParticlePreprocessor<'_>,
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
        pre: &ParticlePreprocessor<'_>,
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
            for pair in w.readers.windows(2) {
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
        let p1 = w.readers[r1.index()].position();
        let p2 = w.readers[r2.index()].position();
        // Probability mass closer to r2 than to r1:
        let mut near_r2 = 0.0;
        for &(a, p) in index.distribution(&O).unwrap() {
            let pt = w.anchors.anchor(a).point;
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
        let r0 = w.readers[0].id();
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
        let other = w.readers[10].id();
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
        let other = w.readers[10].id();
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
        let r = w.readers[2].id();
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
        c.ingest_second(0, &[(O, w.readers[0].id()), (o2, w.readers[5].id())]);
        c.ingest_second(1, &[(O, w.readers[0].id()), (o2, w.readers[5].id())]);
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
        c.ingest_second(0, &[(O, w.readers[3].id())]);
        let pre = preprocessor(&w);
        let index = pass(&pre, 27, &c, &[O], 3, None);
        let total = distribution_total(&index, O);
        assert!((total - 1.0).abs() < 1e-9);
        // Mass is spread around reader 3 within ~3 s of walking.
        let rp = w.readers[3].position();
        for &(a, _) in index.distribution(&O).unwrap() {
            let d = w.anchors.anchor(a).point.distance(rp);
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
            c.ingest_second(s, &[(O, w.readers[4].id())]);
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
            c.ingest_second(s, &[(O, w.readers[0].id()), (o2, w.readers[5].id())]);
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
                        w.readers[i as usize % w.readers.len()].id(),
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
    fn forced_worker_counts_clamp_to_the_runs() {
        assert_eq!(pass_workers(Some(4), 0, 10, || 1), 4);
        assert_eq!(pass_workers(Some(4), u64::MAX, 3, || 8), 3);
        assert_eq!(pass_workers(Some(1), u64::MAX, 10, || 8), 1);
        assert_eq!(pass_workers(Some(0), FAN_OUT_WORK, 10, || 8), 1);
        assert_eq!(pass_workers(Some(2), 0, 0, || 8), 1);
    }

    #[test]
    fn unforced_passes_fan_out_from_the_planned_work_constant() {
        assert_eq!(pass_workers(None, 0, 10, || 8), 1);
        assert_eq!(pass_workers(None, FAN_OUT_WORK - 1, 10, || 8), 1);
        assert_eq!(pass_workers(None, FAN_OUT_WORK, 10, || 8), 8);
        assert_eq!(pass_workers(None, u64::MAX, 3, || 8), 3);
        // A one-core machine never starts a helper.
        assert_eq!(pass_workers(None, FAN_OUT_WORK, 10, || 1), 1);
        assert_eq!(pass_workers(None, u64::MAX, 10, || 1), 1);
        // Only a pass that fans out reads the core count.
        let never = || -> usize { panic!("core count read") };
        assert_eq!(pass_workers(None, FAN_OUT_WORK - 1, 10, never), 1);
        assert_eq!(pass_workers(Some(3), u64::MAX, 10, never), 3);
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
        let r = &w.readers[6];
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
            let d = w.anchors.anchor(a).point.distance(r.position());
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
                .map(|(i, &o)| (o, w.readers[i % w.readers.len()].id()))
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
}

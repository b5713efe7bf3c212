//! The end-to-end system facade (Fig. 3 of the paper).

use crate::checkpoint::{self, RecoveryOutcome};
use crate::clock::{Clock, TimingMode};
use crate::closest_pairs::evaluate_closest_pairs_counted;
use crate::knn_eval::knn_over_scan;
use crate::ptknn::ptknn_over_scan;
use crate::range_eval::RangeParts;
use crate::{
    reader_distances, ClosestPairsQuery, KnnQuery, ObjectPair, PruningTable, PtknnQuery, QueryId,
    RangeQuery, ResultSet, RipqError,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ripq_floorplan::FloorPlan;
use ripq_geom::{Point2, Rect};
use ripq_graph::{
    build_walking_graph, AnchorObjectIndex, AnchorScan, AnchorSet, GraphPos, ScanCounts,
    WalkingGraph,
};
use ripq_obs::{Counter, Gauge, MetricsSnapshot, Recorder, Span};
use ripq_persist::{crc32, ByteReader, ByteWriter, PersistError};
use ripq_pf::{
    CacheStats, DegradationLevel, FilterWorld, ParticleCache, ParticlePreprocessor, PfMetrics,
    PreprocessorConfig, SupervisionOptions,
};
use ripq_rfid::{deploy_uniform, DataCollector, ObjectId, RawReading, Reader, ReaderId};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

/// Configuration of an [`IndoorQuerySystem`]. Defaults match Table 2 of
/// the paper (64 particles, 19 readers, 2 m activation range, …).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SystemConfig {
    /// Number of RFID readers deployed uniformly on hallways (paper: 19).
    pub reader_count: u32,
    /// Reader activation range in meters (Table 2 default: 2 m).
    pub activation_range: f64,
    /// Anchor point spacing in meters (§4.2 suggests 1 m).
    pub anchor_spacing: f64,
    /// Maximum walking speed `u_max` (m/s) for uncertain-region pruning.
    pub max_speed: f64,
    /// Particle filter configuration (Table 2 default: 64 particles).
    pub preprocess: PreprocessorConfig,
    /// Enable the cache management module (§4.5).
    pub use_cache: bool,
    /// Enable the query-aware optimization module (§4.3). Disable for
    /// ablation benchmarks: every known object is then preprocessed.
    pub prune_candidates: bool,
    /// Monte-Carlo rounds per PTkNN query evaluation.
    pub ptknn_rounds: usize,
    /// Worker threads for particle-filter preprocessing. Every pass with
    /// more than one run filters on the calling thread and on helpers of
    /// the process's pool, at most one worker per run. `None` (default)
    /// caps a pass at every core ([`ripq_pf::available_cores`]);
    /// `Some(n)` caps it at `n` workers, the calling thread included, and
    /// `Some(0|1)` keeps it on the calling thread. No setting starts more
    /// threads than the machine has cores. Results are bit-identical for
    /// every setting: each object draws from its own RNG stream (see
    /// [`ripq_pf::derive_stream_seed`]).
    pub parallelism: Option<usize>,
    /// Out-of-order tolerance of the reading pipeline, in seconds:
    /// readings handed to [`IndoorQuerySystem::ingest_delivery`] whose
    /// logical second lags the delivery clock by at most this much are
    /// merged back into place instead of being dropped.
    /// `0` (default) keeps the strict in-order ingestion contract.
    pub reorder_window: u64,
    /// How [`EvaluationTimings`] are measured. [`TimingMode::Wall`]
    /// (default) reads the real clock; [`TimingMode::Logical`] uses a
    /// deterministic tick counter so whole reports are bit-identical
    /// across runs.
    pub timing: TimingMode,
    /// Collect pipeline metrics (`ripq_obs`). When on, every
    /// [`EvaluationReport`] carries a cumulative [`MetricsSnapshot`];
    /// under [`TimingMode::Logical`] the snapshot is bit-identical
    /// across runs and worker counts. Off (default) the recorder is
    /// disabled and every instrument point is a no-op branch.
    pub observability: bool,
    /// Per-evaluation deadline budget in deterministic logical cost units
    /// (`coast seconds × particle count` per object). When the remaining
    /// budget cannot afford an object's full particle filter, evaluation
    /// degrades down the ladder — reduced particle count, then the
    /// paper's uncertainty-region uniform fallback — instead of missing
    /// the deadline. `None` (default) never degrades.
    pub query_budget: Option<u64>,
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig {
            reader_count: 19,
            activation_range: 2.0,
            anchor_spacing: 1.0,
            max_speed: 1.5,
            preprocess: PreprocessorConfig::default(),
            use_cache: true,
            prune_candidates: true,
            ptknn_rounds: 200,
            parallelism: None,
            reorder_window: 0,
            timing: TimingMode::Wall,
            observability: false,
            query_budget: None,
        }
    }
}

/// Timing breakdown of one evaluation pass, measured by the clock that
/// [`SystemConfig::timing`] selects (wall clock or deterministic ticks).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvaluationTimings {
    /// Candidate pruning (§4.3).
    pub pruning: Duration,
    /// Particle-filter preprocessing (§4.4) including cache traffic.
    pub preprocessing: Duration,
    /// Query evaluation over the index (§4.6).
    pub evaluation: Duration,
    /// End-to-end.
    pub total: Duration,
}

/// The result of one evaluation pass over all registered queries.
///
/// Result maps are `BTreeMap`s so that iterating a report visits queries
/// in `QueryId` order — reports serialize and diff deterministically.
#[derive(Debug)]
pub struct EvaluationReport {
    /// Result set per registered range query.
    pub range_results: BTreeMap<QueryId, ResultSet>,
    /// Result set per registered kNN query.
    pub knn_results: BTreeMap<QueryId, ResultSet>,
    /// Result set per registered PTkNN query.
    pub ptknn_results: BTreeMap<QueryId, ResultSet>,
    /// Result pairs per registered closest-pairs query.
    pub closest_pairs_results: BTreeMap<QueryId, Vec<ObjectPair>>,
    /// The filtered probabilistic index (`APtoObjHT`) the results came
    /// from — exposed for accuracy metrics and debugging. It shares the
    /// system's live index: the next pass copies it only while this
    /// report is still held.
    pub index: Arc<AnchorObjectIndex<ObjectId>>,
    /// How many objects survived candidate pruning and were preprocessed.
    pub candidates_processed: usize,
    /// How many objects the collector knows in total.
    pub objects_known: usize,
    /// Cache statistics accumulated so far (zeros when caching is off).
    pub cache_stats: CacheStats,
    /// Wall-clock breakdown of this pass.
    pub timings: EvaluationTimings,
    /// Cumulative pipeline metrics since system construction —
    /// `Some` iff [`SystemConfig::observability`] is on.
    pub metrics: Option<MetricsSnapshot>,
    /// How trustworthy each query's answer is: the worst
    /// [`DegradationLevel`] over the objects appearing in its results.
    /// All-[`DegradationLevel::Full`] unless the deadline budget ran out
    /// or a particle-filter worker was quarantined this pass.
    pub degradation: BTreeMap<QueryId, DegradationLevel>,
    /// Per-object answer quality from this pass's supervised
    /// preprocessing, for callers that inspect the index directly.
    pub object_degradation: BTreeMap<ObjectId, DegradationLevel>,
}

/// The RFID + particle-filter indoor spatial query evaluation system.
///
/// Owns the full pipeline of Fig. 3. Typical use:
///
/// 1. build with [`IndoorQuerySystem::new`] (or
///    [`IndoorQuerySystem::with_readers`] for a given deployment);
/// 2. feed readings each second via [`IndoorQuerySystem::ingest_detections`]
///    (pre-aggregated) or [`IndoorQuerySystem::ingest_raw`] (sample level);
/// 3. register queries; call [`IndoorQuerySystem::evaluate`].
pub struct IndoorQuerySystem {
    plan: FloorPlan,
    /// The walking graph, anchors and reader deployment, with the tables
    /// the particle filter keeps of them: built once, and shared with
    /// every pass's preprocessing helpers.
    world: Arc<FilterWorld>,
    /// CRC32 of the deployment (see [`world_fingerprint`]), written at the
    /// front of every snapshot so a snapshot is only ever restored into
    /// the world it was taken in.
    world_crc: u32,
    collector: DataCollector,
    cache: ParticleCache,
    config: SystemConfig,
    recorder: Recorder,
    rng: StdRng,
    /// The *incrementally maintained* `APtoObjHT`: each evaluation pass
    /// retracts objects that left the answered candidate set and applies
    /// fresh distributions as deltas, instead of rebuilding from scratch.
    /// Its content always equals a rebuild. Reports share it; a pass
    /// edits it in place unless an older report still holds it.
    live_index: Arc<AnchorObjectIndex<ObjectId>>,
    /// The handles every pass records through, resolved by the first.
    metrics: Option<PassMetrics>,
    // Query registries are ordered maps: evaluation visits queries in
    // registration (QueryId) order, so shared state touched per query —
    // most importantly the master RNG consumed by PTkNN sampling — sees
    // the same sequence every run. Each query keeps beside it what its
    // evaluation reads and no pass changes.
    range_queries: BTreeMap<QueryId, (RangeQuery, RangeParts)>,
    knn_queries: BTreeMap<QueryId, (KnnQuery, Frontier)>,
    ptknn_queries: BTreeMap<QueryId, (PtknnQuery, Frontier)>,
    closest_pairs_queries: BTreeMap<QueryId, ClosestPairsQuery>,
    next_query: u32,
    /// Where [`IndoorQuerySystem::checkpoint_now`] writes `system.ckpt`.
    checkpoint_dir: Option<PathBuf>,
    /// Latest second any ingest entry point has seen, i.e. the recovery
    /// watermark a snapshot covers through.
    last_ingest_second: Option<u64>,
    /// Test-support fault injection: panic the particle filter of this
    /// object for its first N attempts per pass.
    injected_fault: Option<(ObjectId, usize)>,
}

/// Handles of the metrics an evaluation pass records, resolved by the
/// system's first pass: a system that never evaluates registers none of
/// them, and rules it never runs register nothing. Names only some passes
/// record stay lazy: a query family's span until a pass evaluates such a
/// query, the closest-pairs rule and `degrade.*` by name.
struct PassMetrics {
    rule_range: Counter,
    rule_knn: Counter,
    rule_ptknn: Counter,
    objects_known: Gauge,
    candidates: Gauge,
    pruned: Gauge,
    delta_applied: Counter,
    delta_retracted: Counter,
    delta_unchanged: Counter,
    scan_settled: Counter,
    scan_anchor_candidates: Counter,
    cache_hits: Gauge,
    cache_misses: Gauge,
    cache_invalidations: Gauge,
    cache_entries: Gauge,
    prune: Span,
    preprocess: Span,
    queries: Span,
    evaluate: Span,
    pf: PfMetrics,
    /// Per-query spans of each query family.
    range_query: Option<Span>,
    knn_query: Option<Span>,
    ptknn_query: Option<Span>,
    closest_pairs_query: Option<Span>,
}

impl PassMetrics {
    fn new(recorder: &Recorder, pruning: bool) -> Self {
        let (rule_range, rule_knn, rule_ptknn) = if pruning {
            (
                recorder.counter("optimizer.candidates_rule_range"),
                recorder.counter("optimizer.candidates_rule_knn"),
                recorder.counter("optimizer.candidates_rule_ptknn"),
            )
        } else {
            Default::default()
        };
        PassMetrics {
            rule_range,
            rule_knn,
            rule_ptknn,
            objects_known: recorder.gauge("optimizer.objects_known"),
            candidates: recorder.gauge("optimizer.candidates"),
            pruned: recorder.gauge("optimizer.pruned"),
            delta_applied: recorder.counter("index.delta_applied"),
            delta_retracted: recorder.counter("index.delta_retracted"),
            delta_unchanged: recorder.counter("index.delta_unchanged"),
            scan_settled: recorder.counter("distance.scan_settled"),
            scan_anchor_candidates: recorder.counter("distance.scan_anchor_candidates"),
            cache_hits: recorder.gauge("cache.hits"),
            cache_misses: recorder.gauge("cache.misses"),
            cache_invalidations: recorder.gauge("cache.invalidations"),
            cache_entries: recorder.gauge("cache.entries"),
            prune: recorder.span("evaluate/prune"),
            preprocess: recorder.span("evaluate/preprocess"),
            queries: recorder.span("evaluate/queries"),
            evaluate: recorder.span("evaluate"),
            pf: PfMetrics::new(recorder),
            range_query: None,
            knn_query: None,
            ptknn_query: None,
            closest_pairs_query: None,
        }
    }
}

/// What a registered kNN or PTkNN query keeps between passes.
struct Frontier {
    /// Network distance from the query point to every reader (indexed
    /// like the deployment): filled by one Dijkstra pass at registration,
    /// read by candidate pruning on every pass.
    reader_row: Vec<f64>,
    /// The query point on the walking graph.
    source: GraphPos,
    /// The anchor scan from `source`, started by the first pass that
    /// evaluates the query and kept, with every anchor it has emitted,
    /// for the passes after it. It depends only on the query point and
    /// the world, so it stays valid across recovery.
    scan: Option<AnchorScan>,
}

impl Frontier {
    /// Registration: the reader row and the projected point; no scan yet.
    fn new(graph: &WalkingGraph, readers: &[Reader], point: Point2) -> Self {
        Frontier {
            reader_row: reader_distances(graph, readers, point),
            source: graph.project(point),
            scan: None,
        }
    }

    /// The kept scan, started on first use.
    fn scan(&mut self, graph: &WalkingGraph, anchors: &AnchorSet) -> &mut AnchorScan {
        let source = self.source;
        self.scan
            .get_or_insert_with(|| AnchorScan::new(graph, anchors, source))
    }
}

impl IndoorQuerySystem {
    /// Builds the system for a floor plan: walking graph, anchor set and a
    /// uniform reader deployment per `config`. `seed` fixes all stochastic
    /// behavior (particle filtering) for reproducibility.
    pub fn new(plan: FloorPlan, config: SystemConfig, seed: u64) -> Self {
        let graph = build_walking_graph(&plan);
        let readers = deploy_uniform(&plan, &graph, config.reader_count, config.activation_range);
        Self::assemble(plan, graph, readers, config, seed)
    }

    /// Builds the system over a given reader deployment instead of the
    /// uniform one — e.g. door-side or random placements. `readers` must
    /// be dense (`readers[i].id().index() == i`) and placed on the walking
    /// graph of `plan`; `config.reader_count` and
    /// `config.activation_range` are ignored.
    pub fn with_readers(
        plan: FloorPlan,
        readers: Vec<Reader>,
        config: SystemConfig,
        seed: u64,
    ) -> Self {
        let graph = build_walking_graph(&plan);
        Self::assemble(plan, graph, readers, config, seed)
    }

    fn assemble(
        plan: FloorPlan,
        graph: WalkingGraph,
        readers: Vec<Reader>,
        config: SystemConfig,
        seed: u64,
    ) -> Self {
        let anchors = AnchorSet::generate(&graph, &plan, config.anchor_spacing);
        let world_crc = world_fingerprint(&graph, &anchors, &readers);
        let world = Arc::new(FilterWorld::new(graph, anchors, readers));
        let recorder = Recorder::from_flag(config.observability);
        let mut collector = DataCollector::new();
        collector.set_recorder(&recorder);
        collector.set_reorder_window(config.reorder_window);
        IndoorQuerySystem {
            plan,
            world,
            world_crc,
            collector,
            cache: ParticleCache::new(),
            config,
            recorder,
            rng: StdRng::seed_from_u64(seed),
            live_index: Arc::default(),
            metrics: None,
            range_queries: BTreeMap::new(),
            knn_queries: BTreeMap::new(),
            ptknn_queries: BTreeMap::new(),
            closest_pairs_queries: BTreeMap::new(),
            next_query: 0,
            checkpoint_dir: None,
            last_ingest_second: None,
            injected_fault: None,
        }
    }

    /// The floor plan.
    pub fn plan(&self) -> &FloorPlan {
        &self.plan
    }

    /// The walking graph.
    pub fn graph(&self) -> &WalkingGraph {
        self.world.graph()
    }

    /// The anchor set.
    pub fn anchors(&self) -> &AnchorSet {
        self.world.anchors()
    }

    /// The reader deployment.
    pub fn readers(&self) -> &[Reader] {
        self.world.readers()
    }

    /// The data collector (read access).
    pub fn collector(&self) -> &DataCollector {
        &self.collector
    }

    /// The configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// Ingests pre-aggregated detections for one second.
    ///
    /// Every reader id must be below `self.readers().len()`: evaluation
    /// indexes the deployment by reader id, so an unknown id panics at the
    /// next [`IndoorQuerySystem::evaluate`]. Callers fed untrusted input
    /// check it first, as `ripq-server` does.
    pub fn ingest_detections(&mut self, second: u64, detections: &[(ObjectId, ReaderId)]) {
        self.collector.ingest_second(second, detections);
        self.note_ingest(second);
    }

    /// Ingests raw sample-level readings for one second.
    ///
    /// Every sample's reader id must be below `self.readers().len()`, as
    /// for [`IndoorQuerySystem::ingest_detections`].
    pub fn ingest_raw(&mut self, second: u64, raw: &[RawReading]) {
        self.collector.ingest_raw_second(second, raw);
        self.note_ingest(second);
    }

    /// Ingests delivery-tagged readings from a degraded transport: each
    /// `(logical_second, object, reader)` triple may arrive up to
    /// [`SystemConfig::reorder_window`] seconds after its logical second
    /// and is merged back into place; exact duplicates are discarded
    /// idempotently. Call [`IndoorQuerySystem::flush_readings_through`]
    /// with the final watermark before evaluating at the stream's end.
    pub fn ingest_delivery(
        &mut self,
        delivery_second: u64,
        readings: &[(u64, ObjectId, ReaderId)],
    ) {
        self.collector.ingest_delivery(delivery_second, readings);
        self.note_ingest(delivery_second);
    }

    /// Finalizes all buffered readings with logical second ≤ `second`
    /// (the delivery watermark), feeding them to the collector in order.
    pub fn flush_readings_through(&mut self, second: u64) {
        self.collector.flush_through(second);
    }

    /// Registers a known reader downtime window `[from, until]` with the
    /// collector: same-reader re-detections across it continue their
    /// episode instead of opening a new one.
    pub fn note_reader_outage(&mut self, reader: ReaderId, from: u64, until: u64) {
        self.collector.note_outage(reader, from, until);
    }

    /// Registers a range query. Algorithm 3's parts of the window — the
    /// covered hallway anchors with their width ratios and the intersected
    /// rooms' anchors with their area ratios — are computed now and
    /// walked by every [`IndoorQuerySystem::evaluate`].
    pub fn register_range(&mut self, window: Rect) -> Result<QueryId, RipqError> {
        let id = QueryId::new(self.next_query);
        let q = RangeQuery::new(id, window)?;
        self.next_query += 1;
        let parts = RangeParts::new(&self.plan, self.world.anchors(), &window);
        self.range_queries.insert(id, (q, parts));
        Ok(id)
    }

    /// Registers a kNN query. The query point's network distance to every
    /// reader is computed now (one Dijkstra pass) and reused by candidate
    /// pruning on every [`IndoorQuerySystem::evaluate`]. The anchor scan
    /// from the query point starts at the first evaluation and is kept:
    /// later passes re-read the anchors it reached and search only past
    /// them, and count the effort a fresh scan would spend.
    pub fn register_knn(&mut self, point: Point2, k: usize) -> Result<QueryId, RipqError> {
        let id = QueryId::new(self.next_query);
        let q = KnnQuery::new(id, point, k)?;
        self.next_query += 1;
        let frontier = Frontier::new(self.world.graph(), self.world.readers(), point);
        self.knn_queries.insert(id, (q, frontier));
        Ok(id)
    }

    /// Registers a probabilistic-threshold kNN query (Yang et al.'s
    /// PTkNN, evaluated by possible-worlds sampling). Like a kNN query, it
    /// gets its reader-distance row for candidate pruning now and keeps
    /// its anchor scan from its first evaluation on.
    pub fn register_ptknn(
        &mut self,
        point: Point2,
        k: usize,
        threshold: f64,
    ) -> Result<QueryId, RipqError> {
        let q = PtknnQuery::new(point, k, threshold)?;
        let id = QueryId::new(self.next_query);
        self.next_query += 1;
        let frontier = Frontier::new(self.world.graph(), self.world.readers(), point);
        self.ptknn_queries.insert(id, (q, frontier));
        Ok(id)
    }

    /// Registers a closest-pairs query (§6 future work).
    pub fn register_closest_pairs(
        &mut self,
        m: usize,
        contact_radius: f64,
    ) -> Result<QueryId, RipqError> {
        let id = QueryId::new(self.next_query);
        self.next_query += 1;
        self.closest_pairs_queries
            .insert(id, ClosestPairsQuery { m, contact_radius });
        Ok(id)
    }

    /// Removes a registered query.
    pub fn deregister(&mut self, id: QueryId) -> Result<(), RipqError> {
        if self.range_queries.remove(&id).is_some()
            || self.knn_queries.remove(&id).is_some()
            || self.ptknn_queries.remove(&id).is_some()
            || self.closest_pairs_queries.remove(&id).is_some()
        {
            Ok(())
        } else {
            Err(RipqError::UnknownQuery(id.raw()))
        }
    }

    /// Number of registered queries.
    pub fn query_count(&self) -> usize {
        self.range_queries.len()
            + self.knn_queries.len()
            + self.ptknn_queries.len()
            + self.closest_pairs_queries.len()
    }

    /// Runs the full pipeline at time `now`: candidate pruning →
    /// particle-filter preprocessing (with cache) → query evaluation.
    pub fn evaluate(&mut self, now: u64) -> EvaluationReport {
        self.evaluate_budgeted(now, self.config.query_budget)
    }

    /// [`IndoorQuerySystem::evaluate`] with a per-pass deadline budget
    /// overriding [`SystemConfig::query_budget`] for this call only —
    /// the hook behind per-request deadlines in the streaming server.
    /// `None` disables budgeting for the pass even when the config sets
    /// a budget; callers wanting the configured default should use
    /// [`IndoorQuerySystem::evaluate`].
    pub fn evaluate_budgeted(&mut self, now: u64, budget: Option<u64>) -> EvaluationReport {
        let clock = Clock::new(self.config.timing);
        let t_start = clock.now();
        let recorder = &self.recorder;
        let pruning = self.config.prune_candidates;
        let metrics = self
            .metrics
            .get_or_insert_with(|| PassMetrics::new(recorder, pruning));
        let objects_known = self.collector.objects().count();
        // 1. Query-aware optimization (§4.3), over one table of uncertain
        // regions. Per-rule counters record how many candidates each
        // pruning rule admitted (pre-dedup).
        let t_prune = clock.now();
        let candidates: Vec<ObjectId> = if !pruning {
            let mut c: Vec<ObjectId> = self.collector.objects().collect();
            c.sort_unstable();
            c
        } else {
            let (collector, readers) = (&self.collector, self.world.readers());
            let mut table = PruningTable::new(collector, readers, now, self.config.max_speed);
            let windows: Vec<Rect> = self.range_queries.values().map(|(q, _)| q.window).collect();
            let from_range = table.admit_range(readers, &windows);
            metrics.rule_range.add(from_range as u64);
            let mut from_knn = 0;
            for (q, frontier) in self.knn_queries.values() {
                from_knn += table.admit_knn(q.k, &frontier.reader_row);
            }
            metrics.rule_knn.add(from_knn as u64);
            // PTkNN pruning reuses the kNN bound; closest-pairs queries
            // are global and keep every object.
            let mut from_ptknn = 0;
            for (q, frontier) in self.ptknn_queries.values() {
                from_ptknn += table.admit_knn(q.k, &frontier.reader_row);
            }
            metrics.rule_ptknn.add(from_ptknn as u64);
            if self.closest_pairs_queries.is_empty() {
                table.admitted()
            } else {
                recorder.add(
                    "optimizer.candidates_rule_closest_pairs",
                    objects_known as u64,
                );
                let mut c: Vec<ObjectId> = collector.objects().collect();
                c.sort_unstable();
                c
            }
        };
        metrics.objects_known.set(objects_known as u64);
        metrics.candidates.set(candidates.len() as u64);
        let pruned = objects_known.saturating_sub(candidates.len());
        metrics.pruned.set(pruned as u64);

        let pruning = clock.since(t_prune);
        metrics.prune.record(pruning);

        // 2. Particle-filter preprocessing (§4.4) + cache (§4.5).
        // One pass seed is drawn from the master RNG; every candidate then
        // filters on its own stream derived from (pass seed, object,
        // resume timestamp), so the outcome is identical whatever
        // `config.parallelism` says.
        let t_pre = clock.now();
        let pass_seed: u64 = self.rng.random();
        let preprocessor =
            ParticlePreprocessor::new(Arc::clone(&self.world), self.config.preprocess)
                .with_metrics(&metrics.pf);
        let cache = self.config.use_cache.then_some(&mut self.cache);
        let supervision = SupervisionOptions {
            budget,
            panic_object: self.injected_fault.map(|(o, _)| o),
            panic_attempts: self.injected_fault.map_or(1, |(_, a)| a),
        };
        let (object_degradation, delta) = preprocessor.process(
            pass_seed,
            &self.collector,
            &candidates,
            now,
            cache,
            self.config.parallelism,
            &supervision,
            Arc::make_mut(&mut self.live_index),
        );
        metrics.delta_applied.add(delta.applied);
        metrics.delta_retracted.add(delta.retracted);
        metrics.delta_unchanged.add(delta.unchanged);
        let index = Arc::clone(&self.live_index);
        let preprocessing = clock.since(t_pre);
        metrics.preprocess.record(preprocessing);

        // 3. Query evaluation (§4.6). With observability on, each query
        // records a span under its algorithm's path — Algorithm 3 is
        // `range`, Algorithm 4 is `knn` — timed by the same clock as the
        // coarse timings (extra clock reads only happen when enabled, so
        // the disabled hot path is untouched).
        let obs_on = recorder.is_enabled();
        let t_eval = clock.now();
        let mut range_results = BTreeMap::new();
        for (id, (_, parts)) in &self.range_queries {
            let t_q = obs_on.then(|| clock.now());
            range_results.insert(*id, parts.evaluate(&index));
            if let Some(t_q) = t_q {
                let span = (metrics.range_query)
                    .get_or_insert_with(|| recorder.span("evaluate/queries/range"));
                span.record(clock.since(t_q));
            }
        }
        // Search effort of every distance scan in this pass.
        let mut scans = ScanCounts::default();
        let mut knn_results = BTreeMap::new();
        let (graph, anchors) = (self.world.graph(), self.world.anchors());
        for (id, (q, frontier)) in &mut self.knn_queries {
            let t_q = obs_on.then(|| clock.now());
            let scan = frontier.scan(graph, anchors);
            let rs = knn_over_scan(scan, graph, anchors, &index, q.k, &mut scans);
            knn_results.insert(*id, rs);
            if let Some(t_q) = t_q {
                let span = (metrics.knn_query)
                    .get_or_insert_with(|| recorder.span("evaluate/queries/knn"));
                span.record(clock.since(t_q));
            }
        }
        let mut ptknn_results = BTreeMap::new();
        for (id, (q, frontier)) in &mut self.ptknn_queries {
            let t_q = obs_on.then(|| clock.now());
            let rs = ptknn_over_scan(
                &mut self.rng,
                frontier.scan(graph, anchors),
                graph,
                anchors,
                &index,
                q,
                self.config.ptknn_rounds,
                &mut scans,
            );
            ptknn_results.insert(*id, rs);
            if let Some(t_q) = t_q {
                let span = (metrics.ptknn_query)
                    .get_or_insert_with(|| recorder.span("evaluate/queries/ptknn"));
                span.record(clock.since(t_q));
            }
        }
        let mut closest_pairs_results = BTreeMap::new();
        for (id, q) in &self.closest_pairs_queries {
            let t_q = obs_on.then(|| clock.now());
            let pairs = evaluate_closest_pairs_counted(graph, anchors, &index, q, &mut scans);
            closest_pairs_results.insert(*id, pairs);
            if let Some(t_q) = t_q {
                let span = (metrics.closest_pairs_query)
                    .get_or_insert_with(|| recorder.span("evaluate/queries/closest_pairs"));
                span.record(clock.since(t_q));
            }
        }

        let evaluation = clock.since(t_eval);
        metrics.queries.record(evaluation);
        metrics.scan_settled.add(scans.settled);
        metrics.scan_anchor_candidates.add(scans.anchor_candidates);

        // Cache-manager levels, mirrored as gauges from this
        // single-threaded point.
        let cache_stats = self.cache.stats();
        if obs_on {
            metrics.cache_hits.set(cache_stats.hits);
            metrics.cache_misses.set(cache_stats.misses);
            metrics.cache_invalidations.set(cache_stats.invalidations);
            metrics.cache_entries.set(self.cache.len() as u64);
        }

        let total = clock.since(t_start);
        metrics.evaluate.record(total);

        // Tag every answer with the worst degradation level among the
        // objects it reports — a query whose results only involve fully
        // filtered objects stays `Full` even if others degraded. When no
        // object degraded, every tag is `Full` without a lookup.
        let degraded = object_degradation
            .values()
            .any(|&level| level > DegradationLevel::Full);
        let tag = |objects: &mut dyn Iterator<Item = ObjectId>| -> DegradationLevel {
            let levels = objects.filter_map(|o| object_degradation.get(&o).copied());
            let worst = degraded.then(|| levels.max()).flatten();
            worst.unwrap_or(DegradationLevel::Full)
        };
        let mut degradation = BTreeMap::new();
        for (id, rs) in range_results
            .iter()
            .chain(knn_results.iter())
            .chain(ptknn_results.iter())
        {
            degradation.insert(*id, tag(&mut rs.iter().map(|(o, _)| o)));
        }
        for (id, pairs) in &closest_pairs_results {
            degradation.insert(*id, tag(&mut pairs.iter().flat_map(|p| [p.a, p.b])));
        }

        EvaluationReport {
            range_results,
            knn_results,
            ptknn_results,
            closest_pairs_results,
            index,
            candidates_processed: candidates.len(),
            objects_known,
            cache_stats,
            timings: EvaluationTimings {
                pruning,
                preprocessing,
                evaluation,
                total,
            },
            metrics: obs_on.then(|| self.recorder.snapshot()),
            degradation,
            object_degradation,
        }
    }

    /// The observability recorder — disabled (all no-ops) unless
    /// [`SystemConfig::observability`] is set. Exposed so callers can
    /// fold their own metrics into the same snapshot.
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// Configures where [`IndoorQuerySystem::checkpoint_now`] writes its
    /// snapshot.
    pub fn set_checkpoint_dir(&mut self, dir: impl Into<PathBuf>) {
        self.checkpoint_dir = Some(dir.into());
    }

    /// The configured checkpoint directory, if any.
    pub fn checkpoint_dir(&self) -> Option<&Path> {
        self.checkpoint_dir.as_deref()
    }

    /// Test support: make the particle filter of `object` panic on its
    /// first `attempts` attempts of every evaluation pass, exercising the
    /// supervised retry/quarantine path through the full facade.
    #[cfg(test)]
    pub(crate) fn inject_preprocess_fault(&mut self, object: ObjectId, attempts: usize) {
        self.injected_fault = Some((object, attempts));
    }

    /// Writes a durable snapshot of the recoverable system state to
    /// `<dir>/system.ckpt` through [`checkpoint::save`], with no section
    /// of its own. Requires a checkpoint directory; creates it if
    /// missing. Call it between seconds: the snapshot covers every second
    /// ingested so far.
    pub fn checkpoint_now(&mut self) -> Result<(), RipqError> {
        let Some(dir) = &self.checkpoint_dir else {
            return Err(RipqError::Io(
                "no checkpoint directory configured".to_string(),
            ));
        };
        checkpoint::save(self, &checkpoint::snapshot_path(dir), |_| {})
    }

    /// Attempts to restore the system from `<dir>/system.ckpt` through
    /// [`checkpoint::recover`] and makes `dir` the checkpoint directory
    /// for this run.
    ///
    /// * A missing snapshot is a clean [`RecoveryOutcome::ColdStart`].
    /// * A valid snapshot restores collector, cache, RNG, metrics and the
    ///   live index exactly; the caller then replays its reading store from
    ///   [`RecoveryOutcome::Resumed::replay_from`]. Under
    ///   [`TimingMode::Logical`] the replayed run is bit-identical to an
    ///   uninterrupted one.
    /// * A damaged snapshot (torn write, bit rot, stale format version,
    ///   one taken in a different world — floor plan, anchors or readers —
    ///   or collector state naming a reader outside this deployment or no
    ///   live collector could hold) is moved aside to
    ///   `system.ckpt.corrupt` and reported as
    ///   [`RecoveryOutcome::Quarantined`]; the system state is left
    ///   untouched for a cold rebuild.
    /// * An unreadable snapshot is an error and stays in place.
    ///
    /// Registered queries are deliberately *not* part of the snapshot:
    /// re-register them (in the same order) before or after recovering,
    /// exactly as on a cold start.
    pub fn recover(&mut self, dir: impl Into<PathBuf>) -> Result<RecoveryOutcome, RipqError> {
        let dir = dir.into();
        let path = checkpoint::snapshot_path(&dir);
        self.checkpoint_dir = Some(dir);
        Ok(checkpoint::recover(self, &path, |_| Ok(()))?.outcome())
    }

    /// Appends the recoverable state to `w` in the canonical snapshot
    /// layout: world fingerprint, watermark, collector, cache, RNG words,
    /// metrics, and the live index the next pass takes its deltas
    /// against. [`checkpoint::save`] puts it after the caller's section,
    /// because [`IndoorQuerySystem::restore_state`] consumes the rest of
    /// the reader.
    pub(crate) fn encode_state(&self, w: &mut ByteWriter) {
        w.put_u32(self.world_crc);
        w.put_opt_u64(self.last_ingest_second);
        self.collector.encode_state(w);
        self.cache.encode_state(w);
        for word in self.rng.state() {
            w.put_u64(word);
        }
        checkpoint::encode_metrics(w, &self.recorder.snapshot());
        checkpoint::encode_index(w, &self.live_index);
    }

    /// Decodes and commits state written by
    /// [`IndoorQuerySystem::encode_state`], which must fill the rest of
    /// `r`. A snapshot of a different world is
    /// [`PersistError::StaleVersion`]; everything is decoded into
    /// temporaries before any field is touched, so any error leaves the
    /// system exactly as it was. Returns the replay start second.
    pub(crate) fn restore_state(&mut self, r: &mut ByteReader<'_>) -> Result<u64, PersistError> {
        let world = r.get_u32()?;
        if world != self.world_crc {
            return Err(PersistError::StaleVersion {
                found: world,
                supported: self.world_crc,
            });
        }
        let last_ingest = r.get_opt_u64()?;
        let mut collector = DataCollector::decode_state(r, self.world.readers().len())?;
        let cache = ParticleCache::decode_state(r)?;
        let rng_state = [r.get_u64()?, r.get_u64()?, r.get_u64()?, r.get_u64()?];
        let metrics = checkpoint::decode_metrics(r)?;
        let live_index = checkpoint::decode_index(r, self.world.anchors().anchors().len())?;
        if r.remaining() != 0 {
            return Err(PersistError::Torn);
        }
        collector.set_recorder(&self.recorder);
        collector.set_reorder_window(self.config.reorder_window);
        self.collector = collector;
        self.cache = cache;
        self.rng = StdRng::from_state(rng_state);
        self.recorder.restore(&metrics);
        self.live_index = Arc::new(live_index);
        self.last_ingest_second = last_ingest;
        Ok(last_ingest.map_or(0, |s| s + 1))
    }

    /// Advances the ingest watermark.
    fn note_ingest(&mut self, second: u64) {
        self.last_ingest_second = Some(self.last_ingest_second.map_or(second, |l| l.max(second)));
    }
}

/// CRC32 over what a snapshot's contents are only meaningful against:
/// the walking graph's node and edge counts and edge lengths, the anchor
/// count, and each reader's id, position and activation range. Worker
/// count and budget stay outside it.
fn world_fingerprint(graph: &WalkingGraph, anchors: &AnchorSet, readers: &[Reader]) -> u32 {
    let mut w = ByteWriter::new();
    w.put_seq_len(graph.nodes().len());
    w.put_seq_len(graph.edges().len());
    for edge in graph.edges() {
        w.put_f64(edge.length());
    }
    w.put_seq_len(anchors.anchors().len());
    w.put_seq_len(readers.len());
    for reader in readers {
        w.put_u32(reader.id().raw());
        w.put_f64(reader.position().x);
        w.put_f64(reader.position().y);
        w.put_f64(reader.activation_range());
    }
    crc32(&w.into_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ripq_floorplan::{office_building, OfficeParams};

    fn system() -> IndoorQuerySystem {
        let plan = office_building(&OfficeParams::default()).unwrap();
        IndoorQuerySystem::new(plan, SystemConfig::default(), 7)
    }

    fn o(i: u32) -> ObjectId {
        ObjectId::new(i)
    }

    #[test]
    fn construction_matches_config() {
        let sys = system();
        assert_eq!(sys.readers().len(), 19);
        assert_eq!(sys.plan().rooms().len(), 30);
        assert!(sys.graph().is_connected());
        assert_eq!(sys.query_count(), 0);
    }

    #[test]
    fn register_and_deregister() {
        let mut sys = system();
        let r = sys.register_range(Rect::new(0.0, 9.0, 10.0, 2.0)).unwrap();
        let k = sys.register_knn(Point2::new(10.0, 10.0), 3).unwrap();
        assert_ne!(r, k);
        assert_eq!(sys.query_count(), 2);
        sys.deregister(r).unwrap();
        assert_eq!(sys.query_count(), 1);
        assert_eq!(
            sys.deregister(r).unwrap_err(),
            RipqError::UnknownQuery(r.raw())
        );
        // Validation errors propagate.
        assert!(sys.register_knn(Point2::new(0.0, 0.0), 0).is_err());
        assert!(sys.register_range(Rect::new(0.0, 0.0, 0.0, 0.0)).is_err());
    }

    #[test]
    fn frontiers_live_exactly_as_long_as_their_queries() {
        let mut sys = system();
        sys.register_range(Rect::new(0.0, 9.0, 10.0, 2.0)).unwrap();
        let k = sys.register_knn(sys.readers()[0].position(), 2).unwrap();
        let p = sys
            .register_ptknn(sys.readers()[4].position(), 1, 0.5)
            .unwrap();
        // (query, reader row length, scan started) per kept frontier.
        let frontiers = |sys: &IndoorQuerySystem| -> Vec<(QueryId, usize, bool)> {
            let knn = sys.knn_queries.iter().map(|(id, (_, f))| (*id, f));
            let ptknn = sys.ptknn_queries.iter().map(|(id, (_, f))| (*id, f));
            knn.chain(ptknn)
                .map(|(id, f)| (id, f.reader_row.len(), f.scan.is_some()))
                .collect()
        };
        let n = sys.readers().len();
        assert_eq!(
            frontiers(&sys),
            vec![(k, n, false), (p, n, false)],
            "registration starts no scan"
        );
        let reader = sys.readers()[1].id();
        sys.ingest_detections(0, &[(o(0), reader)]);
        sys.evaluate(0);
        assert_eq!(frontiers(&sys), vec![(k, n, true), (p, n, true)]);
        sys.deregister(k).unwrap();
        sys.deregister(p).unwrap();
        assert!(frontiers(&sys).is_empty());
    }

    #[test]
    fn end_to_end_range_query_finds_object() {
        let mut sys = system();
        let reader = sys.readers()[2];
        // The object pings reader 2 for a few seconds.
        for s in 0..5u64 {
            sys.ingest_detections(s, &[(o(0), reader.id())]);
        }
        // Window around that reader.
        let qid = sys
            .register_range(Rect::centered(reader.position(), 10.0, 6.0))
            .unwrap();
        let report = sys.evaluate(5);
        let rs = &report.range_results[&qid];
        assert!(
            rs.probability(o(0)) > 0.3,
            "object should very likely be in the window, got {}",
            rs.probability(o(0))
        );
        assert_eq!(report.candidates_processed, 1);
        assert_eq!(report.objects_known, 1);
    }

    #[test]
    fn end_to_end_knn_query_ranks_by_proximity() {
        let mut sys = system();
        let near = sys.readers()[0];
        let far = sys.readers()[18];
        for s in 0..3u64 {
            sys.ingest_detections(s, &[(o(0), near.id()), (o(1), far.id())]);
        }
        let qid = sys.register_knn(near.position(), 1).unwrap();
        let report = sys.evaluate(3);
        let rs = &report.knn_results[&qid];
        assert!(rs.probability(o(0)) > rs.probability(o(1)));
    }

    #[test]
    fn pruning_reduces_processed_candidates() {
        let plan = office_building(&OfficeParams::default()).unwrap();
        let mut sys = IndoorQuerySystem::new(plan, SystemConfig::default(), 7);
        // Two objects at opposite ends; a single tight window near one.
        let near = sys.readers()[0];
        let far = sys.readers()[18];
        sys.ingest_detections(0, &[(o(0), near.id()), (o(1), far.id())]);
        sys.register_range(Rect::centered(near.position(), 6.0, 4.0))
            .unwrap();
        let report = sys.evaluate(0);
        assert_eq!(report.candidates_processed, 1, "far object pruned");
        assert_eq!(report.objects_known, 2);

        // Same setup without pruning: both processed.
        let plan = office_building(&OfficeParams::default()).unwrap();
        let cfg = SystemConfig {
            prune_candidates: false,
            ..Default::default()
        };
        let mut sys2 = IndoorQuerySystem::new(plan, cfg, 7);
        sys2.ingest_detections(0, &[(o(0), near.id()), (o(1), far.id())]);
        sys2.register_range(Rect::centered(near.position(), 6.0, 4.0))
            .unwrap();
        let report2 = sys2.evaluate(0);
        assert_eq!(report2.candidates_processed, 2);
    }

    #[test]
    fn cache_hits_on_repeated_evaluation() {
        let mut sys = system();
        let reader = sys.readers()[4];
        for s in 0..3u64 {
            sys.ingest_detections(s, &[(o(0), reader.id())]);
        }
        sys.register_range(Rect::centered(reader.position(), 8.0, 6.0))
            .unwrap();
        let r1 = sys.evaluate(3);
        assert_eq!(r1.cache_stats.hits, 0);
        sys.ingest_detections(4, &[]);
        let r2 = sys.evaluate(4);
        assert!(r2.cache_stats.hits >= 1, "second evaluation reuses cache");
    }

    #[test]
    fn ptknn_through_facade() {
        let mut sys = system();
        let near = sys.readers()[0];
        let far = sys.readers()[18];
        for s in 0..3u64 {
            sys.ingest_detections(s, &[(o(0), near.id()), (o(1), far.id())]);
        }
        let qid = sys.register_ptknn(near.position(), 1, 0.5).unwrap();
        let report = sys.evaluate(3);
        let rs = &report.ptknn_results[&qid];
        assert!(rs.probability(o(0)) > 0.5, "o0 is the confident 1NN");
        assert_eq!(rs.probability(o(1)), 0.0);
    }

    #[test]
    fn closest_pairs_through_facade() {
        let mut sys = system();
        let r0 = sys.readers()[0];
        let r1 = sys.readers()[1];
        let r18 = sys.readers()[18];
        for s in 0..3u64 {
            sys.ingest_detections(s, &[(o(0), r0.id()), (o(1), r1.id()), (o(2), r18.id())]);
        }
        let qid = sys.register_closest_pairs(1, 20.0).unwrap();
        let report = sys.evaluate(3);
        let pairs = &report.closest_pairs_results[&qid];
        assert_eq!(pairs.len(), 1);
        assert_eq!((pairs[0].a, pairs[0].b), (o(0), o(1)));
        // All three objects were preprocessed (closest-pairs is global).
        assert_eq!(report.candidates_processed, 3);
    }

    #[test]
    fn logical_timings_are_bit_identical_across_runs() {
        let run = || {
            let plan = office_building(&OfficeParams::default()).unwrap();
            let cfg = SystemConfig {
                timing: TimingMode::Logical,
                ..Default::default()
            };
            let mut sys = IndoorQuerySystem::new(plan, cfg, 7);
            let reader = sys.readers()[2];
            for s in 0..3u64 {
                sys.ingest_detections(s, &[(o(0), reader.id())]);
            }
            sys.register_range(Rect::centered(reader.position(), 8.0, 6.0))
                .unwrap();
            sys.register_ptknn(reader.position(), 1, 0.5).unwrap();
            let report = sys.evaluate(3);
            (report.timings, report.ptknn_results)
        };
        let (t1, p1) = run();
        let (t2, p2) = run();
        assert_eq!(t1, t2, "logical timings must be reproducible");
        assert!(t1.total >= t1.evaluation);
        let flat = |m: &BTreeMap<QueryId, ResultSet>| -> Vec<(QueryId, Vec<(ObjectId, f64)>)> {
            m.iter()
                .map(|(id, rs)| (*id, rs.iter().collect()))
                .collect()
        };
        assert_eq!(flat(&p1), flat(&p2), "PTkNN sampling must be reproducible");
    }

    #[test]
    fn observability_snapshot_covers_pipeline_stages() {
        let plan = office_building(&OfficeParams::default()).unwrap();
        let cfg = SystemConfig {
            observability: true,
            timing: TimingMode::Logical,
            ..Default::default()
        };
        let mut sys = IndoorQuerySystem::new(plan, cfg, 7);
        let near = sys.readers()[0];
        let far = sys.readers()[18];
        for s in 0..4u64 {
            sys.ingest_detections(s, &[(o(0), near.id()), (o(1), far.id())]);
        }
        sys.register_range(Rect::centered(near.position(), 8.0, 6.0))
            .unwrap();
        sys.register_knn(near.position(), 1).unwrap();
        let report = sys.evaluate(4);
        let snap = report.metrics.expect("observability on → snapshot");
        let stages = snap.stages();
        for stage in [
            "collector",
            "optimizer",
            "pf",
            "cache",
            "distance",
            "evaluate",
        ] {
            assert!(
                stages.iter().any(|s| s == stage),
                "missing {stage}: {stages:?}"
            );
        }
        assert_eq!(snap.counters["collector.detections"], 8);
        assert!(snap.counters["pf.sir_iterations"] > 0);
        assert!(snap.histograms["pf.ess"].count > 0, "ESS observed");
        assert!(snap.spans.contains_key("evaluate/queries/range"));
        assert!(snap.spans.contains_key("evaluate/queries/knn"));
        assert_eq!(snap.spans["evaluate"].count, 1);
        // Off by default: no snapshot, and the recorder is inert.
        let plan = office_building(&OfficeParams::default()).unwrap();
        let mut off = IndoorQuerySystem::new(plan, SystemConfig::default(), 7);
        off.ingest_detections(0, &[(o(0), near.id())]);
        assert!(!off.recorder().is_enabled());
        assert!(off.evaluate(0).metrics.is_none());
    }

    /// Deterministic per-second detections: objects hop readers on fixed
    /// schedules, one object blinks in and out.
    fn detections(ids: &[ReaderId], s: u64) -> Vec<(ObjectId, ReaderId)> {
        let n = ids.len() as u64;
        let mut v = vec![
            (o(0), ids[((s / 3) % n) as usize]),
            (o(1), ids[((s / 4 + 5) % n) as usize]),
        ];
        if s.is_multiple_of(2) {
            v.push((o(2), ids[((s / 5 + 9) % n) as usize]));
        }
        v
    }

    fn register_recovery_queries(sys: &mut IndoorQuerySystem) {
        sys.register_range(Rect::centered(sys.readers()[2].position(), 10.0, 8.0))
            .unwrap();
        sys.register_knn(sys.readers()[0].position(), 2).unwrap();
        sys.register_ptknn(sys.readers()[4].position(), 1, 0.3)
            .unwrap();
    }

    /// Ingests seconds `from..=to`, evaluating at the fixed schedule;
    /// returns the last report.
    fn drive(sys: &mut IndoorQuerySystem, from: u64, to: u64) -> Option<EvaluationReport> {
        let ids: Vec<ReaderId> = sys.readers().iter().map(|r| r.id()).collect();
        let mut last = None;
        for s in from..=to {
            let d = detections(&ids, s);
            sys.ingest_detections(s, &d);
            if [5, 9, 12].contains(&s) {
                last = Some(sys.evaluate(s));
            }
        }
        last
    }

    /// Canonical rendering of a report for byte-compare: result
    /// probabilities as exact f64 bits plus the metrics snapshot with the
    /// run-shape-dependent `recovery.*` counters stripped.
    fn render(report: &EvaluationReport) -> String {
        let mut out = String::new();
        for (id, rs) in report
            .range_results
            .iter()
            .chain(&report.knn_results)
            .chain(&report.ptknn_results)
        {
            out.push_str(&format!("q{}:", id.raw()));
            for (obj, p) in rs.iter() {
                out.push_str(&format!(" {}={:016x}", obj.raw(), p.to_bits()));
            }
            out.push('\n');
        }
        let mut snap = report.metrics.clone().expect("observability on");
        snap.counters.retain(|k, _| !k.starts_with("recovery."));
        out + &snap.to_json()
    }

    fn ckpt_cfg() -> SystemConfig {
        SystemConfig {
            timing: TimingMode::Logical,
            observability: true,
            ..Default::default()
        }
    }

    fn temp_ckpt_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("ripq_core_ckpt_{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn recover_reproduces_an_uninterrupted_run_bit_for_bit() {
        let dir = temp_ckpt_dir("resume");
        // Baseline: same config, no checkpoint IO, run straight through.
        let plan = office_building(&OfficeParams::default()).unwrap();
        let mut base = IndoorQuerySystem::new(plan, ckpt_cfg(), 7);
        register_recovery_queries(&mut base);
        let golden = render(&drive(&mut base, 0, 12).unwrap());

        // Life 1: checkpoint before second 4 (covers 0..=3), then die
        // after ingesting second 6.
        let plan = office_building(&OfficeParams::default()).unwrap();
        let mut life1 = IndoorQuerySystem::new(plan, ckpt_cfg(), 7);
        life1.set_checkpoint_dir(&dir);
        register_recovery_queries(&mut life1);
        drive(&mut life1, 0, 3);
        life1.checkpoint_now().unwrap();
        drive(&mut life1, 4, 6);
        drop(life1);

        // Life 2: recover and replay the reading-store suffix.
        let plan = office_building(&OfficeParams::default()).unwrap();
        let mut life2 = IndoorQuerySystem::new(plan, ckpt_cfg(), 7);
        let outcome = life2.recover(&dir).unwrap();
        assert_eq!(outcome, RecoveryOutcome::Resumed { replay_from: 4 });
        register_recovery_queries(&mut life2);
        let recovered = render(&drive(&mut life2, 4, 12).unwrap());

        assert_eq!(golden, recovered, "recovered run must be bit-identical");
        let resumed = life2.recorder().snapshot().counters["recovery.resumed"];
        assert_eq!(resumed, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn damaged_checkpoint_is_quarantined_and_rebuilt_cold() {
        let dir = temp_ckpt_dir("corrupt");
        let plan = office_building(&OfficeParams::default()).unwrap();
        let mut base = IndoorQuerySystem::new(plan, ckpt_cfg(), 7);
        register_recovery_queries(&mut base);
        let golden = render(&drive(&mut base, 0, 12).unwrap());

        let plan = office_building(&OfficeParams::default()).unwrap();
        let mut life1 = IndoorQuerySystem::new(plan, ckpt_cfg(), 7);
        life1.set_checkpoint_dir(&dir);
        register_recovery_queries(&mut life1);
        drive(&mut life1, 0, 3);
        life1.checkpoint_now().unwrap();
        drive(&mut life1, 4, 6);
        drop(life1);

        // Flip one payload bit in the snapshot.
        let path = checkpoint::snapshot_path(&dir);
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();

        let plan = office_building(&OfficeParams::default()).unwrap();
        let mut life2 = IndoorQuerySystem::new(plan, ckpt_cfg(), 7);
        match life2.recover(&dir).unwrap() {
            RecoveryOutcome::Quarantined { path: moved } => {
                assert!(moved.to_string_lossy().ends_with(".corrupt"));
                assert!(moved.exists());
            }
            other => panic!("expected quarantine, got {other:?}"),
        }
        assert!(!path.exists(), "damaged file moved aside");
        assert_eq!(
            life2.recorder().snapshot().counters["recovery.quarantined"],
            1
        );
        // Cold rebuild: replay the full reading store and match the
        // uninterrupted run exactly.
        register_recovery_queries(&mut life2);
        let rebuilt = render(&drive(&mut life2, 0, 12).unwrap());
        assert_eq!(golden, rebuilt, "cold rebuild must still be exact");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recover_with_no_snapshot_is_a_cold_start() {
        let dir = temp_ckpt_dir("cold");
        std::fs::create_dir_all(&dir).unwrap();
        let mut sys = system();
        assert_eq!(sys.recover(&dir).unwrap(), RecoveryOutcome::ColdStart);
        assert_eq!(sys.checkpoint_dir(), Some(dir.as_path()));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_now_without_dir_is_a_clean_error() {
        let mut sys = system();
        match sys.checkpoint_now() {
            Err(RipqError::Io(msg)) => assert!(msg.contains("no checkpoint directory")),
            other => panic!("expected Io error, got {other:?}"),
        }
    }

    #[test]
    fn query_budget_degrades_answers_and_tags_queries() {
        let plan = office_building(&OfficeParams::default()).unwrap();
        let cfg = SystemConfig {
            timing: TimingMode::Logical,
            prune_candidates: false,
            query_budget: Some(150),
            ..Default::default()
        };
        let mut sys = IndoorQuerySystem::new(plan, cfg, 7);
        let ids: Vec<ReaderId> = sys.readers().iter().map(|r| r.id()).collect();
        for s in 0..=5u64 {
            let d = detections(&ids, s);
            sys.ingest_detections(s, &d);
        }
        // A window covering the whole floor: every object answers, so
        // every degradation level is visible through the query tag.
        let qid = sys
            .register_range(Rect::new(-100.0, -100.0, 400.0, 400.0))
            .unwrap();
        let report = sys.evaluate(8);
        assert!(
            report
                .object_degradation
                .values()
                .any(|l| *l > DegradationLevel::Full),
            "budget 150 must degrade at least one object: {:?}",
            report.object_degradation
        );
        assert_eq!(
            report.degradation[&qid],
            report.object_degradation.values().copied().max().unwrap(),
            "query tag is the worst level among answering objects"
        );
        // Degraded answers are still proper distributions.
        for obj in report.object_degradation.keys() {
            let total = report.index.total_probability(obj);
            assert!((total - 1.0).abs() < 1e-9, "object {obj:?}: {total}");
        }
    }

    #[test]
    fn injected_pf_fault_is_quarantined_through_the_facade() {
        let plan = office_building(&OfficeParams::default()).unwrap();
        let cfg = SystemConfig {
            timing: TimingMode::Logical,
            prune_candidates: false,
            observability: true,
            ..Default::default()
        };
        let mut sys = IndoorQuerySystem::new(plan, cfg, 7);
        let ids: Vec<ReaderId> = sys.readers().iter().map(|r| r.id()).collect();
        for s in 0..=4u64 {
            let d = detections(&ids, s);
            sys.ingest_detections(s, &d);
        }
        let qid = sys
            .register_range(Rect::new(-100.0, -100.0, 400.0, 400.0))
            .unwrap();
        sys.inject_preprocess_fault(o(0), usize::MAX);
        let report = sys.evaluate(6);
        assert_eq!(
            report.object_degradation[&o(0)],
            DegradationLevel::Quarantined
        );
        assert_eq!(report.degradation[&qid], DegradationLevel::Quarantined);
        // The quarantined object still gets a (fallback) answer.
        let total = report.index.total_probability(&o(0));
        assert!((total - 1.0).abs() < 1e-9, "fallback distribution: {total}");
        let snap = report.metrics.unwrap();
        assert!(snap.counters["degrade.quarantined"] >= 1);
        assert!(snap.counters["degrade.pf_panics"] >= 1);
    }

    #[test]
    fn evaluation_with_no_queries_is_cheap_and_empty() {
        let mut sys = system();
        sys.ingest_detections(0, &[(o(0), sys.readers()[0].id())]);
        let report = sys.evaluate(0);
        assert!(report.range_results.is_empty());
        assert!(report.knn_results.is_empty());
        assert_eq!(
            report.candidates_processed, 0,
            "no queries → nothing preprocessed"
        );
    }
}

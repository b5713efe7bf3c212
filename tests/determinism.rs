//! Reproducibility: the whole stack is a pure function of its seeds.

use ripq::core::{EvaluationReport, IndoorQuerySystem, SystemConfig, TimingMode};
use ripq::floorplan::{office_building, OfficeParams};
use ripq::geom::Rect;
use ripq::graph::{build_walking_graph, AnchorObjectIndex, AnchorSet};
use ripq::obs::Recorder;
use ripq::persist::ByteWriter;
use ripq::pf::{
    available_cores, jobs_published, DegradationLevel, FilterWorld, ParticleCache,
    ParticlePreprocessor, PfMetrics, PreprocessorConfig, SupervisionOptions,
};
use ripq::rfid::{deploy_uniform, DataCollector, ObjectId};
use ripq::sim::{Experiment, ExperimentParams};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};

#[test]
fn experiments_reproduce_bit_for_bit() {
    let params = ExperimentParams::smoke();
    let a = Experiment::new(params).run();
    let b = Experiment::new(params).run();
    assert_eq!(a, b);
}

#[test]
fn different_seeds_differ() {
    let a = Experiment::new(ExperimentParams::smoke()).run();
    let b = Experiment::new(ExperimentParams {
        seed: 12345,
        ..ExperimentParams::smoke()
    })
    .run();
    assert_ne!(a, b, "different seeds should yield different metrics");
}

#[test]
fn system_facade_reproduces_under_fixed_seed() {
    let run = || {
        let plan = office_building(&OfficeParams::default()).unwrap();
        let mut sys = IndoorQuerySystem::new(plan, SystemConfig::default(), 77);
        let r0 = sys.readers()[0];
        let r1 = sys.readers()[1];
        let o = ObjectId::new(0);
        for s in 0..6u64 {
            sys.ingest_detections(s, &[(o, r0.id())]);
        }
        for s in 6..14u64 {
            let _ = r1;
            sys.ingest_detections(s, &[]);
        }
        let q = sys
            .register_range(Rect::centered(r0.position(), 14.0, 10.0))
            .unwrap();
        let report = sys.evaluate(14);
        report.range_results[&q].probability(o)
    };
    let p1 = run();
    let p2 = run();
    assert_eq!(p1, p2);
}

/// Runs `objects` objects through the system facade under the given
/// config: each pings a reader every second of `0..now`, moving on by
/// `step` readers a second, then one pass evaluates a range, a kNN and a
/// PTkNN query at `now`.
fn evaluate_workload(config: SystemConfig, objects: u32, step: u32, now: u64) -> EvaluationReport {
    let plan = office_building(&OfficeParams::default()).unwrap();
    let mut sys = IndoorQuerySystem::new(plan, config, 4242);
    let reader_ids: Vec<_> = sys.readers().iter().map(|r| r.id()).collect();
    for s in 0..now {
        let det: Vec<_> = (0..objects)
            .map(|i| {
                (
                    ObjectId::new(i),
                    reader_ids[((i + step * s as u32) % reader_ids.len() as u32) as usize],
                )
            })
            .collect();
        sys.ingest_detections(s, &det);
    }
    let center = sys.plan().bounds().center();
    sys.register_range(Rect::centered(center, 16.0, 12.0))
        .unwrap();
    sys.register_knn(center, 3).unwrap();
    sys.register_ptknn(center, 3, 0.2).unwrap();
    sys.evaluate(now)
}

/// 12 objects pinging a rotating subset of readers for 16 seconds: a
/// small pass (about 12 K particle-seconds), which with no forced worker
/// count still fans out over every core.
fn evaluate_with_config(config: SystemConfig) -> EvaluationReport {
    evaluate_workload(config, 12, 1, 16)
}

/// Runs a fixed workload through the system facade at the given
/// preprocessing parallelism and returns its evaluation report.
fn evaluate_with_parallelism(parallelism: Option<usize>) -> EvaluationReport {
    evaluate_with_config(SystemConfig {
        parallelism,
        ..SystemConfig::default()
    })
}

/// Asserts that two reports answer identically: exact f64 equality on
/// every query result and every `APtoObjHT` distribution, not tolerance.
fn assert_same_answers(baseline: &EvaluationReport, other: &EvaluationReport, what: &str) {
    assert_eq!(
        baseline.range_results, other.range_results,
        "range results diverge at {what}"
    );
    assert_eq!(
        baseline.knn_results, other.knn_results,
        "kNN results diverge at {what}"
    );
    assert_eq!(
        baseline.ptknn_results, other.ptknn_results,
        "PTkNN results diverge at {what}"
    );
    assert_eq!(baseline.candidates_processed, other.candidates_processed);
    assert_eq!(baseline.index.object_count(), other.index.object_count());
    for o in baseline.index.objects() {
        assert_eq!(
            baseline.index.distribution(o),
            other.index.distribution(o),
            "index distribution for {o:?} diverges at {what}"
        );
    }
}

#[test]
fn parallel_evaluation_matches_sequential_bit_for_bit() {
    let baseline = evaluate_with_parallelism(None);
    assert!(
        baseline.candidates_processed > 0,
        "workload must be non-trivial"
    );
    for workers in [1usize, 2, 4] {
        // The parallel path must replay the sequential RNG streams
        // verbatim.
        let parallel = evaluate_with_parallelism(Some(workers));
        assert_same_answers(&baseline, &parallel, &format!("{workers} workers"));
    }
}

/// One large pass: 48 objects, each seen by one reader for 30 s and all
/// filtered (pruning off), cold, at second 30. Logical timing and
/// observability on, so the report carries a byte-stable metrics
/// snapshot.
fn large_pass(parallelism: Option<usize>) -> EvaluationReport {
    let config = SystemConfig {
        parallelism,
        prune_candidates: false,
        timing: TimingMode::Logical,
        observability: true,
        ..SystemConfig::default()
    };
    evaluate_workload(config, 48, 0, 30)
}

/// With no forced worker count a large pass runs on every core of the
/// machine. It must answer, and count, exactly as one worker and four
/// workers do.
#[test]
fn large_default_pass_matches_forced_workers_bit_for_bit() {
    let auto = large_pass(None);
    let json = auto.metrics.as_ref().expect("observability on").to_json();
    for workers in [1usize, 4] {
        let forced = large_pass(Some(workers));
        assert_same_answers(&auto, &forced, &format!("{workers} forced workers"));
        assert_eq!(
            json,
            forced.metrics.expect("observability on").to_json(),
            "snapshot JSON diverges at {workers} forced workers"
        );
    }
}

#[test]
fn parallel_experiment_matches_sequential_end_to_end() {
    let sequential = Experiment::new(ExperimentParams::smoke()).run();
    let parallel = Experiment::new(ExperimentParams {
        parallelism: Some(4),
        ..ExperimentParams::smoke()
    })
    .run();
    assert_eq!(sequential, parallel);
}

/// Runs the shared workload with observability on and logical timing and
/// returns the rendered metrics snapshot.
fn metrics_json_with_parallelism(parallelism: Option<usize>) -> String {
    let report = evaluate_with_config(SystemConfig {
        parallelism,
        timing: TimingMode::Logical,
        observability: true,
        ..SystemConfig::default()
    });
    report
        .metrics
        .expect("observability on yields a snapshot")
        .to_json()
}

/// Under `TimingMode::Logical` the metrics snapshot — span durations
/// included — is part of the determinism contract: byte-identical JSON
/// across repeated runs *and* across preprocessing worker counts.
#[test]
fn metrics_snapshot_json_is_byte_identical_across_runs_and_workers() {
    let baseline = metrics_json_with_parallelism(None);
    assert!(
        baseline.contains("\"pf."),
        "snapshot must cover the particle-filter stage:\n{baseline}"
    );
    assert_eq!(
        baseline,
        metrics_json_with_parallelism(None),
        "sequential rerun drifted"
    );
    for workers in [1usize, 2, 4] {
        for run in 0..2 {
            assert_eq!(
                baseline,
                metrics_json_with_parallelism(Some(workers)),
                "snapshot JSON diverges at {workers} workers (run {run})"
            );
        }
    }
}

#[test]
fn floor_plan_and_graph_construction_deterministic() {
    let p1 = office_building(&OfficeParams::default()).unwrap();
    let p2 = office_building(&OfficeParams::default()).unwrap();
    let g1 = ripq::graph::build_walking_graph(&p1);
    let g2 = ripq::graph::build_walking_graph(&p2);
    assert_eq!(g1.nodes().len(), g2.nodes().len());
    assert_eq!(g1.edges().len(), g2.edges().len());
    for (a, b) in g1.nodes().iter().zip(g2.nodes()) {
        assert_eq!(a.position, b.position);
        assert_eq!(a.kind, b.kind);
    }
    let a1 = ripq::graph::AnchorSet::generate(&g1, &p1, 1.0);
    let a2 = ripq::graph::AnchorSet::generate(&g2, &p2, 1.0);
    assert_eq!(a1.anchors().len(), a2.anchors().len());
}

/// One preprocessing "system" driven directly: a world, a config, a
/// cache, an index and a recorder of its own. `objects` objects ping
/// rotating readers for `seconds` seconds; object 0 keeps pinging one
/// reader, so its fresh start replays the longest.
struct PfSystem {
    pre: ParticlePreprocessor,
    recorder: Recorder,
    collector: DataCollector,
    cache: ParticleCache,
    index: AnchorObjectIndex<ObjectId>,
    objects: Vec<ObjectId>,
}

impl PfSystem {
    fn new(objects: u32, seconds: u64, step: u32) -> Self {
        let plan = office_building(&OfficeParams::default()).unwrap();
        let graph = build_walking_graph(&plan);
        let anchors = AnchorSet::generate(&graph, &plan, 1.0);
        let readers = deploy_uniform(&plan, &graph, 19, 2.0);
        let ids: Vec<_> = readers.iter().map(|r| r.id()).collect();
        let mut collector = DataCollector::new();
        for s in 0..seconds {
            let det: Vec<_> = (0..objects)
                .map(|i| {
                    let turn = if i == 0 { 0 } else { i + step * s as u32 };
                    (ObjectId::new(i), ids[turn as usize % ids.len()])
                })
                .collect();
            collector.ingest_second(s, &det);
        }
        let recorder = Recorder::enabled();
        let world = Arc::new(FilterWorld::new(graph, anchors, readers));
        let pre = ParticlePreprocessor::new(world, PreprocessorConfig::default())
            .with_metrics(&PfMetrics::new(&recorder));
        PfSystem {
            pre,
            recorder,
            collector,
            cache: ParticleCache::new(),
            index: AnchorObjectIndex::new(),
            objects: (0..objects).map(ObjectId::new).collect(),
        }
    }

    /// One pass over every object at `now`.
    fn pass(
        &mut self,
        seed: u64,
        now: u64,
        parallelism: Option<usize>,
        options: &SupervisionOptions,
    ) -> std::collections::BTreeMap<ObjectId, DegradationLevel> {
        let (levels, _) = self.pre.process(
            seed,
            &self.collector,
            &self.objects,
            now,
            Some(&mut self.cache),
            parallelism,
            options,
            &mut self.index,
        );
        levels
    }

    /// Several passes, each resuming the cache of the one before; returns
    /// the index after every pass, the cache's snapshot bytes and the
    /// metrics JSON.
    fn run(mut self, seed: u64, parallelism: Option<usize>) -> PfRun {
        let options = SupervisionOptions::default();
        let start = self.collector.current_second().unwrap_or(0);
        let indexes = (0..4)
            .map(|k| {
                self.pass(seed + k, start + 2 * k, parallelism, &options);
                self.index.clone()
            })
            .collect();
        let mut bytes = ByteWriter::new();
        self.cache.encode_state(&mut bytes);
        PfRun {
            indexes,
            cache: bytes.into_bytes(),
            metrics: self.recorder.snapshot().to_json(),
        }
    }
}

#[derive(Debug, PartialEq)]
struct PfRun {
    indexes: Vec<AnchorObjectIndex<ObjectId>>,
    cache: Vec<u8>,
    metrics: String,
}

/// Two systems filtering on two threads at once share the one helper
/// pool; each must answer, cache and count exactly as it does alone.
#[test]
fn concurrent_systems_match_their_solo_runs() {
    let a = || PfSystem::new(24, 40, 1);
    let b = || PfSystem::new(17, 25, 3);
    let solo_a = a().run(11, None);
    let solo_b = b().run(12, None);
    let barrier = Barrier::new(2);
    let (together_a, together_b) = std::thread::scope(|s| {
        let run_a = s.spawn(|| {
            let system = a();
            barrier.wait();
            system.run(11, None)
        });
        let system = b();
        barrier.wait();
        let together_b = system.run(12, None);
        (run_a.join().expect("system A's thread"), together_b)
    });
    assert_eq!(solo_a, together_a, "system A moved beside system B");
    assert_eq!(solo_b, together_b, "system B moved beside system A");
    assert_eq!(solo_a, PfSystem::new(24, 40, 1).run(11, Some(1)));
}

/// A persistently panicking object is quarantined, and one that panics
/// once is retried, whether a helper or the calling thread runs it; the
/// pool serves the next pass. Object 0 replays its long single-reader
/// history first, so the calling thread is busy with it while a helper
/// takes the next-longest run, the victim's. Where the victim ran is
/// read off the panic hook's thread name.
#[test]
fn panics_on_helpers_are_retried_and_quarantined_as_on_the_caller() {
    let on_helper = Arc::new(AtomicUsize::new(0));
    let seen = Arc::clone(&on_helper);
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let helper = std::thread::current()
            .name()
            .is_some_and(|n| n.starts_with("ripq-pf-helper"));
        if helper && info.to_string().contains("injected particle-filter fault") {
            seen.fetch_add(1, Ordering::SeqCst);
        }
        default_hook(info);
    }));
    // Every object but 0 rotates readers each second; object 1, whose
    // episodes are longest after object 0's, is the victim.
    let victim = ObjectId::new(1);
    let mut results = Vec::new();
    for (attempts, level) in [
        (usize::MAX, DegradationLevel::Quarantined),
        (1, DegradationLevel::Full),
    ] {
        let options = SupervisionOptions {
            panic_object: Some(victim),
            panic_attempts: attempts,
            ..SupervisionOptions::default()
        };
        let mut alone = PfSystem::new(12, 300, 2);
        let expected = alone.pass(5, 300, Some(1), &options);
        assert_eq!(expected[&victim], level);
        // Repeat until a helper took the victim, or give up on a host
        // too busy to wake one.
        for _ in 0..20 {
            let mut shared = PfSystem::new(12, 300, 2);
            let levels = shared.pass(5, 300, None, &options);
            assert_eq!(levels, expected, "{attempts} panicking attempts");
            assert_eq!(shared.index, alone.index);
            assert_eq!(shared.cache.stats(), alone.cache.stats());
            // The next pass on the same pool still answers everything.
            let clean = shared.pass(6, 302, None, &SupervisionOptions::default());
            assert_eq!(clean.len(), 12);
            assert!(clean.values().all(|&l| l == DegradationLevel::Full));
            if on_helper.load(Ordering::SeqCst) > 0 {
                break;
            }
        }
        results.push(on_helper.swap(0, Ordering::SeqCst));
    }
    // Back to the default hook.
    drop(std::panic::take_hook());
    if available_cores() > 1 {
        assert!(
            results.iter().all(|&n| n > 0),
            "no injected panic ran on a helper: {results:?}"
        );
    }
}

/// A pass of one run never publishes a job to the helper pool; a pass of
/// two does, on a machine with more than one core.
#[test]
fn a_pass_with_one_run_publishes_no_job() {
    let mut system = PfSystem::new(2, 10, 1);
    let options = SupervisionOptions::default();
    let before = jobs_published();
    let (levels, _) = system.pre.process(
        1,
        &system.collector,
        &system.objects[..1],
        10,
        None,
        None,
        &options,
        &mut system.index,
    );
    assert_eq!(levels.len(), 1);
    assert_eq!(jobs_published(), before, "a one-run pass published a job");
    system.pass(2, 10, None, &options);
    let expected = before + u64::from(available_cores() > 1);
    assert_eq!(jobs_published(), expected);
}

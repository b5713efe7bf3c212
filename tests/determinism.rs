//! Reproducibility: the whole stack is a pure function of its seeds.

use ripq::core::{EvaluationReport, IndoorQuerySystem, SystemConfig, TimingMode};
use ripq::floorplan::{office_building, OfficeParams};
use ripq::geom::Rect;
use ripq::pf::FAN_OUT_WORK;
use ripq::rfid::ObjectId;
use ripq::sim::{Experiment, ExperimentParams};

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

/// 12 objects pinging a rotating subset of readers for 16 seconds. Its
/// pass plans about 12 K particle-seconds, below `FAN_OUT_WORK`, so with
/// no forced worker count it stays on the calling thread.
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

/// One pass large enough to fan out with no forced worker count: 48
/// objects, each seen by one reader for 30 s and all filtered (pruning
/// off), cold, at second 30. Logical timing and observability on, so the
/// report carries a byte-stable metrics snapshot.
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

/// With no forced worker count a pass that plans at least `FAN_OUT_WORK`
/// particle-seconds runs on every core of the machine. It must answer,
/// and count, exactly as one worker and four workers do.
#[test]
fn large_default_pass_matches_forced_workers_bit_for_bit() {
    let auto = large_pass(None);
    let metrics = auto.metrics.as_ref().expect("observability on");
    // A cold pass at full level simulates exactly its planned seconds.
    let planned = metrics.counters["pf.sir_iterations"]
        * SystemConfig::default().preprocess.num_particles as u64;
    assert!(
        planned >= FAN_OUT_WORK,
        "the pass plans {planned} particle-seconds, below {FAN_OUT_WORK}"
    );
    let json = metrics.to_json();
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

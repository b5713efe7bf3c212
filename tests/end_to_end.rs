//! End-to-end integration: simulator → readings → collector → particle
//! filter → query evaluation, asserting the paper's qualitative results.

use rand::rngs::StdRng;
use rand::SeedableRng;
use ripq::core::{
    evaluate_knn, evaluate_range, IndoorQuerySystem, KnnQuery, QueryId, SystemConfig,
};
use ripq::geom::Rect;
use ripq::rfid::ObjectId;
use ripq::sim::{
    metrics, Experiment, ExperimentParams, GroundTruth, ReadingGenerator, SimWorld, TraceGenerator,
};

/// The system over a simulated world's plan and readers, preprocessing
/// every known object on each evaluation.
fn system_over(w: &SimWorld, seed: u64) -> IndoorQuerySystem {
    let config = SystemConfig {
        prune_candidates: false,
        ..SystemConfig::default()
    };
    IndoorQuerySystem::with_readers(w.plan.clone(), w.readers.clone(), config, seed)
}

/// The headline result (§5): the particle-filter method beats the symbolic
/// baseline on both range-KL and kNN hit rate at (reduced-scale) Table-2
/// parameters.
#[test]
fn particle_filter_beats_symbolic_baseline() {
    let params = ExperimentParams {
        num_objects: 50,
        duration: 220,
        warmup: 60,
        eval_timestamps: 8,
        range_queries_per_timestamp: 40,
        knn_query_points: 10,
        ..Default::default()
    };
    let report = Experiment::new(params).run();
    assert!(
        report.range_kl_pf < report.range_kl_sm,
        "range KL: PF {} !< SM {}",
        report.range_kl_pf,
        report.range_kl_sm
    );
    assert!(
        report.knn_hit_pf > report.knn_hit_sm,
        "kNN hit: PF {} !> SM {}",
        report.knn_hit_pf,
        report.knn_hit_sm
    );
    assert!(report.top1_success > 0.5, "top-1 {}", report.top1_success);
    assert!(report.top2_success > report.top1_success);
}

/// Range-query probabilities reported for a single object never exceed 1,
/// and the whole-building window recovers (almost) all of its mass.
#[test]
fn range_probabilities_are_calibrated() {
    let params = ExperimentParams::smoke();
    let w = SimWorld::build(&params);
    let mut rng_trace = StdRng::seed_from_u64(1);
    let mut rng_sense = StdRng::seed_from_u64(2);
    let traces =
        TraceGenerator::new(8.0).generate(&mut rng_trace, &w.graph, w.plan.rooms().len(), 20, 150);
    let gen = ReadingGenerator::new(&w.graph, &w.readers, params.sensing);
    let objects: Vec<_> = traces.iter().map(|t| t.object).collect();
    let mut system = system_over(&w, 3);
    for s in 0..=150u64 {
        let det = gen.detections_at(&mut rng_sense, &traces, s);
        system.ingest_detections(s, &det);
    }
    let index = system.evaluate(150).index;

    let whole = evaluate_range(&w.plan, &w.anchors, &index, &w.plan.bounds());
    for (o, p) in whole.iter() {
        assert!(p <= 1.0 + 1e-9, "{o} has p = {p} > 1");
        assert!(p >= 0.0);
    }
    // Objects that were processed should be found somewhere in the
    // building with high total probability.
    let found: Vec<_> = objects
        .iter()
        .filter(|o| index.distribution(o).is_some())
        .collect();
    assert!(!found.is_empty());
    for o in found {
        assert!(
            whole.probability(*o) > 0.9,
            "{o} only has {} of its mass in the building",
            whole.probability(*o)
        );
    }
}

/// The kNN result set's total probability always reaches k (when at least
/// k objects exist), per Algorithm 4's stopping rule.
#[test]
fn knn_total_probability_reaches_k() {
    let params = ExperimentParams::smoke();
    let w = SimWorld::build(&params);
    let mut rng_trace = StdRng::seed_from_u64(4);
    let mut rng_sense = StdRng::seed_from_u64(5);
    let traces =
        TraceGenerator::new(8.0).generate(&mut rng_trace, &w.graph, w.plan.rooms().len(), 15, 120);
    let gen = ReadingGenerator::new(&w.graph, &w.readers, params.sensing);
    let mut system = system_over(&w, 6);
    for s in 0..=120u64 {
        let det = gen.detections_at(&mut rng_sense, &traces, s);
        system.ingest_detections(s, &det);
    }
    let index = system.evaluate(120).index;
    let processed = index.object_count();
    assert!(processed >= 5, "need a populated index, got {processed}");

    for k in [1usize, 2, 4] {
        let q = KnnQuery::new(QueryId::new(0), w.plan.bounds().center(), k).unwrap();
        let rs = evaluate_knn(&w.graph, &w.anchors, &index, &q);
        assert!(
            rs.total_probability() >= (k.min(processed)) as f64 - 1e-6,
            "k={k}: total {}",
            rs.total_probability()
        );
        assert!(rs.len() >= k.min(processed));
    }
}

/// The ground-truth kNN and the PF kNN agree well when every object was
/// recently detected (fresh readings everywhere).
#[test]
fn knn_matches_truth_on_fresh_readings() {
    let params = ExperimentParams {
        num_objects: 30,
        duration: 180,
        ..ExperimentParams::smoke()
    };
    let w = SimWorld::build(&params);
    let mut rng_trace = StdRng::seed_from_u64(7);
    let mut rng_sense = StdRng::seed_from_u64(8);
    let traces = TraceGenerator::new(5.0).generate(
        &mut rng_trace,
        &w.graph,
        w.plan.rooms().len(),
        params.num_objects,
        params.duration,
    );
    let gen = ReadingGenerator::new(&w.graph, &w.readers, params.sensing);
    let gt = GroundTruth::new(&w.graph, &traces);
    let mut system = system_over(&w, 9);
    let mut hits = metrics::Mean::default();
    for s in 0..=params.duration {
        let det = gen.detections_at(&mut rng_sense, &traces, s);
        system.ingest_detections(s, &det);
        if s < 60 || s % 30 != 0 {
            continue;
        }
        let index = system.evaluate(s).index;
        let q_point = w.plan.hallways()[1].footprint().center();
        let truth = gt.knn(q_point, 3, s);
        let q = KnnQuery::new(QueryId::new(0), q_point, 3).unwrap();
        let rs = evaluate_knn(&w.graph, &w.anchors, &index, &q);
        hits.push(metrics::knn_hit_rate(rs.objects(), &truth, 3));
    }
    assert!(
        hits.value() > 0.6,
        "average 3NN hit rate too low: {}",
        hits.value()
    );
}

/// The system facade produces the same qualitative answers as wiring the
/// modules manually.
#[test]
fn system_facade_end_to_end() {
    let plan = ripq::floorplan::office_building(&Default::default()).unwrap();
    let mut system = IndoorQuerySystem::new(plan, SystemConfig::default(), 5);
    let reader = system.readers()[6];
    let obj = ObjectId::new(3);
    for s in 0..5u64 {
        system.ingest_detections(s, &[(obj, reader.id())]);
    }
    let rq = system
        .register_range(Rect::centered(reader.position(), 10.0, 8.0))
        .unwrap();
    let report = system.evaluate(5);
    assert!(report.range_results[&rq].probability(obj) > 0.5);
}

//! Historical queries: "where was everyone at second t?" — the §4.1
//! extension, driven through the full particle-filter pipeline.

use rand::rngs::StdRng;
use rand::SeedableRng;
use ripq::core::{evaluate_range, KnnQuery, QueryId};
use ripq::graph::AnchorObjectIndex;
use ripq::persist::crc32;
use ripq::pf::{
    reconstruct_trajectory, ParticlePreprocessor, PreprocessorConfig, SupervisionOptions,
    TrajectoryConfig,
};
use ripq::rfid::{DataCollector, HistoryCollector, ObjectId};
use ripq::sim::{ExperimentParams, GroundTruth, ReadingGenerator, SimWorld, TraceGenerator};

/// Every object a view knows, sorted by id.
fn known_objects(view: &DataCollector) -> Vec<ObjectId> {
    let mut objects: Vec<ObjectId> = view.objects().collect();
    objects.sort_unstable();
    objects
}

/// One preprocessing pass over a history view into a fresh index.
fn process_view(
    pre: &ParticlePreprocessor<'_>,
    pass_seed: u64,
    view: &DataCollector,
    objects: &[ObjectId],
    t: u64,
) -> AnchorObjectIndex<ObjectId> {
    let mut index = AnchorObjectIndex::new();
    let supervision = SupervisionOptions::default();
    pre.process(
        pass_seed,
        view,
        objects,
        t,
        None,
        None,
        &supervision,
        &mut index,
    );
    index
}

#[test]
fn historical_inference_reflects_only_past_readings() {
    let params = ExperimentParams::smoke();
    let w = SimWorld::build(&params);
    let mut rng_trace = StdRng::seed_from_u64(31);
    let mut rng_sense = StdRng::seed_from_u64(32);
    let traces =
        TraceGenerator::new(6.0).generate(&mut rng_trace, &w.graph, w.plan.rooms().len(), 10, 150);
    let gen = ReadingGenerator::new(&w.graph, &w.readers, params.sensing);
    let mut history = HistoryCollector::new();
    for s in 0..=150u64 {
        let det = gen.detections_at(&mut rng_sense, &traces, s);
        history.ingest_second(s, &det);
    }
    let pre = ParticlePreprocessor::new(
        &w.graph,
        &w.anchors,
        &w.readers,
        PreprocessorConfig::default(),
    );

    // Evaluate "where was o at t = 80?" from the full history.
    let t = 80u64;
    let view = history.view_at(t);
    let objects = known_objects(&view);
    assert!(!objects.is_empty());
    let index = process_view(&pre, 33, &view, &objects, t);

    // Mass must be consistent with the *then-current* positions: for each
    // processed object, some probability within plausible reach of the
    // true position at t.
    let mut covered = 0usize;
    let mut total = 0usize;
    for trace in &traces {
        let Some(dist) = index.distribution(&trace.object) else {
            continue;
        };
        total += 1;
        let truth = trace.point_at(&w.graph, t);
        let near: f64 = dist
            .iter()
            .filter(|(a, _)| w.anchors.anchor(*a).point.distance(truth) < 8.0)
            .map(|&(_, p)| p)
            .sum();
        if near > 0.2 {
            covered += 1;
        }
    }
    assert!(total >= 5, "most objects have history by t=80");
    assert!(
        covered * 10 >= total * 6,
        "historical inference should localize most objects: {covered}/{total}"
    );
}

#[test]
fn historical_views_at_different_instants_differ() {
    let params = ExperimentParams::smoke();
    let w = SimWorld::build(&params);
    let mut rng_trace = StdRng::seed_from_u64(41);
    let mut rng_sense = StdRng::seed_from_u64(42);
    let traces =
        TraceGenerator::new(4.0).generate(&mut rng_trace, &w.graph, w.plan.rooms().len(), 5, 150);
    let gen = ReadingGenerator::new(&w.graph, &w.readers, params.sensing);
    let mut history = HistoryCollector::new();
    for s in 0..=150u64 {
        let det = gen.detections_at(&mut rng_sense, &traces, s);
        history.ingest_second(s, &det);
    }
    // A walker's last detection at t=60 and t=140 generally differs.
    let mut any_different = false;
    for trace in &traces {
        let v1 = history.view_at(60);
        let v2 = history.view_at(140);
        let d1 = v1.last_detection(trace.object);
        let d2 = v2.last_detection(trace.object);
        if d1.is_some() && d1 != d2 {
            any_different = true;
        }
        // And views never see the future.
        if let Some((_, t_last)) = d1 {
            assert!(t_last <= 60);
        }
    }
    assert!(any_different, "moving objects change readings over 80 s");
}

#[test]
fn historical_range_and_knn_queries_run() {
    let params = ExperimentParams::smoke();
    let w = SimWorld::build(&params);
    let mut rng_trace = StdRng::seed_from_u64(51);
    let mut rng_sense = StdRng::seed_from_u64(52);
    let traces =
        TraceGenerator::new(6.0).generate(&mut rng_trace, &w.graph, w.plan.rooms().len(), 12, 120);
    let gen = ReadingGenerator::new(&w.graph, &w.readers, params.sensing);
    let gt = GroundTruth::new(&w.graph, &traces);
    let mut history = HistoryCollector::new();
    for s in 0..=120u64 {
        let det = gen.detections_at(&mut rng_sense, &traces, s);
        history.ingest_second(s, &det);
    }
    let pre = ParticlePreprocessor::new(
        &w.graph,
        &w.anchors,
        &w.readers,
        PreprocessorConfig::default(),
    );
    for t in [60u64, 90, 120] {
        let view = history.view_at(t);
        let objects = known_objects(&view);
        let index = process_view(&pre, 53 + t, &view, &objects, t);
        // Historical range query over the whole building finds everyone.
        let rs = evaluate_range(&w.plan, &w.anchors, &index, &w.plan.bounds());
        assert_eq!(rs.len(), index.object_count());
        // Historical kNN runs and returns ≥ k objects.
        let q = KnnQuery::new(QueryId::new(0), w.plan.bounds().center(), 2).unwrap();
        let knn = ripq::core::evaluate_knn(&w.graph, &w.anchors, &index, &q);
        assert!(knn.len() >= 2.min(index.object_count()));
        // Sanity: the ground truth at that instant is defined.
        let _ = gt.knn(w.plan.bounds().center(), 2, t);
    }
}

/// CRC32 pins of the historical path on the seed-31/32 history above:
/// the preprocessed index of views at four instants (every object,
/// anchor and probability bit pattern in key order), each known object's
/// last two devices and last episode at those instants, and the
/// reconstructed trajectory of every recorded object (second, mean bits,
/// mode, mode-probability bits).
#[test]
fn historical_answers_are_pinned() {
    let params = ExperimentParams::smoke();
    let w = SimWorld::build(&params);
    let mut rng_trace = StdRng::seed_from_u64(31);
    let mut rng_sense = StdRng::seed_from_u64(32);
    let traces =
        TraceGenerator::new(6.0).generate(&mut rng_trace, &w.graph, w.plan.rooms().len(), 10, 150);
    let gen = ReadingGenerator::new(&w.graph, &w.readers, params.sensing);
    let mut history = HistoryCollector::new();
    for s in 0..=150u64 {
        let det = gen.detections_at(&mut rng_sense, &traces, s);
        history.ingest_second(s, &det);
    }
    let pre = ParticlePreprocessor::new(
        &w.graph,
        &w.anchors,
        &w.readers,
        PreprocessorConfig::default(),
    );
    let none = u32::MAX.to_le_bytes();

    let (mut index_bytes, mut device_bytes) = (Vec::new(), Vec::new());
    for t in [40u64, 80, 120, 150] {
        let view = history.view_at(t);
        let objects = known_objects(&view);
        let index = process_view(&pre, 33 + t, &view, &objects, t);
        for o in index.objects() {
            index_bytes.extend(o.raw().to_le_bytes());
            for (a, p) in index.distribution(o).unwrap_or_default() {
                index_bytes.extend(a.raw().to_le_bytes());
                index_bytes.extend(p.to_bits().to_le_bytes());
            }
        }
        for &o in &objects {
            let (older, newer) = view.last_two_devices(o).unwrap();
            let (reader, first, last) = view.last_episode(o).unwrap();
            device_bytes.extend(o.raw().to_le_bytes());
            device_bytes.extend(older.raw().to_le_bytes());
            device_bytes.extend(newer.map_or(none, |d| d.raw().to_le_bytes()));
            device_bytes.extend(reader.raw().to_le_bytes());
            device_bytes.extend(first.to_le_bytes());
            device_bytes.extend(last.to_le_bytes());
        }
    }

    let mut trajectory_bytes = Vec::new();
    for trace in &traces {
        let mut rng = StdRng::seed_from_u64(34);
        let Some(points) = reconstruct_trajectory(
            &mut rng,
            &w.graph,
            &w.anchors,
            &w.readers,
            &history,
            trace.object,
            &TrajectoryConfig::default(),
        ) else {
            continue;
        };
        trajectory_bytes.extend(trace.object.raw().to_le_bytes());
        for tp in &points {
            trajectory_bytes.extend(tp.second.to_le_bytes());
            trajectory_bytes.extend(tp.mean.x.to_bits().to_le_bytes());
            trajectory_bytes.extend(tp.mean.y.to_bits().to_le_bytes());
            trajectory_bytes.extend(tp.mode.raw().to_le_bytes());
            trajectory_bytes.extend(tp.mode_probability.to_bits().to_le_bytes());
        }
    }

    let got = [
        crc32(&index_bytes),
        crc32(&device_bytes),
        crc32(&trajectory_bytes),
    ];
    assert!(!index_bytes.is_empty() && !device_bytes.is_empty() && !trajectory_bytes.is_empty());
    assert_eq!(
        got,
        [0x72e1_5b32, 0x17bd_be7d, 0xb5fb_3706],
        "got {got:08x?}"
    );
}

//! Continuous queries (the §6 extension) against the full pipeline:
//! deltas must be exactly consistent with re-evaluating from scratch.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use ripq::core::continuous::{
    ContinuousKnnQuery, ContinuousRangeQuery, SubscriptionKind, SubscriptionRegistry,
};
use ripq::core::{
    evaluate_knn, evaluate_range, IndoorQuerySystem, KnnQuery, QueryId, RangeQuery, ResultSet,
    SystemConfig,
};
use ripq::floorplan::{office_building, OfficeParams};
use ripq::geom::Rect;
use ripq::graph::build_walking_graph;
use ripq::sim::{ExperimentParams, ReadingGenerator, SimWorld, TraceGenerator};
use std::collections::BTreeMap;

#[test]
fn continuous_results_match_fresh_evaluation() {
    let params = ExperimentParams::smoke();
    let w = SimWorld::build(&params);
    let mut rng_trace = StdRng::seed_from_u64(21);
    let mut rng_sense = StdRng::seed_from_u64(22);
    let traces =
        TraceGenerator::new(6.0).generate(&mut rng_trace, &w.graph, w.plan.rooms().len(), 25, 150);
    let gen = ReadingGenerator::new(&w.graph, &w.readers, params.sensing);
    let config = SystemConfig {
        prune_candidates: false,
        ..SystemConfig::default()
    };
    let mut system = IndoorQuerySystem::with_readers(w.plan.clone(), w.readers.clone(), config, 23);

    let room = &w.plan.rooms()[8];
    let range_query = RangeQuery::new(QueryId::new(0), *room.footprint()).unwrap();
    let knn_query = KnnQuery::new(
        QueryId::new(1),
        w.plan.hallways()[0].footprint().center(),
        2,
    )
    .unwrap();
    let mut c_range = ContinuousRangeQuery::new(range_query);
    let mut c_knn = ContinuousKnnQuery::new(knn_query);

    let mut deltas_seen = 0u32;
    for s in 0..=150u64 {
        let det = gen.detections_at(&mut rng_sense, &traces, s);
        system.ingest_detections(s, &det);
        if s < 40 || s % 25 != 0 {
            continue;
        }
        let index = system.evaluate(s).index;

        let d1 = c_range.update(&w.plan, &w.anchors, &index);
        let d2 = c_knn.update(&w.graph, &w.anchors, &index);
        deltas_seen += u32::from(!d1.is_empty()) + u32::from(!d2.is_empty());

        // The maintained result must equal a from-scratch evaluation.
        let fresh_range = evaluate_range(&w.plan, &w.anchors, &index, &range_query.window);
        let fresh_knn = evaluate_knn(&w.graph, &w.anchors, &index, &knn_query);
        for (o, p) in fresh_range.iter() {
            assert!((c_range.current().probability(o) - p).abs() < 1e-12);
        }
        assert_eq!(c_range.current().len(), fresh_range.len());
        for (o, p) in fresh_knn.iter() {
            assert!((c_knn.current().probability(o) - p).abs() < 1e-12);
        }
        assert_eq!(c_knn.current().len(), fresh_knn.len());
    }
    assert!(deltas_seen > 0, "moving objects must produce deltas");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Subscription deltas are a faithful change log: folding every
    /// per-epoch [`ResultDelta`] over an initially empty result set
    /// reconstructs the from-scratch evaluation at every epoch, for
    /// range and kNN subscriptions across random scenarios and seeds.
    #[test]
    fn folded_subscription_deltas_equal_from_scratch_evaluation(
        seed in 0u64..10_000,
        objects in 4usize..12,
        fx in 0.15f64..0.85,
        fy in 0.15f64..0.85,
        k in 1usize..4,
    ) {
        let plan = office_building(&OfficeParams::default()).unwrap();
        let graph = build_walking_graph(&plan);
        let readers = ripq::rfid::deploy_uniform(&plan, &graph, 19, 2.0);
        let mut rng_trace = StdRng::seed_from_u64(seed);
        let mut rng_sense = StdRng::seed_from_u64(seed.wrapping_add(1));
        let traces = TraceGenerator::new(6.0).generate(
            &mut rng_trace, &graph, plan.rooms().len(), objects, 90,
        );
        let sensor = ReadingGenerator::new(
            &graph, &readers, ripq::rfid::SensingModel::default(),
        );

        let bounds = plan.bounds();
        let window = Rect::centered(
            ripq::geom::Point2::new(
                bounds.min().x + fx * bounds.width(),
                bounds.min().y + fy * bounds.height(),
            ),
            14.0,
            10.0,
        );
        let knn_point = readers[(seed as usize) % readers.len()].position();

        let mut system = IndoorQuerySystem::new(
            office_building(&OfficeParams::default()).unwrap(),
            SystemConfig::default(),
            seed,
        );
        let mut registry = SubscriptionRegistry::new();
        let q_range = system.register_range(window).unwrap();
        let q_knn = system.register_knn(knn_point, k).unwrap();
        registry.insert(1, SubscriptionKind::Range(window), q_range).unwrap();
        registry.insert(2, SubscriptionKind::Knn(knn_point, k), q_knn).unwrap();

        // Fold every emitted delta over initially empty result sets.
        let mut folded: BTreeMap<u64, ResultSet> = BTreeMap::new();
        folded.insert(1, ResultSet::new());
        folded.insert(2, ResultSet::new());
        let mut epochs = 0u32;
        for second in 0..=90u64 {
            let det = sensor.detections_at(&mut rng_sense, &traces, second);
            system.ingest_detections(second, &det);
            if second < 30 || second % 15 != 0 {
                continue;
            }
            epochs += 1;
            let report = system.evaluate(second);
            for (sub, delta) in registry.deltas(&report) {
                if let Some(rs) = folded.get_mut(&sub) {
                    delta.apply(rs);
                }
            }
            // Deltas below the change epsilon are deliberately not
            // re-emitted, so the fold may lag by at most epsilon per
            // epoch per object.
            let tol = 1e-9 * f64::from(epochs);
            for (sub, query) in [(1u64, q_range), (2u64, q_knn)] {
                let fresh = if sub == 1 {
                    &report.range_results[&query]
                } else {
                    &report.knn_results[&query]
                };
                let fold = &folded[&sub];
                prop_assert_eq!(
                    fold.len(), fresh.len(),
                    "sub {} membership at {}", sub, second
                );
                for (o, p) in fresh.iter() {
                    prop_assert!(
                        (fold.probability(o) - p).abs() <= tol,
                        "sub {} drifted on {:?}: {} vs {}", sub, o, fold.probability(o), p
                    );
                }
                // The registry's maintained view is the same fold.
                let current = registry.get(sub).unwrap().current();
                prop_assert_eq!(current.len(), fold.len());
                for (o, p) in current.iter() {
                    prop_assert!((fold.probability(o) - p).abs() <= tol);
                }
            }
        }
        prop_assert!(epochs >= 4);
    }
}

//! Continuous queries (the §6 extension) against the full pipeline: a
//! client folding subscription deltas must hold the registry's own
//! result exactly, and stay within the change epsilon of re-evaluating
//! from scratch.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use rand::rngs::StdRng;
use rand::SeedableRng;
use ripq::core::continuous::{SubscriptionKind, SubscriptionRegistry, CHANGE_EPSILON};
use ripq::core::{
    evaluate_knn, evaluate_range, IndoorQuerySystem, KnnQuery, ResultSet, SystemConfig,
};
use ripq::floorplan::{office_building, OfficeParams};
use ripq::geom::{Point2, Rect};
use ripq::graph::build_walking_graph;
use ripq::sim::{ExperimentParams, ReadingGenerator, SimWorld, TraceGenerator, TrueTrace};
use std::collections::BTreeMap;

/// A facade fed by simulated readings, with a range window and a kNN
/// point to subscribe to.
struct Scenario<'a> {
    system: IndoorQuerySystem,
    sensor: ReadingGenerator<'a>,
    traces: Vec<TrueTrace>,
    rng_sense: StdRng,
    window: Rect,
    knn_point: Point2,
    k: usize,
}

impl Scenario<'_> {
    /// Registers the window and the kNN point with the facade and
    /// subscribes to them as subscriptions 1 and 2, then ingests every
    /// second up to `last_second` and evaluates at each second
    /// `evaluate_at` accepts. A client folds every delta over initially
    /// empty result sets. At every epoch the fold must equal the
    /// registry's `current()` exactly and a from-scratch evaluation over
    /// the report's index within [`CHANGE_EPSILON`], with the same
    /// members; each `changed` entry's old probability must be the
    /// client's value, bit for bit. Returns the number of epochs and of
    /// deltas emitted.
    fn check_folded_deltas(
        mut self,
        last_second: u64,
        evaluate_at: impl Fn(u64) -> bool,
    ) -> Result<(u32, u32), TestCaseError> {
        let (window, knn_point, k) = (self.window, self.knn_point, self.k);
        let mut registry = SubscriptionRegistry::new();
        let q_range = self.system.register_range(window).unwrap();
        let q_knn = self.system.register_knn(knn_point, k).unwrap();
        let knn_query = KnnQuery::new(q_knn, knn_point, k).unwrap();
        registry
            .insert(1, SubscriptionKind::Range(window), q_range)
            .unwrap();
        registry
            .insert(2, SubscriptionKind::Knn(knn_point, k), q_knn)
            .unwrap();

        let mut folded: BTreeMap<u64, ResultSet> = BTreeMap::new();
        folded.insert(1, ResultSet::new());
        folded.insert(2, ResultSet::new());
        let mut epochs = 0u32;
        let mut deltas_seen = 0u32;
        for second in 0..=last_second {
            let det = self
                .sensor
                .detections_at(&mut self.rng_sense, &self.traces, second);
            self.system.ingest_detections(second, &det);
            if !evaluate_at(second) {
                continue;
            }
            epochs += 1;
            let report = self.system.evaluate(second);
            for (sub, delta) in registry.deltas(&report) {
                let fold = folded.get_mut(&sub).unwrap();
                for &(o, old, _) in &delta.changed {
                    prop_assert_eq!(
                        old.to_bits(),
                        fold.probability(o).to_bits(),
                        "sub {} reported {:?}'s old value off the client's",
                        sub,
                        o
                    );
                }
                delta.apply(fold);
                deltas_seen += 1;
            }
            let system = &self.system;
            let fresh_range =
                evaluate_range(system.plan(), system.anchors(), &report.index, &window);
            let fresh_knn =
                evaluate_knn(system.graph(), system.anchors(), &report.index, &knn_query);
            for (sub, fresh) in [(1u64, &fresh_range), (2u64, &fresh_knn)] {
                let fold = &folded[&sub];
                prop_assert_eq!(registry.get(sub).unwrap().current(), fold);
                prop_assert!(
                    fold.objects().eq(fresh.objects()),
                    "sub {} membership at {}",
                    sub,
                    second
                );
                for (o, p) in fresh.iter() {
                    prop_assert!(
                        (fold.probability(o) - p).abs() <= CHANGE_EPSILON,
                        "sub {} drifted on {:?}: {} vs {}",
                        sub,
                        o,
                        fold.probability(o),
                        p
                    );
                }
            }
        }
        Ok((epochs, deltas_seen))
    }
}

/// The smoke world with 25 objects over 150 s: a range subscription on
/// room 8 and a 2-NN subscription at the centre of hallway 0, evaluated
/// every 25 s after warm-up, keep the fold equal to the registry and to a
/// from-scratch evaluation.
#[test]
fn continuous_results_match_fresh_evaluation() {
    let params = ExperimentParams::smoke();
    let w = SimWorld::build(&params);
    let mut rng_trace = StdRng::seed_from_u64(21);
    let traces =
        TraceGenerator::new(6.0).generate(&mut rng_trace, &w.graph, w.plan.rooms().len(), 25, 150);
    let scenario = Scenario {
        system: IndoorQuerySystem::with_readers(
            w.plan.clone(),
            w.readers.clone(),
            SystemConfig::default(),
            23,
        ),
        sensor: ReadingGenerator::new(&w.graph, &w.readers, params.sensing),
        traces,
        rng_sense: StdRng::seed_from_u64(22),
        window: *w.plan.rooms()[8].footprint(),
        knn_point: w.plan.hallways()[0].footprint().center(),
        k: 2,
    };
    let (epochs, deltas_seen) = scenario
        .check_folded_deltas(150, |s| s >= 40 && s % 25 == 0)
        .unwrap();
    assert_eq!(epochs, 5);
    assert!(deltas_seen > 0, "moving objects must produce deltas");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Subscription deltas are a faithful change log, for range and kNN
    /// subscriptions across random scenarios and seeds: see
    /// [`Scenario::check_folded_deltas`].
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
        let traces = TraceGenerator::new(6.0).generate(
            &mut rng_trace, &graph, plan.rooms().len(), objects, 90,
        );

        let bounds = plan.bounds();
        let window = Rect::centered(
            Point2::new(
                bounds.min().x + fx * bounds.width(),
                bounds.min().y + fy * bounds.height(),
            ),
            14.0,
            10.0,
        );
        let scenario = Scenario {
            system: IndoorQuerySystem::new(
                office_building(&OfficeParams::default()).unwrap(),
                SystemConfig::default(),
                seed,
            ),
            sensor: ReadingGenerator::new(
                &graph, &readers, ripq::rfid::SensingModel::default(),
            ),
            traces,
            rng_sense: StdRng::seed_from_u64(seed.wrapping_add(1)),
            window,
            knn_point: readers[(seed as usize) % readers.len()].position(),
            k,
        };
        let (epochs, deltas_seen) =
            scenario.check_folded_deltas(90, |s| s >= 30 && s % 15 == 0)?;
        prop_assert!(epochs >= 4);
        prop_assert!(deltas_seen > 0, "moving objects must produce deltas");
    }
}

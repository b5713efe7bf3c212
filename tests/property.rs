//! Cross-crate property-based tests: randomized floor plans, reading
//! sequences and particle clouds checked against structural invariants.

use proptest::prelude::*;
use ripq::core::{evaluate_knn, evaluate_range, KnnQuery, QueryId};
use ripq::floorplan::FloorPlanBuilder;
use ripq::geom::{Point2, Rect};
use ripq::graph::{
    build_walking_graph, AnchorId, AnchorObjectIndex, AnchorSet, DeltaOutcome, GraphPos,
};
use ripq::persist::{ByteReader, ByteWriter};
use ripq::pf::{FilterTables, ParticlePreprocessor, PreprocessorConfig, SupervisionOptions};
use ripq::rfid::{deploy_uniform, DataCollector, HistoryCollector, ObjectId, ReaderId};
use std::collections::BTreeMap;

/// One default-supervision preprocessing pass into a fresh index.
fn fresh_pass(
    pre: &ParticlePreprocessor<'_>,
    pass_seed: u64,
    collector: &DataCollector,
    candidates: &[ObjectId],
    now: u64,
    parallelism: Option<usize>,
) -> AnchorObjectIndex<ObjectId> {
    let mut index = AnchorObjectIndex::new();
    let options = SupervisionOptions::default();
    pre.process(
        pass_seed,
        collector,
        candidates,
        now,
        None,
        parallelism,
        &options,
        &mut index,
    );
    index
}

/// Strategy: a random valid plan with one hallway and 1–6 rooms below it.
fn arb_plan() -> impl Strategy<Value = ripq::floorplan::FloorPlan> {
    (1usize..=6, 4.0f64..10.0, 1.5f64..3.0).prop_map(|(nrooms, room_w, hall_h)| {
        let mut b = FloorPlanBuilder::new();
        let total_w = nrooms as f64 * room_w;
        let hall = b.add_hallway(Rect::new(0.0, 8.0, total_w, hall_h), "H");
        for i in 0..nrooms {
            let x = i as f64 * room_w;
            let r = b.add_room(Rect::new(x, 0.0, room_w, 8.0), format!("R{i}"));
            b.add_door(Point2::new(x + room_w / 2.0, 8.0), r, hall);
        }
        b.build().expect("constructed plans are valid")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn random_plans_yield_connected_graphs(plan in arb_plan()) {
        let g = build_walking_graph(&plan);
        prop_assert!(g.is_connected());
        // One room node per room, each reachable.
        let rooms = plan.rooms().len();
        let room_nodes = g.nodes().iter().filter(|n| n.kind.is_room()).count();
        prop_assert_eq!(room_nodes, rooms);
    }

    #[test]
    fn network_distance_is_a_metric_on_random_plans(
        plan in arb_plan(),
        fx in 0.0f64..1.0, fy in 0.0f64..1.0, fz in 0.0f64..1.0,
    ) {
        let g = build_walking_graph(&plan);
        let b = plan.bounds();
        let pick = |f: f64| {
            g.project(Point2::new(
                b.min().x + f * b.width(),
                b.min().y + 0.5 * b.height(),
            ))
        };
        let (x, y, z) = (pick(fx), pick(fy), pick(fz));
        let dxy = g.network_distance(x, y);
        let dyx = g.network_distance(y, x);
        let dxz = g.network_distance(x, z);
        let dzy = g.network_distance(z, y);
        prop_assert!((dxy - dyx).abs() < 1e-6, "symmetry: {dxy} vs {dyx}");
        prop_assert!(dxy <= dxz + dzy + 1e-6, "triangle: {dxy} > {dxz}+{dzy}");
        prop_assert!(g.network_distance(x, x) < 1e-9);
    }

    #[test]
    fn anchors_cover_every_edge_on_random_plans(
        plan in arb_plan(),
        spacing in 0.5f64..3.0,
    ) {
        let g = build_walking_graph(&plan);
        let anchors = AnchorSet::generate(&g, &plan, spacing);
        for e in g.edges() {
            prop_assert!(!anchors.on_edge(e.id).is_empty());
        }
        // Nearest-anchor lookup is total and self-consistent.
        for e in g.edges().iter().take(5) {
            let pos = GraphPos::new(e.id, e.length() * 0.37);
            let a = anchors.nearest(pos);
            prop_assert_eq!(anchors.anchor(a).pos.edge, e.id);
        }
    }

    #[test]
    fn kde_preserves_probability_mass(
        plan in arb_plan(),
        bandwidth in 0.0f64..5.0,
        offsets in proptest::collection::vec(0.0f64..1.0, 1..40),
    ) {
        let g = build_walking_graph(&plan);
        let anchors = AnchorSet::generate(&g, &plan, 1.0);
        let e = &g.edges()[0];
        let n = offsets.len() as f64;
        let cloud: Vec<(GraphPos, f64)> = offsets
            .iter()
            .map(|&f| (GraphPos::new(e.id, e.length() * f), 1.0 / n))
            .collect();
        let dist = anchors.kde_distribution(cloud, bandwidth);
        let total: f64 = dist.iter().map(|(_, p)| p).sum();
        prop_assert!((total - 1.0).abs() < 1e-9, "mass {total}");
        // All probabilities positive, anchors unique and sorted.
        for w in dist.windows(2) {
            prop_assert!(w[0].0 < w[1].0);
        }
        prop_assert!(dist.iter().all(|&(_, p)| p > 0.0));
    }

    /// Feeding identical detection streams, the history collector's view
    /// at "now" is indistinguishable from the snapshot collector.
    #[test]
    fn history_view_equivalent_to_snapshot_collector(
        steps in proptest::collection::vec(
            proptest::option::of((0u32..3, 0u32..4)), 1..60
        ),
    ) {
        let mut snap = DataCollector::new();
        let mut hist = HistoryCollector::new();
        let mut last_second = 0u64;
        for (s, step) in steps.iter().enumerate() {
            let second = s as u64;
            last_second = second;
            let det: Vec<(ObjectId, ReaderId)> = step
                .map(|(o, r)| (ObjectId::new(o), ReaderId::new(r)))
                .into_iter()
                .collect();
            snap.ingest_second(second, &det);
            hist.ingest_second(second, &det);
        }
        let view = hist.view_at(last_second);
        for o in (0..3).map(ObjectId::new) {
            prop_assert_eq!(
                view.last_detection(o),
                snap.last_detection(o),
                "last_detection mismatch for {}", o
            );
            prop_assert_eq!(
                view.last_two_devices(o),
                snap.last_two_devices(o),
                "last_two_devices mismatch for {}", o
            );
            prop_assert_eq!(
                view.last_episode(o),
                snap.last_episode(o),
                "last_episode mismatch for {}", o
            );
            prop_assert_eq!(view.detections(o), snap.detections(o), "detections mismatch for {}", o);
        }
    }

    /// The preprocessor's output is always a probability distribution
    /// (mass 1, sorted unique anchors), whatever reading pattern it saw.
    #[test]
    fn preprocessing_conserves_probability_mass(
        pattern in proptest::collection::vec(proptest::option::of(0u32..19), 5..50),
        seed in 0u64..500,
    ) {
        let plan = ripq::floorplan::office_building(&Default::default()).unwrap();
        let graph = build_walking_graph(&plan);
        let anchors = AnchorSet::generate(&graph, &plan, 1.0);
        let readers = deploy_uniform(&plan, &graph, 19, 2.0);
        let mut collector = DataCollector::new();
        let o = ObjectId::new(0);
        let mut any = false;
        for (s, r) in pattern.iter().enumerate() {
            let det: Vec<(ObjectId, ReaderId)> = r
                .map(|r| {
                    any = true;
                    (o, ReaderId::new(r))
                })
                .into_iter()
                .collect();
            collector.ingest_second(s as u64, &det);
        }
        prop_assume!(any);
        let tables = FilterTables::new(&graph, &readers);
        let pre = ParticlePreprocessor::new(
            &graph,
            &anchors,
            &readers,
            &tables,
            PreprocessorConfig::default(),
        );
        let now = pattern.len() as u64;
        let index = fresh_pass(&pre, seed, &collector, &[o], now, None);
        let distribution = index.distribution(&o).expect("object was detected");
        let total: f64 = distribution.iter().map(|(_, p)| p).sum();
        prop_assert!((total - 1.0).abs() < 1e-9, "mass {total}");
        for w in distribution.windows(2) {
            prop_assert!(w[0].0 < w[1].0, "sorted unique anchors");
        }
        prop_assert!(distribution.iter().all(|&(_, p)| p > 0.0));
    }

    /// Whatever the detection pattern and worker count, every per-object
    /// distribution the preprocessing pass snaps into the APtoObjHT is a
    /// (sub-)probability: its total mass never exceeds 1.
    #[test]
    fn index_mass_bounded_after_snapping(
        detections in proptest::collection::vec(
            proptest::option::of((0u32..4, 0u32..19)), 10..40
        ),
        pass_seed in 0u64..1000,
        workers in 1usize..=4,
    ) {
        let plan = ripq::floorplan::office_building(&Default::default()).unwrap();
        let graph = build_walking_graph(&plan);
        let anchors = AnchorSet::generate(&graph, &plan, 1.0);
        let readers = deploy_uniform(&plan, &graph, 19, 2.0);
        let mut collector = DataCollector::new();
        let mut any = false;
        for (s, step) in detections.iter().enumerate() {
            let det: Vec<(ObjectId, ReaderId)> = step
                .map(|(o, r)| {
                    any = true;
                    (ObjectId::new(o), readers[r as usize].id())
                })
                .into_iter()
                .collect();
            collector.ingest_second(s as u64, &det);
        }
        prop_assume!(any);
        let tables = FilterTables::new(&graph, &readers);
        let pre = ParticlePreprocessor::new(
            &graph,
            &anchors,
            &readers,
            &tables,
            PreprocessorConfig::default(),
        );
        let candidates: Vec<ObjectId> = (0..4).map(ObjectId::new).collect();
        let now = detections.len() as u64;
        let index = fresh_pass(&pre, pass_seed, &collector, &candidates, now, Some(workers));
        for o in index.objects() {
            let total = index.total_probability(o);
            prop_assert!(
                total <= 1.0 + 1e-9,
                "object {o:?} carries mass {total} > 1"
            );
            prop_assert!(total > 0.0, "indexed objects must carry mass");
        }
    }

    /// The incrementally maintained APtoObjHT is indistinguishable from a
    /// from-scratch rebuild after ANY sequence of preprocessing passes:
    /// whatever candidate subsets come and go (retractions included),
    /// applying each pass's deltas to a live index yields exactly the
    /// index a fresh pass over the same candidates would build.
    #[test]
    fn incremental_index_equals_rebuild_after_any_delta_sequence(
        detections in proptest::collection::vec(
            proptest::option::of((0u32..5, 0u32..19)), 10..30
        ),
        passes in proptest::collection::vec((0u64..1000, 1u32..32), 1..4),
    ) {
        let plan = ripq::floorplan::office_building(&Default::default()).unwrap();
        let graph = build_walking_graph(&plan);
        let anchors = AnchorSet::generate(&graph, &plan, 1.0);
        let readers = deploy_uniform(&plan, &graph, 19, 2.0);
        let mut collector = DataCollector::new();
        let mut any = false;
        for (s, step) in detections.iter().enumerate() {
            let det: Vec<(ObjectId, ReaderId)> = step
                .map(|(o, r)| {
                    any = true;
                    (ObjectId::new(o), readers[r as usize].id())
                })
                .into_iter()
                .collect();
            collector.ingest_second(s as u64, &det);
        }
        prop_assume!(any);
        let tables = FilterTables::new(&graph, &readers);
        let pre = ParticlePreprocessor::new(
            &graph,
            &anchors,
            &readers,
            &tables,
            PreprocessorConfig::default(),
        );
        let options = SupervisionOptions::default();
        let mut live = AnchorObjectIndex::new();
        for (i, &(seed, mask)) in passes.iter().enumerate() {
            // Each pass sees a different candidate subset, so objects
            // drop out (retraction) and reappear (insertion) freely.
            let candidates: Vec<ObjectId> = (0..5u32)
                .filter(|o| mask & (1 << o) != 0)
                .map(ObjectId::new)
                .collect();
            let now = detections.len() as u64 + i as u64;
            let (_, stats) = pre.process(
                seed, &collector, &candidates, now, None, None, &options, &mut live,
            );
            let fresh = fresh_pass(&pre, seed, &collector, &candidates, now, None);
            prop_assert_eq!(
                &live, &fresh,
                "pass {} (seed {}, mask {:#b}): delta-maintained index \
                 diverged from rebuild", i, seed, mask
            );
            prop_assert!(
                (stats.applied + stats.unchanged) as usize <= candidates.len(),
                "pass {}: more deltas than candidates", i
            );
            // Replaying the identical pass is a pure no-op.
            let mut replay = live.clone();
            let (_, stats2) = pre.process(
                seed, &collector, &candidates, now, None, None, &options, &mut replay,
            );
            prop_assert_eq!(&replay, &live, "replay must not move the index");
            prop_assert_eq!(stats2.applied, 0, "replay applied deltas");
            prop_assert_eq!(stats2.retracted, 0, "replay retracted objects");
        }
    }

    /// Algorithm 3 is monotone in the query window: growing the rectangle
    /// never lowers any object's probability (hallway width-ratio and room
    /// area-ratio compensation both grow with window inclusion).
    #[test]
    fn range_probability_monotone_in_window(
        plan in arb_plan(),
        dists in proptest::collection::vec(
            proptest::collection::vec((0.0f64..1.0, 0.01f64..1.0), 1..8),
            1..6,
        ),
        cx in 0.1f64..0.9, cy in 0.1f64..0.9,
        w0 in 0.5f64..4.0, h0 in 0.5f64..4.0,
        steps in 1usize..6,
    ) {
        let graph = build_walking_graph(&plan);
        let anchors = AnchorSet::generate(&graph, &plan, 1.0);
        let n_anchors = anchors.anchors().len();
        let mut index = AnchorObjectIndex::new();
        for (i, dist) in dists.iter().enumerate() {
            // Merge duplicate anchors and normalize to unit mass.
            let mut merged: BTreeMap<_, f64> = BTreeMap::new();
            for &(f, wgt) in dist {
                let a = anchors.anchors()[(f * n_anchors as f64) as usize % n_anchors].id;
                *merged.entry(a).or_insert(0.0) += wgt;
            }
            let total: f64 = merged.values().sum();
            index.set_object(
                ObjectId::new(i as u32),
                merged.into_iter().map(|(a, p)| (a, p / total)).collect(),
            );
        }
        let b = plan.bounds();
        let center = Point2::new(
            b.min().x + cx * b.width(),
            b.min().y + cy * b.height(),
        );
        let mut prev = evaluate_range(
            &plan, &anchors, &index, &Rect::centered(center, w0, h0),
        );
        for step in 1..=steps {
            let grow = 1.0 + step as f64 * 1.5;
            let window = Rect::centered(center, w0 * grow, h0 * grow);
            let cur = evaluate_range(&plan, &anchors, &index, &window);
            for o in (0..dists.len() as u32).map(ObjectId::new) {
                prop_assert!(
                    cur.probability(o) >= prev.probability(o) - 1e-9,
                    "object {o:?}: window growth lowered probability \
                     {} -> {}", prev.probability(o), cur.probability(o)
                );
            }
            prev = cur;
        }
    }

    /// Algorithm 4 with unit-mass objects: the top-k slice is sorted by
    /// descending probability and holds exactly `min(k, candidates)`
    /// entries.
    #[test]
    fn knn_results_sorted_with_min_k_entries(
        plan in arb_plan(),
        dists in proptest::collection::vec(
            proptest::collection::vec((0.0f64..1.0, 0.01f64..1.0), 1..8),
            1..7,
        ),
        k in 1usize..6,
        qx in 0.0f64..1.0, qy in 0.0f64..1.0,
    ) {
        let graph = build_walking_graph(&plan);
        let anchors = AnchorSet::generate(&graph, &plan, 1.0);
        let n_anchors = anchors.anchors().len();
        let mut index = AnchorObjectIndex::new();
        for (i, dist) in dists.iter().enumerate() {
            let mut merged: BTreeMap<_, f64> = BTreeMap::new();
            for &(f, wgt) in dist {
                let a = anchors.anchors()[(f * n_anchors as f64) as usize % n_anchors].id;
                *merged.entry(a).or_insert(0.0) += wgt;
            }
            let total: f64 = merged.values().sum();
            index.set_object(
                ObjectId::new(i as u32),
                merged.into_iter().map(|(a, p)| (a, p / total)).collect(),
            );
        }
        let b = plan.bounds();
        let q = KnnQuery::new(
            QueryId::new(0),
            Point2::new(b.min().x + qx * b.width(), b.min().y + qy * b.height()),
            k,
        )
        .unwrap();
        let rs = evaluate_knn(&graph, &anchors, &index, &q);
        let sorted = rs.sorted();
        for w in sorted.windows(2) {
            prop_assert!(
                w[0].probability >= w[1].probability,
                "results not sorted by descending probability"
            );
        }
        // Each object carries total mass 1, so the Σp ≥ k stopping rule
        // needs at least k distinct objects; with fewer than k candidates
        // the frontier exhausts and returns all of them.
        let candidates = dists.len();
        let top = rs.top(k);
        prop_assert_eq!(
            top.len(),
            k.min(candidates),
            "expected min(k={}, candidates={}) results, got {}",
            k, candidates, rs.len()
        );
    }

    /// Algorithm 2's working set: the collector never reports devices
    /// other than the two most recent detecting episodes' readers, and
    /// they match a straightforward reference model of the episode rules
    /// (same reader within gap tolerance extends; anything else opens a
    /// new episode).
    #[test]
    fn collector_keeps_two_most_recent_devices(
        detections in proptest::collection::vec(
            proptest::option::of((0u32..3, 0u32..4)), 5..80
        ),
    ) {
        // Reference model: per-object episode list (reader, last_second),
        // mirroring the collector's merge rule `gap <= tolerance + 1`
        // with the default tolerance of 2.
        let mut model: BTreeMap<u32, Vec<(u32, u64)>> = BTreeMap::new();
        let mut c = DataCollector::new();
        for (s, step) in detections.iter().enumerate() {
            let second = s as u64;
            let det: Vec<(ObjectId, ReaderId)> = step
                .map(|(o, r)| (ObjectId::new(o), ReaderId::new(r)))
                .into_iter()
                .collect();
            c.ingest_second(second, &det);
            if let Some((o, r)) = *step {
                let eps = model.entry(o).or_default();
                match eps.last_mut() {
                    Some((reader, last)) if *reader == r && second - *last <= 3 => {
                        *last = second;
                    }
                    _ => eps.push((r, second)),
                }
            }
        }
        for (o, eps) in &model {
            let got = c.last_two_devices(ObjectId::new(*o));
            let expect = match eps.as_slice() {
                [] => None,
                [only] => Some((ReaderId::new(only.0), None)),
                [.., prev, last] => {
                    Some((ReaderId::new(prev.0), Some(ReaderId::new(last.0))))
                }
            };
            prop_assert_eq!(got, expect, "device window mismatch for object {}", o);
        }
    }

    /// Episodes are the ENTER/LEAVE pairs, and every state a live
    /// collector reaches is one its checkpoint decoder accepts: fed any
    /// detection stream, each object's last episode ENTERs (first second)
    /// no later than it LEAVEs (last second), both retained detections by
    /// its reader, none past the current second;
    /// and the encoded state decodes against the deployment's reader count
    /// and re-encodes to the same bytes.
    #[test]
    fn enter_precedes_leave_per_device(
        detections in proptest::collection::vec(
            proptest::option::of((0u32..2, 0u32..3)), 5..60
        ),
    ) {
        let mut c = DataCollector::new();
        for (s, step) in detections.iter().enumerate() {
            let det: Vec<(ObjectId, ReaderId)> = step
                .map(|(o, r)| (ObjectId::new(o), ReaderId::new(r)))
                .into_iter()
                .collect();
            c.ingest_second(s as u64, &det);
        }
        let now = c.current_second();
        for o in c.objects() {
            let detections = c.detections(o);
            let (reader, first, last) = c.last_episode(o).unwrap();
            prop_assert!(detections[0].0 <= first && first <= last, "{o}: episode order");
            prop_assert!(detections.last().map(|d| d.0) <= now, "{o}: detections past now");
            prop_assert!(detections.contains(&(first, reader)));
            prop_assert!(detections.contains(&(last, reader)));
            let (older, newer) = c.last_two_devices(o).unwrap();
            prop_assert_eq!(newer.unwrap_or(older), reader);
        }
        let mut w = ByteWriter::new();
        c.encode_state(&mut w);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let decoded = DataCollector::decode_state(&mut r, 3);
        prop_assert!(r.finish().is_ok());
        let mut again = ByteWriter::new();
        match decoded {
            Ok(d) => d.encode_state(&mut again),
            Err(e) => prop_assert!(false, "a live state must decode: {e}"),
        }
        prop_assert_eq!(bytes, again.into_bytes());
    }

    /// Several batches may carry one second: splitting each second's
    /// detections, by object, between two `ingest_second` calls leaves
    /// every object's retained readings and episodes equal to one-batch
    /// ingestion — across skipped seconds and long silences too.
    #[test]
    fn split_batches_of_one_second_merge_like_one_batch(
        steps in proptest::collection::vec(
            (1u64..40, proptest::collection::vec((0u32..4, 0u32..3), 0..6), 0u8..16),
            1..40
        ),
    ) {
        let (mut one, mut split) = (DataCollector::new(), DataCollector::new());
        let mut second = 0;
        for (gap, detections, mask) in &steps {
            second += gap;
            let all: Vec<(ObjectId, ReaderId)> = detections
                .iter()
                .map(|&(o, r)| (ObjectId::new(o), ReaderId::new(r)))
                .collect();
            let (first, rest): (Vec<_>, Vec<_>) =
                all.iter().partition(|(o, _)| mask & (1 << o.raw()) != 0);
            one.ingest_second(second, &all);
            split.ingest_second(second, &first);
            split.ingest_second(second, &rest);
        }
        prop_assert_eq!(one.current_second(), split.current_second());
        for o in (0..4).map(ObjectId::new) {
            prop_assert_eq!(one.last_two_devices(o), split.last_two_devices(o), "{}", o);
            prop_assert_eq!(one.last_episode(o), split.last_episode(o), "{}", o);
            prop_assert_eq!(one.detections(o), split.detections(o), "{}", o);
        }
    }

    /// The tentpole's absorbability contract as a property: ANY delivery
    /// schedule that respects the reorder window, with any duplication
    /// pattern, leaves the collector's aggregated state identical to
    /// clean in-order ingestion.
    #[test]
    fn windowed_reorder_and_duplicates_are_absorbed(
        steps in proptest::collection::vec(
            (proptest::option::of((0u32..3, 0u32..4)), 0u64..4, 0u64..2),
            5..60
        ),
    ) {
        const WINDOW: u64 = 3;
        let mut clean = DataCollector::new();
        let mut faulted = DataCollector::new();
        faulted.set_reorder_window(WINDOW);
        let mut deliveries: BTreeMap<u64, Vec<(u64, ObjectId, ReaderId)>> = BTreeMap::new();
        let last = steps.len() as u64 - 1;
        for (s, (step, delay, dup)) in steps.iter().enumerate() {
            let second = s as u64;
            let det: Vec<(ObjectId, ReaderId)> = step
                .map(|(o, r)| (ObjectId::new(o), ReaderId::new(r)))
                .into_iter()
                .collect();
            clean.ingest_second(second, &det);
            for &(o, r) in &det {
                let slot = deliveries.entry(second + delay).or_default();
                slot.push((second, o, r));
                if *dup == 1 {
                    slot.push((second, o, r));
                }
            }
        }
        for s in 0..=last + WINDOW {
            let batch = deliveries.remove(&s).unwrap_or_default();
            faulted.ingest_delivery(s, &batch);
        }
        faulted.flush_through(last);
        for o in (0..3).map(ObjectId::new) {
            prop_assert_eq!(
                clean.last_two_devices(o),
                faulted.last_two_devices(o),
                "device window diverged for {}", o
            );
            prop_assert_eq!(
                clean.last_episode(o),
                faulted.last_episode(o),
                "episode diverged for {}", o
            );
            prop_assert_eq!(
                clean.detections(o),
                faulted.detections(o),
                "detections diverged for {}", o
            );
        }
    }

    #[test]
    fn collector_retention_is_bounded(
        detections in proptest::collection::vec((0u32..5, 0u32..6), 10..300),
    ) {
        // Random walk of detections with occasional silent seconds.
        let mut c = DataCollector::new();
        for (s, &(o, r)) in detections.iter().enumerate() {
            let second = s as u64;
            if r == 5 {
                c.ingest_second(second, &[]);
            } else {
                c.ingest_second(second, &[(ObjectId::new(o), ReaderId::new(r))]);
            }
        }
        for o in (0..5).map(ObjectId::new) {
            let retained = c.detections(o);
            if let (Some(&(start, _)), Some(&(end, _))) = (retained.first(), retained.last()) {
                // Retained detections end at or before the present and
                // start at the older of the two most recent episodes.
                prop_assert!(retained.windows(2).all(|w| w[0].0 < w[1].0));
                prop_assert!(Some(end) <= c.current_second());
                prop_assert!(
                    retained.len() <= detections.len(),
                    "cannot retain more than fed"
                );
                let (_, first, _) = c.last_episode(o).expect("detected object");
                prop_assert!(start <= first);
            }
        }
    }
}

/// The `APtoObjHT` as an ordered map from anchor to its sorted object
/// list, the layout the index had before it became a table indexed by
/// anchor id: the model the table is checked against.
#[derive(Default)]
struct MapIndex {
    by_anchor: BTreeMap<AnchorId, Vec<(ObjectId, f64)>>,
    by_object: BTreeMap<ObjectId, Vec<(AnchorId, f64)>>,
}

impl MapIndex {
    fn set_object(&mut self, object: ObjectId, dist: Vec<(AnchorId, f64)>) {
        self.remove_object(&object);
        let dist: Vec<(AnchorId, f64)> = dist.into_iter().filter(|&(_, p)| p > 0.0).collect();
        for &(anchor, p) in &dist {
            let list = self.by_anchor.entry(anchor).or_default();
            let at = list.partition_point(|&(k, _)| k < object);
            list.insert(at, (object, p));
        }
        if !dist.is_empty() {
            self.by_object.insert(object, dist);
        }
    }

    fn apply_object(&mut self, object: ObjectId, dist: Vec<(AnchorId, f64)>) -> DeltaOutcome {
        let dist: Vec<(AnchorId, f64)> = dist.into_iter().filter(|&(_, p)| p > 0.0).collect();
        match self.by_object.get(&object) {
            Some(old) if old == &dist => DeltaOutcome::Unchanged,
            Some(_) => {
                self.set_object(object, dist);
                DeltaOutcome::Updated
            }
            None if dist.is_empty() => DeltaOutcome::Unchanged,
            None => {
                self.set_object(object, dist);
                DeltaOutcome::Inserted
            }
        }
    }

    fn retain_objects(&mut self, keep: impl Fn(&ObjectId) -> bool) -> u64 {
        let stale: Vec<ObjectId> = self
            .by_object
            .keys()
            .filter(|k| !keep(k))
            .copied()
            .collect();
        for k in &stale {
            self.remove_object(k);
        }
        stale.len() as u64
    }

    fn remove_object(&mut self, object: &ObjectId) {
        if let Some(old) = self.by_object.remove(object) {
            for (anchor, _) in old {
                if let Some(list) = self.by_anchor.get_mut(&anchor) {
                    list.retain(|(k, _)| k != object);
                    if list.is_empty() {
                        self.by_anchor.remove(&anchor);
                    }
                }
            }
        }
    }

    fn at_anchor(&self, anchor: AnchorId) -> &[(ObjectId, f64)] {
        self.by_anchor.get(&anchor).map_or(&[], Vec::as_slice)
    }
}

/// Anchor ids of the paper's office at 1 m spacing.
const OFFICE_ANCHORS: u32 = 381;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any sequence of index operations leaves the table and the map
    /// model answering every lookup alike, and `==` compares contents:
    /// a rebuild that took another path (touching anchors it then
    /// emptied) is equal, and one changed anchor row is not.
    #[test]
    fn incremental_index_table_matches_the_map_model(
        ops in proptest::collection::vec(
            (
                0u8..5,
                0u32..8,
                proptest::collection::vec((0u32..OFFICE_ANCHORS, -0.2f64..1.0), 0..5),
                0u32..256,
            ),
            1..40
        ),
    ) {
        let mut table: AnchorObjectIndex<ObjectId> = AnchorObjectIndex::new();
        let mut model = MapIndex::default();
        for (step, (op, object, dist, mask)) in ops.into_iter().enumerate() {
            let object = ObjectId::new(object);
            let dist: Vec<(AnchorId, f64)> =
                dist.into_iter().map(|(a, p)| (AnchorId::new(a), p)).collect();
            match op {
                0 => {
                    table.set_object(object, dist.clone());
                    model.set_object(object, dist);
                }
                1 => prop_assert_eq!(
                    table.apply_object(object, dist.clone()),
                    model.apply_object(object, dist),
                    "step {}: apply_object outcome", step
                ),
                2 => {
                    let keep = |o: &ObjectId| mask & (1 << o.raw()) != 0;
                    prop_assert_eq!(table.retain_objects(keep), model.retain_objects(keep));
                }
                3 => {
                    table.remove_object(&object);
                    model.remove_object(&object);
                }
                _ => {
                    table.clear();
                    model = MapIndex::default();
                }
            }
            for a in (0..=OFFICE_ANCHORS).chain([u32::MAX]) {
                let a = AnchorId::new(a);
                prop_assert_eq!(table.at_anchor(a), model.at_anchor(a), "step {}: {:?}", step, a);
            }
            prop_assert_eq!(table.anchor_count(), model.by_anchor.len(), "step {}", step);
            prop_assert_eq!(table.object_count(), model.by_object.len(), "step {}", step);
            prop_assert!(table.objects().eq(model.by_object.keys()), "step {}", step);
            for o in (0..8).map(ObjectId::new) {
                prop_assert_eq!(
                    table.distribution(&o),
                    model.by_object.get(&o).map(Vec::as_slice),
                    "step {}: {:?}", step, o
                );
            }
        }

        // Equal contents reached another way: a rebuild that first
        // touches anchors no final object uses, then empties them.
        let mut rebuilt: AnchorObjectIndex<ObjectId> = AnchorObjectIndex::new();
        let visitor = ObjectId::new(99);
        rebuilt.set_object(
            visitor,
            vec![(AnchorId::new(OFFICE_ANCHORS - 1), 0.5), (AnchorId::new(0), 0.5)],
        );
        for (o, d) in model.by_object.iter().rev() {
            rebuilt.set_object(*o, d.clone());
        }
        rebuilt.remove_object(&visitor);
        prop_assert_eq!(&rebuilt, &table, "equal contents, different histories");

        // One anchor row differs: the first entry of some object halves.
        if let Some((&o, d)) = model.by_object.iter().next() {
            let mut changed = d.clone();
            changed[0].1 *= 0.5;
            let mut other = table.clone();
            other.set_object(o, changed);
            prop_assert!(other != table, "a changed anchor row must compare unequal");
        }
    }
}

//! Indoor kNN query evaluation — **Algorithm 4**.
//!
//! "Starting from the query point q, anchor points are searched in
//! ascending order of their distance to q; the search expands from q one
//! anchor point forward per iteration, until the sum of the probability of
//! all objects indexed by the searched anchor points is no less than k."
//!
//! The result set `⟨(o₁,p₁) … (o_m,p_m)⟩` with `Σpᵢ ≥ k` contains at least
//! `k` objects; `pᵢ` is the (statistical) probability of `oᵢ` being in the
//! true kNN result.
//!
//! Our implementation visits anchors in exactly the paper's frontier
//! order — ascending shortest network distance from `q`, ties by anchor
//! id — through the lazy [`AnchorScan`], and stops at the same Σp ≥ k
//! criterion, so it returns the identical result set while settling only
//! the part of the graph the stop required. A registered query keeps its
//! scan between passes (see [`crate::IndoorQuerySystem::register_knn`]),
//! so a pass re-reads the anchors earlier passes reached and searches
//! only past the farthest of them.

use crate::{KnnQuery, ResultSet};
use ripq_graph::{AnchorObjectIndex, AnchorScan, AnchorSet, ScanCounts, WalkingGraph};
use ripq_rfid::ObjectId;

/// Evaluates a probabilistic kNN query over the filtered `APtoObjHT`
/// index.
///
/// The query point is first "approximated to the nearest edge of the
/// indoor walking graph" (§4.6). Returns the accumulated result set; its
/// total probability, before each probability is clamped into [0, 1], is
/// ≥ `min(k, total mass in the index)`.
pub fn evaluate_knn(
    graph: &WalkingGraph,
    anchors: &AnchorSet,
    index: &AnchorObjectIndex<ObjectId>,
    query: &KnnQuery,
) -> ResultSet {
    let mut scan = AnchorScan::new(graph, anchors, graph.project(query.point));
    knn_over_scan(
        &mut scan,
        graph,
        anchors,
        index,
        query.k,
        &mut ScanCounts::default(),
    )
}

/// Algorithm 4 over `scan`, a scan from the query point on `graph` and
/// `anchors`: reads anchors in ascending distance until Σp ≥ `k`, adds to
/// `counts` the effort a fresh scan spends to stop there, then clamps
/// each probability into [0, 1].
pub(crate) fn knn_over_scan(
    scan: &mut AnchorScan,
    graph: &WalkingGraph,
    anchors: &AnchorSet,
    index: &AnchorObjectIndex<ObjectId>,
    k: usize,
    counts: &mut ScanCounts,
) -> ResultSet {
    let mut walk = scan.walk(graph, anchors);
    let mut result_set = ResultSet::new();
    let target = k as f64;
    for (anchor, _) in walk.by_ref() {
        let objects = index.at_anchor(anchor);
        // An anchor without objects leaves Σp where it was, below k.
        if objects.is_empty() {
            continue;
        }
        for &(o, p) in objects {
            result_set.add(o, p);
        }
        if result_set.total_probability() >= target {
            break;
        }
    }
    *counts += walk.counts();
    result_set.clamp_probabilities();
    result_set
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::QueryId;
    use ripq_floorplan::{office_building, FloorPlan, OfficeParams};
    use ripq_graph::build_walking_graph;

    fn setup() -> (FloorPlan, WalkingGraph, AnchorSet) {
        let plan = office_building(&OfficeParams::default()).unwrap();
        let graph = build_walking_graph(&plan);
        let anchors = AnchorSet::generate(&graph, &plan, 1.0);
        (plan, graph, anchors)
    }

    fn o(i: u32) -> ObjectId {
        ObjectId::new(i)
    }

    /// Places `objects[i]` with probability 1 on the anchor nearest to the
    /// given point.
    fn place(
        graph: &WalkingGraph,
        anchors: &AnchorSet,
        index: &mut AnchorObjectIndex<ObjectId>,
        obj: ObjectId,
        p: ripq_geom::Point2,
    ) {
        let a = anchors.nearest(graph.project(p));
        index.set_object(obj, vec![(a, 1.0)]);
    }

    #[test]
    fn k1_returns_nearest_certain_object() {
        let (plan, graph, anchors) = setup();
        let mut index = AnchorObjectIndex::new();
        let h0 = plan.hallways()[0].footprint().center();
        // Object 0 close to the query, object 1 far away.
        place(&graph, &anchors, &mut index, o(0), h0);
        place(
            &graph,
            &anchors,
            &mut index,
            o(1),
            plan.hallways()[2].footprint().center(),
        );
        let q = KnnQuery::new(QueryId::new(0), h0, 1).unwrap();
        let rs = evaluate_knn(&graph, &anchors, &index, &q);
        assert!((rs.probability(o(0)) - 1.0).abs() < 1e-9);
        assert_eq!(rs.probability(o(1)), 0.0, "search stopped before o1");
    }

    #[test]
    fn accumulates_until_k() {
        let (plan, graph, anchors) = setup();
        let mut index = AnchorObjectIndex::new();
        let base = plan.hallways()[0].footprint().center();
        for i in 0..5 {
            place(
                &graph,
                &anchors,
                &mut index,
                o(i),
                base + ripq_geom::Point2::new(i as f64 * 3.0, 0.0),
            );
        }
        let q = KnnQuery::new(QueryId::new(0), base, 3).unwrap();
        let rs = evaluate_knn(&graph, &anchors, &index, &q);
        assert!(rs.total_probability() >= 3.0 - 1e-9);
        assert!(rs.len() >= 3, "at least k objects returned");
        // The three nearest are the first three placed.
        for i in 0..3 {
            assert!((rs.probability(o(i)) - 1.0).abs() < 1e-9);
        }
        assert_eq!(rs.probability(o(4)), 0.0);
    }

    #[test]
    fn uncertain_objects_contribute_fractionally() {
        let (plan, graph, anchors) = setup();
        let mut index = AnchorObjectIndex::new();
        let base = plan.hallways()[0].footprint().center();
        let near = anchors.nearest(graph.project(base));
        let far = anchors.nearest(graph.project(plan.hallways()[2].footprint().center()));
        // Object 0: 50/50 near/far. Object 1: certain, slightly farther
        // than the near anchor.
        index.set_object(o(0), vec![(near, 0.5), (far, 0.5)]);
        place(
            &graph,
            &anchors,
            &mut index,
            o(1),
            base + ripq_geom::Point2::new(4.0, 0.0),
        );
        let q = KnnQuery::new(QueryId::new(0), base, 1).unwrap();
        let rs = evaluate_knn(&graph, &anchors, &index, &q);
        // Expansion picks up o0's 0.5 first, continues (0.5 < 1), then o1's
        // 1.0 pushes the total past k=1.
        assert!((rs.probability(o(0)) - 0.5).abs() < 1e-9);
        assert!((rs.probability(o(1)) - 1.0).abs() < 1e-9);
        assert!(rs.total_probability() >= 1.0);
    }

    #[test]
    fn result_at_least_k_objects_when_available() {
        let (plan, graph, anchors) = setup();
        let mut index = AnchorObjectIndex::new();
        for i in 0..10 {
            place(
                &graph,
                &anchors,
                &mut index,
                o(i),
                plan.rooms()[i as usize * 3].center(),
            );
        }
        for k in [1usize, 3, 5, 9] {
            let q =
                KnnQuery::new(QueryId::new(0), plan.hallways()[1].footprint().center(), k).unwrap();
            let rs = evaluate_knn(&graph, &anchors, &index, &q);
            assert!(rs.len() >= k, "k={k}: got {}", rs.len());
            assert!(rs.total_probability() >= k as f64 - 1e-9);
        }
    }

    #[test]
    fn insufficient_mass_returns_everything() {
        let (plan, graph, anchors) = setup();
        let mut index = AnchorObjectIndex::new();
        place(&graph, &anchors, &mut index, o(0), plan.rooms()[0].center());
        let q = KnnQuery::new(QueryId::new(0), plan.rooms()[29].center(), 5).unwrap();
        let rs = evaluate_knn(&graph, &anchors, &index, &q);
        // Only one object exists: the scan exhausts all anchors and returns
        // it rather than looping forever.
        assert_eq!(rs.len(), 1);
        assert!((rs.total_probability() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empty_index_returns_empty_set() {
        let (plan, graph, anchors) = setup();
        let index = AnchorObjectIndex::new();
        let q = KnnQuery::new(QueryId::new(0), plan.rooms()[0].center(), 3).unwrap();
        let rs = evaluate_knn(&graph, &anchors, &index, &q);
        assert!(rs.is_empty());
    }

    /// Algorithm 4 on a fresh scan: the answer and the effort counted.
    fn fresh(
        graph: &WalkingGraph,
        anchors: &AnchorSet,
        index: &AnchorObjectIndex<ObjectId>,
        q: &KnnQuery,
    ) -> (ResultSet, ScanCounts) {
        let mut scan = AnchorScan::new(graph, anchors, graph.project(q.point));
        let mut counts = ScanCounts::default();
        let rs = knn_over_scan(&mut scan, graph, anchors, index, q.k, &mut counts);
        (rs, counts)
    }

    #[test]
    fn a_kept_scan_answers_and_counts_like_a_fresh_one() {
        let (plan, graph, anchors) = setup();
        let mut index = AnchorObjectIndex::new();
        place(&graph, &anchors, &mut index, o(0), plan.rooms()[3].center());
        let q = KnnQuery::new(QueryId::new(0), plan.rooms()[20].center(), 1).unwrap();
        let mut kept = AnchorScan::new(&graph, &anchors, graph.project(q.point));
        let mut pass = |index: &AnchorObjectIndex<ObjectId>| {
            let mut counts = ScanCounts::default();
            let rs = knn_over_scan(&mut kept, &graph, &anchors, index, q.k, &mut counts);
            let (want, want_counts) = fresh(&graph, &anchors, index, &q);
            assert_eq!(rs, want);
            assert_eq!(counts, want_counts);
            (counts, kept.counts())
        };
        let (first, spent) = pass(&index);
        assert!(first.settled > 0 && first.anchor_candidates > 0);
        assert_eq!(first, spent);
        // A nearer object: the pass stops inside what the scan has read,
        // counts the shorter stop and searches nothing more.
        place(
            &graph,
            &anchors,
            &mut index,
            o(1),
            plan.rooms()[20].center(),
        );
        let (near, total) = pass(&index);
        assert!(near.settled < first.settled);
        assert_eq!(total, spent);
        // Only a farther object: the pass resumes past the earlier stop.
        index.clear();
        place(&graph, &anchors, &mut index, o(2), plan.rooms()[0].center());
        let (far, total) = pass(&index);
        assert!(far.settled > first.settled, "the object moved away");
        assert_eq!(far, total);
    }

    #[test]
    fn masses_summing_past_one_report_one_after_the_stop() {
        let (plan, graph, anchors) = setup();
        let q = KnnQuery::new(QueryId::new(0), plan.hallways()[0].footprint().center(), 2).unwrap();
        let mut scan = AnchorScan::new(&graph, &anchors, graph.project(q.point));
        let order: Vec<_> = scan
            .walk(&graph, &anchors)
            .take(4)
            .map(|(a, _)| a)
            .collect();
        let [a0, a1, a2, a3] = order[..] else {
            panic!("four anchors in scan order: {order:?}")
        };
        // Object 0's masses sum to 1.0000000000000002, just past 1.
        let (near, next) = (0.7, 0.300_000_000_000_000_2);
        assert!(near + next > 1.0);
        let mut index = AnchorObjectIndex::new();
        index.set_object(o(0), vec![(a0, near), (a1, next)]);
        index.set_object(o(1), vec![(a2, 0.999_999_999_999_999_8)]);
        index.set_object(o(2), vec![(a3, 1.0)]);
        let (rs, counts) = fresh(&graph, &anchors, &index, &q);
        assert_eq!(rs.probability(o(0)).to_bits(), 1.0f64.to_bits());
        assert!(rs.iter().all(|(_, p)| (0.0..=1.0).contains(&p)));
        // The raw Σp reached k = 2 at the third anchor; clamped sums would
        // fall short of 2 and read the fourth.
        assert_eq!(rs.probability(o(2)), 0.0, "the stop did not move");
        assert_eq!(rs.len(), 2);
        let mut exact = index.clone();
        exact.set_object(o(0), vec![(a0, 0.7), (a1, 0.3)]);
        exact.set_object(o(1), vec![(a2, 1.0)]);
        assert_eq!(fresh(&graph, &anchors, &exact, &q).1, counts);
    }

    #[test]
    fn network_distance_not_euclidean_governs_order() {
        // Two objects at the same Euclidean distance from q, but one is in
        // a room right next to q's hallway position while the other is
        // across a wall (long walk around): the room one must be found
        // first.
        let (plan, graph, anchors) = setup();
        let room = &plan.rooms()[1];
        let door = plan.door(room.doors()[0]);
        let q_point = door.position(); // on the hallway boundary by the door
        let mut index = AnchorObjectIndex::new();
        // Object 0 inside the adjacent room (short walk through door).
        place(&graph, &anchors, &mut index, o(0), room.center());
        // Object 1 on the other side of the building.
        place(
            &graph,
            &anchors,
            &mut index,
            o(1),
            plan.rooms()[25].center(),
        );
        let q = KnnQuery::new(QueryId::new(0), q_point, 1).unwrap();
        let rs = evaluate_knn(&graph, &anchors, &index, &q);
        assert!((rs.probability(o(0)) - 1.0).abs() < 1e-9);
        assert_eq!(rs.probability(o(1)), 0.0);
    }
}

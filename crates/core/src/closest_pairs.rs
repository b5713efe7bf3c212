//! Probabilistic closest-pairs queries — part of the paper's stated future
//! work ("more spatial query types such as continuous range, continuous
//! kNN, closest-pairs", §6).
//!
//! A closest-pairs query asks for the `m` pairs of tracked objects with
//! the smallest indoor walking distance between them. Under probabilistic
//! locations we rank pairs by **expected network distance** between their
//! anchor distributions and additionally report, for each returned pair,
//! the probability that the pair is within a caller-supplied contact
//! radius — the "are these two people together?" primitive that contact
//! tracing and social applications need.

use ripq_graph::{AnchorId, AnchorObjectIndex, AnchorScan, AnchorSet, ScanCounts, WalkingGraph};
use ripq_rfid::ObjectId;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeSet, HashMap};

/// One result pair.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ObjectPair {
    /// The pair, ordered by object id (`a < b`).
    pub a: ObjectId,
    /// Second object of the pair.
    pub b: ObjectId,
    /// Expected network distance between the two objects' distributions.
    pub expected_distance: f64,
    /// Probability the two objects are within the query's contact radius.
    pub within_radius: f64,
}

/// A closest-pairs query.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClosestPairsQuery {
    /// Number of pairs to return.
    pub m: usize,
    /// Contact radius (meters of walking distance) for the
    /// `within_radius` probability.
    pub contact_radius: f64,
}

/// Evaluates a closest-pairs query over the filtered index.
///
/// Complexity: one ascending anchor scan per distinct *anchor* that
/// carries probability (not per object), each stopped at the last such
/// anchor, then O(pairs × support²) accumulation. With the default
/// 64-particle distributions supports are small (≤ a few dozen anchors
/// per object).
pub fn evaluate_closest_pairs(
    graph: &WalkingGraph,
    anchors: &AnchorSet,
    index: &AnchorObjectIndex<ObjectId>,
    query: &ClosestPairsQuery,
) -> Vec<ObjectPair> {
    evaluate_closest_pairs_counted(graph, anchors, index, query, &mut ScanCounts::default())
}

/// [`evaluate_closest_pairs`] that also adds the scans' search effort to
/// `counts`.
pub(crate) fn evaluate_closest_pairs_counted(
    graph: &WalkingGraph,
    anchors: &AnchorSet,
    index: &AnchorObjectIndex<ObjectId>,
    query: &ClosestPairsQuery,
    counts: &mut ScanCounts,
) -> Vec<ObjectPair> {
    let Some((objects, support)) = resolve_support(index, query) else {
        return Vec::new();
    };
    // Network distances between support anchors: one scan from each.
    let mut dist: HashMap<(AnchorId, AnchorId), f64> = HashMap::new();
    for &a in &support {
        let mut scan = AnchorScan::new(graph, anchors, anchors.anchor(a).pos);
        let mut walk = scan.walk(graph, anchors);
        for (b, d) in walk.distances_to(&support) {
            dist.insert((a, b), d);
        }
        *counts += walk.counts();
    }
    rank_pairs(&objects, index, &dist, query)
}

/// The sorted object list and the distinct anchors that carry
/// probability. `None` when the query is degenerate.
fn resolve_support(
    index: &AnchorObjectIndex<ObjectId>,
    query: &ClosestPairsQuery,
) -> Option<(Vec<ObjectId>, BTreeSet<AnchorId>)> {
    let mut objects: Vec<ObjectId> = index.objects().copied().collect();
    objects.sort_unstable();
    if objects.len() < 2 || query.m == 0 {
        return None;
    }
    // Distinct anchors used by any distribution (objects without one
    // simply contribute no anchors).
    let support = objects
        .iter()
        .flat_map(|o| index.distribution(o).into_iter().flatten().map(|&(a, _)| a))
        .collect();
    Some((objects, support))
}

/// Accumulates expected distance / contact probability per pair over the
/// precomputed support-anchor distance matrix, ranks, and truncates.
fn rank_pairs(
    objects: &[ObjectId],
    index: &AnchorObjectIndex<ObjectId>,
    dist: &HashMap<(AnchorId, AnchorId), f64>,
    query: &ClosestPairsQuery,
) -> Vec<ObjectPair> {
    let mut pairs = Vec::with_capacity(objects.len() * (objects.len() - 1) / 2);
    for (i, &a) in objects.iter().enumerate() {
        let Some(da) = index.distribution(&a) else {
            continue;
        };
        for &b in &objects[i + 1..] {
            let Some(db) = index.distribution(&b) else {
                continue;
            };
            let mut expected = 0.0;
            let mut close = 0.0;
            let mut mass = 0.0;
            for &(aa, pa) in da {
                for &(ab, pb) in db {
                    let d = dist.get(&(aa, ab)).copied().unwrap_or(f64::INFINITY);
                    let w = pa * pb;
                    expected += w * d;
                    mass += w;
                    if d <= query.contact_radius {
                        close += w;
                    }
                }
            }
            if mass > 0.0 {
                expected /= mass;
                close /= mass;
            }
            pairs.push(ObjectPair {
                a,
                b,
                expected_distance: expected,
                within_radius: close,
            });
        }
    }
    pairs.sort_by(|x, y| {
        x.expected_distance
            .partial_cmp(&y.expected_distance)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| (x.a, x.b).cmp(&(y.a, y.b)))
    });
    pairs.truncate(query.m);
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;
    use ripq_floorplan::{office_building, FloorPlan, OfficeParams};
    use ripq_geom::Point2;
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

    fn place(
        graph: &WalkingGraph,
        anchors: &AnchorSet,
        index: &mut AnchorObjectIndex<ObjectId>,
        obj: ObjectId,
        p: Point2,
    ) {
        let a = anchors.nearest(graph.project(p));
        index.set_object(obj, vec![(a, 1.0)]);
    }

    #[test]
    fn nearest_pair_comes_first() {
        let (plan, graph, anchors) = setup();
        let mut index = AnchorObjectIndex::new();
        let base = plan.hallways()[0].footprint().center();
        place(&graph, &anchors, &mut index, o(0), base);
        place(
            &graph,
            &anchors,
            &mut index,
            o(1),
            base + Point2::new(2.0, 0.0),
        );
        place(
            &graph,
            &anchors,
            &mut index,
            o(2),
            base + Point2::new(15.0, 0.0),
        );
        let q = ClosestPairsQuery {
            m: 3,
            contact_radius: 3.0,
        };
        let pairs = evaluate_closest_pairs(&graph, &anchors, &index, &q);
        assert_eq!(pairs.len(), 3);
        assert_eq!((pairs[0].a, pairs[0].b), (o(0), o(1)));
        assert!(pairs[0].expected_distance < pairs[1].expected_distance);
        assert!(pairs[0].within_radius > 0.99, "certain contact");
        // The far pairs are not within the contact radius.
        assert!(pairs[2].within_radius < 0.01);
    }

    #[test]
    fn m_truncates() {
        let (plan, graph, anchors) = setup();
        let mut index = AnchorObjectIndex::new();
        for i in 0..4 {
            place(
                &graph,
                &anchors,
                &mut index,
                o(i),
                plan.rooms()[i as usize].center(),
            );
        }
        let q = ClosestPairsQuery {
            m: 2,
            contact_radius: 5.0,
        };
        let pairs = evaluate_closest_pairs(&graph, &anchors, &index, &q);
        assert_eq!(pairs.len(), 2);
    }

    #[test]
    fn uncertain_locations_give_expected_distance() {
        let (plan, graph, anchors) = setup();
        let mut index = AnchorObjectIndex::new();
        let base = plan.hallways()[0].footprint().center();
        let a_near = anchors.nearest(graph.project(base + Point2::new(2.0, 0.0)));
        let a_far = anchors.nearest(graph.project(base + Point2::new(10.0, 0.0)));
        place(&graph, &anchors, &mut index, o(0), base);
        index.set_object(o(1), vec![(a_near, 0.5), (a_far, 0.5)]);
        let q = ClosestPairsQuery {
            m: 1,
            contact_radius: 4.0,
        };
        let pairs = evaluate_closest_pairs(&graph, &anchors, &index, &q);
        // Expected distance ≈ 0.5·2 + 0.5·10 = 6 (± anchor discretization).
        assert!(
            (pairs[0].expected_distance - 6.0).abs() < 1.5,
            "got {}",
            pairs[0].expected_distance
        );
        // Contact (within 4 m) happens in the near branch only: ≈ 0.5.
        assert!((pairs[0].within_radius - 0.5).abs() < 0.05);
    }

    #[test]
    fn degenerate_inputs() {
        let (plan, graph, anchors) = setup();
        let mut index = AnchorObjectIndex::new();
        let q = ClosestPairsQuery {
            m: 5,
            contact_radius: 2.0,
        };
        assert!(evaluate_closest_pairs(&graph, &anchors, &index, &q).is_empty());
        place(&graph, &anchors, &mut index, o(0), plan.rooms()[0].center());
        assert!(
            evaluate_closest_pairs(&graph, &anchors, &index, &q).is_empty(),
            "one object has no pairs"
        );
        place(&graph, &anchors, &mut index, o(1), plan.rooms()[1].center());
        let zero = ClosestPairsQuery {
            m: 0,
            contact_radius: 2.0,
        };
        assert!(evaluate_closest_pairs(&graph, &anchors, &index, &zero).is_empty());
    }
}

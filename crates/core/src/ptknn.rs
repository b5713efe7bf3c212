//! Probabilistic Threshold kNN (PTkNN) queries.
//!
//! Yang et al. [30] — the system the paper benchmarks against — define the
//! *Indoor Probabilistic Threshold kNN Query*: "finding a result set with
//! k objects which have a higher probability than the threshold probability
//! T" of belonging to the true kNN set (§2.1 of the paper). RIPQ supports
//! the same query type on top of its anchor-indexed distributions, so
//! users migrating from a symbolic-model deployment keep their query
//! semantics.
//!
//! The per-object kNN-membership probability is estimated by Monte-Carlo
//! sampling over the joint location distributions: each round samples one
//! concrete anchor per object (independently, per the index), computes the
//! exact kNN set of the sample by network distance, and counts membership
//! frequencies. This matches the semantics of possible-worlds kNN under
//! attribute-level uncertainty.

use crate::{ResultSet, RipqError};
use rand::Rng;
use ripq_geom::Point2;
use ripq_graph::{AnchorId, AnchorObjectIndex, AnchorScan, AnchorSet, ScanCounts, WalkingGraph};
use ripq_rfid::ObjectId;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// A probabilistic threshold kNN query.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PtknnQuery {
    /// The query point.
    pub point: Point2,
    /// Number of neighbors.
    pub k: usize,
    /// Membership probability threshold `T ∈ (0, 1]`.
    pub threshold: f64,
}

impl PtknnQuery {
    /// Creates a PTkNN query, validating `k` and `T`.
    pub fn new(point: Point2, k: usize, threshold: f64) -> Result<Self, RipqError> {
        if k == 0 {
            return Err(RipqError::ZeroK);
        }
        // ripq-lint: allow(prob-hygiene) -- validation rejects exactly T = 0 per the query definition (T ∈ (0, 1]); a tolerance would wrongly reject tiny valid thresholds
        if !(0.0..=1.0).contains(&threshold) || threshold == 0.0 {
            return Err(RipqError::InvalidThreshold(threshold));
        }
        Ok(PtknnQuery {
            point,
            k,
            threshold,
        })
    }
}

/// Evaluates a PTkNN query by possible-worlds sampling.
///
/// `rounds` controls the Monte-Carlo effort (the estimate's standard error
/// is ≈ √(p(1−p)/rounds); 200 rounds resolve probabilities to ~±0.035).
/// Returns the objects whose estimated kNN-membership probability is
/// `≥ query.threshold`, with those probabilities. Anchor distances come
/// from one ascending [`AnchorScan`] from the query point, stopped at the
/// last anchor any distribution touches.
pub fn evaluate_ptknn<R: Rng>(
    rng: &mut R,
    graph: &WalkingGraph,
    anchors: &AnchorSet,
    index: &AnchorObjectIndex<ObjectId>,
    query: &PtknnQuery,
    rounds: usize,
) -> ResultSet {
    let mut scan = AnchorScan::new(graph, anchors, graph.project(query.point));
    let mut counts = ScanCounts::default();
    ptknn_over_scan(
        rng,
        &mut scan,
        graph,
        anchors,
        index,
        query,
        rounds,
        &mut counts,
    )
}

/// [`evaluate_ptknn`] over `scan`, a scan from the query point on `graph`
/// and `anchors`; adds to `counts` the effort a fresh scan spends to
/// reach every anchor the sampler needs.
#[allow(clippy::too_many_arguments)]
pub(crate) fn ptknn_over_scan<R: Rng>(
    rng: &mut R,
    scan: &mut AnchorScan,
    graph: &WalkingGraph,
    anchors: &AnchorSet,
    index: &AnchorObjectIndex<ObjectId>,
    query: &PtknnQuery,
    rounds: usize,
    counts: &mut ScanCounts,
) -> ResultSet {
    // Union of anchors any distribution touches — the only distances the
    // sampler can ask for.
    let needed: BTreeSet<AnchorId> = index
        .objects()
        .filter_map(|o| index.distribution(o))
        .flatten()
        .map(|&(a, _)| a)
        .collect();
    let mut walk = scan.walk(graph, anchors);
    let dist = walk.distances_to(&needed);
    *counts += walk.counts();
    evaluate_ptknn_with(rng, index, query, rounds, |a| {
        dist.get(&a).copied().unwrap_or(f64::INFINITY)
    })
}

/// The Monte-Carlo body over the anchor distances `distance_to_anchor`
/// reports.
fn evaluate_ptknn_with<R: Rng>(
    rng: &mut R,
    index: &AnchorObjectIndex<ObjectId>,
    query: &PtknnQuery,
    rounds: usize,
    distance_to_anchor: impl Fn(AnchorId) -> f64,
) -> ResultSet {
    // Pre-resolve every object's distribution and anchor distances.
    let objects: Vec<ObjectId> = {
        let mut v: Vec<ObjectId> = index.objects().copied().collect();
        v.sort_unstable();
        v
    };
    if objects.is_empty() || rounds == 0 {
        return ResultSet::new();
    }
    // An object listed by the index but missing its distribution (or with
    // an empty one) contributes nothing; skipping it keeps this query path
    // panic-free instead of trusting cross-view index invariants.
    type ObjDist<'a> = (&'a [(AnchorId, f64)], Vec<f64>);
    let mut kept: Vec<ObjectId> = Vec::with_capacity(objects.len());
    let mut dists: Vec<ObjDist<'_>> = Vec::with_capacity(objects.len());
    for o in &objects {
        let Some(dist) = index.distribution(o) else {
            continue;
        };
        if dist.is_empty() {
            continue;
        }
        let d: Vec<f64> = dist.iter().map(|&(a, _)| distance_to_anchor(a)).collect();
        kept.push(*o);
        dists.push((dist, d));
    }
    let objects = kept;
    if objects.is_empty() {
        return ResultSet::new();
    }

    let mut membership = vec![0u32; objects.len()];
    let mut sampled = Vec::with_capacity(objects.len());
    for _ in 0..rounds {
        sampled.clear();
        for (i, (dist, d)) in dists.iter().enumerate() {
            // Sample one anchor index by probability (distributions sum
            // to ~1; residual mass falls to the last entry).
            let mut x: f64 = rng.random::<f64>();
            let mut chosen = d.len() - 1;
            for (j, &(_, p)) in dist.iter().enumerate() {
                if x <= p {
                    chosen = j;
                    break;
                }
                x -= p;
            }
            sampled.push((d[chosen], i));
        }
        sampled.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
        for &(_, i) in sampled.iter().take(query.k) {
            membership[i] += 1;
        }
    }

    let mut out = ResultSet::new();
    for (i, &m) in membership.iter().enumerate() {
        let p = m as f64 / rounds as f64;
        if p >= query.threshold {
            out.add(objects[i], p);
        }
    }
    out.clamp_probabilities();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
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
    fn validation() {
        assert!(PtknnQuery::new(Point2::ORIGIN, 0, 0.5).is_err());
        assert!(PtknnQuery::new(Point2::ORIGIN, 1, 0.0).is_err());
        assert!(PtknnQuery::new(Point2::ORIGIN, 1, 1.5).is_err());
        assert!(PtknnQuery::new(Point2::ORIGIN, 1, 1.0).is_ok());
    }

    #[test]
    fn certain_objects_yield_deterministic_membership() {
        let (plan, graph, anchors) = setup();
        let mut index = AnchorObjectIndex::new();
        let q_point = plan.hallways()[0].footprint().center();
        // Three certain objects at increasing distance.
        for i in 0..3 {
            place(
                &graph,
                &anchors,
                &mut index,
                o(i),
                q_point + Point2::new(3.0 + 4.0 * i as f64, 0.0),
            );
        }
        let q = PtknnQuery::new(q_point, 2, 0.5).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let rs = evaluate_ptknn(&mut rng, &graph, &anchors, &index, &q, 100);
        assert!((rs.probability(o(0)) - 1.0).abs() < 1e-9);
        assert!((rs.probability(o(1)) - 1.0).abs() < 1e-9);
        assert_eq!(rs.probability(o(2)), 0.0, "third object never in 2NN");
        assert_eq!(rs.len(), 2);
    }

    #[test]
    fn uncertain_object_gets_fractional_membership() {
        let (plan, graph, anchors) = setup();
        let mut index = AnchorObjectIndex::new();
        let q_point = plan.hallways()[0].footprint().center();
        let near = anchors.nearest(graph.project(q_point + Point2::new(2.0, 0.0)));
        let far = anchors.nearest(graph.project(plan.hallways()[2].footprint().center()));
        // Object 0: 50/50 near/far. Object 1: certain, in between.
        index.set_object(o(0), vec![(near, 0.5), (far, 0.5)]);
        place(
            &graph,
            &anchors,
            &mut index,
            o(1),
            q_point + Point2::new(6.0, 0.0),
        );
        let q = PtknnQuery::new(q_point, 1, 0.2).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let rs = evaluate_ptknn(&mut rng, &graph, &anchors, &index, &q, 2000);
        // o0 is 1NN exactly when it sampled `near` (~50%).
        let p0 = rs.probability(o(0));
        assert!((p0 - 0.5).abs() < 0.06, "p0 = {p0}");
        let p1 = rs.probability(o(1));
        assert!((p1 - 0.5).abs() < 0.06, "p1 = {p1}");
    }

    #[test]
    fn threshold_filters_low_probability_members() {
        let (plan, graph, anchors) = setup();
        let mut index = AnchorObjectIndex::new();
        let q_point = plan.hallways()[0].footprint().center();
        let near = anchors.nearest(graph.project(q_point + Point2::new(2.0, 0.0)));
        let far = anchors.nearest(graph.project(plan.hallways()[2].footprint().center()));
        index.set_object(o(0), vec![(near, 0.1), (far, 0.9)]);
        place(
            &graph,
            &anchors,
            &mut index,
            o(1),
            q_point + Point2::new(5.0, 0.0),
        );
        let mut rng = StdRng::seed_from_u64(3);
        // T = 0.5: o0 (≈10% member) is filtered out, o1 (≈90%) stays.
        let q = PtknnQuery::new(q_point, 1, 0.5).unwrap();
        let rs = evaluate_ptknn(&mut rng, &graph, &anchors, &index, &q, 1000);
        assert_eq!(rs.probability(o(0)), 0.0);
        assert!(rs.probability(o(1)) > 0.8);
        // T = 0.05 keeps both.
        let q = PtknnQuery::new(q_point, 1, 0.05).unwrap();
        let rs = evaluate_ptknn(&mut rng, &graph, &anchors, &index, &q, 1000);
        assert!(rs.probability(o(0)) > 0.05);
        assert_eq!(rs.len(), 2);
    }

    #[test]
    fn empty_index_or_zero_rounds() {
        let (plan, graph, anchors) = setup();
        let index = AnchorObjectIndex::new();
        let q = PtknnQuery::new(plan.bounds().center(), 3, 0.5).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        assert!(evaluate_ptknn(&mut rng, &graph, &anchors, &index, &q, 100).is_empty());
        let mut index2 = AnchorObjectIndex::new();
        place(
            &graph,
            &anchors,
            &mut index2,
            o(0),
            plan.rooms()[0].center(),
        );
        assert!(evaluate_ptknn(&mut rng, &graph, &anchors, &index2, &q, 0).is_empty());
    }

    #[test]
    fn membership_probabilities_sum_to_k() {
        // Over all objects, Σ membership probability = k when there are
        // at least k objects (every sampled world has exactly k members).
        let (plan, graph, anchors) = setup();
        let mut index = AnchorObjectIndex::new();
        let q_point = plan.bounds().center();
        for i in 0..6 {
            let room = &plan.rooms()[i as usize * 4];
            let a = anchors.in_room(room.id())[0];
            let b = anchors.in_room(room.id()).last().copied().unwrap();
            index.set_object(o(i), vec![(a, 0.6), (b, 0.4)]);
        }
        let q = PtknnQuery::new(q_point, 3, 1e-9).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let rs = evaluate_ptknn(&mut rng, &graph, &anchors, &index, &q, 500);
        let total = rs.total_probability();
        assert!((total - 3.0).abs() < 1e-9, "total {total}");
    }
}

//! The query-aware optimization module (§4.3).
//!
//! Running the particle filter is the expensive step, so objects that
//! cannot possibly appear in any registered query's result ("non-candidate
//! objects") are filtered out *before* preprocessing:
//!
//! * **Range queries** — an object's *uncertain region* `UR(oᵢ)` is a
//!   circle centered at its most recent detecting reader `d`, with radius
//!   `u_max · (t_now − t_last) + d.range`. Objects whose uncertain region
//!   misses every query window are pruned (Fig. 5).
//! * **kNN queries** — distance-based pruning after Yang et al.: with
//!   `sᵢ / lᵢ` the min/max shortest network distance from the query point
//!   to `UR(oᵢ)` and `f` the k-th smallest `lᵢ`, every object with
//!   `sᵢ > f` is pruned (Fig. 4).

use crate::KnnQuery;
use ripq_geom::{Point2, Rect};
use ripq_graph::{ShortestPaths, WalkingGraph};
use ripq_rfid::{DataCollector, ObjectId, Reader};

/// Radius of an object's uncertain region: how far it may have walked
/// since its last detection, plus the detection radius itself.
pub fn uncertain_region_radius(reader: &Reader, t_last: u64, now: u64, max_speed: f64) -> f64 {
    let elapsed = now.saturating_sub(t_last) as f64;
    max_speed * elapsed + reader.activation_range()
}

/// Range-query pruning: returns the objects whose uncertain region
/// intersects at least one of `windows`.
///
/// Uses plain Euclidean geometry ("we employ a simple approach based on the
/// Euclidian distance instead of the minimum indoor walking distance to
/// filter out non-candidate objects", §4.3) — conservative and cheap.
pub fn prune_range_candidates(
    collector: &DataCollector,
    readers: &[Reader],
    windows: &[Rect],
    now: u64,
    max_speed: f64,
) -> Vec<ObjectId> {
    let mut out = Vec::new();
    for o in collector.objects() {
        let Some((rid, t_last)) = collector.last_detection(o) else {
            continue;
        };
        let reader = &readers[rid.index()];
        let r = uncertain_region_radius(reader, t_last, now, max_speed);
        if windows
            .iter()
            .any(|w| w.intersects_circle(reader.position(), r))
        {
            out.push(o);
        }
    }
    out.sort_unstable();
    out
}

/// Network distance from `point` (snapped to the walking graph) to every
/// reader, indexed like `readers` — one full Dijkstra pass. Query points
/// are fixed, so the facade computes this row once when a kNN or PTkNN
/// query registers and reuses it for [`prune_knn_candidates`] on every
/// evaluation pass.
pub fn reader_distances(graph: &WalkingGraph, readers: &[Reader], point: Point2) -> Vec<f64> {
    let sp = ShortestPaths::from_pos(graph, graph.project(point));
    readers
        .iter()
        .map(|r| sp.distance_to(graph, r.graph_pos()))
        .collect()
}

/// kNN-query pruning: returns the objects that may be among the `k`
/// nearest to the query point by indoor walking distance.
///
/// `reader_dist[i]` is the network distance from the query point to
/// `readers[i]` (see [`reader_distances`]). With `d` that distance for an
/// object's last reader, `sᵢ = max(0, d − r_UR)` and `lᵢ = d + r_UR`
/// bound the object's possible network distance to `q`; with `f` the
/// k-th smallest `lᵢ`, any object with `sᵢ > f` is provably outside every
/// possible kNN result.
pub fn prune_knn_candidates(
    collector: &DataCollector,
    readers: &[Reader],
    query: &KnnQuery,
    now: u64,
    max_speed: f64,
    reader_dist: &[f64],
) -> Vec<ObjectId> {
    let mut bounds: Vec<(ObjectId, f64, f64)> = Vec::new();
    for o in collector.objects() {
        let Some((rid, t_last)) = collector.last_detection(o) else {
            continue;
        };
        let r = uncertain_region_radius(&readers[rid.index()], t_last, now, max_speed);
        let d = reader_dist[rid.index()];
        let s_i = (d - r).max(0.0);
        let l_i = d + r;
        bounds.push((o, s_i, l_i));
    }
    if bounds.len() <= query.k {
        let mut all: Vec<ObjectId> = bounds.into_iter().map(|(o, _, _)| o).collect();
        all.sort_unstable();
        return all;
    }
    // f = k-th minimum of the l_i values.
    let mut ls: Vec<f64> = bounds.iter().map(|&(_, _, l)| l).collect();
    ls.sort_by(f64::total_cmp);
    let f = ls[query.k - 1];

    let mut out: Vec<ObjectId> = bounds
        .into_iter()
        .filter(|&(_, s, _)| s <= f)
        .map(|(o, _, _)| o)
        .collect();
    out.sort_unstable();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::QueryId;
    use ripq_floorplan::{office_building, OfficeParams};
    use ripq_graph::build_walking_graph;
    use ripq_rfid::{deploy_uniform, ReaderId};

    fn setup() -> (WalkingGraph, Vec<Reader>, DataCollector) {
        let plan = office_building(&OfficeParams::default()).unwrap();
        let graph = build_walking_graph(&plan);
        let readers = deploy_uniform(&plan, &graph, 19, 2.0);
        (graph, readers, DataCollector::new())
    }

    fn o(i: u32) -> ObjectId {
        ObjectId::new(i)
    }

    /// kNN pruning with the query's reader row computed on the spot.
    fn prune(
        graph: &WalkingGraph,
        c: &DataCollector,
        readers: &[Reader],
        q: &KnnQuery,
        now: u64,
        max_speed: f64,
    ) -> Vec<ObjectId> {
        let row = reader_distances(graph, readers, q.point);
        prune_knn_candidates(c, readers, q, now, max_speed, &row)
    }

    #[test]
    fn ur_radius_grows_with_silence() {
        let (_, readers, _) = setup();
        let r = &readers[0];
        assert_eq!(uncertain_region_radius(r, 10, 10, 1.5), 2.0);
        assert_eq!(uncertain_region_radius(r, 10, 14, 1.5), 8.0);
        // now < t_last (clock skew) does not underflow.
        assert_eq!(uncertain_region_radius(r, 14, 10, 1.5), 2.0);
    }

    #[test]
    fn range_pruning_keeps_nearby_objects_only() {
        let (_, readers, mut c) = setup();
        // Object 0 just seen at reader 0; object 1 just seen at the last
        // reader (far away in the building).
        c.ingest_second(100, &[(o(0), ReaderId::new(0)), (o(1), ReaderId::new(18))]);
        let window = Rect::centered(readers[0].position(), 6.0, 6.0);
        let got = prune_range_candidates(&c, &readers, &[window], 100, 1.5);
        assert_eq!(got, vec![o(0)]);
    }

    #[test]
    fn range_pruning_widens_over_time() {
        let (_, readers, mut c) = setup();
        c.ingest_second(0, &[(o(0), ReaderId::new(0))]);
        for s in 1..=30 {
            c.ingest_second(s, &[]);
        }
        // A window ~20 m from reader 0 along the same hallway.
        let center = readers[0].position() + ripq_geom::Point2::new(20.0, 0.0);
        let window = Rect::centered(center, 4.0, 4.0);
        // Immediately after the detection: cannot be there.
        assert!(prune_range_candidates(&c, &readers, &[window], 0, 1.5).is_empty());
        // After 30 s at 1.5 m/s it could have walked 45 m: candidate.
        assert_eq!(
            prune_range_candidates(&c, &readers, &[window], 30, 1.5),
            vec![o(0)]
        );
    }

    #[test]
    fn no_windows_no_candidates() {
        let (_, readers, mut c) = setup();
        c.ingest_second(0, &[(o(0), ReaderId::new(0))]);
        assert!(prune_range_candidates(&c, &readers, &[], 0, 1.5).is_empty());
    }

    #[test]
    fn knn_pruning_drops_provably_far_objects() {
        let (graph, readers, mut c) = setup();
        // Three objects: two at reader 0's end of the building, one at the
        // far end.
        c.ingest_second(
            50,
            &[
                (o(0), ReaderId::new(0)),
                (o(1), ReaderId::new(1)),
                (o(2), ReaderId::new(18)),
            ],
        );
        let q = KnnQuery::new(QueryId::new(0), readers[0].position(), 2).unwrap();
        let got = prune(&graph, &c, &readers, &q, 50, 1.5);
        assert!(got.contains(&o(0)));
        assert!(got.contains(&o(1)));
        assert!(!got.contains(&o(2)), "far object must be pruned");
    }

    #[test]
    fn knn_pruning_keeps_all_when_few_objects() {
        let (graph, readers, mut c) = setup();
        c.ingest_second(0, &[(o(0), ReaderId::new(0)), (o(1), ReaderId::new(18))]);
        let q = KnnQuery::new(QueryId::new(0), readers[0].position(), 5).unwrap();
        let got = prune(&graph, &c, &readers, &q, 0, 1.5);
        assert_eq!(got.len(), 2, "fewer objects than k: keep everything");
    }

    #[test]
    fn knn_pruning_is_conservative_over_time() {
        let (graph, readers, mut c) = setup();
        c.ingest_second(
            0,
            &[
                (o(0), ReaderId::new(0)),
                (o(1), ReaderId::new(9)),
                (o(2), ReaderId::new(18)),
            ],
        );
        // After a long silence every uncertain region is huge: nothing can
        // be pruned any more.
        for s in 1..=200 {
            c.ingest_second(s, &[]);
        }
        let q = KnnQuery::new(QueryId::new(0), readers[0].position(), 1).unwrap();
        let got = prune(&graph, &c, &readers, &q, 200, 1.5);
        assert_eq!(got.len(), 3);
    }
}

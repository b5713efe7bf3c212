//! The device sensing (measurement) model for particle weighting.
//!
//! Algorithm 2, lines 21–27: "particles within the detecting device's range
//! are assigned a high weight, while others are assigned a very low
//! weight."

use ripq_graph::{GraphPos, WalkingGraph};
use ripq_rfid::{Reader, ReaderId};
use serde::{Deserialize, Serialize};

/// Binary in-range / out-of-range observation likelihood.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MeasurementModel {
    /// Likelihood assigned to particles inside the detecting reader's
    /// activation range.
    pub high_weight: f64,
    /// Likelihood assigned to particles outside it. Non-zero so that a
    /// reading inconsistent with *every* particle (heavy odometry drift)
    /// degrades gracefully instead of dividing by zero.
    pub low_weight: f64,
}

impl Default for MeasurementModel {
    fn default() -> Self {
        MeasurementModel {
            high_weight: 1.0,
            low_weight: 1e-4,
        }
    }
}

impl MeasurementModel {
    /// Likelihood `p(z | x)` of one second's observation given a particle.
    /// `detected` says whether a reader reported the object this second;
    /// `inside` whether the particle lies in that reader's activation
    /// range or, for a silent second, in any reader's range. A particle
    /// agreeing with the observation gets the high weight.
    #[inline]
    pub fn likelihood(&self, detected: bool, inside: bool) -> f64 {
        if detected == inside {
            self.high_weight
        } else {
            self.low_weight
        }
    }
}

/// Slack added to a reader's range when listing the edges it reaches, so
/// rounding in the projection never drops a reader whose disk touches an
/// edge. The lists only choose which readers to ask: [`Reader::covers`]
/// stays the only in-range test.
const REACH_MARGIN: f64 = 1e-6;

/// For each walking-graph edge, the readers whose activation disk reaches
/// it, in deployment order. No office edge is within reach of more than
/// two readers, so the measurement step asks those instead of scanning
/// the whole deployment, and skips the point lookup on an edge no reader
/// reaches.
#[derive(Debug)]
pub(crate) struct ReaderReach {
    /// Indexed by edge.
    per_edge: Vec<Vec<Reader>>,
}

impl ReaderReach {
    /// Lists, for every edge of `graph`, the `readers` within reach.
    pub(crate) fn new(graph: &WalkingGraph, readers: &[Reader]) -> Self {
        let per_edge = graph
            .edges()
            .iter()
            .map(|e| {
                readers
                    .iter()
                    .filter(|r| {
                        let (_, d2) = e.geometry.project(r.position());
                        let reach = r.activation_range().abs() + REACH_MARGIN;
                        d2 <= reach * reach
                    })
                    .copied()
                    .collect()
            })
            .collect();
        ReaderReach { per_edge }
    }

    /// The readers within reach of `pos`'s edge.
    fn near(&self, pos: GraphPos) -> &[Reader] {
        self.per_edge
            .get(pos.edge.index())
            .map_or(&[], Vec::as_slice)
    }

    /// Whether any reader of the deployment covers `pos`.
    pub(crate) fn any_covers(&self, graph: &WalkingGraph, pos: GraphPos) -> bool {
        let near = self.near(pos);
        if near.is_empty() {
            return false;
        }
        let p = graph.point_of(pos);
        near.iter().any(|r| r.covers(p))
    }

    /// Whether reader `id` covers `pos`.
    pub(crate) fn covered_by(&self, graph: &WalkingGraph, id: ReaderId, pos: GraphPos) -> bool {
        self.near(pos)
            .iter()
            .find(|r| r.id() == id)
            .is_some_and(|r| r.covers(graph.point_of(pos)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use ripq_floorplan::{
        multi_floor_office, office_building, shopping_mall, subway_station, MallParams,
        MultiFloorParams, OfficeParams, SubwayParams,
    };
    use ripq_geom::{Point2, Segment};
    use ripq_graph::build_walking_graph;
    use ripq_rfid::deploy_uniform;
    use std::sync::OnceLock;

    #[test]
    fn likelihood_favours_particles_agreeing_with_the_observation() {
        let m = MeasurementModel::default();
        assert_eq!(m.likelihood(true, true), m.high_weight);
        assert_eq!(m.likelihood(true, false), m.low_weight);
        // A silent second: a particle inside some range contradicts it.
        assert_eq!(m.likelihood(false, true), m.low_weight);
        assert_eq!(m.likelihood(false, false), m.high_weight);
    }

    #[test]
    fn boundary_point_counts_as_inside() {
        let plan = office_building(&OfficeParams::default()).unwrap();
        let g = build_walking_graph(&plan);
        let e = g.edges().iter().find(|e| e.length() > 6.0).unwrap();
        let reader = Reader::new(
            ReaderId::new(0),
            e.point_at(3.0),
            GraphPos::new(e.id, 3.0),
            2.0,
        );
        let reach = ReaderReach::new(&g, &[reader]);
        // Exactly at range distance along the edge: closed disk.
        let boundary = GraphPos::new(e.id, 5.0);
        assert!(reach.covered_by(&g, reader.id(), boundary));
        assert!(reach.any_covers(&g, boundary));
        let far = GraphPos::new(e.id, e.length());
        assert!(!reach.covered_by(&g, reader.id(), far));
        assert!(!reach.any_covers(&g, far));
        assert!(!reach.covered_by(&g, ReaderId::new(1), boundary));
    }

    /// A plan with its default deployment (19 readers, 2 m range) and the
    /// reach table built from them.
    struct Venue {
        graph: WalkingGraph,
        readers: Vec<Reader>,
        reach: ReaderReach,
    }

    /// The office, mall, subway and multi-floor plans.
    fn venues() -> &'static [Venue] {
        static VENUES: OnceLock<Vec<Venue>> = OnceLock::new();
        VENUES.get_or_init(|| {
            [
                office_building(&OfficeParams::default()),
                shopping_mall(&MallParams::default()),
                subway_station(&SubwayParams::default()),
                multi_floor_office(&MultiFloorParams::default()),
            ]
            .into_iter()
            .map(|plan| {
                let plan = plan.unwrap();
                let graph = build_walking_graph(&plan);
                let readers = deploy_uniform(&plan, &graph, 19, 2.0);
                let reach = ReaderReach::new(&graph, &readers);
                Venue {
                    graph,
                    readers,
                    reach,
                }
            })
            .collect()
        })
    }

    /// `Polyline::length` and `point_at` as computed before the length and
    /// end points were stored: a binary search over cumulative arc length.
    fn reference_length_and_point(points: &[Point2], offset: f64) -> (f64, Point2) {
        let mut cum = vec![0.0];
        let mut acc = 0.0;
        for w in points.windows(2) {
            acc += w[0].distance(w[1]);
            cum.push(acc);
        }
        let len = acc;
        if offset <= 0.0 || len <= ripq_geom::EPSILON {
            return (len, points[0]);
        }
        if offset >= len {
            return (len, *points.last().unwrap());
        }
        let i = match cum.binary_search_by(|c| c.partial_cmp(&offset).unwrap()) {
            Ok(i) => i,
            Err(i) => i - 1,
        };
        let seg_len = cum[i + 1] - cum[i];
        let t = if seg_len <= ripq_geom::EPSILON {
            0.0
        } else {
            (offset - cum[i]) / seg_len
        };
        (len, points[i].lerp(points[i + 1], t))
    }

    /// Offsets worth testing on an edge: 0, its length, a random interior
    /// offset, and every offset where a reader's disk boundary crosses it,
    /// each with its neighbours one ulp either side.
    fn probe_offsets(e: &ripq_graph::Edge, readers: &[Reader], frac: f64) -> Vec<f64> {
        let mut out = vec![0.0, e.length(), frac * e.length()];
        let mut cum = 0.0;
        for w in e.geometry.points().windows(2) {
            let seg = Segment::new(w[0], w[1]);
            for r in readers {
                if let Some((lo, hi)) =
                    seg.circle_overlap_interval(r.position(), r.activation_range())
                {
                    for x in [cum + lo, cum + hi] {
                        out.extend([x, f64::from_bits(x.to_bits() + 1)]);
                        if x > 0.0 {
                            out.push(f64::from_bits(x.to_bits() - 1));
                        }
                    }
                }
            }
            cum += seg.length();
        }
        out
    }

    proptest! {
        #[test]
        fn reach_lists_and_flat_geometry_match_the_full_computation(
            venue in 0usize..4,
            pick in 0usize..1_000_000,
            frac in 0.0..1.0f64,
        ) {
            let v = &venues()[venue];
            let e = &v.graph.edges()[pick % v.graph.edges().len()];
            for offset in probe_offsets(e, &v.readers, frac) {
                let pos = GraphPos::new(e.id, offset);
                let p = v.graph.point_of(pos);
                prop_assert_eq!(
                    v.reach.any_covers(&v.graph, pos),
                    v.readers.iter().any(|r| r.covers(p)),
                    "edge {} offset {}", e.id, offset
                );
                for r in &v.readers {
                    prop_assert_eq!(v.reach.covered_by(&v.graph, r.id(), pos), r.covers(p));
                }
                let (len, q) = reference_length_and_point(e.geometry.points(), offset);
                prop_assert_eq!(e.length().to_bits(), len.to_bits());
                prop_assert_eq!(e.point_at(offset).x.to_bits(), q.x.to_bits());
                prop_assert_eq!(e.point_at(offset).y.to_bits(), q.y.to_bits());
            }
        }
    }
}

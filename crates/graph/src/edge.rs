//! Walking-graph edges and their polyline geometry.

use crate::{EdgeId, NodeId};
use ripq_floorplan::{DoorId, HallwayId, RoomId};
use ripq_geom::{Point2, Segment};
use serde::{Deserialize, Serialize};

/// What an edge runs through in the floor plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EdgeKind {
    /// A stretch of hallway centerline.
    Hallway(HallwayId),
    /// The link from a door portal, through the door, to the room center.
    DoorLink {
        /// The door the link passes through.
        door: DoorId,
        /// The room the link ends in.
        room: RoomId,
    },
}

impl EdgeKind {
    /// `true` for hallway edges.
    #[inline]
    pub fn is_hallway(&self) -> bool {
        matches!(self, EdgeKind::Hallway(_))
    }
}

/// A piecewise-linear curve parameterized by arc length.
///
/// Hallway edges are straight (2 waypoints); door-link edges bend at the
/// door (3 waypoints: portal → door → room center). Offsets are arc lengths
/// from the first waypoint.
///
/// The length and both end points are stored beside the waypoints, so the
/// particle filter's per-step lookups read a field instead of the last
/// element of a vector.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Polyline {
    points: Vec<Point2>,
    /// Cumulative arc length at each waypoint; `cum[0] = 0`.
    cum: Vec<f64>,
    /// Total arc length, `cum`'s last entry.
    length: f64,
    /// The first waypoint.
    start: Point2,
    /// The last waypoint.
    end: Point2,
}

impl Polyline {
    /// Creates a polyline through `points` (at least two).
    pub fn new(points: Vec<Point2>) -> Self {
        debug_assert!(points.len() >= 2, "polyline needs >= 2 points");
        let mut cum = Vec::with_capacity(points.len());
        let mut acc = 0.0;
        cum.push(0.0);
        for w in points.windows(2) {
            acc += w[0].distance(w[1]);
            cum.push(acc);
        }
        let start = points.first().copied().unwrap_or(Point2::ORIGIN);
        let end = points.last().copied().unwrap_or(start);
        Polyline {
            points,
            cum,
            length: acc,
            start,
            end,
        }
    }

    /// Total arc length.
    #[inline]
    pub fn length(&self) -> f64 {
        self.length
    }

    /// The waypoints.
    #[inline]
    pub fn points(&self) -> &[Point2] {
        &self.points
    }

    /// Point at arc length `offset` (clamped to `[0, length]`).
    pub fn point_at(&self, offset: f64) -> Point2 {
        let len = self.length;
        if offset <= 0.0 || len <= ripq_geom::EPSILON {
            return self.start;
        }
        if offset >= len {
            return self.end;
        }
        if self.points.len() == 2 {
            // A straight edge is one segment from offset 0 to `len`.
            return self.start.lerp(self.end, offset / len);
        }
        // Find the segment containing `offset`.
        let i = match self
            .cum
            .binary_search_by(|c| c.partial_cmp(&offset).expect("finite"))
        {
            Ok(i) => i,
            Err(i) => i - 1,
        };
        let seg_len = self.cum[i + 1] - self.cum[i];
        let t = if seg_len <= ripq_geom::EPSILON {
            0.0
        } else {
            (offset - self.cum[i]) / seg_len
        };
        self.points[i].lerp(self.points[i + 1], t)
    }

    /// Arc-length offset of the point on the polyline closest to `p`,
    /// together with the squared Euclidean distance to it.
    pub fn project(&self, p: Point2) -> (f64, f64) {
        let mut best = (0.0, f64::INFINITY);
        for (i, w) in self.points.windows(2).enumerate() {
            let seg = Segment::new(w[0], w[1]);
            let off = seg.project_offset(p);
            let d2 = seg.point_at(off).distance_sq(p);
            if d2 < best.1 {
                best = (self.cum[i] + off, d2);
            }
        }
        best
    }
}

/// An edge of the indoor walking graph.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Edge {
    /// This edge's identifier (dense index).
    pub id: EdgeId,
    /// Node at offset 0.
    pub a: NodeId,
    /// Node at offset `length`.
    pub b: NodeId,
    /// What the edge runs through.
    pub kind: EdgeKind,
    /// The edge's geometry.
    pub geometry: Polyline,
}

impl Edge {
    /// Arc length of the edge.
    #[inline]
    pub fn length(&self) -> f64 {
        self.geometry.length()
    }

    /// The 2-D point at arc length `offset` from node `a`.
    #[inline]
    pub fn point_at(&self, offset: f64) -> Point2 {
        self.geometry.point_at(offset)
    }

    /// The node at the other end from `n` (`None` if `n` is not an end).
    pub fn other_end(&self, n: NodeId) -> Option<NodeId> {
        if n == self.a {
            Some(self.b)
        } else if n == self.b {
            Some(self.a)
        } else {
            None
        }
    }

    /// Offset of node `n` on this edge (0 for `a`, `length` for `b`).
    pub fn offset_of(&self, n: NodeId) -> Option<f64> {
        if n == self.a {
            Some(0.0)
        } else if n == self.b {
            Some(self.length())
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn p(x: f64, y: f64) -> Point2 {
        Point2::new(x, y)
    }

    #[test]
    fn straight_polyline_behaves_like_segment() {
        let pl = Polyline::new(vec![p(0.0, 0.0), p(10.0, 0.0)]);
        assert_eq!(pl.length(), 10.0);
        assert_eq!(pl.point_at(4.0), p(4.0, 0.0));
        assert_eq!(pl.point_at(-1.0), p(0.0, 0.0));
        assert_eq!(pl.point_at(11.0), p(10.0, 0.0));
    }

    #[test]
    fn bent_polyline_arclength() {
        // Portal (5,10) → door (5,9) → room center (5,5): lengths 1 + 4.
        let pl = Polyline::new(vec![p(5.0, 10.0), p(5.0, 9.0), p(5.0, 5.0)]);
        assert_eq!(pl.length(), 5.0);
        assert!(pl.point_at(0.5).approx_eq(p(5.0, 9.5)));
        assert!(pl.point_at(1.0).approx_eq(p(5.0, 9.0)));
        assert!(pl.point_at(3.0).approx_eq(p(5.0, 7.0)));
    }

    #[test]
    fn l_shaped_polyline() {
        let pl = Polyline::new(vec![p(0.0, 0.0), p(3.0, 0.0), p(3.0, 4.0)]);
        assert_eq!(pl.length(), 7.0);
        assert!(pl.point_at(3.0).approx_eq(p(3.0, 0.0)));
        assert!(pl.point_at(5.0).approx_eq(p(3.0, 2.0)));
    }

    #[test]
    fn projection_picks_nearest_segment() {
        let pl = Polyline::new(vec![p(0.0, 0.0), p(10.0, 0.0), p(10.0, 10.0)]);
        let (off, d2) = pl.project(p(10.5, 3.0));
        assert!((off - 13.0).abs() < 1e-9);
        assert!((d2 - 0.25).abs() < 1e-9);
        let (off, _) = pl.project(p(2.0, -1.0));
        assert!((off - 2.0).abs() < 1e-9);
    }

    #[test]
    fn edge_other_end_and_offset() {
        let e = Edge {
            id: EdgeId::new(0),
            a: NodeId::new(1),
            b: NodeId::new(2),
            kind: EdgeKind::Hallway(HallwayId::new(0)),
            geometry: Polyline::new(vec![p(0.0, 0.0), p(10.0, 0.0)]),
        };
        assert_eq!(e.other_end(NodeId::new(1)), Some(NodeId::new(2)));
        assert_eq!(e.other_end(NodeId::new(2)), Some(NodeId::new(1)));
        assert_eq!(e.other_end(NodeId::new(3)), None);
        assert_eq!(e.offset_of(NodeId::new(1)), Some(0.0));
        assert_eq!(e.offset_of(NodeId::new(2)), Some(10.0));
        assert_eq!(e.offset_of(NodeId::new(9)), None);
    }

    proptest! {
        #[test]
        fn point_at_projection_roundtrip(
            x1 in -20.0..20.0f64, y1 in -20.0..20.0f64,
            x2 in -20.0..20.0f64, y2 in -20.0..20.0f64,
            x3 in -20.0..20.0f64, y3 in -20.0..20.0f64,
            t in 0.0..1.0f64,
        ) {
            let pl = Polyline::new(vec![p(x1, y1), p(x2, y2), p(x3, y3)]);
            prop_assume!(pl.length() > 0.1);
            let off = t * pl.length();
            let pt = pl.point_at(off);
            let (proj_off, d2) = pl.project(pt);
            // Projecting a point on the polyline lands back on it.
            prop_assert!(d2 < 1e-9);
            // And at a position mapping to the same 2-D point (offset may
            // differ where the polyline self-overlaps).
            prop_assert!(pl.point_at(proj_off).distance(pt) < 1e-6);
        }
    }
}

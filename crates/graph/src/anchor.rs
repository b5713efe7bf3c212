//! Anchor points: the paper's discretization of the walking graph.
//!
//! "We define anchor points as a set AP of predefined points on E with a
//! uniform distance (such as 1 meter) to each other. … After particle
//! filtering is finished for an object oᵢ, every particle of oᵢ is assigned
//! to its nearest anchor point, so that the inferred object location can
//! only be on discrete locations instead of anywhere on E." (§4.2)

use crate::{AnchorId, EdgeId, GraphPos, WalkingGraph};
use ripq_floorplan::{Axis, FloorPlan, Hallway, HallwayId, Location, RoomId};
use ripq_geom::{Point2, Rect};
use serde::{Deserialize, Serialize};

/// A single anchor point.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AnchorPoint {
    /// This anchor's identifier (dense index).
    pub id: AnchorId,
    /// Graph position of the anchor.
    pub pos: GraphPos,
    /// 2-D point of the anchor.
    pub point: Point2,
    /// Which floor-plan entity the anchor's point lies in.
    pub location: Location,
}

/// The full set of anchor points for a walking graph, with the lookup
/// structures query evaluation needs.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AnchorSet {
    anchors: Vec<AnchorPoint>,
    /// Anchor ids per edge, ordered by increasing offset. Each edge's ids
    /// are one consecutive run.
    per_edge: Vec<Vec<AnchorId>>,
    /// Every anchor's offset on its edge, by anchor id: each edge's
    /// offsets, ascending, are the slice its id run spans.
    offsets: Vec<f64>,
    /// Anchor ids whose point lies inside each room (dense by room index).
    per_room: Vec<Vec<AnchorId>>,
    /// Anchor ids whose point lies inside each hallway (dense by hallway
    /// index).
    per_hallway: Vec<Vec<AnchorId>>,
    spacing: f64,
}

impl AnchorSet {
    /// Generates anchors along every edge of `graph` at (approximately)
    /// `spacing` meters apart.
    ///
    /// Each edge receives `max(1, round(len / spacing))` anchors placed at
    /// the midpoints of equal subdivisions, so every edge — including short
    /// door links — is represented by at least one anchor and anchors never
    /// coincide with nodes (which would make them ambiguous between edges).
    pub fn generate(graph: &WalkingGraph, plan: &FloorPlan, spacing: f64) -> Self {
        assert!(spacing > 0.0, "anchor spacing must be positive");
        let mut anchors = Vec::new();
        let mut per_edge = vec![Vec::new(); graph.edges().len()];
        let mut per_room = vec![Vec::new(); plan.rooms().len()];
        let mut per_hallway = vec![Vec::new(); plan.hallways().len()];

        for e in graph.edges() {
            let len = e.length();
            let n = ((len / spacing).round() as usize).max(1);
            let step = len / n as f64;
            for i in 0..n {
                let offset = (i as f64 + 0.5) * step;
                let point = e.point_at(offset);
                let location = plan.locate(point);
                let id = AnchorId::new(anchors.len() as u32);
                anchors.push(AnchorPoint {
                    id,
                    pos: GraphPos::new(e.id, offset),
                    point,
                    location,
                });
                per_edge[e.id.index()].push(id);
                match location {
                    Location::Room(r) => per_room[r.index()].push(id),
                    Location::Hallway(h) => per_hallway[h.index()].push(id),
                    Location::Outside => {}
                }
            }
        }

        let offsets = anchors.iter().map(|a| a.pos.offset).collect();
        AnchorSet {
            anchors,
            per_edge,
            offsets,
            per_room,
            per_hallway,
            spacing,
        }
    }

    /// All anchors, indexable by [`AnchorId::index`].
    #[inline]
    pub fn anchors(&self) -> &[AnchorPoint] {
        &self.anchors
    }

    /// Looks up an anchor.
    #[inline]
    pub fn anchor(&self, id: AnchorId) -> &AnchorPoint {
        &self.anchors[id.index()]
    }

    /// The requested generation spacing.
    #[inline]
    pub fn spacing(&self) -> f64 {
        self.spacing
    }

    /// Anchors on an edge, ordered by increasing offset.
    #[inline]
    pub fn on_edge(&self, e: EdgeId) -> &[AnchorId] {
        &self.per_edge[e.index()]
    }

    /// The offsets of [`AnchorSet::on_edge`]'s anchors, in the same
    /// order, read from one flat array.
    fn offsets_on_edge(&self, list: &[AnchorId]) -> &[f64] {
        let first = list.first().map_or(0, |a| a.index());
        self.offsets
            .get(first..first + list.len())
            .unwrap_or_default()
    }

    /// Anchors inside a room.
    #[inline]
    pub fn in_room(&self, r: RoomId) -> &[AnchorId] {
        &self.per_room[r.index()]
    }

    /// Anchors inside a hallway.
    #[inline]
    pub fn in_hallway(&self, h: HallwayId) -> &[AnchorId] {
        &self.per_hallway[h.index()]
    }

    /// The anchor nearest (by arc length along the same edge) to a graph
    /// position — the snap target of Algorithm 2 line 32.
    pub fn nearest(&self, pos: GraphPos) -> AnchorId {
        let list = &self.per_edge[pos.edge.index()];
        debug_assert!(!list.is_empty(), "every edge has at least one anchor");
        // Binary search over the ordered offsets.
        let mut lo = 0usize;
        let mut hi = list.len();
        while lo < hi {
            let mid = (lo + hi) / 2;
            if self.anchors[list[mid].index()].pos.offset < pos.offset {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        // The nearest is either list[lo-1] or list[lo].
        let mut best = list[lo.min(list.len() - 1)];
        let mut best_d = (self.anchors[best.index()].pos.offset - pos.offset).abs();
        if lo > 0 {
            let cand = list[lo - 1];
            let d = (self.anchors[cand.index()].pos.offset - pos.offset).abs();
            if d < best_d {
                best = cand;
                best_d = d;
            }
        }
        let _ = best_d;
        best
    }

    /// Hallway anchors covered by a query window's span along the hallway
    /// axis (Algorithm 3 / Fig. 6: "the anchor points which fall within q's
    /// vertical range" — anchors count when the window overlaps the hallway
    /// cross-section at their along-axis coordinate, even though the
    /// centerline itself may lie outside the window).
    pub fn hallway_anchors_in_window(&self, hallway: &Hallway, window: &Rect) -> Vec<AnchorId> {
        let Some(overlap) = hallway.footprint().intersection(window) else {
            return Vec::new();
        };
        let (lo, hi) = match hallway.axis() {
            Axis::Horizontal => (overlap.min().x, overlap.max().x),
            Axis::Vertical => (overlap.min().y, overlap.max().y),
        };
        self.per_hallway[hallway.id().index()]
            .iter()
            .copied()
            .filter(|&a| {
                let p = self.anchors[a.index()].point;
                let c = match hallway.axis() {
                    Axis::Horizontal => p.x,
                    Axis::Vertical => p.y,
                };
                c >= lo && c <= hi
            })
            .collect()
    }

    /// Snaps a full particle/probability cloud to anchors: sums the weight
    /// of all positions mapping to the same anchor. Output pairs are sorted
    /// by anchor id; weights preserve their total.
    pub fn snap_distribution(
        &self,
        positions: impl IntoIterator<Item = (GraphPos, f64)>,
    ) -> Vec<(AnchorId, f64)> {
        self.kde_distribution(&mut KdeScratch::default(), positions, 0.0)
    }

    /// Kernel-density variant of [`AnchorSet::snap_distribution`]: each
    /// position spreads its weight over the anchors of its edge within
    /// `bandwidth` arc-length meters, using a triangular kernel.
    ///
    /// A raw particle histogram is overconfident — with `Ns = 64`
    /// particles an anchor either gets a multiple of 1/64 or exactly 0.
    /// KDE smoothing is the standard particle→density conversion and
    /// keeps the total mass unchanged. `bandwidth <= 0` falls back to
    /// nearest-anchor snapping.
    ///
    /// A cloud repeats positions: resampled copies sit next to each other
    /// until they move, and particles park on room nodes. So a run of
    /// consecutive bit-equal (position, weight) pairs gets one kernel,
    /// whose anchors a binary search over the edge's offsets finds, and
    /// each of its anchors sums the run's share once per copy, in a
    /// register. Per-anchor sums follow the position order, so the output
    /// is the same, bit for bit, as one kernel per position. `scratch`
    /// keeps the sums and the kernel between calls, so a call allocates
    /// only its output.
    pub fn kde_distribution(
        &self,
        scratch: &mut KdeScratch,
        positions: impl IntoIterator<Item = (GraphPos, f64)>,
        bandwidth: f64,
    ) -> Vec<(AnchorId, f64)> {
        let KdeScratch { sums, kernel } = scratch;
        sums.reset(self.anchors.len());
        // The current run's (edge, offset bits, weight bits) and length;
        // its kernel is in `kernel`.
        let mut run: Option<((EdgeId, u64, u64), usize)> = None;
        for (pos, w) in positions {
            let key = (pos.edge, pos.offset.to_bits(), w.to_bits());
            match &mut run {
                Some((k, copies)) if *k == key => {
                    *copies += 1;
                    continue;
                }
                Some((_, copies)) => sums.add_run(kernel, *copies),
                None => {}
            }
            self.fill_kernel(kernel, pos, w, bandwidth);
            run = Some((key, 1));
        }
        if let Some((_, copies)) = run {
            sums.add_run(kernel, copies);
        }
        sums.drain_sorted()
    }

    /// Fills `kernel` with the share of weight `w` at `pos` that each
    /// anchor receives: the triangular kernel over the edge's anchors
    /// within `bandwidth`, normalized, or all of it at the nearest anchor.
    fn fill_kernel(
        &self,
        kernel: &mut Vec<(AnchorId, f64)>,
        pos: GraphPos,
        w: f64,
        bandwidth: f64,
    ) {
        kernel.clear();
        if bandwidth > 0.0 {
            // `offset - pos.offset` rises along the edge's list, so the
            // anchors within reach are one run, starting past those at
            // or below `-bandwidth`.
            let list = self.on_edge(pos.edge);
            let offsets = self.offsets_on_edge(list);
            let from = offsets.partition_point(|&o| o - pos.offset <= -bandwidth);
            let mut total = 0.0;
            let reach = list
                .iter()
                .zip(offsets)
                .skip(from)
                .map(|(&a, &o)| (a, (o - pos.offset).abs()))
                .take_while(|&(_, d)| d < bandwidth);
            for (a, d) in reach {
                let k = 1.0 - d / bandwidth;
                kernel.push((a, k));
                total += k;
            }
            if total > 0.0 {
                for (_, k) in kernel.iter_mut() {
                    *k = w * *k / total;
                }
                return;
            }
            kernel.clear();
        }
        // No anchor in reach (very coarse anchor grids), or no kernel.
        kernel.push((self.nearest(pos), w));
    }
}

/// Reusable buffers of [`AnchorSet::kde_distribution`]: the per-anchor
/// sums of one conversion and the kernel of its current run. A
/// particle-filter worker keeps one beside its particle buffers.
#[derive(Debug, Clone, Default)]
pub struct KdeScratch {
    sums: AnchorSums,
    /// The current run's `(anchor, share)` entries.
    kernel: Vec<(AnchorId, f64)>,
}

/// Dense per-anchor weight sums: a flat `f64` slot per anchor plus a
/// first-touch list. Sums are built in the exact position-iteration
/// order (f64 addition is not associative, so the order is part of the
/// bit-for-bit determinism contract), and the output is sorted by anchor
/// id. Draining resets only the touched slots, so the slots are zeroed
/// once per owner rather than once per conversion.
#[derive(Debug, Clone, Default)]
struct AnchorSums {
    weight: Vec<f64>,
    seen: Vec<bool>,
    /// Touched anchors in first-touch order.
    touched: Vec<AnchorId>,
}

impl AnchorSums {
    /// Makes room for `anchors` slots, all zero and unseen. Draining
    /// leaves them so; a conversion that unwound midway left its touched
    /// slots set, so those are cleared first.
    fn reset(&mut self, anchors: usize) {
        for a in self.touched.drain(..) {
            if let Some(seen) = self.seen.get_mut(a.index()) {
                *seen = false;
            }
            if let Some(sum) = self.weight.get_mut(a.index()) {
                *sum = 0.0;
            }
        }
        if self.weight.len() < anchors {
            self.weight.resize(anchors, 0.0);
            self.seen.resize(anchors, false);
        }
    }

    /// Adds each `(anchor, share)` of `kernel` `copies` times in a row,
    /// as that many consecutive copies of its position would.
    #[inline]
    fn add_run(&mut self, kernel: &[(AnchorId, f64)], copies: usize) {
        for &(a, share) in kernel {
            let i = a.index();
            if let (Some(seen), Some(sum)) = (self.seen.get_mut(i), self.weight.get_mut(i)) {
                if !*seen {
                    *seen = true;
                    self.touched.push(a);
                }
                *sum = (0..copies).fold(*sum, |total, _| total + share);
            }
        }
    }

    /// The touched anchors' sums in anchor order; every slot is zero and
    /// unseen again afterwards.
    fn drain_sorted(&mut self) -> Vec<(AnchorId, f64)> {
        self.touched.sort_unstable();
        let mut out = Vec::with_capacity(self.touched.len());
        for &a in &self.touched {
            let i = a.index();
            if let (Some(seen), Some(sum)) = (self.seen.get_mut(i), self.weight.get_mut(i)) {
                *seen = false;
                out.push((a, std::mem::take(sum)));
            }
        }
        self.touched.clear();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build_walking_graph;
    use proptest::prelude::*;
    use ripq_floorplan::{office_building, OfficeParams};

    fn setup() -> (FloorPlan, WalkingGraph, AnchorSet) {
        let plan = office_building(&OfficeParams::default()).unwrap();
        let g = build_walking_graph(&plan);
        let anchors = AnchorSet::generate(&g, &plan, 1.0);
        (plan, g, anchors)
    }

    #[test]
    fn every_edge_has_anchors() {
        let (_, g, anchors) = setup();
        for e in g.edges() {
            assert!(
                !anchors.on_edge(e.id).is_empty(),
                "edge {} without anchors",
                e.id
            );
        }
    }

    #[test]
    fn anchor_spacing_close_to_requested() {
        let (_, g, anchors) = setup();
        for e in g.edges() {
            let list = anchors.on_edge(e.id);
            if list.len() < 2 {
                continue;
            }
            for w in list.windows(2) {
                let d = anchors.anchor(w[1]).pos.offset - anchors.anchor(w[0]).pos.offset;
                assert!(d > 0.5 && d < 1.5, "spacing {d} out of range");
            }
        }
    }

    #[test]
    fn anchor_count_tracks_total_length() {
        let (_, g, anchors) = setup();
        let total = g.total_edge_length();
        let n = anchors.anchors().len() as f64;
        assert!(
            (n - total).abs() / total < 0.25,
            "count {n} vs length {total}"
        );
    }

    #[test]
    fn every_room_has_anchors() {
        let (plan, _, anchors) = setup();
        for room in plan.rooms() {
            assert!(
                !anchors.in_room(room.id()).is_empty(),
                "room {} without anchors",
                room.id()
            );
        }
    }

    #[test]
    fn nearest_returns_same_edge_closest() {
        let (_, g, anchors) = setup();
        for e in g.edges().iter().take(10) {
            let len = e.length();
            for f in [0.0, 0.25, 0.5, 0.9, 1.0] {
                let pos = GraphPos::new(e.id, len * f);
                let a = anchors.nearest(pos);
                let got = anchors.anchor(a);
                assert_eq!(got.pos.edge, e.id);
                // No other anchor on the edge is closer.
                for &other in anchors.on_edge(e.id) {
                    let od = (anchors.anchor(other).pos.offset - pos.offset).abs();
                    let gd = (got.pos.offset - pos.offset).abs();
                    assert!(gd <= od + 1e-9);
                }
            }
        }
    }

    #[test]
    fn snap_distribution_preserves_mass() {
        let (_, g, anchors) = setup();
        let e = g.edges()[0].id;
        let len = g.edge(e).length();
        let cloud: Vec<(GraphPos, f64)> = (0..100)
            .map(|i| (GraphPos::new(e, len * i as f64 / 100.0), 0.01))
            .collect();
        let snapped = anchors.snap_distribution(cloud);
        let total: f64 = snapped.iter().map(|(_, w)| w).sum();
        assert!((total - 1.0).abs() < 1e-9);
        // Sorted by id, no duplicates.
        for w in snapped.windows(2) {
            assert!(w[0].0 < w[1].0);
        }
    }

    /// The conversion [`AnchorSet::kde_distribution`] replaced: one kernel
    /// per position over every anchor of its edge, summed into fresh
    /// dense slots.
    fn kde_reference(
        anchors: &AnchorSet,
        positions: &[(GraphPos, f64)],
        bandwidth: f64,
    ) -> Vec<(AnchorId, f64)> {
        let mut weight = vec![0.0; anchors.anchors().len()];
        let mut touched: Vec<AnchorId> = Vec::new();
        let mut add = |a: AnchorId, w: f64| {
            if !touched.contains(&a) {
                touched.push(a);
            }
            weight[a.index()] += w;
        };
        for &(pos, w) in positions {
            if bandwidth <= 0.0 {
                add(anchors.nearest(pos), w);
                continue;
            }
            let mut kernel = Vec::new();
            let mut total = 0.0;
            for &a in anchors.on_edge(pos.edge) {
                let d = (anchors.anchor(a).pos.offset - pos.offset).abs();
                if d < bandwidth {
                    let k = 1.0 - d / bandwidth;
                    kernel.push((a, k));
                    total += k;
                }
            }
            if total <= 0.0 {
                add(anchors.nearest(pos), w);
            } else {
                for (a, k) in kernel {
                    add(a, w * k / total);
                }
            }
        }
        touched.sort_unstable();
        touched
            .into_iter()
            .map(|a| (a, weight[a.index()]))
            .collect()
    }

    fn bits(dist: &[(AnchorId, f64)]) -> Vec<(AnchorId, u64)> {
        dist.iter().map(|&(a, p)| (a, p.to_bits())).collect()
    }

    proptest! {
        /// Clouds with runs of copies and scattered repeats, positions on
        /// nodes (a room edge's end is its room node), on anchors, and at
        /// an anchor ± the bandwidth ± 1 ulp, weighted evenly or not.
        #[test]
        fn kde_matches_one_kernel_per_position(
            bandwidth_pick in 0usize..4,
            even in 0u8..2,
            specs in proptest::collection::vec(
                (0usize..1_000_000, 0u8..10, 0.0f64..1.0, 1usize..6, 0.01f64..1.0),
                1..40,
            ),
        ) {
            let (_, g, anchors) = setup();
            let bandwidth = [0.0, 0.3, 2.0, 50.0][bandwidth_pick];
            let mut cloud: Vec<(GraphPos, f64)> = Vec::new();
            for (i, &(pick, kind, frac, run, weight)) in specs.iter().enumerate() {
                let edge = &g.edges()[pick % g.edges().len()];
                let on_edge = anchors.on_edge(edge.id);
                let anchor = anchors.anchor(on_edge[pick / 7 % on_edge.len()]).pos.offset;
                let offset = match kind {
                    0 => edge.length() * frac,
                    1 => 0.0,
                    2 => edge.length(),
                    3 => anchor,
                    4 => anchor - bandwidth,
                    5 => anchor + bandwidth,
                    6 => (anchor - bandwidth).next_up(),
                    7 => (anchor - bandwidth).next_down(),
                    8 => (anchor + bandwidth).next_up(),
                    _ => (anchor + bandwidth).next_down(),
                };
                let w = if even == 1 { 1.0 / 64.0 } else { weight };
                for _ in 0..run {
                    cloud.push((GraphPos::new(edge.id, offset), w));
                }
                if i % 3 == 2 {
                    cloud.push(cloud[i / 2]);
                }
            }
            let want = bits(&kde_reference(&anchors, &cloud, bandwidth));
            // A scratch that already ran another conversion gives the same
            // answer as a fresh one.
            let mut scratch = KdeScratch::default();
            let reversed = cloud.iter().rev().copied();
            anchors.kde_distribution(&mut scratch, reversed, bandwidth);
            let got = anchors.kde_distribution(&mut scratch, cloud.iter().copied(), bandwidth);
            prop_assert_eq!(bits(&got), want);
            let fresh = anchors.kde_distribution(&mut KdeScratch::default(), cloud, bandwidth);
            prop_assert_eq!(bits(&fresh), bits(&got));
        }
    }

    #[test]
    fn window_covering_hallway_center_collects_anchors() {
        let (plan, _, anchors) = setup();
        let h = &plan.hallways()[0];
        let c = h.footprint().center();
        let window = Rect::centered(c, 10.0, 1.0);
        let got = anchors.hallway_anchors_in_window(h, &window);
        assert!(!got.is_empty());
        for a in &got {
            let p = anchors.anchor(*a).point;
            assert!((p.x - c.x).abs() <= 5.0 + 1e-9);
        }
    }

    #[test]
    fn window_touching_only_hallway_edge_still_collects() {
        // The paper's Fig. 6: a window overlapping only part of the hallway
        // width still collects the centerline anchors in its span.
        let (plan, _, anchors) = setup();
        let h = &plan.hallways()[0];
        let fp = h.footprint();
        // Thin window along the top edge of the hallway, off-centerline.
        let window = Rect::new(fp.min().x + 5.0, fp.max().y - 0.2, 8.0, 0.2);
        let got = anchors.hallway_anchors_in_window(h, &window);
        assert!(!got.is_empty(), "off-centerline window must still match");
    }

    #[test]
    fn disjoint_window_collects_nothing() {
        let (plan, _, anchors) = setup();
        let h = &plan.hallways()[0];
        let window = Rect::new(-50.0, -50.0, 10.0, 10.0);
        assert!(anchors.hallway_anchors_in_window(h, &window).is_empty());
    }
}

//! Indoor range query evaluation — **Algorithm 3**.
//!
//! Anchor points are a 1-D projection of the 2-D indoor space, so summing
//! anchor-indexed probabilities alone would ignore how much of the hallway
//! width / room area the window actually covers. Algorithm 3 compensates
//! (Fig. 6):
//!
//! * **hallways** — anchors in the window's along-axis span contribute,
//!   scaled by `w_qh / w_h` (the fraction of the hallway width the window
//!   overlaps), because an object in the hallway is "anywhere along the
//!   width … with equal probability";
//! * **rooms** — all anchors of an intersected room contribute, scaled by
//!   `Area_qr / Area_R` (objects inside rooms are uniformly distributed).
//!
//! Which anchors each part covers, and its ratio, depend only on the
//! window and the deployment: [`RangeParts`] computes them once, and a
//! registered query keeps them (see
//! [`crate::IndoorQuerySystem::register_range`]).

use crate::ResultSet;
use ripq_floorplan::{Axis, FloorPlan};
use ripq_geom::Rect;
use ripq_graph::{AnchorId, AnchorObjectIndex, AnchorSet};
use ripq_rfid::ObjectId;

/// Evaluates a probabilistic range query over the filtered `APtoObjHT`
/// index. Returns the ⟨object, probability⟩ result set.
pub fn evaluate_range(
    plan: &FloorPlan,
    anchors: &AnchorSet,
    index: &AnchorObjectIndex<ObjectId>,
    window: &Rect,
) -> ResultSet {
    RangeParts::new(plan, anchors, window).evaluate(index)
}

/// Algorithm 3's parts of one query window: the anchors of each covered
/// hallway span with its width ratio `w_qh / w_h` (lines 4–6), then the
/// anchors of each intersected room with its area ratio `Area_qr / Area_R`
/// (lines 7–9).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct RangeParts {
    /// Every part's anchors, part after part.
    anchors: Vec<AnchorId>,
    /// Per part: where its anchors end in `anchors`, and its ratio.
    parts: Vec<(usize, f64)>,
}

impl RangeParts {
    /// The parts of `window` over `plan`'s hallways and rooms.
    pub(crate) fn new(plan: &FloorPlan, anchors: &AnchorSet, window: &Rect) -> Self {
        let mut out = RangeParts {
            anchors: Vec::new(),
            parts: Vec::new(),
        };
        for hallway in plan.hallways() {
            let Some(overlap) = hallway.footprint().intersection(window) else {
                continue;
            };
            let covered = anchors.hallway_anchors_in_window(hallway, window);
            if covered.is_empty() {
                continue;
            }
            let cross = match hallway.axis() {
                Axis::Horizontal => overlap.height(),
                Axis::Vertical => overlap.width(),
            };
            out.push((cross / hallway.cross_width()).clamp(0.0, 1.0), covered);
        }
        for room in plan.rooms() {
            let overlap_area = room.footprint().intersection_area(window);
            if overlap_area <= 0.0 {
                continue;
            }
            let ratio = (overlap_area / room.area()).clamp(0.0, 1.0);
            out.push(ratio, anchors.in_room(room.id()).iter().copied());
        }
        out
    }

    fn push(&mut self, ratio: f64, anchors: impl IntoIterator<Item = AnchorId>) {
        self.anchors.extend(anchors);
        self.parts.push((self.anchors.len(), ratio));
    }

    /// Sums each part's objects over `index`, scales the part by its
    /// ratio and merges it into the answer, part by part.
    pub(crate) fn evaluate(&self, index: &AnchorObjectIndex<ObjectId>) -> ResultSet {
        let mut result_set = ResultSet::new();
        let mut start = 0;
        for &(end, ratio) in &self.parts {
            let mut partial = ResultSet::new();
            for &a in self.anchors.get(start..end).unwrap_or_default() {
                for &(o, p) in index.at_anchor(a) {
                    partial.add(o, p);
                }
            }
            partial.scale(ratio);
            result_set.merge(&partial);
            start = end;
        }
        result_set.clamp_probabilities();
        result_set
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ripq_floorplan::{office_building, OfficeParams};
    use ripq_graph::{build_walking_graph, WalkingGraph};

    fn setup() -> (FloorPlan, WalkingGraph, AnchorSet) {
        let plan = office_building(&OfficeParams::default()).unwrap();
        let graph = build_walking_graph(&plan);
        let anchors = AnchorSet::generate(&graph, &plan, 1.0);
        (plan, graph, anchors)
    }

    fn o(i: u32) -> ObjectId {
        ObjectId::new(i)
    }

    #[test]
    fn full_room_window_recovers_room_probability() {
        let (plan, _, anchors) = setup();
        let room = &plan.rooms()[5];
        // Object 0 is in the room with probability 0.8, split over two
        // anchors.
        let room_anchors = anchors.in_room(room.id());
        assert!(room_anchors.len() >= 2);
        let mut index = AnchorObjectIndex::new();
        index.set_object(o(0), vec![(room_anchors[0], 0.5), (room_anchors[1], 0.3)]);
        // Window covering the whole room: ratio 1, probability 0.8.
        let rs = evaluate_range(&plan, &anchors, &index, room.footprint());
        assert!((rs.probability(o(0)) - 0.8).abs() < 1e-9);
    }

    #[test]
    fn half_room_window_halves_probability() {
        let (plan, _, anchors) = setup();
        let room = &plan.rooms()[5];
        let room_anchors = anchors.in_room(room.id());
        let mut index = AnchorObjectIndex::new();
        index.set_object(o(0), vec![(room_anchors[0], 1.0)]);
        // Left half of the room.
        let fp = room.footprint();
        let half = Rect::new(fp.min().x, fp.min().y, fp.width() / 2.0, fp.height());
        let rs = evaluate_range(&plan, &anchors, &index, &half);
        assert!(
            (rs.probability(o(0)) - 0.5).abs() < 1e-9,
            "area ratio 1/2 regardless of which anchors the half contains"
        );
    }

    #[test]
    fn hallway_width_ratio_compensation() {
        let (plan, _, anchors) = setup();
        let hallway = &plan.hallways()[0];
        // An object sitting (probability 1) on one hallway anchor.
        let aid = anchors.in_hallway(hallway.id())[3];
        let apoint = anchors.anchor(aid).point;
        let mut index = AnchorObjectIndex::new();
        index.set_object(o(0), vec![(aid, 1.0)]);
        let fp = hallway.footprint();
        // Window spanning the anchor's x but only half the hallway height.
        let window = Rect::new(apoint.x - 2.0, fp.min().y, 4.0, fp.height() / 2.0);
        let rs = evaluate_range(&plan, &anchors, &index, &window);
        assert!(
            (rs.probability(o(0)) - 0.5).abs() < 1e-9,
            "got {}",
            rs.probability(o(0))
        );
        // Full-height window: probability 1.
        let window = Rect::new(apoint.x - 2.0, fp.min().y, 4.0, fp.height());
        let rs = evaluate_range(&plan, &anchors, &index, &window);
        assert!((rs.probability(o(0)) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn window_outside_everything_is_empty() {
        let (plan, _, anchors) = setup();
        let mut index = AnchorObjectIndex::new();
        index.set_object(o(0), vec![(anchors.anchors()[0].id, 1.0)]);
        let rs = evaluate_range(
            &plan,
            &anchors,
            &index,
            &Rect::new(-100.0, -100.0, 5.0, 5.0),
        );
        assert!(rs.is_empty());
    }

    #[test]
    fn window_spanning_hallway_and_room_merges_both() {
        let (plan, _, anchors) = setup();
        // Room 5 is adjacent to a hallway; build a window covering the
        // whole room plus the full hallway band above/below it.
        let room = &plan.rooms()[5];
        let door = plan.door(room.doors()[0]);
        let hallway = plan.hallway(door.hallway());
        let window = room.footprint().union(hallway.footprint());

        let room_anchor = anchors.in_room(room.id())[0];
        let hall_anchor = anchors.in_hallway(hallway.id())[0];
        let mut index = AnchorObjectIndex::new();
        index.set_object(o(0), vec![(room_anchor, 0.5), (hall_anchor, 0.5)]);
        let rs = evaluate_range(&plan, &anchors, &index, &window);
        // Window fully covers the room (ratio 1) and the hallway's full
        // width along its whole length (ratio 1): everything counted.
        assert!((rs.probability(o(0)) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn probability_never_exceeds_total_mass() {
        let (plan, _, anchors) = setup();
        let mut index = AnchorObjectIndex::new();
        // Spread an object over many anchors.
        let dist: Vec<_> = anchors
            .anchors()
            .iter()
            .take(40)
            .map(|a| (a.id, 1.0 / 40.0))
            .collect();
        index.set_object(o(0), dist);
        // Query the whole building.
        let rs = evaluate_range(&plan, &anchors, &index, &plan.bounds());
        assert!(rs.probability(o(0)) <= 1.0 + 1e-9);
        assert!(rs.probability(o(0)) > 0.5, "most mass inside the building");
    }

    #[test]
    fn multiple_objects_reported_independently() {
        let (plan, _, anchors) = setup();
        let room = &plan.rooms()[10];
        let ra = anchors.in_room(room.id());
        let mut index = AnchorObjectIndex::new();
        index.set_object(o(0), vec![(ra[0], 1.0)]);
        index.set_object(o(1), vec![(ra[ra.len() - 1], 0.25)]);
        let rs = evaluate_range(&plan, &anchors, &index, room.footprint());
        assert!((rs.probability(o(0)) - 1.0).abs() < 1e-9);
        assert!((rs.probability(o(1)) - 0.25).abs() < 1e-9);
        assert_eq!(rs.len(), 2);
    }
}

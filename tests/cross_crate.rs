//! Cross-crate consistency invariants that no single crate can check on
//! its own.

use ripq::floorplan::{office_building, Location, OfficeParams};
use ripq::graph::{build_walking_graph, AnchorSet};
use ripq::rfid::deploy_uniform;
use ripq::symbolic::SymbolicModel;

/// The symbolic model's restricted reachability never exceeds plain graph
/// reachability: every anchor it deems reachable from a reader within
/// `u_max · t` really is within that network distance (readers only
/// *remove* options).
#[test]
fn symbolic_reachability_bounded_by_network_distance() {
    let plan = office_building(&OfficeParams::default()).unwrap();
    let graph = build_walking_graph(&plan);
    let anchors = AnchorSet::generate(&graph, &plan, 1.0);
    let readers = deploy_uniform(&plan, &graph, 19, 2.0);
    let model = SymbolicModel::new(&graph, &anchors, &readers, 1.5);

    let reader = &readers[5];
    let sp = graph.shortest_paths_from(reader.graph_pos());
    for elapsed in [0u64, 5, 15, 40] {
        let lmax = 1.5 * elapsed as f64;
        for (a, _) in model.infer(reader.id(), elapsed) {
            let d = sp.distance_to(&graph, anchors.anchor(a).pos);
            // Anchor-graph hops approximate arc length; allow slack for
            // the activation radius (distance is measured from range
            // boundary) plus discretization.
            assert!(
                d <= lmax + reader.activation_range() + 3.0,
                "anchor {a} at network distance {d} > lmax {lmax}"
            );
        }
    }
}

/// Anchor locations agree with the floor plan point location.
#[test]
fn anchor_locations_consistent_with_plan() {
    let plan = office_building(&OfficeParams::default()).unwrap();
    let graph = build_walking_graph(&plan);
    let anchors = AnchorSet::generate(&graph, &plan, 1.0);
    for a in anchors.anchors() {
        assert_eq!(plan.locate(a.point), a.location);
        match a.location {
            Location::Room(r) => {
                assert!(anchors.in_room(r).contains(&a.id));
            }
            Location::Hallway(h) => {
                assert!(anchors.in_hallway(h).contains(&a.id));
            }
            Location::Outside => panic!("anchor {} outside the building", a.id),
        }
    }
}

/// Readers deployed by `deploy_uniform` cover every hallway's centerline
/// often enough that a walker is re-detected within a bounded gap: no
/// point of any centerline is farther than one full spacing from a reader.
#[test]
fn reader_coverage_gaps_bounded() {
    let plan = office_building(&OfficeParams::default()).unwrap();
    let graph = build_walking_graph(&plan);
    let readers = deploy_uniform(&plan, &graph, 19, 2.0);
    let spacing = plan.total_centerline_length() / 19.0;
    for hall in plan.hallways() {
        let line = hall.centerline();
        let steps = line.length().ceil() as usize;
        for i in 0..=steps {
            let p = line.point_at(i as f64);
            let nearest = readers
                .iter()
                .map(|r| r.position().distance(p))
                .fold(f64::INFINITY, f64::min);
            assert!(
                nearest <= spacing + 1e-6,
                "point {p} on {} is {nearest} m from the closest reader",
                hall.name()
            );
        }
    }
}

/// Walking-graph room nodes, floor-plan rooms and anchor room sets line up
/// one-to-one.
#[test]
fn room_representations_agree() {
    let plan = office_building(&OfficeParams::default()).unwrap();
    let graph = build_walking_graph(&plan);
    let anchors = AnchorSet::generate(&graph, &plan, 1.0);
    for room in plan.rooms() {
        let node = graph.room_node(room.id());
        assert!(room.contains(graph.node(node).position));
        // The nearest anchor to the room node lies in the room.
        let link = graph.edges_at(node)[0];
        let nearest = anchors.nearest(ripq::graph::GraphPos::new(link.edge, link.offset));
        assert_eq!(
            anchors.anchor(nearest).location,
            Location::Room(room.id()),
            "nearest anchor to {}'s node is not in the room",
            room.id()
        );
    }
}

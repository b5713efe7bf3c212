//! Construction of the walking graph from a floor plan.

use crate::{Edge, EdgeId, EdgeKind, Incidence, Node, NodeId, NodeKind, Polyline, WalkingGraph};
use ripq_floorplan::FloorPlan;
use ripq_geom::Point2;
use std::collections::HashMap;

/// Positions closer than this (per axis) merge into one node.
const SNAP: f64 = 1e-6;

fn snap_key(p: Point2) -> (i64, i64) {
    ((p.x / SNAP).round() as i64, (p.y / SNAP).round() as i64)
}

#[derive(Default)]
struct GraphAccum {
    nodes: Vec<Node>,
    edges: Vec<Edge>,
    by_pos: HashMap<(i64, i64), NodeId>,
}

impl GraphAccum {
    /// Gets or creates the node at `p`. On a duplicate position, a
    /// `Junction` kind upgrades a plain hallway kind (crossings win over
    /// endpoints), but never overwrites a door portal or room node.
    fn node_at(&mut self, p: Point2, kind: NodeKind) -> NodeId {
        if let Some(&id) = self.by_pos.get(&snap_key(p)) {
            let existing = &mut self.nodes[id.index()];
            let upgrade = match (existing.kind, kind) {
                (NodeKind::HallwayEnd(_), NodeKind::Junction) => true,
                (NodeKind::HallwayEnd(_), NodeKind::DoorPortal(_)) => true,
                (NodeKind::Junction, NodeKind::DoorPortal(_)) => false,
                _ => false,
            };
            if upgrade {
                existing.kind = kind;
            }
            return id;
        }
        let id = NodeId::new(self.nodes.len() as u32);
        self.nodes.push(Node {
            id,
            position: p,
            kind,
        });
        self.by_pos.insert(snap_key(p), id);
        id
    }

    fn add_edge(&mut self, a: NodeId, b: NodeId, kind: EdgeKind, points: Vec<Point2>) {
        // Drop consecutive duplicate waypoints so polylines stay clean.
        let mut pts: Vec<Point2> = Vec::with_capacity(points.len());
        for p in points {
            if pts.last().is_none_or(|l| !l.approx_eq(p)) {
                pts.push(p);
            }
        }
        if pts.len() < 2 {
            return; // degenerate edge: both ends coincide
        }
        let id = EdgeId::new(self.edges.len() as u32);
        self.edges.push(Edge {
            id,
            a,
            b,
            kind,
            geometry: Polyline::new(pts),
        });
    }
}

/// Builds the indoor walking graph of a validated floor plan.
///
/// Per §4.2 of the paper: hallway centerlines become edge chains with nodes
/// at dead ends, crossings and door projections; each room contributes a
/// room-center node linked through its door(s). The resulting graph "can
/// represent any accessible path in the environment".
pub fn build_walking_graph(plan: &FloorPlan) -> WalkingGraph {
    let mut acc = GraphAccum::default();

    // Crossing points between hallway pairs.
    let crossings = plan.hallway_crossings();

    // 1. Hallway chains.
    for hall in plan.hallways() {
        let line = hall.centerline();
        // Stations: (offset, node kind) along the centerline.
        let mut stations: Vec<(f64, NodeKind)> = vec![
            (0.0, NodeKind::HallwayEnd(hall.id())),
            (line.length(), NodeKind::HallwayEnd(hall.id())),
        ];
        for (a, b, c) in &crossings {
            if *a == hall.id() || *b == hall.id() {
                stations.push((line.project_offset(*c), NodeKind::Junction));
            }
        }
        for door in plan.doors_of_hallway(hall.id()) {
            stations.push((
                line.project_offset(door.position()),
                NodeKind::DoorPortal(door.id()),
            ));
        }
        stations.sort_by(|x, y| x.0.partial_cmp(&y.0).expect("finite offsets"));
        // Merge stations that coincide; junctions take precedence so that a
        // door aligned with a crossing still yields one junction node.
        let mut merged: Vec<(f64, NodeKind)> = Vec::with_capacity(stations.len());
        for (off, kind) in stations {
            match merged.last_mut() {
                Some((last_off, last_kind)) if (off - *last_off).abs() <= SNAP => {
                    if matches!(kind, NodeKind::Junction) {
                        *last_kind = kind;
                    }
                }
                _ => merged.push((off, kind)),
            }
        }
        // Nodes + chain edges.
        let node_ids: Vec<NodeId> = merged
            .iter()
            .map(|&(off, kind)| acc.node_at(line.point_at(off), kind))
            .collect();
        for (w, ids) in merged.windows(2).zip(node_ids.windows(2)) {
            acc.add_edge(
                ids[0],
                ids[1],
                EdgeKind::Hallway(hall.id()),
                vec![line.point_at(w[0].0), line.point_at(w[1].0)],
            );
        }
    }

    // 1b. Junction links: when two crossing hallways have different
    // centerline projections of the crossing point (a narrow corridor
    // meeting a wide hall without reaching its centerline), bridge the two
    // chain nodes so the network stays connected.
    for (a, b, c) in &crossings {
        let pa = plan.hallway(*a).project_to_centerline(*c);
        let pb = plan.hallway(*b).project_to_centerline(*c);
        if pa.approx_eq(pb) {
            continue;
        }
        let na = *acc
            .by_pos
            .get(&snap_key(pa))
            .expect("crossing station was added to chain");
        let nb = *acc
            .by_pos
            .get(&snap_key(pb))
            .expect("crossing station was added to chain");
        if na != nb {
            acc.add_edge(na, nb, EdgeKind::Hallway(*a), vec![pa, pb]);
        }
    }

    // 2. Door links and room nodes.
    let mut room_nodes: HashMap<ripq_floorplan::RoomId, NodeId> = HashMap::new();
    for door in plan.doors() {
        let hall = plan.hallway(door.hallway());
        let portal_pos = hall.project_to_centerline(door.position());
        let portal = acc.node_at(portal_pos, NodeKind::DoorPortal(door.id()));
        let room = plan.room(door.room());
        let room_node = *room_nodes
            .entry(room.id())
            .or_insert_with(|| acc.node_at(room.center(), NodeKind::Room(room.id())));
        acc.add_edge(
            portal,
            room_node,
            EdgeKind::DoorLink {
                door: door.id(),
                room: room.id(),
            },
            vec![portal_pos, door.position(), room.center()],
        );
    }

    // 3. Adjacency.
    let mut adjacency = vec![Vec::new(); acc.nodes.len()];
    for e in &acc.edges {
        for n in [e.a, e.b] {
            adjacency[n.index()].push(Incidence {
                edge: e.id,
                offset: if n == e.a { 0.0 } else { e.length() },
                hallway: e.kind.is_hallway(),
            });
        }
    }

    let room_nodes_dense: Vec<NodeId> = plan.rooms().iter().map(|r| room_nodes[&r.id()]).collect();

    WalkingGraph {
        nodes: acc.nodes,
        edges: acc.edges,
        adjacency,
        room_nodes: room_nodes_dense,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ripq_floorplan::{office_building, FloorPlanBuilder, OfficeParams};
    use ripq_geom::Rect;

    fn office() -> WalkingGraph {
        build_walking_graph(&office_building(&OfficeParams::default()).unwrap())
    }

    #[test]
    fn office_graph_is_connected() {
        let g = office();
        assert!(g.is_connected());
        assert!(!g.nodes().is_empty());
        assert!(!g.edges().is_empty());
    }

    #[test]
    fn one_room_node_per_room() {
        let plan = office_building(&OfficeParams::default()).unwrap();
        let g = build_walking_graph(&plan);
        let room_nodes: Vec<_> = g.nodes().iter().filter(|n| n.kind.is_room()).collect();
        assert_eq!(room_nodes.len(), plan.rooms().len());
        // Each room node sits at the room center and has exactly one door
        // link in the default office (one door per room).
        for room in plan.rooms() {
            let n = g.room_node(room.id());
            assert!(g.node(n).position.approx_eq(room.center()));
            assert_eq!(g.degree(n), room.doors().len());
        }
    }

    #[test]
    fn junctions_where_connector_crosses() {
        let g = office();
        let junctions = g
            .nodes()
            .iter()
            .filter(|n| matches!(n.kind, NodeKind::Junction))
            .count();
        assert_eq!(junctions, 3, "connector crosses 3 horizontal hallways");
        // Junction nodes have degree 4 (two horizontal sides + two vertical
        // sides) except the bottom/top crossing where the connector ends:
        // there the vertical side count is 1.
        for n in g.nodes() {
            if matches!(n.kind, NodeKind::Junction) {
                assert!(g.degree(n.id) >= 3, "junction degree >= 3");
            }
        }
    }

    #[test]
    fn door_portals_shared_by_facing_rooms() {
        // Rooms above and below a hallway share door x positions in the
        // office generator, so their portals coincide: portal degree is 4
        // (two hallway sides + two door links).
        let g = office();
        let portal_degrees: Vec<usize> = g
            .nodes()
            .iter()
            .filter(|n| matches!(n.kind, NodeKind::DoorPortal(_)))
            .map(|n| g.degree(n.id))
            .collect();
        assert!(!portal_degrees.is_empty());
        assert!(portal_degrees.iter().all(|&d| d >= 3));
        assert!(portal_degrees.contains(&4));
    }

    #[test]
    fn partial_overlap_crossings_stay_connected() {
        // A narrow corridor dips 1 m into a wide hall without reaching its
        // centerline: the two projection points differ and must be bridged
        // by a junction link.
        let mut b = FloorPlanBuilder::new();
        let wide = b.add_hallway(Rect::new(0.0, 0.0, 40.0, 6.0), "wide");
        let narrow = b.add_hallway(Rect::new(18.0, 5.0, 4.0, 15.0), "narrow");
        let r = b.add_room(Rect::new(8.0, 8.0, 10.0, 8.0), "R");
        b.add_door(ripq_geom::Point2::new(18.0, 10.0), r, narrow);
        let plan = b.build().unwrap();
        let g = build_walking_graph(&plan);
        assert!(g.is_connected(), "junction link must bridge the chains");
        // Walking from the wide hall into the narrow one is possible.
        let a = g.project(ripq_geom::Point2::new(2.0, 3.0));
        let bpos = g.project(ripq_geom::Point2::new(20.0, 18.0));
        let d = g.network_distance(a, bpos);
        assert!(d.is_finite());
        assert!(d > 20.0 && d < 60.0, "distance {d}");
        let _ = wide;
    }

    #[test]
    fn network_distance_straight_hallway() {
        // Single hallway, two rooms; distance along the centerline.
        let mut b = FloorPlanBuilder::new();
        let h = b.add_hallway(Rect::new(0.0, 9.0, 40.0, 2.0), "H0");
        let r1 = b.add_room(Rect::new(0.0, 1.0, 10.0, 8.0), "R0");
        let r2 = b.add_room(Rect::new(30.0, 1.0, 10.0, 8.0), "R1");
        b.add_door(ripq_geom::Point2::new(5.0, 9.0), r1, h);
        b.add_door(ripq_geom::Point2::new(35.0, 9.0), r2, h);
        let plan = b.build().unwrap();
        let g = build_walking_graph(&plan);

        // Distance between the two door portals = 30 m along the hallway.
        let p1 = g.project(ripq_geom::Point2::new(5.0, 10.0));
        let p2 = g.project(ripq_geom::Point2::new(35.0, 10.0));
        let d = g.network_distance(p1, p2);
        assert!((d - 30.0).abs() < 1e-6, "got {d}");

        // Room-center to room-center: 30 m hallway + 2 × (1 m door drop +
        // 4 m into the room) = 40 m.
        let c1 = g.project(plan.room(r1).center());
        let c2 = g.project(plan.room(r2).center());
        let d = g.network_distance(c1, c2);
        assert!((d - 40.0).abs() < 1e-6, "got {d}");
    }

    #[test]
    fn total_edge_length_reasonable() {
        let plan = office_building(&OfficeParams::default()).unwrap();
        let g = build_walking_graph(&plan);
        let hall_len: f64 = plan.total_centerline_length();
        let total = g.total_edge_length();
        // Hallway chains cover the centerlines; door links add more.
        assert!(total > hall_len);
        assert!(total < hall_len + plan.rooms().len() as f64 * 10.0);
    }

    #[test]
    fn projection_of_room_interior_lands_on_door_link() {
        let plan = office_building(&OfficeParams::default()).unwrap();
        let g = build_walking_graph(&plan);
        let room = &plan.rooms()[0];
        let pos = g.project(room.center());
        let e = g.edge(pos.edge);
        assert!(
            matches!(e.kind, EdgeKind::DoorLink { room: r, .. } if r == room.id()),
            "room center projects onto its own door link"
        );
    }
}

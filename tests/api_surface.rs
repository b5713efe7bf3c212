//! Coverage of API surface corners that unit tests in the owning crates
//! exercise only incidentally: accessors, conversions, reporting types.

use ripq::core::{IndoorQuerySystem, SystemConfig};
use ripq::floorplan::{office_building, OfficeParams};
use ripq::geom::{Point2, Rect, Segment};
use ripq::graph::{build_walking_graph, GraphPos, NodeKind};
use ripq::rfid::ObjectId;

#[test]
fn geom_conveniences() {
    // Point conversions and constants.
    let p: Point2 = (3.0, 4.0).into();
    assert_eq!(p, Point2::new(3.0, 4.0));
    assert_eq!(Point2::ORIGIN.norm(), 0.0);

    // Centered rectangles.
    let r = Rect::centered(Point2::new(5.0, 5.0), 4.0, 2.0);
    assert_eq!(r.min(), Point2::new(3.0, 4.0));
    assert_eq!(r.max(), Point2::new(7.0, 6.0));
    assert_eq!(r.center(), Point2::new(5.0, 5.0));

    // Segment helpers.
    let s = Segment::new(Point2::new(0.0, 0.0), Point2::new(10.0, 0.0));
    assert_eq!(s.reversed().a, Point2::new(10.0, 0.0));
    assert_eq!(s.midpoint(), Point2::new(5.0, 0.0));
    let bb = s.bounding_box();
    assert!(bb.contains(Point2::new(5.0, 0.0)));
    assert_eq!(bb.area(), 0.0);
    assert_eq!(s.point_at_t(0.25), Point2::new(2.5, 0.0));
}

#[test]
fn graph_position_helpers() {
    let plan = office_building(&OfficeParams::default()).unwrap();
    let g = build_walking_graph(&plan);
    let e = &g.edges()[0];

    // clamp_pos clamps out-of-range offsets.
    let over = GraphPos::new(e.id, e.length() + 5.0);
    let clamped = g.clamp_pos(over);
    assert!((clamped.offset - e.length()).abs() < 1e-12);
    let under = GraphPos::new(e.id, -3.0);
    assert_eq!(g.clamp_pos(under).offset, 0.0);

    // node_at_pos identifies endpoints within tolerance.
    assert_eq!(g.node_at_pos(GraphPos::new(e.id, 0.0), 1e-9), Some(e.a));
    assert_eq!(
        g.node_at_pos(GraphPos::new(e.id, e.length()), 1e-9),
        Some(e.b)
    );
    assert_eq!(
        g.node_at_pos(GraphPos::new(e.id, e.length() / 2.0), 1e-9),
        None
    );

    // Degree / accessor consistency.
    for n in g.nodes().iter().take(10) {
        assert_eq!(g.degree(n.id), g.edges_at(n.id).len());
        for inc in g.edges_at(n.id) {
            assert!(g.edge(inc.edge).other_end(n.id).is_some());
            assert_eq!(g.edge(inc.edge).offset_of(n.id), Some(inc.offset));
        }
    }

    // Room node iteration covers all rooms.
    assert_eq!(g.room_node_ids().count(), plan.rooms().len());
    for n in g.room_node_ids() {
        assert!(matches!(g.node(n).kind, NodeKind::Room(_)));
    }
}

#[test]
fn evaluation_timings_are_populated() {
    let plan = office_building(&OfficeParams::default()).unwrap();
    let mut sys = IndoorQuerySystem::new(plan, SystemConfig::default(), 3);
    let d = sys.readers()[0];
    for s in 0..4u64 {
        sys.ingest_detections(s, &[(ObjectId::new(0), d.id())]);
    }
    sys.register_range(Rect::centered(d.position(), 10.0, 6.0))
        .unwrap();
    let report = sys.evaluate(4);
    let t = report.timings;
    assert!(t.total >= t.preprocessing);
    assert!(t.total >= t.pruning);
    assert!(t.total >= t.evaluation);
    assert!(t.total.as_nanos() > 0);
    // Preprocessing dominates (it runs the particle filter).
    assert!(t.preprocessing.as_nanos() > 0);
}

#[test]
fn hallway_and_plan_accessors() {
    let plan = office_building(&OfficeParams::default()).unwrap();
    for h in plan.hallways() {
        assert!(!h.name().is_empty());
        assert!(h.long_length() >= h.cross_width());
        // Centerline endpoints are inside the footprint.
        let cl = h.centerline();
        assert!(h.footprint().contains(cl.a));
        assert!(h.footprint().contains(cl.b));
    }
    for d in plan.doors() {
        // Door accessors round-trip through the plan.
        assert_eq!(plan.door(d.id()).id(), d.id());
        assert!(plan.room(d.room()).doors().contains(&d.id()));
    }
    // doors_of_hallway partitions all doors.
    let total: usize = plan
        .hallways()
        .iter()
        .map(|h| plan.doors_of_hallway(h.id()).count())
        .sum();
    assert_eq!(total, plan.doors().len());
}

#[test]
fn result_set_iteration() {
    use ripq::core::ResultSet;
    let rs: ResultSet = [(ObjectId::new(1), 0.25), (ObjectId::new(2), 0.5)]
        .into_iter()
        .collect();
    let mut objs: Vec<_> = rs.objects().collect();
    objs.sort();
    assert_eq!(objs, vec![ObjectId::new(1), ObjectId::new(2)]);
    let total: f64 = rs.iter().map(|(_, p)| p).sum();
    assert!((total - 0.75).abs() < 1e-12);
}

#[test]
fn cache_stats_zero_state() {
    use ripq::pf::ParticleCache;
    let c = ParticleCache::new();
    assert!(c.is_empty());
    assert_eq!(c.len(), 0);
    assert_eq!(c.stats().hit_rate(), 0.0);
}

#[test]
fn office_params_scaling_invariants() {
    for (lc, rc, hh) in [(2u32, 2u32, 2u32), (4, 3, 4)] {
        let p = OfficeParams {
            left_cols: lc,
            right_cols: rc,
            horizontal_hallways: hh,
            ..Default::default()
        };
        assert_eq!(p.room_count(), (lc + rc) * 2 * hh);
        assert_eq!(p.hallway_count(), hh + 1);
        let plan = office_building(&p).expect("scaled plan valid");
        assert_eq!(plan.rooms().len() as u32, p.room_count());
        let g = build_walking_graph(&plan);
        assert!(g.is_connected());
    }
}

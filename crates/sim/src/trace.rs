//! The true trace generator (§5.1).
//!
//! "We let each object randomly select a room as its destination, and walk
//! along the shortest path on the indoor walking graph from its current
//! location to the destination node. We simulate the objects' speeds using
//! a Gaussian distribution with μ = 1 m/s and σ = 0.1."
//!
//! Between trips the object dwells inside its destination room for an
//! exponentially-distributed number of seconds (mean configurable), which
//! exercises the motion model's room-stay behavior.

use rand::Rng;
use rand_distr::{Distribution, Normal};
use ripq_floorplan::RoomId;
use ripq_geom::Point2;
use ripq_graph::{GraphPos, Path, WalkingGraph};
use ripq_rfid::ObjectId;

/// The per-second true positions of one object.
#[derive(Debug, Clone)]
pub struct TrueTrace {
    /// The object this trace belongs to.
    pub object: ObjectId,
    /// `positions[t]` = the object's graph position at second `t`.
    pub positions: Vec<GraphPos>,
}

impl TrueTrace {
    /// The position at second `t` (clamped to the trace end).
    pub fn at(&self, t: u64) -> GraphPos {
        let idx = (t as usize).min(self.positions.len() - 1);
        self.positions[idx]
    }

    /// The 2-D point at second `t`.
    pub fn point_at(&self, graph: &WalkingGraph, t: u64) -> Point2 {
        graph.point_of(self.at(t))
    }

    /// Trace length in seconds (number of recorded positions).
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// `true` when no positions were recorded.
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }
}

/// Generates ground-truth object movements on the walking graph.
pub struct TraceGenerator {
    speed_mean: f64,
    speed_std: f64,
    dwell_mean: f64,
}

impl TraceGenerator {
    /// Creates a generator with the paper's Gaussian speed model and the
    /// given mean room-dwell time (seconds).
    pub fn new(dwell_mean: f64) -> Self {
        TraceGenerator {
            speed_mean: 1.0,
            speed_std: 0.1,
            dwell_mean: dwell_mean.max(0.0),
        }
    }

    fn sample_speed<R: Rng>(&self, rng: &mut R) -> f64 {
        let normal = Normal::new(self.speed_mean, self.speed_std).expect("finite parameters");
        for _ in 0..16 {
            let v = normal.sample(rng);
            if v > 0.05 {
                return v;
            }
        }
        self.speed_mean
    }

    fn sample_dwell<R: Rng>(&self, rng: &mut R) -> u64 {
        if self.dwell_mean <= 0.0 {
            return 0;
        }
        // Exponential via inverse CDF.
        let u: f64 = rng.random::<f64>().max(1e-12);
        (-self.dwell_mean * u.ln()).round() as u64
    }

    /// Generates `count` traces of `duration + 1` per-second positions
    /// (seconds `0..=duration`). Objects start at the centers of random
    /// rooms.
    pub fn generate<R: Rng>(
        &self,
        rng: &mut R,
        graph: &WalkingGraph,
        room_count: usize,
        count: usize,
        duration: u64,
    ) -> Vec<TrueTrace> {
        assert!(room_count > 1, "need at least two rooms for destinations");
        (0..count)
            .map(|i| {
                let object = ObjectId::new(i as u32);
                let positions = self.walk(rng, graph, room_count, duration);
                TrueTrace { object, positions }
            })
            .collect()
    }

    /// Simulates one object.
    fn walk<R: Rng>(
        &self,
        rng: &mut R,
        graph: &WalkingGraph,
        room_count: usize,
        duration: u64,
    ) -> Vec<GraphPos> {
        // Start at a random room's node.
        let mut current_room = rng.random_range(0..room_count);
        let start_node = graph.room_node(RoomId::new(current_room as u32));
        let start = graph.edges_at(start_node)[0];
        let mut pos = GraphPos::new(start.edge, start.offset);

        let mut positions = Vec::with_capacity(duration as usize + 1);
        positions.push(pos);

        let mut path: Option<(Path, f64, f64)> = None; // (path, travelled, speed)
        let mut dwell_left = self.sample_dwell(rng);

        for _ in 1..=duration {
            if let Some((p, travelled, speed)) = path.as_mut() {
                *travelled += *speed;
                pos = p.pos_at(*travelled);
                if *travelled >= p.length() {
                    pos = p.end();
                    path = None;
                    dwell_left = self.sample_dwell(rng);
                }
            } else if dwell_left > 0 {
                dwell_left -= 1;
            } else {
                // Pick a new destination room and route to it.
                let mut dest = rng.random_range(0..room_count);
                if dest == current_room {
                    dest = (dest + 1) % room_count;
                }
                current_room = dest;
                let dest_node = graph.room_node(RoomId::new(dest as u32));
                let link = graph.edges_at(dest_node)[0];
                let target = GraphPos::new(link.edge, link.offset);
                let route = graph
                    .shortest_paths_from(pos)
                    .path_to(graph, target)
                    .expect("office graph is connected");
                let speed = self.sample_speed(rng);
                if route.is_empty() {
                    dwell_left = self.sample_dwell(rng).max(1);
                } else {
                    path = Some((route, 0.0, speed));
                }
            }
            positions.push(pos);
        }
        positions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ExperimentParams, SimWorld};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn world() -> SimWorld {
        SimWorld::build(&ExperimentParams::smoke())
    }

    #[test]
    fn traces_have_requested_shape() {
        let w = world();
        let mut rng = StdRng::seed_from_u64(1);
        let gen = TraceGenerator::new(10.0);
        let traces = gen.generate(&mut rng, &w.graph, w.plan.rooms().len(), 5, 100);
        assert_eq!(traces.len(), 5);
        for (i, t) in traces.iter().enumerate() {
            assert_eq!(t.object, ObjectId::new(i as u32));
            assert_eq!(t.len(), 101);
            assert!(!t.is_empty());
        }
    }

    #[test]
    fn per_second_displacement_bounded_by_speed() {
        let w = world();
        let mut rng = StdRng::seed_from_u64(2);
        let gen = TraceGenerator::new(5.0);
        let traces = gen.generate(&mut rng, &w.graph, w.plan.rooms().len(), 3, 200);
        for t in &traces {
            for s in 1..t.len() as u64 {
                let a = t.point_at(&w.graph, s - 1);
                let b = t.point_at(&w.graph, s);
                // Euclidean displacement ≤ walked arc length ≤ ~1.5 m/s.
                assert!(
                    a.distance(b) <= 1.6,
                    "second {s}: jumped {} m",
                    a.distance(b)
                );
            }
        }
    }

    #[test]
    fn positions_always_on_graph() {
        let w = world();
        let mut rng = StdRng::seed_from_u64(3);
        let gen = TraceGenerator::new(10.0);
        let traces = gen.generate(&mut rng, &w.graph, w.plan.rooms().len(), 3, 150);
        for t in &traces {
            for pos in &t.positions {
                let e = w.graph.edge(pos.edge);
                assert!(pos.offset >= -1e-9 && pos.offset <= e.length() + 1e-9);
            }
        }
    }

    #[test]
    fn objects_actually_move_between_rooms() {
        let w = world();
        let mut rng = StdRng::seed_from_u64(4);
        let gen = TraceGenerator::new(3.0);
        let traces = gen.generate(&mut rng, &w.graph, w.plan.rooms().len(), 4, 300);
        for t in &traces {
            let start = t.point_at(&w.graph, 0);
            let max_excursion = (0..t.len() as u64)
                .map(|s| t.point_at(&w.graph, s).distance(start))
                .fold(0.0f64, f64::max);
            assert!(
                max_excursion > 5.0,
                "object never strayed more than {max_excursion} m in 300 s"
            );
        }
    }

    #[test]
    fn trace_at_clamps_beyond_end() {
        let w = world();
        let mut rng = StdRng::seed_from_u64(5);
        let gen = TraceGenerator::new(10.0);
        let traces = gen.generate(&mut rng, &w.graph, w.plan.rooms().len(), 1, 50);
        let t = &traces[0];
        assert_eq!(t.at(50), t.at(9999));
    }

    #[test]
    fn zero_dwell_keeps_objects_moving() {
        let w = world();
        let mut rng = StdRng::seed_from_u64(12);
        let gen = TraceGenerator::new(0.0);
        let traces = gen.generate(&mut rng, &w.graph, w.plan.rooms().len(), 2, 200);
        for t in &traces {
            // With no dwell the object is in motion almost every second:
            // count stationary steps (same point twice).
            let mut still = 0;
            for s in 1..t.len() as u64 {
                if t.point_at(&w.graph, s - 1)
                    .distance(t.point_at(&w.graph, s))
                    < 1e-9
                {
                    still += 1;
                }
            }
            assert!(
                still < t.len() / 4,
                "object parked {still}/{} seconds with zero dwell",
                t.len()
            );
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let w = world();
        let gen = TraceGenerator::new(10.0);
        let t1 = gen.generate(
            &mut StdRng::seed_from_u64(9),
            &w.graph,
            w.plan.rooms().len(),
            2,
            60,
        );
        let t2 = gen.generate(
            &mut StdRng::seed_from_u64(9),
            &w.graph,
            w.plan.rooms().len(),
            2,
            60,
        );
        for (a, b) in t1.iter().zip(&t2) {
            assert_eq!(a.positions, b.positions);
        }
    }
}

//! Initial particle placement inside a reader's activation range.
//!
//! Algorithm 2, line 5 / §3.2: "a set of particles are generated and
//! uniformly distributed on the graph edges within the detection range of
//! dᵢ, and each particle picks its own moving direction and speed."

use crate::{Heading, IndoorState, MotionModel};
use rand::Rng;
use ripq_geom::Segment;
use ripq_graph::{EdgeId, GraphPos, WalkingGraph};
use ripq_rfid::Reader;

/// The arc-length intervals of every edge that lie inside `reader`'s
/// activation disk, as `(edge, lo, hi)` offset ranges.
pub(crate) fn seed_intervals(graph: &WalkingGraph, reader: &Reader) -> Vec<(EdgeId, f64, f64)> {
    let c = reader.position();
    let r = reader.activation_range();
    let mut out = Vec::new();
    for e in graph.edges() {
        let pts = e.geometry.points();
        let mut cum = 0.0;
        for w in pts.windows(2) {
            let seg = Segment::new(w[0], w[1]);
            if let Some((lo, hi)) = seg.circle_overlap_interval(c, r) {
                if hi - lo > 1e-9 {
                    out.push((e.id, cum + lo, cum + hi));
                }
            }
            cum += seg.length();
        }
    }
    out
}

/// Replaces `out` with `n` particles drawn uniformly (by arc length) over
/// `intervals`, the [`seed_intervals`] of `reader`, each with a random
/// heading and a speed from the motion model's Gaussian.
///
/// Falls back to the reader's own graph projection when the activation
/// disk covers no edge at all (pathological deployments), so callers
/// always receive `n` particles.
pub(crate) fn seed_particles<R: Rng>(
    rng: &mut R,
    graph: &WalkingGraph,
    reader: &Reader,
    intervals: &[(EdgeId, f64, f64)],
    motion: &MotionModel,
    n: usize,
    out: &mut Vec<IndoorState>,
) {
    let total: f64 = intervals.iter().map(|(_, lo, hi)| hi - lo).sum();
    out.clear();
    for _ in 0..n {
        let pos = if total > 1e-12 {
            let mut x = rng.random::<f64>() * total;
            let mut chosen = GraphPos::new(intervals[0].0, intervals[0].1);
            for &(e, lo, hi) in intervals {
                let len = hi - lo;
                if x <= len {
                    chosen = GraphPos::new(e, lo + x);
                    break;
                }
                x -= len;
            }
            chosen
        } else {
            reader.graph_pos()
        };
        let heading = if rng.random::<bool>() {
            Heading::TowardA
        } else {
            Heading::TowardB
        };
        out.push(IndoorState {
            pos: graph.clamp_pos(pos),
            heading,
            speed: motion.sample_speed(rng),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use ripq_floorplan::{office_building, OfficeParams};
    use ripq_graph::build_walking_graph;
    use ripq_rfid::{deploy_uniform, ReaderId};

    fn seeds(
        rng: &mut StdRng,
        g: &WalkingGraph,
        reader: &Reader,
        motion: &MotionModel,
        n: usize,
    ) -> Vec<IndoorState> {
        let mut out = Vec::new();
        seed_particles(
            rng,
            g,
            reader,
            &seed_intervals(g, reader),
            motion,
            n,
            &mut out,
        );
        out
    }

    fn setup() -> (WalkingGraph, Vec<Reader>) {
        let plan = office_building(&OfficeParams::default()).unwrap();
        let g = build_walking_graph(&plan);
        let readers = deploy_uniform(&plan, &g, 19, 2.0);
        (g, readers)
    }

    #[test]
    fn intervals_cover_points_inside_disk_only() {
        let (g, readers) = setup();
        for reader in readers.iter().take(5) {
            let ivals = seed_intervals(&g, reader);
            assert!(!ivals.is_empty(), "reader {} covers no edge", reader.id());
            for (e, lo, hi) in ivals {
                assert!(lo < hi);
                for f in [0.0, 0.5, 1.0] {
                    let p = g.edge(e).point_at(lo + (hi - lo) * f);
                    assert!(
                        reader.position().distance(p) <= reader.activation_range() + 1e-6,
                        "interval point outside activation range"
                    );
                }
            }
        }
    }

    #[test]
    fn seeded_particles_inside_range() {
        let (g, readers) = setup();
        let mut rng = StdRng::seed_from_u64(12);
        let motion = MotionModel::default();
        let particles = seeds(&mut rng, &g, &readers[3], &motion, 256);
        assert_eq!(particles.len(), 256);
        for p in &particles {
            let pt = g.point_of(p.pos);
            assert!(readers[3].position().distance(pt) <= readers[3].activation_range() + 1e-6);
            assert!(p.speed > 0.0);
        }
    }

    #[test]
    fn seeded_headings_both_directions() {
        let (g, readers) = setup();
        let mut rng = StdRng::seed_from_u64(13);
        let motion = MotionModel::default();
        let particles = seeds(&mut rng, &g, &readers[0], &motion, 200);
        let toward_a = particles
            .iter()
            .filter(|p| p.heading == Heading::TowardA)
            .count();
        assert!(
            toward_a > 50 && toward_a < 150,
            "headings unbalanced: {toward_a}"
        );
    }

    #[test]
    fn pathological_reader_falls_back_to_projection() {
        let (g, _) = setup();
        let mut rng = StdRng::seed_from_u64(14);
        let motion = MotionModel::default();
        // A reader far outside the building with a tiny range.
        let far = Reader::new(
            ReaderId::new(99),
            ripq_geom::Point2::new(-100.0, -100.0),
            g.project(ripq_geom::Point2::new(-100.0, -100.0)),
            0.01,
        );
        let particles = seeds(&mut rng, &g, &far, &motion, 8);
        assert_eq!(particles.len(), 8);
    }

    #[test]
    fn seeding_is_roughly_uniform_over_covered_length() {
        let (g, readers) = setup();
        let mut rng = StdRng::seed_from_u64(15);
        let motion = MotionModel::default();
        let reader = &readers[9];
        let ivals = seed_intervals(&g, reader);
        let total: f64 = ivals.iter().map(|(_, lo, hi)| hi - lo).sum();
        let n = 4000;
        let particles = seeds(&mut rng, &g, reader, &motion, n);
        // Count particles in each interval; expect proportional to length.
        for &(e, lo, hi) in &ivals {
            let count = particles
                .iter()
                .filter(|p| {
                    p.pos.edge == e && p.pos.offset >= lo - 1e-9 && p.pos.offset <= hi + 1e-9
                })
                .count();
            let expected = (hi - lo) / total * n as f64;
            assert!(
                (count as f64 - expected).abs() < expected.max(20.0),
                "interval got {count}, expected ~{expected}"
            );
        }
    }
}

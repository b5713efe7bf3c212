//! Offline trajectory reconstruction — the "track and trace" application
//! the paper's introduction motivates RFID deployments with (§1: "In
//! indoor environments, RFID is mainly employed to support track and trace
//! applications").
//!
//! Given the *full* reading history of an object (a
//! [`ripq_rfid::HistoryCollector`]'s log of per-second batches),
//! [`reconstruct_trajectory`] runs the particle filter forward over the
//! whole recording and emits, for every second, the filtered location
//! estimate: the probability-weighted mean point and the most probable
//! anchor. Unlike the online preprocessor it never discards old episodes:
//! it reads each second's reading straight from the log, aggregated by the
//! collector's rule, from the object's first detection on.

use crate::sir::{FilterTables, Particles, Sir, SirModel};
use crate::{MeasurementModel, MotionModel};
use rand::Rng;
use ripq_geom::Point2;
use ripq_graph::{AnchorId, AnchorSet, WalkingGraph};
use ripq_rfid::{HistoryCollector, ObjectId, Reader, ReaderId};
use serde::{Deserialize, Serialize};

/// One reconstructed trajectory sample.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrajectoryPoint {
    /// The second this sample describes.
    pub second: u64,
    /// Probability-weighted mean of the particle cloud (a smooth estimate;
    /// may cut corners geometrically).
    pub mean: Point2,
    /// The anchor carrying the most probability (always on the graph).
    pub mode: AnchorId,
    /// Probability mass at the mode anchor.
    pub mode_probability: f64,
    /// Whether any reader detected the object this second.
    pub observed: bool,
}

/// Configuration for trajectory reconstruction.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrajectoryConfig {
    /// Particles used for the reconstruction (more than online tracking,
    /// since this is offline: default 256).
    pub num_particles: usize,
    /// Motion model.
    pub motion: MotionModel,
    /// Measurement model.
    pub measurement: MeasurementModel,
    /// Use negative evidence during silent seconds (recommended).
    pub negative_evidence: bool,
}

impl Default for TrajectoryConfig {
    fn default() -> Self {
        TrajectoryConfig {
            num_particles: 256,
            motion: MotionModel::default(),
            measurement: MeasurementModel::default(),
            negative_evidence: true,
        }
    }
}

/// Replays an object's full recorded history through the particle filter
/// and returns one [`TrajectoryPoint`] per second from its first detection
/// to the log's last second. Returns `None` when the history never saw the
/// object.
pub fn reconstruct_trajectory<R: Rng>(
    rng: &mut R,
    graph: &WalkingGraph,
    anchors: &AnchorSet,
    readers: &[Reader],
    history: &HistoryCollector,
    object: ObjectId,
    config: &TrajectoryConfig,
) -> Option<Vec<TrajectoryPoint>> {
    let end = history.current_second()?;
    let (first_second, readings) = readings_of(history, object)?;
    let first_reader = readings.first().copied().flatten()?;

    // Seed at the first detecting reader, then run the same SIR filter as
    // the online preprocessor, resampling below half the particle count.
    let tables = FilterTables::new(graph, readers);
    let sir = Sir::new(
        graph,
        anchors,
        readers,
        &tables,
        SirModel {
            motion: config.motion,
            measurement: config.measurement,
            negative_evidence: config.negative_evidence,
            resample_threshold: 0.5,
            adaptive: None,
            num_particles: config.num_particles,
        },
    );
    let mut particles = sir.particles();
    sir.seed(
        &mut particles,
        rng,
        sir.reader(first_reader),
        config.num_particles,
    );

    let mut out = Vec::with_capacity((end - first_second + 1) as usize);
    push_sample(&mut out, graph, anchors, &particles, first_second, true);

    for second in first_second + 1..=end {
        let reading = readings
            .get((second - first_second) as usize)
            .copied()
            .flatten();
        sir.iterate(&mut particles, rng, reading);
        push_sample(
            &mut out,
            graph,
            anchors,
            &particles,
            second,
            reading.is_some(),
        );
    }
    Some(out)
}

/// `object`'s reading of every second from its first detection on, read
/// from the log by the collector's rule: within a batch the last pair
/// naming the object wins, and a later batch for the same second never
/// replaces a detection. Returns the first second and one entry per
/// second through the last detection (`None` = unseen that second), or
/// `None` when the log never names the object.
fn readings_of(
    history: &HistoryCollector,
    object: ObjectId,
) -> Option<(u64, Vec<Option<ReaderId>>)> {
    let mut first_second = None;
    let mut readings = Vec::new();
    for (second, batch) in history.batches() {
        let Some(&(_, reader)) = batch.iter().rev().find(|(o, _)| *o == object) else {
            continue;
        };
        let len = (second - *first_second.get_or_insert(second)) as usize + 1;
        if readings.len() < len {
            readings.resize(len - 1, None);
            readings.push(Some(reader));
        }
    }
    Some((first_second?, readings))
}

fn push_sample(
    out: &mut Vec<TrajectoryPoint>,
    graph: &WalkingGraph,
    anchors: &AnchorSet,
    particles: &Particles,
    second: u64,
    observed: bool,
) {
    let (states, weights) = (particles.states(), particles.weights());
    let total: f64 = weights.iter().sum();
    let mut mean = Point2::ORIGIN;
    for (s, w) in states.iter().zip(weights) {
        mean = mean + graph.point_of(s.pos) * (w / total);
    }
    let snapped =
        anchors.snap_distribution(states.iter().zip(weights).map(|(s, w)| (s.pos, w / total)));
    let (mode, mode_probability) = snapped
        .iter()
        .copied()
        .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
        // ripq-lint: allow(no-panic-paths) -- the filter always carries config.particles ≥ 1 particles, so the snapped set is never empty
        .expect("non-empty particle set");
    out.push(TrajectoryPoint {
        second,
        mean,
        mode,
        mode_probability,
        observed,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use ripq_floorplan::{office_building, OfficeParams};
    use ripq_graph::build_walking_graph;
    use ripq_rfid::deploy_uniform;

    struct World {
        graph: WalkingGraph,
        anchors: AnchorSet,
        readers: Vec<Reader>,
    }

    fn world() -> World {
        let plan = office_building(&OfficeParams::default()).unwrap();
        let graph = build_walking_graph(&plan);
        let anchors = AnchorSet::generate(&graph, &plan, 1.0);
        let readers = deploy_uniform(&plan, &graph, 19, 2.0);
        World {
            graph,
            anchors,
            readers,
        }
    }

    const O: ObjectId = ObjectId::new(0);

    /// Records a straight walk along hallway 0 into the history.
    fn straight_walk(w: &World) -> (HistoryCollector, Vec<Point2>) {
        let y = w.readers[0].position().y;
        let x0 = w.readers[0].position().x - 3.0;
        let mut history = HistoryCollector::new();
        let mut truth = Vec::new();
        for s in 0..=40u64 {
            let p = Point2::new(x0 + s as f64, y);
            truth.push(p);
            let det: Vec<_> = w
                .readers
                .iter()
                .filter(|r| r.covers(p))
                .map(|r| (O, r.id()))
                .take(1)
                .collect();
            history.ingest_second(s, &det);
        }
        (history, truth)
    }

    #[test]
    fn reconstruction_covers_every_second() {
        let w = world();
        let (history, _) = straight_walk(&w);
        let mut rng = StdRng::seed_from_u64(70);
        let traj = reconstruct_trajectory(
            &mut rng,
            &w.graph,
            &w.anchors,
            &w.readers,
            &history,
            O,
            &TrajectoryConfig::default(),
        )
        .expect("object recorded");
        // One sample per second from the first detection to the end.
        assert!(traj.len() >= 38, "samples: {}", traj.len());
        for win in traj.windows(2) {
            assert_eq!(win[1].second, win[0].second + 1);
        }
    }

    #[test]
    fn reconstruction_tracks_a_straight_walk() {
        let w = world();
        let (history, truth) = straight_walk(&w);
        let mut rng = StdRng::seed_from_u64(71);
        let traj = reconstruct_trajectory(
            &mut rng,
            &w.graph,
            &w.anchors,
            &w.readers,
            &history,
            O,
            &TrajectoryConfig::default(),
        )
        .unwrap();
        // Average error of the mean estimate against the true walk.
        let mut err = 0.0;
        let mut n = 0;
        for tp in &traj {
            let t = tp.second as usize;
            if t < truth.len() {
                err += tp.mean.distance(truth[t]);
                n += 1;
            }
        }
        let avg = err / n as f64;
        assert!(avg < 6.0, "average reconstruction error {avg} m");
        // Mode probabilities are meaningful.
        assert!(traj.iter().all(|tp| tp.mode_probability > 0.0));
        // Observed flags mark the in-range stretches.
        assert!(traj.iter().any(|tp| tp.observed));
        assert!(traj.iter().any(|tp| !tp.observed));
    }

    #[test]
    fn unknown_object_returns_none() {
        let w = world();
        let (history, _) = straight_walk(&w);
        let mut rng = StdRng::seed_from_u64(72);
        assert!(reconstruct_trajectory(
            &mut rng,
            &w.graph,
            &w.anchors,
            &w.readers,
            &history,
            ObjectId::new(99),
            &TrajectoryConfig::default(),
        )
        .is_none());
    }

    #[test]
    fn empty_history_returns_none() {
        let w = world();
        let history = HistoryCollector::new();
        let mut rng = StdRng::seed_from_u64(73);
        assert!(reconstruct_trajectory(
            &mut rng,
            &w.graph,
            &w.anchors,
            &w.readers,
            &history,
            O,
            &TrajectoryConfig::default(),
        )
        .is_none());
    }

    /// One seeded reconstruction of the straight walk, pinned to the bit:
    /// `(second, mean.x, mean.y, mode, mode_probability)` with every
    /// float as its IEEE-754 bits.
    #[rustfmt::skip]
    const PINNED_STRAIGHT_WALK: [(u64, u64, u64, u32, u64); 40] = [
        (1, 0x40162c2bd12906a3, 0x4023e9733d16a871, 231, 0x3fc4800000000000),
        (2, 0x4015e5c20dfa0f07, 0x4023eebf1aa74772, 5, 0x3fd1cbcf7d6bd865),
        (3, 0x40173429b74ed7bb, 0x4024195d9dea5928, 6, 0x3fd1400000000000),
        (4, 0x401960ef4056ef2f, 0x4023eeb85cd879d1, 7, 0x3fdbc7bbe4df7e4f),
        (5, 0x401b8c6bdf08fb0a, 0x40244899589e232c, 7, 0x3fe4a00000000000),
        (6, 0x401ddfa5e84dc16a, 0x402479ac3a161850, 8, 0x3fe6a924fad221ff),
        (7, 0x40201417cf33f79c, 0x4024a394b447ab82, 9, 0x3fe5033e37b4e307),
        (8, 0x4021385caa410e78, 0x4024cd7d2e793eb9, 10, 0x3fe5033e37b4e307),
        (9, 0x40225ca1854e257a, 0x4024f88310e6eb07, 11, 0x3fe5033e37b4e307),
        (10, 0x40238d242acccfde, 0x4024f65cb4a4c236, 12, 0x3fe35d577497a40f),
        (11, 0x40250aa59084cd76, 0x4024ec6bb21e899f, 13, 0x3fe1da9941bcd501),
        (12, 0x402689391b400adb, 0x4024e095f5e7e52c, 14, 0x3fe1da9941bcd501),
        (13, 0x4031e70c6b1173c7, 0x4024000000000000, 17, 0x3fd2400000000000),
        (14, 0x403206da06f041a8, 0x4023fffffffffff1, 18, 0x3fd77d0f2150fe08),
        (15, 0x4032334e98f12ed4, 0x4024000000006991, 19, 0x3fd57dde289dd05d),
        (16, 0x40322ceba301fa1b, 0x4024000000000000, 19, 0x3fdc800000000000),
        (17, 0x4032bc9031e9063b, 0x4024000000000000, 19, 0x3fe6a00000000000),
        (18, 0x403320214a0d74a1, 0x4024000000000000, 20, 0x3fe6a00000000000),
        (19, 0x40338fba1fa201f6, 0x4023f9815c19f201, 21, 0x3fe6a00000000000),
        (20, 0x403404cc8a1121d8, 0x4023f1bd2ae14f53, 22, 0x3fe2c00000000000),
        (21, 0x40347a237a775c84, 0x4023e9dd90df6ebb, 23, 0x3fe2c00000000000),
        (22, 0x4034ef7a6add9724, 0x4023e1fdf6dd8e22, 24, 0x3fe2c00000000000),
        (23, 0x40354fb64c10b51b, 0x4023e203c6535502, 25, 0x3fd7c00000000000),
        (24, 0x40358f323a2e34c3, 0x4023f474acddd105, 26, 0x3fd0800000000000),
        (25, 0x403e5776b7e91968, 0x402444839432a883, 28, 0x3fc7000000000000),
        (26, 0x403e65c983e06305, 0x40242e4d69ab8901, 29, 0x3fcd07ae15b0d0fb),
        (27, 0x403e5fb2913a4e1b, 0x4023f77f1bdfb3fc, 189, 0x3fcd4fc2e03af9a4),
        (28, 0x403e6427596d4129, 0x402435210eeb724a, 28, 0x3fcc800000000000),
        (29, 0x403e57a4206de625, 0x40249d9e94093969, 191, 0x3fca7b33ed40f65a),
        (30, 0x403e23c565a95876, 0x4025df6e391ef67e, 192, 0x3fd8c00000000000),
        (31, 0x403e112628aa63b2, 0x4026a6f51e408526, 26, 0x3fd5c00000000000),
        (32, 0x403dfe86ebab6ef7, 0x40276e7c036213ca, 25, 0x3fd5c00000000000),
        (33, 0x403dfd1a5e5408cc, 0x40284080085d824f, 24, 0x3fcc000000000000),
        (34, 0x403e0794057af381, 0x40291cadc5c61a37, 23, 0x3fcc000000000000),
        (35, 0x403e120daca1de57, 0x4029f8db832eb217, 22, 0x3fc9800000000000),
        (36, 0x403e04ffec23002f, 0x4029933d3a3ee631, 21, 0x3fcc233c5f434676),
        (37, 0x4043fef4a28aee16, 0x402411dab9e65eae, 40, 0x3fefa00000000000),
        (38, 0x40449690758be28b, 0x4024000083444e26, 41, 0x3feffffd83651a1b),
        (39, 0x40451f10330dce32, 0x402400000003b06c, 42, 0x3fefffff2bc17554),
        (40, 0x4045a78f86c01a47, 0x402400000000001e, 43, 0x3fefffff2bcc530a),
    ];

    #[test]
    fn seeded_reconstruction_is_pinned_to_the_bit() {
        let w = world();
        let (history, _) = straight_walk(&w);
        let mut rng = StdRng::seed_from_u64(74);
        let traj = reconstruct_trajectory(
            &mut rng,
            &w.graph,
            &w.anchors,
            &w.readers,
            &history,
            O,
            &TrajectoryConfig::default(),
        )
        .unwrap();
        let got: Vec<(u64, u64, u64, u32, u64)> = traj
            .iter()
            .map(|tp| {
                (
                    tp.second,
                    tp.mean.x.to_bits(),
                    tp.mean.y.to_bits(),
                    tp.mode.raw(),
                    tp.mode_probability.to_bits(),
                )
            })
            .collect();
        assert_eq!(got, PINNED_STRAIGHT_WALK);
    }
}

//! Workload definitions and input generation.
//!
//! Every input is generated ahead of time from the workload seed with
//! `ripq-sim`'s [`TraceGenerator`] and [`ReadingGenerator`]; the system
//! under test only ever receives the resulting readings, queries and
//! frames. The same seed always yields the same inputs, and a digest of
//! them is reported with every run.

use crate::stats::{derive_seed, Digest};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ripq_core::continuous::SubscriptionKind;
use ripq_core::SystemConfig;
use ripq_floorplan::{office_building, FloorPlan, Location, OfficeParams};
use ripq_geom::{Point2, Rect};
use ripq_graph::{build_walking_graph, WalkingGraph};
use ripq_rfid::{deploy_uniform, ObjectId, RawReading, Reader, ReaderId, SensingModel};
use ripq_sim::{ExperimentParams, ReadingGenerator, TraceGenerator, TrueTrace};
use std::fmt::Write as _;

/// The three benchmark workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Library path at the paper's Table 2 defaults.
    PaperBatch,
    /// Daemon path, 30 objects, 49 standing subscriptions.
    QueryFanout,
    /// Daemon path, 1000 objects, sample-level readings and checkpoints.
    StreamIngest,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 3] = [
        Workload::PaperBatch,
        Workload::QueryFanout,
        Workload::StreamIngest,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperBatch => "paper-batch",
            Workload::QueryFanout => "query-fanout",
            Workload::StreamIngest => "stream-ingest",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's size. `smoke` shrinks it for tests.
    pub fn shape(self, smoke: bool) -> Shape {
        let full = match self {
            Workload::PaperBatch => Shape {
                objects: 200,
                warmup: 60,
                episode: 600,
                tick_every: 1,
                checkpoint_every_ticks: 0,
                verify_ticks: 0,
            },
            Workload::QueryFanout => Shape {
                objects: 30,
                warmup: 60,
                episode: 1800,
                tick_every: 1,
                checkpoint_every_ticks: 0,
                verify_ticks: 60,
            },
            Workload::StreamIngest => Shape {
                objects: 1000,
                warmup: 60,
                episode: 600,
                tick_every: 10,
                checkpoint_every_ticks: 6,
                verify_ticks: 12,
            },
        };
        if smoke {
            Shape {
                objects: full.objects / 10,
                warmup: 30,
                episode: 60,
                verify_ticks: full.verify_ticks.min(6),
                ..full
            }
        } else {
            full
        }
    }
}

/// Size knobs of one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shape {
    /// Moving objects.
    pub objects: usize,
    /// Seconds ingested during set-up, before the first (cold) evaluation.
    pub warmup: u64,
    /// Measured simulated seconds per episode; the loop restarts from a
    /// fresh set-up when an episode ends.
    pub episode: u64,
    /// Seconds between evaluations.
    pub tick_every: u64,
    /// Evaluations between `checkpoint` frames (0 = none).
    pub checkpoint_every_ticks: u64,
    /// Daemon workloads: evaluations compared against a facade twin before
    /// the timed loop.
    pub verify_ticks: usize,
}

impl Shape {
    /// Last simulated second of an episode.
    pub fn duration(&self) -> u64 {
        self.warmup + self.episode - 1
    }

    /// Whether `second` ends a tick interval.
    pub fn is_tick(&self, second: u64) -> bool {
        (second + 1).is_multiple_of(self.tick_every)
    }
}

/// The static world: the office plan of the paper's experiments with the
/// reader deployment [`ripq_core::IndoorQuerySystem`] builds for `config`.
pub struct World {
    pub plan: FloorPlan,
    pub graph: WalkingGraph,
    pub readers: Vec<Reader>,
}

impl World {
    pub fn office(config: &SystemConfig) -> World {
        let plan = office_building(&OfficeParams::default()).expect("default office plan is valid");
        let graph = build_walking_graph(&plan);
        let readers = deploy_uniform(&plan, &graph, config.reader_count, config.activation_range);
        World {
            plan,
            graph,
            readers,
        }
    }
}

/// True traces and the per-second detections they produce.
pub struct Simulation {
    pub traces: Vec<TrueTrace>,
    /// Aggregated detections, indexed by second.
    pub detections: Vec<Vec<(ObjectId, ReaderId)>>,
}

/// The paper's simulator defaults (room dwell time, sensing model).
fn sim_params() -> ExperimentParams {
    ExperimentParams::default()
}

/// Walks `objects` objects for seconds `0..=duration` and senses them.
pub fn simulate(world: &World, seed: u64, objects: usize, duration: u64) -> Simulation {
    let params = sim_params();
    let mut rng_trace = StdRng::seed_from_u64(derive_seed(seed, 1));
    let traces = TraceGenerator::new(params.room_dwell_mean).generate(
        &mut rng_trace,
        &world.graph,
        world.plan.rooms().len(),
        objects,
        duration,
    );
    let mut rng_sense = StdRng::seed_from_u64(derive_seed(seed, 2));
    let detections = ReadingGenerator::new(&world.graph, &world.readers, params.sensing)
        .detections_all(&mut rng_sense, &traces, duration);
    Simulation { traces, detections }
}

/// Expands one second's detections into the detecting readers' individual
/// samples under the sensing model (at least one sample per detection,
/// since the detection happened).
pub fn expand_samples<R: Rng>(
    rng: &mut R,
    second: u64,
    detections: &[(ObjectId, ReaderId)],
) -> Vec<RawReading> {
    let sensing: SensingModel = sim_params().sensing;
    let per_second = sensing.samples_per_second.max(1);
    let sample = |slot: u32, object, reader| RawReading {
        time: second as f64 + (f64::from(slot) + 0.5) / f64::from(per_second),
        object,
        reader,
    };
    let mut out = Vec::new();
    for &(object, reader) in detections {
        let first = out.len();
        for slot in 0..per_second {
            if rng.random::<f64>() < sensing.detection_probability {
                out.push(sample(slot, object, reader));
            }
        }
        if out.len() == first {
            out.push(sample(rng.random_range(0..per_second), object, reader));
        }
    }
    out
}

/// `count` range windows of `fraction` of the floor area, centred on the
/// cells of a two-row grid over the plan, so that they cover the whole
/// floor. They do not depend on the seed: only the objects move with it.
pub fn range_windows(plan: &FloorPlan, count: usize, fraction: f64) -> Vec<Rect> {
    let bounds = plan.bounds();
    let area = bounds.area() * fraction;
    let w = area.sqrt().min(bounds.width());
    let h = (area / w).min(bounds.height());
    let cols = count.div_ceil(2).max(1);
    let rows = count.div_ceil(cols).max(1);
    (0..count)
        .map(|i| {
            let (c, r) = ((i % cols) as f64, (i / cols) as f64);
            let cx = bounds.min().x + (c + 0.5) * bounds.width() / cols as f64;
            let cy = bounds.min().y + (r + 0.5) * bounds.height() / rows as f64;
            let x = (cx - w / 2.0).clamp(bounds.min().x, bounds.max().x - w);
            let y = (cy - h / 2.0).clamp(bounds.min().y, bounds.max().y - h);
            Rect::new(x, y, w, h)
        })
        .collect()
}

/// `count` indoor query points, one per vertical stripe of the plan: the
/// indoor point nearest the stripe's centre line, scanning from mid-height.
pub fn knn_points(plan: &FloorPlan, count: usize) -> Vec<Point2> {
    let bounds = plan.bounds();
    let stripe = bounds.width() / count.max(1) as f64;
    (0..count)
        .map(|i| {
            let x = bounds.min().x + (i as f64 + 0.5) * stripe;
            let mid = bounds.center().y;
            (0..200)
                .flat_map(|step| [mid + f64::from(step) * 0.5, mid - f64::from(step) * 0.5])
                .map(|y| Point2::new(x, y))
                .find(|&p| !matches!(plan.locate(p), Location::Outside))
                .unwrap_or(Point2::new(x, mid))
        })
        .collect()
}

/// Digest of a detection stream.
pub fn digest_detections(d: &mut Digest, detections: &[Vec<(ObjectId, ReaderId)>]) {
    for (second, det) in detections.iter().enumerate() {
        d.u64(second as u64);
        d.u64(det.len() as u64);
        for (o, r) in det {
            d.u64(u64::from(o.raw()));
            d.u64(u64::from(r.raw()));
        }
    }
}

/// `{"op":"reading",...}` for one second of aggregated detections.
pub fn reading_frame(second: u64, detections: &[(ObjectId, ReaderId)]) -> String {
    let mut f = format!("{{\"op\":\"reading\",\"second\":{second},\"readings\":[");
    for (i, (o, r)) in detections.iter().enumerate() {
        if i > 0 {
            f.push(',');
        }
        let _ = write!(f, "[{},{}]", o.raw(), r.raw());
    }
    f.push_str("]}");
    f
}

/// `{"op":"raw",...}` for one second of sample-level readings.
pub fn raw_frame(second: u64, samples: &[RawReading]) -> String {
    let mut f = format!("{{\"op\":\"raw\",\"second\":{second},\"samples\":[");
    for (i, s) in samples.iter().enumerate() {
        if i > 0 {
            f.push(',');
        }
        let _ = write!(f, "[{},{},{}]", s.time, s.object.raw(), s.reader.raw());
    }
    f.push_str("]}");
    f
}

pub fn tick_frame(second: u64) -> String {
    format!("{{\"op\":\"tick\",\"second\":{second}}}")
}

pub const CHECKPOINT_FRAME: &str = "{\"op\":\"checkpoint\"}";

pub fn subscribe_frame(sub: u64, kind: &SubscriptionKind) -> String {
    match kind {
        SubscriptionKind::Range(w) => format!(
            "{{\"op\":\"subscribe\",\"sub\":{sub},\"range\":[{},{},{},{}]}}",
            w.min().x,
            w.min().y,
            w.width(),
            w.height()
        ),
        SubscriptionKind::Knn(p, k) => format!(
            "{{\"op\":\"subscribe\",\"sub\":{sub},\"point\":[{},{}],\"k\":{k}}}",
            p.x, p.y
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let config = SystemConfig::default();
        let world = World::office(&config);
        let a = simulate(&world, 5, 10, 40);
        let b = simulate(&world, 5, 10, 40);
        let (mut da, mut db) = (Digest::default(), Digest::default());
        digest_detections(&mut da, &a.detections);
        digest_detections(&mut db, &b.detections);
        assert_eq!(da.hex(), db.hex());
        let c = simulate(&world, 6, 10, 40);
        let mut dc = Digest::default();
        digest_detections(&mut dc, &c.detections);
        assert_ne!(da.hex(), dc.hex());
    }

    #[test]
    fn windows_and_points_lie_inside_the_plan() {
        let world = World::office(&SystemConfig::default());
        let bounds = world.plan.bounds();
        for w in range_windows(&world.plan, 10, 0.02) {
            assert!(bounds.contains_rect(&w), "{w:?}");
            assert!((w.area() - bounds.area() * 0.02).abs() < 1e-6);
        }
        let points = knn_points(&world.plan, 5);
        assert_eq!(points.len(), 5);
        for p in points {
            assert!(!matches!(world.plan.locate(p), Location::Outside), "{p:?}");
        }
    }

    #[test]
    fn expanded_samples_stay_in_their_second() {
        let mut rng = StdRng::seed_from_u64(4);
        let det = [
            (ObjectId::new(1), ReaderId::new(2)),
            (ObjectId::new(3), ReaderId::new(4)),
        ];
        let samples = expand_samples(&mut rng, 17, &det);
        assert!(samples.len() >= 2);
        assert!(samples.iter().all(|s| s.time.floor() as u64 == 17));
        for (o, _) in det {
            assert!(samples.iter().any(|s| s.object == o));
        }
    }
}

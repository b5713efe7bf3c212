//! Historical queries: "where was everyone at second t?" — the §4.1
//! extension, driven through the full particle-filter pipeline.

use rand::rngs::StdRng;
use rand::SeedableRng;
use ripq::core::{evaluate_range, KnnQuery, QueryId};
use ripq::graph::AnchorObjectIndex;
use ripq::persist::crc32;
use ripq::pf::{
    reconstruct_trajectory, FilterWorld, ParticlePreprocessor, PreprocessorConfig,
    SupervisionOptions, TrajectoryConfig,
};
use ripq::rfid::{DataCollector, HistoryCollector, ObjectId, RawReading, ReaderId};
use ripq::sim::{ExperimentParams, GroundTruth, ReadingGenerator, SimWorld, TraceGenerator};
use std::sync::Arc;

/// Every object a view knows, sorted by id.
fn known_objects(view: &DataCollector) -> Vec<ObjectId> {
    let mut objects: Vec<ObjectId> = view.objects().collect();
    objects.sort_unstable();
    objects
}

/// One preprocessing pass over a history view into a fresh index.
fn process_view(
    pre: &ParticlePreprocessor,
    pass_seed: u64,
    view: &DataCollector,
    objects: &[ObjectId],
    t: u64,
) -> AnchorObjectIndex<ObjectId> {
    let mut index = AnchorObjectIndex::new();
    let supervision = SupervisionOptions::default();
    pre.process(
        pass_seed,
        view,
        objects,
        t,
        None,
        None,
        &supervision,
        &mut index,
    );
    index
}

#[test]
fn historical_inference_reflects_only_past_readings() {
    let params = ExperimentParams::smoke();
    let w = SimWorld::build(&params);
    let mut rng_trace = StdRng::seed_from_u64(31);
    let mut rng_sense = StdRng::seed_from_u64(32);
    let traces =
        TraceGenerator::new(6.0).generate(&mut rng_trace, &w.graph, w.plan.rooms().len(), 10, 150);
    let gen = ReadingGenerator::new(&w.graph, &w.readers, params.sensing);
    let mut history = HistoryCollector::new();
    for s in 0..=150u64 {
        let det = gen.detections_at(&mut rng_sense, &traces, s);
        history.ingest_second(s, &det);
    }
    let world = FilterWorld::new(w.graph.clone(), w.anchors.clone(), w.readers.clone());
    let pre = ParticlePreprocessor::new(Arc::new(world), PreprocessorConfig::default());

    // Evaluate "where was o at t = 80?" from the full history.
    let t = 80u64;
    let view = history.view_at(t);
    let objects = known_objects(&view);
    assert!(!objects.is_empty());
    let index = process_view(&pre, 33, &view, &objects, t);

    // Mass must be consistent with the *then-current* positions: for each
    // processed object, some probability within plausible reach of the
    // true position at t.
    let mut covered = 0usize;
    let mut total = 0usize;
    for trace in &traces {
        let Some(dist) = index.distribution(&trace.object) else {
            continue;
        };
        total += 1;
        let truth = trace.point_at(&w.graph, t);
        let near: f64 = dist
            .iter()
            .filter(|(a, _)| w.anchors.anchor(*a).point.distance(truth) < 8.0)
            .map(|&(_, p)| p)
            .sum();
        if near > 0.2 {
            covered += 1;
        }
    }
    assert!(total >= 5, "most objects have history by t=80");
    assert!(
        covered * 10 >= total * 6,
        "historical inference should localize most objects: {covered}/{total}"
    );
}

#[test]
fn historical_views_at_different_instants_differ() {
    let params = ExperimentParams::smoke();
    let w = SimWorld::build(&params);
    let mut rng_trace = StdRng::seed_from_u64(41);
    let mut rng_sense = StdRng::seed_from_u64(42);
    let traces =
        TraceGenerator::new(4.0).generate(&mut rng_trace, &w.graph, w.plan.rooms().len(), 5, 150);
    let gen = ReadingGenerator::new(&w.graph, &w.readers, params.sensing);
    let mut history = HistoryCollector::new();
    for s in 0..=150u64 {
        let det = gen.detections_at(&mut rng_sense, &traces, s);
        history.ingest_second(s, &det);
    }
    // A walker's last detection at t=60 and t=140 generally differs.
    let mut any_different = false;
    for trace in &traces {
        let v1 = history.view_at(60);
        let v2 = history.view_at(140);
        let d1 = v1.last_detection(trace.object);
        let d2 = v2.last_detection(trace.object);
        if d1.is_some() && d1 != d2 {
            any_different = true;
        }
        // And views never see the future.
        if let Some((_, t_last)) = d1 {
            assert!(t_last <= 60);
        }
    }
    assert!(any_different, "moving objects change readings over 80 s");
}

#[test]
fn historical_range_and_knn_queries_run() {
    let params = ExperimentParams::smoke();
    let w = SimWorld::build(&params);
    let mut rng_trace = StdRng::seed_from_u64(51);
    let mut rng_sense = StdRng::seed_from_u64(52);
    let traces =
        TraceGenerator::new(6.0).generate(&mut rng_trace, &w.graph, w.plan.rooms().len(), 12, 120);
    let gen = ReadingGenerator::new(&w.graph, &w.readers, params.sensing);
    let gt = GroundTruth::new(&w.graph, &traces);
    let mut history = HistoryCollector::new();
    for s in 0..=120u64 {
        let det = gen.detections_at(&mut rng_sense, &traces, s);
        history.ingest_second(s, &det);
    }
    let world = FilterWorld::new(w.graph.clone(), w.anchors.clone(), w.readers.clone());
    let pre = ParticlePreprocessor::new(Arc::new(world), PreprocessorConfig::default());
    for t in [60u64, 90, 120] {
        let view = history.view_at(t);
        let objects = known_objects(&view);
        let index = process_view(&pre, 53 + t, &view, &objects, t);
        // Historical range query over the whole building finds everyone.
        let rs = evaluate_range(&w.plan, &w.anchors, &index, &w.plan.bounds());
        assert_eq!(rs.len(), index.object_count());
        // Historical kNN runs and returns ≥ k objects.
        let q = KnnQuery::new(QueryId::new(0), w.plan.bounds().center(), 2).unwrap();
        let knn = ripq::core::evaluate_knn(&w.graph, &w.anchors, &index, &q);
        assert!(knn.len() >= 2.min(index.object_count()));
        // Sanity: the ground truth at that instant is defined.
        let _ = gt.knn(w.plan.bounds().center(), 2, t);
    }
}

/// CRC32 pins of the historical path on the seed-31/32 history above:
/// the preprocessed index of views at four instants (every object,
/// anchor and probability bit pattern in key order), each known object's
/// last two devices and last episode at those instants, and the
/// reconstructed trajectory of every recorded object (second, mean bits,
/// mode, mode-probability bits).
#[test]
fn historical_answers_are_pinned() {
    let params = ExperimentParams::smoke();
    let w = SimWorld::build(&params);
    let mut rng_trace = StdRng::seed_from_u64(31);
    let mut rng_sense = StdRng::seed_from_u64(32);
    let traces =
        TraceGenerator::new(6.0).generate(&mut rng_trace, &w.graph, w.plan.rooms().len(), 10, 150);
    let gen = ReadingGenerator::new(&w.graph, &w.readers, params.sensing);
    let mut history = HistoryCollector::new();
    for s in 0..=150u64 {
        let det = gen.detections_at(&mut rng_sense, &traces, s);
        history.ingest_second(s, &det);
    }
    let world = FilterWorld::new(w.graph.clone(), w.anchors.clone(), w.readers.clone());
    let pre = ParticlePreprocessor::new(Arc::new(world), PreprocessorConfig::default());
    let none = u32::MAX.to_le_bytes();

    let (mut index_bytes, mut device_bytes) = (Vec::new(), Vec::new());
    for t in [40u64, 80, 120, 150] {
        let view = history.view_at(t);
        let objects = known_objects(&view);
        let index = process_view(&pre, 33 + t, &view, &objects, t);
        for o in index.objects() {
            index_bytes.extend(o.raw().to_le_bytes());
            for (a, p) in index.distribution(o).unwrap_or_default() {
                index_bytes.extend(a.raw().to_le_bytes());
                index_bytes.extend(p.to_bits().to_le_bytes());
            }
        }
        for &o in &objects {
            let (older, newer) = view.last_two_devices(o).unwrap();
            let (reader, first, last) = view.last_episode(o).unwrap();
            device_bytes.extend(o.raw().to_le_bytes());
            device_bytes.extend(older.raw().to_le_bytes());
            device_bytes.extend(newer.map_or(none, |d| d.raw().to_le_bytes()));
            device_bytes.extend(reader.raw().to_le_bytes());
            device_bytes.extend(first.to_le_bytes());
            device_bytes.extend(last.to_le_bytes());
        }
    }

    let mut trajectory_bytes = Vec::new();
    for trace in &traces {
        let mut rng = StdRng::seed_from_u64(34);
        let Some(points) = reconstruct_trajectory(
            &mut rng,
            &w.graph,
            &w.anchors,
            &w.readers,
            &history,
            trace.object,
            &TrajectoryConfig::default(),
        ) else {
            continue;
        };
        trajectory_bytes.extend(trace.object.raw().to_le_bytes());
        for tp in &points {
            trajectory_bytes.extend(tp.second.to_le_bytes());
            trajectory_bytes.extend(tp.mean.x.to_bits().to_le_bytes());
            trajectory_bytes.extend(tp.mean.y.to_bits().to_le_bytes());
            trajectory_bytes.extend(tp.mode.raw().to_le_bytes());
            trajectory_bytes.extend(tp.mode_probability.to_bits().to_le_bytes());
        }
    }

    let got = [
        crc32(&index_bytes),
        crc32(&device_bytes),
        crc32(&trajectory_bytes),
    ];
    assert!(!index_bytes.is_empty() && !device_bytes.is_empty() && !trajectory_bytes.is_empty());
    assert_eq!(
        got,
        [0x72e1_5b32, 0x17bd_be7d, 0xb5fb_3706],
        "got {got:08x?}"
    );
}

/// What the particle filter reads of `o`: its first retained second (`t0`
/// of Algorithm 2) and its reading at any second, `None` both when the
/// object was silent and outside the retained window.
fn readings(c: &DataCollector, o: ObjectId) -> (u64, impl Fn(u64) -> Option<ReaderId> + '_) {
    let detections = c.detections(o);
    let &(first, _) = detections.first().expect("a known object has readings");
    let reading = move |s| detections.iter().find(|d| d.0 == s).map(|d| d.1);
    (first, reading)
}

/// A collector driven step by step, with every known object's
/// filter-visible view logged after each step.
struct ViewLog {
    c: DataCollector,
    bytes: Vec<u8>,
}

impl ViewLog {
    fn new() -> Self {
        ViewLog {
            c: DataCollector::new(),
            bytes: Vec::new(),
        }
    }

    fn second(&mut self, s: u64, detections: &[(u32, u32)]) {
        let det: Vec<(ObjectId, ReaderId)> = detections
            .iter()
            .map(|&(o, r)| (ObjectId::new(o), ReaderId::new(r)))
            .collect();
        self.c.ingest_second(s, &det);
        self.log();
    }

    fn silence(&mut self, seconds: std::ops::RangeInclusive<u64>) {
        for s in seconds {
            self.second(s, &[]);
        }
    }

    /// `samples` are `(object, reader)` samples spread over second `s`.
    fn raw(&mut self, s: u64, samples: &[(u32, u32)]) {
        let raw: Vec<RawReading> = samples
            .iter()
            .enumerate()
            .map(|(i, &(o, r))| RawReading {
                time: s as f64 + i as f64 / (samples.len() + 1) as f64,
                object: ObjectId::new(o),
                reader: ReaderId::new(r),
            })
            .collect();
        self.c.ingest_raw_second(s, &raw);
        self.log();
    }

    fn delivery(&mut self, d: u64, readings: &[(u64, u32, u32)]) {
        let tagged: Vec<(u64, ObjectId, ReaderId)> = readings
            .iter()
            .map(|&(s, o, r)| (s, ObjectId::new(o), ReaderId::new(r)))
            .collect();
        self.c.ingest_delivery(d, &tagged);
        self.log();
    }

    fn flush(&mut self, s: u64) {
        self.c.flush_through(s);
        self.log();
    }

    /// Appends the current second, then per known object (by id) its
    /// first retained second, its reading at every second from there to
    /// the current one, its last detection, last two devices and last
    /// episode.
    fn log(&mut self) {
        let none = u32::MAX.to_le_bytes();
        let reader = |r: Option<ReaderId>| r.map_or(none, |r| r.raw().to_le_bytes());
        let Some(now) = self.c.current_second() else {
            self.bytes.push(0);
            return;
        };
        self.bytes.extend(now.to_le_bytes());
        for o in known_objects(&self.c) {
            let (first, reading) = readings(&self.c, o);
            self.bytes.extend(o.raw().to_le_bytes());
            self.bytes.extend(first.to_le_bytes());
            for s in first..=now {
                self.bytes.extend(reader(reading(s)));
            }
            let (last_reader, last_second) = self.c.last_detection(o).expect("detected");
            let (older, newer) = self.c.last_two_devices(o).expect("detected");
            let (ep_reader, ep_first, ep_last) = self.c.last_episode(o).expect("detected");
            self.bytes.extend(last_reader.raw().to_le_bytes());
            self.bytes.extend(last_second.to_le_bytes());
            self.bytes.extend(older.raw().to_le_bytes());
            self.bytes.extend(reader(newer));
            self.bytes.extend(ep_reader.raw().to_le_bytes());
            self.bytes.extend(ep_first.to_le_bytes());
            self.bytes.extend(ep_last.to_le_bytes());
        }
    }

    fn crc(&self) -> u32 {
        assert!(!self.bytes.is_empty());
        crc32(&self.bytes)
    }
}

/// CRC32 pins of what the particle filter reads from the collector,
/// logged after every step of one stream per §4.1 rule: a second split
/// over two batches, two pairs naming one object in one batch, a silence
/// past 90 s then re-detection, eviction by a third reader, an episode
/// continued across a known outage, raw samples with tied readers, and
/// delivery with reorder, duplicates and late drops.
#[test]
fn collector_views_are_pinned() {
    let mut split = ViewLog::new();
    split.second(1, &[(0, 1)]);
    split.second(1, &[(1, 1), (0, 2)]);
    split.second(2, &[]);
    split.second(3, &[(0, 1)]);
    split.second(4, &[]);
    split.second(4, &[(1, 2)]);
    split.second(4, &[(1, 3), (2, 0)]);
    split.second(3, &[(0, 3)]); // stale
    split.second(5, &[(0, 1), (1, 2)]);

    let mut last_wins = ViewLog::new();
    last_wins.second(0, &[(0, 1), (0, 2)]);
    last_wins.second(1, &[(0, 2), (1, 0), (0, 1)]);
    last_wins.second(2, &[(1, 0), (1, 3), (0, 1), (1, 0)]);
    last_wins.second(3, &[]);
    last_wins.second(3, &[(0, 3), (0, 2), (1, 2)]);

    let mut silence = ViewLog::new();
    silence.second(0, &[(0, 1), (1, 2)]);
    silence.second(1, &[(0, 1)]);
    silence.silence(2..=60);
    silence.second(61, &[(1, 2)]);
    silence.silence(62..=140);
    silence.second(141, &[(0, 1)]);
    silence.second(142, &[(0, 1), (1, 3)]);
    silence.second(400, &[(1, 3)]);
    silence.second(400, &[(0, 2)]);
    silence.silence(401..=405);
    silence.second(520, &[(0, 2), (2, 1)]);
    silence.second(521, &[]);

    let mut evict = ViewLog::new();
    evict.second(0, &[(0, 1)]);
    evict.second(1, &[(0, 1)]);
    evict.silence(2..=3);
    evict.second(4, &[(0, 2)]);
    evict.second(5, &[(0, 2)]);
    evict.second(6, &[]);
    evict.second(7, &[(0, 3)]);
    evict.second(8, &[(0, 3)]);
    evict.second(9, &[(0, 1)]);
    evict.silence(10..=12);
    evict.second(13, &[(0, 1)]);
    evict.second(20, &[(0, 2)]);
    evict.second(21, &[]);

    let mut outage = ViewLog::new();
    outage.c.note_outage(ReaderId::new(1), 3, 6);
    outage.c.note_outage(ReaderId::new(2), 12, 30);
    outage.second(0, &[(0, 1), (1, 1)]);
    outage.second(1, &[(0, 1)]);
    outage.second(2, &[(0, 1)]);
    outage.silence(3..=6);
    outage.second(7, &[(0, 1), (1, 1)]);
    outage.second(8, &[(0, 2)]);
    outage.second(11, &[(0, 2)]);
    outage.silence(12..=25);
    outage.second(26, &[(0, 2), (1, 3)]);
    outage.second(27, &[(0, 3)]);
    outage.second(28, &[]);

    let mut raw = ViewLog::new();
    raw.raw(5, &[(0, 2), (0, 1), (1, 3), (0, 1), (0, 2), (1, 2)]);
    raw.raw(6, &[(0, 3), (0, 3), (0, 1), (1, 0), (1, 3), (1, 3), (1, 0)]);
    raw.raw(6, &[(2, 1), (0, 2), (2, 0)]);
    raw.raw(7, &[]);
    raw.raw(9, &[(1, 2), (0, 3), (0, 2), (1, 1), (2, 3), (2, 3)]);
    raw.raw(8, &[(0, 0)]); // stale

    let mut delivery = ViewLog::new();
    delivery.c.set_reorder_window(2);
    delivery.delivery(0, &[(0, 0, 1), (0, 1, 2)]);
    delivery.delivery(1, &[(1, 0, 1), (1, 0, 1)]);
    delivery.delivery(2, &[(0, 1, 2), (2, 1, 2)]);
    delivery.delivery(3, &[(3, 0, 2)]);
    delivery.delivery(4, &[(2, 0, 1), (4, 0, 2), (4, 0, 2)]);
    delivery.delivery(5, &[(1, 1, 3), (5, 1, 3)]); // second 1 is final: late
    delivery.delivery(9, &[(8, 0, 3), (6, 1, 3)]);
    delivery.delivery(10, &[(6, 0, 1), (10, 2, 0), (9, 2, 0)]);
    delivery.delivery(10, &[(10, 0, 3)]);
    delivery.flush(10);
    delivery.delivery(11, &[(9, 0, 3)]); // already final: late

    let got = [
        split.crc(),
        last_wins.crc(),
        silence.crc(),
        evict.crc(),
        outage.crc(),
        raw.crc(),
        delivery.crc(),
    ];
    assert_eq!(
        got,
        [
            0x8c12_448b,
            0xc46e_a552,
            0x62db_e866,
            0x0d57_3cda,
            0x1da2_4200,
            0xc456_39cd,
            0xd123_0bfd
        ],
        "got {got:08x?}"
    );
}

//! Differential suite: the one network-distance path against full-tree
//! Dijkstra references.
//!
//! Query evaluation never builds a full shortest-path tree. kNN, PTkNN
//! and closest pairs read distances off the lazy [`AnchorScan`]; kNN and
//! PTkNN pruning read a per-reader distance row filled once when the
//! query registers ([`reader_distances`]). This suite keeps the plain
//! references here — one full [`ShortestPaths`] tree per source, an eager
//! heap over every anchor — and demands bit-identical answers over the
//! randomized office plans of [`plan_variants`]:
//!
//! 1. scan order and distances against a full sort of every anchor's
//!    full-tree distance, plus truncation: an early stop settles fewer
//!    nodes, and `distances_to` stops at the last needed anchor;
//! 2. kNN (Algorithm 4) against the eager all-anchor heap;
//! 3. PTkNN against the same Monte-Carlo sampler fed full-tree distances;
//! 4. kNN pruning against `sᵢ`/`lᵢ` bounds built from `distance_to`;
//! 5. whole [`IndoorQuerySystem`] transcripts: with every query family
//!    registered, the range and kNN answers still reproduce the committed
//!    golden fixture, and with pruning on the transcript is byte-identical
//!    at worker counts 1/2/4.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ripq::core::{
    evaluate_knn, evaluate_ptknn, evaluate_range, reader_distances, uncertain_region_radius,
    EvaluationReport, IndoorQuerySystem, KnnQuery, PruningTable, PtknnQuery, QueryId,
    RecoveryOutcome, ResultSet, SystemConfig, TimingMode,
};
use ripq::floorplan::{office_building, FloorPlan, FloorPlanBuilder, OfficeParams};
use ripq::geom::{Point2, Rect};
use ripq::graph::{
    build_walking_graph, AnchorId, AnchorObjectIndex, AnchorScan, AnchorSet, EdgeId, GraphPos,
    ScanCounts, ShortestPaths, WalkingGraph,
};
use ripq::rfid::{deploy_uniform, DataCollector, ObjectId, Reader, ReaderId};
use std::cmp::Ordering;
use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

const SEED: u64 = 0x60_1D;
/// Walking-speed bound of the pruning tests (the facade default).
const MAX_SPEED: f64 = 1.5;

fn fixture_path(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// The floor-plan family the randomized tests sweep: the paper's office
/// generator at several shapes, so junction degrees, hallway counts and
/// edge lengths all vary.
fn plan_variants() -> Vec<FloorPlan> {
    [
        OfficeParams::default(),
        OfficeParams {
            horizontal_hallways: 2,
            ..OfficeParams::default()
        },
        OfficeParams {
            left_cols: 2,
            right_cols: 5,
            hallway_length: 70.0,
            ..OfficeParams::default()
        },
        OfficeParams {
            horizontal_hallways: 5,
            room_depth: 6.0,
            ..OfficeParams::default()
        },
    ]
    .iter()
    .map(|p| office_building(p).expect("office variant is valid"))
    .collect()
}

/// A uniformly random on-graph position.
fn random_pos(rng: &mut StdRng, graph: &WalkingGraph) -> GraphPos {
    let e = EdgeId::new(rng.random_range(0..graph.edges().len()) as u32);
    let offset = rng.random_range(0.0..=graph.edge(e).length());
    GraphPos::new(e, offset)
}

/// A uniformly random point in the plan's bounding box; queries snap it
/// onto the walking graph.
fn random_point(rng: &mut StdRng, plan: &FloorPlan) -> Point2 {
    let b = plan.bounds();
    Point2::new(
        rng.random_range(b.min().x..=b.max().x),
        rng.random_range(b.min().y..=b.max().y),
    )
}

/// Random location distributions: each object spreads its mass over one
/// to four distinct random anchors.
fn random_index(
    rng: &mut StdRng,
    anchors: &AnchorSet,
    objects: u32,
) -> AnchorObjectIndex<ObjectId> {
    let n = anchors.anchors().len();
    let mut index = AnchorObjectIndex::new();
    for o in 0..objects {
        let support: BTreeSet<AnchorId> = (0..rng.random_range(1..5usize))
            .map(|_| AnchorId::new(rng.random_range(0..n) as u32))
            .collect();
        let weights: Vec<f64> = support
            .iter()
            .map(|_| rng.random_range(0.1..=1.0))
            .collect();
        let total: f64 = weights.iter().sum();
        let dist = support
            .into_iter()
            .zip(weights)
            .map(|(a, w)| (a, w / total))
            .collect();
        index.set_object(ObjectId::new(o), dist);
    }
    index
}

/// Every anchor with its full-tree distance, in `(distance, anchor id)`
/// order — what an eager heap over all anchors pops.
fn full_sort(graph: &WalkingGraph, anchors: &AnchorSet, from: GraphPos) -> Vec<(AnchorId, f64)> {
    let sp = ShortestPaths::from_pos(graph, from);
    let mut all: Vec<(AnchorId, f64)> = anchors
        .anchors()
        .iter()
        .map(|a| (a.id, sp.distance_to(graph, a.pos)))
        .collect();
    all.sort_by(|(ia, da), (ib, db)| {
        da.partial_cmp(db)
            .unwrap_or(Ordering::Equal)
            .then_with(|| ia.cmp(ib))
    });
    all
}

/// A result set as exact `(object, probability bits)` pairs.
fn bits(rs: &ResultSet) -> Vec<(ObjectId, u64)> {
    rs.iter().map(|(o, p)| (o, p.to_bits())).collect()
}

// ---------------------------------------------------------------------
// 1. The anchor scan against a full sort
// ---------------------------------------------------------------------

#[test]
fn scan_distances_match_full_tree_to_the_bit_on_randomized_floorplans() {
    let mut rng = StdRng::seed_from_u64(0xA17);
    for (pi, plan) in plan_variants().iter().enumerate() {
        let graph = build_walking_graph(plan);
        let anchors = AnchorSet::generate(&graph, plan, 1.0);
        for qi in 0..10 {
            let from = random_pos(&mut rng, &graph);
            let expect = full_sort(&graph, &anchors, from);
            // A first walk stops part way; the full walk after it
            // replays what the first one read, then resumes the search.
            let mut scan = AnchorScan::new(&graph, &anchors, from);
            let stop = (qi * 37) % expect.len();
            let first: Vec<(AnchorId, f64)> = scan.walk(&graph, &anchors).take(stop).collect();
            assert_eq!(first.len(), stop, "plan {pi}, query {qi}: the first walk");
            let got: Vec<(AnchorId, f64)> = scan.walk(&graph, &anchors).collect();
            assert_eq!(
                got.len(),
                expect.len(),
                "plan {pi}, query {qi}: every anchor once"
            );
            for (idx, ((ga, gd), (ea, ed))) in got.iter().zip(&expect).enumerate() {
                assert_eq!(ga, ea, "plan {pi}, query {qi}: order diverged at {idx}");
                assert_eq!(
                    gd.to_bits(),
                    ed.to_bits(),
                    "plan {pi}, query {qi}: distance bits at {idx}"
                );
            }
        }
    }
}

#[test]
fn truncated_scan_settles_fewer_nodes_than_a_full_tree() {
    let plan = office_building(&OfficeParams::default()).expect("valid office");
    let graph = build_walking_graph(&plan);
    let anchors = AnchorSet::generate(&graph, &plan, 1.0);
    let from = graph.project(plan.rooms()[15].center());
    let mut scan = AnchorScan::new(&graph, &anchors, from);
    let mut walk = scan.walk(&graph, &anchors);
    for _ in 0..10 {
        walk.next().expect("anchors available");
    }
    let counts = walk.counts();
    assert_eq!(
        counts,
        scan.counts(),
        "a fresh scan spent what the walk reports"
    );
    assert!(
        (counts.settled as usize) < graph.nodes().len() / 2,
        "10 nearest anchors settled {} of {} nodes",
        counts.settled,
        graph.nodes().len()
    );
    assert!(counts.anchor_candidates >= 10);
}

#[test]
fn distances_to_needed_anchors_match_the_full_tree() {
    let mut rng = StdRng::seed_from_u64(0xD15);
    for (pi, plan) in plan_variants().iter().enumerate() {
        let graph = build_walking_graph(plan);
        let anchors = AnchorSet::generate(&graph, plan, 1.0);
        let n = anchors.anchors().len();
        for qi in 0..10 {
            let from = random_pos(&mut rng, &graph);
            let needed: BTreeSet<AnchorId> = (0..rng.random_range(1..8usize))
                .map(|_| AnchorId::new(rng.random_range(0..n) as u32))
                .collect();
            let sp = ShortestPaths::from_pos(&graph, from);
            let got = AnchorScan::new(&graph, &anchors, from)
                .walk(&graph, &anchors)
                .distances_to(&needed);
            let keys: BTreeSet<AnchorId> = got.keys().copied().collect();
            assert_eq!(keys, needed, "plan {pi}, query {qi}");
            for (&a, &d) in &got {
                let want = sp.distance_to(&graph, anchors.anchor(a).pos);
                assert_eq!(d.to_bits(), want.to_bits(), "plan {pi}, query {qi}, {a:?}");
            }
        }
    }
    // Asking for nothing searches nothing.
    let plan = office_building(&OfficeParams::default()).expect("valid office");
    let graph = build_walking_graph(&plan);
    let anchors = AnchorSet::generate(&graph, &plan, 1.0);
    let from = graph.project(plan.rooms()[0].center());
    let mut scan = AnchorScan::new(&graph, &anchors, from);
    assert!(scan
        .walk(&graph, &anchors)
        .distances_to(&BTreeSet::new())
        .is_empty());
    assert_eq!(scan.counts().settled, 0);
}

// ---------------------------------------------------------------------
// 2. kNN against the eager all-anchor heap
// ---------------------------------------------------------------------

/// Reference Algorithm 4: visit anchors in full-sort order, stop at
/// Σp ≥ k.
fn eager_knn(
    graph: &WalkingGraph,
    anchors: &AnchorSet,
    index: &AnchorObjectIndex<ObjectId>,
    point: Point2,
    k: usize,
) -> ResultSet {
    let mut rs = ResultSet::new();
    for (anchor, _) in full_sort(graph, anchors, graph.project(point)) {
        for &(o, p) in index.at_anchor(anchor) {
            rs.add(o, p);
        }
        if rs.total_probability() >= k as f64 {
            break;
        }
    }
    // The stop reads the raw sums; the answer reports each in [0, 1].
    rs.clamp_probabilities();
    rs
}

#[test]
fn knn_matches_the_eager_all_anchor_reference() {
    let mut rng = StdRng::seed_from_u64(0x4E4E);
    for (pi, plan) in plan_variants().iter().enumerate() {
        let graph = build_walking_graph(plan);
        let anchors = AnchorSet::generate(&graph, plan, 1.0);
        for round in 0..4 {
            let index = random_index(&mut rng, &anchors, 12);
            for k in [1usize, 3, 5] {
                let point = random_point(&mut rng, plan);
                let q = KnnQuery::new(QueryId::new(0), point, k).expect("k >= 1");
                assert_eq!(
                    bits(&evaluate_knn(&graph, &anchors, &index, &q)),
                    bits(&eager_knn(&graph, &anchors, &index, point, k)),
                    "plan {pi}, round {round}, k={k}"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// 3. PTkNN against sampling over full-tree distances
// ---------------------------------------------------------------------

/// Reference PTkNN: the possible-worlds sampler of `evaluate_ptknn`, fed
/// anchor distances from a full Dijkstra tree of the query point.
fn full_tree_ptknn(
    rng: &mut StdRng,
    graph: &WalkingGraph,
    anchors: &AnchorSet,
    index: &AnchorObjectIndex<ObjectId>,
    query: &PtknnQuery,
    rounds: usize,
) -> ResultSet {
    let sp = ShortestPaths::from_pos(graph, graph.project(query.point));
    let mut ids: Vec<ObjectId> = index.objects().copied().collect();
    ids.sort_unstable();
    let mut objects = Vec::new();
    for o in ids {
        let Some(dist) = index.distribution(&o) else {
            continue;
        };
        if dist.is_empty() {
            continue;
        }
        let d: Vec<f64> = dist
            .iter()
            .map(|&(a, _)| sp.distance_to(graph, anchors.anchor(a).pos))
            .collect();
        objects.push((o, dist, d));
    }
    let mut out = ResultSet::new();
    if objects.is_empty() || rounds == 0 {
        return out;
    }
    let mut membership = vec![0u32; objects.len()];
    for _ in 0..rounds {
        let mut sampled: Vec<(f64, usize)> = Vec::with_capacity(objects.len());
        for (i, (_, dist, d)) in objects.iter().enumerate() {
            let mut x: f64 = rng.random::<f64>();
            let mut chosen = d.len() - 1;
            for (j, &(_, p)) in dist.iter().enumerate() {
                if x <= p {
                    chosen = j;
                    break;
                }
                x -= p;
            }
            sampled.push((d[chosen], i));
        }
        sampled.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(Ordering::Equal));
        for &(_, i) in sampled.iter().take(query.k) {
            membership[i] += 1;
        }
    }
    for (i, &m) in membership.iter().enumerate() {
        let p = m as f64 / rounds as f64;
        if p >= query.threshold {
            out.add(objects[i].0, p);
        }
    }
    out
}

#[test]
fn ptknn_matches_sampling_over_full_tree_distances() {
    let mut rng = StdRng::seed_from_u64(0x97);
    for (pi, plan) in plan_variants().iter().enumerate() {
        let graph = build_walking_graph(plan);
        let anchors = AnchorSet::generate(&graph, plan, 1.0);
        for k in 1..=3usize {
            let index = random_index(&mut rng, &anchors, 10);
            let q = PtknnQuery::new(random_point(&mut rng, plan), k, 0.05).expect("valid query");
            // Identical RNG streams: the draws agree iff every anchor
            // distance agrees to the bit.
            let seed: u64 = rng.random();
            let got = evaluate_ptknn(
                &mut StdRng::seed_from_u64(seed),
                &graph,
                &anchors,
                &index,
                &q,
                300,
            );
            let want = full_tree_ptknn(
                &mut StdRng::seed_from_u64(seed),
                &graph,
                &anchors,
                &index,
                &q,
                300,
            );
            assert!(
                !want.is_empty(),
                "plan {pi}, k={k}: the sampler admitted someone"
            );
            assert_eq!(bits(&got), bits(&want), "plan {pi}, k={k}");
        }
    }
}

// ---------------------------------------------------------------------
// 4. kNN pruning against full-tree bounds
// ---------------------------------------------------------------------

/// Reference §4.3 kNN pruning: `sᵢ`/`lᵢ` bounds from a full tree's
/// `distance_to` each object's last reader; keep every object with
/// `sᵢ ≤ f`, the k-th smallest `lᵢ`.
fn full_tree_prune(
    graph: &WalkingGraph,
    collector: &DataCollector,
    readers: &[Reader],
    point: Point2,
    k: usize,
    now: u64,
) -> Vec<ObjectId> {
    let sp = ShortestPaths::from_pos(graph, graph.project(point));
    let mut bounds = Vec::new();
    for o in collector.objects() {
        let Some((rid, t_last)) = collector.last_detection(o) else {
            continue;
        };
        let reader = &readers[rid.index()];
        let r = uncertain_region_radius(reader, t_last, now, MAX_SPEED);
        let d = sp.distance_to(graph, reader.graph_pos());
        bounds.push((o, (d - r).max(0.0), d + r));
    }
    let mut keep: Vec<ObjectId> = if bounds.len() <= k {
        bounds.iter().map(|b| b.0).collect()
    } else {
        let mut ls: Vec<f64> = bounds.iter().map(|b| b.2).collect();
        ls.sort_by(f64::total_cmp);
        let f = ls[k - 1];
        bounds.iter().filter(|b| b.1 <= f).map(|b| b.0).collect()
    };
    keep.sort_unstable();
    keep
}

#[test]
fn knn_pruning_matches_full_tree_bounds() {
    let mut rng = StdRng::seed_from_u64(0x9E);
    let mut pruned_somewhere = false;
    for (pi, plan) in plan_variants().iter().enumerate() {
        let graph = build_walking_graph(plan);
        let readers = deploy_uniform(plan, &graph, 19, 2.0);
        let mut collector = DataCollector::new();
        let detections: Vec<(ObjectId, ReaderId)> = (0..16)
            .map(|o| {
                let reader = &readers[rng.random_range(0..readers.len())];
                (ObjectId::new(o), reader.id())
            })
            .collect();
        collector.ingest_second(10, &detections);
        for s in 11..=30 {
            collector.ingest_second(s, &[]);
        }
        for round in 0..6 {
            let point = random_point(&mut rng, plan);
            let row = reader_distances(&graph, &readers, point);
            for (k, now) in [(1usize, 10u64), (3, 14), (5, 30)] {
                let q = KnnQuery::new(QueryId::new(0), point, k).expect("k >= 1");
                let mut table = PruningTable::new(&collector, &readers, now, MAX_SPEED);
                table.admit_knn(q.k, &row);
                let got = table.admitted();
                let want = full_tree_prune(&graph, &collector, &readers, point, k, now);
                pruned_somewhere |= got.len() < detections.len();
                assert_eq!(got, want, "plan {pi}, round {round}, k={k}, now={now}");
            }
        }
    }
    assert!(pruned_somewhere, "the sweep exercises actual pruning");
}

// ---------------------------------------------------------------------
// 5. Whole-system transcripts (fixture harness mirrors tests/golden.rs)
// ---------------------------------------------------------------------

/// Parses the `hallway` / `room` / `door` line format of
/// `tests/fixtures/mini_plan.txt`.
fn load_plan() -> FloorPlan {
    let text = std::fs::read_to_string(fixture_path("mini_plan.txt")).expect("plan fixture");
    let mut b = FloorPlanBuilder::new();
    let mut halls = Vec::new();
    let mut rooms = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let f: Vec<&str> = line.split_whitespace().collect();
        let num = |i: usize| f[i].parse::<f64>().expect("numeric field");
        match f[0] {
            "hallway" => {
                halls.push(b.add_hallway(Rect::new(num(1), num(2), num(3), num(4)), f[5]));
            }
            "room" => {
                rooms.push(b.add_room(Rect::new(num(1), num(2), num(3), num(4)), f[5]));
            }
            "door" => {
                let room = rooms[f[3].parse::<usize>().expect("room index")];
                let hall = halls[f[4].parse::<usize>().expect("hallway index")];
                b.add_door(Point2::new(num(1), num(2)), room, hall);
            }
            other => panic!("unknown plan directive {other:?}"),
        }
    }
    b.build().expect("fixture plan is valid")
}

struct FixtureRun {
    report: EvaluationReport,
    range_q: QueryId,
    knn_q: QueryId,
    ptknn_q: QueryId,
    pairs_q: QueryId,
    now: u64,
}

/// Feeds `mini_trace.txt` into a system under `config` and evaluates one
/// query of every family.
fn run_fixture(config: SystemConfig) -> FixtureRun {
    let mut sys = IndoorQuerySystem::new(load_plan(), config, SEED);
    let readers: Vec<_> = sys.readers().iter().map(|r| r.id()).collect();

    let text = std::fs::read_to_string(fixture_path("mini_trace.txt")).expect("trace fixture");
    let mut by_second: std::collections::BTreeMap<u64, Vec<(ObjectId, _)>> =
        std::collections::BTreeMap::new();
    let mut last = 0u64;
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let f: Vec<&str> = line.split_whitespace().collect();
        let second: u64 = f[0].parse().expect("second");
        let object: u32 = f[1].parse().expect("object");
        let reader: usize = f[2].parse().expect("reader index");
        by_second
            .entry(second)
            .or_default()
            .push((ObjectId::new(object), readers[reader]));
        last = last.max(second);
    }
    let now = last + 3;
    for s in 0..=now {
        let det = by_second.remove(&s).unwrap_or_default();
        sys.ingest_detections(s, &det);
    }

    let range_q = sys
        .register_range(Rect::new(2.0, 6.0, 12.0, 5.0))
        .expect("range query");
    let knn_q = sys
        .register_knn(Point2::new(12.0, 9.0), 2)
        .expect("kNN query");
    let ptknn_q = sys
        .register_ptknn(Point2::new(12.0, 9.0), 2, 0.2)
        .expect("PTkNN query");
    let pairs_q = sys
        .register_closest_pairs(2, 4.0)
        .expect("closest-pairs query");
    FixtureRun {
        report: sys.evaluate(now),
        range_q,
        knn_q,
        ptknn_q,
        pairs_q,
        now,
    }
}

/// Renders a result set as stable `kind object bits decimal` lines
/// (same format as tests/golden.rs).
fn render(out: &mut String, kind: &str, rs: &ResultSet) {
    for r in rs.sorted() {
        writeln!(
            out,
            "{kind} {} {:016x} {:.17e}",
            r.object.raw(),
            r.probability.to_bits(),
            r.probability
        )
        .expect("string write");
    }
}

/// `tests/golden.rs` registers only a range and a kNN query. Here PTkNN
/// and closest pairs share the pass and its anchor scans; the range and
/// kNN answers must still match the committed golden file byte for byte.
#[test]
fn every_query_family_together_reproduces_the_committed_golden_fixture() {
    let run = run_fixture(SystemConfig {
        reader_count: 6,
        prune_candidates: false,
        ..SystemConfig::default()
    });
    let now = run.now;
    let mut actual = String::new();
    writeln!(
        actual,
        "# Golden Algorithm 3/4 outputs at t={now}, seed {SEED:#x}.\n\
         # Regenerate: RIPQ_REGEN_GOLDEN=1 cargo test --test golden\n\
         # format: <kind> <object> <f64-bits-hex> <decimal>"
    )
    .expect("string write");
    writeln!(
        actual,
        "candidates_processed {}",
        run.report.candidates_processed
    )
    .unwrap();
    render(
        &mut actual,
        "range",
        &run.report.range_results[&run.range_q],
    );
    render(&mut actual, "knn", &run.report.knn_results[&run.knn_q]);

    let expected = std::fs::read_to_string(fixture_path("expected_queries.txt"))
        .expect("golden fixture exists");
    assert_eq!(
        expected, actual,
        "the full query mix drifted from the committed golden transcript"
    );
}

/// The full comparable transcript of one fixture evaluation with pruning
/// on: every query family's answers plus the metrics snapshot.
fn transcript(parallelism: Option<usize>) -> String {
    let run = run_fixture(SystemConfig {
        reader_count: 6,
        // Pruning on: the per-reader rows feed the kNN and PTkNN bounds.
        prune_candidates: true,
        observability: true,
        timing: TimingMode::Logical,
        parallelism,
        ..SystemConfig::default()
    });
    let mut out = String::new();
    let report = &run.report;
    writeln!(out, "candidates_processed {}", report.candidates_processed).unwrap();
    writeln!(out, "objects_known {}", report.objects_known).unwrap();
    render(&mut out, "range", &report.range_results[&run.range_q]);
    render(&mut out, "knn", &report.knn_results[&run.knn_q]);
    render(&mut out, "ptknn", &report.ptknn_results[&run.ptknn_q]);
    for p in &report.closest_pairs_results[&run.pairs_q] {
        writeln!(
            out,
            "pair {} {} {:016x} {:016x}",
            p.a.raw(),
            p.b.raw(),
            p.expected_distance.to_bits(),
            p.within_radius.to_bits()
        )
        .unwrap();
    }
    for (o, level) in &report.object_degradation {
        writeln!(out, "degraded {} {level:?}", o.raw()).unwrap();
    }
    let metrics = report.metrics.clone().expect("observability on");
    out.push_str(&metrics.to_json());
    out
}

#[test]
fn evaluation_transcripts_are_identical_across_workers() {
    let golden = transcript(None);
    assert!(golden.contains("range "), "fixture produced range answers");
    assert!(golden.contains("knn "), "fixture produced kNN answers");
    assert!(
        golden.contains("\"distance.scan_settled\""),
        "the pass records its scan effort"
    );
    for workers in [Some(1), Some(2), Some(4)] {
        assert_eq!(
            golden,
            transcript(workers),
            "transcript diverged at parallelism {workers:?}"
        );
    }
}

// ---------------------------------------------------------------------
// 6. Registered queries across many passes against from-scratch answers
// ---------------------------------------------------------------------

/// Effort a fresh scan from `point` spends until Algorithm 4 stops
/// (Σp ≥ k over `index`), and how many anchors it read.
fn fresh_knn_scan(
    graph: &WalkingGraph,
    anchors: &AnchorSet,
    index: &AnchorObjectIndex<ObjectId>,
    point: Point2,
    k: usize,
) -> (ScanCounts, usize) {
    let mut scan = AnchorScan::new(graph, anchors, graph.project(point));
    let mut rs = ResultSet::new();
    let mut depth = 0;
    for (anchor, _) in scan.walk(graph, anchors) {
        depth += 1;
        for &(o, p) in index.at_anchor(anchor) {
            rs.add(o, p);
        }
        if rs.total_probability() >= k as f64 {
            break;
        }
    }
    (scan.counts(), depth)
}

/// Effort a fresh scan from `point` spends reaching every anchor some
/// distribution of `index` touches.
fn fresh_ptknn_scan(
    graph: &WalkingGraph,
    anchors: &AnchorSet,
    index: &AnchorObjectIndex<ObjectId>,
    point: Point2,
) -> ScanCounts {
    let needed: BTreeSet<AnchorId> = index
        .objects()
        .filter_map(|o| index.distribution(o))
        .flatten()
        .map(|&(a, _)| a)
        .collect();
    let mut scan = AnchorScan::new(graph, anchors, graph.project(point));
    scan.walk(graph, anchors).distances_to(&needed);
    scan.counts()
}

/// A counter of a pass's cumulative metrics (0 before it is recorded).
fn counter(report: &EvaluationReport, name: &str) -> u64 {
    let metrics = report.metrics.as_ref().expect("observability on");
    metrics.counters.get(name).copied().unwrap_or(0)
}

/// One system with pruning on answers standing kNN, PTkNN and range
/// queries over 46 passes while a group of objects walks from readers at
/// a middle distance of the query points to the nearest readers, to the
/// farthest, back and out again. Every pass, each answer must equal its
/// from-scratch reference on the pass's index, and the pass's scan
/// counters must equal what fresh scans report at each query's stop:
/// standing queries may keep what they learned, but never answer or
/// count differently for it. The run also holds a PTkNN pass over an
/// empty index, a crash and recovery into a fresh system, and a query
/// deregistered and registered again at the same point.
#[test]
fn registered_queries_match_from_scratch_references_across_passes() {
    const OBJECTS: u32 = 15;
    const PASSES: u64 = 46;
    let plan = office_building(&OfficeParams::default()).expect("valid office");
    let config = SystemConfig {
        prune_candidates: true,
        observability: true,
        timing: TimingMode::Logical,
        ptknn_rounds: 120,
        ..SystemConfig::default()
    };
    let dir = std::env::temp_dir().join("ripq_distance_registered_queries");
    let _ = std::fs::remove_dir_all(&dir);
    let mut sys = IndoorQuerySystem::new(plan.clone(), config, SEED);
    sys.set_checkpoint_dir(&dir);
    // The master RNG draws one pass seed per pass, then the PTkNN
    // samples in query order; a twin stream feeds the reference sampler.
    let mut twin = StdRng::seed_from_u64(SEED);
    let graph = build_walking_graph(&plan);
    let anchors = AnchorSet::generate(&graph, &plan, config.anchor_spacing);
    let readers: Vec<Reader> = sys.readers().to_vec();

    // The query points sit within a few meters of reader 0; readers are
    // ranked by network distance from there.
    let center = readers[0].position();
    let row = reader_distances(&graph, &readers, center);
    let mut ranked: Vec<usize> = (0..readers.len()).collect();
    ranked.sort_by(|&a, &b| row[a].total_cmp(&row[b]).then(a.cmp(&b)));
    let near: Vec<ReaderId> = ranked[..3].iter().map(|&i| readers[i].id()).collect();
    let mid: Vec<ReaderId> = ranked[7..10].iter().map(|&i| readers[i].id()).collect();
    let far: Vec<ReaderId> = ranked[16..].iter().map(|&i| readers[i].id()).collect();
    let group = |pass: u64| match pass {
        0..10 => &mid,
        10..20 => &near,
        20..30 => &far,
        30..36 => &mid,
        _ => &far,
    };

    // Range windows cut hallways and rooms: half a room plus the
    // hallway band at its door, a strip across part of a hallway's
    // width, and a block over several rooms.
    let room = &plan.rooms()[4];
    let hall = plan.hallway(plan.door(room.doors()[0]).hallway());
    let rf = room.footprint();
    let hf = hall.footprint();
    let windows = [
        rf.union(hf)
            .intersection(&Rect::new(
                rf.min().x,
                hf.min().y.min(rf.min().y),
                rf.width() / 2.0,
                1e3,
            ))
            .expect("the room meets its hallway"),
        Rect::new(
            hf.min().x + 3.0,
            hf.min().y,
            hf.width() / 3.0,
            hf.height() / 3.0,
        ),
        Rect::new(center.x - 12.0, center.y - 9.0, 20.0, 14.0),
    ];
    let ptknn_specs = [
        (center + Point2::new(1.5, 0.5), 2usize, 0.1),
        (center + Point2::new(-4.0, 3.0), 3, 0.25),
    ];
    let knn_specs = [
        (center, 1usize),
        (center + Point2::new(2.0, 1.0), 3),
        (center + Point2::new(-3.0, -2.0), 8),
        (center + Point2::new(5.0, 4.0), 1),
        (center + Point2::new(-6.0, 5.0), 3),
        (center + Point2::new(7.0, -3.0), 8),
    ];

    // Queries are registered in one order on every system life.
    type Ids = (Vec<QueryId>, Vec<QueryId>, Vec<QueryId>);
    let register = |sys: &mut IndoorQuerySystem, with_knn: bool| -> Ids {
        let range = windows
            .iter()
            .map(|w| sys.register_range(*w).expect("range"))
            .collect();
        let ptknn = ptknn_specs
            .iter()
            .map(|&(p, k, t)| sys.register_ptknn(p, k, t).expect("PTkNN"))
            .collect();
        let knn = if with_knn {
            knn_specs
                .iter()
                .map(|&(p, k)| sys.register_knn(p, k).expect("kNN"))
                .collect()
        } else {
            Vec::new()
        };
        (range, ptknn, knn)
    };

    // Checks one pass against the references; returns each kNN query's
    // stop depth.
    let mut prev = (0u64, 0u64);
    let mut check = |report: &EvaluationReport, ids: &Ids, pass: &str| -> Vec<usize> {
        let _pass_seed: u64 = twin.random();
        let index = &report.index;
        let mut want = ScanCounts::default();
        for (id, window) in ids.0.iter().zip(&windows) {
            assert_eq!(
                bits(&report.range_results[id]),
                bits(&evaluate_range(&plan, &anchors, index, window)),
                "{pass}: range {id:?}"
            );
        }
        for (id, &(point, k, threshold)) in ids.1.iter().zip(&ptknn_specs) {
            let q = PtknnQuery::new(point, k, threshold).expect("valid query");
            let reference =
                full_tree_ptknn(&mut twin, &graph, &anchors, index, &q, config.ptknn_rounds);
            assert_eq!(
                bits(&report.ptknn_results[id]),
                bits(&reference),
                "{pass}: PTkNN {id:?}"
            );
            want += fresh_ptknn_scan(&graph, &anchors, index, point);
        }
        let mut depths = Vec::new();
        for (id, &(point, k)) in ids.2.iter().zip(&knn_specs) {
            assert_eq!(
                bits(&report.knn_results[id]),
                bits(&eager_knn(&graph, &anchors, index, point, k)),
                "{pass}: kNN {id:?}"
            );
            let (counts, depth) = fresh_knn_scan(&graph, &anchors, index, point, k);
            want += counts;
            depths.push(depth);
        }
        let settled = counter(report, "distance.scan_settled");
        let candidates = counter(report, "distance.scan_anchor_candidates");
        assert_eq!(
            (settled - prev.0, candidates - prev.1),
            (want.settled, want.anchor_candidates),
            "{pass}: scan effort (settled, anchor candidates)"
        );
        prev = (settled, candidates);
        depths
    };

    // A PTkNN pass before any reading: the index is empty, and the
    // scans still count their same-edge anchor candidates.
    let (range, ptknn, _) = register(&mut sys, false);
    let report = sys.evaluate(0);
    assert_eq!(report.index.object_count(), 0);
    check(
        &report,
        &(range.clone(), ptknn.clone(), Vec::new()),
        "empty",
    );
    assert!(
        counter(&report, "distance.scan_anchor_candidates") > 0,
        "an empty-index PTkNN pass counts candidates"
    );
    let knn: Vec<QueryId> = knn_specs
        .iter()
        .map(|&(p, k)| sys.register_knn(p, k).expect("kNN"))
        .collect();
    let mut ids: Ids = (range, ptknn, knn);

    let mut depths: Vec<Vec<usize>> = vec![Vec::new(); knn_specs.len()];
    let mut second = 0u64;
    for pass in 0..PASSES {
        let now = 2 + 2 * pass;
        let readers_now = group(pass);
        while second <= now {
            let seen: Vec<(ObjectId, ReaderId)> = (0..OBJECTS)
                .map(|o| {
                    (
                        ObjectId::new(o),
                        readers_now[o as usize % readers_now.len()],
                    )
                })
                .collect();
            sys.ingest_detections(second, &seen);
            second += 1;
        }
        let report = sys.evaluate(now);
        for (d, got) in depths
            .iter_mut()
            .zip(check(&report, &ids, &format!("pass {pass}")))
        {
            d.push(got);
        }
        if pass == 33 {
            // Crash after a checkpoint; a fresh system registers the
            // same queries and resumes.
            sys.checkpoint_now().expect("checkpoint");
            let mut fresh = IndoorQuerySystem::new(plan.clone(), config, SEED);
            let again = register(&mut fresh, true);
            assert_eq!(again, ids, "same registration order, same ids");
            let outcome = fresh.recover(&dir).expect("recover");
            assert_eq!(
                outcome,
                RecoveryOutcome::Resumed {
                    replay_from: second
                }
            );
            sys = fresh;
        }
        if pass == 38 {
            // The k = 8 query leaves and comes back at the same point.
            sys.deregister(ids.2[2]).expect("registered");
            let (p, k) = knn_specs[2];
            ids.2[2] = sys.register_knn(p, k).expect("kNN");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);

    // Each query's stop moved both ways: some pass stopped short of an
    // earlier one, and a later pass went past every earlier stop.
    for (qi, d) in depths.iter().enumerate() {
        let shrank = (1..d.len()).find(|&i| d[i] < d[..i].iter().copied().max().unwrap_or(0));
        let Some(at) = shrank else {
            panic!("kNN {qi}: the stop never shrank: {d:?}");
        };
        assert!(
            (at + 1..d.len()).any(|i| d[i] > d[..i].iter().copied().max().unwrap_or(0)),
            "kNN {qi}: the stop never grew past its maximum after shrinking: {d:?}"
        );
    }
}

//! `paper-batch`: the library path at the paper's Table 2 defaults.
//!
//! Office plan, 200 objects, 64 particles, 19 readers, 2 m activation
//! range; 10 standing range windows of 2 % of the floor area and 5 kNN
//! points (k = 3). Every second: one `ingest_detections` call, then one
//! `evaluate` call.

use crate::inputs::{self, Shape, Simulation, Workload, World};
use crate::layers::{self, Layers, Window};
use crate::stats::{derive_seed, peak_rss_mb, timed, Digest, Samples};
use crate::{
    end_to_end, is_probability, score, spans_json, Accuracy, Checks, Episode, Options, Report,
    Timings, PROB_EPS,
};
use ripq_core::clock::TimingMode;
use ripq_core::continuous::{SubscriptionKind, SubscriptionRegistry};
use ripq_core::{DegradationLevel, EvaluationReport, IndoorQuerySystem, QueryId, SystemConfig};
use ripq_geom::{Point2, Rect};
use ripq_rfid::ObjectId;
use ripq_server::FrameDecoder;
use ripq_sim::GroundTruth;
use std::time::Instant;

const RANGE_QUERIES: usize = 10;
const KNN_QUERIES: usize = 5;
const K: usize = 3;
const WINDOW_FRACTION: f64 = 0.02;
/// Set-ups timed before the first episode, so `setup_s` is always a
/// median over several.
pub(crate) const EXTRA_SETUPS: usize = 8;
/// A traced run checkpoints every this many evaluations when the workload
/// has no checkpoints of its own.
pub(crate) const TRACE_CHECKPOINT_EVERY: u64 = 60;

struct Inputs {
    world: World,
    sim: Simulation,
    windows: Vec<Rect>,
    points: Vec<Point2>,
    shape: Shape,
    system_seed: u64,
}

fn generate(opts: &Options) -> (Inputs, String) {
    let shape = Workload::PaperBatch.shape(opts.smoke);
    let world = World::office(&SystemConfig::default());
    let sim = inputs::simulate(&world, opts.seed, shape.objects, shape.duration());
    let windows = inputs::range_windows(&world.plan, RANGE_QUERIES, WINDOW_FRACTION);
    let points = inputs::knn_points(&world.plan, KNN_QUERIES);
    let system_seed = derive_seed(opts.seed, 4);
    let mut d = Digest::default();
    for w in &windows {
        for v in [w.min().x, w.min().y, w.width(), w.height()] {
            d.f64(v);
        }
    }
    for p in &points {
        d.f64(p.x);
        d.f64(p.y);
    }
    inputs::digest_detections(&mut d, &sim.detections);
    d.u64(system_seed);
    let inputs = Inputs {
        world,
        sim,
        windows,
        points,
        shape,
        system_seed,
    };
    (inputs, d.hex())
}

fn config(traced: bool) -> SystemConfig {
    SystemConfig {
        observability: traced,
        timing: TimingMode::Wall,
        ..SystemConfig::default()
    }
}

/// A built system with its standing queries, as subscriptions `1..`.
struct Live {
    sys: IndoorQuerySystem,
    subs: Vec<(u64, SubscriptionKind, QueryId)>,
}

/// Set-up: build the system, register the standing queries, ingest the
/// warm-up interval and run the first (cold-cache) evaluation.
fn setup(inp: &Inputs, config: SystemConfig) -> (Live, EvaluationReport) {
    let mut sys = IndoorQuerySystem::new(inp.world.plan.clone(), config, inp.system_seed);
    let mut kinds: Vec<SubscriptionKind> = inp
        .windows
        .iter()
        .map(|w| SubscriptionKind::Range(*w))
        .collect();
    kinds.extend(inp.points.iter().map(|p| SubscriptionKind::Knn(*p, K)));
    let subs = kinds
        .into_iter()
        .zip(1..)
        .map(|(kind, sub)| {
            let query = match kind {
                SubscriptionKind::Range(w) => sys.register_range(w),
                SubscriptionKind::Knn(p, k) => sys.register_knn(p, k),
            }
            .expect("generated queries are valid");
            (sub, kind, query)
        })
        .collect();
    for s in 0..inp.shape.warmup {
        sys.ingest_detections(s, &inp.sim.detections[s as usize]);
    }
    let report = sys.evaluate(inp.shape.warmup - 1);
    (Live { sys, subs }, report)
}

/// Output checks of one evaluation: probabilities in [0, 1], index mass
/// per object at most 1, kNN answers of at least min(k, candidates)
/// objects, and every answer at full fidelity.
fn check_report(report: &EvaluationReport, second: u64, checks: &mut Checks) {
    for (q, rs) in report.range_results.iter().chain(&report.knn_results) {
        for (o, p) in rs.iter() {
            checks.expect(is_probability(p), || {
                format!(
                    "second {second}: query {} gives object {} p={p}",
                    q.raw(),
                    o.raw()
                )
            });
        }
    }
    for o in report.index.objects() {
        let dist = report.index.distribution(o).unwrap_or_default();
        let mass = report.index.total_probability(o);
        checks.expect(
            mass.is_finite()
                && mass <= 1.0 + PROB_EPS
                && dist.iter().all(|&(_, p)| is_probability(p)),
            || format!("second {second}: object {} has index mass {mass}", o.raw()),
        );
    }
    let indexed = report.index.object_count();
    for (q, rs) in &report.knn_results {
        checks.expect(rs.len() >= K.min(indexed), || {
            format!(
                "second {second}: kNN query {} answers {} objects of {indexed}",
                q.raw(),
                rs.len()
            )
        });
    }
    if let Some((q, level)) = report
        .degradation
        .iter()
        .find(|(_, level)| **level > DegradationLevel::Full)
    {
        checks.fail(format!(
            "second {second}: query {} answered at {level}",
            q.raw()
        ));
    }
}

fn answer<'r>(report: &'r EvaluationReport, q: &QueryId) -> Option<&'r ripq_core::ResultSet> {
    report
        .range_results
        .get(q)
        .or_else(|| report.knn_results.get(q))
}

pub fn run(opts: &Options) -> Report {
    let (inp, digest) = generate(opts);
    let mut report = Report::default();
    report
        .detail
        .push(("input_digest".into(), format!("\"{digest}\"")));
    if opts.trace {
        traced_run(&inp, opts, &mut report);
    } else {
        timed_run(&inp, opts, &mut report);
    }
    report
}

/// The timed loop: the planned number of episodes, each a set-up plus
/// `shape.episode` seconds. Accuracy is scored over the first.
fn timed_run(inp: &Inputs, opts: &Options, report: &mut Report) {
    let mut checks = Checks::default();
    let mut t = Timings::new(opts.seconds);
    let mut acc = Accuracy::default();
    let truth = GroundTruth::new(&inp.world.graph, &inp.sim.traces);
    let universe: Vec<ObjectId> = inp.sim.traces.iter().map(|tr| tr.object).collect();
    for _ in 0..EXTRA_SETUPS {
        match timed(|| setup(inp, config(false))) {
            Some((_, ms)) => t.setup.push(ms),
            None => checks.fail("set-up panicked".into()),
        }
    }
    let start = Instant::now();
    let mut episode = 0;
    'episodes: while checks.failed == 0 {
        checks.attempted += 1;
        let Some(((mut live, first), ms)) = timed(|| setup(inp, config(false))) else {
            checks.fail("set-up panicked".into());
            break;
        };
        t.setup.push(ms);
        let mut ep = Episode::default();
        check_report(&first, inp.shape.warmup - 1, &mut checks);
        for s in inp.shape.warmup..=inp.shape.duration() {
            let det = &inp.sim.detections[s as usize];
            checks.attempted += 2;
            let Some((_, ms)) = timed(|| live.sys.ingest_detections(s, det)) else {
                checks.fail(format!("second {s}: ingest panicked"));
                break 'episodes;
            };
            ep.ingest.push(ms);
            let Some((rep, ms)) = timed(|| live.sys.evaluate(s)) else {
                checks.fail(format!("second {s}: evaluate panicked"));
                break 'episodes;
            };
            ep.tick.push(ms);
            ep.sim_seconds += 1;
            check_report(&rep, s, &mut checks);
            if episode == 0 {
                for (_, kind, q) in &live.subs {
                    match answer(&rep, q) {
                        Some(rs) => score(&truth, &universe, kind, rs, s, &mut acc),
                        None => checks.wrong(format!("second {s}: query {} unanswered", q.raw())),
                    }
                }
            }
        }
        t.episodes.push(ep);
        episode += 1;
        if !t.wants_another_episode(start) {
            break;
        }
    }
    t.peak_rss_mb = peak_rss_mb();
    end_to_end(&t, &acc, &mut checks, report);
    report.checks = checks;
}

/// The traced run: one untraced episode for reference, then one episode
/// with the recorder on under wall-clock timing and spans around every
/// call, plus the daemon layers' public calls on the same inputs.
fn traced_run(inp: &Inputs, opts: &Options, report: &mut Report) {
    let mut checks = Checks::default();
    let mut l = Layers::default();
    let mut reference = Samples::default();
    let Some(((mut live, _), _)) = timed(|| setup(inp, config(false))) else {
        checks.fail("set-up panicked".into());
        report.checks = checks;
        return;
    };
    for s in inp.shape.warmup..=inp.shape.duration() {
        live.sys
            .ingest_detections(s, &inp.sim.detections[s as usize]);
        match timed(|| live.sys.evaluate(s)) {
            Some((_, ms)) => reference.push(ms),
            None => checks.fail(format!("second {s}: untraced evaluate panicked")),
        }
    }
    l.untraced_tick_ms = reference.median();

    let Some(((mut live, first), _)) = timed(|| setup(inp, config(true))) else {
        checks.fail("set-up panicked".into());
        report.checks = checks;
        return;
    };
    l.nodes = live.sys.graph().nodes().len() as u64;
    l.anchors = live.sys.anchors().anchors().len() as u64;
    live.sys.set_checkpoint_dir(&opts.scratch);
    let before = first.metrics.clone().unwrap_or_default();
    let mut after = before.clone();
    let mut registry = SubscriptionRegistry::new();
    for (sub, kind, q) in &live.subs {
        registry
            .insert(*sub, *kind, *q)
            .expect("subscription ids are distinct");
    }
    // The set-up evaluation seeds every subscription's current answer.
    let _ = registry.deltas(&first);
    let is_range = |sub: u64| sub as usize <= RANGE_QUERIES;
    let mut decoder = FrameDecoder::new();
    let mut traced = Samples::default();
    for s in inp.shape.warmup..=inp.shape.duration() {
        let det = &inp.sim.detections[s as usize];
        for payload in [inputs::reading_frame(s, det), inputs::tick_frame(s)] {
            let parsed = l.decode(&mut decoder, payload.as_bytes());
            checks.expect(parsed.is_some(), || {
                format!("second {s}: frame did not decode")
            });
        }
        checks.attempted += 2;
        let Some((_, ms)) = timed(|| live.sys.ingest_detections(s, det)) else {
            checks.fail(format!("second {s}: ingest panicked"));
            break;
        };
        l.ingest.push(ms);
        let Some((rep, ms)) = timed(|| live.sys.evaluate(s)) else {
            checks.fail(format!("second {s}: evaluate panicked"));
            break;
        };
        traced.push(ms);
        check_report(&rep, s, &mut checks);
        l.evaluation(&rep);
        if let Some(deltas) = l.subscription_deltas(&mut registry, &rep, s) {
            l.deltas_emitted += deltas.len() as u64;
            // Geofence semantics, as the daemon fires them: every range
            // entry and exit is one event.
            for (_, d) in deltas.iter().filter(|(sub, _)| is_range(*sub)) {
                l.events_fired += (d.appeared.len() + d.disappeared.len()) as u64;
            }
        }
        if l.ticks.is_multiple_of(TRACE_CHECKPOINT_EVERY) {
            checks.attempted += 1;
            match timed(|| live.sys.checkpoint_now()) {
                Some((Ok(()), ms)) => {
                    l.checkpoint.push(ms);
                    l.checkpoint_bytes = layers::dir_bytes(&opts.scratch);
                }
                _ => checks.fail(format!("second {s}: checkpoint failed")),
            }
        }
        if let Some(m) = rep.metrics {
            after = m;
        }
    }
    l.traced_tick_ms = traced.median();
    let window = Window::new(&before, &after);
    report.metrics = layers::metrics(&l, &window, &window);
    report.detail.push((
        "spans".into(),
        spans_json(&[
            ("ingest_detections", &l.ingest),
            ("evaluate", &traced),
            ("evaluate.untraced", &reference),
            ("frame_decode_parse", &l.parse),
            ("registry.deltas", &l.deltas),
            ("render", &l.render),
            ("checkpoint_now", &l.checkpoint),
        ]),
    ));
    report.checks = checks;
}

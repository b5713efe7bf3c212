//! Deterministic chaos harness for the reading pipeline.
//!
//! A small scenario DSL builds [`FaultPlan`]s — drops, duplicates,
//! bounded delivery jitter, reader burst outages — and drives them
//! through both entry points of the pipeline:
//!
//! * the **facade** ([`IndoorQuerySystem`]) fed by a scripted detection
//!   stream through a [`FaultInjector`], checking structural invariants
//!   of the probabilistic index and bit-identity across runs and worker
//!   counts;
//! * the **experiment harness** ([`Experiment`]), pinning a monotone
//!   degradation ladder as a golden artifact
//!   (`tests/fixtures/expected_degradation.txt`, regenerate with
//!   `RIPQ_REGEN_GOLDEN=1 cargo test --test chaos`).
//!
//! Faults a consumer can absorb exactly — duplicates (idempotent
//! ingest) and delays within the reorder window (watermark evaluation)
//! — must leave query answers *byte-identical* to the committed
//! fault-free golden fixture `tests/fixtures/expected_queries.txt`.

use ripq::core::{EvaluationReport, IndoorQuerySystem, QueryId, SystemConfig, TimingMode};
use ripq::floorplan::{office_building, FloorPlan, FloorPlanBuilder, OfficeParams};
use ripq::geom::{Point2, Rect};
use ripq::rfid::{ObjectId, ReaderId};
use ripq::sim::{Experiment, ExperimentParams, FaultInjector, FaultPlan};
use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

fn fixture_path(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

// ---------------------------------------------------------------------
// Scenario DSL
// ---------------------------------------------------------------------

/// One named cell of the chaos grid: a fault plan under construction.
#[derive(Debug, Clone)]
struct Scenario {
    name: String,
    plan: FaultPlan,
}

impl Scenario {
    fn new(name: impl Into<String>) -> Self {
        Scenario {
            name: name.into(),
            plan: FaultPlan::none(),
        }
    }

    fn drop_readings(mut self, p: f64) -> Self {
        self.plan.drop_probability = p;
        self
    }

    fn duplicate(mut self, p: f64) -> Self {
        self.plan.duplicate_probability = p;
        self
    }

    fn delay_up_to(mut self, seconds: u64) -> Self {
        self.plan.max_delay_seconds = seconds;
        self
    }

    fn outages(mut self, rate: f64, mean_seconds: f64) -> Self {
        self.plan.outage_rate = rate;
        self.plan.outage_mean_seconds = mean_seconds;
        self
    }
}

/// The full factorial grid: drop rate × jitter window × outage rate,
/// with a fixed duplicate rate so idempotent ingest is exercised in
/// every cell. 3 × 2 × 2 = 12 cells.
fn fault_grid() -> Vec<Scenario> {
    let mut grid = Vec::new();
    for &drop in &[0.0, 0.1, 0.35] {
        for &delay in &[0u64, 3] {
            for &outage in &[0.0, 0.003] {
                grid.push(
                    Scenario::new(format!("drop{drop}_delay{delay}_outage{outage}"))
                        .drop_readings(drop)
                        .duplicate(0.1)
                        .delay_up_to(delay)
                        .outages(outage, 8.0),
                );
            }
        }
    }
    grid
}

// ---------------------------------------------------------------------
// Facade driver: scripted stream → injector → IndoorQuerySystem
// ---------------------------------------------------------------------

const STREAM_SECONDS: u64 = 60;
const STREAM_OBJECTS: u32 = 6;

/// The clean scripted stream: each object walks across the reader
/// deployment (handoff every 6 s) with a periodic silent second, so
/// episodes, handoffs and gaps all occur without any faults.
fn clean_detections(second: u64, readers: &[ReaderId]) -> Vec<(ObjectId, ReaderId)> {
    let mut out = Vec::new();
    for i in 0..STREAM_OBJECTS {
        if (second + u64::from(i)).is_multiple_of(11) {
            continue;
        }
        let r = (u64::from(i) * 3 + second / 6) % readers.len() as u64;
        out.push((ObjectId::new(i), readers[r as usize]));
    }
    out
}

struct ScenarioRun {
    report: EvaluationReport,
    range_q: QueryId,
    knn_q: QueryId,
}

/// Runs one scenario end to end through the facade: derive the outage
/// schedule, stream faulted deliveries, drain the jitter tail, flush to
/// the final watermark, evaluate. Fully logical timing, observability
/// on, pruning off so every object is preprocessed and indexed.
fn run_scenario(plan: FaultPlan, workers: Option<usize>) -> ScenarioRun {
    let floor = office_building(&OfficeParams::default()).expect("valid office");
    let config = SystemConfig {
        reader_count: 8,
        prune_candidates: false,
        parallelism: workers,
        reorder_window: plan.max_delay_seconds,
        timing: TimingMode::Logical,
        observability: true,
        ..SystemConfig::default()
    };
    let mut sys = IndoorQuerySystem::new(floor, config, 0xC4A05);
    let readers: Vec<ReaderId> = sys.readers().iter().map(|r| r.id()).collect();

    let mut injector = FaultInjector::new(plan, readers.len(), STREAM_SECONDS);
    for o in injector.outages().to_vec() {
        sys.note_reader_outage(o.reader, o.from, o.until);
    }
    let horizon = STREAM_SECONDS + plan.max_delay_seconds;
    for s in 0..=horizon {
        let clean = if s <= STREAM_SECONDS {
            clean_detections(s, &readers)
        } else {
            Vec::new()
        };
        let delivered = injector.step(s, &clean);
        sys.ingest_delivery(s, &delivered);
    }
    sys.flush_readings_through(STREAM_SECONDS);
    assert_eq!(injector.in_flight(), 0, "jitter buffer fully drained");

    let bounds = sys.plan().bounds();
    let range_q = sys
        .register_range(Rect::new(
            bounds.min().x,
            bounds.min().y,
            bounds.width() * 0.5,
            bounds.height() * 0.5,
        ))
        .expect("range query");
    let knn_point = sys.readers()[0].position();
    let knn_q = sys.register_knn(knn_point, 2).expect("kNN query");
    let report = sys.evaluate(STREAM_SECONDS);
    ScenarioRun {
        report,
        range_q,
        knn_q,
    }
}

/// Structural invariants that must hold under *any* fault plan.
fn assert_invariants(run: &ScenarioRun, label: &str) {
    let index = &run.report.index;
    let mut anchors_seen = BTreeSet::new();
    for o in index.objects() {
        // Probability-mass bound: a distribution never sums above 1
        // (it may sum below 1 while an object coasts).
        let mass = index.total_probability(o);
        assert!(
            (0.0..=1.0 + 1e-9).contains(&mass),
            "{label}: object {o} carries probability mass {mass}"
        );
        let dist = index.distribution(o).expect("listed object has entries");
        for &(a, p) in dist {
            assert!(
                p >= 0.0 && p.is_finite(),
                "{label}: negative/NaN probability {p} at {a}"
            );
            // Forward view → reverse view (APtoObjHT consistency).
            assert!(
                index
                    .at_anchor(a)
                    .iter()
                    .any(|&(entry, q)| entry == *o && q == p),
                "{label}: {o}@{a} missing from the anchor-side view"
            );
            anchors_seen.insert(a);
        }
    }
    // Reverse view → forward view: no phantom anchor entries.
    for &a in &anchors_seen {
        for &(o, p) in index.at_anchor(a) {
            let dist = index.distribution(&o).expect("anchor entry has object");
            assert!(
                dist.iter().any(|&(da, dp)| da == a && dp == p),
                "{label}: anchor-side entry {o}@{a} missing from its distribution"
            );
        }
    }
    for rs in run
        .report
        .range_results
        .values()
        .chain(run.report.knn_results.values())
    {
        for r in rs.sorted() {
            assert!(
                (0.0..=1.0 + 1e-9).contains(&r.probability),
                "{label}: query probability {} out of range",
                r.probability
            );
        }
    }
}

/// Renders everything comparable about a run — query answers (exact
/// bits), index masses, and the full metrics snapshot (deterministic
/// under logical timing) — for byte-identity assertions.
fn render_run(run: &ScenarioRun) -> String {
    let mut out = String::new();
    for (kind, rs) in [
        ("range", &run.report.range_results[&run.range_q]),
        ("knn", &run.report.knn_results[&run.knn_q]),
    ] {
        for r in rs.sorted() {
            writeln!(
                out,
                "{kind} {} {:016x}",
                r.object.raw(),
                r.probability.to_bits()
            )
            .expect("string write");
        }
    }
    for o in run.report.index.objects() {
        writeln!(
            out,
            "mass {} {:016x}",
            o.raw(),
            run.report.index.total_probability(o).to_bits()
        )
        .expect("string write");
    }
    let snapshot = run.report.metrics.as_ref().expect("observability on");
    out.push_str(&snapshot.to_json());
    out
}

// ---------------------------------------------------------------------
// The chaos grid
// ---------------------------------------------------------------------

#[test]
fn fault_grid_preserves_invariants_and_is_deterministic() {
    let grid = fault_grid();
    assert!(grid.len() >= 12, "grid must cover at least 12 cells");
    for sc in &grid {
        let a = run_scenario(sc.plan, None);
        assert_invariants(&a, &sc.name);
        let b = run_scenario(sc.plan, None);
        assert_eq!(
            render_run(&a),
            render_run(&b),
            "cell {} is not reproducible",
            sc.name
        );
    }
}

#[test]
fn faulted_pipeline_is_worker_count_invariant() {
    for sc in [
        Scenario::new("mild").drop_readings(0.1).duplicate(0.1),
        Scenario::new("jittery")
            .drop_readings(0.1)
            .duplicate(0.2)
            .delay_up_to(4),
        Scenario::new("severe")
            .drop_readings(0.35)
            .duplicate(0.15)
            .delay_up_to(3)
            .outages(0.004, 8.0),
    ] {
        let r1 = render_run(&run_scenario(sc.plan, Some(1)));
        let r2 = render_run(&run_scenario(sc.plan, Some(2)));
        let r4 = render_run(&run_scenario(sc.plan, Some(4)));
        assert_eq!(r1, r2, "{}: workers 1 vs 2 diverge", sc.name);
        assert_eq!(r1, r4, "{}: workers 1 vs 4 diverge", sc.name);
    }
}

// ---------------------------------------------------------------------
// Incremental APtoObjHT under faults: multi-pass chaos cell
// ---------------------------------------------------------------------

/// Streams one faulted scenario through the facade and evaluates at
/// *several* watermarks, so the live APtoObjHT is incrementally
/// re-derived (apply / retract deltas) pass over pass while faults
/// perturb which objects have fresh readings. Returns one rendered
/// transcript per pass — query bits, index masses, final stripped
/// metrics — plus the last report for invariant checks.
fn run_scenario_passes(plan: FaultPlan, workers: Option<usize>) -> (Vec<String>, ScenarioRun) {
    let floor = office_building(&OfficeParams::default()).expect("valid office");
    let config = SystemConfig {
        reader_count: 8,
        prune_candidates: false,
        parallelism: workers,
        reorder_window: plan.max_delay_seconds,
        timing: TimingMode::Logical,
        observability: true,
        ..SystemConfig::default()
    };
    let mut sys = IndoorQuerySystem::new(floor, config, 0xC4A05);
    let readers: Vec<ReaderId> = sys.readers().iter().map(|r| r.id()).collect();

    let mut injector = FaultInjector::new(plan, readers.len(), STREAM_SECONDS);
    for o in injector.outages().to_vec() {
        sys.note_reader_outage(o.reader, o.from, o.until);
    }
    let bounds = sys.plan().bounds();
    let range_q = sys
        .register_range(Rect::new(
            bounds.min().x,
            bounds.min().y,
            bounds.width() * 0.5,
            bounds.height() * 0.5,
        ))
        .expect("range query");
    let knn_point = sys.readers()[0].position();
    let knn_q = sys.register_knn(knn_point, 2).expect("kNN query");

    let jitter = plan.max_delay_seconds;
    let horizon = STREAM_SECONDS + jitter;
    let mut renders = Vec::new();
    let mut last = None;
    for s in 0..=horizon {
        let clean = if s <= STREAM_SECONDS {
            clean_detections(s, &readers)
        } else {
            Vec::new()
        };
        let delivered = injector.step(s, &clean);
        sys.ingest_delivery(s, &delivered);
        let watermark = s.saturating_sub(jitter);
        if watermark > 0 && watermark.is_multiple_of(20) && s >= jitter {
            sys.flush_readings_through(watermark);
            let run = ScenarioRun {
                report: sys.evaluate(watermark),
                range_q,
                knn_q,
            };
            renders.push(render_run(&run));
            last = Some(run);
        }
    }
    (
        renders,
        last.expect("60-second stream evaluates at least once"),
    )
}

#[test]
fn incremental_index_survives_the_chaos_grid_across_passes() {
    let severe = Scenario::new("severe-multipass")
        .drop_readings(0.35)
        .duplicate(0.15)
        .delay_up_to(3)
        .outages(0.004, 8.0);

    let (base, last) = run_scenario_passes(severe.plan, None);
    assert!(base.len() >= 3, "stream yields at least three passes");
    assert_invariants(&last, &severe.name);

    // The delta path actually ran: every pass re-derives the index
    // incrementally, and the counters surface in the snapshot.
    let snap = last.report.metrics.as_ref().expect("observability on");
    assert!(
        snap.counters["index.delta_applied"] > 0,
        "incremental index applied no deltas"
    );
    for key in ["index.delta_retracted", "index.delta_unchanged"] {
        assert!(snap.counters.contains_key(key), "missing counter {key}");
    }

    // Reproducible and worker-count invariant — pass by pass, byte for
    // byte.
    let (repeat, _) = run_scenario_passes(severe.plan, None);
    assert_eq!(base, repeat, "multi-pass cell is not reproducible");
    let (workers, workers_last) = run_scenario_passes(severe.plan, Some(4));
    assert_eq!(base, workers, "worker count leaked into a pass transcript");
    assert_invariants(&workers_last, "severe-multipass-w4");
}

// ---------------------------------------------------------------------
// Absorbable faults: byte-identical to the fault-free golden fixture
// ---------------------------------------------------------------------

/// Parses `tests/fixtures/mini_plan.txt` (same format as the golden
/// test).
fn load_mini_plan() -> FloorPlan {
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

/// Replays the golden fixture's trace through the delivery path under
/// `plan`, then renders the exact golden file format. The seed, config
/// and queries mirror `tests/golden.rs` line for line.
fn golden_fixture_under_faults(plan: FaultPlan) -> String {
    const SEED: u64 = 0x60_1D;
    let config = SystemConfig {
        reader_count: 6,
        prune_candidates: false,
        reorder_window: plan.max_delay_seconds,
        ..SystemConfig::default()
    };
    let mut sys = IndoorQuerySystem::new(load_mini_plan(), config, SEED);
    let readers: Vec<ReaderId> = sys.readers().iter().map(|r| r.id()).collect();

    let text = std::fs::read_to_string(fixture_path("mini_trace.txt")).expect("trace fixture");
    let mut by_second: std::collections::BTreeMap<u64, Vec<(ObjectId, ReaderId)>> =
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

    let mut injector = FaultInjector::new(plan, readers.len(), now);
    for s in 0..=now + plan.max_delay_seconds {
        let clean = if s <= now {
            by_second.remove(&s).unwrap_or_default()
        } else {
            Vec::new()
        };
        let delivered = injector.step(s, &clean);
        sys.ingest_delivery(s, &delivered);
    }
    sys.flush_readings_through(now);

    let range_q = sys
        .register_range(Rect::new(2.0, 6.0, 12.0, 5.0))
        .expect("range query");
    let knn_q = sys
        .register_knn(Point2::new(12.0, 9.0), 2)
        .expect("kNN query");
    let report = sys.evaluate(now);

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
        report.candidates_processed
    )
    .unwrap();
    for (kind, rs) in [
        ("range", &report.range_results[&range_q]),
        ("knn", &report.knn_results[&knn_q]),
    ] {
        for r in rs.sorted() {
            writeln!(
                actual,
                "{kind} {} {:016x} {:.17e}",
                r.object.raw(),
                r.probability.to_bits(),
                r.probability
            )
            .expect("string write");
        }
    }
    actual
}

#[test]
fn absorbable_faults_match_fault_free_golden_byte_for_byte() {
    let expected =
        std::fs::read_to_string(fixture_path("expected_queries.txt")).expect("golden fixture");

    // Duplicates only: idempotent ingest drops every copy.
    let dup_only = Scenario::new("dup-only").duplicate(0.6).plan;
    assert!(dup_only.is_active());
    assert_eq!(
        golden_fixture_under_faults(dup_only),
        expected,
        "duplicate-only plan must be absorbed exactly"
    );

    // In-window reorder only: the reorder buffer restores logical order
    // before any affected second is evaluated.
    let jitter_only = Scenario::new("jitter-only").delay_up_to(4).plan;
    assert!(jitter_only.is_active());
    assert_eq!(
        golden_fixture_under_faults(jitter_only),
        expected,
        "in-window delay plan must be absorbed exactly"
    );

    // Both at once are still absorbable.
    let both = Scenario::new("dup+jitter")
        .duplicate(0.4)
        .delay_up_to(3)
        .plan;
    assert_eq!(
        golden_fixture_under_faults(both),
        expected,
        "duplicates plus bounded jitter must be absorbed exactly"
    );
}

// ---------------------------------------------------------------------
// Degradation ladder golden artifact
// ---------------------------------------------------------------------

fn ladder_params(faults: FaultPlan) -> ExperimentParams {
    ExperimentParams {
        num_objects: 12,
        duration: 90,
        warmup: 30,
        eval_timestamps: 4,
        range_queries_per_timestamp: 10,
        knn_query_points: 6,
        faults,
        ..Default::default()
    }
}

fn degradation_ladder() -> Vec<Scenario> {
    vec![
        Scenario::new("baseline"),
        Scenario::new("mild")
            .drop_readings(0.05)
            .duplicate(0.05)
            .delay_up_to(1),
        Scenario::new("moderate")
            .drop_readings(0.2)
            .duplicate(0.1)
            .delay_up_to(3)
            .outages(0.001, 10.0),
        Scenario::new("severe")
            .drop_readings(0.45)
            .duplicate(0.15)
            .delay_up_to(5)
            .outages(0.004, 12.0),
    ]
}

fn render_ladder() -> String {
    let mut out = String::from(
        "# Accuracy degradation ladder under increasing fault severity.\n\
         # Regenerate: RIPQ_REGEN_GOLDEN=1 cargo test --test chaos\n\
         # format: <scenario> <metric> <f64-bits-hex> <decimal>\n",
    );
    for sc in degradation_ladder() {
        let r = Experiment::new(ladder_params(sc.plan)).run();
        for (metric, v) in [
            ("range_kl_pf", r.range_kl_pf),
            ("range_kl_sm", r.range_kl_sm),
            ("knn_hit_pf", r.knn_hit_pf),
            ("knn_hit_sm", r.knn_hit_sm),
            ("top1_success", r.top1_success),
            ("mean_error_pf", r.mean_error_pf),
        ] {
            writeln!(out, "{} {metric} {:016x} {:.17e}", sc.name, v.to_bits(), v)
                .expect("string write");
        }
    }
    out
}

#[test]
fn degradation_ladder_matches_golden_and_is_monotone() {
    let actual = render_ladder();

    // The ladder itself must degrade: the fault-free endpoint beats the
    // severe endpoint on localization error (weak endpoint check; the
    // per-rung goldens pin the exact values).
    let reports: Vec<_> = degradation_ladder()
        .into_iter()
        .map(|sc| Experiment::new(ladder_params(sc.plan)).run())
        .collect();
    let baseline = &reports[0];
    let severe = reports.last().expect("ladder has rungs");
    assert!(
        severe.mean_error_pf > baseline.mean_error_pf,
        "severe faults must increase PF localization error \
         ({} vs {})",
        severe.mean_error_pf,
        baseline.mean_error_pf
    );

    let path = fixture_path("expected_degradation.txt");
    if std::env::var_os("RIPQ_REGEN_GOLDEN").is_some() {
        std::fs::write(&path, &actual).expect("write degradation fixture");
        eprintln!("regenerated {}", path.display());
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .expect("missing degradation fixture; run with RIPQ_REGEN_GOLDEN=1 to create it");
    assert_eq!(
        expected, actual,
        "degradation ladder drifted from the golden fixture; if intentional, \
         regenerate with RIPQ_REGEN_GOLDEN=1 cargo test --test chaos"
    );
}

// ---------------------------------------------------------------------
// Observability of degradations
// ---------------------------------------------------------------------

#[test]
fn fault_counters_surface_in_metrics_snapshot() {
    let params = ExperimentParams {
        observability: true,
        ..ladder_params(
            Scenario::new("observed")
                .drop_readings(0.2)
                .duplicate(0.1)
                .delay_up_to(3)
                .outages(0.002, 10.0)
                .plan,
        )
    };
    let (_, snapshot) = Experiment::new(params).run_with_metrics();
    let snap = snapshot.expect("observability on yields a snapshot");
    for key in [
        "faults.injected.dropped",
        "faults.injected.duplicated",
        "faults.injected.delayed",
        "faults.injected.outage_losses",
        "collector.reordered",
        "collector.deduped",
        "collector.late_dropped",
        "pf.outage_resets",
    ] {
        assert!(snap.counters.contains_key(key), "missing counter {key}");
    }
    assert!(snap.counters["faults.injected.dropped"] > 0);
    assert!(snap.counters["faults.injected.duplicated"] > 0);
    assert!(snap.counters["faults.injected.delayed"] > 0);
    assert!(snap.counters["collector.reordered"] > 0);
    assert!(snap.counters["collector.deduped"] > 0);
    // Nothing is ever delivered beyond the window the injector promises.
    assert_eq!(snap.counters["collector.late_dropped"], 0);
}

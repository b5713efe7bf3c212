//! The benchmark's own checks: logical counters repeat exactly on one
//! seed, and every run emits every metric `BENCHMARK.json` declares.

use ripq_perfbench::inputs::Workload;
use ripq_perfbench::layers::LOGICAL_COUNTERS;
use ripq_perfbench::{run, Options, Report};
use ripq_server::json::{self, Value};
use std::path::{Path, PathBuf};

fn scratch(tag: &str) -> PathBuf {
    Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("perfbench-{tag}"))
}

fn smoke(workload: Workload, seed: u64, trace: bool, tag: &str) -> Report {
    let opts = Options {
        workload,
        seed,
        seconds: 0.0,
        trace,
        smoke: true,
        scratch: scratch(tag),
    };
    std::fs::create_dir_all(&opts.scratch).expect("scratch directory");
    let report = run(&opts);
    let _ = std::fs::remove_dir_all(&opts.scratch);
    assert!(
        report.checks.correct(),
        "{workload:?}: {:?}",
        report.checks.problems
    );
    report
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read(&path).expect("BENCHMARK.json is readable");
    let doc = json::parse(&text).expect("BENCHMARK.json is JSON");
    doc.as_obj()
        .and_then(|o| o.get(section))
        .and_then(Value::as_arr)
        .expect("section present")
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.as_obj()
                    .and_then(|o| o.get(k))
                    .and_then(Value::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn assert_emits(report: &Report, section: &str, workload: Workload) {
    for (name, unit) in declared(section) {
        let metric = report.metrics.iter().find(|m| m.name == name);
        assert!(metric.is_some(), "{workload:?} does not emit {name}");
        assert_eq!(metric.map(|m| m.unit), Some(unit.as_str()), "{name}");
    }
    assert_eq!(report.metrics.len(), declared(section).len());
}

#[test]
fn traced_counters_repeat_exactly_on_one_seed() {
    for workload in Workload::ALL {
        let a = smoke(workload, 3, true, &format!("{}-a", workload.name()));
        let b = smoke(workload, 3, true, &format!("{}-b", workload.name()));
        for name in LOGICAL_COUNTERS {
            let (va, vb) = (a.metric(name), b.metric(name));
            assert!(va.is_some(), "{workload:?} lacks {name}");
            assert_eq!(va, vb, "{workload:?}: {name} differs between two runs");
        }
        assert!(
            a.metric("pf.sir_iterations").unwrap_or(0.0) > 0.0,
            "{workload:?} ran the particle filter"
        );
    }
}

#[test]
fn every_declared_metric_is_emitted() {
    for workload in Workload::ALL {
        let timed = smoke(workload, 4, false, &format!("{}-timed", workload.name()));
        assert_emits(&timed, "end_to_end", workload);
        for m in &timed.metrics {
            assert!(m.value.is_finite() && m.value > 0.0, "{workload:?}: {m:?}");
        }
        let traced = smoke(workload, 4, true, &format!("{}-traced", workload.name()));
        assert_emits(&traced, "per_layer", workload);
    }
}

#[test]
fn inputs_depend_on_the_seed_only() {
    let digest = |report: &Report| {
        report
            .detail
            .iter()
            .find(|(k, _)| k == "input_digest")
            .map(|(_, v)| v.clone())
    };
    let a = smoke(Workload::QueryFanout, 5, false, "digest-a");
    let b = smoke(Workload::QueryFanout, 5, true, "digest-b");
    let c = smoke(Workload::QueryFanout, 6, false, "digest-c");
    assert!(digest(&a).is_some());
    assert_eq!(digest(&a), digest(&b));
    assert_ne!(digest(&a), digest(&c));
}

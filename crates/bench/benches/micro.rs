//! Criterion micro-benchmarks of the system's hot paths: resampling
//! (Algorithm 1), the graph motion model, shortest network distances,
//! Algorithm 2 preprocessing, and the two query evaluators (Algorithms 3
//! and 4).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use ripq_core::{evaluate_knn, evaluate_range, KnnQuery, QueryId};
use ripq_floorplan::{office_building, OfficeParams};
use ripq_geom::{Point2, Rect};
use ripq_graph::{build_walking_graph, AnchorObjectIndex, AnchorSet};
use ripq_obs::Recorder;
use ripq_pf::{
    resample_indices, Heading, IndoorState, MotionModel, ParticlePreprocessor, PreprocessorConfig,
    SupervisionOptions,
};
use ripq_rfid::{deploy_uniform, DataCollector, ObjectId};
use std::hint::black_box;

fn bench_resampling(c: &mut Criterion) {
    let mut group = c.benchmark_group("resample_indices");
    for n in [64usize, 512] {
        let mut rng = StdRng::seed_from_u64(1);
        let weights: Vec<f64> = (0..n).map(|_| rng.random::<f64>()).collect();
        group.bench_with_input(BenchmarkId::from_parameter(n), &weights, |b, w| {
            b.iter(|| resample_indices(&mut rng, black_box(w)))
        });
    }
    group.finish();
}

fn bench_motion_step(c: &mut Criterion) {
    let plan = office_building(&OfficeParams::default()).unwrap();
    let graph = build_walking_graph(&plan);
    let motion = MotionModel::default();
    let mut rng = StdRng::seed_from_u64(2);
    let e = &graph.edges()[0];
    c.bench_function("motion_step_1s", |b| {
        let mut s = IndoorState {
            pos: ripq_graph::GraphPos::new(e.id, e.length() / 2.0),
            heading: Heading::TowardB,
            speed: 1.0,
        };
        b.iter(|| {
            motion.step(&mut rng, &graph, &mut s, 1.0);
            black_box(s.pos)
        })
    });
}

fn bench_shortest_paths(c: &mut Criterion) {
    let plan = office_building(&OfficeParams::default()).unwrap();
    let graph = build_walking_graph(&plan);
    let from = graph.project(Point2::new(31.0, 30.0));
    c.bench_function("dijkstra_office", |b| {
        b.iter(|| black_box(graph.shortest_paths_from(black_box(from))))
    });
}

/// World + populated index shared by the query benches.
fn query_fixture() -> (
    ripq_floorplan::FloorPlan,
    ripq_graph::WalkingGraph,
    AnchorSet,
    AnchorObjectIndex<ObjectId>,
) {
    let plan = office_building(&OfficeParams::default()).unwrap();
    let graph = build_walking_graph(&plan);
    let anchors = AnchorSet::generate(&graph, &plan, 1.0);
    let mut rng = StdRng::seed_from_u64(3);
    let mut index = AnchorObjectIndex::new();
    let n_anchors = anchors.anchors().len();
    for i in 0..200u32 {
        // Each object spread over ~16 random anchors.
        let dist: Vec<_> = (0..16)
            .map(|_| {
                (
                    anchors.anchors()[rng.random_range(0..n_anchors)].id,
                    1.0 / 16.0,
                )
            })
            .collect();
        index.set_object(ObjectId::new(i), dist);
    }
    (plan, graph, anchors, index)
}

fn bench_range_query(c: &mut Criterion) {
    let (plan, _graph, anchors, index) = query_fixture();
    let window = Rect::centered(plan.bounds().center(), 12.0, 10.0);
    c.bench_function("range_query_200obj", |b| {
        b.iter(|| {
            black_box(evaluate_range(
                &plan,
                &anchors,
                black_box(&index),
                black_box(&window),
            ))
        })
    });
}

fn bench_knn_query(c: &mut Criterion) {
    let (plan, graph, anchors, index) = query_fixture();
    let q = KnnQuery::new(QueryId::new(0), plan.bounds().center(), 3).unwrap();
    c.bench_function("knn_query_200obj_k3", |b| {
        b.iter(|| {
            black_box(evaluate_knn(
                &graph,
                &anchors,
                black_box(&index),
                black_box(&q),
            ))
        })
    });
}

fn bench_preprocess(c: &mut Criterion) {
    let plan = office_building(&OfficeParams::default()).unwrap();
    let graph = build_walking_graph(&plan);
    let anchors = AnchorSet::generate(&graph, &plan, 1.0);
    let readers = deploy_uniform(&plan, &graph, 19, 2.0);
    let pre = ParticlePreprocessor::new(&graph, &anchors, &readers, PreprocessorConfig::default());
    // A 30-second reading history past two readers.
    let mut collector = DataCollector::new();
    let o = ObjectId::new(0);
    for s in 0..30u64 {
        if s < 4 {
            collector.ingest_second(s, &[(o, readers[0].id())]);
        } else if (12..16).contains(&s) {
            collector.ingest_second(s, &[(o, readers[1].id())]);
        } else {
            collector.ingest_second(s, &[]);
        }
    }
    let opts = SupervisionOptions::default();
    let mut pass_seed = 4u64;
    c.bench_function("preprocess_one_object_30s_64p", |b| {
        b.iter(|| {
            pass_seed += 1;
            let mut index = AnchorObjectIndex::new();
            pre.process(
                pass_seed,
                &collector,
                &[o],
                30,
                None,
                None,
                &opts,
                &mut index,
            );
            black_box(index)
        })
    });
}

/// One preprocessing pass over `objects` into a fresh index.
fn pass(
    pre: &ParticlePreprocessor<'_>,
    collector: &DataCollector,
    objects: &[ObjectId],
    parallelism: Option<usize>,
) -> AnchorObjectIndex<ObjectId> {
    let mut index = AnchorObjectIndex::new();
    let opts = SupervisionOptions::default();
    pre.process(
        0x5eed,
        collector,
        objects,
        30,
        None,
        parallelism,
        &opts,
        &mut index,
    );
    index
}

/// Sequential vs. parallel Algorithm 2 over a 200-object workload, with
/// the metrics recorder off and on.
///
/// Every parallelism setting produces bit-identical output (each object
/// filters on its own deterministic RNG stream), so the group measures
/// pure wall-clock scaling of the worker fan-out. The `obs-on` variants
/// quantify the observability tax (atomic adds on shared handles); the
/// explicit delta line below the group makes the overhead visible at a
/// glance.
fn bench_preprocess_parallel(c: &mut Criterion) {
    let plan = office_building(&OfficeParams::default()).unwrap();
    let graph = build_walking_graph(&plan);
    let anchors = AnchorSet::generate(&graph, &plan, 1.0);
    let readers = deploy_uniform(&plan, &graph, 19, 2.0);
    let pre = ParticlePreprocessor::new(&graph, &anchors, &readers, PreprocessorConfig::default());
    let recorder = Recorder::enabled();
    let pre_obs =
        ParticlePreprocessor::new(&graph, &anchors, &readers, PreprocessorConfig::default())
            .with_recorder(&recorder);
    // 200 objects, each with a 30-second history past a couple of readers.
    let mut collector = DataCollector::new();
    for s in 0..30u64 {
        let det: Vec<_> = (0..200u32)
            .map(|i| {
                (
                    ObjectId::new(i),
                    readers[((i + s as u32) % 19) as usize].id(),
                )
            })
            .collect();
        collector.ingest_second(s, &det);
    }
    let objects: Vec<ObjectId> = (0..200).map(ObjectId::new).collect();
    let mut group = c.benchmark_group("preprocess_200obj");
    for workers in [1usize, 2, 4] {
        let parallelism = if workers == 1 { None } else { Some(workers) };
        group.bench_with_input(
            BenchmarkId::new("obs-off", workers),
            &parallelism,
            |b, &par| b.iter(|| black_box(pass(&pre, &collector, black_box(&objects), par))),
        );
        group.bench_with_input(
            BenchmarkId::new("obs-on", workers),
            &parallelism,
            |b, &par| b.iter(|| black_box(pass(&pre_obs, &collector, black_box(&objects), par))),
        );
    }
    group.finish();

    // Paired measurement of the observability tax (sequential path, so the
    // delta is not hidden inside thread scheduling noise).
    let reps = 5u32;
    let t0 = std::time::Instant::now();
    for _ in 0..reps {
        black_box(pass(&pre, &collector, &objects, None));
    }
    let off = t0.elapsed() / reps;
    let t1 = std::time::Instant::now();
    for _ in 0..reps {
        black_box(pass(&pre_obs, &collector, &objects, None));
    }
    let on = t1.elapsed() / reps;
    let delta = (on.as_secs_f64() - off.as_secs_f64()) / off.as_secs_f64() * 100.0;
    println!(
        "preprocess_200obj observability overhead: off={off:.2?} on={on:.2?} delta={delta:+.2}%"
    );
}

fn bench_symbolic_index(c: &mut Criterion) {
    use ripq_symbolic::SymbolicModel;
    let plan = office_building(&OfficeParams::default()).unwrap();
    let graph = build_walking_graph(&plan);
    let anchors = AnchorSet::generate(&graph, &plan, 1.0);
    let readers = deploy_uniform(&plan, &graph, 19, 2.0);
    let model = SymbolicModel::new(&graph, &anchors, &readers, 1.5);
    let mut collector = DataCollector::new();
    for i in 0..200u32 {
        collector.ingest_second(0, &[(ObjectId::new(i), readers[(i % 19) as usize].id())]);
    }
    for s in 1..=10u64 {
        collector.ingest_second(s, &[]);
    }
    let objects: Vec<ObjectId> = (0..200).map(ObjectId::new).collect();
    c.bench_function("symbolic_index_200obj", |b| {
        b.iter(|| black_box(model.build_index(&collector, black_box(&objects), 10)))
    });
}

fn bench_ptknn(c: &mut Criterion) {
    use ripq_core::{evaluate_ptknn, PtknnQuery};
    let (plan, graph, anchors, index) = query_fixture();
    let q = PtknnQuery::new(plan.bounds().center(), 3, 0.3).unwrap();
    let mut rng = StdRng::seed_from_u64(9);
    c.bench_function("ptknn_200obj_k3_100rounds", |b| {
        b.iter(|| {
            black_box(evaluate_ptknn(
                &mut rng,
                &graph,
                &anchors,
                black_box(&index),
                &q,
                100,
            ))
        })
    });
}

fn bench_system_evaluate(c: &mut Criterion) {
    use ripq_core::{IndoorQuerySystem, SystemConfig};
    let plan = office_building(&OfficeParams::default()).unwrap();
    let mut system = IndoorQuerySystem::new(plan, SystemConfig::default(), 11);
    // 50 objects pinging various readers over 20 seconds.
    let reader_ids: Vec<_> = system.readers().iter().map(|r| r.id()).collect();
    for s in 0..20u64 {
        let det: Vec<_> = (0..50u32)
            .map(|i| (ObjectId::new(i), reader_ids[((i + s as u32) % 19) as usize]))
            .collect();
        system.ingest_detections(s, &det);
    }
    let center = system.plan().bounds().center();
    system
        .register_range(Rect::centered(center, 12.0, 10.0))
        .unwrap();
    system.register_knn(center, 3).unwrap();
    c.bench_function("system_evaluate_50obj_2q", |b| {
        let mut now = 20u64;
        b.iter(|| {
            system.ingest_detections(now, &[]);
            let report = system.evaluate(now);
            now += 1;
            black_box(report.candidates_processed)
        })
    });
}

/// Durable-checkpoint tax on the streaming ingest path: a cadence sweep
/// against a no-checkpoint baseline over the same 50-object workload.
///
/// Each measured iteration ingests one second of detections with
/// automatic checkpointing at the given cadence (`every = 0` is the
/// baseline: no snapshot is ever due, so the checkpoint branch costs one
/// predicted-false comparison). The explicit delta lines under the group
/// price each cadence against the baseline the same way the
/// observability-tax line does, so "what does `--checkpoint-every N`
/// cost per ingested second" is visible at a glance.
fn bench_checkpoint_overhead(c: &mut Criterion) {
    use ripq_core::{IndoorQuerySystem, SystemConfig};

    let dir = std::env::temp_dir().join("ripq-bench-checkpoint");
    std::fs::create_dir_all(&dir).expect("bench checkpoint dir");

    // Fresh system per cadence with a 20-second warm history, so every
    // snapshot carries a realistic cache and collector watermark.
    let build = |every: u64, dir: &std::path::Path| {
        let plan = office_building(&OfficeParams::default()).unwrap();
        let cfg = SystemConfig {
            checkpoint_every: every,
            ..SystemConfig::default()
        };
        let mut system = IndoorQuerySystem::new(plan, cfg, 11);
        if every > 0 {
            system.set_checkpoint_dir(dir);
        }
        let reader_ids: Vec<_> = system.readers().iter().map(|r| r.id()).collect();
        for s in 0..20u64 {
            let det: Vec<_> = (0..50u32)
                .map(|i| (ObjectId::new(i), reader_ids[((i + s as u32) % 19) as usize]))
                .collect();
            system.ingest_detections(s, &det);
        }
        (system, reader_ids)
    };

    const CADENCES: [u64; 4] = [0, 1, 8, 32];
    let mut group = c.benchmark_group("checkpoint_overhead");
    for every in CADENCES {
        let (mut system, reader_ids) = build(every, &dir);
        let mut now = 20u64;
        group.bench_with_input(BenchmarkId::from_parameter(every), &every, |b, _| {
            b.iter(|| {
                let det: Vec<_> = (0..50u32)
                    .map(|i| {
                        (
                            ObjectId::new(i),
                            reader_ids[((i + now as u32) % 19) as usize],
                        )
                    })
                    .collect();
                system.ingest_detections(now, &det);
                now += 1;
                black_box(now)
            })
        });
        assert!(
            system.last_checkpoint_error().is_none(),
            "bench snapshots must write cleanly: {:?}",
            system.last_checkpoint_error()
        );
    }
    group.finish();

    // Paired per-second ingest cost, each cadence vs the no-checkpoint
    // baseline, over an identical 200-second drive.
    let reps = 200u64;
    let mut costs: Vec<(u64, std::time::Duration)> = Vec::new();
    for every in CADENCES {
        let (mut system, reader_ids) = build(every, &dir);
        let t = std::time::Instant::now();
        for s in 20..20 + reps {
            let det: Vec<_> = (0..50u32)
                .map(|i| (ObjectId::new(i), reader_ids[((i + s as u32) % 19) as usize]))
                .collect();
            system.ingest_detections(s, &det);
        }
        costs.push((every, t.elapsed() / reps as u32));
    }
    let base = costs[0].1;
    for (every, per_second) in &costs[1..] {
        let delta = (per_second.as_secs_f64() - base.as_secs_f64()) / base.as_secs_f64() * 100.0;
        println!(
            "checkpoint_overhead: every={every} per-second={per_second:.2?} \
             baseline={base:.2?} delta={delta:+.2}%"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

criterion_group!(
    benches,
    bench_resampling,
    bench_motion_step,
    bench_shortest_paths,
    bench_range_query,
    bench_knn_query,
    bench_preprocess,
    bench_preprocess_parallel,
    bench_symbolic_index,
    bench_ptknn,
    bench_system_evaluate,
    bench_checkpoint_overhead
);
criterion_main!(benches);

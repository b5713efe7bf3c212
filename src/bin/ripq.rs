//! `ripq` — command-line front end to the RIPQ library.
//!
//! ```text
//! ripq plan office --svg office.svg     # inspect / render a floor plan
//! ripq simulate --objects 100 --duration 300
//! ripq trace --object 3 --svg trace.svg # offline trajectory reconstruction
//! ripq defaults                         # Table 2 of the paper
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use ripq::core::RipqError;
use ripq::floorplan::{
    multi_floor_office, office_building, shopping_mall, subway_station, FloorPlan, MallParams,
    MultiFloorParams, OfficeParams, SubwayParams,
};
use ripq::pf::{reconstruct_trajectory, TrajectoryConfig};
use ripq::rfid::HistoryCollector;
use ripq::sim::{
    Experiment, ExperimentParams, FaultPlan, ReadingGenerator, RecoveryOutcome, SimWorld, SvgScene,
    TraceGenerator,
};

fn main() {
    // Conventional CLI behavior: `ripq defaults | head -3` must exit
    // quietly when the reader closes the pipe, not panic.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let is_pipe = info
            .payload()
            .downcast_ref::<String>()
            .is_some_and(|s| s.contains("Broken pipe"));
        if is_pipe {
            std::process::exit(0);
        }
        default_hook(info);
    }));

    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map(String::as_str).unwrap_or("help");
    match cmd {
        "plan" => cmd_plan(&args[1..]),
        "simulate" => cmd_simulate(&args[1..]),
        "trace" => cmd_trace(&args[1..]),
        "defaults" => cmd_defaults(),
        _ => {
            eprintln!(
                "usage: ripq <plan|simulate|trace|defaults> [options]\n\
                 \n\
                 plan [office|mall|subway|tower] [--svg FILE]\n\
                 simulate [--objects N] [--duration S] [--seed N] [--parallelism N]\n\
                 \x20        [--metrics-json FILE] [--trace]\n\
                 \x20        [--checkpoint-dir DIR] [--checkpoint-every S] [--query-budget N]\n\
                 \x20        [--fault-drop P] [--fault-dup P] [--fault-delay S]\n\
                 \x20        [--fault-outage-rate P] [--fault-outage-mean S] [--fault-seed N]\n\
                 trace [--object N] [--duration S] [--seed N] [--svg FILE]\n\
                 defaults\n\
                 \n\
                 --parallelism default: every core for a large pass, else one"
            );
            std::process::exit(if cmd == "help" { 0 } else { 2 });
        }
    }
}

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// The value of flag `name` parsed as a `T`, or `None` when the flag is
/// absent. A value that does not parse is a usage error: the process
/// exits with code 2, naming the flag and the value.
fn parse_flag<T: std::str::FromStr>(args: &[String], name: &str) -> Option<T> {
    let value = flag(args, name)?;
    match value.parse() {
        Ok(v) => Some(v),
        Err(_) => {
            eprintln!("error: invalid value `{value}` for {name}");
            std::process::exit(2);
        }
    }
}

fn build_plan(kind: &str) -> FloorPlan {
    match kind {
        "mall" => shopping_mall(&MallParams::default()).expect("valid mall"),
        "subway" => subway_station(&SubwayParams::default()).expect("valid station"),
        "tower" => multi_floor_office(&MultiFloorParams::default()).expect("valid tower"),
        _ => office_building(&OfficeParams::default()).expect("valid office"),
    }
}

fn cmd_plan(args: &[String]) {
    let kind = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .map(String::as_str)
        .unwrap_or("office");
    let plan = build_plan(kind);
    println!("{kind} plan:");
    println!("  rooms:     {}", plan.rooms().len());
    println!("  hallways:  {}", plan.hallways().len());
    println!("  doors:     {}", plan.doors().len());
    println!("  bounds:    {}", plan.bounds());
    println!("  area:      {:.0} m^2 indoor", plan.indoor_area());
    println!(
        "  centerline:{:.0} m of hallway",
        plan.total_centerline_length()
    );
    let graph = ripq::graph::build_walking_graph(&plan);
    println!(
        "  graph:     {} nodes / {} edges, connected: {}",
        graph.nodes().len(),
        graph.edges().len(),
        graph.is_connected()
    );
    if let Some(path) = flag(args, "--svg") {
        let params = ExperimentParams::default();
        let world = SimWorld::build_with_plan(plan, &params);
        let mut scene = SvgScene::new(&world.plan, 10.0);
        scene.draw_graph(&world.graph).draw_readers(&world.readers);
        std::fs::write(&path, scene.finish()).expect("write SVG");
        println!("  wrote {path}");
    }
}

/// Builds the fault plan from `--fault-*` flags; all-zero (inactive) when
/// none are given, so plain `ripq simulate` keeps the classic pipeline.
fn fault_plan_from_args(args: &[String]) -> FaultPlan {
    let defaults = FaultPlan::none();
    FaultPlan {
        drop_probability: parse_flag(args, "--fault-drop").unwrap_or(0.0),
        duplicate_probability: parse_flag(args, "--fault-dup").unwrap_or(0.0),
        max_delay_seconds: parse_flag(args, "--fault-delay").unwrap_or(0),
        outage_rate: parse_flag(args, "--fault-outage-rate").unwrap_or(0.0),
        outage_mean_seconds: parse_flag(args, "--fault-outage-mean")
            .unwrap_or(defaults.outage_mean_seconds),
        seed: parse_flag(args, "--fault-seed").unwrap_or(defaults.seed),
    }
}

/// Persists a metrics snapshot, converting the OS error into the
/// workspace error currency instead of panicking on e.g. an unwritable
/// path.
fn write_metrics_json(path: &str, json: &str) -> Result<(), RipqError> {
    std::fs::write(path, json).map_err(|e| RipqError::Io(format!("{path}: {e}")))
}

/// Eagerly validates the checkpoint directory — creates it and probes
/// writability — so an unusable `--checkpoint-dir` fails up front with a
/// clean error instead of silently degrading every in-run snapshot.
fn prepare_checkpoint_dir(dir: &str) -> Result<(), RipqError> {
    std::fs::create_dir_all(dir).map_err(|e| RipqError::Io(format!("{dir}: {e}")))?;
    let probe = std::path::Path::new(dir).join(".ripq-write-probe");
    // ripq-lint: allow(atomic-persistence) -- content-free writability probe, removed immediately
    std::fs::write(&probe, b"").map_err(|e| RipqError::Io(format!("{dir}: {e}")))?;
    let _ = std::fs::remove_file(&probe);
    Ok(())
}

fn cmd_simulate(args: &[String]) {
    let metrics_json = flag(args, "--metrics-json");
    let trace_spans = args.iter().any(|a| a == "--trace");
    let faults = fault_plan_from_args(args);
    let checkpoint_dir = flag(args, "--checkpoint-dir");
    let checkpoint_every: u64 = parse_flag(args, "--checkpoint-every").unwrap_or(30);
    let query_budget: Option<u64> = parse_flag(args, "--query-budget");
    let quick = ExperimentParams::quick();
    let params = ExperimentParams {
        num_objects: parse_flag(args, "--objects").unwrap_or(quick.num_objects),
        duration: parse_flag(args, "--duration").unwrap_or(quick.duration),
        seed: parse_flag(args, "--seed").unwrap_or(quick.seed),
        // Preprocessing worker threads; results are bit-identical at any
        // setting, so this is purely a wall-clock knob. Without the flag
        // each pass chooses: every core for a large pass, else one.
        parallelism: parse_flag(args, "--parallelism"),
        observability: metrics_json.is_some() || trace_spans,
        faults,
        checkpoint_every: if checkpoint_dir.is_some() {
            checkpoint_every
        } else {
            0
        },
        query_budget,
        ..quick
    };
    let threads = match params.parallelism {
        Some(n) => format!("{} preprocessing thread(s)", n.max(1)),
        None => format!(
            "preprocessing threads auto, up to {}",
            ripq::pf::available_cores()
        ),
    };
    println!(
        "simulating {} objects for {} s (seed {}, {threads})...",
        params.num_objects, params.duration, params.seed,
    );
    if faults.is_active() {
        println!(
            "fault plan: drop {:.3}, dup {:.3}, delay <= {} s, outage rate {:.4} \
             (mean {:.0} s, seed {})",
            faults.drop_probability,
            faults.duplicate_probability,
            faults.max_delay_seconds,
            faults.outage_rate,
            faults.outage_mean_seconds,
            faults.seed
        );
    }
    if let Some(budget) = query_budget {
        println!(
            "query budget: {budget} cost units per evaluation pass (degraded answers allowed)"
        );
    }
    let mut experiment = Experiment::new(params);
    if let Some(dir) = &checkpoint_dir {
        if let Err(e) = prepare_checkpoint_dir(dir) {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
        println!(
            "recovery plan: checkpoint to {dir}/experiment.ckpt every {checkpoint_every} s, \
             resuming from any valid snapshot found there"
        );
        experiment = experiment.with_checkpoint_dir(dir);
    }
    let (r, snapshot) = experiment.run_with_metrics();
    match experiment.last_recovery() {
        None => {}
        Some(RecoveryOutcome::ColdStart) => println!("recovery: cold start (no snapshot on disk)"),
        Some(RecoveryOutcome::Resumed { replay_from }) => {
            println!("recovery: resumed from second {replay_from}");
        }
        Some(RecoveryOutcome::Quarantined { path }) => println!(
            "recovery: damaged snapshot quarantined to {}; rebuilt from scratch",
            path.display()
        ),
    }
    println!(
        "range-query KL divergence: PF {:.3}  SM {:.3}",
        r.range_kl_pf, r.range_kl_sm
    );
    println!(
        "kNN average hit rate:      PF {:.3}  SM {:.3}",
        r.knn_hit_pf, r.knn_hit_sm
    );
    println!(
        "top-1 / top-2 success:     {:.3} / {:.3}",
        r.top1_success, r.top2_success
    );
    println!(
        "({} range queries, {} kNN evaluations)",
        r.range_queries_evaluated, r.knn_queries_evaluated
    );
    if let Some(snapshot) = snapshot {
        if let Some(path) = metrics_json {
            match write_metrics_json(&path, &snapshot.to_json()) {
                Ok(()) => println!("wrote pipeline metrics to {path}"),
                Err(e) => {
                    eprintln!("error: {e}");
                    std::process::exit(1);
                }
            }
        }
        if trace_spans {
            eprint!("{}", snapshot.render_trace());
        }
    }
}

fn cmd_trace(args: &[String]) {
    let object: u32 = parse_flag(args, "--object").unwrap_or(0);
    let duration: u64 = parse_flag(args, "--duration").unwrap_or(180);
    let seed: u64 = parse_flag(args, "--seed").unwrap_or(7);
    let params = ExperimentParams::default();
    let world = SimWorld::build(&params);

    let mut rng_trace = StdRng::seed_from_u64(seed);
    let mut rng_sense = StdRng::seed_from_u64(seed + 1);
    let n = (object as usize + 1).max(4);
    let traces = TraceGenerator::new(params.room_dwell_mean).generate(
        &mut rng_trace,
        &world.graph,
        world.plan.rooms().len(),
        n,
        duration,
    );
    let gen = ReadingGenerator::new(&world.graph, &world.readers, params.sensing);
    let mut history = HistoryCollector::new();
    for s in 0..=duration {
        let det = gen.detections_at(&mut rng_sense, &traces, s);
        history.ingest_second(s, &det);
    }
    let mut rng_pf = StdRng::seed_from_u64(seed + 2);
    let obj = ripq::rfid::ObjectId::new(object);
    match reconstruct_trajectory(
        &mut rng_pf,
        &world.graph,
        &world.anchors,
        &world.readers,
        &history,
        obj,
        &TrajectoryConfig::default(),
    ) {
        Some(traj) => {
            let truth = &traces[object as usize];
            let mut err = 0.0;
            for tp in &traj {
                err += tp.mean.distance(truth.point_at(&world.graph, tp.second));
            }
            println!(
                "reconstructed {} samples for {obj}; mean error {:.2} m",
                traj.len(),
                err / traj.len() as f64
            );
            if let Some(path) = flag(args, "--svg") {
                let mut scene = SvgScene::new(&world.plan, 10.0);
                scene
                    .draw_readers(&world.readers)
                    .draw_trace(&world.graph, truth, "#4040d0");
                // Overlay the reconstruction's mode anchors.
                let dist: Vec<_> = traj.iter().map(|tp| (tp.mode, 0.08)).collect();
                scene.draw_distribution(&world.anchors, &dist, "#d04040");
                std::fs::write(&path, scene.finish()).expect("write SVG");
                println!("wrote {path} (blue = truth, red = reconstruction)");
            }
        }
        None => println!("{obj} was never detected in this simulation"),
    }
}

fn cmd_defaults() {
    let p = ExperimentParams::default();
    println!("Table 2 — default parameters:");
    println!("  particles:        {}", p.num_particles);
    println!("  query window:     {}%", p.query_window_fraction * 100.0);
    println!("  moving objects:   {}", p.num_objects);
    println!("  k:                {}", p.k);
    println!("  activation range: {} m", p.activation_range);
    println!("  readers:          {}", p.reader_count);
}

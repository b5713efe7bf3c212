//! Security audit: historical queries over a full day of readings.
//!
//! ```text
//! cargo run --release --example security_audit
//! ```
//!
//! The building logs every reading into a [`HistoryCollector`]. After the
//! fact, an auditor asks "who was near the server room at minute 2?" and
//! "which two people were closest together at minute 3?" — time-travel
//! variants of the paper's queries, built on §4.1's noted
//! longer-reading-history extension.

use rand::rngs::StdRng;
use rand::SeedableRng;
use ripq::core::{evaluate_closest_pairs, evaluate_range, ClosestPairsQuery};
use ripq::graph::AnchorObjectIndex;
use ripq::pf::{FilterTables, ParticlePreprocessor, PreprocessorConfig, SupervisionOptions};
use ripq::rfid::HistoryCollector;
use ripq::sim::{ExperimentParams, ReadingGenerator, SimWorld, TraceGenerator};

fn main() {
    let params = ExperimentParams {
        num_objects: 25,
        duration: 300,
        ..Default::default()
    };
    let world = SimWorld::build(&params);

    // Record the whole day.
    let mut rng_trace = StdRng::seed_from_u64(61);
    let mut rng_sense = StdRng::seed_from_u64(62);
    let traces = TraceGenerator::new(params.room_dwell_mean).generate(
        &mut rng_trace,
        &world.graph,
        world.plan.rooms().len(),
        params.num_objects,
        params.duration,
    );
    let readings = ReadingGenerator::new(&world.graph, &world.readers, params.sensing);
    let mut log = HistoryCollector::new();
    for second in 0..=params.duration {
        let det = readings.detections_at(&mut rng_sense, &traces, second);
        log.ingest_second(second, &det);
    }
    println!(
        "recorded {} aggregated entries for {} tags over {} s",
        log.total_entries(),
        traces.len(),
        params.duration
    );

    let tables = FilterTables::new(&world.graph, &world.readers);
    let preprocessor = ParticlePreprocessor::new(
        &world.graph,
        &world.anchors,
        &world.readers,
        &tables,
        PreprocessorConfig::default(),
    );
    // Treat room 0 as the "server room".
    let server_room = &world.plan.rooms()[0];
    println!(
        "server room: {} at {}",
        server_room.name(),
        server_room.footprint()
    );

    for &t in &[120u64, 180, 240] {
        let view = log.view_at(t);
        let mut objects: Vec<_> = view.objects().collect();
        objects.sort_unstable();
        let mut index = AnchorObjectIndex::new();
        let supervision = SupervisionOptions::default();
        preprocessor.process(
            63 ^ t,
            &view,
            &objects,
            t,
            None,
            None,
            &supervision,
            &mut index,
        );

        // Who was (probably) in or near the server room at time t?
        let window = server_room.footprint().inflate(3.0);
        let rs = evaluate_range(&world.plan, &world.anchors, &index, &window);
        let suspects: Vec<String> = rs
            .sorted()
            .into_iter()
            .filter(|r| r.probability >= 0.2)
            .map(|r| format!("{} (p={:.2})", r.object, r.probability))
            .collect();
        println!("\nt={t:>3}s  near the server room: {suspects:?}");

        // Which two people were closest together?
        let pairs = evaluate_closest_pairs(
            &world.graph,
            &world.anchors,
            &index,
            &ClosestPairsQuery {
                m: 1,
                contact_radius: 3.0,
            },
        );
        if let Some(p) = pairs.first() {
            println!(
                "        closest pair: {} & {} (E[dist] = {:.1} m, p(within 3 m) = {:.2})",
                p.a, p.b, p.expected_distance, p.within_radius
            );
        }
    }
    println!("\naudit complete — all answers derived from the recorded log only");
}

//! Mall analytics: PTkNN and closest-pairs queries in a shopping mall —
//! the §1 venue, exercising the Yang-et-al.-compatible PTkNN query type
//! and the §6 closest-pairs extension on a non-office topology.
//!
//! ```text
//! cargo run --release --example mall_marketing
//! ```
//!
//! A marketing kiosk wants (a) the shoppers probably among the 3 nearest
//! to the kiosk (with confidence ≥ 0.4), and (b) pairs of shoppers
//! walking together (candidates for a "bring a friend" coupon).

use rand::rngs::StdRng;
use rand::SeedableRng;
use ripq::core::{IndoorQuerySystem, SystemConfig};
use ripq::floorplan::{shopping_mall, MallParams};
use ripq::sim::{ExperimentParams, ReadingGenerator, SimWorld, TraceGenerator};

fn main() {
    let params = ExperimentParams {
        num_objects: 35,
        duration: 240,
        reader_count: 16,
        ..Default::default()
    };
    let plan = shopping_mall(&MallParams::default()).expect("valid mall");
    let world = SimWorld::build_with_plan(plan, &params);
    println!(
        "mall: {} stores, {} corridors, {} readers",
        world.plan.rooms().len(),
        world.plan.hallways().len(),
        world.readers.len()
    );

    // Shoppers wander; readings stream in.
    let mut rng_trace = StdRng::seed_from_u64(81);
    let mut rng_sense = StdRng::seed_from_u64(82);
    let traces = TraceGenerator::new(params.room_dwell_mean).generate(
        &mut rng_trace,
        &world.graph,
        world.plan.rooms().len(),
        params.num_objects,
        params.duration,
    );
    let readings = ReadingGenerator::new(&world.graph, &world.readers, params.sensing);
    // The system over the mall's deployment, preprocessing every shopper.
    let config = SystemConfig {
        prune_candidates: false,
        ptknn_rounds: 300,
        ..SystemConfig::default()
    };
    let mut system =
        IndoorQuerySystem::with_readers(world.plan.clone(), world.readers.clone(), config, 83);

    // The kiosk sits mid-promenade.
    let kiosk = world.plan.hallways()[0].footprint().center();
    let ptknn = system.register_ptknn(kiosk, 3, 0.4).expect("valid query");
    let pairs_query = system.register_closest_pairs(2, 3.0).expect("valid query");

    for second in 0..=params.duration {
        let det = readings.detections_at(&mut rng_sense, &traces, second);
        system.ingest_detections(second, &det);
        if second % 60 != 0 || second == 0 {
            continue;
        }
        let report = system.evaluate(second);

        let nearby = &report.ptknn_results[&ptknn];
        println!("\nt={second:>3}s  probably among the kiosk's 3 nearest (p >= 0.4):");
        for r in nearby.sorted() {
            println!(
                "    {} with membership probability {:.2}",
                r.object, r.probability
            );
        }

        for p in &report.closest_pairs_results[&pairs_query] {
            if p.within_radius >= 0.5 {
                println!(
                    "    coupon pair: {} & {} (p(within 3 m) = {:.2})",
                    p.a, p.b, p.within_radius
                );
            }
        }
    }
    println!("\nmall analytics pass complete");
}

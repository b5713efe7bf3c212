//! Continuous monitoring of a meeting room — the paper's motivating
//! office scenario, driven end-to-end through the simulator.
//!
//! ```text
//! cargo run --release --example office_tracking
//! ```
//!
//! Forty tagged employees walk the building (destination-driven traces);
//! noisy RFID readings stream into the system; a *continuous range query*
//! (a subscription over a registered range query) watches one meeting
//! room and reports arrivals/departures as deltas — the §6 "continuous
//! range" extension in action.

use rand::rngs::StdRng;
use rand::SeedableRng;
use ripq::core::continuous::{SubscriptionKind, SubscriptionRegistry};
use ripq::core::{IndoorQuerySystem, SystemConfig};
use ripq::sim::{ExperimentParams, ReadingGenerator, SimWorld, TraceGenerator};

fn main() {
    let params = ExperimentParams {
        num_objects: 40,
        duration: 240,
        ..Default::default()
    };
    let world = SimWorld::build(&params);

    // Watch room R12 (a meeting room in the middle band of the building).
    let room = &world.plan.rooms()[12];
    let footprint = *room.footprint();
    println!(
        "monitoring room {} ({}) with footprint {footprint}",
        room.id(),
        room.name()
    );

    // Simulation state.
    let mut rng_trace = StdRng::seed_from_u64(7);
    let mut rng_sense = StdRng::seed_from_u64(8);
    let traces = TraceGenerator::new(params.room_dwell_mean).generate(
        &mut rng_trace,
        &world.graph,
        world.plan.rooms().len(),
        params.num_objects,
        params.duration,
    );
    let readings = ReadingGenerator::new(&world.graph, &world.readers, params.sensing);
    // The system over the simulated deployment, with the room watched as
    // subscription 1 over a registered range query.
    let mut system = IndoorQuerySystem::with_readers(
        world.plan.clone(),
        world.readers.clone(),
        SystemConfig::default(),
        9,
    );
    let query = system.register_range(footprint).expect("non-empty room");
    let mut registry = SubscriptionRegistry::new();
    registry
        .insert(1, SubscriptionKind::Range(footprint), query)
        .expect("fresh registry");

    // Stream the day; refresh the monitor every 20 simulated seconds.
    let mut events = 0u32;
    let mut cache_stats = Default::default();
    for second in 0..=params.duration {
        let detections = readings.detections_at(&mut rng_sense, &traces, second);
        system.ingest_detections(second, &detections);
        if second % 20 != 0 || second < 40 {
            continue;
        }
        let report = system.evaluate(second);
        cache_stats = report.cache_stats;
        // Subscription 1 is the only one: a pass yields at most one delta.
        let Some((_, delta)) = registry.deltas(&report).pop() else {
            continue;
        };
        for (o, p) in &delta.appeared {
            println!("t={second:>3}s  {o} likely entered the room (p = {p:.2})");
            events += 1;
        }
        for o in &delta.disappeared {
            println!("t={second:>3}s  {o} left the room");
            events += 1;
        }
        // Probability drift above 0.25 is worth reporting too.
        for (o, old, new) in &delta.changed {
            if (new - old).abs() > 0.25 {
                println!("t={second:>3}s  {o} presence changed: {old:.2} -> {new:.2}");
                events += 1;
            }
        }
    }
    println!(
        "\nfinal occupants (p >= 0.3): {:?}",
        registry
            .get(1)
            .expect("subscription 1")
            .current()
            .sorted()
            .iter()
            .filter(|r| r.probability >= 0.3)
            .map(|r| r.object.to_string())
            .collect::<Vec<_>>()
    );
    println!("cache stats: {cache_stats:?}");
    assert!(events > 0, "240 s of 40 walkers produces room traffic");
}

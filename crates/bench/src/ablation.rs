//! Ablation studies for the design decisions documented in `DESIGN.md`.
//!
//! Each runner isolates one choice and reports the same accuracy metrics
//! as the figure sweeps, so its effect can be compared against the
//! paper-shape curves directly:
//!
//! * [`negative_evidence`] — Algorithm 2 as printed ignores null readings;
//!   RIPQ uses them (particles inside a silent reader's range are
//!   down-weighted). How much does that buy?
//! * [`resampling_policy`] — the original SIR resamples at every
//!   observation; RIPQ resamples on ESS degeneracy. Diversity vs. fidelity.
//! * [`room_enter_probability`] — the motion-model split between entering
//!   a room and continuing along the hallway (the paper gives no value).
//! * [`kde_bandwidth`] — raw nearest-anchor snapping vs. kernel-smoothed
//!   particle→density conversion.
//! * [`anchor_spacing`] — §4.2 suggests 1 m anchors; coarser grids trade
//!   accuracy for index size.
//! * [`cache`] — §4.5's cache management module: SIR iterations with and
//!   without particle-state reuse.
//! * [`fault_severity`] — the `DESIGN.md` §9 fault injector at increasing
//!   severity: how gracefully does accuracy degrade under drops, jitter
//!   and reader outages?

use crate::{FigureRow, Scale};
use ripq_sim::{Experiment, ExperimentParams, SimWorld};

/// Negative-evidence on/off. Row `x`: 1 = on, 0 = off.
pub fn negative_evidence(scale: Scale) -> Vec<FigureRow> {
    let base = scale.base_params();
    [true, false]
        .into_iter()
        .map(|on| FigureRow {
            x: f64::from(u8::from(on)),
            report: Experiment::new(ExperimentParams {
                negative_evidence: on,
                ..base
            })
            .run(),
        })
        .collect()
}

/// ESS resampling threshold sweep. `x` = threshold; 1.0 reproduces the
/// paper's resample-every-observation SIR.
pub fn resampling_policy(scale: Scale) -> Vec<FigureRow> {
    let base = scale.base_params();
    [0.25, 0.5, 0.75, 1.0]
        .into_iter()
        .map(|t| FigureRow {
            x: t,
            report: Experiment::new(ExperimentParams {
                resample_threshold: t,
                ..base
            })
            .run(),
        })
        .collect()
}

/// Room-enter probability sweep. `x` = probability.
pub fn room_enter_probability(scale: Scale) -> Vec<FigureRow> {
    let base = scale.base_params();
    [0.05, 0.1, 0.2, 0.3, 0.5, 0.67]
        .into_iter()
        .map(|p| FigureRow {
            x: p,
            report: Experiment::new(ExperimentParams {
                room_enter_probability: p,
                ..base
            })
            .run(),
        })
        .collect()
}

/// KDE bandwidth sweep for the particle→anchor density conversion.
/// `x` = bandwidth in meters; 0 is the paper's raw nearest-anchor snap.
pub fn kde_bandwidth(scale: Scale) -> Vec<FigureRow> {
    let base = scale.base_params();
    [0.0, 1.0, 2.0, 4.0]
        .into_iter()
        .map(|bw| FigureRow {
            x: bw,
            report: Experiment::new(ExperimentParams {
                kde_bandwidth: bw,
                ..base
            })
            .run(),
        })
        .collect()
}

/// KLD-adaptive particle counts vs. the paper's fixed Ns. Row `x`: 1 =
/// adaptive, 0 = fixed.
pub fn kld_adaptive(scale: Scale) -> Vec<FigureRow> {
    let base = scale.base_params();
    [false, true]
        .into_iter()
        .map(|adaptive| FigureRow {
            x: f64::from(u8::from(adaptive)),
            report: Experiment::new(ExperimentParams {
                kld_adaptive: adaptive,
                ..base
            })
            .run(),
        })
        .collect()
}

/// Anchor-spacing sweep. `x` = spacing in meters.
pub fn anchor_spacing(scale: Scale) -> Vec<FigureRow> {
    let base = scale.base_params();
    [0.5, 1.0, 2.0, 4.0]
        .into_iter()
        .map(|s| FigureRow {
            x: s,
            report: Experiment::new(ExperimentParams {
                anchor_spacing: s,
                ..base
            })
            .run(),
        })
        .collect()
}

/// Reader-placement strategies: uniform (the paper's), at-doors and
/// random. Returns `(label, report)` rows.
pub fn deployment_strategy(scale: Scale) -> Vec<(&'static str, ripq_sim::AccuracyReport)> {
    use ripq_rfid::DeploymentStrategy;
    let base = scale.base_params();
    [
        ("uniform", DeploymentStrategy::Uniform),
        ("at-doors", DeploymentStrategy::AtDoors),
        ("random", DeploymentStrategy::Random { seed: 1 }),
    ]
    .into_iter()
    .map(|(label, deployment)| {
        (
            label,
            Experiment::new(ExperimentParams {
                deployment,
                // 15 readers: the office has 15 distinct door portals, so
                // every strategy deploys its true layout (at-doors would
                // fall back to uniform at 19).
                reader_count: 15,
                ..base
            })
            .run(),
        )
    })
    .collect()
}

/// Topology generalization: the same experiment on the paper's office,
/// a shopping mall and a subway station (the venues §1 motivates).
/// Returns `(label, report)` rows; the PF should beat the SM baseline in
/// every topology.
pub fn topology(scale: Scale) -> Vec<(&'static str, ripq_sim::AccuracyReport)> {
    use ripq_floorplan::{
        multi_floor_office, office_building, shopping_mall, subway_station, MallParams,
        MultiFloorParams, OfficeParams, SubwayParams,
    };
    let base = scale.base_params();
    let plans: Vec<(&'static str, ripq_floorplan::FloorPlan)> = vec![
        (
            "office",
            office_building(&OfficeParams::default()).expect("valid"),
        ),
        (
            "mall",
            shopping_mall(&MallParams::default()).expect("valid"),
        ),
        (
            "subway",
            subway_station(&SubwayParams::default()).expect("valid"),
        ),
        (
            "tower-3f",
            multi_floor_office(&MultiFloorParams::default()).expect("valid"),
        ),
    ];
    // The 3-floor tower has ~3x the hallway length: scale the reader
    // budget so coverage density matches the single-floor cases.
    let readers_for = |label: &str| {
        if label == "tower-3f" {
            57
        } else {
            base.reader_count
        }
    };
    plans
        .into_iter()
        .map(|(label, plan)| {
            let params = ExperimentParams {
                reader_count: readers_for(label),
                ..base
            };
            let world = SimWorld::build_with_plan(plan, &params);
            (label, Experiment::with_world(params, world).run())
        })
        .collect()
}

/// Sensing-noise sweep: per-sample detection probability and ghost-read
/// rate. `x` encodes the detection probability; rows come in (clean,
/// ghosty) pairs — see the printed output for the exact configuration.
pub fn sensing_noise(scale: Scale) -> Vec<FigureRow> {
    let base = scale.base_params();
    let mut rows = Vec::new();
    for detection in [0.85, 0.5, 0.2] {
        for fp in [0.0, 0.02] {
            let sensing = ripq_rfid::SensingModel {
                detection_probability: detection,
                false_positive_rate: fp,
                ..Default::default()
            };
            rows.push(FigureRow {
                // Encode both knobs: x = detection + fp (fp ≪ 1 keeps
                // rows distinguishable in the table).
                x: detection + fp,
                report: Experiment::new(ExperimentParams { sensing, ..base }).run(),
            });
        }
    }
    rows
}

/// Fault-severity sweep over the reading-pipeline fault injector
/// (`DESIGN.md` §9): every row doubles down on drops, jitter and reader
/// outages together. `x` = drop probability (0 is the fault-free
/// baseline); duplicates ride along at 0.1 everywhere, since the
/// collector absorbs them exactly. Accuracy should degrade smoothly —
/// the severe cell loses precision, not correctness.
pub fn fault_severity(scale: Scale) -> Vec<FigureRow> {
    use ripq_sim::FaultPlan;
    let base = scale.base_params();
    [
        (0.0, 0, 0.0),
        (0.1, 2, 0.001),
        (0.25, 3, 0.003),
        (0.45, 4, 0.008),
    ]
    .into_iter()
    .map(|(drop, delay, outage)| FigureRow {
        x: drop,
        report: Experiment::new(ExperimentParams {
            faults: FaultPlan {
                drop_probability: drop,
                duplicate_probability: 0.1,
                max_delay_seconds: delay,
                outage_rate: outage,
                ..FaultPlan::none()
            },
            ..base
        })
        .run(),
    })
    .collect()
}

/// Work saved by the particle cache (§4.5): the evaluation passes of the
/// base experiment through the system facade, with
/// [`ripq_core::SystemConfig::use_cache`] on vs. off. Returns `(with_cache,
/// without_cache)` as each run's `pf.sir_iterations` count, a logical
/// measure of preprocessing effort that repeats exactly run to run.
pub fn cache(scale: Scale) -> (u64, u64) {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use ripq_core::{IndoorQuerySystem, SystemConfig};
    use ripq_pf::PreprocessorConfig;
    use ripq_sim::{ReadingGenerator, TraceGenerator};

    let p = scale.base_params();
    let w = SimWorld::build(&p);
    let mut rng_trace = StdRng::seed_from_u64(p.seed + 1);
    let mut rng_sense = StdRng::seed_from_u64(p.seed + 2);
    let traces = TraceGenerator::new(p.room_dwell_mean).generate(
        &mut rng_trace,
        &w.graph,
        w.plan.rooms().len(),
        p.num_objects,
        p.duration,
    );
    let gen = ReadingGenerator::new(&w.graph, &w.readers, p.sensing);
    let detections = gen.detections_all(&mut rng_sense, &traces, p.duration);
    let timestamps = p.timestamps();

    let run = |use_cache: bool| {
        let config = SystemConfig {
            preprocess: PreprocessorConfig {
                num_particles: p.num_particles,
                ..Default::default()
            },
            use_cache,
            prune_candidates: false,
            observability: true,
            ..SystemConfig::default()
        };
        let mut sys =
            IndoorQuerySystem::with_readers(w.plan.clone(), w.readers.clone(), config, p.seed + 3);
        let mut ti = 0;
        for second in 0..=p.duration {
            sys.ingest_detections(second, &detections[second as usize]);
            while ti < timestamps.len() && timestamps[ti] == second {
                ti += 1;
                let _ = sys.evaluate(second);
            }
        }
        let snapshot = sys.recorder().snapshot();
        snapshot
            .counters
            .get("pf.sir_iterations")
            .copied()
            .unwrap_or(0)
    };
    let with_cache = run(true);
    let without_cache = run(false);
    (with_cache, without_cache)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One end-to-end ablation at tiny scale, verifying the expected
    /// directional effects hold.
    #[test]
    fn negative_evidence_helps() {
        let rows = {
            let base = ExperimentParams::smoke();
            [true, false]
                .into_iter()
                .map(|on| FigureRow {
                    x: f64::from(u8::from(on)),
                    report: Experiment::new(ExperimentParams {
                        negative_evidence: on,
                        ..base
                    })
                    .run(),
                })
                .collect::<Vec<_>>()
        };
        let on = rows[0].report;
        let off = rows[1].report;
        assert!(
            on.range_kl_pf <= off.range_kl_pf + 0.15,
            "negative evidence should not hurt KL: on={} off={}",
            on.range_kl_pf,
            off.range_kl_pf
        );
    }

    #[test]
    fn faulted_experiment_stays_finite() {
        // The severe end of the fault sweep must still produce a
        // well-formed report: degraded accuracy, never NaNs or panics.
        use ripq_sim::FaultPlan;
        let base = ExperimentParams::smoke();
        let report = Experiment::new(ExperimentParams {
            faults: FaultPlan {
                drop_probability: 0.45,
                duplicate_probability: 0.1,
                max_delay_seconds: 4,
                outage_rate: 0.008,
                ..FaultPlan::none()
            },
            ..base
        })
        .run();
        assert!(report.range_kl_pf.is_finite());
        assert!(report.mean_error_pf.is_finite());
        assert!((0.0..=1.0).contains(&report.top1_success));
    }

    #[test]
    fn cache_runs_fewer_sir_iterations() {
        // Resuming cached particles replays only the seconds since the
        // last evaluation; without the cache every timestamp refilters
        // each object's whole history.
        let (with_cache, without_cache) = cache(Scale::Quick);
        assert!(with_cache > 0, "the cached run must filter at all");
        assert!(
            with_cache < without_cache,
            "cache must save SIR iterations: {with_cache} vs {without_cache}"
        );
    }
}

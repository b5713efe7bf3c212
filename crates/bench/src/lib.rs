//! # ripq-bench — the figure-reproduction harness
//!
//! One runner per result figure of the EDBT 2013 paper (§5.2–§5.6), each
//! sweeping the same parameter the paper sweeps and printing the same
//! series the paper plots:
//!
//! | Paper figure | Runner | Sweep | Series |
//! |---|---|---|---|
//! | Fig. 9 | [`run_fig9`] | query window 1–5 % | range-query KL (PF, SM) |
//! | Fig. 10 | [`run_fig10`] | k = 2…9 | kNN hit rate (PF, SM) |
//! | Fig. 11 | [`run_fig11`] | particles 2…512 | KL, hit rate, top-1/2 |
//! | Fig. 12 | [`run_fig12`] | objects 200…1000 | KL, hit rate, top-1/2 |
//! | Fig. 13 | [`run_fig13`] | range 0.5–2.5 m | KL, hit rate, top-1/2 |
//!
//! Each runner returns structured rows (and [`print_rows`] renders them),
//! so the binary `experiments` and the tests share one implementation.
//! Ablation runners for the design decisions called out in `DESIGN.md`
//! live in [`ablation`]. Nothing here reads a clock: every printed number
//! is an accuracy metric or a logical count, so a run's output repeats
//! byte for byte. Speed is measured by `perfbench/` alone.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;

use ripq_sim::{AccuracyReport, Experiment, ExperimentParams};
use serde::{Deserialize, Serialize};

/// How heavy a sweep to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Scale {
    /// The paper's counts: 50 timestamps, 100 range windows each, 30 kNN
    /// points, defaults from Table 2. A full figure takes seconds to low
    /// tens of seconds.
    Paper,
    /// [`ExperimentParams::quick`]'s reduced counts, for CI smoke runs
    /// and the default `experiments` invocation.
    Quick,
}

impl Scale {
    /// Reads `RIPQ_SCALE=quick|paper` from the environment (default:
    /// quick for unattended runs).
    pub fn from_env() -> Scale {
        match std::env::var("RIPQ_SCALE").as_deref() {
            Ok("paper") => Scale::Paper,
            _ => Scale::Quick,
        }
    }

    /// Base experiment parameters at this scale.
    pub fn base_params(self) -> ExperimentParams {
        match self {
            Scale::Paper => ExperimentParams::default(),
            Scale::Quick => ExperimentParams::quick(),
        }
    }
}

/// One point of one figure: the swept parameter value plus the measured
/// series.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FigureRow {
    /// The swept parameter's value (window %, k, particles, objects, or
    /// activation range in meters).
    pub x: f64,
    /// The measured accuracy series at that point.
    pub report: AccuracyReport,
}

/// Renders rows as an aligned console table. `x_label` names the swept
/// parameter; `series` selects which report columns to print.
pub fn print_rows(title: &str, x_label: &str, rows: &[FigureRow], series: &[Series]) {
    println!("\n== {title} ==");
    print!("{x_label:>14}");
    for s in series {
        print!("{:>14}", s.label());
    }
    println!();
    for row in rows {
        print!("{:>14.3}", row.x);
        for s in series {
            print!("{:>14.4}", s.extract(&row.report));
        }
        println!();
    }
}

/// A printable column of an [`AccuracyReport`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Series {
    /// Range-query KL divergence, particle filter.
    KlPf,
    /// Range-query KL divergence, symbolic model.
    KlSm,
    /// kNN hit rate, particle filter.
    HitPf,
    /// kNN hit rate, symbolic model.
    HitSm,
    /// Top-1 success rate.
    Top1,
    /// Top-2 success rate.
    Top2,
    /// Mean localization error (m), particle filter.
    ErrPf,
    /// Mean localization error (m), symbolic model.
    ErrSm,
}

impl Series {
    /// Column header.
    pub fn label(self) -> &'static str {
        match self {
            Series::KlPf => "KL(PF)",
            Series::KlSm => "KL(SM)",
            Series::HitPf => "hit(PF)",
            Series::HitSm => "hit(SM)",
            Series::Top1 => "top-1",
            Series::Top2 => "top-2",
            Series::ErrPf => "err(PF) m",
            Series::ErrSm => "err(SM) m",
        }
    }

    /// Pulls this column out of a report.
    pub fn extract(self, r: &AccuracyReport) -> f64 {
        match self {
            Series::KlPf => r.range_kl_pf,
            Series::KlSm => r.range_kl_sm,
            Series::HitPf => r.knn_hit_pf,
            Series::HitSm => r.knn_hit_sm,
            Series::Top1 => r.top1_success,
            Series::Top2 => r.top2_success,
            Series::ErrPf => r.mean_error_pf,
            Series::ErrSm => r.mean_error_sm,
        }
    }
}

/// All three sub-plot column sets of Figures 11–13, plus the mean
/// localization error (our §6 extra metric).
pub const FULL_SERIES: &[Series] = &[
    Series::KlPf,
    Series::KlSm,
    Series::HitPf,
    Series::HitSm,
    Series::Top1,
    Series::Top2,
    Series::ErrPf,
    Series::ErrSm,
];

fn sweep(params_list: Vec<(f64, ExperimentParams)>) -> Vec<FigureRow> {
    params_list
        .into_iter()
        .map(|(x, params)| FigureRow {
            x,
            report: Experiment::new(params).run(),
        })
        .collect()
}

/// **Figure 9** — effects of query window size (1–5 % of floor area) on
/// range-query KL divergence. Expected shape: both methods ~flat in the
/// window size; PF below SM.
pub fn run_fig9(scale: Scale) -> Vec<FigureRow> {
    let base = scale.base_params();
    sweep(
        [0.01, 0.02, 0.03, 0.04, 0.05]
            .into_iter()
            .map(|f| {
                (
                    f * 100.0,
                    ExperimentParams {
                        query_window_fraction: f,
                        ..base
                    },
                )
            })
            .collect(),
    )
}

/// **Figure 10** — effects of `k` (2…9) on kNN average hit rate. Expected
/// shape: SM grows slowly with k; PF ~flat and above SM everywhere.
pub fn run_fig10(scale: Scale) -> Vec<FigureRow> {
    let base = scale.base_params();
    sweep(
        (2..=9)
            .map(|k| (k as f64, ExperimentParams { k, ..base }))
            .collect(),
    )
}

/// **Figure 11** — effects of the number of particles (2…512) on all
/// three metrics. Expected shape: PF below SM accuracy under ~8 particles,
/// above beyond; all curves flatten past ~64.
pub fn run_fig11(scale: Scale) -> Vec<FigureRow> {
    let base = scale.base_params();
    sweep(
        [2usize, 4, 8, 16, 32, 64, 128, 256, 512]
            .into_iter()
            .map(|n| {
                (
                    n as f64,
                    ExperimentParams {
                        num_particles: n,
                        ..base
                    },
                )
            })
            .collect(),
    )
}

/// **Figure 12** — effects of the number of moving objects (200…1000).
/// Expected shape: KL and top-k stable; kNN hit rate decreases for both
/// methods as density rises.
pub fn run_fig12(scale: Scale) -> Vec<FigureRow> {
    let base = scale.base_params();
    let counts: &[usize] = match scale {
        Scale::Paper => &[200, 400, 600, 800, 1000],
        Scale::Quick => &[60, 120, 180, 240, 300],
    };
    sweep(
        counts
            .iter()
            .map(|&n| {
                (
                    n as f64,
                    ExperimentParams {
                        num_objects: n,
                        ..base
                    },
                )
            })
            .collect(),
    )
}

/// **Figure 13** — effects of the reader activation range (0.5–2.5 m).
/// Expected shape: both methods improve with range; PF usable already at
/// small ranges.
pub fn run_fig13(scale: Scale) -> Vec<FigureRow> {
    let base = scale.base_params();
    sweep(
        [0.5, 1.0, 1.5, 2.0, 2.5]
            .into_iter()
            .map(|r| {
                (
                    r,
                    ExperimentParams {
                        activation_range: r,
                        ..base
                    },
                )
            })
            .collect(),
    )
}

/// Prints **Table 2** (the default parameters) as the paper lists them.
pub fn print_table2() {
    let p = ExperimentParams::default();
    println!("\n== Table 2: Default values of parameters ==");
    println!("{:<28}{}", "Number of particles", p.num_particles);
    println!(
        "{:<28}{}%",
        "Query window size",
        (p.query_window_fraction * 100.0).round()
    );
    println!("{:<28}{}", "Number of moving objects", p.num_objects);
    println!("{:<28}{}", "k", p.k);
    println!("{:<28}{} meters", "Activation range", p.activation_range);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_labels_and_extraction() {
        let r = AccuracyReport {
            range_kl_pf: 1.0,
            range_kl_sm: 2.0,
            knn_hit_pf: 0.9,
            knn_hit_sm: 0.5,
            top1_success: 0.7,
            top2_success: 0.8,
            ..Default::default()
        };
        assert_eq!(Series::KlPf.extract(&r), 1.0);
        assert_eq!(Series::KlSm.extract(&r), 2.0);
        assert_eq!(Series::HitPf.extract(&r), 0.9);
        assert_eq!(Series::HitSm.extract(&r), 0.5);
        assert_eq!(Series::Top1.extract(&r), 0.7);
        assert_eq!(Series::Top2.extract(&r), 0.8);
        assert_eq!(FULL_SERIES.len(), 8);
        for s in FULL_SERIES {
            assert!(!s.label().is_empty());
        }
    }

    #[test]
    fn scale_params() {
        let p = Scale::Paper.base_params();
        assert_eq!(p.num_objects, 200);
        let q = Scale::Quick.base_params();
        assert!(q.num_objects < p.num_objects);
    }
}

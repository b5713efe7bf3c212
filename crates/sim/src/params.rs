//! Experiment parameters — Table 2 of the paper plus simulation knobs.

use crate::FaultPlan;
use ripq_rfid::{DeploymentStrategy, SensingModel};
use serde::{Deserialize, Serialize};

/// All knobs of one simulated experiment.
///
/// The `Default` implementation reproduces **Table 2** ("Default values of
/// parameters"): 64 particles, 2 % query window, 200 moving objects,
/// k = 3, 2 m activation range — in the 30-room / 4-hallway single floor
/// with 19 uniformly deployed readers of §5.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ExperimentParams {
    /// Number of particles per object (Table 2: 64).
    pub num_particles: usize,
    /// Range-query window area as a fraction of the total floor area
    /// (Table 2: 2 % → 0.02).
    pub query_window_fraction: f64,
    /// Number of moving objects (Table 2: 200).
    pub num_objects: usize,
    /// `k` for kNN queries (Table 2: 3).
    pub k: usize,
    /// Reader activation range in meters (Table 2: 2 m).
    pub activation_range: f64,
    /// Number of readers deployed uniformly on hallways (§5: 19).
    pub reader_count: u32,
    /// Reader placement strategy (paper: uniform spacing).
    pub deployment: DeploymentStrategy,
    /// Anchor-point spacing in meters (§4.2: 1 m).
    pub anchor_spacing: f64,
    /// Sensing model (sample rate / per-sample detection probability).
    pub sensing: SensingModel,
    /// Simulated duration in seconds.
    pub duration: u64,
    /// Seconds to skip before the first evaluation timestamp (objects need
    /// reading history before inference is meaningful).
    pub warmup: u64,
    /// Number of evaluation timestamps, spread uniformly over
    /// `[warmup, duration]` (paper: 50).
    pub eval_timestamps: usize,
    /// Range-query windows generated per evaluation timestamp (paper: 100).
    pub range_queries_per_timestamp: usize,
    /// kNN query points (paper: 30), re-evaluated at every timestamp.
    pub knn_query_points: usize,
    /// Mean seconds an object dwells inside a destination room.
    pub room_dwell_mean: f64,
    /// Particle filter: use negative observations (see
    /// [`ripq_pf::PreprocessorConfig::negative_evidence`]); ablation knob.
    pub negative_evidence: bool,
    /// Particle filter: ESS resampling threshold (1.0 = the paper's
    /// resample-every-observation SIR); ablation knob.
    pub resample_threshold: f64,
    /// Particle filter: probability of turning into a room at a door
    /// portal; ablation knob.
    pub room_enter_probability: f64,
    /// Particle filter: KDE bandwidth for the particle→anchor conversion
    /// (0 = the paper's raw nearest-anchor snap); ablation knob.
    pub kde_bandwidth: f64,
    /// Particle filter: KLD-adaptive particle counts (Fox 2001) instead of
    /// the paper's fixed `Ns`; ablation knob.
    pub kld_adaptive: bool,
    /// Particle filter: resume each object's cached particles across
    /// evaluation passes (§4.5's cache management module), as
    /// `SystemConfig::use_cache`; ablation knob.
    pub use_cache: bool,
    /// Worker threads for particle-filter preprocessing, as
    /// `SystemConfig::parallelism`: a pass of more than one object fans
    /// out over the process's helper pool, up to every core with `None`
    /// (default) and up to `n` workers, the calling thread included, with
    /// `Some(n)`. Accuracy results are bit-identical for every setting:
    /// each object filters on its own deterministic RNG stream.
    pub parallelism: Option<usize>,
    /// Fault injection applied between the reading generator and the
    /// collector (see [`FaultPlan`]). [`FaultPlan::none`] (the default)
    /// keeps the stream clean and the classic ingestion path —
    /// fault-free runs are bit-identical to what they were before the
    /// fault layer existed.
    pub faults: FaultPlan,
    /// Write a crash-recovery checkpoint every this many simulated seconds
    /// (0 = never). Takes effect only when the experiment also has a
    /// checkpoint directory configured via
    /// [`Experiment::with_checkpoint_dir`](crate::Experiment::with_checkpoint_dir).
    pub checkpoint_every: u64,
    /// Deadline budget per evaluation pass, in logical cost units
    /// (`coasted seconds × particle count` per object). `None` = always
    /// run the full filter; `Some(b)` lets the preprocessor degrade
    /// answers (reduced particle counts, then the uniform pruning-circle
    /// fallback) once the budget is spent. Deterministic: the cost model
    /// counts logical work, never wall-clock time.
    pub query_budget: Option<u64>,
    /// Collect pipeline metrics during the run (see
    /// [`Experiment::run_with_metrics`](crate::Experiment::run_with_metrics)).
    /// Off by default: the disabled recorder reduces every instrument
    /// point to a no-op branch.
    pub observability: bool,
    /// Master RNG seed; every derived generator is seeded from it.
    pub seed: u64,
}

impl Default for ExperimentParams {
    fn default() -> Self {
        ExperimentParams {
            num_particles: 64,
            query_window_fraction: 0.02,
            num_objects: 200,
            k: 3,
            activation_range: 2.0,
            reader_count: 19,
            deployment: DeploymentStrategy::Uniform,
            anchor_spacing: 1.0,
            sensing: SensingModel::default(),
            duration: 400,
            warmup: 60,
            eval_timestamps: 50,
            range_queries_per_timestamp: 100,
            knn_query_points: 30,
            room_dwell_mean: 10.0,
            negative_evidence: true,
            resample_threshold: 0.5,
            room_enter_probability: 0.3,
            kde_bandwidth: 2.0,
            kld_adaptive: false,
            use_cache: true,
            parallelism: None,
            faults: FaultPlan::none(),
            checkpoint_every: 0,
            query_budget: None,
            observability: false,
            seed: 0xED8_2013,
        }
    }
}

impl ExperimentParams {
    /// A lighter configuration for unit tests and smoke runs: fewer
    /// objects, timestamps and queries. Accuracy trends remain visible but
    /// each run completes in well under a second.
    pub fn smoke() -> Self {
        ExperimentParams {
            num_objects: 30,
            duration: 150,
            warmup: 40,
            eval_timestamps: 5,
            range_queries_per_timestamp: 20,
            knn_query_points: 8,
            ..Default::default()
        }
    }

    /// Table 2's defaults at reduced counts: the default scale of
    /// `experiments` and of `ripq simulate`.
    pub fn quick() -> Self {
        ExperimentParams {
            num_objects: 60,
            duration: 240,
            warmup: 60,
            eval_timestamps: 10,
            range_queries_per_timestamp: 40,
            knn_query_points: 12,
            ..Default::default()
        }
    }

    /// The evaluation timestamps implied by `warmup`, `duration` and
    /// `eval_timestamps`.
    pub fn timestamps(&self) -> Vec<u64> {
        let n = self.eval_timestamps.max(1) as u64;
        let span = self.duration.saturating_sub(self.warmup).max(1);
        (1..=n)
            .map(|i| self.warmup + span * i / n)
            .map(|t| t.min(self.duration))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_table_2() {
        let p = ExperimentParams::default();
        assert_eq!(p.num_particles, 64);
        assert!((p.query_window_fraction - 0.02).abs() < 1e-12);
        assert_eq!(p.num_objects, 200);
        assert_eq!(p.k, 3);
        assert_eq!(p.activation_range, 2.0);
        assert_eq!(p.reader_count, 19);
    }

    #[test]
    fn timestamps_within_bounds_and_increasing() {
        let p = ExperimentParams::default();
        let ts = p.timestamps();
        assert_eq!(ts.len(), 50);
        assert!(ts[0] >= p.warmup);
        assert!(*ts.last().unwrap() <= p.duration);
        for w in ts.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn smoke_is_smaller() {
        let s = ExperimentParams::smoke();
        let d = ExperimentParams::default();
        assert!(s.num_objects < d.num_objects);
        assert!(s.eval_timestamps < d.eval_timestamps);
        // But keeps Table-2 accuracy-relevant defaults.
        assert_eq!(s.num_particles, 64);
        assert_eq!(s.k, 3);
    }
}

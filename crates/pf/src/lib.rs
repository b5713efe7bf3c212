//! # ripq-pf — particle filtering for indoor location inference
//!
//! Implements the paper's core technique (§3.1, §4.4, §4.5):
//!
//! * [`ParticleFilter`] — a generic Sampling Importance Resampling (SIR)
//!   filter over any state type: predict / reweight / resample, with the
//!   paper's Algorithm 1 (systematic resampling) in [`resample_indices`].
//! * [`IndoorState`], [`MotionModel`], [`MeasurementModel`] — the paper's
//!   object motion model ("objects move forward with constant speeds, and
//!   can either enter rooms or continue to move along hallways"; speeds
//!   drawn from N(1 m/s, 0.1); room-stay probability 0.9/s; random
//!   direction at intersections) and binary in-range/out-of-range device
//!   sensing weights.
//! * [`ParticlePreprocessor`] — Algorithm 2: replay an object's aggregated
//!   readings through the filter, coast at most 60 s beyond the last
//!   reading, then snap the cloud onto anchor points to fill the
//!   `APtoObjHT` index.
//! * [`ParticleCache`] — the cache management module (§4.5): store particle
//!   states per object and resume filtering from the cached timestamp;
//!   entries are invalidated as soon as a new device detects the object.
//!
//! # Example: the generic SIR filter
//!
//! ```
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//! use ripq_pf::ParticleFilter;
//!
//! let mut rng = StdRng::seed_from_u64(7);
//! // Track a scalar position with a noisy "near 5.0" observation.
//! let mut filter = ParticleFilter::init(256, {
//!     let mut x = 0.0;
//!     move || {
//!         x += 0.05;
//!         x
//!     }
//! });
//! filter.reweight(|&x: &f64| (-(x - 5.0) * (x - 5.0)).exp());
//! filter.normalize();
//! filter.resample(&mut rng);
//! let mean: f64 = filter.states().iter().sum::<f64>() / filter.len() as f64;
//! assert!((mean - 5.0).abs() < 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod adaptive;
mod cache;
mod measurement;
mod motion;
mod preprocess;
mod seed;
mod sir;
mod state;
mod trajectory;

pub use adaptive::KldConfig;
pub use cache::{CacheStats, EpisodeKey, ParticleCache};
pub use measurement::MeasurementModel;
pub use motion::MotionModel;
pub use preprocess::{
    derive_stream_seed, DegradationLevel, ParticlePreprocessor, PreprocessorConfig,
    SupervisionOptions,
};
pub use seed::{seed_intervals, seed_particles};
pub use sir::{resample_indices, resample_indices_n, ParticleFilter};
pub use state::{Heading, IndoorState};
pub use trajectory::{reconstruct_trajectory, TrajectoryConfig, TrajectoryPoint};

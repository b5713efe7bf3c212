//! # ripq-pf — particle filtering for indoor location inference
//!
//! Implements the paper's core technique (§3.1, §4.4, §4.5):
//!
//! * One Sampling Importance Resampling (SIR) filter over [`IndoorState`]
//!   particles: propagate, reweight against the readers within reach of
//!   each particle's edge, and resample with the paper's Algorithm 1
//!   (systematic resampling, [`resample_systematic`]). Each worker reuses
//!   its particle buffers across objects, so an iteration allocates
//!   nothing.
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
//! * [`reconstruct_trajectory`] — the same filter over an object's whole
//!   recorded history, one location estimate per second.
//! * [`ParticleCache`] — the cache management module (§4.5): store particle
//!   states per object and resume filtering from the cached timestamp;
//!   entries are invalidated as soon as a new device detects the object.
//!
//! # Example: Algorithm 2 for one object
//!
//! ```
//! use ripq_floorplan::{office_building, OfficeParams};
//! use ripq_graph::{build_walking_graph, AnchorObjectIndex, AnchorSet};
//! use ripq_pf::{FilterTables, ParticlePreprocessor, PreprocessorConfig, SupervisionOptions};
//! use ripq_rfid::{deploy_uniform, DataCollector, ObjectId};
//!
//! let plan = office_building(&OfficeParams::default()).unwrap();
//! let graph = build_walking_graph(&plan);
//! let anchors = AnchorSet::generate(&graph, &plan, 1.0);
//! let readers = deploy_uniform(&plan, &graph, 19, 2.0);
//!
//! // Reader 0 sees the object for three seconds, then it walks on unseen.
//! let object = ObjectId::new(1);
//! let mut collector = DataCollector::new();
//! for second in 0..10 {
//!     let seen = if second < 3 { vec![(object, readers[0].id())] } else { vec![] };
//!     collector.ingest_second(second, &seen);
//! }
//!
//! let tables = FilterTables::new(&graph, &readers);
//! let config = PreprocessorConfig::default();
//! let pre = ParticlePreprocessor::new(&graph, &anchors, &readers, &tables, config);
//! let mut index = AnchorObjectIndex::new();
//! let options = SupervisionOptions::default();
//! pre.process(7, &collector, &[object], 9, None, None, &options, &mut index);
//! // The particle cloud, snapped to anchors, is one probability distribution.
//! assert!((index.total_probability(&object) - 1.0).abs() < 1e-9);
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
    available_cores, derive_stream_seed, DegradationLevel, ParticlePreprocessor,
    PreprocessorConfig, SupervisionOptions, FAN_OUT_WORK,
};
pub use sir::{resample_systematic, FilterTables};
pub use state::{Heading, IndoorState};
pub use trajectory::{reconstruct_trajectory, TrajectoryConfig, TrajectoryPoint};

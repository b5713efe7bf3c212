//! # ripq-core — the indoor spatial query evaluation engine
//!
//! Ties every substrate together into the system of Fig. 3 of the EDBT
//! 2013 paper:
//!
//! ```text
//! raw readings ─→ event-driven collector ─→ query-aware optimizer ─→ C
//!                                │                                   │
//!                                ▼                                   ▼
//!                          cache module ◄──── particle-filter preprocessing
//!                                                      │
//!                                                      ▼  APtoObjHT
//!                                              query evaluation module
//! ```
//!
//! * [`RangeQuery`] / [`KnnQuery`] — registered probabilistic queries;
//! * [`PruningTable`] — the query-aware optimization module (§4.3):
//!   uncertain-region filtering for range queries and `sᵢ / lᵢ`
//!   network-distance pruning for kNN queries, over one table per pass;
//! * [`evaluate_range`] — **Algorithm 3**, with the hallway width-ratio and
//!   room area-ratio dimensional compensation of Fig. 6;
//! * [`evaluate_knn`] — **Algorithm 4**, expanding anchors outward from the
//!   query point until the accumulated probability reaches `k`;
//! * [`IndoorQuerySystem`] — the end-to-end facade: feed raw readings in,
//!   register queries, call [`IndoorQuerySystem::evaluate`] for answers;
//! * [`continuous`] — continuous range/kNN queries (the paper's stated
//!   future work): a [`continuous::SubscriptionRegistry`] turns each
//!   evaluation of the facade's registered queries into per-subscription
//!   deltas.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
pub mod clock;
mod closest_pairs;
pub mod continuous;
mod error;
mod knn_eval;
mod occupancy;
mod optimizer;
mod ptknn;
mod query;
mod range_eval;
mod result;
mod system;

pub use checkpoint::RecoveryOutcome;
pub use clock::{Clock, ClockInstant, TimingMode};
pub use closest_pairs::{evaluate_closest_pairs, ClosestPairsQuery, ObjectPair};
pub use error::RipqError;
pub use knn_eval::evaluate_knn;
pub use occupancy::{room_occupancy, OccupancyReport, RoomOccupancy};
pub use optimizer::{reader_distances, uncertain_region_radius, PruningTable};
pub use ptknn::{evaluate_ptknn, PtknnQuery};
pub use query::{KnnQuery, QueryId, RangeQuery};
pub use range_eval::evaluate_range;
pub use result::{ProbResult, ResultSet};
pub use ripq_obs::{Counter, MetricsSnapshot, Recorder};
pub use ripq_pf::DegradationLevel;
pub use system::{EvaluationReport, EvaluationTimings, IndoorQuerySystem, SystemConfig};

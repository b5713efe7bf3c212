//! # ripq-sim — simulator, ground truth and accuracy metrics
//!
//! Implements the seven-component simulator of §5.1 (Fig. 8):
//!
//! * [`TraceGenerator`] — the *true trace generator*: every object
//!   repeatedly picks a random room as its destination and walks the
//!   shortest indoor path there at a Gaussian N(1 m/s, 0.1) speed,
//!   dwelling in rooms between trips; true locations are recorded every
//!   second.
//! * [`ReadingGenerator`] — the *raw reading generator*: checks each
//!   object against the reader deployment through the stochastic
//!   [`ripq_rfid::SensingModel`] and emits per-second detections.
//! * [`FaultPlan`] / [`FaultInjector`] — a deterministic fault-injection
//!   layer between the reading generator and the collector: seeded
//!   drops, duplicates, bounded delivery jitter and per-reader burst
//!   outages for chaos testing the pipeline's robustness contract.
//! * [`GroundTruth`] — the *ground truth query evaluation* module: exact
//!   range memberships and exact network-distance kNN sets from the true
//!   traces.
//! * [`metrics`] — the *KL divergence* and *top-k success* modules plus
//!   kNN hit rates (§5.1's three accuracy metrics).
//! * [`Experiment`] / [`ExperimentParams`] — the harness that wires all of
//!   the above to both probabilistic methods (particle filter vs. symbolic
//!   model) and produces the numbers behind every figure of §5.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
mod experiment;
mod faults;
mod ground_truth;
pub mod metrics;
mod params;
mod readings;
mod trace;
pub mod transcript;
pub mod viz;
mod world;

pub use checkpoint::RecoveryOutcome;
pub use experiment::{AccuracyReport, Experiment};
pub use faults::{
    derive_fault_seed, random_outages, FaultInjector, FaultPlan, ReaderOutage, TaggedReading,
};
pub use ground_truth::GroundTruth;
pub use params::ExperimentParams;
pub use readings::ReadingGenerator;
pub use trace::{TraceGenerator, TrueTrace};
pub use transcript::{record_transcript, Transcript, TranscriptSpec};
pub use viz::SvgScene;
pub use world::SimWorld;

//! # ripq-rfid — RFID substrate for RIPQ
//!
//! Models the sensing side of the EDBT 2013 paper's setting: "a number of
//! RFID readers are deployed in hallways. Each user is attached with an
//! RFID tag, which can be identified by a reader when the user is within
//! the detection range of the reader" (§1).
//!
//! * [`Reader`] / [`deploy_uniform`] — readers placed on hallway
//!   centerlines with uniform spacing (the paper deploys 19 readers this
//!   way, §5) and disjoint activation ranges (§2.2).
//! * [`SensingModel`] — per-sample Bernoulli detection inside the
//!   activation range, reproducing the *false negatives* that make raw
//!   RFID data "inherently unreliable" (§1).
//! * [`DataCollector`] — the event-driven raw data collector of §4.1:
//!   aggregates tens of samples per second into one reader per object and
//!   second, and retains per object only the seconds that carried a
//!   detection in its two most recent detection episodes.
//! * [`HistoryCollector`] — §4.1's noted extension for historical
//!   queries: logs every per-second batch and replays the log up to any
//!   past second into a fresh [`DataCollector`], so historical answers run
//!   the one collector the live system runs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod collector;
mod deployment;
mod history;
mod object;
mod reader;
mod reading;
mod sensing;

pub use collector::DataCollector;
pub use deployment::{
    deploy, deploy_at_doors, deploy_random, deploy_uniform, ranges_disjoint, DeploymentStrategy,
};
pub use history::HistoryCollector;
pub use object::ObjectId;
pub use reader::{Reader, ReaderId};
pub use reading::RawReading;
pub use sensing::SensingModel;

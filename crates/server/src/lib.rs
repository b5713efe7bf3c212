//! # ripq-server — the streaming indoor spatial query daemon
//!
//! Turns the batch-oriented [`IndoorQuerySystem`](ripq_core::IndoorQuerySystem)
//! into a long-running service: clients stream length-prefixed JSON
//! frames of raw RFID readings over TCP or a Unix-domain socket,
//! register *continuous* range/kNN subscriptions, and receive per-tick
//! **delta** frames (which objects entered, left, or changed probability
//! in each result set) followed by event frames (geofence entered/left,
//! object unseen for longer than the particle filter's coast window).
//!
//! The layering is strict:
//!
//! ```text
//! bytes ─→ frame (length-prefix codec) ─→ protocol (JSON requests,
//!                                              │    delta/event lines)
//!       net (TCP/UDS shell + retry)  ◄── core (deterministic engine)
//!                      │                       │
//!            retry (backoff client)   checkpoint (server.ckpt)
//! ```
//!
//! Everything below `net` is IO-free and deterministic: replaying a
//! recorded frame transcript into [`ServerCore`] yields byte-identical
//! response lines and metrics JSON across runs and worker counts — the
//! property the transcript-replay test harness pins down. Crash
//! recovery writes one `server.ckpt` frame through
//! `ripq_core::checkpoint` — this crate's section (stream offsets,
//! unseen-alert state, subscriptions) in front of the engine's state — so
//! a restarted daemon resumes the delta stream exactly where the previous
//! life checkpointed, and a damaged file restores nothing.
//!
//! The daemon is also overload-hardened: `core` sheds work past
//! configurable admission limits with typed `busy` responses (a
//! deferred tick refills the budget, so evaluated ticks always see a
//! complete interval), and `retry` / `net::send_frames_with_retry` give
//! clients a seeded backoff protocol that provably converges to the
//! unthrottled byte stream.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod checkpoint;
pub mod core;
pub mod frame;
pub mod json;
pub mod net;
pub mod protocol;
pub mod retry;

pub use core::{ServerConfig, ServerCore, ServerRecovery};
pub use frame::{encode_frame, FrameDecoder, FrameError, MAX_FRAME_LEN};
pub use net::{send_frames, send_frames_with_retry, Endpoint, Server};
pub use protocol::{parse_request, Request};
pub use retry::{replay_with_retry, RetryOutcome, RetryPolicy};

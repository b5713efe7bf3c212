//! The deterministic server engine: frames in, response lines out.
//!
//! `ServerCore` is the whole daemon minus IO. It consumes decoded frame
//! payloads (or raw stream bytes via its embedded [`FrameDecoder`]) and
//! produces response frames as strings, in order. Because it never reads
//! a clock, never touches thread-dependent state and drives the
//! `IndoorQuerySystem` under logical timing, the full response stream is
//! a pure function of the input frame sequence — the transcript-replay
//! tests byte-compare it across runs and worker counts.

use crate::checkpoint::{SidecarState, SNAPSHOT_FILE};
use crate::frame::FrameDecoder;
use crate::protocol::{
    parse_request, render_busy, render_delta, render_error, render_event, render_ok, Request,
};
use ripq_core::checkpoint::{self, Recovered};
use ripq_core::clock::TimingMode;
use ripq_core::continuous::{SubscriptionKind, SubscriptionRegistry};
use ripq_core::{DegradationLevel, IndoorQuerySystem, Recorder, RipqError, SystemConfig};
use ripq_floorplan::FloorPlan;
use ripq_rfid::{ObjectId, ReaderId};
use std::collections::BTreeSet;
use std::path::PathBuf;

/// Server behavior knobs. Everything else — timing, observability —
/// is pinned to the deterministic settings the replay contract needs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServerConfig {
    /// Master seed for the underlying system's stochastic machinery.
    pub seed: u64,
    /// Worker threads for particle-filter preprocessing, as
    /// [`SystemConfig::parallelism`]: `None` (default) fans a tick's pass
    /// out over every core once it plans `ripq_pf::FAN_OUT_WORK`
    /// particle-seconds, `Some(n)` forces `n`. Results are bit-identical
    /// for every setting.
    pub workers: Option<usize>,
    /// Write a durable checkpoint after every N ticks (0 = only on
    /// explicit `checkpoint` frames). Needs a checkpoint directory.
    pub checkpoint_every_ticks: u64,
    /// Admission control: data frames (`reading`/`raw`) accepted per
    /// tick interval; excess frames get a typed `busy` response with a
    /// `retry_after_ticks` hint (0 = unbounded).
    pub max_frames_per_tick: u64,
    /// Admission control: open-subscription cap; excess `subscribe`
    /// frames get a `busy` response (0 = unbounded).
    pub max_subscriptions: u64,
    /// Admission control: response bytes (framed) per connection; once a
    /// connection has exceeded the cap, further data frames on it are
    /// shed (0 = unbounded). Only meaningful on the byte-stream path —
    /// direct `handle_frame` replay has no connection.
    pub max_conn_response_bytes: u64,
    /// Default per-tick evaluation deadline, overridable per request by
    /// the protocol's `budget` field (None = no deadline).
    pub query_budget: Option<u64>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            seed: 7,
            workers: None,
            checkpoint_every_ticks: 0,
            max_frames_per_tick: 0,
            max_subscriptions: 0,
            max_conn_response_bytes: 0,
            query_budget: None,
        }
    }
}

impl ServerConfig {
    /// The pinned system configuration this server runs: logical timing
    /// and observability on (both required for byte-stable replay),
    /// parallelism from [`ServerConfig::workers`].
    pub fn system_config(&self) -> SystemConfig {
        SystemConfig {
            timing: TimingMode::Logical,
            observability: true,
            parallelism: self.workers,
            query_budget: self.query_budget,
            ..SystemConfig::default()
        }
    }
}

/// How a [`ServerCore::recover`] call concluded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServerRecovery {
    /// No snapshot existed; the server starts fresh.
    ColdStart,
    /// `server.ckpt` restored. The replay driver skips `skip_frames`
    /// input frames; the resumed response stream continues at line
    /// `lines_emitted` of the uninterrupted output.
    Resumed {
        /// Input frames already covered by the snapshot.
        skip_frames: u64,
        /// Response lines already emitted before the snapshot.
        lines_emitted: u64,
    },
    /// A damaged, stale or invalid snapshot was moved aside. Nothing was
    /// restored: the core is exactly as it was built and starts cold.
    Quarantined {
        /// Where the damaged file went.
        path: PathBuf,
    },
}

/// The deterministic, IO-free server engine.
pub struct ServerCore {
    system: IndoorQuerySystem,
    registry: SubscriptionRegistry,
    recorder: Recorder,
    decoder: FrameDecoder,
    config: ServerConfig,
    checkpoint_dir: Option<PathBuf>,
    unseen_alerted: BTreeSet<ObjectId>,
    frames_processed: u64,
    lines_emitted: u64,
    last_tick: Option<u64>,
    ticks_since_checkpoint: u64,
    auto_checkpoint_due: bool,
    shutdown: bool,
    /// Data frames admitted since the last tick attempt (admission
    /// window for `max_frames_per_tick`).
    frames_this_interval: u64,
    /// Whether anything was shed since the last tick attempt. A tick
    /// arriving with this set is itself deferred (busy) — and refills
    /// the budget — so every *evaluated* tick saw a complete interval.
    shed_since_tick: bool,
    /// Framed response bytes emitted on the current byte-stream
    /// connection (for `max_conn_response_bytes`).
    conn_response_bytes: u64,
}

impl ServerCore {
    /// Builds a server over `plan`.
    pub fn new(plan: FloorPlan, config: ServerConfig) -> Self {
        let system = IndoorQuerySystem::new(plan, config.system_config(), config.seed);
        let recorder = system.recorder().clone();
        ServerCore {
            system,
            registry: SubscriptionRegistry::new(),
            recorder,
            decoder: FrameDecoder::new(),
            config,
            checkpoint_dir: None,
            unseen_alerted: BTreeSet::new(),
            frames_processed: 0,
            lines_emitted: 0,
            last_tick: None,
            ticks_since_checkpoint: 0,
            auto_checkpoint_due: false,
            shutdown: false,
            frames_this_interval: 0,
            shed_since_tick: false,
            conn_response_bytes: 0,
        }
    }

    /// Configures where the durable snapshot, `server.ckpt`, is written.
    pub fn set_checkpoint_dir(&mut self, dir: impl Into<PathBuf>) {
        self.checkpoint_dir = Some(dir.into());
    }

    /// The underlying query system (read access).
    pub fn system(&self) -> &IndoorQuerySystem {
        &self.system
    }

    /// Open subscriptions.
    pub fn subscriptions(&self) -> &SubscriptionRegistry {
        &self.registry
    }

    /// Complete input frames handled so far (well-formed or rejected).
    pub fn frames_processed(&self) -> u64 {
        self.frames_processed
    }

    /// Response lines emitted so far.
    pub fn lines_emitted(&self) -> u64 {
        self.lines_emitted
    }

    /// `true` once a `shutdown` frame was acknowledged.
    pub fn is_shutdown(&self) -> bool {
        self.shutdown
    }

    /// The current cumulative metrics snapshot as deterministic JSON.
    pub fn metrics_json(&self) -> String {
        self.recorder.snapshot().to_json()
    }

    /// Attempts to restore a previous life from `<dir>/server.ckpt` and
    /// makes `dir` the checkpoint directory. Call on a freshly built core
    /// (no subscriptions, no frames handled). See [`ServerRecovery`] for
    /// the contract; an unreadable file is an error and stays in place.
    pub fn recover(&mut self, dir: impl Into<PathBuf>) -> Result<ServerRecovery, RipqError> {
        let dir = dir.into();
        let path = dir.join(SNAPSHOT_FILE);
        self.checkpoint_dir = Some(dir);
        Ok(
            match checkpoint::recover(&mut self.system, &path, SidecarState::decode)? {
                Recovered::ColdStart => ServerRecovery::ColdStart,
                Recovered::Resumed { section, .. } => self.apply(section),
                Recovered::Quarantined { path } => ServerRecovery::Quarantined { path },
            },
        )
    }

    /// Applies a server section after the engine state it was saved with
    /// has been restored. Decoding validated every subscription with the
    /// checks `subscribe` applies, so on a freshly built core nothing here
    /// can fail.
    fn apply(&mut self, state: SidecarState) -> ServerRecovery {
        // Re-register subscriptions in id order. Engine QueryIds may
        // differ from the previous life; the subscription id is the
        // stable identity and results never depend on QueryId values.
        for (sub, kind, current) in state.subscriptions {
            let opened = self.open_subscription(sub, kind);
            debug_assert!(opened.is_ok(), "subscription {sub}: {opened:?}");
            if opened.is_ok() {
                self.registry.restore_current(sub, current);
            }
        }
        self.recorder
            .set_gauge("server.subscriptions_active", self.registry.len() as u64);
        self.frames_processed = state.frames_processed;
        self.lines_emitted = state.lines_emitted;
        self.last_tick = state.last_tick;
        self.unseen_alerted = state.unseen_alerted;
        self.ticks_since_checkpoint = 0;
        ServerRecovery::Resumed {
            skip_frames: state.frames_processed,
            lines_emitted: state.lines_emitted,
        }
    }

    /// Feeds raw stream bytes through the embedded frame decoder and
    /// handles every complete frame. Frame-level errors (oversized,
    /// empty) become error lines and the decoder resyncs, so one bad
    /// frame never takes later ones down.
    pub fn ingest_bytes(&mut self, chunk: &[u8]) -> Vec<String> {
        self.decoder.push(chunk);
        let mut out = Vec::new();
        while !self.shutdown {
            match self.decoder.next_frame() {
                None => break,
                Some(Ok(payload)) => out.extend(self.handle_frame(&payload)),
                Some(Err(e)) => {
                    self.recorder.add("server.frames_rejected", 1);
                    out.push(render_error(&format!("frame error: {e}")));
                    self.lines_emitted += 1;
                }
            }
        }
        // Account framed response bytes against the per-connection cap
        // (4-byte length prefix per line on the wire).
        for line in &out {
            self.conn_response_bytes += line.len() as u64 + 4;
        }
        out
    }

    /// Declares end-of-stream on the embedded decoder: a pending partial
    /// frame becomes a final error line. The decoder is reset afterwards
    /// so a following stream (next connection) starts clean.
    pub fn finish_input(&mut self) -> Vec<String> {
        let out = match self.decoder.finish() {
            Ok(()) => Vec::new(),
            Err(e) => {
                self.recorder.add("server.frames_rejected", 1);
                self.lines_emitted += 1;
                vec![render_error(&format!("frame error: {e}"))]
            }
        };
        self.decoder.reset();
        self.conn_response_bytes = 0;
        out
    }

    /// Handles one complete frame payload and returns its response
    /// lines. This is the replay entry point: feeding the same payload
    /// sequence to a fresh core always produces the same lines.
    pub fn handle_frame(&mut self, payload: &[u8]) -> Vec<String> {
        let mut out = Vec::new();
        let request = parse_request(payload).and_then(|request| {
            // The system indexes its deployment by reader id, so a data
            // frame naming a reader it does not have is refused whole,
            // before admission and before any of it is ingested.
            match unknown_reader(&request, self.system.readers().len()) {
                Some(reader) => Err(format!("unknown reader {}", reader.raw())),
                None => Ok(request),
            }
        });
        match request {
            Err(message) => {
                self.recorder.add("server.frames_rejected", 1);
                out.push(render_error(&message));
            }
            Ok(request) => {
                self.recorder.add("server.frames_ingested", 1);
                self.dispatch(request, &mut out);
            }
        }
        self.frames_processed += 1;
        self.lines_emitted += out.len() as u64;
        if self.auto_checkpoint_due {
            self.auto_checkpoint_due = false;
            // Best-effort, after this frame's accounting is final so the
            // snapshot's offsets point exactly past it.
            if self
                .write_checkpoint(self.frames_processed, self.lines_emitted)
                .is_err()
            {
                self.recorder.add("server.checkpoint_errors", 1);
            }
        }
        out
    }

    /// The admission gate: decides whether `request` is shed under the
    /// configured overload limits, returning the `busy` line if so. Data
    /// frames are bounded per tick interval (and by the connection byte
    /// cap); subscribes by the registry cap. Any shed arms tick
    /// deferral, so the next tick refills the budget instead of
    /// evaluating a torn interval.
    fn admission(&mut self, request: &Request) -> Option<String> {
        let (op, second) = match request {
            Request::Readings { second, .. } => ("reading", Some(*second)),
            Request::Raw { second, .. } => ("raw", Some(*second)),
            Request::Subscribe { sub, .. } => {
                if self.config.max_subscriptions > 0
                    && self.registry.len() as u64 >= self.config.max_subscriptions
                {
                    self.recorder.add("server.overload.subscriptions_shed", 1);
                    self.recorder.add("server.overload.busy_responses", 1);
                    self.shed_since_tick = true;
                    return Some(render_busy("subscribe", &[("sub", sub.to_string())], 1));
                }
                return None;
            }
            _ => return None,
        };
        let second = second.unwrap_or(0);
        if self.config.max_conn_response_bytes > 0
            && self.conn_response_bytes >= self.config.max_conn_response_bytes
        {
            self.recorder.add("server.overload.conn_bytes_shed", 1);
            self.recorder.add("server.overload.busy_responses", 1);
            self.shed_since_tick = true;
            return Some(render_busy(op, &[("second", second.to_string())], 1));
        }
        if self.config.max_frames_per_tick > 0 {
            if self.frames_this_interval >= self.config.max_frames_per_tick {
                self.recorder.add("server.overload.frames_shed", 1);
                self.recorder.add("server.overload.busy_responses", 1);
                self.shed_since_tick = true;
                return Some(render_busy(op, &[("second", second.to_string())], 1));
            }
            self.frames_this_interval += 1;
        }
        None
    }

    fn dispatch(&mut self, request: Request, out: &mut Vec<String>) {
        if let Some(busy) = self.admission(&request) {
            out.push(busy);
            return;
        }
        match request {
            Request::Readings { second, detections } => {
                self.system.ingest_detections(second, &detections);
                out.push(render_ok(
                    "reading",
                    &[
                        ("second", second.to_string()),
                        ("count", detections.len().to_string()),
                    ],
                ));
            }
            Request::Raw { second, samples } => {
                self.system.ingest_raw(second, &samples);
                out.push(render_ok(
                    "raw",
                    &[
                        ("second", second.to_string()),
                        ("count", samples.len().to_string()),
                    ],
                ));
            }
            Request::Subscribe { sub, kind } => self.subscribe(sub, kind, out),
            Request::Unsubscribe { sub } => match self.registry.remove(sub) {
                Some(s) => {
                    let _ = self.system.deregister(s.query);
                    self.recorder.add("server.subscriptions_closed", 1);
                    self.recorder
                        .set_gauge("server.subscriptions_active", self.registry.len() as u64);
                    out.push(render_ok("unsubscribe", &[("sub", sub.to_string())]));
                }
                None => out.push(render_error(&format!("unknown subscription {sub}"))),
            },
            Request::Tick { second, budget } => {
                if self.shed_since_tick {
                    // Something was shed this interval: the collector
                    // timeline is incomplete, so evaluating now would
                    // diverge from the unthrottled stream. Defer the
                    // tick, refill the budget, and let the client retry
                    // — resending the shed frames first.
                    self.shed_since_tick = false;
                    self.frames_this_interval = 0;
                    self.recorder.add("server.overload.ticks_deferred", 1);
                    self.recorder.add("server.overload.busy_responses", 1);
                    out.push(render_busy("tick", &[("second", second.to_string())], 1));
                } else {
                    self.frames_this_interval = 0;
                    self.tick(second, budget, out);
                }
            }
            Request::Metrics => out.push(self.metrics_json()),
            Request::Checkpoint => {
                // Offsets include this frame and its single ack line —
                // both success and failure paths emit exactly one.
                let frames_after = self.frames_processed + 1;
                let lines_after = self.lines_emitted + out.len() as u64 + 1;
                match self.write_checkpoint(frames_after, lines_after) {
                    Ok(()) => out.push(render_ok("checkpoint", &[])),
                    Err(e) => out.push(render_error(&e.to_string())),
                }
            }
            Request::Shutdown => {
                // Graceful: persist the snapshot before the ack so an
                // operator-initiated stop never races the checkpoint
                // cadence. Best-effort — a failed write is surfaced via
                // counters, never blocks shutdown.
                if self.checkpoint_dir.is_some() {
                    let frames_after = self.frames_processed + 1;
                    let lines_after = self.lines_emitted + out.len() as u64 + 1;
                    if self.write_checkpoint(frames_after, lines_after).is_err() {
                        self.recorder.add("server.checkpoint_errors", 1);
                    }
                }
                self.shutdown = true;
                out.push(render_ok("shutdown", &[]));
            }
        }
    }

    fn subscribe(&mut self, sub: u64, kind: SubscriptionKind, out: &mut Vec<String>) {
        match self.open_subscription(sub, kind) {
            Ok(()) => {
                self.recorder.add("server.subscriptions_opened", 1);
                self.recorder
                    .set_gauge("server.subscriptions_active", self.registry.len() as u64);
                out.push(render_ok("subscribe", &[("sub", sub.to_string())]));
            }
            Err(e) => out.push(render_error(&e.to_string())),
        }
    }

    /// Registers `kind` with the engine and files it under `sub`, taking
    /// the engine query back out if the id is already in use.
    fn open_subscription(&mut self, sub: u64, kind: SubscriptionKind) -> Result<(), RipqError> {
        let query = match kind {
            SubscriptionKind::Range(window) => self.system.register_range(window),
            SubscriptionKind::Knn(point, k) => self.system.register_knn(point, k),
        }?;
        if let Err(e) = self.registry.insert(sub, kind, query) {
            let _ = self.system.deregister(query);
            return Err(e);
        }
        Ok(())
    }

    fn tick(&mut self, second: u64, budget: Option<u64>, out: &mut Vec<String>) {
        let effective_budget = budget.or(self.config.query_budget);
        let report = self.system.evaluate_budgeted(second, effective_budget);
        let worst_degradation = report
            .degradation
            .values()
            .chain(report.object_degradation.values())
            .copied()
            .max()
            .unwrap_or(DegradationLevel::Full);
        let deltas = self.registry.deltas(&report);
        // Event lines follow every delta line of the tick: geofence
        // crossings in subscription order, then silent objects.
        let mut events: Vec<String> = Vec::new();
        for (sub, delta) in &deltas {
            out.push(render_delta(*sub, second, delta));
            // Geofence semantics apply to range subscriptions: their
            // window is the fence.
            let is_range = matches!(
                self.registry.get(*sub).map(|s| s.kind),
                Some(SubscriptionKind::Range(_))
            );
            if is_range {
                let entered = delta.appeared.iter().map(|(o, _)| ("geofence_entered", o));
                let left = delta.disappeared.iter().map(|o| ("geofence_left", o));
                for (event, object) in entered.chain(left) {
                    events.push(render_event(
                        event,
                        &[
                            ("sub", *sub),
                            ("object", u64::from(object.raw())),
                            ("second", second),
                        ],
                    ));
                }
            }
        }
        // Silence detection: one alert per silent episode, re-armed by
        // any re-detection. The threshold is the filter's coast window
        // (Algorithm 2 line 6): an object silent longer has left it. The
        // collector iterates a hash map, so the silent list is sorted by
        // object id to keep event order stable.
        let unseen_after = self.system.config().preprocess.coast_seconds;
        let mut silent: Vec<(ObjectId, u64)> = self
            .system
            .collector()
            .objects()
            .filter_map(|o| {
                self.system
                    .collector()
                    .last_detection(o)
                    .map(|(_, last)| (o, last))
            })
            .collect();
        silent.sort_unstable_by_key(|&(object, _)| object);
        for (object, last_seen) in silent {
            if second.saturating_sub(last_seen) > unseen_after {
                if self.unseen_alerted.insert(object) {
                    events.push(render_event(
                        "object_unseen",
                        &[
                            ("object", u64::from(object.raw())),
                            ("second", second),
                            ("last_seen", last_seen),
                        ],
                    ));
                }
            } else {
                self.unseen_alerted.remove(&object);
            }
        }
        self.recorder.add("server.ticks", 1);
        self.recorder
            .add("server.deltas_emitted", deltas.len() as u64);
        self.recorder
            .add("server.events_fired", events.len() as u64);
        let mut ack_fields = vec![
            ("second", second.to_string()),
            ("deltas", deltas.len().to_string()),
            ("events", events.len().to_string()),
        ];
        out.append(&mut events);
        // The degradation tag appears only when a per-request deadline
        // was supplied or evaluation actually degraded — existing golden
        // transcripts (no budget, Full fidelity) are unchanged.
        if budget.is_some() || worst_degradation > DegradationLevel::Full {
            ack_fields.push(("degradation", format!("\"{worst_degradation}\"")));
        }
        out.push(render_ok("tick", &ack_fields));
        self.last_tick = Some(second);
        if self.config.checkpoint_every_ticks > 0 && self.checkpoint_dir.is_some() {
            self.ticks_since_checkpoint += 1;
            if self.ticks_since_checkpoint >= self.config.checkpoint_every_ticks {
                self.ticks_since_checkpoint = 0;
                self.auto_checkpoint_due = true;
            }
        }
    }

    /// Writes `server.ckpt`: the server section, recording the given
    /// final frame/line offsets, then the engine state.
    fn write_checkpoint(&self, frames_processed: u64, lines_emitted: u64) -> Result<(), RipqError> {
        let Some(dir) = &self.checkpoint_dir else {
            return Err(RipqError::Io(
                "no checkpoint directory configured".to_string(),
            ));
        };
        let state = SidecarState::capture(
            frames_processed,
            lines_emitted,
            self.last_tick,
            &self.unseen_alerted,
            &self.registry,
        );
        checkpoint::save(&self.system, &dir.join(SNAPSHOT_FILE), |w| state.encode(w))?;
        self.recorder.add("server.checkpoints_written", 1);
        Ok(())
    }
}

/// The first reader id a data frame names that is not below `readers`,
/// the size of the deployment.
fn unknown_reader(request: &Request, readers: usize) -> Option<ReaderId> {
    let unknown = |r: &ReaderId| r.index() >= readers;
    match request {
        Request::Readings { detections, .. } => detections.iter().map(|&(_, r)| r).find(unknown),
        Request::Raw { samples, .. } => samples.iter().map(|s| s.reader).find(unknown),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::encode_frame;
    use ripq_floorplan::{office_building, OfficeParams};

    fn core() -> ServerCore {
        let plan = office_building(&OfficeParams::default()).unwrap();
        ServerCore::new(plan, ServerConfig::default())
    }

    fn one(core: &mut ServerCore, payload: &str) -> Vec<String> {
        core.handle_frame(payload.as_bytes())
    }

    fn checkpoint_errors(core: &ServerCore) -> u64 {
        let snap = core.system().recorder().snapshot();
        snap.counters
            .get("server.checkpoint_errors")
            .copied()
            .unwrap_or(0)
    }

    #[test]
    fn reading_subscribe_tick_produces_deltas_and_events() {
        let mut core = core();
        let reader = core.system().readers()[2];
        let window = ripq_geom::Rect::centered(reader.position(), 10.0, 6.0);
        let sub_frame = format!(
            "{{\"op\":\"subscribe\",\"sub\":4,\"range\":[{},{},{},{}]}}",
            window.min().x,
            window.min().y,
            window.width(),
            window.height()
        );
        assert_eq!(
            one(&mut core, &sub_frame),
            vec!["{\"ok\":\"subscribe\",\"sub\":4}"]
        );
        for s in 0..3u64 {
            let frame = format!(
                "{{\"op\":\"reading\",\"second\":{s},\"readings\":[[0,{}]]}}",
                reader.id().raw()
            );
            let lines = one(&mut core, &frame);
            assert_eq!(lines.len(), 1);
            assert!(lines[0].starts_with("{\"ok\":\"reading\""));
        }
        let lines = one(&mut core, "{\"op\":\"tick\",\"second\":3}");
        // Delta, geofence event, tick ack; the ack counts the event lines.
        assert!(lines[0].starts_with("{\"delta\":{\"sub\":4,"));
        assert!(lines
            .iter()
            .any(|l| l.contains("\"event\":\"geofence_entered\"")));
        let fired = lines
            .iter()
            .filter(|l| l.starts_with("{\"event\":"))
            .count();
        let ack = lines.last().unwrap();
        assert!(ack.starts_with("{\"ok\":\"tick\""));
        assert!(ack.ends_with(&format!(",\"events\":{fired}}}")), "{ack}");
        assert_eq!(core.frames_processed(), 5);
        assert_eq!(core.lines_emitted() as usize, 4 + lines.len());

        // Unseen alert fires once the object stays silent past the coast
        // window (60 s).
        let lines = one(&mut core, "{\"op\":\"tick\",\"second\":70}");
        assert!(lines
            .iter()
            .any(|l| l.contains("\"event\":\"object_unseen\"")));
        let again = one(&mut core, "{\"op\":\"tick\",\"second\":71}");
        assert!(
            !again.iter().any(|l| l.contains("object_unseen")),
            "one alert per silent episode: {again:?}"
        );
    }

    #[test]
    fn unseen_events_come_out_in_object_id_order() {
        // Sixteen objects fall silent in the same tick. The collector
        // iterates a hash map, so two fresh servers only agree on the
        // event order because the silent list is sorted.
        let readings: Vec<String> = (0..16u32).map(|o| format!("[{o},{}]", o % 19)).collect();
        let frames = [
            format!(
                "{{\"op\":\"reading\",\"second\":0,\"readings\":[{}]}}",
                readings.join(",")
            ),
            "{\"op\":\"tick\",\"second\":70}".to_string(),
        ];
        let run = || -> Vec<String> {
            let mut core = core();
            frames
                .iter()
                .flat_map(|f| core.handle_frame(f.as_bytes()))
                .collect()
        };
        let first = run();
        assert_eq!(first, run(), "same frames, same lines");
        let unseen: Vec<u32> = first
            .iter()
            .filter_map(|l| {
                let rest = l.split("\"event\":\"object_unseen\",\"object\":").nth(1)?;
                rest.split(',').next()?.parse().ok()
            })
            .collect();
        assert_eq!(unseen, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn replay_is_deterministic_across_worker_counts() {
        let reader_pos = core().system().readers()[2].position();
        let window = ripq_geom::Rect::centered(reader_pos, 10.0, 6.0);
        let frames: Vec<String> = {
            let mut f = vec![format!(
                "{{\"op\":\"subscribe\",\"sub\":1,\"range\":[{},{},{},{}]}}",
                window.min().x,
                window.min().y,
                window.width(),
                window.height()
            )];
            f.push(format!(
                "{{\"op\":\"subscribe\",\"sub\":2,\"point\":[{},{}],\"k\":2}}",
                reader_pos.x, reader_pos.y
            ));
            for s in 0..6u64 {
                f.push(format!(
                    "{{\"op\":\"reading\",\"second\":{s},\"readings\":[[0,2],[1,{}]]}}",
                    (s % 3) + 4
                ));
            }
            f.push("{\"op\":\"tick\",\"second\":6}".to_string());
            f.push("{\"op\":\"metrics\"}".to_string());
            f.push("{\"op\":\"shutdown\"}".to_string());
            f
        };
        let run = |workers: Option<usize>| -> Vec<String> {
            let plan = office_building(&OfficeParams::default()).unwrap();
            let mut core = ServerCore::new(
                plan,
                ServerConfig {
                    workers,
                    ..ServerConfig::default()
                },
            );
            let mut out = Vec::new();
            for f in &frames {
                out.extend(core.handle_frame(f.as_bytes()));
            }
            assert!(core.is_shutdown());
            out
        };
        let a = run(None);
        let b = run(Some(2));
        let c = run(Some(4));
        assert_eq!(a, b, "worker count must not change output");
        assert_eq!(a, c);
    }

    #[test]
    fn malformed_frames_reject_without_poisoning_the_stream() {
        let mut core = core();
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&encode_frame(b"not json at all"));
        bytes.extend_from_slice(&0u32.to_be_bytes()); // empty frame
        bytes.extend_from_slice(&encode_frame(b"{\"op\":\"tick\",\"second\":0}"));
        let lines = core.ingest_bytes(&bytes);
        assert!(lines[0].starts_with("{\"error\":"));
        assert!(lines[1].starts_with("{\"error\":"));
        assert!(lines.last().unwrap().starts_with("{\"ok\":\"tick\""));
        assert!(core.finish_input().is_empty());
        // A cut-off frame surfaces at end of stream.
        core.decoder.push(&[0, 0, 0]);
        let tail = core.finish_input();
        assert_eq!(tail.len(), 1);
        assert!(tail[0].contains("mid-frame"));
    }

    #[test]
    fn subscription_lifecycle_and_errors() {
        let mut core = core();
        assert_eq!(
            one(
                &mut core,
                "{\"op\":\"subscribe\",\"sub\":1,\"range\":[0,0,5,5]}"
            )
            .len(),
            1
        );
        let dup = one(
            &mut core,
            "{\"op\":\"subscribe\",\"sub\":1,\"range\":[0,0,5,5]}",
        );
        assert!(dup[0].contains("already registered"));
        // Query rollback happened: only sub 1's query remains.
        assert_eq!(core.system().query_count(), 1);
        let bad = one(
            &mut core,
            "{\"op\":\"subscribe\",\"sub\":2,\"point\":[0,0],\"k\":0}",
        );
        assert!(bad[0].starts_with("{\"error\":"));
        // `1e308 + 1e308` overflows: an infinitely wide window with no
        // height, whose area is NaN, is refused like an empty one.
        let nan_area = one(
            &mut core,
            "{\"op\":\"subscribe\",\"sub\":2,\"range\":[1e308,0,1e308,0]}",
        );
        assert!(nan_area[0].contains("zero area"), "{nan_area:?}");
        assert_eq!(core.system().query_count(), 1);
        assert_eq!(
            one(&mut core, "{\"op\":\"unsubscribe\",\"sub\":1}"),
            vec!["{\"ok\":\"unsubscribe\",\"sub\":1}"]
        );
        assert_eq!(core.system().query_count(), 0);
        assert!(one(&mut core, "{\"op\":\"unsubscribe\",\"sub\":1}")[0].contains("unknown"));
    }

    #[test]
    fn checkpoint_without_dir_is_a_clean_error() {
        let mut core = core();
        let lines = one(&mut core, "{\"op\":\"checkpoint\"}");
        assert!(lines[0].contains("no checkpoint directory"));
        assert_eq!(checkpoint_errors(&core), 0);
    }

    #[test]
    fn frames_naming_an_unknown_reader_are_refused_whole() {
        let mut core = overloaded_core(1);
        let readers = core.system().readers().len();
        let bad = [
            format!("{{\"op\":\"reading\",\"second\":0,\"readings\":[[3,0],[7,{readers}]]}}"),
            "{\"op\":\"raw\",\"second\":0,\"samples\":[[0.5,7,4000000000]]}".to_string(),
        ];
        assert_eq!(
            one(&mut core, &bad[0]),
            vec![format!("{{\"error\":\"unknown reader {readers}\"}}")]
        );
        assert_eq!(
            one(&mut core, &bad[1]),
            vec!["{\"error\":\"unknown reader 4000000000\"}"]
        );
        let counters = core.system().recorder().snapshot().counters;
        assert_eq!(counters.get("server.frames_rejected"), Some(&2));
        assert_eq!(
            counters.get("server.frames_ingested").copied().unwrap_or(0),
            0
        );
        // Nothing was ingested, and the one-frame admission budget is
        // still there for the valid reading.
        assert!(core.system().collector().objects().next().is_none());
        let ok = one(
            &mut core,
            "{\"op\":\"reading\",\"second\":0,\"readings\":[[7,0]]}",
        );
        assert_eq!(ok, vec!["{\"ok\":\"reading\",\"second\":0,\"count\":1}"]);
        let tick = one(&mut core, "{\"op\":\"tick\",\"second\":1}");
        assert!(
            tick.last().unwrap().starts_with("{\"ok\":\"tick\""),
            "{tick:?}"
        );
    }

    #[test]
    fn metrics_frame_is_deterministic_json() {
        let mut core = core();
        let m1 = one(&mut core, "{\"op\":\"metrics\"}");
        assert_eq!(m1.len(), 1);
        assert!(m1[0].contains("\"counters\""));
        assert_eq!(core.metrics_json(), core.metrics_json());
    }

    fn overloaded_core(max_frames_per_tick: u64) -> ServerCore {
        let plan = office_building(&OfficeParams::default()).unwrap();
        ServerCore::new(
            plan,
            ServerConfig {
                max_frames_per_tick,
                ..ServerConfig::default()
            },
        )
    }

    #[test]
    fn frames_past_the_budget_get_busy_and_the_tick_defers_once() {
        let mut core = overloaded_core(2);
        for s in 0..2u64 {
            let lines = one(
                &mut core,
                &format!("{{\"op\":\"reading\",\"second\":{s},\"readings\":[[0,1]]}}"),
            );
            assert!(lines[0].starts_with("{\"ok\":\"reading\""), "{lines:?}");
        }
        let shed = one(
            &mut core,
            "{\"op\":\"reading\",\"second\":2,\"readings\":[[0,1]]}",
        );
        assert_eq!(
            shed,
            vec!["{\"busy\":\"reading\",\"second\":2,\"retry_after_ticks\":1}"]
        );
        // The tick after a shed is deferred and refills the budget.
        let deferred = one(&mut core, "{\"op\":\"tick\",\"second\":3}");
        assert_eq!(
            deferred,
            vec!["{\"busy\":\"tick\",\"second\":3,\"retry_after_ticks\":1}"]
        );
        // Resend of the shed frame is now admitted; the retried tick runs.
        let resent = one(
            &mut core,
            "{\"op\":\"reading\",\"second\":2,\"readings\":[[0,1]]}",
        );
        assert!(resent[0].starts_with("{\"ok\":\"reading\""));
        let ticked = one(&mut core, "{\"op\":\"tick\",\"second\":3}");
        assert!(ticked.last().unwrap().starts_with("{\"ok\":\"tick\""));
        let metrics = core.metrics_json();
        assert!(metrics.contains("server.overload.frames_shed"));
        assert!(metrics.contains("server.overload.ticks_deferred"));
    }

    #[test]
    fn subscription_cap_sheds_subscribes() {
        let plan = office_building(&OfficeParams::default()).unwrap();
        let mut core = ServerCore::new(
            plan,
            ServerConfig {
                max_subscriptions: 1,
                ..ServerConfig::default()
            },
        );
        assert!(one(
            &mut core,
            "{\"op\":\"subscribe\",\"sub\":1,\"range\":[0,0,5,5]}"
        )[0]
        .starts_with("{\"ok\":"));
        let shed = one(
            &mut core,
            "{\"op\":\"subscribe\",\"sub\":2,\"range\":[0,0,5,5]}",
        );
        assert_eq!(
            shed,
            vec!["{\"busy\":\"subscribe\",\"sub\":2,\"retry_after_ticks\":1}"]
        );
        // Freeing a slot lets the retried subscribe in (after the
        // deferred tick clears the shed flag).
        one(&mut core, "{\"op\":\"unsubscribe\",\"sub\":1}");
        one(&mut core, "{\"op\":\"tick\",\"second\":0}");
        let retried = one(
            &mut core,
            "{\"op\":\"subscribe\",\"sub\":2,\"range\":[0,0,5,5]}",
        );
        assert_eq!(retried, vec!["{\"ok\":\"subscribe\",\"sub\":2}"]);
    }

    #[test]
    fn per_request_budget_tags_the_tick_ack() {
        let mut core = core();
        // A whole-floor subscription so every detected object answers —
        // the degradation tag is the worst level among answering objects.
        one(
            &mut core,
            "{\"op\":\"subscribe\",\"sub\":1,\"range\":[-500,-500,1000,1000]}",
        );
        let readers: Vec<u32> = core
            .system()
            .readers()
            .iter()
            .map(|r| r.id().raw())
            .collect();
        let feed = |core: &mut ServerCore, s: u64| {
            let readings: Vec<String> = readers
                .iter()
                .enumerate()
                .map(|(o, r)| format!("[{o},{r}]"))
                .collect();
            one(
                core,
                &format!(
                    "{{\"op\":\"reading\",\"second\":{s},\"readings\":[{}]}}",
                    readings.join(",")
                ),
            );
        };
        for s in 0..3u64 {
            feed(&mut core, s);
        }
        // A generous explicit budget stays at full fidelity but is tagged.
        let lines = one(
            &mut core,
            "{\"op\":\"tick\",\"second\":3,\"budget\":100000000}",
        );
        let ack = lines.last().unwrap();
        assert!(ack.contains("\"degradation\":\"full\""), "{ack}");
        // A starvation budget degrades below Full.
        for s in 4..6u64 {
            feed(&mut core, s);
        }
        let lines = one(&mut core, "{\"op\":\"tick\",\"second\":6,\"budget\":1}");
        let ack = lines.last().unwrap();
        assert!(ack.contains("\"degradation\":"), "{ack}");
        assert!(!ack.contains("\"degradation\":\"full\""), "{ack}");
        // No budget, no degradation → no tag (golden stability).
        feed(&mut core, 7);
        let lines = one(&mut core, "{\"op\":\"tick\",\"second\":8}");
        assert!(!lines.last().unwrap().contains("degradation"));
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ripq_server_core_{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn graceful_shutdown_checkpoints_before_the_ack() {
        let dir = temp_dir("graceful_shutdown");
        let mut server = core();
        server.set_checkpoint_dir(&dir);
        one(
            &mut server,
            "{\"op\":\"subscribe\",\"sub\":3,\"range\":[0,0,9,9]}",
        );
        let lines = one(&mut server, "{\"op\":\"shutdown\"}");
        assert_eq!(lines, vec!["{\"ok\":\"shutdown\"}"]);
        assert!(server.is_shutdown());
        assert_eq!(checkpoint_errors(&server), 0);
        let files: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(files, vec![SNAPSHOT_FILE], "one snapshot file");
        let mut restored = core();
        assert_eq!(
            restored.recover(&dir).unwrap(),
            ServerRecovery::Resumed {
                skip_frames: 2,
                lines_emitted: 2
            },
            "offsets include the shutdown frame"
        );
        assert_eq!(restored.subscriptions().len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A `server.ckpt` whose frame is intact but whose content cannot be
    /// restored is quarantined, and the recovering core is left exactly
    /// as it was built.
    #[test]
    fn invalid_snapshots_are_quarantined_and_commit_nothing() {
        use ripq_persist::{open_snapshot, seal_snapshot, write_atomic, ByteReader, ByteWriter};

        // A valid snapshot to tamper with.
        let source_dir = temp_dir("invalid_source");
        let mut source = core();
        source.set_checkpoint_dir(&source_dir);
        one(
            &mut source,
            "{\"op\":\"subscribe\",\"sub\":1,\"range\":[0,0,9,9]}",
        );
        one(
            &mut source,
            "{\"op\":\"reading\",\"second\":0,\"readings\":[[0,2]]}",
        );
        one(&mut source, "{\"op\":\"checkpoint\"}");
        let frame = std::fs::read(source_dir.join(SNAPSHOT_FILE)).unwrap();
        let payload = open_snapshot(&frame).unwrap();
        let mut r = ByteReader::new(payload);
        let valid = SidecarState::decode(&mut r).unwrap();
        let engine = &payload[payload.len() - r.remaining()..];
        let section = |state: &SidecarState| {
            let mut w = ByteWriter::new();
            state.encode(&mut w);
            w.into_bytes()
        };
        let with_sub = |sub: u64, kind: SubscriptionKind| {
            let mut state = valid.clone();
            state.subscriptions.push((sub, kind, Default::default()));
            [section(&state), engine.to_vec()].concat()
        };
        // The section as the executor layer wrote it: one closed `frames`
        // breaker and an empty dead-letter queue after the subscriptions.
        let executor_layout = {
            let mut w = ByteWriter::new();
            w.put_seq_len(1);
            w.put_str("frames");
            w.put_u32(0);
            w.put_u8(0);
            w.put_seq_len(0);
            [section(&valid), w.into_bytes(), engine.to_vec()].concat()
        };
        let point = ripq_geom::Point2::new(2.0, 2.0);
        let cases = [
            ("k = 0", with_sub(2, SubscriptionKind::Knn(point, 0))),
            (
                "zero-area window",
                with_sub(
                    2,
                    SubscriptionKind::Range(ripq_geom::Rect::new(0.0, 0.0, 0.0, 5.0)),
                ),
            ),
            (
                "NaN window",
                with_sub(
                    2,
                    SubscriptionKind::Range(ripq_geom::Rect::new(f64::NAN, 0.0, 5.0, 5.0)),
                ),
            ),
            (
                "overflowing window",
                with_sub(
                    2,
                    SubscriptionKind::Range(ripq_geom::Rect::new(1e308, 0.0, 1e308, 0.0)),
                ),
            ),
            ("duplicate id", with_sub(1, SubscriptionKind::Knn(point, 1))),
            (
                "trailing bytes",
                [section(&valid), engine.to_vec(), vec![0]].concat(),
            ),
            // The older two-file layout's `server.ckpt`: a version byte
            // and the section, with the engine state in another file.
            ("two-file layout", [vec![2], section(&valid)].concat()),
            ("executor-state layout", executor_layout),
        ];
        for (case, payload) in cases {
            let dir = temp_dir("invalid_case");
            write_atomic(&dir.join(SNAPSHOT_FILE), &seal_snapshot(&payload)).unwrap();
            let mut fresh = core();
            let outcome = fresh.recover(&dir).unwrap();
            assert!(
                matches!(outcome, ServerRecovery::Quarantined { .. }),
                "{case}: {outcome:?}"
            );
            assert!(fresh.subscriptions().is_empty(), "{case}");
            assert_eq!(fresh.system().query_count(), 0, "{case}");
            assert_eq!(fresh.system().collector().objects().count(), 0, "{case}");
            assert_eq!((fresh.frames_processed(), fresh.lines_emitted()), (0, 0));
            let built = core();
            built.recorder.add("recovery.quarantined", 1);
            assert_eq!(fresh.metrics_json(), built.metrics_json(), "{case}");
        }
        // The untampered payload still resumes, so each case above failed
        // for its own defect.
        let dir = temp_dir("invalid_case");
        write_atomic(&dir.join(SNAPSHOT_FILE), &seal_snapshot(payload)).unwrap();
        assert!(matches!(
            core().recover(&dir).unwrap(),
            ServerRecovery::Resumed { .. }
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&source_dir);
    }
}

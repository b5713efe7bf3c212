//! `query-fanout` and `stream-ingest`: the daemon path, one client feeding
//! frame payloads to `ServerCore::handle_frame` in a closed loop.
//!
//! * `query-fanout`: 30 objects; one geofence (range subscription) per
//!   room and one kNN subscription (k = 3) at each of the 19 readers; one
//!   `reading` frame and one `tick` frame per second.
//! * `stream-ingest`: 1000 objects; sample-level `raw` frames; geofences
//!   on three rooms plus one kNN subscription; a `tick` every 10 s and a
//!   `checkpoint` every 6 ticks.
//!
//! The client folds the delta lines into per-subscription answers. After
//! the timed loop, a facade twin — an `IndoorQuerySystem` with the
//! daemon's configuration, fed the same parsed requests — answers the
//! first evaluations in full beside a fresh daemon: the folded answers
//! must equal its answers, and that daemon must answer every frame as the
//! timed episodes did.

use crate::batch::{EXTRA_SETUPS, TRACE_CHECKPOINT_EVERY};
use crate::inputs::{self, Shape, Simulation, Workload, World};
use crate::layers::{self, snapshot_from_json, Layers, Window};
use crate::stats::{derive_seed, peak_rss_mb, timed, Digest, Samples};
use crate::{
    end_to_end, is_probability, score, spans_json, Accuracy, Checks, Episode, Options, Report,
    Timings,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use ripq_core::clock::TimingMode;
use ripq_core::continuous::{ResultDelta, SubscriptionKind, SubscriptionRegistry};
use ripq_core::{EvaluationReport, IndoorQuerySystem, MetricsSnapshot, QueryId, ResultSet};
use ripq_rfid::ObjectId;
use ripq_server::json::{self, Value};
use ripq_server::protocol::from_hex_bits;
use ripq_server::{FrameDecoder, Request, ServerConfig, ServerCore};
use ripq_sim::GroundTruth;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// What a frame asks the daemon to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Subscribe,
    Data,
    Tick(u64),
    Checkpoint,
}

struct Frame {
    kind: Kind,
    payload: Vec<u8>,
}

struct Inputs {
    world: World,
    sim: Simulation,
    shape: Shape,
    subs: Vec<(u64, SubscriptionKind)>,
    /// Subscriptions, warm-up data frames and the first (cold) tick.
    setup: Vec<Frame>,
    /// One measured episode.
    episode: Vec<Frame>,
    /// Episode frames up to and including the last twin-verified tick.
    verified_prefix: usize,
    server_seed: u64,
}

fn server_config(seed: u64) -> ServerConfig {
    ServerConfig {
        seed,
        ..ServerConfig::default()
    }
}

fn subscriptions(workload: Workload, world: &World) -> Vec<(u64, SubscriptionKind)> {
    let kinds: Vec<SubscriptionKind> = match workload {
        Workload::QueryFanout => world
            .plan
            .rooms()
            .iter()
            .map(|room| SubscriptionKind::Range(*room.footprint()))
            .chain(
                world
                    .readers
                    .iter()
                    .map(|r| SubscriptionKind::Knn(r.position(), 3)),
            )
            .collect(),
        // Fixed places, so that the seed only moves the objects: geofences
        // on the first, middle and last room, a kNN at the middle reader.
        _ => {
            let rooms = world.plan.rooms();
            let middle = &world.readers[world.readers.len() / 2];
            [0, rooms.len() / 2, rooms.len() - 1]
                .into_iter()
                .map(|i| SubscriptionKind::Range(*rooms[i].footprint()))
                .chain([SubscriptionKind::Knn(middle.position(), 3)])
                .collect()
        }
    };
    (1..).zip(kinds).collect()
}

fn generate(opts: &Options) -> (Inputs, String) {
    let shape = opts.workload.shape(opts.smoke);
    let server_seed = derive_seed(opts.seed, 4);
    let world = World::office(&server_config(server_seed).system_config());
    let sim = inputs::simulate(&world, opts.seed, shape.objects, shape.duration());
    let subs = subscriptions(opts.workload, &world);
    let mut rng = StdRng::seed_from_u64(derive_seed(opts.seed, 5));
    let mut data = |s: u64| {
        let det = &sim.detections[s as usize];
        let payload = match opts.workload {
            Workload::StreamIngest => {
                inputs::raw_frame(s, &inputs::expand_samples(&mut rng, s, det))
            }
            _ => inputs::reading_frame(s, det),
        };
        Frame {
            kind: Kind::Data,
            payload: payload.into_bytes(),
        }
    };
    let tick = |s: u64| Frame {
        kind: Kind::Tick(s),
        payload: inputs::tick_frame(s).into_bytes(),
    };
    let mut setup: Vec<Frame> = subs
        .iter()
        .map(|(sub, kind)| Frame {
            kind: Kind::Subscribe,
            payload: inputs::subscribe_frame(*sub, kind).into_bytes(),
        })
        .collect();
    setup.extend((0..shape.warmup).map(&mut data));
    setup.push(tick(shape.warmup - 1));
    let mut episode = Vec::new();
    let mut ticks = 0u64;
    let mut verified_prefix = 0;
    for s in shape.warmup..=shape.duration() {
        episode.push(data(s));
        if shape.is_tick(s) {
            episode.push(tick(s));
            ticks += 1;
            if ticks == shape.verify_ticks as u64 {
                verified_prefix = episode.len();
            }
            if shape.checkpoint_every_ticks > 0
                && ticks.is_multiple_of(shape.checkpoint_every_ticks)
            {
                episode.push(Frame {
                    kind: Kind::Checkpoint,
                    payload: inputs::CHECKPOINT_FRAME.as_bytes().to_vec(),
                });
            }
        }
    }
    let mut d = Digest::default();
    d.u64(server_seed);
    for f in setup.iter().chain(&episode) {
        d.u64(f.payload.len() as u64);
        d.bytes(&f.payload);
    }
    let inputs = Inputs {
        world,
        sim,
        shape,
        subs,
        setup,
        episode,
        verified_prefix,
        server_seed,
    };
    (inputs, d.hex())
}

fn new_server(inp: &Inputs, dir: &Path) -> ServerCore {
    let mut core = ServerCore::new(inp.world.plan.clone(), server_config(inp.server_seed));
    core.set_checkpoint_dir(dir);
    core
}

/// Set-up: build the daemon, then handle the subscription frames, the
/// warm-up interval and the first (cold-cache) tick. Returns the core and
/// each frame's response lines.
fn setup(inp: &Inputs, dir: &Path) -> (ServerCore, Vec<Vec<String>>) {
    let mut core = new_server(inp, dir);
    let lines = inp
        .setup
        .iter()
        .map(|f| core.handle_frame(&f.payload))
        .collect();
    (core, lines)
}

/// Digest of one frame's response lines in comparable form: event lines
/// sorted. The daemon renders `object_unseen` events in the collector's
/// hash-map order, which differs between two instances of one process, so
/// only the set of events is compared, not their order.
fn canonical_digest(lines: &[String]) -> u64 {
    let mut out: Vec<&str> = lines.iter().map(String::as_str).collect();
    let events = out.iter().position(|l| l.starts_with("{\"event\""));
    if let Some(first) = events {
        let end = out.len() - usize::from(out.last().is_some_and(|l| l.starts_with("{\"ok\"")));
        out[first..end].sort_unstable();
    }
    let mut d = Digest::default();
    for line in out {
        d.u64(line.len() as u64);
        d.bytes(line.as_bytes());
    }
    d.value()
}

/// How far a folded probability may sit from the full answer: deltas
/// leave out moves below `CHANGE_EPSILON` (1e-9), which can add up over
/// an episode's evaluations.
const FOLD_EPS: f64 = 1e-6;

/// The client's view: every subscription's answer, folded from deltas.
#[derive(Debug, Default)]
struct Client {
    answers: BTreeMap<u64, BTreeMap<u32, f64>>,
}

impl Client {
    /// Checks one frame's response lines and folds its deltas. An error or
    /// busy line is a failed operation, and it is also an unexpected line:
    /// the frame still has to end with its acknowledgement.
    fn absorb(&mut self, kind: Kind, lines: &[String], checks: &mut Checks) {
        checks.expect(!lines.is_empty(), || format!("{kind:?}: no response"));
        for (i, line) in lines.iter().enumerate() {
            if line.starts_with("{\"error\"") || line.starts_with("{\"busy\"") {
                checks.fail(format!("{kind:?}: {line}"));
            }
            let last = i + 1 == lines.len();
            let expected = match kind {
                Kind::Tick(s) if last => {
                    let acked = line.starts_with(&format!("{{\"ok\":\"tick\",\"second\":{s},"));
                    if acked && line.contains("\"degradation\"") {
                        checks.fail(format!("tick {s} answered below full fidelity: {line}"));
                    }
                    acked
                }
                Kind::Tick(s) if line.starts_with("{\"delta\"") => {
                    if let Err(why) = self.fold(line, s) {
                        checks.wrong(format!("tick {s}: {why}: {line}"));
                    }
                    true
                }
                Kind::Tick(_) => line.starts_with("{\"event\""),
                Kind::Data => {
                    last && (line.starts_with("{\"ok\":\"reading\"")
                        || line.starts_with("{\"ok\":\"raw\""))
                }
                Kind::Subscribe => last && line.starts_with("{\"ok\":\"subscribe\""),
                Kind::Checkpoint => last && line == "{\"ok\":\"checkpoint\"}",
            };
            checks.expect(expected, || format!("{kind:?}: unexpected line {line}"));
        }
    }

    /// Folds one delta line, checking it against the current answer.
    fn fold(&mut self, line: &str, second: u64) -> Result<(), String> {
        let doc = json::parse(line.as_bytes()).map_err(|e| e.to_string())?;
        let delta = doc
            .as_obj()
            .and_then(|o| o.get("delta"))
            .and_then(Value::as_obj)
            .ok_or("not a delta")?;
        let get = |k: &str| delta.get(k).ok_or(format!("missing `{k}`"));
        let sub = get("sub")?.as_u64().ok_or("bad sub")?;
        if get("second")?.as_u64() != Some(second) {
            return Err("delta for another second".into());
        }
        let object = |v: &Value| {
            v.as_u64()
                .and_then(|o| u32::try_from(o).ok())
                .ok_or("bad object id")
        };
        let prob = |v: &Value| {
            v.as_str()
                .and_then(from_hex_bits)
                .filter(|p| is_probability(*p) && *p > 0.0)
                .ok_or("bad probability")
        };
        let answer = self.answers.entry(sub).or_default();
        for item in get("appeared")?.as_arr().ok_or("bad appeared")? {
            let pair = item.as_arr().ok_or("bad appeared entry")?;
            let o = object(pair.first().ok_or("short entry")?)?;
            let p = prob(pair.get(1).ok_or("short entry")?)?;
            if answer.insert(o, p).is_some() {
                return Err(format!("object {o} appeared twice"));
            }
        }
        for item in get("disappeared")?.as_arr().ok_or("bad disappeared")? {
            let o = object(item)?;
            answer
                .remove(&o)
                .ok_or(format!("object {o} disappeared while absent"))?;
        }
        for item in get("changed")?.as_arr().ok_or("bad changed")? {
            let triple = item.as_arr().ok_or("bad changed entry")?;
            let o = object(triple.first().ok_or("short entry")?)?;
            let old = prob(triple.get(1).ok_or("short entry")?)?;
            let new = prob(triple.get(2).ok_or("short entry")?)?;
            let current = answer.insert(o, new);
            if !current.is_some_and(|c| (c - old).abs() <= FOLD_EPS) {
                return Err(format!("object {o} changed from a value it did not have"));
            }
        }
        Ok(())
    }

    fn answer(&self, sub: u64) -> ResultSet {
        let mut rs = ResultSet::new();
        for (&o, &p) in self.answers.get(&sub).into_iter().flatten() {
            rs.set(ObjectId::new(o), p);
        }
        rs
    }

    /// Every folded answer must hold the twin's objects with the twin's
    /// probabilities (within [`FOLD_EPS`]).
    fn compare(&self, second: u64, twin: &Twin, report: &EvaluationReport, checks: &mut Checks) {
        for &(sub, q) in &twin.queries {
            let Some(full) = report
                .range_results
                .get(&q)
                .or_else(|| report.knn_results.get(&q))
            else {
                checks.wrong(format!("second {second}: twin has no answer for sub {sub}"));
                continue;
            };
            let folded = self.answers.get(&sub);
            let same = full.len() == folded.map_or(0, BTreeMap::len)
                && full.iter().all(|(o, p)| {
                    folded
                        .and_then(|f| f.get(&o.raw()))
                        .is_some_and(|v| (v - p).abs() <= FOLD_EPS)
                });
            checks.expect(same, || {
                format!(
                    "second {second}: subscription {sub} folds to {} objects, \
                     the facade twin answers {}",
                    folded.map_or(0, BTreeMap::len),
                    full.len()
                )
            });
        }
    }
}

/// The facade twin: an `IndoorQuerySystem` with the daemon's
/// configuration, fed the same parsed requests, answering every
/// evaluation in full. Its calls are timed into `layers`.
struct Twin {
    sys: IndoorQuerySystem,
    registry: SubscriptionRegistry,
    queries: Vec<(u64, QueryId)>,
    decoder: FrameDecoder,
    layers: Layers,
}

impl Twin {
    fn new(inp: &Inputs, timing: TimingMode, dir: &Path) -> Twin {
        let mut config = server_config(inp.server_seed).system_config();
        config.timing = timing;
        let mut sys = IndoorQuerySystem::new(inp.world.plan.clone(), config, inp.server_seed);
        sys.set_checkpoint_dir(dir);
        let layers = Layers {
            nodes: sys.graph().nodes().len() as u64,
            anchors: sys.anchors().anchors().len() as u64,
            ..Layers::default()
        };
        Twin {
            sys,
            registry: SubscriptionRegistry::new(),
            queries: Vec::new(),
            decoder: FrameDecoder::new(),
            layers,
        }
    }

    /// Applies one frame; returns the full report and the deltas of a tick.
    fn apply(
        &mut self,
        frame: &Frame,
        checks: &mut Checks,
    ) -> Option<(EvaluationReport, Vec<(u64, ResultDelta)>)> {
        let Some(request) = self.layers.decode(&mut self.decoder, &frame.payload) else {
            checks.wrong(format!(
                "{:?}: the twin could not decode the frame",
                frame.kind
            ));
            return None;
        };
        let sys = &mut self.sys;
        let l = &mut self.layers;
        match request {
            Request::Subscribe { sub, kind } => {
                let query = match kind {
                    SubscriptionKind::Range(w) => sys.register_range(w),
                    SubscriptionKind::Knn(p, k) => sys.register_knn(p, k),
                };
                match query {
                    Ok(q) if self.registry.insert(sub, kind, q).is_ok() => {
                        self.queries.push((sub, q));
                    }
                    _ => checks.wrong(format!("the twin could not subscribe {sub}")),
                }
                None
            }
            Request::Readings { second, detections } => {
                let (_, ms) = timed(|| sys.ingest_detections(second, &detections))?;
                l.ingest.push(ms);
                None
            }
            Request::Raw { second, samples } => {
                let (_, ms) = timed(|| sys.ingest_raw(second, &samples))?;
                l.ingest.push(ms);
                None
            }
            Request::Tick { second, .. } => {
                let (report, _) = timed(|| sys.evaluate(second))?;
                l.evaluation(&report);
                let deltas = l.subscription_deltas(&mut self.registry, &report, second)?;
                Some((report, deltas))
            }
            _ => None,
        }
    }
}

pub fn run(opts: &Options) -> Report {
    let (inp, digest) = generate(opts);
    let mut report = Report::default();
    report
        .detail
        .push(("input_digest".into(), format!("\"{digest}\"")));
    if opts.trace {
        traced_run(&inp, opts, &mut report);
    } else {
        timed_run(&inp, opts, &mut report);
    }
    report
}

/// Runs a fresh daemon and the facade twin side by side over the set-up
/// and the first `verify_ticks` evaluations, comparing every folded answer
/// with the twin's and every frame's response with `answered`, the
/// digests of the timed episodes' responses.
fn verify(inp: &Inputs, opts: &Options, answered: &[u64], checks: &mut Checks) {
    if inp.verified_prefix == 0 {
        return;
    }
    let mut core = new_server(inp, &opts.scratch.join("verify"));
    let mut twin = Twin::new(inp, TimingMode::Logical, &opts.scratch.join("verify-twin"));
    let mut client = Client::default();
    let frames = inp.setup.iter().chain(&inp.episode[..inp.verified_prefix]);
    for (i, frame) in frames.enumerate() {
        let Some((lines, _)) = timed(|| core.handle_frame(&frame.payload)) else {
            checks.fail(format!("{:?}: handle_frame panicked", frame.kind));
            break;
        };
        client.absorb(frame.kind, &lines, checks);
        if let Some(&want) = answered.get(i) {
            checks.expect(canonical_digest(&lines) == want, || {
                format!(
                    "frame {i} ({:?}): the verified daemon answers {lines:?}, \
                     unlike the timed episodes",
                    frame.kind
                )
            });
        }
        if let (Kind::Tick(second), Some((report, deltas))) =
            (frame.kind, twin.apply(frame, checks))
        {
            client.compare(second, &twin, &report, checks);
            let emitted = lines.iter().filter(|l| l.starts_with("{\"delta\"")).count();
            checks.expect(emitted == deltas.len(), || {
                format!(
                    "second {second}: the daemon emitted {emitted} deltas, the twin {}",
                    deltas.len()
                )
            });
        }
    }
}

/// The timed loop: the planned number of episodes, each a set-up plus the
/// episode's frames. Every episode must answer each frame as the first
/// did. Accuracy is scored over the first episode. Peak memory is read
/// before verification, so it covers the inputs and the timed daemons
/// only.
fn timed_run(inp: &Inputs, opts: &Options, report: &mut Report) {
    let mut checks = Checks::default();
    let mut t = Timings::new(opts.seconds);
    let mut acc = Accuracy::default();
    let truth = GroundTruth::new(&inp.world.graph, &inp.sim.traces);
    let universe: Vec<ObjectId> = inp.sim.traces.iter().map(|tr| tr.object).collect();
    let dir = opts.scratch.join("daemon");
    for _ in 0..EXTRA_SETUPS {
        match timed(|| setup(inp, &dir)) {
            Some((_, ms)) => t.setup.push(ms),
            None => checks.fail("set-up panicked".into()),
        }
    }
    // Digests of the first episode's responses, per frame (set-up first).
    let mut answered: Vec<u64> = Vec::new();
    let start = Instant::now();
    let mut episode = 0;
    'episodes: while checks.failed == 0 {
        checks.attempted += 1;
        let Some(((mut core, outs), ms)) = timed(|| setup(inp, &dir)) else {
            checks.fail("set-up panicked".into());
            break;
        };
        t.setup.push(ms);
        let mut ep = Episode::default();
        let mut client = Client::default();
        let mut position = 0;
        let mut replay = |kind: Kind, lines: &[String], checks: &mut Checks| {
            let digest = canonical_digest(lines);
            if episode == 0 {
                answered.push(digest);
            } else {
                checks.expect(answered.get(position) == Some(&digest), || {
                    format!(
                        "episode {episode}, frame {position} ({kind:?}): {lines:?} \
                         differs from the first episode's answer"
                    )
                });
            }
            position += 1;
        };
        for (frame, lines) in inp.setup.iter().zip(&outs) {
            client.absorb(frame.kind, lines, &mut checks);
            replay(frame.kind, lines, &mut checks);
        }
        for frame in &inp.episode {
            checks.attempted += 1;
            let Some((lines, ms)) = timed(|| core.handle_frame(&frame.payload)) else {
                checks.fail(format!("{:?}: handle_frame panicked", frame.kind));
                break 'episodes;
            };
            match frame.kind {
                Kind::Data => ep.ingest.push(ms),
                Kind::Tick(_) => ep.tick.push(ms),
                _ => ep.other.push(ms),
            }
            client.absorb(frame.kind, &lines, &mut checks);
            replay(frame.kind, &lines, &mut checks);
            if let Kind::Tick(second) = frame.kind {
                ep.sim_seconds += inp.shape.tick_every;
                if episode == 0 {
                    for (sub, kind) in &inp.subs {
                        score(
                            &truth,
                            &universe,
                            kind,
                            &client.answer(*sub),
                            second,
                            &mut acc,
                        );
                    }
                }
            }
        }
        t.episodes.push(ep);
        episode += 1;
        if !t.wants_another_episode(start) {
            break;
        }
    }
    t.peak_rss_mb = peak_rss_mb();
    verify(inp, opts, &answered, &mut checks);
    end_to_end(&t, &acc, &mut checks, report);
    report.checks = checks;
}

/// The traced run: one untraced episode for reference, then one episode
/// with the daemon and a wall-clock facade twin side by side, the twin's
/// calls timed per layer and compared at every tick.
fn traced_run(inp: &Inputs, opts: &Options, report: &mut Report) {
    let mut checks = Checks::default();
    let dir = opts.scratch.join("daemon");
    let mut reference = Samples::default();
    let Some(((mut core, _), _)) = timed(|| setup(inp, &dir)) else {
        checks.fail("set-up panicked".into());
        report.checks = checks;
        return;
    };
    for frame in &inp.episode {
        match timed(|| core.handle_frame(&frame.payload)) {
            Some((_, ms)) if matches!(frame.kind, Kind::Tick(_)) => reference.push(ms),
            Some(_) => {}
            None => checks.fail(format!("{:?}: untraced handle_frame panicked", frame.kind)),
        }
    }
    drop(core);

    let twin_dir = opts.scratch.join("twin");
    let mut twin = Twin::new(inp, TimingMode::Wall, &twin_dir);
    let mut core = new_server(inp, &dir);
    let mut client = Client::default();
    let mut twin_before = MetricsSnapshot::default();
    let mut before = MetricsSnapshot::default();
    let mut traced = Samples::default();
    let mut checkpoint = Samples::default();
    let mut checkpoint_bytes = 0;
    let mut response_bytes = 0;
    let has_checkpoints = inp.shape.checkpoint_every_ticks > 0;
    for (i, frame) in inp.setup.iter().chain(&inp.episode).enumerate() {
        let measured = i >= inp.setup.len();
        if i == inp.setup.len() {
            before = snapshot_from_json(&core.metrics_json()).unwrap_or_default();
            twin_before = twin.sys.recorder().snapshot();
            twin.layers = Layers {
                nodes: twin.layers.nodes,
                anchors: twin.layers.anchors,
                ..Layers::default()
            };
        }
        checks.attempted += 1;
        let Some((lines, ms)) = timed(|| core.handle_frame(&frame.payload)) else {
            checks.fail(format!("{:?}: handle_frame panicked", frame.kind));
            break;
        };
        client.absorb(frame.kind, &lines, &mut checks);
        let tick = twin.apply(frame, &mut checks);
        if !measured {
            continue;
        }
        match frame.kind {
            Kind::Tick(_) => {
                traced.push(ms);
                response_bytes += lines.iter().map(|l| l.len() as u64).sum::<u64>();
            }
            Kind::Checkpoint => {
                checkpoint.push(ms);
                checkpoint_bytes = layers::dir_bytes(&dir);
            }
            _ => {}
        }
        if let (Kind::Tick(second), Some((rep, _))) = (frame.kind, tick) {
            client.compare(second, &twin, &rep, &mut checks);
            if !has_checkpoints && twin.layers.ticks.is_multiple_of(TRACE_CHECKPOINT_EVERY) {
                match timed(|| twin.sys.checkpoint_now()) {
                    Some((Ok(()), ms)) => {
                        checkpoint.push(ms);
                        checkpoint_bytes = layers::dir_bytes(&twin_dir);
                    }
                    _ => checks.fail(format!("second {second}: twin checkpoint failed")),
                }
            }
        }
    }
    let after = match snapshot_from_json(&core.metrics_json()) {
        Ok(snap) => snap,
        Err(why) => {
            checks.wrong(why);
            MetricsSnapshot::default()
        }
    };
    let twin_after = twin.sys.recorder().snapshot();
    let counters = Window::new(&before, &after);
    let mut l = std::mem::take(&mut twin.layers);
    l.untraced_tick_ms = reference.median();
    l.traced_tick_ms = traced.median();
    l.deltas_emitted = counters.counter("server.deltas_emitted");
    l.events_fired = counters.counter("server.events_fired");
    l.response_bytes = response_bytes;
    l.checkpoint = checkpoint;
    l.checkpoint_bytes = checkpoint_bytes;
    report.metrics = layers::metrics(&l, &counters, &Window::new(&twin_before, &twin_after));
    report.detail.push((
        "spans".into(),
        spans_json(&[
            ("handle_frame.tick", &traced),
            ("handle_frame.tick.untraced", &reference),
            ("twin.ingest", &l.ingest),
            ("twin.frame_decode_parse", &l.parse),
            ("twin.registry.deltas", &l.deltas),
            ("twin.render", &l.render),
            ("checkpoint", &l.checkpoint),
        ]),
    ));
    report.checks = checks;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_tick_answered_by_an_error_is_failed_and_unacknowledged() {
        let mut checks = Checks::default();
        let lines = vec!["{\"error\":\"overloaded\"}".to_string()];
        Client::default().absorb(Kind::Tick(5), &lines, &mut checks);
        assert_eq!(checks.failed, 1);
        assert!(checks.wrong >= 1, "the missing acknowledgement counts");
        assert!(!checks.correct());
    }
}

//! Per-layer metrics of a traced run.
//!
//! Layer times come from the benchmark's own spans around every public
//! call it makes (ingest, evaluate, frame decoding and parsing, delta
//! folding, rendering, checkpointing) and from the facade's
//! `EvaluationTimings` split under `TimingMode::Wall`; logical counters
//! come from the recorder snapshot — for daemon workloads as rendered by
//! `ServerCore::metrics_json`. Counters cover exactly one traced episode
//! (snapshot at its end minus snapshot after set-up), so two traced runs
//! on one seed report identical counts.

use crate::stats::{millis, timed, Samples};
use crate::Metric;
use ripq_core::continuous::{ResultDelta, SubscriptionRegistry};
use ripq_core::{EvaluationReport, MetricsSnapshot};
use ripq_obs::HistogramSnapshot;
use ripq_server::json::{self, Value};
use ripq_server::protocol::{render_delta, render_ok};
use ripq_server::{encode_frame, parse_request, FrameDecoder, Request};
use std::collections::BTreeMap;
use std::path::Path;

/// Everything a traced episode measures, per layer.
#[derive(Debug, Default)]
pub struct Layers {
    /// `rfid`: one `ingest_*` call (ms).
    pub ingest: Samples,
    /// `core.optimizer`: candidate pruning per evaluation (ms).
    pub prune: Samples,
    /// `pf`: preprocessing per evaluation (ms).
    pub preprocess: Samples,
    /// `core.range_eval` / `core.knn_eval`: query evaluation (ms).
    pub eval: Samples,
    /// Evaluations in the traced episode.
    pub ticks: u64,
    /// Σ candidates preprocessed and Σ objects known over the evaluations.
    pub candidates: u64,
    pub known: u64,
    /// `core.continuous`: `SubscriptionRegistry::deltas` per evaluation (ms).
    pub deltas: Samples,
    /// `server`: frame decode + `parse_request` per frame (ms).
    pub parse: Samples,
    /// `server`: rendering one evaluation's delta and ack lines (ms).
    pub render: Samples,
    /// `server`: response bytes over all evaluations.
    pub response_bytes: u64,
    /// Events fired (geofence enter/leave and unseen objects).
    pub events_fired: u64,
    /// Non-empty subscription deltas emitted.
    pub deltas_emitted: u64,
    /// `persist`: one checkpoint (ms) and the bytes of the last one.
    pub checkpoint: Samples,
    pub checkpoint_bytes: u64,
    /// Untraced and traced evaluation medians, for the tracing overhead.
    pub untraced_tick_ms: f64,
    pub traced_tick_ms: f64,
    /// Graph size, for the kNN cost model.
    pub nodes: u64,
    pub anchors: u64,
}

impl Layers {
    /// Times the daemon's front end on one payload: length-prefix frame
    /// decoding plus `parse_request`. `None` when it does not parse.
    pub fn decode(&mut self, decoder: &mut FrameDecoder, payload: &[u8]) -> Option<Request> {
        let framed = encode_frame(payload);
        let (request, ms) = timed(|| {
            decoder.push(&framed);
            decoder
                .next_frame()?
                .ok()
                .and_then(|p| parse_request(&p).ok())
        })?;
        self.parse.push(ms);
        request
    }

    /// Records one evaluation's timing split and candidate counts.
    pub fn evaluation(&mut self, report: &EvaluationReport) {
        self.ticks += 1;
        self.prune.push(millis(report.timings.pruning));
        self.preprocess.push(millis(report.timings.preprocessing));
        self.eval.push(millis(report.timings.evaluation));
        self.candidates += report.candidates_processed as u64;
        self.known += report.objects_known as u64;
    }

    /// Times one evaluation's subscription deltas, then their rendering as
    /// the daemon's delta and ack lines.
    pub fn subscription_deltas(
        &mut self,
        registry: &mut SubscriptionRegistry,
        report: &EvaluationReport,
        second: u64,
    ) -> Option<Vec<(u64, ResultDelta)>> {
        let (deltas, ms) = timed(|| registry.deltas(report))?;
        self.deltas.push(ms);
        let (bytes, ms) = timed(|| {
            let ack = render_ok(
                "tick",
                &[
                    ("second", second.to_string()),
                    ("deltas", deltas.len().to_string()),
                ],
            );
            deltas
                .iter()
                .map(|(sub, d)| render_delta(*sub, second, d).len())
                .sum::<usize>()
                + ack.len()
        })?;
        self.render.push(ms);
        self.response_bytes += bytes as u64;
        Some(deltas)
    }
}

/// Difference of two cumulative recorder snapshots.
pub struct Window<'a> {
    before: &'a MetricsSnapshot,
    after: &'a MetricsSnapshot,
}

impl<'a> Window<'a> {
    pub fn new(before: &'a MetricsSnapshot, after: &'a MetricsSnapshot) -> Self {
        Window { before, after }
    }

    pub fn counter(&self, name: &str) -> u64 {
        let get = |s: &MetricsSnapshot| s.counters.get(name).copied().unwrap_or(0);
        get(self.after).saturating_sub(get(self.before))
    }

    pub fn gauge(&self, name: &str) -> u64 {
        let get = |s: &MetricsSnapshot| s.gauges.get(name).copied().unwrap_or(0);
        get(self.after).saturating_sub(get(self.before))
    }

    pub fn has_gauge(&self, name: &str) -> bool {
        self.after.gauges.contains_key(name)
    }

    /// `(count, total µs)` of a span path.
    pub fn span(&self, path: &str) -> (u64, u64) {
        let get = |s: &MetricsSnapshot| {
            s.spans
                .get(path)
                .map_or((0, 0), |st| (st.count, st.total_micros))
        };
        let (c0, t0) = get(self.before);
        let (c1, t1) = get(self.after);
        (c1.saturating_sub(c0), t1.saturating_sub(t0))
    }

    /// Lower bound of the histogram bucket holding the median observation.
    pub fn histogram_p50(&self, name: &str) -> u64 {
        let buckets = |s: &MetricsSnapshot| -> BTreeMap<u64, u64> {
            s.histograms
                .get(name)
                .map(|h| h.buckets.iter().copied().collect())
                .unwrap_or_default()
        };
        let before = buckets(self.before);
        let diff: Vec<(u64, u64)> = buckets(self.after)
            .into_iter()
            .map(|(b, n)| (b, n.saturating_sub(before.get(&b).copied().unwrap_or(0))))
            .collect();
        let total: u64 = diff.iter().map(|&(_, n)| n).sum();
        let mut seen = 0;
        for (bound, n) in diff {
            seen += n;
            if total > 0 && seen * 2 >= total {
                return bound;
            }
        }
        0
    }
}

/// Rebuilds a snapshot from `ServerCore::metrics_json` output.
pub fn snapshot_from_json(text: &str) -> Result<MetricsSnapshot, String> {
    let doc = json::parse(text.as_bytes()).map_err(|e| format!("metrics JSON: {e}"))?;
    let section = |key: &str| -> BTreeMap<String, Value> {
        doc.as_obj()
            .and_then(|o| o.get(key))
            .and_then(Value::as_obj)
            .cloned()
            .unwrap_or_default()
    };
    let ints = |key: &str| -> BTreeMap<String, u64> {
        section(key)
            .into_iter()
            .filter_map(|(k, v)| v.as_u64().map(|v| (k, v)))
            .collect()
    };
    let mut snap = MetricsSnapshot {
        counters: ints("counters"),
        gauges: ints("gauges"),
        ..MetricsSnapshot::default()
    };
    for (name, h) in section("histograms") {
        let field = |k: &str| h.as_obj().and_then(|o| o.get(k)).and_then(Value::as_u64);
        let buckets = h
            .as_obj()
            .and_then(|o| o.get("buckets"))
            .and_then(Value::as_arr)
            .unwrap_or_default()
            .iter()
            .filter_map(|pair| {
                let pair = pair.as_arr()?;
                Some((pair.first()?.as_u64()?, pair.get(1)?.as_u64()?))
            })
            .collect();
        snap.histograms.insert(
            name,
            HistogramSnapshot {
                count: field("count").unwrap_or(0),
                sum: field("sum").unwrap_or(0),
                min: field("min").unwrap_or(0),
                max: field("max").unwrap_or(0),
                buckets,
            },
        );
    }
    for (name, s) in section("spans") {
        let field = |k: &str| s.as_obj().and_then(|o| o.get(k)).and_then(Value::as_u64);
        snap.spans.insert(
            name,
            ripq_obs::SpanStat {
                count: field("count").unwrap_or(0),
                total_micros: field("total_micros").unwrap_or(0),
            },
        );
    }
    Ok(snap)
}

/// Total size of the files in a checkpoint directory.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Per-layer metrics from one traced episode. `counters` covers the
/// episode's recorder activity (the daemon's own recorder for daemon
/// workloads, the facade's otherwise); `spans` the facade's wall-clock
/// query spans.
pub fn metrics(l: &Layers, counters: &Window<'_>, spans: &Window<'_>) -> Vec<Metric> {
    let raw = counters.counter("collector.raw_samples");
    let detections = counters.counter("collector.detections");
    let sir = counters.counter("pf.sir_iterations");
    let hits = counters.gauge("cache.hits");
    let misses = counters.gauge("cache.misses");
    let applied = counters.counter("index.delta_applied");
    let unchanged = counters.counter("index.delta_unchanged");
    let (range_n, range_us) = spans.span("evaluate/queries/range");
    let (knn_n, knn_us) = spans.span("evaluate/queries/knn");
    let spcache_misses = counters.gauge("spcache.misses");
    // Logical distance cost (the unit of `crates/bench`'s perf probe):
    // nodes settled plus anchor candidates examined. The landmark oracle
    // counts both itself; the Dijkstra path settles every node once per
    // shortest-path cache miss and seeds every anchor per kNN evaluation.
    let knn_cost = if counters.has_gauge("oracle.scan_settled") {
        counters.gauge("oracle.scan_settled")
            + counters.gauge("oracle.p2p_settled")
            + counters.gauge("oracle.scan_anchor_candidates")
    } else {
        spcache_misses * l.nodes + counters.span("evaluate/queries/knn").0 * l.anchors
    };
    let m = |name, value, unit| Metric { name, value, unit };
    vec![
        m("rfid.ingest_ms", l.ingest.median(), "ms"),
        m("rfid.raw_samples", raw as f64, "count"),
        m("rfid.detections", detections as f64, "count"),
        m(
            "rfid.dedup_ratio",
            ratio(raw.saturating_sub(detections), raw),
            "ratio",
        ),
        m("optimizer.prune_ms_per_tick", l.prune.median(), "ms"),
        m(
            "optimizer.candidates_per_tick",
            ratio(l.candidates, l.ticks),
            "count",
        ),
        m(
            "optimizer.pruned_share",
            ratio(l.known.saturating_sub(l.candidates), l.known),
            "ratio",
        ),
        m("pf.preprocess_ms_per_tick", l.preprocess.median(), "ms"),
        m("pf.sir_iterations", sir as f64, "count"),
        m(
            "pf.us_per_sir_iteration",
            if sir == 0 {
                0.0
            } else {
                l.preprocess.sum() * 1e3 / sir as f64
            },
            "us",
        ),
        m("pf.cache_hit_ratio", ratio(hits, hits + misses), "ratio"),
        m(
            "pf.resume_depth_p50_s",
            counters.histogram_p50("pf.resume_depth_seconds") as f64,
            "s",
        ),
        m(
            "pf.resamples",
            counters.counter("pf.resamples") as f64,
            "count",
        ),
        m("graph.knn_cost_units", knn_cost as f64, "count"),
        m("graph.spcache_misses", spcache_misses as f64, "count"),
        m("index.delta_applied", applied as f64, "count"),
        m(
            "index.delta_unchanged_share",
            ratio(unchanged, applied + unchanged),
            "ratio",
        ),
        m("query.eval_ms_per_tick", l.eval.median(), "ms"),
        m("query.range_us_per_query", ratio(range_us, range_n), "us"),
        m("query.knn_us_per_query", ratio(knn_us, knn_n), "us"),
        m("continuous.deltas_ms_per_tick", l.deltas.median(), "ms"),
        m(
            "continuous.deltas_emitted",
            l.deltas_emitted as f64,
            "count",
        ),
        m(
            "server.parse_us_per_frame",
            if l.parse.is_empty() {
                0.0
            } else {
                l.parse.sum() * 1e3 / l.parse.len() as f64
            },
            "us",
        ),
        m("server.render_ms_per_tick", l.render.median(), "ms"),
        m(
            "server.response_bytes_per_tick",
            ratio(l.response_bytes, l.ticks),
            "bytes",
        ),
        m("server.events_fired", l.events_fired as f64, "count"),
        m("persist.checkpoint_ms", l.checkpoint.median(), "ms"),
        m(
            "persist.checkpoint_bytes",
            l.checkpoint_bytes as f64,
            "bytes",
        ),
        m(
            "trace.overhead_pct",
            if l.untraced_tick_ms > 0.0 {
                100.0 * (l.traced_tick_ms / l.untraced_tick_ms - 1.0)
            } else {
                0.0
            },
            "%",
        ),
    ]
}

/// Names of the logical counters the determinism test pins.
pub const LOGICAL_COUNTERS: [&str; 6] = [
    "pf.sir_iterations",
    "pf.cache_hit_ratio",
    "index.delta_applied",
    "graph.knn_cost_units",
    "continuous.deltas_emitted",
    "persist.checkpoint_bytes",
];

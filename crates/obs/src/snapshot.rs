//! Snapshot types and their canonical renderings.
//!
//! [`MetricsSnapshot`] is all-`BTreeMap`, all-integer state, so two
//! snapshots with the same recorded values compare equal and render to
//! byte-identical JSON — the property the determinism tests pin down.
//! JSON is hand-rolled (the vendored serde stand-in has no serializer);
//! the format is stable: two-space indent, name-ordered keys, integers
//! only.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Aggregate statistics of one span path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpanStat {
    /// How many times the span was recorded.
    pub count: u64,
    /// Total recorded duration in microseconds.
    pub total_micros: u64,
}

/// Point-in-time state of one histogram.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Number of observations.
    pub count: u64,
    /// Sum of (floored) observed values.
    pub sum: u64,
    /// Smallest observed value (0 when empty).
    pub min: u64,
    /// Largest observed value (0 when empty).
    pub max: u64,
    /// `(bucket lower bound, observations)` for each non-empty bucket,
    /// in increasing bound order. Bucket `[2^(i-1), 2^i)` is keyed by
    /// its inclusive lower bound.
    pub buckets: Vec<(u64, u64)>,
}

/// A point-in-time copy of every metric a [`crate::Recorder`] collected.
///
/// All maps are name-ordered and all values integral, so equal recorded
/// state ⇒ equal snapshots ⇒ byte-identical [`MetricsSnapshot::to_json`]
/// output. Under `TimingMode::Logical` a full pipeline run reproduces
/// this bit-for-bit across runs and worker counts.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Monotone counters, `stage.metric` → value.
    pub counters: BTreeMap<String, u64>,
    /// Gauges (levels), `stage.metric` → value.
    pub gauges: BTreeMap<String, u64>,
    /// Histograms, `stage.metric` → bucketed distribution.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// Span timings, slash path (`stage/sub`) → aggregate stat.
    pub spans: BTreeMap<String, SpanStat>,
}

/// Escapes a metric name for embedding in a JSON string literal.
fn escape(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for c in name.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Appends `"key": {…}` object entries for a map, comma-separated.
fn write_map<V>(
    out: &mut String,
    map: &BTreeMap<String, V>,
    mut write_value: impl FnMut(&mut String, &V),
) {
    for (i, (key, value)) in map.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\n    \"{}\": ", escape(key));
        write_value(out, value);
    }
    if !map.is_empty() {
        out.push('\n');
        out.push_str("  ");
    }
}

impl MetricsSnapshot {
    /// Renders the snapshot as deterministic JSON: fixed key order
    /// (name-sorted), fixed layout, integers only. Equal snapshots yield
    /// byte-identical strings.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n  \"counters\": {");
        write_map(&mut out, &self.counters, |out, v| {
            let _ = write!(out, "{v}");
        });
        out.push_str("},\n  \"gauges\": {");
        write_map(&mut out, &self.gauges, |out, v| {
            let _ = write!(out, "{v}");
        });
        out.push_str("},\n  \"histograms\": {");
        write_map(&mut out, &self.histograms, |out, h| {
            let _ = write!(
                out,
                "{{\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \"buckets\": [",
                h.count, h.sum, h.min, h.max
            );
            for (i, (bound, hits)) in h.buckets.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "[{bound}, {hits}]");
            }
            out.push_str("]}");
        });
        out.push_str("},\n  \"spans\": {");
        write_map(&mut out, &self.spans, |out, s| {
            let _ = write!(
                out,
                "{{\"count\": {}, \"total_micros\": {}}}",
                s.count, s.total_micros
            );
        });
        out.push_str("}\n}\n");
        out
    }

    /// Renders the span map as an indented tree (slash paths nest), for
    /// the CLI's `--trace` output. Durations are microseconds as
    /// measured by the caller's clock — logical ticks under
    /// `TimingMode::Logical`, wall time otherwise.
    pub fn render_trace(&self) -> String {
        let mut out = String::from("span tree (µs, by recorded path):\n");
        if self.spans.is_empty() {
            out.push_str("  (no spans recorded)\n");
            return out;
        }
        for (path, stat) in &self.spans {
            let depth = path.matches('/').count();
            let name = path.rsplit('/').next().unwrap_or(path);
            let label = format!("{}{}", "  ".repeat(depth + 1), name);
            let _ = writeln!(
                out,
                "{label:<40} ×{:<6} {:>10} µs",
                stat.count, stat.total_micros
            );
        }
        out
    }

    /// The distinct top-level stage names across all metric families —
    /// the part before the first `.` (counters/gauges/histograms) or `/`
    /// (spans). Handy for coverage assertions.
    pub fn stages(&self) -> Vec<String> {
        let mut stages: Vec<String> = self
            .counters
            .keys()
            .chain(self.gauges.keys())
            .chain(self.histograms.keys())
            .map(|name| name.split('.').next().unwrap_or(name.as_str()).to_string())
            .chain(
                self.spans
                    .keys()
                    .map(|path| path.split('/').next().unwrap_or(path.as_str()).to_string()),
            )
            .collect();
        stages.sort_unstable();
        stages.dedup();
        stages
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Recorder;
    use std::time::Duration;

    fn sample() -> MetricsSnapshot {
        let rec = Recorder::enabled();
        rec.add("collector.detections", 12);
        rec.add("pf.resamples", 3);
        rec.set_gauge("cache.entries", 4);
        rec.observe("pf.ess", 48);
        rec.observe("pf.ess", 64);
        rec.record_span("evaluate", Duration::from_micros(120));
        rec.record_span("evaluate/queries/range", Duration::from_micros(40));
        rec.snapshot()
    }

    #[test]
    fn json_is_deterministic_and_parseable_shape() {
        let a = sample().to_json();
        let b = sample().to_json();
        assert_eq!(a, b, "equal snapshots must render identically");
        assert!(a.contains("\"counters\": {"), "{a}");
        assert!(a.contains("\"pf.resamples\": 3"), "{a}");
        assert!(a.contains("\"cache.entries\": 4"), "{a}");
        assert!(a.contains("\"buckets\": [[32, 1], [64, 1]]"), "{a}");
        assert!(
            a.contains("\"evaluate/queries/range\": {\"count\": 1, \"total_micros\": 40}"),
            "{a}"
        );
        // Balanced braces/brackets — a cheap well-formedness check.
        let balance = |open: char, close: char| {
            a.chars().filter(|&c| c == open).count() == a.chars().filter(|&c| c == close).count()
        };
        assert!(balance('{', '}') && balance('[', ']'), "{a}");
    }

    #[test]
    fn empty_snapshot_renders_empty_families() {
        let json = MetricsSnapshot::default().to_json();
        assert!(json.contains("\"counters\": {}"), "{json}");
        assert!(json.contains("\"spans\": {}"), "{json}");
    }

    #[test]
    fn names_are_escaped() {
        let rec = Recorder::enabled();
        rec.add("weird\"name\\x", 1);
        let json = rec.snapshot().to_json();
        assert!(json.contains("\"weird\\\"name\\\\x\": 1"), "{json}");
    }

    #[test]
    fn trace_tree_nests_by_slash_depth() {
        let trace = sample().render_trace();
        let lines: Vec<&str> = trace.lines().collect();
        assert!(lines[1].trim_start().starts_with("evaluate"), "{trace}");
        let range_line = lines
            .iter()
            .find(|l| l.contains("range"))
            .expect("range span rendered");
        assert!(
            range_line.starts_with("      range"),
            "child indents two levels: {range_line:?}"
        );
        assert!(MetricsSnapshot::default()
            .render_trace()
            .contains("no spans"));
    }

    #[test]
    fn stages_cover_all_families() {
        assert_eq!(
            sample().stages(),
            vec!["cache", "collector", "evaluate", "pf"]
        );
    }
}

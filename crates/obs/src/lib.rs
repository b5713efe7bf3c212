//! # ripq-obs — deterministic observability for the RIPQ pipeline
//!
//! A dependency-free metrics layer: counters, gauges, fixed log-bucket
//! histograms and hierarchical spans, all registered by name under the
//! `stage.metric` convention (spans use slash paths, `stage/sub`).
//!
//! ## Determinism contract
//!
//! Every recording operation is **order-commutative**: counters and
//! histogram buckets are atomic adds, min/max are atomic fetch-min/max,
//! gauges are only set from single-threaded call sites. A
//! [`MetricsSnapshot`] taken after worker threads join is therefore
//! bit-identical regardless of worker count or scheduling. This crate
//! never reads a clock: durations are measured by the *caller* (through
//! `ripq_core::Clock`, whose `TimingMode::Logical` mode is a
//! deterministic tick counter) and handed in as [`Duration`] values, so
//! under logical timing the whole snapshot — spans included — reproduces
//! bit-for-bit across runs.
//!
//! ## Zero cost when disabled
//!
//! [`Recorder::disabled`] carries no registry; every handle it hands out
//! is `None` inside, so each record call is a branch on an `Option` and
//! nothing else — no allocation, no locking, no atomics.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

mod snapshot;

pub use snapshot::{HistogramSnapshot, MetricsSnapshot, SpanStat};

/// Number of histogram buckets. Bucket 0 holds the value 0; bucket `i`
/// (for `i ≥ 1`) holds values in `[2^(i-1), 2^i)`; the last bucket is
/// open-ended. 32 buckets cover `[0, 2^30)` exactly — minutes of
/// microseconds, or any particle/ESS count this system produces.
pub const HISTOGRAM_BUCKETS: usize = 32;

/// Locks a mutex, recovering the guard if a panicking thread poisoned it
/// (metric state is a monotone aggregate — always safe to keep reading).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Shared histogram state: total count, sum of observed values, min/max,
/// and per-bucket counts. All fields are atomics so observations from
/// worker threads commute.
#[derive(Debug)]
struct HistogramCore {
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
}

impl HistogramCore {
    fn new() -> Self {
        HistogramCore {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    fn observe(&self, value: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.min.fetch_min(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
    }
}

/// The bucket a value falls into: 0 → bucket 0, otherwise
/// `floor(log2(value)) + 1`, clamped to the last (open-ended) bucket.
fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        ((64 - value.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
    }
}

/// The inclusive lower bound of a bucket, for snapshot rendering.
fn bucket_lower_bound(index: usize) -> u64 {
    if index == 0 {
        0
    } else {
        1u64 << (index - 1)
    }
}

/// Shared span state: how often the span was recorded and its total in
/// whole microseconds (saturating).
#[derive(Debug, Default)]
struct SpanCore {
    count: AtomicU64,
    total_micros: AtomicU64,
}

/// Metric families, each a name-ordered map so snapshots iterate (and
/// serialize) in one canonical order.
#[derive(Debug, Default)]
struct Registry {
    counters: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    gauges: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    histograms: Mutex<BTreeMap<String, Arc<HistogramCore>>>,
    spans: Mutex<BTreeMap<String, Arc<SpanCore>>>,
}

/// The cell registered under `name` in `family`, registering `new()` on
/// first use. A name already registered costs a lookup, no allocation.
fn resolve<T>(family: &Mutex<BTreeMap<String, Arc<T>>>, name: &str, new: fn() -> T) -> Arc<T> {
    let mut cells = lock(family);
    if let Some(cell) = cells.get(name) {
        return Arc::clone(cell);
    }
    let cell = Arc::new(new());
    cells.insert(name.to_string(), Arc::clone(&cell));
    cell
}

/// Handle to one monotone counter. Cheap to clone; a handle resolved
/// from a disabled [`Recorder`] is a no-op.
#[derive(Debug, Clone, Default)]
pub struct Counter(Option<Arc<AtomicU64>>);

impl Counter {
    /// Adds `delta` to the counter (commutative — safe from any thread).
    #[inline]
    pub fn add(&self, delta: u64) {
        if let Some(cell) = &self.0 {
            cell.fetch_add(delta, Ordering::Relaxed);
        }
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }
}

/// Handle to one gauge (last-write-wins level). Only set gauges from
/// single-threaded call sites — stores do not commute across threads.
#[derive(Debug, Clone, Default)]
pub struct Gauge(Option<Arc<AtomicU64>>);

impl Gauge {
    /// Sets the gauge to `value`.
    #[inline]
    pub fn set(&self, value: u64) {
        if let Some(cell) = &self.0 {
            cell.store(value, Ordering::Relaxed);
        }
    }
}

/// Handle to one fixed log-bucket histogram.
#[derive(Debug, Clone, Default)]
pub struct Histogram(Option<Arc<HistogramCore>>);

impl Histogram {
    /// Records one observation (commutative — safe from any thread).
    #[inline]
    pub fn observe(&self, value: u64) {
        if let Some(core) = &self.0 {
            core.observe(value);
        }
    }

    /// Records a non-negative float observation, floored to an integer
    /// (negative or non-finite values clamp to 0).
    #[inline]
    pub fn observe_f64(&self, value: f64) {
        if self.0.is_some() {
            let floored = if value.is_finite() && value > 0.0 {
                value.floor() as u64
            } else {
                0
            };
            self.observe(floored);
        }
    }
}

/// Handle to one span path. Cheap to clone; a handle resolved from a
/// disabled [`Recorder`] is a no-op.
#[derive(Debug, Clone, Default)]
pub struct Span(Option<Arc<SpanCore>>);

impl Span {
    /// Accumulates one caller-measured duration, stored as whole
    /// microseconds (see [`Recorder::record_span`]).
    #[inline]
    pub fn record(&self, elapsed: Duration) {
        if let Some(core) = &self.0 {
            let micros = u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX);
            core.count.fetch_add(1, Ordering::Relaxed);
            let add = |total: u64| Some(total.saturating_add(micros));
            let _ = core
                .total_micros
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, add);
        }
    }
}

/// Entry point of the metrics layer. Clone freely — clones share one
/// registry. A disabled recorder (the default) records nothing and
/// allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct Recorder {
    inner: Option<Arc<Registry>>,
}

impl Recorder {
    /// A recorder that collects metrics into a fresh registry.
    pub fn enabled() -> Self {
        Recorder {
            inner: Some(Arc::new(Registry::default())),
        }
    }

    /// A recorder whose every operation is a no-op.
    pub fn disabled() -> Self {
        Recorder { inner: None }
    }

    /// `enabled()` if `on`, otherwise `disabled()`.
    pub fn from_flag(on: bool) -> Self {
        if on {
            Recorder::enabled()
        } else {
            Recorder::disabled()
        }
    }

    /// Whether this recorder actually collects anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Resolves (registering on first use) the counter `name`. Resolve
    /// once outside hot loops and reuse the handle.
    pub fn counter(&self, name: &str) -> Counter {
        Counter(
            self.inner
                .as_ref()
                .map(|reg| resolve(&reg.counters, name, AtomicU64::default)),
        )
    }

    /// Resolves (registering on first use) the gauge `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        Gauge(
            self.inner
                .as_ref()
                .map(|reg| resolve(&reg.gauges, name, AtomicU64::default)),
        )
    }

    /// Resolves (registering on first use) the histogram `name`.
    pub fn histogram(&self, name: &str) -> Histogram {
        Histogram(
            self.inner
                .as_ref()
                .map(|reg| resolve(&reg.histograms, name, HistogramCore::new)),
        )
    }

    /// Resolves (registering on first use) the span `path`.
    pub fn span(&self, path: &str) -> Span {
        Span(
            self.inner
                .as_ref()
                .map(|reg| resolve(&reg.spans, path, SpanCore::default)),
        )
    }

    /// Adds `delta` to counter `name` (one-shot convenience; hot paths
    /// should hold a [`Counter`] handle instead).
    pub fn add(&self, name: &str, delta: u64) {
        if self.inner.is_some() {
            self.counter(name).add(delta);
        }
    }

    /// Sets gauge `name` to `value`.
    pub fn set_gauge(&self, name: &str, value: u64) {
        if self.inner.is_some() {
            self.gauge(name).set(value);
        }
    }

    /// Records one observation into histogram `name`.
    pub fn observe(&self, name: &str, value: u64) {
        if self.inner.is_some() {
            self.histogram(name).observe(value);
        }
    }

    /// Accumulates a caller-measured duration under the span `path`
    /// (slash-separated, e.g. `evaluate/queries/range`). The duration is
    /// stored as whole microseconds; measure it with `ripq_core::Clock`
    /// so logical timing keeps span totals reproducible. Spans nest by
    /// path: `a/b` renders as a child of `a` in the trace tree.
    pub fn record_span(&self, path: &str, elapsed: Duration) {
        self.span(path).record(elapsed);
    }

    /// Takes a point-in-time snapshot of every registered metric. Call
    /// after worker threads have joined; the result is then independent
    /// of thread interleaving. Returns an empty snapshot when disabled.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let Some(reg) = &self.inner else {
            return MetricsSnapshot::default();
        };
        let counters = lock(&reg.counters)
            .iter()
            .map(|(name, cell)| (name.clone(), cell.load(Ordering::Relaxed)))
            .collect();
        let gauges = lock(&reg.gauges)
            .iter()
            .map(|(name, cell)| (name.clone(), cell.load(Ordering::Relaxed)))
            .collect();
        let histograms = lock(&reg.histograms)
            .iter()
            .map(|(name, core)| {
                let count = core.count.load(Ordering::Relaxed);
                let buckets = core
                    .buckets
                    .iter()
                    .enumerate()
                    .filter_map(|(index, cell)| {
                        let hits = cell.load(Ordering::Relaxed);
                        (hits > 0).then(|| (bucket_lower_bound(index), hits))
                    })
                    .collect();
                let snap = HistogramSnapshot {
                    count,
                    sum: core.sum.load(Ordering::Relaxed),
                    min: if count == 0 {
                        0
                    } else {
                        core.min.load(Ordering::Relaxed)
                    },
                    max: core.max.load(Ordering::Relaxed),
                    buckets,
                };
                (name.clone(), snap)
            })
            .collect();
        let spans = lock(&reg.spans)
            .iter()
            .map(|(path, core)| {
                let stat = SpanStat {
                    count: core.count.load(Ordering::Relaxed),
                    total_micros: core.total_micros.load(Ordering::Relaxed),
                };
                (path.clone(), stat)
            })
            .collect();
        MetricsSnapshot {
            counters,
            gauges,
            histograms,
            spans,
        }
    }

    /// Restores every metric in `snapshot` into this recorder's registry,
    /// registering names as needed and overwriting current values —
    /// the inverse of [`Recorder::snapshot`], used when resuming from a
    /// checkpoint. Existing handles stay valid: values are stored into
    /// the already-registered cells rather than replacing them. A no-op
    /// when disabled.
    pub fn restore(&self, snapshot: &MetricsSnapshot) {
        let Some(reg) = &self.inner else {
            return;
        };
        for (name, value) in &snapshot.counters {
            resolve(&reg.counters, name, AtomicU64::default).store(*value, Ordering::Relaxed);
        }
        for (name, value) in &snapshot.gauges {
            resolve(&reg.gauges, name, AtomicU64::default).store(*value, Ordering::Relaxed);
        }
        for (name, h) in &snapshot.histograms {
            let core = resolve(&reg.histograms, name, HistogramCore::new);
            core.count.store(h.count, Ordering::Relaxed);
            core.sum.store(h.sum, Ordering::Relaxed);
            // Snapshots render the min of an empty histogram as 0; the
            // live sentinel is u64::MAX so the first observation wins.
            core.min.store(
                if h.count == 0 { u64::MAX } else { h.min },
                Ordering::Relaxed,
            );
            core.max.store(h.max, Ordering::Relaxed);
            for bucket in &core.buckets {
                bucket.store(0, Ordering::Relaxed);
            }
            for &(bound, hits) in &h.buckets {
                // Invert `bucket_lower_bound`: 0 → bucket 0, 2^(i-1) → i.
                let index = if bound == 0 {
                    0
                } else {
                    (bound.trailing_zeros() as usize + 1).min(HISTOGRAM_BUCKETS - 1)
                };
                core.buckets[index].store(hits, Ordering::Relaxed);
            }
        }
        for (path, stat) in &snapshot.spans {
            let core = resolve(&reg.spans, path, SpanCore::default);
            core.count.store(stat.count, Ordering::Relaxed);
            core.total_micros
                .store(stat.total_micros, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_is_inert() {
        let rec = Recorder::disabled();
        assert!(!rec.is_enabled());
        rec.add("x.count", 5);
        rec.observe("x.hist", 3);
        rec.set_gauge("x.gauge", 9);
        rec.record_span("a/b", Duration::from_micros(10));
        let snap = rec.snapshot();
        assert_eq!(snap, MetricsSnapshot::default());
        // Handles from a disabled recorder carry no registry cell.
        let counter = rec.counter("x.count");
        counter.add(1);
        assert!(rec.snapshot().counters.is_empty());
    }

    #[test]
    fn counters_gauges_histograms_round_trip() {
        let rec = Recorder::enabled();
        let counter = rec.counter("pf.resamples");
        counter.add(2);
        counter.inc();
        rec.add("pf.resamples", 1);
        rec.set_gauge("cache.entries", 7);
        let hist = rec.histogram("pf.ess");
        hist.observe(0);
        hist.observe(1);
        hist.observe(63);
        hist.observe_f64(64.9);
        hist.observe_f64(-3.0);
        hist.observe_f64(f64::NAN);
        let snap = rec.snapshot();
        assert_eq!(snap.counters["pf.resamples"], 4);
        assert_eq!(snap.gauges["cache.entries"], 7);
        let h = &snap.histograms["pf.ess"];
        assert_eq!(h.count, 6);
        assert_eq!(h.sum, 128);
        assert_eq!((h.min, h.max), (0, 64));
        // 0 ×3 → bucket lb 0; 1 → lb 1; 63 → lb 32; 64 → lb 64.
        assert_eq!(h.buckets, vec![(0, 3), (1, 1), (32, 1), (64, 1)]);
    }

    #[test]
    fn bucket_boundaries_are_powers_of_two() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
        assert_eq!(bucket_lower_bound(0), 0);
        assert_eq!(bucket_lower_bound(1), 1);
        assert_eq!(bucket_lower_bound(5), 16);
    }

    #[test]
    fn spans_accumulate_by_path() {
        let rec = Recorder::enabled();
        rec.record_span("evaluate", Duration::from_micros(100));
        rec.record_span("evaluate/queries/range", Duration::from_micros(30));
        rec.record_span("evaluate/queries/range", Duration::from_micros(12));
        let snap = rec.snapshot();
        assert_eq!(snap.spans["evaluate"].count, 1);
        let range = &snap.spans["evaluate/queries/range"];
        assert_eq!((range.count, range.total_micros), (2, 42));
    }

    #[test]
    fn span_handles_accumulate_like_record_span() {
        let rec = Recorder::enabled();
        let span = rec.span("evaluate/queries/knn");
        span.record(Duration::from_micros(30));
        rec.record_span("evaluate/queries/knn", Duration::from_micros(12));
        span.record(Duration::MAX);
        let stat = rec.snapshot().spans["evaluate/queries/knn"];
        assert_eq!((stat.count, stat.total_micros), (3, u64::MAX));
        // A handle resolved before a restore records into the restored cell.
        let snap = rec.snapshot();
        let other = Recorder::enabled();
        let early = other.span("evaluate/queries/knn");
        other.restore(&snap);
        early.record(Duration::ZERO);
        assert_eq!(other.snapshot().spans["evaluate/queries/knn"].count, 4);
        Recorder::disabled()
            .span("x")
            .record(Duration::from_micros(1));
    }

    #[test]
    fn concurrent_recording_commutes() {
        let rec = Recorder::enabled();
        let counter = rec.counter("c");
        let hist = rec.histogram("h");
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let counter = counter.clone();
                let hist = hist.clone();
                scope.spawn(move || {
                    for v in 0..100u64 {
                        counter.add(1);
                        hist.observe(v);
                    }
                });
            }
        });
        let snap = rec.snapshot();
        assert_eq!(snap.counters["c"], 400);
        assert_eq!(snap.histograms["h"].count, 400);
        assert_eq!(
            (snap.histograms["h"].min, snap.histograms["h"].max),
            (0, 99)
        );
    }

    #[test]
    fn restore_inverts_snapshot_exactly() {
        let rec = Recorder::enabled();
        rec.add("a.count", 7);
        rec.set_gauge("a.gauge", 12);
        let hist = rec.histogram("a.hist");
        hist.observe(0);
        hist.observe(5);
        hist.observe(1_000_000);
        let _ = rec.histogram("a.empty"); // registered, never observed
        rec.record_span("run/pf", Duration::from_micros(250));
        let snap = rec.snapshot();

        let restored = Recorder::enabled();
        restored.restore(&snap);
        assert_eq!(restored.snapshot(), snap, "restore(snapshot) != identity");

        // The empty histogram's min sentinel survived the round trip:
        // its first post-restore observation still sets the min.
        restored.histogram("a.empty").observe(42);
        assert_eq!(restored.snapshot().histograms["a.empty"].min, 42);

        // Restoring into a registry with pre-resolved handles keeps them
        // live and overwrites their values.
        let busy = Recorder::enabled();
        let pre = busy.counter("a.count");
        pre.add(999);
        busy.restore(&snap);
        assert_eq!(busy.snapshot().counters["a.count"], 7);
        pre.inc();
        assert_eq!(busy.snapshot().counters["a.count"], 8);
    }

    #[test]
    fn restore_on_disabled_recorder_is_a_noop() {
        let rec = Recorder::enabled();
        rec.add("x", 1);
        let snap = rec.snapshot();
        let off = Recorder::disabled();
        off.restore(&snap);
        assert_eq!(off.snapshot(), MetricsSnapshot::default());
    }

    #[test]
    fn clones_share_one_registry() {
        let rec = Recorder::enabled();
        let other = rec.clone();
        other.add("shared", 3);
        assert_eq!(rec.snapshot().counters["shared"], 3);
    }
}

//! The event-driven raw data collector (§4.1).
//!
//! Responsibilities, straight from the paper:
//!
//! * aggregate tens of raw samples per second into "more concise entries
//!   with a time unit of one second" — which "greatly reduce[s] the
//!   detecting errors of false negatives";
//! * define ENTER/LEAVE events per (object, reader) and store readings only
//!   "during the most recent ENTER, LEAVE, ENTER events", i.e. readings of
//!   up to the two most recent detection episodes per object, removing
//!   earlier history.
//!
//! Per object the collector keeps the seconds that carried a detection,
//! each with its reader; a second it does not list was silent, so silence
//! costs nothing to store and a long one nothing to skip.
//!
//! An *episode* — a maximal run of per-second detections by one reader —
//! is one ENTER/LEAVE pair: it ENTERs at its first second and LEAVEs after
//! its last. The two most recent episodes per object are all the event
//! state the collector keeps; they drive retention here and cache
//! invalidation in the particle filter.

use crate::{ObjectId, RawReading, ReaderId};
use ripq_obs::{Counter, Recorder};
use ripq_persist::{ByteReader, ByteWriter, PersistError};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};

/// Re-detections by the same reader within this many silent seconds
/// continue the same episode (tolerates residual aggregation misses).
const GAP_TOLERANCE: u64 = 2;

/// A reader downtime window the collector has been told about (a known
/// failure or maintenance window). During it, silence from that reader is
/// expected — not evidence the object left its range. Windows of one
/// reader are assumed disjoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
struct OutageWindow {
    reader: ReaderId,
    from: u64,
    until: u64,
}

/// Seconds `s` with `after < s < before` during which `reader` was down.
fn downtime_between(outages: &[OutageWindow], reader: ReaderId, after: u64, before: u64) -> u64 {
    if before <= after + 1 {
        return 0;
    }
    let (lo, hi) = (after + 1, before - 1);
    outages
        .iter()
        .filter(|o| o.reader == reader)
        .map(|o| {
            let a = o.from.max(lo);
            let b = o.until.min(hi);
            if b >= a {
                b - a + 1
            } else {
                0
            }
        })
        .sum()
}

/// One maximal run of consecutive per-second detections by a single reader.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
struct Episode {
    reader: ReaderId,
    first_second: u64,
    last_second: u64,
}

/// Per-object collector state.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
struct ObjectState {
    /// The retained detections, `(second, reader)` with seconds strictly
    /// increasing: from the first second of the older kept episode on.
    detections: Vec<(u64, ReaderId)>,
    /// Up to the two most recent episodes, oldest first.
    episodes: Vec<Episode>,
}

impl ObjectState {
    /// Records `reader`'s detection at `second`, the newest one. A
    /// same-reader re-detection continues the last episode if the gap fits
    /// the tolerance once that reader's known downtime is excluded — an
    /// outage is not evidence the object moved. Anything else opens a new
    /// episode; a third one evicts the oldest together with the detections
    /// before the older episode kept.
    fn detected(&mut self, outages: &[OutageWindow], second: u64, reader: ReaderId) {
        self.detections.push((second, reader));
        if let Some(last) = self.episodes.last_mut() {
            if last.reader == reader
                && second - last.last_second
                    <= GAP_TOLERANCE
                        + 1
                        + downtime_between(outages, reader, last.last_second, second)
            {
                last.last_second = second;
                return;
            }
        }
        self.episodes.push(Episode {
            reader,
            first_second: second,
            last_second: second,
        });
        if self.episodes.len() > 2 {
            self.episodes.remove(0);
            let keep_from = self.episodes.first().map_or(second, |e| e.first_second);
            let evicted = self.detections.partition_point(|&(s, _)| s < keep_from);
            self.detections.drain(..evicted);
        }
    }

    /// Whether a decoded state is one a live collector can hold at
    /// `current_second`: detections in increasing seconds, the first at the
    /// older episode's first second and the last the newest episode's last
    /// detection, none after the current second; one or two episodes, in
    /// order. Anything else could misplace the next detection.
    fn is_consistent(&self, current_second: Option<u64>) -> bool {
        let (Some(now), Some(&(first, _)), Some(&last), Some(older), Some(newer)) = (
            current_second,
            self.detections.first(),
            self.detections.last(),
            self.episodes.first(),
            self.episodes.last(),
        ) else {
            return false;
        };
        first == older.first_second
            && last == (newer.last_second, newer.reader)
            && last.0 <= now
            && self.episodes.len() <= 2
            && self
                .episodes
                .iter()
                .all(|e| e.first_second <= e.last_second)
            && self
                .episodes
                .windows(2)
                .all(|w| matches!(w, [a, b] if a.last_second < b.first_second))
            && self
                .detections
                .windows(2)
                .all(|w| matches!(w, [a, b] if a.0 < b.0))
    }
}

/// Resolved metric handles for the collector stage (`collector.*`
/// counters). All default to no-ops until a recorder is attached.
#[derive(Debug, Clone, Default)]
struct CollectorMetrics {
    /// Per-second detections recorded.
    detections: Counter,
    /// Raw sample-level readings ingested.
    raw_samples: Counter,
    /// Batches dropped for arriving older than the newest second.
    stale_batches: Counter,
    /// Distinct objects first registered.
    objects_seen: Counter,
    /// Delivered readings whose logical second preceded the newest
    /// logical second already buffered (out-of-order arrivals the reorder
    /// buffer absorbed).
    reordered: Counter,
    /// Exact duplicate deliveries discarded by idempotent dedup.
    deduped: Counter,
    /// Delivered readings too old even for the reorder window (their
    /// logical second was already finalized).
    late_dropped: Counter,
}

/// The event-driven raw data collector.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct DataCollector {
    objects: HashMap<ObjectId, ObjectState>,
    #[serde(skip)]
    metrics: CollectorMetrics,
    current_second: Option<u64>,
    /// Out-of-order tolerance of [`DataCollector::ingest_delivery`]:
    /// readings may arrive up to this many seconds after their logical
    /// second and still be merged into place. `0` keeps the strict
    /// in-order contract.
    reorder_window: u64,
    /// Readings buffered by logical second, awaiting finalization by
    /// [`DataCollector::flush_through`].
    pending: BTreeMap<u64, Vec<(ObjectId, ReaderId)>>,
    /// Newest logical second seen by `ingest_delivery` (for the
    /// `reordered` counter).
    max_logical_seen: Option<u64>,
    /// Known reader downtime windows (outage-aware episodes).
    outages: Vec<OutageWindow>,
}

impl DataCollector {
    /// Creates a collector with default policies.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attaches an observability recorder; `collector.*` counters are
    /// recorded from now on. A disabled recorder detaches (all handles
    /// become no-ops again).
    pub fn set_recorder(&mut self, recorder: &Recorder) {
        self.metrics = CollectorMetrics {
            detections: recorder.counter("collector.detections"),
            raw_samples: recorder.counter("collector.raw_samples"),
            stale_batches: recorder.counter("collector.stale_batches_dropped"),
            objects_seen: recorder.counter("collector.objects_seen"),
            reordered: recorder.counter("collector.reordered"),
            deduped: recorder.counter("collector.deduped"),
            late_dropped: recorder.counter("collector.late_dropped"),
        };
    }

    /// Sets the out-of-order tolerance of
    /// [`DataCollector::ingest_delivery`] (seconds). With a window of
    /// `W`, a reading delivered at second `d` with logical second
    /// `t ≥ d − W` is merged back into its proper place; anything older
    /// is counted as `collector.late_dropped` and discarded.
    pub fn set_reorder_window(&mut self, seconds: u64) {
        self.reorder_window = seconds;
    }

    /// The out-of-order tolerance in force.
    pub fn reorder_window(&self) -> u64 {
        self.reorder_window
    }

    /// Registers a known reader downtime window `[from, until]`
    /// (inclusive). A same-reader re-detection after the outage continues
    /// its episode instead of splitting a new one: silence from a reader
    /// that is down is not evidence the object left its range.
    pub fn note_outage(&mut self, reader: ReaderId, from: u64, until: u64) {
        self.outages.push(OutageWindow {
            reader,
            from,
            until,
        });
    }
    /// Ingests delivery-tagged readings: each `(logical_second, object,
    /// reader)` triple was *generated* at `logical_second` but only
    /// *arrived* at `delivery_second`. Readings are buffered per logical
    /// second — duplicates of an already-buffered `(object, reader)` pair
    /// are discarded idempotently — and the timeline is finalized up to
    /// `delivery_second − reorder_window` on every call. Readings whose
    /// logical second was already finalized are dropped (and counted).
    pub fn ingest_delivery(
        &mut self,
        delivery_second: u64,
        readings: &[(u64, ObjectId, ReaderId)],
    ) {
        for &(logical, object, reader) in readings {
            if self.current_second.is_some_and(|cur| logical <= cur) {
                self.metrics.late_dropped.inc();
                continue;
            }
            if self.max_logical_seen.is_some_and(|m| logical < m) {
                self.metrics.reordered.inc();
            }
            self.max_logical_seen = Some(self.max_logical_seen.map_or(logical, |m| m.max(logical)));
            let bucket = self.pending.entry(logical).or_default();
            if bucket.contains(&(object, reader)) {
                self.metrics.deduped.inc();
                continue;
            }
            bucket.push((object, reader));
        }
        // Nothing is final until the delivery clock has cleared the
        // window: logical second `s` may still receive readings up to
        // delivery `s + window`, so the watermark is `delivery - window`
        // and simply doesn't exist for the first `window` seconds.
        if let Some(watermark) = delivery_second.checked_sub(self.reorder_window) {
            self.flush_through(watermark);
        }
    }

    /// Finalizes every logical second up to `second` (inclusive): each
    /// buffered one is fed to [`DataCollector::ingest_second`] in order,
    /// and the current second moves to `second` (the rest were silent).
    /// Call once more with the final watermark after the stream ends to
    /// drain the buffer.
    pub fn flush_through(&mut self, second: u64) {
        let start = match self.current_second {
            Some(cur) => cur + 1,
            None => match self.pending.keys().next() {
                Some(&first) => first,
                None => return,
            },
        };
        if second < start {
            return;
        }
        while let Some((&s, _)) = self.pending.range(start..=second).next() {
            let batch = self.pending.remove(&s).unwrap_or_default();
            self.ingest_second(s, &batch);
        }
        self.current_second = Some(second);
    }

    /// Ingests all raw readings of one second (any object mix, unordered
    /// within the second). Each object's entry is the reader that sampled
    /// it most often; a tie goes to the lowest reader id, as it does in
    /// `SensingModel::detect_second`, so the entry never depends on sample
    /// order. Seconds must be fed in non-decreasing order; skipped seconds
    /// are treated as silent.
    pub fn ingest_raw_second(&mut self, second: u64, raw: &[RawReading]) {
        self.metrics.raw_samples.add(raw.len() as u64);
        // Sorted, each object's samples form one run per reader, lowest
        // reader first, so one pass over the runs finds every majority.
        let mut samples: Vec<(ObjectId, ReaderId)> = raw
            .iter()
            .map(|r| {
                debug_assert_eq!(r.second(), second, "reading outside its second");
                (r.object, r.reader)
            })
            .collect();
        samples.sort_unstable();
        let mut detections: Vec<(ObjectId, ReaderId)> = Vec::new();
        let (mut run, mut best) = (0usize, 0usize);
        for (i, &sample) in samples.iter().enumerate() {
            run += 1;
            if samples.get(i + 1) == Some(&sample) {
                continue;
            }
            match detections.last_mut() {
                Some(last) if last.0 == sample.0 => {
                    if run > best {
                        *last = sample;
                        best = run;
                    }
                }
                _ => {
                    detections.push(sample);
                    best = run;
                }
            }
            run = 0;
        }
        self.ingest_second(second, &detections);
    }

    /// Ingests pre-aggregated per-second detections: at most one reader per
    /// object for this second (of several pairs naming one object, the
    /// last wins).
    ///
    /// Seconds must be fed in non-decreasing order; batches older than the
    /// newest second already ingested are dropped (late arrivals cannot be
    /// merged into the retained readings retroactively). Skipped seconds
    /// are silent. Several batches may carry one second: a later batch
    /// merges into it. An object already detected in that second keeps its
    /// first reader.
    pub fn ingest_second(&mut self, second: u64, detections: &[(ObjectId, ReaderId)]) {
        if self.current_second.is_some_and(|cur| second < cur) {
            self.metrics.stale_batches.inc();
            return;
        }
        self.current_second = Some(second);
        // From the end, the first pair naming an object is the batch's last
        // one for it; any other finds the object detected this second.
        for &(id, reader) in detections.iter().rev() {
            let st = self.objects.entry(id).or_insert_with(|| {
                self.metrics.objects_seen.inc();
                ObjectState::default()
            });
            if st.detections.last().is_some_and(|&(s, _)| s == second) {
                continue;
            }
            self.metrics.detections.inc();
            st.detected(&self.outages, second, reader);
        }
    }

    /// The last second fed to the collector.
    pub fn current_second(&self) -> Option<u64> {
        self.current_second
    }

    /// Objects the collector has ever detected, in no particular order.
    pub fn objects(&self) -> impl Iterator<Item = ObjectId> + '_ {
        // ripq-lint: allow(ordered-iteration) -- the order is documented as unspecified; every caller sorts or counts what it collects
        self.objects.keys().copied()
    }

    /// The retained detections of an object, oldest first: `(second,
    /// reader)` for each second it was detected, from the first second of
    /// the older kept episode (`t0` in Algorithm 2) on; a second not listed
    /// was silent. Empty for an object never detected.
    pub fn detections(&self, o: ObjectId) -> &[(u64, ReaderId)] {
        self.objects.get(&o).map_or(&[], |st| &st.detections)
    }

    /// The most recent detecting reader (`d` in §4.3) and the second it
    /// last detected the object (`t_last`).
    pub fn last_detection(&self, o: ObjectId) -> Option<(ReaderId, u64)> {
        let st = self.objects.get(&o)?;
        st.episodes.last().map(|e| (e.reader, e.last_second))
    }

    /// Identity of the most recent detection episode: `(reader,
    /// first_second, last_second)`. The pair `(reader, first_second)`
    /// uniquely identifies an episode, which is exactly the invalidation
    /// granularity the particle cache needs (§4.5: cached particles are
    /// discarded "every time oᵢ is detected by a new device").
    pub fn last_episode(&self, o: ObjectId) -> Option<(ReaderId, u64, u64)> {
        let st = self.objects.get(&o)?;
        st.episodes
            .last()
            .map(|e| (e.reader, e.first_second, e.last_second))
    }

    /// The second most recent and most recent detecting devices
    /// (`dᵢ, dⱼ` of Algorithm 2; `dⱼ` is `None` while only one episode
    /// exists).
    pub fn last_two_devices(&self, o: ObjectId) -> Option<(ReaderId, Option<ReaderId>)> {
        let st = self.objects.get(&o)?;
        match st.episodes.as_slice() {
            [] => None,
            [only] => Some((only.reader, None)),
            [.., prev, last] => Some((prev.reader, Some(last.reader))),
        }
    }

    /// Appends the collector's mutable state to `w` in the canonical
    /// checkpoint encoding (objects sorted by id, pending buckets in
    /// `BTreeMap` order), so equal state always encodes to identical
    /// bytes. Neither the metric handles nor the reorder window are part
    /// of the state: the owner sets both again after a decode
    /// ([`DataCollector::set_recorder`],
    /// [`DataCollector::set_reorder_window`]).
    pub fn encode_state(&self, w: &mut ByteWriter) {
        w.put_opt_u64(self.current_second);
        w.put_opt_u64(self.max_logical_seen);

        let mut by_id: Vec<(&ObjectId, &ObjectState)> = self.objects.iter().collect();
        by_id.sort_unstable_by_key(|&(id, _)| *id);
        w.put_seq_len(by_id.len());
        for (id, st) in by_id {
            w.put_u32(id.raw());
            w.put_seq_len(st.detections.len());
            for &(second, reader) in &st.detections {
                w.put_u64(second);
                w.put_u32(reader.raw());
            }
            w.put_seq_len(st.episodes.len());
            for ep in &st.episodes {
                w.put_u32(ep.reader.raw());
                w.put_u64(ep.first_second);
                w.put_u64(ep.last_second);
            }
        }

        w.put_seq_len(self.pending.len());
        for (&second, bucket) in &self.pending {
            w.put_u64(second);
            w.put_seq_len(bucket.len());
            for &(object, reader) in bucket {
                w.put_u32(object.raw());
                w.put_u32(reader.raw());
            }
        }

        w.put_seq_len(self.outages.len());
        for o in &self.outages {
            w.put_u32(o.reader.raw());
            w.put_u64(o.from);
            w.put_u64(o.until);
        }
    }

    /// Rebuilds a collector from bytes written by
    /// [`DataCollector::encode_state`] for a deployment of `readers`
    /// readers. The bytes are untrusted: any truncation or invalid tag, a
    /// reader id at or above `readers`, a repeated object, or an object
    /// state no live collector can reach (no episode or more than two,
    /// episodes out of order, detections out of order, not starting at the
    /// older episode's first second, not ending at the newest episode's
    /// last, or after the current second) is [`PersistError::Torn`]. The
    /// returned collector has a reorder window of 0 and detached metric
    /// handles.
    pub fn decode_state(
        r: &mut ByteReader<'_>,
        readers: usize,
    ) -> Result<DataCollector, PersistError> {
        let reader = |r: &mut ByteReader<'_>| {
            let id = ReaderId::new(r.get_u32()?);
            if id.index() < readers {
                Ok(id)
            } else {
                Err(PersistError::Torn)
            }
        };
        let current_second = r.get_opt_u64()?;
        let max_logical_seen = r.get_opt_u64()?;

        let mut objects = HashMap::new();
        let n_objects = r.get_seq_len(12)?;
        for _ in 0..n_objects {
            let id = ObjectId::new(r.get_u32()?);
            let n_detections = r.get_seq_len(12)?;
            let mut detections = Vec::with_capacity(n_detections);
            for _ in 0..n_detections {
                detections.push((r.get_u64()?, reader(r)?));
            }
            let n_episodes = r.get_seq_len(20)?;
            let mut episodes = Vec::with_capacity(n_episodes);
            for _ in 0..n_episodes {
                episodes.push(Episode {
                    reader: reader(r)?,
                    first_second: r.get_u64()?,
                    last_second: r.get_u64()?,
                });
            }
            let st = ObjectState {
                detections,
                episodes,
            };
            if !st.is_consistent(current_second) || objects.insert(id, st).is_some() {
                return Err(PersistError::Torn);
            }
        }

        let mut pending = BTreeMap::new();
        let n_pending = r.get_seq_len(12)?;
        for _ in 0..n_pending {
            let second = r.get_u64()?;
            let n = r.get_seq_len(8)?;
            let mut bucket = Vec::with_capacity(n);
            for _ in 0..n {
                bucket.push((ObjectId::new(r.get_u32()?), reader(r)?));
            }
            pending.insert(second, bucket);
        }

        let n_outages = r.get_seq_len(20)?;
        let mut outages = Vec::with_capacity(n_outages);
        for _ in 0..n_outages {
            outages.push(OutageWindow {
                reader: reader(r)?,
                from: r.get_u64()?,
                until: r.get_u64()?,
            });
        }

        Ok(DataCollector {
            objects,
            current_second,
            pending,
            max_logical_seen,
            outages,
            ..DataCollector::default()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const O: ObjectId = ObjectId::new(0);
    const D1: ReaderId = ReaderId::new(1);
    const D2: ReaderId = ReaderId::new(2);
    const D3: ReaderId = ReaderId::new(3);
    /// Reader count of the deployment the codec tests decode against.
    const READERS: usize = 4;

    fn feed(collector: &mut DataCollector, plan: &[(u64, Option<ReaderId>)]) {
        for &(sec, reading) in plan {
            match reading {
                Some(r) => collector.ingest_second(sec, &[(O, r)]),
                None => collector.ingest_second(sec, &[]),
            }
        }
    }

    #[test]
    fn single_episode_aggregation() {
        let mut c = DataCollector::new();
        feed(
            &mut c,
            &[(0, Some(D1)), (1, Some(D1)), (2, None), (3, None)],
        );
        assert_eq!(c.detections(O), &[(0, D1), (1, D1)]);
        assert_eq!(c.last_detection(O), Some((D1, 1)));
        assert_eq!(c.last_two_devices(O), Some((D1, None)));
    }

    #[test]
    fn two_episodes_retained() {
        let mut c = DataCollector::new();
        feed(
            &mut c,
            &[
                (0, Some(D1)),
                (1, Some(D1)),
                (2, None),
                (3, None),
                (4, Some(D2)),
                (5, Some(D2)),
            ],
        );
        assert_eq!(c.detections(O)[0], (0, D1), "both episodes kept");
        assert_eq!(c.last_two_devices(O), Some((D1, Some(D2))));
        assert_eq!(c.last_detection(O), Some((D2, 5)));
        assert_eq!(c.last_episode(O), Some((D2, 4, 5)));
    }

    #[test]
    fn third_device_evicts_first() {
        let mut c = DataCollector::new();
        feed(
            &mut c,
            &[
                (0, Some(D1)),
                (1, None),
                (2, Some(D2)),
                (3, None),
                (4, Some(D3)),
            ],
        );
        // Detections before D2's episode (second 2) are dropped.
        assert_eq!(c.detections(O), &[(2, D2), (4, D3)]);
        assert_eq!(c.last_two_devices(O), Some((D2, Some(D3))));
    }

    #[test]
    fn gap_tolerance_merges_same_reader_episodes() {
        let mut c = DataCollector::new();
        // One missed second inside D1 coverage: still one episode.
        feed(
            &mut c,
            &[(0, Some(D1)), (1, None), (2, Some(D1)), (3, Some(D1))],
        );
        assert_eq!(c.last_two_devices(O), Some((D1, None)));
        assert_eq!(c.last_episode(O), Some((D1, 0, 3)));
    }

    #[test]
    fn long_gap_same_reader_is_new_episode() {
        let mut c = DataCollector::new();
        feed(
            &mut c,
            &[
                (0, Some(D1)),
                (1, None),
                (2, None),
                (3, None),
                (4, None),
                (5, Some(D1)),
            ],
        );
        // Re-detection after > gap_tolerance: treated as ENTER,LEAVE,ENTER
        // with the same device, so two episodes of D1 are retained.
        assert_eq!(c.last_two_devices(O), Some((D1, Some(D1))));
    }

    #[test]
    fn silence_is_not_stored() {
        let mut c = DataCollector::new();
        c.ingest_second(0, &[(O, D1)]);
        for s in 1..500 {
            c.ingest_second(s, &[]);
        }
        assert_eq!(c.detections(O), &[(0, D1)]);
        // The collector still knows the current second.
        assert_eq!(c.current_second(), Some(499));
    }

    /// The encoded state of a collector, in bytes.
    fn encoded_len(c: &DataCollector) -> usize {
        let mut w = ByteWriter::new();
        c.encode_state(&mut w);
        w.into_bytes().len()
    }

    #[test]
    fn a_far_future_second_stays_small() {
        const FAR: u64 = 1 + 10_000_000;
        let mut direct = DataCollector::new();
        direct.ingest_second(1, &[(O, D1)]);
        direct.ingest_second(FAR, &[(O, D1)]);
        let mut delivered = DataCollector::new();
        delivered.ingest_delivery(1, &[(1, O, D1)]);
        delivered.ingest_delivery(FAR, &[(FAR, O, D1)]);
        for c in [direct, delivered] {
            assert_eq!(c.current_second(), Some(FAR));
            assert!(encoded_len(&c) < 1024, "state of {} B", encoded_len(&c));
            assert_eq!(c.detections(O), &[(1, D1), (FAR, D1)]);
            assert_eq!(c.last_two_devices(O), Some((D1, Some(D1))));
        }
    }

    #[test]
    fn raw_ingestion_aggregates_samples() {
        let mut c = DataCollector::new();
        let raw: Vec<RawReading> = (0..8)
            .map(|i| RawReading {
                time: 5.0 + i as f64 / 10.0,
                object: O,
                reader: D1,
            })
            .collect();
        c.ingest_raw_second(5, &raw);
        assert_eq!(c.detections(O), &[(5, D1)]);
    }

    #[test]
    fn raw_ingestion_majority_reader_wins() {
        let mut c = DataCollector::new();
        let mut raw = Vec::new();
        for i in 0..3 {
            raw.push(RawReading {
                time: 1.0 + i as f64 / 10.0,
                object: O,
                reader: D1,
            });
        }
        for i in 3..10 {
            raw.push(RawReading {
                time: 1.0 + i as f64 / 10.0,
                object: O,
                reader: D2,
            });
        }
        c.ingest_raw_second(1, &raw);
        assert_eq!(c.last_detection(O), Some((D2, 1)));
    }

    #[test]
    fn a_tie_between_readers_goes_to_the_lowest_id() {
        let sample = |time, reader| RawReading {
            time,
            object: O,
            reader: ReaderId::new(reader),
        };
        let tie = [sample(5.1, 0), sample(5.2, 1)];
        let reversed = [sample(5.1, 1), sample(5.2, 0)];
        // Each fresh collector would hash with fresh keys, so a tie
        // broken in hash order would pick reader 1 in some of them.
        for raw in [tie, reversed].iter().cycle().take(64) {
            let mut c = DataCollector::new();
            c.ingest_raw_second(5, raw);
            assert_eq!(c.last_detection(O), Some((ReaderId::new(0), 5)));
        }
    }

    #[test]
    fn raw_ingestion_picks_each_objects_majority_reader() {
        let o = |id| ObjectId::new(id);
        let sample = |object, reader| RawReading {
            time: 3.5,
            object,
            reader,
        };
        // Interleaved across objects: o1 is D3's (2 to 1), o2 ties D1/D2
        // (the lowest wins), o7 is only D2's.
        let raw = [
            sample(o(1), D3),
            sample(o(2), D2),
            sample(o(7), D2),
            sample(o(1), D1),
            sample(o(2), D1),
            sample(o(1), D3),
        ];
        let mut c = DataCollector::new();
        c.ingest_raw_second(3, &raw);
        assert_eq!(c.last_detection(o(1)), Some((D3, 3)));
        assert_eq!(c.last_detection(o(2)), Some((D1, 3)));
        assert_eq!(c.last_detection(o(7)), Some((D2, 3)));
        let mut seen: Vec<ObjectId> = c.objects().collect();
        seen.sort_unstable();
        assert_eq!(seen, [o(1), o(2), o(7)]);
    }

    #[test]
    fn multiple_objects_tracked_independently() {
        let mut c = DataCollector::new();
        let o2 = ObjectId::new(9);
        c.ingest_second(0, &[(O, D1), (o2, D2)]);
        c.ingest_second(1, &[(o2, D2)]);
        assert_eq!(c.last_detection(O), Some((D1, 0)));
        assert_eq!(c.last_detection(o2), Some((D2, 1)));
        assert_eq!(c.objects().count(), 2);
    }

    #[test]
    fn stale_batches_are_dropped() {
        let mut c = DataCollector::new();
        c.ingest_second(5, &[(O, D1)]);
        // A late batch for second 3 must not corrupt the timeline.
        c.ingest_second(3, &[(O, D2)]);
        assert_eq!(c.current_second(), Some(5));
        assert_eq!(c.last_detection(O), Some((D1, 5)));
        assert_eq!(c.detections(O), &[(5, D1)]);
    }

    #[test]
    fn unknown_object_queries_return_none() {
        let c = DataCollector::new();
        assert!(c.detections(O).is_empty());
        assert!(c.last_detection(O).is_none());
        assert!(c.last_two_devices(O).is_none());
        assert!(c.last_episode(O).is_none());
    }

    /// Clean ingestion of a per-second plan, for comparing against the
    /// delivery path.
    fn ingest_clean(plan: &[(u64, Option<ReaderId>)]) -> DataCollector {
        let mut c = DataCollector::new();
        feed(&mut c, plan);
        c
    }

    #[test]
    fn in_window_reorder_is_absorbed_exactly() {
        // Logical seconds 0..=5; reading of second 2 arrives two seconds
        // late, second 4's arrives one second late.
        let plan: &[(u64, Option<ReaderId>)] = &[
            (0, Some(D1)),
            (1, Some(D1)),
            (2, Some(D1)),
            (3, None),
            (4, Some(D2)),
            (5, Some(D2)),
        ];
        let clean = ingest_clean(plan);

        let mut c = DataCollector::new();
        c.set_reorder_window(2);
        c.ingest_delivery(0, &[(0, O, D1)]);
        c.ingest_delivery(1, &[(1, O, D1)]);
        c.ingest_delivery(2, &[]);
        c.ingest_delivery(3, &[]);
        c.ingest_delivery(4, &[(2, O, D1)]); // 2 s late
        c.ingest_delivery(5, &[(4, O, D2), (5, O, D2)]); // 1 s late + on time
        c.flush_through(5);

        assert_eq!(c.detections(O), clean.detections(O));
        assert_eq!(c.last_two_devices(O), clean.last_two_devices(O));
        assert_eq!(c.last_episode(O), clean.last_episode(O));
        assert_eq!(c.current_second(), clean.current_second());
    }

    #[test]
    fn duplicate_deliveries_are_idempotent() {
        let plan: &[(u64, Option<ReaderId>)] = &[(0, Some(D1)), (1, Some(D1)), (2, None)];
        let clean = ingest_clean(plan);

        let mut c = DataCollector::new();
        c.set_reorder_window(1);
        c.ingest_delivery(0, &[(0, O, D1), (0, O, D1)]);
        c.ingest_delivery(1, &[(1, O, D1)]);
        c.ingest_delivery(2, &[(1, O, D1)]); // duplicate, one second later
        c.flush_through(2);

        assert_eq!(c.detections(O), clean.detections(O));
        assert_eq!(c.last_episode(O), clean.last_episode(O));
    }

    #[test]
    fn beyond_window_readings_are_late_dropped() {
        let mut c = DataCollector::new();
        c.set_reorder_window(1);
        c.ingest_delivery(0, &[(0, O, D1)]);
        c.ingest_delivery(5, &[]); // finalizes through second 4
                                   // Logical second 3 was already finalized: dropped, not merged.
        c.ingest_delivery(6, &[(3, O, D2)]);
        c.flush_through(6);
        assert_eq!(c.detections(O), &[(0, D1)], "late reading discarded");
        assert_eq!(c.current_second(), Some(6));
    }

    #[test]
    fn window_zero_delivery_matches_ingest_second() {
        let plan: &[(u64, Option<ReaderId>)] =
            &[(0, Some(D1)), (1, None), (2, Some(D2)), (3, None)];
        let clean = ingest_clean(plan);
        let mut c = DataCollector::new();
        for &(s, reading) in plan {
            match reading {
                Some(r) => c.ingest_delivery(s, &[(s, O, r)]),
                None => c.ingest_delivery(s, &[]),
            }
        }
        assert_eq!(c.detections(O), clean.detections(O));
        assert_eq!(c.last_episode(O), clean.last_episode(O));
        assert_eq!(c.current_second(), clean.current_second());
    }

    #[test]
    fn outage_extends_episode_gap_tolerance() {
        // Silence 3..=6 is a known outage; re-detection at 7 is within
        // the effective tolerance (7-2 = 5 ≤ 3 + 4 downtime seconds), so
        // the episode continues instead of splitting.
        let mut c = DataCollector::new();
        c.note_outage(D1, 3, 6);
        feed(
            &mut c,
            &[
                (0, Some(D1)),
                (1, Some(D1)),
                (2, Some(D1)),
                (3, None),
                (4, None),
                (5, None),
                (6, None),
                (7, Some(D1)),
            ],
        );
        assert_eq!(
            c.last_two_devices(O),
            Some((D1, None)),
            "one continued episode, not an ENTER/LEAVE/ENTER split"
        );
        // Without the outage note the same silence splits the episode.
        let mut u = DataCollector::new();
        feed(
            &mut u,
            &[
                (0, Some(D1)),
                (1, Some(D1)),
                (2, Some(D1)),
                (3, None),
                (4, None),
                (5, None),
                (6, None),
                (7, Some(D1)),
            ],
        );
        assert_eq!(u.last_two_devices(O), Some((D1, Some(D1))));
    }

    #[test]
    fn handoff_during_outage_closes_previous_episode_once() {
        // D1 goes down at 3; the object shows up at D2 at 5 while D1 is
        // still down. The D1 episode ends at its last detection and D2's
        // opens at the handoff.
        let mut c = DataCollector::new();
        c.note_outage(D1, 3, 8);
        feed(
            &mut c,
            &[
                (0, Some(D1)),
                (1, Some(D1)),
                (2, Some(D1)),
                (3, None),
                (4, None),
                (5, Some(D2)),
                (6, Some(D2)),
            ],
        );
        assert_eq!(c.last_two_devices(O), Some((D1, Some(D2))));
        assert_eq!(c.last_episode(O), Some((D2, 5, 6)));
        assert_eq!(c.detections(O)[0], (0, D1));
    }

    /// Drives a collector through a state-rich history: multiple objects,
    /// episode evictions, a reorder buffer with still-pending readings,
    /// and a registered outage window.
    fn eventful_collector() -> DataCollector {
        let mut c = DataCollector::new();
        c.set_reorder_window(2);
        c.note_outage(D3, 10, 14);
        let o2 = ObjectId::new(4);
        c.ingest_delivery(0, &[(0, O, D1), (0, o2, D2)]);
        c.ingest_delivery(1, &[(1, O, D1)]);
        c.ingest_delivery(3, &[(2, O, D1), (3, o2, D3)]);
        c.ingest_delivery(5, &[(4, O, D2), (5, O, D2), (5, o2, D3)]);
        // Still buffered (watermark has not reached them yet).
        c.ingest_delivery(6, &[(6, O, D3), (6, o2, D1)]);
        c
    }

    #[test]
    fn state_codec_round_trips_and_is_canonical() {
        let c = eventful_collector();
        let mut w = ByteWriter::new();
        c.encode_state(&mut w);
        let bytes = w.into_bytes();

        // Equal state encodes identically (HashMap order must not leak).
        let mut w2 = ByteWriter::new();
        eventful_collector().encode_state(&mut w2);
        assert_eq!(bytes, w2.into_bytes(), "encoding is not canonical");

        let mut r = ByteReader::new(&bytes);
        let d = DataCollector::decode_state(&mut r, READERS).unwrap();
        r.finish().unwrap();

        // Decoded collector re-encodes to the same bytes...
        let mut w3 = ByteWriter::new();
        d.encode_state(&mut w3);
        assert_eq!(bytes, w3.into_bytes(), "decode/encode not a round trip");

        // ...and behaves identically on the remaining stream.
        let (mut a, mut b) = (c, d);
        for s in 7..=12u64 {
            let batch = [(s, O, D1), (s, ObjectId::new(4), D2)];
            a.ingest_delivery(s, &batch);
            b.ingest_delivery(s, &batch);
        }
        a.flush_through(12);
        b.flush_through(12);
        for o in [O, ObjectId::new(4)] {
            assert_eq!(a.last_episode(o), b.last_episode(o));
            assert_eq!(a.last_two_devices(o), b.last_two_devices(o));
            assert_eq!(a.detections(o), b.detections(o));
        }
        assert_eq!(a.current_second(), b.current_second());
    }

    #[test]
    fn truncated_state_is_torn_not_a_panic() {
        let c = eventful_collector();
        let mut w = ByteWriter::new();
        c.encode_state(&mut w);
        let bytes = w.into_bytes();
        for cut in [0, 1, 5, bytes.len() / 2, bytes.len() - 1] {
            let mut r = ByteReader::new(&bytes[..cut]);
            assert_eq!(
                DataCollector::decode_state(&mut r, READERS).unwrap_err(),
                PersistError::Torn,
                "cut at {cut} not detected"
            );
        }
    }

    #[test]
    fn no_outage_notes_keep_behavior_identical() {
        // The outage-aware logic degrades to the classic semantics when
        // no windows were registered: replay an eventful plan both ways.
        let plan: &[(u64, Option<ReaderId>)] = &[
            (0, Some(D1)),
            (1, None),
            (2, Some(D1)),
            (3, None),
            (4, None),
            (5, None),
            (6, Some(D2)),
            (7, None),
            (8, Some(D3)),
        ];
        let c = ingest_clean(plan);
        // Expected values pinned from the pre-fault-layer collector.
        assert_eq!(c.last_two_devices(O), Some((D2, Some(D3))));
        assert_eq!(c.last_episode(O), Some((D3, 8, 8)));
        assert_eq!(c.detections(O), &[(6, D2), (8, D3)]);
    }

    #[test]
    fn a_later_batch_for_the_current_second_merges_into_it() {
        let p = ObjectId::new(7);
        let mut c = DataCollector::new();
        c.ingest_second(1, &[(O, D1)]);
        // A second frame for second 1: `p` is new, `O` keeps its reader.
        c.ingest_second(1, &[(p, D1), (O, D2)]);
        c.ingest_second(2, &[]);
        c.ingest_second(3, &[(O, D1)]);
        assert_eq!(c.detections(p), &[(1, D1)]);
        assert_eq!(c.detections(O), &[(1, D1), (3, D1)]);
        assert_eq!(c.last_episode(O), Some((D1, 1, 3)));
        assert_eq!(c.current_second(), Some(3));

        // A silent second takes the later batch's reading and opens the
        // episode it starts; objects the batch does not name are untouched.
        c.ingest_second(4, &[]);
        c.ingest_second(4, &[(p, D2)]);
        assert_eq!(c.detections(p), &[(1, D1), (4, D2)]);
        assert_eq!(c.last_two_devices(p), Some((D1, Some(D2))));
        assert_eq!(c.last_episode(p), Some((D2, 4, 4)));
        assert_eq!(c.detections(O), &[(1, D1), (3, D1)]);

        // So it does after a long silence.
        c.ingest_second(200, &[]);
        c.ingest_second(200, &[(O, D3)]);
        assert_eq!(c.detections(O), &[(1, D1), (3, D1), (200, D3)]);
        assert_eq!(c.last_two_devices(O), Some((D1, Some(D3))));
    }

    /// Hand-built `encode_state` bytes: current second 10, one object
    /// (id 0) with `detections` as `(second, reader)` and `episodes`, then
    /// the pending buckets and outages.
    fn state_bytes(
        detections: &[(u64, u32)],
        episodes: &[(u32, u64, u64)],
        pending: &[(u64, u32)],
        outages: &[(u32, u64, u64)],
    ) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_opt_u64(Some(10));
        w.put_opt_u64(None);
        w.put_seq_len(1);
        w.put_u32(0);
        w.put_seq_len(detections.len());
        for &(second, reader) in detections {
            w.put_u64(second);
            w.put_u32(reader);
        }
        w.put_seq_len(episodes.len());
        for &(reader, first, last) in episodes {
            w.put_u32(reader);
            w.put_u64(first);
            w.put_u64(last);
        }
        w.put_seq_len(pending.len());
        for &(second, reader) in pending {
            w.put_u64(second);
            w.put_seq_len(1);
            w.put_u32(0);
            w.put_u32(reader);
        }
        w.put_seq_len(outages.len());
        for &(reader, from, until) in outages {
            w.put_u32(reader);
            w.put_u64(from);
            w.put_u64(until);
        }
        w.into_bytes()
    }

    fn decode(bytes: &[u8]) -> Result<DataCollector, PersistError> {
        let mut r = ByteReader::new(bytes);
        let c = DataCollector::decode_state(&mut r, READERS)?;
        r.finish()?;
        Ok(c)
    }

    /// Detections and episodes of the live collector fed D1 at second 8,
    /// silence at 9 and D2 at 10.
    const DETECTIONS: [(u64, u32); 2] = [(8, 1), (10, 2)];
    const EPISODES: [(u32, u64, u64); 2] = [(1, 8, 8), (2, 10, 10)];

    #[test]
    fn a_hand_built_live_state_decodes_and_resumes() {
        let bytes = state_bytes(&DETECTIONS, &EPISODES, &[(11, 3)], &[(3, 20, 30)]);
        let mut c = decode(&bytes).unwrap();
        let mut w = ByteWriter::new();
        c.encode_state(&mut w);
        assert_eq!(w.into_bytes(), bytes, "decode/encode not a round trip");
        c.ingest_second(11, &[(O, D3)]);
        assert_eq!(c.last_two_devices(O), Some((D2, Some(D3))));
        assert_eq!(c.detections(O), &[(10, D2), (11, D3)]);
    }

    #[test]
    fn reader_ids_outside_the_deployment_are_torn() {
        let bad = READERS as u32;
        for (what, bytes) in [
            (
                "detection",
                state_bytes(&[(8, 1), (9, bad), (10, 2)], &EPISODES, &[], &[]),
            ),
            (
                "episode",
                state_bytes(&[(8, 1), (10, bad)], &[(1, 8, 8), (bad, 10, 10)], &[], &[]),
            ),
            (
                "pending",
                state_bytes(&DETECTIONS, &EPISODES, &[(11, bad)], &[]),
            ),
            (
                "outage",
                state_bytes(&DETECTIONS, &EPISODES, &[], &[(bad, 1, 2)]),
            ),
        ] {
            assert_eq!(decode(&bytes).unwrap_err(), PersistError::Torn, "{what}");
        }
    }

    #[test]
    fn objects_without_one_or_two_episodes_are_torn() {
        let none = state_bytes(&DETECTIONS, &[], &[], &[]);
        let three = state_bytes(
            &[(8, 1), (9, 2), (10, 3)],
            &[(1, 8, 8), (2, 9, 9), (3, 10, 10)],
            &[],
            &[],
        );
        for bytes in [none, three] {
            assert_eq!(decode(&bytes).unwrap_err(), PersistError::Torn);
        }
    }

    #[test]
    fn episodes_out_of_order_are_torn() {
        let swapped = state_bytes(&DETECTIONS, &[(2, 10, 10), (1, 8, 8)], &[], &[]);
        let overlapping = state_bytes(
            &[(8, 1), (9, 1), (10, 2)],
            &[(1, 8, 9), (2, 9, 10)],
            &[],
            &[],
        );
        let reversed = state_bytes(&[(8, 1), (9, 2)], &[(1, 8, 8), (2, 10, 9)], &[], &[]);
        for bytes in [swapped, overlapping, reversed] {
            assert_eq!(decode(&bytes).unwrap_err(), PersistError::Torn);
        }
    }

    #[test]
    fn detections_not_spanning_the_episodes_are_torn() {
        // Starting after the older episode, ending before the newer one,
        // out of order, or a second listed twice.
        let early = state_bytes(&DETECTIONS, &[(1, 7, 8), (2, 10, 10)], &[], &[]);
        let late = state_bytes(&[(8, 1)], &EPISODES, &[], &[]);
        let none = state_bytes(&[], &EPISODES, &[], &[]);
        let unordered = state_bytes(&[(8, 1), (10, 1), (9, 3), (10, 2)], &EPISODES, &[], &[]);
        let twice = state_bytes(&[(8, 1), (10, 2), (10, 2)], &EPISODES, &[], &[]);
        for bytes in [early, late, none, unordered, twice] {
            assert_eq!(decode(&bytes).unwrap_err(), PersistError::Torn);
        }
    }

    #[test]
    fn state_past_the_current_second_is_torn() {
        let bytes = state_bytes(&[(8, 1), (11, 2)], &[(1, 8, 8), (2, 11, 11)], &[], &[]);
        assert_eq!(decode(&bytes).unwrap_err(), PersistError::Torn);
    }
}

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

use crate::{ObjectId, RawReading, ReaderId};
use ripq_obs::{Counter, Recorder};
use ripq_persist::{ByteReader, ByteWriter, PersistError};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};

/// Kind of a detection-range event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EventKind {
    /// The object entered a reader's detection range.
    Enter,
    /// The object left a reader's detection range.
    Leave,
}

/// An ENTER or LEAVE event for one object at one reader.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RfidEvent {
    /// What happened.
    pub kind: EventKind,
    /// The reader whose range was entered/left.
    pub reader: ReaderId,
    /// The second it happened (for LEAVE: the first second *without* a
    /// detection).
    pub second: u64,
}

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
#[derive(Debug, Clone, Serialize, Deserialize)]
struct ObjectState {
    /// Second of `entries[0]`.
    start_second: u64,
    /// One aggregated entry per second from `start_second`; `None` = the
    /// object was not detected that second.
    entries: Vec<Option<ReaderId>>,
    /// Up to the two most recent episodes, oldest first.
    episodes: Vec<Episode>,
    /// Second of the most recent detection.
    last_detection: u64,
    /// Recent ENTER/LEAVE events (bounded).
    events: Vec<RfidEvent>,
}

/// Read-only view of an object's retained aggregated readings.
#[derive(Debug, Clone, Copy)]
pub struct AggregatedReadings<'a> {
    /// Second of the first retained entry (`t0` in Algorithm 2).
    pub start_second: u64,
    /// One entry per second starting at `start_second`.
    pub entries: &'a [Option<ReaderId>],
}

impl AggregatedReadings<'_> {
    /// The aggregated entry for an absolute second, or `None` when out of
    /// the retained window.
    pub fn entry_at(&self, second: u64) -> Option<Option<ReaderId>> {
        let idx = second.checked_sub(self.start_second)? as usize;
        self.entries.get(idx).copied()
    }

    /// Second of the last retained entry.
    pub fn end_second(&self) -> u64 {
        self.start_second + self.entries.len().saturating_sub(1) as u64
    }
}

/// Resolved metric handles for the collector stage (`collector.*`
/// counters). All default to no-ops until a recorder is attached.
#[derive(Debug, Clone, Default)]
struct CollectorMetrics {
    /// Aggregated per-second entries appended (incl. backfilled silence).
    entries: Counter,
    /// Entries that carried a detection.
    detections: Counter,
    /// ENTER/LEAVE events emitted.
    events: Counter,
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
    /// LEAVE emissions suppressed (or deferred) because the episode's
    /// reader was known to be down at the silent second.
    outage_suppressed: Counter,
}

/// The event-driven raw data collector.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DataCollector {
    objects: HashMap<ObjectId, ObjectState>,
    #[serde(skip)]
    metrics: CollectorMetrics,
    current_second: Option<u64>,
    /// Re-detections by the same reader within this many seconds continue
    /// the same episode (tolerates residual aggregation misses).
    gap_tolerance: u64,
    /// Stop appending empty entries after this many seconds without any
    /// detection (the particle filter never looks past 60 s of silence —
    /// Algorithm 2 line 6).
    idle_cutoff: u64,
    /// Max ENTER/LEAVE events kept per object.
    max_events: usize,
    /// Out-of-order tolerance of [`DataCollector::ingest_delivery`]:
    /// readings may arrive up to this many seconds after their logical
    /// second and still be merged into the aggregated timeline. `0`
    /// keeps the strict in-order contract.
    reorder_window: u64,
    /// Readings buffered by logical second, awaiting finalization by
    /// [`DataCollector::flush_through`].
    pending: BTreeMap<u64, Vec<(ObjectId, ReaderId)>>,
    /// Newest logical second seen by `ingest_delivery` (for the
    /// `reordered` counter).
    max_logical_seen: Option<u64>,
    /// Known reader downtime windows (outage-aware event emission).
    outages: Vec<OutageWindow>,
}

impl Default for DataCollector {
    fn default() -> Self {
        DataCollector {
            objects: HashMap::new(),
            metrics: CollectorMetrics::default(),
            current_second: None,
            gap_tolerance: 2,
            idle_cutoff: 90,
            max_events: 32,
            reorder_window: 0,
            pending: BTreeMap::new(),
            max_logical_seen: None,
            outages: Vec::new(),
        }
    }
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
            entries: recorder.counter("collector.entries_aggregated"),
            detections: recorder.counter("collector.detections"),
            events: recorder.counter("collector.events_emitted"),
            raw_samples: recorder.counter("collector.raw_samples"),
            stale_batches: recorder.counter("collector.stale_batches_dropped"),
            objects_seen: recorder.counter("collector.objects_seen"),
            reordered: recorder.counter("collector.reordered"),
            deduped: recorder.counter("collector.deduped"),
            late_dropped: recorder.counter("collector.late_dropped"),
            outage_suppressed: recorder.counter("collector.outage_suppressed_leaves"),
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
    /// (inclusive). During it, silence from `reader` no longer emits a
    /// LEAVE event (the LEAVE is deferred to the first silent second
    /// after the reader revives), and a same-reader re-detection after
    /// the outage continues its episode instead of splitting a new one.
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

    /// Finalizes every buffered logical second up to `second`
    /// (inclusive): each one — including silent ones, which drive LEAVE
    /// emission and idle accounting — is fed to
    /// [`DataCollector::ingest_second`] in order. Call once more with the
    /// final watermark after the stream ends to drain the buffer.
    pub fn flush_through(&mut self, second: u64) {
        let start = match self.current_second {
            Some(cur) => cur + 1,
            None => match self.pending.keys().next() {
                Some(&first) => first,
                None => return,
            },
        };
        for s in start..=second {
            let batch = self.pending.remove(&s).unwrap_or_default();
            self.ingest_second(s, &batch);
        }
    }

    /// Ingests all raw readings of one second (any object mix, unordered
    /// within the second). Seconds must be fed in non-decreasing order;
    /// skipped seconds are treated as silent.
    pub fn ingest_raw_second(&mut self, second: u64, raw: &[RawReading]) {
        self.metrics.raw_samples.add(raw.len() as u64);
        // Per-second aggregation: object → detecting reader (most samples
        // wins; with disjoint ranges there is only one candidate).
        let mut counts: HashMap<(ObjectId, ReaderId), u32> = HashMap::new();
        for r in raw {
            debug_assert_eq!(r.second(), second, "reading outside its second");
            *counts.entry((r.object, r.reader)).or_insert(0) += 1;
        }
        let mut detected: HashMap<ObjectId, (ReaderId, u32)> = HashMap::new();
        for ((obj, reader), n) in counts {
            detected
                .entry(obj)
                .and_modify(|e| {
                    if n > e.1 {
                        *e = (reader, n);
                    }
                })
                .or_insert((reader, n));
        }
        let pairs: Vec<(ObjectId, ReaderId)> =
            detected.into_iter().map(|(o, (r, _))| (o, r)).collect();
        self.ingest_second(second, &pairs);
    }

    /// Ingests pre-aggregated per-second detections: at most one reader per
    /// object for this second.
    ///
    /// Seconds must be fed in non-decreasing order; batches older than the
    /// newest second already ingested are dropped (late arrivals cannot be
    /// merged into the aggregated timeline retroactively).
    pub fn ingest_second(&mut self, second: u64, detections: &[(ObjectId, ReaderId)]) {
        if let Some(cur) = self.current_second {
            if second < cur {
                self.metrics.stale_batches.inc();
                return;
            }
        }
        self.current_second = Some(second);

        let mut det: HashMap<ObjectId, ReaderId> = HashMap::new();
        for &(o, r) in detections {
            det.insert(o, r);
        }

        // Existing objects: append this second's entry (detected or None).
        let ids: Vec<ObjectId> = self.objects.keys().copied().collect();
        for id in ids {
            let reading = det.remove(&id);
            self.append_entry(id, second, reading);
        }
        // Newly seen objects.
        for (id, reader) in det {
            self.metrics.objects_seen.inc();
            self.objects.insert(
                id,
                ObjectState {
                    start_second: second,
                    entries: Vec::new(),
                    episodes: Vec::new(),
                    last_detection: second,
                    events: Vec::new(),
                },
            );
            self.append_entry(id, second, Some(reader));
        }
    }

    fn append_entry(&mut self, id: ObjectId, second: u64, reading: Option<ReaderId>) {
        let gap_tolerance = self.gap_tolerance;
        let idle_cutoff = self.idle_cutoff;
        let max_events = self.max_events;
        let st = self.objects.get_mut(&id).expect("caller ensures presence");

        // Idle cutoff: don't grow the entry vector unboundedly for silent
        // objects.
        if reading.is_none() && second.saturating_sub(st.last_detection) > idle_cutoff {
            return;
        }

        // Backfill skipped seconds with None.
        let expected = st.start_second + st.entries.len() as u64;
        for _ in expected..second {
            st.entries.push(None);
        }
        st.entries.push(reading);
        self.metrics
            .entries
            .add(1 + second.saturating_sub(expected));
        if reading.is_some() {
            self.metrics.detections.inc();
        }

        if let Some(reader) = reading {
            st.last_detection = second;
            // A same-reader re-detection continues the episode if the gap
            // fits the tolerance once that reader's known downtime is
            // excluded — an outage is not evidence the object moved.
            let same_episode = st.episodes.last().is_some_and(|e| {
                e.reader == reader
                    && second - e.last_second
                        <= gap_tolerance
                            + 1
                            + downtime_between(&self.outages, e.reader, e.last_second, second)
            });
            if same_episode {
                st.episodes.last_mut().expect("checked").last_second = second;
            } else {
                // LEAVE of the previous episode (if it hadn't been closed).
                if let Some(prev) = st.episodes.last() {
                    if prev.last_second < second {
                        // The second the LEAVE (would have) fired: the
                        // first reader-up silent second after the last
                        // detection — identical to what the silent-second
                        // path emits, so dedup-by-equality still works.
                        let ev = RfidEvent {
                            kind: EventKind::Leave,
                            reader: prev.reader,
                            second: first_up_second(&self.outages, prev.reader, prev.last_second)
                                .min(second),
                        };
                        if st.events.last() != Some(&ev) {
                            push_event(&mut st.events, ev, max_events, &self.metrics.events);
                        }
                    }
                }
                st.episodes.push(Episode {
                    reader,
                    first_second: second,
                    last_second: second,
                });
                push_event(
                    &mut st.events,
                    RfidEvent {
                        kind: EventKind::Enter,
                        reader,
                        second,
                    },
                    max_events,
                    &self.metrics.events,
                );
                // Retention: keep only the two most recent episodes and
                // drop entries older than the older episode's start.
                if st.episodes.len() > 2 {
                    st.episodes.remove(0);
                    let keep_from = st.episodes[0].first_second;
                    let drop = (keep_from - st.start_second) as usize;
                    st.entries.drain(..drop);
                    st.start_second = keep_from;
                }
            }
        } else {
            // First reader-up silent second after detections = LEAVE
            // event. While the episode's reader is known to be down the
            // silence is expected, so the LEAVE is suppressed and
            // deferred to the first silent second after the revival.
            if let Some(ep) = st.episodes.last() {
                let down_now = self
                    .outages
                    .iter()
                    .any(|o| o.reader == ep.reader && (o.from..=o.until).contains(&second));
                if down_now {
                    if ep.last_second + 1 == second {
                        self.metrics.outage_suppressed.inc();
                    }
                } else if second > ep.last_second {
                    let up_silent = (second - ep.last_second)
                        - downtime_between(&self.outages, ep.reader, ep.last_second, second + 1);
                    if up_silent == 1 {
                        push_event(
                            &mut st.events,
                            RfidEvent {
                                kind: EventKind::Leave,
                                reader: ep.reader,
                                second,
                            },
                            max_events,
                            &self.metrics.events,
                        );
                    }
                }
            }
        }
    }

    /// The last second fed to the collector.
    pub fn current_second(&self) -> Option<u64> {
        self.current_second
    }

    /// Objects the collector has ever detected.
    pub fn objects(&self) -> impl Iterator<Item = ObjectId> + '_ {
        self.objects.keys().copied()
    }

    /// The retained aggregated readings of an object.
    pub fn aggregated(&self, o: ObjectId) -> Option<AggregatedReadings<'_>> {
        self.objects.get(&o).map(|st| AggregatedReadings {
            start_second: st.start_second,
            entries: &st.entries,
        })
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

    /// Recent ENTER/LEAVE events of an object (bounded, oldest first).
    pub fn events(&self, o: ObjectId) -> &[RfidEvent] {
        self.objects.get(&o).map_or(&[], |st| st.events.as_slice())
    }

    /// Appends the collector's full mutable state to `w` in the canonical
    /// checkpoint encoding (objects sorted by id, pending buckets in
    /// `BTreeMap` order), so equal state always encodes to identical
    /// bytes. Metric handles are not part of the state — re-attach them
    /// with [`DataCollector::set_recorder`] after a decode.
    pub fn encode_state(&self, w: &mut ByteWriter) {
        w.put_opt_u64(self.current_second);
        w.put_u64(self.gap_tolerance);
        w.put_u64(self.idle_cutoff);
        w.put_u64(self.max_events as u64);
        w.put_u64(self.reorder_window);
        w.put_opt_u64(self.max_logical_seen);

        let mut ids: Vec<ObjectId> = self.objects.keys().copied().collect();
        ids.sort();
        w.put_seq_len(ids.len());
        for id in ids {
            let st = &self.objects[&id];
            w.put_u32(id.raw());
            w.put_u64(st.start_second);
            w.put_seq_len(st.entries.len());
            for entry in &st.entries {
                match entry {
                    Some(r) => {
                        w.put_u8(1);
                        w.put_u32(r.raw());
                    }
                    None => w.put_u8(0),
                }
            }
            w.put_seq_len(st.episodes.len());
            for ep in &st.episodes {
                w.put_u32(ep.reader.raw());
                w.put_u64(ep.first_second);
                w.put_u64(ep.last_second);
            }
            w.put_u64(st.last_detection);
            w.put_seq_len(st.events.len());
            for ev in &st.events {
                w.put_u8(match ev.kind {
                    EventKind::Enter => 0,
                    EventKind::Leave => 1,
                });
                w.put_u32(ev.reader.raw());
                w.put_u64(ev.second);
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
    /// [`DataCollector::encode_state`]. Any truncation or invalid tag is
    /// [`PersistError::Torn`]; the returned collector has detached metric
    /// handles until [`DataCollector::set_recorder`] is called.
    pub fn decode_state(r: &mut ByteReader<'_>) -> Result<DataCollector, PersistError> {
        let current_second = r.get_opt_u64()?;
        let gap_tolerance = r.get_u64()?;
        let idle_cutoff = r.get_u64()?;
        let max_events = r.get_u64()? as usize;
        let reorder_window = r.get_u64()?;
        let max_logical_seen = r.get_opt_u64()?;

        let mut objects = HashMap::new();
        let n_objects = r.get_seq_len(13)?;
        for _ in 0..n_objects {
            let id = ObjectId::new(r.get_u32()?);
            let start_second = r.get_u64()?;
            let n_entries = r.get_seq_len(1)?;
            let mut entries = Vec::with_capacity(n_entries);
            for _ in 0..n_entries {
                entries.push(match r.get_u8()? {
                    0 => None,
                    1 => Some(ReaderId::new(r.get_u32()?)),
                    _ => return Err(PersistError::Torn),
                });
            }
            let n_episodes = r.get_seq_len(20)?;
            let mut episodes = Vec::with_capacity(n_episodes);
            for _ in 0..n_episodes {
                episodes.push(Episode {
                    reader: ReaderId::new(r.get_u32()?),
                    first_second: r.get_u64()?,
                    last_second: r.get_u64()?,
                });
            }
            let last_detection = r.get_u64()?;
            let n_events = r.get_seq_len(13)?;
            let mut events = Vec::with_capacity(n_events);
            for _ in 0..n_events {
                let kind = match r.get_u8()? {
                    0 => EventKind::Enter,
                    1 => EventKind::Leave,
                    _ => return Err(PersistError::Torn),
                };
                events.push(RfidEvent {
                    kind,
                    reader: ReaderId::new(r.get_u32()?),
                    second: r.get_u64()?,
                });
            }
            objects.insert(
                id,
                ObjectState {
                    start_second,
                    entries,
                    episodes,
                    last_detection,
                    events,
                },
            );
        }

        let mut pending = BTreeMap::new();
        let n_pending = r.get_seq_len(12)?;
        for _ in 0..n_pending {
            let second = r.get_u64()?;
            let n = r.get_seq_len(8)?;
            let mut bucket = Vec::with_capacity(n);
            for _ in 0..n {
                bucket.push((ObjectId::new(r.get_u32()?), ReaderId::new(r.get_u32()?)));
            }
            pending.insert(second, bucket);
        }

        let n_outages = r.get_seq_len(20)?;
        let mut outages = Vec::with_capacity(n_outages);
        for _ in 0..n_outages {
            outages.push(OutageWindow {
                reader: ReaderId::new(r.get_u32()?),
                from: r.get_u64()?,
                until: r.get_u64()?,
            });
        }

        Ok(DataCollector {
            objects,
            metrics: CollectorMetrics::default(),
            current_second,
            gap_tolerance,
            idle_cutoff,
            max_events,
            reorder_window,
            pending,
            max_logical_seen,
            outages,
        })
    }
}

/// The first second after `after` at which `reader` is not inside any
/// known outage window.
fn first_up_second(outages: &[OutageWindow], reader: ReaderId, after: u64) -> u64 {
    let mut s = after + 1;
    loop {
        match outages
            .iter()
            .find(|o| o.reader == reader && (o.from..=o.until).contains(&s))
        {
            Some(o) => s = o.until + 1,
            None => return s,
        }
    }
}

fn push_event(events: &mut Vec<RfidEvent>, ev: RfidEvent, cap: usize, emitted: &Counter) {
    events.push(ev);
    emitted.inc();
    if events.len() > cap {
        let excess = events.len() - cap;
        events.drain(..excess);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const O: ObjectId = ObjectId::new(0);
    const D1: ReaderId = ReaderId::new(1);
    const D2: ReaderId = ReaderId::new(2);
    const D3: ReaderId = ReaderId::new(3);

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
        let agg = c.aggregated(O).unwrap();
        assert_eq!(agg.start_second, 0);
        assert_eq!(agg.entries, &[Some(D1), Some(D1), None, None]);
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
        let agg = c.aggregated(O).unwrap();
        assert_eq!(agg.start_second, 0, "both episodes kept");
        assert_eq!(c.last_two_devices(O), Some((D1, Some(D2))));
        assert_eq!(c.last_detection(O), Some((D2, 5)));
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
        let agg = c.aggregated(O).unwrap();
        // Entries before D2's episode (second 2) are dropped.
        assert_eq!(agg.start_second, 2);
        assert_eq!(agg.entries, &[Some(D2), None, Some(D3)]);
        assert_eq!(c.last_two_devices(O), Some((D2, Some(D3))));
    }

    #[test]
    fn enter_leave_events() {
        let mut c = DataCollector::new();
        feed(
            &mut c,
            &[(0, Some(D1)), (1, Some(D1)), (2, None), (3, Some(D2))],
        );
        let ev = c.events(O);
        assert_eq!(
            ev,
            &[
                RfidEvent {
                    kind: EventKind::Enter,
                    reader: D1,
                    second: 0
                },
                RfidEvent {
                    kind: EventKind::Leave,
                    reader: D1,
                    second: 2
                },
                RfidEvent {
                    kind: EventKind::Enter,
                    reader: D2,
                    second: 3
                },
            ]
        );
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
        // Events: a LEAVE at 1 was recorded followed by no new ENTER,
        // because the episode continued.
        let enters = c
            .events(O)
            .iter()
            .filter(|e| e.kind == EventKind::Enter)
            .count();
        assert_eq!(enters, 1);
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
    fn idle_cutoff_bounds_entry_growth() {
        let mut c = DataCollector::new();
        c.ingest_second(0, &[(O, D1)]);
        for s in 1..500 {
            c.ingest_second(s, &[]);
        }
        let agg = c.aggregated(O).unwrap();
        assert!(
            agg.entries.len() <= 92,
            "entries bounded by idle cutoff, got {}",
            agg.entries.len()
        );
        // The collector still knows the current second.
        assert_eq!(c.current_second(), Some(499));
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
        let agg = c.aggregated(O).unwrap();
        assert_eq!(agg.start_second, 5);
        assert_eq!(agg.entries, &[Some(D1)]);
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
    fn entry_at_lookup() {
        let mut c = DataCollector::new();
        feed(&mut c, &[(10, Some(D1)), (11, None), (12, Some(D2))]);
        let agg = c.aggregated(O).unwrap();
        assert_eq!(agg.entry_at(10), Some(Some(D1)));
        assert_eq!(agg.entry_at(11), Some(None));
        assert_eq!(agg.entry_at(12), Some(Some(D2)));
        assert_eq!(agg.entry_at(9), None);
        assert_eq!(agg.entry_at(13), None);
        assert_eq!(agg.end_second(), 12);
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
        let agg = c.aggregated(O).unwrap();
        assert_eq!(agg.entries, &[Some(D1)]);
    }

    #[test]
    fn unknown_object_queries_return_none() {
        let c = DataCollector::new();
        assert!(c.aggregated(O).is_none());
        assert!(c.last_detection(O).is_none());
        assert!(c.last_two_devices(O).is_none());
        assert!(c.events(O).is_empty());
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

        let (ca, cc) = (c.aggregated(O).unwrap(), clean.aggregated(O).unwrap());
        assert_eq!(ca.start_second, cc.start_second);
        assert_eq!(ca.entries, cc.entries);
        assert_eq!(c.last_two_devices(O), clean.last_two_devices(O));
        assert_eq!(c.events(O), clean.events(O));
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

        assert_eq!(
            c.aggregated(O).unwrap().entries,
            clean.aggregated(O).unwrap().entries
        );
        assert_eq!(c.events(O), clean.events(O));
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
        let agg = c.aggregated(O).unwrap();
        assert_eq!(agg.entry_at(3), Some(None), "late reading discarded");
        assert_eq!(c.last_detection(O), Some((D1, 0)));
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
        assert_eq!(
            c.aggregated(O).unwrap().entries,
            clean.aggregated(O).unwrap().entries
        );
        assert_eq!(c.events(O), clean.events(O));
        assert_eq!(c.current_second(), clean.current_second());
    }

    #[test]
    fn outage_defers_leave_until_revival() {
        let mut c = DataCollector::new();
        c.note_outage(D1, 3, 6);
        feed(
            &mut c,
            &[
                (0, Some(D1)),
                (1, Some(D1)),
                (2, Some(D1)),
                (3, None), // outage starts: no LEAVE
                (4, None),
                (5, None),
                (6, None),
                (7, None), // first up silent second: deferred LEAVE
                (8, None),
            ],
        );
        let ev = c.events(O);
        assert_eq!(
            ev.last(),
            Some(&RfidEvent {
                kind: EventKind::Leave,
                reader: D1,
                second: 7
            }),
            "LEAVE deferred to the first post-outage silent second, got {ev:?}"
        );
        assert_eq!(
            ev.iter().filter(|e| e.kind == EventKind::Leave).count(),
            1,
            "exactly one LEAVE"
        );
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
        // still down. Exactly one LEAVE(D1) is emitted.
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
        let leaves: Vec<_> = c
            .events(O)
            .iter()
            .filter(|e| e.kind == EventKind::Leave && e.reader == D1)
            .collect();
        assert_eq!(leaves.len(), 1, "got {leaves:?}");
        assert_eq!(c.last_two_devices(O), Some((D1, Some(D2))));
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
        let d = DataCollector::decode_state(&mut r).unwrap();
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
            assert_eq!(a.events(o), b.events(o));
            assert_eq!(a.last_two_devices(o), b.last_two_devices(o));
            let (aa, ba) = (a.aggregated(o).unwrap(), b.aggregated(o).unwrap());
            assert_eq!(aa.start_second, ba.start_second);
            assert_eq!(aa.entries, ba.entries);
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
                DataCollector::decode_state(&mut r).unwrap_err(),
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
        let kinds: Vec<(EventKind, u64)> = c.events(O).iter().map(|e| (e.kind, e.second)).collect();
        assert!(kinds.contains(&(EventKind::Leave, 3)));
        assert!(kinds.contains(&(EventKind::Enter, 6)));
        assert!(kinds.contains(&(EventKind::Leave, 7)));
        assert!(kinds.contains(&(EventKind::Enter, 8)));
    }
}

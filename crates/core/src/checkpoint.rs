//! Crash-safe checkpointing of the [`crate::IndoorQuerySystem`].
//!
//! The system's recoverable state — collector timelines, particle cache,
//! master RNG stream, cumulative metrics and the live `APtoObjHT` the
//! next pass takes its deltas against — serializes through the
//! canonical `ripq-persist` codec into one framed snapshot file,
//! `system.ckpt`, written atomically on a configurable ingest cadence.
//! On startup [`crate::IndoorQuerySystem::recover`] reloads it; damaged
//! files (torn, bit-flipped, stale version) are quarantined to
//! `system.ckpt.corrupt` and the run cold-starts instead of trusting
//! them. Because the snapshot captures state *before* the due second is
//! ingested, replaying the reading-store suffix from
//! [`RecoveryOutcome::Resumed::replay_from`] reproduces an uninterrupted
//! run bit for bit under [`crate::clock::TimingMode::Logical`].

use crate::RipqError;
use ripq_graph::{AnchorId, AnchorObjectIndex};
use ripq_obs::{HistogramSnapshot, MetricsSnapshot, SpanStat};
use ripq_persist::{ByteReader, ByteWriter, PersistError};
use ripq_rfid::ObjectId;
use std::path::{Path, PathBuf};

/// File name of the system snapshot inside the checkpoint directory.
pub const SNAPSHOT_FILE: &str = "system.ckpt";

/// Full path of the snapshot file for a checkpoint directory.
pub fn snapshot_path(dir: &Path) -> PathBuf {
    dir.join(SNAPSHOT_FILE)
}

/// What [`crate::IndoorQuerySystem::recover`] found on disk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecoveryOutcome {
    /// No snapshot existed — nothing to restore, start from scratch.
    ColdStart,
    /// A valid snapshot was restored. Re-ingest the reading store from
    /// `replay_from` (inclusive) to catch up to the present.
    Resumed {
        /// First second whose readings are *not* covered by the snapshot.
        replay_from: u64,
    },
    /// The snapshot was damaged (torn, corrupt, or written by another
    /// format version); it was moved aside to `path` and the system
    /// cold-starts with a full rebuild.
    Quarantined {
        /// Where the damaged file was moved (`system.ckpt.corrupt`).
        path: PathBuf,
    },
}

/// Maps a persistence failure into the engine's error currency.
pub(crate) fn persist_io(err: &PersistError) -> RipqError {
    RipqError::Io(err.to_string())
}

/// Appends an `APtoObjHT` to `w` as object-ordered rows of
/// `(anchor, probability)` pairs, each row in its stored order, so the
/// decoded index compares bit-for-bit with the one written.
pub fn encode_index(w: &mut ByteWriter, index: &AnchorObjectIndex<ObjectId>) {
    w.put_seq_len(index.object_count());
    for object in index.objects() {
        let dist = index.distribution(object).unwrap_or(&[]);
        w.put_u32(object.raw());
        w.put_seq_len(dist.len());
        for &(anchor, p) in dist {
            w.put_u32(anchor.raw());
            w.put_f64(p);
        }
    }
}

/// Reads an index written by [`encode_index`]. Anchor ids must lie below
/// `anchor_count` and probabilities must be finite, so a decoded index
/// can never send evaluation out of bounds.
pub fn decode_index(
    r: &mut ByteReader<'_>,
    anchor_count: usize,
) -> Result<AnchorObjectIndex<ObjectId>, PersistError> {
    let mut index = AnchorObjectIndex::new();
    for _ in 0..r.get_seq_len(8)? {
        let object = ObjectId::new(r.get_u32()?);
        let len = r.get_seq_len(12)?;
        let mut dist = Vec::with_capacity(len);
        for _ in 0..len {
            let anchor = AnchorId::new(r.get_u32()?);
            let p = r.get_f64()?;
            if anchor.index() >= anchor_count || !p.is_finite() {
                return Err(PersistError::Torn);
            }
            dist.push((anchor, p));
        }
        index.set_object(object, dist);
    }
    Ok(index)
}

/// Appends a [`MetricsSnapshot`] to `w` in the canonical encoding. All
/// four families are `BTreeMap`s, so iteration (and therefore the byte
/// stream) is name-ordered and canonical.
pub fn encode_metrics(w: &mut ByteWriter, snap: &MetricsSnapshot) {
    w.put_seq_len(snap.counters.len());
    for (name, value) in &snap.counters {
        w.put_str(name);
        w.put_u64(*value);
    }
    w.put_seq_len(snap.gauges.len());
    for (name, value) in &snap.gauges {
        w.put_str(name);
        w.put_u64(*value);
    }
    w.put_seq_len(snap.histograms.len());
    for (name, h) in &snap.histograms {
        w.put_str(name);
        w.put_u64(h.count);
        w.put_u64(h.sum);
        w.put_u64(h.min);
        w.put_u64(h.max);
        w.put_seq_len(h.buckets.len());
        for (bound, hits) in &h.buckets {
            w.put_u64(*bound);
            w.put_u64(*hits);
        }
    }
    w.put_seq_len(snap.spans.len());
    for (path, s) in &snap.spans {
        w.put_str(path);
        w.put_u64(s.count);
        w.put_u64(s.total_micros);
    }
}

/// Decodes a [`MetricsSnapshot`] written by [`encode_metrics`]. Any
/// truncation is [`PersistError::Torn`], never a panic.
pub fn decode_metrics(r: &mut ByteReader<'_>) -> Result<MetricsSnapshot, PersistError> {
    let mut snap = MetricsSnapshot::default();
    let n = r.get_seq_len(12)?;
    for _ in 0..n {
        let name = r.get_str()?;
        snap.counters.insert(name, r.get_u64()?);
    }
    let n = r.get_seq_len(12)?;
    for _ in 0..n {
        let name = r.get_str()?;
        snap.gauges.insert(name, r.get_u64()?);
    }
    let n = r.get_seq_len(40)?;
    for _ in 0..n {
        let name = r.get_str()?;
        let count = r.get_u64()?;
        let sum = r.get_u64()?;
        let min = r.get_u64()?;
        let max = r.get_u64()?;
        let n_buckets = r.get_seq_len(16)?;
        let mut buckets = Vec::with_capacity(n_buckets);
        for _ in 0..n_buckets {
            buckets.push((r.get_u64()?, r.get_u64()?));
        }
        snap.histograms.insert(
            name,
            HistogramSnapshot {
                count,
                sum,
                min,
                max,
                buckets,
            },
        );
    }
    let n = r.get_seq_len(20)?;
    for _ in 0..n {
        let path = r.get_str()?;
        let count = r.get_u64()?;
        let total_micros = r.get_u64()?;
        snap.spans.insert(
            path,
            SpanStat {
                count,
                total_micros,
            },
        );
    }
    Ok(snap)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ripq_obs::Recorder;
    use std::time::Duration;

    fn sample() -> MetricsSnapshot {
        let rec = Recorder::enabled();
        rec.add("collector.entries_aggregated", 12);
        rec.add("pf.resamples", 3);
        rec.set_gauge("cache.entries", 4);
        rec.observe("pf.ess", 48);
        rec.observe("pf.ess", 64);
        rec.record_span("evaluate", Duration::from_micros(120));
        rec.record_span("evaluate/queries/range", Duration::from_micros(40));
        rec.snapshot()
    }

    #[test]
    fn metrics_codec_round_trips_and_is_canonical() {
        let snap = sample();
        let mut w = ByteWriter::new();
        encode_metrics(&mut w, &snap);
        let bytes = w.into_bytes();

        let mut w2 = ByteWriter::new();
        encode_metrics(&mut w2, &sample());
        assert_eq!(bytes, w2.into_bytes(), "encoding is not canonical");

        let mut r = ByteReader::new(&bytes);
        let decoded = decode_metrics(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(decoded, snap);
        assert_eq!(decoded.to_json(), snap.to_json());
    }

    #[test]
    fn empty_metrics_round_trip() {
        let mut w = ByteWriter::new();
        encode_metrics(&mut w, &MetricsSnapshot::default());
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(decode_metrics(&mut r).unwrap(), MetricsSnapshot::default());
        r.finish().unwrap();
    }

    #[test]
    fn truncated_metrics_are_torn_not_a_panic() {
        let mut w = ByteWriter::new();
        encode_metrics(&mut w, &sample());
        let bytes = w.into_bytes();
        for cut in [0, 1, 5, bytes.len() / 3, bytes.len() - 1] {
            let mut r = ByteReader::new(&bytes[..cut]);
            assert_eq!(
                decode_metrics(&mut r).unwrap_err(),
                PersistError::Torn,
                "cut at {cut} not detected"
            );
        }
    }

    #[test]
    fn snapshot_path_joins_file_name() {
        assert_eq!(
            snapshot_path(Path::new("/tmp/ckpts")),
            PathBuf::from("/tmp/ckpts/system.ckpt")
        );
    }
}

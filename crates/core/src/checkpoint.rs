//! Crash-safe checkpointing: the one save/recover routine every snapshot
//! in the workspace goes through.
//!
//! A snapshot is one frame, sealed through `ripq-persist` and written
//! atomically. Its payload is the caller's own section first, then the
//! [`IndoorQuerySystem`]'s recoverable state: a CRC32 of the world
//! (walking graph, anchors, readers) it was taken in, the ingest
//! watermark, collector timelines, particle cache, master RNG stream,
//! cumulative metrics and the live `APtoObjHT` the next pass takes its
//! deltas against. The facade writes `system.ckpt` with an empty section
//! ([`IndoorQuerySystem::checkpoint_now`]); the experiment harness and
//! the streaming server put their own state in front (`experiment.ckpt`,
//! `server.ckpt`). When to checkpoint is the caller's decision.
//!
//! [`recover`] owns the whole recovery ladder and its `recovery.*`
//! counters: a missing file is a cold start; an unreadable one is an
//! error and stays where it is; a damaged, stale or foreign one, or one
//! whose section the caller rejects, is quarantined to `<name>.corrupt`.
//! Both sections decode into temporaries, so nothing is committed unless
//! both decode. Because a snapshot is taken *before* the next second is
//! ingested, replaying the reading-store suffix from
//! [`Recovered::Resumed::replay_from`] reproduces an uninterrupted
//! run bit for bit under [`crate::clock::TimingMode::Logical`].

use crate::{IndoorQuerySystem, RipqError};
use ripq_graph::{AnchorId, AnchorObjectIndex};
use ripq_obs::{HistogramSnapshot, MetricsSnapshot, SpanStat};
use ripq_persist::{
    load_snapshot, quarantine, seal_snapshot, write_atomic, ByteReader, ByteWriter, PersistError,
};
use ripq_rfid::ObjectId;
use std::path::{Path, PathBuf};

/// File name of the facade's own snapshot inside the checkpoint directory.
pub const SNAPSHOT_FILE: &str = "system.ckpt";

/// Full path of the snapshot file for a checkpoint directory.
pub fn snapshot_path(dir: &Path) -> PathBuf {
    dir.join(SNAPSHOT_FILE)
}

/// What a recovery found on disk: a [`Recovered`] without the caller's
/// section, as [`IndoorQuerySystem::recover`] reports it.
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
    /// format version), taken in another world, or its caller section
    /// failed validation; it was moved aside to `path`, nothing was
    /// restored, and the caller cold-starts with a full rebuild.
    Quarantined {
        /// Where the damaged file was moved (`<name>.corrupt`).
        path: PathBuf,
    },
}

/// Writes one sealed snapshot frame to `path`, atomically (sibling temp
/// file, fsync, rename) and creating its directory if missing: the bytes
/// `section` appends first, then the recoverable state of `sys`.
/// `recovery.checkpoints_written` counts the write after it lands, so a
/// snapshot's metrics never include the write that carries them.
pub fn save(
    sys: &IndoorQuerySystem,
    path: &Path,
    section: impl FnOnce(&mut ByteWriter),
) -> Result<(), RipqError> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)
            .map_err(|e| RipqError::Io(format!("{}: {e}", dir.display())))?;
    }
    let mut w = ByteWriter::new();
    section(&mut w);
    sys.encode_state(&mut w);
    write_atomic(path, &seal_snapshot(&w.into_bytes())).map_err(|e| persist_io(&e))?;
    sys.recorder().add("recovery.checkpoints_written", 1);
    Ok(())
}

/// What [`recover`] found on disk, with the caller's decoded section on
/// a resume.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Recovered<T> {
    /// No snapshot existed.
    ColdStart,
    /// The facade state was restored; apply `section`, then replay from
    /// `replay_from`.
    Resumed {
        /// First second whose readings are *not* covered by the snapshot.
        replay_from: u64,
        /// The caller's section, decoded but not yet applied.
        section: T,
    },
    /// The snapshot was moved aside to `path` and nothing was restored.
    Quarantined {
        /// Where the damaged file was moved (`<name>.corrupt`).
        path: PathBuf,
    },
}

impl<T> Recovered<T> {
    /// The outcome without the section.
    pub fn outcome(&self) -> RecoveryOutcome {
        match self {
            Recovered::ColdStart => RecoveryOutcome::ColdStart,
            Recovered::Resumed { replay_from, .. } => RecoveryOutcome::Resumed {
                replay_from: *replay_from,
            },
            Recovered::Quarantined { path } => RecoveryOutcome::Quarantined { path: path.clone() },
        }
    }
}

/// Restores `sys` from a snapshot [`save`] wrote to `path`.
///
/// `section` decodes the caller's own section into a value and commits
/// nothing; then the facade state is restored, which commits only if it
/// decodes whole. The decoded section comes back in
/// [`Recovered::Resumed`], for the caller to apply.
///
/// * A missing file is [`Recovered::ColdStart`] (`recovery.cold_start`).
/// * A file that cannot be read is an error and is left in place.
/// * A damaged or stale frame, a snapshot of another world, or a section
///   `section` rejects is moved aside to `<name>.corrupt` and reported as
///   [`Recovered::Quarantined`] (`recovery.quarantined`); `sys` is left
///   exactly as it was.
/// * Otherwise `recovery.resumed` counts the restore.
pub fn recover<T>(
    sys: &mut IndoorQuerySystem,
    path: &Path,
    section: impl FnOnce(&mut ByteReader<'_>) -> Result<T, PersistError>,
) -> Result<Recovered<T>, RipqError> {
    let decoded = match load_snapshot(path) {
        Ok(payload) => restore(sys, &payload, section),
        Err(PersistError::Missing) => {
            sys.recorder().add("recovery.cold_start", 1);
            return Ok(Recovered::ColdStart);
        }
        Err(PersistError::Io(msg)) => return Err(RipqError::Io(msg)),
        Err(damaged) => Err(damaged),
    };
    match decoded {
        Ok((replay_from, section)) => {
            sys.recorder().add("recovery.resumed", 1);
            Ok(Recovered::Resumed {
                replay_from,
                section,
            })
        }
        Err(_damaged) => {
            let moved = quarantine(path).map_err(|e| persist_io(&e))?;
            sys.recorder().add("recovery.quarantined", 1);
            Ok(Recovered::Quarantined { path: moved })
        }
    }
}

/// Decodes one snapshot payload: the caller's section, then the facade
/// state, which must fill the rest. Commits to `sys` only if both decode.
fn restore<T>(
    sys: &mut IndoorQuerySystem,
    payload: &[u8],
    section: impl FnOnce(&mut ByteReader<'_>) -> Result<T, PersistError>,
) -> Result<(u64, T), PersistError> {
    let mut r = ByteReader::new(payload);
    let section = section(&mut r)?;
    Ok((sys.restore_state(&mut r)?, section))
}

/// Maps a persistence failure into the engine's error currency.
fn persist_io(err: &PersistError) -> RipqError {
    RipqError::Io(err.to_string())
}

/// Appends an `APtoObjHT` to `w` as object-ordered rows of
/// `(anchor, probability)` pairs, each row in its stored order, so the
/// decoded index compares bit-for-bit with the one written.
pub(crate) fn encode_index(w: &mut ByteWriter, index: &AnchorObjectIndex<ObjectId>) {
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
pub(crate) fn decode_index(
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
pub(crate) fn encode_metrics(w: &mut ByteWriter, snap: &MetricsSnapshot) {
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
pub(crate) fn decode_metrics(r: &mut ByteReader<'_>) -> Result<MetricsSnapshot, PersistError> {
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

    /// One object whose distribution names `anchor` with probability
    /// `p`, as [`encode_index`] lays it out.
    fn index_bytes(anchor: u32, p: f64) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_seq_len(1);
        w.put_u32(7);
        w.put_seq_len(1);
        w.put_u32(anchor);
        w.put_f64(p);
        w.into_bytes()
    }

    #[test]
    fn decoded_index_names_only_known_anchors_and_finite_probabilities() {
        let anchors = 381;
        let bytes = index_bytes(380, 0.5);
        let mut r = ByteReader::new(&bytes);
        let index = decode_index(&mut r, anchors).unwrap();
        r.finish().unwrap();
        assert_eq!(
            index.at_anchor(AnchorId::new(380)),
            &[(ObjectId::new(7), 0.5)]
        );
        for (anchor, p) in [(381, 0.5), (u32::MAX, 0.5), (0, f64::NAN)] {
            let bytes = index_bytes(anchor, p);
            let mut r = ByteReader::new(&bytes);
            assert_eq!(
                decode_index(&mut r, anchors).unwrap_err(),
                PersistError::Torn,
                "anchor {anchor}, probability {p}"
            );
        }
    }

    fn system(readers: u32) -> IndoorQuerySystem {
        let plan = ripq_floorplan::office_building(&Default::default()).unwrap();
        let config = crate::SystemConfig {
            reader_count: readers,
            observability: true,
            ..Default::default()
        };
        IndoorQuerySystem::new(plan, config, 9)
    }

    /// A system that has ingested seconds `0..=11`, so it resumes at 12.
    fn fed_system() -> IndoorQuerySystem {
        let mut sys = system(19);
        let reader = sys.readers()[2].id();
        for s in 0..=11u64 {
            sys.ingest_detections(s, &[(ObjectId::new(1), reader)]);
        }
        sys
    }

    fn state_bytes(sys: &IndoorQuerySystem) -> Vec<u8> {
        let mut w = ByteWriter::new();
        sys.encode_state(&mut w);
        w.into_bytes()
    }

    fn temp_path(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ripq_core_routine_{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        dir.join("test.ckpt")
    }

    fn counter(sys: &IndoorQuerySystem, name: &str) -> Option<u64> {
        sys.recorder().snapshot().counters.get(name).copied()
    }

    #[test]
    fn section_and_state_round_trip_through_one_frame() {
        let path = temp_path("round_trip");
        let source = fed_system();
        save(&source, &path, |w| w.put_str("section")).unwrap();
        assert_eq!(counter(&source, "recovery.checkpoints_written"), Some(1));
        let mut target = system(19);
        assert_eq!(
            recover(&mut target, &path, |r| r.get_str()).unwrap(),
            Recovered::Resumed {
                replay_from: 12,
                section: "section".to_string()
            }
        );
        assert_eq!(counter(&target, "recovery.resumed"), Some(1));
        // The snapshot was encoded before its own write was counted.
        let mut restored = target.recorder().snapshot();
        restored.counters.remove("recovery.resumed");
        let mut written = source.recorder().snapshot();
        written.counters.remove("recovery.checkpoints_written");
        assert_eq!(restored, written);
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    /// A section followed by the state of [`fed_system`], as [`save`]
    /// lays out a payload.
    fn fed_payload() -> (IndoorQuerySystem, Vec<u8>) {
        let source = fed_system();
        let mut w = ByteWriter::new();
        w.put_str("section");
        source.encode_state(&mut w);
        (source, w.into_bytes())
    }

    #[test]
    fn facade_state_round_trips_byte_for_byte() {
        let (source, payload) = fed_payload();
        let mut target = system(19);
        let (replay_from, section) = restore(&mut target, &payload, |r| r.get_str()).unwrap();
        assert_eq!((replay_from, section.as_str()), (12, "section"));
        assert_eq!(state_bytes(&target), state_bytes(&source));
    }

    /// A payload cut anywhere — inside the section, the collector, the
    /// metrics or the live index — fails to decode and commits nothing.
    #[test]
    fn truncation_anywhere_is_an_error_and_commits_nothing() {
        let (_, payload) = fed_payload();
        let mut target = system(19);
        let before = state_bytes(&target);
        for cut in 0..payload.len() {
            assert!(
                restore(&mut target, &payload[..cut], |r| r.get_str()).is_err(),
                "cut at {cut} decoded"
            );
            assert_eq!(state_bytes(&target), before, "cut at {cut} committed");
        }
    }

    #[test]
    fn unreadable_file_is_an_error_and_stays_in_place() {
        // A directory where the snapshot should be cannot be read.
        let path = temp_path("unreadable");
        std::fs::create_dir_all(&path).unwrap();
        let mut sys = system(19);
        let before = state_bytes(&sys);
        assert!(matches!(
            recover(&mut sys, &path, |_| Ok(())),
            Err(RipqError::Io(_))
        ));
        assert!(path.is_dir(), "left in place");
        assert_eq!(state_bytes(&sys), before, "nothing committed");
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    /// Every rejection quarantines the file, counts it and leaves the
    /// system as it was.
    #[test]
    fn rejected_snapshots_are_quarantined_and_commit_nothing() {
        let cases: [(&str, u32, bool); 3] = [
            // (case, reader count of the recovering system, section ok)
            ("garbage", 19, true),
            ("section_rejected", 19, false),
            ("another_world", 6, true),
        ];
        for (case, readers, section_ok) in cases {
            let path = temp_path(case);
            if case == "garbage" {
                std::fs::create_dir_all(path.parent().unwrap()).unwrap();
                // ripq-lint: allow(atomic-persistence) -- test deliberately writes a torn non-atomic file
                std::fs::write(&path, b"RIPQSNAPgarbage").unwrap();
            } else {
                save(&fed_system(), &path, |w| w.put_u8(7)).unwrap();
            }
            let mut sys = system(readers);
            let recovered = recover(&mut sys, &path, |r| match r.get_u8()? {
                7 if section_ok => Ok(7),
                found => Err(PersistError::StaleVersion {
                    found: u32::from(found),
                    supported: 7,
                }),
            })
            .unwrap();
            match recovered {
                Recovered::Quarantined { path: moved } => {
                    assert!(moved.to_string_lossy().ends_with(".corrupt"), "{case}");
                    assert!(moved.exists() && !path.exists(), "{case}");
                }
                other => panic!("{case}: expected quarantine, got {other:?}"),
            }
            assert_eq!(counter(&sys, "recovery.quarantined"), Some(1), "{case}");
            // A fresh system plus the quarantine counter: nothing else moved.
            let fresh = system(readers);
            fresh.recorder().add("recovery.quarantined", 1);
            assert_eq!(state_bytes(&sys), state_bytes(&fresh), "{case}");
            let _ = std::fs::remove_dir_all(path.parent().unwrap());
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

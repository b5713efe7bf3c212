//! Crash-safe checkpointing of a running [`crate::Experiment`].
//!
//! A simulation checkpoint freezes everything the per-second loop of
//! `Experiment::run` mutates — the collector timelines, the shared
//! particle cache, the three in-loop RNG streams, the accuracy
//! accumulators, the fault injector's jitter buffer and the cumulative
//! metrics — into one `experiment.ckpt` frame written atomically through
//! `ripq-persist`. Everything *else* (true traces, reader deployment,
//! kNN query points, the outage schedule) is a pure function of
//! [`ExperimentParams`] and is regenerated on resume; a CRC32
//! fingerprint of the result-relevant parameters is embedded in the
//! payload so a snapshot can never be resumed into a different
//! experiment.
//!
//! Damaged files — torn, bit-flipped, wrong format version, or written
//! by a different parameter set — are quarantined to
//! `experiment.ckpt.corrupt` and the run cold-starts; a resumed run is
//! bit-for-bit identical to an uninterrupted one.

use crate::{ExperimentParams, TaggedReading};
use ripq_core::checkpoint::{decode_metrics, encode_metrics};
use ripq_obs::{MetricsSnapshot, Recorder};
use ripq_persist::{
    crc32, load_snapshot, quarantine, seal_snapshot, write_atomic, ByteReader, ByteWriter,
    PersistError,
};
use ripq_pf::SharedParticleCache;
use ripq_rfid::{DataCollector, DeploymentStrategy, ObjectId, ReaderId};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

pub use ripq_core::RecoveryOutcome;

/// File name of the experiment snapshot inside the checkpoint directory.
/// Distinct from the core facade's `system.ckpt`, so a directory can host
/// both without collision.
pub const SNAPSHOT_FILE: &str = "experiment.ckpt";

/// Full path of the experiment snapshot for a checkpoint directory.
pub fn snapshot_path(dir: &Path) -> PathBuf {
    dir.join(SNAPSHOT_FILE)
}

/// The number of [`crate::metrics::Mean`] accumulators a checkpoint
/// carries (KL ×2, hit rate ×2, top-k ×2, mean error ×2).
pub(crate) const MEAN_SLOTS: usize = 8;

/// Everything the per-second loop mutates, decoded back into owned form.
pub(crate) struct SimCheckpoint {
    /// First second the resumed loop must process.
    pub next_second: u64,
    /// Index into the evaluation-timestamp list.
    pub next_ts: u64,
    pub collector: DataCollector,
    pub cache: SharedParticleCache,
    pub rng_sense: [u64; 4],
    pub rng_pf: [u64; 4],
    pub rng_query: [u64; 4],
    pub means: [(f64, u64); MEAN_SLOTS],
    /// The fault injector's in-flight jitter buffer (empty when the run
    /// has no active fault plan).
    pub pending: BTreeMap<u64, Vec<TaggedReading>>,
    pub metrics: MetricsSnapshot,
}

/// Borrowed view of the loop state for encoding, so taking a checkpoint
/// never clones the collector or cache.
pub(crate) struct CheckpointView<'a> {
    pub fingerprint: u32,
    pub next_second: u64,
    pub next_ts: u64,
    pub collector: &'a DataCollector,
    pub cache: &'a SharedParticleCache,
    pub rng_sense: [u64; 4],
    pub rng_pf: [u64; 4],
    pub rng_query: [u64; 4],
    pub means: [(f64, u64); MEAN_SLOTS],
    pub pending: Option<&'a BTreeMap<u64, Vec<TaggedReading>>>,
    pub metrics: &'a MetricsSnapshot,
}

/// CRC32 fingerprint over the canonical encoding of every parameter that
/// influences the numbers. Knobs that provably cannot change results —
/// `parallelism` (bit-identical by construction), `checkpoint_every` and
/// `observability` — are excluded, so a snapshot survives resuming under
/// a different worker count or cadence.
pub(crate) fn params_fingerprint(p: &ExperimentParams) -> u32 {
    let mut w = ByteWriter::new();
    w.put_u64(p.num_particles as u64);
    w.put_f64(p.query_window_fraction);
    w.put_u64(p.num_objects as u64);
    w.put_u64(p.k as u64);
    w.put_f64(p.activation_range);
    w.put_u32(p.reader_count);
    match p.deployment {
        DeploymentStrategy::Uniform => w.put_u8(0),
        DeploymentStrategy::AtDoors => w.put_u8(1),
        DeploymentStrategy::Random { seed } => {
            w.put_u8(2);
            w.put_u64(seed);
        }
    }
    w.put_f64(p.anchor_spacing);
    w.put_f64(p.max_speed);
    w.put_u32(p.sensing.samples_per_second);
    w.put_f64(p.sensing.detection_probability);
    w.put_f64(p.sensing.false_positive_rate);
    w.put_u64(p.duration);
    w.put_u64(p.warmup);
    w.put_u64(p.eval_timestamps as u64);
    w.put_u64(p.range_queries_per_timestamp as u64);
    w.put_u64(p.knn_query_points as u64);
    w.put_f64(p.room_dwell_mean);
    w.put_bool(p.negative_evidence);
    w.put_f64(p.resample_threshold);
    w.put_f64(p.room_enter_probability);
    w.put_u64(p.coast_seconds);
    w.put_f64(p.kde_bandwidth);
    w.put_bool(p.kld_adaptive);
    w.put_f64(p.faults.drop_probability);
    w.put_f64(p.faults.duplicate_probability);
    w.put_u64(p.faults.max_delay_seconds);
    w.put_f64(p.faults.outage_rate);
    w.put_f64(p.faults.outage_mean_seconds);
    w.put_u64(p.faults.seed);
    w.put_opt_u64(p.query_budget);
    w.put_u64(p.seed);
    crc32(&w.into_bytes())
}

fn encode(view: &CheckpointView<'_>) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u32(view.fingerprint);
    w.put_u64(view.next_second);
    w.put_u64(view.next_ts);
    view.collector.encode_state(&mut w);
    view.cache.encode_state(&mut w);
    for word in view
        .rng_sense
        .iter()
        .chain(&view.rng_pf)
        .chain(&view.rng_query)
    {
        w.put_u64(*word);
    }
    for (sum, n) in view.means {
        w.put_f64(sum);
        w.put_u64(n);
    }
    match view.pending {
        None => w.put_seq_len(0),
        Some(pending) => {
            w.put_seq_len(pending.len());
            for (&delivery, bucket) in pending {
                w.put_u64(delivery);
                w.put_seq_len(bucket.len());
                for &(logical, object, reader) in bucket {
                    w.put_u64(logical);
                    w.put_u32(object.raw());
                    w.put_u32(reader.raw());
                }
            }
        }
    }
    encode_metrics(&mut w, view.metrics);
    w.into_bytes()
}

fn decode(payload: &[u8], expected_fingerprint: u32) -> Result<SimCheckpoint, PersistError> {
    let mut r = ByteReader::new(payload);
    let fingerprint = r.get_u32()?;
    if fingerprint != expected_fingerprint {
        // A valid frame for a *different* experiment. Resuming it would
        // silently mix parameter sets, so treat it like a stale format.
        return Err(PersistError::StaleVersion {
            found: fingerprint,
            supported: expected_fingerprint,
        });
    }
    let next_second = r.get_u64()?;
    let next_ts = r.get_u64()?;
    let collector = DataCollector::decode_state(&mut r)?;
    let cache = SharedParticleCache::decode_state(&mut r)?;
    let mut words = [0u64; 12];
    for word in &mut words {
        *word = r.get_u64()?;
    }
    let mut means = [(0.0, 0u64); MEAN_SLOTS];
    for slot in &mut means {
        *slot = (r.get_f64()?, r.get_u64()?);
    }
    let mut pending: BTreeMap<u64, Vec<TaggedReading>> = BTreeMap::new();
    let n_buckets = r.get_seq_len(10)?;
    for _ in 0..n_buckets {
        let delivery = r.get_u64()?;
        let n = r.get_seq_len(16)?;
        let mut bucket = Vec::with_capacity(n);
        for _ in 0..n {
            let logical = r.get_u64()?;
            let object = ObjectId::new(r.get_u32()?);
            let reader = ReaderId::new(r.get_u32()?);
            bucket.push((logical, object, reader));
        }
        pending.insert(delivery, bucket);
    }
    let metrics = decode_metrics(&mut r)?;
    if r.remaining() != 0 {
        return Err(PersistError::Torn);
    }
    Ok(SimCheckpoint {
        next_second,
        next_ts,
        collector,
        cache,
        rng_sense: words[0..4].try_into().expect("slice of 4"),
        rng_pf: words[4..8].try_into().expect("slice of 4"),
        rng_query: words[8..12].try_into().expect("slice of 4"),
        means,
        pending,
        metrics,
    })
}

/// Atomically writes one sealed checkpoint frame to `path`.
pub(crate) fn save(path: &Path, view: &CheckpointView<'_>) -> Result<(), PersistError> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| PersistError::Io(e.to_string()))?;
    }
    write_atomic(path, &seal_snapshot(&encode(view)))
}

/// Loads the snapshot at `path`, quarantining anything unusable.
///
/// Returns the outcome plus the decoded state on a successful resume.
/// Counters: `recovery.cold_start`, `recovery.resumed` or
/// `recovery.quarantined` tick accordingly (they are *not* part of any
/// golden — harnesses strip the `recovery.*` prefix before comparing).
pub(crate) fn load_or_quarantine(
    path: &Path,
    expected_fingerprint: u32,
    recorder: &Recorder,
) -> (RecoveryOutcome, Option<SimCheckpoint>) {
    let payload = match load_snapshot(path) {
        Ok(p) => p,
        Err(PersistError::Missing) => {
            recorder.add("recovery.cold_start", 1);
            return (RecoveryOutcome::ColdStart, None);
        }
        Err(_damaged) => return (quarantine_damaged(path, recorder), None),
    };
    match decode(&payload, expected_fingerprint) {
        Ok(ck) => {
            recorder.add("recovery.resumed", 1);
            (
                RecoveryOutcome::Resumed {
                    replay_from: ck.next_second,
                },
                Some(ck),
            )
        }
        Err(_damaged) => (quarantine_damaged(path, recorder), None),
    }
}

fn quarantine_damaged(path: &Path, recorder: &Recorder) -> RecoveryOutcome {
    recorder.add("recovery.quarantined", 1);
    match quarantine(path) {
        Ok(moved) => RecoveryOutcome::Quarantined { path: moved },
        // The move itself failed (e.g. the file vanished); the run still
        // cold-starts, pointing at the original path.
        Err(_) => RecoveryOutcome::Quarantined {
            path: path.to_path_buf(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn view_fixture<'a>(
        collector: &'a DataCollector,
        cache: &'a SharedParticleCache,
        pending: &'a BTreeMap<u64, Vec<TaggedReading>>,
        metrics: &'a MetricsSnapshot,
    ) -> CheckpointView<'a> {
        CheckpointView {
            fingerprint: 0xABCD_1234,
            next_second: 42,
            next_ts: 3,
            collector,
            cache,
            rng_sense: StdRng::seed_from_u64(1).state(),
            rng_pf: StdRng::seed_from_u64(2).state(),
            rng_query: StdRng::seed_from_u64(3).state(),
            means: [
                (1.5, 2),
                (0.0, 0),
                (3.25, 4),
                (0.5, 1),
                (0.75, 3),
                (0.25, 3),
                (9.0, 2),
                (11.0, 2),
            ],
            pending: Some(pending),
            metrics,
        }
    }

    fn fixture_state() -> (
        DataCollector,
        SharedParticleCache,
        BTreeMap<u64, Vec<TaggedReading>>,
        MetricsSnapshot,
    ) {
        let mut collector = DataCollector::new();
        collector.ingest_second(
            5,
            &[
                (ObjectId::new(1), ReaderId::new(2)),
                (ObjectId::new(3), ReaderId::new(0)),
            ],
        );
        let cache = SharedParticleCache::new();
        let mut pending = BTreeMap::new();
        pending.insert(
            7,
            vec![
                (5, ObjectId::new(1), ReaderId::new(2)),
                (6, ObjectId::new(3), ReaderId::new(0)),
            ],
        );
        let recorder = Recorder::enabled();
        recorder.add("sim.timestamps_evaluated", 4);
        (collector, cache, pending, recorder.snapshot())
    }

    #[test]
    fn checkpoint_codec_round_trips() {
        let (collector, cache, pending, metrics) = fixture_state();
        let view = view_fixture(&collector, &cache, &pending, &metrics);
        let bytes = encode(&view);
        let ck = decode(&bytes, view.fingerprint).unwrap();
        assert_eq!(ck.next_second, 42);
        assert_eq!(ck.next_ts, 3);
        assert_eq!(ck.rng_sense, view.rng_sense);
        assert_eq!(ck.rng_pf, view.rng_pf);
        assert_eq!(ck.rng_query, view.rng_query);
        assert_eq!(ck.means, view.means);
        assert_eq!(ck.pending, pending);
        assert_eq!(ck.metrics, metrics);
        // Collector round-trip: re-encoding reproduces identical bytes.
        let mut w1 = ByteWriter::new();
        collector.encode_state(&mut w1);
        let mut w2 = ByteWriter::new();
        ck.collector.encode_state(&mut w2);
        assert_eq!(w1.into_bytes(), w2.into_bytes());
    }

    #[test]
    fn fingerprint_mismatch_is_stale_not_a_resume() {
        let (collector, cache, pending, metrics) = fixture_state();
        let view = view_fixture(&collector, &cache, &pending, &metrics);
        let bytes = encode(&view);
        assert!(matches!(
            decode(&bytes, view.fingerprint ^ 1),
            Err(PersistError::StaleVersion { .. })
        ));
    }

    #[test]
    fn truncation_anywhere_is_torn_never_a_panic() {
        let (collector, cache, pending, metrics) = fixture_state();
        let view = view_fixture(&collector, &cache, &pending, &metrics);
        let bytes = encode(&view);
        for cut in 0..bytes.len() {
            assert!(
                decode(&bytes[..cut], view.fingerprint).is_err(),
                "cut at {cut} decoded successfully"
            );
        }
    }

    #[test]
    fn params_fingerprint_tracks_result_relevant_knobs_only() {
        let base = ExperimentParams::smoke();
        let fp = params_fingerprint(&base);
        assert_eq!(fp, params_fingerprint(&base), "fingerprint is stable");
        // Result-relevant changes move it.
        assert_ne!(
            fp,
            params_fingerprint(&ExperimentParams {
                seed: base.seed + 1,
                ..base
            })
        );
        assert_ne!(
            fp,
            params_fingerprint(&ExperimentParams {
                query_budget: Some(1000),
                ..base
            })
        );
        // Provably result-neutral knobs do not.
        assert_eq!(
            fp,
            params_fingerprint(&ExperimentParams {
                parallelism: Some(4),
                checkpoint_every: 7,
                observability: true,
                ..base
            })
        );
    }

    #[test]
    fn save_and_load_round_trip_through_disk() {
        let dir = std::env::temp_dir().join("ripq_sim_ckpt_roundtrip");
        let _ = std::fs::remove_dir_all(&dir);
        let path = snapshot_path(&dir);
        let (collector, cache, pending, metrics) = fixture_state();
        let view = view_fixture(&collector, &cache, &pending, &metrics);
        save(&path, &view).unwrap();
        let recorder = Recorder::enabled();
        let (outcome, ck) = load_or_quarantine(&path, view.fingerprint, &recorder);
        assert_eq!(outcome, RecoveryOutcome::Resumed { replay_from: 42 });
        assert_eq!(ck.unwrap().pending, pending);
        assert_eq!(
            recorder.snapshot().counters.get("recovery.resumed"),
            Some(&1)
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn damaged_file_is_quarantined_with_a_counter() {
        let dir = std::env::temp_dir().join("ripq_sim_ckpt_damaged");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = snapshot_path(&dir);
        // ripq-lint: allow(atomic-persistence) -- test deliberately writes a torn non-atomic file
        std::fs::write(&path, b"RIPQSNAPgarbage").unwrap();
        let recorder = Recorder::enabled();
        let (outcome, ck) = load_or_quarantine(&path, 0, &recorder);
        assert!(ck.is_none());
        match outcome {
            RecoveryOutcome::Quarantined { path: moved } => {
                assert!(moved.to_string_lossy().ends_with(".corrupt"));
                assert!(moved.exists());
                assert!(!path.exists());
            }
            other => panic!("expected quarantine, got {other:?}"),
        }
        assert_eq!(
            recorder.snapshot().counters.get("recovery.quarantined"),
            Some(&1)
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

//! Crash-safe checkpointing of a running [`crate::Experiment`].
//!
//! `experiment.ckpt` is one frame written atomically through
//! `ripq-persist`. Its payload holds, in order: a CRC32 fingerprint of the
//! result-relevant parameters, the harness's own loop state (the
//! evaluation-timestamp cursor, the sensing and query RNG streams, the
//! accuracy accumulators and the fault injector's jitter buffer) and,
//! last, the system facade's own snapshot payload
//! ([`IndoorQuerySystem::encode_state`]: collector, particle cache,
//! pass-seed RNG, metrics, live index, all behind the facade's world
//! fingerprint). Everything *else* (true traces, reader deployment, kNN
//! query points, the outage schedule) is a pure function of
//! [`ExperimentParams`] and the world, and is regenerated on resume.
//!
//! Damaged files — torn, bit-flipped, wrong format version, written by a
//! different parameter set or in a different world — are quarantined to
//! `experiment.ckpt.corrupt` and the run cold-starts; a resumed run is
//! bit-for-bit identical to an uninterrupted one.

use crate::{ExperimentParams, TaggedReading};
use ripq_core::IndoorQuerySystem;
use ripq_persist::{
    crc32, load_snapshot, quarantine, seal_snapshot, write_atomic, ByteReader, ByteWriter,
    PersistError,
};
use ripq_rfid::{DeploymentStrategy, ObjectId, ReaderId};
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

/// The harness's own loop state: everything the per-second loop of
/// `Experiment::run` mutates outside the system facade.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct HarnessState {
    /// Index into the evaluation-timestamp list.
    pub next_ts: u64,
    pub rng_sense: [u64; 4],
    pub rng_query: [u64; 4],
    pub means: [(f64, u64); MEAN_SLOTS],
    /// The fault injector's in-flight jitter buffer (empty when the run
    /// has no active fault plan).
    pub pending: BTreeMap<u64, Vec<TaggedReading>>,
}

/// CRC32 fingerprint over the canonical encoding of every parameter that
/// influences the numbers. Knobs that provably cannot change results —
/// `parallelism` (bit-identical by construction), `checkpoint_every` and
/// `observability` — are excluded, so a snapshot survives resuming under
/// a different worker count or cadence. The world itself is fingerprinted
/// by the facade payload.
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

fn encode(fingerprint: u32, harness: &HarnessState, sys: &IndoorQuerySystem) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u32(fingerprint);
    w.put_u64(harness.next_ts);
    for word in harness.rng_sense.iter().chain(&harness.rng_query) {
        w.put_u64(*word);
    }
    for (sum, n) in harness.means {
        w.put_f64(sum);
        w.put_u64(n);
    }
    w.put_seq_len(harness.pending.len());
    for (&delivery, bucket) in &harness.pending {
        w.put_u64(delivery);
        w.put_seq_len(bucket.len());
        for &(logical, object, reader) in bucket {
            w.put_u64(logical);
            w.put_u32(object.raw());
            w.put_u32(reader.raw());
        }
    }
    sys.encode_state(&mut w);
    w.into_bytes()
}

fn get_words(r: &mut ByteReader<'_>) -> Result<[u64; 4], PersistError> {
    Ok([r.get_u64()?, r.get_u64()?, r.get_u64()?, r.get_u64()?])
}

/// Decodes the harness state, then commits the facade section into
/// `sys` (which consumes the rest of the payload). Nothing is committed
/// on error. Returns the first second the resumed loop must process.
fn decode(
    payload: &[u8],
    expected_fingerprint: u32,
    sys: &mut IndoorQuerySystem,
) -> Result<(u64, HarnessState), PersistError> {
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
    let next_ts = r.get_u64()?;
    let rng_sense = get_words(&mut r)?;
    let rng_query = get_words(&mut r)?;
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
    let replay_from = sys.restore_state(&mut r)?;
    let harness = HarnessState {
        next_ts,
        rng_sense,
        rng_query,
        means,
        pending,
    };
    Ok((replay_from, harness))
}

/// Atomically writes one sealed checkpoint frame to `path`.
pub(crate) fn save(
    path: &Path,
    fingerprint: u32,
    harness: &HarnessState,
    sys: &IndoorQuerySystem,
) -> Result<(), PersistError> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| PersistError::Io(e.to_string()))?;
    }
    write_atomic(path, &seal_snapshot(&encode(fingerprint, harness, sys)))
}

/// Loads the snapshot at `path` into `sys`, quarantining anything
/// unusable.
///
/// Returns the outcome plus the harness state on a successful resume; on
/// any other outcome `sys` is untouched. Counters on the system's
/// recorder: `recovery.cold_start`, `recovery.resumed` or
/// `recovery.quarantined` tick accordingly (they are *not* part of any
/// golden — harnesses strip the `recovery.*` prefix before comparing).
pub(crate) fn load_or_quarantine(
    path: &Path,
    expected_fingerprint: u32,
    sys: &mut IndoorQuerySystem,
) -> (RecoveryOutcome, Option<HarnessState>) {
    let payload = match load_snapshot(path) {
        Ok(p) => p,
        Err(PersistError::Missing) => {
            sys.recorder().add("recovery.cold_start", 1);
            return (RecoveryOutcome::ColdStart, None);
        }
        Err(_damaged) => return (quarantine_damaged(path, sys), None),
    };
    match decode(&payload, expected_fingerprint, sys) {
        Ok((replay_from, harness)) => {
            sys.recorder().add("recovery.resumed", 1);
            (RecoveryOutcome::Resumed { replay_from }, Some(harness))
        }
        Err(_damaged) => (quarantine_damaged(path, sys), None),
    }
}

fn quarantine_damaged(path: &Path, sys: &IndoorQuerySystem) -> RecoveryOutcome {
    sys.recorder().add("recovery.quarantined", 1);
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
    use ripq_core::SystemConfig;
    use ripq_floorplan::{office_building, OfficeParams};

    const FINGERPRINT: u32 = 0xABCD_1234;

    fn harness_fixture() -> HarnessState {
        let mut pending = BTreeMap::new();
        pending.insert(
            7,
            vec![
                (5, ObjectId::new(1), ReaderId::new(2)),
                (6, ObjectId::new(3), ReaderId::new(0)),
            ],
        );
        HarnessState {
            next_ts: 3,
            rng_sense: StdRng::seed_from_u64(1).state(),
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
            pending,
        }
    }

    fn system(readers: u32) -> IndoorQuerySystem {
        let plan = office_building(&OfficeParams::default()).unwrap();
        let config = SystemConfig {
            reader_count: readers,
            observability: true,
            ..SystemConfig::default()
        };
        IndoorQuerySystem::new(plan, config, 9)
    }

    /// A system that has ingested seconds `0..=41`, so it resumes at 42.
    fn fed_system() -> IndoorQuerySystem {
        let mut sys = system(19);
        let r = sys.readers()[2].id();
        for s in 0..=41u64 {
            sys.ingest_detections(s, &[(ObjectId::new(1), r)]);
        }
        sys.recorder().add("sim.timestamps_evaluated", 4);
        sys
    }

    fn state_bytes(sys: &IndoorQuerySystem) -> Vec<u8> {
        let mut w = ByteWriter::new();
        sys.encode_state(&mut w);
        w.into_bytes()
    }

    #[test]
    fn checkpoint_codec_round_trips() {
        let source = fed_system();
        let harness = harness_fixture();
        let bytes = encode(FINGERPRINT, &harness, &source);
        let mut target = system(19);
        let (replay_from, decoded) = decode(&bytes, FINGERPRINT, &mut target).unwrap();
        assert_eq!(replay_from, 42);
        assert_eq!(decoded, harness);
        // The facade section round-trips byte for byte.
        assert_eq!(state_bytes(&target), state_bytes(&source));
    }

    #[test]
    fn fingerprint_mismatch_is_stale_not_a_resume() {
        let bytes = encode(FINGERPRINT, &harness_fixture(), &fed_system());
        let mut target = system(19);
        let before = state_bytes(&target);
        assert!(matches!(
            decode(&bytes, FINGERPRINT ^ 1, &mut target),
            Err(PersistError::StaleVersion { .. })
        ));
        assert_eq!(state_bytes(&target), before, "nothing committed");
    }

    #[test]
    fn snapshot_of_another_world_is_stale_and_commits_nothing() {
        let bytes = encode(FINGERPRINT, &harness_fixture(), &fed_system());
        let mut target = system(6);
        let before = state_bytes(&target);
        assert!(matches!(
            decode(&bytes, FINGERPRINT, &mut target),
            Err(PersistError::StaleVersion { .. })
        ));
        assert_eq!(state_bytes(&target), before, "nothing committed");
    }

    #[test]
    fn truncation_anywhere_is_torn_never_a_panic() {
        let source = fed_system();
        let bytes = encode(FINGERPRINT, &harness_fixture(), &source);
        let mut target = system(19);
        let before = state_bytes(&target);
        for cut in 0..bytes.len() {
            assert!(
                decode(&bytes[..cut], FINGERPRINT, &mut target).is_err(),
                "cut at {cut} decoded successfully"
            );
        }
        assert_eq!(state_bytes(&target), before, "nothing committed");
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
        let harness = harness_fixture();
        save(&path, FINGERPRINT, &harness, &fed_system()).unwrap();
        let mut target = system(19);
        let (outcome, restored) = load_or_quarantine(&path, FINGERPRINT, &mut target);
        assert_eq!(outcome, RecoveryOutcome::Resumed { replay_from: 42 });
        assert_eq!(restored, Some(harness));
        assert_eq!(
            target
                .recorder()
                .snapshot()
                .counters
                .get("recovery.resumed"),
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
        let mut sys = system(19);
        let (outcome, restored) = load_or_quarantine(&path, 0, &mut sys);
        assert!(restored.is_none());
        match outcome {
            RecoveryOutcome::Quarantined { path: moved } => {
                assert!(moved.to_string_lossy().ends_with(".corrupt"));
                assert!(moved.exists());
                assert!(!path.exists());
            }
            other => panic!("expected quarantine, got {other:?}"),
        }
        assert_eq!(
            sys.recorder()
                .snapshot()
                .counters
                .get("recovery.quarantined"),
            Some(&1)
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

//! Crash-safe checkpointing of a running [`crate::Experiment`].
//!
//! `experiment.ckpt` is one frame written and recovered through
//! [`ripq_core::checkpoint`]. This module owns its section: a CRC32
//! fingerprint of the result-relevant parameters, then the harness's own
//! loop state (the evaluation-timestamp cursor, the sensing and query RNG
//! streams, the accuracy accumulators and the fault injector's jitter
//! buffer). The facade's own state follows it (collector, particle
//! cache, pass-seed RNG, metrics, live index, behind the facade's world
//! fingerprint). Everything *else* (true traces, reader deployment, kNN
//! query points, the outage schedule) is a pure function of
//! [`ExperimentParams`] and the world, and is regenerated on resume.
//!
//! A snapshot written by a different parameter set is rejected by the
//! section decoder, so the shared recovery ladder quarantines it to
//! `experiment.ckpt.corrupt` like a torn, bit-flipped or foreign-world
//! file and the run cold-starts; a resumed run is bit-for-bit identical
//! to an uninterrupted one.

use crate::{ExperimentParams, TaggedReading};
use ripq_persist::{crc32, ByteReader, ByteWriter, PersistError};
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
    w.put_f64(p.kde_bandwidth);
    w.put_bool(p.kld_adaptive);
    w.put_bool(p.use_cache);
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

impl HarnessState {
    /// Appends the experiment's section: `fingerprint`, then the harness
    /// state.
    pub(crate) fn encode(&self, fingerprint: u32, w: &mut ByteWriter) {
        w.put_u32(fingerprint);
        w.put_u64(self.next_ts);
        for word in self.rng_sense.iter().chain(&self.rng_query) {
            w.put_u64(*word);
        }
        for (sum, n) in self.means {
            w.put_f64(sum);
            w.put_u64(n);
        }
        w.put_seq_len(self.pending.len());
        for (&delivery, bucket) in &self.pending {
            w.put_u64(delivery);
            w.put_seq_len(bucket.len());
            for &(logical, object, reader) in bucket {
                w.put_u64(logical);
                w.put_u32(object.raw());
                w.put_u32(reader.raw());
            }
        }
    }

    /// Decodes a section written by [`HarnessState::encode`]. A
    /// fingerprint other than `expected_fingerprint` is
    /// [`PersistError::StaleVersion`]: a valid frame of a *different*
    /// experiment, which resuming would silently blend into this one.
    pub(crate) fn decode(
        r: &mut ByteReader<'_>,
        expected_fingerprint: u32,
    ) -> Result<Self, PersistError> {
        let fingerprint = r.get_u32()?;
        if fingerprint != expected_fingerprint {
            return Err(PersistError::StaleVersion {
                found: fingerprint,
                supported: expected_fingerprint,
            });
        }
        let next_ts = r.get_u64()?;
        let rng_sense = get_words(r)?;
        let rng_query = get_words(r)?;
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
        Ok(HarnessState {
            next_ts,
            rng_sense,
            rng_query,
            means,
            pending,
        })
    }
}

fn get_words(r: &mut ByteReader<'_>) -> Result<[u64; 4], PersistError> {
    Ok([r.get_u64()?, r.get_u64()?, r.get_u64()?, r.get_u64()?])
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use ripq_core::checkpoint::{self, Recovered};
    use ripq_core::{IndoorQuerySystem, SystemConfig};
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

    fn section_bytes(harness: &HarnessState) -> Vec<u8> {
        let mut w = ByteWriter::new();
        harness.encode(FINGERPRINT, &mut w);
        w.into_bytes()
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

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ripq_sim_ckpt_{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn harness_section_round_trips() {
        let harness = harness_fixture();
        let bytes = section_bytes(&harness);
        let mut r = ByteReader::new(&bytes);
        assert_eq!(HarnessState::decode(&mut r, FINGERPRINT).unwrap(), harness);
        r.finish().unwrap();
    }

    #[test]
    fn fingerprint_mismatch_is_stale_not_a_resume() {
        let bytes = section_bytes(&harness_fixture());
        assert!(matches!(
            HarnessState::decode(&mut ByteReader::new(&bytes), FINGERPRINT ^ 1),
            Err(PersistError::StaleVersion { .. })
        ));
    }

    #[test]
    fn truncation_anywhere_is_torn_never_a_panic() {
        let bytes = section_bytes(&harness_fixture());
        for cut in 0..bytes.len() {
            assert!(
                HarnessState::decode(&mut ByteReader::new(&bytes[..cut]), FINGERPRINT).is_err(),
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
        // A cache-off snapshot must never resume into a cache-on run.
        assert_ne!(
            fp,
            params_fingerprint(&ExperimentParams {
                use_cache: false,
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
        let dir = temp_dir("roundtrip");
        let path = snapshot_path(&dir);
        let harness = harness_fixture();
        checkpoint::save(&fed_system(), &path, |w| harness.encode(FINGERPRINT, w)).unwrap();
        let mut target = system(19);
        assert_eq!(
            checkpoint::recover(&mut target, &path, |r| HarnessState::decode(r, FINGERPRINT))
                .unwrap(),
            Recovered::Resumed {
                replay_from: 42,
                section: harness
            }
        );
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

    /// A snapshot of another parameter set (the section refuses its
    /// fingerprint) or of another world (the facade refuses its reader
    /// deployment) is quarantined and restores nothing.
    #[test]
    fn snapshot_of_another_experiment_is_quarantined_and_commits_nothing() {
        for (tag, fingerprint, readers) in [
            ("other_params", FINGERPRINT ^ 1, 19),
            ("other_world", FINGERPRINT, 6),
        ] {
            let dir = temp_dir(tag);
            let path = snapshot_path(&dir);
            let harness = harness_fixture();
            checkpoint::save(&fed_system(), &path, |w| harness.encode(FINGERPRINT, w)).unwrap();
            let mut target = system(readers);
            let recovered =
                checkpoint::recover(&mut target, &path, |r| HarnessState::decode(r, fingerprint))
                    .unwrap();
            assert!(
                matches!(recovered, Recovered::Quarantined { .. }),
                "{tag}: {recovered:?}"
            );
            assert_eq!(target.collector().objects().count(), 0, "{tag}");
            assert_eq!(
                target
                    .recorder()
                    .snapshot()
                    .counters
                    .get("sim.timestamps_evaluated"),
                None,
                "{tag}: metrics not restored"
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

//! The device sensing model: noisy detection of tags by readers.

use crate::{ObjectId, RawReading, Reader, ReaderId};
use rand::Rng;
use ripq_geom::Point2;
use serde::{Deserialize, Serialize};

/// Stochastic sensing model for RFID readers.
///
/// Readers sample many times per second ("RFID readers usually have a high
/// reading rate of tens of samples per second", §4.1); each sample of a tag
/// inside the activation range succeeds independently with probability
/// `detection_probability`, modeling the false negatives caused by "RF
/// interference, limited detection range, tag orientation, and other
/// environmental phenomena" (§1).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SensingModel {
    /// Samples each reader takes per second (paper: "tens").
    pub samples_per_second: u32,
    /// Probability that a single sample of an in-range tag is detected.
    pub detection_probability: f64,
    /// Probability per object-second of a *ghost read*: a spurious
    /// detection by a uniformly random reader while the tag is not truly
    /// read anywhere. Real RFID deployments occasionally produce such
    /// false positives (multipath, tag cloning); the default is 0 (the
    /// paper models false negatives only).
    pub false_positive_rate: f64,
}

impl Default for SensingModel {
    fn default() -> Self {
        SensingModel {
            samples_per_second: 10,
            detection_probability: 0.85,
            false_positive_rate: 0.0,
        }
    }
}

impl SensingModel {
    /// Generates the raw readings produced during one second for one object
    /// at (true) position `p`.
    ///
    /// Every reader covering `p` samples `samples_per_second` times at
    /// uniform sub-second offsets; each sample independently succeeds with
    /// `detection_probability`.
    pub fn sample_second<R: Rng>(
        &self,
        rng: &mut R,
        second: u64,
        object: ObjectId,
        p: Point2,
        readers: &[Reader],
    ) -> Vec<RawReading> {
        let mut out = Vec::new();
        for reader in readers {
            if !reader.covers(p) {
                continue;
            }
            for s in 0..self.samples_per_second {
                if rng.random::<f64>() < self.detection_probability {
                    out.push(RawReading {
                        time: second as f64 + (s as f64 + 0.5) / self.samples_per_second as f64,
                        object,
                        reader: reader.id(),
                    });
                }
            }
        }
        out
    }

    /// Aggregated variant of [`SensingModel::sample_second`]: returns the
    /// detecting reader for the second, if at least one sample succeeded.
    /// With disjoint activation ranges at most one reader is in range; when
    /// ranges overlap, the reader with the most successful samples wins.
    /// When nothing truly detects the tag, a ghost read from a random
    /// reader is emitted with probability `false_positive_rate`.
    pub fn detect_second<R: Rng>(
        &self,
        rng: &mut R,
        p: Point2,
        readers: &[Reader],
    ) -> Option<ReaderId> {
        let mut best: Option<(ReaderId, u32)> = None;
        for reader in readers {
            if !reader.covers(p) {
                continue;
            }
            let mut hits = 0u32;
            for _ in 0..self.samples_per_second {
                if rng.random::<f64>() < self.detection_probability {
                    hits += 1;
                }
            }
            if hits > 0 && best.is_none_or(|(_, h)| hits > h) {
                best = Some((reader.id(), hits));
            }
        }
        if best.is_none()
            && self.false_positive_rate > 0.0
            && !readers.is_empty()
            && rng.random::<f64>() < self.false_positive_rate
        {
            let ghost = &readers[rng.random_range(0..readers.len())];
            return Some(ghost.id());
        }
        best.map(|(id, _)| id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use ripq_graph::{EdgeId, GraphPos};

    fn reader_at(id: u32, x: f64, range: f64) -> Reader {
        Reader::new(
            ReaderId::new(id),
            Point2::new(x, 10.0),
            GraphPos::new(EdgeId::new(0), x),
            range,
        )
    }

    #[test]
    fn out_of_range_never_detected() {
        let model = SensingModel::default();
        let mut rng = StdRng::seed_from_u64(7);
        let readers = vec![reader_at(0, 10.0, 2.0)];
        for _ in 0..100 {
            let got = model.detect_second(&mut rng, Point2::new(50.0, 10.0), &readers);
            assert_eq!(got, None);
        }
    }

    #[test]
    fn in_range_detected_almost_surely_with_default_model() {
        let model = SensingModel::default();
        let mut rng = StdRng::seed_from_u64(8);
        let readers = vec![reader_at(0, 10.0, 2.0)];
        let mut hits = 0;
        for _ in 0..1000 {
            if model
                .detect_second(&mut rng, Point2::new(10.5, 10.0), &readers)
                .is_some()
            {
                hits += 1;
            }
        }
        assert_eq!(hits, 1000, "miss prob ~5.8e-9, 1000 trials never miss");
    }

    #[test]
    fn single_sample_model_misses_sometimes() {
        let model = SensingModel {
            samples_per_second: 1,
            detection_probability: 0.5,
            ..Default::default()
        };
        let mut rng = StdRng::seed_from_u64(9);
        let readers = vec![reader_at(0, 10.0, 2.0)];
        let mut hits = 0;
        let trials = 2000;
        for _ in 0..trials {
            if model
                .detect_second(&mut rng, Point2::new(10.0, 10.0), &readers)
                .is_some()
            {
                hits += 1;
            }
        }
        let rate = hits as f64 / trials as f64;
        assert!((rate - 0.5).abs() < 0.05, "detection rate {rate} != ~0.5");
    }

    #[test]
    fn raw_readings_fall_into_the_right_second() {
        let model = SensingModel::default();
        let mut rng = StdRng::seed_from_u64(10);
        let readers = vec![reader_at(0, 10.0, 2.0)];
        let raw = model.sample_second(
            &mut rng,
            42,
            ObjectId::new(3),
            Point2::new(10.0, 10.0),
            &readers,
        );
        assert!(!raw.is_empty());
        for r in &raw {
            assert_eq!(r.second(), 42);
            assert_eq!(r.object, ObjectId::new(3));
            assert_eq!(r.reader, ReaderId::new(0));
        }
        // Roughly detection_probability × samples_per_second readings.
        assert!(raw.len() >= 4 && raw.len() <= 10, "got {}", raw.len());
    }

    #[test]
    fn ghost_reads_occur_at_configured_rate() {
        let model = SensingModel {
            false_positive_rate: 0.2,
            ..Default::default()
        };
        let mut rng = StdRng::seed_from_u64(12);
        let readers = vec![reader_at(0, 10.0, 2.0), reader_at(1, 30.0, 2.0)];
        let far = Point2::new(100.0, 100.0); // out of everyone's range
        let trials = 5000;
        let ghosts = (0..trials)
            .filter(|_| model.detect_second(&mut rng, far, &readers).is_some())
            .count();
        let rate = ghosts as f64 / trials as f64;
        assert!((rate - 0.2).abs() < 0.02, "ghost rate {rate}");
    }

    #[test]
    fn true_detection_suppresses_ghosts() {
        let model = SensingModel {
            false_positive_rate: 1.0,
            ..Default::default()
        };
        let mut rng = StdRng::seed_from_u64(13);
        let readers = vec![reader_at(0, 10.0, 2.0), reader_at(1, 30.0, 2.0)];
        for _ in 0..200 {
            // In range of reader 0: the true reading always wins.
            let got = model.detect_second(&mut rng, Point2::new(10.0, 10.0), &readers);
            assert_eq!(got, Some(ReaderId::new(0)));
        }
    }

    #[test]
    fn overlapping_readers_pick_strongest() {
        // Two overlapping readers both covering the point; the one with
        // more successful samples wins, so over many trials both appear but
        // a detection always occurs.
        let model = SensingModel::default();
        let mut rng = StdRng::seed_from_u64(11);
        let readers = vec![reader_at(0, 10.0, 5.0), reader_at(1, 12.0, 5.0)];
        let mut seen = std::collections::HashSet::new();
        for _ in 0..200 {
            if let Some(id) = model.detect_second(&mut rng, Point2::new(11.0, 10.0), &readers) {
                seen.insert(id);
            }
        }
        assert!(seen.contains(&ReaderId::new(0)));
        assert!(seen.contains(&ReaderId::new(1)));
    }
}

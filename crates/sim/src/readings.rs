//! The raw reading generator (§5.1).
//!
//! "The raw reading generator module checks whether each object is detected
//! by a reader according to the deployment of readers and the current
//! location of the object. Whenever a reading occurs, the raw reading
//! generator will feed the reading … to the two probabilistic query
//! evaluation modules."

use crate::TrueTrace;
use rand::Rng;
use ripq_graph::WalkingGraph;
use ripq_rfid::{ObjectId, Reader, ReaderId, SensingModel};

/// Generates per-second detections from true traces through the stochastic
/// sensing model.
pub struct ReadingGenerator<'a> {
    graph: &'a WalkingGraph,
    readers: &'a [Reader],
    sensing: SensingModel,
}

impl<'a> ReadingGenerator<'a> {
    /// Creates a generator for a fixed deployment.
    pub fn new(graph: &'a WalkingGraph, readers: &'a [Reader], sensing: SensingModel) -> Self {
        ReadingGenerator {
            graph,
            readers,
            sensing,
        }
    }

    /// The aggregated detections of one second: for each object whose true
    /// position is inside some reader's range *and* which at least one
    /// sample detected, the pair `(object, reader)`.
    pub fn detections_at<R: Rng>(
        &self,
        rng: &mut R,
        traces: &[TrueTrace],
        second: u64,
    ) -> Vec<(ObjectId, ReaderId)> {
        let mut out = Vec::new();
        for trace in traces {
            let p = trace.point_at(self.graph, second);
            if let Some(reader) = self.sensing.detect_second(rng, p, self.readers) {
                out.push((trace.object, reader));
            }
        }
        out
    }

    /// All per-second detections for `0..=duration`, precomputed (index by
    /// second).
    pub fn detections_all<R: Rng>(
        &self,
        rng: &mut R,
        traces: &[TrueTrace],
        duration: u64,
    ) -> Vec<Vec<(ObjectId, ReaderId)>> {
        (0..=duration)
            .map(|s| self.detections_at(rng, traces, s))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ExperimentParams, SimWorld, TraceGenerator};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn detections_match_coverage() {
        let params = ExperimentParams::smoke();
        let w = SimWorld::build(&params);
        let mut rng = StdRng::seed_from_u64(6);
        let traces =
            TraceGenerator::new(5.0).generate(&mut rng, &w.graph, w.plan.rooms().len(), 10, 120);
        let gen = ReadingGenerator::new(&w.graph, &w.readers, params.sensing);
        let mut any = false;
        for s in 0..=120u64 {
            for (obj, rid) in gen.detections_at(&mut rng, &traces, s) {
                any = true;
                let trace = &traces[obj.index()];
                let p = trace.point_at(&w.graph, s);
                let reader = &w.readers[rid.index()];
                assert!(reader.covers(p), "detection outside range at second {s}");
            }
        }
        assert!(any, "objects walking the hallways must be detected");
    }

    #[test]
    fn detections_all_has_one_entry_per_second() {
        let params = ExperimentParams::smoke();
        let w = SimWorld::build(&params);
        let mut rng = StdRng::seed_from_u64(7);
        let traces =
            TraceGenerator::new(5.0).generate(&mut rng, &w.graph, w.plan.rooms().len(), 5, 60);
        let gen = ReadingGenerator::new(&w.graph, &w.readers, params.sensing);
        let all = gen.detections_all(&mut rng, &traces, 60);
        assert_eq!(all.len(), 61);
    }

    #[test]
    fn zero_detection_probability_detects_nothing() {
        let params = ExperimentParams::smoke();
        let w = SimWorld::build(&params);
        let mut rng = StdRng::seed_from_u64(8);
        let traces =
            TraceGenerator::new(5.0).generate(&mut rng, &w.graph, w.plan.rooms().len(), 5, 30);
        let dead = SensingModel {
            samples_per_second: 10,
            detection_probability: 0.0,
            ..Default::default()
        };
        let gen = ReadingGenerator::new(&w.graph, &w.readers, dead);
        for s in 0..=30u64 {
            assert!(gen.detections_at(&mut rng, &traces, s).is_empty());
        }
    }
}

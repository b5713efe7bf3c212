//! Symbolic-model location inference (§3.3, Cases 1–4).
//!
//! "Symbolic model-based location inference assumes an object's position is
//! uniformly distributed over all possible locations": within the detecting
//! reader's range while observed (Case 1), and over every location the
//! object could have walked to *without being detected by another reader*
//! once it leaves the range (Cases 2–4), bounded by the maximum walking
//! speed — "a moving object is uniformly distributed over all the reachable
//! locations constrained by its maximum speed" (§2.1).

use crate::CellDecomposition;
use ripq_graph::{AnchorId, AnchorObjectIndex, AnchorSet, WalkingGraph};
use ripq_rfid::{DataCollector, ObjectId, Reader, ReaderId};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// The symbolic-model baseline, precomputed for a fixed deployment.
#[derive(Debug, Clone)]
pub struct SymbolicModel {
    cells: CellDecomposition,
    /// `restricted[r][a]` = shortest anchor-graph distance from reader
    /// `r`'s covered region to anchor `a`, traversing only anchors not
    /// covered by *other* readers (∞ where unreachable undetected).
    restricted: Vec<Vec<f64>>,
    /// Maximum walking speed `u_max` (m/s) used to bound reachability.
    max_speed: f64,
}

impl SymbolicModel {
    /// Builds the model: cell decomposition plus, per reader, the
    /// detection-free shortest distances to every anchor.
    pub fn new(
        graph: &WalkingGraph,
        anchors: &AnchorSet,
        readers: &[Reader],
        max_speed: f64,
    ) -> Self {
        assert!(max_speed > 0.0, "max speed must be positive");
        let cells = CellDecomposition::build(graph, anchors, readers);
        let n = anchors.anchors().len();
        let mut restricted = Vec::with_capacity(readers.len());
        for r in readers {
            restricted.push(Self::restricted_dijkstra(&cells, n, r.id()));
        }
        SymbolicModel {
            cells,
            restricted,
            max_speed,
        }
    }

    fn restricted_dijkstra(cells: &CellDecomposition, n: usize, reader: ReaderId) -> Vec<f64> {
        #[derive(PartialEq)]
        struct E(f64, AnchorId);
        impl Eq for E {}
        impl Ord for E {
            fn cmp(&self, other: &Self) -> Ordering {
                other.0.partial_cmp(&self.0).unwrap_or(Ordering::Equal)
            }
        }
        impl PartialOrd for E {
            fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
                Some(self.cmp(other))
            }
        }

        let mut dist = vec![f64::INFINITY; n];
        let mut heap = BinaryHeap::new();
        for a in cells.anchors_of_reader(reader) {
            dist[a.index()] = 0.0;
            heap.push(E(0.0, a));
        }
        while let Some(E(d, a)) = heap.pop() {
            if d > dist[a.index()] {
                continue;
            }
            for &(b, w) in &cells.adjacency()[a.index()] {
                // Blocked by another reader's range: the object would have
                // been detected there.
                if cells.covering_reader(b).is_some_and(|r| r != reader) {
                    continue;
                }
                let nd = d + w;
                if nd < dist[b.index()] {
                    dist[b.index()] = nd;
                    heap.push(E(nd, b));
                }
            }
        }
        dist
    }

    /// The underlying cell decomposition.
    pub fn cells(&self) -> &CellDecomposition {
        &self.cells
    }

    /// The configured maximum walking speed.
    pub fn max_speed(&self) -> f64 {
        self.max_speed
    }

    /// Infers the uniform location distribution of an object last detected
    /// by `reader`, `elapsed` seconds ago (0 = currently observed).
    ///
    /// Returns anchor/probability pairs summing to 1; the support is every
    /// anchor within `u_max · elapsed` of the reader's range, reachable
    /// without crossing another reader.
    pub fn infer(&self, reader: ReaderId, elapsed: u64) -> Vec<(AnchorId, f64)> {
        let lmax = self.max_speed * elapsed as f64;
        let dist = &self.restricted[reader.index()];
        let support: Vec<AnchorId> = dist
            .iter()
            .enumerate()
            .filter(|(_, &d)| d <= lmax)
            .map(|(i, _)| AnchorId::new(i as u32))
            .collect();
        if support.is_empty() {
            return Vec::new();
        }
        let p = 1.0 / support.len() as f64;
        support.into_iter().map(|a| (a, p)).collect()
    }

    /// Builds the full anchor ↔ object index for every object the
    /// collector knows, evaluated at time `now` — the symbolic counterpart
    /// of the particle preprocessor's output, consumed by the same query
    /// evaluation code.
    pub fn build_index(
        &self,
        collector: &DataCollector,
        objects: &[ObjectId],
        now: u64,
    ) -> AnchorObjectIndex<ObjectId> {
        let mut index = AnchorObjectIndex::new();
        for &o in objects {
            if let Some((reader, t_last)) = collector.last_detection(o) {
                let elapsed = now.saturating_sub(t_last);
                index.set_object(o, self.infer(reader, elapsed));
            }
        }
        index
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ripq_floorplan::{office_building, OfficeParams};
    use ripq_graph::build_walking_graph;
    use ripq_rfid::deploy_uniform;

    fn setup() -> (WalkingGraph, AnchorSet, Vec<Reader>, SymbolicModel) {
        let plan = office_building(&OfficeParams::default()).unwrap();
        let graph = build_walking_graph(&plan);
        let anchors = AnchorSet::generate(&graph, &plan, 1.0);
        let readers = deploy_uniform(&plan, &graph, 19, 2.0);
        let model = SymbolicModel::new(&graph, &anchors, &readers, 1.5);
        (graph, anchors, readers, model)
    }

    #[test]
    fn currently_observed_object_confined_to_range() {
        let (_, anchors, readers, model) = setup();
        let r = &readers[4];
        let dist = model.infer(r.id(), 0);
        assert!(!dist.is_empty());
        let total: f64 = dist.iter().map(|(_, p)| p).sum();
        assert!((total - 1.0).abs() < 1e-9);
        for (a, _) in dist {
            assert!(
                r.position().distance(anchors.anchor(a).point) <= r.activation_range() + 1e-9,
                "Case 1: all mass inside the activation range"
            );
        }
    }

    #[test]
    fn support_grows_with_elapsed_time() {
        let (_, _, readers, model) = setup();
        let r = readers[7].id();
        let s0 = model.infer(r, 0).len();
        let s5 = model.infer(r, 5).len();
        let s20 = model.infer(r, 20).len();
        assert!(s0 < s5, "{s0} !< {s5}");
        assert!(s5 < s20, "{s5} !< {s20}");
    }

    #[test]
    fn uniform_probabilities() {
        let (_, _, readers, model) = setup();
        let dist = model.infer(readers[3].id(), 10);
        let p0 = dist[0].1;
        assert!(dist.iter().all(|&(_, p)| (p - p0).abs() < 1e-12));
        let total: f64 = dist.iter().map(|(_, p)| p).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn other_readers_block_reachability() {
        // No anchor covered by a *different* reader may appear in the
        // support: the object would have been detected there.
        let (_, _, readers, model) = setup();
        let r = readers[9].id();
        let dist = model.infer(r, 60);
        for (a, _) in dist {
            if let Some(covering) = model.cells().covering_reader(a) {
                assert_eq!(covering, r, "support crossed reader {covering}");
            }
        }
    }

    #[test]
    fn long_elapsed_still_bounded_by_blocking_readers() {
        // Even after a very long time the support cannot grow past the
        // neighboring readers' ranges — the defining property that makes
        // this baseline weaker than the particle filter.
        let (_, anchors, readers, model) = setup();
        let r = readers[9].id();
        let huge = model.infer(r, 100_000);
        assert!(
            huge.len() < anchors.anchors().len(),
            "support must not cover the whole building"
        );
    }

    #[test]
    fn build_index_covers_detected_objects() {
        let (_, _, readers, model) = setup();
        let mut collector = DataCollector::new();
        let o1 = ObjectId::new(0);
        let o2 = ObjectId::new(1);
        collector.ingest_second(0, &[(o1, readers[0].id())]);
        collector.ingest_second(1, &[(o2, readers[5].id())]);
        collector.ingest_second(2, &[]);
        let index = model.build_index(&collector, &[o1, o2, ObjectId::new(9)], 4);
        assert_eq!(index.object_count(), 2);
        assert!((index.total_probability(&o1) - 1.0).abs() < 1e-9);
        assert!((index.total_probability(&o2) - 1.0).abs() < 1e-9);
    }
}

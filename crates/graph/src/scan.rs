//! Lazy ascending anchor scan — the network-distance search behind query
//! evaluation.
//!
//! kNN frontier expansion (Algorithm 4), PTkNN sampling and closest pairs
//! all need shortest *network* distances on `G(N, E)` (§4.2) from one
//! source position to many anchors. [`AnchorScan`] is a Dijkstra search
//! that emits `(anchor, distance)` pairs in exactly the order a full sort
//! of all anchor distances would produce — by `(distance, anchor id)`,
//! unreachable anchors last at ∞ — with distances bit-identical to
//! [`crate::ShortestPaths::distance_to`], but computed incrementally, so
//! a consumer that stops early only pays for the frontier it touched.
//!
//! Emission is safe because anchors sit at non-negative edge offsets: any
//! candidate a future settle at distance `g` can produce is
//! `fl(g + offset) ≥ g`, so a pending anchor strictly below the node
//! frontier can never be preempted. `tests/distance.rs` pins the order
//! and the bits against full-tree references.
//!
//! A scan owns its search state and remembers every anchor it has
//! emitted, with the effort spent up to it. A standing query keeps its
//! scan across evaluation passes: each [`AnchorScan::walk`] replays the
//! remembered prefix and resumes the search only past its end, and
//! reports the effort a fresh scan would have spent to stop where the
//! walk stopped.

use crate::{AnchorId, AnchorSet, GraphPos, NodeId, WalkingGraph};
use std::cmp::Ordering;
use std::collections::binary_heap::PeekMut;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap};
use std::ops::AddAssign;

/// Search effort of one or more anchor scans. Plain per-scan counts:
/// callers sum them and record the totals wherever they see fit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanCounts {
    /// Graph nodes settled by the Dijkstra frontier.
    pub settled: u64,
    /// Anchor distance candidates examined (an anchor is offered once
    /// per settled endpoint of its edge, plus once when it shares the
    /// source edge).
    pub anchor_candidates: u64,
}

impl AddAssign for ScanCounts {
    fn add_assign(&mut self, rhs: Self) {
        self.settled += rhs.settled;
        self.anchor_candidates += rhs.anchor_candidates;
    }
}

/// Dijkstra frontier entry: min (dist, node id).
#[derive(Debug, PartialEq)]
struct ScanNode {
    dist: f64,
    node: NodeId,
}

impl Eq for ScanNode {}

impl Ord for ScanNode {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .dist
            .partial_cmp(&self.dist)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.node.raw().cmp(&self.node.raw()))
    }
}

impl PartialOrd for ScanNode {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Pending anchor candidate: min (dist, anchor id) — the order of a full
/// sort of all anchor distances, including ∞ ties broken by anchor id.
#[derive(Debug, PartialEq)]
struct ScanAnchor {
    dist: f64,
    anchor: AnchorId,
}

impl Eq for ScanAnchor {}

impl Ord for ScanAnchor {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .dist
            .partial_cmp(&self.dist)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.anchor.raw().cmp(&self.anchor.raw()))
    }
}

impl PartialOrd for ScanAnchor {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// One emitted anchor: its distance, and the effort the scan had spent
/// when it emitted it.
#[derive(Debug, Clone, Copy)]
struct Emitted {
    anchor: AnchorId,
    dist: f64,
    counts: ScanCounts,
}

/// Lazy ascending anchor scan from one source position; see the module
/// docs.
///
/// An anchor is emitted only while its pending distance is *strictly*
/// below the node frontier's minimum, so no later candidate can precede
/// — or tie and out-rank by id — an emitted anchor. Once the node search
/// is exhausted, the remaining anchors are resolved with the final-tree
/// distance formula (∞ for unreachable ones) and drained in heap order.
///
/// The scan borrows nothing: every call that searches takes the graph
/// and anchor set it was started on.
#[derive(Debug)]
pub struct AnchorScan {
    source: GraphPos,
    node_dist: Vec<f64>,
    node_heap: BinaryHeap<ScanNode>,
    pending: BinaryHeap<ScanAnchor>,
    /// Per anchor: emitted already.
    emitted: Vec<bool>,
    drained: bool,
    /// Effort spent so far.
    counts: ScanCounts,
    /// Effort spent before the first emission: the same-edge candidates.
    start: ScanCounts,
    /// Every anchor emitted so far, in emission order.
    order: Vec<Emitted>,
}

impl AnchorScan {
    /// Starts a scan from `from`.
    pub fn new(graph: &WalkingGraph, anchors: &AnchorSet, from: GraphPos) -> Self {
        let mut scan = AnchorScan {
            source: from,
            node_dist: vec![f64::INFINITY; graph.nodes().len()],
            node_heap: BinaryHeap::new(),
            pending: BinaryHeap::new(),
            emitted: vec![false; anchors.anchors().len()],
            drained: false,
            counts: ScanCounts::default(),
            start: ScanCounts::default(),
            order: Vec::new(),
        };
        // Same-edge direct candidates (the third arm of `distance_to`).
        for &aid in anchors.on_edge(from.edge) {
            let off = anchors.anchor(aid).pos.offset;
            scan.pending.push(ScanAnchor {
                dist: (off - from.offset).abs(),
                anchor: aid,
            });
            scan.counts.anchor_candidates += 1;
        }
        scan.start = scan.counts;
        let se = graph.edge(from.edge);
        let slen = se.length();
        for (node, d) in [(se.a, from.offset), (se.b, (slen - from.offset).max(0.0))] {
            if let Some(nd) = scan.node_dist.get_mut(node.index()) {
                if d < *nd {
                    *nd = d;
                    scan.node_heap.push(ScanNode { dist: d, node });
                }
            }
        }
        scan
    }

    /// The search effort spent so far.
    pub fn counts(&self) -> ScanCounts {
        self.counts
    }

    /// Walks the anchors in ascending distance order: first the ones
    /// this scan has already emitted, then, resuming the search on
    /// `graph` and `anchors` (the ones it was started on), the rest.
    pub fn walk<'s>(&'s mut self, graph: &'s WalkingGraph, anchors: &'s AnchorSet) -> ScanWalk<'s> {
        ScanWalk {
            scan: self,
            graph,
            anchors,
            read: 0,
            ended: false,
        }
    }

    /// Searches on to the next anchor and remembers it; `None` once every
    /// anchor has been emitted.
    fn advance(&mut self, graph: &WalkingGraph, anchors: &AnchorSet) -> Option<(AnchorId, f64)> {
        loop {
            let threshold = self.node_heap.peek().map(|e| e.dist);
            if let Some(top) = self.pending.peek_mut() {
                if threshold.is_none_or(|t| top.dist < t) {
                    let ScanAnchor { dist, anchor } = PeekMut::pop(top);
                    match self.emitted.get_mut(anchor.index()) {
                        Some(seen) if !*seen => *seen = true,
                        // A duplicate candidate of an emitted anchor.
                        _ => continue,
                    }
                    self.order.push(Emitted {
                        anchor,
                        dist,
                        counts: self.counts,
                    });
                    return Some((anchor, dist));
                }
            }
            match self.node_heap.pop() {
                // A stale entry (a shorter distance was found later) is
                // skipped; label-setting makes the first pop final.
                Some(ScanNode { dist, node }) => {
                    if self.node_dist.get(node.index()).is_some_and(|&d| dist <= d) {
                        self.settle(graph, anchors, node, dist);
                    }
                }
                None if self.drained => return None,
                None => {
                    self.drained = true;
                    self.drain_remaining(graph, anchors);
                }
            }
        }
    }

    /// Final-tree distance to every not-yet-emitted anchor, pushed into
    /// the pending heap. Only valid once the node search is exhausted.
    fn drain_remaining(&mut self, graph: &WalkingGraph, anchors: &AnchorSet) {
        let node_dist = |n: NodeId| self.node_dist.get(n.index()).copied();
        for a in anchors.anchors() {
            if self.emitted.get(a.id.index()).copied().unwrap_or(true) {
                continue;
            }
            let e = graph.edge(a.pos.edge);
            let len = e.length();
            let via_a = node_dist(e.a).unwrap_or(f64::INFINITY) + a.pos.offset;
            let via_b = node_dist(e.b).unwrap_or(f64::INFINITY) + (len - a.pos.offset).max(0.0);
            let mut d = via_a.min(via_b);
            if a.pos.edge == self.source.edge {
                d = d.min((a.pos.offset - self.source.offset).abs());
            }
            self.pending.push(ScanAnchor {
                dist: d,
                anchor: a.id,
            });
        }
    }

    /// Settles `node` at its final distance: offers every anchor on its
    /// incident edges and relaxes their far endpoints.
    fn settle(&mut self, graph: &WalkingGraph, anchors: &AnchorSet, node: NodeId, dist: f64) {
        self.counts.settled += 1;
        for inc in graph.edges_at(node) {
            let eid = inc.edge;
            let e = graph.edge(eid);
            let len = e.length();
            for &aid in anchors.on_edge(eid) {
                if self.emitted.get(aid.index()).copied().unwrap_or(true) {
                    continue;
                }
                let off = anchors.anchor(aid).pos.offset;
                // Exact via_a / via_b expressions of `distance_to`, with a
                // settled (= final) endpoint distance.
                let cand = if node == e.a {
                    dist + off
                } else {
                    dist + (len - off).max(0.0)
                };
                self.pending.push(ScanAnchor {
                    dist: cand,
                    anchor: aid,
                });
                self.counts.anchor_candidates += 1;
            }
            let Some(other) = e.other_end(node) else {
                continue;
            };
            let nd = dist + len;
            if let Some(od) = self.node_dist.get_mut(other.index()) {
                if nd < *od {
                    *od = nd;
                    self.node_heap.push(ScanNode {
                        dist: nd,
                        node: other,
                    });
                }
            }
        }
    }
}

/// One pass over an [`AnchorScan`]'s ascending `(anchor, distance)`
/// order, from its nearest anchor on; see [`AnchorScan::walk`].
pub struct ScanWalk<'s> {
    scan: &'s mut AnchorScan,
    graph: &'s WalkingGraph,
    anchors: &'s AnchorSet,
    /// Anchors this walk has yielded.
    read: usize,
    /// Set once the walk has returned `None`.
    ended: bool,
}

impl ScanWalk<'_> {
    /// The effort a fresh scan from the same source spends to stop where
    /// this walk stands: before the first anchor, just after the last one
    /// yielded, or past the end.
    pub fn counts(&self) -> ScanCounts {
        if self.ended {
            return self.scan.counts;
        }
        match self.read.checked_sub(1) {
            None => self.scan.start,
            Some(last) => self
                .scan
                .order
                .get(last)
                .map_or(self.scan.counts, |e| e.counts),
        }
    }

    /// Distances to exactly the `needed` anchors, walking only until the
    /// last of them is reached.
    pub fn distances_to(&mut self, needed: &BTreeSet<AnchorId>) -> BTreeMap<AnchorId, f64> {
        let mut out = BTreeMap::new();
        if needed.is_empty() {
            return out;
        }
        for (a, d) in self.by_ref() {
            if needed.contains(&a) {
                out.insert(a, d);
                if out.len() == needed.len() {
                    break;
                }
            }
        }
        out
    }
}

impl Iterator for ScanWalk<'_> {
    type Item = (AnchorId, f64);

    fn next(&mut self) -> Option<(AnchorId, f64)> {
        if self.ended {
            return None;
        }
        let next = match self.scan.order.get(self.read) {
            Some(e) => Some((e.anchor, e.dist)),
            None => self.scan.advance(self.graph, self.anchors),
        };
        match next {
            Some(_) => self.read += 1,
            None => self.ended = true,
        }
        next
    }
}

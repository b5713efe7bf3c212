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
#[derive(PartialEq)]
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
#[derive(PartialEq)]
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

/// Lazy ascending anchor scan from one source position; see the module
/// docs.
///
/// An anchor is emitted only while its pending distance is *strictly*
/// below the node frontier's minimum, so no later candidate can precede
/// — or tie and out-rank by id — an emitted anchor. Once the node search
/// is exhausted, the remaining anchors are resolved with the final-tree
/// distance formula (∞ for unreachable ones) and drained in heap order.
pub struct AnchorScan<'a> {
    graph: &'a WalkingGraph,
    anchors: &'a AnchorSet,
    source: GraphPos,
    node_dist: Vec<f64>,
    node_heap: BinaryHeap<ScanNode>,
    pending: BinaryHeap<ScanAnchor>,
    emitted: Vec<bool>,
    drained: bool,
    counts: ScanCounts,
}

impl<'a> AnchorScan<'a> {
    /// Starts a scan from `from`.
    pub fn new(graph: &'a WalkingGraph, anchors: &'a AnchorSet, from: GraphPos) -> Self {
        let mut scan = AnchorScan {
            graph,
            anchors,
            source: from,
            node_dist: vec![f64::INFINITY; graph.nodes().len()],
            node_heap: BinaryHeap::new(),
            pending: BinaryHeap::new(),
            emitted: vec![false; anchors.anchors().len()],
            drained: false,
            counts: ScanCounts::default(),
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
        let se = graph.edge(from.edge);
        let slen = se.length();
        for (node, d) in [(se.a, from.offset), (se.b, (slen - from.offset).max(0.0))] {
            if d < scan.node_dist[node.index()] {
                scan.node_dist[node.index()] = d;
                scan.node_heap.push(ScanNode { dist: d, node });
            }
        }
        scan
    }

    /// The search effort spent so far.
    pub fn counts(&self) -> ScanCounts {
        self.counts
    }

    /// Distances to exactly the `needed` anchors, scanning only until the
    /// last of them is emitted.
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

    /// Final-tree distance to every not-yet-emitted anchor, pushed into
    /// the pending heap. Only valid once the node search is exhausted.
    fn drain_remaining(&mut self) {
        for a in self.anchors.anchors() {
            if self.emitted[a.id.index()] {
                continue;
            }
            let e = self.graph.edge(a.pos.edge);
            let len = e.length();
            let via_a = self.node_dist[e.a.index()] + a.pos.offset;
            let via_b = self.node_dist[e.b.index()] + (len - a.pos.offset).max(0.0);
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
    fn settle(&mut self, node: NodeId, dist: f64) {
        self.counts.settled += 1;
        for inc in self.graph.edges_at(node) {
            let eid = inc.edge;
            let e = self.graph.edge(eid);
            let len = e.length();
            for &aid in self.anchors.on_edge(eid) {
                if self.emitted[aid.index()] {
                    continue;
                }
                let off = self.anchors.anchor(aid).pos.offset;
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
            if nd < self.node_dist[other.index()] {
                self.node_dist[other.index()] = nd;
                self.node_heap.push(ScanNode {
                    dist: nd,
                    node: other,
                });
            }
        }
    }
}

impl Iterator for AnchorScan<'_> {
    type Item = (AnchorId, f64);

    fn next(&mut self) -> Option<(AnchorId, f64)> {
        loop {
            let threshold = self.node_heap.peek().map(|e| e.dist);
            if let Some(top) = self.pending.peek_mut() {
                if threshold.is_none_or(|t| top.dist < t) {
                    let ScanAnchor { dist, anchor } = PeekMut::pop(top);
                    if self.emitted[anchor.index()] {
                        continue; // duplicate candidate of an emitted anchor
                    }
                    self.emitted[anchor.index()] = true;
                    return Some((anchor, dist));
                }
            }
            match self.node_heap.pop() {
                // A stale entry (a shorter distance was found later) is
                // skipped; label-setting makes the first pop final.
                Some(ScanNode { dist, node }) => {
                    if dist <= self.node_dist[node.index()] {
                        self.settle(node, dist);
                    }
                }
                None if self.drained => return None,
                None => {
                    self.drained = true;
                    self.drain_remaining();
                }
            }
        }
    }
}

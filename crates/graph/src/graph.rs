//! The indoor walking graph `G(N, E)`.

use crate::{Edge, EdgeId, Node, NodeId, NodeKind, ShortestPaths};
use ripq_floorplan::RoomId;
use ripq_geom::Point2;
use serde::{Deserialize, Serialize};

/// A position on the walking graph: an edge plus an arc-length offset from
/// the edge's `a` node.
///
/// All object, particle and anchor positions in RIPQ are `GraphPos`es —
/// the paper restricts movement to the edges of `G` (§4.2).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GraphPos {
    /// The edge the position lies on.
    pub edge: EdgeId,
    /// Arc length from the edge's `a` node, in `[0, edge.length]`.
    pub offset: f64,
}

impl GraphPos {
    /// Creates a graph position.
    #[inline]
    pub const fn new(edge: EdgeId, offset: f64) -> Self {
        GraphPos { edge, offset }
    }
}

/// One edge incident to a node, as seen from that node: what a walker
/// arriving at the node needs to turn onto the edge.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Incidence {
    /// The incident edge.
    pub edge: EdgeId,
    /// The node's offset on the edge: 0 at the edge's `a` end, its length
    /// at the `b` end.
    pub offset: f64,
    /// Whether the edge runs along a hallway (otherwise it is a door link).
    pub hallway: bool,
}

/// The indoor walking graph: nodes, edges and adjacency.
///
/// Build one from a floor plan with [`crate::build_walking_graph`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WalkingGraph {
    pub(crate) nodes: Vec<Node>,
    pub(crate) edges: Vec<Edge>,
    /// For each node, the edges incident to it.
    pub(crate) adjacency: Vec<Vec<Incidence>>,
    /// Room center node for each room id (dense by room index).
    pub(crate) room_nodes: Vec<NodeId>,
}

impl WalkingGraph {
    /// All nodes, indexable by [`NodeId::index`].
    #[inline]
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// All edges, indexable by [`EdgeId::index`].
    #[inline]
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Looks up a node.
    #[inline]
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// Looks up an edge.
    #[inline]
    pub fn edge(&self, id: EdgeId) -> &Edge {
        &self.edges[id.index()]
    }

    /// Edges incident to `n`, each with `n`'s offset on it.
    #[inline]
    pub fn edges_at(&self, n: NodeId) -> &[Incidence] {
        &self.adjacency[n.index()]
    }

    /// Degree of `n`.
    #[inline]
    pub fn degree(&self, n: NodeId) -> usize {
        self.adjacency[n.index()].len()
    }

    /// The room-center node of `room`.
    #[inline]
    pub fn room_node(&self, room: RoomId) -> NodeId {
        self.room_nodes[room.index()]
    }

    /// The 2-D point of a graph position.
    pub fn point_of(&self, pos: GraphPos) -> Point2 {
        self.edge(pos.edge).point_at(pos.offset)
    }

    /// Clamps a graph position's offset into the valid range of its edge.
    pub fn clamp_pos(&self, pos: GraphPos) -> GraphPos {
        let len = self.edge(pos.edge).length();
        GraphPos::new(pos.edge, ripq_geom::clamp(pos.offset, 0.0, len))
    }

    /// Projects an arbitrary 2-D point onto the graph: the nearest point on
    /// any edge. Used to snap query points ("the query point is
    /// approximated to the nearest edge", §4.6) and to initialize object
    /// traces.
    pub fn project(&self, p: Point2) -> GraphPos {
        let mut best = (GraphPos::new(EdgeId::new(0), 0.0), f64::INFINITY);
        for e in &self.edges {
            let (off, d2) = e.geometry.project(p);
            if d2 < best.1 {
                best = (GraphPos::new(e.id, off), d2);
            }
        }
        best.0
    }

    /// The node a position coincides with, if its offset is (within
    /// `tol`) at either end of its edge.
    pub fn node_at_pos(&self, pos: GraphPos, tol: f64) -> Option<NodeId> {
        let e = self.edge(pos.edge);
        if pos.offset <= tol {
            Some(e.a)
        } else if pos.offset >= e.length() - tol {
            Some(e.b)
        } else {
            None
        }
    }

    /// Single-source shortest-path distances (Dijkstra) from a graph
    /// position; see [`ShortestPaths`] for point-to-point queries.
    pub fn shortest_paths_from(&self, from: GraphPos) -> ShortestPaths {
        ShortestPaths::from_pos(self, from)
    }

    /// Shortest network distance between two graph positions — the paper's
    /// "minimum indoor walking distance" metric for kNN queries.
    pub fn network_distance(&self, from: GraphPos, to: GraphPos) -> f64 {
        self.shortest_paths_from(from).distance_to(self, to)
    }

    /// Total length of all edges.
    pub fn total_edge_length(&self) -> f64 {
        self.edges.iter().map(Edge::length).sum()
    }

    /// Returns `true` when every node can reach every other node.
    pub fn is_connected(&self) -> bool {
        if self.nodes.is_empty() {
            return true;
        }
        let mut seen = vec![false; self.nodes.len()];
        let mut stack = vec![NodeId::new(0)];
        seen[0] = true;
        let mut count = 1;
        while let Some(n) = stack.pop() {
            for inc in self.edges_at(n) {
                let other = self.edge(inc.edge).other_end(n).expect("incident edge");
                if !seen[other.index()] {
                    seen[other.index()] = true;
                    count += 1;
                    stack.push(other);
                }
            }
        }
        count == self.nodes.len()
    }

    /// Iterator over room nodes.
    pub fn room_node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.room_nodes.iter().copied()
    }

    /// `true` when the position's edge is a door link and the offset is at
    /// the room end (i.e. the object is "in a room node" in the paper's
    /// terms — Algorithm 2 line 13).
    pub fn is_at_room_node(&self, pos: GraphPos, tol: f64) -> bool {
        match self.node_at_pos(pos, tol) {
            Some(n) => matches!(self.node(n).kind, NodeKind::Room(_)),
            None => false,
        }
    }
}

//! # ripq-graph — indoor walking graph and anchor-point indexing for RIPQ
//!
//! Implements the two "novel models" of the EDBT 2013 paper (§4.2):
//!
//! * **Indoor walking graph model** — a graph `G(N, E)` abstracted from the
//!   regular walking patterns in an indoor space. Hallway centerlines
//!   become chains of edges with nodes at endpoints, hallway crossings and
//!   doors; each room contributes a *room node* at its center linked to the
//!   hallway through its door. Restricting objects and particles to `E`
//!   "greatly simplif\[ies\] the object movement model while … preserving the
//!   inference accuracy of particle filters", and the kNN distance metric is
//!   the shortest network distance on `G` ([`WalkingGraph::network_distance`]).
//!
//! * **Anchor point indexing model** — anchor points discretize the
//!   continuous edges at a uniform spacing (1 m by default). Inferred
//!   object distributions live on anchors, indexed by the
//!   [`AnchorObjectIndex`] hash table (`APtoObjHT` in the paper: anchor →
//!   list of ⟨object, probability⟩).
//!
//! # Example
//!
//! ```
//! use ripq_floorplan::{office_building, OfficeParams};
//! use ripq_graph::{build_walking_graph, AnchorSet};
//!
//! let plan = office_building(&OfficeParams::default()).unwrap();
//! let graph = build_walking_graph(&plan);
//! assert!(graph.is_connected());
//!
//! // Shortest indoor walking distance between two room centers.
//! let a = graph.project(plan.rooms()[0].center());
//! let b = graph.project(plan.rooms()[29].center());
//! let d = graph.network_distance(a, b);
//! assert!(d > plan.rooms()[0].center().distance(plan.rooms()[29].center()));
//!
//! // 1 m anchor points discretize every edge.
//! let anchors = AnchorSet::generate(&graph, &plan, 1.0);
//! assert!(anchors.anchors().len() > 100);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod anchor;
mod builder;
mod edge;
mod graph;
mod ids;
mod index;
mod node;
mod path;
mod scan;
mod shortest;

pub use anchor::{AnchorPoint, AnchorSet, KdeScratch};
pub use builder::build_walking_graph;
pub use edge::{Edge, EdgeKind, Polyline};
pub use graph::{GraphPos, Incidence, WalkingGraph};
pub use ids::{AnchorId, EdgeId, NodeId};
pub use index::{AnchorObjectIndex, DeltaOutcome, IndexDeltaStats};
pub use node::{Node, NodeKind};
pub use path::Path;
pub use scan::{AnchorScan, ScanCounts, ScanWalk};
pub use shortest::ShortestPaths;

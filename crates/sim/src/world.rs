//! The static simulated world shared by every experiment component.

use crate::ExperimentParams;
use ripq_core::SystemConfig;
use ripq_floorplan::{office_building, FloorPlan, OfficeParams};
use ripq_graph::{build_walking_graph, AnchorSet, WalkingGraph};
use ripq_rfid::{deploy, Reader};
use ripq_symbolic::SymbolicModel;

/// The immutable world of one experiment: floor plan, walking graph,
/// anchors, reader deployment and the precomputed symbolic baseline.
pub struct SimWorld {
    /// The office floor plan (30 rooms / 4 hallways by default).
    pub plan: FloorPlan,
    /// The walking graph of the plan.
    pub graph: WalkingGraph,
    /// Anchor points.
    pub anchors: AnchorSet,
    /// The uniform reader deployment.
    pub readers: Vec<Reader>,
    /// The symbolic-model baseline for this deployment.
    pub symbolic: SymbolicModel,
}

impl SimWorld {
    /// Builds the paper's experimental world for the given parameters.
    pub fn build(params: &ExperimentParams) -> Self {
        let plan = office_building(&OfficeParams::default()).expect("default office plan is valid");
        Self::build_with_plan(plan, params)
    }

    /// Builds a world over an arbitrary floor plan (e.g. the
    /// [`ripq_floorplan::shopping_mall`] or
    /// [`ripq_floorplan::subway_station`] generators), deploying readers
    /// and deriving all models from `params` as usual.
    pub fn build_with_plan(plan: FloorPlan, params: &ExperimentParams) -> Self {
        let graph = build_walking_graph(&plan);
        let anchors = AnchorSet::generate(&graph, &plan, params.anchor_spacing);
        let readers = deploy(
            &plan,
            &graph,
            params.deployment,
            params.reader_count,
            params.activation_range,
        );
        // The facade's walking-speed bound, so the baseline's reachability
        // and candidate pruning read one value. The traces walk at
        // N(1, 0.1) m/s, so its 1.5 m/s is an ~5σ upper bound.
        let max_speed = SystemConfig::default().max_speed;
        let symbolic = SymbolicModel::new(&graph, &anchors, &readers, max_speed);
        SimWorld {
            plan,
            graph,
            anchors,
            readers,
            symbolic,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn world_builds_with_defaults() {
        let w = SimWorld::build(&ExperimentParams::default());
        assert_eq!(w.plan.rooms().len(), 30);
        assert_eq!(w.readers.len(), 19);
        assert!(w.graph.is_connected());
        assert!(w.anchors.anchors().len() > 100);
    }

    #[test]
    fn world_respects_activation_range_param() {
        let params = ExperimentParams {
            activation_range: 0.5,
            ..Default::default()
        };
        let w = SimWorld::build(&params);
        assert!(w.readers.iter().all(|r| r.activation_range() == 0.5));
    }
}

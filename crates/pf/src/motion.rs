//! The paper's object motion model on the walking graph.
//!
//! Algorithm 2, lines 8–16: every second each particle moves along graph
//! edges with its own speed and direction; it picks a random direction at
//! intersections; inside a room node it stays with probability 0.9 and
//! moves out with probability 0.1.

use crate::{Heading, IndoorState};
use rand::Rng;
use rand_distr::{Distribution, Normal};
use ripq_graph::{EdgeId, GraphPos, Incidence, WalkingGraph};
use serde::{Deserialize, Serialize};

/// Parameters of the motion model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MotionModel {
    /// Mean walking speed (paper: μ = 1 m/s).
    pub speed_mean: f64,
    /// Walking speed standard deviation (paper: σ = 0.1).
    pub speed_std: f64,
    /// Probability per second of staying inside a room once at its node
    /// (paper: 0.9).
    pub room_stay_probability: f64,
    /// Probability of turning *into* a room when passing its door portal,
    /// rather than continuing along the hallway. The paper's object model
    /// says walkers "can either enter rooms or continue to move along
    /// hallways" but does not give the split; a uniform choice over door
    /// edges drains clouds into the rooms lining every hallway, while a
    /// tiny value starves rooms of hypotheses. 0.3 is calibrated against
    /// the simulator's destination-driven traces (see the ablation bench).
    pub room_enter_probability: f64,
    /// Whether a particle arriving at an interior node may immediately
    /// reverse onto the edge it came from. The paper's model moves objects
    /// "forward"; U-turns are still always allowed at dead ends.
    pub allow_u_turns: bool,
    /// Probability per second that a particle spontaneously reverses its
    /// heading. Real walkers turn around whenever they reach a destination;
    /// keeping a small reversal rate preserves hypothesis diversity so the
    /// cloud can recover when the tracked person backtracks.
    pub direction_change_probability: f64,
}

impl Default for MotionModel {
    fn default() -> Self {
        MotionModel {
            speed_mean: 1.0,
            speed_std: 0.1,
            room_stay_probability: 0.9,
            room_enter_probability: 0.3,
            allow_u_turns: false,
            direction_change_probability: 0.0,
        }
    }
}

impl MotionModel {
    /// Draws a particle speed from N(μ, σ²), truncated to a sane positive
    /// range (a non-positive walking speed is re-drawn).
    pub fn sample_speed<R: Rng>(&self, rng: &mut R) -> f64 {
        // ripq-lint: allow(no-panic-paths) -- speed_mean/speed_std come from PreprocessorConfig defaults or validated setup; Normal::new only fails on non-finite σ, a programming error worth aborting on
        let normal = Normal::new(self.speed_mean, self.speed_std).expect("finite speed parameters");
        for _ in 0..16 {
            let v = normal.sample(rng);
            if v > 0.05 {
                return v;
            }
        }
        self.speed_mean
    }

    /// Advances one particle by `dt` seconds (Algorithm 2 lines 8–16).
    pub fn step<R: Rng>(
        &self,
        rng: &mut R,
        graph: &WalkingGraph,
        state: &mut IndoorState,
        dt: f64,
    ) {
        // Room-stay rule: a particle sitting at a room node stays put with
        // probability `room_stay_probability` for this whole second.
        if graph.is_at_room_node(state.pos, 1e-9) {
            if rng.random::<f64>() < self.room_stay_probability {
                return;
            }
            // Leave the room: head back along the door link.
            let e = graph.edge(state.pos.edge);
            let at_b = state.pos.offset >= e.length() - 1e-9;
            state.heading = if at_b {
                Heading::TowardA
            } else {
                Heading::TowardB
            };
        }

        // Spontaneous reversal: keeps a minority of hypotheses exploring
        // the opposite direction.
        if self.direction_change_probability > 0.0
            && rng.random::<f64>() < self.direction_change_probability
        {
            state.heading = state.heading.flipped();
        }

        let mut remaining = state.speed * dt;
        // Bounded node transitions per step: a 1-second step at ~1 m/s
        // crosses at most a few short edges; 32 is a generous safety bound
        // that keeps the hot loop panic-free even on degenerate graphs.
        for _ in 0..32 {
            if remaining <= 0.0 {
                break;
            }
            let e = graph.edge(state.pos.edge);
            let (node, to_node) = match state.heading {
                Heading::TowardA => (e.a, state.pos.offset),
                Heading::TowardB => (e.b, (e.length() - state.pos.offset).max(0.0)),
            };
            if remaining < to_node {
                // Stay on this edge.
                let delta = match state.heading {
                    Heading::TowardA => -remaining,
                    Heading::TowardB => remaining,
                };
                state.pos = GraphPos::new(state.pos.edge, state.pos.offset + delta);
                return;
            }
            // Reach the target node and spend the distance.
            remaining -= to_node;
            let arrived_on = state.pos.edge;
            let node_offset = if node == e.a { 0.0 } else { e.length() };

            // Arriving at a room node: stop there; the room-stay rule takes
            // over at the next step.
            if graph.node(node).kind.is_room() {
                state.pos = GraphPos::new(arrived_on, node_offset);
                return;
            }

            let (choice, from_offset) = self
                .turn(rng, graph.edges_at(node), arrived_on)
                .unwrap_or((arrived_on, node_offset));
            state.heading = if from_offset <= 1e-9 {
                Heading::TowardB
            } else {
                Heading::TowardA
            };
            state.pos = GraphPos::new(choice, from_offset);
        }
        // Safety bound hit: clamp in place (harmless, extremely rare).
        state.pos = graph.clamp_pos(state.pos);
    }

    /// Chooses the edge to leave a node by ("particles pick a random
    /// direction at intersections"), returning it with the node's offset
    /// on it. With probability `room_enter_probability` the particle turns
    /// into one of the rooms at this node (if any); otherwise it continues
    /// uniformly among hallway edges, excluding an immediate U-turn onto
    /// `arrived_on` unless the node is a dead end or U-turns are enabled.
    /// `None` when no edge but `arrived_on` is open.
    fn turn<R: Rng>(
        &self,
        rng: &mut R,
        incident: &[Incidence],
        arrived_on: EdgeId,
    ) -> Option<(EdgeId, f64)> {
        if incident.len() == 1 {
            return incident.first().map(|inc| (inc.edge, inc.offset));
        }
        let open = |inc: &&Incidence| self.allow_u_turns || inc.edge != arrived_on;
        let (mut rooms, mut halls) = (0usize, 0usize);
        for inc in incident.iter().filter(open) {
            if inc.hallway {
                halls += 1;
            } else {
                rooms += 1;
            }
        }
        let pick = |hallway: bool, count: usize, rng: &mut R| {
            let k = rng.random_range(0..count);
            incident
                .iter()
                .filter(open)
                .filter(|inc| inc.hallway == hallway)
                .nth(k)
        };
        let chosen =
            if rooms > 0 && (halls == 0 || rng.random::<f64>() < self.room_enter_probability) {
                pick(false, rooms, rng)
            } else if halls > 0 {
                pick(true, halls, rng)
            } else {
                None
            };
        chosen.map(|inc| (inc.edge, inc.offset))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use ripq_floorplan::{office_building, OfficeParams};
    use ripq_graph::{build_walking_graph, NodeKind};

    fn setup() -> WalkingGraph {
        build_walking_graph(&office_building(&OfficeParams::default()).unwrap())
    }

    #[test]
    fn speeds_follow_gaussian() {
        let m = MotionModel::default();
        let mut rng = StdRng::seed_from_u64(5);
        let n = 5000;
        let speeds: Vec<f64> = (0..n).map(|_| m.sample_speed(&mut rng)).collect();
        let mean = speeds.iter().sum::<f64>() / n as f64;
        let var = speeds.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / n as f64;
        assert!((mean - 1.0).abs() < 0.01, "mean {mean}");
        assert!((var.sqrt() - 0.1).abs() < 0.01, "std {}", var.sqrt());
        assert!(speeds.iter().all(|&s| s > 0.0));
    }

    /// Motion model with spontaneous reversals disabled, for tests that
    /// assert exact kinematics.
    fn no_reversal() -> MotionModel {
        MotionModel {
            direction_change_probability: 0.0,
            ..Default::default()
        }
    }

    #[test]
    fn step_moves_by_speed_on_long_edge() {
        let g = setup();
        let m = no_reversal();
        let mut rng = StdRng::seed_from_u64(6);
        // Find a long hallway edge.
        let e = g
            .edges()
            .iter()
            .find(|e| e.kind.is_hallway() && e.length() > 5.0)
            .expect("office has long edges");
        let mut s = IndoorState {
            pos: GraphPos::new(e.id, 1.0),
            heading: Heading::TowardB,
            speed: 1.5,
        };
        m.step(&mut rng, &g, &mut s, 1.0);
        assert_eq!(s.pos.edge, e.id);
        assert!((s.pos.offset - 2.5).abs() < 1e-9);
    }

    #[test]
    fn step_crosses_node_and_picks_new_edge() {
        let g = setup();
        let m = no_reversal();
        let mut rng = StdRng::seed_from_u64(7);
        let e = g
            .edges()
            .iter()
            .find(|e| e.kind.is_hallway() && e.length() > 2.0)
            .unwrap();
        // 0.5 m before node b, speed 1: crosses into some next edge.
        let mut s = IndoorState {
            pos: GraphPos::new(e.id, e.length() - 0.5),
            heading: Heading::TowardB,
            speed: 1.0,
        };
        let b = e.b;
        m.step(&mut rng, &g, &mut s, 1.0);
        let pt = g.point_of(s.pos);
        let node_pt = g.node(b).position;
        // Moved ~0.5 m past the node along some incident edge.
        assert!(pt.distance(node_pt) < 0.5 + 1e-6);
        assert!(g.point_of(s.pos).is_finite());
    }

    #[test]
    fn room_stay_probability_honored() {
        let g = setup();
        let m = MotionModel::default();
        let mut rng = StdRng::seed_from_u64(8);
        // Put a particle exactly at a room node.
        let room_node = g.room_node(ripq_floorplan::RoomId::new(0));
        let link = g.edges_at(room_node)[0].edge;
        let e = g.edge(link);
        let offset = e.offset_of(room_node).unwrap();
        let trials = 2000;
        let mut stayed = 0;
        for _ in 0..trials {
            let mut s = IndoorState {
                pos: GraphPos::new(link, offset),
                heading: Heading::TowardA,
                speed: 1.0,
            };
            m.step(&mut rng, &g, &mut s, 1.0);
            if graph_same_pos(&g, s.pos, GraphPos::new(link, offset)) {
                stayed += 1;
            }
        }
        let rate = stayed as f64 / trials as f64;
        assert!((rate - 0.9).abs() < 0.03, "stay rate {rate} != ~0.9");
    }

    fn graph_same_pos(g: &WalkingGraph, a: GraphPos, b: GraphPos) -> bool {
        g.point_of(a).distance(g.point_of(b)) < 1e-9
    }

    #[test]
    fn no_u_turn_on_through_motion() {
        let g = setup();
        let m = no_reversal();
        let mut rng = StdRng::seed_from_u64(9);
        // Start mid-hallway moving toward a door portal (degree ≥ 3);
        // after crossing, the particle must be on a different edge or the
        // same edge but *past* the node — never back where it came from.
        let e = g
            .edges()
            .iter()
            .find(|e| e.kind.is_hallway() && g.degree(e.b) >= 3 && e.length() > 1.0)
            .unwrap();
        for _ in 0..200 {
            let mut s = IndoorState {
                pos: GraphPos::new(e.id, e.length() - 0.2),
                heading: Heading::TowardB,
                speed: 1.0,
            };
            m.step(&mut rng, &g, &mut s, 1.0);
            let back_on_same_edge = s.pos.edge == e.id;
            if back_on_same_edge {
                // Would mean a U-turn happened.
                panic!("particle U-turned at an interior node");
            }
        }
    }

    #[test]
    fn dead_end_forces_u_turn() {
        let g = setup();
        let m = no_reversal();
        let mut rng = StdRng::seed_from_u64(10);
        // Find a hallway-end node with degree 1.
        let end = g
            .nodes()
            .iter()
            .find(|n| matches!(n.kind, NodeKind::HallwayEnd(_)) && g.degree(n.id) == 1)
            .expect("office hallways have dead ends");
        let eid = g.edges_at(end.id)[0].edge;
        let e = g.edge(eid);
        let end_offset = e.offset_of(end.id).unwrap();
        let heading = if end_offset == 0.0 {
            Heading::TowardA
        } else {
            Heading::TowardB
        };
        let start_offset = if end_offset == 0.0 {
            0.5
        } else {
            e.length() - 0.5
        };
        let mut s = IndoorState {
            pos: GraphPos::new(eid, start_offset),
            heading,
            speed: 1.0,
        };
        m.step(&mut rng, &g, &mut s, 1.0);
        // Bounced: still on the same edge, 0.5 m from the end, heading away.
        assert_eq!(s.pos.edge, eid);
        let d_end = (s.pos.offset - end_offset).abs();
        assert!((d_end - 0.5).abs() < 1e-6, "bounced distance {d_end}");
        assert_eq!(s.heading, heading.flipped());
    }

    #[test]
    fn long_simulation_stays_on_graph() {
        let g = setup();
        let m = MotionModel::default();
        let mut rng = StdRng::seed_from_u64(11);
        let e = &g.edges()[0];
        let mut s = IndoorState {
            pos: GraphPos::new(e.id, e.length() / 2.0),
            heading: Heading::TowardB,
            speed: m.sample_speed(&mut rng),
        };
        for _ in 0..600 {
            m.step(&mut rng, &g, &mut s, 1.0);
            let edge = g.edge(s.pos.edge);
            assert!(s.pos.offset >= -1e-9 && s.pos.offset <= edge.length() + 1e-9);
            assert!(g.point_of(s.pos).is_finite());
        }
    }
}

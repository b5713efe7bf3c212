//! Particle state on the walking graph.

use ripq_graph::GraphPos;
use serde::{Deserialize, Serialize};

/// Travel direction along an edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Heading {
    /// Moving toward the edge's `a` node (decreasing offset).
    TowardA,
    /// Moving toward the edge's `b` node (increasing offset).
    TowardB,
}

impl Heading {
    /// The opposite heading.
    #[inline]
    pub fn flipped(self) -> Heading {
        match self {
            Heading::TowardA => Heading::TowardB,
            Heading::TowardB => Heading::TowardA,
        }
    }
}

/// One particle hypothesis: "each particle represents a hypothesis of the
/// person's state with its own location, moving direction, and speed"
/// (§3.2).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IndoorState {
    /// Position on the walking graph.
    pub pos: GraphPos,
    /// Travel direction along the current edge.
    pub heading: Heading,
    /// Walking speed in m/s, constant for the particle's lifetime ("the
    /// object motion model assumes objects move forward with constant
    /// speeds", §3.1).
    pub speed: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heading_flip() {
        assert_eq!(Heading::TowardA.flipped(), Heading::TowardB);
        assert_eq!(Heading::TowardB.flipped(), Heading::TowardA);
    }
}

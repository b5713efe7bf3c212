//! KLD-sampling: adaptive particle-set sizing (Fox, NIPS 2001).
//!
//! The paper picks a fixed `Ns ≈ 60` by sweeping Figure 11. KLD-sampling
//! instead bounds the approximation error against the true posterior: the
//! particle count is chosen so that, with probability `1 − δ`, the KL
//! divergence between the sample distribution and the posterior stays
//! below `ε`. The required count depends on `k`, the number of occupied
//! histogram bins — RIPQ uses anchor points as the bins, which matches the
//! system's own discretization.
//!
//! Effect: a cloud pinned inside one reader's range (few bins) keeps only
//! the minimum particle count; a cloud dispersed over many rooms grows
//! toward the maximum. The ablation benchmark quantifies the trade.

use crate::IndoorState;
use ripq_graph::{AnchorId, AnchorSet};
use serde::{Deserialize, Serialize};

/// KLD-sampling parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct KldConfig {
    /// Lower bound on the particle count.
    pub min_particles: usize,
    /// Upper bound on the particle count.
    pub max_particles: usize,
    /// KL error bound `ε` between the sample set and the posterior,
    /// measured at anchor (1 m bin) granularity — the system's own
    /// resolution, so a quarter-nat default is already conservative.
    pub epsilon: f64,
    /// Upper `1 − δ` quantile of the standard normal (2.33 ⇒ δ = 0.01).
    pub z_delta: f64,
}

impl Default for KldConfig {
    fn default() -> Self {
        KldConfig {
            min_particles: 16,
            max_particles: 512,
            epsilon: 0.25,
            z_delta: 2.33,
        }
    }
}

impl KldConfig {
    /// The particle count KLD-sampling prescribes for `k` occupied bins:
    ///
    /// `n = (k−1)/(2ε) · (1 − 2/(9(k−1)) + √(2/(9(k−1))) · z)³`
    ///
    /// (the Wilson–Hilferty chi-square approximation), clamped to
    /// `[min_particles, max_particles]`.
    pub fn target_count(&self, occupied_bins: usize) -> usize {
        if occupied_bins <= 1 {
            return self.min_particles;
        }
        let k1 = (occupied_bins - 1) as f64;
        let a = 2.0 / (9.0 * k1);
        let n = k1 / (2.0 * self.epsilon) * (1.0 - a + a.sqrt() * self.z_delta).powi(3);
        (n.ceil() as usize).clamp(self.min_particles, self.max_particles)
    }

    /// Counts the occupied anchor bins of a particle set, using `bins` as
    /// scratch so a caller reusing it allocates nothing.
    pub fn occupied_bins(
        &self,
        anchors: &AnchorSet,
        states: &[IndoorState],
        bins: &mut Vec<AnchorId>,
    ) -> usize {
        bins.clear();
        bins.extend(states.iter().map(|s| anchors.nearest(s.pos)));
        bins.sort_unstable();
        bins.dedup();
        bins.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Heading;
    use ripq_floorplan::{office_building, OfficeParams};
    use ripq_graph::{build_walking_graph, GraphPos};

    #[test]
    fn target_is_monotone_in_bins_and_clamped() {
        let cfg = KldConfig::default();
        assert_eq!(cfg.target_count(0), cfg.min_particles);
        assert_eq!(cfg.target_count(1), cfg.min_particles);
        let mut prev = 0;
        for k in [2usize, 4, 8, 16, 32, 64] {
            let n = cfg.target_count(k);
            assert!(n >= prev, "monotone: k={k}");
            assert!(n >= cfg.min_particles && n <= cfg.max_particles);
            prev = n;
        }
        // Huge spread saturates at the cap.
        assert_eq!(cfg.target_count(10_000), cfg.max_particles);
    }

    #[test]
    fn tighter_epsilon_needs_more_particles() {
        let loose = KldConfig {
            epsilon: 0.5,
            ..Default::default()
        };
        let tight = KldConfig {
            epsilon: 0.01,
            max_particles: 100_000,
            ..Default::default()
        };
        for k in [4usize, 16, 64] {
            assert!(tight.target_count(k) > loose.target_count(k));
        }
    }

    #[test]
    fn occupied_bins_counts_distinct_anchors() {
        let plan = office_building(&OfficeParams::default()).unwrap();
        let graph = build_walking_graph(&plan);
        let anchors = AnchorSet::generate(&graph, &plan, 1.0);
        let cfg = KldConfig::default();
        let e = graph
            .edges()
            .iter()
            .find(|e| e.length() > 10.0)
            .expect("long edge");
        // Ten particles at the same spot: one bin. Spread out: many bins.
        let same: Vec<IndoorState> = (0..10)
            .map(|_| IndoorState {
                pos: GraphPos::new(e.id, 1.0),
                heading: Heading::TowardB,
                speed: 1.0,
            })
            .collect();
        let mut bins = Vec::new();
        assert_eq!(cfg.occupied_bins(&anchors, &same, &mut bins), 1);
        let spread: Vec<IndoorState> = (0..10)
            .map(|i| IndoorState {
                pos: GraphPos::new(e.id, i as f64 + 0.4),
                heading: Heading::TowardB,
                speed: 1.0,
            })
            .collect();
        assert!(cfg.occupied_bins(&anchors, &spread, &mut bins) >= 8);
    }
}

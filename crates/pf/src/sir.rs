//! The Sampling Importance Resampling (SIR) filter of Algorithm 2, over
//! [`IndoorState`] particles on the walking graph.
//!
//! The SIR filter (Gordon et al. [5], reviewed in §3.1 of the paper)
//! approximates the posterior pdf `p(x_k | z_1:k)` by a weighted particle
//! set. Each cycle: particles propagate through the system model
//! (Equation 3), weights multiply by the observation likelihood
//! (Equation 4), and the set is resampled (Algorithm 1) to fight weight
//! degeneration.
//!
//! [`Sir`] holds what every object's run shares: the world, the model and
//! the deployment's [`FilterTables`] (the readers within reach of each
//! edge and each reader's seed intervals), which a system builds once.
//! [`Particles`] holds one cloud plus the scratch buffers of an
//! iteration. A worker reuses one [`Particles`] across the objects it
//! runs, and its buffers are reserved up front, so an iteration
//! allocates nothing.

use crate::measurement::ReaderReach;
use crate::seed::{seed_intervals, seed_particles};
use crate::{IndoorState, KldConfig, MeasurementModel, MotionModel};
use rand::Rng;
use ripq_graph::{AnchorId, AnchorSet, EdgeId, WalkingGraph};
use ripq_rfid::{Reader, ReaderId};

/// Systematic resampling — **Algorithm 1** of the paper.
///
/// Given weights (normalized or not), draws one uniform starting point
/// `u₁ ~ U[0, 1/n]` and selects `n` comb positions `u_j = u₁ + (j-1)/n`
/// against the weight CDF. Replaces `out` with the index of the parent
/// particle chosen for each of the `n` output slots. `n` may differ from
/// `weights.len()` (KLD-adaptive resampling resizes the set).
///
/// Properties: low-variance, O(n), preserves particle order, and with
/// `n = weights.len()` a particle with normalized weight `w` is chosen
/// `⌊w·n⌋` or `⌈w·n⌉` times.
pub fn resample_systematic<R: Rng>(rng: &mut R, weights: &[f64], n: usize, out: &mut Vec<usize>) {
    assert!(!weights.is_empty(), "cannot resample an empty particle set");
    assert!(n > 0, "must draw at least one particle");
    let total: f64 = weights.iter().sum();
    debug_assert!(total > 0.0, "weights must not all be zero");
    let u1: f64 = rng.random_range(0.0..1.0 / n as f64);

    out.clear();
    let mut rest = weights.iter();
    let mut i = 0usize;
    let mut c = rest.next().map_or(0.0, |w| w / total);
    for j in 0..n {
        let uj = u1 + j as f64 / n as f64;
        while uj > c {
            let Some(w) = rest.next() else { break };
            i += 1;
            c += w / total;
        }
        out.push(i);
    }
}

/// The model one SIR run applies.
#[derive(Debug)]
pub(crate) struct SirModel {
    /// Object motion model (Equation 3).
    pub(crate) motion: MotionModel,
    /// Device sensing model (Equation 4).
    pub(crate) measurement: MeasurementModel,
    /// Down-weight particles inside a range during silent seconds.
    pub(crate) negative_evidence: bool,
    /// Resample when the effective sample size drops below this fraction
    /// of the particle count.
    pub(crate) resample_threshold: f64,
    /// KLD-adaptive set sizing at each resampling step.
    pub(crate) adaptive: Option<KldConfig>,
    /// The largest cloud a run seeds: every buffer is reserved to this,
    /// or to the KLD maximum if larger.
    pub(crate) num_particles: usize,
}

/// What the measurement step of one iteration did.
#[derive(Debug)]
pub(crate) enum Update {
    /// No weight was renormalized: a silent second with negative evidence
    /// off, or with no particle inside any range.
    Coasted,
    /// The weights were renormalized; `ess` is the effective sample size
    /// afterwards, and `resampled` whether it fell below the threshold.
    Reweighted {
        /// Effective sample size of the normalized weights.
        ess: f64,
        /// Whether the set was resampled.
        resampled: bool,
    },
    /// The reading contradicted every particle, so the cloud was reseeded
    /// inside the detecting range (kidnapped-robot recovery).
    Reset,
}

/// What the filter reads of a reader deployment on a walking graph and
/// no pass changes: for each edge, the readers within reach of it; for
/// each reader, the arc-length intervals of every edge inside its
/// activation disk, where a (re)seed draws. A system builds them once and
/// hands them to every pass's [`crate::ParticlePreprocessor`].
#[derive(Debug)]
pub struct FilterTables {
    reach: ReaderReach,
    /// Indexed by reader: `(edge, lo, hi)` offset ranges.
    seeds: Vec<Vec<(EdgeId, f64, f64)>>,
}

impl FilterTables {
    /// Builds the tables of `readers` on `graph`. `readers` must be
    /// dense: `readers[id.index()].id() == id`.
    pub fn new(graph: &WalkingGraph, readers: &[Reader]) -> Self {
        debug_assert!(readers.iter().enumerate().all(|(i, r)| r.id().index() == i));
        FilterTables {
            reach: ReaderReach::new(graph, readers),
            seeds: readers.iter().map(|r| seed_intervals(graph, r)).collect(),
        }
    }

    /// The seed intervals of reader `id` (empty for an unknown id).
    fn seeds(&self, id: ReaderId) -> &[(EdgeId, f64, f64)] {
        self.seeds.get(id.index()).map_or(&[], Vec::as_slice)
    }
}

/// The SIR filter over one world: shared read-only by every worker.
#[derive(Debug)]
pub(crate) struct Sir<'a> {
    graph: &'a WalkingGraph,
    anchors: &'a AnchorSet,
    readers: &'a [Reader],
    tables: &'a FilterTables,
    model: SirModel,
}

impl<'a> Sir<'a> {
    /// Builds the filter over `tables`, which must have been built from
    /// `graph` and `readers`.
    pub(crate) fn new(
        graph: &'a WalkingGraph,
        anchors: &'a AnchorSet,
        readers: &'a [Reader],
        tables: &'a FilterTables,
        model: SirModel,
    ) -> Self {
        debug_assert_eq!(readers.len(), tables.seeds.len());
        Sir {
            graph,
            anchors,
            readers,
            tables,
            model,
        }
    }

    /// The reader with id `id`.
    pub(crate) fn reader(&self, id: ReaderId) -> &'a Reader {
        &self.readers[id.index()]
    }

    /// Empty buffers for one worker, reserved so that no iteration of this
    /// filter reallocates them.
    pub(crate) fn particles(&self) -> Particles {
        let n = match self.model.adaptive {
            Some(kld) => self.model.num_particles.max(kld.max_particles),
            None => self.model.num_particles,
        };
        Particles {
            states: Vec::with_capacity(n),
            weights: Vec::with_capacity(n),
            spare: Vec::with_capacity(n),
            indices: Vec::with_capacity(n),
            inside: Vec::with_capacity(n),
            bins: Vec::with_capacity(n),
        }
    }

    /// Replaces the cloud with `n` equally weighted particles spread over
    /// `reader`'s activation range (Algorithm 2 line 5).
    pub(crate) fn seed<R: Rng>(&self, p: &mut Particles, rng: &mut R, reader: &Reader, n: usize) {
        let intervals = self.tables.seeds(reader.id());
        let motion = &self.model.motion;
        seed_particles(rng, self.graph, reader, intervals, motion, n, &mut p.states);
        p.reset_weights();
    }

    /// One second of Algorithm 2 (lines 8–31): moves every particle, then
    /// weighs the cloud against the second's `reading` (or its silence)
    /// and resamples it when degenerate.
    pub(crate) fn iterate<R: Rng>(
        &self,
        p: &mut Particles,
        rng: &mut R,
        reading: Option<ReaderId>,
    ) -> Update {
        for s in &mut p.states {
            self.model.motion.step(rng, self.graph, s, 1.0);
        }
        let (graph, reach) = (self.graph, &self.tables.reach);
        p.inside.clear();
        match reading {
            Some(device) => {
                let flags = p
                    .states
                    .iter()
                    .map(|s| reach.covered_by(graph, device, s.pos));
                p.inside.extend(flags);
                if !p.inside.contains(&true) {
                    // Sensor reset: the reading contradicts every
                    // hypothesis (the cloud drifted the wrong way), so
                    // reweighting would be a no-op — reseed the whole set
                    // inside the detecting range instead. Standard
                    // kidnapped-robot recovery for low particle counts.
                    let n = p.states.len();
                    self.seed(p, rng, self.reader(device), n);
                    return Update::Reset;
                }
            }
            // No reading this second ⇒ the object is outside every
            // activation range (per-second misses are ~impossible after
            // aggregation). Down-weight particles inside one.
            None if self.model.negative_evidence => {
                let flags = p.states.iter().map(|s| reach.any_covers(graph, s.pos));
                p.inside.extend(flags);
            }
            None => return Update::Coasted,
        }
        let detected = reading.is_some();
        let mm = self.model.measurement;
        for (w, &inside) in p.weights.iter_mut().zip(&p.inside) {
            *w *= mm.likelihood(detected, inside);
        }
        if !p.inside.contains(&true) {
            // A silent second with every particle outside every range.
            return Update::Coasted;
        }
        p.normalize();
        // Resample only on real degeneracy to preserve hypothesis
        // diversity during long silent stretches.
        let ess = p.effective_sample_size();
        let resampled = ess < p.states.len() as f64 * self.model.resample_threshold;
        if resampled {
            self.resample(p, rng);
        }
        Update::Reweighted { ess, resampled }
    }

    /// Resampling step (Algorithm 1) with equal weights afterwards; the
    /// output size adapts per KLD-sampling when enabled.
    fn resample<R: Rng>(&self, p: &mut Particles, rng: &mut R) {
        let n = match self.model.adaptive {
            Some(cfg) => cfg.target_count(cfg.occupied_bins(self.anchors, &p.states, &mut p.bins)),
            None => p.states.len(),
        };
        resample_systematic(rng, &p.weights, n, &mut p.indices);
        p.spare.clear();
        let parents = p.indices.iter().filter_map(|&i| p.states.get(i).copied());
        p.spare.extend(parents);
        std::mem::swap(&mut p.states, &mut p.spare);
        p.reset_weights();
    }
}

/// One weighted particle cloud and the scratch buffers of an iteration.
#[derive(Debug, Default)]
pub(crate) struct Particles {
    states: Vec<IndoorState>,
    weights: Vec<f64>,
    /// Resampling gathers into this buffer, then swaps it with `states`.
    spare: Vec<IndoorState>,
    /// Parent index of each resampled particle.
    indices: Vec<usize>,
    /// Per-particle in-range flag of the current observation.
    inside: Vec<bool>,
    /// Nearest anchor of each particle, for KLD bin counting.
    bins: Vec<AnchorId>,
}

impl Particles {
    /// Replaces the cloud with `states`, equally weighted (a cache resume).
    pub(crate) fn resume(&mut self, states: &[IndoorState]) {
        self.states.clear();
        self.states.extend_from_slice(states);
        self.reset_weights();
    }

    /// The particle states.
    pub(crate) fn states(&self) -> &[IndoorState] {
        &self.states
    }

    /// The weights, normalized after every reweighting step.
    pub(crate) fn weights(&self) -> &[f64] {
        &self.weights
    }

    fn reset_weights(&mut self) {
        let n = self.states.len();
        self.weights.clear();
        self.weights.resize(n, 1.0 / n as f64);
    }

    /// Normalizes weights to sum 1. If all weights collapsed to zero (an
    /// observation inconsistent with every hypothesis), resets to uniform.
    fn normalize(&mut self) {
        let total: f64 = self.weights.iter().sum();
        if total <= 0.0 || !total.is_finite() {
            let n = self.weights.len();
            self.weights.fill(1.0 / n as f64);
            return;
        }
        for w in &mut self.weights {
            *w /= total;
        }
    }

    /// Effective sample size `1 / Σ wᵢ²` of the normalized weights — the
    /// standard degeneracy diagnostic (§3.1: "with more iterations only a
    /// few particles would have dominant weights").
    fn effective_sample_size(&self) -> f64 {
        let total: f64 = self.weights.iter().sum();
        if total <= 0.0 {
            return 0.0;
        }
        let sum_sq: f64 = self.weights.iter().map(|w| (w / total) * (w / total)).sum();
        if sum_sq <= 0.0 {
            0.0
        } else {
            1.0 / sum_sq
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn resample(rng: &mut StdRng, weights: &[f64]) -> Vec<usize> {
        let mut out = Vec::new();
        resample_systematic(rng, weights, weights.len(), &mut out);
        out
    }

    #[test]
    fn systematic_resampling_proportionality() {
        let mut rng = StdRng::seed_from_u64(2);
        // Weights 0.5, 0.3, 0.2 over 10 slots → counts 5, 3, 2.
        let idx = resample(
            &mut rng,
            &[0.5, 0.3, 0.2, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        );
        let count = |v: usize| idx.iter().filter(|&&i| i == v).count();
        assert_eq!(idx.len(), 10);
        assert_eq!(count(0), 5);
        assert_eq!(count(1), 3);
        assert_eq!(count(2), 2);
    }

    #[test]
    fn resample_preserves_order() {
        let mut rng = StdRng::seed_from_u64(3);
        let idx = resample(&mut rng, &[0.25; 8]);
        let mut sorted = idx.clone();
        sorted.sort_unstable();
        assert_eq!(idx, sorted, "systematic resampling is order-preserving");
    }

    #[test]
    fn resample_concentrates_on_heavy_particle() {
        let mut rng = StdRng::seed_from_u64(1);
        // Particle 7 gets (almost) all the weight.
        let weights: Vec<f64> = (0..100).map(|i| if i == 7 { 1.0 } else { 1e-12 }).collect();
        let sevens = resample(&mut rng, &weights)
            .iter()
            .filter(|&&i| i == 7)
            .count();
        assert!(sevens >= 99, "expected near-total takeover, got {sevens}");
    }

    #[test]
    fn resample_to_another_size_reuses_the_buffer() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut out = Vec::new();
        resample_systematic(&mut rng, &[1.0; 10], 25, &mut out);
        assert_eq!(out.len(), 25);
        assert!(out.iter().all(|&i| i < 10));
        resample_systematic(&mut rng, &[1.0; 10], 5, &mut out);
        assert_eq!(out.len(), 5);
    }

    fn cloud(weights: &[f64]) -> Particles {
        Particles {
            weights: weights.to_vec(),
            ..Particles::default()
        }
    }

    #[test]
    fn normalize_and_ess() {
        let mut p = cloud(&[0.0, 0.0, 2.0, 0.0]);
        p.normalize();
        assert_eq!(p.weights(), &[0.0, 0.0, 1.0, 0.0]);
        assert!((p.effective_sample_size() - 1.0).abs() < 1e-9);
        let mut even = cloud(&[0.25; 4]);
        even.normalize();
        assert!((even.effective_sample_size() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn normalize_handles_total_collapse() {
        let mut p = cloud(&[0.0; 5]);
        p.normalize();
        assert!(p.weights().iter().all(|&w| (w - 0.2).abs() < 1e-12));
    }

    proptest! {
        #[test]
        fn resample_counts_within_one_of_expectation(
            seed in 0u64..1000,
            raw in proptest::collection::vec(0.01f64..10.0, 2..40),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let total: f64 = raw.iter().sum();
            let idx = resample(&mut rng, &raw);
            prop_assert_eq!(idx.len(), raw.len());
            let ns = raw.len() as f64;
            for (i, w) in raw.iter().enumerate() {
                let expected = w / total * ns;
                let got = idx.iter().filter(|&&j| j == i).count() as f64;
                prop_assert!(
                    got >= expected.floor() - 1e-9 && got <= expected.ceil() + 1e-9,
                    "particle {} with expectation {} chosen {} times", i, expected, got
                );
            }
        }

        #[test]
        fn ess_between_one_and_n(
            raw in proptest::collection::vec(0.0f64..5.0, 1..50),
        ) {
            prop_assume!(raw.iter().sum::<f64>() > 0.0);
            let p = cloud(&raw);
            let ess = p.effective_sample_size();
            prop_assert!(ess >= 1.0 - 1e-9);
            prop_assert!(ess <= raw.len() as f64 + 1e-9);
        }
    }
}

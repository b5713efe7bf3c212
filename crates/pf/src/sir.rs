//! Generic Sampling Importance Resampling (SIR) particle filter.
//!
//! The SIR filter (Gordon et al. [5], reviewed in §3.1 of the paper)
//! approximates the posterior pdf `p(x_k | z_1:k)` by a weighted particle
//! set. Each cycle: particles propagate through the system model
//! (Equation 3), weights multiply by the observation likelihood
//! (Equation 4), and the set is resampled (Algorithm 1) to fight weight
//! degeneration.

use rand::Rng;

/// Systematic resampling — **Algorithm 1** of the paper.
///
/// Given normalized weights, draws one uniform starting point
/// `u₁ ~ U[0, 1/Ns]` and selects `Ns` comb positions `u_j = u₁ + (j-1)/Ns`
/// against the weight CDF. Returns the index of the parent particle chosen
/// for each of the `Ns` output slots.
///
/// Properties: low-variance, O(Ns), preserves particle order, and a
/// particle with weight `w` is chosen `⌊w·Ns⌋` or `⌈w·Ns⌉` times.
pub fn resample_indices<R: Rng>(rng: &mut R, weights: &[f64]) -> Vec<usize> {
    resample_indices_n(rng, weights, weights.len())
}

/// Systematic resampling drawing `n` output slots (generalization of
/// [`resample_indices`] used by KLD-adaptive resampling, where the output
/// set size differs from the input's).
pub fn resample_indices_n<R: Rng>(rng: &mut R, weights: &[f64], n: usize) -> Vec<usize> {
    let ns = weights.len();
    assert!(ns > 0, "cannot resample an empty particle set");
    assert!(n > 0, "must draw at least one particle");
    let total: f64 = weights.iter().sum();
    debug_assert!(total > 0.0, "weights must not all be zero");
    let u1: f64 = rng.random_range(0.0..1.0 / n as f64);

    let mut out = Vec::with_capacity(n);
    let mut i = 0usize;
    let mut c = weights[0] / total;
    for j in 0..n {
        let uj = u1 + j as f64 / n as f64;
        while uj > c && i + 1 < ns {
            i += 1;
            c += weights[i] / total;
        }
        out.push(i);
    }
    out
}

/// A weighted particle set over an arbitrary state type `S`.
#[derive(Debug, Clone)]
pub struct ParticleFilter<S> {
    states: Vec<S>,
    weights: Vec<f64>,
}

impl<S: Clone> ParticleFilter<S> {
    /// Creates a filter with `n` particles drawn from `init`, all with
    /// equal weight `1/n`.
    pub fn init(n: usize, mut init: impl FnMut() -> S) -> Self {
        assert!(n > 0, "particle filter needs at least one particle");
        let states: Vec<S> = (0..n).map(|_| init()).collect();
        let weights = vec![1.0 / n as f64; n];
        ParticleFilter { states, weights }
    }

    /// Creates a filter from explicit states with equal weights (used when
    /// resuming from the particle cache).
    pub fn from_states(states: Vec<S>) -> Self {
        assert!(!states.is_empty(), "particle filter needs particles");
        let n = states.len();
        ParticleFilter {
            states,
            weights: vec![1.0 / n as f64; n],
        }
    }

    /// Number of particles (`Ns`).
    #[inline]
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// Always false (construction enforces non-emptiness); provided for
    /// API completeness.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// The particle states.
    #[inline]
    pub fn states(&self) -> &[S] {
        &self.states
    }

    /// The (not necessarily normalized) weights.
    #[inline]
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Prediction step: applies the system model to every particle
    /// (Equation 3 — `x_k ~ p(x_k | x_{k-1})`).
    pub fn predict(&mut self, mut motion: impl FnMut(&mut S)) {
        for s in &mut self.states {
            motion(s);
        }
    }

    /// Update step: multiplies each weight by the observation likelihood
    /// (Equation 4 — `w_k ∝ w_{k-1} · p(z_k | x_k)`).
    pub fn reweight(&mut self, mut likelihood: impl FnMut(&S) -> f64) {
        for (s, w) in self.states.iter().zip(&mut self.weights) {
            *w *= likelihood(s);
        }
    }

    /// Normalizes weights to sum 1. If all weights collapsed to zero (an
    /// observation inconsistent with every hypothesis), resets to uniform
    /// and returns `false` so callers can react.
    pub fn normalize(&mut self) -> bool {
        let total: f64 = self.weights.iter().sum();
        if total <= 0.0 || !total.is_finite() {
            let n = self.weights.len();
            self.weights.fill(1.0 / n as f64);
            return false;
        }
        for w in &mut self.weights {
            *w /= total;
        }
        true
    }

    /// Effective sample size `1 / Σ wᵢ²` of the normalized weights — the
    /// standard degeneracy diagnostic (§3.1: "with more iterations only a
    /// few particles would have dominant weights").
    pub fn effective_sample_size(&self) -> f64 {
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

    /// Resampling step (Algorithm 1): replaces the set with `Ns` draws
    /// proportional to weight and resets weights to `1/Ns`.
    pub fn resample<R: Rng>(&mut self, rng: &mut R) {
        let n = self.len();
        self.resample_to(rng, n);
    }

    /// Resampling to an explicit output size `n` (KLD-adaptive callers
    /// shrink or grow the set based on posterior spread).
    pub fn resample_to<R: Rng>(&mut self, rng: &mut R, n: usize) {
        let idx = resample_indices_n(rng, &self.weights, n);
        let new_states: Vec<S> = idx.into_iter().map(|i| self.states[i].clone()).collect();
        self.states = new_states;
        self.weights = vec![1.0 / n as f64; n];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn init_uniform_weights() {
        let pf = ParticleFilter::init(4, || 1.0f64);
        assert_eq!(pf.len(), 4);
        assert!(pf.weights().iter().all(|&w| (w - 0.25).abs() < 1e-12));
        assert!((pf.effective_sample_size() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn reweight_and_normalize() {
        let mut pf = ParticleFilter::init(4, || 0usize);
        // Give particle states distinct ids via predict.
        let mut k = 0;
        pf.predict(|s| {
            *s = k;
            k += 1;
        });
        pf.reweight(|&s| if s == 2 { 1.0 } else { 0.0 });
        assert!(pf.normalize());
        assert_eq!(pf.weights()[2], 1.0);
        assert!((pf.effective_sample_size() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn normalize_handles_total_collapse() {
        let mut pf = ParticleFilter::init(5, || 0u8);
        pf.reweight(|_| 0.0);
        assert!(!pf.normalize(), "collapse reported");
        assert!(pf.weights().iter().all(|&w| (w - 0.2).abs() < 1e-12));
    }

    #[test]
    fn resample_concentrates_on_heavy_particle() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut pf = ParticleFilter::init(100, || 0usize);
        let mut k = 0;
        pf.predict(|s| {
            *s = k;
            k += 1;
        });
        // Particle 7 gets (almost) all the weight.
        pf.reweight(|&s| if s == 7 { 1.0 } else { 1e-12 });
        pf.normalize();
        pf.resample(&mut rng);
        let sevens = pf.states().iter().filter(|&&s| s == 7).count();
        assert!(sevens >= 99, "expected near-total takeover, got {sevens}");
        // Weights reset to uniform.
        assert!(pf.weights().iter().all(|&w| (w - 0.01).abs() < 1e-12));
    }

    #[test]
    fn systematic_resampling_proportionality() {
        let mut rng = StdRng::seed_from_u64(2);
        // Weights 0.5, 0.3, 0.2 over 10 slots → counts 5, 3, 2.
        let idx = resample_indices(
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
        let idx = resample_indices(&mut rng, &[0.25; 8]);
        let mut sorted = idx.clone();
        sorted.sort_unstable();
        assert_eq!(idx, sorted, "systematic resampling is order-preserving");
    }

    #[test]
    fn resample_to_changes_set_size() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut pf = ParticleFilter::init(10, || 0usize);
        let mut k = 0;
        pf.predict(|s| {
            *s = k;
            k += 1;
        });
        pf.resample_to(&mut rng, 25);
        assert_eq!(pf.len(), 25);
        assert!(pf.weights().iter().all(|&w| (w - 0.04).abs() < 1e-12));
        pf.resample_to(&mut rng, 5);
        assert_eq!(pf.len(), 5);
    }

    proptest! {
        #[test]
        fn resample_counts_within_one_of_expectation(
            seed in 0u64..1000,
            raw in proptest::collection::vec(0.01f64..10.0, 2..40),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let total: f64 = raw.iter().sum();
            let idx = resample_indices(&mut rng, &raw);
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
            let mut pf = ParticleFilter::init(raw.len(), || 0u8);
            let mut it = raw.iter();
            pf.reweight(|_| *it.next().expect("length matches"));
            let ess = pf.effective_sample_size();
            prop_assert!(ess >= 1.0 - 1e-9);
            prop_assert!(ess <= raw.len() as f64 + 1e-9);
        }
    }
}

//! Probabilistic result sets with the paper's merge semantics.

use ripq_rfid::ObjectId;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// One ⟨object, probability⟩ pair of a probabilistic result.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ProbResult {
    /// The object.
    pub object: ObjectId,
    /// Its probability of satisfying the query.
    pub probability: f64,
}

/// A probabilistic result set with the addition/multiplication operations
/// Algorithm 3 defines:
///
/// * **addition** (line 16): adding `⟨oᵢ, p⟩` sums `p` into `oᵢ`'s existing
///   probability, inserting when absent;
/// * **multiplication** (line 15): scales every probability by a constant
///   (the width/area compensation ratios).
///
/// Backed by a `BTreeMap` so every iteration — including the float
/// summation in [`ResultSet::total_probability`] — visits objects in id
/// order and rounds identically on every run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ResultSet {
    probs: BTreeMap<ObjectId, f64>,
}

impl ResultSet {
    /// Creates an empty result set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `p` to `object`'s probability (Algorithm 3's `+` operation).
    pub fn add(&mut self, object: ObjectId, p: f64) {
        // ripq-lint: allow(prob-hygiene) -- exact-zero sentinel: skip inserting objects that contribute nothing, not a tolerance check
        if p != 0.0 {
            *self.probs.entry(object).or_insert(0.0) += p;
        }
    }

    /// Sets `object`'s probability exactly, removing the entry at zero —
    /// the fold operation continuous-query deltas are replayed with (see
    /// [`crate::continuous::ResultDelta::apply`]).
    pub fn set(&mut self, object: ObjectId, p: f64) {
        // ripq-lint: allow(prob-hygiene) -- exact zero is the absent-object sentinel, not a float tolerance
        if p == 0.0 {
            self.probs.remove(&object);
        } else {
            self.probs.insert(object, p);
        }
    }

    /// Clamps every probability into [0, 1]. An object's probability is
    /// a float sum of its per-anchor masses, and rounding can carry that
    /// sum just past 1; the range, kNN and PTkNN evaluators clamp what
    /// they hand back, after any stopping rule has read the raw sums.
    pub fn clamp_probabilities(&mut self) {
        for p in self.probs.values_mut() {
            *p = p.clamp(0.0, 1.0);
        }
    }

    /// Merges another result set (used for the per-cell partial results).
    pub fn merge(&mut self, other: &ResultSet) {
        for (&o, &p) in &other.probs {
            self.add(o, p);
        }
    }

    /// Scales every probability by `ratio` (Algorithm 3's `*` operation).
    pub fn scale(&mut self, ratio: f64) {
        for p in self.probs.values_mut() {
            *p *= ratio;
        }
    }

    /// The probability of `object` (0 when absent).
    pub fn probability(&self, object: ObjectId) -> f64 {
        self.probs.get(&object).copied().unwrap_or(0.0)
    }

    /// Total probability over all objects (the Σpᵢ that Algorithm 4's
    /// stopping rule compares against `k`).
    pub fn total_probability(&self) -> f64 {
        self.probs.values().sum()
    }

    /// Number of objects with non-zero probability.
    pub fn len(&self) -> usize {
        self.probs.len()
    }

    /// `true` when no object has probability.
    pub fn is_empty(&self) -> bool {
        self.probs.is_empty()
    }

    /// The results sorted by decreasing probability (ties by object id for
    /// determinism).
    pub fn sorted(&self) -> Vec<ProbResult> {
        let mut v: Vec<ProbResult> = self
            .probs
            .iter()
            .map(|(&object, &probability)| ProbResult {
                object,
                probability,
            })
            .collect();
        v.sort_by(|a, b| {
            b.probability
                .partial_cmp(&a.probability)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.object.cmp(&b.object))
        });
        v
    }

    /// The `n` most probable objects.
    pub fn top(&self, n: usize) -> Vec<ProbResult> {
        let mut v = self.sorted();
        v.truncate(n);
        v
    }

    /// Iterator over ⟨object, probability⟩ pairs in object-id order.
    pub fn iter(&self) -> impl Iterator<Item = (ObjectId, f64)> + '_ {
        self.probs.iter().map(|(&o, &p)| (o, p))
    }

    /// Objects present in the set, in id order.
    pub fn objects(&self) -> impl Iterator<Item = ObjectId> + '_ {
        self.probs.keys().copied()
    }
}

impl FromIterator<(ObjectId, f64)> for ResultSet {
    fn from_iter<T: IntoIterator<Item = (ObjectId, f64)>>(iter: T) -> Self {
        let mut rs = ResultSet::new();
        for (o, p) in iter {
            rs.add(o, p);
        }
        rs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn o(i: u32) -> ObjectId {
        ObjectId::new(i)
    }

    #[test]
    fn paper_example_addition() {
        // §4.6.1: {(o1,0.2),(o2,0.15)} + {(o2,0.1),(o3,0.05)}
        //       = {(o1,0.2),(o2,0.25),(o3,0.05)}
        let mut rs: ResultSet = [(o(1), 0.2), (o(2), 0.15)].into_iter().collect();
        let other: ResultSet = [(o(2), 0.1), (o(3), 0.05)].into_iter().collect();
        rs.merge(&other);
        assert!((rs.probability(o(1)) - 0.2).abs() < 1e-12);
        assert!((rs.probability(o(2)) - 0.25).abs() < 1e-12);
        assert!((rs.probability(o(3)) - 0.05).abs() < 1e-12);
        assert_eq!(rs.len(), 3);
    }

    #[test]
    fn scale_multiplies_all() {
        let mut rs: ResultSet = [(o(1), 0.4), (o(2), 0.6)].into_iter().collect();
        rs.scale(0.5);
        assert!((rs.probability(o(1)) - 0.2).abs() < 1e-12);
        assert!((rs.total_probability() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn sorted_is_descending_and_deterministic() {
        let rs: ResultSet = [(o(3), 0.1), (o(1), 0.5), (o(2), 0.5)]
            .into_iter()
            .collect();
        let v = rs.sorted();
        assert_eq!(v[0].object, o(1)); // tie broken by id
        assert_eq!(v[1].object, o(2));
        assert_eq!(v[2].object, o(3));
        assert_eq!(rs.top(2).len(), 2);
    }

    #[test]
    fn zero_probability_not_inserted() {
        let mut rs = ResultSet::new();
        rs.add(o(1), 0.0);
        assert!(rs.is_empty());
        assert_eq!(rs.probability(o(1)), 0.0);
    }
}

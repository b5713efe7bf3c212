//! The `APtoObjHT` hash table of the paper (§4.2).
//!
//! "A hash table APtoObjHT is maintained in our system with the key to be
//! the coordinates of an anchor point ap_j and returned value the list of
//! each object and its probability at the anchor point ⟨oᵢ, pᵢ(ap_j)⟩."
//!
//! We key by [`AnchorId`] instead of raw coordinates (ids are bijective
//! with coordinates and dense), so the anchor side is a table indexed by
//! id, and additionally maintain the inverse view (object → its anchor
//! distribution) because both query evaluation (anchor → objects) and
//! accuracy metrics (object → anchors) need fast access.

use crate::AnchorId;
use std::cmp::Ordering;
use std::collections::BTreeMap;

/// Bidirectional anchor ↔ object probability index, generic over the
/// object key type (RIPQ instantiates it with its `ObjectId`).
///
/// The anchor side is a table with one row per anchor id, grown only to
/// the largest id it has been handed; the object side is an ordered map.
/// Every iteration — [`Self::objects`] in particular — visits keys in
/// their natural order, so downstream consumers (PTkNN sampling,
/// occupancy sums) behave identically across runs with no per-call-site
/// sorting. Per-anchor object lists are kept sorted by object key for the
/// same reason, which also makes the index *order-free*: applying deltas
/// ([`Self::apply_object`], [`Self::retain_objects`]) in any sequence
/// converges to the same contents as a from-scratch rebuild — the
/// invariant the incremental `APtoObjHT` maintenance relies on. Equality
/// compares contents: a row that was never touched and one that was
/// emptied are the same row.
#[derive(Debug, Clone)]
pub struct AnchorObjectIndex<K> {
    /// Indexed by [`AnchorId::index`].
    by_anchor: Vec<Vec<(K, f64)>>,
    by_object: BTreeMap<K, Vec<(AnchorId, f64)>>,
}

/// What a single [`AnchorObjectIndex::apply_object`] delta did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaOutcome {
    /// The object was not present before; its distribution was inserted.
    Inserted,
    /// The object was present with a different distribution; replaced.
    Updated,
    /// The stored distribution is bit-identical to the incoming one; no
    /// structural work was done.
    Unchanged,
}

/// Counters describing one incremental maintenance pass over the index
/// (the `index.delta_*` observability family).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IndexDeltaStats {
    /// Distributions inserted or replaced ([`DeltaOutcome::Inserted`] /
    /// [`DeltaOutcome::Updated`]).
    pub applied: u64,
    /// Objects dropped because they left the maintained set.
    pub retracted: u64,
    /// Deltas skipped because the stored distribution was bit-identical.
    pub unchanged: u64,
}

impl<K> Default for AnchorObjectIndex<K> {
    fn default() -> Self {
        AnchorObjectIndex {
            by_anchor: Vec::new(),
            by_object: BTreeMap::new(),
        }
    }
}

impl<K: PartialEq> PartialEq for AnchorObjectIndex<K> {
    fn eq(&self, other: &Self) -> bool {
        let rows = self.by_anchor.len().max(other.by_anchor.len());
        self.by_object == other.by_object && (0..rows).all(|i| self.row(i) == other.row(i))
    }
}

impl<K> AnchorObjectIndex<K> {
    /// Row `i` of the anchor table; empty past its end.
    fn row(&self, i: usize) -> &[(K, f64)] {
        self.by_anchor.get(i).map_or(&[], Vec::as_slice)
    }
}

impl<K: Copy + Ord> AnchorObjectIndex<K> {
    /// Creates an empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Replaces the distribution of `object` with `dist`.
    ///
    /// Entries with non-positive probability are dropped. Any previous
    /// distribution of the object is removed from the anchor side first, so
    /// repeated preprocessing runs never leave stale probabilities behind.
    pub fn set_object(&mut self, object: K, dist: Vec<(AnchorId, f64)>) {
        self.remove_object(&object);
        let dist: Vec<(AnchorId, f64)> = dist.into_iter().filter(|&(_, p)| p > 0.0).collect();
        for &(anchor, p) in &dist {
            let row = anchor.index();
            if row >= self.by_anchor.len() {
                self.by_anchor.resize_with(row + 1, Vec::new);
            }
            let Some(list) = self.by_anchor.get_mut(row) else {
                continue;
            };
            // Sorted insertion by object key: the list order must be a
            // function of the index *contents*, not of delta arrival
            // order, so incremental maintenance equals a rebuild.
            let at = list.partition_point(|&(k, _)| k < object);
            list.insert(at, (object, p));
        }
        if !dist.is_empty() {
            self.by_object.insert(object, dist);
        }
    }

    /// Applies one incremental delta: replaces `object`'s distribution,
    /// but skips all structural work when the stored distribution is
    /// bit-identical to the incoming one (compared after the same
    /// non-positive-probability filtering [`Self::set_object`] performs).
    ///
    /// When the stored and the incoming distribution are both strictly
    /// ascending by anchor, as every particle-filter answer is, one merge
    /// walk over the two edits the affected rows in place: a probability
    /// is overwritten where the object stays, and its entry is removed or
    /// inserted only where it leaves or arrives. Other deltas go through
    /// [`Self::set_object`]. Either way, because per-anchor lists are
    /// sorted by key, any sequence of [`Self::apply_object`] /
    /// [`Self::remove_object`] calls leaves the index equal to a
    /// from-scratch rebuild of the same final state.
    pub fn apply_object(&mut self, object: K, mut dist: Vec<(AnchorId, f64)>) -> DeltaOutcome {
        dist.retain(|&(_, p)| p > 0.0);
        let Some(old) = self.by_object.get_mut(&object) else {
            if dist.is_empty() {
                return DeltaOutcome::Unchanged;
            }
            self.set_object(object, dist);
            return DeltaOutcome::Inserted;
        };
        if *old == dist {
            return DeltaOutcome::Unchanged;
        }
        if dist.is_empty() || !ascending(old) || !ascending(&dist) {
            self.set_object(object, dist);
        } else {
            edit_rows(&mut self.by_anchor, object, old, &dist);
            *old = dist;
        }
        DeltaOutcome::Updated
    }

    /// Retracts every object whose key fails `keep`, returning how many
    /// were removed. Iteration is in key order (BTreeMap), so the work —
    /// and any observable side effect of it — is deterministic.
    pub fn retain_objects(&mut self, mut keep: impl FnMut(&K) -> bool) -> u64 {
        let stale: Vec<K> = self
            .by_object
            .keys()
            .filter(|k| !keep(k))
            .copied()
            .collect();
        for k in &stale {
            self.remove_object(k);
        }
        stale.len() as u64
    }

    /// Removes an object's distribution entirely.
    pub fn remove_object(&mut self, object: &K) {
        if let Some(old) = self.by_object.remove(object) {
            for (anchor, _) in old {
                if let Some(list) = self.by_anchor.get_mut(anchor.index()) {
                    list.retain(|(k, _)| k != object);
                }
            }
        }
    }

    /// The ⟨object, probability⟩ list at an anchor (empty when none).
    pub fn at_anchor(&self, anchor: AnchorId) -> &[(K, f64)] {
        self.row(anchor.index())
    }

    /// An object's anchor distribution, if present.
    pub fn distribution(&self, object: &K) -> Option<&[(AnchorId, f64)]> {
        self.by_object.get(object).map(Vec::as_slice)
    }

    /// Total probability mass currently stored for `object` (0 when absent;
    /// ≈ 1 after a particle-filter run).
    pub fn total_probability(&self, object: &K) -> f64 {
        self.distribution(object)
            .map_or(0.0, |d| d.iter().map(|(_, p)| p).sum())
    }

    /// Iterator over all objects with a stored distribution, in key order.
    pub fn objects(&self) -> impl Iterator<Item = &K> {
        self.by_object.keys()
    }

    /// Number of objects with a stored distribution.
    pub fn object_count(&self) -> usize {
        self.by_object.len()
    }

    /// Number of anchors with at least one entry.
    pub fn anchor_count(&self) -> usize {
        self.by_anchor.iter().filter(|row| !row.is_empty()).count()
    }

    /// Clears everything.
    pub fn clear(&mut self) {
        self.by_anchor.clear();
        self.by_object.clear();
    }
}

/// Whether `dist` names each anchor once, in ascending order.
fn ascending(dist: &[(AnchorId, f64)]) -> bool {
    dist.iter().zip(dist.iter().skip(1)).all(|(a, b)| a.0 < b.0)
}

/// Moves `object`'s entries in the anchor rows from `old` to `new`, two
/// strictly ascending distributions, by one merge walk: rows in both get
/// the new probability in place, rows only in `old` lose the entry, rows
/// only in `new` gain it at its key position.
fn edit_rows<K: Copy + Ord>(
    rows: &mut Vec<Vec<(K, f64)>>,
    object: K,
    old: &[(AnchorId, f64)],
    new: &[(AnchorId, f64)],
) {
    let slot = |row: &[(K, f64)]| row.partition_point(|&(k, _)| k < object);
    let (mut old, mut new) = (old.iter().peekable(), new.iter().peekable());
    loop {
        let order = match (old.peek(), new.peek()) {
            (None, None) => break,
            (Some(a), Some(b)) => a.0.cmp(&b.0),
            (Some(_), None) => Ordering::Less,
            (None, Some(_)) => Ordering::Greater,
        };
        // The smaller anchor goes first; an anchor in both steps both.
        let leaving = (order != Ordering::Greater).then(|| old.next()).flatten();
        let arriving = (order != Ordering::Less).then(|| new.next()).flatten();
        match (leaving, arriving) {
            (Some(_), Some(&(anchor, p))) => {
                if let Some(row) = rows.get_mut(anchor.index()) {
                    let at = slot(row);
                    if let Some(entry) = row.get_mut(at).filter(|e| e.0 == object) {
                        entry.1 = p;
                    }
                }
            }
            (Some(&(anchor, _)), None) => {
                if let Some(row) = rows.get_mut(anchor.index()) {
                    let at = slot(row);
                    if row.get(at).is_some_and(|e| e.0 == object) {
                        row.remove(at);
                    }
                }
            }
            (None, Some(&(anchor, p))) => {
                if anchor.index() >= rows.len() {
                    rows.resize_with(anchor.index() + 1, Vec::new);
                }
                if let Some(row) = rows.get_mut(anchor.index()) {
                    let at = slot(row);
                    row.insert(at, (object, p));
                }
            }
            (None, None) => break,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn ap(i: u32) -> AnchorId {
        AnchorId::new(i)
    }

    #[test]
    fn set_and_lookup() {
        let mut idx: AnchorObjectIndex<u64> = AnchorObjectIndex::new();
        idx.set_object(1, vec![(ap(0), 0.25), (ap(1), 0.75)]);
        idx.set_object(2, vec![(ap(1), 1.0)]);

        assert_eq!(idx.at_anchor(ap(0)), &[(1, 0.25)]);
        assert_eq!(idx.at_anchor(ap(1)), &[(1, 0.75), (2, 1.0)]);
        assert!(idx.at_anchor(ap(9)).is_empty());
        assert_eq!(idx.object_count(), 2);
        assert_eq!(idx.anchor_count(), 2);
        assert!((idx.total_probability(&1) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn replacing_removes_stale_entries() {
        let mut idx: AnchorObjectIndex<u64> = AnchorObjectIndex::new();
        idx.set_object(1, vec![(ap(0), 1.0)]);
        idx.set_object(1, vec![(ap(5), 1.0)]);
        assert!(idx.at_anchor(ap(0)).is_empty());
        assert_eq!(idx.at_anchor(ap(5)), &[(1, 1.0)]);
        assert_eq!(idx.object_count(), 1);
    }

    #[test]
    fn remove_object_cleans_both_sides() {
        let mut idx: AnchorObjectIndex<u64> = AnchorObjectIndex::new();
        idx.set_object(1, vec![(ap(0), 0.5), (ap(1), 0.5)]);
        idx.remove_object(&1);
        assert_eq!(idx.object_count(), 0);
        assert_eq!(idx.anchor_count(), 0);
        assert!(idx.distribution(&1).is_none());
    }

    #[test]
    fn zero_probability_entries_dropped() {
        let mut idx: AnchorObjectIndex<u64> = AnchorObjectIndex::new();
        idx.set_object(1, vec![(ap(0), 0.0), (ap(1), -0.5), (ap(2), 1.0)]);
        assert!(idx.at_anchor(ap(0)).is_empty());
        assert!(idx.at_anchor(ap(1)).is_empty());
        assert_eq!(idx.at_anchor(ap(2)), &[(1, 1.0)]);
    }

    #[test]
    fn empty_distribution_means_absent_object() {
        let mut idx: AnchorObjectIndex<u64> = AnchorObjectIndex::new();
        idx.set_object(1, vec![]);
        assert_eq!(idx.object_count(), 0);
        assert_eq!(idx.total_probability(&1), 0.0);
    }

    #[test]
    fn per_anchor_lists_sorted_regardless_of_insertion_order() {
        let mut fwd: AnchorObjectIndex<u64> = AnchorObjectIndex::new();
        let mut rev: AnchorObjectIndex<u64> = AnchorObjectIndex::new();
        for k in [1u64, 2, 3] {
            fwd.set_object(k, vec![(ap(0), 0.5)]);
        }
        for k in [3u64, 1, 2] {
            rev.set_object(k, vec![(ap(0), 0.5)]);
        }
        assert_eq!(fwd.at_anchor(ap(0)), rev.at_anchor(ap(0)));
        assert_eq!(fwd, rev);
    }

    #[test]
    fn apply_object_reports_outcomes() {
        let mut idx: AnchorObjectIndex<u64> = AnchorObjectIndex::new();
        assert_eq!(
            idx.apply_object(1, vec![(ap(0), 0.5), (ap(1), 0.5)]),
            DeltaOutcome::Inserted
        );
        assert_eq!(
            idx.apply_object(1, vec![(ap(0), 0.5), (ap(1), 0.5)]),
            DeltaOutcome::Unchanged
        );
        // The non-positive filter runs before the comparison, so a delta
        // that only differs by dropped entries is still unchanged.
        assert_eq!(
            idx.apply_object(1, vec![(ap(0), 0.5), (ap(1), 0.5), (ap(2), 0.0)]),
            DeltaOutcome::Unchanged
        );
        assert_eq!(
            idx.apply_object(1, vec![(ap(0), 1.0)]),
            DeltaOutcome::Updated
        );
        assert_eq!(idx.apply_object(2, vec![]), DeltaOutcome::Unchanged);
        assert_eq!(idx.object_count(), 1);
    }

    #[test]
    fn retain_objects_retracts_stale_keys() {
        let mut idx: AnchorObjectIndex<u64> = AnchorObjectIndex::new();
        for k in 0u64..5 {
            idx.set_object(k, vec![(ap(k as u32), 1.0)]);
        }
        let retracted = idx.retain_objects(|k| *k % 2 == 0);
        assert_eq!(retracted, 2);
        assert_eq!(idx.objects().copied().collect::<Vec<_>>(), vec![0, 2, 4]);
        assert_eq!(idx.anchor_count(), 3);
    }

    #[test]
    fn delta_sequence_equals_rebuild() {
        let mut inc: AnchorObjectIndex<u64> = AnchorObjectIndex::new();
        inc.apply_object(5, vec![(ap(1), 0.3), (ap(2), 0.7)]);
        inc.apply_object(3, vec![(ap(2), 1.0)]);
        inc.apply_object(5, vec![(ap(2), 1.0)]);
        inc.apply_object(4, vec![(ap(0), 0.9)]);
        inc.remove_object(&3);
        inc.apply_object(1, vec![(ap(2), 0.4)]);

        let mut fresh: AnchorObjectIndex<u64> = AnchorObjectIndex::new();
        fresh.set_object(1, vec![(ap(2), 0.4)]);
        fresh.set_object(4, vec![(ap(0), 0.9)]);
        fresh.set_object(5, vec![(ap(2), 1.0)]);
        assert_eq!(inc, fresh);
    }

    /// What [`AnchorObjectIndex::apply_object`] did before rows were
    /// edited in place: filter, compare, then [`AnchorObjectIndex::set_object`].
    fn apply_by_rebuild(
        idx: &mut AnchorObjectIndex<u64>,
        object: u64,
        dist: Vec<(AnchorId, f64)>,
    ) -> DeltaOutcome {
        let dist: Vec<(AnchorId, f64)> = dist.into_iter().filter(|&(_, p)| p > 0.0).collect();
        match idx.by_object.get(&object) {
            Some(old) if old == &dist => DeltaOutcome::Unchanged,
            Some(_) => {
                idx.set_object(object, dist);
                DeltaOutcome::Updated
            }
            None if dist.is_empty() => DeltaOutcome::Unchanged,
            None => {
                idx.set_object(object, dist);
                DeltaOutcome::Inserted
            }
        }
    }

    proptest! {
        /// Random delta sequences over a few objects and anchors: mostly
        /// ascending distributions (the in-place path), some unsorted or
        /// with repeated anchors, some with non-positive entries or none,
        /// repeats of the stored distribution, and retractions.
        #[test]
        fn in_place_rows_match_set_object_rebuilds(
            steps in proptest::collection::vec(
                (0u64..6, proptest::collection::vec((0u32..12, -0.2f64..1.0), 0..8), 0u8..8),
                1..60,
            ),
        ) {
            let mut in_place: AnchorObjectIndex<u64> = AnchorObjectIndex::new();
            let mut rebuilt: AnchorObjectIndex<u64> = AnchorObjectIndex::new();
            for (object, mut dist, mode) in steps {
                match mode {
                    0 => {
                        let kept = in_place.retain_objects(|&k| k != object);
                        prop_assert_eq!(kept, rebuilt.retain_objects(|&k| k != object));
                        prop_assert_eq!(&in_place, &rebuilt);
                        continue;
                    }
                    1 => {
                        if let Some(stored) = rebuilt.distribution(&object) {
                            dist = stored.iter().map(|&(a, p)| (a.index() as u32, p)).collect();
                        }
                    }
                    2 => {}
                    _ => {
                        dist.sort_by_key(|&(a, _)| a);
                        dist.dedup_by_key(|&mut (a, _)| a);
                    }
                }
                let dist: Vec<(AnchorId, f64)> = dist.into_iter().map(|(a, p)| (ap(a), p)).collect();
                let got = in_place.apply_object(object, dist.clone());
                prop_assert_eq!(got, apply_by_rebuild(&mut rebuilt, object, dist));
                prop_assert_eq!(&in_place, &rebuilt);
                for a in 0..12 {
                    prop_assert_eq!(in_place.at_anchor(ap(a)), rebuilt.at_anchor(ap(a)));
                }
            }
        }
    }

    #[test]
    fn clear_resets() {
        let mut idx: AnchorObjectIndex<u64> = AnchorObjectIndex::new();
        idx.set_object(1, vec![(ap(0), 1.0)]);
        idx.clear();
        assert_eq!(idx.object_count(), 0);
        assert_eq!(idx.anchor_count(), 0);
    }
}

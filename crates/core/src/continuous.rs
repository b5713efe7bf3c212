//! Continuous indoor queries — the paper's stated future work ("we intend
//! to extend our framework to support more spatial query types such as
//! continuous range, continuous kNN", §6).
//!
//! A continuous query is a [`SubscriptionRegistry`] entry over a query
//! registered with an [`crate::IndoorQuerySystem`]. After each evaluation
//! pass it reports a *delta* (which objects appeared, disappeared, or
//! changed probability) instead of a full result, which is what
//! monitoring applications consume.

use crate::system::EvaluationReport;
use crate::{QueryId, ResultSet, RipqError};
use ripq_geom::{Point2, Rect};
use ripq_rfid::ObjectId;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Probability movements below this threshold are not reported as changes.
pub const CHANGE_EPSILON: f64 = 1e-9;

/// The difference between two consecutive evaluations of a continuous
/// query.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ResultDelta {
    /// Objects that entered the result set, with their new probability.
    pub appeared: Vec<(ObjectId, f64)>,
    /// Objects that left the result set.
    pub disappeared: Vec<ObjectId>,
    /// Objects whose probability changed: `(object, old, new)`.
    pub changed: Vec<(ObjectId, f64, f64)>,
}

impl ResultDelta {
    /// `true` when nothing changed.
    pub fn is_empty(&self) -> bool {
        self.appeared.is_empty() && self.disappeared.is_empty() && self.changed.is_empty()
    }

    /// Computes the delta that turns `old` into `new`. Output vectors are
    /// sorted by object id, so a delta renders identically on every run.
    pub fn between(old: &ResultSet, new: &ResultSet) -> ResultDelta {
        let mut delta = ResultDelta::default();
        for (o, p_new) in new.iter() {
            let p_old = old.probability(o);
            // ripq-lint: allow(prob-hygiene) -- exact zero is ResultSet's absent-object sentinel, not a float tolerance
            if p_old == 0.0 {
                delta.appeared.push((o, p_new));
            } else if (p_new - p_old).abs() > CHANGE_EPSILON {
                delta.changed.push((o, p_old, p_new));
            }
        }
        for (o, _) in old.iter() {
            // ripq-lint: allow(prob-hygiene) -- exact zero is ResultSet's absent-object sentinel, not a float tolerance
            if new.probability(o) == 0.0 {
                delta.disappeared.push(o);
            }
        }
        delta.appeared.sort_by_key(|&(o, _)| o);
        delta.disappeared.sort_unstable();
        delta.changed.sort_by_key(|&(o, _, _)| o);
        delta
    }

    /// Folds this delta into `rs` — the inverse of
    /// [`ResultDelta::between`]. Moves of at most [`CHANGE_EPSILON`] are
    /// not emitted, so applying every delta of a run, in order, onto an
    /// empty set gives the latest result's objects exactly and each
    /// probability within `CHANGE_EPSILON` of it.
    pub fn apply(&self, rs: &mut ResultSet) {
        for &(o, p) in &self.appeared {
            rs.set(o, p);
        }
        for &o in &self.disappeared {
            rs.set(o, 0.0);
        }
        for &(o, _, p_new) in &self.changed {
            rs.set(o, p_new);
        }
    }
}

/// What a continuous subscription watches — enough information to
/// re-register the underlying query after a restart (queries are
/// deliberately not part of durable snapshots).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum SubscriptionKind {
    /// A continuous range query over a fixed window.
    Range(Rect),
    /// A continuous kNN query anchored at a fixed point.
    Knn(Point2, usize),
}

/// One registered continuous subscription: the externally chosen id maps
/// to the engine-side [`QueryId`] plus the client's folded result.
#[derive(Debug, Clone)]
pub struct Subscription {
    /// What the subscription watches.
    pub kind: SubscriptionKind,
    /// The engine-side query backing this subscription. May differ
    /// across process lives (queries are re-registered on recovery); the
    /// subscription id is the stable external identity.
    pub query: QueryId,
    current: ResultSet,
}

impl Subscription {
    /// What a client holds after folding every delta emitted for this
    /// subscription: the latest answer's objects, each probability within
    /// [`CHANGE_EPSILON`] of it.
    pub fn current(&self) -> &ResultSet {
        &self.current
    }
}

/// The continuous-query registry: maps client-chosen subscription ids to
/// queries registered with an [`crate::IndoorQuerySystem`] and turns each
/// [`EvaluationReport`] into per-subscription [`ResultDelta`]s.
///
/// Candidate pruning and degraded evaluation apply to subscriptions
/// exactly as to snapshot queries, since both are the facade's queries.
/// Each subscription keeps the fold of its own deltas, so every
/// `changed` entry's old probability is the client's value.
#[derive(Debug, Default)]
pub struct SubscriptionRegistry {
    subs: BTreeMap<u64, Subscription>,
}

impl SubscriptionRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers subscription `sub` as watching `kind` through engine
    /// query `query`. Fails when the id is already taken.
    pub fn insert(
        &mut self,
        sub: u64,
        kind: SubscriptionKind,
        query: QueryId,
    ) -> Result<(), RipqError> {
        if self.subs.contains_key(&sub) {
            return Err(RipqError::DuplicateSubscription(sub));
        }
        self.subs.insert(
            sub,
            Subscription {
                kind,
                query,
                current: ResultSet::new(),
            },
        );
        Ok(())
    }

    /// Removes a subscription, returning it (deregister its
    /// [`Subscription::query`] from the system too).
    pub fn remove(&mut self, sub: u64) -> Option<Subscription> {
        self.subs.remove(&sub)
    }

    /// Looks up a subscription.
    pub fn get(&self, sub: u64) -> Option<&Subscription> {
        self.subs.get(&sub)
    }

    /// Iterates subscriptions in id order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &Subscription)> + '_ {
        self.subs.iter().map(|(&id, s)| (id, s))
    }

    /// Number of registered subscriptions.
    pub fn len(&self) -> usize {
        self.subs.len()
    }

    /// `true` when no subscriptions are registered.
    pub fn is_empty(&self) -> bool {
        self.subs.is_empty()
    }

    /// Replaces a subscription's folded result with checkpointed
    /// state (recovery support). Returns `false` for unknown ids.
    pub fn restore_current(&mut self, sub: u64, current: ResultSet) -> bool {
        match self.subs.get_mut(&sub) {
            Some(s) => {
                s.current = current;
                true
            }
            None => false,
        }
    }

    /// Folds one evaluation pass into every subscription: each
    /// subscription whose backing query answered in `report` applies its
    /// delta to its folded result. Returns the non-empty deltas in
    /// subscription-id order.
    pub fn deltas(&mut self, report: &EvaluationReport) -> Vec<(u64, ResultDelta)> {
        let mut out = Vec::new();
        for (&id, s) in &mut self.subs {
            let new = report
                .range_results
                .get(&s.query)
                .or_else(|| report.knn_results.get(&s.query));
            let Some(new) = new else {
                continue;
            };
            let delta = ResultDelta::between(&s.current, new);
            delta.apply(&mut s.current);
            if !delta.is_empty() {
                out.push((id, delta));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ripq_floorplan::{office_building, OfficeParams};

    fn o(i: u32) -> ObjectId {
        ObjectId::new(i)
    }

    /// A hand-built report in which range query `query` answered `rs`.
    fn answering(query: QueryId, rs: ResultSet) -> EvaluationReport {
        EvaluationReport {
            range_results: BTreeMap::from([(query, rs)]),
            knn_results: BTreeMap::new(),
            ptknn_results: BTreeMap::new(),
            closest_pairs_results: BTreeMap::new(),
            index: ripq_graph::AnchorObjectIndex::new(),
            candidates_processed: 0,
            objects_known: 0,
            cache_stats: Default::default(),
            timings: Default::default(),
            metrics: None,
            degradation: BTreeMap::new(),
            object_degradation: BTreeMap::new(),
        }
    }

    #[test]
    fn delta_between_result_sets() {
        let old: ResultSet = [(o(1), 0.5), (o(2), 0.5)].into_iter().collect();
        let new: ResultSet = [(o(2), 0.8), (o(3), 0.2)].into_iter().collect();
        let d = ResultDelta::between(&old, &new);
        assert_eq!(d.appeared, vec![(o(3), 0.2)]);
        assert_eq!(d.disappeared, vec![o(1)]);
        assert_eq!(d.changed, vec![(o(2), 0.5, 0.8)]);
        assert!(!d.is_empty());
    }

    #[test]
    fn no_change_yields_empty_delta() {
        let rs: ResultSet = [(o(1), 0.5)].into_iter().collect();
        let d = ResultDelta::between(&rs, &rs.clone());
        assert!(d.is_empty());
    }

    #[test]
    fn deltas_fold_back_into_the_full_result() {
        let old: ResultSet = [(o(1), 0.5), (o(2), 0.5)].into_iter().collect();
        let new: ResultSet = [(o(2), 0.8), (o(3), 0.2)].into_iter().collect();
        let d = ResultDelta::between(&old, &new);
        let mut folded = old.clone();
        d.apply(&mut folded);
        assert_eq!(folded, new);
        // From empty through both states.
        let mut from_empty = ResultSet::new();
        ResultDelta::between(&ResultSet::new(), &old).apply(&mut from_empty);
        d.apply(&mut from_empty);
        assert_eq!(from_empty, new);
    }

    #[test]
    fn subscription_registry_maps_reports_to_deltas() {
        use crate::{IndoorQuerySystem, SystemConfig};
        let plan = office_building(&OfficeParams::default()).unwrap();
        let mut sys = IndoorQuerySystem::new(plan, SystemConfig::default(), 7);
        let reader = sys.readers()[2];
        for s in 0..3u64 {
            sys.ingest_detections(s, &[(o(0), reader.id())]);
        }
        let window = ripq_geom::Rect::centered(reader.position(), 10.0, 6.0);
        let qid = sys.register_range(window).unwrap();
        let mut reg = SubscriptionRegistry::new();
        reg.insert(7, SubscriptionKind::Range(window), qid).unwrap();
        assert_eq!(
            reg.insert(7, SubscriptionKind::Range(window), qid),
            Err(RipqError::DuplicateSubscription(7))
        );
        assert_eq!(reg.len(), 1);

        let report = sys.evaluate(3);
        let deltas = reg.deltas(&report);
        assert_eq!(deltas.len(), 1);
        assert_eq!(deltas[0].0, 7);
        assert!(!deltas[0].1.appeared.is_empty());
        assert_eq!(reg.get(7).unwrap().current(), &report.range_results[&qid]);

        // Same state again: no deltas.
        let report2 = sys.evaluate(3);
        assert!(reg.deltas(&report2).is_empty());

        // The object grows uncertain as a second one arrives, then both
        // leave; `changed` reports the client's value as the old one.
        let held = reg.get(7).unwrap().current().probability(o(0));
        let uncertain: ResultSet = [(o(0), held / 2.0), (o(1), 1.0)].into_iter().collect();
        assert_eq!(
            reg.deltas(&answering(qid, uncertain.clone())),
            vec![(
                7,
                ResultDelta {
                    appeared: vec![(o(1), 1.0)],
                    disappeared: vec![],
                    changed: vec![(o(0), held, held / 2.0)],
                }
            )]
        );
        assert_eq!(reg.get(7).unwrap().current(), &uncertain);
        let gone = reg.deltas(&answering(qid, ResultSet::new()));
        assert_eq!(gone.len(), 1);
        assert_eq!(gone[0].1.disappeared, vec![o(0), o(1)]);
        assert!(reg.get(7).unwrap().current().is_empty());

        // Removal hands back the subscription for query deregistration.
        let s = reg.remove(7).unwrap();
        assert_eq!(s.query, qid);
        assert!(reg.is_empty());
        assert!(reg.remove(7).is_none());
        assert!(!reg.restore_current(7, ResultSet::new()));
    }

    #[test]
    fn moves_below_epsilon_add_up_against_the_clients_value() {
        let q = QueryId::new(0);
        let mut reg = SubscriptionRegistry::new();
        let window = Rect::centered(Point2::ORIGIN, 4.0, 4.0);
        reg.insert(1, SubscriptionKind::Range(window), q).unwrap();
        let at = |p: f64| answering(q, [(o(0), p)].into_iter().collect());
        let eps = CHANGE_EPSILON;

        assert_eq!(reg.deltas(&at(0.5))[0].1.appeared, vec![(o(0), 0.5)]);
        // A move of 0.6ε is not reported, so the client still holds 0.5.
        assert!(reg.deltas(&at(0.5 + 0.6 * eps)).is_empty());
        assert_eq!(reg.get(1).unwrap().current().probability(o(0)), 0.5);
        // The next 0.6ε puts the answer 1.2ε from what the client holds.
        let changed = ResultDelta {
            changed: vec![(o(0), 0.5, 0.5 + 1.2 * eps)],
            ..ResultDelta::default()
        };
        assert_eq!(reg.deltas(&at(0.5 + 1.2 * eps)), vec![(1, changed)]);
        assert_eq!(
            reg.get(1).unwrap().current().probability(o(0)),
            0.5 + 1.2 * eps
        );
    }
}

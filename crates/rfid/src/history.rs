//! Full-history reading storage for historical queries.
//!
//! §4.1: "since this research focuses on snapshot queries launched at the
//! present time, the data collector module can be designed as above to
//! save storage space. For systems which are required to answer historical
//! queries, the data collector module needs to be modified accordingly to
//! keep a longer reading history." This module is that modification:
//! [`HistoryCollector`] logs every per-second batch it accepts, and
//! [`HistoryCollector::view_at`] replays the log up to any past second
//! into a fresh [`DataCollector`] — the collector *as of* that second —
//! so the particle filter answers "where was everyone at 10:42?" queries
//! through the one collector the live system runs.

use crate::{DataCollector, ObjectId, ReaderId};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// A data collector that never discards history: the log of accepted
/// per-second batches.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct HistoryCollector {
    /// Every accepted batch with its second, in ingestion order (seconds
    /// non-decreasing).
    batches: Vec<(u64, Vec<(ObjectId, ReaderId)>)>,
}

impl HistoryCollector {
    /// Creates an empty history collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Logs pre-aggregated per-second detections, as
    /// [`DataCollector::ingest_second`] takes them: a batch older than the
    /// newest second is dropped, and several batches for one second merge
    /// when replayed.
    pub fn ingest_second(&mut self, second: u64, detections: &[(ObjectId, ReaderId)]) {
        if self.current_second().is_some_and(|cur| second < cur) {
            return;
        }
        self.batches.push((second, detections.to_vec()));
    }

    /// The last second fed in.
    pub fn current_second(&self) -> Option<u64> {
        self.batches.last().map(|&(second, _)| second)
    }

    /// Seconds of readings the log covers, summed over objects: each
    /// object from its first detection through
    /// [`HistoryCollector::current_second`] (storage diagnostic; the §4.1
    /// space argument is that [`DataCollector`]'s retained detections stay
    /// bounded while this figure grows with time).
    pub fn total_entries(&self) -> usize {
        let Some(end) = self.current_second() else {
            return 0;
        };
        let mut first_seen: BTreeMap<ObjectId, u64> = BTreeMap::new();
        for (second, batch) in &self.batches {
            for &(object, _) in batch {
                first_seen.entry(object).or_insert(*second);
            }
        }
        first_seen
            .values()
            .map(|&first| (end - first + 1) as usize)
            .sum()
    }

    /// The accepted batches in ingestion order, each with its second.
    pub fn batches(&self) -> impl Iterator<Item = (u64, &[(ObjectId, ReaderId)])> {
        self.batches
            .iter()
            .map(|(second, batch)| (*second, batch.as_slice()))
    }

    /// The collector as of `second` (inclusive): a fresh
    /// [`DataCollector`] fed every logged batch up to that second.
    pub fn view_at(&self, second: u64) -> DataCollector {
        let mut view = DataCollector::new();
        for (s, batch) in self.batches().take_while(|&(s, _)| s <= second) {
            view.ingest_second(s, batch);
        }
        view
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const O: ObjectId = ObjectId::new(0);
    const D1: ReaderId = ReaderId::new(1);
    const D2: ReaderId = ReaderId::new(2);
    const D3: ReaderId = ReaderId::new(3);

    fn feed_both(plan: &[(u64, Option<ReaderId>)]) -> (HistoryCollector, DataCollector) {
        let mut h = HistoryCollector::new();
        let mut d = DataCollector::new();
        for &(s, r) in plan {
            let det: Vec<(ObjectId, ReaderId)> = r.map(|r| (O, r)).into_iter().collect();
            h.ingest_second(s, &det);
            d.ingest_second(s, &det);
        }
        (h, d)
    }

    #[test]
    fn view_at_now_matches_snapshot_collector() {
        let plan = [
            (0, Some(D1)),
            (1, Some(D1)),
            (2, None),
            (3, Some(D2)),
            (4, None),
            (5, Some(D3)),
            (6, None),
        ];
        let (h, d) = feed_both(&plan);
        let v = h.view_at(6);
        // Retention agrees with the snapshot collector.
        assert_eq!(v.detections(O), d.detections(O));
        assert_eq!(v.last_two_devices(O), d.last_two_devices(O));
        assert_eq!(v.last_detection(O), d.last_detection(O));
        assert_eq!(v.last_episode(O), d.last_episode(O));
    }

    #[test]
    fn view_at_past_instant_rewinds() {
        let plan = [
            (0, Some(D1)),
            (1, None),
            (2, Some(D2)),
            (3, None),
            (4, Some(D3)),
        ];
        let (h, _) = feed_both(&plan);
        // As of t=3, D3 has not happened: last two devices are D1, D2.
        let v = h.view_at(3);
        assert_eq!(v.last_two_devices(O), Some((D1, Some(D2))));
        assert_eq!(v.last_detection(O), Some((D2, 2)));
        assert_eq!(v.current_second(), Some(3));
        assert_eq!(v.detections(O), &[(0, D1), (2, D2)]);
    }

    #[test]
    fn view_truncates_spanning_episode() {
        let plan = [(0, Some(D1)), (1, Some(D1)), (2, Some(D1))];
        let (h, _) = feed_both(&plan);
        let v = h.view_at(1);
        assert_eq!(v.last_episode(O), Some((D1, 0, 1)));
        assert_eq!(v.detections(O), &[(0, D1), (1, D1)]);
    }

    #[test]
    fn object_unknown_before_first_detection() {
        let plan = [(5, Some(D1))];
        let (h, _) = feed_both(&plan);
        let v = h.view_at(3);
        assert!(v.detections(O).is_empty());
        assert!(v.last_detection(O).is_none());
        assert!(v.objects().next().is_none());
        let v5 = h.view_at(5);
        assert_eq!(v5.objects().collect::<Vec<_>>(), vec![O]);
    }

    #[test]
    fn two_batches_for_one_second_replay_as_the_collector_merges_them() {
        let p = ObjectId::new(4);
        let mut h = HistoryCollector::new();
        let mut d = DataCollector::new();
        for (s, batch) in [
            (1, vec![(O, D1)]),
            (1, vec![(p, D1)]),
            (2, vec![]),
            (3, vec![(O, D1), (p, D2)]),
            (2, vec![(O, D3)]), // stale: dropped by both
        ] {
            h.ingest_second(s, &batch);
            d.ingest_second(s, &batch);
        }
        assert_eq!(h.current_second(), Some(3));
        assert_eq!(h.batches().count(), 4, "the stale batch is not logged");
        let v = h.view_at(3);
        for o in [O, p] {
            assert_eq!(v.detections(o), d.detections(o));
            assert_eq!(v.last_two_devices(o), d.last_two_devices(o));
            assert_eq!(v.last_episode(o), d.last_episode(o));
        }
        assert_eq!(v.detections(p)[0], (1, D1));
        // Each object counts from its first detection through second 3.
        assert_eq!(h.total_entries(), 3 + 3);
    }

    #[test]
    fn history_grows_while_snapshot_stays_bounded() {
        let mut h = HistoryCollector::new();
        let mut d = DataCollector::new();
        // Cycle through three readers over and over: the snapshot collector
        // keeps only two episodes, the history keeps everything.
        for round in 0..50u64 {
            for (i, reader) in [D1, D2, D3].into_iter().enumerate() {
                let s = round * 6 + i as u64 * 2;
                h.ingest_second(s, &[(O, reader)]);
                d.ingest_second(s, &[(O, reader)]);
                h.ingest_second(s + 1, &[]);
                d.ingest_second(s + 1, &[]);
            }
        }
        let snapshot_len = d.detections(O).len();
        assert!(snapshot_len <= 8, "snapshot retained {snapshot_len}");
        assert!(h.total_entries() >= 290, "history: {}", h.total_entries());
        // And at any past instant the view's retention is two episodes.
        let v = h.view_at(100);
        assert!(v.detections(O).len() <= 8);
    }
}

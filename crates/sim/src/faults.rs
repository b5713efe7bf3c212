//! Deterministic fault injection for the reading pipeline (the chaos
//! harness's workhorse).
//!
//! Real RFID deployments are not the clean stream §5.1's generator
//! produces: readings get dropped, duplicated and delayed in the network,
//! and whole readers fall over. A [`FaultPlan`] describes such a
//! degradation — per-reading drop probability, duplication probability, a
//! bounded delivery-delay window (which reorders readings), and
//! per-reader burst outages — and a [`FaultInjector`] applies it between
//! [`ReadingGenerator`](crate::ReadingGenerator) and the collector.
//!
//! # Determinism
//!
//! Every fault decision is drawn from a private RNG stream seeded by
//! [`derive_fault_seed`] from `(plan seed, fault kind, reading identity,
//! second)` — the same SplitMix64-chain construction as
//! [`ripq_pf::derive_stream_seed`]. A reading's fate is a pure function
//! of its identity, never of iteration order, other readings, or the
//! preprocessing worker count, so a faulted run is bit-for-bit
//! reproducible everywhere the clean run is.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ripq_obs::{Counter, Recorder};
use ripq_rfid::{ObjectId, ReaderId};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// A reader outage: the injector drops every reading of `reader` during
/// `[from, until]` (inclusive), counting each as
/// `faults.injected.outage_losses`. Models hardware failures and
/// maintenance windows for robustness testing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReaderOutage {
    /// The failed reader.
    pub reader: ReaderId,
    /// First silent second.
    pub from: u64,
    /// Last silent second.
    pub until: u64,
}

/// A reading tagged with the logical second it was generated at. Delivery
/// may happen up to [`FaultPlan::max_delay_seconds`] later.
pub type TaggedReading = (u64, ObjectId, ReaderId);

/// Fault-kind discriminators folded into [`derive_fault_seed`], so the
/// drop/duplicate/delay decisions about one reading are independent
/// draws.
const KIND_DROP: u64 = 1;
const KIND_DUP: u64 = 2;
const KIND_DELAY: u64 = 3;
const KIND_OUTAGE: u64 = 4;

/// A declarative description of how the reading stream is degraded.
///
/// All-zero (the [`FaultPlan::none`] default) means a perfectly clean
/// stream; [`FaultPlan::is_active`] gates the injector entirely so
/// fault-free runs take the exact code path they always did.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Probability that any individual per-second reading is lost.
    pub drop_probability: f64,
    /// Probability that a (surviving) reading is delivered twice.
    pub duplicate_probability: f64,
    /// Maximum delivery delay in seconds. Each surviving reading is
    /// delayed by a uniform `0..=max_delay_seconds` draw, which reorders
    /// the stream within that bounded jitter window.
    pub max_delay_seconds: u64,
    /// Per-reader, per-second probability that a burst outage starts
    /// (the reader is killed and later revived on a schedule derived
    /// deterministically from the seed).
    pub outage_rate: f64,
    /// Mean outage length in seconds (lengths are uniform in
    /// `1..=2·mean−1`).
    pub outage_mean_seconds: f64,
    /// Seed of the fault layer's private RNG streams, independent of the
    /// experiment's master seed so the same world can be replayed under
    /// different degradations.
    pub seed: u64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

impl FaultPlan {
    /// The clean plan: no faults of any kind.
    pub fn none() -> Self {
        FaultPlan {
            drop_probability: 0.0,
            duplicate_probability: 0.0,
            max_delay_seconds: 0,
            outage_rate: 0.0,
            outage_mean_seconds: 20.0,
            seed: 0xFA_0175,
        }
    }

    /// `true` when any fault mechanism can fire.
    pub fn is_active(&self) -> bool {
        self.drop_probability > 0.0
            || self.duplicate_probability > 0.0
            || self.max_delay_seconds > 0
            || self.outage_rate > 0.0
    }
}

/// Derives the seed of one fault decision's private RNG stream.
///
/// The inputs are folded into a SplitMix64 chain one at a time (mirroring
/// [`ripq_pf::derive_stream_seed`]): the plan seed separates plans, the
/// fault kind separates the drop/duplicate/delay/outage decisions about
/// the same reading, and `(ident, second)` pins the decision to one
/// reading identity. Order-independence of the result is what makes
/// faulted runs bit-identical at every worker count.
fn derive_fault_seed(seed: u64, kind: u64, ident: u64, second: u64) -> u64 {
    let mut state = seed;
    let mut out = rand::split_mix64(&mut state);
    state ^= kind.rotate_left(48);
    out ^= rand::split_mix64(&mut state);
    state ^= ident.rotate_left(16);
    out ^= rand::split_mix64(&mut state);
    state ^= second;
    out ^ rand::split_mix64(&mut state)
}

/// The identity of one reading, for fault-stream derivation: object in
/// the high half, reader in the low half.
fn reading_ident(object: ObjectId, reader: ReaderId) -> u64 {
    (u64::from(object.raw()) << 32) | u64::from(reader.raw())
}

/// One uniform `[0, 1)` draw from the fault stream `(kind, ident,
/// second)`.
fn fault_draw(seed: u64, kind: u64, ident: u64, second: u64) -> f64 {
    StdRng::seed_from_u64(derive_fault_seed(seed, kind, ident, second)).random::<f64>()
}

/// Resolved `faults.injected.*` counter handles (no-ops until a recorder
/// is attached).
#[derive(Debug, Clone, Default)]
struct FaultMetrics {
    dropped: Counter,
    duplicated: Counter,
    delayed: Counter,
    outage_losses: Counter,
}

/// Applies a [`FaultPlan`] to a per-second reading stream.
///
/// Feed each second's clean detections through [`FaultInjector::step`];
/// it returns the readings *delivered* that second — some dropped, some
/// duplicated, some generated seconds earlier and held back by the jitter
/// buffer. After the last generated second, keep stepping with empty
/// input for [`FaultPlan::max_delay_seconds`] more seconds to drain the
/// in-flight tail.
#[derive(Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    outages: Vec<ReaderOutage>,
    /// In-flight readings keyed by delivery second.
    pending: BTreeMap<u64, Vec<TaggedReading>>,
    metrics: FaultMetrics,
}

impl FaultInjector {
    /// Creates an injector for `plan`, deriving a deterministic per-reader
    /// outage schedule for `reader_count` readers over `0..=duration`.
    pub fn new(plan: FaultPlan, reader_count: usize, duration: u64) -> Self {
        let outages = random_outages(&plan, reader_count, duration);
        FaultInjector {
            plan,
            outages,
            pending: BTreeMap::new(),
            metrics: FaultMetrics::default(),
        }
    }

    /// Replaces the derived outage schedule with an explicit one, for
    /// tests that need exact downtime windows.
    #[cfg(test)]
    fn with_outages(mut self, outages: Vec<ReaderOutage>) -> Self {
        self.outages = outages;
        self
    }

    /// Attaches an observability recorder; every injected degradation is
    /// counted under `faults.injected.*` from now on.
    pub fn set_recorder(&mut self, recorder: &Recorder) {
        self.metrics = FaultMetrics {
            dropped: recorder.counter("faults.injected.dropped"),
            duplicated: recorder.counter("faults.injected.duplicated"),
            delayed: recorder.counter("faults.injected.delayed"),
            outage_losses: recorder.counter("faults.injected.outage_losses"),
        };
    }

    /// The outage schedule (derived or explicit), for telling outage-aware
    /// consumers which silences are expected.
    pub fn outages(&self) -> &[ReaderOutage] {
        &self.outages
    }

    /// Readings still in the jitter buffer.
    pub fn in_flight(&self) -> usize {
        self.pending.values().map(Vec::len).sum()
    }

    /// The jitter buffer keyed by delivery second — the injector's only
    /// mutable state (the outage schedule is re-derived from the plan), so
    /// this plus [`FaultInjector::restore_pending`] is all a checkpoint
    /// needs.
    pub fn pending(&self) -> &BTreeMap<u64, Vec<TaggedReading>> {
        &self.pending
    }

    /// Replaces the jitter buffer with checkpointed state.
    pub fn restore_pending(&mut self, pending: BTreeMap<u64, Vec<TaggedReading>>) {
        self.pending = pending;
    }

    fn is_down(&self, reader: ReaderId, second: u64) -> bool {
        self.outages
            .iter()
            .any(|o| o.reader == reader && (o.from..=o.until).contains(&second))
    }

    /// Applies the plan to one second's clean detections and returns the
    /// readings delivered at `second`, each tagged with its logical
    /// generation second. Deliveries are sorted by `(logical, object,
    /// reader)`, so the output is independent of the input's order too.
    pub fn step(&mut self, second: u64, detections: &[(ObjectId, ReaderId)]) -> Vec<TaggedReading> {
        for &(object, reader) in detections {
            if self.is_down(reader, second) {
                self.metrics.outage_losses.inc();
                continue;
            }
            let ident = reading_ident(object, reader);
            if self.plan.drop_probability > 0.0
                && fault_draw(self.plan.seed, KIND_DROP, ident, second) < self.plan.drop_probability
            {
                self.metrics.dropped.inc();
                continue;
            }
            let delivery = if self.plan.max_delay_seconds > 0 {
                let mut rng = StdRng::seed_from_u64(derive_fault_seed(
                    self.plan.seed,
                    KIND_DELAY,
                    ident,
                    second,
                ));
                let delta = rng.random_range(0..=self.plan.max_delay_seconds);
                if delta > 0 {
                    self.metrics.delayed.inc();
                }
                second + delta
            } else {
                second
            };
            self.pending
                .entry(delivery)
                .or_default()
                .push((second, object, reader));
            if self.plan.duplicate_probability > 0.0
                && fault_draw(self.plan.seed, KIND_DUP, ident, second)
                    < self.plan.duplicate_probability
            {
                self.metrics.duplicated.inc();
                self.pending
                    .entry(delivery)
                    .or_default()
                    .push((second, object, reader));
            }
        }
        let mut out = self.pending.remove(&second).unwrap_or_default();
        out.sort_unstable_by_key(|&(logical, o, r)| (logical, o.raw(), r.raw()));
        out
    }
}

/// Derives the per-reader burst-outage schedule of `plan`: each reader
/// walks its own RNG stream second by second; with probability
/// [`FaultPlan::outage_rate`] an outage starts, lasting a uniform
/// `1..=2·mean−1` seconds. Windows of one reader never overlap.
fn random_outages(plan: &FaultPlan, reader_count: usize, duration: u64) -> Vec<ReaderOutage> {
    let mut out = Vec::new();
    if plan.outage_rate <= 0.0 {
        return out;
    }
    for r in 0..reader_count {
        let mut rng = StdRng::seed_from_u64(derive_fault_seed(plan.seed, KIND_OUTAGE, r as u64, 0));
        let mut s = 0u64;
        while s <= duration {
            if rng.random::<f64>() < plan.outage_rate {
                let mean = plan.outage_mean_seconds.max(1.0);
                let max_len = (2.0 * mean - 1.0).max(1.0);
                let len = (rng.random_range(1.0..=max_len).round() as u64).max(1);
                out.push(ReaderOutage {
                    reader: ReaderId::new(r as u32),
                    from: s,
                    until: (s + len - 1).min(duration),
                });
                s += len;
            } else {
                s += 1;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const O1: ObjectId = ObjectId::new(1);
    const O2: ObjectId = ObjectId::new(2);
    const R1: ReaderId = ReaderId::new(0);
    const R2: ReaderId = ReaderId::new(3);

    fn run(plan: FaultPlan, stream: &[Vec<(ObjectId, ReaderId)>]) -> Vec<Vec<TaggedReading>> {
        let mut inj = FaultInjector::new(plan, 8, stream.len() as u64);
        let horizon = stream.len() as u64 + plan.max_delay_seconds;
        (0..=horizon)
            .map(|s| {
                let clean = stream.get(s as usize).map_or(&[][..], Vec::as_slice);
                inj.step(s, clean)
            })
            .collect()
    }

    fn sample_stream() -> Vec<Vec<(ObjectId, ReaderId)>> {
        (0..40u64)
            .map(|s| match s % 3 {
                0 => vec![(O1, R1), (O2, R2)],
                1 => vec![(O1, R1)],
                _ => vec![(O2, R2)],
            })
            .collect()
    }

    #[test]
    fn inactive_plan_is_identity() {
        let plan = FaultPlan::none();
        assert!(!plan.is_active());
        let stream = sample_stream();
        let delivered = run(plan, &stream);
        for (s, clean) in stream.iter().enumerate() {
            let expect: Vec<TaggedReading> = {
                let mut v: Vec<_> = clean.iter().map(|&(o, r)| (s as u64, o, r)).collect();
                v.sort_unstable_by_key(|&(l, o, r)| (l, o.raw(), r.raw()));
                v
            };
            assert_eq!(delivered[s], expect);
        }
    }

    #[test]
    fn same_plan_same_deliveries() {
        let plan = FaultPlan {
            drop_probability: 0.3,
            duplicate_probability: 0.2,
            max_delay_seconds: 4,
            outage_rate: 0.01,
            ..FaultPlan::none()
        };
        let stream = sample_stream();
        assert_eq!(run(plan, &stream), run(plan, &stream));
    }

    #[test]
    fn different_seed_different_deliveries() {
        let base = FaultPlan {
            drop_probability: 0.4,
            ..FaultPlan::none()
        };
        let other = FaultPlan { seed: 99, ..base };
        let stream = sample_stream();
        assert_ne!(run(base, &stream), run(other, &stream));
    }

    #[test]
    fn delivery_is_input_order_independent() {
        let plan = FaultPlan {
            drop_probability: 0.2,
            duplicate_probability: 0.3,
            max_delay_seconds: 3,
            ..FaultPlan::none()
        };
        let fwd: Vec<Vec<(ObjectId, ReaderId)>> = (0..20)
            .map(|_| vec![(O1, R1), (O2, R2), (ObjectId::new(7), R1)])
            .collect();
        let rev: Vec<Vec<(ObjectId, ReaderId)>> = fwd
            .iter()
            .map(|v| v.iter().rev().copied().collect())
            .collect();
        assert_eq!(run(plan, &fwd), run(plan, &rev));
    }

    #[test]
    fn drop_probability_one_drops_everything() {
        let plan = FaultPlan {
            drop_probability: 1.0,
            ..FaultPlan::none()
        };
        for batch in run(plan, &sample_stream()) {
            assert!(batch.is_empty());
        }
    }

    #[test]
    fn duplicate_probability_one_doubles_everything() {
        let plan = FaultPlan {
            duplicate_probability: 1.0,
            ..FaultPlan::none()
        };
        let stream = sample_stream();
        let delivered = run(plan, &stream);
        for (s, clean) in stream.iter().enumerate() {
            assert_eq!(delivered[s].len(), clean.len() * 2, "second {s}");
        }
    }

    #[test]
    fn delay_is_bounded_and_conserves_readings() {
        let plan = FaultPlan {
            max_delay_seconds: 5,
            ..FaultPlan::none()
        };
        let stream = sample_stream();
        let delivered = run(plan, &stream);
        let total_in: usize = stream.iter().map(Vec::len).sum();
        let total_out: usize = delivered.iter().map(Vec::len).sum();
        assert_eq!(total_in, total_out, "no delay-only reading is lost");
        for (s, batch) in delivered.iter().enumerate() {
            for &(logical, _, _) in batch {
                assert!(logical <= s as u64, "delivered before generated");
                assert!(s as u64 - logical <= 5, "delay beyond the window");
            }
        }
    }

    #[test]
    fn outage_schedule_is_deterministic_and_bounded() {
        let plan = FaultPlan {
            outage_rate: 0.02,
            outage_mean_seconds: 10.0,
            ..FaultPlan::none()
        };
        let a = random_outages(&plan, 19, 300);
        let b = random_outages(&plan, 19, 300);
        assert_eq!(a, b);
        assert!(!a.is_empty(), "0.02/s over 19 readers × 300 s must fire");
        for o in &a {
            assert!(o.from <= o.until);
            assert!(o.until <= 300);
            assert!(o.until - o.from < 19, "length ≤ 2·mean−1");
        }
        // Per-reader windows never overlap.
        for w in a.iter().zip(a.iter().skip(1)) {
            if w.0.reader == w.1.reader {
                assert!(w.0.until < w.1.from);
            }
        }
    }

    #[test]
    fn outage_silences_reader_and_counts_losses() {
        let plan = FaultPlan {
            outage_rate: 1e-9, // active, but schedule replaced below
            ..FaultPlan::none()
        };
        let mut inj = FaultInjector::new(plan, 8, 20).with_outages(vec![ReaderOutage {
            reader: R1,
            from: 5,
            until: 10,
        }]);
        let recorder = Recorder::enabled();
        inj.set_recorder(&recorder);
        for s in 0..=20u64 {
            let delivered = inj.step(s, &[(O1, R1), (O2, R2)]);
            let r1_delivered = delivered.iter().filter(|&&(_, _, r)| r == R1).count();
            if (5..=10).contains(&s) {
                assert_eq!(r1_delivered, 0, "R1 silent during outage at {s}");
            } else {
                assert_eq!(r1_delivered, 1);
            }
            assert_eq!(delivered.iter().filter(|&&(_, _, r)| r == R2).count(), 1);
        }
        let counters = recorder.snapshot().counters;
        assert_eq!(counters.get("faults.injected.outage_losses"), Some(&6));
    }

    #[test]
    fn fault_seeds_separate_kinds_and_readings() {
        assert_eq!(derive_fault_seed(1, 2, 3, 4), derive_fault_seed(1, 2, 3, 4));
        assert_ne!(derive_fault_seed(1, 2, 3, 4), derive_fault_seed(1, 3, 3, 4));
        assert_ne!(derive_fault_seed(1, 2, 3, 4), derive_fault_seed(1, 2, 9, 4));
        assert_ne!(derive_fault_seed(1, 2, 3, 4), derive_fault_seed(1, 2, 3, 5));
        assert_ne!(derive_fault_seed(1, 2, 3, 4), derive_fault_seed(2, 2, 3, 4));
    }
}

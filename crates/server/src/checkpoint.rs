//! The server's own section of `server.ckpt`.
//!
//! `server.ckpt` is the daemon's only snapshot file: one frame written
//! and recovered through [`ripq_core::checkpoint`], this section first,
//! then the engine's recoverable state (collector, cache, RNG, metrics,
//! live index). Queries are not part of the engine state, so the
//! section carries the daemon's own continuity: how many transcript
//! frames were fully processed, how many response lines were emitted,
//! the last tick, the unseen-alert arming state, and the open
//! subscriptions with their maintained results (exact f64 bit patterns).
//! A restarted server resumes the delta stream byte-exactly where the
//! previous life checkpointed.
//!
//! Decoding rejects what re-registering a subscription would: it runs
//! each subscription through the engine's query constructors, as a live
//! `subscribe` does, and requires unique subscription ids. So once the
//! engine state restored, applying a decoded section cannot fail.

use ripq_core::continuous::{SubscriptionKind, SubscriptionRegistry};
use ripq_core::{KnnQuery, QueryId, RangeQuery, ResultSet};
use ripq_geom::{Point2, Rect};
use ripq_persist::{ByteReader, ByteWriter, PersistError};
use ripq_rfid::ObjectId;
use std::collections::BTreeSet;

/// File name of the server snapshot inside the checkpoint directory.
pub(crate) const SNAPSHOT_FILE: &str = "server.ckpt";

/// The server-side state a snapshot carries in front of the engine's.
#[derive(Debug, Clone, PartialEq, Default)]
pub(crate) struct SidecarState {
    /// Frames fully processed when the snapshot was taken. On resume the
    /// replay driver skips exactly this many transcript frames.
    pub frames_processed: u64,
    /// Response lines emitted so far — the offset into the golden output
    /// at which the resumed stream continues.
    pub lines_emitted: u64,
    /// The last tick second evaluated, if any.
    pub last_tick: Option<u64>,
    /// Objects whose unseen-alert already fired this silent episode.
    pub unseen_alerted: BTreeSet<ObjectId>,
    /// Open subscriptions: `(sub id, kind, maintained result)`, id-ordered.
    pub subscriptions: Vec<(u64, SubscriptionKind, ResultSet)>,
}

impl SidecarState {
    /// Captures the section from live server components.
    pub(crate) fn capture(
        frames_processed: u64,
        lines_emitted: u64,
        last_tick: Option<u64>,
        unseen_alerted: &BTreeSet<ObjectId>,
        registry: &SubscriptionRegistry,
    ) -> Self {
        SidecarState {
            frames_processed,
            lines_emitted,
            last_tick,
            unseen_alerted: unseen_alerted.clone(),
            subscriptions: registry
                .iter()
                .map(|(id, s)| (id, s.kind, s.current().clone()))
                .collect(),
        }
    }

    /// Appends the section to `w`.
    pub(crate) fn encode(&self, w: &mut ByteWriter) {
        w.put_u64(self.frames_processed);
        w.put_u64(self.lines_emitted);
        w.put_opt_u64(self.last_tick);
        w.put_seq_len(self.unseen_alerted.len());
        for o in &self.unseen_alerted {
            w.put_u32(o.raw());
        }
        w.put_seq_len(self.subscriptions.len());
        for (sub, kind, current) in &self.subscriptions {
            w.put_u64(*sub);
            match kind {
                SubscriptionKind::Range(r) => {
                    w.put_u8(0);
                    w.put_f64(r.min().x);
                    w.put_f64(r.min().y);
                    w.put_f64(r.max().x);
                    w.put_f64(r.max().y);
                }
                SubscriptionKind::Knn(point, k) => {
                    w.put_u8(1);
                    w.put_f64(point.x);
                    w.put_f64(point.y);
                    w.put_u64(*k as u64);
                }
            }
            w.put_seq_len(current.len());
            for (o, pr) in current.iter() {
                w.put_u32(o.raw());
                w.put_u64(pr.to_bits());
            }
        }
    }

    /// Decodes a section written by [`SidecarState::encode`] and
    /// validates every subscription; the engine state follows in `r`.
    pub(crate) fn decode(r: &mut ByteReader<'_>) -> Result<Self, PersistError> {
        let frames_processed = r.get_u64()?;
        let lines_emitted = r.get_u64()?;
        let last_tick = r.get_opt_u64()?;
        let n_alerted = r.get_seq_len(4)?;
        let mut unseen_alerted = BTreeSet::new();
        for _ in 0..n_alerted {
            unseen_alerted.insert(ObjectId::new(r.get_u32()?));
        }
        let n_subs = r.get_seq_len(9)?;
        let mut subscriptions = Vec::with_capacity(n_subs);
        for _ in 0..n_subs {
            let sub = r.get_u64()?;
            // Written in id order, so unique ids arrive strictly rising.
            if subscriptions
                .last()
                .is_some_and(|(prev, _, _)| *prev >= sub)
            {
                return Err(PersistError::Torn);
            }
            // The engine's own query constructors judge each
            // subscription, exactly as a live `subscribe` does.
            let kind = match r.get_u8()? {
                0 => {
                    let min = Point2::new(r.get_f64()?, r.get_f64()?);
                    let max = Point2::new(r.get_f64()?, r.get_f64()?);
                    let window = Rect::from_corners(min, max);
                    RangeQuery::new(QueryId::new(0), window).map_err(|_| PersistError::Torn)?;
                    SubscriptionKind::Range(window)
                }
                1 => {
                    let point = Point2::new(r.get_f64()?, r.get_f64()?);
                    let k = r.get_u64()? as usize;
                    KnnQuery::new(QueryId::new(0), point, k).map_err(|_| PersistError::Torn)?;
                    SubscriptionKind::Knn(point, k)
                }
                _ => return Err(PersistError::Torn),
            };
            let n_current = r.get_seq_len(12)?;
            let mut current = ResultSet::new();
            for _ in 0..n_current {
                let o = ObjectId::new(r.get_u32()?);
                current.set(o, f64::from_bits(r.get_u64()?));
            }
            subscriptions.push((sub, kind, current));
        }
        Ok(SidecarState {
            frames_processed,
            lines_emitted,
            last_tick,
            unseen_alerted,
            subscriptions,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn encoded(state: &SidecarState) -> Vec<u8> {
        let mut w = ByteWriter::new();
        state.encode(&mut w);
        w.into_bytes()
    }

    fn decoded(bytes: &[u8]) -> Result<SidecarState, PersistError> {
        SidecarState::decode(&mut ByteReader::new(bytes))
    }

    fn sample() -> SidecarState {
        let mut current = ResultSet::new();
        current.set(ObjectId::new(3), 0.625);
        current.set(ObjectId::new(9), 0.375);
        SidecarState {
            frames_processed: 41,
            lines_emitted: 107,
            last_tick: Some(30),
            unseen_alerted: [ObjectId::new(2)].into_iter().collect(),
            subscriptions: vec![
                (
                    1,
                    SubscriptionKind::Range(Rect::new(0.0, 1.0, 8.0, 4.0)),
                    current,
                ),
                (
                    5,
                    SubscriptionKind::Knn(Point2::new(2.5, 3.5), 2),
                    ResultSet::new(),
                ),
            ],
        }
    }

    #[test]
    fn round_trips() {
        let state = sample();
        let bytes = encoded(&state);
        let mut r = ByteReader::new(&bytes);
        assert_eq!(SidecarState::decode(&mut r).unwrap(), state);
        r.finish().unwrap();
    }

    #[test]
    fn truncation_anywhere_is_an_error_never_a_panic() {
        let bytes = encoded(&sample());
        for cut in 0..bytes.len() {
            assert!(decoded(&bytes[..cut]).is_err(), "cut at {cut} decoded");
        }
    }
}

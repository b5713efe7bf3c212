//! The cache management module (§4.5).
//!
//! "Insertion to the cache happens every time when Algorithm 2 is done for
//! an object oᵢ. In case near future queries need to determine the location
//! distribution for the same object oᵢ again, we do not need to run the
//! Particle Filter algorithm from the start; instead, previous computation
//! is reused by retrieving the particles of oᵢ from the cache and resuming
//! the Particle Filter algorithm from the cache-stored time stamp."
//!
//! Invalidation follows the paper exactly: "we decide to discard processed
//! particles of oᵢ from the cache every time oᵢ is detected by a new
//! device" — implemented by keying each entry with the identity of the
//! detection episode it was filtered under.
//!
//! [`ParticleCache`] has one owner, the caller of
//! [`ParticlePreprocessor::process`](crate::ParticlePreprocessor::process).
//! A pass takes each candidate's entry out while it plans the object; the
//! entry travels with the object to whichever worker filters it, and the
//! pass puts back, in candidate order, the entry the object's slot holds
//! afterwards. Workers never touch the map, so the statistics and the
//! entries are the same whatever the worker count.

use crate::{Heading, IndoorState};
use ripq_graph::{EdgeId, GraphPos};
use ripq_persist::{ByteReader, ByteWriter, PersistError};
use ripq_rfid::{ObjectId, ReaderId};
use std::collections::BTreeMap;

/// An episode identity: the most recent detecting reader plus the second
/// its episode began. A new episode (new device, or the same device after
/// a long gap) produces a different key and therefore a cache miss.
pub type EpisodeKey = (ReaderId, u64);

/// One object's cached particle states.
#[derive(Debug, PartialEq)]
pub(crate) struct CacheEntry {
    pub(crate) particles: Vec<IndoorState>,
    /// The simulated second the particle states correspond to.
    pub(crate) timestamp: u64,
    pub(crate) episode: EpisodeKey,
}

/// Hit/miss counters for cache effectiveness reporting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found reusable particles.
    pub hits: u64,
    /// Lookups that found nothing (or a stale episode).
    pub misses: u64,
    /// Entries evicted because the object was detected by a new device,
    /// or dropped with a panicking filter run.
    pub invalidations: u64,
}

impl CacheStats {
    /// Hit rate in `[0, 1]` (0 when no lookups happened).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// The particle-state cache: one entry per object, kept in object-id
/// order, plus the hit/miss/invalidation counters.
#[derive(Debug, Default)]
pub struct ParticleCache {
    entries: BTreeMap<ObjectId, CacheEntry>,
    stats: CacheStats,
}

impl ParticleCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Takes `object`'s entry out for one pass and counts the lookup. `Ok`
    /// holds an entry filtered under `episode`: a hit. A miss returns the
    /// episode of the entry it found, if any; that entry predates the
    /// object's detection by a new device, so it is discarded, per §4.5.
    pub(crate) fn take(
        &mut self,
        object: ObjectId,
        episode: EpisodeKey,
    ) -> Result<CacheEntry, Option<EpisodeKey>> {
        match self.entries.remove(&object) {
            Some(entry) if entry.episode == episode => {
                self.stats.hits += 1;
                Ok(entry)
            }
            stale => {
                self.stats.misses += 1;
                let stale = stale.map(|e| e.episode);
                self.stats.invalidations += u64::from(stale.is_some());
                Err(stale)
            }
        }
    }

    /// Puts back the entry `object`'s slot holds after a pass, if any.
    /// `dropped` counts the entry a panicking filter run took down with it
    /// as an invalidation.
    pub(crate) fn put_back(&mut self, object: ObjectId, entry: Option<CacheEntry>, dropped: bool) {
        self.stats.invalidations += u64::from(dropped);
        if let Some(entry) = entry {
            self.entries.insert(object, entry);
        }
    }

    /// `object`'s entry, if cached.
    #[cfg(test)]
    pub(crate) fn entry(&self, object: ObjectId) -> Option<&CacheEntry> {
        self.entries.get(&object)
    }

    /// Number of cached objects.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no entries are cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Hit/miss counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Appends the cache's full state — every entry plus the hit/miss
    /// counters — to `w` in the canonical checkpoint encoding (entries
    /// sorted by object id, so equal state always encodes identically).
    pub fn encode_state(&self, w: &mut ByteWriter) {
        w.put_seq_len(self.entries.len());
        for (o, e) in &self.entries {
            w.put_u32(o.raw());
            w.put_u64(e.timestamp);
            w.put_u32(e.episode.0.raw());
            w.put_u64(e.episode.1);
            w.put_seq_len(e.particles.len());
            for p in &e.particles {
                w.put_u32(p.pos.edge.raw());
                w.put_f64(p.pos.offset);
                w.put_bool(matches!(p.heading, Heading::TowardB));
                w.put_f64(p.speed);
            }
        }
        w.put_u64(self.stats.hits);
        w.put_u64(self.stats.misses);
        w.put_u64(self.stats.invalidations);
    }

    /// Rebuilds a cache from bytes written by
    /// [`ParticleCache::encode_state`]. Any truncation or invalid
    /// tag is [`PersistError::Torn`].
    pub fn decode_state(r: &mut ByteReader<'_>) -> Result<ParticleCache, PersistError> {
        let mut cache = ParticleCache::new();
        let n_entries = r.get_seq_len(28)?;
        for _ in 0..n_entries {
            let object = ObjectId::new(r.get_u32()?);
            let timestamp = r.get_u64()?;
            let episode = (ReaderId::new(r.get_u32()?), r.get_u64()?);
            let n_particles = r.get_seq_len(21)?;
            let mut particles = Vec::with_capacity(n_particles);
            for _ in 0..n_particles {
                let edge = EdgeId::new(r.get_u32()?);
                let offset = r.get_f64()?;
                let heading = if r.get_bool()? {
                    Heading::TowardB
                } else {
                    Heading::TowardA
                };
                let speed = r.get_f64()?;
                particles.push(IndoorState {
                    pos: GraphPos::new(edge, offset),
                    heading,
                    speed,
                });
            }
            let entry = CacheEntry {
                particles,
                timestamp,
                episode,
            };
            cache.entries.insert(object, entry);
        }
        cache.stats = CacheStats {
            hits: r.get_u64()?,
            misses: r.get_u64()?,
            invalidations: r.get_u64()?,
        };
        Ok(cache)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn particle(offset: f64) -> IndoorState {
        IndoorState {
            pos: GraphPos::new(EdgeId::new(0), offset),
            heading: Heading::TowardB,
            speed: 1.0,
        }
    }

    /// An entry of `particles` at second `timestamp` under `episode`.
    fn cached(
        particles: Vec<IndoorState>,
        timestamp: u64,
        episode: EpisodeKey,
    ) -> Option<CacheEntry> {
        Some(CacheEntry {
            particles,
            timestamp,
            episode,
        })
    }

    const O: ObjectId = ObjectId::new(1);
    const EP1: EpisodeKey = (ReaderId::new(3), 100);
    const EP2: EpisodeKey = (ReaderId::new(4), 120);

    #[test]
    fn a_hit_takes_the_entry_out_until_it_is_put_back() {
        let mut c = ParticleCache::new();
        c.put_back(O, cached(vec![particle(1.0)], 110, EP1), false);
        let e = c.take(O, EP1).expect("hit");
        assert_eq!((e.particles.len(), e.timestamp), (1, 110));
        assert!(c.is_empty(), "the pass owns a taken entry");
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 0);
        // The pass puts back whatever the slot holds after it.
        c.put_back(
            O,
            cached(vec![particle(9.0), particle(8.0)], 112, EP1),
            false,
        );
        let e = c.take(O, EP1).expect("hit");
        assert_eq!((e.particles.len(), e.timestamp), (2, 112));
        assert_eq!(c.stats().hits, 2);
    }

    #[test]
    fn new_episode_invalidates() {
        let mut c = ParticleCache::new();
        c.put_back(O, cached(vec![particle(1.0)], 110, EP1), false);
        assert_eq!(c.take(O, EP2), Err(Some(EP1)));
        assert_eq!(c.stats().invalidations, 1);
        // Entry is gone entirely.
        assert!(c.is_empty());
        assert_eq!(c.take(O, EP1), Err(None));
        assert_eq!(c.stats().misses, 2);
    }

    #[test]
    fn unknown_object_misses() {
        let mut c = ParticleCache::new();
        assert_eq!(c.take(O, EP1), Err(None));
        assert_eq!(c.stats().misses, 1);
        assert_eq!(c.stats().hit_rate(), 0.0);
    }

    #[test]
    fn hit_rate_math() {
        let mut c = ParticleCache::new();
        c.put_back(O, cached(vec![particle(0.0)], 5, EP1), false);
        for _ in 0..2 {
            let hit = c.take(O, EP1).ok();
            c.put_back(O, hit, false);
        }
        let _ = c.take(ObjectId::new(9), EP1);
        assert!((c.stats().hit_rate() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn a_dropped_entry_counts_as_an_invalidation() {
        let mut c = ParticleCache::new();
        c.put_back(O, cached(vec![particle(0.0)], 5, EP1), false);
        assert!(c.take(O, EP1).is_ok());
        c.put_back(O, None, true);
        assert!(c.is_empty());
        assert_eq!(c.stats().invalidations, 1);
    }

    #[test]
    fn state_codec_round_trips_and_is_canonical() {
        let build = |order: [u32; 5]| {
            let mut c = ParticleCache::new();
            for i in order {
                let particles = vec![particle(f64::from(i)), particle(0.5)];
                c.put_back(
                    ObjectId::new(i),
                    cached(particles, 100 + u64::from(i), EP1),
                    false,
                );
            }
            let hit = c.take(ObjectId::new(0), EP1).ok();
            c.put_back(ObjectId::new(0), hit, false);
            let _ = c.take(ObjectId::new(3), EP2); // invalidating miss
            let _ = c.take(ObjectId::new(99), EP1); // plain miss
            c
        };
        let c = build([0, 3, 16, 17, 40]);
        let mut w = ByteWriter::new();
        c.encode_state(&mut w);
        let bytes = w.into_bytes();

        let mut w2 = ByteWriter::new();
        build([40, 17, 16, 3, 0]).encode_state(&mut w2);
        assert_eq!(bytes, w2.into_bytes(), "encoding is not canonical");

        let mut r = ByteReader::new(&bytes);
        let d = ParticleCache::decode_state(&mut r).unwrap();
        r.finish().unwrap();

        assert_eq!(d.stats(), c.stats());
        assert_eq!(d.len(), 4);
        assert_eq!(d.entry(ObjectId::new(0)), c.entry(ObjectId::new(0)));
        let mut w3 = ByteWriter::new();
        d.encode_state(&mut w3);
        assert_eq!(w3.into_bytes(), bytes);
    }

    #[test]
    fn truncated_cache_state_is_torn_not_a_panic() {
        let mut c = ParticleCache::new();
        c.put_back(O, cached(vec![particle(1.0), particle(2.0)], 9, EP1), false);
        let mut w = ByteWriter::new();
        c.encode_state(&mut w);
        let bytes = w.into_bytes();
        for cut in [0, 3, 11, bytes.len() / 2, bytes.len() - 1] {
            let mut r = ByteReader::new(&bytes[..cut]);
            assert_eq!(
                ParticleCache::decode_state(&mut r).unwrap_err(),
                PersistError::Torn,
                "cut at {cut} not detected"
            );
        }
    }
}

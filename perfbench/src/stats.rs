//! Sample statistics, timing and process helpers.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Latency samples in milliseconds.
#[derive(Debug, Clone, Default)]
pub struct Samples(Vec<f64>);

/// The tail of a sample: the highest percentile that still has at least
/// [`TAIL_BEYOND`] samples above it.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Tail {
    /// The sample value at that rank.
    pub value: f64,
    /// The percentile it sits at (share of samples at or below it × 100).
    pub percentile: f64,
    /// Sample count.
    pub n: usize,
}

/// Samples required beyond the reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

impl Samples {
    pub fn push(&mut self, ms: f64) {
        self.0.push(ms);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The samples in the order they were pushed.
    pub fn as_slice(&self) -> &[f64] {
        &self.0
    }

    pub fn sum(&self) -> f64 {
        self.0.iter().sum()
    }

    fn sorted(&self) -> Vec<f64> {
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        v
    }

    /// The smallest sample (0 when empty).
    pub fn min(&self) -> f64 {
        self.sorted().first().copied().unwrap_or(0.0)
    }

    /// The median (0 when empty).
    pub fn median(&self) -> f64 {
        let v = self.sorted();
        match v.len() {
            0 => 0.0,
            n if n % 2 == 1 => v[n / 2],
            n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
        }
    }

    /// The value with [`TAIL_BEYOND`] samples above it; the maximum (at
    /// percentile 100) when there are too few samples for that.
    pub fn tail(&self) -> Tail {
        let v = self.sorted();
        let n = v.len();
        if n <= TAIL_BEYOND {
            return Tail {
                value: v.last().copied().unwrap_or(0.0),
                percentile: 100.0,
                n,
            };
        }
        let rank = n - TAIL_BEYOND - 1;
        Tail {
            value: v[rank],
            percentile: 100.0 * (rank + 1) as f64 / n as f64,
            n,
        }
    }
}

/// A duration in milliseconds.
pub fn millis(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Runs `f`, returning its value and wall time in milliseconds, or `None`
/// when it panicked (the panic message goes to stderr).
pub fn timed<T>(f: impl FnOnce() -> T) -> Option<(T, f64)> {
    let start = Instant::now();
    let out = catch_unwind(AssertUnwindSafe(f)).ok()?;
    Some((out, millis(start.elapsed())))
}

/// Peak resident set size of this process in MiB, from `/proc`.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// 64-bit FNV-1a, for input and output digests.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub fn value(&self) -> u64 {
        self.0
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// SplitMix64 step: derives independent sub-seeds from the workload seed.
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let mut s = Samples::default();
        for i in 1..=100 {
            s.push(f64::from(i));
        }
        let t = s.tail();
        assert_eq!(t.value, 90.0);
        assert_eq!(t.percentile, 90.0);
        assert_eq!(t.n, 100);
        assert_eq!(s.median(), 50.5);
        assert_eq!(s.min(), 1.0);
    }

    #[test]
    fn tail_of_a_small_sample_is_its_maximum() {
        let mut s = Samples::default();
        for i in 1..=5 {
            s.push(f64::from(i));
        }
        assert_eq!(s.tail().value, 5.0);
        assert_eq!(s.tail().percentile, 100.0);
    }
}

//! Lock-free log-linear histogram over `u64` values.
//!
//! The bucket layout is HDR-style: each power-of-two range (octave) is
//! split into [`SUB`] linear sub-buckets, so the bucket holding a value
//! is never wider than `value / SUB`. That bounds quantile estimates to
//! one bucket width of the exact answer (≤ ~6.25% relative error) while
//! keeping the whole `u64` range in [`NUM_BUCKETS`] buckets (~7.6 KiB of
//! atomics per histogram).

use std::sync::atomic::{AtomicU64, Ordering};

/// Linear sub-buckets per octave (2^SUB_BITS).
const SUB_BITS: u32 = 4;
const SUB: u64 = 1 << SUB_BITS;

/// Total buckets needed to cover all of `u64`:
/// 16 exact buckets for values 0..16, then 16 per octave for octaves
/// 4..=63 (values 16..=u64::MAX).
pub const NUM_BUCKETS: usize = (SUB + (64 - SUB_BITS as u64) * SUB) as usize;

/// The bucket index a value lands in. Values below `SUB` get exact
/// (width-1) buckets; larger values index `(octave, sub-bucket)`.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v < SUB {
        v as usize
    } else {
        let exp = 63 - v.leading_zeros(); // >= SUB_BITS
        let sub = (v >> (exp - SUB_BITS)) & (SUB - 1);
        (SUB as u32 + (exp - SUB_BITS) * SUB as u32 + sub as u32) as usize
    }
}

/// Inclusive `(lower, upper)` value bounds of bucket `i`.
pub fn bucket_bounds(i: usize) -> (u64, u64) {
    debug_assert!(i < NUM_BUCKETS);
    if i < SUB as usize {
        (i as u64, i as u64)
    } else {
        let g = (i - SUB as usize) as u64 / SUB; // octave - SUB_BITS
        let sub = (i as u64 - SUB) % SUB;
        let lower = (SUB + sub) << g;
        let width = 1u64 << g;
        (lower, lower + (width - 1))
    }
}

/// A concurrent log-linear histogram. Recording is one relaxed
/// `fetch_add` per atomic touched; snapshots walk the bucket array.
///
/// Snapshots are not taken atomically with respect to concurrent
/// recorders: a snapshot racing a `record` may see the bucket increment
/// but not yet the count (or vice versa), off by the in-flight samples.
/// Quiescent totals are always exact — no count is ever lost.
#[derive(Debug)]
pub struct Histogram {
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    pub fn new() -> Histogram {
        let buckets: Vec<AtomicU64> = (0..NUM_BUCKETS).map(|_| AtomicU64::new(0)).collect();
        Histogram {
            buckets: buckets.into_boxed_slice(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Record one observation.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// A point-in-time copy of the distribution (non-empty buckets only).
    pub fn snapshot(&self) -> HistSnapshot {
        let mut buckets = Vec::new();
        for (i, b) in self.buckets.iter().enumerate() {
            let n = b.load(Ordering::Relaxed);
            if n > 0 {
                buckets.push((bucket_bounds(i).1, n));
            }
        }
        HistSnapshot {
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
            buckets,
        }
    }
}

/// Point-in-time histogram state: total `count`/`sum`/`max` plus the
/// non-empty buckets as `(inclusive upper bound, count)` pairs in
/// ascending bound order.
#[derive(Debug, Clone, Default)]
pub struct HistSnapshot {
    pub count: u64,
    pub sum: u64,
    pub max: u64,
    pub buckets: Vec<(u64, u64)>,
}

impl HistSnapshot {
    /// The `q`-quantile (`0.0..=1.0`) estimated as the upper bound of the
    /// bucket containing the rank — within one bucket width of exact.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for &(upper, n) in &self.buckets {
            seen += n;
            if seen >= rank {
                return upper.min(self.max);
            }
        }
        self.max
    }

    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_get_exact_buckets() {
        for v in 0..SUB {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_bounds(v as usize), (v, v));
        }
    }

    #[test]
    fn bucket_layout_is_contiguous_and_ordered() {
        // Every bucket's lower bound is the previous bucket's upper + 1,
        // ending exactly at u64::MAX.
        let mut expect_lower = 0u64;
        for i in 0..NUM_BUCKETS {
            let (lo, hi) = bucket_bounds(i);
            assert_eq!(lo, expect_lower, "bucket {i}");
            assert!(hi >= lo);
            expect_lower = hi.wrapping_add(1);
        }
        assert_eq!(expect_lower, 0, "last bucket must end at u64::MAX");
        assert_eq!(bucket_bounds(NUM_BUCKETS - 1).1, u64::MAX);
    }

    #[test]
    fn index_and_bounds_agree_on_edges() {
        for exp in SUB_BITS..64 {
            for v in [1u64 << exp, (1u64 << exp) + 1, (1u64 << exp) - 1] {
                let i = bucket_index(v);
                let (lo, hi) = bucket_bounds(i);
                assert!(lo <= v && v <= hi, "v={v} i={i} bounds=({lo},{hi})");
            }
        }
        assert_eq!(bucket_index(u64::MAX), NUM_BUCKETS - 1);
    }

    #[test]
    fn quantiles_on_a_known_distribution() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 1000);
        assert_eq!(s.sum, 500_500);
        assert_eq!(s.max, 1000);
        // Exact p50 is 500; bucket width there is 32.
        let p50 = s.p50();
        assert!((468..=532).contains(&p50), "p50={p50}");
        let p99 = s.p99();
        assert!((959..=1000).contains(&p99), "p99={p99}");
        assert_eq!(s.quantile(1.0), 1000);
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let s = Histogram::new().snapshot();
        assert_eq!(s.count, 0);
        assert_eq!(s.p50(), 0);
        assert!(s.buckets.is_empty());
    }
}

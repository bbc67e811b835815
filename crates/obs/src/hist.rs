//! Log-bucketed latency histograms.
//!
//! An HdrHistogram-style layout: values below `LINEAR_MAX` (16) are
//! recorded exactly, one bucket per value; above that, each power-of-two
//! octave is split into `SUB` (8) sub-buckets, bounding the relative quantization
//! error at `1/SUB` (12.5%).  All state is `AtomicU64`, so recording is
//! lock-free and a histogram can be shared freely across threads without
//! touching the workspace's tracked lock order.
//!
//! The full `u64` range is representable: 16 exact buckets plus 8
//! sub-buckets for each of the 60 octaves `2^4..2^63` — 496 buckets,
//! ~4 KiB per histogram.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

use crate::metrics::Unit;

/// Values below this are recorded exactly (one bucket per value).
const LINEAR_MAX: u64 = 16;
/// log2 of the sub-buckets per octave.
const SUB_BITS: u32 = 3;
/// Sub-buckets per power-of-two octave.
const SUB: usize = 1 << SUB_BITS;
/// Total bucket count (exact range + 60 octaves of 8).
pub const BUCKETS: usize = LINEAR_MAX as usize + (63 - SUB_BITS as usize) * SUB;

/// Bucket index for a recorded value.  Total and monotone over `u64`.
fn bucket_index(v: u64) -> usize {
    if v < LINEAR_MAX {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros();
    let sub = ((v >> (msb - SUB_BITS)) & (SUB as u64 - 1)) as usize;
    LINEAR_MAX as usize + (msb - SUB_BITS - 1) as usize * SUB + sub
}

/// Smallest value mapping to bucket `i`.
fn bucket_lo(i: usize) -> u64 {
    if i < LINEAR_MAX as usize {
        return i as u64;
    }
    let oct = (i - LINEAR_MAX as usize) / SUB;
    let sub = ((i - LINEAR_MAX as usize) % SUB) as u64;
    let msb = oct as u32 + SUB_BITS + 1;
    (1u64 << msb) + (sub << (msb - SUB_BITS))
}

/// Largest value mapping to bucket `i`.
fn bucket_hi(i: usize) -> u64 {
    if i + 1 < BUCKETS {
        bucket_lo(i + 1) - 1
    } else {
        u64::MAX
    }
}

#[derive(Debug)]
pub(crate) struct HistInner {
    pub(crate) name: String,
    pub(crate) unit: Unit,
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
    min: AtomicU64,
}

/// A shareable, lock-free, mergeable latency histogram handle.
///
/// Cloning is cheap (an `Arc` bump) and all clones record into the same
/// buckets.
#[derive(Debug, Clone)]
pub struct Histogram {
    inner: Arc<HistInner>,
}

impl Histogram {
    pub(crate) fn new(name: &str, unit: Unit) -> Self {
        Histogram {
            inner: Arc::new(HistInner {
                name: name.to_string(),
                unit,
                buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
                count: AtomicU64::new(0),
                sum: AtomicU64::new(0),
                max: AtomicU64::new(0),
                min: AtomicU64::new(u64::MAX),
            }),
        }
    }

    /// Registered name.
    pub fn name(&self) -> &str {
        &self.inner.name
    }

    /// Unit of recorded values.
    pub fn unit(&self) -> Unit {
        self.inner.unit
    }

    /// Record one observation.  Lock-free.
    #[inline]
    pub fn record(&self, v: u64) {
        let i = bucket_index(v);
        if let Some(b) = self.inner.buckets.get(i) {
            b.fetch_add(1, Relaxed);
        }
        self.inner.count.fetch_add(1, Relaxed);
        self.inner.sum.fetch_add(v, Relaxed);
        // A max only rises and a min only falls: a sample that moves
        // neither skips its compare-and-swap loop.
        if v > self.inner.max.load(Relaxed) {
            self.inner.max.fetch_max(v, Relaxed);
        }
        if v < self.inner.min.load(Relaxed) {
            self.inner.min.fetch_min(v, Relaxed);
        }
    }

    /// Observations recorded so far.
    pub fn count(&self) -> u64 {
        self.inner.count.load(Relaxed)
    }

    /// Point-in-time copy of the buckets, for percentiles and merging.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            name: self.inner.name.clone(),
            unit: self.inner.unit,
            count: self.inner.count.load(Relaxed),
            sum: self.inner.sum.load(Relaxed),
            max: self.inner.max.load(Relaxed),
            min: self.inner.min.load(Relaxed),
            buckets: self.inner.buckets.iter().map(|b| b.load(Relaxed)).collect(),
        }
    }
}

/// An immutable copy of a histogram's state: percentile queries and
/// merging happen here, off the hot path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Registered name.
    pub name: String,
    /// Unit of recorded values.
    pub unit: Unit,
    /// Observations recorded.
    pub count: u64,
    /// Sum of recorded values (wrapping on overflow, like the counters).
    pub sum: u64,
    /// Largest recorded value (0 when empty).
    pub max: u64,
    /// Smallest recorded value (`u64::MAX` when empty).
    pub min: u64,
    buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// The value at quantile `q` in `[0, 1]`: the upper edge of the first
    /// bucket whose cumulative count reaches `ceil(q * count)`, clamped
    /// to the exactly-tracked maximum.  Within `1/8` relative error of
    /// the true quantile; monotone in `q`; returns 0 on an empty
    /// histogram.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((q * self.count as f64).ceil() as u64).max(1);
        let mut cum = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            cum += b;
            if cum >= target {
                return bucket_hi(i).min(self.max);
            }
        }
        self.max
    }

    /// Mean of recorded values (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hist() -> Histogram {
        Histogram::new("t", Unit::SimNanos)
    }

    #[test]
    fn bucket_index_is_total_and_bounds_hold() {
        for v in [0u64, 1, 15, 16, 17, 31, 32, 1000, u64::MAX / 2, u64::MAX] {
            let i = bucket_index(v);
            assert!(i < BUCKETS, "index {i} out of range for {v}");
            assert!(bucket_lo(i) <= v && v <= bucket_hi(i), "{v} outside bucket {i}");
        }
    }

    #[test]
    fn small_values_are_exact() {
        let h = hist();
        for v in 0..LINEAR_MAX {
            h.record(v);
        }
        let s = h.snapshot();
        for v in 0..LINEAR_MAX {
            let q = (v + 1) as f64 / LINEAR_MAX as f64;
            assert_eq!(s.percentile(q), v);
        }
    }

    #[test]
    fn percentiles_track_known_distribution() {
        let h = hist();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 1000);
        let p50 = s.percentile(0.50);
        let p99 = s.percentile(0.99);
        assert!((450..=570).contains(&p50), "p50 {p50}");
        assert!((900..=1000).contains(&p99), "p99 {p99}");
        assert_eq!(s.percentile(1.0), 1000);
        assert_eq!(s.max, 1000);
        assert_eq!(s.min, 1);
    }
}

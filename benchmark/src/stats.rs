//! Small exact statistics: order-statistic percentiles, interval unions,
//! an order-sensitive digest and the quartile spread.

/// The `q`-quantile of `sorted` as an exact order statistic: the smallest
/// sample with at least `q` of the population at or below it (nearest
/// rank).  `sorted` must be ascending and non-empty.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Mean of a sample (0 for an empty one).
pub fn mean(samples: &[u64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().map(|&v| v as f64).sum::<f64>() / samples.len() as f64
    }
}

/// Median of a small float sample (0 for an empty one).
pub fn median(samples: &[f64]) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Total length covered by `intervals` (`[start, end)` pairs, any order,
/// overlaps counted once), each clipped to `[lo, hi)`.
pub fn union_len(intervals: &mut Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.retain_mut(|(s, e)| {
        *s = (*s).max(lo);
        *e = (*e).min(hi);
        s < e
    });
    intervals.sort_unstable();
    let mut total = 0;
    let mut covered_to = lo;
    for &(s, e) in intervals.iter() {
        if e > covered_to {
            total += e - s.max(covered_to);
            covered_to = e;
        }
    }
    total
}

/// FNV-1a, order-sensitive: the digest behind `stream_digest` and
/// `sim_digest`.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Fold bytes into the digest.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Fold one integer.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Fold one float by its bit pattern, so "equal digest" means
    /// bit-identical values.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// The digest so far.
    pub fn value(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_an_exact_order_statistic() {
        let s: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&s, 0.5), 500);
        assert_eq!(percentile(&s, 0.99), 990);
        assert_eq!(percentile(&s, 0.999), 999);
        assert_eq!(percentile(&s, 1.0), 1000);
        assert_eq!(percentile(&s, 0.0), 1);
        // Never interpolates: the answer is always a sample.
        assert_eq!(percentile(&[10, 20], 0.5), 10);
        assert_eq!(percentile(&[10, 20], 0.51), 20);
        assert_eq!(percentile(&[7], 0.999), 7);
        // 10 000 samples leave exactly 10 beyond p99.9.
        let s: Vec<u64> = (1..=10_000).collect();
        assert_eq!(s.len() as u64 - percentile(&s, 0.999), 10);
    }

    #[test]
    fn union_counts_overlaps_once_and_clips() {
        // Two overlapping children, one nested, one disjoint, one outside.
        let mut iv = vec![(10, 30), (20, 40), (22, 25), (50, 60), (90, 120)];
        assert_eq!(union_len(&mut iv, 0, 100), 30 + 10 + 10);
        // Clipped on both sides.
        let mut iv = vec![(0, 15), (95, 200)];
        assert_eq!(union_len(&mut iv, 10, 100), 5 + 5);
        // Self time = span minus the union of its children.
        let mut iv = vec![(10, 30), (20, 40)];
        assert_eq!(100 - union_len(&mut iv, 0, 100), 70);
        assert_eq!(union_len(&mut Vec::new(), 0, 100), 0);
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(mean(&[1, 2, 6]), 3.0);
    }

    #[test]
    fn digest_is_order_sensitive() {
        let (mut a, mut b) = (Digest::default(), Digest::default());
        a.u64(1);
        a.u64(2);
        b.u64(2);
        b.u64(1);
        assert_ne!(a.value(), b.value());
        let mut c = Digest::default();
        c.f64(0.0);
        let mut d = Digest::default();
        d.f64(-0.0);
        assert_ne!(c.value(), d.value());
    }
}

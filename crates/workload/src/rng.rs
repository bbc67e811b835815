//! Deterministic keyed random numbers and the key-choice distributions.
//!
//! Every generator of this crate derives from [`KeyedRng`]: a SplitMix64
//! stream whose initial state is the workload seed mixed with an FNV hash
//! of a *stream name*.  Two generators keyed with the same `(seed, name)`
//! pair produce byte-identical streams on every run and every machine —
//! the property the cross-backend determinism tests pin down — while
//! differently named streams (op chooser vs key chooser vs scan-length
//! chooser) are decorrelated without sharing mutable state.

use noftl_core::crash::SplitMix64;

/// 64-bit FNV-1a — the stream-name and key-scramble hash.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A deterministic SplitMix64 stream keyed by `(seed, stream name)`.
#[derive(Debug, Clone)]
pub struct KeyedRng(SplitMix64);

impl KeyedRng {
    /// Derive a stream from the workload `seed` and a `stream` label.
    pub fn new(seed: u64, stream: &str) -> Self {
        // Golden-ratio offset keeps seed 0 / empty-name away from the
        // all-zero state.
        KeyedRng(SplitMix64(seed ^ fnv64(stream.as_bytes()) ^ 0x9e37_79b9_7f4a_7c15))
    }

    /// Uniform draw in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.0.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform draw in `[0, bound)`; `bound` 0 yields 0.
    pub fn below(&mut self, bound: u64) -> u64 {
        // `SplitMix64::below` spends a draw on a bound of 0; this stream
        // does not.
        if bound == 0 {
            return 0;
        }
        // The modulo bias is < 2^-40 for every bound the generators use
        // (record counts are millions at most); not worth a reject loop.
        self.0.below(bound)
    }
}

/// How a workload picks the key of the next operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KeyDistribution {
    /// Every live key equally likely.
    Uniform,
    /// YCSB-style Zipfian with the given `theta` (0 < theta < 1;
    /// YCSB's default is 0.99).  Rank 0 is the hottest key.
    Zipfian {
        /// Skew parameter; larger is more skewed.
        theta: f64,
    },
    /// Zipfian over recency: the most recently inserted key is the
    /// hottest (YCSB workload D's distribution).
    Latest,
}

/// Incremental zeta: `sum_{i=1..n} 1/i^theta`.
fn zeta(n: u64, theta: f64) -> f64 {
    let mut sum = 0.0;
    for i in 1..=n {
        sum += 1.0 / (i as f64).powf(theta);
    }
    sum
}

/// The Gray et al. bounded-Zipfian sampler YCSB uses, over items
/// `0..items` with rank 0 most popular.
#[derive(Debug, Clone)]
pub struct Zipfian {
    items: u64,
    theta: f64,
    zeta_n: f64,
    alpha: f64,
    eta: f64,
}

impl Zipfian {
    /// Build a sampler over `items` items (clamped to >= 1) with skew
    /// `theta` (clamped into (0, 1)).
    pub fn new(items: u64, theta: f64) -> Self {
        let items = items.max(1);
        let theta = theta.clamp(1e-6, 0.999_999);
        let zeta_n = zeta(items, theta);
        let zeta2 = zeta(2, theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / items as f64).powf(1.0 - theta))
            / (1.0 - zeta2 / zeta_n.max(f64::MIN_POSITIVE));
        Zipfian { items, theta, zeta_n, alpha, eta }
    }

    /// Number of items the sampler draws from.
    pub fn items(&self) -> u64 {
        self.items
    }

    /// Probability of the hottest item (rank 0) — `1 / zeta(n, theta)`.
    pub fn top_probability(&self) -> f64 {
        1.0 / self.zeta_n.max(f64::MIN_POSITIVE)
    }

    /// Draw the next rank in `[0, items)`.
    pub fn next(&self, rng: &mut KeyedRng) -> u64 {
        let u = rng.next_f64();
        let uz = u * self.zeta_n;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let rank = (self.items as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        rank.min(self.items - 1)
    }
}

/// A key chooser over a (possibly growing) ordered key space.
#[derive(Debug, Clone)]
pub struct KeyChooser {
    dist: KeyDistribution,
    zipf: Option<Zipfian>,
    rng: KeyedRng,
}

impl KeyChooser {
    /// Build a chooser for `live` initial keys.
    pub fn new(dist: KeyDistribution, live: u64, seed: u64) -> Self {
        let zipf = match dist {
            KeyDistribution::Zipfian { theta } => Some(Zipfian::new(live, theta)),
            // Latest re-ranks by recency with YCSB's default skew.
            KeyDistribution::Latest => Some(Zipfian::new(live, 0.99)),
            KeyDistribution::Uniform => None,
        };
        KeyChooser { dist, zipf, rng: KeyedRng::new(seed, "key-chooser") }
    }

    /// Choose the id of the next key given `live` keys exist (ids
    /// `0..live`, id `live - 1` newest).
    pub fn next(&mut self, live: u64) -> u64 {
        let live = live.max(1);
        match self.dist {
            KeyDistribution::Uniform => self.rng.below(live),
            KeyDistribution::Zipfian { .. } => {
                // The sampler is sized for the initial key count; ranks for
                // later inserts fold back uniformly (YCSB's behavior when
                // the insert fraction is small).
                let z = self.zipf.as_ref().expect("zipfian chooser has a sampler");
                z.next(&mut self.rng) % live
            }
            KeyDistribution::Latest => {
                let z = self.zipf.as_ref().expect("latest chooser has a sampler");
                let rank = z.next(&mut self.rng) % live;
                live - 1 - rank
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keyed_streams_are_deterministic_and_decorrelated() {
        let a: Vec<u64> = {
            let mut r = KeyedRng::new(42, "ops");
            (0..32).map(|_| r.0.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = KeyedRng::new(42, "ops");
            (0..32).map(|_| r.0.next_u64()).collect()
        };
        let c: Vec<u64> = {
            let mut r = KeyedRng::new(42, "keys");
            (0..32).map(|_| r.0.next_u64()).collect()
        };
        assert_eq!(a, b, "same (seed, stream) must replay identically");
        assert_ne!(a, c, "different stream names must decorrelate");
    }

    #[test]
    fn uniform_draws_stay_in_range() {
        let mut r = KeyedRng::new(7, "u");
        for _ in 0..1000 {
            assert!(r.below(10) < 10);
            let f = r.next_f64();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn zipfian_rank0_is_hottest_and_in_range() {
        let z = Zipfian::new(100, 0.99);
        let mut rng = KeyedRng::new(1, "z");
        let mut counts = vec![0u64; 100];
        for _ in 0..20_000 {
            let rank = z.next(&mut rng);
            assert!(rank < 100);
            counts[rank as usize] += 1;
        }
        let max = *counts.iter().max().unwrap();
        assert_eq!(counts[0], max, "rank 0 must be the most frequent");
        assert!(counts[0] > counts[50] * 5, "theta=0.99 must be visibly skewed");
    }

    #[test]
    fn latest_prefers_the_newest_key() {
        let mut chooser = KeyChooser::new(KeyDistribution::Latest, 100, 3);
        let mut newest = 0u64;
        for _ in 0..5_000 {
            if chooser.next(100) == 99 {
                newest += 1;
            }
        }
        assert!(newest > 200, "the newest key must dominate a latest stream ({newest})");
    }
}

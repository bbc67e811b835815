//! Bad-block and endurance modelling.
//!
//! Real NAND ships with a small fraction of factory-bad blocks and each
//! block tolerates only a bounded number of program/erase cycles.  Flash
//! management layers must skip bad blocks and spread erasures (wear
//! leveling); the evaluation of the paper argues that region-aware
//! placement reduces erases and therefore extends device lifetime, so the
//! simulator tracks wear faithfully.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Policy describing initial bad blocks and endurance limits.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BadBlockPolicy {
    /// Fraction of blocks that are factory-bad (typically ≤ 2 %).
    pub factory_bad_fraction: f64,
    /// Program/erase cycles after which an erase fails and the block is
    /// retired.  `u64::MAX` disables endurance failures.
    pub endurance_cycles: u64,
    /// Seed for the deterministic placement of factory-bad blocks.
    pub seed: u64,
}

impl BadBlockPolicy {
    /// No bad blocks, unlimited endurance — the default for functional tests.
    pub fn none() -> Self {
        BadBlockPolicy { factory_bad_fraction: 0.0, endurance_cycles: u64::MAX, seed: 0 }
    }

    /// Decide (deterministically, given the policy seed) which block
    /// indices out of `total_blocks` are factory-bad.
    pub fn factory_bad_blocks(&self, total_blocks: u64) -> Vec<u64> {
        if self.factory_bad_fraction <= 0.0 || total_blocks == 0 {
            return Vec::new();
        }
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut bad = Vec::new();
        for idx in 0..total_blocks {
            if rng.random_range(0.0..1.0) < self.factory_bad_fraction {
                bad.push(idx);
            }
        }
        bad
    }
}

impl Default for BadBlockPolicy {
    fn default() -> Self {
        Self::none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_policy_marks_nothing_bad() {
        let p = BadBlockPolicy::none();
        assert!(p.factory_bad_blocks(10_000).is_empty());
        assert_eq!(p.endurance_cycles, u64::MAX);
    }

    /// 1 % factory-bad blocks, 3 000 P/E cycles.
    fn one_percent() -> BadBlockPolicy {
        BadBlockPolicy { factory_bad_fraction: 0.01, endurance_cycles: 3_000, seed: 0x0bad_b10c }
    }

    #[test]
    fn a_one_percent_policy_marks_roughly_one_percent() {
        let p = one_percent();
        let bad = p.factory_bad_blocks(100_000);
        let frac = bad.len() as f64 / 100_000.0;
        assert!(frac > 0.005 && frac < 0.02, "got fraction {frac}");
    }

    #[test]
    fn factory_bad_blocks_are_deterministic() {
        let p = one_percent();
        assert_eq!(p.factory_bad_blocks(5_000), p.factory_bad_blocks(5_000));
    }

    #[test]
    fn different_seeds_give_different_patterns() {
        let a = BadBlockPolicy { seed: 1, ..one_percent() };
        let b = BadBlockPolicy { seed: 2, ..one_percent() };
        assert_ne!(a.factory_bad_blocks(10_000), b.factory_bad_blocks(10_000));
    }

    #[test]
    fn zero_blocks_edge_case() {
        assert!(one_percent().factory_bad_blocks(0).is_empty());
    }
}

//! Property tests for the log-bucketed histogram: a single value's
//! percentiles and percentile monotonicity.

use proptest::prelude::*;

use noftl_obs::{HistogramSnapshot, MetricsRegistry, Unit};

fn snapshot_of(values: &[u64]) -> HistogramSnapshot {
    let r = MetricsRegistry::new();
    let h = r.histogram("prop.h", Unit::Count);
    for &v in values {
        h.record(v);
    }
    h.snapshot()
}

proptest! {
    /// A single-value histogram counts one value, reports it as both
    /// extremes and returns it at every percentile (the bucket's upper
    /// edge is clamped to the exactly-tracked max).
    #[test]
    fn a_single_value_is_every_percentile(v in any::<u64>()) {
        let s = snapshot_of(&[v]);
        prop_assert_eq!(s.count, 1);
        prop_assert_eq!(s.min, v);
        prop_assert_eq!(s.max, v);
        prop_assert_eq!(s.percentile(0.5), v);
        prop_assert_eq!(s.percentile(1.0), v);
    }

    /// Percentiles are monotone in the quantile and bounded by the true
    /// extremes.
    #[test]
    fn percentiles_are_monotone(
        values in prop::collection::vec(0u64..10_000_000, 1..120),
        raw_qs in prop::collection::vec(0u64..1001, 2..12),
    ) {
        let s = snapshot_of(&values);
        let mut qs: Vec<f64> = raw_qs.iter().map(|&q| q as f64 / 1000.0).collect();
        qs.sort_by(f64::total_cmp);
        let mut last = 0u64;
        for &q in &qs {
            let p = s.percentile(q);
            prop_assert!(p >= last, "p({}) = {} < previous {}", q, p, last);
            last = p;
        }
        let lo = *values.iter().min().expect("non-empty");
        let hi = *values.iter().max().expect("non-empty");
        prop_assert!(s.percentile(1.0) == hi, "p100 must be the exact max");
        prop_assert!(s.percentile(0.0) >= lo, "p0 below the true minimum");
        prop_assert!(s.percentile(0.5) <= hi);
    }
}

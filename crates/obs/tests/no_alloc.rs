//! Instrumentation must stay out of the measured path: a disabled tracer
//! call and every counter and histogram update allocate nothing.
//!
//! Each test registers its handles up front (registration may allocate),
//! then drives the update paths hard in a window of the counting
//! allocator (`tests/common/counting_alloc.rs`, per thread) and asserts
//! it allocated nothing.  CI runs this in `--release`, where the claim matters; the invariant
//! is structural (early return before any argument is materialized), so
//! it holds in debug builds too.

#[path = "../../../tests/common/counting_alloc.rs"]
pub mod counting_alloc;

use counting_alloc::counted;
use noftl_obs::{MetricsRegistry, Unit};

#[test]
fn disabled_tracer_does_not_allocate() {
    let registry = MetricsRegistry::new();
    let tracer = registry.tracer();
    assert!(!tracer.is_enabled());

    let ((), window) = counted(|| {
        for i in 0..10_000u64 {
            tracer.span("na", "span", 0, i, i + 5, &[("pages", i)]);
            tracer.instant("na", "tick", 1, i, &[]);
        }
    });

    assert_eq!(window.allocs, 0, "disabled tracer allocated");
    assert!(tracer.is_empty());
}

#[test]
fn enabled_counters_and_histograms_stay_allocation_free_too() {
    // Counter and histogram updates are pure atomics (only an enabled
    // tracer allocates, for its event payloads).
    let registry = MetricsRegistry::new();
    let counter = registry.counter("na.on.counter");
    let hist = registry.histogram("na.on.hist_ns", Unit::SimNanos);

    let ((), window) = counted(|| {
        for i in 0..10_000u64 {
            counter.inc();
            hist.record(i * 91);
        }
    });

    assert_eq!(window.allocs, 0, "enabled metric update allocated");
    assert_eq!(counter.get(), 10_000);
    assert_eq!(hist.count(), 10_000);
}

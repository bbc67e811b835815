//! Instrumentation must stay out of the measured path: a disabled tracer
//! call and every counter/gauge/histogram update allocate nothing.
//!
//! A counting global allocator wraps `System`; each test registers its
//! handles up front (registration may allocate), then drives the update
//! paths hard and asserts the allocation count did not move.
//! The count is **per thread**: the harness runs the tests of this file
//! (and its own bookkeeping) on parallel threads, and a process-wide
//! counter would charge one test for its neighbour's allocations.
//! CI runs this in `--release`, where the claim matters; the invariant
//! is structural (early return before any argument is materialized), so
//! it holds in debug builds too.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use noftl_obs::{MetricsRegistry, Unit};

struct CountingAlloc;

thread_local! {
    /// Allocations made by the current thread.  Const-initialised and
    /// without a destructor, so touching it from inside the allocator
    /// neither allocates nor runs into thread teardown.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

/// Allocations made so far by the calling thread.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

// SAFETY: every call is forwarded unchanged to `System`; the only addition
// is a thread-local counter bump that does not allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn disabled_tracer_does_not_allocate() {
    let registry = MetricsRegistry::new();
    let tracer = registry.tracer();
    assert!(!tracer.is_enabled());

    let before = allocations();
    for i in 0..10_000u64 {
        tracer.span("na", "span", 0, i, i + 5, &[("pages", i)]);
        tracer.instant("na", "tick", 1, i, &[]);
    }
    let after = allocations();

    assert_eq!(after - before, 0, "disabled tracer allocated");
    assert!(tracer.is_empty());
}

#[test]
fn enabled_counters_and_histograms_stay_allocation_free_too() {
    // Counter, gauge and histogram updates are pure atomics (only an
    // enabled tracer allocates, for its event payloads).
    let registry = MetricsRegistry::new();
    let counter = registry.counter("na.on.counter");
    let gauge = registry.gauge("na.on.gauge");
    let hist = registry.histogram("na.on.hist_ns", Unit::SimNanos);

    let before = allocations();
    for i in 0..10_000u64 {
        counter.inc();
        gauge.set_max(i);
        hist.record(i * 91);
    }
    let after = allocations();

    assert_eq!(after - before, 0, "enabled metric update allocated");
    assert_eq!(counter.get(), 10_000);
    assert_eq!(hist.count(), 10_000);
}

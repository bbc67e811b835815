//! The metrics registry: named counters and histograms.
//!
//! A [`MetricsRegistry`] is a name → handle table.  Registration
//! (`counter`/`histogram`) is the cold path and takes a plain
//! `std::sync::RwLock`; the handles it returns are `Arc`s over atomics,
//! so every *update* is lock-free and never participates in the
//! workspace's tracked lock order (`flash_sim::lockorder`).  An update
//! allocates nothing — the release-mode no-allocation test pins that
//! down.
//!
//! Naming scheme: dotted lowercase `layer.component.metric`, with a unit
//! suffix on time-valued metrics (`flash.op.read.latency_ns`).  Stacks
//! built by `DeviceBuilder` default to a fresh registry per device (so
//! tests and benches stay isolated); pass one `Arc<MetricsRegistry>` to
//! several builders to share it.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, PoisonError, RwLock};

use crate::hist::{Histogram, HistogramSnapshot};
use crate::tracer::Tracer;

/// Unit tag carried by histograms, so exporters and the perf harness
/// know how to scale values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Unit {
    /// Simulated-clock nanoseconds (deterministic across runs).
    SimNanos,
    /// Dimensionless counts (e.g. window occupancy, probe counts).
    Count,
}

impl Unit {
    /// Short tag used in dumps.
    pub fn as_str(self) -> &'static str {
        match self {
            Unit::SimNanos => "sim_ns",
            Unit::Count => "count",
        }
    }
}

/// A monotonically increasing counter handle.
#[derive(Debug, Clone)]
pub struct Counter {
    value: Arc<AtomicU64>,
}

impl Counter {
    /// Add `n`.  Lock-free.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Relaxed);
    }

    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Relaxed)
    }
}

#[derive(Debug, Default)]
struct Tables {
    counters: BTreeMap<String, Counter>,
    hists: BTreeMap<String, Histogram>,
}

/// A registry of named metrics plus an event [`Tracer`].
///
/// Components get-or-register handles by name and keep them; distinct
/// components naming the same metric share the underlying atomics, which
/// is how per-stack aggregation works without any plumbing beyond
/// sharing the `Arc<MetricsRegistry>` itself.
#[derive(Debug)]
pub struct MetricsRegistry {
    tables: RwLock<Tables>,
    tracer: Tracer,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl MetricsRegistry {
    /// An empty registry with tracing off (the tracer has its own
    /// switch; see [`Tracer::set_enabled`]).
    pub fn new() -> Self {
        MetricsRegistry { tables: RwLock::new(Tables::default()), tracer: Tracer::default() }
    }

    /// The registry's event tracer (disabled by default).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Get or register a counter.
    pub fn counter(&self, name: &str) -> Counter {
        if let Some(c) = self.read_tables(|t| t.counters.get(name).cloned()) {
            return c;
        }
        let mut t = self.tables.write().unwrap_or_else(PoisonError::into_inner);
        t.counters
            .entry(name.to_string())
            .or_insert_with(|| Counter { value: Arc::default() })
            .clone()
    }

    /// Get or register a histogram.  The unit is fixed at first
    /// registration; later callers get the existing handle regardless of
    /// the unit they pass.
    pub fn histogram(&self, name: &str, unit: Unit) -> Histogram {
        if let Some(h) = self.read_tables(|t| t.hists.get(name).cloned()) {
            return h;
        }
        let mut t = self.tables.write().unwrap_or_else(PoisonError::into_inner);
        t.hists.entry(name.to_string()).or_insert_with(|| Histogram::new(name, unit)).clone()
    }

    fn read_tables<R>(&self, f: impl FnOnce(&Tables) -> R) -> R {
        let t = self.tables.read().unwrap_or_else(PoisonError::into_inner);
        f(&t)
    }

    /// Point-in-time copy of every registered metric, name-sorted.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.read_tables(|t| MetricsSnapshot {
            counters: t.counters.iter().map(|(n, c)| (n.clone(), c.get())).collect(),
            histograms: t.hists.values().map(Histogram::snapshot).collect(),
        })
    }
}

/// An immutable, mergeable copy of a registry's metrics.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// `(name, value)` for every counter, name-sorted.
    pub counters: Vec<(String, u64)>,
    /// Every histogram, name-sorted.
    pub histograms: Vec<HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Counter value by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|h| h.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_roundtrip() {
        let r = MetricsRegistry::new();
        let c = r.counter("a.b");
        c.inc();
        c.add(4);
        assert_eq!(r.counter("a.b").get(), 5);
    }

    #[test]
    fn snapshot_is_name_sorted_and_queryable() {
        let r = MetricsRegistry::new();
        r.counter("z.last").add(1);
        r.counter("a.first").add(2);
        r.histogram("m.h", Unit::SimNanos).record(100);
        let s = r.snapshot();
        assert_eq!(s.counters[0].0, "a.first");
        assert_eq!(s.counter("z.last"), Some(1));
        assert_eq!(s.histogram("m.h").map(|h| h.count), Some(1));
        assert!(s.histogram("missing").is_none());
    }
}

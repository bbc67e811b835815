//! # noftl-obs — observability substrate for the NoFTL workspace
//!
//! The paper's argument is quantitative — per-region I/O behaviour, GC
//! interference, die utilisation — so the workspace needs one substrate
//! every layer can record into.  This crate provides it:
//!
//! * [`MetricsRegistry`] — named [`Counter`]s, [`Gauge`]s and
//!   log-bucketed latency [`Histogram`]s (p50/p90/p99/p999 + max,
//!   mergeable, in simulated- or wall-clock units);
//! * [`Tracer`] — a bounded ring of typed span/instant [`TraceEvent`]s,
//!   exportable as Chrome `trace_event` JSON
//!   ([`Tracer::to_chrome_json`]) and validated by
//!   [`validate_chrome_trace`];
//! * [`dump`] — Prometheus text exposition and human-readable tables.
//!
//! Design constraints, both load-bearing:
//!
//! * **Pure std, atomics-only hot path.**  Updating any handle is a
//!   relaxed atomic; nothing here acquires a `flash_sim::lockorder`
//!   tracked lock, so instrumentation can be inserted inside any shard
//!   without touching the documented lock order.  (The tracer's ring
//!   mutex and the registry's registration lock are plain-`std` leaf
//!   locks on cold paths only.)
//! * **Free when off.**  A disabled registry or tracer costs one relaxed
//!   load per call site and allocates nothing — asserted by the
//!   release-mode no-allocation test in `tests/no_alloc.rs`.
//!
//! Naming scheme (see the README's Observability section):
//! `layer.component.metric`, e.g. `flash.op.read.latency_ns`,
//! `core.placement.probes_total`, `kv.put.latency_ns`.

#![warn(missing_docs)]

pub mod dump;
pub mod hist;
pub mod json;
pub mod metrics;
pub mod prom;
pub mod tracer;

pub use hist::{Histogram, HistogramSnapshot};
pub use metrics::{global, Counter, Gauge, MetricsRegistry, MetricsSnapshot, Unit};
pub use tracer::{validate_chrome_trace, TraceEvent, Tracer};

/// Wall-clock stopwatch recording into a histogram on drop-free `stop`.
///
/// ```
/// let r = noftl_obs::MetricsRegistry::new();
/// let h = r.histogram("demo.wall_ns", noftl_obs::Unit::WallNanos);
/// let sw = noftl_obs::Stopwatch::start();
/// // ... work ...
/// sw.stop(&h);
/// assert_eq!(h.count(), 1);
/// ```
#[derive(Debug)]
pub struct Stopwatch(std::time::Instant);

impl Stopwatch {
    /// Start timing now.
    pub fn start() -> Self {
        Stopwatch(std::time::Instant::now())
    }

    /// Record the elapsed wall-clock nanoseconds into `hist`.
    pub fn stop(self, hist: &Histogram) {
        let ns = u64::try_from(self.0.elapsed().as_nanos()).unwrap_or(u64::MAX);
        hist.record(ns);
    }
}

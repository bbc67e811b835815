//! # noftl-obs — observability substrate for the NoFTL workspace
//!
//! The paper's argument is quantitative — per-region I/O behaviour, GC
//! interference, die utilisation — so the workspace needs one substrate
//! every layer can record into.  This crate provides it:
//!
//! * [`MetricsRegistry`] — named [`Counter`]s and log-bucketed latency
//!   [`Histogram`]s (p50/p90/p99/p999 + max, mergeable, in simulated
//!   time or plain counts);
//! * [`Tracer`] — a bounded ring of typed span/instant [`TraceEvent`]s,
//!   exportable as Chrome `trace_event` JSON
//!   ([`Tracer::to_chrome_json`]) and validated by
//!   [`validate_chrome_trace`];
//! * [`dump`] — a human-readable table and the Chrome trace, one call each.
//!
//! Design constraints, both load-bearing:
//!
//! * **Pure std, atomics-only hot path.**  Updating any handle is a
//!   relaxed atomic; nothing here acquires a `flash_sim::lockorder`
//!   tracked lock, so instrumentation can be inserted under any layer's
//!   lock without touching the documented lock order.  (The tracer's ring
//!   mutex and the registry's registration lock are plain-`std` leaf
//!   locks on cold paths only.)
//! * **No allocation on update.**  A counter or histogram update
//!   allocates nothing, and a disabled tracer costs one relaxed load per
//!   call site — both asserted by the release-mode no-allocation test in
//!   `tests/no_alloc.rs`.
//!
//! What lives here: distributions, traces and decisions.  A plain count
//! of what a layer did lives in that layer's stats struct
//! (`DeviceStats`, `RegionStats`, `KvStats`, `WalStats`, ...), never
//! also in the registry.
//!
//! Naming scheme (see the README's Observability section):
//! `layer.component.metric`, e.g. `flash.op.read.latency_ns`,
//! `core.placement.probes_total`, `kv.put.latency_ns`.

#![warn(missing_docs)]

pub mod dump;
pub mod hist;
pub mod json;
pub mod metrics;
pub mod tracer;

pub use hist::{Histogram, HistogramSnapshot};
pub use metrics::{Counter, MetricsRegistry, MetricsSnapshot, Unit};
pub use tracer::{validate_chrome_trace, TraceEvent, Tracer};

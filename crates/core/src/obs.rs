//! Registry handles pre-bound by the storage manager, flusher and KV
//! store.
//!
//! All handles are registered once at construction (the cold path) so
//! per-operation recording is pure relaxed atomics; a disabled registry
//! reduces every call below to one relaxed load.  `noftl-obs` never
//! touches the tracked lock order, so every recording site here is safe
//! under any combination of manager/die/shared locks.
//!
//! Metric names (see the README's Observability section):
//!
//! * `core.placement.decisions.{round_robin,queue_aware}` — allocations
//!   resolved by each policy;
//! * `core.placement.probes_total` — dies probed before one yielded a
//!   page (1 per allocation when the first choice works);
//! * `core.placement.steered` / `core.placement.steer_delta_total` —
//!   allocations that landed off the round-robin stripe position, and
//!   the summed ring distance of those deflections;
//! * `core.flush.window_occupancy` — in-flight depth of the windowed
//!   write pipeline, sampled at every submission;
//! * `core.flush.window_ns` — issue→drain latency of whole windows;
//! * `core.read.window_occupancy` / `core.read.window_ns` — the same two
//!   views of the windowed *read* pipeline (KV and B+-tree scans);
//! * `core.gc.{runs,pages_moved,blocks_erased}` — GC activity;
//! * `core.checkpoint.{count,pages}` / `core.checkpoint.latency_ns` — the
//!   region-metadata journal: completed checkpoints, the chunk pages they
//!   programmed, and issue→durable latency of each;
//! * `core.flusher.{batches,pages}` / `core.flusher.inflight_hwm` — the
//!   background flusher's batch counters and window high-water mark;
//! * `kv.put.latency_ns`, `kv.flush.latency_ns`, `kv.compact.latency_ns`
//!   and `kv.{flushes,compactions}` — LSM store activity;
//! * `kv.get.{run_probes,bloom_skips,page_reads}` — the point-read path:
//!   runs whose key range covered a get's key, those of them the run's
//!   Bloom filter ruled out, and the run pages actually read (one per
//!   remaining probe, so `page_reads = run_probes - bloom_skips`).
//!
//! Tracer track IDs: flash dies use their die index (see
//! `flash-sim`); host-side spans use fixed tracks `100` (KV),
//! `103` (flush windows) so they render as separate rows in the Chrome
//! trace viewer.

use std::sync::Arc;

use noftl_obs::{Counter, Gauge, Histogram, MetricsRegistry, Unit};

use flash_sim::SimTime;

use crate::placement::PlacementPolicyKind;

/// Tracer track for KV store spans.
pub(crate) const TRACK_KV: u64 = 100;
/// Tracer track for windowed-flush spans.
pub(crate) const TRACK_FLUSH: u64 = 103;

/// The two histograms and the tracer span one direction of the windowed
/// pipeline records into.  Reads and writes each own one, so scan/merge
/// read windows never skew the write-flush latency distribution.
#[derive(Debug)]
pub(crate) struct WindowObs {
    registry: Arc<MetricsRegistry>,
    occupancy: Histogram,
    window_ns: Histogram,
    category: &'static str,
    span: &'static str,
}

impl WindowObs {
    fn new(registry: &Arc<MetricsRegistry>, category: &'static str, span: &'static str) -> Self {
        WindowObs {
            occupancy: registry.histogram(&format!("{category}.window_occupancy"), Unit::Count),
            window_ns: registry.histogram(&format!("{category}.window_ns"), Unit::SimNanos),
            registry: Arc::clone(registry),
            category,
            span,
        }
    }

    /// Sample the pipeline's in-flight depth at one submission instant.
    pub(crate) fn note_occupancy(&self, inflight: u64) {
        self.occupancy.record(inflight);
    }

    /// Record a completed window: issue→drain latency plus a tracer span
    /// on the flush track.
    pub(crate) fn note_done(&self, pages: u64, issued: SimTime, done: SimTime) {
        self.window_ns.record(done.since(issued).as_nanos());
        self.registry.tracer().span(
            self.category,
            self.span,
            TRACK_FLUSH,
            issued.as_nanos(),
            done.as_nanos(),
            &[("pages", pages)],
        );
    }
}

/// Handles the storage manager records into on allocation, GC,
/// checkpoints, windowed I/O and background flushes.
#[derive(Debug)]
pub(crate) struct CoreObs {
    registry: Arc<MetricsRegistry>,
    decisions_rr: Counter,
    decisions_qa: Counter,
    probes_total: Counter,
    steered: Counter,
    steer_delta_total: Counter,
    /// `core.flush.window_*`: the windowed write pipeline.
    pub(crate) flush_window: WindowObs,
    /// `core.read.window_*`: the windowed read pipeline.
    pub(crate) read_window: WindowObs,
    gc_runs: Counter,
    gc_pages_moved: Counter,
    gc_blocks_erased: Counter,
    checkpoints: Counter,
    checkpoint_pages: Counter,
    checkpoint_latency: Histogram,
    flusher_batches: Counter,
    flusher_pages: Counter,
    flusher_inflight_hwm: Gauge,
}

impl CoreObs {
    pub(crate) fn new(registry: Arc<MetricsRegistry>) -> Self {
        CoreObs {
            decisions_rr: registry.counter("core.placement.decisions.round_robin"),
            decisions_qa: registry.counter("core.placement.decisions.queue_aware"),
            probes_total: registry.counter("core.placement.probes_total"),
            steered: registry.counter("core.placement.steered"),
            steer_delta_total: registry.counter("core.placement.steer_delta_total"),
            flush_window: WindowObs::new(&registry, "core.flush", "write_window"),
            read_window: WindowObs::new(&registry, "core.read", "read_window"),
            gc_runs: registry.counter("core.gc.runs"),
            gc_pages_moved: registry.counter("core.gc.pages_moved"),
            gc_blocks_erased: registry.counter("core.gc.blocks_erased"),
            checkpoints: registry.counter("core.checkpoint.count"),
            checkpoint_pages: registry.counter("core.checkpoint.pages"),
            checkpoint_latency: registry.histogram("core.checkpoint.latency_ns", Unit::SimNanos),
            flusher_batches: registry.counter("core.flusher.batches"),
            flusher_pages: registry.counter("core.flusher.pages"),
            flusher_inflight_hwm: registry.gauge("core.flusher.inflight_hwm"),
            registry,
        }
    }

    pub(crate) fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    /// Record one successful page allocation: which policy decided, how
    /// many dies were probed, and how far off the round-robin stripe
    /// position (`expected`) the chosen die landed.
    pub(crate) fn note_allocation(
        &self,
        kind: PlacementPolicyKind,
        probes: u64,
        chosen: usize,
        expected: usize,
        die_count: usize,
    ) {
        match kind {
            PlacementPolicyKind::RoundRobin => self.decisions_rr.inc(),
            PlacementPolicyKind::QueueAware => self.decisions_qa.inc(),
        }
        self.probes_total.add(probes);
        if chosen != expected && die_count > 0 {
            self.steered.inc();
            let delta = (chosen + die_count - expected) % die_count;
            self.steer_delta_total.add(delta as u64);
        }
    }

    /// Record one GC invocation on a die: pages relocated via copyback
    /// and blocks reclaimed, plus a tracer instant on the die's track.
    pub(crate) fn note_gc(
        &self,
        die_track: u64,
        pages_moved: u64,
        blocks_erased: u64,
        at: SimTime,
    ) {
        self.gc_runs.inc();
        self.gc_pages_moved.add(pages_moved);
        self.gc_blocks_erased.add(blocks_erased);
        self.registry.tracer().instant(
            "core.gc",
            "gc",
            die_track,
            at.as_nanos(),
            &[("pages_moved", pages_moved), ("blocks_erased", blocks_erased)],
        );
    }

    /// Record one completed checkpoint of `pages` chunk pages.
    pub(crate) fn note_checkpoint(&self, pages: u64, issued: SimTime, done: SimTime) {
        self.checkpoints.inc();
        self.checkpoint_pages.add(pages);
        self.checkpoint_latency.record(done.since(issued).as_nanos());
    }

    /// Record one background-flusher batch.
    pub(crate) fn note_flusher_batch(&self, pages: u64, inflight_hwm: u64) {
        self.flusher_batches.inc();
        self.flusher_pages.add(pages);
        self.flusher_inflight_hwm.set_max(inflight_hwm);
    }
}

/// Handles the KV store records into on puts, gets, memtable flushes and
/// compactions.
#[derive(Debug)]
pub(crate) struct KvObs {
    registry: Arc<MetricsRegistry>,
    /// `kv.get.page_reads`: run pages read by gets.
    pub(crate) get_page_reads: Counter,
    /// `kv.get.run_probes`: runs whose key range covered a get's key.
    pub(crate) get_run_probes: Counter,
    /// `kv.get.bloom_skips`: probed runs the filter ruled out.
    pub(crate) get_bloom_skips: Counter,
    put_latency: Histogram,
    flush_latency: Histogram,
    compact_latency: Histogram,
    flushes: Counter,
    compactions: Counter,
}

impl KvObs {
    pub(crate) fn new(registry: Arc<MetricsRegistry>) -> Self {
        KvObs {
            get_page_reads: registry.counter("kv.get.page_reads"),
            get_run_probes: registry.counter("kv.get.run_probes"),
            get_bloom_skips: registry.counter("kv.get.bloom_skips"),
            put_latency: registry.histogram("kv.put.latency_ns", Unit::SimNanos),
            flush_latency: registry.histogram("kv.flush.latency_ns", Unit::SimNanos),
            compact_latency: registry.histogram("kv.compact.latency_ns", Unit::SimNanos),
            flushes: registry.counter("kv.flushes"),
            compactions: registry.counter("kv.compactions"),
            registry,
        }
    }

    /// Record one `put` end to end (`at` if it stayed in the memtable).
    pub(crate) fn note_put(&self, issued: SimTime, done: SimTime) {
        self.put_latency.record(done.since(issued).as_nanos());
    }

    /// Record one memtable flush as a histogram sample and tracer span.
    pub(crate) fn note_flush(&self, entries: u64, issued: SimTime, done: SimTime) {
        self.flushes.inc();
        self.flush_latency.record(done.since(issued).as_nanos());
        self.registry.tracer().span(
            "kv",
            "memtable_flush",
            TRACK_KV,
            issued.as_nanos(),
            done.as_nanos(),
            &[("entries", entries)],
        );
    }

    /// Record one level compaction as a histogram sample and tracer span.
    pub(crate) fn note_compact(&self, level: u64, issued: SimTime, done: SimTime) {
        self.compactions.inc();
        self.compact_latency.record(done.since(issued).as_nanos());
        self.registry.tracer().span(
            "kv",
            "compaction",
            TRACK_KV,
            issued.as_nanos(),
            done.as_nanos(),
            &[("level", level)],
        );
    }
}

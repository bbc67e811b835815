//! Registry handles pre-bound by the storage manager and KV store.
//!
//! All handles are registered once at construction (the cold path) so
//! per-operation recording is pure relaxed atomics.  `noftl-obs` never
//! touches the tracked lock order, so every recording site here is safe
//! under any combination of manager and device locks.  GC runs and
//! copybacks are counted in `RegionStats`, flushes, compactions and the
//! get path's probes in `KvStats`; nothing here counts them again.
//!
//! Metric names (see the README's Observability section):
//!
//! * `core.placement.allocations` — pages handed out by the region
//!   allocator;
//! * `core.placement.probes_total` — dies probed before one yielded a
//!   page (1 per allocation when the stripe position works, so
//!   `probes_total - allocations` full dies were skipped);
//! * `core.placement.steered` — allocations that skipped at least one
//!   full die and so landed off the stripe position;
//! * `core.flush.window_occupancy` — in-flight depth of `NoFtl::execute`'s
//!   pipeline, sampled at every write it submits;
//! * `core.flush.window_ns` — issue→drain latency of every `execute`
//!   with writes (WAL forces, buffer flushes, KV run writes);
//! * `core.read.window_occupancy` / `core.read.window_ns` — the same two
//!   views of every `execute`'s reads (KV scans, merges and tail reads);
//! * `core.gc.step_pages` — copybacks one allocation on a collecting die
//!   paid for before its own program (the maximum is the GC stall bound);
//! * `core.gc.forced_steps` — allocations whose die a step left without a
//!   single free block, and which repeated the step until it had one (the
//!   only ones the quantum does not bound);
//! * `core.checkpoint.{count,pages}` / `core.checkpoint.latency_ns` — the
//!   region-metadata journal: completed checkpoints, the chunk pages they
//!   programmed, and issue→durable latency of each;
//! * `kv.put.latency_ns`, `kv.flush.latency_ns`, `kv.compact.latency_ns`
//!   — LSM store latencies.
//!
//! Tracer track IDs: flash dies use their die index (see
//! `flash-sim`); host-side spans use fixed tracks `100` (KV),
//! `103` (flush windows) so they render as separate rows in the Chrome
//! trace viewer.

use std::sync::Arc;

use noftl_obs::{Counter, Histogram, MetricsRegistry, Unit};

use flash_sim::SimTime;

/// Tracer track for KV store spans.
pub(crate) const TRACK_KV: u64 = 100;
/// Tracer track for windowed-flush spans.
pub(crate) const TRACK_FLUSH: u64 = 103;

/// The two histograms and the tracer span one direction of
/// `NoFtl::execute`'s pipeline records into.  Reads and writes each own
/// one, so scan/merge read windows never skew the write-flush latency
/// distribution.
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
/// checkpoints and windowed I/O.
#[derive(Debug)]
pub(crate) struct CoreObs {
    registry: Arc<MetricsRegistry>,
    allocations: Counter,
    probes_total: Counter,
    steered: Counter,
    /// `core.flush.window_*`: the writes of every `execute`.
    pub(crate) flush_window: WindowObs,
    /// `core.read.window_*`: the reads of every `execute`.
    pub(crate) read_window: WindowObs,
    gc_step_pages: Histogram,
    gc_forced_steps: Counter,
    checkpoints: Counter,
    checkpoint_pages: Counter,
    checkpoint_latency: Histogram,
}

impl CoreObs {
    pub(crate) fn new(registry: Arc<MetricsRegistry>) -> Self {
        CoreObs {
            allocations: registry.counter("core.placement.allocations"),
            probes_total: registry.counter("core.placement.probes_total"),
            steered: registry.counter("core.placement.steered"),
            flush_window: WindowObs::new(&registry, "core.flush", "write_window"),
            read_window: WindowObs::new(&registry, "core.read", "read_window"),
            gc_step_pages: registry.histogram("core.gc.step_pages", Unit::Count),
            gc_forced_steps: registry.counter("core.gc.forced_steps"),
            checkpoints: registry.counter("core.checkpoint.count"),
            checkpoint_pages: registry.counter("core.checkpoint.pages"),
            checkpoint_latency: registry.histogram("core.checkpoint.latency_ns", Unit::SimNanos),
            registry,
        }
    }

    pub(crate) fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    /// Record one successful page allocation that probed `probes` dies
    /// (1 = the stripe position yielded the page).
    pub(crate) fn note_allocation(&self, probes: u64) {
        self.allocations.inc();
        self.probes_total.add(probes);
        if probes > 1 {
            self.steered.inc();
        }
    }

    /// Record the GC work one allocation paid for on a collecting die.
    pub(crate) fn note_gc_step(&self, pages_moved: u64, forced: bool) {
        self.gc_step_pages.record(pages_moved);
        if forced {
            self.gc_forced_steps.inc();
        }
    }

    /// Trace one collected (and erased) victim as an instant on its die's
    /// track, with the pages it relocated via copyback.
    pub(crate) fn note_gc(&self, die_track: u64, pages_moved: u64, at: SimTime) {
        self.registry.tracer().instant(
            "core.gc",
            "gc",
            die_track,
            at.as_nanos(),
            &[("pages_moved", pages_moved)],
        );
    }

    /// Record one completed checkpoint of `pages` chunk pages.
    pub(crate) fn note_checkpoint(&self, pages: u64, issued: SimTime, done: SimTime) {
        self.checkpoints.inc();
        self.checkpoint_pages.add(pages);
        self.checkpoint_latency.record(done.since(issued).as_nanos());
    }
}

/// Handles the KV store records into on puts, memtable flushes and
/// compactions.
#[derive(Debug)]
pub(crate) struct KvObs {
    registry: Arc<MetricsRegistry>,
    put_latency: Histogram,
    flush_latency: Histogram,
    compact_latency: Histogram,
}

impl KvObs {
    pub(crate) fn new(registry: Arc<MetricsRegistry>) -> Self {
        KvObs {
            put_latency: registry.histogram("kv.put.latency_ns", Unit::SimNanos),
            flush_latency: registry.histogram("kv.flush.latency_ns", Unit::SimNanos),
            compact_latency: registry.histogram("kv.compact.latency_ns", Unit::SimNanos),
            registry,
        }
    }

    /// Record one `put` end to end (`at` if it stayed in the memtable).
    pub(crate) fn note_put(&self, issued: SimTime, done: SimTime) {
        self.put_latency.record(done.since(issued).as_nanos());
    }

    /// Record one memtable flush as a histogram sample and tracer span.
    pub(crate) fn note_flush(&self, entries: u64, issued: SimTime, done: SimTime) {
        self.note(&self.flush_latency, "memtable_flush", ("entries", entries), (issued, done));
    }

    /// Record one compaction — a flush that merged runs, its run landing
    /// at `level` — as a histogram sample and tracer span.
    pub(crate) fn note_compact(&self, level: u64, issued: SimTime, done: SimTime) {
        self.note(&self.compact_latency, "compaction", ("level", level), (issued, done));
    }

    /// Record `issued → done` into `latency` and as span `name` carrying
    /// `arg` on the KV track.
    fn note(
        &self,
        latency: &Histogram,
        name: &'static str,
        arg: (&'static str, u64),
        (issued, done): (SimTime, SimTime),
    ) {
        latency.record(done.since(issued).as_nanos());
        let (issued, done) = (issued.as_nanos(), done.as_nanos());
        self.registry.tracer().span("kv", name, TRACK_KV, issued, done, &[arg]);
    }
}

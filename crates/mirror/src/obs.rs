//! Registry handles pre-bound by the mirror (cold-path registration,
//! atomics-only updates — same discipline as `flash_sim`'s obs module).
//!
//! Metric names:
//!
//! * `mirror.child<i>.{reads,programs,write_skips}` — per-child I/O
//!   counters (a write skip is a program recorded in the child's dirty
//!   set instead of submitted);
//! * `mirror.child_faults` — health transitions into `Faulted`;
//! * `mirror.read.latency_ns` / `mirror.read.degraded_latency_ns` —
//!   mirrored read latency, split by whether the full replica set was
//!   available;
//! * `mirror.rebuild.copy_ns` — per-segment rebuild copy latency.
//!
//! A rebuild's progress is no metric: the dirty set is
//! [`MirrorDevice::dirty_segments`](crate::MirrorDevice::dirty_segments)
//! and what a run copied its
//! [`RebuildReport`](crate::RebuildReport).
//!
//! Trace events land on [`TRACK_MIRROR`]: an instant per child fault and
//! a `mirror.degraded` span covering each child's fault → back-online
//! window.

use std::sync::Arc;

use noftl_obs::{Counter, Histogram, MetricsRegistry, Unit};

use flash_sim::SimTime;

/// Tracer track for mirror health and rebuild events (KV uses 100, the
/// flush pipeline 103).
pub const TRACK_MIRROR: u64 = 110;

#[derive(Debug)]
struct ChildObs {
    reads: Counter,
    programs: Counter,
    write_skips: Counter,
}

/// Pre-bound metric handles for one mirror.
#[derive(Debug)]
pub(crate) struct MirrorObs {
    registry: Arc<MetricsRegistry>,
    children: Vec<ChildObs>,
    faults: Counter,
    read_latency: Histogram,
    degraded_read_latency: Histogram,
    rebuild_copy: Histogram,
}

impl MirrorObs {
    pub(crate) fn new(registry: Arc<MetricsRegistry>, children: usize) -> Self {
        let per_child = (0..children)
            .map(|i| ChildObs {
                reads: registry.counter(&format!("mirror.child{i}.reads")),
                programs: registry.counter(&format!("mirror.child{i}.programs")),
                write_skips: registry.counter(&format!("mirror.child{i}.write_skips")),
            })
            .collect();
        MirrorObs {
            faults: registry.counter("mirror.child_faults"),
            read_latency: registry.histogram("mirror.read.latency_ns", Unit::SimNanos),
            degraded_read_latency: registry
                .histogram("mirror.read.degraded_latency_ns", Unit::SimNanos),
            rebuild_copy: registry.histogram("mirror.rebuild.copy_ns", Unit::SimNanos),
            children: per_child,
            registry,
        }
    }

    pub(crate) fn note_read(&self, child: usize, degraded: bool, issued: SimTime, done: SimTime) {
        if let Some(c) = self.children.get(child) {
            c.reads.inc();
        }
        let ns = done.as_nanos().saturating_sub(issued.as_nanos());
        self.read_latency.record(ns);
        if degraded {
            self.degraded_read_latency.record(ns);
        }
    }

    pub(crate) fn note_program(&self, child: usize) {
        if let Some(c) = self.children.get(child) {
            c.programs.inc();
        }
    }

    pub(crate) fn note_write_skip(&self, child: usize) {
        if let Some(c) = self.children.get(child) {
            c.write_skips.inc();
        }
    }

    pub(crate) fn note_fault(&self, child: usize, at: SimTime) {
        self.faults.inc();
        self.registry.tracer().instant(
            "mirror",
            "mirror.child_faulted",
            TRACK_MIRROR,
            at.as_nanos(),
            &[("child", child as u64)],
        );
    }

    /// A child returned to `Online`: close its degraded-mode span.
    pub(crate) fn note_back_online(&self, child: usize, faulted_at: SimTime, online_at: SimTime) {
        self.registry.tracer().span(
            "mirror",
            "mirror.degraded",
            TRACK_MIRROR,
            faulted_at.as_nanos(),
            online_at.as_nanos(),
            &[("child", child as u64)],
        );
    }

    pub(crate) fn note_segment_copied(&self, copy_ns: u64) {
        self.rebuild_copy.record(copy_ns);
    }
}

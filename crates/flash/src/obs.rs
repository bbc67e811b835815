//! Registry handles pre-bound by the device.
//!
//! All handles are registered once at construction (the cold path) so
//! the per-operation cost is pure atomics — `noftl-obs` never touches
//! the tracked lock order.  Command counts, busy time, the queue-depth
//! high-water mark and the quiesce instant are not here: they live in
//! the device's `DeviceStats`, its `DieStats` and `quiesce_time()`.
//!
//! Metric names (see the README's Observability section):
//!
//! * `flash.op.<kind>.latency_ns` — issue→complete latency per native
//!   command, the revived `Scheduled::latency`; with the tracer on, the
//!   same interval is a `flash.op` span on the die's track (a rejected
//!   command is an `error` instant there);
//! * `flash.timeline.clamped` — reservations issued below the floor of a
//!   die's or channel's bounded occupancy history (0 on every committed
//!   workload; non-zero means completions may be pessimistic);
//! * `flash.arbiter.*` — arbiter decisions on arbiter-enabled devices:
//!   `class.<class>.ops` admissions per class, `deferred`/`deferral_ns`
//!   budget deferrals, `aging_capped` deferrals clipped by the
//!   anti-starvation bound, `backfills` transfers that landed before
//!   their channel's last reserved end.

use std::sync::Arc;

use noftl_obs::{Counter, Histogram, MetricsRegistry, Unit};

use crate::addr::DieId;
use crate::arbiter::ServiceClass;
use crate::command::OpKind;
use crate::sched::Scheduled;
use crate::time::SimTime;

/// Handles the device records into on every native command.
#[derive(Debug)]
pub(crate) struct DeviceObs {
    registry: Arc<MetricsRegistry>,
    latency: Vec<Histogram>,
    clamped: Counter,
}

impl DeviceObs {
    pub(crate) fn new(registry: Arc<MetricsRegistry>) -> Self {
        let latency = OpKind::ALL
            .iter()
            .map(|k| {
                registry.histogram(&format!("flash.op.{}.latency_ns", k.name()), Unit::SimNanos)
            })
            .collect();
        let clamped = registry.counter("flash.timeline.clamped");
        DeviceObs { registry, latency, clamped }
    }

    pub(crate) fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    /// Record one completed native command: its latency sample and — the
    /// one place a command is traced, however many backends are stacked
    /// above the device — a span on the die's track.
    pub(crate) fn note_op(&self, kind: OpKind, die: DieId, sched: &Scheduled, at: SimTime) {
        if let Some(h) = self.latency.get(kind as usize) {
            h.record(sched.latency(at).as_nanos());
        }
        let clamped = [Some(sched.array), sched.bus].iter().flatten().filter(|s| s.clamped).count();
        if clamped > 0 {
            self.clamped.add(clamped as u64);
        }
        self.registry.tracer().span(
            "flash.op",
            kind.name(),
            u64::from(die.0),
            at.as_nanos(),
            sched.complete.as_nanos(),
            &[],
        );
    }

    /// Trace one rejected command as an instant on its die's track
    /// (`DeviceStats::errors` holds the count).
    pub(crate) fn note_error(&self, die: DieId, at: SimTime) {
        self.registry.tracer().instant("flash.op", "error", u64::from(die.0), at.as_nanos(), &[]);
    }
}

/// Handles an arbiter-enabled device records admission decisions into.
#[derive(Debug)]
pub(crate) struct ArbiterObs {
    /// Admissions per service class (slot order).
    pub class_ops: Vec<Counter>,
    /// Transfers deferred by a channel-bandwidth budget.
    pub deferred: Counter,
    /// Total simulated ns of budget deferral.
    pub deferral_ns: Counter,
    /// Deferrals clipped by the anti-starvation aging bound.
    pub aging_capped: Counter,
    /// Transfers that landed before their channel's last reserved end.
    pub backfills: Counter,
}

impl ArbiterObs {
    pub(crate) fn new(registry: &MetricsRegistry) -> Self {
        ArbiterObs {
            class_ops: ServiceClass::ALL
                .iter()
                .map(|c| registry.counter(&format!("flash.arbiter.class.{}.ops", c.name())))
                .collect(),
            deferred: registry.counter("flash.arbiter.deferred"),
            deferral_ns: registry.counter("flash.arbiter.deferral_ns"),
            aging_capped: registry.counter("flash.arbiter.aging_capped"),
            backfills: registry.counter("flash.arbiter.backfills"),
        }
    }

    /// Record one admission of `class`.
    pub(crate) fn note_class(&self, class: ServiceClass) {
        if let Some(c) = self.class_ops.get(class.slot()) {
            c.inc();
        }
    }
}

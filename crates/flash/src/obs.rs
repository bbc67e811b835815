//! Registry handles pre-bound by the device.
//!
//! All handles are registered once at construction (the cold path) so
//! the per-operation cost is pure atomics — `noftl-obs` never touches
//! the tracked lock order, and a disabled registry reduces every call
//! below to one relaxed load.
//!
//! Metric names (see the README's Observability section):
//!
//! * `flash.op.<kind>.latency_ns` — issue→complete latency per native
//!   command, the revived `Scheduled::latency`; with the tracer on, the
//!   same interval is a `flash.op` span on the die's track (a rejected
//!   command is an `error` instant there);
//! * `flash.die<i>.{reads,programs,erases,copybacks}` — per-die op
//!   counters; `flash.die<i>.busy_ns` — the die's cumulative busy time;
//! * `flash.device.quiesce_ns` — latest completion seen so far;
//! * `flash.queue.depth_hwm` — deepest any die queue has been;
//! * `flash.timeline.clamped` — reservations issued below the floor of a
//!   die's or channel's bounded occupancy history (0 on every committed
//!   workload; non-zero means completions may be pessimistic);
//! * `flash.arbiter.*` — arbiter decisions on arbiter-enabled devices:
//!   `class.<class>.ops` admissions per class, `deferred`/`deferral_ns`
//!   budget deferrals, `aging_capped` deferrals clipped by the
//!   anti-starvation bound, `backfills` transfers that landed before
//!   their channel's last reserved end, `exempt` durability ops waved
//!   through.

use std::sync::Arc;

use noftl_obs::{Counter, Gauge, Histogram, MetricsRegistry, Unit};

use crate::addr::DieId;
use crate::arbiter::ServiceClass;
use crate::command::OpKind;
use crate::sched::Scheduled;
use crate::time::SimTime;

/// Every op kind, in slot order.
const OPS: [OpKind; 5] =
    [OpKind::Read, OpKind::Program, OpKind::Erase, OpKind::Copyback, OpKind::MetadataRead];

/// Stable metric-name fragment per op kind.
pub(crate) fn op_name(kind: OpKind) -> &'static str {
    match kind {
        OpKind::Read => "read",
        OpKind::Program => "program",
        OpKind::Erase => "erase",
        OpKind::Copyback => "copyback",
        OpKind::MetadataRead => "metadata_read",
    }
}

fn op_slot(kind: OpKind) -> usize {
    match kind {
        OpKind::Read => 0,
        OpKind::Program => 1,
        OpKind::Erase => 2,
        OpKind::Copyback => 3,
        OpKind::MetadataRead => 4,
    }
}

#[derive(Debug)]
struct DieObs {
    reads: Counter,
    programs: Counter,
    erases: Counter,
    copybacks: Counter,
    busy_ns: Gauge,
}

/// Handles the device records into on every native command.
#[derive(Debug)]
pub(crate) struct DeviceObs {
    registry: Arc<MetricsRegistry>,
    latency: Vec<Histogram>,
    dies: Vec<DieObs>,
    depth_hwm: Gauge,
    quiesce_ns: Gauge,
    clamped: Counter,
}

impl DeviceObs {
    pub(crate) fn new(registry: Arc<MetricsRegistry>, die_count: u32) -> Self {
        let latency = OPS
            .iter()
            .map(|k| {
                registry.histogram(&format!("flash.op.{}.latency_ns", op_name(*k)), Unit::SimNanos)
            })
            .collect();
        let dies = (0..die_count)
            .map(|i| DieObs {
                reads: registry.counter(&format!("flash.die{i}.reads")),
                programs: registry.counter(&format!("flash.die{i}.programs")),
                erases: registry.counter(&format!("flash.die{i}.erases")),
                copybacks: registry.counter(&format!("flash.die{i}.copybacks")),
                busy_ns: registry.gauge(&format!("flash.die{i}.busy_ns")),
            })
            .collect();
        let depth_hwm = registry.gauge("flash.queue.depth_hwm");
        let quiesce_ns = registry.gauge("flash.device.quiesce_ns");
        let clamped = registry.counter("flash.timeline.clamped");
        DeviceObs { registry, latency, dies, depth_hwm, quiesce_ns, clamped }
    }

    pub(crate) fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    /// Record one completed native command: its latency sample, the
    /// per-die counters and — the one place a command is traced, however
    /// many backends are stacked above the device — a span on the die's
    /// track.  `busy_ns` is the executing die's cumulative busy time,
    /// read under the die shard the caller already holds.
    pub(crate) fn note_op(
        &self,
        kind: OpKind,
        die: DieId,
        sched: &Scheduled,
        at: SimTime,
        busy_ns: u64,
    ) {
        if let Some(h) = self.latency.get(op_slot(kind)) {
            h.record(sched.latency(at).as_nanos());
        }
        if let Some(d) = self.dies.get(die.0 as usize) {
            match kind {
                OpKind::Read | OpKind::MetadataRead => d.reads.inc(),
                OpKind::Program => d.programs.inc(),
                OpKind::Erase => d.erases.inc(),
                OpKind::Copyback => d.copybacks.inc(),
            }
            // Busy time is monotone, so max == last-writer without racing.
            d.busy_ns.set_max(busy_ns);
        }
        self.depth_hwm.set_max(u64::from(sched.array.depth));
        self.quiesce_ns.set_max(sched.complete.as_nanos());
        let clamped = [Some(sched.array), sched.bus].iter().flatten().filter(|s| s.clamped).count();
        if clamped > 0 {
            self.clamped.add(clamped as u64);
        }
        self.registry.tracer().span(
            "flash.op",
            op_name(kind),
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
    /// Exempt (durability) ops waved past the budget.
    pub exempt: Counter,
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
            exempt: registry.counter("flash.arbiter.exempt"),
        }
    }

    /// Record one admission of `class`.
    pub(crate) fn note_class(&self, class: ServiceClass) {
        if let Some(c) = self.class_ops.get(class.slot()) {
            c.inc();
        }
    }
}

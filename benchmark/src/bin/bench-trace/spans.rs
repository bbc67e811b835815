//! The span store of a traced run and its aggregation.
//!
//! A span is recorded per measured op and per call across a seam: layer,
//! kind, op, parent, host start/end, simulated issue/completion.  Spans
//! stay in memory; when an op ends they are folded into per-layer self
//! times — a layer's self time is its span minus the union of its child
//! spans, each child clipped to its parent — and only the first
//! [`DUMPED_OPS`] ops keep their spans for the dump.  By construction the
//! layers' self times of an op sum to its latency, on both clocks; the
//! run fails its correctness gate if they ever do not.

use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

use flash_sim::SimTime;
use noftl_benchmark::metrics::Metrics;
use noftl_benchmark::seams::Entry;
use noftl_benchmark::stats::union_len;

/// Ops whose spans are kept for `--spans`.
pub const DUMPED_OPS: usize = 1_000;

/// A half-open interval on one clock, in nanoseconds.
type Interval = (u64, u64);

/// One call across a seam.
#[derive(Debug, Clone, Copy)]
pub struct Call {
    /// What was called (`read`, `program`, `write_batch`, ...).
    pub kind: &'static str,
    /// Index of the storage-seam call this flash call was made under.
    pub parent: Option<usize>,
    /// Host clock.
    pub host: Interval,
    /// Simulated issue and completion.
    pub sim: Interval,
}

struct OpenOp {
    entry: Entry,
    kind: &'static str,
    issue: u64,
    host_start: u64,
    /// dbms -> core calls, in call order.
    storage: Vec<Call>,
    /// core -> flash calls, in call order.
    flash: Vec<Call>,
    /// The storage call in progress, if any.
    in_storage: Option<usize>,
}

/// Self times of the layers on one clock, in nanoseconds.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Split {
    /// dbms: the op minus its storage-seam calls.
    pub dbms: u64,
    /// core: storage-seam calls (or a KV op) minus their flash calls.
    pub core: u64,
    /// flash: the union of the flash calls.
    pub flash: u64,
}

/// Split an op's span `[lo, hi)` among the layers.  `storage` are the
/// spans of its storage-seam calls, `flash` those of its flash calls with
/// the index of the storage call each was made under.
pub fn split(
    entry: Entry,
    lo: u64,
    hi: u64,
    storage: &[Interval],
    flash: &[(Option<usize>, Interval)],
) -> Split {
    let flash_ns = flash_union(lo, hi, storage, flash.iter().copied());
    match entry {
        Entry::Dbms => {
            let below = union_len(&mut storage.to_vec(), lo, hi);
            Split { dbms: (hi - lo) - below, core: below - flash_ns, flash: flash_ns }
        }
        Entry::Kv => Split { dbms: 0, core: (hi - lo) - flash_ns, flash: flash_ns },
    }
}

/// Time within `[lo, hi)` covered by `flash` calls, each counted only
/// while the storage call it was made under (an index into `storage`) runs.
fn flash_union(
    lo: u64,
    hi: u64,
    storage: &[Interval],
    flash: impl Iterator<Item = (Option<usize>, Interval)>,
) -> u64 {
    let mut clipped: Vec<Interval> = flash
        .map(|(parent, (s, e))| match parent.and_then(|p| storage.get(p)) {
            Some(&(ps, pe)) => (s.max(ps), e.min(pe)),
            None => (s, e),
        })
        .collect();
    union_len(&mut clipped, lo, hi)
}

#[derive(Default)]
struct Totals {
    ops: u64,
    latency_sim_ns: u64,
    sim: Split,
    host: Split,
    storage_calls: u64,
    flash_calls: u64,
    /// Simulated flash time by kind: read, program, erase, copyback.
    flash_kind_sim_ns: [u64; 4],
    gc_stall_sim_ns: u64,
    /// Ops whose layer self times did not sum to their latency.
    unbalanced_ops: u64,
}

const FLASH_KINDS: [&str; 4] = ["read", "program", "erase", "copyback"];

#[derive(Default)]
struct State {
    op: Option<OpenOp>,
    totals: Totals,
    dump: String,
}

/// Collects the spans of one traced run.
pub struct Tracer {
    epoch: Instant,
    state: Mutex<State>,
}

impl Tracer {
    /// An empty tracer.  Calls made outside a measured op are not recorded.
    pub fn new() -> Self {
        Tracer { epoch: Instant::now(), state: Mutex::new(State::default()) }
    }

    fn state(&self) -> std::sync::MutexGuard<'_, State> {
        self.state.lock().expect("no thread panics while holding the tracer lock")
    }

    /// Host nanoseconds since the tracer was made.
    pub fn host_now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// An op begins.
    pub fn op_begin(&self, entry: Entry, kind: &'static str, issue: SimTime) {
        let host_start = self.host_now();
        self.state().op = Some(OpenOp {
            entry,
            kind,
            issue: issue.as_nanos(),
            host_start,
            storage: Vec::new(),
            flash: Vec::new(),
            in_storage: None,
        });
    }

    /// A storage-seam call begins: flash calls from here on are its children.
    pub fn storage_enter(&self) {
        if let Some(op) = self.state().op.as_mut() {
            op.in_storage = Some(op.storage.len());
        }
    }

    /// The storage-seam call begun last ended.
    pub fn storage_exit(&self, kind: &'static str, host_start: u64, sim: Interval) {
        let host_end = self.host_now();
        if let Some(op) = self.state().op.as_mut() {
            op.storage.push(Call { kind, parent: None, host: (host_start, host_end), sim });
            op.in_storage = None;
        }
    }

    /// A flash-seam call ended.
    pub fn flash_call(&self, kind: &'static str, host_start: u64, sim: Interval) {
        let host_end = self.host_now();
        let mut state = self.state();
        if let Some(op) = state.op.as_mut() {
            let parent = op.in_storage;
            op.flash.push(Call { kind, parent, host: (host_start, host_end), sim });
        }
    }

    /// The op begun last ended: fold its spans into the totals.
    pub fn op_end(&self, done: SimTime) {
        let host_end = self.host_now();
        let mut state = self.state();
        let Some(op) = state.op.take() else { return };
        let (lo, hi) = (op.issue, done.as_nanos().max(op.issue));
        let on = |clock: fn(&Call) -> Interval| {
            let storage: Vec<Interval> = op.storage.iter().map(clock).collect();
            let flash: Vec<_> = op.flash.iter().map(|c| (c.parent, clock(c))).collect();
            (storage, flash)
        };
        let (storage_sim, flash_sim) = on(|c| c.sim);
        let (storage_host, flash_host) = on(|c| c.host);
        let sim = split(op.entry, lo, hi, &storage_sim, &flash_sim);
        let host = split(op.entry, op.host_start, host_end, &storage_host, &flash_host);

        let index = state.totals.ops as usize;
        if index < DUMPED_OPS {
            let dump = &mut state.dump;
            // `call` numbers the core spans of an op; `parent` is null for
            // the op itself, "op" for its direct children, else a core call.
            let mut line = |layer: &str, c: &Call, call: Option<usize>, parent: &str| {
                let _ = writeln!(
                    dump,
                    "{{\"op\": {index}, \"layer\": \"{layer}\", \"kind\": \"{}\", \"call\": {}, \
                     \"parent\": {parent}, \"host_ns\": [{}, {}], \"sim_ns\": [{}, {}]}}",
                    c.kind,
                    call.map_or("null".to_string(), |i| i.to_string()),
                    c.host.0,
                    c.host.1,
                    c.sim.0,
                    c.sim.1
                );
            };
            let whole = Call {
                kind: op.kind,
                parent: None,
                host: (op.host_start, host_end),
                sim: (lo, hi),
            };
            line("op", &whole, None, "null");
            for (i, c) in op.storage.iter().enumerate() {
                line("core", c, Some(i), "\"op\"");
            }
            for c in &op.flash {
                line("flash", c, None, &c.parent.map_or("\"op\"".to_string(), |p| p.to_string()));
            }
        }

        let t = &mut state.totals;
        t.ops += 1;
        t.latency_sim_ns += hi - lo;
        if sim.dbms + sim.core + sim.flash != hi - lo
            || host.dbms + host.core + host.flash != host_end - op.host_start
        {
            t.unbalanced_ops += 1;
        }
        for (total, part) in [(&mut t.sim, sim), (&mut t.host, host)] {
            total.dbms += part.dbms;
            total.core += part.core;
            total.flash += part.flash;
        }
        t.storage_calls += op.storage.len() as u64;
        t.flash_calls += op.flash.len() as u64;
        let of_kinds = |kinds: &'static [&'static str]| {
            let calls = flash_sim.iter().zip(&op.flash);
            calls.filter(move |(_, c)| kinds.contains(&c.kind)).map(|(f, _)| *f)
        };
        for (slot, kind) in FLASH_KINDS.iter().enumerate() {
            t.flash_kind_sim_ns[slot] +=
                flash_union(lo, hi, &storage_sim, of_kinds(std::slice::from_ref(kind)));
        }
        t.gc_stall_sim_ns += flash_union(lo, hi, &storage_sim, of_kinds(&["erase", "copyback"]));
    }

    /// Correctness gates of the trace itself, in words.
    pub fn problems(&self) -> Vec<String> {
        let state = self.state();
        let mut problems = Vec::new();
        if state.totals.unbalanced_ops > 0 {
            problems.push(format!(
                "{} traced ops whose layer self times do not sum to their latency",
                state.totals.unbalanced_ops
            ));
        }
        if state.totals.ops == 0 {
            problems.push("the traced run recorded no op".into());
        }
        problems
    }

    /// The traced per-layer metrics, per op.
    pub fn metrics(&self) -> Metrics {
        let state = self.state();
        let t = &state.totals;
        let per_op_us = |ns: u64| ns as f64 / 1e3 / t.ops.max(1) as f64;
        let per_op = |n: u64| n as f64 / t.ops.max(1) as f64;
        let mut m = Metrics::new();
        m.insert("flash.calls_per_op".into(), per_op(t.flash_calls));
        m.insert("flash.host_us_per_op".into(), per_op_us(t.host.flash));
        m.insert("flash.sim_us_per_op".into(), per_op_us(t.sim.flash));
        for (slot, kind) in FLASH_KINDS.iter().enumerate() {
            m.insert(format!("flash.sim_us_per_op.{kind}"), per_op_us(t.flash_kind_sim_ns[slot]));
        }
        m.insert("core.calls_per_op".into(), per_op(t.storage_calls));
        m.insert("core.host_self_us_per_op".into(), per_op_us(t.host.core));
        m.insert("core.sim_self_us_per_op".into(), per_op_us(t.sim.core));
        m.insert("core.gc_stall_us_sim_per_op".into(), per_op_us(t.gc_stall_sim_ns));
        m.insert("dbms.host_self_us_per_op".into(), per_op_us(t.host.dbms));
        m.insert("dbms.sim_self_us_per_op".into(), per_op_us(t.sim.dbms));
        m.insert("harness.traced_lat_mean_us_sim".into(), per_op_us(t.latency_sim_ns));
        m
    }

    /// The spans of the first [`DUMPED_OPS`] ops, one JSON object per line.
    pub fn dump(&self) -> String {
        self.state().dump.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_union_of_children() {
        // An op of 100 with two overlapping storage calls covering 10..40,
        // whose flash children overlap each other and one overhangs its
        // parent; one flash call (a late GC erase) ends after the op.
        let storage = [(10, 30), (20, 40), (80, 95)];
        let flash = [
            (Some(0), (12, 20)),
            (Some(0), (15, 35)),  // clipped to its parent: 15..30
            (Some(1), (25, 28)),  // nested in the union already
            (Some(2), (85, 120)), // clipped to its parent: 85..95
        ];
        let s = split(Entry::Dbms, 0, 100, &storage, &flash);
        assert_eq!(s.flash, (30 - 12) + (95 - 85));
        assert_eq!(s.core, (40 - 10) + (95 - 80) - s.flash);
        assert_eq!(s.dbms, 100 - (40 - 10) - (95 - 80));
        assert_eq!(s.dbms + s.core + s.flash, 100);
        // A KV op has no storage seam: what flash does not cover is core's.
        let s =
            split(Entry::Kv, 0, 100, &[], &[(None, (10, 30)), (None, (20, 50)), (None, (90, 130))]);
        assert_eq!(s, Split { dbms: 0, core: 100 - 40 - 10, flash: 50 });
        // An op nothing was called under belongs to the layer it entered.
        assert_eq!(split(Entry::Dbms, 5, 25, &[], &[]), Split { dbms: 20, core: 0, flash: 0 });
    }
}

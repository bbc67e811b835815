//! Bounded ring-buffer event tracer with Chrome `trace_event` export.
//!
//! Layers record typed [`TraceEvent`]s — spans (a named interval on a
//! track) and instants — into a fixed-capacity ring: when full, the
//! oldest events are overwritten, so a long run keeps its tail.
//! Timestamps are simulated-clock nanoseconds, which keeps traces
//! deterministic and replayable.
//!
//! The tracer is **disabled by default** and the enabled check is a
//! relaxed atomic load taken before any argument is materialized, so a
//! disabled tracer allocates nothing (pinned by the no-alloc test).  The
//! ring itself sits behind a plain `std::sync::Mutex` — a leaf lock
//! (nothing is acquired while it is held; a device records its spans
//! under its own lock) that is invisible to the `flash_sim::lockorder`
//! sanitizer by design.
//!
//! Export: [`Tracer::to_chrome_json`] emits the Chrome trace-event JSON
//! array format — load it at `chrome://tracing` or <https://ui.perfetto.dev>.
//! Spans become `"ph":"X"` complete events, instants `"ph":"i"`; the
//! `tid` is the recording track (die id, region id, or 0 for global
//! layers) and `ts`/`dur` are microseconds with nanosecond fractions.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::{Mutex, MutexGuard, PoisonError};

use crate::json;

/// Default ring capacity (events).
pub const DEFAULT_CAPACITY: usize = 65_536;

/// One recorded event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Event name (static so recording never allocates for it).
    pub name: &'static str,
    /// Category (one per layer: `"flash"`, `"core"`, `"dbms"`, `"kv"`).
    pub cat: &'static str,
    /// Track the event renders on (Chrome `tid`): die id, region id, …
    pub track: u64,
    /// Start timestamp, simulated-clock nanoseconds.
    pub ts_ns: u64,
    /// `Some(duration)` for spans, `None` for instant events.
    pub dur_ns: Option<u64>,
    /// Small typed payload (`("pages", 12)`).
    pub args: Vec<(&'static str, u64)>,
}

#[derive(Debug, Default)]
struct Ring {
    events: Vec<TraceEvent>,
    /// Next overwrite position once `events` has reached capacity.
    head: usize,
}

/// The bounded event tracer.  See the module docs.
#[derive(Debug)]
pub struct Tracer {
    enabled: AtomicBool,
    capacity: usize,
    dropped: AtomicU64,
    ring: Mutex<Ring>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_CAPACITY)
    }
}

impl Tracer {
    /// A disabled tracer holding at most `capacity` events (clamped to
    /// at least 1).
    pub fn with_capacity(capacity: usize) -> Self {
        Tracer {
            enabled: AtomicBool::new(false),
            capacity: capacity.max(1),
            dropped: AtomicU64::new(0),
            ring: Mutex::new(Ring::default()),
        }
    }

    /// Turn recording on or off.
    pub fn set_enabled(&self, v: bool) {
        self.enabled.store(v, Relaxed);
    }

    /// Whether recording is on.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Relaxed)
    }

    /// Ring capacity in events.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Events overwritten because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Relaxed)
    }

    /// Record a span covering `[start_ns, end_ns]` (clamped to be
    /// non-negative).  A no-op when disabled.
    #[inline]
    pub fn span(
        &self,
        cat: &'static str,
        name: &'static str,
        track: u64,
        start_ns: u64,
        end_ns: u64,
        args: &[(&'static str, u64)],
    ) {
        if !self.is_enabled() {
            return;
        }
        self.push(TraceEvent {
            name,
            cat,
            track,
            ts_ns: start_ns,
            dur_ns: Some(end_ns.saturating_sub(start_ns)),
            args: args.to_vec(),
        });
    }

    /// Record an instant event.  A no-op when disabled.
    #[inline]
    pub fn instant(
        &self,
        cat: &'static str,
        name: &'static str,
        track: u64,
        ts_ns: u64,
        args: &[(&'static str, u64)],
    ) {
        if !self.is_enabled() {
            return;
        }
        self.push(TraceEvent { name, cat, track, ts_ns, dur_ns: None, args: args.to_vec() });
    }

    /// The ring, locked.  A leaf lock outside the layer order: nothing is
    /// acquired while it is held, so it does not go through the sanitizer.
    #[expect(clippy::disallowed_methods, reason = "a leaf lock the lock order does not cover")]
    fn ring(&self) -> MutexGuard<'_, Ring> {
        self.ring.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn push(&self, e: TraceEvent) {
        let mut ring = self.ring();
        if ring.events.len() < self.capacity {
            ring.events.push(e);
        } else {
            let head = ring.head;
            if let Some(slot) = ring.events.get_mut(head) {
                *slot = e;
            }
            ring.head = (head + 1) % self.capacity;
            self.dropped.fetch_add(1, Relaxed);
        }
    }

    /// Copy out the recorded events, oldest first.
    pub fn events(&self) -> Vec<TraceEvent> {
        let ring = self.ring();
        let mut out = Vec::with_capacity(ring.events.len());
        out.extend_from_slice(ring.events.get(ring.head..).unwrap_or(&[]));
        out.extend_from_slice(ring.events.get(..ring.head).unwrap_or(&[]));
        out
    }

    /// Number of events currently held.
    pub fn len(&self) -> usize {
        self.ring().events.len()
    }

    /// Whether no events have been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Discard all recorded events (the enabled flag is unchanged).
    pub fn clear(&self) {
        let mut ring = self.ring();
        ring.events.clear();
        ring.head = 0;
    }

    /// Render the ring as Chrome `trace_event` JSON:
    /// `{"traceEvents": [...]}` with `ts`/`dur` in microseconds.
    pub fn to_chrome_json(&self) -> String {
        let events = self.events();
        let mut out = String::with_capacity(64 + events.len() * 96);
        out.push_str("{\"traceEvents\": [");
        for (i, e) in events.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n ");
            }
            let ph = if e.dur_ns.is_some() { "X" } else { "i" };
            out.push_str(&format!(
                "{{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"{ph}\", \"ts\": {:.3}, ",
                json::escape(e.name),
                json::escape(e.cat),
                e.ts_ns as f64 / 1_000.0,
            ));
            if let Some(d) = e.dur_ns {
                out.push_str(&format!("\"dur\": {:.3}, ", d as f64 / 1_000.0));
            } else {
                out.push_str("\"s\": \"t\", ");
            }
            out.push_str(&format!("\"pid\": 1, \"tid\": {}", e.track));
            if !e.args.is_empty() {
                out.push_str(", \"args\": {");
                for (j, (k, v)) in e.args.iter().enumerate() {
                    if j > 0 {
                        out.push_str(", ");
                    }
                    out.push_str(&format!("\"{}\": {v}", json::escape(k)));
                }
                out.push('}');
            }
            out.push('}');
        }
        out.push_str("]}\n");
        out
    }
}

/// Validate that `text` parses as Chrome `trace_event` JSON: a top-level
/// object with a `traceEvents` array whose entries carry the required
/// fields (`name`/`cat`/`ph` strings, numeric `ts`/`pid`/`tid`, and a
/// numeric `dur` on every `"X"` event).  Returns the event count.
pub fn validate_chrome_trace(text: &str) -> Result<usize, String> {
    let doc = json::parse(text)?;
    let events = doc
        .get("traceEvents")
        .and_then(json::Json::as_array)
        .ok_or_else(|| "missing top-level traceEvents array".to_string())?;
    for (i, e) in events.iter().enumerate() {
        for key in ["name", "cat", "ph"] {
            if e.get(key).and_then(json::Json::as_str).is_none() {
                return Err(format!("event {i}: missing string field `{key}`"));
            }
        }
        for key in ["ts", "pid", "tid"] {
            if e.get(key).and_then(json::Json::as_f64).is_none() {
                return Err(format!("event {i}: missing numeric field `{key}`"));
            }
        }
        let ph = e.get("ph").and_then(json::Json::as_str).unwrap_or_default();
        if ph == "X" && e.get("dur").and_then(json::Json::as_f64).is_none() {
            return Err(format!("event {i}: complete event without a numeric `dur`"));
        }
    }
    Ok(events.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::default();
        t.span("c", "n", 0, 0, 10, &[]);
        assert!(t.is_empty());
        t.set_enabled(true);
        t.span("c", "n", 0, 0, 10, &[("pages", 2)]);
        t.instant("c", "tick", 1, 5, &[]);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn ring_overwrites_oldest() {
        let t = Tracer::with_capacity(3);
        t.set_enabled(true);
        for i in 0..5u64 {
            t.instant("c", "e", 0, i, &[]);
        }
        let ev = t.events();
        assert_eq!(ev.len(), 3);
        assert_eq!(ev.iter().map(|e| e.ts_ns).collect::<Vec<_>>(), vec![2, 3, 4]);
        assert_eq!(t.dropped(), 2);
    }

    #[test]
    fn chrome_export_validates() {
        let t = Tracer::default();
        t.set_enabled(true);
        t.span("flash", "program", 3, 1_000, 26_000, &[("depth", 4)]);
        t.instant("core", "gc", 0, 30_000, &[]);
        let text = t.to_chrome_json();
        assert_eq!(validate_chrome_trace(&text), Ok(2));
        assert!(text.contains("\"ph\": \"X\""));
        assert!(text.contains("\"dur\": 25.000"));
    }

    #[test]
    fn empty_trace_is_still_valid() {
        let t = Tracer::default();
        assert_eq!(validate_chrome_trace(&t.to_chrome_json()), Ok(0));
    }
}

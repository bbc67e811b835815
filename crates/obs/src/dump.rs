//! One-stop dump helpers: turn a registry into something a human (or
//! Chrome) can read.  Re-exported at the workspace facade as
//! `noftl_regions::obs::dump`.

use crate::metrics::MetricsRegistry;

/// Chrome `trace_event` JSON of the registry's tracer ring.  Load the
/// output at `chrome://tracing` or <https://ui.perfetto.dev>.
pub fn chrome_trace(registry: &MetricsRegistry) -> String {
    registry.tracer().to_chrome_json()
}

/// A plain-text table of every metric: counters one per line,
/// histograms with count / mean / p50 / p99 / p999 / max.
pub fn table(registry: &MetricsRegistry) -> String {
    let snap = registry.snapshot();
    let mut out = String::new();
    for (name, value) in &snap.counters {
        out.push_str(&format!("{name:<44} {value}\n"));
    }
    for h in &snap.histograms {
        out.push_str(&format!(
            "{:<44} n={} mean={:.0} p50={} p99={} p999={} max={} [{}]\n",
            h.name,
            h.count,
            h.mean(),
            h.percentile(0.50),
            h.percentile(0.99),
            h.percentile(0.999),
            h.max,
            h.unit.as_str(),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Unit;

    #[test]
    fn table_lists_every_metric_kind() {
        let r = MetricsRegistry::new();
        r.counter("x.ops").add(2);
        r.histogram("x.lat_ns", Unit::SimNanos).record(1_000);
        let text = table(&r);
        assert!(text.contains("x.ops"));
        assert!(text.contains("p999="));
        assert!(text.contains("[sim_ns]"));
    }
}

//! Prometheus text exposition (format version 0.0.4).
//!
//! Caveats, since this renders an in-process snapshot rather than a
//! scrape endpoint:
//!
//! * metric names are sanitized by mapping every character outside
//!   `[a-zA-Z0-9_:]` (notably the registry's dots) to `_`;
//! * histograms are rendered as Prometheus **summaries** (pre-computed
//!   `quantile` series plus `_sum`/`_count`) because the log-bucket
//!   edges are not cumulative `le` thresholds;
//! * simulated-time series carry real values in nanoseconds of
//!   *simulated* clock — graph them for shape, not for wall-clock SLOs;
//! * no `# HELP` text and no timestamps are emitted.

use crate::metrics::MetricsSnapshot;

/// Quantiles exported for each histogram.
const QUANTILES: &[(f64, &str)] = &[(0.5, "0.5"), (0.9, "0.9"), (0.99, "0.99"), (0.999, "0.999")];

/// Map a registry name to a legal Prometheus metric name.
pub fn sanitize(name: &str) -> String {
    let mut out: String = name
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() || c == '_' || c == ':' { c } else { '_' })
        .collect();
    if out.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        out.insert(0, '_');
    }
    out
}

/// Render a snapshot as Prometheus text exposition.
pub fn render(snapshot: &MetricsSnapshot) -> String {
    let mut out = String::new();
    for (name, value) in &snapshot.counters {
        let name = sanitize(name);
        out.push_str(&format!("# TYPE {name} counter\n{name} {value}\n"));
    }
    for (name, value) in &snapshot.gauges {
        let name = sanitize(name);
        out.push_str(&format!("# TYPE {name} gauge\n{name} {value}\n"));
    }
    for h in &snapshot.histograms {
        let name = sanitize(&h.name);
        out.push_str(&format!("# TYPE {name} summary\n"));
        for (q, label) in QUANTILES {
            out.push_str(&format!("{name}{{quantile=\"{label}\"}} {}\n", h.percentile(*q)));
        }
        out.push_str(&format!("{name}_sum {}\n{name}_count {}\n", h.sum, h.count));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{MetricsRegistry, Unit};

    #[test]
    fn sanitize_maps_dots_and_leading_digits() {
        assert_eq!(sanitize("flash.op.read.latency_ns"), "flash_op_read_latency_ns");
        assert_eq!(sanitize("9lives"), "_9lives");
    }

    #[test]
    fn render_covers_all_metric_kinds() {
        let r = MetricsRegistry::new();
        r.counter("a.count").add(3);
        r.gauge("a.hwm").set(7);
        let h = r.histogram("a.lat_ns", Unit::SimNanos);
        h.record(100);
        h.record(200);
        let text = r.snapshot().to_prometheus();
        assert!(text.contains("# TYPE a_count counter\na_count 3\n"));
        assert!(text.contains("# TYPE a_hwm gauge\na_hwm 7\n"));
        assert!(text.contains("# TYPE a_lat_ns summary\n"));
        assert!(text.contains("a_lat_ns{quantile=\"0.5\"}"));
        assert!(text.contains("a_lat_ns_sum 300\na_lat_ns_count 2\n"));
    }
}

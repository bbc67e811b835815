//! What a run prints: the contract's result line, the full report that
//! `bench compare` reads, a table for people and the Figure 3 block.

use std::fmt::Write as _;

use noftl_obs::json::escape;

use crate::contract::{Contract, MetricSpec};
use crate::metrics::{is_host_metric, Metrics};
use crate::run::Outcome;

/// `{"value": v, "unit": "u"}` entries for `specs`, values from `metrics`.
/// A per-layer metric the workload does not have (a KV counter on TPC-C)
/// reads 0.
fn entries(specs: &[MetricSpec], metrics: &Metrics) -> String {
    specs
        .iter()
        .map(|s| {
            // JSON has no NaN or infinity; a ratio over nothing reads 0.
            let value = metrics.get(&s.name).copied().filter(|v| v.is_finite()).unwrap_or(0.0);
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                escape(&s.name),
                escape(&s.unit)
            )
        })
        .collect::<Vec<_>>()
        .join(", ")
}

/// The last line of standard output: `correct`, `attempted`, `failed` and
/// exactly the metrics of `specs`.
pub fn result_line(outcome: &Outcome, specs: &[MetricSpec]) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.problems.is_empty(),
        outcome.attempted,
        outcome.failed,
        entries(specs, &outcome.metrics)
    )
}

/// The full report of several runs, as `--out` writes it and `bench
/// compare` reads it: every metric computed, listed in `BENCHMARK.json`
/// or not, plus the digests.
pub fn full_json(outcomes: &[Outcome], contract: &Contract) -> String {
    let mut out = String::from("{\"schema\": \"noftl-benchmark v1\", \"workloads\": {");
    for (i, o) in outcomes.iter().enumerate() {
        let specs: Vec<MetricSpec> = o
            .metrics
            .keys()
            .map(|name| {
                contract.spec(name).cloned().unwrap_or(MetricSpec {
                    name: name.clone(),
                    unit: String::new(),
                    higher_is_better: false,
                    bound: None,
                })
            })
            .collect();
        let samples: Vec<String> = o.setup_samples_s.iter().map(f64::to_string).collect();
        let _ = write!(
            out,
            "{}\n\"{}\": {{\"seed\": {}, \"smoke\": {}, \"correct\": {}, \"attempted\": {}, \"failed\": {}, \
             \"rounds\": {}, \"stream_digest\": \"{:#018x}\", \"sim_digest\": \"{:#018x}\", \
             \"setup_samples_s\": [{}], \"metrics\": {{{}}}}}",
            if i == 0 { "" } else { "," },
            o.options.id.name(),
            o.options.seed,
            o.options.smoke,
            o.problems.is_empty(),
            o.attempted,
            o.failed,
            o.rounds,
            o.stream_digest,
            o.sim_digest,
            samples.join(", "),
            entries(&specs, &o.metrics)
        );
    }
    out.push_str("\n}}\n");
    out
}

/// Every metric of a run by name, with unit, clock, direction and bound.
pub fn table(outcome: &Outcome, contract: &Contract) -> String {
    let (o, metrics) = (outcome, &outcome.metrics);
    let mut out = format!(
        "== {} (seed {}{}) ==\n  {} rounds, {} set-ups; attempted {} failed {}; stream_digest {:#018x} sim_digest {:#018x}\n",
        o.options.id.name(),
        o.options.seed,
        if o.options.smoke { ", SMOKE: 1/20 size, not comparable" } else { "" },
        o.rounds,
        o.setup_samples_s.len(),
        o.attempted,
        o.failed,
        o.stream_digest,
        o.sim_digest,
    );
    for problem in &o.problems {
        let _ = writeln!(out, "  INCORRECT: {problem}");
    }
    let _ = writeln!(
        out,
        "  {:<44} {:>16} {:<8} {:<5} {:<7} bound",
        "metric", "value", "unit", "clock", "better"
    );
    let mut row = |name: &str, value: f64, spec: Option<&MetricSpec>| {
        let _ = writeln!(
            out,
            "  {:<44} {:>16.4} {:<8} {:<5} {:<7} {}",
            name,
            value,
            spec.map_or("", |s| s.unit.as_str()),
            if is_host_metric(name) { "host" } else { "sim" },
            spec.map_or("", |s| if s.higher_is_better { "higher" } else { "lower" }),
            spec.and_then(|s| s.bound).map_or(String::new(), |b| format!("{b}")),
        );
    };
    for spec in &contract.end_to_end {
        if let Some(v) = metrics.get(&spec.name) {
            row(&spec.name, *v, Some(spec));
        }
    }
    for (name, value) in metrics {
        if !contract.end_to_end.iter().any(|s| &s.name == name) {
            row(name, *value, contract.spec(name));
        }
    }
    out
}

/// Write the full report to `out`, if given, and print one result line per
/// run with exactly the metrics of `specs`: how both binaries finish.
pub fn finish(
    outcomes: &[Outcome],
    specs: &[MetricSpec],
    out: Option<&str>,
    contract: &Contract,
) -> Result<(), String> {
    if let Some(path) = out {
        std::fs::write(path, full_json(outcomes, contract)).map_err(|e| format!("{path}: {e}"))?;
    }
    for outcome in outcomes {
        println!("{}", result_line(outcome, specs));
    }
    Ok(())
}

/// Regions over traditional, beside the paper's Figure 3.  Informational:
/// the repository holds no hardware reference, so no error is given.
pub fn figure3_block(traditional: &Metrics, regions: &Metrics) -> String {
    let delta = |name: &str| {
        let (t, r) = (
            traditional.get(name).copied().unwrap_or(0.0),
            regions.get(name).copied().unwrap_or(0.0),
        );
        if t == 0.0 {
            "n/a".to_string()
        } else {
            format!("{:+.1} % ({t:.1} -> {r:.1})", (r / t - 1.0) * 100.0)
        }
    };
    format!(
        "== Figure 3 reference (informational; the model is unvalidated in absolute terms) ==\n\
         \x20 regions / traditional   this run                          paper\n\
         \x20 TPS                     {:<33} +21 %\n\
         \x20 GC copybacks            {:<33} -19.2 %\n\
         \x20 GC erases               {:<33} -4.4 %\n",
        delta("ops_per_s_sim"),
        delta("core.gc_copybacks"),
        delta("core.gc_erases"),
    )
}

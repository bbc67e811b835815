//! `bench compare <a.json> <b.json>`: per workload and metric, base, new,
//! ratio and a verdict under the bounds of `BENCHMARK.json`.

use std::fmt::Write as _;

use noftl_obs::json::{self, Json};

use crate::contract::{Contract, MetricSpec};
use crate::stats;

/// How a metric of the new report stands against the base.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Bit-identical.
    Same,
    /// Differs, but not worse by more than its bound.
    Within,
    /// Worse by more than its bound.
    Worse,
    /// Differs and cannot be judged: the metric has no bound, the runs are
    /// not comparable, or its own run-to-run spread exceeds the bound.
    Unresolved,
}

impl Verdict {
    fn word(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Within => "within",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge `new` against `base`.  `comparable` is false when the two runs
/// differ in seed or size or either failed a correctness gate; `spread` is
/// the metric's own relative spread within the runs, where known.
pub fn verdict(
    base: f64,
    new: f64,
    spec: Option<&MetricSpec>,
    comparable: bool,
    spread: f64,
) -> Verdict {
    if base.to_bits() == new.to_bits() {
        return Verdict::Same;
    }
    let Some((spec, bound)) = spec.and_then(|s| Some((s, s.bound?))) else {
        return Verdict::Unresolved;
    };
    if !comparable {
        return Verdict::Unresolved;
    }
    let worsening = if spec.higher_is_better { base - new } else { new - base };
    let worse_by = worsening / base.abs();
    if worse_by <= bound {
        Verdict::Within
    } else if spread > bound {
        Verdict::Unresolved
    } else {
        Verdict::Worse
    }
}

fn samples_spread(workload: &Json) -> f64 {
    let samples: Vec<f64> = workload
        .get("setup_samples_s")
        .and_then(Json::as_array)
        .map(|a| a.iter().filter_map(Json::as_f64).collect())
        .unwrap_or_default();
    let (lo, hi) = samples.iter().fold((f64::MAX, f64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
    if samples.len() < 2 {
        0.0
    } else {
        (hi - lo) / stats::median(&samples)
    }
}

fn metric_value(workload: &Json, name: &str) -> Option<f64> {
    workload.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// Compare two full reports.  Returns the table and whether any metric
/// came out `worse`.
pub fn compare(
    base_text: &str,
    new_text: &str,
    contract: &Contract,
) -> Result<(String, bool), String> {
    let (base, new) = (json::parse(base_text)?, json::parse(new_text)?);
    let workloads = |doc: &Json| match doc.get("workloads") {
        Some(Json::Obj(map)) => Ok(map.clone()),
        _ => Err("not a noftl-benchmark report: no `workloads` object".to_string()),
    };
    let (base, new) = (workloads(&base)?, workloads(&new)?);
    let mut out = format!(
        "{:<24} {:<40} {:>16} {:>16} {:>8}  verdict\n",
        "workload", "metric", "base", "new", "ratio"
    );
    let mut tally = [0usize; 4];
    for name in &contract.workloads {
        let (Some(b), Some(n)) = (base.get(name), new.get(name)) else { continue };
        let field = |w: &Json, key: &str| w.get(key).cloned();
        let comparable = ["seed", "smoke"].iter().all(|k| field(b, k) == field(n, k))
            && [b, n].iter().all(|w| field(w, "correct") == Some(Json::Bool(true)));
        let Some(Json::Obj(base_metrics)) = b.get("metrics") else { continue };
        let ordered = contract.end_to_end.iter().map(|s| &s.name).chain(
            base_metrics.keys().filter(|k| !contract.end_to_end.iter().any(|s| &s.name == *k)),
        );
        for metric in ordered {
            let (Some(bv), Some(nv)) = (metric_value(b, metric), metric_value(n, metric)) else {
                continue;
            };
            let spread =
                if metric == "setup_s" { samples_spread(b).max(samples_spread(n)) } else { 0.0 };
            let v = verdict(bv, nv, contract.spec(metric), comparable, spread);
            tally[v as usize] += 1;
            // Identical per-layer metrics are the expected case: keep the table short.
            if v == Verdict::Same && contract.spec(metric).is_none_or(|s| s.bound.is_none()) {
                continue;
            }
            let ratio = if bv == 0.0 { "-".to_string() } else { format!("{:.4}", nv / bv) };
            let _ = writeln!(
                out,
                "{name:<24} {metric:<40} {bv:>16.4} {nv:>16.4} {ratio:>8}  {}",
                v.word()
            );
        }
        for key in ["stream_digest", "sim_digest"] {
            let (bd, nd) = (field(b, key), field(n, key));
            let word = if bd == nd { "same" } else { "differs" };
            let text =
                |d: &Option<Json>| d.as_ref().and_then(Json::as_str).unwrap_or("?").to_string();
            let _ = writeln!(
                out,
                "{name:<24} {key:<40} {:>16} {:>16} {:>8}  {word}",
                text(&bd),
                text(&nd),
                ""
            );
        }
    }
    let _ = writeln!(
        out,
        "{} same, {} within, {} worse, {} unresolved (identical per-layer metrics not listed)",
        tally[0], tally[1], tally[2], tally[3]
    );
    Ok((out, tally[Verdict::Worse as usize] > 0))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(higher: bool, bound: Option<f64>) -> MetricSpec {
        MetricSpec { name: "m".into(), unit: "u".into(), higher_is_better: higher, bound }
    }

    #[test]
    fn verdicts() {
        let lower = spec(false, Some(0.05));
        let higher = spec(true, Some(0.05));
        assert_eq!(verdict(100.0, 100.0, Some(&lower), true, 0.0), Verdict::Same);
        assert_eq!(verdict(100.0, 104.0, Some(&lower), true, 0.0), Verdict::Within);
        assert_eq!(verdict(100.0, 106.0, Some(&lower), true, 0.0), Verdict::Worse);
        assert_eq!(verdict(100.0, 50.0, Some(&lower), true, 0.0), Verdict::Within);
        assert_eq!(verdict(100.0, 94.0, Some(&higher), true, 0.0), Verdict::Worse);
        assert_eq!(verdict(100.0, 150.0, Some(&higher), true, 0.0), Verdict::Within);
        // Too noisy to call, not comparable, or no bound to call it with.
        assert_eq!(verdict(100.0, 106.0, Some(&lower), true, 0.2), Verdict::Unresolved);
        assert_eq!(verdict(100.0, 106.0, Some(&lower), false, 0.0), Verdict::Unresolved);
        assert_eq!(verdict(100.0, 106.0, Some(&spec(false, None)), true, 0.0), Verdict::Unresolved);
        assert_eq!(verdict(100.0, 106.0, None, true, 0.0), Verdict::Unresolved);
    }
}

//! `BENCHMARK.json`, compiled in: the one list of which metrics are
//! end-to-end, with their units, directions and bounds.  The code computes
//! values by name ([`crate::metrics`]); this file says which to print.

use noftl_obs::json::{self, Json};

/// The text of the repository's `BENCHMARK.json` at build time.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// One metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    /// Name, as computed by [`crate::metrics`].
    pub name: String,
    /// Unit printed with every value.
    pub unit: String,
    /// `true` if a higher value is better.
    pub higher_is_better: bool,
    /// Share of the base by which the metric may get worse; end-to-end
    /// metrics have one, per-layer metrics do not.
    pub bound: Option<f64>,
}

/// The metric lists of `BENCHMARK.json`.
#[derive(Debug, Clone)]
pub struct Contract {
    /// Metrics a user of the system would see, each with a bound.
    pub end_to_end: Vec<MetricSpec>,
    /// Metrics of single layers.
    pub per_layer: Vec<MetricSpec>,
    /// Workload names, in order.
    pub workloads: Vec<String>,
}

fn specs(doc: &Json, key: &str) -> Result<Vec<MetricSpec>, String> {
    doc.get(key)
        .and_then(Json::as_array)
        .ok_or(format!("BENCHMARK.json: no `{key}` list"))?
        .iter()
        .map(|m| {
            let text = |field: &str| {
                m.get(field)
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .ok_or(format!("BENCHMARK.json: a `{key}` metric lacks `{field}`"))
            };
            Ok(MetricSpec {
                name: text("name")?,
                unit: text("unit")?,
                higher_is_better: text("better")? == "higher",
                bound: m.get("bound").and_then(Json::as_f64),
            })
        })
        .collect()
}

impl Contract {
    /// Parse `text` as a `BENCHMARK.json`.
    pub fn parse(text: &str) -> Result<Contract, String> {
        let doc = json::parse(text)?;
        let workloads = doc
            .get("workloads")
            .and_then(Json::as_array)
            .ok_or("BENCHMARK.json: no `workloads` list")?
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::as_str).map(str::to_string))
            .collect();
        Ok(Contract {
            end_to_end: specs(&doc, "end_to_end")?,
            per_layer: specs(&doc, "per_layer")?,
            workloads,
        })
    }

    /// The compiled-in contract.
    pub fn load() -> Result<Contract, String> {
        Contract::parse(BENCHMARK_JSON)
    }

    /// The declaration of `name`, end-to-end or per-layer.
    pub fn spec(&self, name: &str) -> Option<&MetricSpec> {
        self.end_to_end.iter().chain(&self.per_layer).find(|s| s.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads;

    #[test]
    fn benchmark_json_matches_the_code() {
        let contract = Contract::load().unwrap();
        let names: Vec<&str> = workloads::ALL.iter().map(|id| id.name()).collect();
        assert_eq!(contract.workloads, names);
        assert!(contract.end_to_end.iter().all(|s| s.bound.is_some_and(|b| b <= 0.25)));
        assert!(contract.per_layer.iter().all(|s| s.bound.is_none()));
        let setup = contract.spec("setup_s").expect("setup_s is required");
        assert_eq!((setup.unit.as_str(), setup.higher_is_better), ("s", false));
        let mut all: Vec<&str> = contract
            .end_to_end
            .iter()
            .chain(&contract.per_layer)
            .map(|s| s.name.as_str())
            .collect();
        let listed = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), listed, "a metric name is used twice");
    }
}

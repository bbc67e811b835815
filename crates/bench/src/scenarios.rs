//! The workload-lab scenario matrix behind `perf_smoke --scenarios`.
//!
//! Three groups, selectable so CI can run them as a matrix:
//!
//! * `kv` — YCSB core workloads A–F against NoFTL-KV.
//! * `btree` — the *same six key streams* against the dbms B+-tree.
//! * `mixed` — the rate-controlled open-loop trace replay and the
//!   OLTP-beside-compaction multi-tenant scenario.
//!
//! Every metric is simulated device time, so the per-scenario throughput
//! and p50/p99/p999 tails land in `BENCH_PR*.json` as deterministic,
//! direction-aware-gated values: `*_kops` gate on decreases, `*_us`
//! percentiles on increases, the `mt_oltp_p99_penalty` /
//! `mt_oltp_write_p99_penalty` ratios on increases (they are penalties).

use std::sync::Arc;

use flash_sim::{DeviceBuilder, FlashGeometry, SimTime, TimingModel};
use noftl_core::kv::KvConfig;
use noftl_core::{NoFtl, NoFtlConfig, PlacementConfig, RegionSpec};
use noftl_obs::MetricsRegistry;
use noftl_workload::trace::from_spec;
use noftl_workload::{
    load_phase, oltp_beside_compaction, replay, run_ycsb, BtreeBackend, KvBackend,
    MultiTenantConfig, RunReport, WorkloadBackend, YcsbSpec,
};

use crate::smoke::{Metric, Section};

/// Which slice of the scenario matrix to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScenarioGroup {
    /// YCSB A–F over NoFTL-KV.
    Kv,
    /// YCSB A–F over the dbms B+-tree.
    Btree,
    /// Trace replay + multi-tenant mix.
    Mixed,
    /// Everything.
    All,
}

impl ScenarioGroup {
    /// Parse a `--scenarios` argument.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "kv" => Some(ScenarioGroup::Kv),
            "btree" => Some(ScenarioGroup::Btree),
            "mixed" => Some(ScenarioGroup::Mixed),
            "all" => Some(ScenarioGroup::All),
            _ => None,
        }
    }

    fn covers(self, other: ScenarioGroup) -> bool {
        self == ScenarioGroup::All || self == other
    }
}

/// Shared sizing of every scenario in the section.
struct Sizing {
    records: u64,
    ops: u64,
    seed: u64,
}

fn sizing(quick: bool) -> Sizing {
    if quick {
        Sizing { records: 300, ops: 500, seed: 0x9c5b }
    } else {
        Sizing { records: 1_200, ops: 2_000, seed: 0x9c5b }
    }
}

fn kv_backend() -> (KvBackend, SimTime) {
    let dev = Arc::new(
        DeviceBuilder::new(FlashGeometry::example()).timing(TimingModel::mlc_2015()).build(),
    );
    let noftl = Arc::new(NoFtl::new(dev, NoFtlConfig::default()));
    let rid = noftl
        .create_region(RegionSpec::named("rgYcsb").with_die_count(4))
        .expect("example device has 8 dies");
    KvBackend::create(noftl, rid, "ycsb", KvConfig::default(), SimTime::ZERO)
        .expect("fresh store creates")
}

fn btree_backend(value_len: usize) -> (BtreeBackend, SimTime) {
    let dev = Arc::new(
        DeviceBuilder::new(FlashGeometry::example()).timing(TimingModel::mlc_2015()).build(),
    );
    let noftl = Arc::new(NoFtl::new(dev, NoFtlConfig::default()));
    let placement = PlacementConfig::traditional(4, ["usertable".to_string()]);
    BtreeBackend::create(
        noftl,
        &placement,
        dbms_engine::DatabaseConfig::default(),
        value_len,
        SimTime::ZERO,
    )
    .expect("fresh database opens")
}

/// Load + run one YCSB workload on a fresh backend, returning the report.
fn ycsb_run(spec: &YcsbSpec, backend: &dyn WorkloadBackend, at: SimTime) -> RunReport {
    let loaded = load_phase(spec, backend, at).expect("load phase");
    let registry = MetricsRegistry::new();
    run_ycsb(spec, backend, &registry, loaded).expect("run phase")
}

fn push_ycsb_metrics(metrics: &mut Vec<Metric>, which: char, report: &RunReport) {
    let w = which.to_ascii_lowercase();
    let tag = report.backend;
    metrics.push(Metric::new(format!("ycsb_{w}_{tag}_kops"), report.throughput_kops, "kops_sim"));
    metrics.push(Metric::new(format!("ycsb_{w}_{tag}_p50_us"), report.p50_us, "us_sim"));
    metrics.push(Metric::new(format!("ycsb_{w}_{tag}_p99_us"), report.p99_us, "us_sim"));
    metrics.push(Metric::new(format!("ycsb_{w}_{tag}_p999_us"), report.p999_us, "us_sim"));
}

/// Build the `scenarios` section for `group`.
///
/// The six YCSB workloads run on identical key streams on whichever
/// backends the group selects; the `mixed` group adds the open-loop
/// replay (workload B's stream at a fixed offered rate on NoFTL-KV) and
/// the OLTP-beside-compaction multi-tenant scenario.
pub fn scenarios_section(quick: bool, group: ScenarioGroup) -> Section {
    let size = sizing(quick);
    let mut metrics = Vec::new();

    for which in ['A', 'B', 'C', 'D', 'E', 'F'] {
        if !group.covers(ScenarioGroup::Kv) && !group.covers(ScenarioGroup::Btree) {
            break;
        }
        let spec = YcsbSpec::core(which, size.records, size.ops, size.seed)
            .expect("A-F are core workloads");
        if group.covers(ScenarioGroup::Kv) {
            let (backend, t) = kv_backend();
            let report = ycsb_run(&spec, &backend, t);
            push_ycsb_metrics(&mut metrics, which, &report);
        }
        if group.covers(ScenarioGroup::Btree) {
            let (backend, t) = btree_backend(spec.value_len);
            let report = ycsb_run(&spec, &backend, t);
            push_ycsb_metrics(&mut metrics, which, &report);
        }
    }

    if group.covers(ScenarioGroup::Mixed) {
        // Open-loop replay: workload B's stream issued at a fixed offered
        // rate.  Latency counts from the *scheduled* issue instant, so a
        // backend that falls behind shows up in the tail, not as a
        // slower clock (no coordinated omission).
        let spec = YcsbSpec::core('B', size.records, size.ops, size.seed).expect("B is core");
        let offered_kops = 5.0;
        let trace = from_spec(&spec, offered_kops);
        let (backend, t) = kv_backend();
        let loaded = load_phase(&spec, &backend, t).expect("load phase");
        let registry = MetricsRegistry::new();
        let rep = replay(&trace, &backend, &registry, "bench", 100, loaded).expect("replay");
        metrics.push(Metric::new("replay_offered_kops", rep.offered_kops, "kops_sim"));
        metrics.push(Metric::new("replay_achieved_kops", rep.achieved_kops, "kops_sim"));
        metrics.push(Metric::new("replay_p50_us", rep.p50_us, "us_sim"));
        metrics.push(Metric::new("replay_p99_us", rep.p99_us, "us_sim"));
        metrics.push(Metric::new("replay_p999_us", rep.p999_us, "us_sim"));
        metrics.push(Metric::new("replay_misses", rep.misses as f64, "count"));

        // Multi-tenant: latency-sensitive OLTP beside a compaction-heavy
        // KV neighbor on the same device's channels, with the cross-region
        // I/O arbiter on — the deployment configuration this scenario
        // gates.  The arbiter-off run of the same schedules is kept as a
        // diagnostic (`mt_oltp_*p99_penalty_noarb`), so the raw
        // interference the arbiter absorbs stays visible in every report.
        // Reads commit without a log force, so in this cache-resident
        // scenario only the tenant's writes reach the device: the
        // `write_` tails are the ones the neighbor can still move.
        let config = if quick { MultiTenantConfig::quick() } else { MultiTenantConfig::full() };
        let noarb = oltp_beside_compaction(&config).expect("multi-tenant scenario (arbiter off)");
        metrics.push(Metric::new("mt_oltp_p99_penalty_noarb", noarb.p99_penalty, "x"));
        metrics.push(Metric::new("mt_oltp_write_p99_penalty_noarb", noarb.write_p99_penalty, "x"));
        let config = config.with_arbiter();
        let mt = oltp_beside_compaction(&config).expect("multi-tenant scenario");
        metrics.push(Metric::new("mt_oltp_kops", mt.oltp_shared.achieved_kops, "kops_sim"));
        metrics.push(Metric::new("mt_oltp_p50_us", mt.oltp_shared.p50_us, "us_sim"));
        metrics.push(Metric::new("mt_oltp_p99_us", mt.oltp_shared.p99_us, "us_sim"));
        metrics.push(Metric::new("mt_oltp_p999_us", mt.oltp_shared.p999_us, "us_sim"));
        metrics.push(Metric::new("mt_oltp_alone_p99_us", mt.oltp_alone.p99_us, "us_sim"));
        metrics.push(Metric::new("mt_oltp_p99_penalty", mt.p99_penalty, "x"));
        metrics.push(Metric::new("mt_oltp_write_p99_us", mt.oltp_shared.write_p99_us, "us_sim"));
        metrics.push(Metric::new("mt_oltp_write_p99_penalty", mt.write_p99_penalty, "x"));
        metrics.push(Metric::new("mt_compact_kops", mt.compact_shared.achieved_kops, "kops_sim"));
        metrics.push(Metric::new("mt_compact_p99_us", mt.compact_shared.p99_us, "us_sim"));
        metrics.push(Metric::new("mt_compact_flushes", mt.compact_flushes as f64, "count"));
        metrics.push(Metric::new("mt_compact_compactions", mt.compact_compactions as f64, "count"));
    }

    Section { name: "scenarios", metrics }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_parsing() {
        assert_eq!(ScenarioGroup::parse("kv"), Some(ScenarioGroup::Kv));
        assert_eq!(ScenarioGroup::parse("btree"), Some(ScenarioGroup::Btree));
        assert_eq!(ScenarioGroup::parse("mixed"), Some(ScenarioGroup::Mixed));
        assert_eq!(ScenarioGroup::parse("all"), Some(ScenarioGroup::All));
        assert_eq!(ScenarioGroup::parse("everything"), None);
    }

    #[test]
    fn kv_group_covers_all_six_workloads() {
        let section = scenarios_section(true, ScenarioGroup::Kv);
        assert_eq!(section.name, "scenarios");
        for which in ['a', 'b', 'c', 'd', 'e', 'f'] {
            for stat in ["kops", "p50_us", "p99_us", "p999_us"] {
                let name = format!("ycsb_{which}_kv_{stat}");
                assert!(section.metrics.iter().any(|m| m.name == name), "missing {name}");
            }
        }
        assert!(
            !section.metrics.iter().any(|m| m.name.contains("btree")),
            "kv group must not run the btree backend"
        );
        assert!(section.metrics.iter().all(|m| m.value >= 0.0));
    }

    #[test]
    fn mixed_group_reports_replay_and_multi_tenant() {
        let section = scenarios_section(true, ScenarioGroup::Mixed);
        let get =
            |name: &str| section.metrics.iter().find(|m| m.name == name).map(|m| m.value).unwrap();
        assert!(get("replay_achieved_kops") > 0.0);
        assert_eq!(get("replay_misses"), 0.0, "workload B only reads loaded keys");
        assert!(get("replay_p99_us") >= get("replay_p50_us"));
        assert!(
            get("mt_oltp_p99_penalty") <= 2.0,
            "the arbiter must cap the noisy-neighbor tail penalty"
        );
        assert!(
            get("mt_oltp_p99_penalty_noarb") >= 1.0,
            "sharing without the arbiter cannot improve the tail"
        );
        assert!(
            get("mt_oltp_write_p99_penalty") <= 2.0,
            "the arbiter must cap the penalty on the ops that reach the device too"
        );
        assert!(
            get("mt_oltp_write_p99_penalty_noarb") >= get("mt_oltp_write_p99_penalty"),
            "the write tail is where the arbiter's contrast shows"
        );
        assert!(get("mt_oltp_write_p99_us") >= get("mt_oltp_p50_us"));
        assert!(get("mt_compact_flushes") >= 1.0, "the noisy neighbor must flush");
        assert!(
            !section.metrics.iter().any(|m| m.name.starts_with("ycsb_")),
            "mixed group must not run the YCSB matrix"
        );
    }

    #[test]
    fn scenario_metrics_are_deterministic() {
        let a = scenarios_section(true, ScenarioGroup::Kv);
        let b = scenarios_section(true, ScenarioGroup::Kv);
        for (ma, mb) in a.metrics.iter().zip(&b.metrics) {
            assert_eq!(ma.name, mb.name);
            assert_eq!(ma.value.to_bits(), mb.value.to_bits(), "{} drifted", ma.name);
        }
    }
}

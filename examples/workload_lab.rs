//! Workload lab tour: the six YCSB core workloads on NoFTL-KV and the
//! dbms B+-tree over *identical* key streams, an open-loop trace replay
//! at a fixed offered rate, and the OLTP-beside-compaction multi-tenant
//! scenario.
//!
//! ```text
//! cargo run --release --example workload_lab
//! ```
//!
//! Every number printed is simulated device time — run it twice and the
//! output is byte-identical.

use std::sync::Arc;

use noftl_regions::flash::{DeviceBuilder, FlashGeometry, SimTime, TimingModel};
use noftl_regions::noftl::kv::KvConfig;
use noftl_regions::noftl::{NoFtl, NoFtlConfig, PlacementConfig, RegionSpec};
use noftl_regions::obs::MetricsRegistry;
use noftl_regions::workload::trace::from_spec;
use noftl_regions::workload::{
    load_phase, oltp_beside_compaction, replay, run_ycsb, BtreeBackend, KvBackend,
    MultiTenantConfig, WorkloadBackend, YcsbSpec,
};

fn kv_backend() -> (KvBackend, SimTime) {
    let dev = Arc::new(
        DeviceBuilder::new(FlashGeometry::example()).timing(TimingModel::mlc_2015()).build(),
    );
    let noftl = Arc::new(NoFtl::new(dev, NoFtlConfig::default()));
    let rid = noftl.create_region(RegionSpec::named("rgYcsb").with_die_count(4)).unwrap();
    KvBackend::create(noftl, rid, "lab", KvConfig::default(), SimTime::ZERO).unwrap()
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
        noftl_regions::dbms::DatabaseConfig::default(),
        value_len,
        SimTime::ZERO,
    )
    .unwrap()
}

fn run_on(spec: &YcsbSpec, backend: &dyn WorkloadBackend, at: SimTime) {
    let loaded = load_phase(spec, backend, at).unwrap();
    let registry = MetricsRegistry::new();
    let r = run_ycsb(spec, backend, &registry, loaded).unwrap();
    println!(
        "  YCSB-{} on {:<5}  {:>8.1} kops   p50 {:>8.1} us   p99 {:>8.1} us   p999 {:>8.1} us   digest {:016x}",
        r.workload, r.backend, r.throughput_kops, r.p50_us, r.p99_us, r.p999_us, r.stream_digest
    );
}

fn main() {
    println!("== YCSB core workloads, identical streams on both backends ==");
    for which in ['A', 'B', 'C', 'D', 'E', 'F'] {
        let spec = YcsbSpec::core(which, 300, 500, 0x1ab).unwrap();
        let (kv, t) = kv_backend();
        run_on(&spec, &kv, t);
        let (bt, t) = btree_backend(spec.value_len);
        run_on(&spec, &bt, t);
    }

    println!("\n== Open-loop trace replay (workload B stream at 5 kops offered) ==");
    let spec = YcsbSpec::core('B', 300, 500, 0x1ab).unwrap();
    let trace = from_spec(&spec, 5.0);
    let (kv, t) = kv_backend();
    let loaded = load_phase(&spec, &kv, t).unwrap();
    let registry = MetricsRegistry::new();
    let rep = replay(&trace, &kv, &registry, "lab", 100, loaded).unwrap();
    println!(
        "  offered {:.2} kops, achieved {:.2} kops, p50 {:.1} us, p99 {:.1} us, p999 {:.1} us, {} misses",
        rep.offered_kops, rep.achieved_kops, rep.p50_us, rep.p99_us, rep.p999_us, rep.misses
    );

    println!("\n== Multi-tenant: latency-sensitive OLTP beside a compacting KV neighbor ==");
    let mt = oltp_beside_compaction(&MultiTenantConfig::quick()).unwrap();
    println!(
        "  oltp shared:  {:>6.2} kops   p50 {:>8.1} us   p99 {:>8.1} us",
        mt.oltp_shared.achieved_kops, mt.oltp_shared.p50_us, mt.oltp_shared.p99_us
    );
    println!(
        "  oltp alone:   {:>6.2} kops   p50 {:>8.1} us   p99 {:>8.1} us",
        mt.oltp_alone.achieved_kops, mt.oltp_alone.p50_us, mt.oltp_alone.p99_us
    );
    println!(
        "  compact:      {:>6.2} kops   p99 {:>8.1} us   ({} flushes, {} compactions)",
        mt.compact_shared.achieved_kops,
        mt.compact_shared.p99_us,
        mt.compact_flushes,
        mt.compact_compactions
    );
    println!(
        "  p99 noisy-neighbor penalty: {:.2}x over all ops, {:.2}x over the {} writing ops",
        mt.p99_penalty, mt.write_p99_penalty, mt.oltp_shared.write_ops
    );
}

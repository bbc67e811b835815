//! Composed multi-tenant scenarios.
//!
//! The headline mix: a **latency-sensitive OLTP tenant** (B+-tree point
//! reads/updates, YCSB-B shaped) on one region beside a
//! **compaction-heavy KV tenant** (a tiny memtable overwritten at rate,
//! so it flushes and merges constantly) on another region of the *same
//! device*.  Regions own disjoint dies but the region allocator stripes
//! both across every channel, so the tenants contend on channel
//! transfers — the interference the paper's configurable regions are
//! meant to make visible and the future cross-region arbiter is meant to
//! bound.  The report therefore carries the OLTP tenant's tail both
//! *shared* and *alone*; their ratio is the noisy-neighbor penalty.
//!
//! A read-only commit forces no log page, so with the table resident in
//! the buffer pool only the tenant's *writes* (5 % of a YCSB-B stream)
//! reach the device at all, and an all-ops p99 mostly measures cache
//! hits.  Each tenant therefore also reports the tail over its writing
//! ops alone — the ones that can meet the neighbor on a channel.

use std::sync::Arc;

use dbms_engine::DatabaseConfig;
use flash_sim::{
    ArbiterConfig, DeviceBuilder, FlashGeometry, NandDevice, ServiceClass, SimTime, TimingModel,
};
use noftl_core::kv::KvConfig;
use noftl_core::{NoFtl, NoFtlConfig, PlacementConfig, RegionSpec};
use noftl_obs::{MetricsRegistry, Unit};

use crate::backend::{BtreeBackend, KvBackend, Result, WorkloadBackend};
use crate::replay::issue_trace_op;
use crate::runner::{load_phase, quantiles_us};
use crate::trace::{from_spec, TraceOp};
use crate::ycsb::{key_bytes, OpKind, YcsbSpec};

/// Sizing of the OLTP-beside-compaction scenario.
#[derive(Debug, Clone, Copy)]
pub struct MultiTenantConfig {
    /// Rows loaded into the OLTP table.
    pub oltp_records: u64,
    /// OLTP operations replayed (YCSB-B mix: 95 % point read, 5 % update).
    pub oltp_ops: u64,
    /// OLTP offered rate, thousands of ops per simulated second.
    pub oltp_rate_kops: f64,
    /// Distinct keys the noisy KV tenant overwrites.
    pub noisy_keys: u64,
    /// Noisy-tenant put operations replayed.
    pub noisy_ops: u64,
    /// Noisy-tenant offered rate, thousands of ops per simulated second.
    pub noisy_rate_kops: f64,
    /// Noisy-tenant value payload bytes (big values churn the memtable).
    pub noisy_value_len: usize,
    /// Seed of every stream in the scenario.
    pub seed: u64,
    /// Run with the device-level cross-region I/O arbiter enabled: the
    /// OLTP region is declared `Latency` class, the noisy KV region
    /// `Background`, so its flush/compaction channel time is budgeted.
    pub arbiter: bool,
}

impl MultiTenantConfig {
    /// CI-sized scenario.
    pub fn quick() -> Self {
        MultiTenantConfig {
            oltp_records: 400,
            oltp_ops: 600,
            oltp_rate_kops: 2.0,
            noisy_keys: 200,
            noisy_ops: 600,
            noisy_rate_kops: 2.0,
            noisy_value_len: 400,
            seed: 0x9c7b,
            arbiter: false,
        }
    }

    /// The same scenario with the cross-region arbiter switched on.
    pub fn with_arbiter(mut self) -> Self {
        self.arbiter = true;
        self
    }

    /// Larger offline scenario.
    pub fn full() -> Self {
        MultiTenantConfig {
            oltp_records: 1_600,
            oltp_ops: 2_400,
            noisy_ops: 2_400,
            ..Self::quick()
        }
    }
}

/// Per-tenant outcome of an interleaved run.
#[derive(Debug, Clone)]
pub struct TenantReport {
    /// Tenant label (`"oltp"` / `"compact"`).
    pub tenant: String,
    /// Operations replayed.
    pub ops: u64,
    /// Achieved rate over the tenant's drain window, kops of simulated time.
    pub achieved_kops: f64,
    /// Median simulated latency, microseconds.
    pub p50_us: f64,
    /// 99th percentile simulated latency, microseconds.
    pub p99_us: f64,
    /// 99.9th percentile simulated latency, microseconds.
    pub p999_us: f64,
    /// Worst simulated latency, microseconds.
    pub max_us: f64,
    /// Operations that write (everything but point reads and scans).
    pub write_ops: u64,
    /// 99th percentile simulated latency over the writing ops alone,
    /// microseconds (0 when the tenant never wrote).
    pub write_p99_us: f64,
}

/// Outcome of the OLTP-beside-compaction scenario.
#[derive(Debug, Clone)]
pub struct MultiTenantReport {
    /// The OLTP tenant with the noisy neighbor running.
    pub oltp_shared: TenantReport,
    /// The compaction-heavy KV tenant (shared run).
    pub compact_shared: TenantReport,
    /// The same OLTP schedule on an identical but otherwise idle stack.
    pub oltp_alone: TenantReport,
    /// `oltp_shared.p99 / oltp_alone.p99` — the noisy-neighbor tail
    /// penalty (1.0 = perfect isolation).
    pub p99_penalty: f64,
    /// The same ratio over the OLTP tenant's writing ops alone
    /// (`write_p99_us` shared / alone).
    pub write_p99_penalty: f64,
    /// KV flushes + compactions the noisy tenant triggered (proof the
    /// neighbor really was compacting, not idling).
    pub compact_flushes: u64,
    /// Compactions among those.
    pub compact_compactions: u64,
}

/// One tenant of an interleaved open-loop run.
struct Tenant<'a> {
    trace: &'a [TraceOp],
    backend: &'a dyn WorkloadBackend,
    label: &'a str,
    value_len: usize,
}

/// Replay several tenants' schedules merged by issue instant (ties go to
/// the earlier tenant), recording per-tenant latency histograms
/// (`workload.mt.<label>.op_latency_ns`, and `.write_latency_ns` over the
/// writing ops alone) on `registry`.
fn run_tenants(
    tenants: &[Tenant<'_>],
    registry: &MetricsRegistry,
    base: SimTime,
) -> Result<Vec<TenantReport>> {
    let hist = |label: &str, what: &str| {
        registry.histogram(&format!("workload.mt.{label}.{what}_latency_ns"), Unit::SimNanos)
    };
    let hists: Vec<_> = tenants.iter().map(|t| hist(t.label, "op")).collect();
    let write_hists: Vec<_> = tenants.iter().map(|t| hist(t.label, "write")).collect();
    let mut cursors = vec![0usize; tenants.len()];
    let mut drained = vec![base; tenants.len()];
    loop {
        // The next op across all tenants in schedule order.
        let mut pick: Option<(usize, SimTime)> = None;
        for (i, tenant) in tenants.iter().enumerate() {
            if let Some(op) = tenant.trace.get(cursors[i]) {
                if pick.is_none_or(|(_, at)| op.at < at) {
                    pick = Some((i, op.at));
                }
            }
        }
        let Some((i, at)) = pick else { break };
        cursors[i] += 1;
        let issue = SimTime(base.as_nanos() + at.as_nanos());
        let op = &tenants[i].trace[cursors[i] - 1];
        let (_, done) = issue_trace_op(tenants[i].backend, op, tenants[i].value_len, issue)?;
        drained[i] = drained[i].max(done);
        let latency = done.as_nanos().saturating_sub(issue.as_nanos());
        hists[i].record(latency);
        if !matches!(op.kind, OpKind::Read | OpKind::Scan) {
            write_hists[i].record(latency);
        }
    }
    Ok(tenants
        .iter()
        .enumerate()
        .map(|(i, t)| {
            let ops = t.trace.len() as u64;
            let secs = SimTime(drained[i].as_nanos().saturating_sub(base.as_nanos()))
                .as_secs_f64()
                .max(f64::MIN_POSITIVE);
            let (p50_us, p99_us, p999_us, max_us) = quantiles_us(&hists[i]);
            let (_, write_p99_us, _, _) = quantiles_us(&write_hists[i]);
            TenantReport {
                tenant: t.label.to_string(),
                ops,
                achieved_kops: ops as f64 / secs / 1e3,
                p50_us,
                p99_us,
                p999_us,
                max_us,
                write_ops: write_hists[i].count(),
                write_p99_us,
            }
        })
        .collect())
}

/// The noisy tenant's schedule: fixed-rate overwriting puts cycling a
/// small key set — every `memtable_bytes` of them becomes a flush, every
/// few flushes a compaction.
fn noisy_trace(config: &MultiTenantConfig) -> Vec<TraceOp> {
    let interval_ns = (1e6 / config.noisy_rate_kops.max(1e-9)).max(1.0) as u64;
    (0..config.noisy_ops)
        .map(|i| TraceOp {
            at: SimTime(i * interval_ns),
            kind: OpKind::Update,
            key: key_bytes(i % config.noisy_keys.max(1)),
            scan_len: 0,
        })
        .collect()
}

/// The OLTP tenant's spec: YCSB-B (95/5 read/update, zipfian) sized by
/// the scenario config.
fn oltp_spec(config: &MultiTenantConfig) -> YcsbSpec {
    YcsbSpec::core('B', config.oltp_records, config.oltp_ops, config.seed)
        .expect("'B' is a core workload")
}

/// Build one stack: OLTP B+-tree on a 4-die region, noisy KV store on
/// the other 4 dies, both striped over both channels of the example
/// device.  Returns the loaded backends and the time loads completed.
fn build_stack(
    config: &MultiTenantConfig,
    registry: &Arc<MetricsRegistry>,
) -> Result<(Arc<NandDevice>, BtreeBackend, KvBackend, SimTime)> {
    let mut builder = DeviceBuilder::new(FlashGeometry::example())
        .timing(TimingModel::mlc_2015())
        .metrics(Arc::clone(registry));
    if config.arbiter {
        builder = builder.arbiter(ArbiterConfig::default());
    }
    let dev = Arc::new(builder.build());
    let noftl = Arc::new(NoFtl::new(dev.clone(), NoFtlConfig::default()));
    let half = dev.geometry().total_dies() / 2;
    let mut placement = PlacementConfig::traditional(half, ["usertable".to_string()]);
    if config.arbiter {
        // The OLTP tenant declares its latency sensitivity to the device.
        for region in &mut placement.regions {
            region.service_class = Some(ServiceClass::Latency);
        }
    }
    let (oltp, t0) = BtreeBackend::create(
        Arc::clone(&noftl),
        &placement,
        DatabaseConfig::default(),
        100,
        SimTime::ZERO,
    )?;
    let mut noisy_spec = RegionSpec::named("rgNoisy").with_die_count(half);
    if config.arbiter {
        // The churning tenant is maintenance-grade: all of its traffic —
        // host puts included — rides the background budget.
        noisy_spec = noisy_spec.with_service_class(ServiceClass::Background);
    }
    let rid = noftl.create_region(noisy_spec)?;
    // A 16 KiB memtable of 400-byte values flushes every ~40 puts; the
    // level-0 fan-in of 4 then compacts every ~160 — constant churn.
    let kv_config = KvConfig { memtable_bytes: 16 * 1024, ..KvConfig::default() };
    let (noisy, t1) = KvBackend::create(Arc::clone(&noftl), rid, "noisy", kv_config, t0)?;
    // Load both tenants' working sets.
    let spec = oltp_spec(config);
    let t2 = load_phase(&spec, &oltp, t1)?;
    let mut t = t2;
    for k in 0..config.noisy_keys {
        t = noisy.insert(&key_bytes(k), &vec![b'n'; config.noisy_value_len], t)?;
    }
    let t = noisy.flush(t)?;
    Ok((dev, oltp, noisy, t))
}

/// Run the OLTP-beside-compaction scenario: interleaved shared run, then
/// the OLTP schedule alone on a fresh identical stack.
pub fn oltp_beside_compaction(config: &MultiTenantConfig) -> Result<MultiTenantReport> {
    let spec = oltp_spec(config);
    let oltp_trace = from_spec(&spec, config.oltp_rate_kops);
    let noisy = noisy_trace(config);

    // Shared run: both tenants on one device.
    let registry = Arc::new(MetricsRegistry::new());
    let (_dev, oltp_backend, noisy_backend, loaded) = build_stack(config, &registry)?;
    let reports = run_tenants(
        &[
            Tenant { trace: &oltp_trace, backend: &oltp_backend, label: "oltp", value_len: 100 },
            Tenant {
                trace: &noisy,
                backend: &noisy_backend,
                label: "compact",
                value_len: config.noisy_value_len,
            },
        ],
        &registry,
        loaded,
    )?;
    let stats = noisy_backend.store().stats();
    let [oltp_shared, compact_shared]: [TenantReport; 2] = reports
        .try_into()
        .map_err(|_| crate::backend::WorkloadError("expected two tenant reports".into()))?;

    // Baseline: the identical OLTP schedule with the neighbor silent.
    let alone_registry = Arc::new(MetricsRegistry::new());
    let (_dev2, oltp_alone_backend, _noisy_idle, loaded2) = build_stack(config, &alone_registry)?;
    let alone = run_tenants(
        &[Tenant {
            trace: &oltp_trace,
            backend: &oltp_alone_backend,
            label: "oltp",
            value_len: 100,
        }],
        &alone_registry,
        loaded2,
    )?;
    let oltp_alone = alone
        .into_iter()
        .next()
        .ok_or_else(|| crate::backend::WorkloadError("expected the alone report".into()))?;

    let p99_penalty = oltp_shared.p99_us / oltp_alone.p99_us.max(f64::MIN_POSITIVE);
    let write_p99_penalty =
        oltp_shared.write_p99_us / oltp_alone.write_p99_us.max(f64::MIN_POSITIVE);
    Ok(MultiTenantReport {
        oltp_shared,
        compact_shared,
        oltp_alone,
        p99_penalty,
        write_p99_penalty,
        compact_flushes: stats.flushes,
        compact_compactions: stats.compactions,
    })
}

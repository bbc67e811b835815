//! Headline perf-smoke measurements shared by the criterion benches and
//! the `perf_smoke` CI binary.
//!
//! Everything here reports *simulated device time* (deterministic — two
//! runs of the same binary produce identical numbers) except where a
//! metric is explicitly suffixed `_wall_ms`.  The CI `bench-smoke` job
//! runs `perf_smoke --quick --scenarios all`, which serialises these
//! sections (plus the workload-lab `scenarios` section from
//! [`crate::scenarios`]) into the current `BENCH_PR*.json` point of the
//! repo's perf trajectory.

use std::collections::VecDeque;
use std::io::Write as _;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use dbms_engine::{Database, DatabaseConfig, NoFtlBackend, Schema, Value};
use flash_sim::{
    DeviceBuilder, DeviceSnapshot, DieId, FlashCommand, FlashGeometry, IoTag, NandDevice, PageAddr,
    PageMetadata, SimTime, TimingModel, UtilizationSummary,
};
use noftl_core::kv::{KvConfig, KvStore};
use noftl_core::{NoFtl, NoFtlConfig, PlacementConfig, RegionSpec};
use noftl_obs::MetricsSnapshot;

/// One headline number.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Stable identifier (JSON key).
    pub name: String,
    /// The measurement.
    pub value: f64,
    /// Unit label (`us`, `kops_sim`, `pages`, `x`, `wall_ms`, ...).
    pub unit: &'static str,
}

impl Metric {
    /// Build a metric (the name may be composed at runtime, e.g. the
    /// per-scenario `ycsb_<workload>_<backend>_<stat>` family).
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Metric { name: name.into(), value, unit }
    }
}

/// A named group of metrics (one per smoke-tested bench).
#[derive(Debug, Clone)]
pub struct Section {
    /// Section name (JSON key).
    pub name: &'static str,
    /// The section's metrics.
    pub metrics: Vec<Metric>,
}

fn device() -> Arc<NandDevice> {
    Arc::new(DeviceBuilder::new(FlashGeometry::example()).timing(TimingModel::mlc_2015()).build())
}

/// Physical address of the `i`-th page when striping a batch round-robin
/// over the dies (block 0 of each die).
pub fn striped_addr(geo: &FlashGeometry, i: u32) -> PageAddr {
    let die = i % geo.total_dies();
    let page = i / geo.total_dies();
    PageAddr::new(DieId(die), 0, 0, page)
}

/// Program `total` striped pages keeping at most `depth` commands in
/// flight; returns the simulated completion time of the batch and the
/// device utilisation summary.
pub fn run_at_depth(total: u32, depth: usize) -> (SimTime, UtilizationSummary) {
    let dev = device();
    let geo = *dev.geometry();
    let data = vec![0xD7u8; geo.page_size as usize];
    // Completion instants of the commands in flight, oldest first.
    let mut window: VecDeque<SimTime> = VecDeque::with_capacity(depth);
    let mut clock = SimTime::ZERO;
    let mut done = SimTime::ZERO;
    for i in 0..total {
        if window.len() == depth {
            // The oldest in-flight command gates the next one — exactly
            // how a depth-limited host driver behaves.
            if let Some(completed) = window.pop_front() {
                clock = clock.max(completed);
            }
        }
        let program = FlashCommand::Program {
            addr: striped_addr(&geo, i),
            data: &data,
            meta: PageMetadata::new(1, u64::from(i)),
        };
        let completed = dev.execute(program, clock, IoTag::default()).unwrap().outcome.completed_at;
        done = done.max(completed);
        window.push_back(completed);
    }
    (done, dev.utilization())
}

/// Queued `write_batch` vs sequential submission of the same pages over a
/// 4-die region.
#[derive(Debug)]
pub struct BatchComparison {
    /// Simulated completion of the queued batch.
    pub queued: SimTime,
    /// Simulated completion of the sequential writes.
    pub sequential: SimTime,
    /// Device utilisation after the queued batch.
    pub queued_util: UtilizationSummary,
    /// Device utilisation after the sequential writes.
    pub sequential_util: UtilizationSummary,
    /// Metrics snapshot of the queued run's stack.
    pub queued_metrics: MetricsSnapshot,
    /// Metrics snapshot of the sequential run's stack.
    pub sequential_metrics: MetricsSnapshot,
}

impl BatchComparison {
    /// Sequential-over-queued simulated-time ratio.
    pub fn speedup(&self) -> f64 {
        self.sequential.as_secs_f64() / self.queued.as_secs_f64().max(f64::MIN_POSITIVE)
    }
}

/// Measure [`BatchComparison`] for a batch of `pages` pages.
///
/// The utilisation summaries are restricted to the dies the 4-die bench
/// region actually owns: the example device has 8 dies, and summarising
/// all of them used to report `util_min = 0.0` from the 4 dies the
/// region never touched (the `write_batch_util_min` flatline in
/// `BENCH_PR8.json`).
pub fn write_batch_comparison(pages: u64) -> BatchComparison {
    let make = || {
        let dev = device();
        let noftl = NoFtl::new(dev.clone(), NoFtlConfig::default());
        let rid = noftl.create_region(RegionSpec::named("rg").with_die_count(4)).unwrap();
        let obj = noftl.create_object("t", rid).unwrap();
        (dev, noftl, rid, obj)
    };
    let payload = |p: u64| vec![p as u8; 4096];

    let (dev, noftl, rid, obj) = make();
    let batch: Vec<(u32, u64, Vec<u8>)> = (0..pages).map(|p| (obj, p, payload(p))).collect();
    let queued = noftl.write_batch(&batch, SimTime::ZERO).unwrap();
    let queued_util = dev.utilization().restricted_to(&noftl.region_dies(rid).unwrap());
    let queued_metrics = noftl.metrics_snapshot();

    let (dev, noftl, rid, obj) = make();
    let mut sequential = SimTime::ZERO;
    for p in 0..pages {
        sequential = noftl.write(obj, p, &payload(p), sequential).unwrap();
    }
    let sequential_util = dev.utilization().restricted_to(&noftl.region_dies(rid).unwrap());
    let sequential_metrics = noftl.metrics_snapshot();
    BatchComparison {
        queued,
        sequential,
        queued_util,
        sequential_util,
        queued_metrics,
        sequential_metrics,
    }
}

/// Per-die busy fractions reconstructed from a stack's metrics snapshot:
/// `flash.die<i>.busy_ns` over `flash.device.quiesce_ns`.  This is the
/// registry-backed replacement for the bespoke per-die counters the
/// `queue_depth` bench used to print from [`UtilizationSummary::per_die`].
pub fn per_die_busy_fractions(snap: &MetricsSnapshot) -> Vec<f64> {
    let quiesce = snap.gauge("flash.device.quiesce_ns").unwrap_or(0).max(1) as f64;
    let mut fractions = Vec::new();
    for die in 0.. {
        let Some(busy) = snap.gauge(&format!("flash.die{die}.busy_ns")) else { break };
        fractions.push(busy as f64 / quiesce);
    }
    fractions
}

/// Queue-depth section: simulated batch completion vs queue depth and the
/// queued/sequential `write_batch` headline (with its per-die utilisation
/// spread).
pub fn queue_depth_section() -> Section {
    let dies = FlashGeometry::example().total_dies() as usize;
    let mut metrics = Vec::new();
    for (name, depth) in
        [("depth_1_us", 1usize), ("depth_4_us", 4), ("depth_8_us", 8), ("depth_dies_us", dies)]
    {
        let (done, _) = run_at_depth(64, depth);
        metrics.push(Metric::new(name, done.as_secs_f64() * 1e6, "us_sim"));
    }
    let cmp = write_batch_comparison(64);
    metrics.push(Metric::new("write_batch_queued_us", cmp.queued.as_secs_f64() * 1e6, "us_sim"));
    metrics.push(Metric::new(
        "write_batch_sequential_us",
        cmp.sequential.as_secs_f64() * 1e6,
        "us_sim",
    ));
    metrics.push(Metric::new("write_batch_speedup", cmp.speedup(), "x"));
    metrics.push(Metric::new("write_batch_util_mean", cmp.queued_util.mean, "fraction"));
    metrics.push(Metric::new("write_batch_util_min", cmp.queued_util.min, "fraction"));
    metrics.push(Metric::new("write_batch_util_max", cmp.queued_util.max, "fraction"));
    Section { name: "queue_depth", metrics }
}

/// The KV workload used by both the section below and the `kv_ops`
/// criterion bench: a store over a 6-die region of the example device.
pub fn kv_stack(queued_flush: bool) -> (Arc<NandDevice>, Arc<NoFtl>, KvStore) {
    let dev = device();
    let noftl = Arc::new(NoFtl::new(dev.clone(), NoFtlConfig::default()));
    let rid = noftl.create_region(RegionSpec::named("rgKv").with_die_count(6)).unwrap();
    let config = KvConfig { queued_flush, ..KvConfig::default() };
    let (store, _) = KvStore::create(Arc::clone(&noftl), rid, "bench", config, SimTime::ZERO)
        .expect("store creates");
    (dev, noftl, store)
}

fn kv_key(i: u64) -> Vec<u8> {
    format!("user{:08}", i * 2_654_435_761 % 100_000_000).into_bytes()
}

fn kv_val(i: u64) -> Vec<u8> {
    format!("value-{i:08}-{}", "x".repeat(48)).into_bytes()
}

/// KV section: simulated put/get/scan throughput and the queued-vs-
/// sequential flush comparison.
pub fn kv_ops_section(quick: bool) -> Section {
    let puts: u64 = if quick { 4_000 } else { 16_000 };
    let gets: u64 = if quick { 500 } else { 2_000 };

    let (_dev, _noftl, store) = kv_stack(true);
    let mut t = SimTime::ZERO;
    for i in 0..puts {
        t = store.put(&kv_key(i), &kv_val(i), t).unwrap();
    }
    let load_done = store.flush(t).unwrap();
    let put_kops = puts as f64 / load_done.as_secs_f64().max(f64::MIN_POSITIVE) / 1e3;

    let mut now = load_done;
    for i in 0..gets {
        let probe = i * (puts / gets).max(1);
        let (hit, t2) = store.get(&kv_key(probe), now).unwrap();
        now = t2;
        assert!(hit.is_some(), "loaded key must be found");
    }
    let get_kops = gets as f64 / (now - load_done).as_secs_f64().max(f64::MIN_POSITIVE) / 1e3;

    let scan_start = now;
    let (rows, scan_done) = store.scan(None, None, scan_start).unwrap();
    let scan_krows =
        rows.len() as f64 / (scan_done - scan_start).as_secs_f64().max(f64::MIN_POSITIVE) / 1e3;
    let stats = store.stats();

    // Queued vs sequential flush of one identical memtable.
    let flush_time = |queued: bool| {
        let (_d, _n, s) = kv_stack(queued);
        let mut t = SimTime::ZERO;
        for i in 0..600u64 {
            t = s.put(&kv_key(i), &kv_val(i), t).unwrap();
        }
        let start = t;
        (s.flush(t).unwrap() - start).as_secs_f64() * 1e6
    };
    let queued_us = flush_time(true);
    let sequential_us = flush_time(false);

    Section {
        name: "kv_ops",
        metrics: vec![
            Metric::new("put_throughput_kops", put_kops, "kops_sim"),
            Metric::new("get_throughput_kops", get_kops, "kops_sim"),
            Metric::new("scan_throughput_krows", scan_krows, "krows_sim"),
            Metric::new("flushes", stats.flushes as f64, "count"),
            Metric::new("compactions", stats.compactions as f64, "count"),
            Metric::new("flush_queued_us", queued_us, "us_sim"),
            Metric::new("flush_sequential_us", sequential_us, "us_sim"),
            Metric::new("flush_speedup", sequential_us / queued_us.max(f64::MIN_POSITIVE), "x"),
        ],
    }
}

/// Recovery section: mount + WAL redo after a workload, as in the
/// `recovery` criterion bench but sized for a smoke run.
pub fn recovery_section(quick: bool) -> Section {
    let txns: i64 = if quick { 60 } else { 240 };
    let config = DatabaseConfig {
        buffer_pages: 512,
        redo_logging: true,
        wal_segment_pages: 1_000_000, // keep the tail; we want it long
        ..DatabaseConfig::default()
    };
    let device = device();
    let noftl = Arc::new(NoFtl::new(device.clone(), NoFtlConfig::default()));
    let placement = PlacementConfig::traditional(8, ["t".to_string()]);
    let backend = Arc::new(NoFtlBackend::new(Arc::clone(&noftl), &placement).unwrap());
    let db = Database::open(backend, config).unwrap();
    db.create_table(
        "t",
        Schema::new(vec![("k", dbms_engine::ColumnType::Int), ("v", dbms_engine::ColumnType::Int)]),
        SimTime::ZERO,
    )
    .unwrap();
    let mut t = db.checkpoint(SimTime::ZERO).unwrap();
    for i in 0..txns {
        let mut txn = db.begin(t);
        db.insert(&mut txn, "t", &vec![Value::Int(i), Value::Int(i * 7)], &[]).unwrap();
        db.commit(&mut txn).unwrap();
        t = txn.now;
    }
    let wal_pages = db.wal_stats().pages;
    let snapshot: DeviceSnapshot = device.snapshot();

    let wall = Instant::now();
    let device2 = Arc::new(NandDevice::from_snapshot(&snapshot, TimingModel::mlc_2015()).unwrap());
    let (noftl2, mount) = NoFtl::mount(device2, NoFtlConfig::default(), SimTime::ZERO).unwrap();
    let backend2 = Arc::new(NoFtlBackend::attach(Arc::new(noftl2), &placement).unwrap());
    let (_db2, report) = Database::recover(backend2, config, mount.completed_at).unwrap();
    let wall_ms = wall.elapsed().as_secs_f64() * 1e3;

    Section {
        name: "recovery",
        metrics: vec![
            Metric::new("wal_pages", wal_pages as f64, "pages"),
            Metric::new("redo_pages_applied", report.redo_pages_applied as f64, "pages"),
            Metric::new("pages_scanned", mount.pages_scanned as f64, "pages"),
            Metric::new("mount_simulated_us", mount.completed_at.as_secs_f64() * 1e6, "us_sim"),
            Metric::new("reboot_recover_wall_ms", wall_ms, "wall_ms"),
        ],
    }
}

/// Mirror section: degraded-read latency and rebuild throughput over a
/// 2-way `MirrorDevice`.  A NoFTL stack writes a working set through the
/// mirror, reads it healthy, loses a child and reads it degraded (all
/// traffic squeezed onto the surviving child), then reattaches the child
/// and measures the online rebuild of exactly the stale segments.  All
/// values are simulated device time.
pub fn mirror_section(quick: bool) -> Section {
    use noftl_mirror::MirrorDevice;

    let pages: u64 = if quick { 96 } else { 384 };
    let mirror = Arc::new(
        MirrorDevice::new_fresh(2, FlashGeometry::example(), TimingModel::mlc_2015()).unwrap(),
    );
    let (noftl, _rid) = NoFtl::with_single_region(mirror.clone(), NoFtlConfig::default());
    let obj = noftl.create_object_in("t", "rgAll").unwrap();
    let mut t = SimTime::ZERO;
    for p in 0..pages {
        t = noftl.write(obj, p, &vec![p as u8; 4096], t).unwrap();
    }
    t = noftl.checkpoint(t).unwrap();

    // Healthy read sweep: both children online, reads spread across them.
    let healthy_start = t;
    for p in 0..pages {
        t = t.max(noftl.read(obj, p, t).unwrap().1);
    }
    let healthy_us = (t.as_nanos() - healthy_start.as_nanos()) as f64 / 1e3;

    // Lose child 1 and overwrite a quarter of the set (accrues dirt),
    // then sweep again: every read lands on the surviving child.
    mirror.injector().arm(1, t);
    t = SimTime(t.as_nanos() + 1);
    for p in 0..pages / 4 {
        t = noftl.write(obj, p, &vec![0xD0u8.wrapping_add(p as u8); 4096], t).unwrap();
    }
    let degraded_start = t;
    for p in 0..pages {
        t = t.max(noftl.read(obj, p, t).unwrap().1);
    }
    let degraded_us = (t.as_nanos() - degraded_start.as_nanos()) as f64 / 1e3;

    // Reattach and rebuild online: copies only the stale segments.
    mirror.injector().clear(1);
    let dirty = mirror.dirty_segments(1);
    mirror.start_rebuild(1, t).unwrap();
    let report = mirror.rebuild(1, 8, t).unwrap();
    assert!(report.child_online, "bench rebuild must drain");
    let rebuild_ns = report.completed_at.as_nanos().saturating_sub(t.as_nanos()).max(1);
    // Pages copied per simulated second, in thousands.
    let rebuild_kpps = report.pages_copied as f64 / (rebuild_ns as f64 / 1e9) / 1e3;

    Section {
        name: "mirror",
        metrics: vec![
            Metric::new("healthy_read_sweep_us", healthy_us, "us_sim"),
            Metric::new("degraded_read_sweep_us", degraded_us, "us_sim"),
            Metric::new("degraded_read_penalty", degraded_us / healthy_us.max(1.0), "x"),
            Metric::new("dirty_segments", dirty as f64, "segments"),
            Metric::new("rebuild_pages_copied", report.pages_copied as f64, "pages"),
            Metric::new("rebuild_simulated_us", rebuild_ns as f64 / 1e3, "us_sim"),
            Metric::new("rebuild_throughput_kpps", rebuild_kpps, "kops_sim"),
        ],
    }
}

/// The latency quantiles the smoke run reports per histogram.
const LATENCY_SPECS: [(&str, &str, f64); 12] = [
    ("queued_read_p50_us", "flash.op.read.latency_ns", 0.5),
    ("queued_read_p99_us", "flash.op.read.latency_ns", 0.99),
    ("queued_read_p999_us", "flash.op.read.latency_ns", 0.999),
    ("queued_write_p50_us", "flash.op.program.latency_ns", 0.5),
    ("queued_write_p99_us", "flash.op.program.latency_ns", 0.99),
    ("queued_write_p999_us", "flash.op.program.latency_ns", 0.999),
    ("flush_window_p50_us", "core.flush.window_ns", 0.5),
    ("flush_window_p99_us", "core.flush.window_ns", 0.99),
    ("flush_window_p999_us", "core.flush.window_ns", 0.999),
    ("kv_put_p50_us", "kv.put.latency_ns", 0.5),
    ("kv_put_p99_us", "kv.put.latency_ns", 0.99),
    ("kv_put_p999_us", "kv.put.latency_ns", 0.999),
];

/// Latency section: percentile latencies read back out of the shared
/// metrics registry after a mixed workload — device reads, device
/// programs, windowed flushes and KV puts.  All values are simulated
/// time, so the percentiles are deterministic across runs and machines.
pub fn latency_section(quick: bool) -> Section {
    let pages: u64 = if quick { 192 } else { 768 };
    let puts: u64 = if quick { 2_000 } else { 8_000 };
    let dev = device();
    let noftl = Arc::new(NoFtl::new(dev.clone(), NoFtlConfig::default()));
    let rid = noftl.create_region(RegionSpec::named("rgLat").with_die_count(4)).unwrap();
    let obj = noftl.create_object("t", rid).unwrap();

    // Windowed writes fill `flash.op.program.latency_ns` and
    // `core.flush.window_ns`.
    let batch: Vec<(u32, u64, Vec<u8>)> =
        (0..pages).map(|p| (obj, p, vec![p as u8; 4096])).collect();
    let mut now = SimTime::ZERO;
    for chunk in batch.chunks(64) {
        now = now.max(noftl.write_windowed(chunk, now, 16).unwrap());
    }
    // A read sweep fills `flash.op.read.latency_ns`.  The percentiles
    // are sampled *here*, before the KV phase: its compaction merges
    // read through the same device (deliberately overlapped, so
    // individually longer waits buy shorter scans) and would skew the
    // sweep's distribution.
    for p in 0..pages {
        now = now.max(noftl.read(obj, p, now).unwrap().1);
    }
    let read_snap = noftl.metrics_snapshot();
    // KV puts (into a second region of the same stack) fill
    // `kv.put.latency_ns` — mostly memtable-resident, with flush spikes
    // in the tail.
    let kv_rid = noftl.create_region(RegionSpec::named("rgKvLat").with_die_count(4)).unwrap();
    let (store, mut t) =
        KvStore::create(Arc::clone(&noftl), kv_rid, "lat", KvConfig::default(), now).unwrap();
    for i in 0..puts {
        t = store.put(&kv_key(i), &kv_val(i), t).unwrap();
    }
    store.flush(t).unwrap();

    let snap = noftl.metrics_snapshot();
    let metrics = LATENCY_SPECS
        .iter()
        .map(|&(name, hist, q)| {
            let source = if hist == "flash.op.read.latency_ns" { &read_snap } else { &snap };
            let value = source.histogram(hist).map_or(0, |h| h.percentile(q));
            Metric::new(name, value as f64 / 1e3, "us_sim")
        })
        .collect();
    Section { name: "latency", metrics }
}

/// The PR number stamped into the perf-trajectory JSON.  Rolling the
/// perf point is: bump this, regenerate `BENCH_PR<n>.json` with
/// `perf_smoke --quick --scenarios all`, copy it over
/// `BENCH_BASELINE.json` — the one file CI gates and diffs against.
pub const PERF_POINT_PR: u32 = 22;

/// Serialise sections into a `BENCH_*.json` perf-trajectory point.
pub fn write_json(path: &Path, mode: &str, sections: &[Section]) -> std::io::Result<()> {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"pr\": {PERF_POINT_PR},\n"));
    out.push_str("  \"tool\": \"perf_smoke\",\n");
    out.push_str(&format!("  \"mode\": \"{mode}\",\n"));
    out.push_str("  \"sections\": {\n");
    for (si, section) in sections.iter().enumerate() {
        out.push_str(&format!("    \"{}\": {{\n", section.name));
        for (mi, m) in section.metrics.iter().enumerate() {
            let comma = if mi + 1 == section.metrics.len() { "" } else { "," };
            out.push_str(&format!(
                "      \"{}\": {{\"value\": {:.3}, \"unit\": \"{}\"}}{comma}\n",
                m.name, m.value, m.unit
            ));
        }
        let comma = if si + 1 == sections.len() { "" } else { "," };
        out.push_str(&format!("    }}{comma}\n"));
    }
    out.push_str("  }\n}\n");
    let mut file = std::fs::File::create(path)?;
    file.write_all(out.as_bytes())
}

/// One metric parsed back out of a committed `BENCH_*.json` point.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedMetric {
    /// Section the metric belongs to.
    pub section: String,
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit label.
    pub unit: String,
}

/// Parse the metrics out of a `BENCH_*.json` perf point (as written by
/// [`write_json`]; whitespace and key order are free, fields this reader
/// does not know are ignored).  Anything that is not a perf point — bad
/// JSON, no `sections` object, a metric without a numeric `value` and a
/// string `unit` — is an error, never an empty list: a gate comparing
/// against nothing passes vacuously.
pub fn parse_bench_json(text: &str) -> Result<Vec<ParsedMetric>, String> {
    use noftl_obs::json::{self, Json};
    let root = json::parse(text)?;
    let Some(Json::Obj(sections)) = root.get("sections") else {
        return Err("no `sections` object".to_string());
    };
    let mut out = Vec::new();
    for (section, metrics) in sections {
        let Json::Obj(metrics) = metrics else {
            return Err(format!("section `{section}` is not an object"));
        };
        for (name, metric) in metrics {
            let value = metric.get("value").and_then(Json::as_f64);
            let unit = metric.get("unit").and_then(Json::as_str);
            let (Some(value), Some(unit)) = (value, unit) else {
                return Err(format!("metric `{section}/{name}` lacks a value or a unit"));
            };
            out.push(ParsedMetric {
                section: section.clone(),
                name: name.clone(),
                value,
                unit: unit.to_string(),
            });
        }
    }
    Ok(out)
}

/// Verdict of comparing a fresh perf point against a committed baseline.
#[derive(Debug, Default)]
pub struct BenchComparison {
    /// Hard failures: shared simulated-time metrics that regressed beyond
    /// the tolerance.
    pub failures: Vec<String>,
    /// Warn-only observations: new metrics without a baseline, retired
    /// baseline metrics, improvements, non-gating drift.
    pub notes: Vec<String>,
}

/// Gating direction of a metric unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum GateDirection {
    /// Simulated time: a value above the baseline is a regression.
    LowerIsBetter,
    /// Simulated throughput: a value below the baseline is a regression.
    HigherIsBetter,
    /// Wall-clock, counts, unitless values: never gate.
    Skip,
}

/// Gating direction of a metric, from its unit and — for the
/// direction-ambiguous units — its name.
///
/// * `us_sim` simulated latencies: lower is better.
/// * `kops_sim` / `krows_sim` simulated throughput: higher is better.
/// * `x` ratios are speedups (higher is better) unless the name marks
///   them a penalty (e.g. `degraded_read_penalty`, `mt_oltp_p99_penalty`):
///   then lower is better.  These used to be silently skipped.
/// * `fraction` gates only the utilisation *floors* (names containing
///   `min`, e.g. `write_batch_util_min`): higher is better.  Means and
///   maxima stay warn-only — a mean can legitimately drop when a change
///   shortens the denominator window.
/// * Everything else (wall-clock, counts, pages, segments) never gates.
fn gate_direction(name: &str, unit: &str) -> GateDirection {
    match unit {
        "us_sim" => GateDirection::LowerIsBetter,
        "kops_sim" | "krows_sim" => GateDirection::HigherIsBetter,
        "x" if name.contains("penalty") => GateDirection::LowerIsBetter,
        "x" => GateDirection::HigherIsBetter,
        "fraction" if name.contains("min") => GateDirection::HigherIsBetter,
        _ => GateDirection::Skip,
    }
}

/// Compare fresh `sections` against a committed baseline point
/// (`old_text`, as written by [`write_json`] — any PR's).
///
/// Every **shared simulated metric** gates, direction-aware (see
/// `gate_direction`): `us_sim` (lower is better, including the
/// latency-section histogram percentiles) fails when more than
/// `tolerance` (e.g. `0.2` = 20 %) above the baseline;
/// `kops_sim`/`krows_sim`, `x` speedups and `fraction` utilisation
/// floors (higher is better) fail when more than `tolerance` below it;
/// `x` penalties gate like latencies.  Metrics present on only one side
/// are warn-only — a new PR may add metrics freely — and whatever is
/// skipped as non-gating is listed by name in a single note, so a
/// silently-ungated metric is visible in the job log.
///
/// A baseline that does not parse, or that shares no gated metric with
/// `sections`, is a failure: such a comparison checks nothing.
pub fn compare_perf_points(
    old_text: &str,
    sections: &[Section],
    tolerance: f64,
) -> BenchComparison {
    let mut cmp = BenchComparison::default();
    let old = match parse_bench_json(old_text) {
        Ok(old) => old,
        Err(e) => {
            cmp.failures.push(format!("baseline is not a perf point: {e}"));
            return cmp;
        }
    };
    let mut gated = 0usize;
    let mut skipped: Vec<String> = Vec::new();
    for section in sections {
        for m in &section.metrics {
            let baseline = old.iter().find(|o| o.section == section.name && o.name == m.name);
            let Some(baseline) = baseline else {
                cmp.notes.push(format!(
                    "{}/{}: new metric, no baseline (warn-only)",
                    section.name, m.name
                ));
                continue;
            };
            // Gate only when both sides agree on the unit; a metric whose
            // unit changed is effectively a different measurement.
            let direction = if m.unit == baseline.unit {
                gate_direction(&m.name, m.unit)
            } else {
                GateDirection::Skip
            };
            if direction == GateDirection::Skip {
                skipped.push(format!("{}/{}", section.name, m.name));
                continue;
            }
            gated += 1;
            let (regressed, improved) = match direction {
                GateDirection::LowerIsBetter => (
                    m.value > baseline.value * (1.0 + tolerance),
                    m.value < baseline.value * (1.0 - tolerance),
                ),
                GateDirection::HigherIsBetter => (
                    m.value < baseline.value * (1.0 - tolerance),
                    m.value > baseline.value * (1.0 + tolerance),
                ),
                GateDirection::Skip => (false, false),
            };
            if regressed {
                cmp.failures.push(format!(
                    "{}/{}: {:.1} {} vs baseline {:.1} (> {:.0}% regression)",
                    section.name,
                    m.name,
                    m.value,
                    m.unit,
                    baseline.value,
                    tolerance * 100.0
                ));
            } else if improved {
                cmp.notes.push(format!(
                    "{}/{}: improved to {:.1} {} from {:.1}",
                    section.name, m.name, m.value, m.unit, baseline.value
                ));
            }
        }
    }
    for o in &old {
        let retired = !sections
            .iter()
            .any(|s| s.name == o.section && s.metrics.iter().any(|m| m.name == o.name));
        if retired && !o.section.is_empty() {
            cmp.notes
                .push(format!("{}/{}: baseline metric retired (warn-only)", o.section, o.name));
        }
    }
    if !skipped.is_empty() {
        cmp.notes.push(format!(
            "skipped {} non-gating metric(s) (wall-clock/count/unitless): {}",
            skipped.len(),
            skipped.join(", ")
        ));
    }
    if gated == 0 {
        cmp.failures.push("the baseline shares no gated metric with this run".to_string());
    }
    cmp
}

/// Render sections as an aligned text table (the binary's stdout).
pub fn render_table(sections: &[Section]) -> String {
    let mut out = String::new();
    for section in sections {
        out.push_str(&format!("[{}]\n", section.name));
        for m in &section.metrics {
            out.push_str(&format!("  {:<28} {:>14.3} {}\n", m.name, m.value, m.unit));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queue_depth_section_is_sane() {
        let section = queue_depth_section();
        let get =
            |name: &str| section.metrics.iter().find(|m| m.name == name).map(|m| m.value).unwrap();
        assert!(get("depth_1_us") >= get("depth_dies_us"), "deeper queues never slower");
        assert!(get("write_batch_speedup") > 1.0, "queued batch must beat sequential");
    }

    #[test]
    fn kv_ops_section_quick_is_sane() {
        let section = kv_ops_section(true);
        let get =
            |name: &str| section.metrics.iter().find(|m| m.name == name).map(|m| m.value).unwrap();
        assert!(get("put_throughput_kops") > 0.0);
        assert!(get("flushes") >= 1.0);
        assert!(get("flush_speedup") > 1.0, "queued flush must beat sequential");
    }

    #[test]
    fn recovery_section_quick_is_sane() {
        let section = recovery_section(true);
        let get =
            |name: &str| section.metrics.iter().find(|m| m.name == name).map(|m| m.value).unwrap();
        assert!(get("wal_pages") > 0.0);
        assert!(get("redo_pages_applied") > 0.0);
    }

    #[test]
    fn json_serialisation_shape() {
        let sections = vec![Section {
            name: "demo",
            metrics: vec![Metric::new("a", 1.5, "us_sim"), Metric::new("b", 2.0, "x")],
        }];
        let path = std::env::temp_dir().join(format!("bench-smoke-{}.json", std::process::id()));
        write_json(&path, "quick", &sections).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert!(text.contains("\"demo\""));
        assert!(text.contains("\"a\": {\"value\": 1.500, \"unit\": \"us_sim\"}"));
        assert!(text.contains(&format!("\"pr\": {PERF_POINT_PR}")));
        let table = render_table(&sections);
        assert!(table.contains("[demo]"));
    }

    #[test]
    fn bench_json_roundtrips_through_the_parser() {
        let sections = vec![Section {
            name: "queue_depth",
            metrics: vec![
                Metric::new("depth_1_us", 45760.0, "us_sim"),
                Metric::new("write_batch_speedup", 4.05, "x"),
            ],
        }];
        let path = std::env::temp_dir().join(format!("bench-parse-{}.json", std::process::id()));
        write_json(&path, "quick", &sections).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let parsed = parse_bench_json(&text).unwrap();
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].section, "queue_depth");
        assert_eq!(parsed[0].name, "depth_1_us");
        assert_eq!(parsed[0].value, 45760.0);
        assert_eq!(parsed[0].unit, "us_sim");
        assert_eq!(parsed[1].unit, "x");
    }

    fn committed(file: &str) -> String {
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
        std::fs::read_to_string(format!("{root}/{file}"))
            .unwrap_or_else(|e| panic!("{file} is committed at the repo root: {e}"))
    }

    /// The committed perf point, as the repository holds it.
    fn committed_point() -> String {
        committed("BENCH_BASELINE.json")
    }

    #[test]
    fn the_baseline_pointer_is_the_newest_numbered_point() {
        let baseline = committed_point();
        assert_eq!(baseline, committed(&format!("BENCH_PR{PERF_POINT_PR}.json")));
        assert!(baseline.contains(&format!("\"pr\": {PERF_POINT_PR},")));
    }

    #[test]
    fn a_reindented_baseline_still_gates() {
        let committed = committed_point();
        let metrics = parse_bench_json(&committed).unwrap();
        assert!(metrics.len() > 50, "the committed point carries the whole trajectory");
        // Re-indent: one token per line, tabs instead of spaces.  A line
        // scanner keyed on the emitter's layout reads zero metrics here.
        let reindented =
            committed.replace(", ", ",\n\t\t\t").replace("{\"value\"", "{\n\t\t\t\"value\"");
        assert_ne!(reindented, committed);
        let mut reparsed = parse_bench_json(&reindented).unwrap();
        let mut original = metrics;
        let by_name = |m: &ParsedMetric| (m.section.clone(), m.name.clone());
        reparsed.sort_by_key(by_name);
        original.sort_by_key(by_name);
        assert_eq!(reparsed, original);
        // ...and a regression against it is still caught.
        let depth_1 = original.iter().find(|m| m.name == "depth_1_us").unwrap().value;
        let fresh = vec![Section {
            name: "queue_depth",
            metrics: vec![Metric::new("depth_1_us", depth_1 * 2.0, "us_sim")],
        }];
        let cmp = compare_perf_points(&reindented, &fresh, 0.2);
        assert_eq!(cmp.failures.len(), 1, "failures: {:?}", cmp.failures);
        assert!(cmp.failures[0].contains("depth_1_us"));
    }

    #[test]
    fn a_baseline_that_gates_nothing_fails_the_comparison() {
        let fresh = vec![Section {
            name: "queue_depth",
            metrics: vec![Metric::new("depth_1_us", 1000.0, "us_sim")],
        }];
        let committed = committed_point();
        let truncated = &committed[..committed.len() / 2];
        for (what, baseline) in [("empty object", "{}"), ("truncated", truncated), ("empty", "")] {
            let cmp = compare_perf_points(baseline, &fresh, 0.2);
            assert_eq!(cmp.failures.len(), 1, "{what}: {:?}", cmp.failures);
            assert!(cmp.failures[0].contains("not a perf point"), "{what}: {:?}", cmp.failures);
        }
        // Parses, but none of its metrics is one this run gates.
        let disjoint = r#"{"sections": {"other": {"x_us": {"value": 1.0, "unit": "us_sim"}}}}"#;
        let cmp = compare_perf_points(disjoint, &fresh, 0.2);
        assert_eq!(cmp.failures.len(), 1, "{:?}", cmp.failures);
        assert!(cmp.failures[0].contains("no gated metric"));
    }

    #[test]
    fn perf_comparison_gates_only_shared_simulated_time_metrics() {
        let baseline = vec![Section {
            name: "queue_depth",
            metrics: vec![
                Metric::new("depth_1_us", 1000.0, "us_sim"),
                Metric::new("old_only_us", 5.0, "us_sim"),
                Metric::new("wall", 3.0, "wall_ms"),
            ],
        }];
        let path = std::env::temp_dir().join(format!("bench-cmp-{}.json", std::process::id()));
        write_json(&path, "quick", &baseline).unwrap();
        let old_text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();

        // 30 % regression on a shared us_sim metric fails at 20 % tolerance;
        // new metrics and wall-clock drift are warn-only.
        let fresh = vec![Section {
            name: "queue_depth",
            metrics: vec![
                Metric::new("depth_1_us", 1300.0, "us_sim"),
                Metric::new("brand_new_us", 9.0, "us_sim"),
                Metric::new("wall", 300.0, "wall_ms"),
            ],
        }];
        let cmp = compare_perf_points(&old_text, &fresh, 0.2);
        assert_eq!(cmp.failures.len(), 1, "failures: {:?}", cmp.failures);
        assert!(cmp.failures[0].contains("depth_1_us"));
        assert!(cmp.notes.iter().any(|n| n.contains("brand_new_us") && n.contains("warn-only")));
        assert!(cmp.notes.iter().any(|n| n.contains("old_only_us") && n.contains("retired")));

        // Within tolerance: clean.
        let fresh_ok = vec![Section {
            name: "queue_depth",
            metrics: vec![Metric::new("depth_1_us", 1100.0, "us_sim")],
        }];
        assert!(compare_perf_points(&old_text, &fresh_ok, 0.2).failures.is_empty());
    }

    #[test]
    fn mirror_section_quick_is_sane() {
        let section = mirror_section(true);
        let get =
            |name: &str| section.metrics.iter().find(|m| m.name == name).map(|m| m.value).unwrap();
        assert!(get("healthy_read_sweep_us") > 0.0);
        assert!(
            get("degraded_read_sweep_us") >= get("healthy_read_sweep_us"),
            "losing a child cannot make reads faster"
        );
        assert!(get("dirty_segments") >= 1.0, "degraded writes must dirty segments");
        assert!(get("rebuild_pages_copied") > 0.0);
        assert!(get("rebuild_throughput_kpps") > 0.0);
    }

    #[test]
    fn latency_section_quick_is_sane() {
        let section = latency_section(true);
        assert_eq!(section.metrics.len(), LATENCY_SPECS.len());
        let get =
            |name: &str| section.metrics.iter().find(|m| m.name == name).map(|m| m.value).unwrap();
        // Reads, writes and windows all saw real device latency.
        assert!(get("queued_read_p50_us") > 0.0);
        assert!(get("queued_write_p50_us") > 0.0);
        assert!(get("flush_window_p50_us") > 0.0);
        // Percentiles are monotone within each histogram.
        for prefix in ["queued_read", "queued_write", "flush_window", "kv_put"] {
            let p50 = get(&format!("{prefix}_p50_us"));
            let p99 = get(&format!("{prefix}_p99_us"));
            let p999 = get(&format!("{prefix}_p999_us"));
            assert!(p50 <= p99 && p99 <= p999, "{prefix}: {p50} {p99} {p999}");
        }
        // The KV tail catches flush spikes even though the median put is
        // memtable-resident.
        assert!(get("kv_put_p999_us") >= get("kv_put_p50_us"));
    }

    #[test]
    fn perf_comparison_gates_throughput_decreases() {
        let baseline = vec![Section {
            name: "kv_ops",
            metrics: vec![
                Metric::new("put_throughput_kops", 100.0, "kops_sim"),
                Metric::new("flushes", 4.0, "count"),
            ],
        }];
        let path = std::env::temp_dir().join(format!("bench-dir-{}.json", std::process::id()));
        write_json(&path, "quick", &baseline).unwrap();
        let old_text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();

        // A 30 % throughput drop fails at 20 % tolerance; the count metric
        // is skipped and summarised in one note.
        let fresh = vec![Section {
            name: "kv_ops",
            metrics: vec![
                Metric::new("put_throughput_kops", 70.0, "kops_sim"),
                Metric::new("flushes", 400.0, "count"),
            ],
        }];
        let cmp = compare_perf_points(&old_text, &fresh, 0.2);
        assert_eq!(cmp.failures.len(), 1, "failures: {:?}", cmp.failures);
        assert!(cmp.failures[0].contains("put_throughput_kops"));
        assert!(
            cmp.notes.iter().any(|n| n.contains("skipped 1 non-gating") && n.contains("flushes")),
            "notes: {:?}",
            cmp.notes
        );

        // A throughput *increase* is an improvement, not a failure.
        let faster = vec![Section {
            name: "kv_ops",
            metrics: vec![Metric::new("put_throughput_kops", 140.0, "kops_sim")],
        }];
        let cmp = compare_perf_points(&old_text, &faster, 0.2);
        assert!(cmp.failures.is_empty());
        assert!(cmp.notes.iter().any(|n| n.contains("improved")));
    }

    #[test]
    fn write_batch_util_covers_only_region_dies() {
        // Regression: the bench region owns 4 of the example device's 8
        // dies.  Summarising the whole device left `util_min` pinned at
        // 0.0 by the 4 dies the region never touched.
        let cmp = write_batch_comparison(64);
        assert_eq!(cmp.queued_util.per_die.len(), 4, "summary must cover the region's dies only");
        assert!(
            cmp.queued_util.min > 0.0,
            "every die of the region works during a striped batch (min = {:.3})",
            cmp.queued_util.min
        );
        assert!(cmp.queued_util.mean >= cmp.queued_util.min);
        assert_eq!(cmp.sequential_util.per_die.len(), 4);
        assert!(cmp.sequential_util.min > 0.0);
    }

    #[test]
    fn perf_comparison_gates_ratios_and_utilisation_floors() {
        let baseline = vec![Section {
            name: "queue_depth",
            metrics: vec![
                Metric::new("write_batch_speedup", 4.0, "x"),
                Metric::new("degraded_read_penalty", 2.0, "x"),
                Metric::new("write_batch_util_min", 0.8, "fraction"),
                Metric::new("write_batch_util_mean", 0.9, "fraction"),
            ],
        }];
        let path = std::env::temp_dir().join(format!("bench-ratio-{}.json", std::process::id()));
        write_json(&path, "quick", &baseline).unwrap();
        let old_text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();

        // Speedup collapse, penalty growth and a utilisation-floor drop
        // all fail; the mean is skipped but listed by name.
        let fresh = vec![Section {
            name: "queue_depth",
            metrics: vec![
                Metric::new("write_batch_speedup", 2.0, "x"),
                Metric::new("degraded_read_penalty", 3.0, "x"),
                Metric::new("write_batch_util_min", 0.4, "fraction"),
                Metric::new("write_batch_util_mean", 0.3, "fraction"),
            ],
        }];
        let cmp = compare_perf_points(&old_text, &fresh, 0.2);
        assert_eq!(cmp.failures.len(), 3, "failures: {:?}", cmp.failures);
        assert!(cmp.failures.iter().any(|f| f.contains("write_batch_speedup")));
        assert!(cmp.failures.iter().any(|f| f.contains("degraded_read_penalty")));
        assert!(cmp.failures.iter().any(|f| f.contains("write_batch_util_min")));
        assert!(
            cmp.notes
                .iter()
                .any(|n| n.contains("non-gating") && n.contains("write_batch_util_mean")),
            "the skipped mean must be listed by name: {:?}",
            cmp.notes
        );

        // The good directions pass: faster speedup, smaller penalty,
        // higher floor.
        let better = vec![Section {
            name: "queue_depth",
            metrics: vec![
                Metric::new("write_batch_speedup", 6.0, "x"),
                Metric::new("degraded_read_penalty", 1.2, "x"),
                Metric::new("write_batch_util_min", 0.95, "fraction"),
            ],
        }];
        let cmp = compare_perf_points(&old_text, &better, 0.2);
        assert!(cmp.failures.is_empty(), "failures: {:?}", cmp.failures);
        assert!(cmp.notes.iter().any(|n| n.contains("improved")));
    }
}

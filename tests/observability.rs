//! Acceptance tests for the cross-layer observability layer.
//!
//! * The Chrome trace emitted after a mixed workload must be valid
//!   `trace_event` JSON (the `observe` example's output is loadable).
//! * Tracing must be a pure observer: a crash-harness cycle run with the
//!   tracer on reports byte-identical recovery to the same cycle with it
//!   off.
//! * `Database::metrics_snapshot` exposes one registry spanning every
//!   layer of the stack.
//! * Every `NoFtl::execute` samples one window rule: its writes into
//!   `core.flush.window_*`, its reads into `core.read.window_*`.
//! * Counts live in each layer's stats struct, not in the registry, and
//!   the layers' ledgers add up: the regions' host and GC work is the
//!   device's command count.

use std::sync::Arc;

use noftl_regions::dbms::crash_harness::{run_crash_cycle, CrashHarnessConfig};
use noftl_regions::dbms::{
    ColumnType, Database, DatabaseConfig, NoFtlBackend, Schema, Value, NO_KEYS,
};
use noftl_regions::dump;
use noftl_regions::flash::{DeviceBuilder, FlashBackend, FlashGeometry, SimTime, TimingModel};
use noftl_regions::noftl::kv::{KvConfig, KvStore};
use noftl_regions::noftl::{
    IoRequest, NoFtl, NoFtlConfig, PlacementConfig, RegionSpec, RegionStats,
};
use noftl_regions::obs::validate_chrome_trace;

fn stack() -> (Arc<NoFtl>, u32) {
    let device = Arc::new(
        DeviceBuilder::new(FlashGeometry::small_test()).timing(TimingModel::mlc_2015()).build(),
    );
    device.metrics().tracer().set_enabled(true);
    let noftl = Arc::new(NoFtl::new(device.clone(), NoFtlConfig::default()));
    // `small_test` has 4 dies; take 2 so the KV test can claim the rest.
    let rid = noftl.create_region(RegionSpec::named("rg").with_die_count(2)).unwrap();
    let obj = noftl.create_object("t", rid).unwrap();
    (noftl, obj)
}

#[test]
fn chrome_trace_from_a_mixed_workload_is_valid() {
    let (noftl, obj) = stack();
    let pages: Vec<Vec<u8>> = (0..32u8).map(|p| vec![p; 4096]).collect();
    let batch = pages.iter().enumerate().map(|(p, data)| IoRequest::write(obj, p as u64, data));
    let mut now = noftl.execute(batch, SimTime::ZERO, 8, |_, _| Ok(())).unwrap();
    let mut page = vec![0; 4096];
    for p in 0..32u64 {
        now = now.max(noftl.read(obj, p, &mut page, now).unwrap());
    }
    let trace = dump::chrome_trace(noftl.metrics());
    let events = validate_chrome_trace(&trace).expect("trace parses as trace_event JSON");
    assert!(events > 0, "the workload must have produced spans");
    // Device-command spans and flush-window spans both appear.
    assert!(trace.contains("\"cat\": \"flash.op\""));
    assert!(trace.contains("\"name\": \"write_window\""));
}

#[test]
fn gc_pacing_is_visible_in_the_registry() {
    // The registry holds GC's distributions and traces; the counts are
    // the regions' and the device's ledgers, checked against each other.
    // 60 % of two dies overwritten five times over: GC runs throughout.
    let (noftl, obj) = stack();
    let pages = 2 * noftl.device().geometry().pages_per_die() * 6 / 10;
    let mut t = SimTime::ZERO;
    let mut rng = 0x0B5E_u64;
    for i in 0..6 * pages {
        rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let p = if i < pages { i } else { (rng >> 33) % pages };
        t = noftl.write(obj, p, &vec![i as u8; 4096], t).unwrap();
    }
    let snap = noftl.metrics_snapshot();
    let mut regions = RegionStats::default();
    for rid in noftl.region_ids() {
        regions.accumulate(&noftl.region_stats(rid).unwrap());
    }
    let device = noftl.device().stats();
    assert!(regions.gc_erases > 0, "the workload must make GC run");
    // One run per collected victim.
    assert_eq!(regions.gc_runs, regions.gc_erases);
    // The layers add up: every copyback and erase on the device is a GC
    // move or a GC erase of some region, every program a host write and
    // every page read a host read — this run takes no checkpoint, so no
    // metadata-journal page hides in the device's counts.
    assert_eq!(regions.gc_copybacks, device.copybacks);
    assert_eq!(regions.gc_erases, device.block_erases);
    assert_eq!(regions.host_writes, device.page_programs);
    assert_eq!(regions.host_reads, device.page_reads);
    // Every allocation on a collecting die is a sample; the largest is the
    // GC stall bound: with no forced step, at most one block's pages.
    let steps = snap.histogram("core.gc.step_pages").expect("registered");
    assert!(steps.count > 0 && steps.max > 0);
    assert!(steps.max <= u64::from(noftl.device().geometry().pages_per_block));
    assert_eq!(snap.counter("core.gc.forced_steps"), Some(0), "no die ever ran dry");
    // Each victim is a `core.gc` instant on its die's track.
    assert!(dump::chrome_trace(noftl.metrics()).contains("\"cat\": \"core.gc\""));
}

#[test]
fn kv_spans_and_histograms_reach_the_registry() {
    let (noftl, _obj) = stack();
    let kv_rid = noftl.create_region(RegionSpec::named("rgKv").with_die_count(2)).unwrap();
    let config = KvConfig { memtable_bytes: 8 * 1024 };
    let (store, mut t) =
        KvStore::create(Arc::clone(&noftl), kv_rid, "obs", config, SimTime::ZERO).unwrap();
    for i in 0..200u64 {
        let key = format!("k{i:05}").into_bytes();
        t = store.put(&key, &[b'v'; 64], t).unwrap();
    }
    let _ = store.flush(t).unwrap();
    let snap = noftl.metrics_snapshot();
    let puts = snap.histogram("kv.put.latency_ns").expect("put histogram registered");
    assert_eq!(puts.count, 200);
    // `KvStats` counts the flushes; the histogram holds one sample each.
    let kv = store.stats();
    assert!(kv.flushes >= 1);
    let flush = snap.histogram("kv.flush.latency_ns").unwrap();
    assert!(flush.count == kv.flushes && flush.percentile(0.5) > 0);
    // The journal behind those commits: one checkpoint for the create and
    // one per flush, merges included (it names the run; sources a merge
    // retires ride the next one), each a single chunk page.
    let checkpoints = snap.counter("core.checkpoint.count").unwrap_or(0);
    assert_eq!(checkpoints, 1 + kv.flushes);
    assert_eq!(snap.counter("core.checkpoint.pages"), Some(checkpoints));
    let latency = snap.histogram("core.checkpoint.latency_ns").expect("checkpoint histogram");
    assert!(latency.count == checkpoints && latency.percentile(0.5) > 0);
    let trace = dump::chrome_trace(noftl.metrics());
    assert!(trace.contains("memtable_flush"));
}

/// One window rule for every `NoFtl::execute`: a call samples one
/// `window_ns` per direction it has requests in — writes into
/// `core.flush.*`, reads into `core.read.*` — and one occupancy per page.
#[test]
fn every_execute_samples_the_windows_of_its_directions() {
    let device = Arc::new(
        DeviceBuilder::new(FlashGeometry::small_test()).timing(TimingModel::mlc_2015()).build(),
    );
    let noftl = Arc::new(NoFtl::new(device, NoFtlConfig::default()));
    // `(window_ns, window_occupancy)` sample counts of one direction.
    let windows = |dir: &str| {
        let snap = noftl.metrics_snapshot();
        let count = |name: String| snap.histogram(&name).map_or(0, |h| h.count);
        (count(format!("core.{dir}.window_ns")), count(format!("core.{dir}.window_occupancy")))
    };

    // A writing commit forces the log once: one write `execute`.
    let placement = PlacementConfig::traditional(2, ["t".to_string()]);
    let backend = Arc::new(NoFtlBackend::new(Arc::clone(&noftl), &placement).unwrap());
    let db = Database::open(backend, DatabaseConfig::default()).unwrap();
    let schema = Schema::new(vec![("k", ColumnType::Int), ("v", ColumnType::Int)]);
    db.create_table("t", schema, SimTime::ZERO).unwrap();
    let now = db.checkpoint(SimTime::ZERO).unwrap();
    let before = windows("flush");
    let mut txn = db.begin(now);
    db.insert(&mut txn, "t", &vec![Value::Int(1), Value::Int(2)], NO_KEYS).unwrap();
    db.commit(&mut txn).unwrap();
    let after = windows("flush");
    assert_eq!(after.0 - before.0, 1, "one force, one write window");
    assert!(after.1 > before.1, "each forced log page samples the occupancy");

    // Every KV flush writes one run in one `execute`; one that merges runs
    // (a compaction) first reads all of its source runs in another.
    // The log's checkpoint took a die for the metadata journal: one is left.
    let kv_rid = noftl.create_region(RegionSpec::named("rgKv").with_die_count(1)).unwrap();
    let config = KvConfig { memtable_bytes: 8 * 1024 };
    let (store, mut t) =
        KvStore::create(Arc::clone(&noftl), kv_rid, "win", config, SimTime::ZERO).unwrap();
    let (flush_before, read_before) = (windows("flush"), windows("read"));
    for i in 0..400u64 {
        t = store.put(format!("k{i:05}").as_bytes(), &[b'v'; 64], t).unwrap();
    }
    let kv = store.stats();
    assert!(kv.flushes >= 2 && kv.compactions >= 1, "{kv:?}");
    let (flush, read) = (windows("flush"), windows("read"));
    assert_eq!(flush.0 - flush_before.0, kv.flushes, "one write window per flush");
    assert_eq!(flush.1 - flush_before.1, kv.flushed_pages + kv.compacted_pages);
    assert_eq!(read.0 - read_before.0, kv.compactions, "one read window per compaction");
    assert_eq!(read.1 - read_before.1, kv.run_page_reads);
}

#[test]
fn tracing_never_perturbs_crash_recovery() {
    let base = CrashHarnessConfig { txns: 60, ..CrashHarnessConfig::default() };
    let quiet = run_crash_cycle(&base, 0.5).expect("untraced cycle recovers");
    let traced_cfg = CrashHarnessConfig { trace: true, ..base };
    let traced = run_crash_cycle(&traced_cfg, 0.5).expect("traced cycle recovers");
    assert_eq!(quiet.mount, traced.mount, "mount reports must be identical tracer on/off");
    assert_eq!(quiet.cut_at, traced.cut_at);
    assert_eq!(quiet.report.committed_txns, traced.report.committed_txns);
    assert_eq!(quiet.recovered.len(), traced.recovered.len());
    assert_eq!(quiet.in_flight_survived, traced.in_flight_survived);
}

#[test]
fn database_metrics_snapshot_spans_every_layer() {
    let device = Arc::new(
        DeviceBuilder::new(FlashGeometry::small_test()).timing(TimingModel::mlc_2015()).build(),
    );
    let noftl = Arc::new(NoFtl::new(device.clone(), NoFtlConfig::default()));
    let placement = PlacementConfig::traditional(4, ["t".to_string()]);
    let backend = Arc::new(NoFtlBackend::new(Arc::clone(&noftl), &placement).unwrap());
    let db = Database::open(backend, DatabaseConfig::default()).unwrap();
    db.create_table(
        "t",
        Schema::new(vec![("k", ColumnType::Int), ("v", ColumnType::Int)]),
        SimTime::ZERO,
    )
    .unwrap();
    let mut now = db.checkpoint(SimTime::ZERO).unwrap();
    for i in 0..20i64 {
        let mut txn = db.begin(now);
        db.insert(&mut txn, "t", &vec![Value::Int(i), Value::Int(i * 3)], NO_KEYS).unwrap();
        db.commit(&mut txn).unwrap();
        now = txn.now;
    }
    db.flush_all(now).unwrap();

    let snap = db.metrics_snapshot().expect("the NoFTL backend exposes a registry");
    // Flash layer: every program the device counted was timed there.
    let programs = snap.histogram("flash.op.program.latency_ns").map_or(0, |h| h.count);
    assert!(programs > 0);
    assert_eq!(programs, device.stats().page_programs);
    // WAL layer: every commit forced the log.
    let forces = snap.histogram("dbms.wal.force_ns").expect("wal histogram");
    assert!(forces.count >= 20, "one force per commit, got {}", forces.count);
    // Buffer pool: the explicit flush recorded.
    assert!(snap.histogram("dbms.buffer.flush_ns").map_or(0, |h| h.count) >= 1);
    // The Prometheus rendering covers the same registry.
    let prom = snap.to_prometheus();
    assert!(prom.contains("dbms_wal_force_ns_count"));
}

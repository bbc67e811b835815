//! End-to-end observability tour: run a mixed KV + OLTP workload on one
//! flash device, then look at everything the stack recorded about it —
//! the metrics table, the Prometheus text exposition, and a Chrome
//! `trace_event` JSON you can load in `chrome://tracing` or Perfetto.
//!
//! ```text
//! cargo run --example observe [-- <trace-output-path>]
//! ```
//!
//! The trace is written to `target/observe.trace.json` by default.
//! Every layer records into the *same* registry (shared with the
//! device), so the final snapshot spans flash commands, GC,
//! page allocations, flush windows, the WAL, the buffer pool and the
//! KV store — with zero configuration beyond enabling the tracer.
//! The registry holds distributions, traces and decisions; the counts
//! live in each layer's stats struct, printed after the table as the
//! stack's ledgers.

use std::sync::Arc;

use noftl_regions::dbms::ColumnType;
use noftl_regions::dbms::{Database, DatabaseConfig, NoFtlBackend, Schema, Value, NO_KEYS};
use noftl_regions::dump;
use noftl_regions::flash::{DeviceBuilder, FlashBackend, FlashGeometry, SimTime, TimingModel};
use noftl_regions::noftl::kv::{KvConfig, KvStore};
use noftl_regions::noftl::{NoFtl, NoFtlConfig, PlacementConfig, RegionSpec};
use noftl_regions::obs::validate_chrome_trace;

fn main() {
    let trace_path =
        std::env::args().nth(1).unwrap_or_else(|| "target/observe.trace.json".to_string());

    // One device, one registry, tracer on.
    let device = Arc::new(
        DeviceBuilder::new(FlashGeometry::example()).timing(TimingModel::mlc_2015()).build(),
    );
    device.metrics().tracer().set_enabled(true);
    let noftl = Arc::new(NoFtl::new(device.clone(), NoFtlConfig::default()));

    // OLTP half: a 4-die region under the storage engine, WAL on.
    let placement = PlacementConfig::traditional(4, ["acct".to_string()]);
    let backend = Arc::new(NoFtlBackend::new(Arc::clone(&noftl), &placement).unwrap());
    let db = Database::open(backend, DatabaseConfig::default()).unwrap();
    db.create_table("acct", account_schema(), SimTime::ZERO).unwrap();
    let mut now = db.checkpoint(SimTime::ZERO).unwrap();
    let mut rids = Vec::new();
    for i in 0..200i64 {
        let mut txn = db.begin(now);
        rids.push(
            db.insert(&mut txn, "acct", &vec![Value::Int(i), Value::Int(i * 13)], NO_KEYS).unwrap(),
        );
        db.commit(&mut txn).unwrap();
        now = txn.now;
    }
    // Readers: their commits touch no log page — the ledgers below show
    // 50 read-only commits while `dbms.wal.force_ns` counts only the
    // writers' and the checkpoints' forces.
    for rid in rids.iter().step_by(4) {
        let mut txn = db.begin(now);
        db.get(&mut txn, "acct", *rid).unwrap();
        db.commit(&mut txn).unwrap();
        now = txn.now;
    }
    now = db.checkpoint(now).unwrap();

    // KV half: a 3-die region next to it (the metadata journal claimed
    // one die), small memtable so flushes and a compaction happen
    // during the load.
    let kv_region = noftl.create_region(RegionSpec::named("rgKv").with_die_count(3)).unwrap();
    let config = KvConfig { memtable_bytes: 16 * 1024 };
    let (store, mut t) =
        KvStore::create(Arc::clone(&noftl), kv_region, "users", config, now).unwrap();
    for round in 0..3u64 {
        for i in 0..300u64 {
            let key = format!("user{i:06}").into_bytes();
            let val = format!("v{round}-{}", "x".repeat(40)).into_bytes();
            t = store.put(&key, &val, t).unwrap();
        }
        t = store.flush(t).unwrap();
    }

    // ---- What the stack saw ------------------------------------------
    let registry = noftl.metrics();
    println!("== metrics table ==\n{}", dump::table(registry));

    println!("== ledgers ==");
    println!("device: {:?}", device.stats());
    for (die, d) in device.die_stats().iter().enumerate() {
        println!("  die {die}: {d:?}");
    }
    for rid in noftl.region_ids() {
        let name = noftl.region_name(rid).unwrap();
        println!("region {name}: {:?}", noftl.region_stats(rid).unwrap());
    }
    println!("buffer: {:?}", db.buffer_stats());
    println!("wal: {:?}", db.wal_stats());
    println!("commits: {} ({} read-only)", db.commit_count(), db.read_only_commit_count());
    let kv = store.stats();
    println!(
        "kv: flushes {} compactions {} get_page_reads {} run_probes {} bloom_skips {}",
        kv.flushes, kv.compactions, kv.get_page_reads, kv.run_probes, kv.bloom_skips
    );
    println!();

    let prom = dump::prometheus(registry);
    let excerpt: Vec<&str> = prom.lines().take(12).collect();
    println!("== prometheus exposition (first lines) ==\n{}\n...", excerpt.join("\n"));

    let trace = dump::chrome_trace(registry);
    let events = validate_chrome_trace(&trace).expect("trace must be valid trace_event JSON");
    if let Some(parent) = std::path::Path::new(&trace_path).parent() {
        std::fs::create_dir_all(parent).ok();
    }
    std::fs::write(&trace_path, &trace).expect("write trace file");
    println!("== chrome trace ==");
    println!("{events} events written to {trace_path}");
    println!("load it in chrome://tracing or https://ui.perfetto.dev");
}

fn account_schema() -> Schema {
    Schema::new(vec![("id", ColumnType::Int), ("balance", ColumnType::Int)])
}

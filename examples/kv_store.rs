//! NoFTL-KV walkthrough: a log-structured key-value store whose flushes
//! and compactions are region-local queued multi-die batches.
//!
//! ```text
//! cargo run --example kv_store
//! ```
//!
//! The example loads a working set, shows the memtable flushing to
//! sorted runs as multi-die batches, lets
//! size-tiered compaction merge and retire runs through the region's GC
//! path, and finishes with a power cut in the middle of a flush — after
//! reboot + mount + reopen, every acknowledged key is still there and
//! the torn tail run has been discarded.

use std::sync::Arc;

use noftl_regions::flash::{DeviceBuilder, FlashBackend, FlashGeometry, SimTime, TimingModel};
use noftl_regions::noftl::crash;
use noftl_regions::noftl::kv::{KvConfig, KvStore};
use noftl_regions::noftl::{NoFtl, NoFtlConfig, RegionSpec};

fn key(i: u64) -> Vec<u8> {
    format!("user{i:06}").into_bytes()
}

fn val(i: u64, round: u64) -> Vec<u8> {
    format!("profile-{i:06}-v{round}-{}", "x".repeat(32)).into_bytes()
}

fn main() {
    // Device → storage manager → a 6-die region for the KV store.
    let device = Arc::new(
        DeviceBuilder::new(FlashGeometry::example()).timing(TimingModel::mlc_2015()).build(),
    );
    let noftl = Arc::new(NoFtl::new(device.clone(), NoFtlConfig::default()));
    let region = noftl.create_region(RegionSpec::named("rgKv").with_die_count(6)).unwrap();
    let config = KvConfig { memtable_bytes: 16 * 1024 };
    let (store, mut t) =
        KvStore::create(Arc::clone(&noftl), region, "users", config, SimTime::ZERO).unwrap();
    println!("created store 'users' over a 6-die region\n");

    // Load three rounds of the same working set: the memtable threshold
    // flushes level-0 runs, and every fourth flush merges the memtable
    // and level 0's three runs into one level-1 run.
    for round in 1..=3u64 {
        for i in 0..400u64 {
            t = store.put(&key(i), &val(i, round), t).unwrap();
        }
        t = store.flush(t).unwrap();
        let s = store.stats();
        println!(
            "round {round}: {} flushes, {} compactions, {} runs live, device commands {}",
            s.flushes,
            s.compactions,
            store.run_count(),
            noftl.device().stats().total_ops(),
        );
    }
    let stats = store.stats();
    println!(
        "\nflushed {} pages + compacted {} pages, all as queued multi-die batches",
        stats.flushed_pages, stats.compacted_pages
    );

    // Reads: memtable first, then runs newest-to-oldest — the run's
    // filter says whether to look, its fence index which one page.
    let (got, t2) = store.get(&key(42), t).unwrap();
    t = t2;
    println!("get(user000042) -> {:?}", String::from_utf8_lossy(&got.unwrap()));
    let (rows, t3) = store.scan(Some(&key(100)), Some(&key(104)), usize::MAX, t).unwrap();
    t = t3;
    println!("scan(user000100..=user000104) -> {} rows", rows.len());

    // Crash in the middle of the next flush: a working set small enough
    // to stay below the memtable threshold (so nothing auto-flushes),
    // then a power cut armed shortly after the explicit flush starts.
    for i in 0..150u64 {
        t = store.put(&key(i), &val(i, 9), t).unwrap();
    }
    let quiesce = device.quiesce_time().max(t);
    device.arm_power_cut(quiesce + noftl_regions::flash::Duration(40_000));
    match store.flush(quiesce) {
        Ok(_) => println!("\nflush completed before the cut"),
        Err(e) => println!("\npower cut during flush: {e}"),
    }

    let device2 = crash::power_cycle(&device).unwrap();
    let (noftl2, mount) = NoFtl::mount(device2, quiesce).unwrap();
    println!(
        "mounted: checkpoint #{}, {} torn pages discarded",
        mount.checkpoint_seq, mount.torn_pages_discarded
    );
    let (store2, report) =
        KvStore::open(Arc::new(noftl2), "users", config, mount.completed_at).unwrap();
    println!(
        "reopened: {} runs recovered, {} torn runs discarded, {} entries",
        report.runs_recovered, report.torn_runs_discarded, report.entries_recovered
    );

    // Every key acknowledged by the last completed flush is intact.
    let (got, _) = store2.get(&key(42), report.completed_at).unwrap();
    println!(
        "get(user000042) after crash -> {:?} (round-3 value, the unacknowledged round-9 \
         flush was discarded)",
        String::from_utf8_lossy(&got.unwrap())
    );
}

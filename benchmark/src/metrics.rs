//! From one measured phase to named numbers.
//!
//! Every metric is computed here from deltas of the program's public
//! stats structs and the harness's own per-op vector; which of them are
//! end-to-end, their units, directions and bounds are `BENCHMARK.json`'s
//! to say (see [`crate::contract`]).  Names ending in `_sim` are on the
//! simulated clock, and so are all counts of simulated events; `setup_s`
//! and names starting with `host_` or `harness.` or containing `host_us`
//! are on the host's.

use std::collections::BTreeMap;

use flash_sim::DeviceStats;
use noftl_core::RegionStats;

use crate::stack::Counters;
use crate::stats::{self, Digest};
use crate::workloads::Measured;

/// Metric name to value.
pub type Metrics = BTreeMap<String, f64>;

/// Regions that get a `core.region.<name>.*` quadruple when present: the
/// single region of the traditional placement, the six of Figure 2 and
/// the KV tenants' region.
const REPORTED_REGIONS: [&str; 8] =
    ["rgAll", "rgMeta", "rgOrderStream", "rgCustomer", "rgStock", "rgWhDist", "rgOrderIdx", "rgKv"];

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Is `name` measured on the host's clock (and so free to vary between
/// runs of one seed)?
pub fn is_host_metric(name: &str) -> bool {
    name == "setup_s"
        || name.starts_with("harness.")
        || name.starts_with("host_")
        || name.contains("host_us")
        || name.contains("host_self_us")
}

fn region_delta(after: &RegionStats, before: Option<&RegionStats>) -> RegionStats {
    let zero = RegionStats::default();
    let b = before.unwrap_or(&zero);
    RegionStats {
        host_reads: after.host_reads - b.host_reads,
        host_writes: after.host_writes - b.host_writes,
        gc_runs: after.gc_runs - b.gc_runs,
        gc_copybacks: after.gc_copybacks - b.gc_copybacks,
        gc_erases: after.gc_erases - b.gc_erases,
        wl_migrations: after.wl_migrations - b.wl_migrations,
        rebalance_moves: after.rebalance_moves - b.rebalance_moves,
        read_latency_sum: flash_sim::Duration(after.read_latency_sum.0 - b.read_latency_sum.0),
        write_latency_sum: flash_sim::Duration(after.write_latency_sum.0 - b.write_latency_sum.0),
    }
}

fn flash_metrics(
    m: &mut Metrics,
    d: &DeviceStats,
    before: &Counters,
    after: &Counters,
    run: &Measured,
) {
    let ops = run.ops as f64;
    m.insert("flash.page_reads".into(), d.page_reads as f64);
    m.insert("flash.page_programs".into(), d.page_programs as f64);
    m.insert("flash.copybacks".into(), d.copybacks as f64);
    m.insert("flash.block_erases".into(), d.block_erases as f64);
    m.insert("flash.bytes_transferred".into(), d.bytes_transferred as f64);
    m.insert("flash.errors".into(), d.errors as f64);
    let mean_us = |sum: flash_sim::Duration, n: u64| ratio(sum.as_us_f64(), n as f64);
    m.insert("flash.read_lat_mean_us_sim".into(), mean_us(d.read_latency_sum, d.page_reads));
    m.insert(
        "flash.program_lat_mean_us_sim".into(),
        mean_us(d.program_latency_sum, d.page_programs),
    );
    m.insert("flash.erase_lat_mean_us_sim".into(), mean_us(d.erase_latency_sum, d.block_erases));
    m.insert("flash.copyback_lat_mean_us_sim".into(), mean_us(d.copyback_latency_sum, d.copybacks));
    m.insert("flash.queue_depth_hwm".into(), after.device.queue_depth_hwm as f64);

    // Busy time of the dies that worked during the phase.
    let busy_ns: Vec<u64> = after
        .dies
        .iter()
        .zip(&before.dies)
        .filter(|(a, b)| a.ops > b.ops)
        .map(|(a, b)| a.busy_time.0 - b.busy_time.0)
        .collect();
    let share = |ns: u64| ratio(ns as f64, run.makespan_ns as f64);
    m.insert(
        "flash.die_busy_share_mean".into(),
        share(busy_ns.iter().sum::<u64>() / busy_ns.len().max(1) as u64),
    );
    m.insert("flash.die_busy_share_min".into(), share(busy_ns.iter().copied().min().unwrap_or(0)));
    m.insert("flash.die_busy_share_max".into(), share(busy_ns.iter().copied().max().unwrap_or(0)));
    let total_busy_ns = busy_ns.iter().sum::<u64>() as f64;
    let total_latency_ns = (d.read_latency_sum.0
        + d.program_latency_sum.0
        + d.erase_latency_sum.0
        + d.copyback_latency_sum.0) as f64;
    // Share of device-level latency that was waiting, not array service.
    m.insert(
        "flash.wait_share".into(),
        if total_latency_ns == 0.0 { 0.0 } else { 1.0 - total_busy_ns / total_latency_ns },
    );

    let (a, b) = (after.arbiter, before.arbiter);
    m.insert("flash.arbiter.deferred".into(), (a.deferred - b.deferred) as f64);
    m.insert("flash.arbiter.deferral_us_sim".into(), (a.deferral_ns - b.deferral_ns) as f64 / 1e3);
    m.insert("flash.arbiter.backfills".into(), (a.backfills - b.backfills) as f64);
    m.insert("flash.arbiter.aging_capped".into(), (a.aging_capped - b.aging_capped) as f64);

    m.insert("flash_reads_per_op".into(), ratio(d.page_reads as f64, ops));
    m.insert("flash_writes_per_op".into(), ratio((d.page_programs + d.copybacks) as f64, ops));
    m.insert("erases_per_kop".into(), ratio(d.block_erases as f64 * 1e3, ops));
    m.insert("flash_busy_us_per_op_sim".into(), ratio(total_busy_ns / 1e3, ops));
}

fn core_metrics(m: &mut Metrics, before: &Counters, after: &Counters) {
    let mut total = RegionStats::default();
    for (name, stats) in &after.regions {
        let earlier = before.regions.iter().find(|(n, _)| n == name).map(|(_, s)| s);
        let d = region_delta(stats, earlier);
        if REPORTED_REGIONS.contains(&name.as_str()) {
            let key = |field: &str| format!("core.region.{name}.{field}");
            m.insert(key("host_writes"), d.host_writes as f64);
            m.insert(key("gc_copybacks"), d.gc_copybacks as f64);
            m.insert(key("gc_erases"), d.gc_erases as f64);
            m.insert(key("write_amp"), d.write_amplification());
        }
        total.host_reads += d.host_reads;
        total.host_writes += d.host_writes;
        total.gc_runs += d.gc_runs;
        total.gc_copybacks += d.gc_copybacks;
        total.gc_erases += d.gc_erases;
        total.wl_migrations += d.wl_migrations;
        total.read_latency_sum += d.read_latency_sum;
        total.write_latency_sum += d.write_latency_sum;
    }
    m.insert("core.host_reads".into(), total.host_reads as f64);
    m.insert("core.host_writes".into(), total.host_writes as f64);
    m.insert("core.gc_runs".into(), total.gc_runs as f64);
    m.insert("core.gc_copybacks".into(), total.gc_copybacks as f64);
    m.insert("core.gc_erases".into(), total.gc_erases as f64);
    m.insert("core.wl_migrations".into(), total.wl_migrations as f64);
    m.insert("core.write_amp".into(), total.write_amplification());
    m.insert("core.read_lat_mean_us_sim".into(), total.avg_read_latency_us());
    m.insert("core.write_lat_mean_us_sim".into(), total.avg_write_latency_us());
}

fn kv_metrics(m: &mut Metrics, before: &Counters, after: &Counters, run: &Measured) {
    let (Some(b), Some(a)) = (&before.kv, &after.kv) else { return };
    let gets = (a.gets - b.gets) as f64;
    let puts = (a.puts - b.puts) as f64;
    let flushed = a.flushed_pages - b.flushed_pages;
    let compacted = a.compacted_pages - b.compacted_pages;
    m.insert("kv.puts".into(), puts);
    m.insert("kv.gets".into(), gets);
    m.insert(
        "kv.memtable_hit_share".into(),
        ratio((a.memtable_hits - b.memtable_hits) as f64, gets),
    );
    m.insert(
        "kv.run_page_reads_per_get".into(),
        ratio((a.run_page_reads - b.run_page_reads) as f64, gets),
    );
    m.insert("kv.flushes".into(), (a.flushes - b.flushes) as f64);
    m.insert("kv.flushed_pages".into(), flushed as f64);
    m.insert("kv.compactions".into(), (a.compactions - b.compactions) as f64);
    m.insert("kv.compacted_pages".into(), compacted as f64);
    let page = f64::from(crate::pins::YCSB_GEOMETRY.page_size);
    m.insert(
        "kv.write_amp".into(),
        ratio((flushed + compacted) as f64 * page, puts * run.kv_record_bytes as f64),
    );
    let compacting_ns: u64 =
        a.compaction_windows[b.compaction_windows.len()..].iter().map(|(s, e)| e - s).sum();
    m.insert(
        "kv.compaction_time_share_sim".into(),
        ratio(compacting_ns as f64, run.makespan_ns as f64),
    );
    m.insert("kv.runs_at_end".into(), after.kv_runs as f64);
}

fn dbms_metrics(m: &mut Metrics, before: &Counters, after: &Counters, run: &Measured) {
    let (Some(b), Some(a)) = (&before.db, &after.db) else { return };
    let ops = run.ops as f64;
    let commits = (a.commits - b.commits) as f64;
    m.insert("dbms.commits".into(), commits);
    m.insert("dbms.rollbacks".into(), (a.rollbacks - b.rollbacks) as f64);
    let (hits, misses) =
        ((a.buffer.hits - b.buffer.hits) as f64, (a.buffer.misses - b.buffer.misses) as f64);
    m.insert("dbms.buffer.hit_ratio".into(), ratio(hits, hits + misses));
    m.insert("dbms.buffer.misses_per_op".into(), ratio(misses, ops));
    m.insert(
        "dbms.buffer.logical_reads_per_op".into(),
        ratio((a.buffer.logical_reads - b.buffer.logical_reads) as f64, ops),
    );
    m.insert("dbms.buffer.evictions".into(), (a.buffer.evictions - b.buffer.evictions) as f64);
    m.insert(
        "dbms.buffer.dirty_writebacks".into(),
        (a.buffer.dirty_writebacks - b.buffer.dirty_writebacks) as f64,
    );
    m.insert("dbms.buffer.prefetched".into(), (a.buffer.prefetched - b.buffer.prefetched) as f64);
    let forces = (a.wal.forces - b.wal.forces) as f64;
    m.insert("dbms.wal.forces_per_commit".into(), ratio(forces, commits));
    m.insert(
        "dbms.wal.records_per_force".into(),
        ratio((a.wal.records - b.wal.records) as f64, forces),
    );
    m.insert(
        "dbms.wal.bytes_per_commit".into(),
        ratio((a.wal.appended_bytes - b.wal.appended_bytes) as f64, commits),
    );
    m.insert("dbms.wal.pages".into(), (a.wal.pages - b.wal.pages) as f64);
    m.insert("dbms.wal.truncations".into(), (a.wal.truncations - b.wal.truncations) as f64);
}

/// Every untraced metric of one measured phase.
pub fn of(run: &Measured) -> Metrics {
    let mut m = Metrics::new();
    let (before, after) = (&run.window.before, &run.window.after);
    let ops = run.ops as f64;

    let mut lat = run.lat_ns.clone();
    lat.sort_unstable();
    m.insert("ops_per_s_sim".into(), run.ops_per_s_sim);
    m.insert("lat_mean_us_sim".into(), stats::mean(&lat) / 1e3);
    for (name, q) in [("lat_p50_us_sim", 0.5), ("lat_p99_us_sim", 0.99), ("lat_p999_us_sim", 0.999)]
    {
        let v = if lat.is_empty() { 0 } else { stats::percentile(&lat, q) };
        m.insert(name.into(), v as f64 / 1e3);
    }
    // The mean of the slowest 5 %: a tail figure that, unlike a single
    // order statistic of these quantised latencies, moves with every seed
    // and with every slow op.
    let tail = &lat[lat.len() - lat.len().div_ceil(20)..];
    m.insert("lat_tail_mean_us_sim".into(), stats::mean(tail) / 1e3);
    m.insert("space_amp".into(), run.space_amp);
    m.insert("host_allocs_per_op".into(), ratio(run.window.allocs as f64, ops));
    m.insert("host_alloc_bytes_per_op".into(), ratio(run.window.alloc_bytes as f64, ops));

    let device = after.device.delta_since(&before.device);
    flash_metrics(&mut m, &device, before, after, run);
    core_metrics(&mut m, before, after);
    kv_metrics(&mut m, before, after, run);
    dbms_metrics(&mut m, before, after, run);
    m.extend(run.extra.iter().map(|(k, v)| (k.clone(), *v)));

    m.insert(
        "workload.gen_host_us_per_op".into(),
        ratio(run.gen_host_s * 1e6, run.attempted as f64),
    );
    m.insert("harness.measured_ops".into(), ops);
    m.insert("harness.run_wall_s".into(), run.window.wall_s);
    m.insert("harness.ops_per_wall_s".into(), ratio(ops, run.window.wall_s));
    m.insert("harness.peak_rss_mb".into(), peak_rss_mb());
    m
}

/// Hash of every simulated metric and the final `DeviceStats`: two runs
/// with equal digests simulated the same thing, bit for bit.
pub fn sim_digest(metrics: &Metrics, run: &Measured) -> u64 {
    let mut digest = Digest::default();
    for (name, value) in metrics.iter().filter(|(name, _)| !is_host_metric(name)) {
        digest.bytes(name.as_bytes());
        digest.f64(*value);
    }
    let d = &run.window.after.device;
    for v in [
        d.page_reads,
        d.page_programs,
        d.block_erases,
        d.copybacks,
        d.metadata_reads,
        d.bytes_transferred,
        d.read_latency_sum.0,
        d.program_latency_sum.0,
        d.erase_latency_sum.0,
        d.copyback_latency_sum.0,
        d.errors,
        d.queue_depth_hwm,
    ] {
        digest.u64(v);
    }
    digest.value()
}

/// Peak resident set of this process, from `/proc/self/status` (0 where
/// that file does not exist).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

//! Every pinned constant of the benchmark, in one file.
//!
//! **Sizing rule — pin resources, inherit policies.**  Geometry, timing,
//! buffer pages, memtable bytes, record / op / client counts, seeds and
//! rates live here, so a changed program default cannot shift the load.
//! Policies — `NoFtlConfig::paper_defaults()`, the TPC-C placements,
//! `KvConfig`'s compaction threshold and read window, `DatabaseConfig`'s
//! flush window — are taken from the program, so improving them shows.
//!
//! A size change is a one-file diff here, made by a benchmark issue and
//! followed by a fresh baseline; no other change may edit this file.

use flash_sim::{FlashGeometry, TimingModel};
use tpcc_workload::ScaleConfig;

/// Seed used when `--seed` is absent; the stream digests below are pinned
/// for it.
pub const DEFAULT_SEED: u64 = 20_160_315;

/// `--smoke` divides every record and op count by this.  A smoke run is
/// flagged in its output and never comparable with a full one.
pub const SMOKE_DIVISOR: u64 = 20;

/// A run sets every stack up at least this often, so `setup_s` is a median.
pub const MIN_SETUPS: usize = 3;

/// Once more than this share of a phase's ops has failed, the remaining
/// ops are counted as failed without being issued.
pub const FAILURE_CUTOFF_SHARE: f64 = 0.01;

/// Today's `TimingModel::mlc_2015()`, field by field.
pub const TIMING: TimingModel = TimingModel {
    read_page_us: 70.0,
    program_page_us: 700.0,
    erase_block_us: 3_000.0,
    cmd_overhead_us: 5.0,
    xfer_us_per_kib: 2.5,
    oob_xfer_us: 1.0,
};

/// The Figure-3 device: 4 channels x 4 chips x 4 dies, 20 blocks x 32
/// pages x 4 KiB per die = 160 MiB raw, so a simulation-sized TPC-C
/// database drives GC the way the full one did on the paper's board.
pub const TPCC_GEOMETRY: FlashGeometry = FlashGeometry {
    channels: 4,
    chips_per_channel: 4,
    dies_per_chip: 4,
    planes_per_die: 1,
    blocks_per_plane: 20,
    pages_per_block: 32,
    page_size: 4096,
    oob_size: 64,
};

/// Today's `FlashGeometry::example()`: 8 dies x 2 planes x 128 blocks x
/// 32 pages x 4 KiB = 256 MiB raw.  YCSB stacks use a 4-die region of it,
/// the two-tenant workload all 8 dies.
pub const YCSB_GEOMETRY: FlashGeometry = FlashGeometry {
    channels: 2,
    chips_per_channel: 2,
    dies_per_chip: 2,
    planes_per_die: 2,
    blocks_per_plane: 128,
    pages_per_block: 32,
    page_size: 4096,
    oob_size: 64,
};

/// Dies of the region a single-tenant YCSB stack lives in.
pub const YCSB_REGION_DIES: u32 = 4;

// ---------------------------------------------------------------- TPC-C

/// Today's `ScaleConfig::small(2)`: about 110 k rows, ~19 MiB of pages.
pub const TPCC_SCALE: ScaleConfig = ScaleConfig {
    warehouses: 2,
    districts_per_warehouse: 10,
    customers_per_district: 300,
    items: 10_000,
    initial_orders_per_district: 300,
};
/// Closed-loop terminals; the furthest-behind one steps next.
pub const TPCC_CLIENTS: usize = 20;
/// 6 MiB of buffer against ~19 MiB of data and growing: hit ratio ~0.90.
pub const TPCC_BUFFER_PAGES: usize = 1_500;
/// Transactions before measurement: GC starts between 2 000 and 4 000.
pub const TPCC_WARMUP_TXNS: u64 = 4_000;
/// Measured transactions: enough that ten seeds agree on TPS within a few
/// per cent.  20 000 in total keeps a margin to the `rgOrderStream`
/// out-of-space cliff that sits between 27 000 and 30 000 transactions on
/// this geometry.
pub const TPCC_MEASURED_TXNS: u64 = 16_000;
/// Share of rolled-back transactions that counts as correct: 1 % of the
/// 45 % NewOrders, with room for the binomial spread of ~70 events.
pub const TPCC_ROLLBACK_SHARE: (f64, f64) = (0.002, 0.008);

// ----------------------------------------------------------------- YCSB

/// Sizing of one closed-loop, single-client YCSB workload.
#[derive(Debug, Clone, Copy)]
pub struct YcsbPins {
    /// YCSB core mix letter.
    pub mix: char,
    /// Records loaded before the run.
    pub records: u64,
    /// Value bytes per record.
    pub value_len: usize,
    /// Ops run unmeasured after the load (a prefix of the same stream).
    pub warmup_ops: u64,
    /// Measured ops.
    pub measured_ops: u64,
}

/// YCSB-A on NoFTL-KV: ~42 MB of records against a 64 KiB memtable, so
/// flush, size-tiered compaction and region GC all cycle many times.
pub const KV_UPDATE: YcsbPins = YcsbPins {
    mix: 'A',
    records: 100_000,
    value_len: 400,
    warmup_ops: 10_000,
    measured_ops: 120_000,
};
/// YCSB-C on the same store and load: run lookups only.
pub const KV_READ: YcsbPins = YcsbPins {
    mix: 'C',
    records: 100_000,
    value_len: 400,
    warmup_ops: 10_000,
    measured_ops: 200_000,
};
/// Memtable flush threshold of both KV workloads.
pub const KV_MEMTABLE_BYTES: usize = 64 * 1024;
/// A KV op slower than this in simulated time counts as stalled.
pub const KV_STALL_NS: u64 = 10_000_000;

/// YCSB-B on heap + B+-tree: ~12 MiB of pages against a 1.2 MiB pool.
pub const BTREE_READ_MOSTLY: YcsbPins = YcsbPins {
    mix: 'B',
    records: 60_000,
    value_len: 100,
    warmup_ops: 10_000,
    measured_ops: 100_000,
};
/// Buffer pool of `btree_read_mostly`: data is ~10x the cache.
pub const BTREE_BUFFER_PAGES: usize = 300;

// ----------------------------------------------- oltp_beside_compaction

/// Rows of the OLTP tenant's table (the cache-fits case).
pub const MT_OLTP_RECORDS: u64 = 8_000;
/// Value bytes of an OLTP row.
pub const MT_OLTP_VALUE_LEN: usize = 100;
/// OLTP buffer pool: larger than the table.
pub const MT_OLTP_BUFFER_PAGES: usize = 2_000;
/// Distinct keys the neighbor's puts are drawn from, uniformly.
pub const MT_NEIGHBOR_KEYS: u64 = 4_000;
/// Value bytes of a neighbor put.
pub const MT_NEIGHBOR_VALUE_LEN: usize = 400;
/// Neighbor memtable: flushes every ~40 puts, compacts every ~160.
pub const MT_NEIGHBOR_MEMTABLE_BYTES: usize = 16 * 1024;
/// Neighbor offered rate, ops per simulated second (Poisson arrivals).
pub const MT_NEIGHBOR_RATE: u64 = 2_000;
/// Simulated length of one rung.
pub const MT_RUNG_NS: u64 = 5_000_000_000;
/// OLTP offered-rate ladder, ascending; the traced run stops at the first
/// failing rung.
pub const MT_LADDER: [u64; 6] = [2_000, 3_000, 4_000, 5_000, 6_000, 8_000];
/// The rung every end-to-end metric of the workload is read at.
pub const MT_REFERENCE_RATE: u64 = 4_000;
/// A rung passes with OLTP p99 at or below this, ...
pub const MT_P99_LIMIT_NS: u64 = 2_000_000;
/// ... the last op completing at most this long after the rung's end, and
/// no failed op.
pub const MT_DRAIN_LIMIT_NS: u64 = 50_000_000;

// -------------------------------------------------------------- digests

/// Input fingerprints of the default seed, one per workload, in the order
/// of [`crate::workloads::ALL`].  A mismatch means the generators under
/// `crates/workload`, `crates/tpcc` or `vendor/rand` changed the load.
pub const STREAM_DIGESTS: [u64; 6] = [
    0xfb4e_f2f5_7c9a_b72c,
    0xfb4e_f2f5_7c9a_b72c,
    0x60aa_49bb_e759_5ac3,
    0x1e86_20e0_0234_308f,
    0xc184_3c8f_ef14_4a40,
    0x4909_8239_f183_13f8,
];

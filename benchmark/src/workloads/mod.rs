//! The six workloads: what each sets up, what it measures and what it
//! hands back.  `benchmark/README.md` says why each exists.

pub mod tenants;
pub mod tpcc;
pub mod ycsb;

use std::collections::BTreeMap;
use std::time::Instant;

use crate::alloc;
use crate::pins;
use crate::seams::Seams;
use crate::stack::{Counters, Stack};

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Id {
    /// TPC-C, one region over all dies: the paper's baseline arm.
    TpccTraditional,
    /// TPC-C, the six-region Figure 2 placement: the paper's proposal.
    TpccRegions,
    /// YCSB-A on NoFTL-KV: the LSM write path.
    KvUpdate,
    /// YCSB-C on NoFTL-KV: run lookups only.
    KvRead,
    /// YCSB-B on heap + B+-tree: buffer pool and WAL.
    BtreeReadMostly,
    /// Open-loop OLTP tenant beside a compacting KV tenant, arbiter on.
    OltpBesideCompaction,
}

/// Every workload, in reporting order.
pub const ALL: [Id; 6] = [
    Id::TpccTraditional,
    Id::TpccRegions,
    Id::KvUpdate,
    Id::KvRead,
    Id::BtreeReadMostly,
    Id::OltpBesideCompaction,
];

impl Id {
    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Id::TpccTraditional => "tpcc_traditional",
            Id::TpccRegions => "tpcc_regions",
            Id::KvUpdate => "kv_update",
            Id::KvRead => "kv_read",
            Id::BtreeReadMostly => "btree_read_mostly",
            Id::OltpBesideCompaction => "oltp_beside_compaction",
        }
    }

    /// Inverse of [`Id::name`].
    pub fn from_name(name: &str) -> Option<Id> {
        ALL.into_iter().find(|id| id.name() == name)
    }

    /// The input fingerprint pinned for the default seed.
    pub fn pinned_stream_digest(self) -> u64 {
        pins::STREAM_DIGESTS[ALL.iter().position(|id| *id == self).expect("listed in ALL")]
    }
}

/// A pinned count at full size, or 1/20 of it under `--smoke`.
pub fn scaled(count: u64, smoke: bool) -> u64 {
    if smoke {
        (count / pins::SMOKE_DIVISOR).max(1)
    } else {
        count
    }
}

/// `kv.stalled_ops`: KV ops slower than [`pins::KV_STALL_NS`].
pub fn stalled_ops(lat_ns: &[u64]) -> f64 {
    lat_ns.iter().filter(|&&l| l > pins::KV_STALL_NS).count() as f64
}

/// A stack that is built, loaded and warmed up: everything `setup_s` pays
/// for.  Measuring consumes it.
pub trait Prepared {
    /// Run the pinned measured phase.
    fn measure(self: Box<Self>, seams: &dyn Seams) -> Measured;
}

/// Build, load and warm up the stack of `id` from `seed`.
pub fn setup(
    id: Id,
    seed: u64,
    smoke: bool,
    seams: &dyn Seams,
) -> Result<Box<dyn Prepared>, String> {
    Ok(match id {
        Id::TpccTraditional => Box::new(tpcc::setup(false, seed, smoke, seams)?),
        Id::TpccRegions => Box::new(tpcc::setup(true, seed, smoke, seams)?),
        Id::KvUpdate => Box::new(ycsb::setup_kv(pins::KV_UPDATE, seed, smoke, seams)?),
        Id::KvRead => Box::new(ycsb::setup_kv(pins::KV_READ, seed, smoke, seams)?),
        Id::BtreeReadMostly => Box::new(ycsb::setup_btree(seed, smoke, seams)?),
        Id::OltpBesideCompaction => {
            Box::new(tenants::setup(pins::MT_REFERENCE_RATE, seed, smoke, seams)?)
        }
    })
}

/// What one measured phase produced, before it is turned into metrics.
pub struct Measured {
    /// Simulated latency of every op that completed, in issue order.
    pub lat_ns: Vec<u64>,
    /// Ops the phase was pinned to issue.
    pub attempted: u64,
    /// Ops that returned an error, missed a live key, never drained, or
    /// were not issued because the failure cut-off had been reached.
    pub failed: u64,
    /// The per-op normaliser: committed transactions or completed ops.
    pub ops: u64,
    /// Simulated time from the first issue to the last completion.
    pub makespan_ns: u64,
    /// The workload's throughput numerator over `makespan_ns` (equal to
    /// `ops` except on the two-tenant workload, where it is the OLTP
    /// tenant's ops over that tenant's drain time).
    pub ops_per_s_sim: f64,
    /// Counters when the phase began and ended, allocations and wall time.
    pub window: Window,
    /// Flash space held per live page when the phase ended.
    pub space_amp: f64,
    /// Fingerprint of the generated inputs.
    pub stream_digest: u64,
    /// Host time spent generating the op streams during set-up.
    pub gen_host_s: f64,
    /// Key plus value bytes of one KV put (0 without a KV store).
    pub kv_record_bytes: usize,
    /// Metrics only this workload has (`tpcc.*`, `oltp.*`, ...).
    pub extra: BTreeMap<String, f64>,
    /// Correctness gates that failed, in words.
    pub problems: Vec<String>,
}

/// The bracket around a measured phase: counters, allocations, wall time.
pub struct Window {
    /// Counters when the phase began.
    pub before: Counters,
    /// Counters when it ended.
    pub after: Counters,
    /// Allocation calls during the phase.
    pub allocs: u64,
    /// Bytes requested during the phase.
    pub alloc_bytes: u64,
    /// Host wall time of the phase.
    pub wall_s: f64,
}

/// An open [`Window`].
pub struct OpenWindow {
    before: Counters,
    allocs: (u64, u64),
    started: Instant,
}

impl OpenWindow {
    /// Snapshot `stack` and start the clocks.
    pub fn open(stack: &Stack<'_>) -> Self {
        let before = Counters::take(stack);
        OpenWindow { before, allocs: alloc::snapshot(), started: Instant::now() }
    }

    /// Stop the clocks and snapshot `stack` again.
    pub fn close(self, stack: &Stack<'_>) -> Window {
        let wall_s = self.started.elapsed().as_secs_f64();
        let (calls, bytes) = alloc::snapshot();
        Window {
            before: self.before,
            after: Counters::take(stack),
            allocs: calls - self.allocs.0,
            alloc_bytes: bytes - self.allocs.1,
            wall_s,
        }
    }
}

/// Counts failures of one phase and says when to stop issuing.
pub struct FailureBudget {
    failed: u64,
    cutoff: u64,
}

impl FailureBudget {
    /// A budget for a phase of `planned` ops.
    pub fn new(planned: u64) -> Self {
        FailureBudget { failed: 0, cutoff: (planned as f64 * pins::FAILURE_CUTOFF_SHARE) as u64 }
    }

    /// Record one failed op.
    pub fn fail(&mut self) {
        self.failed += 1;
    }

    /// More than the cut-off share has failed: issue nothing further.
    pub fn exhausted(&self) -> bool {
        self.failed > self.cutoff
    }

    /// Failures so far.
    pub fn failed(&self) -> u64 {
        self.failed
    }
}

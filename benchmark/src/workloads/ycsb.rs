//! `kv_update`, `kv_read` and `btree_read_mostly`: one closed-loop client
//! replaying a pre-generated YCSB core stream against one engine.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use flash_sim::{NandDevice, SimTime};
use noftl_core::{KvConfig, NoFtl, PlacementConfig, RegionSpec};
use noftl_workload::{load_phase, stream_digest, KvBackend, Op, OpKind, WorkloadBackend, YcsbSpec};

use super::{scaled, stalled_ops, FailureBudget, Measured, OpenWindow, Prepared};
use crate::pins::{self, YcsbPins};
use crate::seams::{Entry, Seams};
use crate::stack::{self, DbTable, Stack};

/// Name of the region a KV store lives in, on every workload that has one.
pub const KV_REGION: &str = "rgKv";

enum Engine {
    Kv(Box<KvBackend>),
    Btree(Box<DbTable>),
}

impl Engine {
    fn backend(&self) -> &dyn WorkloadBackend {
        match self {
            Engine::Kv(kv) => kv.as_ref(),
            Engine::Btree(table) => table.as_ref(),
        }
    }

    fn entry(&self) -> Entry {
        match self {
            Engine::Kv(_) => Entry::Kv,
            Engine::Btree(_) => Entry::Dbms,
        }
    }
}

/// A loaded and warmed-up single-engine YCSB stack.
pub struct Ycsb {
    device: Arc<NandDevice>,
    noftl: Arc<NoFtl>,
    engine: Engine,
    spec: YcsbSpec,
    /// The measured ops: the stream after its warm-up prefix.
    ops: Vec<Op>,
    now: SimTime,
    stream_digest: u64,
    gen_host_s: f64,
}

/// Issue `op` at `at`: `Ok((completion, hit))`, where `hit` is false only
/// for a read that did not find its key.  The core mixes A, B and C hold
/// nothing but reads and updates of loaded keys.
pub fn issue(
    backend: &dyn WorkloadBackend,
    spec: &YcsbSpec,
    op: &Op,
    at: SimTime,
) -> noftl_workload::Result<(SimTime, bool)> {
    match op.kind {
        OpKind::Read => backend.read(&spec.key(op.key), at).map(|(found, done)| (done, found)),
        OpKind::Update => {
            backend.update(&spec.key(op.key), &spec.value_for(op.key), at).map(|done| (done, true))
        }
        other => Err(noftl_workload::WorkloadError(format!("unexpected op kind {other:?}"))),
    }
}

/// The trace label of an op kind.
pub fn kind_name(kind: OpKind) -> &'static str {
    match kind {
        OpKind::Read => "read",
        OpKind::Update => "update",
        _ => "other",
    }
}

fn spec_for(pins: YcsbPins, seed: u64, smoke: bool) -> (YcsbSpec, u64) {
    let warmup = scaled(pins.warmup_ops, smoke);
    let ops = warmup + scaled(pins.measured_ops, smoke);
    let mut spec = YcsbSpec::core(pins.mix, scaled(pins.records, smoke), ops, seed)
        .expect("pinned mixes are core workloads");
    spec.value_len = pins.value_len;
    (spec, warmup)
}

/// Load the records and replay the warm-up prefix of the stream.
fn prepare(
    device: Arc<NandDevice>,
    noftl: Arc<NoFtl>,
    engine: Engine,
    pins: YcsbPins,
    seed: u64,
    smoke: bool,
) -> Result<Ycsb, String> {
    let (spec, warmup) = spec_for(pins, seed, smoke);
    let started = Instant::now();
    let mut ops: Vec<Op> = spec.stream().collect();
    let stream_digest = stream_digest(ops.iter().copied());
    let gen_host_s = started.elapsed().as_secs_f64();

    let mut now = load_phase(&spec, engine.backend(), SimTime::ZERO).map_err(|e| e.to_string())?;
    let mut budget = FailureBudget::new(warmup);
    for op in ops.drain(..warmup as usize) {
        match issue(engine.backend(), &spec, &op, now) {
            Ok((done, true)) => now = now.max(done),
            _ => {
                budget.fail();
                if budget.exhausted() {
                    return Err("more than 1 % of the warm-up ops failed".into());
                }
            }
        }
    }
    Ok(Ycsb { device, noftl, engine, spec, ops, now, stream_digest, gen_host_s })
}

/// A NoFTL-KV store in a 4-die region of the YCSB device.
pub fn setup_kv(pins: YcsbPins, seed: u64, smoke: bool, seams: &dyn Seams) -> Result<Ycsb, String> {
    let (device, noftl) = stack::device_and_manager(pins::YCSB_GEOMETRY, false, seams);
    let region = noftl
        .create_region(RegionSpec::named(KV_REGION).with_die_count(pins::YCSB_REGION_DIES))
        .map_err(|e| e.to_string())?;
    let config = KvConfig { memtable_bytes: pins::KV_MEMTABLE_BYTES, ..KvConfig::default() };
    let (kv, _) = KvBackend::create(Arc::clone(&noftl), region, "kv", config, SimTime::ZERO)
        .map_err(|e| e.to_string())?;
    prepare(device, noftl, Engine::Kv(Box::new(kv)), pins, seed, smoke)
}

/// A heap + B+-tree table in a 4-die region of the YCSB device.
pub fn setup_btree(seed: u64, smoke: bool, seams: &dyn Seams) -> Result<Ycsb, String> {
    let pins = pins::BTREE_READ_MOSTLY;
    let (device, noftl) = stack::device_and_manager(pins::YCSB_GEOMETRY, false, seams);
    let placement = PlacementConfig::traditional(pins::YCSB_REGION_DIES, ["usertable".to_string()]);
    let db = stack::database(&noftl, &placement, pins::BTREE_BUFFER_PAGES, seams)?;
    let table = DbTable::create(db, pins.value_len, SimTime::ZERO)?;
    prepare(device, noftl, Engine::Btree(Box::new(table)), pins, seed, smoke)
}

impl Ycsb {
    fn stack(&self) -> Stack<'_> {
        let (db, kv) = match &self.engine {
            Engine::Kv(kv) => (None, Some(kv.store())),
            Engine::Btree(table) => (Some(table.database()), None),
        };
        Stack { device: &self.device, noftl: &self.noftl, db, kv }
    }
}

impl Prepared for Ycsb {
    fn measure(self: Box<Self>, seams: &dyn Seams) -> Measured {
        let attempted = self.ops.len() as u64;
        let mut lat_ns = Vec::with_capacity(self.ops.len());
        let mut budget = FailureBudget::new(attempted);
        let start = self.now;
        let mut now = start;
        let mut issued = 0;
        let window = OpenWindow::open(&self.stack());
        for op in &self.ops {
            if budget.exhausted() {
                break;
            }
            issued += 1;
            seams.op_begin(self.engine.entry(), kind_name(op.kind), now);
            let result = issue(self.engine.backend(), &self.spec, op, now);
            seams.op_end(result.as_ref().map_or(now, |(done, _)| *done));
            match result {
                Ok((done, true)) => {
                    lat_ns.push(done.as_nanos().saturating_sub(now.as_nanos()));
                    now = now.max(done);
                }
                // An error, or a read of a loaded key that found nothing.
                _ => budget.fail(),
            }
        }
        let window = window.close(&self.stack());
        let failed = budget.failed() + (attempted - issued);
        let ops = lat_ns.len() as u64;
        let makespan_ns = now.since(start).as_nanos();

        let mut extra = BTreeMap::new();
        let mut kv_record_bytes = 0;
        if matches!(self.engine, Engine::Kv(_)) {
            extra.insert("kv.stalled_ops".to_string(), stalled_ops(&lat_ns));
            kv_record_bytes = self.spec.key(0).len() + self.spec.value_len;
        }
        Measured {
            lat_ns,
            attempted,
            failed,
            ops,
            makespan_ns,
            ops_per_s_sim: ops as f64 / (makespan_ns as f64 / 1e9),
            window,
            space_amp: stack::space_amp(&self.device),
            stream_digest: self.stream_digest,
            gen_host_s: self.gen_host_s,
            kv_record_bytes,
            extra,
            problems: Vec::new(),
        }
    }
}

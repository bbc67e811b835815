//! `oltp_beside_compaction`: an open-loop OLTP tenant (YCSB-B on the
//! dbms, `Latency` class) beside a KV tenant that overwrites a small key
//! set (`Background` class), on one 8-die device with the arbiter on.
//! Each tenant's ops arrive as a Poisson process of its pinned rate — the
//! arrivals of independent users — drawn from the seed.  Both schedules
//! are merged by scheduled instant and every latency is taken from the
//! scheduled instant, so a backlog shows.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use flash_sim::{NandDevice, ServiceClass, SimTime};
use noftl_core::{KvConfig, NoFtl, PlacementConfig, RegionSpec};
use noftl_workload::{
    key_bytes, load_phase, stream_digest, KeyedRng, KvBackend, Op, WorkloadBackend, YcsbSpec,
};

use super::ycsb::{self, KV_REGION};
use super::{scaled, stalled_ops, FailureBudget, Measured, OpenWindow, Prepared};
use crate::pins;
use crate::seams::{Entry, Seams, Untraced};
use crate::stack::{self, DbTable, Stack};
use crate::stats::{self, Digest};

/// Both tenants loaded on one device, ready to run one rung.
pub struct Tenants {
    device: Arc<NandDevice>,
    noftl: Arc<NoFtl>,
    oltp: DbTable,
    neighbor: KvBackend,
    spec: YcsbSpec,
    /// OLTP ops with their scheduled offsets from `base`.
    oltp_ops: Vec<(u64, Op)>,
    /// Neighbor puts: scheduled offset from `base` and key id.
    neighbor_ops: Vec<(u64, u64)>,
    rung_ns: u64,
    base: SimTime,
    stream_digest: u64,
    gen_host_s: f64,
}

/// Arrival offsets of a Poisson process of `rate` per second over
/// `span_ns`, drawn from `rng`.
fn poisson_arrivals(rate: u64, span_ns: u64, rng: &mut KeyedRng) -> Vec<u64> {
    let mean_gap_ns = 1e9 / rate as f64;
    let mut arrivals = Vec::with_capacity((rate * span_ns / 1_000_000_000) as usize);
    let mut at = 0.0;
    loop {
        at += -(1.0 - rng.next_f64()).ln() * mean_gap_ns;
        if at >= span_ns as f64 {
            return arrivals;
        }
        arrivals.push(at as u64);
    }
}

/// Build the shared device and load both tenants for a rung that offers
/// the OLTP tenant `rate` ops per simulated second.
pub fn setup(rate: u64, seed: u64, smoke: bool, seams: &dyn Seams) -> Result<Tenants, String> {
    let (device, noftl) = stack::device_and_manager(pins::YCSB_GEOMETRY, true, seams);
    let half = pins::YCSB_GEOMETRY.total_dies() / 2;
    let mut placement = PlacementConfig::traditional(half, ["usertable".to_string()]);
    placement.regions[0].service_class = Some(ServiceClass::Latency);
    let db = stack::database(&noftl, &placement, pins::MT_OLTP_BUFFER_PAGES, seams)?;
    let oltp = DbTable::create(db, pins::MT_OLTP_VALUE_LEN, SimTime::ZERO)?;
    let region = noftl
        .create_region(
            RegionSpec::named(KV_REGION)
                .with_die_count(half)
                .with_service_class(ServiceClass::Background),
        )
        .map_err(|e| e.to_string())?;
    let config =
        KvConfig { memtable_bytes: pins::MT_NEIGHBOR_MEMTABLE_BYTES, ..KvConfig::default() };
    let (neighbor, t) =
        KvBackend::create(Arc::clone(&noftl), region, "neighbor", config, SimTime::ZERO)
            .map_err(|e| e.to_string())?;

    let rung_ns = scaled(pins::MT_RUNG_NS, smoke);
    let neighbor_keys = scaled(pins::MT_NEIGHBOR_KEYS, smoke);
    let started = Instant::now();
    let oltp_at = poisson_arrivals(rate, rung_ns, &mut KeyedRng::new(seed, "oltp-arrivals"));
    let mut spec =
        YcsbSpec::core('B', scaled(pins::MT_OLTP_RECORDS, smoke), oltp_at.len() as u64, seed)
            .expect("'B' is a core workload");
    spec.value_len = pins::MT_OLTP_VALUE_LEN;
    let oltp_ops: Vec<(u64, Op)> = oltp_at.into_iter().zip(spec.stream()).collect();
    let mut neighbor_rng = KeyedRng::new(seed, "neighbor");
    let neighbor_ops: Vec<(u64, u64)> =
        poisson_arrivals(pins::MT_NEIGHBOR_RATE, rung_ns, &mut neighbor_rng)
            .into_iter()
            .map(|at| (at, neighbor_rng.below(neighbor_keys)))
            .collect();
    let mut digest = Digest::default();
    digest.u64(stream_digest(oltp_ops.iter().map(|(_, op)| *op)));
    oltp_ops.iter().for_each(|(at, _)| digest.u64(*at));
    neighbor_ops.iter().for_each(|(at, key)| {
        digest.u64(*at);
        digest.u64(*key);
    });
    let gen_host_s = started.elapsed().as_secs_f64();

    let mut t = load_phase(&spec, &oltp, t).map_err(|e| e.to_string())?;
    let value = vec![b'n'; pins::MT_NEIGHBOR_VALUE_LEN];
    for k in 0..neighbor_keys {
        t = neighbor.insert(&key_bytes(k), &value, t).map_err(|e| e.to_string())?;
    }
    let base = neighbor.flush(t).map_err(|e| e.to_string())?;
    Ok(Tenants {
        device,
        noftl,
        oltp,
        neighbor,
        spec,
        oltp_ops,
        neighbor_ops,
        rung_ns,
        base,
        stream_digest: digest.value(),
        gen_host_s,
    })
}

impl Tenants {
    fn stack(&self) -> Stack<'_> {
        Stack {
            device: &self.device,
            noftl: &self.noftl,
            db: Some(self.oltp.database()),
            kv: Some(self.neighbor.store()),
        }
    }
}

/// One tenant's side of a rung.
#[derive(Default)]
struct Side {
    lat_ns: Vec<u64>,
    drained: SimTime,
}

impl Side {
    fn rate(&self, base: SimTime) -> f64 {
        self.lat_ns.len() as f64 / (self.drained.since(base).as_nanos().max(1) as f64 / 1e9)
    }
}

impl Prepared for Tenants {
    fn measure(self: Box<Self>, seams: &dyn Seams) -> Measured {
        let neighbor_value = vec![b'n'; pins::MT_NEIGHBOR_VALUE_LEN];
        let attempted = (self.oltp_ops.len() + self.neighbor_ops.len()) as u64;
        let mut budget = FailureBudget::new(attempted);
        let mut oltp = Side { drained: self.base, ..Side::default() };
        let mut neighbor = Side { drained: self.base, ..Side::default() };
        let (mut next_oltp, mut next_neighbor) = (0, 0);
        let mut issued = 0;
        let window = OpenWindow::open(&self.stack());
        while !budget.exhausted() {
            // The next op of either schedule; a tie goes to the OLTP tenant.
            let oltp_turn =
                match (self.oltp_ops.get(next_oltp), self.neighbor_ops.get(next_neighbor)) {
                    (None, None) => break,
                    (Some((o, _)), Some((n, _))) => o <= n,
                    (o, _) => o.is_some(),
                };
            issued += 1;
            if oltp_turn {
                let (offset, op) = &self.oltp_ops[next_oltp];
                let at = SimTime(self.base.as_nanos() + offset);
                next_oltp += 1;
                seams.op_begin(Entry::Dbms, ycsb::kind_name(op.kind), at);
                let result = ycsb::issue(&self.oltp, &self.spec, op, at);
                seams.op_end(result.as_ref().map_or(at, |(done, _)| *done));
                match result {
                    Ok((done, true)) => {
                        oltp.lat_ns.push(done.as_nanos().saturating_sub(at.as_nanos()));
                        oltp.drained = oltp.drained.max(done);
                    }
                    _ => budget.fail(),
                }
            } else {
                let (offset, key) = self.neighbor_ops[next_neighbor];
                let at = SimTime(self.base.as_nanos() + offset);
                let key = key_bytes(key);
                next_neighbor += 1;
                seams.op_begin(Entry::Kv, "neighbor_put", at);
                let result = self.neighbor.update(&key, &neighbor_value, at);
                seams.op_end(*result.as_ref().unwrap_or(&at));
                match result {
                    Ok(done) => {
                        neighbor.lat_ns.push(done.as_nanos().saturating_sub(at.as_nanos()));
                        neighbor.drained = neighbor.drained.max(done);
                    }
                    Err(_) => budget.fail(),
                }
            }
        }
        let window = window.close(&self.stack());
        let failed = budget.failed() + (attempted - issued);

        // Both clocks of a rung start at `base`: what the drain takes beyond
        // the rung's length is backlog.
        let makespan_ns = oltp.drained.max(neighbor.drained).since(self.base).as_nanos();
        let overrun_ns = makespan_ns.saturating_sub(self.rung_ns);
        let mut extra = BTreeMap::new();
        extra.insert("oltp.neighbor_ops_per_s_sim".to_string(), neighbor.rate(self.base));
        extra.insert("workload.drain_overrun_s_sim".to_string(), overrun_ns as f64 / 1e9);
        extra.insert("kv.stalled_ops".to_string(), stalled_ops(&neighbor.lat_ns));

        Measured {
            ops: (oltp.lat_ns.len() + neighbor.lat_ns.len()) as u64,
            ops_per_s_sim: oltp.rate(self.base),
            lat_ns: oltp.lat_ns,
            attempted,
            failed,
            makespan_ns,
            window,
            space_amp: stack::space_amp(&self.device),
            stream_digest: self.stream_digest,
            gen_host_s: self.gen_host_s,
            kv_record_bytes: key_bytes(0).len() + pins::MT_NEIGHBOR_VALUE_LEN,
            extra,
            problems: Vec::new(),
        }
    }
}

/// One rung of the ladder.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rung {
    /// Offered OLTP rate, ops per simulated second.
    pub rate: u64,
    /// OLTP p99 from the scheduled instant.
    pub p99_ns: u64,
    /// Ops of either tenant that failed.
    pub failed: u64,
    /// How long after the rung's end the last op completed.
    pub overrun_ns: u64,
}

impl Rung {
    /// The latency limit holds, nothing failed and no backlog was left.
    pub fn passes(&self) -> bool {
        self.p99_ns <= pins::MT_P99_LIMIT_NS
            && self.failed == 0
            && self.overrun_ns <= pins::MT_DRAIN_LIMIT_NS
    }
}

/// The highest rate of the passing rungs that precede the first failing
/// one (0 if the first rung fails).
pub fn max_rate(rungs: &[Rung]) -> u64 {
    rungs.iter().take_while(|r| r.passes()).map(|r| r.rate).last().unwrap_or(0)
}

/// Climb the pinned ladder on fresh stacks, stopping at the first failing
/// rung.  Only the rung verdicts are wanted, so nothing is traced.
pub fn ladder(seed: u64, smoke: bool) -> Result<Vec<Rung>, String> {
    let mut rungs = Vec::new();
    for rate in pins::MT_LADDER {
        let measured = Box::new(setup(rate, seed, smoke, &Untraced)?).measure(&Untraced);
        let mut lat = measured.lat_ns;
        lat.sort_unstable();
        let rung = Rung {
            rate,
            p99_ns: if lat.is_empty() { u64::MAX } else { stats::percentile(&lat, 0.99) },
            failed: measured.failed,
            overrun_ns: measured.makespan_ns.saturating_sub(scaled(pins::MT_RUNG_NS, smoke)),
        };
        rungs.push(rung);
        if !rung.passes() {
            break;
        }
    }
    Ok(rungs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rung(rate: u64, p99_us: u64, failed: u64, overrun_ms: u64) -> Rung {
        Rung { rate, p99_ns: p99_us * 1_000, failed, overrun_ns: overrun_ms * 1_000_000 }
    }

    #[test]
    fn ladder_selection() {
        // All pass: the top rung.
        assert_eq!(max_rate(&[rung(2_000, 900, 0, 0), rung(3_000, 2_000, 0, 50)]), 3_000);
        // A latency failure ends the climb.
        assert_eq!(max_rate(&[rung(2_000, 900, 0, 0), rung(3_000, 2_001, 0, 0)]), 2_000);
        // So does a failed op, and so does a backlog at the rung's end.
        assert_eq!(max_rate(&[rung(2_000, 900, 1, 0)]), 0);
        assert_eq!(max_rate(&[rung(2_000, 900, 0, 0), rung(3_000, 900, 0, 51)]), 2_000);
        // A pass above a failure does not count.
        assert_eq!(
            max_rate(&[rung(2_000, 900, 0, 0), rung(3_000, 9_000, 0, 0), rung(4_000, 900, 0, 0)]),
            2_000
        );
        assert_eq!(max_rate(&[]), 0);
    }
}

//! `tpcc_traditional` and `tpcc_regions`: the paper's Figure 3 arms.
//!
//! The loop is `tpcc_workload::Driver`'s — the client furthest behind in
//! simulated time steps next — owned by the harness so that it sees every
//! transaction, survives an error and can carry client state from the
//! warm-up into the measured phase.

use std::collections::BTreeMap;
use std::sync::Arc;

use dbms_engine::txn::TxnOutcome;
use dbms_engine::Database;
use flash_sim::{NandDevice, SimTime};
use noftl_core::NoFtl;
use rand::rngs::StdRng;
use rand::SeedableRng;
use tpcc_workload::{placement, transactions, Loader, ScaleConfig, TxnMix, TxnType};

use super::{scaled, FailureBudget, Measured, OpenWindow, Prepared};
use crate::pins;
use crate::seams::{Entry, Seams, Untraced};
use crate::stack::{self, Stack};
use crate::stats::{self, Digest};

struct Client {
    rng: StdRng,
    clock: SimTime,
    home_warehouse: i64,
}

/// A loaded and warmed-up TPC-C stack.
pub struct Tpcc {
    device: Arc<NandDevice>,
    noftl: Arc<NoFtl>,
    db: Database,
    scale: ScaleConfig,
    clients: Vec<Client>,
    measured_txns: u64,
    stream_digest: u64,
}

/// One finished transaction.
struct Finished {
    kind: TxnType,
    issued: SimTime,
    latency_ns: u64,
    /// `None` if the transaction returned an error.
    outcome: Option<TxnOutcome>,
}

fn client_rng(seed: u64, client: usize) -> StdRng {
    StdRng::seed_from_u64(seed.wrapping_add(client as u64).wrapping_mul(0x9E37_79B9))
}

fn kind_name(kind: TxnType) -> &'static str {
    match kind {
        TxnType::NewOrder => "new_order",
        TxnType::Payment => "payment",
        TxnType::OrderStatus => "order_status",
        TxnType::Delivery => "delivery",
        TxnType::StockLevel => "stock_level",
    }
}

/// Build the device, load the pinned scale and run the warm-up.
pub fn setup(regions: bool, seed: u64, smoke: bool, seams: &dyn Seams) -> Result<Tpcc, String> {
    let (device, noftl) = stack::device_and_manager(pins::TPCC_GEOMETRY, false, seams);
    let dies = pins::TPCC_GEOMETRY.total_dies();
    let placement = if regions { placement::figure2(dies) } else { placement::traditional(dies) };
    let db = stack::database(&noftl, &placement, pins::TPCC_BUFFER_PAGES, seams)?;
    let full = pins::TPCC_SCALE;
    let scale = ScaleConfig {
        customers_per_district: scaled(full.customers_per_district as u64, smoke) as i64,
        items: scaled(full.items as u64, smoke) as i64,
        initial_orders_per_district: scaled(full.initial_orders_per_district as u64, smoke) as i64,
        ..full
    };
    let (loaded, loaded_at) =
        Loader::new(scale, seed ^ 0xC0_FFEE).load(&db, SimTime::ZERO).map_err(|e| e.to_string())?;

    // The input fingerprint: what the loader produced and what each
    // terminal's generator draws first.  Nothing the system does enters it.
    let mut digest = Digest::default();
    let mut rows: Vec<_> = loaded.rows.iter().collect();
    rows.sort();
    for (table, count) in rows {
        digest.bytes(table.as_bytes());
        digest.u64(*count);
    }
    let mix = TxnMix::standard();
    for client in 0..pins::TPCC_CLIENTS {
        let mut rng = client_rng(seed, client);
        for _ in 0..64 {
            digest.bytes(kind_name(mix.pick(&mut rng)).as_bytes());
        }
    }

    let clients = (0..pins::TPCC_CLIENTS)
        .map(|i| Client {
            rng: client_rng(seed, i),
            clock: loaded_at,
            home_warehouse: (i as i64 % scale.warehouses) + 1,
        })
        .collect();
    let mut tpcc = Tpcc {
        device,
        noftl,
        db,
        scale,
        clients,
        measured_txns: scaled(pins::TPCC_MEASURED_TXNS, smoke),
        stream_digest: digest.value(),
    };
    let warmup = scaled(pins::TPCC_WARMUP_TXNS, smoke);
    let mut budget = FailureBudget::new(warmup);
    for _ in 0..warmup {
        if tpcc.step(&Untraced).outcome.is_none() {
            budget.fail();
            if budget.exhausted() {
                return Err("more than 1 % of the warm-up transactions failed".into());
            }
        }
    }
    Ok(tpcc)
}

impl Tpcc {
    /// Run one transaction on the client furthest behind.
    fn step(&mut self, seams: &dyn Seams) -> Finished {
        let client = self
            .clients
            .iter_mut()
            .min_by_key(|c| c.clock)
            .expect("the client count is a non-zero constant");
        let kind = TxnMix::standard().pick(&mut client.rng);
        let issued = client.clock;
        seams.op_begin(Entry::Dbms, kind_name(kind), issued);
        let mut txn = self.db.begin(issued);
        let (db, scale, rng, w) = (&self.db, &self.scale, &mut client.rng, client.home_warehouse);
        let outcome = match kind {
            TxnType::NewOrder => transactions::new_order(db, scale, rng, &mut txn, w),
            TxnType::Payment => transactions::payment(db, scale, rng, &mut txn, w),
            TxnType::OrderStatus => transactions::order_status(db, scale, rng, &mut txn, w),
            TxnType::Delivery => transactions::delivery(db, scale, rng, &mut txn, w),
            TxnType::StockLevel => transactions::stock_level(db, scale, rng, &mut txn, w),
        };
        seams.op_end(txn.now);
        client.clock = txn.now;
        Finished { kind, issued, latency_ns: txn.elapsed().as_nanos(), outcome: outcome.ok() }
    }

    fn stack(&self) -> Stack<'_> {
        Stack { device: &self.device, noftl: &self.noftl, db: Some(&self.db), kv: None }
    }
}

impl Prepared for Tpcc {
    fn measure(mut self: Box<Self>, seams: &dyn Seams) -> Measured {
        let attempted = self.measured_txns;
        let mut lat_ns = Vec::with_capacity(attempted as usize);
        let mut by_kind: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
        let (mut committed, mut rolled_back) = (0u64, 0u64);
        let mut budget = FailureBudget::new(attempted);
        let mut first_issue = None;
        let window = OpenWindow::open(&self.stack());
        let mut issued_txns = 0;
        while issued_txns < attempted && !budget.exhausted() {
            issued_txns += 1;
            let done = self.step(seams);
            first_issue.get_or_insert(done.issued);
            match done.outcome {
                Some(outcome) => {
                    lat_ns.push(done.latency_ns);
                    by_kind.entry(kind_name(done.kind)).or_default().push(done.latency_ns);
                    match outcome {
                        TxnOutcome::Committed => committed += 1,
                        TxnOutcome::RolledBack => rolled_back += 1,
                    }
                }
                None => budget.fail(),
            }
        }
        let window = window.close(&self.stack());
        let failed = budget.failed() + (attempted - issued_txns);

        let end = self.clients.iter().map(|c| c.clock).max().unwrap_or_default();
        let makespan_ns = end.since(first_issue.unwrap_or(end)).as_nanos();
        let mut extra = BTreeMap::new();
        for (kind, lats) in &mut by_kind {
            lats.sort_unstable();
            extra.insert(format!("tpcc.{kind}.lat_mean_ms_sim"), stats::mean(lats) / 1e6);
            extra.insert(
                format!("tpcc.{kind}.lat_p99_ms_sim"),
                stats::percentile(lats, 0.99) as f64 / 1e6,
            );
        }
        let finished = committed + rolled_back;
        let rollback_share = rolled_back as f64 / finished.max(1) as f64;
        extra.insert("tpcc.rollback_share".into(), rollback_share);

        let mut problems = Vec::new();
        if finished + failed != attempted {
            problems.push(format!(
                "committed {committed} + rolled back {rolled_back} + failed {failed} != attempted {attempted}"
            ));
        }
        let db_before = window.before.db.expect("the stack has a database");
        let db_after = window.after.db.expect("the stack has a database");
        if db_after.commits - db_before.commits != committed {
            problems.push("the database's commit count disagrees with the harness's".into());
        }
        let (lo, hi) = pins::TPCC_ROLLBACK_SHARE;
        // 1/20 of the transactions leaves too few rollbacks to bound.
        if attempted == pins::TPCC_MEASURED_TXNS && !(lo..=hi).contains(&rollback_share) {
            problems.push(format!("rollback share {rollback_share:.4} outside {lo}..{hi}"));
        }

        Measured {
            lat_ns,
            attempted,
            failed,
            ops: committed,
            makespan_ns,
            ops_per_s_sim: committed as f64 / (makespan_ns as f64 / 1e9),
            window,
            space_amp: stack::space_amp(&self.device),
            stream_digest: self.stream_digest,
            gen_host_s: 0.0,
            kv_record_bytes: 0,
            extra,
            problems,
        }
    }
}

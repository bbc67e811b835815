//! The five TPC-C transactions.
//!
//! All transaction logic runs against the `dbms-engine` API; every index
//! access, heap fetch and update turns into buffer-pool traffic and —
//! on misses, evictions and commits — into native flash commands, which is
//! what the paper's evaluation measures.  Rows are read and edited where
//! their buffer frames hold them: a read ([`Database::read`],
//! [`Database::index_read`]) returns the columns the transaction uses and
//! copies no row, an update ([`Database::update_with`]) sets its columns
//! in the frame, and a scan hands its record ids to a closure that keeps
//! the few the transaction needs on the stack.  A row a transaction
//! inserts is built in its bytes on the stack ([`schema::insert_row`]),
//! and its inputs are formatted into stack buffers ([`random::Text`]), so
//! a transaction allocates nothing.  Each read-then-update pair makes the
//! calls, in the order and at the simulated instants, that reading a copy
//! and storing it back made, so every simulated figure is unchanged.

use std::fmt::Write;
use std::ops::{Deref, DerefMut};

use rand::rngs::StdRng;

use dbms_engine::txn::TxnOutcome;
use dbms_engine::{Database, RecordId, Row, Txn, NO_KEYS};

use crate::loader::ScaleConfig;
use crate::random::{self, Text};
use crate::schema::{self, insert_row};

// Column positions used by the transactions (see `schema.rs`).
const W_TAX: usize = 7;
const W_YTD: usize = 8;
const D_TAX: usize = 8;
const D_YTD: usize = 9;
const D_NEXT_O_ID: usize = 10;
const C_CREDIT: usize = 13;
const C_DISCOUNT: usize = 15;
const C_BALANCE: usize = 16;
const C_YTD_PAYMENT: usize = 17;
const C_PAYMENT_CNT: usize = 18;
const C_DELIVERY_CNT: usize = 19;
const C_DATA: usize = 20;
const O_C_ID: usize = 3;
const O_CARRIER_ID: usize = 5;
const OL_I_ID: usize = 4;
const OL_DELIVERY_D: usize = 6;
const OL_AMOUNT: usize = 8;
const S_QUANTITY: usize = 2;
const S_YTD: usize = 13;
const S_ORDER_CNT: usize = 14;
const I_PRICE: usize = 3;

/// The most lines an order has.
const MAX_LINES: usize = 15;

/// Up to `N` values in place, and all of them in a vector past that:
/// what a scan keeps when it almost always finds few.
struct Few<T, const N: usize> {
    len: usize,
    inline: [T; N],
    spilled: Vec<T>,
}

impl<T: Copy + Default, const N: usize> Few<T, N> {
    fn new() -> Self {
        Few { len: 0, inline: [T::default(); N], spilled: Vec::new() }
    }

    fn push(&mut self, v: T) {
        if self.len < N {
            self.inline[self.len] = v;
        } else {
            if self.len == N {
                self.spilled.extend_from_slice(&self.inline);
            }
            self.spilled.push(v);
        }
        self.len += 1;
    }
}

impl<T, const N: usize> Deref for Few<T, N> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        if self.len <= N {
            &self.inline[..self.len]
        } else {
            &self.spilled
        }
    }
}

impl<T, const N: usize> DerefMut for Few<T, N> {
    fn deref_mut(&mut self) -> &mut [T] {
        if self.len <= N {
            &mut self.inline[..self.len]
        } else {
            &mut self.spilled
        }
    }
}

/// Select a customer either by id (40 %) or by last name (60 %), as the
/// spec prescribes for Payment and OrderStatus, and read it with `f`.
/// Returns the record id and what `f` returned.
fn select_customer<R>(
    db: &Database,
    scale: &ScaleConfig,
    rng: &mut StdRng,
    txn: &mut Txn,
    (w_id, d_id): (i64, i64),
    f: impl FnOnce(&Row<&[u8]>) -> R,
) -> dbms_engine::Result<Option<(RecordId, R)>> {
    if random::uniform(rng, 1, 100) <= 60 {
        // By last name: take the middle customer with that name.
        let last = random::random_last_name(rng);
        let prefix = schema::customer_name_prefix(w_id, d_id, &last);
        let mut rids = Few::<RecordId, 16>::new();
        db.index_prefix(txn, "CUSTOMER", "C_NAME_IDX", &prefix, |rid| rids.push(rid))?;
        if let Some(&rid) = rids.get(rids.len() / 2) {
            return Ok(Some((rid, db.read(txn, "CUSTOMER", rid, f)?)));
        }
        // Fall back to a by-id lookup (small scales do not have every name).
    }
    let c_id = random::nurand_customer_id(rng, scale.customers_per_district);
    db.index_read(txn, "CUSTOMER", "C_IDX", &schema::customer_key(w_id, d_id, c_id), f)
}

/// The NewOrder transaction (TPC-C §2.4).  Returns `RolledBack` for the
/// ~1 % of orders that reference an unused item number.
pub fn new_order(
    db: &Database,
    scale: &ScaleConfig,
    rng: &mut StdRng,
    txn: &mut Txn,
    w_id: i64,
) -> dbms_engine::Result<TxnOutcome> {
    let d_id = random::uniform(rng, 1, scale.districts_per_warehouse);
    let c_id = random::nurand_customer_id(rng, scale.customers_per_district);
    let ol_cnt = random::uniform(rng, 5, MAX_LINES as i64);
    let rollback = random::uniform(rng, 1, 100) == 1;

    // Generate the order lines up front so the "unused item" case can be
    // detected before any write happens (the engine's rollback model).
    let mut lines = [(0, 0, 0); MAX_LINES];
    let lines = &mut lines[..ol_cnt as usize];
    for (line, slot) in (1..).zip(lines.iter_mut()) {
        let i_id = if rollback && line == ol_cnt {
            scale.items + 1 // guaranteed unused
        } else {
            random::nurand_item_id(rng, scale.items)
        };
        let quantity = random::uniform(rng, 1, 10);
        *slot = (line, i_id, quantity);
    }

    // Warehouse, district and customer reads.
    let (_, w_tax) = db
        .index_read(txn, "WAREHOUSE", "W_IDX", &schema::warehouse_key(w_id), |w| w.float(W_TAX))?
        .ok_or_else(|| dbms_engine::DbError::not_found(format!("warehouse {w_id}")))?;
    let district_key = schema::district_key(w_id, d_id);
    let (d_rid, (d_tax, o_id)) = db
        .index_read(txn, "DISTRICT", "D_IDX", &district_key, |d| {
            (d.float(D_TAX), d.int(D_NEXT_O_ID))
        })?
        .ok_or_else(|| dbms_engine::DbError::not_found(format!("district {w_id}-{d_id}")))?;
    let customer_key = schema::customer_key(w_id, d_id, c_id);
    let (_, c_discount) = db
        .index_read(txn, "CUSTOMER", "C_IDX", &customer_key, |c| c.float(C_DISCOUNT))?
        .ok_or_else(|| dbms_engine::DbError::not_found(format!("customer {c_id}")))?;

    // Validate the items; an unused item number aborts the transaction.
    let mut item_prices = [0.0; MAX_LINES];
    for ((_, i_id, _), price) in lines.iter().zip(&mut item_prices) {
        match db.index_read(txn, "ITEM", "I_IDX", &schema::item_key(*i_id), |i| i.float(I_PRICE))? {
            Some((_, found)) => *price = found,
            None => {
                return Ok(db.rollback(txn));
            }
        }
    }

    // All inputs valid: perform the writes.
    db.update_with(txn, "DISTRICT", d_rid, |d| d.set_int(D_NEXT_O_ID, o_id + 1))?;

    let keys = [
        ("O_IDX", &schema::order_key(w_id, d_id, o_id)[..]),
        ("O_CUST_IDX", &schema::order_customer_key(w_id, d_id, c_id, o_id)[..]),
    ];
    insert_row(db, txn, "ORDER", &keys, |row| {
        // O_CARRIER_ID stays zero until Delivery.
        row.int(o_id)
            .int(d_id)
            .int(w_id)
            .int(c_id)
            .str("20160315120000")
            .skip(1)
            .int(ol_cnt)
            .int(1);
    })?;
    let keys = [("NO_IDX", schema::new_order_key(w_id, d_id, o_id))];
    insert_row(db, txn, "NEW_ORDER", &keys, |row| {
        row.int(o_id).int(d_id).int(w_id);
    })?;

    let mut total = 0.0;
    for ((line, i_id, quantity), price) in lines.iter().zip(&item_prices) {
        let (s_rid, mut s_quantity) = db
            .index_read(txn, "STOCK", "S_IDX", &schema::stock_key(w_id, *i_id), |s| {
                s.int(S_QUANTITY)
            })?
            .ok_or_else(|| dbms_engine::DbError::not_found(format!("stock {w_id}/{i_id}")))?;
        if s_quantity >= quantity + 10 {
            s_quantity -= quantity;
        } else {
            s_quantity = s_quantity - quantity + 91;
        }
        db.update_with(txn, "STOCK", s_rid, |s| {
            s.set_int(S_QUANTITY, s_quantity);
            s.set_float(S_YTD, s.float(S_YTD) + *quantity as f64);
            s.set_int(S_ORDER_CNT, s.int(S_ORDER_CNT) + 1);
        })?;

        let amount = *quantity as f64 * price * (1.0 + w_tax + d_tax) * (1.0 - c_discount);
        total += amount;
        let keys = [("OL_IDX", schema::orderline_key(w_id, d_id, o_id, *line))];
        insert_row(db, txn, "ORDERLINE", &keys, |row| {
            // OL_DELIVERY_D stays empty until Delivery.
            row.int(o_id).int(d_id).int(w_id).int(*line).int(*i_id).int(w_id).skip(1);
            row.int(*quantity).float(amount).str("distinfo-distinfo-dist");
        })?;
    }
    debug_assert!(total >= 0.0);
    db.commit(txn)
}

/// The Payment transaction (TPC-C §2.5).
pub fn payment(
    db: &Database,
    scale: &ScaleConfig,
    rng: &mut StdRng,
    txn: &mut Txn,
    w_id: i64,
) -> dbms_engine::Result<TxnOutcome> {
    let d_id = random::uniform(rng, 1, scale.districts_per_warehouse);
    let amount = random::uniform(rng, 100, 500_000) as f64 / 100.0;
    // 85 % of payments are for the home warehouse/district; with a single
    // warehouse the remote case degenerates to the home one.
    let (c_w_id, c_d_id) = if random::uniform(rng, 1, 100) <= 85 || scale.warehouses == 1 {
        (w_id, d_id)
    } else {
        let mut other = random::uniform(rng, 1, scale.warehouses);
        if other == w_id {
            other = (other % scale.warehouses) + 1;
        }
        (other, random::uniform(rng, 1, scale.districts_per_warehouse))
    };

    // Update warehouse and district YTD.
    let (w_rid, ()) = db
        .index_read(txn, "WAREHOUSE", "W_IDX", &schema::warehouse_key(w_id), |_| ())?
        .ok_or_else(|| dbms_engine::DbError::not_found(format!("warehouse {w_id}")))?;
    db.update_with(txn, "WAREHOUSE", w_rid, |w| w.set_float(W_YTD, w.float(W_YTD) + amount))?;
    let (d_rid, ()) = db
        .index_read(txn, "DISTRICT", "D_IDX", &schema::district_key(w_id, d_id), |_| ())?
        .ok_or_else(|| dbms_engine::DbError::not_found(format!("district {w_id}-{d_id}")))?;
    db.update_with(txn, "DISTRICT", d_rid, |d| d.set_float(D_YTD, d.float(D_YTD) + amount))?;

    // Customer update.
    let Some((c_rid, c_id)) = select_customer(db, scale, rng, txn, (c_w_id, c_d_id), |c| c.int(0))?
    else {
        return Ok(db.rollback(txn));
    };
    let entry = db.update_with(txn, "CUSTOMER", c_rid, |c| -> std::fmt::Result {
        c.set_float(C_BALANCE, c.float(C_BALANCE) - amount);
        c.set_float(C_YTD_PAYMENT, c.float(C_YTD_PAYMENT) + amount);
        c.set_int(C_PAYMENT_CNT, c.int(C_PAYMENT_CNT) + 1);
        if c.str(C_CREDIT) == "BC" {
            // The new entry, then the old data, cut where the column ends.
            let mut new_data = Text::new();
            let old = c.str(C_DATA);
            write!(new_data, "{c_id} {c_d_id} {c_w_id} {d_id} {w_id} {amount:.2}|{old}")?;
            c.set_str(C_DATA, &new_data);
        }
        Ok(())
    })?;
    // A `Text` takes any write, cut where it ends.
    entry.map_err(dbms_engine::DbError::storage)?;

    // History row (no index).
    insert_row(db, txn, "HISTORY", NO_KEYS, |row| {
        row.int(c_id).int(c_d_id).int(c_w_id).int(d_id).int(w_id);
        row.str("20160315120000").float(amount).str("payment-history-data");
    })?;
    db.commit(txn)
}

/// The OrderStatus transaction (TPC-C §2.6) — read only.
pub fn order_status(
    db: &Database,
    scale: &ScaleConfig,
    rng: &mut StdRng,
    txn: &mut Txn,
    w_id: i64,
) -> dbms_engine::Result<TxnOutcome> {
    let d_id = random::uniform(rng, 1, scale.districts_per_warehouse);
    let Some((_, c_id)) = select_customer(db, scale, rng, txn, (w_id, d_id), |c| c.int(0))? else {
        return Ok(db.rollback(txn));
    };
    // Most recent order of the customer.
    let customer_key = schema::customer_key(w_id, d_id, c_id);
    let mut last = None;
    db.index_prefix(txn, "ORDER", "O_CUST_IDX", &customer_key, |rid| last = Some(rid))?;
    if let Some(o_rid) = last {
        let o_id = db.read(txn, "ORDER", o_rid, |o| o.int(0))?;
        // Read all of its order lines.
        let order_key = schema::order_key(w_id, d_id, o_id);
        let mut lines = Few::<RecordId, MAX_LINES>::new();
        db.index_prefix(txn, "ORDERLINE", "OL_IDX", &order_key, |rid| lines.push(rid))?;
        for &ol_rid in lines.iter() {
            db.read(txn, "ORDERLINE", ol_rid, |ol| debug_assert_eq!(ol.int(0), o_id))?;
        }
    }
    db.commit(txn)
}

/// The Delivery transaction (TPC-C §2.7): deliver the oldest undelivered
/// order of every district.
pub fn delivery(
    db: &Database,
    scale: &ScaleConfig,
    rng: &mut StdRng,
    txn: &mut Txn,
    w_id: i64,
) -> dbms_engine::Result<TxnOutcome> {
    let carrier = random::uniform(rng, 1, 10);
    for d_id in 1..=scale.districts_per_warehouse {
        // Oldest undelivered order of the district.
        let district_key = schema::district_key(w_id, d_id);
        let mut oldest = None;
        db.index_prefix(txn, "NEW_ORDER", "NO_IDX", &district_key, |rid| {
            oldest.get_or_insert(rid);
        })?;
        let Some(no_rid) = oldest else {
            continue;
        };
        let o_id = db.read(txn, "NEW_ORDER", no_rid, |no| no.int(0))?;
        // The key its insert registered, rebuilt from the row.
        db.delete(
            txn,
            "NEW_ORDER",
            no_rid,
            &[("NO_IDX", schema::new_order_key(w_id, d_id, o_id))],
        )?;

        // Update the order's carrier.
        let order_key = schema::order_key(w_id, d_id, o_id);
        let Some((o_rid, c_id)) =
            db.index_read(txn, "ORDER", "O_IDX", &order_key, |o| o.int(O_C_ID))?
        else {
            continue;
        };
        db.update_with(txn, "ORDER", o_rid, |o| o.set_int(O_CARRIER_ID, carrier))?;

        // Stamp every order line and sum the amounts.
        let mut lines = Few::<RecordId, MAX_LINES>::new();
        db.index_prefix(txn, "ORDERLINE", "OL_IDX", &order_key, |rid| lines.push(rid))?;
        let mut total = 0.0;
        for &ol_rid in lines.iter() {
            total += db.read(txn, "ORDERLINE", ol_rid, |ol| ol.float(OL_AMOUNT))?;
            db.update_with(txn, "ORDERLINE", ol_rid, |ol| {
                ol.set_str(OL_DELIVERY_D, "20160315130000")
            })?;
        }

        // Credit the customer.
        let customer_key = schema::customer_key(w_id, d_id, c_id);
        if let Some((c_rid, ())) = db.index_read(txn, "CUSTOMER", "C_IDX", &customer_key, |_| ())? {
            db.update_with(txn, "CUSTOMER", c_rid, |c| {
                c.set_float(C_BALANCE, c.float(C_BALANCE) + total);
                c.set_int(C_DELIVERY_CNT, c.int(C_DELIVERY_CNT) + 1);
            })?;
        }
    }
    db.commit(txn)
}

/// The StockLevel transaction (TPC-C §2.8) — read only.
pub fn stock_level(
    db: &Database,
    scale: &ScaleConfig,
    rng: &mut StdRng,
    txn: &mut Txn,
    w_id: i64,
) -> dbms_engine::Result<TxnOutcome> {
    let d_id = random::uniform(rng, 1, scale.districts_per_warehouse);
    let threshold = random::uniform(rng, 10, 20);
    let district_key = schema::district_key(w_id, d_id);
    let (_, next_o_id) = db
        .index_read(txn, "DISTRICT", "D_IDX", &district_key, |d| d.int(D_NEXT_O_ID))?
        .ok_or_else(|| dbms_engine::DbError::not_found(format!("district {w_id}-{d_id}")))?;
    // Order lines of the last 20 orders.
    let low = schema::orderline_key(w_id, d_id, (next_o_id - 20).max(1), 0);
    let high = schema::orderline_key(w_id, d_id, next_o_id, 0);
    let mut lines = Few::<RecordId, { 20 * MAX_LINES }>::new();
    db.index_range(txn, "ORDERLINE", "OL_IDX", &low, Some(&high), usize::MAX, |rid| {
        lines.push(rid)
    })?;
    // The distinct items, in ascending order.
    let mut items = Few::<i64, { 20 * MAX_LINES }>::new();
    for &ol_rid in lines.iter() {
        items.push(db.read(txn, "ORDERLINE", ol_rid, |ol| ol.int(OL_I_ID))?);
    }
    items.sort_unstable();
    let mut low_stock = 0u64;
    for i_id in items.chunk_by(i64::eq).map(|run| run[0]) {
        let stock_key = schema::stock_key(w_id, i_id);
        if let Some((_, quantity)) =
            db.index_read(txn, "STOCK", "S_IDX", &stock_key, |s| s.int(S_QUANTITY))?
        {
            if quantity < threshold {
                low_stock += 1;
            }
        }
    }
    let _ = low_stock;
    db.commit(txn)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loader::Loader;
    use crate::placement;
    use dbms_engine::{DatabaseConfig, NoFtlBackend};
    use flash_sim::{DeviceBuilder, FlashGeometry, SimTime, TimingModel};
    use noftl_core::{NoFtl, NoFtlConfig};
    use rand::SeedableRng;
    use std::sync::Arc;

    fn setup() -> (Database, ScaleConfig, SimTime) {
        let device = Arc::new(
            DeviceBuilder::new(FlashGeometry::example()).timing(TimingModel::instant()).build(),
        );
        let noftl = Arc::new(NoFtl::new(device, NoFtlConfig::default()));
        let backend = Arc::new(NoFtlBackend::new(noftl, &placement::traditional(8)).unwrap());
        let db =
            Database::open(backend, DatabaseConfig { buffer_pages: 1024, ..Default::default() })
                .unwrap();
        let scale = ScaleConfig::tiny();
        let (_, done) = Loader::new(scale, 3).load(&db, SimTime::ZERO).unwrap();
        (db, scale, done)
    }

    #[test]
    fn new_order_advances_the_district_sequence() {
        let (db, scale, t0) = setup();
        let mut rng = StdRng::seed_from_u64(1);
        let mut committed = 0;
        for i in 0..20 {
            let mut txn = db.begin(t0 + flash_sim::Duration::from_us(i));
            if new_order(&db, &scale, &mut rng, &mut txn, 1).unwrap() == TxnOutcome::Committed {
                committed += 1;
            }
        }
        assert!(committed >= 15, "most NewOrders commit ({committed}/20)");
        // The district counter moved forward by the number of committed
        // orders that hit each district; overall it must have grown.
        let mut txn = db.begin(t0);
        let (_, d1) = db
            .index_get(&mut txn, "DISTRICT", "D_IDX", &schema::district_key(1, 1))
            .unwrap()
            .unwrap();
        let (_, d2) = db
            .index_get(&mut txn, "DISTRICT", "D_IDX", &schema::district_key(1, 2))
            .unwrap()
            .unwrap();
        let grown = d1.int(D_NEXT_O_ID) + d2.int(D_NEXT_O_ID);
        assert!(grown > 2 * (scale.initial_orders_per_district + 1));
    }

    #[test]
    fn payment_updates_balances_and_history() {
        let (db, scale, t0) = setup();
        let mut rng = StdRng::seed_from_u64(2);
        let history_before = db.with_table("HISTORY", |t| t.heap.record_count()).unwrap();
        for i in 0..10 {
            let mut txn = db.begin(t0 + flash_sim::Duration::from_us(i));
            let outcome = payment(&db, &scale, &mut rng, &mut txn, 1).unwrap();
            assert_eq!(outcome, TxnOutcome::Committed);
        }
        let history_after = db.with_table("HISTORY", |t| t.heap.record_count()).unwrap();
        assert_eq!(history_after, history_before + 10);
        // Warehouse YTD grew.
        let mut txn = db.begin(t0);
        let (_, w) = db
            .index_get(&mut txn, "WAREHOUSE", "W_IDX", &schema::warehouse_key(1))
            .unwrap()
            .unwrap();
        assert!(w.float(W_YTD) > 300_000.0);
    }

    #[test]
    fn order_status_and_stock_level_are_read_only() {
        let (db, scale, t0) = setup();
        let mut rng = StdRng::seed_from_u64(3);
        let writes_before = db.buffer_stats().logical_writes;
        let wal_before = db.wal_stats();
        let read_only_before = db.read_only_commit_count();
        for i in 0..5 {
            let mut txn = db.begin(t0 + flash_sim::Duration::from_us(i));
            order_status(&db, &scale, &mut rng, &mut txn, 1).unwrap();
            let mut txn = db.begin(t0 + flash_sim::Duration::from_us(100 + i));
            stock_level(&db, &scale, &mut rng, &mut txn, 1).unwrap();
        }
        // No table writes…
        assert_eq!(db.buffer_stats().logical_writes, writes_before);
        // …and nothing for the log either: no record, no force.
        assert_eq!(db.wal_stats().records, wal_before.records);
        assert_eq!(db.wal_stats().forces, wal_before.forces);
        assert_eq!(db.read_only_commit_count(), read_only_before + 10);
    }

    #[test]
    fn delivery_clears_new_orders() {
        let (db, scale, t0) = setup();
        let mut rng = StdRng::seed_from_u64(4);
        let pending_before = db.with_table("NEW_ORDER", |t| t.heap.record_count()).unwrap();
        assert!(pending_before > 0);
        let mut txn = db.begin(t0);
        delivery(&db, &scale, &mut rng, &mut txn, 1).unwrap();
        let pending_after = db.with_table("NEW_ORDER", |t| t.heap.record_count()).unwrap();
        // One order per district is delivered, and its NO_IDX entry with it.
        assert_eq!(pending_after, pending_before - scale.districts_per_warehouse as u64);
        let entries = db.with_table("NEW_ORDER", |t| t.indexes["NO_IDX"].len()).unwrap();
        assert_eq!(entries, pending_after);
        // Delivered orders have a carrier assigned.
        let mut orders = Vec::new();
        db.index_prefix(&mut txn, "ORDER", "O_IDX", &schema::district_key(1, 1), |rid| {
            orders.push(rid)
        })
        .unwrap();
        let mut delivered = 0;
        for rid in orders {
            if db.read(&mut txn, "ORDER", rid, |o| o.int(O_CARRIER_ID)).unwrap() > 0 {
                delivered += 1;
            }
        }
        assert!(delivered > 0);
    }

    #[test]
    fn new_order_rollbacks_occur_for_unused_items() {
        let (db, scale, t0) = setup();
        let mut rng = StdRng::seed_from_u64(5);
        let mut rolled_back = 0;
        for i in 0..300 {
            let mut txn = db.begin(t0 + flash_sim::Duration::from_us(i));
            if new_order(&db, &scale, &mut rng, &mut txn, 1).unwrap() == TxnOutcome::RolledBack {
                rolled_back += 1;
            }
        }
        // ~1 % of NewOrders must roll back; with 300 trials expect ≥ 1.
        assert!(rolled_back >= 1, "expected at least one rollback");
        assert!(rolled_back < 30, "rollbacks should stay around 1 %");
        assert_eq!(db.rollback_count(), rolled_back);
    }
}

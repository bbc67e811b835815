//! The five TPC-C transactions.
//!
//! All transaction logic runs against the `dbms-engine` API; every index
//! access, heap fetch and update turns into buffer-pool traffic and —
//! on misses, evictions and commits — into native flash commands, which is
//! what the paper's evaluation measures.  Rows are read and edited in
//! their bytes ([`Row`]): a transaction decodes no record it reads and
//! encodes none it updates; only the rows it inserts start as values.

use rand::rngs::StdRng;

use dbms_engine::txn::TxnOutcome;
use dbms_engine::value::Value;
use dbms_engine::{Database, Record, RecordId, Row, Txn, NO_KEYS};

use crate::loader::ScaleConfig;
use crate::random;
use crate::schema;

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

/// Select a customer either by id (40 %) or by last name (60 %), as the
/// spec prescribes for Payment and OrderStatus.  Returns the record id and
/// the customer row.
fn select_customer(
    db: &Database,
    scale: &ScaleConfig,
    rng: &mut StdRng,
    txn: &mut Txn,
    w_id: i64,
    d_id: i64,
) -> dbms_engine::Result<Option<(RecordId, Row)>> {
    if random::uniform(rng, 1, 100) <= 60 {
        // By last name: take the middle customer with that name.
        let last = random::random_last_name(rng);
        let matches = db.index_prefix(
            txn,
            "CUSTOMER",
            "C_NAME_IDX",
            &schema::customer_name_prefix(w_id, d_id, &last),
        )?;
        if matches.is_empty() {
            // Fall back to a by-id lookup (small scales do not have every name).
            let c_id = random::nurand_customer_id(rng, scale.customers_per_district);
            return db.index_get(txn, "CUSTOMER", "C_IDX", &schema::customer_key(w_id, d_id, c_id));
        }
        let rid = matches[matches.len() / 2];
        let row = db.get(txn, "CUSTOMER", rid)?;
        Ok(Some((rid, row)))
    } else {
        let c_id = random::nurand_customer_id(rng, scale.customers_per_district);
        db.index_get(txn, "CUSTOMER", "C_IDX", &schema::customer_key(w_id, d_id, c_id))
    }
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
    let ol_cnt = random::uniform(rng, 5, 15);
    let rollback = random::uniform(rng, 1, 100) == 1;

    // Generate the order lines up front so the "unused item" case can be
    // detected before any write happens (the engine's rollback model).
    let mut lines = Vec::with_capacity(ol_cnt as usize);
    for line in 1..=ol_cnt {
        let i_id = if rollback && line == ol_cnt {
            scale.items + 1 // guaranteed unused
        } else {
            random::nurand_item_id(rng, scale.items)
        };
        let quantity = random::uniform(rng, 1, 10);
        lines.push((line, i_id, quantity));
    }

    // Warehouse, district and customer reads.
    let (_, warehouse) = db
        .index_get(txn, "WAREHOUSE", "W_IDX", &schema::warehouse_key(w_id))?
        .ok_or_else(|| dbms_engine::DbError::not_found(format!("warehouse {w_id}")))?;
    let w_tax = warehouse.float(W_TAX);
    let (d_rid, mut district) = db
        .index_get(txn, "DISTRICT", "D_IDX", &schema::district_key(w_id, d_id))?
        .ok_or_else(|| dbms_engine::DbError::not_found(format!("district {w_id}-{d_id}")))?;
    let d_tax = district.float(D_TAX);
    let o_id = district.int(D_NEXT_O_ID);
    let (_, customer) = db
        .index_get(txn, "CUSTOMER", "C_IDX", &schema::customer_key(w_id, d_id, c_id))?
        .ok_or_else(|| dbms_engine::DbError::not_found(format!("customer {c_id}")))?;
    let c_discount = customer.float(C_DISCOUNT);

    // Validate the items; an unused item number aborts the transaction.
    let mut item_prices = Vec::with_capacity(lines.len());
    for (_, i_id, _) in &lines {
        match db.index_get(txn, "ITEM", "I_IDX", &schema::item_key(*i_id))? {
            Some((_, item)) => item_prices.push(item.float(I_PRICE)),
            None => {
                return Ok(db.rollback(txn));
            }
        }
    }

    // All inputs valid: perform the writes.
    district.set_int(D_NEXT_O_ID, o_id + 1);
    db.update(txn, "DISTRICT", d_rid, &district)?;

    let order: Record = vec![
        Value::Int(o_id),
        Value::Int(d_id),
        Value::Int(w_id),
        Value::Int(c_id),
        Value::Str("20160315120000".into()),
        Value::Int(0),
        Value::Int(ol_cnt),
        Value::Int(1),
    ];
    db.insert(
        txn,
        "ORDER",
        &order,
        &[
            ("O_IDX", &schema::order_key(w_id, d_id, o_id)[..]),
            ("O_CUST_IDX", &schema::order_customer_key(w_id, d_id, c_id, o_id)[..]),
        ],
    )?;
    let no: Record = vec![Value::Int(o_id), Value::Int(d_id), Value::Int(w_id)];
    db.insert(txn, "NEW_ORDER", &no, &[("NO_IDX", schema::new_order_key(w_id, d_id, o_id))])?;

    let mut total = 0.0;
    for ((line, i_id, quantity), price) in lines.iter().zip(item_prices.iter()) {
        let (s_rid, mut stock) = db
            .index_get(txn, "STOCK", "S_IDX", &schema::stock_key(w_id, *i_id))?
            .ok_or_else(|| dbms_engine::DbError::not_found(format!("stock {w_id}/{i_id}")))?;
        let mut s_quantity = stock.int(S_QUANTITY);
        if s_quantity >= quantity + 10 {
            s_quantity -= quantity;
        } else {
            s_quantity = s_quantity - quantity + 91;
        }
        stock.set_int(S_QUANTITY, s_quantity);
        stock.set_float(S_YTD, stock.float(S_YTD) + *quantity as f64);
        stock.set_int(S_ORDER_CNT, stock.int(S_ORDER_CNT) + 1);
        db.update(txn, "STOCK", s_rid, &stock)?;

        let amount = *quantity as f64 * price * (1.0 + w_tax + d_tax) * (1.0 - c_discount);
        total += amount;
        let ol: Record = vec![
            Value::Int(o_id),
            Value::Int(d_id),
            Value::Int(w_id),
            Value::Int(*line),
            Value::Int(*i_id),
            Value::Int(w_id),
            Value::Str(String::new()),
            Value::Int(*quantity),
            Value::Float(amount),
            Value::Str("distinfo-distinfo-dist".into()),
        ];
        db.insert(
            txn,
            "ORDERLINE",
            &ol,
            &[("OL_IDX", schema::orderline_key(w_id, d_id, o_id, *line))],
        )?;
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
    let (w_rid, mut warehouse) = db
        .index_get(txn, "WAREHOUSE", "W_IDX", &schema::warehouse_key(w_id))?
        .ok_or_else(|| dbms_engine::DbError::not_found(format!("warehouse {w_id}")))?;
    warehouse.set_float(W_YTD, warehouse.float(W_YTD) + amount);
    db.update(txn, "WAREHOUSE", w_rid, &warehouse)?;
    let (d_rid, mut district) = db
        .index_get(txn, "DISTRICT", "D_IDX", &schema::district_key(w_id, d_id))?
        .ok_or_else(|| dbms_engine::DbError::not_found(format!("district {w_id}-{d_id}")))?;
    district.set_float(D_YTD, district.float(D_YTD) + amount);
    db.update(txn, "DISTRICT", d_rid, &district)?;

    // Customer update.
    let Some((c_rid, mut customer)) = select_customer(db, scale, rng, txn, c_w_id, c_d_id)? else {
        return Ok(db.rollback(txn));
    };
    customer.set_float(C_BALANCE, customer.float(C_BALANCE) - amount);
    customer.set_float(C_YTD_PAYMENT, customer.float(C_YTD_PAYMENT) + amount);
    customer.set_int(C_PAYMENT_CNT, customer.int(C_PAYMENT_CNT) + 1);
    let c_id = customer.int(0);
    if customer.str(C_CREDIT) == "BC" {
        let old = customer.str(C_DATA);
        let new_data = format!("{c_id} {c_d_id} {c_w_id} {d_id} {w_id} {amount:.2}|{old}");
        customer.set_str(C_DATA, &new_data);
    }
    db.update(txn, "CUSTOMER", c_rid, &customer)?;

    // History row (no index).
    let hist: Record = vec![
        Value::Int(c_id),
        Value::Int(c_d_id),
        Value::Int(c_w_id),
        Value::Int(d_id),
        Value::Int(w_id),
        Value::Str("20160315120000".into()),
        Value::Float(amount),
        Value::Str("payment-history-data".into()),
    ];
    db.insert(txn, "HISTORY", &hist, NO_KEYS)?;
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
    let Some((_, customer)) = select_customer(db, scale, rng, txn, w_id, d_id)? else {
        return Ok(db.rollback(txn));
    };
    let c_id = customer.int(0);
    // Most recent order of the customer.
    let orders =
        db.index_prefix(txn, "ORDER", "O_CUST_IDX", &schema::customer_key(w_id, d_id, c_id))?;
    if let Some(&o_rid) = orders.last() {
        let o_id = db.get(txn, "ORDER", o_rid)?.int(0);
        // Read all of its order lines.
        let lines =
            db.index_prefix(txn, "ORDERLINE", "OL_IDX", &schema::order_key(w_id, d_id, o_id))?;
        for ol_rid in lines {
            let ol = db.get(txn, "ORDERLINE", ol_rid)?;
            debug_assert_eq!(ol.int(0), o_id);
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
        let pending =
            db.index_prefix(txn, "NEW_ORDER", "NO_IDX", &schema::district_key(w_id, d_id))?;
        let Some(&no_rid) = pending.first() else {
            continue;
        };
        let o_id = db.get(txn, "NEW_ORDER", no_rid)?.int(0);
        // The key its insert registered, rebuilt from the row.
        db.delete(
            txn,
            "NEW_ORDER",
            no_rid,
            &[("NO_IDX", schema::new_order_key(w_id, d_id, o_id))],
        )?;

        // Update the order's carrier.
        let Some((o_rid, mut order)) =
            db.index_get(txn, "ORDER", "O_IDX", &schema::order_key(w_id, d_id, o_id))?
        else {
            continue;
        };
        let c_id = order.int(O_C_ID);
        order.set_int(O_CARRIER_ID, carrier);
        db.update(txn, "ORDER", o_rid, &order)?;

        // Stamp every order line and sum the amounts.
        let lines =
            db.index_prefix(txn, "ORDERLINE", "OL_IDX", &schema::order_key(w_id, d_id, o_id))?;
        let mut total = 0.0;
        for ol_rid in lines {
            let mut ol = db.get(txn, "ORDERLINE", ol_rid)?;
            total += ol.float(OL_AMOUNT);
            ol.set_str(OL_DELIVERY_D, "20160315130000");
            db.update(txn, "ORDERLINE", ol_rid, &ol)?;
        }

        // Credit the customer.
        if let Some((c_rid, mut customer)) =
            db.index_get(txn, "CUSTOMER", "C_IDX", &schema::customer_key(w_id, d_id, c_id))?
        {
            customer.set_float(C_BALANCE, customer.float(C_BALANCE) + total);
            customer.set_int(C_DELIVERY_CNT, customer.int(C_DELIVERY_CNT) + 1);
            db.update(txn, "CUSTOMER", c_rid, &customer)?;
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
    let (_, district) = db
        .index_get(txn, "DISTRICT", "D_IDX", &schema::district_key(w_id, d_id))?
        .ok_or_else(|| dbms_engine::DbError::not_found(format!("district {w_id}-{d_id}")))?;
    let next_o_id = district.int(D_NEXT_O_ID);
    // Order lines of the last 20 orders.
    let low = schema::orderline_key(w_id, d_id, (next_o_id - 20).max(1), 0);
    let high = schema::orderline_key(w_id, d_id, next_o_id, 0);
    let lines = db.index_range(txn, "ORDERLINE", "OL_IDX", &low, Some(&high), usize::MAX)?;
    let mut items = std::collections::BTreeSet::new();
    for ol_rid in lines {
        items.insert(db.get(txn, "ORDERLINE", ol_rid)?.int(OL_I_ID));
    }
    let mut low_stock = 0u64;
    for i_id in items {
        if let Some((_, stock)) =
            db.index_get(txn, "STOCK", "S_IDX", &schema::stock_key(w_id, i_id))?
        {
            if stock.int(S_QUANTITY) < threshold {
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
        let history_before = db.table("HISTORY").unwrap().heap.record_count();
        for i in 0..10 {
            let mut txn = db.begin(t0 + flash_sim::Duration::from_us(i));
            let outcome = payment(&db, &scale, &mut rng, &mut txn, 1).unwrap();
            assert_eq!(outcome, TxnOutcome::Committed);
        }
        let history_after = db.table("HISTORY").unwrap().heap.record_count();
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
        let pending_before = db.table("NEW_ORDER").unwrap().heap.record_count();
        assert!(pending_before > 0);
        let mut txn = db.begin(t0);
        delivery(&db, &scale, &mut rng, &mut txn, 1).unwrap();
        let pending_after = db.table("NEW_ORDER").unwrap().heap.record_count();
        // One order per district is delivered, and its NO_IDX entry with it.
        assert_eq!(pending_after, pending_before - scale.districts_per_warehouse as u64);
        let entries = db.table("NEW_ORDER").unwrap().index("NO_IDX").unwrap().tree.len();
        assert_eq!(entries, pending_after);
        // Delivered orders have a carrier assigned.
        let orders =
            db.index_prefix(&mut txn, "ORDER", "O_IDX", &schema::district_key(1, 1)).unwrap();
        let mut delivered = 0;
        for rid in orders {
            let o = db.get(&mut txn, "ORDER", rid).unwrap();
            if o.int(O_CARRIER_ID) > 0 {
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

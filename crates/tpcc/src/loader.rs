//! TPC-C database population.

use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::SeedableRng;

use dbms_engine::value::Value;
use dbms_engine::{Database, Record, NO_KEYS};
use flash_sim::SimTime;

use crate::random;
use crate::schema;

/// Cardinalities of the generated database.
///
/// [`ScaleConfig::full`] follows the TPC-C specification; the smaller
/// presets keep functional tests and quick experiments fast while
/// preserving the relative object sizes (STOCK ≫ CUSTOMER ≫ the rest)
/// that drive the placement decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScaleConfig {
    /// Number of warehouses (the TPC-C scale factor).
    pub warehouses: i64,
    /// Districts per warehouse (10 in the spec).
    pub districts_per_warehouse: i64,
    /// Customers per district (3 000 in the spec).
    pub customers_per_district: i64,
    /// Items in the catalog (100 000 in the spec); every warehouse stocks
    /// every item.
    pub items: i64,
    /// Initially loaded orders per district (3 000 in the spec, the last
    /// 30 % of which are still undelivered NEW_ORDERs).
    pub initial_orders_per_district: i64,
}

impl ScaleConfig {
    /// Specification-compliant cardinalities.
    pub fn full(warehouses: i64) -> Self {
        ScaleConfig {
            warehouses: warehouses.max(1),
            districts_per_warehouse: 10,
            customers_per_district: 3_000,
            items: 100_000,
            initial_orders_per_district: 3_000,
        }
    }

    /// A reduced scale for simulation experiments (≈ 1/10 of the spec).
    pub fn small(warehouses: i64) -> Self {
        ScaleConfig {
            warehouses: warehouses.max(1),
            districts_per_warehouse: 10,
            customers_per_district: 300,
            items: 10_000,
            initial_orders_per_district: 300,
        }
    }

    /// A tiny scale for unit tests.
    pub fn tiny() -> Self {
        ScaleConfig {
            warehouses: 1,
            districts_per_warehouse: 2,
            customers_per_district: 20,
            items: 100,
            initial_orders_per_district: 10,
        }
    }

    /// Total number of customers in the database.
    pub fn total_customers(&self) -> i64 {
        self.warehouses * self.districts_per_warehouse * self.customers_per_district
    }

    /// Approximate number of rows the loader creates.
    pub fn approximate_rows(&self) -> i64 {
        let per_wh = self.districts_per_warehouse
            * (self.customers_per_district * 2 + self.initial_orders_per_district * 12)
            + self.items;
        self.items + self.warehouses * per_wh
    }
}

/// Row counts produced by the loader.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LoadStats {
    /// Rows inserted per table.
    pub rows: HashMap<String, u64>,
}

impl LoadStats {
    fn bump(&mut self, table: &str) {
        *self.rows.entry(table.to_string()).or_insert(0) += 1;
    }

    /// Total rows inserted.
    pub fn total_rows(&self) -> u64 {
        self.rows.values().sum()
    }
}

/// Populates a database with TPC-C data.
pub struct Loader {
    scale: ScaleConfig,
    seed: u64,
}

impl Loader {
    /// Create a loader for the given scale and RNG seed.
    pub fn new(scale: ScaleConfig, seed: u64) -> Self {
        Loader { scale, seed }
    }

    /// Create the schema and load the initial database.  Returns the row
    /// counts and the simulated time at which loading (including the final
    /// flush of dirty pages) completes.
    pub fn load(&self, db: &Database, now: SimTime) -> dbms_engine::Result<(LoadStats, SimTime)> {
        schema::create_schema(db, now)?;
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut stats = LoadStats::default();
        let mut txn = db.begin(now);
        let s = &self.scale;

        // ITEM (global).
        for i_id in 1..=s.items {
            let rec: Record = vec![
                Value::Int(i_id),
                Value::Int(random::uniform(&mut rng, 1, 10_000)),
                Value::Str(random::a_string(&mut rng, 14, 24)),
                Value::Float(random::uniform(&mut rng, 100, 10_000) as f64 / 100.0),
                Value::Str(random::a_string(&mut rng, 26, 50)),
            ];
            db.insert(&mut txn, "ITEM", &rec, &[("I_IDX", schema::item_key(i_id))])?;
            stats.bump("ITEM");
        }

        for w_id in 1..=s.warehouses {
            self.load_warehouse(db, &mut txn, &mut rng, &mut stats, w_id)?;
        }
        db.commit(&mut txn)?;
        let done = db.flush_all(txn.now)?;
        Ok((stats, done))
    }

    fn load_warehouse(
        &self,
        db: &Database,
        txn: &mut dbms_engine::Txn,
        rng: &mut StdRng,
        stats: &mut LoadStats,
        w_id: i64,
    ) -> dbms_engine::Result<()> {
        let s = &self.scale;
        let rec: Record = vec![
            Value::Int(w_id),
            Value::Str(random::a_string(rng, 6, 10)),
            Value::Str(random::a_string(rng, 10, 20)),
            Value::Str(random::a_string(rng, 10, 20)),
            Value::Str(random::a_string(rng, 10, 20)),
            Value::Str(random::a_string(rng, 2, 2)),
            Value::Str(random::zip(rng)),
            Value::Float(random::uniform(rng, 0, 2000) as f64 / 10_000.0),
            Value::Float(300_000.0),
        ];
        db.insert(txn, "WAREHOUSE", &rec, &[("W_IDX", schema::warehouse_key(w_id))])?;
        stats.bump("WAREHOUSE");

        // STOCK: one row per item.
        for i_id in 1..=s.items {
            let mut rec: Record =
                vec![Value::Int(i_id), Value::Int(w_id), Value::Int(random::uniform(rng, 10, 100))];
            for _ in 0..10 {
                rec.push(Value::Str(random::a_string(rng, 24, 24)));
            }
            rec.push(Value::Float(0.0));
            rec.push(Value::Int(0));
            rec.push(Value::Int(0));
            rec.push(Value::Str(random::a_string(rng, 26, 50)));
            db.insert(txn, "STOCK", &rec, &[("S_IDX", schema::stock_key(w_id, i_id))])?;
            stats.bump("STOCK");
        }

        for d_id in 1..=s.districts_per_warehouse {
            self.load_district(db, txn, rng, stats, w_id, d_id)?;
        }
        Ok(())
    }

    #[allow(clippy::too_many_arguments)]
    fn load_district(
        &self,
        db: &Database,
        txn: &mut dbms_engine::Txn,
        rng: &mut StdRng,
        stats: &mut LoadStats,
        w_id: i64,
        d_id: i64,
    ) -> dbms_engine::Result<()> {
        let s = &self.scale;
        let rec: Record = vec![
            Value::Int(d_id),
            Value::Int(w_id),
            Value::Str(random::a_string(rng, 6, 10)),
            Value::Str(random::a_string(rng, 10, 20)),
            Value::Str(random::a_string(rng, 10, 20)),
            Value::Str(random::a_string(rng, 10, 20)),
            Value::Str(random::a_string(rng, 2, 2)),
            Value::Str(random::zip(rng)),
            Value::Float(random::uniform(rng, 0, 2000) as f64 / 10_000.0),
            Value::Float(30_000.0),
            Value::Int(s.initial_orders_per_district + 1),
        ];
        db.insert(txn, "DISTRICT", &rec, &[("D_IDX", schema::district_key(w_id, d_id))])?;
        stats.bump("DISTRICT");

        // CUSTOMER + HISTORY.
        for c_id in 1..=s.customers_per_district {
            let last = if c_id <= 1000 {
                random::last_name(c_id - 1)
            } else {
                random::random_last_name(rng)
            };
            let credit = if random::uniform(rng, 1, 10) == 1 { "BC" } else { "GC" };
            let rec: Record = vec![
                Value::Int(c_id),
                Value::Int(d_id),
                Value::Int(w_id),
                Value::Str(random::a_string(rng, 8, 16)),
                Value::Str("OE".into()),
                Value::Str(last.clone()),
                Value::Str(random::a_string(rng, 10, 20)),
                Value::Str(random::a_string(rng, 10, 20)),
                Value::Str(random::a_string(rng, 10, 20)),
                Value::Str(random::a_string(rng, 2, 2)),
                Value::Str(random::zip(rng)),
                Value::Str(random::n_string(rng, 16, 16)),
                Value::Str("20151001000000".into()),
                Value::Str(credit.into()),
                Value::Float(50_000.0),
                Value::Float(random::uniform(rng, 0, 5000) as f64 / 10_000.0),
                Value::Float(-10.0),
                Value::Float(10.0),
                Value::Int(1),
                Value::Int(0),
                Value::Str(random::a_string(rng, 300, 500)),
            ];
            db.insert(
                txn,
                "CUSTOMER",
                &rec,
                &[
                    ("C_IDX", &schema::customer_key(w_id, d_id, c_id)[..]),
                    ("C_NAME_IDX", &schema::customer_name_key(w_id, d_id, &last, c_id)[..]),
                ],
            )?;
            stats.bump("CUSTOMER");

            let hist: Record = vec![
                Value::Int(c_id),
                Value::Int(d_id),
                Value::Int(w_id),
                Value::Int(d_id),
                Value::Int(w_id),
                Value::Str("20151001000000".into()),
                Value::Float(10.0),
                Value::Str(random::a_string(rng, 12, 24)),
            ];
            db.insert(txn, "HISTORY", &hist, NO_KEYS)?;
            stats.bump("HISTORY");
        }

        // Initial orders: customers are assigned via a random permutation.
        let mut perm: Vec<i64> = (1..=s.customers_per_district).collect();
        for i in (1..perm.len()).rev() {
            let j = random::uniform(rng, 0, i as i64) as usize;
            perm.swap(i, j);
        }
        let new_order_start =
            s.initial_orders_per_district - (s.initial_orders_per_district * 30 / 100) + 1;
        for o_id in 1..=s.initial_orders_per_district {
            let c_id = perm[(o_id - 1) as usize % perm.len()];
            let ol_cnt = random::uniform(rng, 5, 15);
            let is_new = o_id >= new_order_start;
            let carrier = if is_new { 0 } else { random::uniform(rng, 1, 10) };
            let order: Record = vec![
                Value::Int(o_id),
                Value::Int(d_id),
                Value::Int(w_id),
                Value::Int(c_id),
                Value::Str("20151001000000".into()),
                Value::Int(carrier),
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
            stats.bump("ORDER");
            for ol_number in 1..=ol_cnt {
                let i_id = random::uniform(rng, 1, s.items);
                let (delivery_d, amount) = if is_new {
                    ("".to_string(), random::uniform(rng, 1, 999_999) as f64 / 100.0)
                } else {
                    ("20151001000000".to_string(), 0.0)
                };
                let ol: Record = vec![
                    Value::Int(o_id),
                    Value::Int(d_id),
                    Value::Int(w_id),
                    Value::Int(ol_number),
                    Value::Int(i_id),
                    Value::Int(w_id),
                    Value::Str(delivery_d),
                    Value::Int(5),
                    Value::Float(amount),
                    Value::Str(random::a_string(rng, 24, 24)),
                ];
                db.insert(
                    txn,
                    "ORDERLINE",
                    &ol,
                    &[("OL_IDX", schema::orderline_key(w_id, d_id, o_id, ol_number))],
                )?;
                stats.bump("ORDERLINE");
            }
            if is_new {
                let no: Record = vec![Value::Int(o_id), Value::Int(d_id), Value::Int(w_id)];
                db.insert(
                    txn,
                    "NEW_ORDER",
                    &no,
                    &[("NO_IDX", schema::new_order_key(w_id, d_id, o_id))],
                )?;
                stats.bump("NEW_ORDER");
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbms_engine::{DatabaseConfig, NoFtlBackend};
    use flash_sim::{DeviceBuilder, FlashGeometry, TimingModel};
    use noftl_core::{NoFtl, NoFtlConfig};
    use std::sync::Arc;

    fn open_db() -> Database {
        let device = Arc::new(
            DeviceBuilder::new(FlashGeometry::example()).timing(TimingModel::instant()).build(),
        );
        let noftl = Arc::new(NoFtl::new(device, NoFtlConfig::default()));
        let backend =
            Arc::new(NoFtlBackend::new(noftl, &crate::placement::traditional(8)).unwrap());
        Database::open(backend, DatabaseConfig { buffer_pages: 512, ..Default::default() }).unwrap()
    }

    #[test]
    fn scale_presets() {
        let full = ScaleConfig::full(2);
        assert_eq!(full.items, 100_000);
        assert_eq!(full.total_customers(), 60_000);
        assert!(full.approximate_rows() > 500_000);
        let small = ScaleConfig::small(1);
        assert!(small.approximate_rows() < full.approximate_rows());
        assert_eq!(ScaleConfig::full(0).warehouses, 1, "clamped to at least one warehouse");
    }

    #[test]
    fn tiny_load_produces_expected_cardinalities() {
        let db = open_db();
        let scale = ScaleConfig::tiny();
        let loader = Loader::new(scale, 7);
        let (stats, done) = loader.load(&db, SimTime::ZERO).unwrap();
        assert_eq!(stats.rows["ITEM"], scale.items as u64);
        assert_eq!(stats.rows["WAREHOUSE"], 1);
        assert_eq!(stats.rows["DISTRICT"], scale.districts_per_warehouse as u64);
        assert_eq!(
            stats.rows["CUSTOMER"],
            (scale.districts_per_warehouse * scale.customers_per_district) as u64
        );
        assert_eq!(stats.rows["STOCK"], scale.items as u64);
        assert_eq!(
            stats.rows["ORDER"],
            (scale.districts_per_warehouse * scale.initial_orders_per_district) as u64
        );
        assert_eq!(stats.rows["HISTORY"], stats.rows["CUSTOMER"]);
        // 30 % of the initial orders are still undelivered.
        assert_eq!(stats.rows["NEW_ORDER"], 6);
        assert!(stats.rows["ORDERLINE"] >= 5 * stats.rows["ORDER"]);
        assert!(stats.total_rows() > 0);
        assert!(done >= SimTime::ZERO);

        // Spot-check: customer 1 of district 1 is retrievable through its index.
        let mut txn = db.begin(done);
        let (_, rec) = db
            .index_get(&mut txn, "CUSTOMER", "C_IDX", &schema::customer_key(1, 1, 1))
            .unwrap()
            .expect("customer 1-1-1 exists");
        assert_eq!((rec.int(0), rec.str(5)), (1, "BARBARBAR".into()));
        // District next order id reflects the initial orders.
        let (_, d) = db
            .index_get(&mut txn, "DISTRICT", "D_IDX", &schema::district_key(1, 1))
            .unwrap()
            .expect("district 1-1 exists");
        assert_eq!(d.int(10), scale.initial_orders_per_district + 1);
    }
}

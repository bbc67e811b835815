//! TPC-C database population.

use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::SeedableRng;

use dbms_engine::{Database, NO_KEYS};
use flash_sim::SimTime;

use crate::random;
use crate::schema::{self, insert_row};

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
}

/// Row counts produced by the loader.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LoadStats {
    /// Rows inserted per table.
    pub rows: HashMap<String, u64>,
}

impl LoadStats {
    fn bump(&mut self, table: &str) {
        if let Some(rows) = self.rows.get_mut(table) {
            *rows += 1;
        } else {
            self.rows.insert(table.to_string(), 1);
        }
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
            insert_row(db, &mut txn, "ITEM", &[("I_IDX", schema::item_key(i_id))], |row| {
                row.int(i_id)
                    .int(random::uniform(&mut rng, 1, 10_000))
                    .str(&random::a_string(&mut rng, 14, 24))
                    .float(random::uniform(&mut rng, 100, 10_000) as f64 / 100.0)
                    .str(&random::a_string(&mut rng, 26, 50));
            })?;
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
        insert_row(db, txn, "WAREHOUSE", &[("W_IDX", schema::warehouse_key(w_id))], |row| {
            row.int(w_id)
                .str(&random::a_string(rng, 6, 10))
                .str(&random::a_string(rng, 10, 20))
                .str(&random::a_string(rng, 10, 20))
                .str(&random::a_string(rng, 10, 20))
                .str(&random::a_string(rng, 2, 2))
                .str(&random::zip(rng))
                .float(random::uniform(rng, 0, 2000) as f64 / 10_000.0)
                .float(300_000.0);
        })?;
        stats.bump("WAREHOUSE");

        // STOCK: one row per item.
        for i_id in 1..=s.items {
            insert_row(db, txn, "STOCK", &[("S_IDX", schema::stock_key(w_id, i_id))], |row| {
                row.int(i_id).int(w_id).int(random::uniform(rng, 10, 100));
                for _ in 0..10 {
                    row.str(&random::a_string(rng, 24, 24));
                }
                // S_YTD, S_ORDER_CNT and S_REMOTE_CNT start at zero.
                row.skip(3).str(&random::a_string(rng, 26, 50));
            })?;
            stats.bump("STOCK");
        }

        for d_id in 1..=s.districts_per_warehouse {
            self.load_district(db, txn, rng, stats, w_id, d_id)?;
        }
        Ok(())
    }

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
        insert_row(db, txn, "DISTRICT", &[("D_IDX", schema::district_key(w_id, d_id))], |row| {
            row.int(d_id)
                .int(w_id)
                .str(&random::a_string(rng, 6, 10))
                .str(&random::a_string(rng, 10, 20))
                .str(&random::a_string(rng, 10, 20))
                .str(&random::a_string(rng, 10, 20))
                .str(&random::a_string(rng, 2, 2))
                .str(&random::zip(rng))
                .float(random::uniform(rng, 0, 2000) as f64 / 10_000.0)
                .float(30_000.0)
                .int(s.initial_orders_per_district + 1);
        })?;
        stats.bump("DISTRICT");

        // CUSTOMER + HISTORY.
        for c_id in 1..=s.customers_per_district {
            let last = if c_id <= 1000 {
                random::last_name(c_id - 1)
            } else {
                random::random_last_name(rng)
            };
            let credit = if random::uniform(rng, 1, 10) == 1 { "BC" } else { "GC" };
            let keys = [
                ("C_IDX", &schema::customer_key(w_id, d_id, c_id)[..]),
                ("C_NAME_IDX", &schema::customer_name_key(w_id, d_id, &last, c_id)[..]),
            ];
            insert_row(db, txn, "CUSTOMER", &keys, |row| {
                row.int(c_id)
                    .int(d_id)
                    .int(w_id)
                    .str(&random::a_string(rng, 8, 16))
                    .str("OE")
                    .str(&last)
                    .str(&random::a_string(rng, 10, 20))
                    .str(&random::a_string(rng, 10, 20))
                    .str(&random::a_string(rng, 10, 20))
                    .str(&random::a_string(rng, 2, 2))
                    .str(&random::zip(rng))
                    .str(&random::n_string(rng, 16, 16))
                    .str("20151001000000")
                    .str(credit)
                    .float(50_000.0)
                    .float(random::uniform(rng, 0, 5000) as f64 / 10_000.0)
                    .float(-10.0)
                    .float(10.0)
                    .int(1)
                    .int(0)
                    .str(&random::a_string(rng, 300, 500));
            })?;
            stats.bump("CUSTOMER");

            insert_row(db, txn, "HISTORY", NO_KEYS, |row| {
                row.int(c_id)
                    .int(d_id)
                    .int(w_id)
                    .int(d_id)
                    .int(w_id)
                    .str("20151001000000")
                    .float(10.0)
                    .str(&random::a_string(rng, 12, 24));
            })?;
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
            let keys = [
                ("O_IDX", &schema::order_key(w_id, d_id, o_id)[..]),
                ("O_CUST_IDX", &schema::order_customer_key(w_id, d_id, c_id, o_id)[..]),
            ];
            insert_row(db, txn, "ORDER", &keys, |row| {
                row.int(o_id)
                    .int(d_id)
                    .int(w_id)
                    .int(c_id)
                    .str("20151001000000")
                    .int(carrier)
                    .int(ol_cnt)
                    .int(1);
            })?;
            stats.bump("ORDER");
            for ol_number in 1..=ol_cnt {
                let i_id = random::uniform(rng, 1, s.items);
                let (delivery_d, amount) = if is_new {
                    ("", random::uniform(rng, 1, 999_999) as f64 / 100.0)
                } else {
                    ("20151001000000", 0.0)
                };
                let keys = [("OL_IDX", schema::orderline_key(w_id, d_id, o_id, ol_number))];
                insert_row(db, txn, "ORDERLINE", &keys, |row| {
                    row.int(o_id)
                        .int(d_id)
                        .int(w_id)
                        .int(ol_number)
                        .int(i_id)
                        .int(w_id)
                        .str(delivery_d)
                        .int(5)
                        .float(amount)
                        .str(&random::a_string(rng, 24, 24));
                })?;
                stats.bump("ORDERLINE");
            }
            if is_new {
                let keys = [("NO_IDX", schema::new_order_key(w_id, d_id, o_id))];
                insert_row(db, txn, "NEW_ORDER", &keys, |row| {
                    row.int(o_id).int(d_id).int(w_id);
                })?;
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

//! Closed-loop TPC-C driver over simulated time.
//!
//! The driver emulates N logical clients, each bound to a home warehouse.
//! Every client executes transactions back-to-back on its own simulated
//! clock; at each step the driver advances the client whose clock is
//! furthest behind, so clients interleave in simulated time and contend
//! for the flash dies and channels exactly as concurrent threads would.

use rand::rngs::StdRng;
use rand::SeedableRng;

use dbms_engine::txn::TxnOutcome;
use dbms_engine::Database;
use flash_sim::SimTime;

use crate::loader::ScaleConfig;
use crate::random;
use crate::report::{RunReport, TxnTypeStats};
use crate::transactions;

/// The five TPC-C transaction types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TxnType {
    /// NewOrder (§2.4).
    NewOrder,
    /// Payment (§2.5).
    Payment,
    /// OrderStatus (§2.6).
    OrderStatus,
    /// Delivery (§2.7).
    Delivery,
    /// StockLevel (§2.8).
    StockLevel,
}

impl TxnType {
    /// All transaction types in a fixed order.
    pub fn all() -> [TxnType; 5] {
        [
            TxnType::NewOrder,
            TxnType::Payment,
            TxnType::OrderStatus,
            TxnType::Delivery,
            TxnType::StockLevel,
        ]
    }

    /// Short display name.
    pub fn name(&self) -> &'static str {
        match self {
            TxnType::NewOrder => "NewOrder",
            TxnType::Payment => "Payment",
            TxnType::OrderStatus => "OrderStatus",
            TxnType::Delivery => "Delivery",
            TxnType::StockLevel => "StockLevel",
        }
    }
}

/// The standard TPC-C mix as integer weights out of 100, in
/// [`TxnType::all`] order.
const MIX: [(TxnType, u32); 5] = [
    (TxnType::NewOrder, 45),
    (TxnType::Payment, 43),
    (TxnType::OrderStatus, 4),
    (TxnType::Delivery, 4),
    (TxnType::StockLevel, 4),
];

/// The standard TPC-C transaction mix (45/43/4/4/4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TxnMix;

impl TxnMix {
    /// The standard TPC-C mix.
    pub fn standard() -> Self {
        TxnMix
    }

    /// Pick a transaction type according to the weights.
    pub fn pick(&self, rng: &mut StdRng) -> TxnType {
        let mut roll = random::uniform(rng, 1, 100) as u32;
        for (kind, weight) in MIX {
            if roll <= weight {
                return kind;
            }
            roll -= weight;
        }
        TxnType::StockLevel
    }
}

/// Driver configuration: every run executes the standard mix with no
/// think time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DriverConfig {
    /// Number of logical clients (terminals).
    pub clients: usize,
    /// Total transactions to execute across all clients.
    pub total_transactions: u64,
    /// RNG seed (each client derives its own stream).
    pub seed: u64,
}

struct Client {
    rng: StdRng,
    clock: SimTime,
    home_warehouse: i64,
}

/// The closed-loop driver.
pub struct Driver {
    config: DriverConfig,
}

impl Driver {
    /// Create a driver with the given configuration.
    pub fn new(config: DriverConfig) -> Self {
        Driver { config }
    }

    /// Run the workload against `db`, starting at simulated time `start`.
    pub fn run(
        &self,
        db: &Database,
        scale: &ScaleConfig,
        start: SimTime,
    ) -> dbms_engine::Result<RunReport> {
        let cfg = &self.config;
        let mix = TxnMix::standard();
        let mut clients: Vec<Client> = (0..cfg.clients.max(1))
            .map(|i| Client {
                rng: StdRng::seed_from_u64(
                    cfg.seed.wrapping_add(i as u64).wrapping_mul(0x9E37_79B9),
                ),
                clock: start,
                home_warehouse: (i as i64 % scale.warehouses) + 1,
            })
            .collect();
        let mut per_type: std::collections::BTreeMap<TxnType, TxnTypeStats> =
            TxnType::all().into_iter().map(|t| (t, TxnTypeStats::default())).collect();
        let mut committed = 0u64;
        let mut rolled_back = 0u64;

        for _ in 0..cfg.total_transactions {
            // Advance the client whose clock is furthest behind.
            let idx = clients
                .iter()
                .enumerate()
                .min_by_key(|(_, c)| c.clock)
                .map(|(i, _)| i)
                .ok_or_else(|| dbms_engine::DbError::not_found("a client to run"))?;
            let client = &mut clients[idx];
            let txn_type = mix.pick(&mut client.rng);
            let mut txn = db.begin(client.clock);
            let w_id = client.home_warehouse;
            let outcome = match txn_type {
                TxnType::NewOrder => {
                    transactions::new_order(db, scale, &mut client.rng, &mut txn, w_id)?
                }
                TxnType::Payment => {
                    transactions::payment(db, scale, &mut client.rng, &mut txn, w_id)?
                }
                TxnType::OrderStatus => {
                    transactions::order_status(db, scale, &mut client.rng, &mut txn, w_id)?
                }
                TxnType::Delivery => {
                    transactions::delivery(db, scale, &mut client.rng, &mut txn, w_id)?
                }
                TxnType::StockLevel => {
                    transactions::stock_level(db, scale, &mut client.rng, &mut txn, w_id)?
                }
            };
            let response = txn.elapsed();
            let stats = per_type.entry(txn_type).or_default();
            stats.count += 1;
            stats.total_response += response;
            match outcome {
                TxnOutcome::Committed => {
                    committed += 1;
                    stats.committed += 1;
                }
                TxnOutcome::RolledBack => rolled_back += 1,
            }
            client.clock = txn.now;
        }

        let makespan = clients.iter().map(|c| c.clock).max().unwrap_or(start).since(start);
        let tps = if makespan.as_secs_f64() > 0.0 {
            committed as f64 / makespan.as_secs_f64()
        } else {
            0.0
        };
        Ok(RunReport {
            committed,
            rolled_back,
            makespan,
            tps,
            per_type: per_type.into_iter().collect(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loader::Loader;
    use crate::placement;
    use dbms_engine::{DatabaseConfig, NoFtlBackend};
    use flash_sim::{DeviceBuilder, Duration, FlashBackend, FlashGeometry, TimingModel};
    use noftl_core::{NoFtl, NoFtlConfig};
    use std::sync::Arc;

    #[test]
    fn mix_weights_are_respected() {
        let mix = TxnMix::standard();
        assert_eq!(MIX.iter().map(|(_, weight)| weight).sum::<u32>(), 100);
        let mut rng = StdRng::seed_from_u64(9);
        let mut counts = std::collections::HashMap::new();
        for _ in 0..10_000 {
            *counts.entry(mix.pick(&mut rng)).or_insert(0u32) += 1;
        }
        let new_order = counts[&TxnType::NewOrder] as f64 / 10_000.0;
        let payment = counts[&TxnType::Payment] as f64 / 10_000.0;
        assert!((new_order - 0.45).abs() < 0.03, "NewOrder share {new_order}");
        assert!((payment - 0.43).abs() < 0.03, "Payment share {payment}");
        assert!(counts[&TxnType::Delivery] > 0);
        assert!(counts[&TxnType::StockLevel] > 0);
        assert!(counts[&TxnType::OrderStatus] > 0);
        assert_eq!(TxnType::NewOrder.name(), "NewOrder");
    }

    #[test]
    fn small_end_to_end_run_produces_sane_report() {
        let device = Arc::new(
            DeviceBuilder::new(FlashGeometry::example()).timing(TimingModel::mlc_2015()).build(),
        );
        let noftl = Arc::new(NoFtl::new(device.clone(), NoFtlConfig::default()));
        let backend = Arc::new(NoFtlBackend::new(noftl, &placement::traditional(8)).unwrap());
        // A small buffer pool so the run actually misses and reads flash.
        let db = Database::open(backend, DatabaseConfig { buffer_pages: 48, ..Default::default() })
            .unwrap();
        let scale = crate::loader::ScaleConfig::tiny();
        let (_, loaded_at) = Loader::new(scale, 11).load(&db, SimTime::ZERO).unwrap();
        let driver = Driver::new(DriverConfig { clients: 4, total_transactions: 200, seed: 5 });
        let report = driver.run(&db, &scale, loaded_at).unwrap();
        assert_eq!(report.committed + report.rolled_back, 200);
        assert!(report.committed > 150);
        assert!(report.tps > 0.0);
        assert!(report.makespan > Duration::ZERO);
        assert!(device.stats().page_reads > 0, "device reads must have happened");
        let new_order = report.type_stats(TxnType::NewOrder).unwrap();
        assert!(new_order.count > 50);
        assert!(new_order.mean_response_ms() > 0.0);
        // Deterministic: the same seed gives the same transaction counts.
        let device2 = Arc::new(
            DeviceBuilder::new(FlashGeometry::example()).timing(TimingModel::mlc_2015()).build(),
        );
        let noftl2 = Arc::new(NoFtl::new(device2.clone(), NoFtlConfig::default()));
        let backend2 = Arc::new(NoFtlBackend::new(noftl2, &placement::traditional(8)).unwrap());
        let db2 =
            Database::open(backend2, DatabaseConfig { buffer_pages: 48, ..Default::default() })
                .unwrap();
        let (_, loaded2) = Loader::new(scale, 11).load(&db2, SimTime::ZERO).unwrap();
        let report2 = Driver::new(DriverConfig { clients: 4, total_transactions: 200, seed: 5 })
            .run(&db2, &scale, loaded2)
            .unwrap();
        assert_eq!(report.committed, report2.committed);
        assert_eq!(report.makespan, report2.makespan);
    }
}

//! # tpcc-workload — TPC-C on the NoFTL storage stack
//!
//! The paper's evaluation runs TPC-C under Shore-MT on a 64-die native
//! flash device and compares two data-placement configurations (its
//! Figures 2 and 3).  This crate provides everything needed to repeat
//! that experiment on the `dbms-engine` + `noftl-core` + `flash-sim`
//! stack:
//!
//! * the TPC-C **schema** with the exact object names used in the paper's
//!   Figure 2 (`ORDERLINE`, `STOCK`, `OL_IDX`, `C_NAME_IDX`, ...);
//! * a **loader** with configurable scale ([`ScaleConfig`]);
//! * the five **transactions** (NewOrder, Payment, OrderStatus, Delivery,
//!   StockLevel) with the standard mix and input distributions (NURand,
//!   last-name generation, 1 % rolled-back NewOrders);
//! * a **closed-loop driver** that runs N logical clients over simulated
//!   time and reports committed and rolled-back transactions, throughput
//!   and per-transaction response times (the device counters of the
//!   paper's Figure 3 are the device's own, read by `noftl-bench`);
//! * the **placement configurations**: traditional (one region over all
//!   dies) and the paper's six-region assignment ([`placement::figure2`]).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod driver;
pub mod loader;
pub mod placement;
pub mod random;
pub mod report;
pub mod schema;
pub mod transactions;

pub use driver::{Driver, DriverConfig, TxnMix, TxnType};
pub use loader::{LoadStats, Loader, ScaleConfig};
pub use placement::{figure2, traditional};
pub use report::{RunReport, TxnTypeStats};
pub use schema::{object_names, table_names};

#[cfg(test)]
mod lib_tests {
    use super::*;

    #[test]
    fn figure2_covers_all_objects() {
        let cfg = figure2(64);
        assert_eq!(cfg.total_dies(), 64);
        for name in object_names() {
            assert!(
                cfg.region_of(&name).is_some(),
                "object {name} is missing from the Figure 2 placement"
            );
        }
    }
}

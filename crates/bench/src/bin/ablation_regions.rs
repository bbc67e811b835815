//! Ablation: sensitivity of the Figure 3 result to the *number of regions*.
//!
//! The paper argues that intelligent placement trades I/O parallelism
//! against GC overhead.  This binary sweeps the region count (1 = the
//! traditional baseline, 2 = hot/cold split, 6 = the paper's Figure 2) and
//! prints TPS, copybacks and erases for each, exposing where the benefit
//! comes from.
//!
//! ```text
//! cargo run --release -p noftl-bench --bin ablation_regions
//! ```
//! Environment knobs: `ABL_TXNS` (default 6000); any other `ABL_*`
//! variable, or a value that is not a number, is refused.

use noftl_bench::{env_knobs, Experiment};
use noftl_core::{PlacementConfig, RegionAssignment};
use tpcc_workload::placement;

/// A two-region hot/cold split: update-heavy objects vs. everything else.
fn two_region(total_dies: u32) -> PlacementConfig {
    let hot = vec![
        "STOCK",
        "ORDERLINE",
        "NEW_ORDER",
        "ORDER",
        "DISTRICT",
        "WAREHOUSE",
        "OL_IDX",
        "NO_IDX",
        "O_IDX",
        "O_CUST_IDX",
        "DBMS-log",
    ];
    let cold = vec![
        "CUSTOMER",
        "C_IDX",
        "C_NAME_IDX",
        "ITEM",
        "I_IDX",
        "S_IDX",
        "W_IDX",
        "D_IDX",
        "HISTORY",
        "DBMS-metadata",
    ];
    let hot_dies = (total_dies * 3 / 4).max(1);
    PlacementConfig {
        regions: vec![
            RegionAssignment {
                region_name: "rgHot".into(),
                objects: hot.iter().map(|s| s.to_string()).collect(),
                dies: hot_dies,
                service_class: None,
            },
            RegionAssignment {
                region_name: "rgCold".into(),
                objects: cold.iter().map(|s| s.to_string()).collect(),
                dies: total_dies - hot_dies,
                service_class: None,
            },
        ],
    }
}

fn main() {
    let dies = Experiment::figure3_geometry().total_dies();
    let [txns] = env_knobs("ABL_", [("ABL_TXNS", 6_000)]);
    let configs: Vec<(&str, PlacementConfig)> = vec![
        ("1 region (traditional)", placement::traditional(dies)),
        ("2 regions (hot/cold)", two_region(dies)),
        ("6 regions (Figure 2)", placement::figure2(dies)),
    ];
    println!("== Ablation: region count vs. throughput and GC cost ==\n");
    println!(
        "{:<26} {:>10} {:>12} {:>12} {:>12} {:>8}",
        "Placement", "TPS", "HostWrites", "Copybacks", "Erases", "WA"
    );
    let mut failed = false;
    for (label, placement) in configs {
        let mut exp = Experiment::figure3_base(placement, label);
        exp.driver.total_transactions = txns;
        let Some(result) = exp.run_row(&format!("{label:<26}")) else {
            failed = true;
            continue;
        };
        let r = &result.report;
        println!(
            "{:<26} {:>10.1} {:>12} {:>12} {:>12} {:>8.3}",
            label,
            r.tps,
            r.host_writes,
            r.gc_copybacks,
            r.gc_erases,
            r.write_amplification()
        );
    }
    if failed {
        std::process::exit(1);
    }
}

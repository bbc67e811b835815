//! Regenerates **Figure 2** of the paper: the multi-region data placement
//! configuration for TPC-C (6 regions over 64 dies).
//!
//! Two tables are printed:
//!
//! 1. the placement used by the Figure 3 experiment (the paper's published
//!    die counts 2/11/10/29/6/6);
//! 2. the placement `placement::assign_dies` derives from object
//!    statistics measured during a traditional-placement run, showing that
//!    the die shares are reproducible from the DBMS's own knowledge of
//!    object sizes and I/O rates (the mechanism §2 of the paper describes).
//!
//! ```text
//! cargo run --release -p noftl-bench --bin figure2
//! ```
//! Environment knobs: `FIG2_TXNS` (default 4000), `FIG2_DIES` (default
//! 64); any other `FIG2_*` variable, or a value that is not a number, is
//! refused.

use noftl_bench::{env_knobs, Experiment};
use tpcc_workload::placement;

fn main() {
    let [dies, txns] = env_knobs("FIG2_", [("FIG2_DIES", 64), ("FIG2_TXNS", 4_000)]);
    let dies = dies as u32;

    println!("== Figure 2: multi-region data placement configuration for TPC-C ==\n");
    let paper = placement::figure2(dies);
    println!("{}", paper.to_table());

    println!("-- Placement derived by the advisor from measured object statistics --\n");
    // Measure object statistics under traditional placement.
    let mut exp = Experiment::figure3_base(placement::traditional(dies), "profiling run");
    exp.driver.total_transactions = txns;
    let result = exp.run().unwrap_or_else(|e| {
        println!("profiling run failed: {e}");
        std::process::exit(1)
    });
    // Group the measured objects exactly as the paper's Figure 2 groups them,
    // then apportion the dies from the measured statistics.
    let groups: Vec<(String, Vec<String>)> =
        paper.regions.iter().map(|r| (r.region_name.clone(), r.objects.clone())).collect();
    let advised = placement::advised(&result.object_profiles, &groups, dies);
    println!("{}", advised.to_table());

    println!("-- Measured object profiles (pages / reads / writes) --\n");
    let mut profiles = result.object_profiles.clone();
    profiles.sort_by_key(|p| std::cmp::Reverse(p.io_total()));
    println!("{:<16} {:>10} {:>12} {:>12}", "Object", "Pages", "Reads", "Writes");
    for p in profiles {
        println!("{:<16} {:>10} {:>12} {:>12}", p.name, p.pages, p.reads, p.writes);
    }
}

//! Regenerates **Figure 3** of the paper: TPC-C under traditional data
//! placement vs. the six-region placement of Figure 2.
//!
//! The paper reports, for the multi-region configuration: ≈ +20 % TPS,
//! ≈ +20 % host I/Os, ≈ −20 % GC COPYBACKs, ≈ −4.3 % GC ERASEs and lower
//! 4 KB / transaction latencies.  Absolute numbers differ (the substrate
//! here is a calibrated simulator, not the authors' 64-die board); the
//! comparison table and the relative deltas are the reproduction target.
//!
//! ```text
//! cargo run --release -p noftl-bench --bin figure3
//! ```
//! Environment knobs: `FIG3_TXNS` (default 12000), `FIG3_CLIENTS` (20),
//! `FIG3_WAREHOUSES` (2), `FIG3_BUFFER_PAGES` (1500), `FIG3_SEED`; any
//! other `FIG3_*` variable, or a value that is not a number, is refused.

use flash_sim::FlashBackend;
use noftl_bench::{env_knobs, Experiment, ExperimentResult};
use tpcc_workload::{placement, ComparisonReport, ScaleConfig};

fn main() {
    let [txns, clients, seed, buffer_pages, warehouses] = env_knobs(
        "FIG3_",
        [
            ("FIG3_TXNS", 12_000),
            ("FIG3_CLIENTS", 20),
            ("FIG3_SEED", 20_160_315),
            ("FIG3_BUFFER_PAGES", 1_500),
            ("FIG3_WAREHOUSES", 2),
        ],
    );
    let configure = |mut exp: Experiment| {
        exp.driver.total_transactions = txns;
        exp.driver.clients = clients as usize;
        exp.driver.seed = seed;
        exp.buffer_pages = buffer_pages as usize;
        exp.scale = ScaleConfig::small(warehouses as i64);
        exp
    };
    let dies = Experiment::figure3_geometry().total_dies();
    println!("== Figure 3: traditional vs. multi-region data placement (TPC-C, {dies} dies) ==\n");

    // An arm that fails (a region out of space) is reported as a row of
    // its own; the other arm's table is still printed.
    let run_arm = |exp: Experiment| -> Option<ExperimentResult> {
        println!("running {} ...", exp.label);
        let result = exp.run_row(&format!("{:<30}", exp.label))?;
        println!("{}", result.region_table());
        Some(result)
    };
    let traditional = run_arm(configure(Experiment::figure3_base(
        placement::traditional(dies),
        "Traditional data placement",
    )));
    let regions = run_arm(configure(Experiment::figure3_base(
        placement::figure2(dies),
        "Data placement using Regions",
    )));
    let (Some(traditional), Some(regions)) = (traditional, regions) else {
        println!("no comparison: an arm did not finish");
        std::process::exit(1)
    };

    let cmp = ComparisonReport {
        traditional: traditional.report.clone(),
        regions: regions.report.clone(),
    };
    println!("{}", cmp.to_table());

    println!("paper reference (Figure 3): TPS +21%, COPYBACKs -19.2%, ERASEs -4.4%");
    println!(
        "this run:                   TPS {:+.1}%, COPYBACKs {:+.1}%, ERASEs {:+.1}%",
        cmp.tps_improvement_pct(),
        -cmp.copyback_reduction_pct(),
        -cmp.erase_reduction_pct()
    );
    println!(
        "\nwear (max erase count): traditional {} vs regions {}",
        traditional.device.wear_summary().max_erase_count,
        regions.device.wear_summary().max_erase_count
    );
    // 1.000 = every flash read was a page a transaction asked for.
    println!(
        "flash reads / buffer misses: traditional {:.3} vs regions {:.3}",
        traditional.reads_per_miss(),
        regions.reads_per_miss()
    );
}

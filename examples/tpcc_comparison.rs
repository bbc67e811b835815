//! A scaled-down version of the paper's Figure 3 experiment that runs in a
//! few seconds: TPC-C under traditional placement vs. the six-region
//! placement, on a 16-die device.
//!
//! For the full-size comparison use the bench binary:
//! `cargo run --release -p noftl-bench --bin figure3`.
//!
//! ```text
//! cargo run --release --example tpcc_comparison
//! ```

use noftl_bench::Experiment;
use noftl_regions::tpcc::{placement, ComparisonReport, ScaleConfig};

fn small(exp: Experiment) -> Experiment {
    let mut exp = exp;
    // 16 dies, one warehouse, a few thousand transactions.
    exp.geometry.chips_per_channel = 2;
    exp.geometry.dies_per_chip = 2;
    exp.geometry.blocks_per_plane = 32;
    exp.scale = ScaleConfig::tiny();
    exp.buffer_pages = 128;
    exp.driver.clients = 8;
    exp.driver.total_transactions = 2_000;
    exp
}

fn main() {
    let dies = 16;
    println!("TPC-C (tiny scale) on {dies} dies: traditional vs. six-region placement\n");
    let traditional =
        small(Experiment::figure3_base(placement::traditional(dies), "Traditional data placement"))
            .run()
            .expect("the traditional arm runs");
    let regions =
        small(Experiment::figure3_base(placement::figure2(dies), "Data placement using Regions"))
            .run()
            .expect("the regions arm runs");

    println!("per-region view of the multi-region run:\n{}", regions.region_table());
    let cmp = ComparisonReport {
        traditional: traditional.report.clone(),
        regions: regions.report.clone(),
    };
    println!("{}", cmp.to_table());
}

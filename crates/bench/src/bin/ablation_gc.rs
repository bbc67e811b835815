//! Ablation: GC victim-selection policy under the two placements.
//!
//! The paper attributes the benefit of regions to cheaper garbage
//! collection; this ablation checks how much of that benefit survives a
//! different victim-selection policy (greedy vs. cost-benefit).
//!
//! ```text
//! cargo run --release -p noftl-bench --bin ablation_gc
//! ```
//! Environment knobs: `ABL_TXNS` (default 5000); any other `ABL_*`
//! variable, or a value that is not a number, is refused.

use noftl_bench::{env_knobs, Experiment};
use noftl_core::GcPolicy;
use tpcc_workload::placement;

fn main() {
    let dies = Experiment::figure3_geometry().total_dies();
    let [txns] = env_knobs("ABL_", [("ABL_TXNS", 5_000)]);
    println!("== Ablation: GC policy vs. placement ==\n");
    println!(
        "{:<14} {:<14} {:>10} {:>12} {:>12} {:>8}",
        "Placement", "GC policy", "TPS", "Copybacks", "Erases", "WA"
    );
    let mut failed = false;
    for (placement_label, placement) in
        [("traditional", placement::traditional(dies)), ("figure2", placement::figure2(dies))]
    {
        for (policy_label, policy) in
            [("greedy", GcPolicy::Greedy), ("cost-benefit", GcPolicy::CostBenefit)]
        {
            let mut exp = Experiment::figure3_base(placement.clone(), placement_label);
            exp.driver.total_transactions = txns;
            exp.noftl.gc_policy = policy;
            let Some(result) = exp.run_row(&format!("{placement_label:<14} {policy_label:<14}"))
            else {
                failed = true;
                continue;
            };
            let r = &result.report;
            println!(
                "{:<14} {:<14} {:>10.1} {:>12} {:>12} {:>8.3}",
                placement_label,
                policy_label,
                r.tps,
                r.gc_copybacks,
                r.gc_erases,
                r.write_amplification()
            );
        }
    }
    if failed {
        std::process::exit(1);
    }
}

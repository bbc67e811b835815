//! Ablation: GC victim-selection policy and GC headroom under the two
//! placements.
//!
//! The paper attributes the benefit of regions to cheaper garbage
//! collection; this ablation checks how much of that benefit survives a
//! different victim-selection policy (greedy vs. cost-benefit) and a
//! different amount of per-region GC headroom.
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
    println!("== Ablation: GC policy / headroom vs. placement ==\n");
    println!(
        "{:<14} {:<14} {:>9} {:>10} {:>12} {:>12} {:>8}",
        "Placement", "GC policy", "Headroom", "TPS", "Copybacks", "Erases", "WA"
    );
    for (placement_label, placement) in
        [("traditional", placement::traditional(dies)), ("figure2", placement::figure2(dies))]
    {
        for (policy_label, policy) in
            [("greedy", GcPolicy::Greedy), ("cost-benefit", GcPolicy::CostBenefit)]
        {
            for headroom in [0.05f64, 0.10, 0.20] {
                let mut exp = Experiment::figure3_base(placement.clone(), placement_label);
                exp.driver.total_transactions = txns;
                exp.noftl.gc_policy = policy;
                exp.noftl.gc_headroom = headroom;
                let result = exp.run();
                let r = &result.report;
                println!(
                    "{:<14} {:<14} {:>8.0}% {:>10.1} {:>12} {:>12} {:>8.3}",
                    placement_label,
                    policy_label,
                    headroom * 100.0,
                    r.tps,
                    r.gc_copybacks,
                    r.gc_erases,
                    r.write_amplification()
                );
            }
        }
    }
}

//! End-to-end sanity of the paper's experiment on a scaled-down TPC-C
//! run: both placements execute the full mix, and the multi-region
//! placement stays inside a GC-copyback budget.
//!
//! This does **not** check the paper's directional claims — at full size
//! they do not reproduce today (see the budget assertion's message).  The
//! full-size experiment lives in `noftl-bench` (`--bin figure3`); this
//! test uses a small device/scale so it finishes quickly in CI.

use noftl_bench::Experiment;
use noftl_regions::tpcc::{placement, ComparisonReport};

fn scaled(mut exp: Experiment) -> Experiment {
    exp.driver.total_transactions = 1_500;
    exp.driver.clients = 8;
    exp.buffer_pages = 96;
    exp
}

#[test]
fn tpcc_runs_on_both_placements_and_regions_stay_inside_the_copyback_budget() {
    let dies = 16;
    let traditional = scaled(Experiment::smoke(placement::traditional(dies), "traditional"))
        .with_dies(dies)
        .run()
        .unwrap();
    let regions = scaled(Experiment::smoke(placement::figure2(dies), "regions"))
        .with_dies(dies)
        .run()
        .unwrap();

    // Both configurations execute the full mix successfully.
    assert!(traditional.report.committed > 1_000);
    assert!(regions.report.committed > 1_000);
    assert!(traditional.report.host_reads > 0);
    assert!(regions.report.host_reads > 0);

    let cmp = ComparisonReport {
        traditional: traditional.report.clone(),
        regions: regions.report.clone(),
    };
    // A budget, not the paper's claim (+21 % TPS, −19.2 % copybacks,
    // −4.4 % erases): the tiny CI-sized run only checks that the
    // multi-region placement does not blow GC work up — copybacks stay
    // within the baseline's plus 5 % of its host writes.  The full-size
    // comparison is produced by `figure3` and by the repo benchmark
    // (`tpcc_regions` vs `tpcc_traditional`, the "Figure 3 reference"
    // block of `benchmark/README.md`).
    let copyback_budget = cmp.traditional.gc_copybacks + cmp.traditional.host_writes / 20;
    assert!(
        cmp.regions.gc_copybacks <= copyback_budget,
        "regions exceed the GC-copyback budget (traditional={}, regions={}, budget={}). \
         Passing this budget reproduces nothing: at full size `figure3` measures regions vs \
         traditional at TPS -20.5 % (3 339 vs 2 654), copybacks +99.1 %, erases +16.5 %, against \
         the paper's +21 % / -19.2 % / -4.4 % — re-measured at PR 18, under first-fit \
         reservation, where the TPS row is a queueing result and no longer the simulator's \
         call order",
        cmp.traditional.gc_copybacks,
        cmp.regions.gc_copybacks,
        copyback_budget
    );
    // Throughput at this miniature scale is dominated by how many dies the
    // tiny working set happens to land on, so only sanity is asserted here;
    // the throughput comparison is the figure3 binary's job.
    assert!(cmp.regions.tps > 0.0 && cmp.traditional.tps > 0.0);
}

/// Helper extension used by the tests: adjust the smoke geometry to a
/// given die count (the smoke preset uses 8 dies).
trait WithDies {
    fn with_dies(self, dies: u32) -> Self;
}

impl WithDies for Experiment {
    fn with_dies(mut self, dies: u32) -> Self {
        // Keep 2 channels and grow chips per channel to reach the target.
        self.geometry.chips_per_channel =
            (dies / (self.geometry.channels * self.geometry.dies_per_chip)).max(1);
        assert_eq!(self.geometry.total_dies(), dies, "die count must match the placement");
        self
    }
}

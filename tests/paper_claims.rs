//! End-to-end sanity of the paper's experiment on a scaled-down TPC-C
//! run: both placements execute the full mix, every region of the
//! multi-region placement stays inside a GC-copyback budget, and neither
//! arm reads flash pages no transaction asked for.
//!
//! This does **not** check the paper's directional claims: the run is too
//! small for either arm to collect much (see the budget assertion).  The
//! full-size experiment lives in `noftl-bench` (`noftl fig3`, and the
//! `--ignored figure3_` sign gate in its tests); this test uses a small
//! device/scale so it finishes quickly in CI.

use noftl_bench::Experiment;
use noftl_regions::tpcc::placement;

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
    assert!(traditional.device_stats.page_reads > 0);
    assert!(regions.device_stats.page_reads > 0);

    // A budget, not the paper's claim (+21 % TPS, −19.2 % copybacks,
    // −4.4 % erases): every region copies at most 10 % of the pages the
    // host wrote into *it*.  The plain `regions <= traditional` does not
    // hold at this size and for a reason that is not GC quality: on 16
    // dies and 1 500 transactions the single 16-die region never reaches a
    // watermark (0 copybacks on 1 859 host writes) while the one-die
    // `rgWhDist` of the scaled Figure 2, which holds the log, does —
    // 89 copybacks on its 1 378 host writes, 6.5 %; the other five regions
    // copy nothing.  Both sides of the bound are the collecting region's
    // own write traffic, so a change that saves reads or writes elsewhere
    // does not move it.  The sign is gated where the experiment is full
    // size: `noftl-bench`'s
    // `figure3_regions_copy_no_more_and_keep_pace_with_traditional`.
    let mut over_budget = false;
    let mut per_region = String::new();
    for rid in regions.noftl.region_ids() {
        let name = regions.noftl.region_info(rid).expect("region exists").name;
        let stats = regions.noftl.region_stats(rid).expect("region exists");
        let bound = stats.host_writes / 10;
        over_budget |= stats.gc_copybacks > bound;
        per_region += &format!(
            "\n  {name}: {} copybacks on {} host writes, bound {bound}",
            stats.gc_copybacks, stats.host_writes
        );
    }
    assert!(
        !over_budget,
        "a region copies more than 10 % of its own host writes (measured when the bound was \
         picked: rgWhDist 89 on 1 378, bound 137; every other region 0):{per_region}"
    );
    // Flash reads are pages the transactions asked for: a range scan
    // reads nothing ahead of the leaf it is on.
    for (label, arm) in [("traditional", &traditional), ("regions", &regions)] {
        let ratio = arm.reads_per_miss();
        assert!(
            ratio <= 1.15,
            "{label}: {} flash reads are {ratio:.3} x the buffer misses; measured 1.000 on both \
             arms at this size (176 / 206 reads) and at `noftl fig3`'s defaults.  PR 22 read 64 \
             pages ahead at every leaf of every scan: 4 393 / 4 280 reads here, 2.42 x / 2.35 x \
             its misses (the batches thrashed the 96-page pool), and 1.83 x at the benchmark's \
             size",
            arm.device_stats.page_reads
        );
    }
    // Throughput at this miniature scale is dominated by how many dies the
    // tiny working set happens to land on, so only sanity is asserted here;
    // the throughput comparison is `noftl fig3`'s job.
    assert!(regions.report.tps > 0.0 && traditional.report.tps > 0.0);
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

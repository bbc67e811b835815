//! NoFTL-KV acceptance tests: queued multi-die batches and crash
//! consistency.
//!
//! The property test sweeps ≥ 25 random power-cut instants (every fifth
//! cut aimed *inside a compaction merge*, every fifth *between the tail
//! pages* of a run whose tail spans several pages — alternately a
//! flush's and a merge's) across a put/delete workload whose memtable
//! flushes and size-tiered compactions fire continuously.
//! After every cut the device is rebooted from its image, the storage
//! manager remounted (`NoFtl::mount`) and the store reopened
//! (`KvStore::open`); the harness then verifies that
//!
//! * every key covered by an acknowledged flush is present with its
//!   exact value (no lost committed keys);
//! * torn tail runs and merge results whose directory checkpoint never
//!   landed are discarded — never half-adopted, and a run that got the
//!   first pages of its tail onto flash but not the last is not a run;
//! * a cut inside a compaction merge loses nothing: the source runs
//!   survive until the merged run is durable *and* checkpointed;
//! * a full scan of the reopened store agrees with the point-lookup
//!   view.

mod common;

use std::sync::Arc;

use common::property_rounds;
use noftl_regions::flash::{DeviceBuilder, FlashGeometry, SimTime, TimingModel};
use noftl_regions::noftl::crash::SplitMix64;
use noftl_regions::noftl::kv::harness::KEYS;
use noftl_regions::noftl::kv::{
    run_kv_crash_cycle, run_kv_crash_cycle_in_compaction, run_kv_crash_cycle_in_tail, KvConfig,
    KvCrashConfig, KvStore,
};
use noftl_regions::noftl::{NoFtl, NoFtlConfig, RegionSpec};

#[test]
fn random_power_cuts_recover_every_committed_key() {
    let rounds = property_rounds(30).max(25); // the acceptance floor
    let mut rng = SplitMix64(0x4B56_C0DE);
    let mut flushes_total = 0u64;
    let mut committed_total = 0u64;
    let mut torn_total = 0u64;
    let mut compaction_cuts = 0u64;
    let mut in_flight_survivals = 0u64;
    let mut tail_cuts = [0u64; 2]; // [in a flush's run, in a merge's run]
    for round in 0..rounds {
        // Rounds 2, 7, 12, … cut between the tail pages of a run; they
        // need the workload whose runs have multi-page tails.
        let tail_aimed = round % 5 == 2;
        let in_merge = round % 10 == 7;
        let base =
            if tail_aimed { KvCrashConfig::multi_page_tail() } else { KvCrashConfig::default() };
        let cfg = KvCrashConfig {
            // Vary the workload itself every few rounds so the cuts do
            // not all land in identical histories.
            seed: 0x5EED_4B56 ^ (round / 5),
            ..base
        };
        let fraction = (rng.next_u64() % 1_000) as f64 / 1_000.0;
        // Every fifth round aims the cut inside a compaction merge so
        // the crash-during-compaction path is guaranteed coverage.
        let outcome = if tail_aimed {
            let outcome = run_kv_crash_cycle_in_tail(&cfg, fraction, in_merge)
                .unwrap_or_else(|e| panic!("round {round} (tail-aimed) failed: {e}"))
                .expect("the multi-page-tail workload spills tails in flushes and merges");
            let partial = outcome.recovery.partial_tails_rejected;
            assert!(partial > 0, "round {round}: no cut left a partial tail");
            assert_eq!(outcome.report.cut_during_compaction, in_merge, "round {round}");
            tail_cuts[usize::from(in_merge)] += 1;
            outcome
        } else if round % 5 == 4 {
            run_kv_crash_cycle_in_compaction(&cfg, fraction)
                .unwrap_or_else(|e| panic!("round {round} (compaction-aimed) failed: {e}"))
                .expect("the default workload compacts")
        } else {
            run_kv_crash_cycle(&cfg, fraction)
                .unwrap_or_else(|e| panic!("round {round} (fraction {fraction:.3}) failed: {e}"))
        };
        flushes_total += outcome.report.flushes_acknowledged;
        committed_total += outcome.committed.len() as u64;
        torn_total += outcome.recovery.torn_runs_discarded as u64;
        compaction_cuts += u64::from(outcome.report.cut_during_compaction);
        in_flight_survivals += u64::from(outcome.in_flight_survived);
        assert!(outcome.mount.checkpoint_seq > 0, "round {round}: setup checkpoint must exist");
        assert!(outcome.recovered.len() as u64 <= KEYS, "round {round}");
    }
    assert!(
        flushes_total > rounds,
        "cuts landed too early: only {flushes_total} flushes over {rounds} rounds"
    );
    assert!(committed_total > 0);
    assert!(
        compaction_cuts > 0,
        "no cut ever landed inside a compaction — the aimed rounds missed"
    );
    assert!(
        tail_cuts.iter().all(|n| *n > 0),
        "the sweep must cut inside a flush's and a merge's multi-page tail (got {tail_cuts:?})"
    );
    println!(
        "{rounds} cuts: {flushes_total} flushes acknowledged, {committed_total} committed keys \
         verified, {torn_total} torn runs discarded, {compaction_cuts} cuts during compaction, \
         {in_flight_survivals} in-flight flushes survived, {tail_cuts:?} cuts between the tail \
         pages of a flushed / merged run"
    );
}

#[test]
fn cut_during_compaction_merge_loses_nothing() {
    // Deterministic: aim straight into the first compaction window of
    // the default workload.  The harness fails the test internally if
    // any committed key is lost or a torn run half-survives.
    let outcome = run_kv_crash_cycle_in_compaction(&KvCrashConfig::default(), 0.0)
        .expect("cycle runs")
        .expect("the default workload compacts");
    assert!(outcome.report.cut_during_compaction, "the cut must land inside the merge");
    assert!(outcome.report.flushes_acknowledged > 0);
    assert!(outcome.committed.len() as u64 > 0);
}

#[test]
fn cut_between_tail_pages_discards_the_run_and_keeps_merge_sources() {
    // Deterministic: the first flush and the first merge that write a
    // multi-page tail, cut after their first tail page landed and before
    // their last.  The harness fails internally if the partial tail is
    // adopted, an acknowledged write is lost or — for the merge — the
    // sources do not survive.
    for in_merge in [false, true] {
        let outcome = run_kv_crash_cycle_in_tail(&KvCrashConfig::multi_page_tail(), 0.0, in_merge)
            .expect("cycle runs")
            .expect("the workload writes multi-page tails");
        let partial = outcome.recovery.partial_tails_rejected;
        assert!(partial > 0, "in_merge={in_merge}: no partial tail was left");
        assert_eq!(outcome.report.cut_during_compaction, in_merge);
        assert!(outcome.recovery.tail_pages_read > 0);
        if in_merge {
            assert!(
                outcome.committed.len() as u64 > 0,
                "the merge's sources hold acknowledged keys"
            );
            assert!(outcome.recovery.runs_recovered >= 2, "the unfinished merge's sources survive");
        }
    }
}

#[test]
fn flush_and_compaction_issue_queued_multi_die_batches() {
    // The acceptance assertion at the facade level: a memtable flush and
    // a compaction merge both issue their pages as one batch, fanned over
    // the region's dies.
    let device = Arc::new(
        DeviceBuilder::new(FlashGeometry::small_test()).timing(TimingModel::mlc_2015()).build(),
    );
    let noftl = Arc::new(NoFtl::new(device.clone(), NoFtlConfig::default()));
    let rid = noftl.create_region(RegionSpec::named("rgKv").with_die_count(3)).unwrap();
    let (store, mut t) =
        KvStore::create(Arc::clone(&noftl), rid, "queued", KvConfig::default(), SimTime::ZERO)
            .unwrap();

    let fill = |store: &KvStore, mut t: SimTime, round: u64| {
        for i in 0..300u64 {
            let key = format!("user{i:06}").into_bytes();
            let val = format!("value-{i:06}-r{round}-padpadpadpad").into_bytes();
            t = store.put(&key, &val, t).unwrap();
        }
        t
    };

    t = fill(&store, t, 1);
    let ops = || (noftl.device().stats().total_ops(), noftl.device().die_stats());
    let (total_before, dies_before) = ops();
    t = store.flush(t).unwrap();
    let (total_after_flush, dies_after_flush) = ops();
    let flushed = store.stats().flushed_pages;
    assert!(flushed >= 4, "300 entries must span several pages");
    assert!(
        total_after_flush - total_before >= flushed,
        "every flush page (and the checkpoint behind it) must be a device command"
    );
    let region_dies = noftl.region_dies(rid).unwrap();
    let per_die: Vec<u64> = region_dies
        .iter()
        .map(|d| dies_after_flush[d.0 as usize].ops - dies_before[d.0 as usize].ops)
        .collect();
    assert_eq!(per_die.iter().sum::<u64>(), flushed, "the region's dies see exactly the run");
    let dies_hit = per_die.iter().filter(|n| **n > 0).count();
    assert!(dies_hit >= 2, "flush must fan across dies (hit {dies_hit})");

    // The fourth flush triggers the compaction of four runs; its merged
    // run is also written as one batch.
    for round in 2..=4 {
        t = fill(&store, t, round);
        t = store.flush(t).unwrap();
    }
    let (total_after_compaction, _) = ops();
    let stats = store.stats();
    assert!(stats.compactions > 0, "four runs must compact on the fourth flush");
    assert!(stats.compacted_pages >= 4);
    assert!(
        total_after_compaction - total_after_flush
            >= stats.flushed_pages - flushed + stats.compacted_pages,
        "the merge pages must also be device commands"
    );

    // Round 4 values win after the merge.
    let (got, _) = store.get(b"user000123", t).unwrap();
    assert_eq!(got.as_deref(), Some(b"value-000123-r4-padpadpadpad".as_slice()));
}

//! NoFTL-KV acceptance tests: queued multi-die batches and crash
//! consistency.
//!
//! Every power cut goes through the crash driver's sweep, over cuts taken
//! from one dry run per workload.  The enumerated sweep cuts every device
//! command of three workloads at its issue, its midpoint and its
//! completion, and counts what those cuts hit: a partial tail left in a
//! flush's run and in a merge's run, a cut inside a compaction merge and
//! inside a merge of two levels, and a torn merge whose sources survived.
//! Two deterministic tests sweep chosen cut points of a dry run: those
//! inside the first merge (and the first merge of two levels), and those
//! up to the first cut that leaves a partial tail in a flush's run and in
//! a merge's run.
//! The property test sweeps ≥ 25 uniformly drawn power-cut instants
//! across a put/delete workload whose memtable flushes and cascading
//! merges fire continuously.
//! After every cut the device is rebooted from its image, the storage
//! manager remounted (`NoFtl::mount`) and the store reopened
//! (`KvStore::open`); the harness then verifies that
//!
//! * every key covered by an acknowledged flush is present with its
//!   exact value (no lost committed keys);
//! * the run of the flush or merge in flight at the cut is adopted whole
//!   or discarded — never half-adopted — whether or not the checkpoint
//!   issued beside its pages named it, and a run that got the first
//!   pages of its tail onto flash but not the last is not a run;
//! * a cut inside a compaction merge loses nothing: the source runs
//!   survive until the merged run's pages and its checkpoint have both
//!   landed, and sources a merge retired that the directory still names
//!   are dropped on open;
//! * a full scan of the reopened store agrees with the point-lookup
//!   view.

mod common;

use std::sync::Arc;

use common::property_rounds;
use noftl_regions::flash::{DeviceBuilder, FlashGeometry, OpKind, SimTime, TimingModel};
use noftl_regions::noftl::crash::{self, SplitMix64};
use noftl_regions::noftl::kv::harness::KEYS;
use noftl_regions::noftl::kv::{KvConfig, KvCrashConfig, KvStore};
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
    // Five rounds share a workload seed, so they share its dry run.
    for first in (0..rounds).step_by(5) {
        let cfg = KvCrashConfig { seed: 0x5EED_4B56 ^ (first / 5), ..KvCrashConfig::default() };
        let dry = crash::dry_run(&cfg).unwrap();
        let cuts: Vec<_> = (first..rounds.min(first + 5))
            .map(|_| dry.cut_at((rng.next_u64() % 1_000) as f64 / 1_000.0))
            .collect();
        let violations = crash::sweep(&cfg, &cuts, |outcome| {
            flushes_total += outcome.report.flushes_acknowledged;
            committed_total += outcome.committed.len() as u64;
            torn_total += outcome.recovery.torn_runs_discarded as u64;
            compaction_cuts += u64::from(outcome.report.cut_during_compaction);
            in_flight_survivals += u64::from(outcome.in_flight_survived);
            assert!(outcome.mount.checkpoint_seq > 0, "the setup checkpoint must exist");
            assert!(outcome.recovered.len() as u64 <= KEYS);
        });
        assert!(violations.is_empty(), "rounds from {first}: {violations:#?}");
    }
    assert!(
        flushes_total > rounds,
        "cuts landed too early: only {flushes_total} flushes over {rounds} rounds"
    );
    assert!(committed_total > 0);
    println!(
        "{rounds} cuts: {flushes_total} flushes acknowledged, {committed_total} committed keys \
         verified, {torn_total} torn runs discarded, {compaction_cuts} cuts during compaction, \
         {in_flight_survivals} in-flight flushes survived"
    );
}

#[test]
fn every_cut_point_recovers_every_acknowledged_key() {
    // Each device command of each workload is cut at its issue, its
    // midpoint and its completion.  The driver checks every cycle; the
    // sweep collects every violation before the test fails.
    let workloads = [
        ("default", KvCrashConfig::default()),
        ("multi_page_tail", KvCrashConfig::multi_page_tail()),
        ("two_level_merges", KvCrashConfig::two_level_merges()),
    ];
    let started = std::time::Instant::now();
    let mut violations = Vec::new();
    let [mut cuts_total, mut torn, mut superseded, mut named_torn] = [0usize; 4];
    // [in a flush's run, in a merge's run]
    let mut partial_tails = [0usize; 2];
    let [mut in_merge, mut in_two_level_merge, mut sources_kept] = [0usize; 3];
    for (name, cfg) in workloads {
        let dry = crash::dry_run(&cfg).unwrap();
        let cuts = crash::cut_points(&dry);
        let two_level = &dry.report.two_level_merges;
        let found = crash::sweep(&cfg, &cuts, |outcome| {
            let (report, recovery) = (&outcome.report, &outcome.recovery);
            torn += recovery.torn_runs_discarded;
            superseded += recovery.superseded_runs_discarded;
            named_torn += usize::from(recovery.named_runs_torn > 0);
            if recovery.partial_tails_rejected > 0 {
                partial_tails[usize::from(report.cut_during_compaction)] += 1;
            }
            if report.cut_during_compaction {
                in_merge += 1;
                let cut = outcome.cut_at.as_nanos();
                in_two_level_merge +=
                    usize::from(two_level.iter().any(|&(start, end)| start < cut && cut < end));
                // The merged run was torn, so the acknowledged keys came
                // back from the sources.
                sources_kept += usize::from(
                    recovery.torn_runs_discarded > 0
                        && recovery.runs_recovered >= 2
                        && !outcome.committed.is_empty(),
                );
            }
        });
        let in_copyback = cuts
            .iter()
            .filter_map(|cut| cut.command)
            .filter(|c| c.kind == OpKind::Copyback)
            .count();
        println!(
            "{name}: {} commands, {} cuts ({in_copyback} in a copyback), {} violations",
            dry.commands.len(),
            cuts.len(),
            found.len()
        );
        cuts_total += cuts.len();
        violations.extend(found.into_iter().map(|v| (name, v)));
    }
    println!(
        "{cuts_total} cuts in {:.1} s: {torn} torn and {superseded} superseded runs discarded, \
         {named_torn} cuts where the new run was named but not complete, {partial_tails:?} \
         partial tails rejected in a flush's / a merge's run, {in_merge} cuts inside a merge \
         ({in_two_level_merge} of two levels, {sources_kept} keeping its sources)",
        started.elapsed().as_secs_f64()
    );
    assert!(violations.is_empty(), "{} violations: {violations:#?}", violations.len());
    assert!(named_torn >= 1, "no cut fell between a run's checkpoint and its last page");
    assert!(partial_tails[0] > 0, "no cut left a partial tail in a flush's run");
    assert!(partial_tails[1] > 0, "no cut left a partial tail in a merge's run");
    assert!(in_merge > 0, "no cut fell inside a compaction merge");
    assert!(in_two_level_merge > 0, "no cut fell inside a merge of two levels");
    assert!(sources_kept > 0, "no cut tore a merge and recovered its sources");
}

/// Whether `cut` falls strictly inside one of `windows`.
fn inside(windows: &[(u64, u64)], cut: &crash::Cut) -> bool {
    let at = cut.at.as_nanos();
    windows.iter().any(|&(start, end)| start < at && at < end)
}

#[test]
fn cut_during_compaction_merge_loses_nothing() {
    // Deterministic: every cut point inside the first compaction merge
    // of the default workload, then inside the first merge that retires
    // runs from two levels.  The driver fails a cycle if any committed
    // key is lost or a torn run half-survives.
    for (cfg, two_levels) in
        [(KvCrashConfig::default(), false), (KvCrashConfig::two_level_merges(), true)]
    {
        let dry = crash::dry_run(&cfg).unwrap();
        let windows =
            if two_levels { &dry.report.two_level_merges } else { &dry.report.compaction_windows };
        let first = windows.first().copied().expect("the workload makes the merge aimed at");
        let cuts: Vec<_> =
            crash::cut_points(&dry).into_iter().filter(|cut| inside(&[first], cut)).collect();
        assert!(!cuts.is_empty(), "two_levels={two_levels}: no command inside the merge");
        let mut landed = 0;
        let violations = crash::sweep(&cfg, &cuts, |outcome| {
            landed += usize::from(outcome.report.cut_during_compaction);
            assert!(outcome.report.flushes_acknowledged > 0);
            assert!(!outcome.committed.is_empty());
        });
        assert!(violations.is_empty(), "two_levels={two_levels}: {violations:#?}");
        assert!(landed > 0, "two_levels={two_levels}: no cut landed inside the merge");
    }
}

#[test]
fn cut_between_tail_pages_discards_the_run_and_keeps_merge_sources() {
    // Deterministic: walk the cut points of the multi-page-tail workload
    // in time order — those outside every merge, then those inside one —
    // up to the first cut that leaves a partial tail: after a run's first
    // tail page landed and before its last.  The driver fails a cycle if
    // the partial tail is adopted or an acknowledged write is lost; for
    // the merge, its sources must survive.
    let cfg = KvCrashConfig::multi_page_tail();
    let dry = crash::dry_run(&cfg).unwrap();
    let merges = &dry.report.compaction_windows;
    let cuts = crash::cut_points(&dry);
    for in_merge in [false, true] {
        let mut hit = false;
        for cut in cuts.iter().filter(|cut| inside(merges, cut) == in_merge) {
            let violations = crash::sweep(&cfg, std::slice::from_ref(cut), |outcome| {
                if outcome.recovery.partial_tails_rejected == 0 {
                    return;
                }
                hit = true;
                assert_eq!(outcome.report.cut_during_compaction, in_merge);
                assert!(outcome.recovery.tail_pages_read > 0);
                if in_merge {
                    assert!(
                        !outcome.committed.is_empty(),
                        "the merge's sources hold acknowledged keys"
                    );
                    assert!(
                        outcome.recovery.runs_recovered >= 2,
                        "the unfinished merge's sources survive"
                    );
                }
            });
            assert!(violations.is_empty(), "in_merge={in_merge}: {violations:#?}");
            if hit {
                break;
            }
        }
        assert!(hit, "in_merge={in_merge}: no cut left a partial tail");
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
    let region_dies = noftl.region_info(rid).unwrap().dies;
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

//! Crash-consistency acceptance tests.
//!
//! Every power cut of the database workload goes through the crash
//! driver's sweep, over cuts taken from one dry run per workload.  The
//! enumerated sweep (release builds) cuts every device command of an
//! 80-transaction workload and of a 400-transaction one whose pages GC
//! moves at its issue, its midpoint and its completion.  The property
//! test sweeps 50 random power-cut instants across a mixed TPC-C-ish
//! workload (inserts, updates, deletes, read-only transactions and
//! rollbacks over an indexed table with checkpoints and WAL truncations
//! firing mid-run).
//! After every cut the device is rebooted from its image, the storage
//! manager remounted (`NoFtl::mount`) and the database recovered
//! (`Database::recover`); the harness then verifies that
//!
//! * reads return only fully-committed data — no torn pages, no half
//!   transactions — with the single in-flight commit allowed to be either
//!   fully present or fully absent;
//! * no committed write is lost;
//! * the remounted manager exposes region/object state identical to the
//!   pre-crash instance (checkpoint + WAL tail).

mod common;

use common::property_rounds;
use noftl_regions::dbms::crash_harness::{CrashHarnessConfig, KEYS};
use noftl_regions::dbms::{Database, DatabaseConfig, NoFtlBackend};
use noftl_regions::flash::{
    DeviceBuilder, Duration, FlashBackend, FlashGeometry, NandDevice, OpKind, SimTime, TimingModel,
};
use noftl_regions::noftl::crash::{self, power_cycle, SplitMix64};
use noftl_regions::noftl::{NoFtl, NoFtlConfig, PlacementConfig};
use std::sync::Arc;

#[test]
fn fifty_random_power_cuts_recover_committed_data_only() {
    let rounds = property_rounds(50);
    let mut rng = SplitMix64(0xDEAD_BEEF);
    let mut committed_total = 0u64;
    let mut read_only_total = 0u64;
    let mut in_flight_survivals = 0u64;
    let mut torn_discards = 0u64;
    // Five rounds share a workload seed, so they share its dry run.
    for first in (0..rounds).step_by(5) {
        let cfg = CrashHarnessConfig {
            txns: 80,
            // Vary the workload itself every few rounds so the cuts do not
            // all land in identical histories.
            seed: 0xC0FFEE ^ (first / 5),
            ..CrashHarnessConfig::default()
        };
        let dry = crash::dry_run(&cfg).unwrap();
        // Each workload's dry run writes committed pages back, so the cuts
        // land among evictions as well as commits and checkpoints.
        let writebacks = dry.report.dirty_writebacks;
        assert!(writebacks > 0, "rounds from {first}: the dry run wrote nothing back");
        let cuts: Vec<_> = (first..rounds.min(first + 5))
            .map(|_| dry.cut_at((rng.next_u64() % 1_000) as f64 / 1_000.0))
            .collect();
        let violations = crash::sweep(&cfg, &cuts, |outcome| {
            committed_total += outcome.report.committed_txns;
            read_only_total += outcome.report.read_only_txns;
            in_flight_survivals += u64::from(outcome.in_flight_survived);
            torn_discards += outcome.mount.torn_pages_discarded;
            // The mount always replays a checkpoint (setup takes one) and
            // the recovered table view is bounded by the key universe.
            assert!(outcome.mount.checkpoint_seq > 0);
            assert!(outcome.recovered.len() <= KEYS as usize);
        });
        assert!(violations.is_empty(), "rounds from {first}: {violations:#?}");
    }
    // Across the cuts the workload must have made real progress…
    assert!(
        committed_total > rounds * 10,
        "committed only {committed_total} txns over {rounds} rounds"
    );
    // …with read-only transactions (which commit without touching the
    // log) interleaved between the writers the bar is checked on…
    assert!(read_only_total > 0, "no read-only transaction ran in {rounds} rounds");
    // …and at least some cuts should land mid-operation, producing torn
    // pages that recovery had to discard.
    assert!(torn_discards > 0, "no cut ever tore a page — cuts are not exercising the device");
    println!(
        "{rounds} cuts: {committed_total} committed txns, {torn_discards} torn pages discarded, \
         {in_flight_survivals} in-flight commits survived"
    );
}

#[test]
#[cfg_attr(debug_assertions, ignore = "a crash cycle at every command of two workloads")]
fn every_cut_point_recovers_committed_data_only() {
    // Each device command is cut at its issue, its midpoint and its
    // completion.  At 400 transactions GC moves pages, so cuts land
    // inside copybacks and the erases behind them too.
    let started = std::time::Instant::now();
    let mut violations = Vec::new();
    for txns in [80, 400] {
        let cfg = CrashHarnessConfig { txns, ..CrashHarnessConfig::default() };
        let dry = crash::dry_run(&cfg).unwrap();
        let cuts = crash::cut_points(&dry);
        let [mut committed, mut torn, mut in_flight] = [0u64; 3];
        let found = crash::sweep(&cfg, &cuts, |outcome| {
            committed += outcome.report.committed_txns;
            torn += outcome.mount.torn_pages_discarded;
            in_flight += u64::from(outcome.in_flight_survived);
        });
        let copybacks = dry.commands.iter().filter(|c| c.kind == OpKind::Copyback).count();
        let in_copyback = cuts
            .iter()
            .filter_map(|cut| cut.command)
            .filter(|c| c.kind == OpKind::Copyback)
            .count();
        println!(
            "{txns} txns: {} commands ({copybacks} copybacks), {} cuts ({in_copyback} in a \
             copyback), {} violations, {committed} committed txns, {torn} torn pages discarded, \
             {in_flight} in-flight commits survived",
            dry.commands.len(),
            cuts.len(),
            found.len()
        );
        assert!(txns < 400 || copybacks > 0, "the {txns}-transaction dry run copied no page");
        violations.extend(found.into_iter().map(|v| (txns, v)));
    }
    println!("swept in {:.1} s", started.elapsed().as_secs_f64());
    assert!(violations.is_empty(), "{} violations: {violations:#?}", violations.len());
}

#[test]
fn device_image_file_roundtrip_reboots_the_full_stack() {
    // One cycle through the device's image: every power cycle boots from
    // the `NFLIMG04` bytes of the cut device (the "pull the SSD, image it,
    // boot the image" path).
    let cfg = CrashHarnessConfig { txns: 60, ..CrashHarnessConfig::default() };
    let cut = crash::dry_run(&cfg).unwrap().cut_at(0.42);
    let mut cycles = 0;
    let violations = crash::sweep(&cfg, &[cut], |outcome| {
        assert!(outcome.report.committed_txns > 0);
        assert_eq!(outcome.recovery.tables_recovered, 1);
        assert_eq!(outcome.recovery.indexes_recovered, 1);
        cycles += 1;
    });
    assert!(violations.is_empty(), "reboot cycle through the image: {violations:?}");
    assert_eq!(cycles, 1);
}

#[test]
fn snapshot_restore_preserves_wear_and_bad_blocks() {
    // A device image boots a device that images to the same bytes, at the
    // facade level.
    let device = Arc::new(
        DeviceBuilder::new(FlashGeometry::small_test()).timing(TimingModel::mlc_2015()).build(),
    );
    let noftl = NoFtl::new(device.clone(), NoFtlConfig::default());
    let rid = noftl
        .create_region(noftl_regions::noftl::RegionSpec::named("rg").with_die_count(2))
        .unwrap();
    let obj = noftl.create_object("t", rid).unwrap();
    let mut t = SimTime::ZERO;
    for p in 0..32u64 {
        t = noftl.write(obj, p % 8, &vec![p as u8; 4096], t).unwrap();
    }
    noftl.checkpoint(t).unwrap();
    let image = device.image();
    let booted = NandDevice::from_image(&image, *device.timing()).unwrap();
    assert!(booted.image() == image, "the booted device images to other bytes");
    // The same round trip, as a power cycle.
    let device2 = power_cycle(&device).unwrap();
    let (noftl2, report) = NoFtl::mount(device2, t).unwrap();
    assert_eq!(report.checkpoint_seq, 1);
    for p in 0..8u64 {
        let expected = 24 + p; // last round of writes wins
        let mut data = vec![0; 4096];
        noftl2.read(obj, p, &mut data, report.completed_at).unwrap();
        assert_eq!(data, vec![expected as u8; 4096]);
    }
}

#[test]
fn power_cut_between_two_gc_steps_of_one_victim_loses_nothing() {
    // GC collects a victim a quantum per host write, so power can fail
    // with a block half relocated.  Every relocated page was retranslated
    // right after its copyback and the victim is erased only when empty,
    // so a mount finds each acknowledged page exactly once — and the
    // half-collected block as one more full block with invalid pages.
    let device = Arc::new(
        DeviceBuilder::new(FlashGeometry::small_test()).timing(TimingModel::mlc_2015()).build(),
    );
    let noftl = NoFtl::new(device.clone(), NoFtlConfig::default());
    let rid = noftl
        .create_region(noftl_regions::noftl::RegionSpec::named("rg").with_die_count(1))
        .unwrap();
    let obj = noftl.create_object("t", rid).unwrap();
    let pages = device.geometry().pages_per_die() * 7 / 10;
    let mut t = SimTime::ZERO;
    let mut latest: Vec<u8> = (0..pages).map(|p| p as u8).collect();
    for p in 0..pages {
        t = noftl.write(obj, p, &vec![latest[p as usize]; 4096], t).unwrap();
    }
    t = noftl.checkpoint(t).unwrap();
    // Scattered overwrites until one write's step has moved pages of a
    // victim without erasing it: the victim is parked with valid pages left.
    let mut rng = SplitMix64(0xC0FFEE);
    let mut overwrite = |noftl: &NoFtl, latest: &mut Vec<u8>, t: SimTime| {
        let r = rng.next_u64();
        let (p, v) = (r % pages, (r >> 32) as u8);
        let done = noftl.write(obj, p, &vec![v; 4096], t).unwrap();
        latest[p as usize] = v;
        done
    };
    for i in 0.. {
        let before = noftl.region_stats(rid).unwrap();
        t = overwrite(&noftl, &mut latest, t);
        let after = noftl.region_stats(rid).unwrap();
        if after.gc_copybacks > before.gc_copybacks && after.gc_erases == before.gc_erases {
            break;
        }
        assert!(i < 10_000, "no victim was ever left half collected");
    }
    // Power fails on the idle device, before the step the next write pays.
    let idle = t + Duration::from_ms(100);
    device.arm_power_cut(idle);
    assert!(noftl.write(obj, 0, &vec![0xEE; 4096], idle + Duration::from_ms(1)).is_err());
    let (noftl, report) = NoFtl::mount(power_cycle(&device).unwrap(), idle).unwrap();
    assert_eq!(report.mapped_pages, pages, "one version of every acknowledged page");
    let mut t = report.completed_at;
    for p in 0..pages {
        let mut data = vec![0; 4096];
        noftl.read(obj, p, &mut data, t).unwrap();
        assert_eq!(data, vec![latest[p as usize]; 4096], "page {p}");
    }
    // The mounted die starts without a victim; collection goes on through
    // every block, the half-collected one included.
    let erases = noftl.region_stats(rid).unwrap().gc_erases;
    for _ in 0..(4 * device.geometry().pages_per_die()) {
        t = overwrite(&noftl, &mut latest, t);
    }
    assert!(noftl.region_stats(rid).unwrap().gc_erases > erases);
    for p in 0..pages {
        let mut data = vec![0; 4096];
        noftl.read(obj, p, &mut data, t).unwrap();
        assert_eq!(data, vec![latest[p as usize]; 4096], "page {p}");
    }
}

#[test]
fn recovery_reports_scale_with_wal_length() {
    // Longer WAL tails require more redo work.
    let device = Arc::new(
        DeviceBuilder::new(FlashGeometry::example()).timing(TimingModel::mlc_2015()).build(),
    );
    let noftl = Arc::new(NoFtl::new(device.clone(), NoFtlConfig::default()));
    let placement = PlacementConfig::traditional(8, ["t".to_string()]);
    let backend = Arc::new(NoFtlBackend::new(Arc::clone(&noftl), &placement).unwrap());
    let config = DatabaseConfig {
        buffer_pages: 256,
        redo_logging: true,
        wal_segment_pages: 100_000, // no truncation: the tail only grows
    };
    let db = Database::open(backend, config).unwrap();
    db.create_table(
        "t",
        noftl_regions::dbms::Schema::new(vec![
            ("k", noftl_regions::dbms::ColumnType::Int),
            ("v", noftl_regions::dbms::ColumnType::Int),
        ]),
        SimTime::ZERO,
    )
    .unwrap();
    let mut t = db.checkpoint(SimTime::ZERO).unwrap();
    let mut redo_applied = Vec::new();
    for chunk in 0..3 {
        for i in 0..20i64 {
            let mut txn = db.begin(t);
            use noftl_regions::dbms::{Value, NO_KEYS};
            db.insert(&mut txn, "t", &vec![Value::Int(chunk * 20 + i), Value::Int(0)], NO_KEYS)
                .unwrap();
            db.commit(&mut txn).unwrap();
            t = txn.now;
        }
        // Reboot + recover after each chunk; the WAL tail has grown, so
        // redo replays more images.
        let device2 = power_cycle(&device).unwrap();
        let (noftl2, mount) = NoFtl::mount(device2, t).unwrap();
        let backend2 = Arc::new(NoFtlBackend::attach(Arc::new(noftl2), &placement).unwrap());
        let (_db2, report) = Database::recover(backend2, config, mount.completed_at).unwrap();
        redo_applied.push(report.redo_pages_applied);
    }
    assert!(
        redo_applied[0] < redo_applied[1] && redo_applied[1] < redo_applied[2],
        "redo work must grow with WAL length: {redo_applied:?}"
    );
}

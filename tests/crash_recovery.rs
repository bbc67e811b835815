//! Crash-consistency acceptance tests.
//!
//! The property test sweeps 50 random power-cut instants across a mixed
//! TPC-C-ish workload (inserts, updates, deletes, read-only transactions
//! and rollbacks over an indexed table with checkpoints and WAL
//! truncations firing mid-run).
//! After every cut the device is rebooted from its snapshot, the storage
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
use noftl_regions::dbms::crash_harness::{run_crash_cycle, CrashHarnessConfig, KEYS};
use noftl_regions::dbms::{Database, DatabaseConfig, NoFtlBackend};
use noftl_regions::flash::{
    DeviceBuilder, DeviceSnapshot, Duration, FlashBackend, FlashGeometry, SimTime, TimingModel,
};
use noftl_regions::noftl::crash::{power_cycle, SplitMix64};
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
    for round in 0..rounds {
        let cfg = CrashHarnessConfig {
            txns: 80,
            // Vary the workload itself every few rounds so the cuts do not
            // all land in identical histories.
            seed: 0xC0FFEE ^ (round / 5),
            ..CrashHarnessConfig::default()
        };
        let fraction = (rng.next_u64() % 1_000) as f64 / 1_000.0;
        let outcome = run_crash_cycle(&cfg, fraction)
            .unwrap_or_else(|e| panic!("round {round} (fraction {fraction:.3}) failed: {e}"));
        committed_total += outcome.committed_txns;
        read_only_total += outcome.read_only_txns;
        in_flight_survivals += u64::from(outcome.in_flight_survived);
        torn_discards += outcome.mount.torn_pages_discarded;
        // The mount always replays a checkpoint (setup takes one) and the
        // recovered table view is bounded by the key universe.
        assert!(outcome.mount.checkpoint_seq > 0, "round {round}");
        assert!(outcome.rows_verified <= KEYS as u64, "round {round}");
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
fn device_image_file_roundtrip_reboots_the_full_stack() {
    // One cycle through the device's image: every power cycle boots from
    // the `NFLIMG03` bytes of the cut device (the "pull the SSD, image it,
    // boot the image" path).
    let cfg = CrashHarnessConfig { txns: 60, ..CrashHarnessConfig::default() };
    let outcome = run_crash_cycle(&cfg, 0.42).expect("reboot cycle through the image");
    assert!(outcome.committed_txns > 0);
    assert_eq!(outcome.recovery.tables_recovered, 1);
    assert_eq!(outcome.recovery.indexes_recovered, 1);
}

#[test]
fn snapshot_restore_preserves_wear_and_bad_blocks() {
    // DeviceSnapshot round-trip through encode/decode at the facade level.
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
    let snap = device.snapshot();
    let decoded = DeviceSnapshot::decode(&snap.encode()).unwrap();
    assert_eq!(
        (decoded.epoch, decoded.endurance, &decoded.blocks),
        (snap.epoch, snap.endurance, &snap.blocks)
    );
    // The same round trip, as a power cycle.
    let device2 = power_cycle(&device).unwrap();
    let (noftl2, report) = NoFtl::mount(device2, NoFtlConfig::default(), t).unwrap();
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
    let (noftl, report) =
        NoFtl::mount(power_cycle(&device).unwrap(), NoFtlConfig::default(), idle).unwrap();
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
        let (noftl2, mount) = NoFtl::mount(device2, NoFtlConfig::default(), t).unwrap();
        let backend2 = Arc::new(NoFtlBackend::attach(Arc::new(noftl2), &placement).unwrap());
        let (_db2, report) = Database::recover(backend2, config, mount.completed_at).unwrap();
        redo_applied.push(report.redo_pages_applied);
    }
    assert!(
        redo_applied[0] < redo_applied[1] && redo_applied[1] < redo_applied[2],
        "redo work must grow with WAL length: {redo_applied:?}"
    );
}

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

use common::{property_rounds, splitmix};
use noftl_regions::dbms::crash_harness::{run_crash_cycle, CrashHarnessConfig};
use noftl_regions::dbms::{Database, DatabaseConfig, NoFtlBackend};
use noftl_regions::flash::{
    DeviceBuilder, DeviceSnapshot, FlashGeometry, NandDevice, SimTime, TimingModel,
};
use noftl_regions::noftl::{NoFtl, NoFtlConfig, PlacementConfig};
use std::sync::Arc;

#[test]
fn fifty_random_power_cuts_recover_committed_data_only() {
    let rounds = property_rounds(50);
    let mut rng = 0xDEAD_BEEFu64;
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
        let fraction = (splitmix(&mut rng) % 1_000) as f64 / 1_000.0;
        let outcome = run_crash_cycle(&cfg, fraction)
            .unwrap_or_else(|e| panic!("round {round} (fraction {fraction:.3}) failed: {e}"));
        committed_total += outcome.committed_txns;
        read_only_total += outcome.read_only_txns;
        in_flight_survivals += u64::from(outcome.in_flight_survived);
        torn_discards += outcome.mount.torn_pages_discarded;
        // The mount always replays a checkpoint (setup takes one) and the
        // recovered table view is bounded by the key universe.
        assert!(outcome.mount.checkpoint_seq > 0, "round {round}");
        assert!(outcome.rows_verified <= 32, "round {round}");
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
    // One cycle with the snapshot persisted to a file-backed image (the
    // "pull the SSD, image it, boot the image" path).
    let cfg = CrashHarnessConfig { txns: 60, image_file: true, ..CrashHarnessConfig::default() };
    let outcome = run_crash_cycle(&cfg, 0.42).expect("file-backed reboot cycle");
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
    assert_eq!(decoded.blocks, snap.blocks);
    assert_eq!(decoded.wear.total_erases, snap.wear.total_erases);
    let device2 = Arc::new(NandDevice::from_snapshot(&decoded, TimingModel::mlc_2015()).unwrap());
    let (noftl2, report) = NoFtl::mount(device2, NoFtlConfig::default(), t).unwrap();
    assert_eq!(report.checkpoint_seq, 1);
    for p in 0..8u64 {
        let expected = 24 + p; // last round of writes wins
        assert_eq!(noftl2.read(obj, p, report.completed_at).unwrap().0, vec![expected as u8; 4096]);
    }
}

#[test]
fn recovery_reports_scale_with_wal_length() {
    // Longer WAL tails require more redo work — the relationship the
    // criterion bench (`benches/recovery.rs`) measures.
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
        ..DatabaseConfig::default()
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
            use noftl_regions::dbms::Value;
            db.insert(&mut txn, "t", &vec![Value::Int(chunk * 20 + i), Value::Int(0)], &[])
                .unwrap();
            db.commit(&mut txn).unwrap();
            t = txn.now;
        }
        // Reboot + recover after each chunk; the WAL tail has grown, so
        // redo replays more images.
        let snap = device.snapshot();
        let device2 = Arc::new(NandDevice::from_snapshot(&snap, TimingModel::mlc_2015()).unwrap());
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

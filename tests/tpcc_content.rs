//! Content golden for TPC-C: the rows and index entries a fixed run
//! leaves behind.
//!
//! The tiny scale is loaded on instant timing and 2 000 transactions run
//! at a fixed seed.  After a flush, one CRC-32 covers every table's
//! records in heap-scan order (record id, then bytes) and every index's
//! `(key, record id)` pairs in key order.  The simulated figures say the
//! engine did the same I/O; this says it stored the same rows.
//!
//! The golden was recorded while the transactions still decoded every
//! row into values and encoded it back, before they read and edited rows
//! in their bytes.  A change to how rows are read, edited or indexed that
//! moves one byte fails here.  Regenerate with `NOFTL_PRINT_GOLDEN=1
//! cargo test --test tpcc_content -- --nocapture` only beside a change
//! that means to store different rows.

use std::sync::Arc;

use noftl_regions::dbms::btree::BTree;
use noftl_regions::dbms::{BufferPool, Database, DatabaseConfig, NoFtlBackend};
use noftl_regions::flash::{crc32, DeviceBuilder, FlashGeometry, SimTime, TimingModel};
use noftl_regions::noftl::{NoFtl, NoFtlConfig};
use noftl_regions::tpcc::{schema, Driver, DriverConfig, Loader, ScaleConfig};

/// CRC of every record and index entry, the records and the entries.
const GOLDEN: (u32, u64, u64) = (0x32c5_1a02, 11_816, 11_842);

/// Load, run, flush; then digest the tables and indexes through a cold
/// pool over the same backend.
fn digest() -> (u32, u64, u64) {
    let device = Arc::new(
        DeviceBuilder::new(FlashGeometry::example()).timing(TimingModel::instant()).build(),
    );
    let noftl = Arc::new(NoFtl::new(device, NoFtlConfig::default()));
    let placement = noftl_regions::tpcc::traditional(8);
    let backend = Arc::new(NoFtlBackend::new(noftl, &placement).unwrap());
    let config = DatabaseConfig { buffer_pages: 256, ..DatabaseConfig::default() };
    let db = Database::open(backend, config).unwrap();
    let scale = ScaleConfig::tiny();
    let (_, loaded) = Loader::new(scale, 3).load(&db, SimTime::ZERO).unwrap();
    let driver = Driver::new(DriverConfig { clients: 4, total_transactions: 2_000, seed: 7 });
    let report = driver.run(&db, &scale, loaded).unwrap();
    assert_eq!(report.committed + report.rolled_back, 2_000);
    let t = db.flush_all(loaded + report.makespan).unwrap();

    let mut pool = BufferPool::new(Arc::clone(db.backend()), 256);
    let (mut bytes, mut records, mut entries) = (Vec::new(), 0u64, 0u64);
    for table in schema::table_names() {
        db.with_table(&table, |def| {
            def.heap.scan(&mut pool, t, |rid, record| {
                bytes.extend_from_slice(&rid.encode());
                bytes.extend_from_slice(record);
                records += 1;
            })
        })
        .unwrap()
        .unwrap();
    }
    for (index, table) in schema::INDEXES {
        // The tree as the flushed pages hold it, attached to the cold pool.
        let (obj, pages) = db
            .with_table(table, |def| {
                let tree = &def.indexes[index];
                (tree.object_id(), tree.page_count())
            })
            .unwrap();
        let (mut tree, _) = BTree::attach(obj, &mut pool, pages, t).unwrap();
        tree.range(&mut pool, &[], None, usize::MAX, t, |key, rid| {
            bytes.extend_from_slice(key);
            bytes.extend_from_slice(&rid.encode());
            entries += 1;
        })
        .unwrap();
    }
    (crc32(&bytes), records, entries)
}

#[test]
fn a_fixed_tpcc_run_stores_the_golden_rows() {
    let got = digest();
    if std::env::var("NOFTL_PRINT_GOLDEN").is_ok() {
        println!("const GOLDEN: (u32, u64, u64) = ({:#010x}, {}, {});", got.0, got.1, got.2);
        return;
    }
    assert_eq!(got, GOLDEN, "a TPC-C row or index entry moved a byte");
}

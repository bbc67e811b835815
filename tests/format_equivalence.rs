//! Byte-identity gate for every streamed on-flash format.
//!
//! One scripted run writes each format this repository defines beyond
//! page payloads onto one device: WAL pages in both log modes (the
//! durable redo log and the volatile one TPC-C runs with), catalog
//! snapshots, NoFTL checkpoint chunks, and a KV store's data and tail
//! pages across a flush and a compaction.  The `NFLIMG04` device image —
//! bad flags, write pointers, invalid flags, payloads, OOB records, wear
//! and the epoch, as `placement_equivalence.rs` digests it — must hash to
//! the golden below.
//!
//! The rule: a byte this gate catches moves only with a format version
//! bump, and the golden is re-recorded only after a page-by-page dump of
//! the script's device on the parent and on the change shows that the
//! pages of the bumped formats, and no other, differ — at the same
//! addresses, logical pages and epochs.
//!
//! The current golden moved from `(0x5911_64DF, 54)` beside the
//! checkpoint blob's bump to `NFCKPT10`, which dropped the blob's
//! sequence number, epoch watermark and metadata region and each chunk
//! header's index, and beside the catalog snapshot header's loss of its
//! sequence number and pad.  A page-by-page dump of the script's device
//! on both sides differed in fifteen pages only: the ten checkpoint chunk
//! pages (die 1, block 0, pages 0 to 9; `META_OBJECT_ID` in their OOB)
//! and five `DBMS-catalog` snapshot pages, at the same addresses, logical
//! pages and epochs, payload and OOB checksum moved.  Every other page,
//! every block's state, write pointer, erase count and valid / invalid
//! counts, and the epoch (54) were equal.  The earlier re-records are in
//! EXPERIMENTS.md, "The format golden's history".
//!
//! Regenerate with `NOFTL_PRINT_GOLDEN=1 cargo test --test
//! format_equivalence -- --nocapture` only beside a format version bump.

use std::ops::Range;
use std::sync::Arc;

use noftl_regions::dbms::value::{composite_key, Value};
use noftl_regions::dbms::{ColumnType, Database, DatabaseConfig, NoFtlBackend, Schema};
use noftl_regions::flash::{DeviceBuilder, FlashBackend, FlashGeometry, SimTime, TimingModel};
use noftl_regions::noftl::kv::{KvConfig, KvStore};
use noftl_regions::noftl::{NoFtl, NoFtlConfig, PlacementConfig, RegionSpec};

/// CRC of the scripted device image, and its epoch.
const GOLDEN_IMAGE: (u32, u64) = (0x8440_2C66, 54);

fn schema() -> Schema {
    Schema::new(vec![
        ("id", ColumnType::Int),
        ("balance", ColumnType::Float),
        ("note", ColumnType::Str(24)),
    ])
}

/// One transaction inserting `ids`, each under the `acct_pk` index.
fn insert_rows(db: &Database, ids: Range<i64>, at: SimTime) -> SimTime {
    let mut txn = db.begin(at);
    for id in ids {
        let row = vec![Value::Int(id), Value::Float(id as f64 / 4.0), Value::Str(format!("a{id}"))];
        db.insert(&mut txn, "acct", &row, &[("acct_pk", composite_key(&[id]))]).unwrap();
    }
    db.commit(&mut txn).unwrap();
    txn.now
}

/// The CRC-32 trailer that ends an image: the digest of every byte before
/// it.
fn trailer(bytes: &[u8]) -> u32 {
    u32::from_le_bytes(bytes[bytes.len() - 4..].try_into().unwrap())
}

/// Run the script and digest the device: `(image CRC, epoch)`.
fn scripted_image() -> (u32, u64) {
    let geometry = FlashGeometry { blocks_per_plane: 32, ..FlashGeometry::example() };
    let device = Arc::new(DeviceBuilder::new(geometry).timing(TimingModel::mlc_2015()).build());
    let noftl = Arc::new(NoFtl::new(device.clone(), NoFtlConfig::default()));
    let placement = PlacementConfig::traditional(4, []);
    let backend = Arc::new(NoFtlBackend::new(Arc::clone(&noftl), &placement).unwrap());

    // Durable log: each commit spills page after-images over several WAL
    // pages; each checkpoint writes a catalog snapshot and NoFTL chunks.
    let durable =
        DatabaseConfig { buffer_pages: 256, redo_logging: true, ..DatabaseConfig::default() };
    let db = Database::open(backend.clone(), durable).unwrap();
    let mut t = SimTime::ZERO;
    db.create_table("acct", schema(), t).unwrap();
    db.create_index("acct", "acct_pk", t).unwrap();
    t = db.checkpoint(t).unwrap();
    t = insert_rows(&db, 0..40, t);
    t = db.checkpoint(t).unwrap();
    t = insert_rows(&db, 40..60, t);
    assert!(db.wal_stats().segment_pages > 2, "the durable log spilled");
    drop(db);

    // Volatile log: recover onto the same backend without redo logging,
    // then one transaction whose notes spill past a log page.
    let volatile = DatabaseConfig { buffer_pages: 256, ..DatabaseConfig::default() };
    let (db, report) = Database::recover(backend, volatile, t).unwrap();
    assert!(report.redo_pages_applied > 0 && report.tables_recovered == 1);
    t = insert_rows(&db, 60..400, db.checkpoint(t).unwrap());
    assert!(db.wal_stats().segment_pages > 1, "the volatile log spilled");
    t = insert_rows(&db, 400..410, t);
    t = db.checkpoint(t).unwrap();

    // KV: two rounds spill the memtable into three level-0 runs, and the
    // fourth flush merges them and the memtable into a level-1 run.
    let region = noftl.create_region(RegionSpec::named("rgKv").with_die_count(2)).unwrap();
    let config = KvConfig { memtable_bytes: 8 * 1024 };
    let (store, mut t) = KvStore::create(Arc::clone(&noftl), region, "kv", config, t).unwrap();
    for round in 0..2u64 {
        for i in 0..150u64 {
            let value = format!("v{round}-{i}-{}", "x".repeat(24));
            t = store.put(format!("key{i:05}").as_bytes(), value.as_bytes(), t).unwrap();
        }
        t = store.delete(format!("key{:05}", round * 7).as_bytes(), t).unwrap();
        t = store.flush(t).unwrap();
    }
    assert!(store.stats().compactions >= 1, "the script compacted");

    (trailer(&device.image()), device.current_epoch())
}

#[test]
fn every_streamed_format_keeps_its_bytes() {
    let image = scripted_image();
    if std::env::var("NOFTL_PRINT_GOLDEN").is_ok() {
        println!("const GOLDEN_IMAGE: (u32, u64) = ({:#010x}, {});", image.0, image.1);
        return;
    }
    assert_eq!(image, scripted_image(), "the script is deterministic");
    assert_eq!(image, GOLDEN_IMAGE, "a WAL, catalog, checkpoint or KV page moved a byte");
}

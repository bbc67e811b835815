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
//! The goldens were recorded on the parent of the change that moved every
//! format onto `flash_sim::codec`, before any codec was touched, so a
//! codec change that moves one byte of any format fails here.  The image
//! golden moved twice since, each time recorded on the parent of the
//! change by encoding its device in the `NFLIMG03` layout with a
//! test-local encoder: once for the format (`0x11C5_F3D3`, epoch 68, with
//! a KV compaction threshold of 2) and once when the threshold became a
//! constant 4.  It moved once more, from `(0x399E_912E, 58)`, when a KV
//! flush began to merge straight into the level it fills: the script's
//! fourth flush writes its level-1 run directly instead of a level-0 run
//! that a merge then read back and erased, so fewer pages were programmed
//! and erased although no format changed.  The level-1 run's three pages
//! (`__kv_kv_r1_1_4`) have page CRCs `4da16027 afeb2777 1e2fe72a` on
//! both sides of that change.  It moved last from `(0x05A8_51A4, 55)`
//! beside the checkpoint blob's bump to `NFCKPT07`, which dropped the
//! free-die pool, each region's object list and each object's counters.
//! A page-by-page dump of the script's device on both sides differed in
//! the eleven checkpoint chunk pages only (`META_OBJECT_ID` in their OOB,
//! same addresses and epochs); every other page, every block's state,
//! write pointer and erase count, and the epoch (55) were equal.  It
//! moved last from `(0x22C8_4A25, 55)` when B+-tree nodes took a slot
//! directory of `u16` entry end offsets in place of each key's `u16`
//! length (same bytes per entry, so the same splits and page numbers).
//! A page-by-page dump of the script's device on both sides differed in
//! eight pages only, at the same addresses, logical pages and epochs:
//! six `acct_pk` node pages, and two durable-log pages whose page-image
//! records carry `acct_pk` nodes.  Every other page, every block's
//! state, write pointer, erase count and valid / invalid counts, and the
//! epoch (55) were equal.  It moved last from `(0x6E92_437C, 55)` with
//! the image's bump to `NFLIMG04`, which stores no block or page state
//! tags (they follow from the write pointer) and no payload length or
//! padding: on the parent of that change, a digest of every block's
//! `block_info`, every page state and the bytes and OOB of every
//! readable page was equal to the change's, and the parent's device
//! encoded by an `NFLIMG04` encoder gave the golden below.  It moved
//! last from `(0xE954_4F0B, 55)` when a KV flush began to issue the
//! checkpoint that names its run beside the run's pages (first, in host
//! order), and a merge stopped taking a second checkpoint for the sources
//! it retires.  A page-by-page dump of the script's device on both sides
//! differed in these pages only: the eleven KV run pages (objects 7 to
//! 10) kept their bytes, addresses and states, each one epoch later; the
//! KV checkpoints 7 to 10 (die 1, block 0, pages 6 to 9) kept their
//! addresses, each programmed before its run's pages, so with epochs 40,
//! 44, 47 and 51 in place of 43, 46, 50 and 54; the epoch watermark in
//! each blob (one below its chunk's epoch on both sides) moved with them,
//! and nothing else (the page CRCs are equal: each blob ends in its own
//! CRC).  The merge's second checkpoint (page 10, epoch 55) is gone, so
//! page 9 is the valid chunk and the block's write pointer is 10.  Every
//! other page and block, and the erase counts, were equal; the epoch is
//! 54.  It moved last from `(0x152F_6633, 54)` beside the checkpoint
//! blob's bump to `NFCKPT08`, which dropped the replication blob (one
//! byte, its empty option, in every blob the script writes).  A
//! page-by-page dump of the script's device on both sides differed in
//! the ten checkpoint chunk pages only (die 1, block 0, pages 0 to 9;
//! `META_OBJECT_ID` in their OOB, same addresses and epochs, payload and
//! OOB checksum moved); every other page, every block's state, write
//! pointer, erase count and valid / invalid counts, and the epoch (54)
//! were equal.  The sample mirror blob and its golden went with the
//! mirror's blob format.  It moved last from `(0x254F_A713, 54)` beside
//! the checkpoint blob's bump to `NFCKPT09`, which dropped each region's
//! creation limits and stores its service class as its code.  A
//! page-by-page dump of the script's device on both sides differed in
//! the same ten checkpoint chunk pages only (`META_OBJECT_ID`, same
//! addresses and epochs, payload and OOB checksum moved); every other
//! page, every block's state, write pointer, erase count and valid /
//! invalid counts, and the epoch (54) were equal.
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
const GOLDEN_IMAGE: (u32, u64) = (0x5911_64DF, 54);

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

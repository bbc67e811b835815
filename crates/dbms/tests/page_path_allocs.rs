//! Allocation budgets of the page paths: a point read warm and cold, a
//! range scan, the writes — update, insert and delete — and B+-tree
//! splits.
//!
//! `Database::read` and `Database::index_read` on resident pages borrow
//! their way down the B+-tree and into the heap page and lend the row to
//! the caller where its frame holds it: no page, node or record is
//! copied or decoded, and they allocate nothing.  `Database::get` and
//! `index_get` are the same read plus one copy, the row's bytes, into
//! the owned row itself: a record of up to `INLINE_RECORD` (256) bytes,
//! such as the 128-byte one here, allocates nothing, warm or cold, and a
//! longer one exactly its heap buffer.  A point read that misses in a
//! full pool reads each page into the buffer of the frame it evicts,
//! clean or written back.  The counting global allocator of
//! `tests/common/counting_alloc.rs` (per thread, so parallel tests do not
//! charge each other) holds the paths to that, and records the sizes of
//! the first allocations of each counted window, so a budget that fails
//! says what it saw.  `Database::index_range` and `index_prefix` over resident
//! leaves copy no key and collect nothing: they hand each record id to
//! the caller's closure, and allocate nothing.  The writes edit the heap
//! page and the leaf in their buffer frames and copy no page either: an
//! update of a `Row`, one made in the frame by `Database::update_with`,
//! and an insert of a `Row` built over the caller's bytes allocate
//! nothing, and neither does an insert or update of values, which the
//! engine encodes into a buffer it keeps.  A B+-tree split writes its halves, and the widened parent or
//! new root, from page buffers the tree keeps, so once the tree has split
//! at a depth a leaf or an internal split there allocates nothing.  A
//! commit under redo logging appends each after-image of its write set
//! from the page's frame into the log's reused frame buffer, and a warm
//! one allocates nothing either.  CI runs this in `--release`, where the
//! claim matters.

#[path = "../../../tests/common/counting_alloc.rs"]
pub mod counting_alloc;

use std::sync::Arc;

use counting_alloc::{counted, watch};
use dbms_engine::btree::BTree;
use dbms_engine::row::INLINE_RECORD;
use dbms_engine::{
    BufferPool, ColumnType, Database, DatabaseConfig, NoFtlBackend, Record, RecordId, Row, Schema,
    StorageBackend, Value, PAGE_SIZE,
};
use flash_sim::{
    BlockAddr, DeviceBuilder, DieId, FlashBackend, FlashGeometry, NandDevice, SimTime, TimingModel,
};
use noftl_core::{NoFtl, NoFtlConfig, PlacementConfig};

const RECORDS: u64 = 20_000;
const KEY_LEN: usize = 24;

fn key(id: u64) -> Vec<u8> {
    format!("user{id:020}").into_bytes()
}

#[expect(clippy::unwrap_used, reason = "a test helper: a failed step fails the test")]
fn row(id: u64) -> Record {
    vec![Value::Str(String::from_utf8(key(id)).unwrap()), Value::Str("v".into())]
}

/// The test table's schema: a 128-byte record, kept inline by an owned
/// row, or with a value column of `value_len` bytes.
fn schema(value_len: u16) -> Schema {
    Schema::new(vec![("k", ColumnType::Str(KEY_LEN as u16)), ("v", ColumnType::Str(value_len))])
}

/// A database configured by `config`, over a fresh manager on `device`.
#[expect(clippy::unwrap_used, reason = "a test helper: a failed step fails the test")]
fn open_db(device: &Arc<NandDevice>, config: DatabaseConfig) -> Database {
    let noftl = Arc::new(NoFtl::new(device.clone(), NoFtlConfig::default()));
    let placement = PlacementConfig::traditional(8, ["t".to_string()]);
    let backend = Arc::new(NoFtlBackend::new(noftl, &placement).unwrap());
    Database::open(backend, config).unwrap()
}

/// A fresh `FlashGeometry::example()` device with instant timing.
fn example_device() -> Arc<NandDevice> {
    Arc::new(DeviceBuilder::new(FlashGeometry::example()).timing(TimingModel::instant()).build())
}

/// A database of `RECORDS` rows behind a three-level index, all of it
/// resident: the reads of the warm tests are hits.
fn loaded_db() -> (Database, SimTime) {
    loaded_db_with_pool(4_096)
}

/// [`loaded_db`] with a pool of `buffer_pages` frames.
fn loaded_db_with_pool(buffer_pages: usize) -> (Database, SimTime) {
    let (_, db, now) = loaded_device(buffer_pages);
    (db, now)
}

/// [`loaded_db_with_pool`], and the device underneath.
#[expect(clippy::unwrap_used, reason = "a test helper: a failed step fails the test")]
fn loaded_device(buffer_pages: usize) -> (Arc<NandDevice>, Database, SimTime) {
    let device = example_device();
    let db = open_db(&device, DatabaseConfig { buffer_pages, ..DatabaseConfig::default() });
    assert_eq!(schema(100).record_len(), 128);
    db.create_table("t", schema(100), SimTime::ZERO).unwrap();
    db.create_index("t", "i", SimTime::ZERO).unwrap();
    let mut now = SimTime::ZERO;
    for id in 0..RECORDS {
        let mut txn = db.begin(now);
        db.insert(&mut txn, "t", &row(id), &[("i", key(id))]).unwrap();
        db.commit(&mut txn).unwrap();
        now = txn.now;
    }
    // More leaves than one internal node can address ⇒ at least 3 levels.
    let max_children = (PAGE_SIZE - 11) / (2 + KEY_LEN + 8) + 1;
    let index_pages = db.with_table("t", |t| t.indexes["i"].page_count()).unwrap();
    assert!(index_pages as usize > max_children + 1, "tree of {index_pages} pages is too shallow");
    (device, db, now)
}

/// The keys of 200 point reads spread over the table.
fn spread_keys() -> Vec<Vec<u8>> {
    (0..200).map(|i| key(i * 97 % RECORDS)).collect()
}

/// A warm `index_get` copies the 128-byte row into the owned row itself
/// and allocates nothing, and so does `get`; the same reads through
/// `index_read`, and then by record id through `read`, borrow the row
/// and allocate nothing either.
#[test]
fn warm_point_reads_copy_no_page_and_allocate_nothing() {
    let (db, now) = loaded_db();
    let keys = spread_keys();
    let misses_before = db.buffer_stats().misses;
    let mut txn = db.begin(now);
    let ((), index_get) = counted(|| {
        for k in &keys {
            let (_, row) = db.index_get(&mut txn, "t", "i", k).unwrap().expect("loaded key");
            assert_eq!(row.str(0).as_bytes(), &k[..]);
        }
    });
    let mut rids = Vec::with_capacity(keys.len());
    let ((), index_read) = counted(|| {
        for k in &keys {
            let (rid, len) =
                db.index_read(&mut txn, "t", "i", k, |row| row.str(0).len()).unwrap().unwrap();
            assert_eq!(len, KEY_LEN);
            rids.push(rid);
        }
    });
    let ((), read) = counted(|| {
        for (rid, k) in rids.iter().zip(&keys) {
            assert!(db.read(&mut txn, "t", *rid, |row| row.str(0).as_bytes() == &k[..]).unwrap());
        }
    });
    let ((), get) = counted(|| {
        for (rid, k) in rids.iter().zip(&keys) {
            assert_eq!(db.get(&mut txn, "t", *rid).unwrap().str(0).as_bytes(), &k[..]);
        }
    });
    db.commit(&mut txn).unwrap();

    assert_eq!(db.buffer_stats().misses, misses_before, "the reads were meant to be warm");
    // Nothing for the descent, nothing to decode, nothing for the copy.
    let ops = [("index_get", index_get), ("index_read", index_read), ("read", read), ("get", get)];
    for (op, window) in ops {
        assert_eq!(window.allocs, 0, "{} warm {op}s: {window}", keys.len());
    }
}

/// A record longer than `INLINE_RECORD` spills to one heap buffer of its
/// length: a warm `get` or `index_get` of it allocates exactly that.
#[test]
fn a_point_read_of_a_record_above_the_inline_bound_allocates_its_bytes() {
    let db = open_db(&example_device(), DatabaseConfig::default());
    let wide = schema(300);
    assert!(wide.record_len() > INLINE_RECORD);
    db.create_table("t", wide.clone(), SimTime::ZERO).unwrap();
    db.create_index("t", "i", SimTime::ZERO).unwrap();
    let mut txn = db.begin(SimTime::ZERO);
    for id in 0..200 {
        db.insert(&mut txn, "t", &row(id), &[("i", key(id))]).unwrap();
    }
    let keys: Vec<Vec<u8>> = (0..200).map(|i| key(i * 7 % 200)).collect();
    let mut rids = Vec::with_capacity(keys.len());
    let ((), index_get) = counted(|| {
        for k in &keys {
            let (rid, row) = db.index_get(&mut txn, "t", "i", k).unwrap().expect("inserted key");
            assert_eq!(row.str(0).as_bytes(), &k[..]);
            rids.push(rid);
        }
    });
    let ((), get) = counted(|| {
        for (rid, k) in rids.iter().zip(&keys) {
            assert_eq!(db.get(&mut txn, "t", *rid).unwrap().str(0).as_bytes(), &k[..]);
        }
    });
    db.commit(&mut txn).unwrap();
    for (op, window) in [("index_get", index_get), ("get", get)] {
        assert_eq!(window.allocs, keys.len() as u64, "{} {op}s: {window}", keys.len());
        assert_eq!(window.largest, wide.record_len(), "{op}: {window}");
    }
}

/// With the pool full, point reads whose leaf and heap page miss read
/// each page into the buffer of the frame they evict — a clean one, or a
/// dirty one written back first — and allocate what a warm read does:
/// nothing.  Every other key is read by `index_lookup` and `get`.
#[test]
fn cold_index_get_reads_into_the_victims_buffer() {
    let (db, now) = loaded_db_with_pool(32);
    let keys = spread_keys();
    // Dirty a dozen frames, so the clock has written-back victims too.
    let mut txn = db.begin(now);
    for i in 0..12 {
        let rid = db.index_lookup(&mut txn, "t", "i", &key(i * 1_601)).unwrap().unwrap();
        let row = db.get(&mut txn, "t", rid).unwrap();
        db.update(&mut txn, "t", rid, &row).unwrap();
    }
    db.commit(&mut txn).unwrap();
    let before = db.buffer_stats();
    let mut txn = db.begin(txn.now);
    let ((), window) = counted(|| {
        for (i, k) in keys.iter().enumerate() {
            let row = match i % 2 {
                0 => db.index_get(&mut txn, "t", "i", k).unwrap().expect("loaded key").1,
                _ => {
                    let rid = db.index_lookup(&mut txn, "t", "i", k).unwrap().expect("loaded key");
                    db.get(&mut txn, "t", rid).unwrap()
                }
            };
            assert_eq!(row.str(0).as_bytes(), &k[..]);
        }
    });
    db.commit(&mut txn).unwrap();
    let after = db.buffer_stats();

    let misses = after.misses - before.misses;
    let written_back = after.dirty_writebacks - before.dirty_writebacks;
    let clean = after.evictions - before.evictions - written_back;
    assert!(
        misses > keys.len() as u64 * 3 / 2,
        "{misses} misses: leaf and heap were meant to miss"
    );
    assert!(written_back > 0 && clean > 0, "{written_back} dirty and {clean} clean victims");
    assert_eq!(window.allocs, 0, "{} cold reads: {window}", keys.len());
}

/// A range scan over a hundred warm leaves, and a prefix scan, hand
/// their record ids to a closure and allocate nothing at all.
#[test]
fn warm_range_scan_allocates_nothing_per_row() {
    let (db, now) = loaded_db();
    // Key-ordered inserts leave full leaves: enough rows for 100 of them.
    let rows_per_leaf = (PAGE_SIZE - 11) / (2 + KEY_LEN + 10);
    let rows_wanted = 100 * rows_per_leaf + 1;
    let before = db.buffer_stats();
    let mut txn = db.begin(now);
    let (low, prefix) = (key(1_000), key(1_000)[..KEY_LEN - 2].to_vec());
    let (mut rows, mut last, mut prefixed) = (0, None, 0);
    let ((), range) = counted(|| {
        db.index_range(&mut txn, "t", "i", &low, None, rows_wanted, |rid| {
            rows += 1;
            last = Some(rid);
        })
        .unwrap();
    });
    let after = db.buffer_stats();
    let ((), prefix_scan) = counted(|| {
        db.index_prefix(&mut txn, "t", "i", &prefix, |_| prefixed += 1).unwrap();
    });
    let last_key = key(1_000 + rows_wanted as u64 - 1);
    assert_eq!(last, db.index_lookup(&mut txn, "t", "i", &last_key).unwrap());
    db.commit(&mut txn).unwrap();

    assert_eq!((rows, prefixed), (rows_wanted, 100));
    assert_eq!(db.buffer_stats().misses, before.misses, "warm");
    // Three logical reads are the descent (root, inner node, first leaf);
    // the walk then reads one node per leaf of the chain.
    let leaves = after.logical_reads - before.logical_reads - 3;
    assert!(leaves >= 100, "the scan crossed only {leaves} leaves");
    assert_eq!(range.allocs, 0, "{rows_wanted} rows over {leaves} warm leaves: {range}");
    assert_eq!(prefix_scan.allocs, 0, "a prefix scan of 100 rows: {prefix_scan}");
}

/// Warm writes edit their pages where the pool holds them, and none of
/// them allocates:
///
/// * `update` of a row read before: its bytes are stored as they are;
/// * `update` of values, and `insert` of values: `Schema::encode` writes
///   the record into the engine's kept buffer.  The index key arrives
///   built, the B+-tree descent copies its internal nodes into the tree's
///   reused path buffer, and the log note is formatted into the log's
///   reused frame buffer;
/// * `update_with`, which sets a column in the frame;
/// * `insert` of a `Row` whose columns are set over zeroed bytes on the
///   stack: the row lends its bytes;
/// * `delete`.
///
/// The commit forces the log, which seals a page of its own; it runs
/// outside the counted windows.
#[test]
fn warm_writes_copy_no_page_and_allocate_nothing() {
    const OPS: u64 = 20;
    let (db, now) = loaded_db();
    let heap_pages = || db.with_table("t", |t| t.heap.page_count()).unwrap();
    let tree_pages = || db.with_table("t", |t| t.indexes["i"].page_count()).unwrap();
    let mut txn = db.begin(now);
    // Start a fresh heap fill page, so the counted inserts all land in
    // it (a page holds about 30 of these records).
    let (pages, mut id) = (heap_pages(), RECORDS);
    while heap_pages() == pages {
        db.insert(&mut txn, "t", &row(id), &[("i", key(id))]).unwrap();
        id += 1;
    }
    // Rows spread over the tree: each delete makes room in its leaf for
    // the insert of the same key that follows, so no insert splits.  The
    // first half is inserted as values, the second as rows.
    let ids: Vec<u64> = (0..OPS).map(|i| 1 + i * 997 % RECORDS).collect();
    let half = OPS as usize / 2;
    let schema = db.with_table("t", |t| Arc::clone(&t.schema)).unwrap();
    let rids: Vec<RecordId> = ids
        .iter()
        .map(|&i| db.index_lookup(&mut txn, "t", "i", &key(i)).unwrap().expect("loaded key"))
        .collect();
    let rows: Vec<Record> = ids.iter().map(|&i| row(i)).collect();
    let keys: Vec<[(&str, Vec<u8>); 1]> = ids.iter().map(|&i| [("i", key(i))]).collect();
    let stored: Vec<_> = rids.iter().map(|rid| db.get(&mut txn, "t", *rid).unwrap()).collect();
    let (misses, index_pages) = (db.buffer_stats().misses, tree_pages());

    let ((), update) = counted(|| {
        for (rid, row) in rids.iter().zip(&stored) {
            db.update(&mut txn, "t", *rid, row).unwrap();
        }
    });
    let ((), update_values) = counted(|| {
        for (rid, row) in rids.iter().zip(&rows) {
            db.update(&mut txn, "t", *rid, row).unwrap();
        }
    });
    let ((), update_with) = counted(|| {
        for rid in &rids {
            db.update_with(&mut txn, "t", *rid, |row| row.set_str(1, "w")).unwrap();
        }
    });
    let ((), delete) = counted(|| {
        for (rid, keys) in rids.iter().zip(&keys) {
            db.delete(&mut txn, "t", *rid, keys).unwrap();
        }
    });
    let ((), insert) = counted(|| {
        for (row, keys) in rows.iter().zip(&keys).take(half) {
            db.insert(&mut txn, "t", row, keys).unwrap();
        }
    });
    let ((), insert_row) = counted(|| {
        for keys in &keys[half..] {
            let mut bytes = [0; 2 + KEY_LEN + 2 + 100];
            let mut row = Row::new(Arc::clone(&schema), &mut bytes[..]).unwrap();
            row.set_str(0, std::str::from_utf8(&keys[0].1).unwrap());
            row.set_str(1, "v");
            db.insert(&mut txn, "t", &row, keys).unwrap();
        }
    });
    db.commit(&mut txn).unwrap();

    assert_eq!(db.buffer_stats().misses, misses, "the writes were meant to be warm");
    assert_eq!(tree_pages(), index_pages, "an insert split its leaf");
    // A row built in its bytes stores what the values encode to.
    let mut txn = db.begin(txn.now);
    for (&id, keys) in ids.iter().zip(&keys) {
        let (_, stored) = db.index_get(&mut txn, "t", "i", &keys[0].1).unwrap().expect("key");
        let mut encoded = Vec::new();
        schema.encode(&row(id), &mut encoded).unwrap();
        assert_eq!(stored.bytes(), encoded, "row {id}");
    }
    let half = half as u64;
    let ops = [
        ("update of a row", update, OPS),
        ("update of values", update_values, OPS),
        ("update_with", update_with, OPS),
        ("delete", delete, OPS),
        ("insert of values", insert, half),
        ("insert of a row", insert_row, OPS - half),
    ];
    for (op, window, count) in ops {
        assert_eq!(window.allocs, 0, "{count} warm {op}s: {window}");
    }
}

/// Splits write from page buffers the tree keeps.  Ascending keys fill a
/// three-level tree: every split of the load is a rightmost one, at both
/// levels, so the tree has split at each depth and every leaf and inner
/// node is full.  Keys between the loaded ones then land inside full
/// leaves and split them 50/50, and each full parent 50/50 with its
/// first.  With the pool full and clean before each insert, so that the
/// frames a split fills are clean victims' buffers and nothing reaches
/// the device, an insert that splits a leaf, or a leaf and its parent,
/// allocates nothing.
#[test]
fn splits_allocate_nothing_once_the_tree_has_split_at_that_depth() {
    let noftl = Arc::new(NoFtl::new(example_device(), NoFtlConfig::default()));
    let placement = PlacementConfig::traditional(8, ["i".to_string()]);
    let backend = Arc::new(NoFtlBackend::new(noftl, &placement).unwrap());
    let mut pool = BufferPool::new(backend.clone(), 32);
    let mut tree = BTree::new(backend.create_object("i").unwrap());
    let mut t = SimTime::ZERO;
    for id in 0..RECORDS {
        t = tree.insert(&mut pool, &key(2 * id), RecordId::new(id, 0), t).unwrap();
    }
    let odd: Vec<Vec<u8>> = (0..400).map(|i| key(2 * (i * 4_099 % RECORDS) + 1)).collect();
    let (mut leaf_splits, mut inner_splits) = (0, 0);
    for (i, k) in odd.iter().enumerate() {
        t = pool.flush_all(t).unwrap();
        let pages = tree.page_count();
        let ((), window) =
            counted(|| t = tree.insert(&mut pool, k, RecordId::new(i as u64, 1), t).unwrap());
        match tree.page_count() - pages {
            0 => continue,
            1 => leaf_splits += 1,
            2 => inner_splits += 1,
            grew => panic!("insert {i} added {grew} pages: the root split"),
        }
        assert_eq!(
            window.allocs,
            0,
            "insert {i} split {} nodes: {window}",
            tree.page_count() - pages
        );
    }
    assert!(
        leaf_splits > 0 && inner_splits > 0,
        "{leaf_splits} leaf and {inner_splits} inner splits"
    );
    for (i, k) in odd.iter().enumerate() {
        assert_eq!(tree.search(&mut pool, k, t).unwrap().0, Some(RecordId::new(i as u64, 1)));
    }
}

/// The blocks `device` has programmed since it was built.
#[expect(clippy::unwrap_used, reason = "a test helper: a failed step fails the test")]
fn programmed_blocks(device: &NandDevice) -> usize {
    let g = device.geometry();
    let blocks = (0..g.total_dies()).flat_map(|die| {
        (0..g.planes_per_die)
            .flat_map(move |plane| (0..g.blocks_per_plane).map(move |b| (die, plane, b)))
    });
    let programmed = |&(die, plane, block): &(u32, u32, u32)| {
        let info = device.block_info(BlockAddr::new(DieId(die), plane, block)).unwrap();
        info.write_ptr > 0 || info.erase_count > 0
    };
    blocks.filter(programmed).count()
}

/// A checkpoint of a warm database — one that has checkpointed before —
/// writes its dirty pages back from their buffer frames, its catalog
/// snapshot and the storage manager's directory from buffers their owners
/// keep, and truncates the log: it allocates nothing.  Only the first
/// program of a block since the device was built allocates, that block's
/// payload buffer; those are counted apart, and the run must hold
/// checkpoints that programmed no fresh block and so allocated 0.
#[test]
fn a_checkpoint_of_a_warm_database_allocates_nothing() {
    let (device, db, mut now) = loaded_device(4_096);
    let g = *device.geometry();
    watch(g.pages_per_block as usize * g.page_size as usize);
    now = db.checkpoint(now).unwrap();
    let mut quiet = 0;
    for round in 0..8u64 {
        // Twenty rows spread over the heap: twenty dirty pages and a log
        // force to write back.
        let mut txn = db.begin(now);
        for id in (round..RECORDS).step_by(1_000) {
            let rid = db.index_lookup(&mut txn, "t", "i", &key(id)).unwrap().expect("loaded key");
            db.update_with(&mut txn, "t", rid, |row| row.set_str(1, "w")).unwrap();
        }
        db.commit(&mut txn).unwrap();
        let (flushed, fresh) = (db.buffer_stats().flushed, programmed_blocks(&device));
        let (done, window) = counted(|| db.checkpoint(txn.now).unwrap());
        let fresh = programmed_blocks(&device) - fresh;
        assert!(db.buffer_stats().flushed - flushed >= 20, "round {round} wrote too little back");
        if round == 0 {
            // The second checkpoint writes the other catalog slot first.
            now = done;
            continue;
        }
        assert_eq!(window.allocs, window.watched, "round {round}: {window}");
        assert!(window.watched as usize <= fresh, "round {round}: {fresh} fresh blocks, {window}");
        quiet += usize::from(window.allocs == 0);
        now = done;
    }
    assert!(quiet > 0, "every checkpoint programmed a fresh block");
}

/// A commit under redo logging appends the after-image of each page of
/// its write set borrowed from the page's buffer frame, straight into the
/// log's reused frame buffer, and forces the log: a warm commit that
/// updated ten heap pages copies no page and allocates nothing.  Warm
/// means that the log has wrapped: its segment starts at page 0 again
/// after a checkpoint, so the storage manager's page map of the log no
/// longer grows.  A commit that checkpoints is not counted (a warm
/// checkpoint has a test of its own).  Only the first program of a block
/// since the device was built allocates, that block's payload buffer;
/// those are counted apart, and the run must hold commits that programmed
/// no fresh block and so allocated 0.
#[test]
fn a_warm_redo_commit_allocates_nothing() {
    const PAGES: usize = 10;
    let device = example_device();
    let config = DatabaseConfig { buffer_pages: 256, redo_logging: true, wal_segment_pages: 32 };
    let db = open_db(&device, config);
    db.create_table("t", schema(100), SimTime::ZERO).unwrap();
    // One row on each of ten heap pages.
    let mut txn = db.begin(SimTime::ZERO);
    let mut rids: Vec<RecordId> = Vec::new();
    for id in 0.. {
        let rid = db.insert(&mut txn, "t", &row(id), dbms_engine::NO_KEYS).unwrap();
        if rids.last().is_none_or(|last| last.page != rid.page) {
            if rids.len() == PAGES {
                break;
            }
            rids.push(rid);
        }
    }
    db.commit(&mut txn).unwrap();
    let g = *device.geometry();
    watch(g.pages_per_block as usize * g.page_size as usize);
    let mut now = txn.now;
    let (mut wrapped, mut counted_commits, mut quiet) = (false, 0, 0);
    for round in 0..16 {
        let mut txn = db.begin(now);
        for rid in &rids {
            db.update_with(&mut txn, "t", *rid, |row| row.set_str(1, "w")).unwrap();
        }
        let (fresh, truncations) = (programmed_blocks(&device), db.wal_stats().truncations);
        let (_, window) = counted(|| db.commit(&mut txn).unwrap());
        let fresh = programmed_blocks(&device) - fresh;
        now = txn.now;
        if db.wal_stats().truncations > truncations {
            wrapped = true;
            continue;
        }
        if !wrapped {
            continue;
        }
        assert!(window.largest < PAGE_SIZE, "round {round}: a commit copied a page: {window}");
        assert_eq!(window.allocs, window.watched, "round {round}: {window}");
        assert!(window.watched as usize <= fresh, "round {round}: {fresh} fresh blocks, {window}");
        counted_commits += 1;
        quiet += usize::from(window.allocs == 0);
    }
    assert!(counted_commits >= 4, "{counted_commits} warm commits that did not checkpoint");
    assert!(quiet > 0, "every commit programmed a fresh block");
}

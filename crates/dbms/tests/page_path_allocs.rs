//! Allocation budgets of the page paths: a point read warm and cold, a
//! range scan, and the writes — update, insert and delete.
//!
//! `Database::index_get` on resident pages borrows its way down the
//! B+-tree and into the heap page: no page is copied, no node is decoded
//! and no record either, so a read allocates exactly one thing — the
//! row's bytes, copied out of the frame.  A counting global allocator
//! (per thread, as in `crates/obs/tests/no_alloc.rs`, so parallel tests
//! do not charge each other) holds the path to that.
//! `Database::index_range` over resident leaves copies no key: it
//! allocates its `Vec<RecordId>` as it grows and nothing per row or per
//! leaf.  The writes edit the heap page and the leaf in their buffer
//! frames and copy no page either; an update of a `Row` stores its bytes
//! as they are and allocates nothing.  A point read that misses in a full
//! pool costs no more: the device reads each page into the buffer of the
//! frame it evicts, clean or written back.  CI runs this in `--release`,
//! where the claim matters.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use dbms_engine::{
    ColumnType, Database, DatabaseConfig, NoFtlBackend, Record, RecordId, Schema, Value, PAGE_SIZE,
};
use flash_sim::{DeviceBuilder, FlashGeometry, SimTime, TimingModel};
use noftl_core::{NoFtl, NoFtlConfig, PlacementConfig};

struct CountingAlloc;

thread_local! {
    /// Allocations made by the current thread and the largest of them.
    /// Const-initialised and without destructors, so touching them from
    /// inside the allocator neither allocates nor trips thread teardown.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn count(size: usize) {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    let _ = LARGEST.try_with(|l| l.set(l.get().max(size)));
}

// SAFETY: every call is forwarded unchanged to `System`; the only addition
// is a pair of thread-local cell updates that do not allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const RECORDS: u64 = 20_000;
const KEY_LEN: usize = 24;

fn key(id: u64) -> Vec<u8> {
    format!("user{id:020}").into_bytes()
}

fn row(id: u64) -> Record {
    vec![Value::Str(String::from_utf8(key(id)).unwrap()), Value::Str("v".into())]
}

/// Allocations `f` makes on this thread and the largest of them.
fn counted(f: impl FnOnce()) -> (u64, usize) {
    LARGEST.with(|l| l.set(0));
    let before = ALLOCATIONS.with(Cell::get);
    f();
    (ALLOCATIONS.with(Cell::get) - before, LARGEST.with(Cell::get))
}

/// A database of `RECORDS` rows behind a three-level index, all of it
/// resident: the reads of the warm tests are hits.
fn loaded_db() -> (Database, SimTime) {
    loaded_db_with_pool(4_096)
}

/// [`loaded_db`] with a pool of `buffer_pages` frames.
fn loaded_db_with_pool(buffer_pages: usize) -> (Database, SimTime) {
    let device = Arc::new(
        DeviceBuilder::new(FlashGeometry::example()).timing(TimingModel::instant()).build(),
    );
    let noftl = Arc::new(NoFtl::new(device, NoFtlConfig::default()));
    let placement = PlacementConfig::traditional(8, ["t".to_string()]);
    let backend = Arc::new(NoFtlBackend::new(noftl, &placement).unwrap());
    let config = DatabaseConfig { buffer_pages, ..DatabaseConfig::default() };
    let db = Database::open(backend, config).unwrap();
    let schema =
        Schema::new(vec![("k", ColumnType::Str(KEY_LEN as u16)), ("v", ColumnType::Str(100))]);
    db.create_table("t", schema, SimTime::ZERO).unwrap();
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
    let index_pages = db.table("t").unwrap().index("i").unwrap().tree.page_count();
    assert!(index_pages as usize > max_children + 1, "tree of {index_pages} pages is too shallow");
    (db, now)
}

#[test]
fn warm_index_get_copies_no_page_and_allocates_only_the_rows_bytes() {
    let (db, now) = loaded_db();

    let keys: Vec<Vec<u8>> = (0..200).map(|i| key(i * 97 % RECORDS)).collect();
    let misses_before = db.buffer_stats().misses;
    let mut txn = db.begin(now);
    let (allocs, largest) = counted(|| {
        for k in &keys {
            db.index_get(&mut txn, "t", "i", k).unwrap().expect("loaded key");
        }
    });
    db.commit(&mut txn).unwrap();

    assert_eq!(db.buffer_stats().misses, misses_before, "the reads were meant to be warm");
    assert!(largest < PAGE_SIZE, "a warm read allocated {largest} bytes — a page was copied");
    // Per read: the row's bytes.  Nothing for the descent, nothing to
    // decode.
    assert_eq!(allocs, keys.len() as u64, "allocations for {} warm reads", keys.len());
}

/// With the pool full, point reads whose leaf and heap page miss read
/// each page into the buffer of the frame they evict — a clean one, or a
/// dirty one written back first — and allocate what a warm read does: the
/// row's bytes, and nothing of a page's size.
#[test]
fn cold_index_get_reads_into_the_victims_buffer() {
    let (db, now) = loaded_db_with_pool(32);
    let keys: Vec<Vec<u8>> = (0..200).map(|i| key(i * 97 % RECORDS)).collect();
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
    let (allocs, largest) = counted(|| {
        for k in &keys {
            db.index_get(&mut txn, "t", "i", k).unwrap().expect("loaded key");
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
    assert!(largest < PAGE_SIZE, "a cold read allocated {largest} bytes — a page was allocated");
    assert_eq!(allocs, keys.len() as u64, "allocations for {} cold reads", keys.len());
}

#[test]
fn warm_range_scan_allocates_nothing_per_row() {
    let (db, now) = loaded_db();
    // Key-ordered inserts leave full leaves: enough rows for 100 of them.
    let rows_per_leaf = (PAGE_SIZE - 11) / (2 + KEY_LEN + 10);
    let rows_wanted = 100 * rows_per_leaf + 1;
    let before = db.buffer_stats();
    let mut txn = db.begin(now);
    let (low, mut rids) = (key(1_000), Vec::new());
    let (allocs, _) = counted(|| {
        rids = db.index_range(&mut txn, "t", "i", &low, None, rows_wanted).unwrap();
    });
    db.commit(&mut txn).unwrap();
    let after = db.buffer_stats();

    assert_eq!(rids.len(), rows_wanted);
    assert_eq!(after.misses, before.misses, "warm");
    // Three logical reads are the descent (root, inner node, first leaf);
    // the walk then reads one node per leaf of the chain.
    let leaves = after.logical_reads - before.logical_reads - 3;
    assert!(leaves >= 100, "the scan crossed only {leaves} leaves");
    // The result vector's doublings, one per power of two up to the row
    // count, and no key copy.
    let doublings = u64::from(usize::BITS - rows_wanted.leading_zeros()) + 1;
    assert!(
        allocs <= doublings,
        "{allocs} allocations for {rows_wanted} rows over {leaves} warm leaves (budget {doublings})"
    );
}

/// Warm writes edit their pages where the pool holds them.  Per
/// operation, what is left to allocate is:
///
/// * `update` of a row read before: nothing — 0.  Its bytes are stored
///   as they are;
/// * `insert` of values: the record `Schema::encode` builds — 1.  The
///   index key arrives built, the B+-tree descent copies its internal
///   nodes into the tree's reused path buffer, and the log note is
///   formatted into the log's reused frame buffer;
/// * `delete`: nothing — 0.
///
/// The commit forces the log, which seals a page of its own; it runs
/// outside the counted windows.
#[test]
fn warm_writes_copy_no_page() {
    const OPS: u64 = 20;
    let (db, now) = loaded_db();
    let table = db.table("t").unwrap();
    let tree = &table.index("i").unwrap().tree;
    let mut txn = db.begin(now);
    // Start a fresh heap fill page, so the counted inserts all land in
    // it (a page holds about 30 of these records).
    let (pages, mut id) = (table.heap.page_count(), RECORDS);
    while table.heap.page_count() == pages {
        db.insert(&mut txn, "t", &row(id), &[("i", key(id))]).unwrap();
        id += 1;
    }
    // Rows spread over the tree: each delete makes room in its leaf for
    // the insert of the same key that follows, so no insert splits.
    let ids: Vec<u64> = (0..OPS).map(|i| 1 + i * 997 % RECORDS).collect();
    let rids: Vec<RecordId> = ids
        .iter()
        .map(|&i| db.index_lookup(&mut txn, "t", "i", &key(i)).unwrap().expect("loaded key"))
        .collect();
    let rows: Vec<Record> = ids.iter().map(|&i| row(i)).collect();
    let keys: Vec<[(&str, Vec<u8>); 1]> = ids.iter().map(|&i| [("i", key(i))]).collect();
    let stored: Vec<_> = rids.iter().map(|rid| db.get(&mut txn, "t", *rid).unwrap()).collect();
    let (misses, tree_pages) = (db.buffer_stats().misses, tree.page_count());

    let update = counted(|| {
        for (rid, row) in rids.iter().zip(&stored) {
            db.update(&mut txn, "t", *rid, row).unwrap();
        }
    });
    let delete = counted(|| {
        for (rid, keys) in rids.iter().zip(&keys) {
            db.delete(&mut txn, "t", *rid, keys).unwrap();
        }
    });
    let insert = counted(|| {
        for (row, keys) in rows.iter().zip(&keys) {
            db.insert(&mut txn, "t", row, keys).unwrap();
        }
    });
    db.commit(&mut txn).unwrap();

    assert_eq!(db.buffer_stats().misses, misses, "the writes were meant to be warm");
    assert_eq!(tree.page_count(), tree_pages, "an insert split its leaf");
    for (op, (allocs, largest), per_op) in
        [("update", update, 0), ("delete", delete, 0), ("insert", insert, 1)]
    {
        assert!(largest < PAGE_SIZE, "a warm {op} allocated {largest} bytes — a page was copied");
        assert!(
            allocs <= per_op * OPS,
            "{allocs} allocations for {OPS} warm {op}s (budget {})",
            per_op * OPS
        );
    }
}

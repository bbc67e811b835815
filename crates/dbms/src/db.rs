//! The `Database` facade used by workloads.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::sync::{Arc, Mutex};

use flash_sim::codec::{put_bytes16, put_u32, put_u64, Reader};
use flash_sim::lockorder::{self, LockClass, TrackedGuard};
use flash_sim::{crc32, Duration, SimTime};

use crate::btree::BTree;
use crate::buffer::{BufferPool, BufferStats};
use crate::catalog::TableDef;
use crate::error::DbError;
use crate::heap::{HeapFile, RecordId};
use crate::row::{AsRecord, Row};
use crate::schema::Schema;
use crate::storage::{ObjectId, StorageBackend};
use crate::txn::{Txn, TxnOutcome};
use crate::wal::{Wal, WalRecord, WalStats};
use crate::Result;
use crate::PAGE_SIZE;

/// Name of the storage object holding catalog/metadata pages (appears as
/// `DBMS-metadata` in the paper's Figure 2 placement).
pub const METADATA_OBJECT: &str = "DBMS-metadata";
/// Name of the storage object holding the write-ahead log.
pub const LOG_OBJECT: &str = "DBMS-log";
/// Name of the storage object holding versioned catalog snapshots, written
/// at every checkpoint and read back by [`Database::recover`].
pub const CATALOG_OBJECT: &str = "DBMS-catalog";

/// Pages reserved per catalog-snapshot slot.  Snapshots are written
/// ping-pong into slot `seq % 2`, so a crash that tears the in-progress
/// snapshot always leaves the previous one intact.
const CATALOG_SLOT_PAGES: u64 = 64;

/// Magic of a catalog snapshot's first page (`"DBCT"`).
const CATALOG_MAGIC: u32 = 0x4442_4354;

/// Catalog snapshot header: magic:4 | len:4 | crc:4.  The sequence
/// number is the blob's first field, where the CRC covers it.
const CATALOG_HEADER: usize = 12;

/// A decoded catalog: `(name, schema, index names)` per table.
type CatalogTables = Vec<(String, Schema, Vec<String>)>;

/// A table and the engine state an operation on it borrows beside it.
type Parts<'e> = (&'e mut TableDef, &'e mut BufferPool, &'e mut Wal, &'e mut Vec<u8>);

/// No index keys: for [`Database::insert`] / [`Database::delete`] on a
/// table without indexes.
pub const NO_KEYS: &[(&str, &[u8])] = &[];

/// CPU cost charged to a transaction for each record operation: 2 µs.
const OP_CPU: Duration = Duration(2_000);

/// Charge `txn` one record operation the pool finished at `t`: the wait,
/// one read (or, with `write`, one write) and [`OP_CPU`].
fn charge(txn: &mut Txn, t: SimTime, write: bool) {
    txn.advance_to(t);
    *if write { &mut txn.writes } else { &mut txn.reads } += 1;
    txn.add_cpu(OP_CPU);
}

/// Engine configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DatabaseConfig {
    /// Buffer pool capacity in pages.
    pub buffer_pages: usize,
    /// ARIES-lite redo logging: [`Database::begin`] opens a write set in
    /// the buffer pool, whose frames stay pinned (uncommitted data never
    /// reaches storage — no steal); commits append full after-images of
    /// its pages before the commit record, the log's spilled pages are
    /// durable, and [`Database::recover`] can rebuild all committed state
    /// from the log tail.  Off by default — the paper's space-management
    /// experiments only need the WAL's I/O behaviour.
    pub redo_logging: bool,
    /// Segment-size guard: once the WAL's current segment exceeds this
    /// many pages, the next commit triggers a checkpoint and truncates
    /// the log.
    pub wal_segment_pages: u64,
}

impl Default for DatabaseConfig {
    fn default() -> Self {
        DatabaseConfig { buffer_pages: 2_000, redo_logging: false, wal_segment_pages: 1_024 }
    }
}

/// What [`Database::recover`] found and rebuilt.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// WAL records in the intact log prefix.
    pub wal_records_scanned: u64,
    /// Transactions with a commit record in the log.
    pub committed_txns: u64,
    /// Page after-images replayed by the redo pass.
    pub redo_pages_applied: u64,
    /// Page images skipped because their transaction never committed.
    pub uncommitted_images_skipped: u64,
    /// Sequence number of the catalog snapshot that recovery loaded
    /// (0 = none existed; the catalog starts empty).
    pub catalog_seq: u64,
    /// Tables re-attached from the catalog snapshot.
    pub tables_recovered: u64,
    /// Indexes re-attached from the catalog snapshot.
    pub indexes_recovered: u64,
    /// Tables in the snapshot whose backing object no longer exists
    /// (dropped from the rebuilt catalog).
    pub tables_lost: u64,
}

/// A running database instance.
///
/// Every instance keeps a write-ahead log: the commit of a transaction
/// that wrote forces it, a read-only commit never touches it (see
/// [`Database::commit`]).
///
/// What never changes after [`Database::open`] lies outside the lock;
/// everything that does — the pool, the log, the catalog with its heaps
/// and trees, the counters — is one `Engine` behind one mutex, taken
/// once per call at `Database::lock_engine`.  The closures of
/// [`Database::read`], [`Database::update_with`] and
/// [`Database::index_read`] run under it, so they must not call back
/// into the database: in debug builds the lock-order sanitizer panics
/// ("recursive acquisition of engine") where release builds deadlock.
pub struct Database {
    backend: Arc<dyn StorageBackend>,
    metadata_obj: ObjectId,
    catalog_obj: ObjectId,
    config: DatabaseConfig,
    engine: Mutex<Engine>,
}

/// The mutable state of a [`Database`].
struct Engine {
    pool: BufferPool,
    wal: Wal,
    /// The catalog, by table name; a catalog snapshot lists the tables in
    /// this (name) order.
    tables: BTreeMap<String, TableDef>,
    catalog_seq: u64,
    /// A catalog snapshot's slot bytes (header, blob and the zeros to the
    /// end of its last page), kept from snapshot to snapshot so a
    /// checkpoint of an unchanged catalog allocates nothing.
    catalog_slot: Vec<u8>,
    /// The bytes a [`crate::Record`] of values is encoded into on insert
    /// and update, kept from write to write so none allocates.
    record_buf: Vec<u8>,
    metadata_pages: u64,
    next_txn: u64,
    commits: u64,
    read_only_commits: u64,
    rollbacks: u64,
    /// Set when a commit's log force fails under redo logging: the pool
    /// then holds effects of a transaction that is neither durable nor
    /// undoable.  Its write set stays pinned (no later `begin` or
    /// `rollback` releases it, so no write-back takes its pages), and all
    /// further mutation is refused until the instance is recovered.
    poisoned: bool,
}

/// Append the catalog — table names, schemas, index names, each list in
/// name order — to `blob`.
fn encode_catalog(tables: &BTreeMap<String, TableDef>, seq: u64, blob: &mut Vec<u8>) {
    put_u64(blob, seq);
    put_u32(blob, tables.len() as u32);
    for (name, table) in tables {
        put_bytes16(blob, name.as_bytes());
        table.schema.encode_def(blob);
        put_u32(blob, table.indexes.len() as u32);
        for index in table.indexes.keys() {
            put_bytes16(blob, index.as_bytes());
        }
    }
}

fn ensure_object(backend: &Arc<dyn StorageBackend>, name: &str) -> Result<ObjectId> {
    backend.lookup_object(name).map_or_else(|| backend.create_object(name), Ok)
}

impl Engine {
    /// An engine with an empty catalog and a fresh pool and log (`open`
    /// and `recover` alike).
    fn new(backend: &Arc<dyn StorageBackend>, log_obj: ObjectId, config: &DatabaseConfig) -> Self {
        Engine {
            pool: BufferPool::new(Arc::clone(backend), config.buffer_pages),
            // Without redo logging the log is I/O ballast (the paper's
            // experiments): spilled pages stay volatile, exactly one page
            // write per force, as in the original engine.
            wal: Wal::new(log_obj, config.redo_logging),
            tables: BTreeMap::new(),
            catalog_seq: 0,
            catalog_slot: Vec::new(),
            record_buf: Vec::new(),
            metadata_pages: 0,
            next_txn: 1,
            commits: 0,
            read_only_commits: 0,
            rollbacks: 0,
            poisoned: false,
        }
    }

    fn check_usable(&self) -> Result<()> {
        if self.poisoned {
            return Err(DbError::Storage {
                message: "database is poisoned by a failed commit force; \
                          restart and recover before writing again"
                    .to_string(),
            });
        }
        Ok(())
    }

    /// Table `name`, with the pool, the log and the record buffer beside it.
    fn parts(&mut self, name: &str) -> Result<Parts<'_>> {
        let table = self
            .tables
            .get_mut(name)
            .ok_or_else(|| DbError::not_found(format!("table '{name}'")))?;
        Ok((table, &mut self.pool, &mut self.wal, &mut self.record_buf))
    }

    /// Register table `name`.
    fn add_table(&mut self, name: String, table: TableDef) -> Result<()> {
        if self.tables.contains_key(&name) {
            return Err(DbError::AlreadyExists { what: format!("table '{name}'") });
        }
        self.tables.insert(name, table);
        Ok(())
    }

    /// Write a small catalog-change record into the metadata object.  This
    /// keeps the `DBMS-metadata` object realistically non-empty (it is one
    /// of the objects the paper's Figure 2 places in its own region).
    fn record_metadata_change(
        &mut self,
        db: &Database,
        description: &str,
        now: SimTime,
    ) -> Result<()> {
        let page_no = self.metadata_pages;
        self.metadata_pages += 1;
        let bytes = description.as_bytes();
        let mut page = Vec::with_capacity(PAGE_SIZE);
        put_bytes16(&mut page, &bytes[..bytes.len().min(PAGE_SIZE - 2)]);
        page.resize(PAGE_SIZE, 0);
        self.pool.write_page(db.metadata_obj, page_no, &page, now)?;
        Ok(())
    }

    /// [`Database::read`].
    fn read<R>(
        &mut self,
        txn: &mut Txn,
        table: &str,
        rid: RecordId,
        f: impl FnOnce(&Row<&[u8]>) -> R,
    ) -> Result<R> {
        let (table_def, pool, ..) = self.parts(table)?;
        let schema = &table_def.schema;
        let (read, t) = table_def.heap.read(pool, rid, txn.now, |bytes| {
            Row::new(Arc::clone(schema), bytes).map(|row| f(&row))
        })?;
        charge(txn, t, false);
        read
    }

    /// [`Database::index_lookup`].
    fn lookup(
        &mut self,
        txn: &mut Txn,
        table: &str,
        index: &str,
        key: &[u8],
    ) -> Result<Option<RecordId>> {
        let (table_def, pool, ..) = self.parts(table)?;
        let (found, t) = table_def.index_mut(index)?.search(pool, key, txn.now)?;
        charge(txn, t, false);
        Ok(found)
    }

    /// Release the write set [`Database::begin`] opened, so it can never
    /// leak into a later transaction's log images — unless a failed
    /// commit force poisoned the instance, whose write set stays pinned.
    fn discard_capture(&mut self) {
        if !self.poisoned {
            self.pool.take_capture();
        }
    }

    /// Write a versioned catalog snapshot into slot `seq % 2` of the
    /// catalog object: a header (magic, length, CRC), then the blob (the
    /// sequence number first), from page 0 of the slot on.  A torn snapshot
    /// fails its CRC on recovery and the previous slot is used instead.
    fn write_catalog_snapshot(&mut self, db: &Database, now: SimTime) -> Result<SimTime> {
        let seq = self.catalog_seq + 1;
        let Engine { tables, catalog_slot: slot, .. } = self;
        slot.clear();
        slot.resize(CATALOG_HEADER, 0);
        encode_catalog(tables, seq, slot);
        let (mut header, blob) = slot.split_at_mut(CATALOG_HEADER);
        if blob.len() > CATALOG_SLOT_PAGES as usize * PAGE_SIZE - CATALOG_HEADER {
            return Err(DbError::TooLarge {
                message: format!("catalog snapshot of {} bytes exceeds slot", blob.len()),
            });
        }
        let (len, crc) = ((blob.len() as u32).to_le_bytes(), crc32(blob).to_le_bytes());
        for field in [&CATALOG_MAGIC.to_le_bytes()[..], &len, &crc] {
            // Writing into the header's slice cannot fail.
            let _ = header.write_all(field);
        }
        slot.resize(slot.len().next_multiple_of(PAGE_SIZE), 0);
        let base = (seq % 2) * CATALOG_SLOT_PAGES;
        let mut done = now;
        for (page_no, page) in (base..).zip(slot.chunks(PAGE_SIZE)) {
            done = done.max(db.backend.write_page(db.catalog_obj, page_no, page, now)?);
        }
        self.catalog_seq = seq;
        Ok(done)
    }

    /// [`Database::checkpoint`].
    fn checkpoint(&mut self, db: &Database, now: SimTime) -> Result<SimTime> {
        self.check_usable()?;
        let data_done = self.pool.flush_all(now)?;
        let mut done = data_done.max(self.wal.force(&*db.backend, now)?);
        done = done.max(self.write_catalog_snapshot(db, done)?);
        done = done.max(db.backend.checkpoint(done)?);
        // A pinned page stayed in the pool, and it may also hold committed
        // changes whose only durable copy is their image in the log.
        if self.pool.write_set().is_empty() {
            self.wal.truncate(&*db.backend)?;
            self.wal.append(&WalRecord::Checkpoint);
        }
        Ok(done)
    }
}

impl Database {
    /// Open a database over a storage backend.
    pub fn open(backend: Arc<dyn StorageBackend>, config: DatabaseConfig) -> Result<Self> {
        let metadata_obj = backend.create_object(METADATA_OBJECT)?;
        let catalog_obj = backend.create_object(CATALOG_OBJECT)?;
        let engine = Mutex::new(Engine::new(&backend, backend.create_object(LOG_OBJECT)?, &config));
        Ok(Database { backend, metadata_obj, catalog_obj, config, engine })
    }

    /// The one way to the engine: its mutex, taken as
    /// [`LockClass::Engine`], the first class of the sanitizer's order.
    fn lock_engine(&self) -> TrackedGuard<'_, Engine> {
        lockorder::lock_tracked(LockClass::Engine, &self.engine)
    }

    /// The storage backend.
    pub fn backend(&self) -> &Arc<dyn StorageBackend> {
        &self.backend
    }

    /// Buffer-pool statistics.
    pub fn buffer_stats(&self) -> BufferStats {
        self.lock_engine().pool.stats()
    }

    /// WAL statistics.
    pub fn wal_stats(&self) -> WalStats {
        self.lock_engine().wal.stats()
    }

    /// Committed transaction count (read-only commits included).
    pub fn commit_count(&self) -> u64 {
        self.lock_engine().commits
    }

    /// Commits of transactions that wrote nothing: counted in
    /// [`Database::commit_count`], but they appended no log record and
    /// forced nothing.
    pub fn read_only_commit_count(&self) -> u64 {
        self.lock_engine().read_only_commits
    }

    /// Rolled-back transaction count.
    pub fn rollback_count(&self) -> u64 {
        self.lock_engine().rollbacks
    }

    /// Create a table.
    pub fn create_table(&self, name: &str, schema: Schema, now: SimTime) -> Result<()> {
        if schema.is_empty() {
            return Err(DbError::SchemaMismatch {
                message: format!("table '{name}' needs columns"),
            });
        }
        let mut e = self.lock_engine();
        let obj = self.backend.create_object(name)?;
        let heap = HeapFile::new(obj);
        let schema = Arc::new(schema);
        e.add_table(name.to_string(), TableDef { schema, heap, indexes: BTreeMap::new() })?;
        e.record_metadata_change(self, &format!("CREATE TABLE {name}"), now)
    }

    /// Create a named index on a table.  Key bytes are provided by the
    /// caller on every insert/delete (see [`Database::insert`]), so the
    /// index definition itself carries no column list.
    pub fn create_index(&self, table: &str, index: &str, now: SimTime) -> Result<()> {
        let mut e = self.lock_engine();
        let (table_def, ..) = e.parts(table)?;
        let obj = self.backend.create_object(index)?;
        table_def.indexes.insert(index.to_string(), BTree::new(obj));
        e.record_metadata_change(self, &format!("CREATE INDEX {index} ON {table}"), now)
    }

    /// Lend table `name`'s definition (schema, heap size, indexes, ...)
    /// to `f`, under the engine lock as [`Database::read`] lends a row.
    pub fn with_table<R>(&self, name: &str, f: impl FnOnce(&TableDef) -> R) -> Result<R> {
        Ok(f(self.lock_engine().parts(name)?.0))
    }

    /// Begin a new transaction at simulated time `now`.
    ///
    /// With [`DatabaseConfig::redo_logging`] enabled the pool opens the
    /// transaction's write set here, and pins every page the transaction
    /// writes until its commit's log force returned.  A poisoned instance
    /// opens none: the failed transaction's write set stays pinned.  Like
    /// the rest of the engine's lightweight transaction model, redo
    /// logging assumes one transaction executes at a time (the TPC-C
    /// driver's model).
    pub fn begin(&self, now: SimTime) -> Txn {
        let mut e = self.lock_engine();
        if self.config.redo_logging && !e.poisoned {
            e.pool.begin_capture();
        }
        e.next_txn += 1;
        Txn::begin(e.next_txn - 1, now)
    }

    /// Insert a record — values or a [`Row`] — into a table and register
    /// it under the given index keys (`(index name, key bytes)` pairs).
    /// Values are encoded into a buffer the engine keeps; a row is
    /// stored from its bytes.
    pub fn insert(
        &self,
        txn: &mut Txn,
        table: &str,
        record: &(impl AsRecord + ?Sized),
        index_keys: &[(&str, impl AsRef<[u8]>)],
    ) -> Result<RecordId> {
        let mut e = self.lock_engine();
        e.check_usable()?;
        let (table_def, pool, wal, buf) = e.parts(table)?;
        let encoded = record.encoded(&table_def.schema, buf)?;
        let (rid, t) = table_def.heap.insert(pool, encoded, txn.now)?;
        charge(txn, t, true);
        for (index, key) in index_keys {
            let t = table_def.index_mut(index)?.insert(pool, key.as_ref(), rid, txn.now)?;
            txn.advance_to(t);
            txn.writes += 1;
        }
        wal.append(&WalRecord::RowNote { txn: txn.id, verb: "INSERT", table, rid });
        Ok(rid)
    }

    /// Fetch a record by its id: [`Database::read`], copied into an
    /// owned row, which holds a record of up to
    /// [`crate::row::INLINE_RECORD`] bytes inline and allocates nothing
    /// for it (a longer one takes one heap buffer).
    pub fn get(&self, txn: &mut Txn, table: &str, rid: RecordId) -> Result<Row> {
        self.read(txn, table, rid, |row| row.owned())
    }

    /// Lend the record at `rid` to `f` as a row over its bytes, where the
    /// buffer frame holds them: nothing is copied.  `f` runs under the
    /// engine lock and must not call back into the database.
    pub fn read<R>(
        &self,
        txn: &mut Txn,
        table: &str,
        rid: RecordId,
        f: impl FnOnce(&Row<&[u8]>) -> R,
    ) -> Result<R> {
        self.lock_engine().read(txn, table, rid, f)
    }

    /// Overwrite a record in place (the schema's fixed layout guarantees
    /// the new version fits).  A [`Row`] is stored as it is, unencoded;
    /// values as [`Database::insert`] encodes them.
    pub fn update(
        &self,
        txn: &mut Txn,
        table: &str,
        rid: RecordId,
        record: &(impl AsRecord + ?Sized),
    ) -> Result<()> {
        let mut e = self.lock_engine();
        e.check_usable()?;
        let (table_def, pool, wal, buf) = e.parts(table)?;
        let encoded = record.encoded(&table_def.schema, buf)?;
        let t = table_def.heap.update(pool, rid, encoded, txn.now)?;
        charge(txn, t, true);
        wal.append(&WalRecord::RowNote { txn: txn.id, verb: "UPDATE", table, rid });
        Ok(())
    }

    /// Edit the record at `rid` where its buffer frame holds it: `f` gets
    /// it as a row over its bytes, and what it sets is the update.  Same
    /// accounting as [`Database::update`], same locking rule as
    /// [`Database::read`].
    pub fn update_with<R>(
        &self,
        txn: &mut Txn,
        table: &str,
        rid: RecordId,
        f: impl FnOnce(&mut Row<&mut [u8]>) -> R,
    ) -> Result<R> {
        let mut e = self.lock_engine();
        e.check_usable()?;
        let (table_def, pool, wal, _) = e.parts(table)?;
        let schema = &table_def.schema;
        let (edited, t) = table_def.heap.edit(pool, rid.page, txn.now, |page| {
            let mut row = Row::new(Arc::clone(schema), page.get_mut(rid.slot)?)?;
            Ok((f(&mut row), true))
        })?;
        charge(txn, t, true);
        wal.append(&WalRecord::RowNote { txn: txn.id, verb: "UPDATE", table, rid });
        Ok(edited)
    }

    /// Delete a record and remove the given index keys.
    pub fn delete(
        &self,
        txn: &mut Txn,
        table: &str,
        rid: RecordId,
        index_keys: &[(&str, impl AsRef<[u8]>)],
    ) -> Result<()> {
        let mut e = self.lock_engine();
        e.check_usable()?;
        let (table_def, pool, wal, _) = e.parts(table)?;
        let t = table_def.heap.delete(pool, rid, txn.now)?;
        charge(txn, t, true);
        for (index, key) in index_keys {
            let (_, t) = table_def.index_mut(index)?.delete(pool, key.as_ref(), txn.now)?;
            txn.advance_to(t);
            txn.writes += 1;
        }
        wal.append(&WalRecord::RowNote { txn: txn.id, verb: "DELETE", table, rid });
        Ok(())
    }

    /// Exact-match index lookup, returning the record id if present.
    pub fn index_lookup(
        &self,
        txn: &mut Txn,
        table: &str,
        index: &str,
        key: &[u8],
    ) -> Result<Option<RecordId>> {
        self.lock_engine().lookup(txn, table, index, key)
    }

    /// Index lookup followed by a heap fetch: [`Database::index_read`],
    /// copied into an owned row as [`Database::get`] copies it.
    pub fn index_get(
        &self,
        txn: &mut Txn,
        table: &str,
        index: &str,
        key: &[u8],
    ) -> Result<Option<(RecordId, Row)>> {
        self.index_read(txn, table, index, key, |row| row.owned())
    }

    /// [`Database::index_lookup`] followed by [`Database::read`]: `f`'s
    /// result for the record `key` names, and its id.
    pub fn index_read<R>(
        &self,
        txn: &mut Txn,
        table: &str,
        index: &str,
        key: &[u8],
        f: impl FnOnce(&Row<&[u8]>) -> R,
    ) -> Result<Option<(RecordId, R)>> {
        let mut e = self.lock_engine();
        let found = e.lookup(txn, table, index, key)?;
        found.map(|rid| Ok((rid, e.read(txn, table, rid, f)?))).transpose()
    }

    /// Range scan over an index: hand `visit` the record ids of the first
    /// `limit` keys in `[low, high)`, in key order —
    /// [`crate::btree::BTree::range`]: `high == None` has no upper bound
    /// (a YCSB-style short scan), `limit == usize::MAX` no limit.  `visit`
    /// runs under the engine lock, as [`Database::read`]'s closure does.
    #[expect(
        clippy::too_many_arguments,
        reason = "a range scan names its transaction, table, index, bounds, limit and visitor"
    )]
    pub fn index_range(
        &self,
        txn: &mut Txn,
        table: &str,
        index: &str,
        low: &[u8],
        high: Option<&[u8]>,
        limit: usize,
        mut visit: impl FnMut(RecordId),
    ) -> Result<()> {
        let mut e = self.lock_engine();
        let (table_def, pool, ..) = e.parts(table)?;
        let tree = table_def.index_mut(index)?;
        let t = tree.range(pool, low, high, limit, txn.now, |_, rid| visit(rid))?;
        charge(txn, t, false);
        Ok(())
    }

    /// Prefix scan over an index: hand `visit` the record id of every key
    /// starting with `prefix`, in key order, as [`Database::index_range`]
    /// does.
    pub fn index_prefix(
        &self,
        txn: &mut Txn,
        table: &str,
        index: &str,
        prefix: &[u8],
        mut visit: impl FnMut(RecordId),
    ) -> Result<()> {
        let mut e = self.lock_engine();
        let (table_def, pool, ..) = e.parts(table)?;
        let tree = table_def.index_mut(index)?;
        let in_range = |key: &[u8]| key.starts_with(prefix);
        let t = tree.scan(pool, prefix, in_range, usize::MAX, txn.now, |_, rid| visit(rid))?;
        charge(txn, t, false);
        Ok(())
    }

    /// Commit a transaction.
    ///
    /// A transaction that wrote nothing (`txn.writes == 0`) has nothing
    /// to redo, so its commit appends no log record, forces nothing,
    /// probes no checkpoint and takes no simulated time: a read costs
    /// the page fetches of its misses and nothing else.
    ///
    /// A transaction that wrote appends — with redo logging — the
    /// after-images of every page of its write set, then the commit
    /// record, and forces the log.  The force is the synchronous part of
    /// the commit and is charged to the transaction's response time.  Only
    /// once it returned does the pool release the write set, so its pages
    /// may be written back; if it fails, they stay pinned and the instance
    /// is poisoned.  Once the current WAL segment exceeds the configured
    /// page budget the commit additionally triggers a checkpoint (flush,
    /// catalog snapshot, backend metadata journal) and truncates the log.
    pub fn commit(&self, txn: &mut Txn) -> Result<TxnOutcome> {
        let mut e = self.lock_engine();
        e.check_usable()?;
        if txn.writes == 0 {
            e.discard_capture();
            e.commits += 1;
            e.read_only_commits += 1;
            return Ok(TxnOutcome::Committed);
        }
        let Engine { pool, wal, .. } = &mut *e;
        for &(obj, page) in pool.write_set() {
            if let Some(image) = pool.resident(obj, page) {
                wal.append(&WalRecord::PageImage { txn: txn.id, obj, page, image });
            }
        }
        wal.append(&WalRecord::Commit { txn: txn.id });
        let t = match wal.force(&*self.backend, txn.now) {
            Ok(t) => t,
            Err(err) => {
                // The transaction's pool pages are neither durable nor
                // undoable: keep them pinned and refuse further mutation.
                e.poisoned = self.config.redo_logging;
                return Err(err);
            }
        };
        e.discard_capture();
        txn.advance_to(t);
        e.commits += 1;
        if e.wal.needs_truncation(self.config.wal_segment_pages) {
            let t = e.checkpoint(self, txn.now)?;
            txn.advance_to(t);
        }
        Ok(TxnOutcome::Committed)
    }

    /// Roll back a transaction.  The engine's workloads pre-validate their
    /// inputs before writing (as the TPC-C NewOrder transaction does for
    /// the 1 % "unused item" case), so rollback only has to be recorded
    /// and the captured write set discarded.  A transaction that wrote
    /// nothing leaves no trace in the log either.
    pub fn rollback(&self, txn: &mut Txn) -> TxnOutcome {
        let mut e = self.lock_engine();
        e.discard_capture();
        if txn.writes > 0 {
            e.wal.append(&WalRecord::Rollback { txn: txn.id });
        }
        e.rollbacks += 1;
        TxnOutcome::RolledBack
    }

    /// Write back every dirty buffered page outside the open write set.
    pub fn flush_all(&self, now: SimTime) -> Result<SimTime> {
        self.lock_engine().pool.flush_all(now)
    }

    /// Snapshot the metrics registry of the storage stack underneath,
    /// when the backend exposes one (`NoFtlBackend` does).  The snapshot
    /// spans every layer — flash device, storage manager, WAL and buffer
    /// pool — because they all record into the shared registry.  Counts
    /// are not in it: they live in [`Database::buffer_stats`],
    /// [`Database::wal_stats`], the commit counters and the stats of the
    /// layers below.
    pub fn metrics_snapshot(&self) -> Option<noftl_obs::MetricsSnapshot> {
        self.backend.metrics().map(|registry| registry.snapshot())
    }

    // ------------------------------------------------------------------
    // Crash consistency: checkpoint & recover
    // ------------------------------------------------------------------

    /// Decode a catalog blob into `(seq, tables)`.
    fn decode_catalog(blob: &[u8]) -> Option<(u64, CatalogTables)> {
        let mut r = Reader::new(blob);
        let seq = r.u64()?;
        let tables = (0..r.u32()?)
            .map(|_| {
                let name = r.str16()?.to_owned();
                let schema = Schema::decode_def(&mut r)?;
                let indexes =
                    (0..r.u32()?).map(|_| r.str16().map(str::to_owned)).collect::<Option<_>>()?;
                Some((name, schema, indexes))
            })
            .collect::<Option<_>>()?;
        Some((seq, tables))
    }

    /// Read the newest intact catalog snapshot from storage (`(0, [])`
    /// when neither slot holds one).
    fn read_catalog_snapshot(
        backend: &Arc<dyn StorageBackend>,
        catalog_obj: ObjectId,
        at: SimTime,
    ) -> (u64, CatalogTables) {
        (0..2u64)
            .filter_map(|slot| {
                Self::read_catalog_slot(backend, catalog_obj, slot * CATALOG_SLOT_PAGES, at)
            })
            .fold((0, Vec::new()), |best, slot| if slot.0 > best.0 { slot } else { best })
    }

    /// The catalog snapshot whose slot starts at page `base`, if intact.
    fn read_catalog_slot(
        backend: &Arc<dyn StorageBackend>,
        catalog_obj: ObjectId,
        base: u64,
        at: SimTime,
    ) -> Option<(u64, CatalogTables)> {
        let (first, _) = backend.read_page(catalog_obj, base, at).ok()?;
        let mut r = Reader::new(&first);
        if r.u32()? != CATALOG_MAGIC {
            return None;
        }
        let (len, crc) = (r.u32()? as usize, r.u32()?);
        if len > CATALOG_SLOT_PAGES as usize * PAGE_SIZE - CATALOG_HEADER {
            return None;
        }
        let mut blob = r.take(len.min(PAGE_SIZE - CATALOG_HEADER))?.to_vec();
        let mut page_no = base + 1;
        while blob.len() < len {
            let (page, _) = backend.read_page(catalog_obj, page_no, at).ok()?;
            blob.extend_from_slice(page.get(..(len - blob.len()).min(PAGE_SIZE))?);
            page_no += 1;
        }
        if crc32(&blob) != crc {
            return None;
        }
        Self::decode_catalog(&blob)
    }

    /// Take a full checkpoint: flush every dirty page outside the open
    /// write set, write a catalog snapshot, journal the backend's metadata
    /// (the NoFTL region checkpoint) and finally truncate the WAL.  The
    /// ordering matters: a crash at any point leaves either the previous
    /// checkpoint plus an intact log tail, or the new checkpoint — never a
    /// state recovery cannot handle.  While the open write set pins a page
    /// the log is not truncated: that page stayed in the pool, and the
    /// committed changes it may also hold are durable only in the log.
    ///
    /// The data-page flush and the WAL force are *both issued at `now`*:
    /// the flush leaves the open write set alone, and a commit forces its
    /// log records before it releases its write set, so forcing the log
    /// early can only move it further ahead of the data — the WAL
    /// invariant — while the log and data objects live on different dies
    /// and overlap in simulated time.
    /// This is the group-commit shape of the completion-driven flush
    /// redesign: a checkpoint no longer serialises "all data, then the
    /// log".  Truncation still waits for everything: it only happens
    /// after the flush, the catalog snapshot and the backend checkpoint
    /// are all durable.
    pub fn checkpoint(&self, now: SimTime) -> Result<SimTime> {
        self.lock_engine().checkpoint(self, now)
    }

    /// Recover a database from a crashed (and remounted) storage backend:
    /// read the newest intact catalog snapshot, scan the WAL's surviving
    /// prefix, **redo** the after-images of committed transactions in LSN
    /// order, re-attach heaps and indexes, and finish with a fresh
    /// checkpoint so the recovered state is immediately durable.
    ///
    /// For the NoFTL stack the backend is obtained via `NoFtl::mount`
    /// (which already discarded torn pages by checksum) wrapped in
    /// `NoFtlBackend::attach`.
    pub fn recover(
        backend: Arc<dyn StorageBackend>,
        config: DatabaseConfig,
        now: SimTime,
    ) -> Result<(Database, RecoveryReport)> {
        let mut report = RecoveryReport::default();
        let metadata_obj = ensure_object(&backend, METADATA_OBJECT)?;
        let catalog_obj = ensure_object(&backend, CATALOG_OBJECT)?;
        let log_obj = ensure_object(&backend, LOG_OBJECT)?;

        // ---- Redo pass -------------------------------------------------
        let (stream, mut t) = Wal::scan(&*backend, log_obj, now)?;
        let records: Vec<_> = Wal::records(&stream).collect();
        report.wal_records_scanned = records.len() as u64;
        let mut max_txn = 0u64;
        let mut committed = std::collections::HashSet::new();
        for (_, record) in &records {
            match *record {
                WalRecord::Commit { txn } => {
                    committed.insert(txn);
                    max_txn = max_txn.max(txn);
                }
                WalRecord::Note { txn, .. }
                | WalRecord::RowNote { txn, .. }
                | WalRecord::PageImage { txn, .. }
                | WalRecord::Rollback { txn } => max_txn = max_txn.max(txn),
                WalRecord::Checkpoint => {}
            }
        }
        report.committed_txns = committed.len() as u64;
        for (_, record) in &records {
            if let WalRecord::PageImage { txn, obj, page, image } = *record {
                if committed.contains(&txn) {
                    let t_w = backend.write_page(obj, page, image, t)?;
                    t = t.max(t_w);
                    report.redo_pages_applied += 1;
                } else {
                    report.uncommitted_images_skipped += 1;
                }
            }
        }

        // ---- Catalog rebuild ------------------------------------------
        let (catalog_seq, tables) = Self::read_catalog_snapshot(&backend, catalog_obj, t);
        report.catalog_seq = catalog_seq;
        let mut e = Engine::new(&backend, log_obj, &config);
        for (name, schema, index_names) in tables {
            let Some(heap_obj) = backend.lookup_object(&name) else {
                report.tables_lost += 1;
                continue;
            };
            let extent = backend.object_extent(heap_obj)?;
            let (heap, t_attach) = HeapFile::attach(heap_obj, &mut e.pool, extent, t)?;
            t = t.max(t_attach);
            let mut indexes = BTreeMap::new();
            for index in index_names {
                let Some(index_obj) = backend.lookup_object(&index) else { continue };
                let extent = backend.object_extent(index_obj)?;
                let (tree, t_attach) = BTree::attach(index_obj, &mut e.pool, extent, t)?;
                t = t.max(t_attach);
                indexes.insert(index, tree);
                report.indexes_recovered += 1;
            }
            e.add_table(name, TableDef { schema: Arc::new(schema), heap, indexes })?;
            report.tables_recovered += 1;
        }

        // ---- Reset the log: free the replayed history and restart the
        // stream at page 0 (page numbers are reused across truncations).
        for page_no in 0..backend.object_extent(log_obj)? {
            let _ = backend.free_page(log_obj, page_no);
        }
        let metadata_pages = backend.object_extent(metadata_obj)?;
        let engine = Engine { catalog_seq, metadata_pages, next_txn: max_txn + 1, ..e };
        let db =
            Database { backend, metadata_obj, catalog_obj, config, engine: Mutex::new(engine) };
        // Make the recovered state durable right away.
        db.checkpoint(t)?;
        Ok((db, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ColumnType;
    use crate::storage::NoFtlBackend;
    use crate::value::{composite_key, Record, Value};
    use flash_sim::{DeviceBuilder, FlashGeometry, TimingModel};
    use noftl_core::{NoFtl, NoFtlConfig, PlacementConfig};

    fn open_db(buffer_pages: usize) -> Database {
        let device = Arc::new(
            DeviceBuilder::new(FlashGeometry::example()).timing(TimingModel::mlc_2015()).build(),
        );
        let noftl = Arc::new(NoFtl::new(device, NoFtlConfig::default()));
        let placement = PlacementConfig::traditional(8, [METADATA_OBJECT.to_string()]);
        let backend = Arc::new(NoFtlBackend::new(noftl, &placement).unwrap());
        Database::open(backend, DatabaseConfig { buffer_pages, ..Default::default() }).unwrap()
    }

    fn customer_schema() -> Schema {
        Schema::new(vec![
            ("c_id", ColumnType::Int),
            ("c_w_id", ColumnType::Int),
            ("c_balance", ColumnType::Float),
            ("c_last", ColumnType::Str(16)),
        ])
    }

    fn customer(id: i64, w: i64, balance: f64, last: &str) -> Record {
        vec![Value::Int(id), Value::Int(w), Value::Float(balance), Value::Str(last.into())]
    }

    #[test]
    fn create_insert_lookup_update_delete() {
        let db = open_db(256);
        let t0 = SimTime::ZERO;
        db.create_table("customer", customer_schema(), t0).unwrap();
        db.create_index("customer", "c_idx", t0).unwrap();
        let mut txn = db.begin(t0);
        let key = composite_key(&[1, 42]);
        let rid = db
            .insert(
                &mut txn,
                "customer",
                &customer(42, 1, 10.0, "BARBARBAR"),
                &[("c_idx", key.clone())],
            )
            .unwrap();
        assert!(txn.writes >= 2);
        // Point lookup through the index.
        let (found_rid, rec) = db.index_get(&mut txn, "customer", "c_idx", &key).unwrap().unwrap();
        assert_eq!(found_rid, rid);
        assert_eq!((rec.int(0), rec.str(3)), (42, "BARBARBAR".into()));
        // Update in place, from values and from the row.
        db.update(&mut txn, "customer", rid, &customer(42, 1, 99.5, "BARBARBAR")).unwrap();
        let mut rec = db.get(&mut txn, "customer", rid).unwrap();
        assert_eq!(rec.float(2), 99.5);
        rec.set_str(3, "FOO");
        db.update(&mut txn, "customer", rid, &rec).unwrap();
        let rec = db.get(&mut txn, "customer", rid).unwrap();
        let mut encoded = Vec::new();
        customer_schema().encode(&customer(42, 1, 99.5, "FOO"), &mut encoded).unwrap();
        assert_eq!(rec.bytes(), encoded);
        // A read lends the row where it lies; an edit in place is an
        // update as `update` counts one, and stores what `update` would.
        let (reads, writes) = (txn.reads, txn.writes);
        let (found, last) = db
            .index_read(&mut txn, "customer", "c_idx", &key, |r| r.str(3).into_owned())
            .unwrap()
            .unwrap();
        assert_eq!((found, last.as_str()), (rid, "FOO"));
        let old = db
            .update_with(&mut txn, "customer", rid, |r| {
                let old = r.float(2);
                r.set_float(2, old + 0.5);
                r.set_str(3, "BARBAZ");
                old
            })
            .unwrap();
        assert_eq!(old, 99.5);
        customer_schema().encode(&customer(42, 1, 100.0, "BARBAZ"), &mut encoded).unwrap();
        assert!(db.read(&mut txn, "customer", rid, |r| r.bytes() == encoded).unwrap());
        assert_eq!((txn.reads, txn.writes), (reads + 3, writes + 1));
        assert!(db.update_with(&mut txn, "customer", RecordId::new(0, 99), |_| ()).is_err());
        assert!(db.read(&mut txn, "customer", RecordId::new(0, 99), |_| ()).is_err());
        assert_eq!(txn.writes, writes + 1, "a refused edit is not counted");
        // Delete removes heap record and index entry.
        db.delete(&mut txn, "customer", rid, &[("c_idx", key.clone())]).unwrap();
        assert!(db.get(&mut txn, "customer", rid).is_err());
        assert!(db.index_lookup(&mut txn, "customer", "c_idx", &key).unwrap().is_none());
        assert_eq!(db.commit(&mut txn).unwrap(), TxnOutcome::Committed);
        assert_eq!(db.commit_count(), 1);
        assert!(txn.elapsed() > Duration::ZERO);
    }

    #[test]
    fn commit_forces_the_log() {
        let db = open_db(128);
        db.create_table("t", customer_schema(), SimTime::ZERO).unwrap();
        let mut txn = db.begin(SimTime::ZERO);
        db.insert(&mut txn, "t", &customer(1, 1, 0.0, "X"), NO_KEYS).unwrap();
        let before = txn.now;
        db.commit(&mut txn).unwrap();
        assert!(txn.now > before, "the WAL force must take simulated time");
        assert_eq!(db.wal_stats().forces, 1);
        assert!(db.wal_stats().records >= 2);
    }

    #[test]
    fn read_only_commit_costs_nothing_and_a_writer_forces_once() {
        let db = open_db(128);
        let t0 = SimTime::ZERO;
        db.create_table("t", customer_schema(), t0).unwrap();
        db.create_index("t", "i", t0).unwrap();
        let key = composite_key(&[1, 1]);
        let mut writer = db.begin(t0);
        db.insert(&mut writer, "t", &customer(1, 1, 0.0, "X"), &[("i", key.clone())]).unwrap();
        db.commit(&mut writer).unwrap();
        assert_eq!(db.wal_stats().forces, 1, "a writer forces exactly once");
        assert_eq!(db.read_only_commit_count(), 0);

        let wal_before = db.wal_stats();
        let mut reader = db.begin(writer.now);
        assert!(db.index_get(&mut reader, "t", "i", &key).unwrap().is_some());
        let before = reader.now;
        assert_eq!(db.commit(&mut reader).unwrap(), TxnOutcome::Committed);
        assert_eq!(reader.now, before, "a read-only commit takes no simulated time");
        assert_eq!(db.wal_stats(), wal_before, "no record, no force");
        assert_eq!(db.commit_count(), 2);
        assert_eq!(db.read_only_commit_count(), 1);

        // A rollback that wrote nothing leaves no trace in the log either.
        let mut aborted = db.begin(reader.now);
        db.index_lookup(&mut aborted, "t", "i", &key).unwrap();
        db.rollback(&mut aborted);
        assert_eq!(db.wal_stats(), wal_before);
        assert_eq!(db.rollback_count(), 1);
    }

    fn redo_config() -> DatabaseConfig {
        DatabaseConfig { buffer_pages: 64, redo_logging: true, ..Default::default() }
    }

    fn restart_placement() -> PlacementConfig {
        PlacementConfig::traditional(8, [METADATA_OBJECT.to_string()])
    }

    /// A fresh device and the NoFTL backend of [`restart_placement`] on it.
    fn redo_backend() -> (Arc<flash_sim::NandDevice>, Arc<NoFtlBackend>) {
        let device = Arc::new(
            DeviceBuilder::new(FlashGeometry::example()).timing(TimingModel::mlc_2015()).build(),
        );
        let noftl = Arc::new(NoFtl::new(device.clone(), NoFtlConfig::default()));
        (device, Arc::new(NoFtlBackend::new(noftl, &restart_placement()).unwrap()))
    }

    /// A redo-logging database with an indexed `customer` table on a
    /// fresh device, checkpointed after the DDL.
    fn open_redo_customer_db() -> (Arc<flash_sim::NandDevice>, Database, SimTime) {
        let (device, backend) = redo_backend();
        let db = Database::open(backend, redo_config()).unwrap();
        db.create_table("customer", customer_schema(), SimTime::ZERO).unwrap();
        db.create_index("customer", "c_idx", SimTime::ZERO).unwrap();
        let t = db.checkpoint(SimTime::ZERO).unwrap();
        (device, db, t)
    }

    /// Reboot: power-cycle the device, remount, recover.
    fn reboot_and_recover(
        device: &flash_sim::NandDevice,
        at: SimTime,
    ) -> (Database, RecoveryReport, SimTime) {
        let device2 = noftl_core::crash::power_cycle(device).unwrap();
        let (noftl2, mount) = NoFtl::mount(device2, at).unwrap();
        let backend2 =
            Arc::new(NoFtlBackend::attach(Arc::new(noftl2), &restart_placement()).unwrap());
        let (db2, report) = Database::recover(backend2, redo_config(), mount.completed_at).unwrap();
        (db2, report, mount.completed_at)
    }

    /// Two writers under redo logging, optionally with a read-only
    /// transaction (plus a DDL page write while its capture is open)
    /// between them; crash, recover.  Returns the log records the second
    /// writer appended, the recovery report and the recovered balances.
    fn two_writers_then_recover(with_reader: bool) -> (u64, RecoveryReport, Vec<f64>) {
        let (device, db, mut now) = open_redo_customer_db();
        let insert = |id: i64, now: SimTime| {
            let mut txn = db.begin(now);
            let key = composite_key(&[1, id]);
            db.insert(&mut txn, "customer", &customer(id, 1, id as f64, "W"), &[("c_idx", key)])
                .unwrap();
            db.commit(&mut txn).unwrap();
            txn.now
        };
        now = insert(1, now);
        if with_reader {
            let mut reader = db.begin(now);
            db.index_get(&mut reader, "customer", "c_idx", &composite_key(&[1, 1])).unwrap();
            // A page written outside any transaction while the reader's
            // capture is open must not surface in the next writer's log.
            db.lock_engine().record_metadata_change(&db, "NOTE", reader.now).unwrap();
            db.commit(&mut reader).unwrap();
            now = reader.now;
        }
        let records_before = db.wal_stats().records;
        now = insert(2, now);
        let second_writer_records = db.wal_stats().records - records_before;

        let (db2, report, recovered_at) = reboot_and_recover(&device, now);
        let mut txn = db2.begin(recovered_at);
        let balances = [1, 2]
            .iter()
            .map(|id| {
                let key = composite_key(&[1, *id]);
                db2.index_get(&mut txn, "customer", "c_idx", &key).unwrap().unwrap().1.float(2)
            })
            .collect();
        (second_writer_records, report, balances)
    }

    #[test]
    fn read_only_txn_between_writers_leaves_no_trace_in_log_or_recovery() {
        let (records, report, balances) = two_writers_then_recover(false);
        let (records_r, report_r, balances_r) = two_writers_then_recover(true);
        // Heap page + index page images, one note, one commit record.
        assert_eq!(records, 4);
        assert_eq!(records_r, records, "the second writer logs only its own page images");
        assert_eq!(
            report_r, report,
            "recovery after a read-only transaction equals recovery without"
        );
        assert_eq!(balances_r, balances);
        assert_eq!(balances, vec![1.0, 2.0]);
    }

    /// A table of two rows per page: an `Int` key and an 1 800-byte pad.
    fn wide_schema() -> Schema {
        Schema::new(vec![("k", ColumnType::Int), ("pad", ColumnType::Str(1800))])
    }

    /// Insert rows `keys` of [`wide_schema`] in one transaction begun at
    /// `now`, and commit it.
    fn insert_wide(db: &Database, keys: std::ops::Range<i64>, now: SimTime) -> Result<Txn> {
        let mut txn = db.begin(now);
        for k in keys {
            db.insert(&mut txn, "wide", &vec![Value::Int(k), Value::Str("p".into())], NO_KEYS)?;
        }
        db.commit(&mut txn)?;
        Ok(txn)
    }

    #[test]
    fn a_transaction_whose_write_set_fits_the_pool_commits() {
        let (device, backend) = redo_backend();
        let config = DatabaseConfig { buffer_pages: 8, ..redo_config() };
        let db = Database::open(backend, config).unwrap();
        db.create_table("wide", wide_schema(), SimTime::ZERO).unwrap();
        let t = db.checkpoint(SimTime::ZERO).unwrap();
        // Five dirty committed pages, then a write set of four more: the
        // committed ones make room for it.
        let a = insert_wide(&db, 0..10, t).unwrap();
        let b = insert_wide(&db, 10..18, a.now).unwrap();
        assert!(db.buffer_stats().dirty_writebacks > 0, "committed pages are written back");
        let (db2, report, _) = reboot_and_recover(&device, b.now);
        assert_eq!(report.committed_txns, 2);
        assert_eq!(db2.with_table("wide", |t| t.heap.record_count()).unwrap(), 18);
    }

    #[test]
    fn an_uncommitted_row_never_survives_a_write_back() {
        for checkpoint in [false, true] {
            let (device, db, t) = open_redo_customer_db();
            let mut txn = db.begin(t);
            let key = composite_key(&[1, 9]);
            db.insert(&mut txn, "customer", &customer(9, 1, 9.0, "OPEN"), &[("c_idx", &key)])
                .unwrap();
            let written = if checkpoint { db.checkpoint(txn.now) } else { db.flush_all(txn.now) };
            txn.advance_to(written.unwrap());
            let (db2, report, at) = reboot_and_recover(&device, txn.now);
            assert_eq!(report.committed_txns, 0, "checkpoint: {checkpoint}");
            let mut reader = db2.begin(at);
            let found = db2.index_lookup(&mut reader, "customer", "c_idx", &key).unwrap();
            assert_eq!(found, None, "checkpoint: {checkpoint}");
            assert_eq!(db2.with_table("customer", |t| t.heap.record_count()).unwrap(), 0);
            // Committed, the row survives the next reboot.
            db.commit(&mut txn).unwrap();
            let (db3, _, at) = reboot_and_recover(&device, txn.now);
            let mut reader = db3.begin(at);
            let found = db3.index_get(&mut reader, "customer", "c_idx", &key).unwrap();
            assert_eq!(found.map(|(_, row)| row.int(0)), Some(9), "checkpoint: {checkpoint}");
        }
    }

    #[test]
    fn a_checkpoint_inside_a_transaction_keeps_the_log_of_the_pages_it_pinned() {
        let (device, db, t) = open_redo_customer_db();
        let insert = |txn: &mut Txn, id: i64| {
            let key = composite_key(&[1, id]);
            db.insert(txn, "customer", &customer(id, 1, 0.0, "X"), &[("c_idx", key)]).unwrap();
        };
        let mut committed = db.begin(t);
        insert(&mut committed, 1);
        db.commit(&mut committed).unwrap();
        // The open transaction pins the heap page and the leaf that also
        // hold the committed row, so the checkpoint cannot write them.
        let mut open = db.begin(committed.now);
        insert(&mut open, 2);
        let done = db.checkpoint(open.now).unwrap();
        let (db2, report, at) = reboot_and_recover(&device, done);
        assert_eq!(report.committed_txns, 1, "the committed images are still in the log");
        let mut reader = db2.begin(at);
        let mut found = |id| {
            db2.index_lookup(&mut reader, "customer", "c_idx", &composite_key(&[1, id])).unwrap()
        };
        assert!(found(1).is_some());
        assert!(found(2).is_none());
    }

    /// [`NoFtlBackend`] whose log writes fail while `fail` is set, on a
    /// device that stays powered.
    struct FailingLog {
        inner: NoFtlBackend,
        fail: std::sync::atomic::AtomicBool,
    }

    impl StorageBackend for FailingLog {
        fn page_size(&self) -> u32 {
            self.inner.page_size()
        }
        fn create_object(&self, name: &str) -> Result<ObjectId> {
            self.inner.create_object(name)
        }
        fn lookup_object(&self, name: &str) -> Option<ObjectId> {
            self.inner.lookup_object(name)
        }
        fn object_extent(&self, obj: ObjectId) -> Result<u64> {
            self.inner.object_extent(obj)
        }
        fn checkpoint(&self, at: SimTime) -> Result<SimTime> {
            self.inner.checkpoint(at)
        }
        fn read_page(&self, obj: ObjectId, page: u64, at: SimTime) -> Result<(Vec<u8>, SimTime)> {
            self.inner.read_page(obj, page, at)
        }
        fn read_windowed(
            &self,
            reads: &[(ObjectId, u64)],
            at: SimTime,
            window: usize,
        ) -> Result<(Vec<Vec<u8>>, SimTime)> {
            self.inner.read_windowed(reads, at, window)
        }
        fn write_page(
            &self,
            obj: ObjectId,
            page: u64,
            data: &[u8],
            at: SimTime,
        ) -> Result<SimTime> {
            self.inner.write_page(obj, page, data, at)
        }
        fn write_windowed(
            &self,
            writes: &[(ObjectId, u64, Vec<u8>)],
            at: SimTime,
            window: usize,
        ) -> Result<SimTime> {
            let log = self.inner.lookup_object(LOG_OBJECT);
            let failing = self.fail.load(std::sync::atomic::Ordering::Relaxed);
            if failing && writes.iter().any(|w| Some(w.0) == log) {
                return Err(DbError::Storage { message: "log write failed".into() });
            }
            self.inner.write_windowed(writes, at, window)
        }
        fn metrics(&self) -> Option<&Arc<noftl_obs::MetricsRegistry>> {
            self.inner.metrics()
        }
        fn free_page(&self, obj: ObjectId, page: u64) -> Result<()> {
            self.inner.free_page(obj, page)
        }
        fn io_counts(&self) -> (u64, u64) {
            self.inner.io_counts()
        }
    }

    #[test]
    fn a_failed_commit_force_keeps_the_write_set_pinned() {
        let device = Arc::new(
            DeviceBuilder::new(FlashGeometry::example()).timing(TimingModel::mlc_2015()).build(),
        );
        let noftl = Arc::new(NoFtl::new(device.clone(), NoFtlConfig::default()));
        let inner = NoFtlBackend::new(noftl, &restart_placement()).unwrap();
        let backend = Arc::new(FailingLog { inner, fail: false.into() });
        let config = DatabaseConfig { buffer_pages: 8, ..redo_config() };
        let db = Database::open(backend.clone(), config).unwrap();
        db.create_table("wide", wide_schema(), SimTime::ZERO).unwrap();
        // Sixteen committed rows on eight pages, all of them on flash.
        let mut txn = db.begin(SimTime::ZERO);
        let rids: Vec<RecordId> = (0..16)
            .map(|k| {
                let row = vec![Value::Int(k), Value::Str("p".into())];
                db.insert(&mut txn, "wide", &row, NO_KEYS).unwrap()
            })
            .collect();
        db.commit(&mut txn).unwrap();
        let t = db.checkpoint(txn.now).unwrap();
        // The force of a transaction that wrote two pages fails.
        backend.fail.store(true, std::sync::atomic::Ordering::Relaxed);
        assert!(insert_wide(&db, 16..20, t).is_err());
        let before = db.buffer_stats();
        // Reads that miss in the full pool leave the failed pages alone,
        // and so does the next transaction after a rollback.
        let mut now = t;
        for _ in 0..2 {
            let mut reader = db.begin(now);
            for rid in &rids {
                assert!(db.read(&mut reader, "wide", *rid, |row| row.int(0)).is_ok());
            }
            db.rollback(&mut reader);
            now = reader.now;
        }
        let after = db.buffer_stats();
        assert!(after.misses > before.misses, "the reads missed");
        assert_eq!(after.dirty_writebacks, before.dirty_writebacks);
        // Nor does a flush, and the reboot finds the committed rows only.
        let done = db.flush_all(now).unwrap();
        let (db2, report, _) = reboot_and_recover(&device, done);
        assert_eq!(report.committed_txns, 0);
        assert_eq!(db2.with_table("wide", |t| t.heap.record_count()).unwrap(), 16);
    }

    #[test]
    fn catalog_snapshots_reject_every_prefix_and_a_flipped_byte() {
        let db = open_db(64);
        db.create_table("customer", customer_schema(), SimTime::ZERO).unwrap();
        db.create_index("customer", "c_idx", SimTime::ZERO).unwrap();
        let mut blob = Vec::new();
        encode_catalog(&db.lock_engine().tables, 5, &mut blob);
        let tables = vec![("customer".to_string(), customer_schema(), vec!["c_idx".to_string()])];
        assert_eq!(Database::decode_catalog(&blob), Some((5, tables.clone())));
        for n in 0..blob.len() {
            assert_eq!(Database::decode_catalog(&blob[..n]), None, "prefix of {n} bytes");
        }
        let mut flipped = blob.clone();
        flipped[8] ^= 0x02; // one table becomes three: the blob runs out
        assert_eq!(Database::decode_catalog(&flipped), None);

        // On storage the CRC in the `DBCT` header catches any flipped byte.
        let backend = db.backend();
        let t = db.lock_engine().write_catalog_snapshot(&db, SimTime::ZERO).unwrap();
        assert_eq!(Database::read_catalog_snapshot(backend, db.catalog_obj, t), (1, tables));
        let slot = CATALOG_SLOT_PAGES; // seq 1 lives in slot 1
        let (mut page, _) = backend.read_page(db.catalog_obj, slot, t).unwrap();
        page[CATALOG_HEADER] ^= 0x01;
        let t = backend.write_page(db.catalog_obj, slot, &page, t).unwrap();
        assert_eq!(Database::read_catalog_snapshot(backend, db.catalog_obj, t), (0, Vec::new()));
    }

    /// A catalog of three pages, in both slots: each snapshot reads back
    /// whole, and the newest wins.
    #[test]
    fn a_catalog_snapshot_spanning_pages_reads_back() {
        let db = open_db(64);
        let mut tables = Vec::new();
        for i in 0..40 {
            let name = format!("table_{i:02}_{}", "x".repeat(100));
            db.create_table(&name, customer_schema(), SimTime::ZERO).unwrap();
            db.create_index(&name, &format!("{name}_idx"), SimTime::ZERO).unwrap();
            tables.push((name.clone(), customer_schema(), vec![format!("{name}_idx")]));
        }
        let mut t = SimTime::ZERO;
        for seq in 1..=2 {
            t = db.lock_engine().write_catalog_snapshot(&db, t).unwrap();
            let slot = db.lock_engine().catalog_slot.len();
            assert_eq!(slot, 3 * PAGE_SIZE, "snapshot {seq} spans three pages");
            let read = Database::read_catalog_snapshot(db.backend(), db.catalog_obj, t);
            assert_eq!(read, (seq, tables.clone()));
        }
    }

    /// A closure lent a row runs under the engine lock: calling back into
    /// the database is a recursive acquisition, which the sanitizer turns
    /// into a panic instead of a self-deadlock.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "recursive acquisition of engine")]
    fn a_read_closure_that_calls_back_into_the_database_panics() {
        let db = open_db(64);
        db.create_table("t", customer_schema(), SimTime::ZERO).unwrap();
        let mut txn = db.begin(SimTime::ZERO);
        let rid = db.insert(&mut txn, "t", &customer(1, 1, 0.0, "X"), NO_KEYS).unwrap();
        let _ = db.read(&mut txn, "t", rid, |_| db.buffer_stats());
    }

    /// A second table or index of a taken name is refused as such: the
    /// storage manager's duplicate object surfaces as `AlreadyExists`.
    #[test]
    fn a_duplicate_table_or_index_name_is_already_exists() {
        let db = open_db(64);
        let t0 = SimTime::ZERO;
        db.create_table("customer", customer_schema(), t0).unwrap();
        db.create_index("customer", "c_idx", t0).unwrap();
        let err = db.create_table("customer", customer_schema(), t0).unwrap_err();
        assert!(matches!(err, DbError::AlreadyExists { .. }), "{err}");
        let err = db.create_index("customer", "c_idx", t0).unwrap_err();
        assert!(matches!(err, DbError::AlreadyExists { .. }), "{err}");
    }

    #[test]
    fn rollback_is_counted() {
        let db = open_db(128);
        let mut txn = db.begin(SimTime::ZERO);
        assert_eq!(db.rollback(&mut txn), TxnOutcome::RolledBack);
        assert_eq!(db.rollback_count(), 1);
        assert_eq!(db.commit_count(), 0);
    }

    #[test]
    fn index_range_and_prefix_queries() {
        let db = open_db(512);
        let t0 = SimTime::ZERO;
        db.create_table("orderline", customer_schema(), t0).unwrap();
        db.create_index("orderline", "ol_idx", t0).unwrap();
        let mut txn = db.begin(t0);
        for o in 1..=20i64 {
            for line in 1..=5i64 {
                let key = composite_key(&[1, 1, o, line]);
                db.insert(&mut txn, "orderline", &customer(o, line, 1.0, "L"), &[("ol_idx", key)])
                    .unwrap();
            }
        }
        // All lines of order 7, handed out in key order.
        let mut rids = Vec::new();
        let prefix = composite_key(&[1, 1, 7]);
        db.index_prefix(&mut txn, "orderline", "ol_idx", &prefix, |rid| rids.push(rid)).unwrap();
        assert_eq!(rids.len(), 5);
        let lines: Vec<i64> = rids
            .iter()
            .map(|rid| db.read(&mut txn, "orderline", *rid, |r| r.int(1)).unwrap())
            .collect();
        assert_eq!(lines, [1, 2, 3, 4, 5]);
        // Orders 5..10 (exclusive), then the first 3 keys from order 5 on.
        let (low, high) = (composite_key(&[1, 1, 5]), composite_key(&[1, 1, 10]));
        let mut all = Vec::new();
        db.index_range(&mut txn, "orderline", "ol_idx", &low, Some(&high), usize::MAX, |rid| {
            all.push(rid)
        })
        .unwrap();
        assert_eq!(all.len(), 25);
        let mut first = Vec::new();
        db.index_range(&mut txn, "orderline", "ol_idx", &low, None, 3, |rid| first.push(rid))
            .unwrap();
        assert_eq!(first, all[..3]);
        let mut none = 0;
        db.index_prefix(&mut txn, "orderline", "ol_idx", &composite_key(&[2]), |_| none += 1)
            .unwrap();
        assert_eq!(none, 0);
    }

    #[test]
    fn errors_for_unknown_entities() {
        let db = open_db(64);
        let mut txn = db.begin(SimTime::ZERO);
        assert!(db.get(&mut txn, "nope", RecordId::new(0, 0)).is_err());
        assert!(db.insert(&mut txn, "nope", &Record::new(), NO_KEYS).is_err());
        assert!(db.create_index("nope", "i", SimTime::ZERO).is_err());
        db.create_table("t", customer_schema(), SimTime::ZERO).unwrap();
        assert!(db.index_lookup(&mut txn, "t", "missing_idx", b"k").is_err());
        // Duplicate table / index names.
        assert!(db.create_table("t", customer_schema(), SimTime::ZERO).is_err());
        db.create_index("t", "i", SimTime::ZERO).unwrap();
        assert!(db.create_index("t", "i", SimTime::ZERO).is_err());
        // Schema mismatch on insert, and a row of another table's schema.
        assert!(db.insert(&mut txn, "t", &vec![Value::Int(1)], NO_KEYS).is_err());
        let ids = Schema::new(vec![("id", ColumnType::Int)]);
        db.create_table("ids", ids, SimTime::ZERO).unwrap();
        let rid = db.insert(&mut txn, "ids", &vec![Value::Int(1)], NO_KEYS).unwrap();
        let row = db.get(&mut txn, "ids", rid).unwrap();
        let rid = db.insert(&mut txn, "t", &customer(1, 1, 0.0, "X"), NO_KEYS).unwrap();
        for mismatch in
            [db.update(&mut txn, "t", rid, &row), db.insert(&mut txn, "t", &row, NO_KEYS).map(drop)]
        {
            assert!(matches!(mismatch, Err(DbError::SchemaMismatch { .. })));
        }
        // Empty schema rejected.
        assert!(db.create_table("empty", Schema::new(vec![]), SimTime::ZERO).is_err());
    }

    #[test]
    fn clean_restart_recovers_catalog_and_data() {
        let (device, db, t) = open_redo_customer_db();
        // A committed transaction after the checkpoint lives only in the
        // WAL tail: nothing wrote its pages back before the reboot.
        let mut txn = db.begin(t);
        let key = composite_key(&[1, 7]);
        db.insert(&mut txn, "customer", &customer(7, 1, 12.5, "TAIL"), &[("c_idx", key.clone())])
            .unwrap();
        db.commit(&mut txn).unwrap();
        // An uncommitted transaction must NOT survive.
        let mut ghost = db.begin(txn.now);
        db.insert(
            &mut ghost,
            "customer",
            &customer(8, 1, 0.0, "GHOST"),
            &[("c_idx", composite_key(&[1, 8]))],
        )
        .unwrap();

        let (db2, report, recovered_at) = reboot_and_recover(&device, txn.now);
        assert_eq!(report.tables_recovered, 1);
        assert_eq!(report.indexes_recovered, 1);
        assert!(report.committed_txns >= 1);
        assert!(report.redo_pages_applied >= 2, "heap + index images replayed");
        assert!(report.uncommitted_images_skipped == 0, "ghost never reached the log tail images");
        // The committed row is back, the ghost is gone.
        let mut txn2 = db2.begin(recovered_at);
        let (_, rec) = db2.index_get(&mut txn2, "customer", "c_idx", &key).unwrap().unwrap();
        assert_eq!((rec.int(0), rec.str(3)), (7, "TAIL".into()));
        assert!(db2
            .index_lookup(&mut txn2, "customer", "c_idx", &composite_key(&[1, 8]))
            .unwrap()
            .is_none());
        // The recovered database accepts new transactions.
        let mut txn3 = db2.begin(txn2.now);
        db2.insert(
            &mut txn3,
            "customer",
            &customer(9, 1, 1.0, "NEW"),
            &[("c_idx", composite_key(&[1, 9]))],
        )
        .unwrap();
        db2.commit(&mut txn3).unwrap();
        assert!(txn3.id > txn.id, "txn ids continue past the crashed instance");
    }

    #[test]
    fn flush_all_persists_through_restart_of_the_pool() {
        let db = open_db(64);
        let t0 = SimTime::ZERO;
        db.create_table("t", customer_schema(), t0).unwrap();
        let mut txn = db.begin(t0);
        let rid = db.insert(&mut txn, "t", &customer(1, 2, 3.0, "A"), NO_KEYS).unwrap();
        let done = db.flush_all(txn.now).unwrap();
        assert!(done >= txn.now);
        // Data readable via a fresh transaction.
        let mut txn2 = db.begin(done);
        assert_eq!(db.get(&mut txn2, "t", rid).unwrap().int(0), 1);
        let tables: Vec<String> = db.lock_engine().tables.keys().cloned().collect();
        assert_eq!(tables, ["t"]);
        assert_eq!(db.with_table("t", |t| t.heap.record_count()).unwrap(), 1);
        assert!(db.buffer_stats().logical_writes > 0);
    }
}

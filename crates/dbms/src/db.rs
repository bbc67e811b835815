//! The `Database` facade used by workloads.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

use flash_sim::codec::{put_bytes16, put_u32, put_u64, Reader};
use flash_sim::{crc32, Duration, SimTime};

use crate::btree::BTree;
use crate::buffer::{BufferPool, BufferStats};
use crate::catalog::{Catalog, IndexDef, TableDef};
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

/// Catalog snapshot header: magic:4 | seq:8 | len:4 | crc:4 | pad:4.
const CATALOG_HEADER: usize = 24;

/// A decoded catalog: `(name, schema, index names)` per table.
type CatalogTables = Vec<(String, Schema, Vec<String>)>;

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
    /// ARIES-lite redo logging: commits append full after-images of the
    /// transaction's dirtied pages before the commit record, the buffer
    /// pool runs **no-steal** (uncommitted data never reaches storage),
    /// and [`Database::recover`] can rebuild all committed state from the
    /// log tail.  Off by default — the paper's space-management
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
pub struct Database {
    backend: Arc<dyn StorageBackend>,
    pool: BufferPool,
    catalog: Catalog,
    wal: Wal,
    metadata_obj: ObjectId,
    catalog_obj: ObjectId,
    catalog_seq: AtomicU64,
    metadata_pages: AtomicU64,
    next_txn: AtomicU64,
    commits: AtomicU64,
    read_only_commits: AtomicU64,
    rollbacks: AtomicU64,
    /// Set when a commit's log force fails under redo logging: the pool
    /// then holds effects of a transaction that is neither durable nor
    /// undoable, so all further mutation (which could flush them at a
    /// checkpoint) is refused until the instance is recovered.
    poisoned: std::sync::atomic::AtomicBool,
    config: DatabaseConfig,
}

fn ensure_object(backend: &Arc<dyn StorageBackend>, name: &str) -> Result<ObjectId> {
    match backend.lookup_object(name) {
        Some(obj) => Ok(obj),
        None => backend.create_object(name),
    }
}

impl Database {
    /// Open a database over a storage backend.
    pub fn open(backend: Arc<dyn StorageBackend>, config: DatabaseConfig) -> Result<Self> {
        let metadata_obj = backend.create_object(METADATA_OBJECT)?;
        let catalog_obj = backend.create_object(CATALOG_OBJECT)?;
        // Without redo logging the log is I/O ballast (the paper's
        // experiments): spilled pages stay volatile, exactly one page
        // write per force, as in the original engine.
        let wal =
            Wal::new(backend.create_object(LOG_OBJECT)?).with_durable_spill(config.redo_logging);
        let pool =
            BufferPool::with_policy(Arc::clone(&backend), config.buffer_pages, config.redo_logging);
        Ok(Database {
            backend,
            pool,
            catalog: Catalog::new(),
            wal,
            metadata_obj,
            catalog_obj,
            catalog_seq: AtomicU64::new(0),
            metadata_pages: AtomicU64::new(0),
            next_txn: AtomicU64::new(1),
            commits: AtomicU64::new(0),
            read_only_commits: AtomicU64::new(0),
            rollbacks: AtomicU64::new(0),
            poisoned: std::sync::atomic::AtomicBool::new(false),
            config,
        })
    }

    /// The storage backend.
    pub fn backend(&self) -> &Arc<dyn StorageBackend> {
        &self.backend
    }

    /// The engine configuration.
    pub fn config(&self) -> &DatabaseConfig {
        &self.config
    }

    /// Buffer-pool statistics.
    pub fn buffer_stats(&self) -> BufferStats {
        self.pool.stats()
    }

    /// WAL statistics.
    pub fn wal_stats(&self) -> WalStats {
        self.wal.stats()
    }

    /// Committed transaction count (read-only commits included).
    pub fn commit_count(&self) -> u64 {
        self.commits.load(Ordering::Relaxed)
    }

    /// Commits of transactions that wrote nothing: counted in
    /// [`Database::commit_count`], but they appended no log record and
    /// forced nothing.
    pub fn read_only_commit_count(&self) -> u64 {
        self.read_only_commits.load(Ordering::Relaxed)
    }

    /// Rolled-back transaction count.
    pub fn rollback_count(&self) -> u64 {
        self.rollbacks.load(Ordering::Relaxed)
    }

    fn check_usable(&self) -> Result<()> {
        if self.poisoned.load(Ordering::Relaxed) {
            return Err(DbError::Storage {
                message: "database is poisoned by a failed commit force; \
                          restart and recover before writing again"
                    .to_string(),
            });
        }
        Ok(())
    }

    /// Write a small catalog-change record into the metadata object.  This
    /// keeps the `DBMS-metadata` object realistically non-empty (it is one
    /// of the objects the paper's Figure 2 places in its own region).
    fn record_metadata_change(&self, description: &str, now: SimTime) -> Result<()> {
        let page_no = self.metadata_pages.fetch_add(1, Ordering::Relaxed);
        let bytes = description.as_bytes();
        let mut page = Vec::with_capacity(PAGE_SIZE);
        put_bytes16(&mut page, &bytes[..bytes.len().min(PAGE_SIZE - 2)]);
        page.resize(PAGE_SIZE, 0);
        self.pool.write_page(self.metadata_obj, page_no, &page, now)?;
        Ok(())
    }

    /// Create a table.
    pub fn create_table(&self, name: &str, schema: Schema, now: SimTime) -> Result<()> {
        if schema.is_empty() {
            return Err(DbError::SchemaMismatch {
                message: format!("table '{name}' needs columns"),
            });
        }
        let obj = self.backend.create_object(name)?;
        let table = TableDef {
            name: name.to_string(),
            schema: Arc::new(schema),
            heap: HeapFile::new(obj),
            indexes: RwLock::new(HashMap::new()),
        };
        self.catalog.add_table(table)?;
        self.record_metadata_change(&format!("CREATE TABLE {name}"), now)
    }

    /// Create a named index on a table.  Key bytes are provided by the
    /// caller on every insert/delete (see [`Database::insert`]), so the
    /// index definition itself carries no column list.
    pub fn create_index(&self, table: &str, index: &str, now: SimTime) -> Result<()> {
        let table_def = self.catalog.table(table)?;
        let obj = self.backend.create_object(index)?;
        {
            let mut indexes = table_def.indexes.write();
            if indexes.contains_key(index) {
                return Err(DbError::AlreadyExists { what: format!("index '{index}'") });
            }
            indexes.insert(
                index.to_string(),
                Arc::new(IndexDef { name: index.to_string(), tree: crate::btree::BTree::new(obj) }),
            );
        }
        self.record_metadata_change(&format!("CREATE INDEX {index} ON {table}"), now)
    }

    /// Table definition lookup (schema, heap size, ...).
    pub fn table(&self, name: &str) -> Result<Arc<TableDef>> {
        self.catalog.table(name)
    }

    /// Names of all tables.
    pub fn table_names(&self) -> Vec<String> {
        self.catalog.table_names()
    }

    /// Begin a new transaction at simulated time `now`.
    ///
    /// With [`DatabaseConfig::redo_logging`] enabled the pool starts
    /// capturing the transaction's write set here; like the rest of the
    /// engine's lightweight transaction model, redo logging assumes one
    /// transaction executes at a time (the TPC-C driver's model).
    pub fn begin(&self, now: SimTime) -> Txn {
        if self.config.redo_logging {
            self.pool.begin_capture();
        }
        Txn::begin(self.next_txn.fetch_add(1, Ordering::Relaxed), now)
    }

    /// Insert a record — values or a [`Row`] — into a table and register
    /// it under the given index keys (`(index name, key bytes)` pairs).
    pub fn insert(
        &self,
        txn: &mut Txn,
        table: &str,
        record: &(impl AsRecord + ?Sized),
        index_keys: &[(&str, impl AsRef<[u8]>)],
    ) -> Result<RecordId> {
        self.check_usable()?;
        let table_def = self.catalog.table(table)?;
        let encoded = record.encoded(&table_def.schema)?;
        let (rid, t) = table_def.heap.insert(&self.pool, &encoded, txn.now)?;
        charge(txn, t, true);
        for (index, key) in index_keys {
            let idx = table_def.index(index)?;
            let t = idx.tree.insert(&self.pool, key.as_ref(), rid, txn.now)?;
            txn.advance_to(t);
            txn.writes += 1;
        }
        self.wal.append_note(txn.id, format_args!("INSERT {table} {}:{}", rid.page, rid.slot));
        Ok(rid)
    }

    /// Fetch a record by its id: [`Database::read`], copied into an
    /// owned row.
    pub fn get(&self, txn: &mut Txn, table: &str, rid: RecordId) -> Result<Row> {
        self.read(txn, table, rid, |row| row.owned())
    }

    /// Lend the record at `rid` to `f` as a row over its bytes, where the
    /// buffer frame holds them: nothing is copied.  `f` runs under the
    /// pool lock and must not call back into the database.
    pub fn read<R>(
        &self,
        txn: &mut Txn,
        table: &str,
        rid: RecordId,
        f: impl FnOnce(&Row<&[u8]>) -> R,
    ) -> Result<R> {
        let table_def = self.catalog.table(table)?;
        let (read, t) = table_def.heap.read(&self.pool, rid, txn.now, |bytes| {
            Row::new(Arc::clone(&table_def.schema), bytes).map(|row| f(&row))
        })?;
        charge(txn, t, false);
        read
    }

    /// Overwrite a record in place (the schema's fixed layout guarantees
    /// the new version fits).  A [`Row`] is stored as it is, unencoded.
    pub fn update(
        &self,
        txn: &mut Txn,
        table: &str,
        rid: RecordId,
        record: &(impl AsRecord + ?Sized),
    ) -> Result<()> {
        self.check_usable()?;
        let table_def = self.catalog.table(table)?;
        let encoded = record.encoded(&table_def.schema)?;
        let t = table_def.heap.update(&self.pool, rid, &encoded, txn.now)?;
        charge(txn, t, true);
        self.wal.append_note(txn.id, format_args!("UPDATE {table} {}:{}", rid.page, rid.slot));
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
        self.check_usable()?;
        let table_def = self.catalog.table(table)?;
        let (edited, t) = table_def.heap.edit(&self.pool, rid.page, txn.now, |page| {
            let mut row = Row::new(Arc::clone(&table_def.schema), page.get_mut(rid.slot)?)?;
            Ok((f(&mut row), true))
        })?;
        charge(txn, t, true);
        self.wal.append_note(txn.id, format_args!("UPDATE {table} {}:{}", rid.page, rid.slot));
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
        self.check_usable()?;
        let table_def = self.catalog.table(table)?;
        let t = table_def.heap.delete(&self.pool, rid, txn.now)?;
        charge(txn, t, true);
        for (index, key) in index_keys {
            let idx = table_def.index(index)?;
            let (_, t) = idx.tree.delete(&self.pool, key.as_ref(), txn.now)?;
            txn.advance_to(t);
            txn.writes += 1;
        }
        self.wal.append_note(txn.id, format_args!("DELETE {table} {}:{}", rid.page, rid.slot));
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
        let idx = self.catalog.table(table)?.index(index)?;
        let (found, t) = idx.tree.search(&self.pool, key, txn.now)?;
        charge(txn, t, false);
        Ok(found)
    }

    /// Index lookup followed by a heap fetch: [`Database::index_read`],
    /// copied into an owned row.
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
        let found = self.index_lookup(txn, table, index, key)?;
        found.map(|rid| Ok((rid, self.read(txn, table, rid, f)?))).transpose()
    }

    /// Range scan over an index: the record ids of the first `limit` keys
    /// in `[low, high)`, in key order, into `rids` (cleared first) —
    /// [`crate::btree::BTree::range`]: `high == None` has no upper bound
    /// (a YCSB-style short scan), `limit == usize::MAX` no limit.
    #[allow(clippy::too_many_arguments)]
    pub fn index_range(
        &self,
        txn: &mut Txn,
        table: &str,
        index: &str,
        low: &[u8],
        high: Option<&[u8]>,
        limit: usize,
        rids: &mut Vec<RecordId>,
    ) -> Result<()> {
        let idx = self.catalog.table(table)?.index(index)?;
        rids.clear();
        let t = idx.tree.range(&self.pool, low, high, limit, txn.now, |_, rid| rids.push(rid))?;
        charge(txn, t, false);
        Ok(())
    }

    /// Prefix scan over an index: the record ids of every key starting
    /// with `prefix`, in key order, into `rids` (cleared first).
    pub fn index_prefix(
        &self,
        txn: &mut Txn,
        table: &str,
        index: &str,
        prefix: &[u8],
        rids: &mut Vec<RecordId>,
    ) -> Result<()> {
        let idx = self.catalog.table(table)?.index(index)?;
        rids.clear();
        let in_range = |key: &[u8]| key.starts_with(prefix);
        let push = |_: &[u8], rid| rids.push(rid);
        let t = idx.tree.scan(&self.pool, prefix, in_range, usize::MAX, txn.now, push)?;
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
    /// after-images of every page it dirtied, then the commit record,
    /// and forces the log.  The force is the synchronous part of the
    /// commit and is charged to the transaction's response time.  Once
    /// the current WAL segment exceeds the configured page budget the
    /// commit additionally triggers a checkpoint (flush, catalog
    /// snapshot, backend metadata journal) and truncates the log.
    pub fn commit(&self, txn: &mut Txn) -> Result<TxnOutcome> {
        self.check_usable()?;
        if txn.writes == 0 {
            self.discard_capture();
            self.commits.fetch_add(1, Ordering::Relaxed);
            self.read_only_commits.fetch_add(1, Ordering::Relaxed);
            return Ok(TxnOutcome::Committed);
        }
        if self.config.redo_logging {
            for (obj, page) in self.pool.take_capture() {
                if let Some(image) = self.pool.page_image(obj, page) {
                    self.wal.append(&WalRecord::PageImage { txn: txn.id, obj, page, image });
                }
            }
        }
        self.wal.append(&WalRecord::Commit { txn: txn.id });
        let t = match self.wal.force(&*self.backend, txn.now) {
            Ok(t) => t,
            Err(e) => {
                // The transaction's pool pages are neither durable nor
                // undoable: refuse further mutation so a checkpoint can
                // never flush them (atomicity would be lost).
                if self.config.redo_logging {
                    self.poisoned.store(true, Ordering::Relaxed);
                }
                return Err(e);
            }
        };
        txn.advance_to(t);
        self.commits.fetch_add(1, Ordering::Relaxed);
        let pool_pressure =
            self.config.redo_logging && self.pool.dirty_pages() * 4 >= self.pool.capacity() * 3;
        if self.wal.needs_truncation(self.config.wal_segment_pages) || pool_pressure {
            let t = self.checkpoint(txn.now)?;
            txn.advance_to(t);
        }
        Ok(TxnOutcome::Committed)
    }

    /// Drop the write-set capture [`Database::begin`] opened, so it can
    /// never leak into a later transaction's log images.
    fn discard_capture(&self) {
        if self.config.redo_logging {
            let _ = self.pool.take_capture();
        }
    }

    /// Roll back a transaction.  The engine's workloads pre-validate their
    /// inputs before writing (as the TPC-C NewOrder transaction does for
    /// the 1 % "unused item" case), so rollback only has to be recorded
    /// and the captured write set discarded.  A transaction that wrote
    /// nothing leaves no trace in the log either.
    pub fn rollback(&self, txn: &mut Txn) -> TxnOutcome {
        self.discard_capture();
        if txn.writes > 0 {
            self.wal.append(&WalRecord::Rollback { txn: txn.id });
        }
        self.rollbacks.fetch_add(1, Ordering::Relaxed);
        TxnOutcome::RolledBack
    }

    /// Write back every dirty buffered page (checkpoint).
    pub fn flush_all(&self, now: SimTime) -> Result<SimTime> {
        self.pool.flush_all(now)
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

    /// Serialise the catalog (table names, schemas, index names).
    fn encode_catalog(&self, seq: u64) -> Vec<u8> {
        let mut blob = Vec::with_capacity(256);
        put_u64(&mut blob, seq);
        let names = self.catalog.table_names();
        put_u32(&mut blob, names.len() as u32);
        for name in names {
            let table = self.catalog.table(&name).expect("listed table exists");
            put_bytes16(&mut blob, name.as_bytes());
            table.schema.encode_def(&mut blob);
            let mut index_names: Vec<String> = table.indexes.read().keys().cloned().collect();
            index_names.sort();
            put_u32(&mut blob, index_names.len() as u32);
            for index in index_names {
                put_bytes16(&mut blob, index.as_bytes());
            }
        }
        blob
    }

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

    /// Write a versioned catalog snapshot into slot `seq % 2` of the
    /// catalog object.  Page 0 of the slot carries a header
    /// (magic, seq, length, CRC); the blob continues on the following
    /// pages.  A torn snapshot fails its CRC on recovery and the previous
    /// slot is used instead.
    fn write_catalog_snapshot(&self, now: SimTime) -> Result<SimTime> {
        let seq = self.catalog_seq.load(Ordering::Relaxed) + 1;
        let blob = self.encode_catalog(seq);
        if blob.len() > CATALOG_SLOT_PAGES as usize * PAGE_SIZE - CATALOG_HEADER {
            return Err(DbError::TooLarge {
                message: format!("catalog snapshot of {} bytes exceeds slot", blob.len()),
            });
        }
        let base = (seq % 2) * CATALOG_SLOT_PAGES;
        let (head, tail) = blob.split_at(blob.len().min(PAGE_SIZE - CATALOG_HEADER));
        let mut first = Vec::with_capacity(PAGE_SIZE);
        put_u32(&mut first, CATALOG_MAGIC);
        put_u64(&mut first, seq);
        put_u32(&mut first, blob.len() as u32);
        put_u32(&mut first, crc32(&blob));
        put_u32(&mut first, 0);
        first.extend_from_slice(head);
        first.resize(PAGE_SIZE, 0);
        let mut done = self.backend.write_page(self.catalog_obj, base, &first, now)?;
        for (page_no, chunk) in (base + 1..).zip(tail.chunks(PAGE_SIZE)) {
            let mut page = Vec::with_capacity(PAGE_SIZE);
            page.extend_from_slice(chunk);
            page.resize(PAGE_SIZE, 0);
            done = done.max(self.backend.write_page(self.catalog_obj, page_no, &page, now)?);
        }
        self.catalog_seq.store(seq, Ordering::Relaxed);
        Ok(done)
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
        let (seq, len, crc, _pad) = (r.u64()?, r.u32()? as usize, r.u32()?, r.u32()?);
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
        Self::decode_catalog(&blob).filter(|(decoded_seq, _)| *decoded_seq == seq)
    }

    /// Take a full checkpoint: flush every dirty page, write a catalog
    /// snapshot, journal the backend's metadata (the NoFTL region
    /// checkpoint) and finally truncate the WAL.  The ordering matters: a
    /// crash at any point leaves either the previous checkpoint plus an
    /// intact log tail, or the new checkpoint — never a state recovery
    /// cannot handle.
    ///
    /// The data-page flush and the WAL force are *both issued at `now`*:
    /// the pending log records belong to already-committed transactions
    /// (commit forces the log, and the pool is no-steal under redo
    /// logging), so forcing them early can only move the log further
    /// ahead of the data — the WAL invariant — while the log and data
    /// objects live on different dies and overlap in simulated time.
    /// This is the group-commit shape of the completion-driven flush
    /// redesign: a checkpoint no longer serialises "all data, then the
    /// log".  Truncation still waits for everything: it only happens
    /// after the flush, the catalog snapshot and the backend checkpoint
    /// are all durable.
    pub fn checkpoint(&self, now: SimTime) -> Result<SimTime> {
        self.check_usable()?;
        let data_done = self.pool.flush_all(now)?;
        let mut done = data_done.max(self.wal.force(&*self.backend, now)?);
        done = done.max(self.write_catalog_snapshot(done)?);
        done = done.max(self.backend.checkpoint(done)?);
        self.wal.truncate(&*self.backend)?;
        self.wal.append(&WalRecord::Checkpoint);
        Ok(done)
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
        let (records, mut t) = Wal::scan(&*backend, log_obj, now)?;
        report.wal_records_scanned = records.len() as u64;
        let mut max_txn = 0u64;
        let mut committed = std::collections::HashSet::new();
        for (_, record) in &records {
            match record {
                WalRecord::Commit { txn } => {
                    committed.insert(*txn);
                    max_txn = max_txn.max(*txn);
                }
                WalRecord::Note { txn, .. }
                | WalRecord::PageImage { txn, .. }
                | WalRecord::Rollback { txn } => max_txn = max_txn.max(*txn),
                WalRecord::Checkpoint => {}
            }
        }
        report.committed_txns = committed.len() as u64;
        for (_, record) in &records {
            if let WalRecord::PageImage { txn, obj, page, image } = record {
                if committed.contains(txn) {
                    let t_w = backend.write_page(*obj, *page, image, t)?;
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
        let pool =
            BufferPool::with_policy(Arc::clone(&backend), config.buffer_pages, config.redo_logging);
        let catalog = Catalog::new();
        for (name, schema, index_names) in tables {
            let Some(heap_obj) = backend.lookup_object(&name) else {
                report.tables_lost += 1;
                continue;
            };
            let extent = backend.object_extent(heap_obj)?;
            let (heap, t_attach) = HeapFile::attach(heap_obj, &pool, extent, t)?;
            t = t.max(t_attach);
            let mut indexes = HashMap::new();
            for index in index_names {
                let Some(index_obj) = backend.lookup_object(&index) else { continue };
                let extent = backend.object_extent(index_obj)?;
                let (tree, t_attach) = BTree::attach(index_obj, &pool, extent, t)?;
                t = t.max(t_attach);
                indexes.insert(index.clone(), Arc::new(IndexDef { name: index, tree }));
                report.indexes_recovered += 1;
            }
            let schema = Arc::new(schema);
            catalog.add_table(TableDef { name, schema, heap, indexes: RwLock::new(indexes) })?;
            report.tables_recovered += 1;
        }

        // ---- Reset the log: free the replayed history and restart the
        // stream at page 0 (page numbers are reused across truncations).
        for page_no in 0..backend.object_extent(log_obj)? {
            let _ = backend.free_page(log_obj, page_no);
        }
        let wal = Wal::new(log_obj).with_durable_spill(config.redo_logging);
        let metadata_extent = backend.object_extent(metadata_obj)?;

        let db = Database {
            backend,
            pool,
            catalog,
            wal,
            metadata_obj,
            catalog_obj,
            catalog_seq: AtomicU64::new(catalog_seq),
            metadata_pages: AtomicU64::new(metadata_extent),
            next_txn: AtomicU64::new(max_txn + 1),
            commits: AtomicU64::new(0),
            read_only_commits: AtomicU64::new(0),
            rollbacks: AtomicU64::new(0),
            poisoned: std::sync::atomic::AtomicBool::new(false),
            config,
        };
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
        assert_eq!(rec.bytes(), customer_schema().encode(&customer(42, 1, 99.5, "FOO")).unwrap());
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
        let encoded = customer_schema().encode(&customer(42, 1, 100.0, "BARBAZ")).unwrap();
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

    /// A redo-logging database with an indexed `customer` table on a
    /// fresh device, checkpointed after the DDL.
    fn open_redo_customer_db() -> (Arc<flash_sim::NandDevice>, Database, SimTime) {
        let device = Arc::new(
            DeviceBuilder::new(FlashGeometry::example()).timing(TimingModel::mlc_2015()).build(),
        );
        let noftl = Arc::new(NoFtl::new(device.clone(), NoFtlConfig::default()));
        let backend = Arc::new(NoFtlBackend::new(noftl, &restart_placement()).unwrap());
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
        let (noftl2, mount) = NoFtl::mount(device2, NoFtlConfig::default(), at).unwrap();
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
            db.record_metadata_change("NOTE", reader.now).unwrap();
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

    #[test]
    fn catalog_snapshots_reject_every_prefix_and_a_flipped_byte() {
        let db = open_db(64);
        db.create_table("customer", customer_schema(), SimTime::ZERO).unwrap();
        db.create_index("customer", "c_idx", SimTime::ZERO).unwrap();
        let blob = db.encode_catalog(5);
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
        let t = db.write_catalog_snapshot(SimTime::ZERO).unwrap();
        assert_eq!(Database::read_catalog_snapshot(backend, db.catalog_obj, t), (1, tables));
        let slot = CATALOG_SLOT_PAGES; // seq 1 lives in slot 1
        let (mut page, _) = backend.read_page(db.catalog_obj, slot, t).unwrap();
        page[CATALOG_HEADER] ^= 0x01;
        let t = backend.write_page(db.catalog_obj, slot, &page, t).unwrap();
        assert_eq!(Database::read_catalog_snapshot(backend, db.catalog_obj, t), (0, Vec::new()));
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
        // All lines of order 7, into one vector every scan reuses.
        let mut rids = Vec::new();
        let prefix = composite_key(&[1, 1, 7]);
        db.index_prefix(&mut txn, "orderline", "ol_idx", &prefix, &mut rids).unwrap();
        assert_eq!(rids.len(), 5);
        let lines: Vec<i64> = rids
            .iter()
            .map(|rid| db.read(&mut txn, "orderline", *rid, |r| r.int(1)).unwrap())
            .collect();
        assert_eq!(lines, [1, 2, 3, 4, 5]);
        // Orders 5..10 (exclusive): the scan clears what the last one left.
        let (low, high) = (composite_key(&[1, 1, 5]), composite_key(&[1, 1, 10]));
        db.index_range(&mut txn, "orderline", "ol_idx", &low, Some(&high), usize::MAX, &mut rids)
            .unwrap();
        assert_eq!(rids.len(), 25);
        db.index_range(&mut txn, "orderline", "ol_idx", &low, None, 3, &mut rids).unwrap();
        assert_eq!(rids.len(), 3);
        db.index_prefix(&mut txn, "orderline", "ol_idx", &composite_key(&[2]), &mut rids).unwrap();
        assert!(rids.is_empty());
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
        // WAL tail (no-steal keeps its pages out of storage).
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
        assert_eq!(db.table_names(), vec!["t".to_string()]);
        assert!(db.table("t").is_ok());
        assert!(db.buffer_stats().logical_writes > 0);
    }
}

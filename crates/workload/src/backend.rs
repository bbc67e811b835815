//! Storage backends the YCSB generators drive.
//!
//! [`WorkloadBackend`] is the surface every YCSB mix needs — insert,
//! update, point read, delete, bounded scan, flush — expressed in
//! simulated time: every verb takes the issue instant and returns the
//! completion instant, so the loop that issues the ops (the benchmark's
//! closed and open loops) times each one without a clock of its own.  Two implementations
//! ship: [`KvBackend`] over the NoFTL-KV LSM store and [`BtreeBackend`]
//! over the dbms B+-tree, both consuming *identical* key streams (the
//! generators never look at the backend); the B+-tree is the reference
//! the cross-backend tests hold KV's results against.

use std::fmt;
use std::sync::Arc;

use dbms_engine::{ColumnType, Database, DatabaseConfig, NoFtlBackend, Schema, Value};
use flash_sim::SimTime;
use noftl_core::kv::{KvConfig, KvStore};
use noftl_core::{NoFtl, PlacementConfig, RegionId};

use crate::ycsb::YcsbSpec;

/// Workload-layer error: a backend refused an operation.
#[derive(Debug)]
pub struct WorkloadError(pub String);

impl fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "workload error: {}", self.0)
    }
}

impl std::error::Error for WorkloadError {}

impl From<noftl_core::NoFtlError> for WorkloadError {
    fn from(e: noftl_core::NoFtlError) -> Self {
        WorkloadError(e.to_string())
    }
}

impl From<dbms_engine::DbError> for WorkloadError {
    fn from(e: dbms_engine::DbError) -> Self {
        WorkloadError(e.to_string())
    }
}

/// Workload-layer result.
pub type Result<T> = std::result::Result<T, WorkloadError>;

/// The storage surface a workload drives, in simulated time.
pub trait WorkloadBackend {
    /// Short stable tag (`"kv"`, `"btree"`) used in metric names.
    fn tag(&self) -> &'static str;

    /// Insert a brand-new key.
    fn insert(&self, key: &[u8], value: &[u8], at: SimTime) -> Result<SimTime>;

    /// Overwrite an existing key (inserts if missing, like a KV upsert).
    fn update(&self, key: &[u8], value: &[u8], at: SimTime) -> Result<SimTime>;

    /// Point read; returns whether the key was found.
    fn read(&self, key: &[u8], at: SimTime) -> Result<(bool, SimTime)>;

    /// Remove a key; deleting an absent key is a no-op, not an error.
    fn delete(&self, key: &[u8], at: SimTime) -> Result<SimTime>;

    /// Read up to `limit` rows starting at `start` in key order; returns
    /// the number of rows seen.
    fn scan(&self, start: &[u8], limit: usize, at: SimTime) -> Result<(usize, SimTime)>;

    /// Make everything written so far durable.
    fn flush(&self, at: SimTime) -> Result<SimTime>;
}

/// Load `spec.record_count` ordered records through `backend`, returning
/// the completion time of the load (including the durability flush).
pub fn load_phase(spec: &YcsbSpec, backend: &dyn WorkloadBackend, at: SimTime) -> Result<SimTime> {
    let mut t = at;
    for id in 0..spec.record_count {
        t = backend.insert(&spec.key(id), &spec.value_for(id), t)?;
    }
    backend.flush(t)
}

/// [`WorkloadBackend`] over the NoFTL-KV store.
pub struct KvBackend {
    store: KvStore,
}

impl KvBackend {
    /// Create a fresh store named `name` in `region`.
    pub fn create(
        noftl: Arc<NoFtl>,
        region: RegionId,
        name: &str,
        config: KvConfig,
        at: SimTime,
    ) -> Result<(Self, SimTime)> {
        let (store, t) = KvStore::create(noftl, region, name, config, at)?;
        Ok((KvBackend { store }, t))
    }

    /// The wrapped store (for stats).
    pub fn store(&self) -> &KvStore {
        &self.store
    }
}

impl WorkloadBackend for KvBackend {
    fn tag(&self) -> &'static str {
        "kv"
    }

    fn insert(&self, key: &[u8], value: &[u8], at: SimTime) -> Result<SimTime> {
        Ok(self.store.put(key, value, at)?)
    }

    fn update(&self, key: &[u8], value: &[u8], at: SimTime) -> Result<SimTime> {
        Ok(self.store.put(key, value, at)?)
    }

    fn read(&self, key: &[u8], at: SimTime) -> Result<(bool, SimTime)> {
        let (hit, t) = self.store.get(key, at)?;
        Ok((hit.is_some(), t))
    }

    fn delete(&self, key: &[u8], at: SimTime) -> Result<SimTime> {
        Ok(self.store.delete(key, at)?)
    }

    fn scan(&self, start: &[u8], limit: usize, at: SimTime) -> Result<(usize, SimTime)> {
        let (rows, t) = self.store.scan(Some(start), None, limit, at)?;
        Ok((rows.len(), t))
    }

    fn flush(&self, at: SimTime) -> Result<SimTime> {
        Ok(self.store.flush(at)?)
    }
}

/// Table/index names the B+-tree backend uses.
const TABLE: &str = "usertable";
const INDEX: &str = "k";

/// [`WorkloadBackend`] over the dbms: a heap table with a B+-tree key
/// index, one transaction per operation (auto-commit, YCSB's model).
pub struct BtreeBackend {
    db: Database,
    value_len: u16,
}

impl BtreeBackend {
    /// Open a database on `noftl` with a `usertable(k, v)` schema sized
    /// for `value_len`-byte values, using `placement` region config.
    pub fn create(
        noftl: Arc<NoFtl>,
        placement: &PlacementConfig,
        config: DatabaseConfig,
        value_len: usize,
        at: SimTime,
    ) -> Result<(Self, SimTime)> {
        let backend = Arc::new(NoFtlBackend::new(noftl, placement)?);
        let db = Database::open(backend, config)?;
        let value_len = u16::try_from(value_len)
            .map_err(|_| WorkloadError(format!("value_len {value_len} exceeds column limit")))?;
        db.create_table(
            TABLE,
            Schema::new(vec![("k", ColumnType::Str(24)), ("v", ColumnType::Str(value_len))]),
            at,
        )?;
        db.create_index(TABLE, INDEX, at)?;
        Ok((BtreeBackend { db, value_len }, at))
    }

    /// The wrapped database (for stats / metrics snapshots).
    pub fn database(&self) -> &Database {
        &self.db
    }

    fn record(&self, key: &[u8], value: &[u8]) -> Result<Vec<Value>> {
        let k = String::from_utf8(key.to_vec())
            .map_err(|_| WorkloadError("btree backend requires UTF-8 keys".into()))?;
        let mut v = String::from_utf8(value.to_vec())
            .map_err(|_| WorkloadError("btree backend requires UTF-8 values".into()))?;
        v.truncate(self.value_len as usize);
        Ok(vec![Value::Str(k), Value::Str(v)])
    }
}

impl WorkloadBackend for BtreeBackend {
    fn tag(&self) -> &'static str {
        "btree"
    }

    fn insert(&self, key: &[u8], value: &[u8], at: SimTime) -> Result<SimTime> {
        let record = self.record(key, value)?;
        let mut txn = self.db.begin(at);
        self.db.insert(&mut txn, TABLE, &record, &[(INDEX, key.to_vec())])?;
        self.db.commit(&mut txn)?;
        Ok(txn.now)
    }

    fn update(&self, key: &[u8], value: &[u8], at: SimTime) -> Result<SimTime> {
        let record = self.record(key, value)?;
        let mut txn = self.db.begin(at);
        match self.db.index_lookup(&mut txn, TABLE, INDEX, key)? {
            Some(rid) => self.db.update(&mut txn, TABLE, rid, &record)?,
            None => {
                self.db.insert(&mut txn, TABLE, &record, &[(INDEX, key.to_vec())])?;
            }
        }
        self.db.commit(&mut txn)?;
        Ok(txn.now)
    }

    fn read(&self, key: &[u8], at: SimTime) -> Result<(bool, SimTime)> {
        let mut txn = self.db.begin(at);
        let found = self.db.index_get(&mut txn, TABLE, INDEX, key)?.is_some();
        self.db.commit(&mut txn)?;
        Ok((found, txn.now))
    }

    fn delete(&self, key: &[u8], at: SimTime) -> Result<SimTime> {
        let mut txn = self.db.begin(at);
        if let Some(rid) = self.db.index_lookup(&mut txn, TABLE, INDEX, key)? {
            self.db.delete(&mut txn, TABLE, rid, &[(INDEX, key.to_vec())])?;
        }
        self.db.commit(&mut txn)?;
        Ok(txn.now)
    }

    fn scan(&self, start: &[u8], limit: usize, at: SimTime) -> Result<(usize, SimTime)> {
        let mut txn = self.db.begin(at);
        let pairs = self.db.index_range(&mut txn, TABLE, INDEX, start, None, limit)?;
        // YCSB scans fetch the rows, not just the keys.
        let mut rows = 0usize;
        for (_, rid) in &pairs {
            self.db.get(&mut txn, TABLE, *rid)?;
            rows += 1;
        }
        self.db.commit(&mut txn)?;
        Ok((rows, txn.now))
    }

    fn flush(&self, at: SimTime) -> Result<SimTime> {
        Ok(self.db.flush_all(at)?)
    }
}

//! Storage backends the YCSB generators drive.
//!
//! [`WorkloadBackend`] is the surface every YCSB mix needs — insert,
//! update, point read, delete, bounded scan, flush — expressed in
//! simulated time: every verb takes the issue instant and returns the
//! completion instant, so the loop that issues the ops (the benchmark's
//! closed and open loops) times each one without a clock of its own.
//! [`KvBackend`] over the NoFTL-KV LSM store ships here; the benchmark's
//! B+-tree table implements the trait itself.  The generators never look
//! at the backend, so every backend consumes the *identical* key stream.

use std::fmt;
use std::sync::Arc;

use flash_sim::SimTime;
use noftl_core::kv::{KvConfig, KvStore};
use noftl_core::{NoFtl, RegionId};

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
        Ok(self.store.get_with(key, at, |value| value.is_some())?)
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

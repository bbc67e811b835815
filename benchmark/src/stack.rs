//! Stacks built from the layer crates' public constructors, and the
//! counter snapshots every per-layer metric is a delta of.

use std::sync::Arc;

use dbms_engine::{
    BufferStats, ColumnType, Database, DatabaseConfig, NoFtlBackend, Schema, Value, WalStats,
};
use flash_sim::{
    ArbiterConfig, DeviceBuilder, DeviceStats, DieStats, FlashBackend, FlashGeometry, NandDevice,
    SimTime,
};
use noftl_core::{KvStats, KvStore, NoFtl, NoFtlConfig, PlacementConfig, RegionStats};
use noftl_workload::{Result as WlResult, WorkloadBackend, WorkloadError};

use crate::pins;
use crate::seams::Seams;

/// A device with the pinned timing and a storage manager with the
/// program's policy on top, the flash seam in between.
pub fn device_and_manager(
    geometry: FlashGeometry,
    arbiter: bool,
    seams: &dyn Seams,
) -> (Arc<NandDevice>, Arc<NoFtl>) {
    let mut builder = DeviceBuilder::new(geometry).timing(pins::TIMING);
    if arbiter {
        builder = builder.arbiter(ArbiterConfig::default());
    }
    let device = Arc::new(builder.build());
    let backend: Arc<dyn FlashBackend> = device.clone();
    let noftl = Arc::new(NoFtl::new(seams.flash(backend), NoFtlConfig::paper_defaults()));
    (device, noftl)
}

/// A database on `noftl` under `placement`, the storage seam in between.
/// Only the buffer size is pinned; the rest of the engine configuration is
/// the program's default.
pub fn database(
    noftl: &Arc<NoFtl>,
    placement: &PlacementConfig,
    buffer_pages: usize,
    seams: &dyn Seams,
) -> Result<Database, String> {
    let backend = NoFtlBackend::new(Arc::clone(noftl), placement).map_err(|e| e.to_string())?;
    let config = DatabaseConfig { buffer_pages, ..DatabaseConfig::default() };
    Database::open(seams.storage(Arc::new(backend)), config).map_err(|e| e.to_string())
}

const TABLE: &str = "usertable";
const INDEX: &str = "k";

/// The YCSB table on the dbms: a heap with a B+-tree key index, one
/// auto-commit transaction per op.  The same shape as the program's
/// `BtreeBackend`, rebuilt here because that type opens its database
/// itself and so leaves no place for the storage seam.
pub struct DbTable {
    db: Database,
}

impl DbTable {
    /// Create the table and its index in `db`.
    pub fn create(db: Database, value_len: usize, at: SimTime) -> Result<Self, String> {
        let value_len = u16::try_from(value_len).map_err(|e| e.to_string())?;
        let schema =
            Schema::new(vec![("k", ColumnType::Str(24)), ("v", ColumnType::Str(value_len))]);
        db.create_table(TABLE, schema, at).map_err(|e| e.to_string())?;
        db.create_index(TABLE, INDEX, at).map_err(|e| e.to_string())?;
        Ok(DbTable { db })
    }

    /// The database underneath, for its counters.
    pub fn database(&self) -> &Database {
        &self.db
    }

    fn record(key: &[u8], value: &[u8]) -> WlResult<Vec<Value>> {
        let text = |b: &[u8]| {
            String::from_utf8(b.to_vec()).map_err(|_| WorkloadError("non-UTF-8 record".into()))
        };
        Ok(vec![Value::Str(text(key)?), Value::Str(text(value)?)])
    }
}

impl WorkloadBackend for DbTable {
    fn tag(&self) -> &'static str {
        "btree"
    }

    fn insert(&self, key: &[u8], value: &[u8], at: SimTime) -> WlResult<SimTime> {
        let record = Self::record(key, value)?;
        let mut txn = self.db.begin(at);
        self.db.insert(&mut txn, TABLE, &record, &[(INDEX, key.to_vec())])?;
        self.db.commit(&mut txn)?;
        Ok(txn.now)
    }

    fn update(&self, key: &[u8], value: &[u8], at: SimTime) -> WlResult<SimTime> {
        let record = Self::record(key, value)?;
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

    fn read(&self, key: &[u8], at: SimTime) -> WlResult<(bool, SimTime)> {
        let mut txn = self.db.begin(at);
        let found = self.db.index_get(&mut txn, TABLE, INDEX, key)?.is_some();
        self.db.commit(&mut txn)?;
        Ok((found, txn.now))
    }

    fn delete(&self, _key: &[u8], _at: SimTime) -> WlResult<SimTime> {
        Err(WorkloadError("no benchmark workload deletes".into()))
    }

    fn scan(&self, _start: &[u8], _limit: usize, _at: SimTime) -> WlResult<(usize, SimTime)> {
        Err(WorkloadError("no benchmark workload scans".into()))
    }

    fn flush(&self, at: SimTime) -> WlResult<SimTime> {
        Ok(self.db.flush_all(at)?)
    }
}

/// Read-only handles on whatever layers a workload's stack has.
pub struct Stack<'a> {
    /// The simulated device.
    pub device: &'a NandDevice,
    /// The storage manager.
    pub noftl: &'a NoFtl,
    /// The database, on workloads that have one.
    pub db: Option<&'a Database>,
    /// The KV store, on workloads that have one.
    pub kv: Option<&'a KvStore>,
}

/// dbms counters at one instant.
#[derive(Debug, Clone, Copy)]
pub struct DbCounters {
    /// Buffer pool.
    pub buffer: BufferStats,
    /// Write-ahead log.
    pub wal: WalStats,
    /// Committed transactions.
    pub commits: u64,
    /// Rolled-back transactions.
    pub rollbacks: u64,
}

/// The arbiter's counters, read from the shared registry by name.
#[derive(Debug, Clone, Copy, Default)]
pub struct ArbiterCounters {
    /// Background transfers deferred.
    pub deferred: u64,
    /// Total simulated deferral.
    pub deferral_ns: u64,
    /// Foreground transfers placed into a gap a deferral opened.
    pub backfills: u64,
    /// Deferrals cut short by the anti-starvation cap.
    pub aging_capped: u64,
}

/// Every public stats struct of a stack at one instant.
#[derive(Debug, Clone)]
pub struct Counters {
    /// `DeviceStats`.
    pub device: DeviceStats,
    /// `DieStats`, by die.
    pub dies: Vec<DieStats>,
    /// The arbiter's registry counters.
    pub arbiter: ArbiterCounters,
    /// `RegionStats` by region name, in region-id order.
    pub regions: Vec<(String, RegionStats)>,
    /// dbms counters, if the stack has a database.
    pub db: Option<DbCounters>,
    /// `KvStats`, if the stack has a KV store.
    pub kv: Option<KvStats>,
    /// Sorted runs the KV store holds (0 without one).
    pub kv_runs: usize,
}

impl Counters {
    /// Snapshot `stack`.
    pub fn take(stack: &Stack<'_>) -> Self {
        let registry = stack.noftl.metrics_snapshot();
        let counter = |name: &str| registry.counter(name).unwrap_or(0);
        Counters {
            device: stack.device.stats(),
            dies: stack.device.die_stats(),
            arbiter: ArbiterCounters {
                deferred: counter("flash.arbiter.deferred"),
                deferral_ns: counter("flash.arbiter.deferral_ns"),
                backfills: counter("flash.arbiter.backfills"),
                aging_capped: counter("flash.arbiter.aging_capped"),
            },
            regions: stack
                .noftl
                .region_ids()
                .into_iter()
                .filter_map(|rid| {
                    Some((stack.noftl.region_name(rid).ok()?, stack.noftl.region_stats(rid).ok()?))
                })
                .collect(),
            db: stack.db.map(|db| DbCounters {
                buffer: db.buffer_stats(),
                wal: db.wal_stats(),
                commits: db.commit_count(),
                rollbacks: db.rollback_count(),
            }),
            kv: stack.kv.map(KvStore::stats),
            kv_runs: stack.kv.map_or(0, KvStore::run_count),
        }
    }
}

/// Sum of (valid + invalid) over sum of valid pages across every block:
/// flash space held per page of live data.
pub fn space_amp(device: &NandDevice) -> f64 {
    let g = device.geometry();
    let (mut used, mut valid) = (0u64, 0u64);
    for die in 0..g.total_dies() {
        for plane in 0..g.planes_per_die {
            for block in 0..g.blocks_per_plane {
                let addr = flash_sim::BlockAddr::new(flash_sim::DieId(die), plane, block);
                if let Ok(info) = device.block_info(addr) {
                    used += u64::from(info.valid_pages + info.invalid_pages);
                    valid += u64::from(info.valid_pages);
                }
            }
        }
    }
    used as f64 / valid.max(1) as f64
}

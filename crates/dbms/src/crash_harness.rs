//! Crash-consistency contract of the database: the workload that
//! [`noftl_core::crash`] drives through cut → power cycle → mount →
//! [`Database::recover`] → verify.
//!
//! The workload is a mixed, TPC-C-ish key-value mix (inserts, updates,
//! deletes, read-only transactions and occasional rollbacks over an
//! indexed table) with checkpoints and WAL truncations firing mid-run.
//! The driver's sweep cuts power anywhere in it — at random draws or at
//! every command's cut points: commits, checkpoints, write-backs, GC and
//! WAL forces alike — and checks that the remounted manager has the
//! pre-crash regions and objects and that the recovered table is the
//! committed one, or the one in-flight commit whole.  That is the ACID
//! contract:
//!
//! * **no torn pages** — every surviving page passed its checksum;
//! * **no lost committed writes** — every transaction whose commit was
//!   acknowledged before the cut is fully present;
//! * **atomicity** — the one transaction that may have been in flight at
//!   the cut is either completely present or completely absent.
//!
//! Two rules only a database has are this contract's own: a read-only
//! transaction sees exactly the committed value of every key it reads,
//! and the heap's live-record count matches the index view.

use std::collections::BTreeMap;
use std::sync::Arc;

use flash_sim::{DeviceBuilder, Duration, FlashBackend, FlashGeometry, SimTime, TimingModel};
use noftl_core::crash::{self, Contract, Ledger, SplitMix64, Stack};
use noftl_core::{NoFtl, NoFtlConfig, PlacementConfig, RegionAssignment};

use crate::db::{
    Database, DatabaseConfig, RecoveryReport, CATALOG_OBJECT, LOG_OBJECT, METADATA_OBJECT,
};
use crate::error::DbError;
use crate::schema::{ColumnType, Schema};
use crate::storage::NoFtlBackend;
use crate::value::Value;
use crate::Result;

/// Table driven by the workload.
const TABLE: &str = "acct";
/// Index on the table's key column.
const INDEX: &str = "acct_idx";
/// Distinct keys in the working set.
pub const KEYS: i64 = 32;
/// A buffer pool of 4 frames, the pool's floor, so committed pages are
/// evicted and written back mid-workload; redo logging; and a WAL segment
/// budget of 8 pages, small so checkpoints and truncations happen
/// mid-workload.
const DB_CONFIG: DatabaseConfig =
    DatabaseConfig { buffer_pages: 4, redo_logging: true, wal_segment_pages: 8 };

/// Harness configuration.  The device is the tiny unit-test geometry with
/// the MLC timing model.
#[derive(Debug, Clone)]
pub struct CrashHarnessConfig {
    /// Transactions to attempt.
    pub txns: u64,
    /// Workload RNG seed.
    pub seed: u64,
    /// Enable the device's tracer on each stack this config builds, so
    /// a sweep's cut runs are traced too (a dry run always is: it reads
    /// its commands off the tracer).  `tracing_never_perturbs_crash_recovery`
    /// runs one cut with this on and off and requires identical mount
    /// reports — tracing must never perturb recovery.
    pub trace: bool,
    /// Crash-during-recovery schedule: number of *additional* power cuts
    /// to land while the recovery mount itself is scanning the device.
    /// Each interrupted boot is treated as a crash of its own (the torn
    /// device is power-cycled again) before the mount is retried; the
    /// final mount must still satisfy every ACID check.
    pub mount_cuts: u64,
}

impl Default for CrashHarnessConfig {
    fn default() -> Self {
        CrashHarnessConfig { txns: 120, seed: 0xC0FFEE, trace: false, mount_cuts: 0 }
    }
}

/// Outcome of one workload → cut → recover → verify cycle: the run's
/// report, the committed and recovered tables, and the mount and
/// recovery summaries.
pub type CrashOutcome = crash::Outcome<CrashHarnessConfig>;

fn key_bytes(key: i64) -> Vec<u8> {
    key.to_be_bytes().to_vec()
}

fn row(key: i64, val: i64) -> Vec<Value> {
    vec![Value::Int(key), Value::Int(val), Value::Str(format!("pad-{val:016x}"))]
}

/// Rows of about 1 kB: the keys span some eight heap pages, twice the pool.
fn schema() -> Schema {
    let pad = ColumnType::Str(1000);
    Schema::new(vec![("k", ColumnType::Int), ("v", ColumnType::Int), ("pad", pad)])
}

/// The table and its index on two dies, log and catalog on one.
fn placement() -> PlacementConfig {
    let region = |name: &str, objects: &[&str], dies| RegionAssignment {
        region_name: name.into(),
        objects: objects.iter().map(|o| o.to_string()).collect(),
        dies,
        service_class: None,
    };
    PlacementConfig {
        regions: vec![
            region("rgData", &[TABLE, INDEX], 2),
            region("rgLog", &[LOG_OBJECT, METADATA_OBJECT, CATALOG_OBJECT], 1),
        ],
    }
}

/// Key → value column.
type World = BTreeMap<i64, i64>;

/// What a crash run did besides committing table states.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Writing transactions whose commit was acknowledged.
    pub committed_txns: u64,
    /// Read-only transactions committed.
    pub read_only_txns: u64,
    /// WAL pages when the run stopped.
    pub wal_pages: u64,
    /// Dirty pages the buffer pool wrote back.
    pub dirty_writebacks: u64,
}

/// The database's side of the crash driver.
impl Contract for CrashHarnessConfig {
    type Machine = Arc<flash_sim::NandDevice>;
    type Engine = Database;
    type World = World;
    type Report = RunReport;
    type Recovery = RecoveryReport;
    type Error = DbError;

    /// Device → NoFTL → backend → database, then the DDL setup, finishing
    /// with a checkpoint.
    fn build(&self) -> Result<Stack<Self::Machine, Database>> {
        let device = Arc::new(
            DeviceBuilder::new(FlashGeometry::small_test()).timing(TimingModel::mlc_2015()).build(),
        );
        device.metrics().tracer().set_enabled(self.trace);
        let noftl = Arc::new(NoFtl::new(device.clone(), NoFtlConfig::default()));
        let backend = Arc::new(NoFtlBackend::new(Arc::clone(&noftl), &placement())?);
        let db = Database::open(backend, DB_CONFIG)?;
        db.create_table(TABLE, schema(), SimTime::ZERO)?;
        db.create_index(TABLE, INDEX, SimTime::ZERO)?;
        let setup_end = db.checkpoint(SimTime::ZERO)?.max(device.quiesce_time());
        Ok(Stack { machine: device, noftl, engine: db, setup_end })
    }

    /// Run the workload until `txns` transactions complete or the device
    /// loses power.  An engine error is the cut's, except for what this
    /// contract rules out: a reader seeing other than the committed value,
    /// or a key the transaction knows missing from the index.
    fn run(
        &self,
        stack: &Stack<Self::Machine, Database>,
        ledger: &mut Ledger<World>,
    ) -> Result<(SimTime, RunReport)> {
        let db = &stack.engine;
        let mut rng = SplitMix64(self.seed);
        let mut committed_txns = 0;
        let mut read_only_txns = 0;
        let mut now = stack.setup_end;
        'txns: for _ in 0..self.txns {
            let mut txn = db.begin(now);
            let mut pending = ledger.committed.clone();
            let ops = 1 + rng.below(3);
            // ~5 % of transactions abort.  Like TPC-C's NewOrder "unused
            // item" case the decision pre-validates: an aborting transaction
            // only reads (the engine's rollback contract — no undo pass).
            let rollback = rng.below(100) < 5;
            // ~15 % of the others only read, and commit: they see exactly
            // the committed world and their commit leaves the log alone.
            let read_only = !rollback && rng.below(100) < 15;
            for _ in 0..ops {
                let key = rng.below(KEYS as u64) as i64;
                let step = if rollback {
                    let _ = rng.next_u64();
                    db.index_lookup(&mut txn, TABLE, INDEX, &key_bytes(key)).map(drop)
                } else if read_only {
                    let found = db.index_get(&mut txn, TABLE, INDEX, &key_bytes(key));
                    let committed = ledger.committed.get(&key).copied();
                    match found.map(|hit| hit.map(|(_, record)| record.int(1))) {
                        Ok(seen) if seen != committed => {
                            return Err(corrupted(format!(
                                "a reader saw {seen:?} for key {key}, committed {committed:?}"
                            )));
                        }
                        read => read.map(drop),
                    }
                } else {
                    // `pending` may run ahead of the engine: an operation
                    // that fails ends the run and drops `pending` with it.
                    let val = rng.next_u64() as i64;
                    if pending.insert(key, val).is_none() {
                        db.insert(&mut txn, TABLE, &row(key, val), &[(INDEX, key_bytes(key))])
                            .map(drop)
                    } else {
                        let update = rng.below(10) < 7;
                        match db.index_lookup(&mut txn, TABLE, INDEX, &key_bytes(key)) {
                            Ok(Some(rid)) if update => {
                                db.update(&mut txn, TABLE, rid, &row(key, val))
                            }
                            Ok(Some(rid)) => {
                                pending.remove(&key);
                                db.delete(&mut txn, TABLE, rid, &[(INDEX, key_bytes(key))])
                            }
                            Ok(None) => {
                                return Err(corrupted(format!("key {key} missing from index")))
                            }
                            Err(e) => Err(e),
                        }
                    }
                };
                if step.is_err() {
                    ledger.cut(None);
                    break 'txns;
                }
            }
            if rollback {
                db.rollback(&mut txn);
            } else if db.commit(&mut txn).is_err() {
                ledger.cut((!read_only).then_some(pending));
                break;
            } else if read_only {
                read_only_txns += 1;
            } else {
                ledger.commit(pending);
                committed_txns += 1;
            }
            now = txn.now;
        }
        let (wal_pages, dirty_writebacks) =
            (db.wal_stats().pages, db.buffer_stats().dirty_writebacks);
        Ok((now, RunReport { committed_txns, read_only_txns, wal_pages, dirty_writebacks }))
    }

    /// Reopen on the remounted manager, then read every key of the
    /// universe back through the index; the heap's live-record count must
    /// agree with that view.
    fn recover(&self, noftl: Arc<NoFtl>, at: SimTime) -> Result<(RecoveryReport, World)> {
        let backend = Arc::new(NoFtlBackend::attach(noftl, &placement())?);
        let (db, recovery) = Database::recover(backend, DB_CONFIG, at)?;
        let mut txn = db.begin(at);
        let mut actual = World::new();
        for key in 0..KEYS {
            if let Some((_, record)) = db.index_get(&mut txn, TABLE, INDEX, &key_bytes(key))? {
                if record.int(0) != key {
                    return Err(corrupted(format!("key {key} found the row of {}", record.int(0))));
                }
                actual.insert(key, record.int(1));
            }
        }
        let (heap, index) = (db.with_table(TABLE, |t| t.heap.record_count())?, actual.len());
        if heap != index as u64 {
            return Err(corrupted(format!("heap holds {heap} records, the index sees {index}")));
        }
        Ok((recovery, actual))
    }

    /// Each cut lands a little into its mount's device scan.
    fn torn_mounts(&self) -> Vec<(Duration, Duration)> {
        (0..self.mount_cuts).map(|i| (Duration(40_000 + i * 25_000), Duration(100_000))).collect()
    }
}

fn corrupted(message: String) -> DbError {
    DbError::Corrupted { message }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dry_run_without_cut_is_clean() {
        let cfg = CrashHarnessConfig { txns: 30, ..CrashHarnessConfig::default() };
        let dry = crash::dry_run(&cfg).expect("dry run must not crash");
        let (run, db) = (&dry.report, &dry.stack.engine);
        assert!(run.committed_txns > 15, "committed {}", run.committed_txns);
        assert!(run.read_only_txns > 0, "the mix must contain read-only transactions");
        assert_eq!(db.read_only_commit_count(), run.read_only_txns);
        assert!(!dry.committed.is_empty());
        assert!(db.wal_stats().truncations > 0, "segment guard must fire");
        assert!(run.dirty_writebacks > 0, "the pool must write committed pages back");
    }

    /// Sweep the one cut at `fraction` of `cfg`'s span, checking its
    /// outcome with `check`.
    fn one_cut(cfg: &CrashHarnessConfig, fraction: f64, check: impl Fn(&CrashOutcome)) {
        let cut = crash::dry_run(cfg).unwrap().cut_at(fraction);
        let mut cycles = 0;
        let violations = crash::sweep(cfg, &[cut], |outcome| {
            check(outcome);
            cycles += 1;
        });
        assert!(violations.is_empty(), "{violations:?}");
        assert_eq!(cycles, 1);
    }

    #[test]
    fn mid_workload_cut_recovers() {
        let cfg = CrashHarnessConfig { txns: 60, ..CrashHarnessConfig::default() };
        one_cut(&cfg, 0.5, |outcome| {
            assert!(outcome.report.committed_txns > 0);
            assert!(outcome.mount.checkpoint_seq > 0);
            assert!(outcome.recovered.len() <= KEYS as usize);
        });
    }

    #[test]
    fn cut_during_recovery_mount_retries_and_recovers() {
        // At least one of the two armed cuts must actually land inside the
        // mount scan; recovery after the retries still passes every ACID
        // check (the sweep reports a violation otherwise).
        let cfg = CrashHarnessConfig { txns: 50, mount_cuts: 2, ..CrashHarnessConfig::default() };
        one_cut(&cfg, 0.6, |outcome| {
            assert!(outcome.torn_mounts > 0, "no mount was interrupted");
            assert!(outcome.report.committed_txns > 0);
        });
    }
}

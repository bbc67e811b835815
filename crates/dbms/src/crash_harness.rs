//! Crash-consistency harness: workload → power cut → reboot → recover →
//! verify.
//!
//! The harness drives a mixed, TPC-C-ish key-value workload (inserts,
//! updates, deletes, read-only transactions and occasional rollbacks over
//! an indexed table) against the full NoFTL stack, cuts power at a chosen
//! simulated instant, "reboots" the device by round-tripping its state through a
//! [`flash_sim::DeviceSnapshot`] (optionally via a file-backed image),
//! remounts the storage manager with `NoFtl::mount`, replays the WAL tail
//! with [`Database::recover`] and then verifies the ACID contract:
//!
//! * **no torn pages** — every surviving page passed its checksum;
//! * **no lost committed writes** — every transaction whose commit was
//!   acknowledged before the cut is fully present;
//! * **atomicity** — the one transaction that may have been in flight at
//!   the cut is either completely present or completely absent;
//! * **metadata fidelity** — the remounted manager exposes the same
//!   regions and objects as the pre-crash instance.
//!
//! Because the simulator is deterministic, the harness first performs a
//! *dry run* to learn the workload's time span, then rebuilds an
//! identical stack and re-runs it with a power cut armed at
//! `setup_end + fraction · (workload_end - setup_end)` — so a fraction in
//! `[0, 1)` sweeps cut instants across the entire workload, hitting
//! commits, checkpoints, GC and WAL forces alike.

use std::collections::BTreeMap;
use std::sync::Arc;

use flash_sim::{
    DeviceBuilder, DeviceSnapshot, FlashBackend, FlashGeometry, NandDevice, SimTime, TimingModel,
};
use noftl_core::{MountReport, NoFtl, NoFtlConfig, PlacementConfig, RegionAssignment};

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

/// Harness configuration.
#[derive(Debug, Clone)]
pub struct CrashHarnessConfig {
    /// Device geometry (default: the tiny unit-test geometry).
    pub geometry: FlashGeometry,
    /// Device timing model.
    pub timing: TimingModel,
    /// Buffer-pool pages.
    pub buffer_pages: usize,
    /// WAL segment budget in pages (small by default so checkpoints and
    /// truncations happen mid-workload).
    pub wal_segment_pages: u64,
    /// Transactions to attempt.
    pub txns: u64,
    /// Distinct keys in the working set.
    pub keys: i64,
    /// Workload RNG seed.
    pub seed: u64,
    /// Round-trip the device snapshot through a file-backed image on
    /// reboot (exercises the persistence path; slower).
    pub image_file: bool,
    /// Enable the stack's cross-layer event tracer for the cycle.  The
    /// determinism tests run identical cycles with this on and off and
    /// require byte-identical mount reports — tracing must never perturb
    /// recovery.
    pub trace: bool,
    /// Crash-during-recovery schedule: number of *additional* power cuts
    /// to land while the recovery mount itself is scanning the device.
    /// Each interrupted boot is treated as a crash of its own (the torn
    /// device round-trips through a snapshot again) before the mount is
    /// retried; the final mount must still satisfy every ACID check.
    pub mount_cuts: u64,
}

impl Default for CrashHarnessConfig {
    fn default() -> Self {
        CrashHarnessConfig {
            geometry: FlashGeometry::small_test(),
            timing: TimingModel::mlc_2015(),
            buffer_pages: 64,
            wal_segment_pages: 8,
            txns: 120,
            keys: 32,
            seed: 0xC0FFEE,
            image_file: false,
            trace: false,
            mount_cuts: 0,
        }
    }
}

/// Outcome of one workload → cut → recover → verify cycle.
#[derive(Debug, Clone)]
pub struct CrashOutcome {
    /// The armed power-cut instant.
    pub cut_at: SimTime,
    /// Writing transactions whose commit was acknowledged before the cut.
    pub committed_txns: u64,
    /// Read-only transactions committed before the cut (no log record,
    /// no force — they must neither lose nor resurrect anything).
    pub read_only_txns: u64,
    /// Whether the cut interrupted a commit (whose effects may then
    /// legitimately survive in full).
    pub cut_during_commit: bool,
    /// Whether the in-flight transaction's effects survived recovery.
    pub in_flight_survived: bool,
    /// Rows present (and verified) after recovery.
    pub rows_verified: u64,
    /// The storage-manager mount summary.
    pub mount: MountReport,
    /// The database recovery summary.
    pub recovery: RecoveryReport,
    /// WAL pages at the moment of the crash (log length the redo pass had
    /// to consider).
    pub wal_pages_at_crash: u64,
    /// Recovery mounts that were themselves interrupted by a power cut
    /// before the final mount succeeded (see
    /// [`CrashHarnessConfig::mount_cuts`]).
    pub interrupted_mounts: u64,
}

/// Deterministic SplitMix64, the harness's workload RNG.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound.max(1)
    }
}

fn key_bytes(key: i64) -> Vec<u8> {
    key.to_be_bytes().to_vec()
}

fn row(key: i64, val: i64) -> Vec<Value> {
    vec![Value::Int(key), Value::Int(val), Value::Str(format!("pad-{val:016x}"))]
}

fn schema() -> Schema {
    Schema::new(vec![("k", ColumnType::Int), ("v", ColumnType::Int), ("pad", ColumnType::Str(32))])
}

fn placement() -> PlacementConfig {
    PlacementConfig {
        regions: vec![
            RegionAssignment {
                region_name: "rgData".into(),
                objects: vec![TABLE.into(), INDEX.into()],
                dies: 2,
                service_class: None,
            },
            RegionAssignment {
                region_name: "rgLog".into(),
                objects: vec![
                    LOG_OBJECT.to_string(),
                    METADATA_OBJECT.to_string(),
                    CATALOG_OBJECT.to_string(),
                ],
                dies: 1,
                service_class: None,
            },
        ],
    }
}

struct Stack {
    device: Arc<NandDevice>,
    noftl: Arc<NoFtl>,
    db: Database,
}

fn db_config(cfg: &CrashHarnessConfig) -> DatabaseConfig {
    DatabaseConfig {
        buffer_pages: cfg.buffer_pages,
        redo_logging: true,
        wal_segment_pages: cfg.wal_segment_pages,
    }
}

/// Build device → NoFTL → backend → database and run the DDL setup,
/// finishing with a checkpoint.  Returns the stack and the setup end time.
fn build_stack(cfg: &CrashHarnessConfig) -> Result<(Stack, SimTime)> {
    let device = Arc::new(DeviceBuilder::new(cfg.geometry).timing(cfg.timing).build());
    device.metrics().tracer().set_enabled(cfg.trace);
    let noftl = Arc::new(NoFtl::new(device.clone(), NoFtlConfig::default()));
    let backend = Arc::new(NoFtlBackend::new(Arc::clone(&noftl), &placement())?);
    let db = Database::open(backend, db_config(cfg))?;
    let t0 = SimTime::ZERO;
    db.create_table(TABLE, schema(), t0)?;
    db.create_index(TABLE, INDEX, t0)?;
    let setup_end = db.checkpoint(t0)?.max(device.quiesce_time());
    Ok((Stack { device, noftl, db }, setup_end))
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CrashPhase {
    /// No crash happened (dry run, or the cut was never reached).
    None,
    /// Crash before the in-flight transaction reached commit.
    DuringOps,
    /// Crash inside commit: the transaction may or may not be durable.
    DuringCommit,
}

struct RunResult {
    committed: BTreeMap<i64, i64>,
    /// Full post-transaction world of the transaction in flight at the
    /// crash (only meaningful when `phase == DuringCommit`).
    with_in_flight: BTreeMap<i64, i64>,
    committed_txns: u64,
    read_only_txns: u64,
    phase: CrashPhase,
    end: SimTime,
    region_names: Vec<String>,
    object_names: Vec<String>,
}

/// Run the workload until `txns` transactions complete or the device
/// loses power.
fn run_workload(cfg: &CrashHarnessConfig, stack: &Stack, start: SimTime) -> RunResult {
    let mut rng = Rng(cfg.seed);
    let mut committed: BTreeMap<i64, i64> = BTreeMap::new();
    let mut committed_txns = 0u64;
    let mut read_only_txns = 0u64;
    let mut phase = CrashPhase::None;
    let mut with_in_flight = BTreeMap::new();
    let mut now = start;
    let db = &stack.db;
    'txns: for _ in 0..cfg.txns {
        let mut txn = db.begin(now);
        let mut pending = committed.clone();
        let ops = 1 + rng.below(3);
        // ~5 % of transactions abort.  Like TPC-C's NewOrder "unused
        // item" case the decision pre-validates: an aborting transaction
        // only reads (the engine's rollback contract — no undo pass).
        let will_rollback = rng.below(100) < 5;
        if will_rollback {
            for _ in 0..ops {
                let key = rng.below(cfg.keys as u64) as i64;
                let _ = rng.next();
                if db.index_lookup(&mut txn, TABLE, INDEX, &key_bytes(key)).is_err() {
                    phase = CrashPhase::DuringOps;
                    break 'txns;
                }
            }
            db.rollback(&mut txn);
            now = txn.now;
            continue;
        }
        // ~15 % of transactions only read, and commit: they see exactly
        // the committed world and their commit leaves the log alone.
        if rng.below(100) < 15 {
            for _ in 0..ops {
                let key = rng.below(cfg.keys as u64) as i64;
                let seen = match db.index_get(&mut txn, TABLE, INDEX, &key_bytes(key)) {
                    Ok(found) => found.map(|(_, record)| record[1].clone()),
                    Err(_) => {
                        phase = CrashPhase::DuringOps;
                        break 'txns;
                    }
                };
                assert_eq!(
                    seen,
                    committed.get(&key).map(|v| Value::Int(*v)),
                    "a reader must see the committed value of key {key}"
                );
            }
            if db.commit(&mut txn).is_err() {
                phase = CrashPhase::DuringOps;
                break 'txns;
            }
            read_only_txns += 1;
            now = txn.now;
            continue;
        }
        for _ in 0..ops {
            let key = rng.below(cfg.keys as u64) as i64;
            let val = rng.next() as i64;
            let result = if let Some(_old) = pending.get(&key).copied() {
                if rng.below(10) < 7 {
                    // Update through the index.
                    match db.index_lookup(&mut txn, TABLE, INDEX, &key_bytes(key)) {
                        Ok(Some(rid)) => {
                            db.update(&mut txn, TABLE, rid, &row(key, val)).map(|()| {
                                pending.insert(key, val);
                            })
                        }
                        Ok(None) => Err(DbError::Corrupted {
                            message: format!("key {key} committed but missing from index"),
                        }),
                        Err(e) => Err(e),
                    }
                } else {
                    match db.index_lookup(&mut txn, TABLE, INDEX, &key_bytes(key)) {
                        Ok(Some(rid)) => {
                            db.delete(&mut txn, TABLE, rid, &[(INDEX, key_bytes(key))]).map(|()| {
                                pending.remove(&key);
                            })
                        }
                        Ok(None) => Err(DbError::Corrupted {
                            message: format!("key {key} committed but missing from index"),
                        }),
                        Err(e) => Err(e),
                    }
                }
            } else {
                db.insert(&mut txn, TABLE, &row(key, val), &[(INDEX, key_bytes(key))]).map(|_| {
                    pending.insert(key, val);
                })
            };
            if result.is_err() {
                phase = CrashPhase::DuringOps;
                break 'txns;
            }
        }
        match db.commit(&mut txn) {
            Ok(_) => {
                committed = pending;
                committed_txns += 1;
                now = txn.now;
            }
            Err(_) => {
                phase = CrashPhase::DuringCommit;
                with_in_flight = pending;
                break 'txns;
            }
        }
    }
    let mut region_names: Vec<String> = stack
        .noftl
        .region_ids()
        .into_iter()
        .filter_map(|rid| stack.noftl.region_name(rid).ok())
        .collect();
    region_names.sort();
    let mut object_names: Vec<String> =
        stack.noftl.all_object_stats().into_iter().map(|s| s.name).collect();
    object_names.sort();
    RunResult {
        committed,
        with_in_flight,
        committed_txns,
        read_only_txns,
        phase,
        end: now.max(stack.device.quiesce_time()),
        region_names,
        object_names,
    }
}

/// Reboot the device: snapshot the (possibly torn) state and rebuild a
/// fresh device from it, optionally round-tripping through a file-backed
/// image.
fn reboot_device(
    device: &NandDevice,
    timing: TimingModel,
    via_file: bool,
    tag: u64,
) -> Result<Arc<NandDevice>> {
    let snap = device.snapshot();
    let snap = if via_file {
        let path =
            std::env::temp_dir().join(format!("noftl-crash-{}-{tag}.img", std::process::id()));
        snap.save(&path).map_err(DbError::storage)?;
        let loaded = DeviceSnapshot::load(&path).map_err(DbError::storage);
        std::fs::remove_file(&path).ok();
        loaded?
    } else {
        snap
    };
    NandDevice::from_snapshot(&snap, timing).map(Arc::new).map_err(DbError::storage)
}

/// Execute one full crash cycle: workload, power cut at
/// `setup_end + fraction · span`, reboot, mount, recover, verify.
///
/// `fraction` is clamped to `[0, 1)`.  Returns an error if any of the
/// crash-consistency guarantees is violated.
pub fn run_crash_cycle(cfg: &CrashHarnessConfig, fraction: f64) -> Result<CrashOutcome> {
    // Dry run: learn the workload's time span on an identical stack.
    let (dry, dry_setup_end) = build_stack(cfg)?;
    let dry_run = run_workload(cfg, &dry, dry_setup_end);
    assert_eq!(dry_run.phase, CrashPhase::None, "dry run must not crash");

    // Armed run on a fresh, identical stack.
    let (stack, setup_end) = build_stack(cfg)?;
    debug_assert_eq!(setup_end, dry_setup_end, "the simulator is deterministic");
    let span = dry_run.end.as_nanos().saturating_sub(setup_end.as_nanos()).max(1);
    let fraction = fraction.clamp(0.0, 0.999_999);
    let cut_at = SimTime(setup_end.as_nanos() + (span as f64 * fraction) as u64);
    stack.device.arm_power_cut(cut_at);
    let run = run_workload(cfg, &stack, setup_end);
    let wal_pages_at_crash = stack.db.wal_stats().pages;

    // Reboot → mount → recover.  With `mount_cuts > 0` the recovery boot
    // is itself crash-tested: power dies again while the mount is
    // scanning, the torn device round-trips through another snapshot and
    // the mount is retried — a failed mount must leave no state behind
    // that the retry could trip over.
    let mut device2 = reboot_device(&stack.device, cfg.timing, cfg.image_file, cfg.seed)?;
    let mut mount_at = cut_at;
    let mut interrupted_mounts = 0u64;
    for attempt in 0..cfg.mount_cuts {
        // Land the cut a little into the mount's device scan.
        device2.arm_power_cut(SimTime(mount_at.as_nanos() + 40_000 + attempt * 25_000));
        match NoFtl::mount(device2.clone(), NoFtlConfig::default(), mount_at) {
            Err(noftl_core::NoFtlError::Flash(e)) if e.is_power_loss() => {
                interrupted_mounts += 1;
            }
            Err(e) => return Err(DbError::storage(e)),
            Ok(_) => {
                // The cut landed after the scan finished — legal; the
                // power-cycle below discards this instance anyway.
            }
        }
        device2.clear_power_cut();
        device2 = reboot_device(&device2, cfg.timing, false, cfg.seed ^ (attempt + 1))?;
        mount_at = SimTime(mount_at.as_nanos() + 100_000);
    }
    let (noftl2, mount) = NoFtl::mount(device2.clone(), NoFtlConfig::default(), mount_at)
        .map_err(DbError::storage)?;
    let noftl2 = Arc::new(noftl2);
    let backend2 = Arc::new(NoFtlBackend::attach(Arc::clone(&noftl2), &placement())?);
    let (db2, recovery) = Database::recover(backend2, db_config(cfg), mount.completed_at)?;

    // ---- Verification -------------------------------------------------
    // Region/object state: the mounted manager exposes the same regions
    // and objects the pre-crash instance had.
    let mut region_names: Vec<String> =
        noftl2.region_ids().into_iter().filter_map(|rid| noftl2.region_name(rid).ok()).collect();
    region_names.sort();
    if region_names != run.region_names {
        return Err(DbError::Corrupted {
            message: format!(
                "regions diverged after mount: {region_names:?} != {:?}",
                run.region_names
            ),
        });
    }
    let mut object_names: Vec<String> =
        noftl2.all_object_stats().into_iter().map(|s| s.name).collect();
    object_names.sort();
    if object_names != run.object_names {
        return Err(DbError::Corrupted {
            message: format!(
                "objects diverged after mount: {object_names:?} != {:?}",
                run.object_names
            ),
        });
    }

    // Data: read back every key in the universe through the index.
    let mut txn = db2.begin(recovery_time(&mount));
    let mut actual: BTreeMap<i64, i64> = BTreeMap::new();
    for key in 0..cfg.keys {
        if let Some((_, record)) = db2.index_get(&mut txn, TABLE, INDEX, &key_bytes(key))? {
            match (&record[0], &record[1]) {
                (Value::Int(k), Value::Int(v)) if *k == key => {
                    actual.insert(key, *v);
                }
                _ => {
                    return Err(DbError::Corrupted {
                        message: format!("key {key} decoded to wrong record {record:?}"),
                    })
                }
            }
        }
    }
    let matches_committed = actual == run.committed;
    let matches_in_flight = run.phase == CrashPhase::DuringCommit && actual == run.with_in_flight;
    if !matches_committed && !matches_in_flight {
        return Err(DbError::Corrupted {
            message: format!(
                "recovered state matches neither the committed world ({} keys) nor the \
                 in-flight world; actual has {} keys (phase {:?}, cut at {} ns)",
                run.committed.len(),
                actual.len(),
                run.phase,
                cut_at.as_nanos()
            ),
        });
    }
    // The heap's live-record count must agree with the index view.
    let heap_records = db2.table(TABLE)?.heap.record_count();
    if heap_records != actual.len() as u64 {
        return Err(DbError::Corrupted {
            message: format!(
                "heap holds {heap_records} records but the index sees {}",
                actual.len()
            ),
        });
    }

    Ok(CrashOutcome {
        cut_at,
        committed_txns: run.committed_txns,
        read_only_txns: run.read_only_txns,
        cut_during_commit: run.phase == CrashPhase::DuringCommit,
        in_flight_survived: matches_in_flight && !matches_committed,
        rows_verified: actual.len() as u64,
        mount,
        recovery,
        wal_pages_at_crash,
        interrupted_mounts,
    })
}

fn recovery_time(mount: &MountReport) -> SimTime {
    mount.completed_at
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dry_run_without_cut_is_clean() {
        let cfg = CrashHarnessConfig { txns: 30, ..CrashHarnessConfig::default() };
        let (stack, setup_end) = build_stack(&cfg).unwrap();
        let run = run_workload(&cfg, &stack, setup_end);
        assert_eq!(run.phase, CrashPhase::None);
        assert!(run.committed_txns > 15, "committed {}", run.committed_txns);
        assert!(run.read_only_txns > 0, "the mix must contain read-only transactions");
        assert_eq!(stack.db.read_only_commit_count(), run.read_only_txns);
        assert!(!run.committed.is_empty());
        assert!(stack.db.wal_stats().truncations > 0, "segment guard must fire");
    }

    #[test]
    fn mid_workload_cut_recovers() {
        let cfg = CrashHarnessConfig { txns: 60, ..CrashHarnessConfig::default() };
        let outcome = run_crash_cycle(&cfg, 0.5).unwrap();
        assert!(outcome.committed_txns > 0);
        assert!(outcome.mount.checkpoint_seq > 0);
    }

    #[test]
    fn cut_during_recovery_mount_retries_and_recovers() {
        let cfg = CrashHarnessConfig { txns: 50, mount_cuts: 2, ..CrashHarnessConfig::default() };
        let outcome = run_crash_cycle(&cfg, 0.6).unwrap();
        // At least one of the two armed cuts must actually have landed
        // inside the mount scan; recovery after the retries still passes
        // every ACID check (run_crash_cycle errors otherwise).
        assert!(outcome.interrupted_mounts > 0, "no mount was interrupted");
        assert!(outcome.committed_txns > 0);
    }

    #[test]
    fn cut_through_file_backed_image_recovers() {
        let cfg =
            CrashHarnessConfig { txns: 40, image_file: true, ..CrashHarnessConfig::default() };
        let outcome = run_crash_cycle(&cfg, 0.7).unwrap();
        assert!(outcome.rows_verified <= cfg.keys as u64);
    }
}

//! KV crash harness: workload → power cut → reboot → mount → open →
//! verify, the key-value analogue of `dbms::crash_harness`.
//!
//! The harness drives a deterministic put/delete workload with auto
//! flushes (and therefore cascading compactions) against a [`KvStore`],
//! cuts power at a chosen simulated instant, reboots the device from its
//! snapshot, remounts the storage manager and reopens the store, then
//! verifies the store's durability contract:
//!
//! * **no lost committed keys** — every key state covered by an
//!   *acknowledged* flush is fully present with its exact value;
//! * **flush atomicity** — the one flush that may have been in flight at
//!   the cut is either completely visible (its checkpoint landed) or
//!   completely absent (its torn run was discarded on open);
//! * **scan/get agreement** — a full range scan of the reopened store
//!   returns exactly the point-lookup view.
//!
//! Because the simulator is deterministic the harness first performs a
//! dry run to learn the workload's time span — and the simulated-time
//! windows of its compaction merges, so cuts can be aimed *into a
//! compaction* to prove that a torn merge never loses source data, and
//! (with [`KvCrashConfig::multi_page_tail`]) *between the tail pages* of
//! a run to prove that a partial tail is never adopted.
//!
//! [`KvStore`]: super::store::KvStore

use std::collections::BTreeMap;
use std::sync::Arc;

use flash_sim::{DeviceBuilder, FlashBackend, FlashGeometry, NandDevice, SimTime, TimingModel};

use crate::error::NoFtlError;
use crate::manager::NoFtl;
use crate::recovery::MountReport;
use crate::region::RegionSpec;
use crate::{NoFtlConfig, Result};

use super::store::{KvConfig, KvOpenReport, KvStore};

/// Harness configuration.
#[derive(Debug, Clone)]
pub struct KvCrashConfig {
    /// Device geometry (default: the tiny unit-test geometry).
    pub geometry: FlashGeometry,
    /// Device timing model.
    pub timing: TimingModel,
    /// Store configuration.  The default shrinks the memtable threshold
    /// so flushes and compactions fire every few dozen operations.
    pub kv: KvConfig,
    /// Dies of the store's region.
    pub region_dies: u32,
    /// Operations to attempt (~80 % puts, ~20 % deletes).
    pub ops: u64,
    /// Distinct keys in the working set.
    pub keys: u64,
    /// Pad every key to this many bytes (`0`: the bare 10-byte
    /// `user000123` form).  Long keys inflate the fence index, which is
    /// how a small workload gets runs with multi-page tails.
    pub key_len: usize,
    /// Workload RNG seed.
    pub seed: u64,
}

impl Default for KvCrashConfig {
    fn default() -> Self {
        KvCrashConfig {
            geometry: FlashGeometry::small_test(),
            timing: TimingModel::mlc_2015(),
            kv: KvConfig { memtable_bytes: 2048, compaction_threshold: 3 },
            region_dies: 2,
            ops: 400,
            keys: 48,
            key_len: 0,
            seed: 0x5EED_4B56,
        }
    }
}

impl KvCrashConfig {
    /// A workload whose every run carries a tail of three or more pages —
    /// more than its region has dies: kilobyte keys make each data page
    /// cost a kilobyte of fence index, so a flush of two dozen keys
    /// already spills its tail (and the merges above it more so).
    pub fn multi_page_tail() -> Self {
        KvCrashConfig {
            kv: KvConfig { memtable_bytes: 28 * 1024, ..KvCrashConfig::default().kv },
            key_len: 1000,
            ..KvCrashConfig::default()
        }
    }
}

/// Outcome of one workload → cut → reboot → open → verify cycle.
#[derive(Debug, Clone)]
pub struct KvCrashOutcome {
    /// The armed power-cut instant.
    pub cut_at: SimTime,
    /// Keys (with exact values) covered by the last acknowledged flush.
    pub committed_keys: u64,
    /// Flushes acknowledged before the cut.
    pub flushes_acknowledged: u64,
    /// Whether the cut landed inside a compaction merge.
    pub cut_during_compaction: bool,
    /// Whether the flush in flight at the cut survived in full (its
    /// checkpoint landed before the power went out).
    pub in_flight_flush_survived: bool,
    /// Keys verified after recovery.
    pub verified_keys: u64,
    /// The storage-manager mount summary.
    pub mount: MountReport,
    /// The store-open summary (torn/superseded runs discarded).
    pub open: KvOpenReport,
}

/// Deterministic SplitMix64: the harness's workload RNG, shared with the
/// KV unit tests.
pub(crate) struct Rng(pub(crate) u64);

impl Rng {
    pub(crate) fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub(crate) fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound.max(1)
    }
}

fn key_bytes(key: u64, key_len: usize) -> Vec<u8> {
    format!("user{key:06}{:.<pad$}", "", pad = key_len.saturating_sub(10)).into_bytes()
}

/// The key number `key_bytes` encoded.
fn key_number(key: &[u8]) -> Option<u64> {
    std::str::from_utf8(key.get(4..10)?).ok()?.parse().ok()
}

fn value_bytes(key: u64, op: u64) -> Vec<u8> {
    format!("v-{key:06}-{op:08}-pad-pad-pad").into_bytes()
}

const STORE: &str = "kvcrash";

struct Stack {
    device: Arc<NandDevice>,
    store: KvStore,
}

fn build_stack(cfg: &KvCrashConfig) -> Result<(Stack, SimTime)> {
    let device = Arc::new(DeviceBuilder::new(cfg.geometry).timing(cfg.timing).build());
    let noftl = Arc::new(NoFtl::new(device.clone(), NoFtlConfig::default()));
    let rid = noftl.create_region(RegionSpec::named("rgKv").with_die_count(cfg.region_dies))?;
    let (store, created_at) =
        KvStore::create(Arc::clone(&noftl), rid, STORE, cfg.kv, SimTime::ZERO)?;
    let setup_end = created_at.max(device.quiesce_time());
    Ok((Stack { device, store }, setup_end))
}

struct RunResult {
    /// World as of the last *acknowledged* flush.
    committed: BTreeMap<u64, Vec<u8>>,
    /// World including the operation that errored out (meaningful only if
    /// that operation's flush may have landed before the cut).
    in_flight: Option<BTreeMap<u64, Vec<u8>>>,
    flushes_acknowledged: u64,
    cut_during_compaction: bool,
    end: SimTime,
    compaction_windows: Vec<(u64, u64)>,
    tail_windows: Vec<(u64, u64)>,
}

/// Run the put/delete workload until `ops` operations complete or the
/// device loses power.
fn run_workload(cfg: &KvCrashConfig, stack: &Stack, start: SimTime) -> RunResult {
    let mut rng = Rng(cfg.seed);
    let mut pending: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
    let mut committed: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
    let mut in_flight = None;
    let mut flushes_seen = 0u64;
    let mut now = start;
    let store = &stack.store;
    for op in 0..cfg.ops {
        let k = rng.below(cfg.keys);
        let delete = rng.below(10) < 2;
        let result = if delete {
            pending.remove(&k);
            store.delete(&key_bytes(k, cfg.key_len), now)
        } else {
            let v = value_bytes(k, op);
            pending.insert(k, v.clone());
            store.put(&key_bytes(k, cfg.key_len), &v, now)
        };
        match result {
            Ok(t) => {
                now = t;
                let flushes = store.stats().flushes;
                if flushes > flushes_seen {
                    // The operation triggered a flush and it was
                    // acknowledged: everything so far is durable.
                    flushes_seen = flushes;
                    committed = pending.clone();
                }
            }
            Err(_) => {
                // Power cut.  The erroring operation entered the memtable
                // before the flush attempt, so if its flush's checkpoint
                // landed the recovered world includes this operation too.
                in_flight = Some(pending.clone());
                break;
            }
        }
    }
    let stats = store.stats();
    RunResult {
        committed,
        in_flight,
        flushes_acknowledged: flushes_seen,
        cut_during_compaction: stats.compactions_started > stats.compactions,
        end: now.max(stack.device.quiesce_time()),
        compaction_windows: stats.compaction_windows,
        tail_windows: stats.tail_windows,
    }
}

/// The uncut workload: what it did and when its setup ended.
fn dry_run(cfg: &KvCrashConfig) -> Result<(RunResult, SimTime)> {
    let (dry, setup_end) = build_stack(cfg)?;
    Ok((run_workload(cfg, &dry, setup_end), setup_end))
}

/// The `fraction`-th of `windows` (`fraction` already clamped to `[0, 1)`).
fn pick(windows: &[(u64, u64)], fraction: f64) -> Option<(u64, u64)> {
    windows.get(((windows.len() as f64) * fraction) as usize).copied()
}

/// Execute one full crash cycle with the cut at
/// `setup_end + fraction · span`.  `fraction` is clamped to `[0, 1)`.
pub fn run_kv_crash_cycle(cfg: &KvCrashConfig, fraction: f64) -> Result<KvCrashOutcome> {
    let (dry_run, dry_setup_end) = dry_run(cfg)?;
    let span = dry_run.end.as_nanos().saturating_sub(dry_setup_end.as_nanos()).max(1);
    let fraction = fraction.clamp(0.0, 0.999_999);
    let cut_at = SimTime(dry_setup_end.as_nanos() + (span as f64 * fraction) as u64);
    run_cycle_with_cut(cfg, cut_at)
}

/// Execute one crash cycle with the cut aimed *inside a compaction
/// merge* (the `fraction`-th window of the dry run, midpoint).  Returns
/// `Ok(None)` if the dry run never compacted — callers should then grow
/// the workload.
pub fn run_kv_crash_cycle_in_compaction(
    cfg: &KvCrashConfig,
    fraction: f64,
) -> Result<Option<KvCrashOutcome>> {
    let (dry_run, _) = dry_run(cfg)?;
    let fraction = fraction.clamp(0.0, 0.999_999);
    let Some((start, end)) = pick(&dry_run.compaction_windows, fraction) else {
        return Ok(None);
    };
    // Aim at the merge's queued batch: somewhere strictly inside the
    // window, biased by the fractional part so repeated calls sweep it.
    let inside = start + ((end.saturating_sub(start)) as f64 * (0.2 + 0.6 * fraction)) as u64;
    let outcome = run_cycle_with_cut(cfg, SimTime(inside.max(start + 1)))?;
    Ok(Some(outcome))
}

/// Execute crash cycles with the cut aimed *between the first and the
/// last tail page* of a run written with two or more tail pages: the
/// `fraction`-th such run a flush wrote, or with `in_compaction` the
/// `fraction`-th a compaction merge wrote.
///
/// The run's pages issue together and the tail goes last, so shortly
/// before the batch completes some tail pages have landed and others are
/// in flight.  Exactly when is the dies' business (completion order is
/// not page order, and a torn page whose lost suffix was padding still
/// verifies), so the instant is found rather than predicted: the cut
/// steps back from the batch's completion, a quarter program time per
/// cycle, until the reopened store reports a rejected partial tail
/// ([`KvOpenReport::partial_tails_rejected`]).  Every step is a full,
/// verified crash cycle; the last one's outcome is returned — a hit,
/// unless the whole batch was walked without one.  `Ok(None)` if the dry
/// run wrote no such run (use [`KvCrashConfig::multi_page_tail`]).
pub fn run_kv_crash_cycle_in_tail(
    cfg: &KvCrashConfig,
    fraction: f64,
    in_compaction: bool,
) -> Result<Option<KvCrashOutcome>> {
    let (dry_run, _) = dry_run(cfg)?;
    let merges = &dry_run.compaction_windows;
    let eligible: Vec<(u64, u64)> = dry_run
        .tail_windows
        .iter()
        .filter(|(issued, done)| {
            merges.iter().any(|(start, end)| start <= issued && done <= end) == in_compaction
        })
        .copied()
        .collect();
    let Some((issued, done)) = pick(&eligible, fraction.clamp(0.0, 0.999_999)) else {
        return Ok(None);
    };
    let step = ((cfg.timing.program_page_us * 250.0) as u64).max(1); // tPROG / 4, in ns
    let mut cut_at = done.saturating_sub(step).max(issued + 1);
    loop {
        let outcome = run_cycle_with_cut(cfg, SimTime(cut_at))?;
        if outcome.open.partial_tails_rejected > 0 || cut_at <= issued + step {
            return Ok(Some(outcome));
        }
        cut_at -= step;
    }
}

fn run_cycle_with_cut(cfg: &KvCrashConfig, cut_at: SimTime) -> Result<KvCrashOutcome> {
    let (stack, setup_end) = build_stack(cfg)?;
    stack.device.arm_power_cut(cut_at);
    let run = run_workload(cfg, &stack, setup_end);

    // Reboot → mount → open.
    let snap = stack.device.snapshot();
    let device2 = Arc::new(
        NandDevice::from_snapshot(&snap, cfg.timing)
            .map_err(|e| NoFtlError::Recovery { message: format!("reboot failed: {e}") })?,
    );
    let (noftl2, mount) = NoFtl::mount(device2.clone(), NoFtlConfig::default(), cut_at)?;
    let (store2, open) = KvStore::open(Arc::new(noftl2), STORE, cfg.kv, mount.completed_at)?;

    // ---- Verification -------------------------------------------------
    let mut now = open.completed_at;
    let mut actual: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
    for k in 0..cfg.keys {
        let (got, t) = store2.get(&key_bytes(k, cfg.key_len), now)?;
        now = t;
        if let Some(v) = got {
            actual.insert(k, v);
        }
    }
    let matches_committed = actual == run.committed;
    let matches_in_flight = run.in_flight.as_ref() == Some(&actual);
    if !matches_committed && !matches_in_flight {
        return Err(NoFtlError::Kv {
            message: format!(
                "recovered state matches neither the committed world ({} keys, {} flushes) \
                 nor the in-flight world ({:?} keys); actual has {} keys (cut at {} ns)",
                run.committed.len(),
                run.flushes_acknowledged,
                run.in_flight.as_ref().map(BTreeMap::len),
                actual.len(),
                cut_at.as_nanos()
            ),
        });
    }
    // A full scan must agree with the point-lookup view exactly.
    let (scanned, _) = store2.scan(None, None, usize::MAX, now)?;
    let scan_view: BTreeMap<u64, Vec<u8>> =
        scanned.into_iter().filter_map(|(k, v)| Some((key_number(&k)?, v))).collect();
    if scan_view != actual {
        return Err(NoFtlError::Kv {
            message: format!(
                "scan sees {} keys but point lookups see {}",
                scan_view.len(),
                actual.len()
            ),
        });
    }

    Ok(KvCrashOutcome {
        cut_at,
        committed_keys: run.committed.len() as u64,
        flushes_acknowledged: run.flushes_acknowledged,
        cut_during_compaction: run.cut_during_compaction,
        in_flight_flush_survived: matches_in_flight && !matches_committed,
        verified_keys: actual.len() as u64,
        mount,
        open,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dry_run_produces_flushes_and_compactions() {
        let cfg = KvCrashConfig::default();
        let (stack, setup_end) = build_stack(&cfg).unwrap();
        let run = run_workload(&cfg, &stack, setup_end);
        assert!(run.in_flight.is_none(), "dry run must not crash");
        assert!(run.flushes_acknowledged >= 5, "got {}", run.flushes_acknowledged);
        assert!(!run.compaction_windows.is_empty(), "workload must compact");
        assert!(!run.committed.is_empty());
    }

    #[test]
    fn mid_workload_cut_recovers_committed_keys() {
        let outcome = run_kv_crash_cycle(&KvCrashConfig::default(), 0.5).unwrap();
        assert!(outcome.flushes_acknowledged > 0);
        assert!(outcome.mount.checkpoint_seq > 0);
        assert!(outcome.verified_keys <= KvCrashConfig::default().keys);
    }

    #[test]
    fn multi_page_tail_workload_spills_tails_in_flushes_and_merges() {
        let cfg = KvCrashConfig::multi_page_tail();
        let (run, _) = dry_run(&cfg).unwrap();
        assert!(run.in_flight.is_none(), "dry run must not crash");
        let in_merge = |(issued, done): &(u64, u64)| {
            run.compaction_windows.iter().any(|(start, end)| start <= issued && done <= end)
        };
        let merged = run.tail_windows.iter().filter(|w| in_merge(w)).count();
        assert!(merged > 0, "no merge wrote a multi-page tail");
        assert!(run.tail_windows.len() > merged, "no flush wrote a multi-page tail");
    }

    #[test]
    fn cut_between_tail_pages_never_adopts_the_partial_tail() {
        for in_compaction in [false, true] {
            let outcome =
                run_kv_crash_cycle_in_tail(&KvCrashConfig::multi_page_tail(), 0.5, in_compaction)
                    .unwrap()
                    .expect("the workload writes multi-page tails");
            let partial = outcome.open.partial_tails_rejected;
            assert!(partial > 0, "in_compaction={in_compaction}: the cut missed");
            assert_eq!(outcome.cut_during_compaction, in_compaction);
            assert!(outcome.open.tail_pages_read > 0);
        }
    }

    #[test]
    fn cut_inside_a_compaction_never_loses_sources() {
        let outcome = run_kv_crash_cycle_in_compaction(&KvCrashConfig::default(), 0.4)
            .unwrap()
            .expect("default workload compacts");
        assert!(outcome.cut_during_compaction, "the cut was aimed into a merge window but missed");
    }
}

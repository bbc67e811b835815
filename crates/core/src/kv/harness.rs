//! KV crash contract: the put/delete workload that [`crate::crash`]
//! drives through cut → power cycle → mount → `KvStore::open` → verify,
//! the key-value analogue of `dbms::crash_harness`.
//!
//! The workload is deterministic puts and deletes with auto flushes (and
//! therefore cascading compactions).  Besides the directory checks that
//! [`crate::crash`] runs for every stack, the
//! reopened store must honour its durability contract:
//!
//! * **no lost committed keys** — every key state covered by an
//!   *acknowledged* flush is fully present with its exact value;
//! * **flush atomicity** — the one flush that may have been in flight at
//!   the cut is either completely visible (its pages and the checkpoint
//!   issued beside them both landed) or completely absent (its run was
//!   discarded on open: torn, whether or not the checkpoint had named it,
//!   or complete but unnamed);
//! * **scan/get agreement** — a full range scan of the reopened store
//!   returns exactly the point-lookup view.
//!
//! A merge retires its sources once its run is durable, and the next
//! flush's checkpoint records that; a cut in between leaves sources the
//! directory still names, which `KvStore::open` drops as superseded.
//!
//! The run's report says whether the cut fell inside a compaction merge,
//! and lists the merge windows and, apart, those of merges of two levels,
//! so a sweep over [`crate::crash::cut_points`] can count the cuts inside
//! either kind.  [`KvCrashConfig::multi_page_tail`] writes runs whose
//! tails span several pages, so some of its cuts leave a partial tail.

use std::collections::BTreeMap;
use std::sync::Arc;

use flash_sim::{DeviceBuilder, FlashBackend, FlashGeometry, NandDevice, SimTime, TimingModel};

use crate::crash::{self, Contract, Ledger, SplitMix64, Stack};
use crate::error::NoFtlError;
use crate::manager::NoFtl;
use crate::region::RegionSpec;
use crate::{NoFtlConfig, Result};

use super::store::{KvConfig, KvOpenReport, KvStore, COMPACTION_THRESHOLD};

/// Distinct keys in the working set.
pub const KEYS: u64 = 48;
/// Operations to attempt (~80 % puts, ~20 % deletes).
const OPS: u64 = 400;
/// Dies of the store's region.
const REGION_DIES: u32 = 2;
const STORE: &str = "kvcrash";

/// Harness configuration.  The device is the tiny unit-test geometry with
/// the MLC timing model.
#[derive(Debug, Clone)]
pub struct KvCrashConfig {
    /// Store configuration.  The default shrinks the memtable threshold
    /// so flushes and compactions fire every few dozen operations.
    pub kv: KvConfig,
    /// Pad every key to this many bytes (`0`: the bare 10-byte
    /// `user000123` form).  Long keys inflate the fence index, which is
    /// how a small workload gets runs with multi-page tails.
    pub key_len: usize,
    /// Workload RNG seed.
    pub seed: u64,
}

impl Default for KvCrashConfig {
    fn default() -> Self {
        KvCrashConfig { kv: KvConfig { memtable_bytes: 2048 }, key_len: 0, seed: 0x5EED_4B56 }
    }
}

impl KvCrashConfig {
    /// A workload whose every run carries a tail of three or more pages —
    /// more than its region has dies: kilobyte keys make each data page
    /// cost a kilobyte of fence index, so a flush of two dozen keys
    /// already spills its tail (and the merges above it more so).
    pub fn multi_page_tail() -> Self {
        KvCrashConfig {
            kv: KvConfig { memtable_bytes: 28 * 1024 },
            key_len: 1000,
            ..KvCrashConfig::default()
        }
    }

    /// A workload that flushes every dozen or so operations, often enough
    /// that some merges retire runs from two levels (level 0 and level 1).
    pub fn two_level_merges() -> Self {
        KvCrashConfig { kv: KvConfig { memtable_bytes: 640 }, ..KvCrashConfig::default() }
    }
}

/// Outcome of one workload → cut → reboot → open → verify cycle: the
/// run's report, the committed and recovered key states, and the
/// store-open summary (torn and superseded runs discarded).
pub type KvCrashOutcome = crash::Outcome<KvCrashConfig>;

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

/// Key number → value.
type World = BTreeMap<u64, Vec<u8>>;

/// What a KV crash run did besides committing key states.
#[derive(Debug, Clone)]
pub struct KvRunReport {
    /// Flushes acknowledged before the cut.
    pub flushes_acknowledged: u64,
    /// Whether the cut landed inside a compaction merge.
    pub cut_during_compaction: bool,
    /// `(start, end)` of every compaction merge, in ns.
    pub compaction_windows: Vec<(u64, u64)>,
    /// The windows of `compaction_windows` whose merge retired runs from
    /// two levels or more.
    pub two_level_merges: Vec<(u64, u64)>,
}

/// The store's side of the crash driver.
impl Contract for KvCrashConfig {
    type Machine = Arc<NandDevice>;
    type Engine = KvStore;
    type World = World;
    type Report = KvRunReport;
    type Recovery = KvOpenReport;
    type Error = NoFtlError;

    fn build(&self) -> Result<Stack<Self::Machine, KvStore>> {
        let device = Arc::new(
            DeviceBuilder::new(FlashGeometry::small_test()).timing(TimingModel::mlc_2015()).build(),
        );
        let noftl = Arc::new(NoFtl::new(device.clone(), NoFtlConfig::default()));
        let rid = noftl.create_region(RegionSpec::named("rgKv").with_die_count(REGION_DIES))?;
        let (store, created_at) =
            KvStore::create(Arc::clone(&noftl), rid, STORE, self.kv, SimTime::ZERO)?;
        let setup_end = created_at.max(device.quiesce_time());
        Ok(Stack { machine: device, noftl, engine: store, setup_end })
    }

    /// Run the put/delete workload until `OPS` operations complete or the
    /// device loses power.
    fn run(
        &self,
        stack: &Stack<Self::Machine, KvStore>,
        ledger: &mut Ledger<World>,
    ) -> Result<(SimTime, KvRunReport)> {
        let store = &stack.engine;
        let key_len = self.key_len;
        let mut rng = SplitMix64(self.seed);
        let mut pending = World::new();
        let mut flushes_seen = 0u64;
        let mut retired_seen = 0u64;
        let mut two_level_merges = Vec::new();
        let mut now = stack.setup_end;
        for op in 0..OPS {
            let k = rng.below(KEYS);
            let delete = rng.below(10) < 2;
            let result = if delete {
                pending.remove(&k);
                store.delete(&key_bytes(k, key_len), now)
            } else {
                let v = value_bytes(k, op);
                pending.insert(k, v.clone());
                store.put(&key_bytes(k, key_len), &v, now)
            };
            match result {
                Ok(t) => {
                    now = t;
                    let stats = store.stats();
                    if stats.flushes > flushes_seen {
                        // The operation triggered a flush and it was
                        // acknowledged: everything so far is durable.
                        flushes_seen = stats.flushes;
                        ledger.commit(pending.clone());
                    }
                    // A level holds fewer runs than the threshold, so a
                    // merge that retired that many took two levels' runs.
                    if stats.compacted_runs - retired_seen >= COMPACTION_THRESHOLD as u64 {
                        two_level_merges.extend(stats.compaction_windows.last());
                    }
                    retired_seen = stats.compacted_runs;
                }
                Err(e) => {
                    // Power cut.  The erroring operation entered the
                    // memtable before the flush attempt, so if its flush's
                    // pages and checkpoint landed the recovered world
                    // includes it.
                    ledger.cut(Some(pending), e);
                    break;
                }
            }
        }
        let stats = store.stats();
        let report = KvRunReport {
            flushes_acknowledged: flushes_seen,
            cut_during_compaction: stats.compactions_started > stats.compactions,
            compaction_windows: stats.compaction_windows,
            two_level_merges,
        };
        Ok((now, report))
    }

    /// Reopen the store, then read every key by point lookup; a full scan
    /// must agree with that view exactly.
    fn recover(&self, noftl: Arc<NoFtl>, at: SimTime) -> Result<(KvOpenReport, World)> {
        let (store, open) = KvStore::open(noftl, STORE, self.kv, at)?;
        let mut now = open.completed_at;
        let mut actual = World::new();
        for k in 0..KEYS {
            let (got, t) = store.get(&key_bytes(k, self.key_len), now)?;
            now = t;
            if let Some(v) = got {
                actual.insert(k, v);
            }
        }
        let (scanned, _) = store.scan(None, None, usize::MAX, now)?;
        let scan_view: World =
            scanned.into_iter().filter_map(|(k, v)| Some((key_number(&k)?, v))).collect();
        if scan_view != actual {
            let (scanned, looked_up) = (scan_view.len(), actual.len());
            let message = format!("scan sees {scanned} keys but point lookups see {looked_up}");
            return Err(NoFtlError::Kv { message });
        }
        Ok((open, actual))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dry_run_produces_flushes_and_compactions() {
        let run = crash::dry_run(&KvCrashConfig::default()).unwrap().report;
        assert!(run.flushes_acknowledged >= 5, "got {}", run.flushes_acknowledged);
        assert!(!run.compaction_windows.is_empty(), "workload must compact");
    }

    #[test]
    fn mid_workload_cut_recovers_committed_keys() {
        let cfg = KvCrashConfig::default();
        let cut = crash::dry_run(&cfg).unwrap().cut_at(0.5);
        let mut cycles = 0;
        let violations = crash::sweep(&cfg, &[cut], |outcome| {
            assert!(outcome.report.flushes_acknowledged > 0);
            assert!(outcome.mount.checkpoint_seq > 0);
            assert!(!outcome.committed.is_empty());
            assert!(outcome.recovered.len() as u64 <= KEYS);
            cycles += 1;
        });
        assert!(violations.is_empty(), "{violations:?}");
        assert_eq!(cycles, 1);
    }
}

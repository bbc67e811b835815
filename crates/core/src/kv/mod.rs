//! # NoFTL-KV — a log-structured key-value layer on queued multi-die I/O.
//!
//! The paper's follow-up direction to configurable regions: instead of an
//! LSM engine fighting an opaque FTL (its flushes and compactions
//! colliding with the device's own garbage collection), the key-value
//! mechanics are expressed as *region-local* operations against the NoFTL
//! storage manager:
//!
//! * **Memtable** ([`memtable`]) — an in-memory sorted write buffer with a
//!   size threshold.  Puts and deletes (tombstones) land here first.
//! * **Sorted runs** ([`run`]) — a flushed memtable becomes one immutable
//!   sorted run: an ordinary NoFTL *object* whose data pages are written
//!   through [`NoFtl::write_batch`], so the whole flush fans out across
//!   the region's dies at one shared issue time.  A run ends in a
//!   self-describing *tail* (format v2, one or more pages): the first key of every data page and a
//!   Bloom filter over the run's keys, so a point lookup knows which
//!   runs to skip and which single page of the others to read.  Index
//!   and filter stay resident in [`RunMeta`] — about 1 % of the run's
//!   size, bounded by the data, hence fixed constants and no option.
//! * **Compaction as region-local GC** ([`store`]) — when a level
//!   accumulates enough runs they are merged (newest version wins,
//!   tombstones dropped at the bottom) and the merged run is written as
//!   one queued batch; the source runs are then retired through the
//!   existing object-drop path, whose invalidations feed the region's
//!   normal GC/erase machinery.
//! * **Crash safety rides the checkpoint/mount path** — the run directory
//!   and sequence numbers are exactly the storage manager's object
//!   directory, journalled by [`NoFtl::checkpoint`] chunk pages: the
//!   runs' names, not their page maps (those are the run pages' own OOB
//!   records), so a commit costs one chunk page whatever it covers.  After a
//!   power cut, [`NoFtl::mount`] discards torn pages via the OOB payload
//!   checksum and [`KvStore::open`] then discards incomplete runs (a
//!   page missing, or a tail without all its members) and runs
//!   superseded by a durable merge; a tail of another format version
//!   fails the open instead of being taken for torn.  A flush is
//!   *committed* once `flush` returns: run pages durable and the
//!   directory checkpointed.
//!
//! [`harness`] is the store's crash contract for the one crash driver,
//! [`crate::crash`]: it builds the store, runs a put/delete workload,
//! reopens with [`KvStore::open`] and reads back (a full scan must match
//! the point lookups), and it aims cuts into compaction merges and between
//! the tail pages of a run.  The driver does the dry run, the cut, the
//! power cycle, the mount and the checks every stack owes — the KV
//! analogue of `dbms::crash_harness`, over the same loop.
//!
//! [`NoFtl`]: crate::NoFtl
//! [`NoFtl::write_batch`]: crate::NoFtl::write_batch
//! [`NoFtl::checkpoint`]: crate::NoFtl::checkpoint
//! [`NoFtl::mount`]: crate::NoFtl::mount
//! [`KvStore::open`]: store::KvStore::open

pub mod harness;
pub mod memtable;
pub mod run;
pub mod store;

pub use harness::{
    run_kv_crash_cycle, run_kv_crash_cycle_in_compaction, run_kv_crash_cycle_in_tail,
    KvCrashConfig, KvCrashOutcome, KvRunReport,
};
pub use run::RunMeta;
pub use store::{KvConfig, KvOpenReport, KvStats, KvStore};

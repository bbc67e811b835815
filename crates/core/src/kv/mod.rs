//! # NoFTL-KV — a log-structured key-value layer on queued multi-die I/O.
//!
//! The paper's follow-up direction to configurable regions: instead of an
//! LSM engine fighting an opaque FTL (its flushes and compactions
//! colliding with the device's own garbage collection), the key-value
//! mechanics are expressed as *region-local* operations against the NoFTL
//! storage manager:
//!
//! * **Memtable** (`memtable`) — an in-memory sorted write buffer with a
//!   size threshold.  Puts and deletes (tombstones) land here first: their
//!   bytes in one arena, their order in a vector of slots, both kept
//!   across flushes.
//! * **Sorted runs** ([`run`]) — a flushed memtable becomes one immutable
//!   sorted run: an ordinary NoFTL *object* whose data pages are written
//!   through one [`NoFtl::execute`], so the whole flush fans out across
//!   the region's dies at one shared issue time.  A run ends in a
//!   self-describing *tail* (format v2, one or more pages): the first key of every data page and a
//!   Bloom filter over the run's keys, so a point lookup knows which
//!   runs to skip and which single page of the others to read.  Index
//!   and filter stay resident in [`RunMeta`] — about 1 % of the run's
//!   size, bounded by the data, hence fixed constants and no option.
//! * **The cascade: compaction as region-local GC** ([`store`]) — a level
//!   never holds four runs.  A flush that would give level 0 its fourth
//!   run instead merges, in one pass, the memtable, level 0's runs and
//!   the runs of every next level that would fill in turn, into one run
//!   at the first level that stays below four (newest version wins,
//!   tombstones dropped at the bottom), written as one queued batch.  So
//!   after `n` flushes level `l` holds the `l`-th base-4 digit of `n`
//!   runs, and no run is written only to be merged away.  The source runs
//!   are then retired through the existing object-drop path, whose
//!   invalidations feed the region's normal GC/erase machinery.
//! * **Crash safety rides the checkpoint/mount path** — the run directory
//!   and sequence numbers are exactly the storage manager's object
//!   directory, journalled by [`NoFtl::checkpoint`] chunk pages: the
//!   runs' names, not their page maps (those are the run pages' own OOB
//!   records), so a commit costs one chunk page whatever it covers.  The
//!   checkpoint naming a run issues at the instant its pages do, and a
//!   merge retires its sources without one: the next flush's records it.
//!   After a power cut, [`NoFtl::mount`] discards torn pages via the OOB
//!   payload checksum and [`KvStore::open`] then discards incomplete runs
//!   (a page missing, or a tail without all its members), named or not,
//!   and runs a durable merge retired or supersedes; a tail of another
//!   format version fails the open instead of being taken for torn.  A
//!   flush is *committed* once `flush` returns: run pages durable and the
//!   directory checkpointed.
//!
//! **Nothing is allocated per entry, page or source.**  A get lends the
//! value it finds ([`KvStore::get_with`]) from the memtable's arena or
//! from the one run page the store keeps for gets.  A merge reads its
//! source runs, through one read pipeline, into a page arena the store
//! keeps, and merges their entries and the memtable's where they lie
//! ([`run::merge`]) into a page buffer the store keeps
//! ([`run::RunWriter`]).  What a merge does allocate is a constant per
//! run it writes: its name, directory entry, page map and [`RunMeta`].
//!
//! **A lending closure must not re-enter the store.**  `get_with` runs
//! its closure under the store's lock (class `Engine`), so a closure that
//! calls back into the same store panics in a debug build ("recursive
//! acquisition of engine") and deadlocks in a release build.
//!
//! [`harness`] is the store's crash contract for the one crash driver,
//! [`crate::crash`]: it builds the store, runs a put/delete workload,
//! reopens with [`KvStore::open`] and reads back (a full scan must match
//! the point lookups), and it reports whether a cut fell inside a
//! compaction merge.  The driver does the dry run, the cuts, the power
//! cycle, the mount and the checks every stack owes — the KV analogue of
//! `dbms::crash_harness`, over the same loop.
//!
//! [`NoFtl`]: crate::NoFtl
//! [`NoFtl::execute`]: crate::NoFtl::execute
//! [`NoFtl::checkpoint`]: crate::NoFtl::checkpoint
//! [`NoFtl::mount`]: crate::NoFtl::mount
//! [`KvStore::open`]: store::KvStore::open

pub mod harness;
mod memtable;
pub mod run;
pub mod store;

pub use harness::{KvCrashConfig, KvCrashOutcome, KvRunReport};
pub use run::RunMeta;
pub use store::{KvConfig, KvOpenReport, KvStats, KvStore};

//! The NoFTL-KV store: memtable + per-region sorted runs, flushed and
//! compacted as multi-die batches.
//!
//! See the [module docs](super) for the architecture.  The durability
//! contract in one line: **a put is committed once a flush covering it
//! returns** — run pages written (as one queued multi-die batch) *and*
//! the object directory checkpointed through the storage manager's
//! region-metadata journal, the checkpoint issued beside the pages.  The
//! checkpoint names the run; which physical pages hold it is read back
//! from their OOB records on mount.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

use flash_sim::lockorder::{self, LockClass, TrackedGuard};
use flash_sim::{ServiceClass, SimTime};

use crate::error::NoFtlError;
use crate::io::IoRequest;
use crate::manager::NoFtl;
use crate::object::ObjectId;
use crate::obs::KvObs;
use crate::recovery::ORPHAN_PREFIX;
use crate::region::RegionId;
use crate::Result;

use super::memtable::Memtable;
use super::run::{self, Bloom, Entry, RunMeta, RunWriter, TailError};

/// Maximum reads in flight when scans, compaction merges and `open`'s tail
/// reads pull run pages through the windowed pipeline ([`NoFtl::execute`]).
const READ_WINDOW: usize = 8;

/// A level never holds this many runs: a flush that would give a level its
/// `COMPACTION_THRESHOLD`-th run merges that level into the next instead
/// (the cascade rule of `KvStore::cascade`).
pub(crate) const COMPACTION_THRESHOLD: usize = 4;

/// Configuration of a [`KvStore`].
#[derive(Debug, Clone, Copy)]
pub struct KvConfig {
    /// Memtable flush threshold in approximate resident bytes.
    pub memtable_bytes: usize,
}

impl Default for KvConfig {
    fn default() -> Self {
        KvConfig { memtable_bytes: 64 * 1024 }
    }
}

/// Operation counters of a [`KvStore`].
#[derive(Debug, Clone, Default)]
pub struct KvStats {
    /// Puts accepted.
    pub puts: u64,
    /// Deletes (tombstones) accepted.
    pub deletes: u64,
    /// Point lookups served.
    pub gets: u64,
    /// Range scans served.
    pub scans: u64,
    /// Gets answered from the memtable (value or tombstone).
    pub memtable_hits: u64,
    /// Run pages read on behalf of gets/scans/merges.
    pub run_page_reads: u64,
    /// Run pages read on behalf of gets alone.
    pub get_page_reads: u64,
    /// Runs whose key range covered a get's key, so their filter was
    /// consulted (`run_probes - bloom_skips` runs were then read).
    pub run_probes: u64,
    /// Probed runs a get skipped because the filter ruled the key out.
    pub bloom_skips: u64,
    /// Memtable flushes completed: every merge, which each commits the memtable.
    pub flushes: u64,
    /// Pages (data + tail) written by flushes that merged no run.
    pub flushed_pages: u64,
    /// Flushes started that also merge runs (cascades of depth 1 or more).
    pub compactions_started: u64,
    /// Flushes completed that also merged runs: each is one of `flushes`.
    pub compactions: u64,
    /// Source runs retired by completed compactions.
    pub compacted_runs: u64,
    /// Pages written by completed compactions (never also in `flushed_pages`).
    pub compacted_pages: u64,
    /// Simulated-time windows `(start_ns, end_ns)` of completed
    /// compactions, flush start to the merged run's durability point (its
    /// last page and its checkpoint both landed) — the crash sweep counts
    /// the cuts that fall into these.
    pub compaction_windows: Vec<(u64, u64)>,
}

/// Rows returned by [`KvStore::scan`]: live key/value pairs in key order.
pub type ScanResult = Vec<(Vec<u8>, Vec<u8>)>;

/// What [`KvStore::open`] found while rebuilding the run directory.
#[derive(Debug, Clone, Default)]
pub struct KvOpenReport {
    /// Valid runs adopted into the directory.
    pub runs_recovered: usize,
    /// Incomplete runs discarded (torn by a power cut before their flush
    /// or merge was acknowledged), and complete runs no checkpoint named.
    pub torn_runs_discarded: usize,
    /// Of `torn_runs_discarded`, the runs the directory named: the cut
    /// fell after their flush's checkpoint and before their last page.
    pub named_runs_torn: usize,
    /// Runs a durable merge had retired: sources the directory still
    /// named because no checkpoint had recorded their drop (their pages
    /// are gone), or runs a merged run's sequence range covers.
    pub superseded_runs_discarded: usize,
    /// Candidates that end in a tail page yet are not complete runs —
    /// pages missing below it, or the tail's own last member missing: the
    /// cut fell after a tail page landed and before the whole run had.
    /// Counted among named runs (then discarded as torn) and orphans
    /// (left alone) alike; none is ever adopted.
    pub partial_tails_rejected: usize,
    /// Total entries across recovered runs (tombstones included).
    pub entries_recovered: u64,
    /// Pages read off the ends of the candidates to find, validate and
    /// decode their tails.
    pub tail_pages_read: u64,
    /// Next flush sequence number.
    pub next_seq: u64,
    /// Device time when the open (tail reads included) finished.
    pub completed_at: SimTime,
}

#[derive(Debug)]
struct KvInner {
    memtable: Memtable,
    /// Live runs, newest first (descending `seq_hi`; live runs always
    /// cover pairwise-disjoint sequence ranges).
    runs: Vec<RunMeta>,
    stats: KvStats,
    /// The page a get reads a run page into, reused by every get.
    page: Vec<u8>,
    /// The pages of the run being written, encoded by flushes and merges.
    writer: RunWriter,
    /// The data pages a merge reads, its sources' oldest first.
    arena: Vec<u8>,
}

/// A log-structured key-value store over one NoFTL region.
pub struct KvStore {
    noftl: Arc<NoFtl>,
    region: RegionId,
    name: String,
    config: KvConfig,
    inner: Mutex<KvInner>,
    /// Pre-bound metric handles on the stack's shared registry.
    obs: KvObs,
}

impl std::fmt::Debug for KvStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.lock_store();
        f.debug_struct("KvStore")
            .field("name", &self.name)
            .field("region", &self.region)
            .field("runs", &inner.runs.len())
            .field("memtable_entries", &inner.memtable.len())
            .finish_non_exhaustive()
    }
}

/// The sequence number of the next flush over `runs` (newest first).
fn next_seq(runs: &[RunMeta]) -> u64 {
    runs.first().map_or(1, |r| r.seq_hi + 1)
}

fn kv_err(message: impl Into<String>) -> NoFtlError {
    NoFtlError::Kv { message: message.into() }
}

/// The error of a run page read that did not decode as a data page.
fn not_data(req: &IoRequest<'_>) -> NoFtlError {
    kv_err(format!("run object {} page {} is not a data page", req.object, req.page))
}

impl KvStore {
    /// Marker-object name anchoring a store (records its region in the
    /// checkpointed object directory).
    fn marker_name(name: &str) -> String {
        format!("__kv_{name}")
    }

    /// Name prefix of this store's run objects.
    fn run_prefix(name: &str) -> String {
        format!("__kv_{name}_r")
    }

    /// The one way to the store's state: its mutex, taken as
    /// [`LockClass::Engine`] — a KV store is an engine over the manager,
    /// as a database is.
    fn lock_store(&self) -> TrackedGuard<'_, KvInner> {
        lockorder::lock_tracked(LockClass::Engine, &self.inner)
    }

    fn run_name(&self, level: u32, seq_lo: u64, seq_hi: u64) -> String {
        format!("{}{level}_{seq_lo}_{seq_hi}", Self::run_prefix(&self.name))
    }

    fn validate_name(name: &str) -> Result<()> {
        if name.is_empty() || !name.chars().all(|c| c.is_ascii_alphanumeric() || c == '-') {
            return Err(kv_err(format!(
                "store name '{name}' must be non-empty ASCII alphanumeric/'-'"
            )));
        }
        Ok(())
    }

    /// Create a new store in `region`.  Registers the store's marker
    /// object and checkpoints so the store survives a crash even before
    /// its first flush.  Returns the store and the completion time.
    pub fn create(
        noftl: Arc<NoFtl>,
        region: RegionId,
        name: &str,
        config: KvConfig,
        at: SimTime,
    ) -> Result<(KvStore, SimTime)> {
        Self::validate_name(name)?;
        noftl.create_object(&Self::marker_name(name), region)?;
        let now = noftl.checkpoint(at)?;
        Ok((Self::with_runs(noftl, region, name, config, Vec::new()), now))
    }

    /// A store over `runs` (newest first) with an empty memtable.
    fn with_runs(
        noftl: Arc<NoFtl>,
        region: RegionId,
        name: &str,
        config: KvConfig,
        runs: Vec<RunMeta>,
    ) -> KvStore {
        let page = noftl.env.page_buf();
        let inner = KvInner {
            memtable: Memtable::default(),
            runs,
            stats: KvStats::default(),
            writer: RunWriter::new(page.len()),
            page,
            arena: Vec::new(),
        };
        let obs = KvObs::new(Arc::clone(noftl.metrics()));
        KvStore { noftl, region, name: name.to_string(), config, inner: Mutex::new(inner), obs }
    }

    /// Re-open a store on a freshly mounted storage manager.
    ///
    /// Rebuilds the run directory from the checkpointed object directory:
    /// every surviving run object's tail is read back and validated.
    /// Runs torn by a power cut (missing pages after the mount's OOB
    /// checksum scan, or a missing or incomplete tail) are discarded —
    /// they belong to flushes that were never acknowledged.  So are
    /// orphan objects that decode as this store's runs (same situation,
    /// crash during the directory checkpoint), and the sources a durable
    /// merge retired: a merge drops them without a checkpoint of its own,
    /// so until the next flush's checkpoint the directory still names
    /// them.
    ///
    /// A tail page of another format version is *not* a torn run: it is
    /// data another build wrote, and discarding it would erase the store.
    /// `open` then fails with [`NoFtlError::Kv`] naming both versions and
    /// changes nothing.
    pub fn open(
        noftl: Arc<NoFtl>,
        name: &str,
        config: KvConfig,
        at: SimTime,
    ) -> Result<(KvStore, KvOpenReport)> {
        Self::validate_name(name)?;
        let marker = Self::marker_name(name);
        let marker_id = noftl
            .object_id(&marker)
            .ok_or_else(|| kv_err(format!("kv store '{name}' not found (no marker object)")))?;
        let region = noftl.object_stats(marker_id)?.region;
        let mut report = KvOpenReport::default();
        let mut now = at;

        // Candidate run objects: properly named runs plus orphans (objects
        // that lost their directory entry to a crash mid-checkpoint).
        let mut candidates = noftl.objects_with_prefix(&Self::run_prefix(name));
        candidates.extend(noftl.objects_with_prefix(ORPHAN_PREFIX));
        // Judge every candidate before touching any: a run of another
        // format version must fail the open with the image as it was.
        let mut judged = Vec::with_capacity(candidates.len());
        for (obj, obj_name) in candidates {
            let meta = Self::load_run(&noftl, name, obj, &mut now, &mut report)?;
            judged.push((obj, obj_name.starts_with(ORPHAN_PREFIX), meta));
        }
        let mut runs: Vec<RunMeta> = Vec::new();
        let mut incomplete = Vec::new();
        for (obj, orphan, meta) in judged {
            match (meta, orphan) {
                (Some(meta), false) => runs.push(meta),
                // Named, but not a complete run: judged below.
                (None, false) => incomplete.push(obj),
                // Not ours (or not a run at all) — leave it alone.
                (None, true) => {}
                // A complete run that never made it into the directory:
                // its flush was not acknowledged.  Discard.
                (Some(_), true) => {
                    noftl.drop_object(obj)?;
                    report.torn_runs_discarded += 1;
                }
            }
        }

        // Supersession: a durable merge covers its sources' entire
        // sequence range at a higher level, and so whatever they cover.
        let covers = |a: &RunMeta, b: &RunMeta| {
            a.level > b.level && a.seq_lo <= b.seq_lo && b.seq_hi <= a.seq_hi
        };
        while let Some(pos) = runs.iter().position(|b| runs.iter().any(|a| covers(a, b))) {
            noftl.drop_object(runs.remove(pos).object)?;
            report.superseded_runs_discarded += 1;
        }
        // A named run that is not complete yet older than one that is (ids
        // are never reused) is a source a durable merge retired.  The
        // newest is the run of a flush whose checkpoint landed before its
        // last page: that flush was not acknowledged.
        for obj in incomplete {
            noftl.drop_object(obj)?;
            if runs.iter().any(|r| r.object > obj) {
                report.superseded_runs_discarded += 1;
            } else {
                report.torn_runs_discarded += 1;
                report.named_runs_torn += 1;
            }
        }
        report.entries_recovered = runs.iter().map(|r| r.entries).sum();

        runs.sort_by_key(|r| std::cmp::Reverse(r.seq_hi));
        report.runs_recovered = runs.len();
        report.next_seq = next_seq(&runs);
        report.completed_at = now;
        Ok((Self::with_runs(noftl, region, name, config, runs), report))
    }

    /// Validate one candidate run object and decode its tail into a
    /// [`RunMeta`].  `Ok(None)` = not a complete run of `store`; `Err` =
    /// a run of another format version.
    fn load_run(
        noftl: &NoFtl,
        store: &str,
        obj: ObjectId,
        now: &mut SimTime,
        report: &mut KvOpenReport,
    ) -> Result<Option<RunMeta>> {
        let (Ok(extent), Ok(mapped)) = (noftl.object_extent(obj), noftl.object_pages(obj)) else {
            return Ok(None);
        };
        if extent == 0 {
            return Ok(None); // no durable pages at all
        }
        let other_version = |found: u16| {
            kv_err(format!(
                "run object {obj} of store '{store}' has tail format v{found}, this build reads \
                 v{}; refusing to treat it as torn",
                run::FORMAT_VERSION
            ))
        };
        // The last page names its position in the tail, which locates the
        // tail's other members.
        let mut last = noftl.env.page_buf();
        let Ok(t) = noftl.read(obj, extent - 1, &mut last, *now) else { return Ok(None) };
        *now = t;
        report.tail_pages_read += 1;
        let (seq, total) = match run::tail_page(&last) {
            Ok((seq, total, _)) => (seq, total),
            Err(TailError::Version(found)) => return Err(other_version(found)),
            Err(TailError::Torn) => return Ok(None),
        };
        // Torn pages were discarded by the mount's OOB checksum scan,
        // leaving holes in the page map (mapped != extent), or cutting the
        // object short of its tail's last member.
        if mapped != extent || seq + 1 != total || u64::from(total) > extent {
            report.partial_tails_rejected += 1;
            return Ok(None);
        }
        let first = extent - u64::from(total);
        // The whole tail in one buffer, `last` at its end.
        let mut tail = Vec::with_capacity(total as usize * last.len());
        let rest = (first..extent - 1).map(|page| IoRequest::read(obj, page));
        let read = noftl.execute(rest, *now, READ_WINDOW, |_, page| {
            tail.extend_from_slice(page);
            Ok(())
        });
        let Ok(t) = read else { return Ok(None) };
        *now = (*now).max(t);
        report.tail_pages_read += u64::from(total - 1);
        tail.extend_from_slice(&last);
        match run::decode_tail(&tail.chunks(last.len()).collect::<Vec<_>>()) {
            Ok((name, meta)) if name == store && u64::from(meta.data_pages) == first => {
                Ok(Some(RunMeta { object: obj, written_at: *now, ..meta }))
            }
            Ok(_) | Err(TailError::Torn) => Ok(None),
            Err(TailError::Version(found)) => Err(other_version(found)),
        }
    }

    /// Snapshot of the operation counters.
    pub fn stats(&self) -> KvStats {
        self.lock_store().stats.clone()
    }

    /// Number of live runs (all levels).
    pub fn run_count(&self) -> usize {
        self.lock_store().runs.len()
    }

    fn check_entry_size(&self, key: &[u8], value_len: usize) -> Result<()> {
        let budget = run::max_entry_payload(self.noftl.device().geometry().page_size as usize);
        let size = key.len() + value_len;
        if key.is_empty() {
            return Err(kv_err("empty keys are not supported"));
        }
        if key.len() > u16::MAX as usize || size > budget {
            let message = format!("entry of {size} bytes exceeds the per-page budget of {budget}");
            return Err(kv_err(message));
        }
        Ok(())
    }

    /// Insert or overwrite a key.  Flushes the memtable when it crosses
    /// its threshold — a flush that merges the levels it would fill, by
    /// the cascade rule of [`flush`](Self::flush).  Returns the completion
    /// time (`at` if the write stayed in memory).
    pub fn put(&self, key: &[u8], value: &[u8], at: SimTime) -> Result<SimTime> {
        self.check_entry_size(key, value.len())?;
        let mut inner = self.lock_store();
        inner.stats.puts += 1;
        inner.memtable.insert(key, Some(value));
        let now = self.maybe_flush(&mut inner, at)?;
        self.obs.note_put(at, now);
        Ok(now)
    }

    /// Delete a key (a tombstone that shadows older run versions).
    pub fn delete(&self, key: &[u8], at: SimTime) -> Result<SimTime> {
        self.check_entry_size(key, 0)?;
        let mut inner = self.lock_store();
        inner.stats.deletes += 1;
        inner.memtable.insert(key, None);
        self.maybe_flush(&mut inner, at)
    }

    /// Point lookup: memtable first, then runs newest-to-oldest.  The
    /// value is a copy: [`get_with`](Self::get_with) lends it instead.
    pub fn get(&self, key: &[u8], at: SimTime) -> Result<(Option<Vec<u8>>, SimTime)> {
        self.get_with(key, at, |value| value.map(<[u8]>::to_vec))
    }

    /// Point lookup that lends the value to `f`: memtable first, then runs
    /// newest-to-oldest.  `f` sees the live value where it lies — in the
    /// memtable's arena or in the run page the lookup read — or `None`
    /// for a key that is absent or deleted, and its result is returned
    /// with the completion time.
    ///
    /// `f` runs under the store lock, so it must not call back into the
    /// store: a debug build panics ("recursive acquisition of engine"), a
    /// release build deadlocks.
    pub fn get_with<R>(
        &self,
        key: &[u8],
        at: SimTime,
        f: impl FnOnce(Option<&[u8]>) -> R,
    ) -> Result<(R, SimTime)> {
        let mut inner = self.lock_store();
        let inner = &mut *inner;
        inner.stats.gets += 1;
        if let Some(hit) = inner.memtable.get(key) {
            inner.stats.memtable_hits += 1;
            return Ok((f(hit), at));
        }
        let hash = Bloom::hash(key);
        let mut now = at;
        for run_meta in &inner.runs {
            // The fence index names the one page that can hold the key.
            let Some(page) = run_meta.page_window(key) else { continue };
            inner.stats.run_probes += 1;
            if !run_meta.filter.may_contain(hash) {
                inner.stats.bloom_skips += 1;
                continue;
            }
            let req = IoRequest::read(run_meta.object, u64::from(page));
            now = self.noftl.read(req.object, req.page, &mut inner.page, now)?;
            inner.stats.run_page_reads += 1;
            inner.stats.get_page_reads += 1;
            let hit = run::lookup_in_page(&inner.page, key).ok_or_else(|| not_data(&req))?;
            if let Some(value) = hit {
                return Ok((f(value), now));
            }
        }
        Ok((f(None), now))
    }

    /// Range scan: up to `limit` live entries with keys in `[lo, hi]`
    /// (inclusive; `None` = unbounded), in key order.  A `limit` of
    /// `usize::MAX` returns the whole range.
    ///
    /// The merge streams.  Each run has a cursor that pulls the run's pages
    /// in the range through the windowed pipeline, `READ_WINDOW` (8) pages
    /// at a time and only once its buffered entries are used up.  The
    /// sources are merged smallest key first, and the newest version of a
    /// key wins: the memtable, then the runs newest first.  Tombstones
    /// take no result slot: the merge drains past masked
    /// keys until `limit` live rows are found or every source is exhausted.
    /// So a short scan of a large store reads a handful of pages, and a
    /// full scan reads each run's range once.
    pub fn scan(
        &self,
        lo: Option<&[u8]>,
        hi: Option<&[u8]>,
        limit: usize,
        at: SimTime,
    ) -> Result<(ScanResult, SimTime)> {
        if limit == 0 || lo.zip(hi).is_some_and(|(lo, hi)| lo > hi) {
            return Ok((Vec::new(), at));
        }
        let mut inner = self.lock_store();
        let inner = &mut *inner;
        inner.stats.scans += 1;
        let mut now = at;
        let in_range = |key: &[u8]| lo.is_none_or(|lo| key >= lo) && hi.is_none_or(|hi| key <= hi);
        // One streaming cursor per run, in `inner.runs` order (newest
        // seq_hi first): each holds the run's undrained entries in range
        // and refills a window of pages at a time on demand.
        struct Cursor {
            object: ObjectId,
            next_page: u32,
            end: u32,
            buf: VecDeque<Entry>,
        }
        let mut cursors: Vec<Cursor> = inner
            .runs
            .iter()
            .filter(|r| r.entries != 0)
            .map(|r| {
                let (next_page, end) = r.range_window(lo, hi);
                Cursor { object: r.object, next_page, end, buf: VecDeque::new() }
            })
            .collect();
        let window = READ_WINDOW as u32;
        // The memtable: the newest source of all.
        let mut mem = inner.memtable.iter().filter(|&(key, _)| in_range(key)).peekable();
        let mut out: ScanResult = Vec::new();
        loop {
            // Refill every drained cursor that still has pages.
            for c in &mut cursors {
                while c.buf.is_empty() && c.next_page < c.end {
                    let chunk_end = c.end.min(c.next_page + window);
                    let reads =
                        (c.next_page..chunk_end).map(|p| IoRequest::read(c.object, u64::from(p)));
                    let t = self.noftl.execute(reads, now, READ_WINDOW, |req, payload| {
                        let entries =
                            run::decode_data_page(payload).ok_or_else(|| not_data(req))?;
                        c.buf.extend(entries.into_iter().filter(|(key, _)| in_range(key)));
                        Ok(())
                    })?;
                    now = now.max(t);
                    inner.stats.run_page_reads += u64::from(chunk_end - c.next_page);
                    c.next_page = chunk_end;
                }
            }
            // Smallest key across all sources.
            let fronts = cursors.iter().filter_map(|c| c.buf.front()).map(|(k, _)| k.as_slice());
            let min_key = mem.peek().map(|&(k, _)| k).into_iter().chain(fronts).min();
            let Some(min_key) = min_key.map(<[u8]>::to_vec) else { break };
            // Newest version wins: the memtable first, then the runs in
            // `inner.runs` order; every older version of the key is
            // popped so the next round sees fresh fronts.
            let mut winner =
                mem.next_if(|&(k, _)| k == min_key).map(|(_, v)| v.map(<[u8]>::to_vec));
            for c in &mut cursors {
                if let Some((_, v)) = c.buf.pop_front_if(|(k, _)| *k == min_key) {
                    winner.get_or_insert(v);
                }
            }
            // A `Some(None)` winner is a tombstone: drained, not emitted.
            if let Some(Some(value)) = winner {
                out.push((min_key, value));
                if out.len() == limit {
                    break;
                }
            }
        }
        Ok((out, now))
    }

    /// Flush the memtable (no-op when empty) by the cascade rule: a flush
    /// that would give level 0 its fourth run instead merges the
    /// memtable, level 0's runs and the runs of every next level that
    /// would fill in turn, in one pass, into one run at the first level
    /// that stays below four runs.  This is the store's durability point:
    /// on return the run's pages are on flash and the run directory naming
    /// the run is checkpointed.
    pub fn flush(&self, at: SimTime) -> Result<SimTime> {
        self.cascade(&mut self.lock_store(), at)
    }

    fn maybe_flush(&self, inner: &mut KvInner, at: SimTime) -> Result<SimTime> {
        if inner.memtable.approx_bytes() < self.config.memtable_bytes {
            return Ok(at);
        }
        self.cascade(inner, at)
    }

    /// The one merge, which flushes the memtable (no-op when empty).  A
    /// flush that would give level 0 its [`COMPACTION_THRESHOLD`]-th run
    /// instead merges, in one pass, the memtable, level 0's runs and the
    /// runs of every next level that would fill in turn, into one run at
    /// the first level that stays below the threshold: the *cascade* rule,
    /// LSM compaction as region-local GC.  A depth-0 merge is a plain
    /// flush to level 0.  The run directory it leaves is the one a flush
    /// followed by level-by-level compactions would leave; the runs in
    /// between are never written, read back or erased.
    ///
    /// The run is written as one queued batch across the region's dies,
    /// and the directory checkpoint that names it issues at the same
    /// instant (first, in host order) on the metadata region, so a flush
    /// costs its pages and not a checkpoint after them: it completes when
    /// both have landed.  A cut between the two leaves a named run that is
    /// not complete, which [`open`](Self::open) discards, or a complete
    /// run no checkpoint names, which it discards too.  A merge retires
    /// its sources through the object-drop path only once the merged run
    /// is durable, and takes no checkpoint of its own for that: the next
    /// flush's checkpoint records the drop, and until then `open` drops
    /// the sources the durable merge covers.  So a crash at any instant
    /// leaves either the sources or the merge — never neither.  A flush
    /// that fails keeps its memtable, so every acknowledged put stays
    /// readable; unless the device lost power, it also drops its run
    /// object, so that a retry can take its name.
    ///
    /// The sources' data pages are read, through one bounded pipeline,
    /// into the store's page arena.  Their entries and, as the newest
    /// source, the memtable's are merged where they lie into the store's
    /// run writer: a merge allocates nothing per entry, page or source.
    fn cascade(&self, inner: &mut KvInner, at: SimTime) -> Result<SimTime> {
        let KvInner { memtable, runs, stats, writer, arena, .. } = inner;
        if memtable.len() == 0 {
            return Ok(at);
        }
        let mut depth = 0;
        while runs.iter().filter(|r| r.level == depth).count() + 1 >= COMPACTION_THRESHOLD {
            depth += 1;
        }
        // Levels only rise from the newest run to the oldest (a merge
        // replaces the runs below `depth`, the newest, by one at `depth`),
        // so the sources are the first `k` runs; oldest first, they are
        // these reversed.
        let k = runs.iter().take_while(|r| r.level < depth).count();
        let sources = || runs[..k].iter().rev();
        let seq = next_seq(runs);
        let seq_lo = runs[..k].last().map_or(seq, |r| r.seq_lo);
        // Tombstones may be dropped once no older run could still hold a
        // shadowed version of the key; a plain flush keeps them all.
        let bottom = depth > 0 && !runs.iter().any(|r| r.seq_hi < seq_lo);
        // Merge reads and the merged run are maintenance traffic; a plain
        // flush keeps the region's class.
        let class = (depth > 0).then_some(ServiceClass::Background);
        stats.compactions_started += u64::from(depth > 0);

        let page_size = self.noftl.device().geometry().page_size as usize;
        arena.clear();
        let reads = sources().flat_map(|r| {
            (0..r.data_pages)
                .map(move |p| IoRequest::read(r.object, u64::from(p)).with_class(class))
        });
        let mut now = self.noftl.execute(reads, at, READ_WINDOW, |req, payload| {
            if !run::is_data_page(payload) {
                return Err(not_data(req));
            }
            arena.extend_from_slice(payload);
            stats.run_page_reads += 1;
            Ok(())
        })?;
        // Newer versions win: each source's entries where they lie, then
        // the memtable's, each stream of one type (a run's entries, or the
        // memtable's).
        let mut rest = arena.as_slice();
        let run_entries = sources().map(|r| {
            let (pages, later) = rest.split_at(r.data_pages as usize * page_size);
            rest = later;
            run::data_entries(pages, page_size)
        });
        let streams = run_entries.map(Some).chain([None]).map(|run| {
            let mem = run.is_none().then(|| memtable.iter());
            run.into_iter().flatten().chain(mem.into_iter().flatten())
        });
        let meta = writer.encode(&self.name, depth, (seq_lo, seq), run::merge(streams, bottom));
        let mut meta = meta.ok_or_else(|| kv_err("an encoded run tail does not decode"))?;

        // The whole run issues at one shared time and fans across the
        // region's dies, beside the checkpoint that names it.
        let obj = self.noftl.create_object(&self.run_name(depth, seq_lo, seq), self.region)?;
        let requests = writer
            .pages()
            .enumerate()
            .map(|(i, page)| IoRequest::write(obj, i as u64, page).with_class(class));
        let checkpointed = self.noftl.checkpoint(now);
        let written = self.noftl.execute(requests, now, usize::MAX, |_, _| Ok(()));
        now = match (written, checkpointed) {
            (Ok(written), Ok(checkpointed)) => written.max(checkpointed),
            // A store that lost power is gone and must change nothing.
            (Err(e), _) | (_, Err(e)) => {
                if !matches!(&e, NoFtlError::Flash(f) if f.is_power_loss()) {
                    self.noftl.drop_object(obj)?;
                }
                return Err(e);
            }
        };
        let entries = memtable.len() as u64;
        memtable.clear();
        let pages = u64::from(meta.data_pages + meta.tail_pages);
        (meta.object, meta.written_at) = (obj, now);
        // The newest run of all.
        runs.insert(0, meta);
        if depth == 0 {
            stats.flushed_pages += pages;
        } else {
            // Retire the sources, newest first, through the normal drop
            // path: their pages become invalid and the region's GC
            // reclaims the blocks.  The next flush's checkpoint records it.
            for source in runs.drain(1..=k) {
                self.noftl.drop_object(source.object)?;
                stats.compacted_runs += 1;
            }
            stats.compactions += 1;
            stats.compacted_pages += pages;
            stats.compaction_windows.push((at.as_nanos(), now.as_nanos()));
            self.obs.note_compact(u64::from(depth), at, now);
        }
        stats.flushes += 1;
        self.obs.note_flush(entries, at, now);
        Ok(now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::region::RegionSpec;
    use crate::testutil::read_page;
    use crate::NoFtlConfig;
    use flash_sim::{DeviceBuilder, FlashBackend, FlashGeometry, NandDevice, TimingModel};
    use std::collections::BTreeMap;

    fn stack(timing: TimingModel) -> (Arc<NandDevice>, Arc<NoFtl>, RegionId) {
        let device =
            Arc::new(DeviceBuilder::new(FlashGeometry::small_test()).timing(timing).build());
        let noftl = Arc::new(NoFtl::new(device.clone(), NoFtlConfig::default()));
        let rid = noftl.create_region(RegionSpec::named("rgKv").with_die_count(3)).unwrap();
        (device, noftl, rid)
    }

    fn small_config() -> KvConfig {
        KvConfig { memtable_bytes: 4 * 1024 }
    }

    fn key(i: u64) -> Vec<u8> {
        format!("user{i:06}").into_bytes()
    }

    fn val(i: u64, round: u64) -> Vec<u8> {
        format!("value-{i:06}-v{round:04}-padpadpad").into_bytes()
    }

    #[test]
    fn put_get_roundtrip_through_memtable_and_runs() {
        let (_d, noftl, rid) = stack(TimingModel::instant());
        let (kv, mut t) =
            KvStore::create(Arc::clone(&noftl), rid, "s", small_config(), SimTime::ZERO).unwrap();
        for i in 0..200u64 {
            t = kv.put(&key(i), &val(i, 0), t).unwrap();
        }
        assert!(kv.stats().flushes > 0, "threshold must have forced flushes");
        assert!(kv.run_count() > 0);
        // Some keys now live only in runs, some still in the memtable.
        for i in 0..200u64 {
            let (got, t2) = kv.get(&key(i), t).unwrap();
            t = t2;
            assert_eq!(got.as_deref(), Some(val(i, 0).as_slice()), "key {i}");
        }
        let stats = kv.stats();
        assert!(stats.memtable_hits > 0);
        assert!(stats.run_page_reads > 0);
        assert_eq!(kv.get(b"missing", t).unwrap().0, None);
        // A get reads one page per run the filter let through.
        let stats = kv.stats();
        assert!(stats.get_page_reads > 0 && stats.get_page_reads <= stats.run_page_reads);
        assert_eq!(stats.get_page_reads, stats.run_probes - stats.bloom_skips);
    }

    #[test]
    fn scan_drains_past_tombstones_to_fill_the_limit() {
        let (_d, noftl, rid) = stack(TimingModel::instant());
        let (kv, mut t) =
            KvStore::create(Arc::clone(&noftl), rid, "s", small_config(), SimTime::ZERO).unwrap();
        // 120 keys, then delete every key not divisible by 10 — a
        // tombstone-heavy store where live rows are sparse in key order.
        for i in 0..120u64 {
            t = kv.put(&key(i), &val(i, 0), t).unwrap();
        }
        t = kv.flush(t).unwrap();
        for i in 0..120u64 {
            if i % 10 != 0 {
                t = kv.delete(&key(i), t).unwrap();
            }
        }
        t = kv.flush(t).unwrap();
        // 12 live rows remain (0, 10, ..., 110).  A limit-8 scan must
        // return 8 of them, not under-fill on the masked candidates.
        let (rows, t2) = kv.scan(None, None, 8, t).unwrap();
        t = t2;
        let expect: Vec<Vec<u8>> = (0..8u64).map(|i| key(i * 10)).collect();
        assert_eq!(rows.len(), 8, "limit-8 over 12 live rows must fill");
        assert_eq!(rows.iter().map(|(k, _)| k.clone()).collect::<Vec<_>>(), expect);
        for (i, (_, v)) in rows.iter().enumerate() {
            assert_eq!(v, &val(i as u64 * 10, 0));
        }
        // Asking past exhaustion returns every live row, no phantoms.
        let (rows, t2) = kv.scan(None, None, 100, t).unwrap();
        t = t2;
        assert_eq!(rows.len(), 12);
        // A lo bound mid-range still fills from the bound onward.
        let (rows, _) = kv.scan(Some(&key(55)), None, 4, t).unwrap();
        let expect: Vec<Vec<u8>> = [60u64, 70, 80, 90].iter().map(|i| key(*i)).collect();
        assert_eq!(rows.iter().map(|(k, _)| k.clone()).collect::<Vec<_>>(), expect);
    }

    /// The whole-window merge the streaming scan replaced, kept as its
    /// reference: every run's pages in `[lo, hi]` read at once and folded
    /// oldest to newest into one map, the memtable last, tombstones
    /// dropped at the end.
    fn full_merge(kv: &KvStore, lo: Option<&[u8]>, hi: Option<&[u8]>) -> ScanResult {
        if lo.zip(hi).is_some_and(|(lo, hi)| lo > hi) {
            return Vec::new();
        }
        let inner = kv.lock_store();
        let in_range = |key: &[u8]| lo.is_none_or(|lo| key >= lo) && hi.is_none_or(|hi| key <= hi);
        let mut merged: BTreeMap<Vec<u8>, Option<Vec<u8>>> = BTreeMap::new();
        for run_meta in inner.runs.iter().rev() {
            let (start, end) = run_meta.range_window(lo, hi);
            for page in start..end {
                let (payload, _) =
                    read_page(&kv.noftl, run_meta.object, u64::from(page), SimTime::ZERO).unwrap();
                for (key, value) in run::decode_data_page(&payload).unwrap() {
                    if in_range(&key) {
                        merged.insert(key, value);
                    }
                }
            }
        }
        for (key, value) in inner.memtable.iter().filter(|&(key, _)| in_range(key)) {
            merged.insert(key.to_vec(), value.map(<[u8]>::to_vec));
        }
        merged.into_iter().filter_map(|(k, v)| Some((k, v?))).collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(32))]

        /// Over random put / delete / flush histories (flushes cascade
        /// into compactions), the streaming scan returns exactly the
        /// reference merge's first `limit` live rows in `[lo, hi]`, and
        /// the reference agrees with a model of the history.
        #[test]
        fn streaming_scan_equals_the_full_merge_prefix(
            history in proptest::collection::vec((0u8..10, 0u64..80), 20..300),
            scans in proptest::collection::vec((0u64..90, 0u64..90, 0usize..40), 1..12),
        ) {
            let (_d, noftl, rid) = stack(TimingModel::instant());
            let (kv, mut t) =
                KvStore::create(Arc::clone(&noftl), rid, "s", small_config(), SimTime::ZERO)
                    .unwrap();
            let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
            for (round, &(op, i)) in history.iter().enumerate() {
                t = match op {
                    0..=5 => {
                        model.insert(key(i), val(i, round as u64));
                        kv.put(&key(i), &val(i, round as u64), t).unwrap()
                    }
                    6..=8 => {
                        model.remove(&key(i));
                        kv.delete(&key(i), t).unwrap()
                    }
                    _ => kv.flush(t).unwrap(),
                };
            }
            // Keys 80..90 lie past every written key; 85.. means unbounded.
            let edge = |i: u64| (i < 85).then(|| key(i));
            for (lo, hi, limit) in scans {
                let (lo, hi) = (edge(lo), edge(hi));
                let limit = if limit == 39 { usize::MAX } else { limit };
                let reference = full_merge(&kv, lo.as_deref(), hi.as_deref());
                let modelled: ScanResult = model
                    .iter()
                    .filter(|(k, _)| {
                        lo.as_ref().is_none_or(|lo| *k >= lo) && hi.as_ref().is_none_or(|hi| *k <= hi)
                    })
                    .map(|(k, v)| (k.clone(), v.clone()))
                    .collect();
                proptest::prop_assert_eq!(&reference, &modelled);
                let (rows, _) = kv.scan(lo.as_deref(), hi.as_deref(), limit, t).unwrap();
                let expected: ScanResult = reference.into_iter().take(limit).collect();
                proptest::prop_assert_eq!(rows, expected);
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(32))]

        /// Over random put / delete / flush histories with a memtable of a
        /// few entries, after every step: the `n` flushes so far leave
        /// level `l` holding the `l`-th base-4 digit of `n` runs, each run
        /// of level `l` covering `4^l` flushes, and the runs' sequence
        /// ranges partition `1..=n`.  At the end, point gets and a full
        /// scan equal a model of the history.
        #[test]
        fn the_cascade_counts_flushes_in_base_4(
            history in proptest::collection::vec((0u8..10, 0u64..40), 1..400),
        ) {
            let (_d, noftl, rid) = stack(TimingModel::instant());
            let config = KvConfig { memtable_bytes: 256 };
            let (kv, mut t) =
                KvStore::create(Arc::clone(&noftl), rid, "s", config, SimTime::ZERO).unwrap();
            let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
            for (round, &(op, i)) in history.iter().enumerate() {
                t = match op {
                    0..=5 => {
                        model.insert(key(i), val(i, round as u64));
                        kv.put(&key(i), &val(i, round as u64), t).unwrap()
                    }
                    6..=8 => {
                        model.remove(&key(i));
                        kv.delete(&key(i), t).unwrap()
                    }
                    _ => kv.flush(t).unwrap(),
                };
                let n = kv.stats().flushes;
                let inner = kv.lock_store();
                for level in 0..5u32 {
                    let runs = inner.runs.iter().filter(|r| r.level == level);
                    let digit = n / 4u64.pow(level) % 4;
                    proptest::prop_assert_eq!(runs.clone().count() as u64, digit, "level {}", level);
                    for r in runs {
                        proptest::prop_assert_eq!(r.seq_hi - r.seq_lo + 1, 4u64.pow(level));
                    }
                }
                let mut ranges: Vec<(u64, u64)> =
                    inner.runs.iter().map(|r| (r.seq_lo, r.seq_hi)).collect();
                ranges.sort_unstable();
                let mut next = 1;
                for (lo, hi) in ranges {
                    proptest::prop_assert_eq!(lo, next, "the ranges leave no gap");
                    next = hi + 1;
                }
                proptest::prop_assert_eq!(next, n + 1, "the ranges end at the last flush");
            }
            for i in 0..40u64 {
                let (got, t2) = kv.get(&key(i), t).unwrap();
                t = t2;
                proptest::prop_assert_eq!(got.as_ref(), model.get(&key(i)), "key {}", i);
            }
            let (rows, _) = kv.scan(None, None, usize::MAX, t).unwrap();
            let modelled: ScanResult = model.into_iter().collect();
            proptest::prop_assert_eq!(rows, modelled);
        }
    }

    /// The merge compaction made before it merged in place, kept as the
    /// reference of [`run::merge`]: every source's data pages decoded,
    /// oldest source first, into one map, so a newer version replaces an
    /// older one; at the bottom level the tombstones are dropped at the
    /// end.
    fn btree_merge(sources: &[Vec<u8>], page_size: usize, bottom: bool) -> Vec<Entry> {
        let mut merged: BTreeMap<Vec<u8>, Option<Vec<u8>>> = BTreeMap::new();
        for page in sources.iter().flat_map(|pages| pages.chunks(page_size)) {
            merged.extend(run::decode_data_page(page).unwrap());
        }
        if bottom {
            merged.retain(|_, v| v.is_some());
        }
        merged.into_iter().collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        /// Over random put / delete / flush histories, each flush encoded
        /// as one run the way the store encodes it, the k-way merge over
        /// the runs' pages yields the reference merge's entries, with and
        /// without the bottom-level tombstone drop, and encodes to the
        /// same run bytes.
        #[test]
        fn the_borrowed_merge_equals_the_btreemap_merge(
            history in proptest::collection::vec((0u8..10, 0u64..60, 0usize..300), 1..300),
        ) {
            const PAGE: usize = 4096;
            let mut memtable = Memtable::default();
            let mut writer = RunWriter::new(PAGE);
            // Each run's data pages, oldest run first.
            let mut runs: Vec<Vec<u8>> = Vec::new();
            let mut flush = |memtable: &mut Memtable, runs: &mut Vec<Vec<u8>>| {
                let meta = writer.encode("s", 0, (1, 1), memtable.iter()).unwrap();
                runs.push(writer.pages().take(meta.data_pages as usize).flatten().copied().collect());
                memtable.clear();
            };
            for (round, &(op, i, len)) in history.iter().enumerate() {
                match op {
                    0..=5 => memtable.insert(&key(i), Some(&vec![round as u8; len])),
                    6..=8 => memtable.insert(&key(i), None),
                    _ => flush(&mut memtable, &mut runs),
                }
            }
            flush(&mut memtable, &mut runs);
            for bottom in [false, true] {
                let streams = runs.iter().map(|pages| run::data_entries(pages, PAGE));
                let merged: Vec<Entry> = run::merge(streams.clone(), bottom)
                    .map(|(k, v)| (k.to_vec(), v.map(<[u8]>::to_vec)))
                    .collect();
                let reference = btree_merge(&runs, PAGE, bottom);
                proptest::prop_assert_eq!(&merged, &reference);
                let mut writer = RunWriter::new(PAGE);
                let meta = writer.encode("s", 1, (1, 9), run::merge(streams, bottom)).unwrap();
                let pages: Vec<Vec<u8>> = writer.pages().map(<[u8]>::to_vec).collect();
                let expected = run::tests::encode_run("s", 1, 1, 9, &reference, PAGE);
                proptest::prop_assert_eq!(meta, expected.meta);
                proptest::prop_assert_eq!(pages, expected.pages);
            }
        }
    }

    #[test]
    fn overwrites_and_tombstones_shadow_run_versions() {
        let (_d, noftl, rid) = stack(TimingModel::instant());
        let (kv, mut t) =
            KvStore::create(Arc::clone(&noftl), rid, "s", small_config(), SimTime::ZERO).unwrap();
        for i in 0..60u64 {
            t = kv.put(&key(i), &val(i, 1), t).unwrap();
        }
        t = kv.flush(t).unwrap();
        // Overwrite half, delete a quarter; flush again so the newer run
        // shadows the older one.
        for i in 0..30u64 {
            t = kv.put(&key(i), &val(i, 2), t).unwrap();
        }
        for i in 30..45u64 {
            t = kv.delete(&key(i), t).unwrap();
        }
        t = kv.flush(t).unwrap();
        for i in 0..30u64 {
            let (got, t2) = kv.get(&key(i), t).unwrap();
            t = t2;
            assert_eq!(got.as_deref(), Some(val(i, 2).as_slice()), "overwritten key {i}");
        }
        for i in 30..45u64 {
            let (got, t2) = kv.get(&key(i), t).unwrap();
            t = t2;
            assert_eq!(got, None, "deleted key {i}");
        }
        for i in 45..60u64 {
            let (got, t2) = kv.get(&key(i), t).unwrap();
            t = t2;
            assert_eq!(got.as_deref(), Some(val(i, 1).as_slice()), "untouched key {i}");
        }
    }

    #[test]
    fn a_windowed_scan_reads_each_run_page_once_and_beats_serial_reads() {
        // After puts, flushes and compactions, a full scan returns every
        // key once with its value, reads each page of each run once, and
        // under a real timing model finishes before reading those pages
        // one blocking read after another would (its windows overlap the
        // region's dies).
        let (_d, noftl, rid) = stack(TimingModel::mlc_2015());
        let (kv, mut t) =
            KvStore::create(Arc::clone(&noftl), rid, "s", small_config(), SimTime::ZERO).unwrap();
        for i in 0..1_000u64 {
            t = kv.put(&key(i), &val(i, 0), t).unwrap();
        }
        t = kv.flush(t).unwrap();
        assert!(kv.stats().compactions > 0, "workload must exercise the merge path");
        let pages: Vec<(ObjectId, u64)> = kv
            .lock_store()
            .runs
            .iter()
            .flat_map(|r| {
                let (first, end) = r.range_window(None, None);
                (first..end).map(move |p| (r.object, u64::from(p)))
            })
            .collect();
        assert!(pages.len() > READ_WINDOW, "the scan must need more than one window");
        let reads_before = kv.stats().run_page_reads;
        let (rows, scanned) = kv.scan(None, None, usize::MAX, t).unwrap();
        assert_eq!(rows, (0..1_000).map(|i| (key(i), val(i, 0))).collect::<ScanResult>());
        assert_eq!(kv.stats().run_page_reads - reads_before, pages.len() as u64);
        let mut serial = scanned;
        for &(object, page) in &pages {
            serial = read_page(&noftl, object, page, serial).unwrap().1;
        }
        let (windowed_ns, serial_ns) = ((scanned - t).as_nanos(), (serial - scanned).as_nanos());
        assert!(
            windowed_ns < serial_ns,
            "windowed scan ({windowed_ns} ns) no faster than serial ({serial_ns} ns)"
        );
    }

    #[test]
    fn scan_merges_memtable_and_runs() {
        let (_d, noftl, rid) = stack(TimingModel::instant());
        let (kv, mut t) =
            KvStore::create(Arc::clone(&noftl), rid, "s", small_config(), SimTime::ZERO).unwrap();
        for i in 0..50u64 {
            t = kv.put(&key(i), &val(i, 1), t).unwrap();
        }
        t = kv.flush(t).unwrap();
        t = kv.put(&key(10), &val(10, 9), t).unwrap(); // newer, memtable only
        t = kv.delete(&key(11), t).unwrap(); // tombstone in memtable
        let (rows, t2) = kv.scan(Some(&key(5)), Some(&key(14)), usize::MAX, t).unwrap();
        t = t2;
        let keys: Vec<u64> = rows
            .iter()
            .map(|(k, _)| String::from_utf8_lossy(k)[4..].parse::<u64>().unwrap())
            .collect();
        assert_eq!(keys, vec![5, 6, 7, 8, 9, 10, 12, 13, 14], "11 deleted, bounds inclusive");
        let ten = rows.iter().find(|(k, _)| k == &key(10)).unwrap();
        assert_eq!(ten.1, val(10, 9), "memtable version wins");
        // Unbounded scan returns everything alive.
        let (all, _) = kv.scan(None, None, usize::MAX, t).unwrap();
        assert_eq!(all.len(), 49);
    }

    #[test]
    fn flush_issues_one_multi_die_batch() {
        let (device, noftl, rid) = stack(TimingModel::mlc_2015());
        let (kv, mut t) =
            KvStore::create(Arc::clone(&noftl), rid, "s", KvConfig::default(), SimTime::ZERO)
                .unwrap();
        for i in 0..300u64 {
            t = kv.put(&key(i), &val(i, 0), t).unwrap();
        }
        let ops = || (noftl.device().stats().total_ops(), noftl.device().die_stats());
        let (total_before, dies_before) = ops();
        t = kv.flush(t).unwrap();
        let (total_after, dies_after) = ops();
        let pages = kv.stats().flushed_pages;
        assert!(pages >= 4, "300 entries must span several pages (got {pages})");
        // Every run page is a device command (as are the checkpoint
        // chunks that make the run durable)...
        assert!(total_after - total_before >= pages);
        // ...fanned over more than one die of the store's region.
        let delta = |die: &flash_sim::DieId| {
            dies_after[die.0 as usize].ops - dies_before[die.0 as usize].ops
        };
        let region_dies = noftl.region_info(rid).unwrap().dies;
        let on_region: u64 = region_dies.iter().map(delta).sum();
        assert_eq!(on_region, pages, "exactly the run pages land on the region's dies");
        let dies_hit = region_dies.iter().filter(|d| delta(d) > 0).count();
        assert!(dies_hit >= 2, "flush must fan across dies (hit {dies_hit})");
        let _ = t;
        let _ = device;
    }

    #[test]
    fn compaction_merges_runs_and_retires_sources() {
        let (_d, noftl, rid) = stack(TimingModel::instant());
        let (kv, mut t) =
            KvStore::create(Arc::clone(&noftl), rid, "s", small_config(), SimTime::ZERO).unwrap();
        // Overwrite the same keys across enough flushes to force merges.
        for round in 1..=9u64 {
            for i in 0..40u64 {
                t = kv.put(&key(i), &val(i, round), t).unwrap();
            }
            t = kv.flush(t).unwrap();
        }
        let stats = kv.stats();
        assert!(stats.compactions > 0, "threshold 4 over 9 flushes must compact");
        assert_eq!(stats.compactions_started, stats.compactions);
        assert!(stats.compacted_runs >= 4);
        assert!(!stats.compaction_windows.is_empty());
        assert!(
            kv.run_count() < stats.flushes as usize,
            "merges must shrink the run directory ({} runs after {} flushes)",
            kv.run_count(),
            stats.flushes
        );
        // Latest versions win after all merges.
        for i in 0..40u64 {
            let (got, t2) = kv.get(&key(i), t).unwrap();
            t = t2;
            assert_eq!(got.as_deref(), Some(val(i, 9).as_slice()), "key {i}");
        }
        // Source run objects are gone from the manager's directory.
        let live_runs = noftl.objects_with_prefix("__kv_s_r").len();
        assert_eq!(live_runs, kv.run_count());
    }

    #[test]
    fn every_page_program_is_a_run_page_or_one_checkpoint_chunk() {
        let (device, noftl, rid) = stack(TimingModel::instant());
        let (kv, mut t) =
            KvStore::create(Arc::clone(&noftl), rid, "s", small_config(), SimTime::ZERO).unwrap();
        let counter = |name: &str| noftl.metrics().counter(name).get();
        let programs_before = device.stats().page_programs;
        let checkpoints_before = counter("core.checkpoint.count");
        for round in 1..=9u64 {
            for i in 0..40u64 {
                t = kv.put(&key(i), &val(i, round), t).unwrap();
            }
            t = kv.flush(t).unwrap();
        }
        // Every flush commits with one checkpoint, which names its run; a
        // merge is a flush, and the sources it retires ride the next
        // flush's checkpoint.  A checkpoint is the run directory — one
        // chunk page — however many run pages are mapped by then.
        let stats = kv.stats();
        assert!(stats.flushes >= 9 && stats.compactions > 0);
        let checkpoints = counter("core.checkpoint.count") - checkpoints_before;
        assert_eq!(checkpoints, stats.flushes);
        assert_eq!(counter("core.checkpoint.pages"), counter("core.checkpoint.count"));
        assert_eq!(
            device.stats().page_programs - programs_before,
            stats.flushed_pages + stats.compacted_pages + checkpoints,
        );
    }

    /// Keys each round of [`primed`] puts: a flush of them is a run of
    /// eight pages over the region's three dies.
    const PRIMED_KEYS: u64 = 600;

    fn primed_config() -> KvConfig {
        KvConfig { memtable_bytes: 1 << 20 }
    }

    /// A store on an MLC device whose metadata region has the fourth die
    /// to itself, after `flushes` acknowledged flushes (round `r` puts
    /// `val(i, r)` for every key), with round `flushes` in the memtable.
    fn primed(flushes: u64) -> (Arc<NandDevice>, KvStore, SimTime) {
        let (device, noftl, rid) = stack(TimingModel::mlc_2015());
        let (kv, mut t) =
            KvStore::create(Arc::clone(&noftl), rid, "s", primed_config(), SimTime::ZERO).unwrap();
        for round in 0..=flushes {
            if round > 0 {
                t = kv.flush(t).unwrap();
            }
            for i in 0..PRIMED_KEYS {
                t = kv.put(&key(i), &val(i, round), t).unwrap();
            }
        }
        (device, kv, t)
    }

    /// When the next flush of [`primed`]`(flushes)` lands its checkpoint
    /// and each of its run pages (in time order), read off the command
    /// trace, and when it returns.
    fn traced_flush(flushes: u64) -> (SimTime, Vec<SimTime>, SimTime) {
        let (device, kv, t) = primed(flushes);
        let tracer = device.metrics().tracer();
        tracer.set_enabled(true);
        let done = kv.flush(t).unwrap();
        let meta = kv.noftl.lock_inner().meta.region.unwrap();
        let meta_dies = kv.noftl.region_info(meta).unwrap().dies;
        let (mut checkpoint, mut pages) = (SimTime::ZERO, Vec::new());
        for e in tracer.events().iter().filter(|e| e.cat == "flash.op" && e.name == "program") {
            let end = SimTime(e.ts_ns + e.dur_ns.unwrap());
            if meta_dies.iter().any(|die| u64::from(die.0) == e.track) {
                checkpoint = checkpoint.max(end);
            } else {
                pages.push(end);
            }
        }
        pages.sort_unstable();
        (checkpoint, pages, done)
    }

    #[test]
    fn a_flush_completes_with_its_last_run_page() {
        // The checkpoint issues beside the run on a die of its own: it
        // lands first and costs the flush nothing.
        let (checkpoint, pages, done) = traced_flush(0);
        let last_page = *pages.last().unwrap();
        assert!(checkpoint < last_page, "checkpoint {checkpoint:?}, last page {last_page:?}");
        assert_eq!(done, last_page);
    }

    #[test]
    fn a_cut_between_the_checkpoint_and_the_last_page_drops_the_named_run() {
        // A plain flush after one run, and a merge of three level-0 runs
        // into `__kv_s_r1_1_4`.  The cut lands after the checkpoint naming
        // the new run and before the next run page lands, while each
        // die's later pages are still far from programmed.  (A cut late in
        // a page can leave a run that is all there: a torn page whose lost
        // suffix was padding still verifies.)
        for (flushes, named) in [(1, "__kv_s_r0_2_2"), (3, "__kv_s_r1_1_4")] {
            let (checkpoint, pages, _) = traced_flush(flushes);
            let next = pages.into_iter().find(|&page| page > checkpoint).unwrap();
            let cut = SimTime((checkpoint.as_nanos() + next.as_nanos()) / 2);
            assert!(checkpoint < cut && cut < next);
            let (device, kv, t) = primed(flushes);
            device.arm_power_cut(cut);
            assert!(kv.flush(t).is_err(), "the cut tears the flush");
            let (noftl, mount) = NoFtl::mount(crate::crash::power_cycle(&device).unwrap(), cut)
                .map(|(noftl, mount)| (Arc::new(noftl), mount))
                .unwrap();
            assert!(noftl.object_id(named).is_some(), "the checkpoint named {named}");
            let (kv, report) =
                KvStore::open(Arc::clone(&noftl), "s", primed_config(), mount.completed_at)
                    .unwrap();
            assert_eq!((report.named_runs_torn, report.torn_runs_discarded), (1, 1));
            assert_eq!(report.superseded_runs_discarded, 0);
            assert_eq!(report.runs_recovered, flushes as usize, "every source is kept");
            assert_eq!(noftl.object_id(named), None);
            let mut t = report.completed_at;
            for i in 0..PRIMED_KEYS {
                let (got, t2) = kv.get(&key(i), t).unwrap();
                t = t2;
                assert_eq!(got, Some(val(i, flushes - 1)), "acknowledged key {i}");
            }
        }
    }

    #[test]
    fn a_merge_s_retired_sources_ride_the_next_checkpoint() {
        let (device, kv, mut t) = primed(3);
        t = kv.flush(t).unwrap(); // merges level 0 into `__kv_s_r1_1_4`
        assert_eq!((kv.stats().compactions, kv.run_count()), (1, 1));
        let sources = ["__kv_s_r0_1_1", "__kv_s_r0_2_2", "__kv_s_r0_3_3"];
        // A reboot now finds the sources named but retired: `open` drops
        // them, as the merged run covers them.
        let (noftl, mount) = NoFtl::mount(crate::crash::power_cycle(&device).unwrap(), t).unwrap();
        assert!(sources.iter().all(|name| noftl.object_id(name).is_some()));
        let (_, report) =
            KvStore::open(Arc::new(noftl), "s", primed_config(), mount.completed_at).unwrap();
        assert_eq!(report.superseded_runs_discarded, 3);
        assert_eq!((report.runs_recovered, report.torn_runs_discarded), (1, 0));
        // The next flush's checkpoint no longer names them.
        t = kv.put(&key(0), &val(0, 4), t).unwrap();
        t = kv.flush(t).unwrap();
        let (noftl, _) = NoFtl::mount(crate::crash::power_cycle(&device).unwrap(), t).unwrap();
        assert!(sources.iter().all(|name| noftl.object_id(name).is_none()));
        assert!(noftl.object_id("__kv_s_r1_1_4").is_some());
    }

    #[test]
    fn a_flush_that_fails_keeps_every_acknowledged_put() {
        // One die fills with runs of distinct keys until a flush finds
        // the region out of space.
        let device = Arc::new(
            DeviceBuilder::new(FlashGeometry::small_test()).timing(TimingModel::instant()).build(),
        );
        let noftl = Arc::new(NoFtl::new(device, NoFtlConfig::default()));
        let rid = noftl.create_region(RegionSpec::named("rgKv").with_die_count(1)).unwrap();
        let (kv, mut t) =
            KvStore::create(Arc::clone(&noftl), rid, "s", small_config(), SimTime::ZERO).unwrap();
        let mut since_flush = Vec::new();
        let err = (0..100_000u64)
            .find_map(|i| {
                let flushes = kv.stats().flushes;
                since_flush.push(i);
                match kv.put(&key(i), &[b'v'; 1000], t) {
                    Ok(done) => {
                        t = done;
                        if kv.stats().flushes > flushes {
                            since_flush.clear();
                        }
                        None
                    }
                    Err(e) => Some(e),
                }
            })
            .expect("the region fills");
        assert!(err.to_string().contains("out of space"), "{err}");
        assert!(since_flush.len() > 1);
        let lost: Vec<u64> = since_flush
            .iter()
            .copied()
            .filter(|&i| {
                let (got, t2) = kv.get(&key(i), t).unwrap();
                t = t2;
                got.as_deref() != Some([b'v'; 1000].as_slice())
            })
            .collect();
        let put = since_flush.len();
        assert!(lost.is_empty(), "{} of the {put} keys put since the last flush lost", lost.len());
    }

    #[test]
    fn compaction_io_is_tagged_background_on_an_arbiter_device() {
        let device = Arc::new(
            DeviceBuilder::new(FlashGeometry::small_test())
                .timing(TimingModel::instant())
                .arbiter(flash_sim::ArbiterConfig::default())
                .build(),
        );
        let noftl = Arc::new(NoFtl::new(device.clone(), NoFtlConfig::default()));
        let rid = noftl
            .create_region(
                RegionSpec::named("rgKv")
                    .with_die_count(3)
                    .with_service_class(flash_sim::ServiceClass::Latency),
            )
            .unwrap();
        let (kv, mut t) =
            KvStore::create(Arc::clone(&noftl), rid, "s", small_config(), SimTime::ZERO).unwrap();
        let bg = || device.metrics().counter("flash.arbiter.class.background.ops").get();
        for round in 1..=4u64 {
            for i in 0..40u64 {
                t = kv.put(&key(i), &val(i, round), t).unwrap();
            }
            t = kv.flush(t).unwrap();
        }
        assert!(kv.stats().compactions > 0, "threshold 4 over 4 flushes must compact");
        // Both the merge reads and the merged-run writes are maintenance
        // traffic: tagged Background even though the region is Latency.
        assert!(bg() > 0, "compaction I/O must be admitted as background");
        // Plain flushes and gets stay on the region's own class.
        let before = bg();
        let (got, _) = kv.get(&key(0), t).unwrap();
        assert!(got.is_some());
        assert_eq!(bg(), before, "host gets are not background traffic");
        assert!(device.metrics().counter("flash.arbiter.class.latency.ops").get() > 0);
    }

    #[test]
    fn bottom_level_compaction_drops_tombstones() {
        let (_d, noftl, rid) = stack(TimingModel::instant());
        let config = KvConfig { memtable_bytes: 1 << 20 };
        let (kv, mut t) =
            KvStore::create(Arc::clone(&noftl), rid, "s", config, SimTime::ZERO).unwrap();
        for round in 0..3u64 {
            for i in 0..20u64 {
                t = kv.put(&key(i), &val(i, round), t).unwrap();
            }
            t = kv.flush(t).unwrap();
        }
        for i in 0..20u64 {
            t = kv.delete(&key(i), t).unwrap();
        }
        t = kv.flush(t).unwrap(); // four L0 runs → merge into L1 (bottom)
        let stats = kv.stats();
        assert!(stats.compactions > 0);
        assert_eq!(kv.run_count(), 1);
        let merged_entries = { kv.lock_store().runs[0].entries };
        assert_eq!(merged_entries, 0, "all entries were tombstoned and dropped at the bottom");
        let (rows, _) = kv.scan(None, None, usize::MAX, t).unwrap();
        assert!(rows.is_empty());
    }

    #[test]
    fn create_open_roundtrip_after_remount() {
        let (device, noftl, rid) = stack(TimingModel::mlc_2015());
        let (kv, mut t) =
            KvStore::create(Arc::clone(&noftl), rid, "s", small_config(), SimTime::ZERO).unwrap();
        for i in 0..120u64 {
            t = kv.put(&key(i), &val(i, 3), t).unwrap();
        }
        t = kv.flush(t).unwrap();
        let runs_before = kv.run_count();
        // Clean reboot: power cycle → mount → open.
        let device2 = crate::crash::power_cycle(&device).unwrap();
        let (noftl2, mount) = NoFtl::mount(device2, t).unwrap();
        let (kv2, report) =
            KvStore::open(Arc::new(noftl2), "s", small_config(), mount.completed_at).unwrap();
        assert_eq!(report.runs_recovered, runs_before);
        assert_eq!(report.torn_runs_discarded, 0);
        assert_eq!(report.superseded_runs_discarded, 0);
        let mut t2 = report.completed_at;
        for i in 0..120u64 {
            let (got, t3) = kv2.get(&key(i), t2).unwrap();
            t2 = t3;
            assert_eq!(got.as_deref(), Some(val(i, 3).as_slice()), "key {i}");
        }
        // The reopened store keeps working, with fresh sequence numbers.
        t2 = kv2.put(b"after-reopen", b"ok", t2).unwrap();
        t2 = kv2.flush(t2).unwrap();
        assert_eq!(kv2.get(b"after-reopen", t2).unwrap().0.as_deref(), Some(b"ok".as_slice()));
    }

    #[test]
    fn open_refuses_a_run_of_another_format_version_and_deletes_nothing() {
        let (_d, noftl, rid) = stack(TimingModel::instant());
        let (kv, mut t) =
            KvStore::create(Arc::clone(&noftl), rid, "s", small_config(), SimTime::ZERO).unwrap();
        for i in 0..40u64 {
            t = kv.put(&key(i), &val(i, 0), t).unwrap();
        }
        t = kv.flush(t).unwrap();
        drop(kv);
        // A run as a v1 build left it: one data page, then a single
        // footer page with the tail magic and version 1.
        let page_size = noftl.device().geometry().page_size as usize;
        let encoded = run::tests::encode_run("s", 0, 9, 9, &[(key(1), Some(val(1, 1)))], page_size);
        let mut footer = encoded.pages[1].clone();
        footer[4..6].copy_from_slice(&1u16.to_le_bytes());
        let old = noftl.create_object("__kv_s_r0_9_9", rid).unwrap();
        t = noftl.write(old, 0, &encoded.pages[0], t).unwrap();
        t = noftl.write(old, 1, &footer, t).unwrap();

        let err = KvStore::open(Arc::clone(&noftl), "s", small_config(), t).unwrap_err();
        let NoFtlError::Kv { message } = &err else { panic!("expected a Kv error, got {err}") };
        assert!(message.contains("v1") && message.contains("v2"), "must name both: {message}");
        assert_eq!(noftl.object_id("__kv_s_r0_9_9"), Some(old), "the old run must survive");
        assert_eq!(noftl.objects_with_prefix("__kv_s_r").len(), 2, "and so must the new one");

        // A last page that is no tail page at all is still just torn.
        t = noftl.write(old, 1, &encoded.pages[0], t).unwrap();
        let (kv, report) = KvStore::open(Arc::clone(&noftl), "s", small_config(), t).unwrap();
        assert_eq!((report.runs_recovered, report.torn_runs_discarded), (1, 1));
        assert_eq!(noftl.object_id("__kv_s_r0_9_9"), None);
        assert_eq!(kv.get(&key(7), t).unwrap().0.as_deref(), Some(val(7, 0).as_slice()));
    }

    #[test]
    fn point_reads_cost_one_page_at_a_size_with_multi_page_tails() {
        // ~2 200 data pages, merged runs of hundreds of pages with
        // multi-page tails.
        // With the v1 footer these runs kept one fence per 2–8 pages.
        const KEYS: u64 = 20_000;
        let device = Arc::new(
            DeviceBuilder::new(FlashGeometry::example()).timing(TimingModel::instant()).build(),
        );
        let noftl = Arc::new(NoFtl::new(device, NoFtlConfig::default()));
        let rid = noftl.create_region(RegionSpec::named("rgKv").with_die_count(6)).unwrap();
        let (kv, mut t) =
            KvStore::create(Arc::clone(&noftl), rid, "s", KvConfig::default(), SimTime::ZERO)
                .unwrap();
        let key = |i: u64| format!("user{i:012}").into_bytes();
        let absent = |i: u64| format!("user{i:012}+").into_bytes(); // between key(i) and key(i+1)
        let value = |i: u64, round: u32| {
            let mut v = vec![round as u8; 400];
            v[..8].copy_from_slice(&i.to_le_bytes());
            v[8..12].copy_from_slice(&round.to_le_bytes());
            v
        };
        // Page reads per get over every 7th key, each checked against
        // `expect`, plus the same for absent in-range keys.
        let measure = |kv: &KvStore, mut t: SimTime, expect: &dyn Fn(u64) -> Vec<u8>| {
            let before = kv.stats();
            for i in (0..KEYS).step_by(7) {
                let (got, t2) = kv.get(&key(i), t).unwrap();
                t = t2;
                assert_eq!(got, Some(expect(i)), "key {i}");
            }
            let mid = kv.stats();
            for i in (0..KEYS - 1).step_by(7) {
                let (got, t2) = kv.get(&absent(i), t).unwrap();
                t = t2;
                assert_eq!(got, None, "absent key {i}");
            }
            let after = kv.stats();
            assert_eq!(after.memtable_hits, before.memtable_hits, "the memtable was flushed");
            for (a, b) in [(&before, &mid), (&mid, &after)] {
                let reads = b.get_page_reads - a.get_page_reads;
                assert_eq!(reads, (b.run_probes - a.run_probes) - (b.bloom_skips - a.bloom_skips));
                assert_eq!(reads, b.run_page_reads - a.run_page_reads, "gets only");
            }
            let per_get = |a: &KvStats, b: &KvStats| {
                (b.get_page_reads - a.get_page_reads) as f64 / (b.gets - a.gets) as f64
            };
            (per_get(&before, &mid), per_get(&mid, &after), t)
        };

        for i in 0..KEYS {
            t = kv.put(&key(i), &value(i, 0), t).unwrap();
        }
        t = kv.flush(t).unwrap();
        let spilled = kv.lock_store().runs.iter().filter(|r| r.tail_pages >= 2).count();
        assert!(spilled > 0, "the load must build runs large enough to spill their tail");
        let (present, missing, t2) = measure(&kv, t, &|i| value(i, 0));
        t = t2;
        assert_eq!(present, 1.0, "ordered load ⇒ disjoint runs ⇒ exactly one page per get");
        assert!(missing <= 0.05, "{missing} page reads per absent-key get after the load");

        // Zipfian overwrites (rank = KEYS^u, s = 1) make the runs overlap.
        let mut rng = crate::crash::SplitMix64(0x21BF_1A4E);
        let mut latest = vec![0u32; KEYS as usize];
        for _ in 0..KEYS {
            let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
            let i = ((KEYS as f64).powf(u) as u64 - 1).min(KEYS - 1);
            latest[i as usize] += 1;
            t = kv.put(&key(i), &value(i, latest[i as usize]), t).unwrap();
        }
        t = kv.flush(t).unwrap();
        assert!(kv.run_count() > 1);
        let (present, missing, _) = measure(&kv, t, &|i| value(i, latest[i as usize]));
        assert!((1.0..=1.1).contains(&present), "{present} page reads per get after overwrites");
        // An absent key costs a read only on a filter false positive
        // (~1 %), once per run whose key range covers it.
        let bound = 0.015 * kv.run_count() as f64;
        assert!(missing <= bound, "{missing} page reads per absent-key get over {bound}");
    }

    #[test]
    fn open_unknown_store_fails() {
        let (_d, noftl, _rid) = stack(TimingModel::instant());
        assert!(matches!(
            KvStore::open(noftl, "nope", KvConfig::default(), SimTime::ZERO),
            Err(NoFtlError::Kv { .. })
        ));
    }

    #[test]
    fn maximum_size_entry_survives_put_and_flush() {
        // Regression: the put-time size check was 6 bytes looser than the
        // encoder's assert, so a maximum-size entry was accepted into the
        // memtable and then panicked the flush.
        let (_d, noftl, rid) = stack(TimingModel::instant());
        let (kv, t) =
            KvStore::create(Arc::clone(&noftl), rid, "s", KvConfig::default(), SimTime::ZERO)
                .unwrap();
        let page_size = noftl.device().geometry().page_size as usize;
        let max = run::max_entry_payload(page_size);
        let big_val = vec![0xBB; max - 3];
        let t = kv.put(b"big", &big_val, t).unwrap();
        assert!(kv.put(b"big2", &vec![0xBB; max - 3], t).is_err(), "one byte over is rejected");
        let t = kv.flush(t).unwrap(); // must not panic
        assert_eq!(kv.get(b"big", t).unwrap().0.as_deref(), Some(big_val.as_slice()));
    }

    #[test]
    fn invalid_names_and_oversized_entries_rejected() {
        let (_d, noftl, rid) = stack(TimingModel::instant());
        assert!(KvStore::create(
            Arc::clone(&noftl),
            rid,
            "bad_name",
            KvConfig::default(),
            SimTime::ZERO
        )
        .is_err());
        let (kv, t) =
            KvStore::create(Arc::clone(&noftl), rid, "ok", KvConfig::default(), SimTime::ZERO)
                .unwrap();
        assert!(kv.put(b"", b"v", t).is_err(), "empty key");
        let huge = vec![0u8; 5000];
        assert!(kv.put(b"k", &huge, t).is_err(), "entry larger than a page");
    }
}

//! Buffer pool with clean-first clock eviction and asynchronous
//! write-back.
//!
//! On native flash an evicted dirty page costs a program (705 µs of die
//! time on `mlc_2015`) and an evicted clean page costs nothing until it
//! is read again (75 µs), so the clock passes over a dirty, unreferenced
//! frame once more than over a clean one — GCLOCK with weight 2 for dirty
//! frames, in the spirit of CFLRU (Park et al., CASES 2006).  The weight
//! is not a knob: a dirty frame is still the victim when no clean one is
//! left.
//!
//! No steal, said once: a frame is **pinned** while its page is in the
//! open write set ([`BufferPool::begin_capture`] opens it, the transaction's
//! commit releases it with [`BufferPool::take_capture`] once its log force
//! returned).  No write-back path takes a pinned frame — not eviction, not
//! [`BufferPool::flush_all`] — so uncommitted data never reaches storage,
//! while the committed pages of earlier transactions are written back like
//! any others.  Without an open write set nothing is pinned.
//!
//! The time model mirrors a DBMS with background flushers (paper, Figure 1):
//!
//! * a **miss** charges the flash read latency to the calling transaction;
//! * a **logical write** only dirties the frame — no flash I/O, no charge;
//! * **evictions** of dirty frames and **flusher batches** issue flash
//!   writes at the current simulated time but their completion is *not*
//!   added to the caller's clock.  The device still becomes busy, so heavy
//!   write-back and GC traffic delays subsequent reads — exactly the
//!   interference effect the paper measures.
//!
//! Readers **borrow**, writers **edit in place**: [`BufferPool::with_page`]
//! lends the resident frame to a closure (a hit copies nothing), and
//! [`BufferPool::with_page_mut`] lends it mutably, so a heap or B+-tree
//! write changes the frame where it lies and copies no page.  Only a page
//! that is new, or rewritten from bytes the caller kept (a B+-tree split's
//! parent), goes through [`BufferPool::write_page`].
//!
//! A frame owns its page buffer for the life of the pool.  A miss reuses
//! the buffer of the frame it evicts (or of a free frame): the storage
//! backend reads the page straight into it
//! ([`StorageBackend::read_page_into`]), so once the pool has filled up a
//! miss allocates nothing, whether its victim was clean or written back.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

use flash_sim::SimTime;
use noftl_obs::{Histogram, Unit};

use crate::error::DbError;
use crate::storage::{ObjectId, StorageBackend};
use crate::Result;
use crate::PAGE_SIZE;

/// Buffer pool counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BufferStats {
    /// Page requests served from the pool.
    pub hits: u64,
    /// Page requests that had to read from storage.
    pub misses: u64,
    /// Frames evicted.
    pub evictions: u64,
    /// Dirty frames written back on eviction.
    pub dirty_writebacks: u64,
    /// Pages written back by explicit flush calls.
    pub flushed: u64,
    /// Logical page reads requested.
    pub logical_reads: u64,
    /// Logical page writes requested.
    pub logical_writes: u64,
    /// Always 0: nothing reads ahead of demand.  The frozen benchmark's
    /// metric table still reads the field (`dbms.buffer.prefetched`); it
    /// goes when that table is re-baselined.
    pub prefetched: u64,
}

#[derive(Default)]
struct Frame {
    key: (ObjectId, u64),
    /// The page; in a free frame, the buffer the next page to land in
    /// the frame reuses (empty until the frame first holds a page).
    data: Vec<u8>,
    dirty: bool,
    ref_bit: bool,
    /// The sweep found this frame dirty and unreferenced and passed over
    /// it once; cleared on every reference.
    spared: bool,
    /// The page is in the open write set: no write-back path takes it.
    pinned: bool,
}

/// The hasher of the pool's page map: one multiply-rotate step per word
/// of the key (the FxHash of rustc).  The keys are the engine's own object
/// ids and page numbers, not an adversary's, so there is no flooding to
/// resist, and nothing observes the map's iteration order.
#[derive(Default)]
struct PageKeyHasher(u64);

impl PageKeyHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for PageKeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.add(byte.into());
        }
    }

    fn write_u32(&mut self, word: u32) {
        self.add(word.into());
    }

    fn write_u64(&mut self, word: u64) {
        self.add(word);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Bound on in-flight pages of the [`BufferPool::flush_all`] pipeline:
/// the die count of the largest preset geometry
/// (`FlashGeometry::edbt_paper` has 64 dies), so it saturates every
/// preset's die-level parallelism while still bounding outstanding I/O.
pub const DEFAULT_FLUSH_WINDOW: usize = 64;

/// A fixed-capacity buffer pool over a [`StorageBackend`].
pub struct BufferPool {
    backend: Arc<dyn StorageBackend>,
    frames: Vec<Frame>,
    /// Indices of the free frames, which hold no page (and are never
    /// dirty).  An eviction pushes its frame, the fill that caused it pops
    /// it again, so once the pool has filled up this is empty between
    /// calls and a miss goes straight to the clock sweep.
    free: Vec<usize>,
    /// Sized for twice the frames: evictions leave tombstones, and a
    /// table at most half full reclaims them in place instead of
    /// reallocating, so a miss never allocates here.
    map: HashMap<(ObjectId, u64), usize, BuildHasherDefault<PageKeyHasher>>,
    hand: usize,
    stats: BufferStats,
    /// When capturing, the pages dirtied since the capture began, in
    /// first-write order (the write set the WAL logs as after-images at
    /// commit); each one's frame is pinned.
    capture: Option<Vec<(ObjectId, u64)>>,
    /// The pages [`BufferPool::flush_all`] hands the backend, sized for
    /// every frame once: a flush moves each dirty frame's buffer in and
    /// back out, so it copies no page and allocates nothing.  Empty
    /// between calls.
    batch: Vec<(ObjectId, u64, Vec<u8>)>,
    /// `dbms.buffer.flush_ns` handle, bound on the first flush.
    flush_hist: Option<Histogram>,
}

impl BufferPool {
    /// Create a pool holding at most `capacity` pages.
    pub fn new(backend: Arc<dyn StorageBackend>, capacity: usize) -> Self {
        let capacity = capacity.max(4);
        BufferPool {
            backend,
            frames: (0..capacity).map(|_| Frame::default()).collect(),
            // Popped from the back: frame 0 fills first.
            free: (0..capacity).rev().collect(),
            map: HashMap::with_capacity_and_hasher(2 * capacity + 2, Default::default()),
            hand: 0,
            stats: BufferStats::default(),
            capture: None,
            batch: Vec::with_capacity(capacity),
            flush_hist: None,
        }
    }

    /// The backend underneath the pool.
    pub fn backend(&self) -> &Arc<dyn StorageBackend> {
        &self.backend
    }

    /// Pool capacity in pages.
    pub fn capacity(&self) -> usize {
        self.frames.len()
    }

    /// Current statistics.
    pub fn stats(&self) -> BufferStats {
        self.stats
    }

    /// The free frame the next page goes into, evicting one by the
    /// clean-first clock if none is free; it stays free until
    /// [`Self::occupy`] takes it, so a fill that fails gives it back.
    /// Dirty victims are written back at `now` without charging the
    /// caller; a pinned frame is never a victim.
    fn make_room(&mut self, now: SimTime) -> Result<usize> {
        if let Some(&idx) = self.free.last() {
            return Ok(idx);
        }
        // Clock sweep: a referenced frame loses its bit, a dirty one is
        // passed over once more, so three turns reach any frame.
        for _ in 0..self.frames.len() * 3 + 1 {
            let idx = self.hand;
            self.hand = (self.hand + 1) % self.frames.len();
            let frame = &mut self.frames[idx];
            if frame.ref_bit {
                frame.ref_bit = false;
                continue;
            }
            if frame.pinned {
                continue;
            }
            if frame.dirty && !frame.spared {
                // Evicting a clean frame is free; a dirty one costs a
                // program, so it gets one more turn.
                frame.spared = true;
                continue;
            }
            // Victim found: it keeps its buffer for the page replacing it.
            let key = frame.key;
            if frame.dirty {
                self.backend.write_page(key.0, key.1, &frame.data, now)?;
                frame.dirty = false;
                self.stats.dirty_writebacks += 1;
            }
            self.stats.evictions += 1;
            self.map.remove(&key);
            self.free.push(idx);
            return Ok(idx);
        }
        Err(DbError::Storage {
            message: "buffer pool full: every frame holds a page of the open write set".into(),
        })
    }

    /// Take the free frame [`Self::make_room`] chose, whose buffer now
    /// holds the page `key`, and return its index.  A free frame is clean
    /// and unpinned; a write dirties it after.
    fn occupy(&mut self, key: (ObjectId, u64)) -> Result<usize> {
        let idx = self.free.pop().ok_or_else(|| DbError::Storage {
            message: "buffer pool has no free frame to fill".into(),
        })?;
        let frame = &mut self.frames[idx];
        (frame.key, frame.ref_bit, frame.spared) = (key, true, false);
        self.map.insert(key, idx);
        Ok(idx)
    }

    /// The one lookup / miss / fill path of the pool: count a logical
    /// read, find the page's frame or charge the flash read into a free
    /// frame's buffer, and mark it referenced.  Returns the frame's index
    /// and the time at which its data was available.
    fn lend(&mut self, obj: ObjectId, page: u64, now: SimTime) -> Result<(usize, SimTime)> {
        self.stats.logical_reads += 1;
        let (idx, done) = match self.map.get(&(obj, page)) {
            Some(&idx) => {
                self.stats.hits += 1;
                (idx, now)
            }
            None => {
                self.stats.misses += 1;
                let free = self.make_room(now)?;
                let data = &mut self.frames[free].data;
                data.resize(PAGE_SIZE, 0);
                let done = self.backend.read_page_into(obj, page, data, now)?;
                (self.occupy((obj, page))?, done)
            }
        };
        let frame = &mut self.frames[idx];
        frame.ref_bit = true;
        frame.spared = false;
        Ok((idx, done))
    }

    /// Lend a page to `f`: a hit runs `f` on the resident frame without
    /// copying it; a miss charges the flash read, which fills a free (or
    /// just evicted) frame's buffer.  Returns `f`'s result and the time
    /// at which the data was available.
    pub fn with_page<R>(
        &mut self,
        obj: ObjectId,
        page: u64,
        now: SimTime,
        f: impl FnOnce(&[u8]) -> R,
    ) -> Result<(R, SimTime)> {
        let (idx, done) = self.lend(obj, page, now)?;
        Ok((f(&self.frames[idx].data), done))
    }

    /// Lend a page to `f` for editing in place: the read of
    /// [`BufferPool::with_page`], then `f` on the resident frame.  `f`
    /// returns its result and whether it wrote; a write dirties the frame
    /// and counts as one logical write (joining the write-set capture),
    /// so the call counts what a copy-out read plus a
    /// [`BufferPool::write_page`] of the edited copy would.  A closure
    /// that reports no write must leave the frame as it found it; the
    /// frame then stays clean.
    pub fn with_page_mut<R>(
        &mut self,
        obj: ObjectId,
        page: u64,
        now: SimTime,
        f: impl FnOnce(&mut [u8]) -> (R, bool),
    ) -> Result<(R, SimTime)> {
        let (idx, done) = self.lend(obj, page, now)?;
        let (result, wrote) = f(&mut self.frames[idx].data);
        if wrote {
            self.count_write(idx);
        }
        Ok((result, done))
    }

    /// Count a logical write of frame `idx`'s page, dirty the frame and,
    /// while a write set is open, pin it into the set.
    fn count_write(&mut self, idx: usize) {
        self.stats.logical_writes += 1;
        let frame = &mut self.frames[idx];
        frame.dirty = true;
        if let Some(set) = self.capture.as_mut() {
            if !frame.pinned {
                frame.pinned = true;
                set.push(frame.key);
            }
        }
    }

    /// Write a whole page into the pool (dirtying it) — for a page that
    /// is new, or rewritten from bytes the caller already holds.  No flash
    /// I/O happens now; the page reaches storage on eviction or an
    /// explicit flush.  Returns `now` unchanged — the caller is not
    /// charged.
    pub fn write_page(
        &mut self,
        obj: ObjectId,
        page: u64,
        data: &[u8],
        now: SimTime,
    ) -> Result<SimTime> {
        if data.len() != PAGE_SIZE {
            return Err(DbError::TooLarge {
                message: format!("page write of {} bytes, expected {PAGE_SIZE}", data.len()),
            });
        }
        let idx = match self.map.get(&(obj, page)) {
            Some(&idx) => {
                let frame = &mut self.frames[idx];
                frame.data.copy_from_slice(data);
                (frame.ref_bit, frame.spared) = (true, false);
                idx
            }
            None => {
                let free = self.make_room(now)?;
                let buf = &mut self.frames[free].data;
                buf.clear();
                buf.extend_from_slice(data);
                self.occupy((obj, page))?
            }
        };
        self.count_write(idx);
        Ok(now)
    }

    /// Open a write set: record the key of every page written through the
    /// pool from now on (the write set of the transaction being executed)
    /// and pin its frame.  A write set already open is released first.
    pub fn begin_capture(&mut self) {
        self.take_capture();
        self.capture = Some(Vec::new());
    }

    /// The open write set in first-write order; empty if none is open.
    pub fn write_set(&self) -> &[(ObjectId, u64)] {
        self.capture.as_deref().unwrap_or_default()
    }

    /// Close the write set, unpin its frames and return its page keys in
    /// first-write order; empty if no write set was open.
    pub fn take_capture(&mut self) -> Vec<(ObjectId, u64)> {
        let set = self.capture.take().unwrap_or_default();
        for key in &set {
            // A pinned frame is never evicted: the page is still resident.
            self.frames[self.map[key]].pinned = false;
        }
        set
    }

    /// Current contents of a page if it is resident in the pool, borrowed
    /// from its frame (no I/O, no statistics impact).  Commit logs the
    /// write set's after-images from here.
    pub fn resident(&self, obj: ObjectId, page: u64) -> Option<&[u8]> {
        self.map.get(&(obj, page)).map(|&idx| self.frames[idx].data.as_slice())
    }

    /// Write back every dirty page that is not pinned through the backend's
    /// completion-driven pipeline: at most [`DEFAULT_FLUSH_WINDOW`]
    /// pages in flight, each further page issued the instant the oldest
    /// outstanding one completes, overlapping the backend's internal
    /// parallelism (per-die command queues under NoFTL).  The returned
    /// time is the maximum completion over the whole window.  The frames
    /// lend their buffers to the batch for the write and take them back
    /// whether it succeeded or not; on failure they stay dirty, so a later
    /// flush retries them.
    pub fn flush_all(&mut self, now: SimTime) -> Result<SimTime> {
        let flushing = |f: &&mut Frame| f.dirty && !f.pinned;
        for frame in self.frames.iter_mut().filter(flushing) {
            self.batch.push((frame.key.0, frame.key.1, std::mem::take(&mut frame.data)));
        }
        if self.batch.is_empty() {
            return Ok(now);
        }
        let pages = self.batch.len();
        let written = self.backend.write_windowed(&self.batch, now, DEFAULT_FLUSH_WINDOW);
        // The same frames in the same order: nothing touched them meanwhile.
        let lenders = self.frames.iter_mut().filter(flushing);
        for (frame, (.., data)) in lenders.zip(self.batch.drain(..)) {
            (frame.data, frame.dirty) = (data, written.is_err());
        }
        let done = written?;
        if let Some(registry) = self.backend.metrics() {
            let hist = self
                .flush_hist
                .get_or_insert_with(|| registry.histogram("dbms.buffer.flush_ns", Unit::SimNanos));
            hist.record(done.since(now).as_nanos());
            // Track 102: buffer-pool spans (see the core obs track map).
            registry.tracer().span(
                "dbms.buffer",
                "flush_all",
                102,
                now.as_nanos(),
                done.as_nanos(),
                &[("pages", pages as u64)],
            );
        }
        self.stats.flushed += pages as u64;
        Ok(done)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::NoFtlBackend;
    use flash_sim::{
        DeviceBuilder, Duration, FlashBackend, FlashGeometry, NandDevice, TimingModel,
    };
    use noftl_core::{crash::power_cycle, NoFtl, NoFtlConfig, PlacementConfig};
    use std::sync::OnceLock;

    fn device() -> Arc<NandDevice> {
        Arc::new(
            DeviceBuilder::new(FlashGeometry::small_test()).timing(TimingModel::mlc_2015()).build(),
        )
    }

    fn backend_on(device: Arc<NandDevice>) -> Arc<NoFtlBackend> {
        let noftl = Arc::new(NoFtl::new(device, NoFtlConfig::default()));
        let placement = PlacementConfig::traditional(4, ["t".to_string()]);
        Arc::new(NoFtlBackend::new(noftl, &placement).unwrap())
    }

    fn backend() -> Arc<NoFtlBackend> {
        backend_on(device())
    }

    fn page(b: u8) -> Vec<u8> {
        vec![b; PAGE_SIZE]
    }

    fn dirty_pages(pool: &BufferPool) -> usize {
        pool.frames.iter().filter(|f| f.dirty).count()
    }

    #[test]
    fn writes_are_buffered_and_reads_hit() {
        let backend = backend();
        let obj = backend.create_object("t").unwrap();
        let mut pool = BufferPool::new(backend.clone(), 8);
        let t0 = SimTime::ZERO;
        // A logical write costs the caller nothing.
        let t1 = pool.write_page(obj, 0, &page(1), t0).unwrap();
        assert_eq!(t1, t0);
        assert_eq!(dirty_pages(&pool), 1);
        // Reading it back is a hit: also free.
        let (data, t2) = pool.with_page(obj, 0, t1, <[u8]>::to_vec).unwrap();
        assert_eq!(data, page(1));
        assert_eq!(t2, t1);
        let s = pool.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 0);
        assert_eq!(s.logical_writes, 1);
        // No flash write has happened yet.
        assert_eq!(backend.io_counts().1, 0);
    }

    #[test]
    fn misses_charge_read_latency() {
        let backend = backend();
        let obj = backend.create_object("t").unwrap();
        let mut pool = BufferPool::new(backend.clone(), 8);
        pool.write_page(obj, 0, &page(7), SimTime::ZERO).unwrap();
        let done = pool.flush_all(SimTime::ZERO).unwrap();
        assert!(done > SimTime::ZERO);
        assert_eq!(dirty_pages(&pool), 0);
        // Build a second pool so the page is not cached.
        let mut pool2 = BufferPool::new(backend.clone(), 8);
        let (data, t) = pool2.with_page(obj, 0, done, <[u8]>::to_vec).unwrap();
        assert_eq!(data, page(7));
        assert!(t > done, "a miss must pay the flash read latency");
        assert_eq!(pool2.stats().misses, 1);
    }

    #[test]
    fn with_page_lends_the_frame_a_later_read_copies() {
        let backend = backend();
        let obj = backend.create_object("t").unwrap();
        let mut pool = BufferPool::new(backend.clone(), 8);
        pool.write_page(obj, 0, &page(7), SimTime::ZERO).unwrap();
        let done = pool.flush_all(SimTime::ZERO).unwrap();
        let mut cold = BufferPool::new(backend, 8);
        // Miss: charged, filled; the closure sees the page.
        let (first, t) = cold.with_page(obj, 0, done, |p| (p.len(), p[0])).unwrap();
        assert_eq!(first, (PAGE_SIZE, 7));
        assert!(t > done);
        // Hit: free, same bytes.
        let (sum, t2) = cold.with_page(obj, 0, t, |p| p.iter().map(|b| *b as usize).sum()).unwrap();
        assert_eq!((sum, t2), (7 * PAGE_SIZE, t));
        assert_eq!(cold.with_page(obj, 0, t, <[u8]>::to_vec).unwrap(), (page(7), t));
        let s = cold.stats();
        assert_eq!((s.logical_reads, s.misses, s.hits), (3, 1, 2));
    }

    #[test]
    fn with_page_mut_counts_a_copy_out_read_plus_a_write_back() {
        // Two identical devices, each holding page 0 on flash only, so the
        // two pools see the same miss latency.
        let cold = || {
            let backend = backend();
            let obj = backend.create_object("t").unwrap();
            let mut seed = BufferPool::new(backend.clone(), 8);
            seed.write_page(obj, 0, &page(7), SimTime::ZERO).unwrap();
            let done = seed.flush_all(SimTime::ZERO).unwrap();
            let mut pool = BufferPool::new(backend, 8);
            pool.begin_capture();
            (pool, obj, done)
        };
        let ((mut copying, obj, done), (mut editing, _, _)) = (cold(), cold());
        // A miss, then a hit, each writing the page once.
        for value in [8u8, 9] {
            let (mut copy, t_copy) = copying.with_page(obj, 0, done, <[u8]>::to_vec).unwrap();
            copy[0] = value;
            copying.write_page(obj, 0, &copy, t_copy).unwrap();
            let ((), t_edit) = editing
                .with_page_mut(obj, 0, done, |frame| {
                    frame[0] = value;
                    ((), true)
                })
                .unwrap();
            assert_eq!(t_edit, t_copy);
            assert_eq!(editing.stats(), copying.stats());
            assert_eq!(editing.resident(obj, 0), copying.resident(obj, 0));
        }
        let s = editing.stats();
        assert_eq!((s.logical_reads, s.logical_writes, s.misses, s.hits), (2, 2, 1, 1));
        assert_eq!(dirty_pages(&editing), 1);
        assert_eq!(editing.take_capture(), [(obj, 0)]);
        assert_eq!(copying.take_capture(), [(obj, 0)]);

        // A closure that reports no write, or fails, leaves the frame clean
        // and the capture empty; it still counts its read.
        let (mut reader, obj, done) = cold();
        reader.with_page_mut(obj, 0, done, |frame| (frame[0], false)).unwrap();
        let (failed, _) = reader
            .with_page_mut(obj, 0, done, |_| {
                (Err::<(), _>(DbError::Corrupted { message: "x".into() }), false)
            })
            .unwrap();
        assert!(failed.is_err());
        let s = reader.stats();
        assert_eq!((s.logical_reads, s.logical_writes, s.misses, s.hits), (2, 0, 1, 1));
        assert_eq!(dirty_pages(&reader), 0);
        assert!(reader.take_capture().is_empty());
    }

    #[test]
    fn a_failed_read_gives_its_frame_back() {
        let backend = backend();
        let obj = backend.create_object("t").unwrap();
        let mut pool = BufferPool::new(backend, 4);
        // Reads of never-written pages fail after room was made for them…
        for p in 0..10u64 {
            assert!(pool.with_page(obj, 100 + p, SimTime::ZERO, <[u8]>::to_vec).is_err());
        }
        // …and must not leak it: the pool still holds four pages without
        // evicting anything.
        for p in 0..4u64 {
            pool.write_page(obj, p, &page(p as u8), SimTime::ZERO).unwrap();
        }
        assert_eq!(pool.stats().evictions, 0);
        assert_eq!(dirty_pages(&pool), 4);
    }

    #[test]
    fn eviction_writes_back_dirty_pages() {
        let backend = backend();
        let obj = backend.create_object("t").unwrap();
        let mut pool = BufferPool::new(backend.clone(), 4);
        // Dirty more pages than the pool holds.
        for p in 0..10u64 {
            pool.write_page(obj, p, &page(p as u8), SimTime::ZERO).unwrap();
        }
        // Nothing but dirty frames to evict: every eviction writes back.
        let s = pool.stats();
        assert_eq!((s.evictions, s.dirty_writebacks), (6, 6));
        assert!(backend.io_counts().1 > 0, "evictions reach the flash");
        // All pages still readable with their latest contents (some from
        // the pool, some from flash).
        for p in 0..10u64 {
            let (data, _) = pool.with_page(obj, p, pool_quiesce(&backend), <[u8]>::to_vec).unwrap();
            assert_eq!(data, page(p as u8), "page {p}");
        }
    }

    /// A pool of four frames over pages 0..3, all referenced: pages 0 and
    /// 1 dirty, 2 and 3 clean (written, flushed, read back).  Page 4 is on
    /// flash, not in the pool.  With `pin` a write set is open before
    /// pages 0 and 1 are written: it holds them, and every later write.
    fn two_dirty_two_clean(pin: bool) -> (BufferPool, ObjectId, SimTime) {
        let backend = backend();
        let obj = backend.create_object("t").unwrap();
        let mut pool = BufferPool::new(backend, 4);
        for p in 0..4u64 {
            pool.write_page(obj, p, &page(p as u8), SimTime::ZERO).unwrap();
        }
        let done = pool.flush_all(SimTime::ZERO).unwrap();
        let mut cold = BufferPool::new(pool.backend().clone(), 4);
        cold.write_page(obj, 4, &page(4), done).unwrap();
        let done = cold.flush_all(done).unwrap();
        if pin {
            pool.begin_capture();
        }
        for p in 0..2u64 {
            pool.write_page(obj, p, &page(10 + p as u8), done).unwrap();
        }
        (pool, obj, done)
    }

    fn resident(pool: &BufferPool, obj: ObjectId) -> Vec<u64> {
        (0..5).filter(|&p| pool.resident(obj, p).is_some()).collect()
    }

    #[test]
    fn a_clean_frame_is_evicted_before_a_dirty_one() {
        // The hand starts at frame 0, which is dirty: the clock passes
        // over both dirty frames and takes the first clean one.
        let (mut pool, obj, t) = two_dirty_two_clean(false);
        let (data, _) = pool.with_page(obj, 4, t, <[u8]>::to_vec).unwrap();
        assert_eq!(data, page(4));
        assert_eq!(resident(&pool, obj), [0, 1, 3, 4]);
        let s = pool.stats();
        assert_eq!((s.evictions, s.dirty_writebacks), (1, 0));
        // Referenced again, the passed-over dirty frames earn their pass
        // back: two more misses take clean pages 3, then 4, although the
        // second sweep clears every reference bit before it finds one.
        pool.with_page(obj, 0, t, <[u8]>::to_vec).unwrap();
        pool.with_page(obj, 1, t, <[u8]>::to_vec).unwrap();
        pool.with_page(obj, 2, t, <[u8]>::to_vec).unwrap();
        assert_eq!(resident(&pool, obj), [0, 1, 2, 4]);
        pool.with_page(obj, 3, t, <[u8]>::to_vec).unwrap();
        assert_eq!(resident(&pool, obj), [0, 1, 2, 3]);
        let s = pool.stats();
        assert_eq!((s.evictions, s.dirty_writebacks), (3, 0));
    }

    #[test]
    fn the_open_write_set_is_never_a_victim_until_it_is_released() {
        let (mut pool, obj, t) = two_dirty_two_clean(true);
        // Two clean frames: both can go, the pinned ones stay.
        pool.with_page(obj, 4, t, <[u8]>::to_vec).unwrap();
        pool.write_page(obj, 4, &page(14), t).unwrap();
        pool.write_page(obj, 3, &page(13), t).unwrap();
        assert_eq!(resident(&pool, obj), [0, 1, 3, 4]);
        assert_eq!(pool.write_set(), [(obj, 0), (obj, 1), (obj, 4), (obj, 3)]);
        assert_eq!(pool.stats().dirty_writebacks, 0);
        // Every frame pinned: nothing can go, and a flush writes nothing.
        let err = pool.with_page(obj, 2, t, <[u8]>::to_vec).unwrap_err();
        assert!(err.to_string().contains("buffer pool full"), "{err}");
        let flushed = pool.stats().flushed;
        assert_eq!(pool.flush_all(t).unwrap(), t);
        assert_eq!((dirty_pages(&pool), pool.stats().flushed), (4, flushed));
        // Released, the same miss writes one dirty victim back.
        assert_eq!(pool.take_capture(), [(obj, 0), (obj, 1), (obj, 4), (obj, 3)]);
        assert_eq!(pool.with_page(obj, 2, t, <[u8]>::to_vec).unwrap().0, page(2));
        let s = pool.stats();
        assert_eq!((s.evictions, s.dirty_writebacks), (2, 1));
    }

    #[test]
    fn a_flush_writes_back_everything_but_the_open_write_set() {
        let (mut pool, obj, t) = two_dirty_two_clean(false);
        pool.begin_capture();
        pool.write_page(obj, 2, &page(12), t).unwrap();
        let flushed = pool.stats().flushed;
        let t = pool.flush_all(t).unwrap();
        assert_eq!((dirty_pages(&pool), pool.stats().flushed), (1, flushed + 2));
        assert_eq!(pool.take_capture(), [(obj, 2)]);
        pool.flush_all(t).unwrap();
        assert_eq!((dirty_pages(&pool), pool.stats().flushed), (0, flushed + 3));
    }

    /// A backend that forwards to the stack it was built over until
    /// [`Rebooted::reboot`] hands it the remounted one — so a pool can
    /// live through its device's power cycle.
    struct Rebooted {
        before: Arc<NoFtlBackend>,
        after: OnceLock<NoFtlBackend>,
    }

    impl Rebooted {
        fn live(&self) -> &NoFtlBackend {
            self.after.get().unwrap_or(&self.before)
        }

        /// Power-cycle the device, mount it and forward to the mount.
        fn reboot(&self, device: &NandDevice, at: SimTime) {
            let (noftl, _) = NoFtl::mount(power_cycle(device).unwrap(), at).unwrap();
            let placement = PlacementConfig::traditional(4, ["t".to_string()]);
            let after = NoFtlBackend::attach(Arc::new(noftl), &placement).unwrap();
            assert!(self.after.set(after).is_ok(), "one reboot");
        }
    }

    impl StorageBackend for Rebooted {
        fn page_size(&self) -> u32 {
            self.live().page_size()
        }
        fn create_object(&self, name: &str) -> Result<ObjectId> {
            self.live().create_object(name)
        }
        fn lookup_object(&self, name: &str) -> Option<ObjectId> {
            self.live().lookup_object(name)
        }
        fn object_extent(&self, obj: ObjectId) -> Result<u64> {
            self.live().object_extent(obj)
        }
        fn checkpoint(&self, at: SimTime) -> Result<SimTime> {
            self.live().checkpoint(at)
        }
        fn read_page(&self, obj: ObjectId, page: u64, at: SimTime) -> Result<(Vec<u8>, SimTime)> {
            self.live().read_page(obj, page, at)
        }
        fn read_windowed(
            &self,
            reads: &[(ObjectId, u64)],
            at: SimTime,
            window: usize,
        ) -> Result<(Vec<Vec<u8>>, SimTime)> {
            self.live().read_windowed(reads, at, window)
        }
        fn write_page(
            &self,
            obj: ObjectId,
            page: u64,
            data: &[u8],
            at: SimTime,
        ) -> Result<SimTime> {
            self.live().write_page(obj, page, data, at)
        }
        fn write_windowed(
            &self,
            writes: &[(ObjectId, u64, Vec<u8>)],
            at: SimTime,
            window: usize,
        ) -> Result<SimTime> {
            self.live().write_windowed(writes, at, window)
        }
        fn metrics(&self) -> Option<&Arc<noftl_obs::MetricsRegistry>> {
            self.live().metrics()
        }
        fn free_page(&self, obj: ObjectId, page: u64) -> Result<()> {
            self.live().free_page(obj, page)
        }
        fn io_counts(&self) -> (u64, u64) {
            self.live().io_counts()
        }
    }

    #[test]
    fn a_failed_flush_leaves_every_frame_dirty_with_its_bytes_and_the_retry_writes_them() {
        let device = device();
        let before = backend_on(device.clone());
        let obj = before.create_object("t").unwrap();
        before.checkpoint(SimTime::ZERO).unwrap();
        let backend = Arc::new(Rebooted { before, after: OnceLock::new() });
        let mut pool = BufferPool::new(backend.clone(), 8);
        for p in 0..8u64 {
            pool.write_page(obj, p, &page(p as u8 + 1), SimTime::ZERO).unwrap();
        }
        // The power fails 1 µs into the flush: no program of the batch
        // completes.
        let at = device.quiesce_time();
        let cut = at + Duration::from_us(1);
        device.arm_power_cut(cut);
        assert!(pool.flush_all(at).is_err());
        assert_eq!((dirty_pages(&pool), pool.stats().flushed), (8, 0));
        for p in 0..8u64 {
            assert_eq!(pool.resident(obj, p), Some(&page(p as u8 + 1)[..]), "page {p}");
        }
        // The pool outlives the power cycle; its retry writes every page.
        backend.reboot(&device, cut);
        let done = pool.flush_all(cut).unwrap();
        assert_eq!((dirty_pages(&pool), pool.stats().flushed), (0, 8));
        let mut cold = BufferPool::new(backend, 8);
        for p in 0..8u64 {
            let (data, _) = cold.with_page(obj, p, done, <[u8]>::to_vec).unwrap();
            assert_eq!(data, page(p as u8 + 1), "page {p}");
        }
    }

    fn pool_quiesce(backend: &Arc<NoFtlBackend>) -> SimTime {
        backend.noftl().device().quiesce_time()
    }

    #[test]
    fn bad_page_size_rejected() {
        let backend = backend();
        let obj = backend.create_object("t").unwrap();
        let mut pool = BufferPool::new(backend, 8);
        assert!(pool.write_page(obj, 0, &[1, 2, 3], SimTime::ZERO).is_err());
    }

    #[test]
    fn capacity_is_clamped_to_a_minimum() {
        let backend = backend();
        let pool = BufferPool::new(backend, 0);
        assert!(pool.capacity() >= 4);
    }
}

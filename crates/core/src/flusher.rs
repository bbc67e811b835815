//! Background flusher: a completion-driven write-back pipeline.
//!
//! The paper's Figure 1 shows "Flushers" next to the buffer manager: the
//! threads that write dirty pages back to flash in the background.  The
//! flusher accumulates dirty pages and writes them out through the
//! storage manager's windowed pipeline ([`NoFtl::write_windowed`]),
//! keeping a bounded **window** of pages in flight: the first `window`
//! pages are issued at the flush instant, and every later page is issued
//! the moment the oldest outstanding write completes — exactly how a
//! depth-limited host driver feeds a device.  With a window at least as
//! deep as the region's die count, an N-page flush still completes in
//! roughly `ceil(N / dies)` program times, but the host never holds more
//! than `window` page submissions outstanding, and the clock the next
//! submission carries is a *real completion time*, so flush progress
//! interleaves honestly with concurrent WAL forces and reads.
//!
//! The returned completion is the **maximum across the whole window** —
//! with queue-aware placement a later page steered to an idle die can
//! complete before an earlier page queued behind a busy one, so "the last
//! page's completion" would under-report the flush.

use flash_sim::SimTime;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use crate::manager::NoFtl;
use crate::object::ObjectId;
use crate::Result;

/// Default bound on in-flight pages of a flush ([`Flusher::new`]): the
/// die count of the largest preset geometry (`FlashGeometry::edbt_paper`
/// has 64 dies), so the default saturates every preset's die-level
/// parallelism while still bounding outstanding I/O.
pub const DEFAULT_WINDOW: usize = 64;

/// Statistics of a flusher.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlusherStats {
    /// Number of flush batches submitted.
    pub batches: u64,
    /// Total pages written by the flusher.
    pub pages: u64,
    /// Largest batch submitted.
    pub max_batch: u64,
    /// Deepest the in-flight window has ever been.
    pub inflight_hwm: u64,
}

/// Accumulates dirty pages and writes them back through a bounded
/// completion-driven pipeline.
pub struct Flusher {
    batch_size: usize,
    window: usize,
    queue: Mutex<Vec<(ObjectId, u64, Vec<u8>)>>,
    stats: Mutex<FlusherStats>,
}

impl Flusher {
    /// Create a flusher that submits a batch whenever `batch_size` pages
    /// have accumulated (a batch size of 1 degenerates to synchronous
    /// writes), keeping at most [`DEFAULT_WINDOW`] pages in flight.
    pub fn new(batch_size: usize) -> Self {
        Self::with_window(batch_size, DEFAULT_WINDOW)
    }

    /// Create a flusher with an explicit in-flight window bound.
    pub fn with_window(batch_size: usize, window: usize) -> Self {
        Flusher {
            batch_size: batch_size.max(1),
            window: window.max(1),
            queue: Mutex::new(Vec::new()),
            stats: Mutex::new(FlusherStats::default()),
        }
    }

    /// Maximum number of pages kept in flight by a flush.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Number of pages currently queued.
    pub fn queued(&self) -> usize {
        self.queue.lock().len()
    }

    /// Flusher statistics.
    pub fn stats(&self) -> FlusherStats {
        *self.stats.lock()
    }

    /// Enqueue a dirty page.  If the queue reaches the batch size the batch
    /// is written out immediately and the completion time is returned;
    /// otherwise the page just sits in the queue (`None`).
    pub fn submit(
        &self,
        noftl: &NoFtl,
        obj: ObjectId,
        page: u64,
        data: Vec<u8>,
        at: SimTime,
    ) -> Result<Option<SimTime>> {
        let batch = {
            let mut q = self.queue.lock();
            q.push((obj, page, data));
            if q.len() >= self.batch_size {
                Some(std::mem::take(&mut *q))
            } else {
                None
            }
        };
        match batch {
            Some(batch) => self.write_out(noftl, batch, at).map(Some),
            None => Ok(None),
        }
    }

    /// Write out everything currently queued, regardless of batch size.
    /// Returns the completion time of the last page (or `at` when the queue
    /// was empty).
    pub fn flush_all(&self, noftl: &NoFtl, at: SimTime) -> Result<SimTime> {
        let batch = std::mem::take(&mut *self.queue.lock());
        if batch.is_empty() {
            return Ok(at);
        }
        self.write_out(noftl, batch, at)
    }

    /// Drive the batch through the storage manager's completion-driven
    /// pipeline ([`NoFtl::write_windowed`]): keep up to `window` writes
    /// outstanding, issue the next page at the completion instant of the
    /// oldest one, and fold the maximum completion over the *entire*
    /// window into the returned time.
    fn write_out(
        &self,
        noftl: &NoFtl,
        batch: Vec<(ObjectId, u64, Vec<u8>)>,
        at: SimTime,
    ) -> Result<SimTime> {
        let n = batch.len() as u64;
        let done = noftl.write_windowed(&batch, at, self.window)?;
        let mut stats = self.stats.lock();
        stats.batches += 1;
        stats.pages += n;
        stats.max_batch = stats.max_batch.max(n);
        // The pipeline fills its window whenever the batch is deep enough.
        stats.inflight_hwm = stats.inflight_hwm.max((self.window as u64).min(n));
        noftl.obs().note_flusher_batch(n, stats.inflight_hwm);
        Ok(done)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NoFtlConfig;
    use crate::region::RegionSpec;
    use flash_sim::{DeviceBuilder, FlashBackend, FlashGeometry, TimingModel};
    use std::sync::Arc;

    fn setup() -> (NoFtl, ObjectId) {
        let device = Arc::new(
            DeviceBuilder::new(FlashGeometry::small_test()).timing(TimingModel::mlc_2015()).build(),
        );
        let noftl = NoFtl::new(device, NoFtlConfig::default());
        let r = noftl.create_region(RegionSpec::named("rg").with_die_count(4)).unwrap();
        let obj = noftl.create_object("t", r).unwrap();
        (noftl, obj)
    }

    fn page(b: u8) -> Vec<u8> {
        vec![b; 4096]
    }

    #[test]
    fn batches_are_submitted_when_full() {
        let (noftl, obj) = setup();
        let flusher = Flusher::new(4);
        let mut flushed_at = None;
        for i in 0..4u64 {
            let r = flusher.submit(&noftl, obj, i, page(i as u8), SimTime::ZERO).unwrap();
            if i < 3 {
                assert!(r.is_none());
                assert_eq!(flusher.queued(), (i + 1) as usize);
            } else {
                flushed_at = r;
            }
        }
        assert!(flushed_at.is_some());
        assert_eq!(flusher.queued(), 0);
        let s = flusher.stats();
        assert_eq!(s.batches, 1);
        assert_eq!(s.pages, 4);
        assert_eq!(s.max_batch, 4);
        // Data is durable.
        for i in 0..4u64 {
            assert_eq!(noftl.read(obj, i, flushed_at.unwrap()).unwrap().0, page(i as u8));
        }
    }

    #[test]
    fn flush_all_drains_partial_batches() {
        let (noftl, obj) = setup();
        let flusher = Flusher::new(100);
        for i in 0..3u64 {
            flusher.submit(&noftl, obj, i, page(9), SimTime::ZERO).unwrap();
        }
        assert_eq!(flusher.queued(), 3);
        let done = flusher.flush_all(&noftl, SimTime::ZERO).unwrap();
        assert!(done > SimTime::ZERO);
        assert_eq!(flusher.queued(), 0);
        // Flushing an empty queue is a no-op returning the issue time.
        assert_eq!(flusher.flush_all(&noftl, done).unwrap(), done);
    }

    #[test]
    fn batched_flush_is_faster_than_serial_writes() {
        // 8 pages over 4 dies in one batch should finish in ~2 program
        // rounds; 8 strictly serial writes take ~8.
        let (noftl, obj) = setup();
        let flusher = Flusher::new(8);
        let mut batch_done = SimTime::ZERO;
        for i in 0..8u64 {
            if let Some(done) = flusher.submit(&noftl, obj, i, page(1), SimTime::ZERO).unwrap() {
                batch_done = done;
            }
        }
        let (noftl2, obj2) = setup();
        let mut serial_done = SimTime::ZERO;
        for i in 0..8u64 {
            serial_done = noftl2.write(obj2, i, &page(1), serial_done).unwrap();
        }
        assert!(
            batch_done < serial_done,
            "batched flush ({batch_done}) should beat serial writes ({serial_done})"
        );
    }

    #[test]
    fn zero_batch_size_is_clamped_to_one() {
        let (noftl, obj) = setup();
        let flusher = Flusher::new(0);
        let r = flusher.submit(&noftl, obj, 0, page(1), SimTime::ZERO).unwrap();
        assert!(r.is_some(), "batch size 1 flushes immediately");
        assert_eq!(Flusher::with_window(4, 0).window(), 1, "window is clamped too");
    }

    #[test]
    fn flush_returns_max_completion_across_the_window_not_the_last() {
        // Regression for the headline-fix satellite: two pages, the
        // *first* of which lands on a die that is busy with background
        // erases.  The second page (idle die) completes much earlier, so
        // an implementation returning the last-collected completion would
        // under-report the flush.  The correct answer is the instant the
        // device quiesces — the slow first page.
        let device = Arc::new(
            DeviceBuilder::new(FlashGeometry::small_test()).timing(TimingModel::mlc_2015()).build(),
        );
        let noftl = NoFtl::new(device.clone(), NoFtlConfig::default());
        let r = noftl.create_region(RegionSpec::named("rg").with_die_count(2)).unwrap();
        let obj = noftl.create_object("t", r).unwrap();
        let dies = noftl.region_dies(r).unwrap();
        for b in 0..4u32 {
            device.erase_block(flash_sim::BlockAddr::new(dies[0], 0, b), SimTime::ZERO).unwrap();
        }
        let busy_until = device.die_busy_until(dies[0]);
        let flusher = Flusher::with_window(100, 2);
        flusher.submit(&noftl, obj, 0, page(1), SimTime::ZERO).unwrap();
        flusher.submit(&noftl, obj, 1, page(2), SimTime::ZERO).unwrap();
        let done = flusher.flush_all(&noftl, SimTime::ZERO).unwrap();
        assert!(
            done > busy_until,
            "the flush completion ({done}) must cover the page stuck behind the erases \
             ({busy_until})"
        );
        assert_eq!(done, device.quiesce_time(), "max across the window == device quiesce");
    }

    #[test]
    fn pipeline_bounds_the_inflight_window() {
        let (noftl, obj) = setup();
        let flusher = Flusher::with_window(100, 2);
        for i in 0..8u64 {
            flusher.submit(&noftl, obj, i, page(i as u8), SimTime::ZERO).unwrap();
        }
        let done = flusher.flush_all(&noftl, SimTime::ZERO).unwrap();
        let s = flusher.stats();
        assert_eq!(s.pages, 8);
        assert_eq!(s.inflight_hwm, 2, "never more than `window` pages outstanding");
        for i in 0..8u64 {
            assert_eq!(noftl.read(obj, i, done).unwrap().0, page(i as u8));
        }
    }

    #[test]
    fn deep_window_matches_full_fanout_timing() {
        // With a window at least the batch size, every page is issued at
        // the flush instant — the pipeline reproduces the one-shot
        // write_batch fan-out timing exactly.
        let (noftl, obj) = setup();
        let flusher = Flusher::with_window(100, 16);
        for i in 0..8u64 {
            flusher.submit(&noftl, obj, i, page(7), SimTime::ZERO).unwrap();
        }
        let piped = flusher.flush_all(&noftl, SimTime::ZERO).unwrap();
        let (noftl2, obj2) = setup();
        let batch: Vec<(ObjectId, u64, Vec<u8>)> = (0..8u64).map(|i| (obj2, i, page(7))).collect();
        let batched = noftl2.write_batch(&batch, SimTime::ZERO).unwrap();
        assert_eq!(piped, batched);
    }
}

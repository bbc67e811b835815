//! Decorators over the two trait seams that exist today:
//! `Arc<dyn FlashBackend>` (core -> flash) and `Arc<dyn StorageBackend>`
//! (dbms -> core).  Every method is forwarded, the provided ones included,
//! so batching and windowing below the seam are what they are untraced.
//! Only the trace binary knows these types.

use std::sync::Arc;

use dbms_engine::{ObjectId, StorageBackend};
use flash_sim::{
    BlockAddr, BlockInfo, DeviceStats, DieId, DieLoad, DieStats, FlashBackend, FlashGeometry,
    IoTag, OpOutcome, PageAddr, PageMetadata, PageState, SimTime, TimingModel, WearSummary,
};
use noftl_benchmark::seams::{Entry, Seams};
use noftl_obs::MetricsRegistry;

use crate::spans::Tracer;

/// The seams of a traced run.
pub struct Tracing(pub Arc<Tracer>);

impl Seams for Tracing {
    fn flash(&self, device: Arc<dyn FlashBackend>) -> Arc<dyn FlashBackend> {
        Arc::new(TracedFlash { inner: device, tracer: Arc::clone(&self.0) })
    }

    fn storage(&self, backend: Arc<dyn StorageBackend>) -> Arc<dyn StorageBackend> {
        Arc::new(TracedStorage { inner: backend, tracer: Arc::clone(&self.0) })
    }

    fn op_begin(&self, entry: Entry, kind: &'static str, issue: SimTime) {
        self.0.op_begin(entry, kind, issue);
    }

    fn op_end(&self, done: SimTime) {
        self.0.op_end(done);
    }
}

struct TracedFlash {
    inner: Arc<dyn FlashBackend>,
    tracer: Arc<Tracer>,
}

impl TracedFlash {
    /// Run a timed command and record its span; a failed command occupies
    /// no simulated time.
    fn timed<T>(
        &self,
        kind: &'static str,
        at: SimTime,
        call: impl FnOnce() -> flash_sim::Result<T>,
        outcome: impl Fn(&T) -> OpOutcome,
    ) -> flash_sim::Result<T> {
        let host_start = self.tracer.host_now();
        let result = call();
        let done = result.as_ref().map_or(at, |value| outcome(value).completed_at);
        self.tracer.flash_call(
            kind,
            host_start,
            (at.as_nanos(), done.as_nanos().max(at.as_nanos())),
        );
        result
    }
}

impl FlashBackend for TracedFlash {
    fn geometry(&self) -> &FlashGeometry {
        self.inner.geometry()
    }

    fn timing(&self) -> &TimingModel {
        self.inner.timing()
    }

    fn metrics(&self) -> &Arc<MetricsRegistry> {
        self.inner.metrics()
    }

    fn read_page(
        &self,
        addr: PageAddr,
        at: SimTime,
    ) -> flash_sim::Result<(Vec<u8>, Option<PageMetadata>, OpOutcome)> {
        self.timed("read", at, || self.inner.read_page(addr, at), |r| r.2)
    }

    fn read_page_tagged(
        &self,
        addr: PageAddr,
        at: SimTime,
        tag: IoTag,
    ) -> flash_sim::Result<(Vec<u8>, Option<PageMetadata>, OpOutcome)> {
        self.timed("read", at, || self.inner.read_page_tagged(addr, at, tag), |r| r.2)
    }

    fn read_metadata(
        &self,
        addr: PageAddr,
        at: SimTime,
    ) -> flash_sim::Result<(Option<PageMetadata>, OpOutcome)> {
        self.timed("metadata_read", at, || self.inner.read_metadata(addr, at), |r| r.1)
    }

    fn read_metadata_tagged(
        &self,
        addr: PageAddr,
        at: SimTime,
        tag: IoTag,
    ) -> flash_sim::Result<(Option<PageMetadata>, OpOutcome)> {
        self.timed("metadata_read", at, || self.inner.read_metadata_tagged(addr, at, tag), |r| r.1)
    }

    fn program_page(
        &self,
        addr: PageAddr,
        data: &[u8],
        meta: PageMetadata,
        at: SimTime,
    ) -> flash_sim::Result<OpOutcome> {
        self.timed("program", at, || self.inner.program_page(addr, data, meta, at), |r| *r)
    }

    fn program_page_tagged(
        &self,
        addr: PageAddr,
        data: &[u8],
        meta: PageMetadata,
        at: SimTime,
        tag: IoTag,
    ) -> flash_sim::Result<OpOutcome> {
        self.timed(
            "program",
            at,
            || self.inner.program_page_tagged(addr, data, meta, at, tag),
            |r| *r,
        )
    }

    fn erase_block(&self, addr: BlockAddr, at: SimTime) -> flash_sim::Result<OpOutcome> {
        self.timed("erase", at, || self.inner.erase_block(addr, at), |r| *r)
    }

    fn copyback(&self, src: PageAddr, dst: PageAddr, at: SimTime) -> flash_sim::Result<OpOutcome> {
        self.timed("copyback", at, || self.inner.copyback(src, dst, at), |r| *r)
    }

    fn mark_invalid(&self, addr: PageAddr) -> flash_sim::Result<()> {
        self.inner.mark_invalid(addr)
    }

    fn retire_block(&self, addr: BlockAddr) -> flash_sim::Result<()> {
        self.inner.retire_block(addr)
    }

    fn block_info(&self, addr: BlockAddr) -> flash_sim::Result<BlockInfo> {
        self.inner.block_info(addr)
    }

    fn page_state(&self, addr: PageAddr) -> flash_sim::Result<PageState> {
        self.inner.page_state(addr)
    }

    fn stats(&self) -> DeviceStats {
        self.inner.stats()
    }

    fn die_stats(&self) -> Vec<DieStats> {
        self.inner.die_stats()
    }

    fn wear_summary(&self) -> WearSummary {
        self.inner.wear_summary()
    }

    fn quiesce_time(&self) -> SimTime {
        self.inner.quiesce_time()
    }

    fn die_busy_until(&self, die: DieId) -> SimTime {
        self.inner.die_busy_until(die)
    }

    fn die_load(&self, die: DieId, at: SimTime) -> DieLoad {
        self.inner.die_load(die, at)
    }

    fn die_loads(&self, at: SimTime) -> Vec<DieLoad> {
        self.inner.die_loads(at)
    }

    fn current_epoch(&self) -> u64 {
        self.inner.current_epoch()
    }

    fn stores_data(&self) -> bool {
        self.inner.stores_data()
    }

    fn die_touched(&self, die: DieId) -> bool {
        self.inner.die_touched(die)
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self.inner.as_any()
    }

    fn replication_blob(&self) -> Option<Vec<u8>> {
        self.inner.replication_blob()
    }

    fn restore_replication(&self, blob: Option<&[u8]>, at: SimTime) -> flash_sim::Result<SimTime> {
        self.inner.restore_replication(blob, at)
    }
}

struct TracedStorage {
    inner: Arc<dyn StorageBackend>,
    tracer: Arc<Tracer>,
}

impl TracedStorage {
    /// Run a timed call and record its span; a failed call occupies no
    /// simulated time.
    fn timed<T>(
        &self,
        kind: &'static str,
        at: SimTime,
        call: impl FnOnce() -> dbms_engine::Result<T>,
        done: impl Fn(&T) -> SimTime,
    ) -> dbms_engine::Result<T> {
        let host_start = self.tracer.host_now();
        self.tracer.storage_enter();
        let result = call();
        let end = result.as_ref().map_or(at, done).max(at);
        self.tracer.storage_exit(kind, host_start, (at.as_nanos(), end.as_nanos()));
        result
    }
}

impl StorageBackend for TracedStorage {
    fn page_size(&self) -> u32 {
        self.inner.page_size()
    }

    fn create_object(&self, name: &str) -> dbms_engine::Result<ObjectId> {
        self.inner.create_object(name)
    }

    fn lookup_object(&self, name: &str) -> Option<ObjectId> {
        self.inner.lookup_object(name)
    }

    fn object_extent(&self, obj: ObjectId) -> dbms_engine::Result<u64> {
        self.inner.object_extent(obj)
    }

    fn checkpoint(&self, at: SimTime) -> dbms_engine::Result<SimTime> {
        self.timed("checkpoint", at, || self.inner.checkpoint(at), |t| *t)
    }

    fn read_page(
        &self,
        obj: ObjectId,
        page: u64,
        at: SimTime,
    ) -> dbms_engine::Result<(Vec<u8>, SimTime)> {
        self.timed("read_page", at, || self.inner.read_page(obj, page, at), |r| r.1)
    }

    fn read_windowed(
        &self,
        reads: &[(ObjectId, u64)],
        at: SimTime,
        window: usize,
    ) -> dbms_engine::Result<(Vec<Vec<u8>>, SimTime)> {
        self.timed("read_windowed", at, || self.inner.read_windowed(reads, at, window), |r| r.1)
    }

    fn write_page(
        &self,
        obj: ObjectId,
        page: u64,
        data: &[u8],
        at: SimTime,
    ) -> dbms_engine::Result<SimTime> {
        self.timed("write_page", at, || self.inner.write_page(obj, page, data, at), |t| *t)
    }

    fn write_batch(
        &self,
        writes: &[(ObjectId, u64, Vec<u8>)],
        at: SimTime,
    ) -> dbms_engine::Result<SimTime> {
        self.timed("write_batch", at, || self.inner.write_batch(writes, at), |t| *t)
    }

    fn write_windowed(
        &self,
        writes: &[(ObjectId, u64, Vec<u8>)],
        at: SimTime,
        window: usize,
    ) -> dbms_engine::Result<SimTime> {
        self.timed("write_windowed", at, || self.inner.write_windowed(writes, at, window), |t| *t)
    }

    fn metrics(&self) -> Option<&Arc<MetricsRegistry>> {
        self.inner.metrics()
    }

    fn free_page(&self, obj: ObjectId, page: u64) -> dbms_engine::Result<()> {
        self.inner.free_page(obj, page)
    }

    fn io_counts(&self) -> (u64, u64) {
        self.inner.io_counts()
    }
}

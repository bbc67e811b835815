//! The flash backend abstraction the storage manager runs on.
//!
//! `NoFtl` was written against a single [`NandDevice`]; the replication
//! layer (`noftl-mirror`) fronts *several* devices behind the same call
//! surface.  [`FlashBackend`] captures that surface as a trait: the full timed native-flash command
//! set (read/program/erase/copyback with caller-supplied issue times and
//! device-returned completion times), the page/block state probes the
//! region manager's GC and mount scan need, and the load/metrics probes
//! the mirror's read selection and the observability layer read.
//!
//! One hook exists purely for replicated backends and defaults to a no-op
//! on a plain device: [`FlashBackend::restore_replication`], which
//! `NoFtl::mount` calls so a rebooted mirror reads which children are
//! stale off the children themselves.  Nothing about replication is
//! persisted: [`FlashBackend::replication_blob`] and the hook's `blob`
//! parameter stay only because the benchmark's `bench-trace` decorator
//! implements them.

use std::sync::Arc;

use noftl_obs::MetricsRegistry;

use crate::addr::{BlockAddr, DieId, PageAddr};
use crate::arbiter::IoTag;
use crate::block::{BlockInfo, PageState};
use crate::command::{CmdOutput, FlashCommand};
#[cfg(doc)]
use crate::device::NandDevice;
use crate::device::{DieLoad, OpOutcome};
use crate::geometry::FlashGeometry;
use crate::metadata::PageMetadata;
use crate::stats::{DeviceStats, DieStats, WearSummary};
use crate::time::SimTime;
use crate::timing::TimingModel;
use crate::Result;

/// The native-flash command surface the storage manager programs against.
///
/// Implemented by [`NandDevice`] (one simulated chip array; this trait is
/// its whole command and probe surface, so a caller holding the concrete
/// device imports the trait) and by `noftl_mirror::MirrorDevice` (a
/// replicated set of them).  All timed
/// operations take the caller's simulated clock and return the operation's
/// completion; state probes are untimed.
pub trait FlashBackend: Send + Sync {
    /// Device geometry (identical across mirror children by construction).
    fn geometry(&self) -> &FlashGeometry;

    /// Timing model in use.
    fn timing(&self) -> &TimingModel;

    /// The metrics registry shared by the whole stack above this backend.
    fn metrics(&self) -> &Arc<MetricsRegistry>;

    /// Read a page: payload, OOB metadata, and the operation outcome with
    /// its completion time.
    /// The provided body is [`Self::read_page_tagged`] with the default
    /// tag.
    fn read_page(
        &self,
        addr: PageAddr,
        at: SimTime,
    ) -> Result<(Vec<u8>, Option<PageMetadata>, OpOutcome)> {
        self.read_page_tagged(addr, at, IoTag::default())
    }

    /// [`Self::read_page`] carrying an arbiter [`IoTag`].  Backends
    /// without an arbiter ignore the tag.
    fn read_page_tagged(
        &self,
        addr: PageAddr,
        at: SimTime,
        tag: IoTag,
    ) -> Result<(Vec<u8>, Option<PageMetadata>, OpOutcome)>;

    /// Read only the OOB metadata of a page (the mount scan's workhorse);
    /// the provided body is [`Self::read_metadata_tagged`] with the
    /// default tag.
    fn read_metadata(
        &self,
        addr: PageAddr,
        at: SimTime,
    ) -> Result<(Option<PageMetadata>, OpOutcome)> {
        self.read_metadata_tagged(addr, at, IoTag::default())
    }

    /// [`Self::read_metadata`] carrying an arbiter [`IoTag`].
    fn read_metadata_tagged(
        &self,
        addr: PageAddr,
        at: SimTime,
        tag: IoTag,
    ) -> Result<(Option<PageMetadata>, OpOutcome)>;

    /// Program a page (strictly sequential within its block); the
    /// provided body is [`Self::program_page_tagged`] with the default
    /// tag.
    fn program_page(
        &self,
        addr: PageAddr,
        data: &[u8],
        meta: PageMetadata,
        at: SimTime,
    ) -> Result<OpOutcome> {
        self.program_page_tagged(addr, data, meta, at, IoTag::default())
    }

    /// [`Self::program_page`] carrying an arbiter [`IoTag`].
    fn program_page_tagged(
        &self,
        addr: PageAddr,
        data: &[u8],
        meta: PageMetadata,
        at: SimTime,
        tag: IoTag,
    ) -> Result<OpOutcome>;

    /// Erase a block.
    fn erase_block(&self, addr: BlockAddr, at: SimTime) -> Result<OpOutcome>;

    /// On-die copyback of a valid page.
    fn copyback(&self, src: PageAddr, dst: PageAddr, at: SimTime) -> Result<OpOutcome>;

    /// Execute one [`FlashCommand`] issued at `at`: the entry point every
    /// client above the backend calls.  The provided body turns the
    /// command into the matching per-command verb, which is all a
    /// forward-only decorator (a tracing wrapper) needs — at the price of
    /// the tag on erases and copybacks, whose verbs carry none, and of a
    /// read's page, which its verb allocates and this body copies into
    /// the read's buffer.
    /// [`NandDevice`] and the mirror override it with their real command
    /// path and answer the verbs from there
    /// ([`crate::verbs_over_execute!`]), so the tagged verbs stay
    /// required: given default bodies over `execute`, they and this
    /// provided body would call each other.
    fn execute(&self, command: FlashCommand<'_>, at: SimTime, tag: IoTag) -> Result<CmdOutput> {
        let written = |outcome| CmdOutput { meta: None, outcome };
        match command {
            FlashCommand::Read { addr, data } => {
                let (page, meta, outcome) = self.read_page_tagged(addr, at, tag)?;
                let n = page.len().min(data.len());
                data[..n].copy_from_slice(&page[..n]);
                Ok(CmdOutput { meta, outcome })
            }
            FlashCommand::MetadataRead { addr } => {
                let (meta, outcome) = self.read_metadata_tagged(addr, at, tag)?;
                Ok(CmdOutput { meta, outcome })
            }
            FlashCommand::Program { addr, data, meta } => {
                self.program_page_tagged(addr, data, meta, at, tag).map(written)
            }
            FlashCommand::Erase { block } => self.erase_block(block, at).map(written),
            FlashCommand::Copyback { src, dst } => self.copyback(src, dst, at).map(written),
        }
    }

    /// Mark a page invalid (untimed state transition).
    fn mark_invalid(&self, addr: PageAddr) -> Result<()>;

    /// Permanently retire a block.
    fn retire_block(&self, addr: BlockAddr) -> Result<()>;

    /// Snapshot of one block's state.
    fn block_info(&self, addr: BlockAddr) -> Result<BlockInfo>;

    /// State of a single page.
    fn page_state(&self, addr: PageAddr) -> Result<PageState>;

    /// Aggregate statistics (summed over mirror children).
    fn stats(&self) -> DeviceStats;

    /// Per-die statistics.
    fn die_stats(&self) -> Vec<DieStats>;

    /// Wear summary over the backend's blocks.
    fn wear_summary(&self) -> WearSummary;

    /// Latest completion time over the whole backend.
    fn quiesce_time(&self) -> SimTime;

    /// End of all work reserved on a die so far.
    fn die_busy_until(&self, die: DieId) -> SimTime;

    /// Load of one die as of `at`: where a program issued at `at` would
    /// start, and how many reserved commands are unfinished at `at`.
    fn die_load(&self, die: DieId, at: SimTime) -> DieLoad;

    /// Load snapshots of every die as of `at`, indexed by die id.
    fn die_loads(&self, at: SimTime) -> Vec<DieLoad> {
        self.geometry().dies().map(|die| self.die_load(die, at)).collect()
    }

    /// Current device-wide write epoch: the newest this device stamped.
    fn current_epoch(&self) -> u64;

    /// Whether page payloads are stored (and can be read back): always
    /// `true`, since every device stores what it is programmed with.
    /// Nothing in the workspace asks or overrides it; the method stays
    /// only because the benchmark's `bench-trace` decorator implements it.
    fn stores_data(&self) -> bool {
        true
    }

    /// Has any block of this die left its factory state?  The one rule,
    /// read off the die's blocks: a block with `write_ptr > 0`,
    /// `erase_count > 0` or a state other than `Free` touches its die.  A
    /// live device and the same device after a power cycle (its image
    /// decoded) therefore always agree, and a `false` answer is a
    /// guarantee that a scan of the die finds nothing, so `NoFtl::mount`
    /// skips it.  A command the device rejects changes no block and
    /// touches nothing.  A factory-bad block is not `Free`, so a die that
    /// holds one counts as touched: the mount scans its block states (and
    /// issues no OOB read, since nothing is written), and a
    /// `MirrorDevice::new` over such children is not pristine, just as it
    /// already was over the same children after a power cycle.
    fn die_touched(&self, die: DieId) -> bool;

    /// Downcast hook for callers that need the concrete backend — e.g.
    /// crash harnesses imaging a [`NandDevice`] or arming its
    /// power-cut injector through an `Arc<dyn FlashBackend>` handle.
    fn as_any(&self) -> &dyn std::any::Any;

    /// Replication state to persist: always `None`, since no backend
    /// persists any (a mirror reads its children's staleness off the
    /// children at mount).  Nothing in the workspace calls or overrides
    /// it; the method stays only because the benchmark's `bench-trace`
    /// decorator implements it.
    fn replication_blob(&self) -> Option<Vec<u8>> {
        None
    }

    /// Re-establish replication state at mount, issuing any scan at `at`,
    /// and return the completion time of that scan: a mirror compares
    /// each child that has power against its source and treats one
    /// without power as stale everywhere.  `blob` is always `None` and
    /// is ignored; the parameter stays only because the benchmark's
    /// `bench-trace` decorator implements the method with it.
    fn restore_replication(&self, blob: Option<&[u8]>, at: SimTime) -> Result<SimTime> {
        let _ = blob;
        Ok(at)
    }
}

/// Implements the required per-command verbs of [`FlashBackend`] as
/// adapters over the implementing backend's own `execute` (a read
/// allocates the page it returns; erases and copybacks carry the default
/// tag).  Invoked inside the `impl FlashBackend` of a backend whose
/// `execute` is its real command path — [`NandDevice`] and the mirror.
#[macro_export]
macro_rules! verbs_over_execute {
    () => {
        fn read_page_tagged(
            &self,
            addr: $crate::PageAddr,
            at: $crate::SimTime,
            tag: $crate::IoTag,
        ) -> $crate::Result<(Vec<u8>, Option<$crate::PageMetadata>, $crate::OpOutcome)> {
            let mut data = vec![0; self.geometry().page_size as usize];
            let out =
                self.execute($crate::FlashCommand::Read { addr, data: &mut data }, at, tag)?;
            Ok((data, out.meta, out.outcome))
        }

        fn read_metadata_tagged(
            &self,
            addr: $crate::PageAddr,
            at: $crate::SimTime,
            tag: $crate::IoTag,
        ) -> $crate::Result<(Option<$crate::PageMetadata>, $crate::OpOutcome)> {
            let out = self.execute($crate::FlashCommand::MetadataRead { addr }, at, tag)?;
            Ok((out.meta, out.outcome))
        }

        fn program_page_tagged(
            &self,
            addr: $crate::PageAddr,
            data: &[u8],
            meta: $crate::PageMetadata,
            at: $crate::SimTime,
            tag: $crate::IoTag,
        ) -> $crate::Result<$crate::OpOutcome> {
            let program = $crate::FlashCommand::Program { addr, data, meta };
            Ok(self.execute(program, at, tag)?.outcome)
        }

        fn erase_block(
            &self,
            block: $crate::BlockAddr,
            at: $crate::SimTime,
        ) -> $crate::Result<$crate::OpOutcome> {
            let erase = $crate::FlashCommand::Erase { block };
            Ok(self.execute(erase, at, $crate::IoTag::default())?.outcome)
        }

        fn copyback(
            &self,
            src: $crate::PageAddr,
            dst: $crate::PageAddr,
            at: $crate::SimTime,
        ) -> $crate::Result<$crate::OpOutcome> {
            let copyback = $crate::FlashCommand::Copyback { src, dst };
            Ok(self.execute(copyback, at, $crate::IoTag::default())?.outcome)
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceBuilder;

    #[test]
    fn nand_device_is_a_backend() {
        let device: Arc<dyn FlashBackend> =
            Arc::new(DeviceBuilder::new(FlashGeometry::small_test()).build());
        assert_eq!(device.geometry().page_size, 4096);
        assert!(device.stores_data());
        assert_eq!(device.quiesce_time(), SimTime::ZERO);
        // Plain devices have no replication state to restore.
        assert_eq!(device.restore_replication(None, SimTime::ZERO).unwrap(), SimTime::ZERO);
        assert!(!device.die_touched(DieId(0)));
        let addr = PageAddr::new(DieId(0), 0, 0, 0);
        let data = vec![7u8; 4096];
        device.program_page(addr, &data, PageMetadata::new(1, 0), SimTime::ZERO).unwrap();
        assert!(device.die_touched(DieId(0)));
        assert_eq!(device.read_page(addr, device.quiesce_time()).unwrap().0, data);
    }
}

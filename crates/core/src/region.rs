//! Regions: the paper's physical storage structure.
//!
//! A region owns a set of flash dies.  Within a region, writes are striped
//! round-robin over the dies (each die maintains its own append point), so
//! a region with more dies offers more I/O parallelism.  All space
//! reclamation (GC) and wear leveling happen region-locally.

use flash_sim::{BlockAddr, DieId, FlashBackend, FlashGeometry, PageAddr, ServiceClass};

use crate::stats::RegionStats;

/// Identifier of a region.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RegionId(pub u32);

/// Declarative description of a region, mirroring the paper's DDL:
///
/// ```sql
/// CREATE REGION rgHotTbl (MAX_CHIPS=8, MAX_CHANNELS=4, MAX_SIZE=1280M);
/// ```
///
/// The storage manager resolves the spec against the device geometry and
/// the pool of unassigned dies when the region is created.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegionSpec {
    /// Region name (unique).
    pub name: String,
    /// Explicit number of dies to assign; takes precedence over the limits
    /// below when set.
    pub die_count: Option<u32>,
    /// Upper bound on the number of chips the region may span.
    pub max_chips: Option<u32>,
    /// Upper bound on the number of channels the region may span.
    pub max_channels: Option<u32>,
    /// Upper bound on the region's raw capacity in bytes.
    pub max_size_bytes: Option<u64>,
    /// I/O service class of this region; `None` is `Throughput`, which
    /// leaves the arbiter neutral.  Persisted through region checkpoints,
    /// so a remounted region keeps its class.
    pub service_class: Option<ServiceClass>,
}

impl RegionSpec {
    /// A spec with only a name; limits can be added with the builder methods.
    pub fn named(name: impl Into<String>) -> Self {
        RegionSpec {
            name: name.into(),
            die_count: None,
            max_chips: None,
            max_channels: None,
            max_size_bytes: None,
            service_class: None,
        }
    }

    /// Request an explicit number of dies.
    pub fn with_die_count(mut self, dies: u32) -> Self {
        self.die_count = Some(dies);
        self
    }

    /// Limit the number of chips the region spans (paper: `MAX_CHIPS`).
    pub fn with_max_chips(mut self, chips: u32) -> Self {
        self.max_chips = Some(chips);
        self
    }

    /// Limit the number of channels the region spans (paper: `MAX_CHANNELS`).
    pub fn with_max_channels(mut self, channels: u32) -> Self {
        self.max_channels = Some(channels);
        self
    }

    /// Limit the region's raw size in bytes (paper: `MAX_SIZE`).
    pub fn with_max_size_bytes(mut self, bytes: u64) -> Self {
        self.max_size_bytes = Some(bytes);
        self
    }

    /// Set the I/O service class of this region (DDL:
    /// `CLASS=LATENCY`).  The class rides on every flash command the
    /// region submits and drives the device arbiter's admission.
    pub fn with_service_class(mut self, class: ServiceClass) -> Self {
        self.service_class = Some(class);
        self
    }

    /// Resolve the spec to a concrete number of dies for `geometry`.
    ///
    /// The most restrictive of the given limits wins; a spec with no limits
    /// at all resolves to a single die.
    pub fn resolve_die_count(&self, geometry: &FlashGeometry) -> u32 {
        if let Some(n) = self.die_count {
            return n.max(1);
        }
        let mut bound = u32::MAX;
        if let Some(chips) = self.max_chips {
            bound = bound.min(chips.saturating_mul(geometry.dies_per_chip));
        }
        if let Some(channels) = self.max_channels {
            bound = bound.min(channels.saturating_mul(geometry.dies_per_channel()));
        }
        if let Some(size) = self.max_size_bytes {
            let per_die = geometry.die_capacity_bytes().max(1);
            bound = bound.min(size.div_ceil(per_die) as u32);
        }
        if bound == u32::MAX {
            1
        } else {
            bound.max(1)
        }
    }
}

/// The block a die is collecting, between two steps of its collector.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Victim {
    /// The block (still listed in `used_blocks`).
    pub block: BlockAddr,
    /// First page of the block the collector has not looked at yet.
    pub cursor: u32,
    /// Valid pages relocated per step.
    pub quantum: u32,
    /// Copybacks spent on this victim so far.
    pub moved: u64,
}

/// Allocation state of one die inside a region.
#[derive(Debug)]
pub(crate) struct RegionDie {
    /// The die's global id.
    pub die: DieId,
    /// Erased blocks available for allocation.
    pub free_blocks: Vec<BlockAddr>,
    /// Host-write frontier: (block, next page index).
    pub active: Option<(BlockAddr, u32)>,
    /// GC-destination frontier: (block, next page index).
    pub gc_active: Option<(BlockAddr, u32)>,
    /// Blocks with data (open or full), i.e. GC candidates once full.
    pub used_blocks: Vec<BlockAddr>,
    /// Set when the free pool falls to the low watermark, cleared at the
    /// high one; while set, host allocations on the die pace its GC.
    /// Volatile, like `victim` and `nothing_to_collect`: a mounted die
    /// starts with none of them.
    pub collecting: bool,
    /// The victim in progress.
    pub victim: Option<Victim>,
    /// The last victim search found no candidate, and neither an
    /// invalidation nor a frontier roll-over has happened on the die since.
    pub nothing_to_collect: bool,
}

impl RegionDie {
    fn empty(die: DieId) -> Self {
        RegionDie {
            die,
            free_blocks: Vec::new(),
            active: None,
            gc_active: None,
            used_blocks: Vec::new(),
            collecting: false,
            victim: None,
            nothing_to_collect: false,
        }
    }

    /// Build the allocation state of a die from its physical block states:
    /// erased blocks go to the free pool, partially programmed blocks
    /// become write frontiers (continuing at their hardware write pointer)
    /// and full blocks become GC candidates — a block the collector was
    /// halfway through included.  Bad blocks are dropped from tracking.
    /// Every die a region takes is built this way: a die a mount returned
    /// to the free pool may still hold the pages of a region the power cut
    /// lost, and on an erased die this is every non-bad block, free.
    pub(crate) fn rebuild(device: &dyn FlashBackend, die: DieId) -> Self {
        let geo = device.geometry();
        let mut out = Self::empty(die);
        for plane in 0..geo.planes_per_die {
            for block in 0..geo.blocks_per_plane {
                let addr = BlockAddr::new(die, plane, block);
                let Ok(info) = device.block_info(addr) else { continue };
                match info.state {
                    flash_sim::BlockState::Bad => {}
                    flash_sim::BlockState::Free => out.free_blocks.push(addr),
                    flash_sim::BlockState::Open => {
                        // Re-open at most one host and one GC frontier; any
                        // further partially written blocks are treated as
                        // used (their remaining pages are reclaimed when GC
                        // erases them).
                        if out.active.is_none() {
                            out.active = Some((addr, info.write_ptr));
                        } else if out.gc_active.is_none() {
                            out.gc_active = Some((addr, info.write_ptr));
                        } else {
                            out.used_blocks.push(addr);
                        }
                    }
                    flash_sim::BlockState::Full => out.used_blocks.push(addr),
                }
            }
        }
        out
    }

    /// Take every block that may hold data — used blocks and both write
    /// frontiers — out of tracking, for a die that is being emptied; a
    /// victim in progress is one of them and is forgotten.
    pub(crate) fn take_data_blocks(&mut self) -> Vec<BlockAddr> {
        (self.victim, self.collecting) = (None, false);
        let mut blocks: Vec<BlockAddr> = self.used_blocks.drain(..).collect();
        blocks.extend(self.active.take().map(|(b, _)| b));
        blocks.extend(self.gc_active.take().map(|(b, _)| b));
        blocks
    }

    /// Total usable blocks currently tracked by this die (free + used +
    /// frontiers).
    pub(crate) fn tracked_blocks(&self) -> usize {
        self.free_blocks.len()
            + self.used_blocks.len()
            + usize::from(self.active.is_some())
            + usize::from(self.gc_active.is_some())
    }

    /// Take the least-worn free block (the first of equals) out of
    /// `free_blocks`: dynamic wear leveling, the one allocation rule.
    fn open_block(
        free_blocks: &mut Vec<BlockAddr>,
        device: &dyn FlashBackend,
    ) -> Option<BlockAddr> {
        let (slot, _) = free_blocks
            .iter()
            .enumerate()
            .min_by_key(|(_, b)| device.block_info(**b).map(|i| i.erase_count).unwrap_or(0))?;
        Some(free_blocks.swap_remove(slot))
    }

    /// Next page of the host frontier, opening a new block when necessary.
    /// Returns `None` when the die has no free blocks left.
    pub(crate) fn next_host_page(
        &mut self,
        device: &dyn FlashBackend,
        pages_per_block: u32,
    ) -> Option<PageAddr> {
        self.next_page(false, device, pages_per_block)
    }

    /// Next page of the GC frontier, opening a new block when necessary.
    pub(crate) fn next_gc_page(
        &mut self,
        device: &dyn FlashBackend,
        pages_per_block: u32,
    ) -> Option<PageAddr> {
        self.next_page(true, device, pages_per_block)
    }

    fn next_page(
        &mut self,
        gc: bool,
        device: &dyn FlashBackend,
        pages_per_block: u32,
    ) -> Option<PageAddr> {
        let frontier = if gc { &mut self.gc_active } else { &mut self.active };
        loop {
            match *frontier {
                Some((block, next)) if next < pages_per_block => {
                    *frontier = Some((block, next + 1));
                    return Some(block.page(next));
                }
                Some((block, _)) => {
                    // A block that just filled up may be a GC candidate.
                    *frontier = None;
                    self.used_blocks.push(block);
                    self.nothing_to_collect = false;
                }
                None => {
                    let block = Self::open_block(&mut self.free_blocks, device)?;
                    *frontier = Some((block, 0));
                }
            }
        }
    }
}

/// Read-only snapshot of a region's configuration and occupancy, exposed
/// through [`crate::NoFtl::region_info`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegionInfo {
    /// Region id.
    pub id: RegionId,
    /// Region name.
    pub name: String,
    /// The spec the region was created from.
    pub spec: RegionSpec,
    /// Dies currently owned by the region.
    pub dies: Vec<DieId>,
    /// Objects currently placed in the region (ids).
    pub objects: Vec<u32>,
    /// Erased blocks currently available across the region's dies.
    pub free_blocks: u64,
    /// Blocks tracked by the region in total (free + in use + frontiers).
    pub tracked_blocks: u64,
    /// Raw capacity in pages.
    pub capacity_pages: u64,
}

/// Runtime state of a region.
#[derive(Debug)]
pub(crate) struct RegionRuntime {
    /// Region id.
    pub id: RegionId,
    /// Region name.
    pub name: String,
    /// The spec the region was created from.
    pub spec: RegionSpec,
    /// Per-die allocation state.
    pub dies: Vec<RegionDie>,
    /// Round-robin pointer for write striping.
    pub next_die: usize,
    /// Objects currently placed in this region (by id).
    pub objects: Vec<u32>,
    /// Region-level statistics.
    pub stats: RegionStats,
}

impl RegionRuntime {
    pub(crate) fn new(
        id: RegionId,
        spec: RegionSpec,
        device: &dyn FlashBackend,
        dies: Vec<DieId>,
    ) -> Self {
        let name = spec.name.clone();
        RegionRuntime {
            id,
            name,
            spec,
            dies: dies.into_iter().map(|d| RegionDie::rebuild(device, d)).collect(),
            next_die: 0,
            objects: Vec::new(),
            stats: RegionStats::default(),
        }
    }

    /// The I/O service class in effect for this region.  Maintenance
    /// traffic (GC relocation, KV compaction, rebuild copies) is tagged
    /// `Background` whatever this says.
    pub(crate) fn service_class(&self) -> ServiceClass {
        self.spec.service_class.unwrap_or(ServiceClass::Throughput)
    }

    /// Record that the page at `ppa` has been invalidated: its die has
    /// something to collect again, so a victim search that found nothing
    /// there is rearmed.
    pub(crate) fn record_invalidation(&mut self, ppa: PageAddr) {
        if let Some(die) = self.dies.iter_mut().find(|d| d.die == ppa.die) {
            die.nothing_to_collect = false;
        }
    }

    /// The die ids owned by the region.
    pub(crate) fn die_ids(&self) -> Vec<DieId> {
        self.dies.iter().map(|d| d.die).collect()
    }

    /// Number of free blocks summed over all dies of the region.
    pub(crate) fn total_free_blocks(&self) -> usize {
        self.dies.iter().map(|d| d.free_blocks.len()).sum()
    }

    /// Raw capacity of the region in pages, given the device geometry.
    pub(crate) fn capacity_pages(&self, geo: &FlashGeometry) -> u64 {
        self.dies.len() as u64 * geo.pages_per_die()
    }

    /// Build the public snapshot of this region.
    pub(crate) fn info(&self, geo: &FlashGeometry) -> RegionInfo {
        RegionInfo {
            id: self.id,
            name: self.name.clone(),
            spec: self.spec.clone(),
            dies: self.die_ids(),
            objects: self.objects.clone(),
            free_blocks: self.total_free_blocks() as u64,
            tracked_blocks: self.dies.iter().map(|d| d.tracked_blocks() as u64).sum(),
            capacity_pages: self.capacity_pages(geo),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::page;
    use crate::{NoFtl, NoFtlConfig};
    use flash_sim::{DeviceBuilder, FlashGeometry, SimTime, TimingModel};
    use std::sync::Arc;

    #[test]
    fn spec_builder_and_resolution() {
        let geo = FlashGeometry::edbt_paper(); // 64 dies, 4 per chip, 16 per channel
        let spec = RegionSpec::named("rgHotTbl")
            .with_max_chips(8)
            .with_max_channels(4)
            .with_max_size_bytes(1280 * 1024 * 1024);
        // MAX_CHIPS=8 → 32 dies; MAX_CHANNELS=4 → 64 dies;
        // MAX_SIZE=1280M with 256 MiB dies → 5 dies; most restrictive wins.
        assert_eq!(spec.resolve_die_count(&geo), 5);
        assert_eq!(RegionSpec::named("x").resolve_die_count(&geo), 1);
        assert_eq!(RegionSpec::named("x").with_die_count(11).resolve_die_count(&geo), 11);
        assert_eq!(RegionSpec::named("x").with_max_chips(2).resolve_die_count(&geo), 8);
        assert_eq!(RegionSpec::named("x").with_max_channels(1).resolve_die_count(&geo), 16);
    }

    #[test]
    fn die_count_zero_resolves_to_one() {
        let geo = FlashGeometry::small_test();
        assert_eq!(RegionSpec::named("x").with_die_count(0).resolve_die_count(&geo), 1);
    }

    #[test]
    fn region_die_allocation_walks_blocks_sequentially() {
        let device = DeviceBuilder::new(FlashGeometry::small_test()).build();
        let geo = *device.geometry();
        let mut die = RegionDie::rebuild(&device, DieId(0));
        let initial_blocks = die.free_blocks.len();
        assert_eq!(initial_blocks, geo.blocks_per_die() as usize);
        let p0 = die.next_host_page(&device, geo.pages_per_block).unwrap();
        let p1 = die.next_host_page(&device, geo.pages_per_block).unwrap();
        assert_eq!(p0.block(), p1.block());
        assert_eq!(p0.page + 1, p1.page);
        // Exhaust the first block; the next page must come from a new block.
        for _ in 2..geo.pages_per_block {
            die.next_host_page(&device, geo.pages_per_block).unwrap();
        }
        let p_next = die.next_host_page(&device, geo.pages_per_block).unwrap();
        assert_ne!(p_next.block(), p0.block());
        assert_eq!(die.used_blocks.len(), 1);
        assert_eq!(die.tracked_blocks(), initial_blocks);
    }

    #[test]
    #[expect(clippy::disallowed_methods, reason = "wears blocks of the bare device directly")]
    fn a_frontier_opens_the_least_worn_free_block() {
        let device = DeviceBuilder::new(FlashGeometry::small_test()).build();
        let geo = *device.geometry();
        let mut die = RegionDie::rebuild(&device, DieId(0));
        // Wear the first two free blocks once: the third is the first of
        // the unworn ones.
        let worn = [die.free_blocks[0], die.free_blocks[1]];
        for block in worn {
            device.erase_block(block, SimTime::ZERO).unwrap();
        }
        let third = die.free_blocks[2];
        assert_eq!(die.next_host_page(&device, geo.pages_per_block).unwrap().block(), third);
        let gc = die.next_gc_page(&device, geo.pages_per_block).unwrap().block();
        assert!(!worn.contains(&gc), "a worn block waits while an unworn one is free");
    }

    #[test]
    fn region_die_exhaustion_returns_none() {
        let device = DeviceBuilder::new(FlashGeometry::small_test()).build();
        let geo = *device.geometry();
        let mut die = RegionDie::rebuild(&device, DieId(1));
        let total_pages = geo.pages_per_die();
        for _ in 0..total_pages {
            assert!(die.next_host_page(&device, geo.pages_per_block).is_some());
        }
        assert!(die.next_host_page(&device, geo.pages_per_block).is_none());
    }

    #[test]
    fn gc_frontier_is_separate_from_host_frontier() {
        let device = DeviceBuilder::new(FlashGeometry::small_test()).build();
        let geo = *device.geometry();
        let mut die = RegionDie::rebuild(&device, DieId(0));
        let host = die.next_host_page(&device, geo.pages_per_block).unwrap();
        let gc = die.next_gc_page(&device, geo.pages_per_block).unwrap();
        assert_ne!(host.block(), gc.block(), "host and GC data never share a block");
    }

    #[test]
    fn emptying_a_die_forgets_its_victim() {
        let device = DeviceBuilder::new(FlashGeometry::small_test()).build();
        let geo = *device.geometry();
        let mut die = RegionDie::rebuild(&device, DieId(0));
        for _ in 0..=geo.pages_per_block {
            die.next_host_page(&device, geo.pages_per_block).unwrap();
        }
        let block = die.used_blocks[0];
        die.collecting = true;
        die.victim = Some(Victim { block, cursor: 3, quantum: 2, moved: 3 });
        assert_eq!(die.take_data_blocks().len(), 2, "the full block and the host frontier");
        assert!(die.victim.is_none() && !die.collecting);
    }

    #[test]
    fn region_runtime_capacity_accounting() {
        let device = DeviceBuilder::new(FlashGeometry::small_test()).build();
        let geo = *device.geometry();
        let rt = RegionRuntime::new(
            RegionId(0),
            RegionSpec::named("r"),
            &device,
            vec![DieId(0), DieId(1)],
        );
        assert_eq!(rt.capacity_pages(&geo), 2 * geo.pages_per_die());
        assert_eq!(rt.die_ids(), vec![DieId(0), DieId(1)]);
        assert_eq!(rt.total_free_blocks(), 2 * geo.blocks_per_die() as usize);
    }

    #[test]
    fn an_invalidation_rearms_a_die_whose_victim_search_found_nothing() {
        let device = Arc::new(
            DeviceBuilder::new(FlashGeometry::small_test()).timing(TimingModel::instant()).build(),
        );
        let noftl = NoFtl::new(device, NoFtlConfig::default());
        let r = noftl.create_region(RegionSpec::named("rg").with_die_count(1)).unwrap();
        let obj = noftl.create_object("t", r).unwrap();
        // `(nothing_to_collect, free blocks)` of the region's one die.
        let die = || {
            let inner = noftl.lock_inner();
            let d = &inner.region(r).unwrap().dies[0];
            (d.nothing_to_collect, d.free_blocks.len())
        };
        // Fresh pages only: every full block is all valid, so once the die
        // is collecting its victim search finds nothing.
        let mut next = 0;
        while !die().0 {
            noftl.write(obj, next, &page(next as u8), SimTime::ZERO).unwrap();
            next += 1;
        }
        assert!(die().1 > 0, "room left for a write and its GC");
        assert_eq!(noftl.region_stats(r).unwrap().gc_runs, 0);
        // One freed page gives the die a victim, and the next allocation
        // collects it.
        noftl.free_page(obj, 0).unwrap();
        noftl.write(obj, next, &page(next as u8), SimTime::ZERO).unwrap();
        assert_eq!(noftl.region_stats(r).unwrap().gc_runs, 1);
    }
}

//! The NoFTL storage manager.
//!
//! [`NoFtl`] is the component labelled "Storage Manager" in the paper's
//! Figure 1: it owns the physical flash address space, performs address
//! translation and out-of-place updates, runs garbage collection and wear
//! leveling — all *per region*, using DBMS-level knowledge (which object a
//! page belongs to) that a conventional FTL does not have.
//!
//! The manager is split along its seams, one `impl NoFtl` block each:
//!
//! * this module — the manager itself, its locked state and the **region
//!   table** (`CREATE` / `DROP` / grow / shrink);
//! * [`crate::object`] — the **object directory**;
//! * [`crate::io`] — the **request path**: every host page operation and
//!   every timed device command of the crate;
//! * [`crate::gc`] — the per-region **allocator and garbage collector**;
//! * [`crate::recovery`] — the **metadata journal** (checkpoint) and
//!   **mount**.

use std::sync::{Arc, Mutex};

use flash_sim::lockorder::{self, LockClass, TrackedGuard};
use flash_sim::{DieId, FlashBackend, FlashCommand, FlashGeometry, IoTag, PageState, SimTime};

use noftl_obs::{MetricsRegistry, MetricsSnapshot};

use crate::config::NoFtlConfig;
use crate::error::NoFtlError;
use crate::object::{ObjectId, ObjectState};
use crate::obs::CoreObs;
use crate::recovery::MetaDirectory;
use crate::region::{RegionDie, RegionId, RegionRuntime, RegionSpec};
use crate::stats::RegionStats;
use crate::Result;

/// The immutable half of the manager: the device and the pre-bound
/// metric handles.  Borrowed as a unit by the methods on the locked
/// [`Inner`] state (allocator, GC, request path), which therefore need no
/// handle on the manager — and cannot re-take its lock.
pub(crate) struct Env {
    pub(crate) device: Arc<dyn FlashBackend>,
    /// Atomics-only: safe under any tracked lock.
    pub(crate) obs: CoreObs,
}

impl Env {
    pub(crate) fn new(device: Arc<dyn FlashBackend>) -> Self {
        Env { obs: CoreObs::new(Arc::clone(device.metrics())), device }
    }
}

/// The state behind the manager lock.  Each fact is held once: a die is
/// free when no region holds it, and a name is looked up in the table
/// that stores it.
pub(crate) struct Inner {
    pub(crate) regions: Vec<Option<RegionRuntime>>,
    /// Indexed by `ObjectId`; slot 0 is unused so object ids can be stored
    /// directly in flash page metadata (where 0 means "no object").
    pub(crate) objects: Vec<Option<ObjectState>>,
    /// Region-metadata journal state.
    pub(crate) meta: MetaDirectory,
}

impl Inner {
    /// The state of a manager over an empty device: every die free.
    pub(crate) fn fresh() -> Self {
        Inner { regions: Vec::new(), objects: vec![None], meta: MetaDirectory::default() }
    }

    /// The dies no region holds, in id order.
    pub(crate) fn free_dies(&self, geo: &FlashGeometry) -> Vec<DieId> {
        let held = |die: &DieId| {
            self.regions.iter().flatten().any(|r| r.dies.iter().any(|d| d.die == *die))
        };
        geo.dies().filter(|die| !held(die)).collect()
    }

    /// The live region named `name`.
    pub(crate) fn region_named(&self, name: &str) -> Option<RegionId> {
        self.regions.iter().flatten().find(|r| r.name == name).map(|r| r.id)
    }

    /// The live object named `name`.
    pub(crate) fn object_named(&self, name: &str) -> Option<ObjectId> {
        let slot = self.objects.iter().position(|o| o.as_ref().is_some_and(|o| o.name == name));
        slot.map(|id| id as ObjectId)
    }

    pub(crate) fn region(&self, rid: RegionId) -> Result<&RegionRuntime> {
        self.regions
            .get(rid.0 as usize)
            .and_then(|r| r.as_ref())
            .ok_or_else(|| NoFtlError::UnknownRegion { region: format!("{rid:?}") })
    }

    pub(crate) fn region_mut(&mut self, rid: RegionId) -> Result<&mut RegionRuntime> {
        region_slot(&mut self.regions, rid)
    }

    pub(crate) fn object(&self, obj: ObjectId) -> Result<&ObjectState> {
        self.objects
            .get(obj as usize)
            .and_then(|o| o.as_ref())
            .ok_or_else(|| NoFtlError::UnknownObject { object: obj.to_string() })
    }

    pub(crate) fn object_mut(&mut self, obj: ObjectId) -> Result<&mut ObjectState> {
        self.objects
            .get_mut(obj as usize)
            .and_then(|o| o.as_mut())
            .ok_or_else(|| NoFtlError::UnknownObject { object: obj.to_string() })
    }

    /// The objects placed in region `rid`, by ascending id: the object
    /// directory is the one record of region membership.
    pub(crate) fn objects_in(&self, rid: RegionId) -> impl Iterator<Item = ObjectId> + '_ {
        let live = self.objects.iter().enumerate();
        live.filter_map(move |(id, o)| {
            o.as_ref().filter(|o| o.region == rid).map(|_| id as ObjectId)
        })
    }
}

/// [`Inner::region_mut`] on the region table alone, for callers that hold
/// other fields of the state borrowed at the same time.
pub(crate) fn region_slot(
    regions: &mut [Option<RegionRuntime>],
    rid: RegionId,
) -> Result<&mut RegionRuntime> {
    regions
        .get_mut(rid.0 as usize)
        .and_then(|r| r.as_mut())
        .ok_or_else(|| NoFtlError::UnknownRegion { region: format!("{rid:?}") })
}

/// The NoFTL storage manager: regions, objects, address translation,
/// out-of-place updates, GC, wear leveling.
pub struct NoFtl {
    pub(crate) env: Env,
    inner: Mutex<Inner>,
}

impl std::fmt::Debug for NoFtl {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.lock_inner();
        f.debug_struct("NoFtl")
            .field("regions", &inner.regions.iter().flatten().count())
            .field("objects", &inner.objects.iter().flatten().count())
            .field("free_dies", &inner.free_dies(self.env.device.geometry()).len())
            .finish_non_exhaustive()
    }
}

impl NoFtl {
    /// Create a storage manager over `device`.  All dies start in the free
    /// pool; create regions to make them usable.  The configuration has
    /// no settings ([`NoFtlConfig`]).
    pub fn new(device: Arc<dyn FlashBackend>, _config: NoFtlConfig) -> Self {
        Self::assemble(Env::new(device), Inner::fresh())
    }

    /// Put a manager together from its two halves (fresh in [`NoFtl::new`],
    /// rebuilt from flash in [`NoFtl::mount`]).
    pub(crate) fn assemble(env: Env, inner: Inner) -> Self {
        NoFtl { env, inner: Mutex::new(inner) }
    }

    /// Convenience constructor for the "traditional data placement"
    /// baseline: one region named `rgAll` spanning every die of the device.
    pub fn with_single_region(device: Arc<dyn FlashBackend>) -> Result<(Self, RegionId)> {
        let total = device.geometry().total_dies();
        let noftl = Self::assemble(Env::new(device), Inner::fresh());
        let rid = noftl.create_region(RegionSpec::named("rgAll").with_die_count(total))?;
        Ok((noftl, rid))
    }

    /// The underlying native flash device.
    pub fn device(&self) -> &Arc<dyn FlashBackend> {
        &self.env.device
    }

    /// The metrics registry shared with the underlying device: every
    /// layer of the stack (device, manager, KV) records into it.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        self.env.obs.registry()
    }

    /// Snapshot every counter and histogram of the shared registry at
    /// this instant.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.env.obs.registry().snapshot()
    }

    /// Lock the manager state.  This is the sole acquisition site of the
    /// manager lock, the first class in the documented lock order: it may
    /// be held across device calls (allocation and translation
    /// commit must be atomic with respect to GC) but never acquired while
    /// any later-ordered lock is held.
    pub(crate) fn lock_inner(&self) -> TrackedGuard<'_, Inner> {
        lockorder::lock_tracked(LockClass::Manager, &self.inner)
    }

    /// Statistics summed over all regions.
    pub fn stats(&self) -> RegionStats {
        let inner = self.lock_inner();
        let mut agg = RegionStats::default();
        for region in inner.regions.iter().flatten() {
            agg.accumulate(&region.stats);
        }
        agg
    }

    // ------------------------------------------------------------------
    // Region table
    // ------------------------------------------------------------------

    /// Create a region from a spec (`CREATE REGION`).  Dies are taken from
    /// the free pool, spread over as many channels as possible (or at most
    /// `max_channels` if the spec limits them).  The region keeps the
    /// spec's name and class and the dies chosen, and none of its limits.
    pub fn create_region(&self, spec: RegionSpec) -> Result<RegionId> {
        let mut inner = self.lock_inner();
        if inner.region_named(&spec.name).is_some() {
            return Err(NoFtlError::RegionExists { name: spec.name });
        }
        let geo = self.env.device.geometry();
        let want = spec.resolve_die_count(geo);
        // Group the free dies by channel so we can stripe across channels.
        let mut by_channel: Vec<Vec<DieId>> = vec![Vec::new(); geo.channels as usize];
        for die in inner.free_dies(geo) {
            by_channel[geo.channel_of_die(die) as usize].push(die);
        }
        let channel_limit = spec.max_channels.unwrap_or(geo.channels).max(1) as usize;
        let mut lanes: Vec<Vec<DieId>> =
            by_channel.into_iter().filter(|v| !v.is_empty()).take(channel_limit).collect();
        let available: u32 = lanes.iter().map(|v| v.len() as u32).sum();
        if available < want {
            return Err(NoFtlError::NotEnoughDies { requested: want, available });
        }
        // Round-robin over the usable channels.
        let mut chosen: Vec<DieId> = Vec::with_capacity(want as usize);
        let lane_count = lanes.len();
        let mut lane = 0usize;
        while (chosen.len() as u32) < want {
            if let Some(d) = lanes[lane % lane_count].pop() {
                chosen.push(d);
            }
            lane += 1;
        }
        let rid = RegionId(inner.regions.len() as u32);
        let class = spec.service_class.unwrap_or_default();
        let runtime = RegionRuntime::new(rid, spec.name, class, self.env.device.as_ref(), chosen);
        inner.regions.push(Some(runtime));
        Ok(rid)
    }

    /// Drop an empty region, erasing any blocks it dirtied; its dies are
    /// free once no region holds them.  Returns the time at which the erases
    /// complete.
    pub fn drop_region(&self, rid: RegionId, at: SimTime) -> Result<SimTime> {
        let mut inner = self.lock_inner();
        if inner.meta.region == Some(rid) {
            return Err(NoFtlError::Recovery {
                message: format!(
                    "region {rid:?} hosts the region-metadata journal and cannot be dropped"
                ),
            });
        }
        let objects = inner.objects_in(rid).count();
        let region = inner.region_mut(rid)?;
        if objects > 0 {
            return Err(NoFtlError::RegionNotEmpty { region: rid, objects });
        }
        let mut done = at;
        for die in &mut region.dies {
            // Erase everything that is not already erased so the die goes
            // back to the pool clean.
            let blocks = die.take_data_blocks();
            done = done.max(self.env.erase_into_pool(die, blocks, at)?);
        }
        inner.regions[rid.0 as usize] = None;
        Ok(done)
    }

    /// Look up a region id by name.
    pub fn region_id(&self, name: &str) -> Option<RegionId> {
        self.lock_inner().region_named(name)
    }

    /// Ids of all live regions.
    pub fn region_ids(&self) -> Vec<RegionId> {
        self.lock_inner().regions.iter().filter_map(|r| r.as_ref().map(|r| r.id)).collect()
    }

    /// Name of a region.
    pub fn region_name(&self, rid: RegionId) -> Result<String> {
        Ok(self.lock_inner().region(rid)?.name.clone())
    }

    /// Statistics of a region.
    pub fn region_stats(&self, rid: RegionId) -> Result<RegionStats> {
        Ok(self.lock_inner().region(rid)?.stats.clone())
    }

    /// Configuration/occupancy snapshot of a region.
    pub fn region_info(&self, rid: RegionId) -> Result<crate::region::RegionInfo> {
        let inner = self.lock_inner();
        let objects = inner.objects_in(rid).collect();
        Ok(inner.region(rid)?.info(self.env.device.geometry(), objects))
    }

    /// Number of dies still unassigned.
    pub fn free_die_count(&self) -> u32 {
        self.lock_inner().free_dies(self.env.device.geometry()).len() as u32
    }

    /// Add `additional_dies` dies from the free pool to a region: the
    /// highest free ids, highest first.
    pub fn grow_region(&self, rid: RegionId, additional_dies: u32) -> Result<()> {
        let mut inner = self.lock_inner();
        let free = inner.free_dies(self.env.device.geometry());
        let available = free.len() as u32;
        if available < additional_dies {
            return Err(NoFtlError::NotEnoughDies { requested: additional_dies, available });
        }
        let region = inner.region_mut(rid)?;
        for die in free.into_iter().rev().take(additional_dies as usize) {
            region.dies.push(RegionDie::rebuild(self.env.device.as_ref(), die));
        }
        Ok(())
    }

    /// Remove `remove_dies` dies from a region, migrating their live data
    /// to the remaining dies (used for global wear leveling / rebalancing,
    /// which the paper lists as a reason for dynamic region membership).
    /// Returns the completion time of the migration.
    pub fn shrink_region(&self, rid: RegionId, remove_dies: u32, at: SimTime) -> Result<SimTime> {
        let env = &self.env;
        let mut inner = self.lock_inner();
        let inner = &mut *inner;
        let pages_per_block = env.device.geometry().pages_per_block;
        let region = inner.region(rid)?;
        if region.dies.len() as u32 <= remove_dies {
            return Err(NoFtlError::Ddl {
                message: format!(
                    "cannot remove {remove_dies} die(s) from region '{}' with only {} die(s)",
                    region.name,
                    region.dies.len()
                ),
            });
        }
        // Rebalance copies are maintenance traffic.
        let tag = IoTag::background(Some(rid.0));
        let mut done = at;
        let mut data = env.page_buf();
        for _ in 0..remove_dies {
            let mut space = inner.space(env, rid)?;
            let Some(mut die) = space.region.dies.pop() else { break };
            space.region.next_die = 0;
            // Re-write every valid page of the die on one of the
            // remaining dies.
            let blocks = die.take_data_blocks();
            for block in &blocks {
                for src in (0..pages_per_block).map(|page| block.page(page)) {
                    if !matches!(env.device.page_state(src), Ok(PageState::Valid)) {
                        continue;
                    }
                    let read =
                        env.exec(FlashCommand::Read { addr: src, data: &mut data }, at, tag)?;
                    let Some(meta) = read.meta else { continue };
                    let dst = space.allocate(at)?;
                    let program = FlashCommand::Program { addr: dst, data: &data, meta };
                    let out = env.exec(program, read.outcome.completed_at, tag)?;
                    done = done.max(out.outcome.completed_at);
                    env.device.mark_invalid(src)?;
                    space.region.stats.rebalance_moves += 1;
                    space.retranslate(&meta, src, dst);
                }
            }
            // Erase everything on the die before returning it to the pool.
            done = env.erase_into_pool(&mut die, blocks, done)?;
        }
        Ok(done)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{make_noftl, page, read_page};
    use flash_sim::{DeviceBuilder, FlashGeometry};

    #[test]
    fn create_region_takes_dies_from_pool() {
        let noftl = make_noftl();
        assert_eq!(noftl.free_die_count(), 4);
        let r = noftl.create_region(RegionSpec::named("rgA").with_die_count(3)).unwrap();
        assert_eq!(noftl.free_die_count(), 1);
        assert_eq!(noftl.region_info(r).unwrap().dies.len(), 3);
        assert_eq!(noftl.region_name(r).unwrap(), "rgA");
        assert_eq!(noftl.region_ids(), vec![r]);
    }

    #[test]
    fn duplicate_region_name_is_rejected() {
        let noftl = make_noftl();
        noftl.create_region(RegionSpec::named("rgA").with_die_count(1)).unwrap();
        let err = noftl.create_region(RegionSpec::named("rgA").with_die_count(1)).unwrap_err();
        assert!(matches!(err, NoFtlError::RegionExists { .. }));
    }

    #[test]
    fn region_creation_fails_without_enough_dies() {
        let noftl = make_noftl();
        let err = noftl.create_region(RegionSpec::named("rgBig").with_die_count(5)).unwrap_err();
        assert!(matches!(err, NoFtlError::NotEnoughDies { requested: 5, available: 4 }));
    }

    #[test]
    fn regions_spread_across_channels() {
        let noftl = make_noftl();
        let geo = *noftl.device().geometry();
        let r = noftl.create_region(RegionSpec::named("rg").with_die_count(2)).unwrap();
        let dies = noftl.region_info(r).unwrap().dies;
        let channels: std::collections::HashSet<u32> =
            dies.iter().map(|d| geo.channel_of_die(*d)).collect();
        assert_eq!(channels.len(), 2, "two dies should land on two channels");
    }

    #[test]
    fn max_channels_limits_channel_spread() {
        let noftl = make_noftl();
        let geo = *noftl.device().geometry();
        let r = noftl
            .create_region(RegionSpec {
                max_channels: Some(1),
                ..RegionSpec::named("rg").with_die_count(2)
            })
            .unwrap();
        let dies = noftl.region_info(r).unwrap().dies;
        let channels: std::collections::HashSet<u32> =
            dies.iter().map(|d| geo.channel_of_die(*d)).collect();
        assert_eq!(channels.len(), 1);
    }

    #[test]
    fn unknown_object_and_region_errors() {
        let noftl = make_noftl();
        assert!(matches!(
            read_page(&noftl, 42, 0, SimTime::ZERO),
            Err(NoFtlError::UnknownObject { .. })
        ));
        assert!(noftl.region_stats(RegionId(9)).is_err());
        assert!(noftl.create_object("x", RegionId(9)).is_err());
        assert!(noftl.object_id("nope").is_none());
    }

    #[test]
    fn drop_region_requires_empty_and_returns_dies() {
        let noftl = make_noftl();
        let r = noftl.create_region(RegionSpec::named("rg").with_die_count(2)).unwrap();
        let obj = noftl.create_object("t", r).unwrap();
        noftl.write(obj, 0, &page(1), SimTime::ZERO).unwrap();
        assert!(matches!(
            noftl.drop_region(r, SimTime::ZERO),
            Err(NoFtlError::RegionNotEmpty { .. })
        ));
        noftl.drop_object(obj).unwrap();
        noftl.drop_region(r, SimTime::ZERO).unwrap();
        assert_eq!(noftl.free_die_count(), 4);
        assert!(noftl.region_id("rg").is_none());
        // The returned dies can immediately back a new region.
        let r2 = noftl.create_region(RegionSpec::named("rg2").with_die_count(4)).unwrap();
        let obj2 = noftl.create_object("t2", r2).unwrap();
        noftl.write(obj2, 0, &page(7), SimTime::ZERO).unwrap();
        assert_eq!(read_page(&noftl, obj2, 0, SimTime::ZERO).unwrap().0, page(7));
    }

    #[test]
    fn grow_and_shrink_region_preserve_data() {
        let noftl = make_noftl();
        let r = noftl.create_region(RegionSpec::named("rg").with_die_count(1)).unwrap();
        let obj = noftl.create_object("t", r).unwrap();
        let mut t = SimTime::ZERO;
        for p in 0..20u64 {
            t = noftl.write(obj, p, &page(p as u8), t).unwrap();
        }
        noftl.grow_region(r, 2).unwrap();
        assert_eq!(noftl.region_info(r).unwrap().dies.len(), 3);
        assert_eq!(noftl.free_die_count(), 1);
        for p in 20..40u64 {
            t = noftl.write(obj, p, &page(p as u8), t).unwrap();
        }
        // Shrink back down to one die; the data written on the removed dies
        // must be migrated and stay readable.
        let done = noftl.shrink_region(r, 2, t).unwrap();
        assert_eq!(noftl.region_info(r).unwrap().dies.len(), 1);
        assert_eq!(noftl.free_die_count(), 3);
        for p in 0..40u64 {
            let (data, _) = read_page(&noftl, obj, p, done).unwrap();
            assert_eq!(data, page(p as u8), "page {p}");
        }
        let rs = noftl.region_stats(r).unwrap();
        assert!(rs.rebalance_moves > 0);
        // Shrinking to zero dies is rejected.
        assert!(noftl.shrink_region(r, 1, done).is_err());
        // Growing beyond the pool is rejected.
        assert!(noftl.grow_region(r, 10).is_err());
    }

    #[test]
    fn with_single_region_spans_all_dies() {
        let device = Arc::new(DeviceBuilder::new(FlashGeometry::small_test()).build());
        let (noftl, rid) = NoFtl::with_single_region(device).unwrap();
        assert_eq!(noftl.region_info(rid).unwrap().dies.len(), 4);
        assert_eq!(noftl.free_die_count(), 0);
        assert_eq!(noftl.region_name(rid).unwrap(), "rgAll");
    }

    #[test]
    fn region_info_and_object_extent() {
        let noftl = make_noftl();
        let geo = *noftl.device().geometry();
        let r = noftl.create_region(RegionSpec::named("rg").with_die_count(2)).unwrap();
        let obj = noftl.create_object("t", r).unwrap();
        noftl.write(obj, 10, &page(1), SimTime::ZERO).unwrap();
        let info = noftl.region_info(r).unwrap();
        assert_eq!((info.name.as_str(), info.class), ("rg", flash_sim::ServiceClass::Latency));
        assert_eq!(info.dies.len(), 2);
        assert_eq!(info.objects, vec![obj]);
        assert_eq!(info.capacity_pages, 2 * geo.pages_per_die());
        assert_eq!(info.tracked_blocks, 2 * geo.blocks_per_die() as u64);
        assert!(info.free_blocks < info.tracked_blocks, "one block is now open");
        assert_eq!(noftl.object_extent(obj).unwrap(), 11);
        assert_eq!(noftl.object_pages(obj).unwrap(), 1);
        assert!(noftl.region_info(RegionId(7)).is_err());
    }
}

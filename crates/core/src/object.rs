//! Database objects as seen by the storage manager.
//!
//! The NoFTL storage manager addresses data by `(object, logical page)`.
//! An object is anything the DBMS stores: a table heap, an index, the
//! write-ahead log, catalog pages.  Each object lives in exactly one
//! region and carries its own logical-to-physical page map plus the access
//! statistics used for hot/cold classification and placement decisions.

use flash_sim::PageAddr;

use crate::error::NoFtlError;
use crate::manager::NoFtl;
use crate::region::RegionId;
use crate::stats::ObjectStats;
use crate::Result;

/// Identifier of a database object.  `0` is reserved; real objects start
/// at 1 so the id can double as the `object_id` stored in flash page
/// metadata.
pub type ObjectId = u32;

/// Per-object access counters used for hot/cold classification.  They
/// count from the object's creation or from the mount that rebuilt it: a
/// checkpoint does not persist them, so after a mount both start at 0,
/// as the device's own counters do.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ObjectCounters {
    /// Logical page reads served for this object.
    pub reads: u64,
    /// Logical page writes served for this object.
    pub writes: u64,
}

/// Runtime state of one object.
#[derive(Debug, Clone)]
pub(crate) struct ObjectState {
    /// Human-readable name (unique).
    pub name: String,
    /// The region the object is placed in.
    pub region: RegionId,
    /// Logical page number → physical page address.
    pub map: Vec<Option<PageAddr>>,
    /// Access counters.
    pub counters: ObjectCounters,
}

impl ObjectState {
    pub(crate) fn new(name: impl Into<String>, region: RegionId) -> Self {
        ObjectState {
            name: name.into(),
            region,
            map: Vec::new(),
            counters: ObjectCounters::default(),
        }
    }

    /// Current translation of a logical page.
    pub(crate) fn translate(&self, page: u64) -> Option<PageAddr> {
        self.map.get(page as usize).copied().flatten()
    }

    /// Install a translation, growing the map as needed; returns the
    /// previous translation.
    pub(crate) fn set_translation(&mut self, page: u64, ppa: PageAddr) -> Option<PageAddr> {
        let idx = page as usize;
        if idx >= self.map.len() {
            self.map.resize(idx + 1, None);
        }
        self.map[idx].replace(ppa)
    }

    /// Remove a translation; returns the previous one.
    pub(crate) fn clear_translation(&mut self, page: u64) -> Option<PageAddr> {
        self.map.get_mut(page as usize).and_then(|s| s.take())
    }

    /// Number of logical pages currently mapped (i.e. the object's size on
    /// flash in pages).
    pub(crate) fn mapped_pages(&self) -> u64 {
        self.map.iter().filter(|e| e.is_some()).count() as u64
    }

    /// Highest mapped logical page number plus one (the object's logical
    /// extent), or 0 for an empty object.
    pub(crate) fn logical_extent(&self) -> u64 {
        self.map.iter().rposition(|e| e.is_some()).map(|i| i as u64 + 1).unwrap_or(0)
    }

    /// The public statistics snapshot of this object.
    fn stats(&self, object_id: ObjectId) -> ObjectStats {
        ObjectStats {
            object_id,
            name: self.name.clone(),
            region: self.region,
            pages: self.mapped_pages(),
            reads: self.counters.reads,
            writes: self.counters.writes,
        }
    }
}

/// The object directory of the storage manager.
impl NoFtl {
    /// Register a new database object in a region.
    pub fn create_object(&self, name: &str, region: RegionId) -> Result<ObjectId> {
        let mut inner = self.lock_inner();
        if inner.object_named(name).is_some() {
            return Err(NoFtlError::ObjectExists { name: name.to_string() });
        }
        inner.region(region)?;
        let id = inner.objects.len() as ObjectId;
        inner.objects.push(Some(ObjectState::new(name, region)));
        Ok(id)
    }

    /// Look up an object id by name.
    pub fn object_id(&self, name: &str) -> Option<ObjectId> {
        self.lock_inner().object_named(name)
    }

    /// Drop an object: all of its pages become invalid (reclaimable by GC).
    pub fn drop_object(&self, obj: ObjectId) -> Result<()> {
        let mut inner = self.lock_inner();
        let state = inner
            .objects
            .get_mut(obj as usize)
            .and_then(|o| o.take())
            .ok_or_else(|| NoFtlError::UnknownObject { object: obj.to_string() })?;
        if let Ok(region) = inner.region_mut(state.region) {
            for ppa in state.map.iter().flatten() {
                let _ = self.env.device.mark_invalid(*ppa);
                region.record_invalidation(*ppa);
            }
        }
        Ok(())
    }

    /// Release a logical page: its flash page becomes invalid and the
    /// translation is removed.
    pub fn free_page(&self, obj: ObjectId, page: u64) -> Result<()> {
        let mut inner = self.lock_inner();
        let state = inner.object_mut(obj)?;
        let rid = state.region;
        if let Some(old) = state.clear_translation(page) {
            let _ = self.env.device.mark_invalid(old);
            inner.region_mut(rid)?.record_invalidation(old);
        }
        Ok(())
    }

    /// Statistics snapshot of one object.
    pub fn object_stats(&self, obj: ObjectId) -> Result<ObjectStats> {
        Ok(self.lock_inner().object(obj)?.stats(obj))
    }

    /// Statistics snapshots of all live objects.
    pub fn all_object_stats(&self) -> Vec<ObjectStats> {
        let inner = self.lock_inner();
        let live = inner.objects.iter().enumerate();
        live.filter_map(|(id, o)| o.as_ref().map(|state| state.stats(id as ObjectId))).collect()
    }

    /// Ids and names of all live objects whose name starts with `prefix`.
    /// Layers that manage families of objects (e.g. the NoFTL-KV run
    /// directory) use this to rediscover their members after a mount.
    pub fn objects_with_prefix(&self, prefix: &str) -> Vec<(ObjectId, String)> {
        let inner = self.lock_inner();
        inner
            .objects
            .iter()
            .enumerate()
            .filter_map(|(id, o)| o.as_ref().map(|state| (id as ObjectId, state.name.clone())))
            .filter(|(_, name)| name.starts_with(prefix))
            .collect()
    }

    /// Number of live (mapped) pages of an object.
    pub fn object_pages(&self, obj: ObjectId) -> Result<u64> {
        Ok(self.lock_inner().object(obj)?.mapped_pages())
    }

    /// Logical extent of an object: the highest written logical page number
    /// plus one (0 for an empty object).  The DBMS layer uses this to size
    /// its extent allocation.
    pub fn object_extent(&self, obj: ObjectId) -> Result<u64> {
        Ok(self.lock_inner().object(obj)?.logical_extent())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::region::RegionSpec;
    use crate::testutil::{make_noftl, page, read_page};
    use flash_sim::{DieId, SimTime};

    fn ppa(block: u32) -> PageAddr {
        PageAddr::new(DieId(0), 0, block, 0)
    }

    #[test]
    fn translation_lifecycle() {
        let mut o = ObjectState::new("t", RegionId(0));
        assert_eq!(o.translate(5), None);
        assert_eq!(o.set_translation(5, ppa(1)), None);
        assert_eq!(o.translate(5), Some(ppa(1)));
        assert_eq!(o.set_translation(5, ppa(2)), Some(ppa(1)));
        assert_eq!(o.mapped_pages(), 1);
        assert_eq!(o.logical_extent(), 6);
        assert_eq!(o.clear_translation(5), Some(ppa(2)));
        assert_eq!(o.mapped_pages(), 0);
        assert_eq!(o.logical_extent(), 0);
    }

    #[test]
    fn sparse_pages_grow_the_map() {
        let mut o = ObjectState::new("t", RegionId(0));
        o.set_translation(100, ppa(3));
        assert_eq!(o.map.len(), 101);
        assert_eq!(o.translate(99), None);
        assert_eq!(o.translate(100), Some(ppa(3)));
        assert_eq!(o.logical_extent(), 101);
        assert_eq!(o.mapped_pages(), 1);
    }

    #[test]
    fn clear_of_unmapped_page_is_none() {
        let mut o = ObjectState::new("t", RegionId(0));
        assert_eq!(o.clear_translation(42), None);
    }

    #[test]
    fn duplicate_object_name_rejected() {
        let noftl = make_noftl();
        let r = noftl.create_region(RegionSpec::named("rg").with_die_count(1)).unwrap();
        noftl.create_object("t", r).unwrap();
        assert!(matches!(noftl.create_object("t", r), Err(NoFtlError::ObjectExists { .. })));
    }

    #[test]
    fn free_page_and_drop_object_invalidate_pages() {
        let noftl = make_noftl();
        let r = noftl.create_region(RegionSpec::named("rg").with_die_count(1)).unwrap();
        let obj = noftl.create_object("t", r).unwrap();
        noftl.write(obj, 0, &page(1), SimTime::ZERO).unwrap();
        noftl.write(obj, 1, &page(1), SimTime::ZERO).unwrap();
        noftl.free_page(obj, 0).unwrap();
        assert!(read_page(&noftl, obj, 0, SimTime::ZERO).is_err());
        assert_eq!(noftl.object_pages(obj).unwrap(), 1);
        noftl.drop_object(obj).unwrap();
        assert!(noftl.object_stats(obj).is_err());
        assert!(noftl.object_id("t").is_none());
        // Freeing a never-written page is a no-op.
        let obj2 = noftl.create_object("t2", r).unwrap();
        noftl.free_page(obj2, 5).unwrap();
    }

    #[test]
    fn all_object_stats_lists_every_object() {
        let noftl = make_noftl();
        let r = noftl.create_region(RegionSpec::named("rg").with_die_count(2)).unwrap();
        let a = noftl.create_object("a", r).unwrap();
        let _b = noftl.create_object("b", r).unwrap();
        noftl.write(a, 0, &page(1), SimTime::ZERO).unwrap();
        let stats = noftl.all_object_stats();
        assert_eq!(stats.len(), 2);
        assert_eq!(stats.iter().find(|s| s.name == "a").unwrap().writes, 1);
        assert_eq!(stats.iter().find(|s| s.name == "b").unwrap().writes, 0);
    }
}

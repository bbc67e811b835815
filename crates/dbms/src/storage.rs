//! The storage backend: where pages physically live.
//!
//! [`StorageBackend`] is the seam between the buffer pool / WAL and the
//! storage stack underneath.  The tree has one implementation,
//! [`NoFtlBackend`] — the paper's proposal: objects are registered
//! directly with the NoFTL storage manager and placed into **regions**
//! according to a [`PlacementConfig`]; the flash is addressed natively.
//! The trait remains so that a decorator can sit on the seam (the
//! benchmark's per-layer tracer does).  Pages go down bare, log pages
//! too: the storage manager checksums each page where it programs it,
//! so a decorator that forwards only the required methods writes the
//! same bytes as the bare backend.

use std::sync::Arc;

use flash_sim::SimTime;
use noftl_core::{IoRequest, NoFtl, PlacementConfig, RegionId, RegionSpec};

use crate::error::DbError;
use crate::Result;

/// Identifier of a storage object (table heap, index, WAL, catalog...).
pub type ObjectId = u32;

/// Abstraction over the storage stack underneath the buffer pool.
pub trait StorageBackend: Send + Sync {
    /// Page size in bytes (4 KiB throughout this repository).
    fn page_size(&self) -> u32;

    /// Register a new object.  The backend decides placement (e.g. which
    /// region) based on the object's name.
    fn create_object(&self, name: &str) -> Result<ObjectId>;

    /// Look up an existing object by name (used by recovery to re-attach
    /// to objects that survived a crash).
    fn lookup_object(&self, name: &str) -> Option<ObjectId>;

    /// Logical extent of an object: highest written page number plus one
    /// (0 for an empty object).
    fn object_extent(&self, obj: ObjectId) -> Result<u64>;

    /// Checkpoint backend-level metadata.  The NoFTL backend journals its
    /// region metadata here so that a crashed device can be remounted.
    fn checkpoint(&self, at: SimTime) -> Result<SimTime>;

    /// Read a logical page of an object.
    fn read_page(&self, obj: ObjectId, page: u64, at: SimTime) -> Result<(Vec<u8>, SimTime)>;

    /// Read a logical page of an object into `buf` (one page): the path a
    /// buffer-pool miss takes, so the page lands in the frame it will
    /// live in.  The provided body copies out of
    /// [`StorageBackend::read_page`] (a shorter payload leaves zeros
    /// behind it), which is all a forward-only decorator needs;
    /// [`NoFtlBackend`] has the device fill `buf` itself.
    fn read_page_into(
        &self,
        obj: ObjectId,
        page: u64,
        buf: &mut [u8],
        at: SimTime,
    ) -> Result<SimTime> {
        let (data, done) = self.read_page(obj, page, at)?;
        let n = data.len().min(buf.len());
        buf[..n].copy_from_slice(&data[..n]);
        buf[n..].fill(0);
        Ok(done)
    }

    /// Read a batch of pages through a bounded completion-driven
    /// pipeline — the read-side counterpart of
    /// [`StorageBackend::write_windowed`].  At most `window` reads are in
    /// flight; each further read is issued at the completion of the
    /// oldest outstanding one.  Returns the payloads **in request order**
    /// plus the maximum completion over the whole window.  The engine
    /// itself has no caller (range scans read no page ahead of demand);
    /// the method stays because the frozen benchmark's storage decorator
    /// implements it.  [`NoFtlBackend`] collects the pages
    /// [`NoFtl::execute`] hands over into the returned `Vec`s.
    fn read_windowed(
        &self,
        reads: &[(ObjectId, u64)],
        at: SimTime,
        window: usize,
    ) -> Result<(Vec<Vec<u8>>, SimTime)>;

    /// Write a logical page of an object.
    fn write_page(&self, obj: ObjectId, page: u64, data: &[u8], at: SimTime) -> Result<SimTime>;

    /// Write a batch of pages, all issued at `at`; returns the completion
    /// time of the slowest one.  The NoFTL stack's per-die command queues
    /// overlap the writes.
    fn write_batch(&self, writes: &[(ObjectId, u64, Vec<u8>)], at: SimTime) -> Result<SimTime> {
        self.write_windowed(writes, at, usize::MAX)
    }

    /// Write a batch through a bounded completion-driven pipeline: at
    /// most `window` pages in flight, each further page issued at the
    /// completion of the oldest outstanding one, returning the maximum
    /// completion over the whole window.  The buffer pool's flushers
    /// drive this so checkpoint write-back overlaps the region's dies
    /// without unbounded outstanding I/O.
    fn write_windowed(
        &self,
        writes: &[(ObjectId, u64, Vec<u8>)],
        at: SimTime,
        window: usize,
    ) -> Result<SimTime>;

    /// The metrics registry of the stack underneath, when the backend
    /// has one (the NoFTL stack shares the flash device's registry).  The
    /// WAL and buffer pool record their force/flush latencies through
    /// this.
    fn metrics(&self) -> Option<&Arc<noftl_obs::MetricsRegistry>>;

    /// Release a logical page.
    fn free_page(&self, obj: ObjectId, page: u64) -> Result<()>;

    /// Total host reads and writes served by the backend so far.
    fn io_counts(&self) -> (u64, u64);
}

/// Storage backend that places objects into NoFTL regions.  It keeps the
/// placement configuration only: a region's id is the manager's, looked
/// up by name.
pub struct NoFtlBackend {
    noftl: Arc<NoFtl>,
    placement: PlacementConfig,
}

impl NoFtlBackend {
    /// Create the backend, creating one NoFTL region per entry of the
    /// placement configuration (with the configured number of dies).
    /// Objects whose name does not appear in the configuration fall back
    /// to the first region.
    pub fn new(noftl: Arc<NoFtl>, placement: &PlacementConfig) -> Result<Self> {
        for assignment in &placement.regions {
            let mut spec =
                RegionSpec::named(&assignment.region_name).with_die_count(assignment.dies);
            spec.service_class = assignment.service_class;
            noftl.create_region(spec).map_err(DbError::storage)?;
        }
        Self::attach(noftl, placement)
    }

    /// Attach to a *mounted* NoFTL manager whose regions already exist
    /// (after `NoFtl::mount`): every region of the placement configuration
    /// must be there, by name.
    pub fn attach(noftl: Arc<NoFtl>, placement: &PlacementConfig) -> Result<Self> {
        if placement.regions.is_empty() {
            return Err(no_regions());
        }
        let backend = NoFtlBackend { noftl, placement: placement.clone() };
        for assignment in &placement.regions {
            backend.region(&assignment.region_name)?;
        }
        Ok(backend)
    }

    /// The underlying NoFTL storage manager.
    pub fn noftl(&self) -> &Arc<NoFtl> {
        &self.noftl
    }

    /// The region an object with `name` would be placed in: its placement
    /// entry's, or the first region's for a name the configuration does
    /// not list.
    pub fn region_for(&self, name: &str) -> Result<RegionId> {
        let assignment = self.placement.region_of(name).or(self.placement.regions.first());
        self.region(&assignment.ok_or_else(no_regions)?.region_name)
    }

    /// The id of the placement region `name`.
    fn region(&self, name: &str) -> Result<RegionId> {
        self.noftl.region_id(name).ok_or_else(|| DbError::Storage {
            message: format!(
                "device has no region '{name}' required by the placement configuration"
            ),
        })
    }
}

fn no_regions() -> DbError {
    DbError::Storage { message: "placement configuration has no regions".to_string() }
}

impl StorageBackend for NoFtlBackend {
    fn page_size(&self) -> u32 {
        self.noftl.device().geometry().page_size
    }

    fn metrics(&self) -> Option<&Arc<noftl_obs::MetricsRegistry>> {
        Some(self.noftl.metrics())
    }

    fn create_object(&self, name: &str) -> Result<ObjectId> {
        let region = self.region_for(name)?;
        self.noftl.create_object(name, region).map_err(Into::into)
    }

    fn lookup_object(&self, name: &str) -> Option<ObjectId> {
        self.noftl.object_id(name)
    }

    fn object_extent(&self, obj: ObjectId) -> Result<u64> {
        self.noftl.object_extent(obj).map_err(Into::into)
    }

    fn checkpoint(&self, at: SimTime) -> Result<SimTime> {
        self.noftl.checkpoint(at).map_err(Into::into)
    }

    fn read_page(&self, obj: ObjectId, page: u64, at: SimTime) -> Result<(Vec<u8>, SimTime)> {
        let mut data = vec![0; self.page_size() as usize];
        self.read_page_into(obj, page, &mut data, at).map(|done| (data, done))
    }

    fn read_page_into(
        &self,
        obj: ObjectId,
        page: u64,
        buf: &mut [u8],
        at: SimTime,
    ) -> Result<SimTime> {
        self.noftl.read(obj, page, buf, at).map_err(Into::into)
    }

    fn read_windowed(
        &self,
        reads: &[(ObjectId, u64)],
        at: SimTime,
        window: usize,
    ) -> Result<(Vec<Vec<u8>>, SimTime)> {
        let mut pages = Vec::with_capacity(reads.len());
        let requests = reads.iter().map(|&(obj, page)| IoRequest::read(obj, page));
        let done = self.noftl.execute(requests, at, window, |_, page| {
            pages.push(page.to_vec());
            Ok(())
        })?;
        Ok((pages, done))
    }

    fn write_page(&self, obj: ObjectId, page: u64, data: &[u8], at: SimTime) -> Result<SimTime> {
        self.noftl.write(obj, page, data, at).map_err(Into::into)
    }

    fn write_windowed(
        &self,
        writes: &[(ObjectId, u64, Vec<u8>)],
        at: SimTime,
        window: usize,
    ) -> Result<SimTime> {
        let requests = writes.iter().map(|(obj, page, data)| IoRequest::write(*obj, *page, data));
        Ok(self.noftl.execute(requests, at, window, |_, _| Ok(()))?)
    }

    fn free_page(&self, obj: ObjectId, page: u64) -> Result<()> {
        self.noftl.free_page(obj, page).map_err(Into::into)
    }

    fn io_counts(&self) -> (u64, u64) {
        let s = self.noftl.stats();
        (s.host_reads, s.host_writes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flash_sim::{DeviceBuilder, FlashGeometry};
    use noftl_core::NoFtlConfig;

    fn page(b: u8) -> Vec<u8> {
        vec![b; 4096]
    }

    fn noftl_backend() -> NoFtlBackend {
        let device = Arc::new(DeviceBuilder::new(FlashGeometry::small_test()).build());
        let noftl = Arc::new(NoFtl::new(device, NoFtlConfig::default()));
        let placement = PlacementConfig {
            regions: vec![
                noftl_core::RegionAssignment {
                    region_name: "rgHot".into(),
                    objects: vec!["orders".into()],
                    dies: 2,
                    service_class: None,
                },
                noftl_core::RegionAssignment {
                    region_name: "rgCold".into(),
                    objects: vec!["history".into()],
                    dies: 2,
                    service_class: None,
                },
            ],
        };
        NoFtlBackend::new(noftl, &placement).unwrap()
    }

    #[test]
    fn noftl_backend_places_objects_per_configuration() {
        let backend = noftl_backend();
        assert_eq!(backend.page_size(), 4096);
        let orders = backend.create_object("orders").unwrap();
        let history = backend.create_object("history").unwrap();
        let other = backend.create_object("something_else").unwrap();
        let noftl = backend.noftl();
        let rg_hot = noftl.region_id("rgHot").unwrap();
        let rg_cold = noftl.region_id("rgCold").unwrap();
        assert_eq!(noftl.object_stats(orders).unwrap().region, rg_hot);
        assert_eq!(noftl.object_stats(history).unwrap().region, rg_cold);
        // Unknown objects fall back to the first region.
        assert_eq!(noftl.object_stats(other).unwrap().region, rg_hot);
        assert_eq!(backend.region_for("history").unwrap(), rg_cold);
    }

    #[test]
    fn noftl_backend_read_write_roundtrip() {
        let backend = noftl_backend();
        let obj = backend.create_object("orders").unwrap();
        let done = backend.write_page(obj, 3, &page(0x5C), SimTime::ZERO).unwrap();
        let (data, _) = backend.read_page(obj, 3, done).unwrap();
        assert_eq!(data, page(0x5C));
        assert_eq!(backend.io_counts(), (1, 1));
        backend.free_page(obj, 3).unwrap();
        assert!(backend.read_page(obj, 3, done).is_err());
    }

    #[test]
    fn empty_placement_is_rejected() {
        let device = Arc::new(DeviceBuilder::new(FlashGeometry::small_test()).build());
        let noftl = Arc::new(NoFtl::new(device, NoFtlConfig::default()));
        let placement = PlacementConfig { regions: vec![] };
        assert!(NoFtlBackend::new(noftl, &placement).is_err());
    }

    #[test]
    fn attach_names_a_missing_region() {
        let backend = noftl_backend();
        let mut placement = backend.placement.clone();
        placement.regions[1].region_name = "rgGone".into();
        let err = NoFtlBackend::attach(Arc::clone(backend.noftl()), &placement).err().unwrap();
        assert!(err.to_string().contains("'rgGone'"), "{err}");
    }
}

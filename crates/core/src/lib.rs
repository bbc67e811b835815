//! # noftl-core — NoFTL regions: DBMS space management for native flash
//!
//! This crate is the primary contribution of the reproduced paper,
//! *"Revisiting DBMS Space Management for Native Flash"* (Hardock, Petrov,
//! Gottstein, Buchmann — EDBT 2016).  Under the NoFTL architecture the
//! DBMS owns the physical flash address space directly (no FTL, no file
//! system, no block device).  The paper introduces **regions** as the
//! physical storage structure used to organise that space:
//!
//! > *"A region comprises multiple Flash chips or dies, over which the
//! > data is evenly distributed. \[...\] One or more database objects with
//! > similar access properties can be physically placed in a region."*
//!
//! What this crate provides:
//!
//! * [`RegionSpec`] / [`NoFtl::create_region`] — the `CREATE REGION`
//!   primitive (limits on chips, channels and size, as in the paper's DDL
//!   example), with dies drawn from a device-wide pool;
//! * object management — database objects (heaps, indexes, logs, catalog)
//!   are registered in a region and addressed by `(ObjectId, logical page)`;
//! * **out-of-place updates** with per-region write allocation that stripes
//!   pages over the region's dies by die time for I/O parallelism
//!   (round-robin while no GC runs);
//! * **per-region garbage collection** ([`gc`]) using greedy victim
//!   selection and die-internal copybacks;
//! * **dynamic wear leveling** inside regions ([`region`]): a die opens
//!   its least-worn free block;
//! * **per-object statistics** ([`ObjectStats`]), from which
//!   [`placement::assign_dies`] apportions dies to regions in
//!   configurations such as the paper's Figure 2;
//! * a small **DDL dialect** ([`ddl`]): `CREATE REGION`,
//!   `CREATE TABLESPACE`, `CREATE TABLE ... TABLESPACE`;
//! * **page I/O** through one request path: [`NoFtl::read`] and
//!   [`NoFtl::write`] for one page, [`NoFtl::execute`] for a windowed
//!   pipeline of many;
//! * **NoFTL-KV** ([`kv`]) — a log-structured key-value layer whose
//!   memtable flushes and compactions are region-local queued multi-die
//!   batches, with crash safety riding the checkpoint/mount path.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod config;
pub mod crash;
pub mod ddl;
pub mod error;
pub mod gc;
pub mod io;
pub mod kv;
pub mod manager;
pub mod object;
pub(crate) mod obs;
pub mod placement;
pub mod recovery;
pub mod region;
pub mod stats;

pub use config::NoFtlConfig;
pub use ddl::{Ddl, DdlStatement};
pub use error::NoFtlError;
pub use io::{IoKind, IoRequest};
pub use kv::{KvConfig, KvOpenReport, KvStats, KvStore};
pub use manager::NoFtl;
pub use object::ObjectId;
pub use placement::{PlacementConfig, RegionAssignment};
pub use recovery::{MountReport, META_OBJECT_ID, META_REGION_NAME};
pub use region::{RegionId, RegionInfo, RegionSpec};
pub use stats::{ObjectStats, RegionStats};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, NoFtlError>;

/// Fixtures shared by the unit tests of the manager's modules.
#[cfg(test)]
pub(crate) mod testutil {
    use super::*;
    use flash_sim::{DeviceBuilder, FlashBackend, FlashGeometry, NandDevice, SimTime, TimingModel};
    use std::sync::Arc;

    pub(crate) fn make_noftl() -> NoFtl {
        let device = Arc::new(
            DeviceBuilder::new(FlashGeometry::small_test()).timing(TimingModel::mlc_2015()).build(),
        );
        NoFtl::new(device, NoFtlConfig::default())
    }

    pub(crate) fn page(byte: u8) -> Vec<u8> {
        vec![byte; 4096]
    }

    /// [`NoFtl::read`] into a fresh page: the payload and the completion.
    pub(crate) fn read_page(
        noftl: &NoFtl,
        obj: ObjectId,
        page: u64,
        at: SimTime,
    ) -> Result<(Vec<u8>, SimTime)> {
        let mut data = vec![0; 4096];
        noftl.read(obj, page, &mut data, at).map(|done| (data, done))
    }

    pub(crate) fn raw_device(noftl: &NoFtl) -> &NandDevice {
        noftl.device().as_any().downcast_ref::<NandDevice>().unwrap()
    }

    /// A rebooted copy of the manager's device, as a crash would leave it.
    pub(crate) fn reboot(noftl: &NoFtl) -> Arc<dyn FlashBackend> {
        crate::crash::power_cycle(raw_device(noftl)).unwrap()
    }
}

#[cfg(test)]
mod lib_tests {
    use super::*;
    use crate::testutil::read_page;
    use flash_sim::{DeviceBuilder, FlashGeometry, SimTime};
    use std::sync::Arc;

    #[test]
    fn end_to_end_smoke() {
        let device = Arc::new(DeviceBuilder::new(FlashGeometry::small_test()).build());
        let noftl = NoFtl::new(device, NoFtlConfig::default());
        let region = noftl.create_region(RegionSpec::named("rgSmoke").with_die_count(2)).unwrap();
        let obj = noftl.create_object("t_smoke", region).unwrap();
        let data = vec![0x42u8; 4096];
        let done = noftl.write(obj, 0, &data, SimTime::ZERO).unwrap();
        let (back, _) = read_page(&noftl, obj, 0, done).unwrap();
        assert_eq!(back, data);
    }
}

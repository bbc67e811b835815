//! Cross-crate integration test: the full stack from the flash simulator
//! up to the storage engine.

use std::sync::Arc;

use noftl_regions::dbms::value::{composite_key, Value};
use noftl_regions::dbms::{
    ColumnType, Database, DatabaseConfig, NoFtlBackend, ObjectId, Result, Schema, StorageBackend,
};
use noftl_regions::flash::{DeviceBuilder, FlashBackend, FlashGeometry, SimTime, TimingModel};
use noftl_regions::noftl::{NoFtl, NoFtlConfig, PlacementConfig};
use noftl_regions::obs::MetricsRegistry;

fn schema() -> Schema {
    Schema::new(vec![
        ("id", ColumnType::Int),
        ("qty", ColumnType::Int),
        ("note", ColumnType::Str(32)),
    ])
}

fn row(id: i64, qty: i64) -> Vec<Value> {
    vec![Value::Int(id), Value::Int(qty), Value::Str(format!("row-{id}"))]
}

fn exercise(db: &Database) {
    let t0 = SimTime::ZERO;
    db.create_table("t", schema(), t0).unwrap();
    db.create_index("t", "t_pk", t0).unwrap();
    let mut txn = db.begin(t0);
    let mut rids = Vec::new();
    for id in 0..500i64 {
        let rid =
            db.insert(&mut txn, "t", &row(id, id * 2), &[("t_pk", composite_key(&[id]))]).unwrap();
        rids.push(rid);
    }
    db.commit(&mut txn).unwrap();
    // Point lookups through the index.
    let mut txn = db.begin(txn.now);
    for id in (0..500i64).step_by(37) {
        let (_, rec) = db.index_get(&mut txn, "t", "t_pk", &composite_key(&[id])).unwrap().unwrap();
        assert_eq!((rec.int(0), rec.int(1)), (id, id * 2));
    }
    // Updates stay in place.
    db.update(&mut txn, "t", rids[10], &row(10, 999)).unwrap();
    let rec = db.get(&mut txn, "t", rids[10]).unwrap();
    assert_eq!(rec.int(1), 999);
    // Range scan.
    let (low, high) = (composite_key(&[100]), composite_key(&[110]));
    let mut hits = Vec::new();
    db.index_range(&mut txn, "t", "t_pk", &low, Some(&high), usize::MAX, |rid| hits.push(rid))
        .unwrap();
    assert_eq!(hits, rids[100..110]);
    db.commit(&mut txn).unwrap();
    // Everything survives a checkpoint.
    db.flush_all(txn.now).unwrap();
    let mut txn = db.begin(txn.now);
    assert_eq!(db.get(&mut txn, "t", rids[499]).unwrap().int(0), 499);
}

#[test]
fn engine_on_noftl_regions_backend() {
    let device = Arc::new(
        DeviceBuilder::new(FlashGeometry::example()).timing(TimingModel::mlc_2015()).build(),
    );
    let noftl = Arc::new(NoFtl::new(device.clone(), NoFtlConfig::paper_defaults()));
    let placement = PlacementConfig::traditional(8, ["t".to_string(), "t_pk".to_string()]);
    let backend = Arc::new(NoFtlBackend::new(noftl, &placement).unwrap());
    let db =
        Database::open(backend, DatabaseConfig { buffer_pages: 64, ..Default::default() }).unwrap();
    exercise(&db);
    // The flash device really saw traffic (writes always reach flash via
    // the flushers; reads may be absorbed by the buffer pool at this size).
    let stats = device.stats();
    assert!(stats.page_programs > 0);
    assert!(stats.total_ops() > 0);
}

/// A decorator on the storage seam that implements only the required
/// methods and forwards each one, the shape of a per-layer tracer: every
/// provided method runs its default above the inner backend.
struct Forward(Arc<dyn StorageBackend>);

impl StorageBackend for Forward {
    fn page_size(&self) -> u32 {
        self.0.page_size()
    }
    fn create_object(&self, name: &str) -> Result<ObjectId> {
        self.0.create_object(name)
    }
    fn lookup_object(&self, name: &str) -> Option<ObjectId> {
        self.0.lookup_object(name)
    }
    fn object_extent(&self, obj: ObjectId) -> Result<u64> {
        self.0.object_extent(obj)
    }
    fn checkpoint(&self, at: SimTime) -> Result<SimTime> {
        self.0.checkpoint(at)
    }
    fn read_page(&self, obj: ObjectId, page: u64, at: SimTime) -> Result<(Vec<u8>, SimTime)> {
        self.0.read_page(obj, page, at)
    }
    fn read_windowed(
        &self,
        reads: &[(ObjectId, u64)],
        at: SimTime,
        window: usize,
    ) -> Result<(Vec<Vec<u8>>, SimTime)> {
        self.0.read_windowed(reads, at, window)
    }
    fn write_page(&self, obj: ObjectId, page: u64, data: &[u8], at: SimTime) -> Result<SimTime> {
        self.0.write_page(obj, page, data, at)
    }
    fn write_windowed(
        &self,
        writes: &[(ObjectId, u64, Vec<u8>)],
        at: SimTime,
        window: usize,
    ) -> Result<SimTime> {
        self.0.write_windowed(writes, at, window)
    }
    fn metrics(&self) -> Option<&Arc<MetricsRegistry>> {
        self.0.metrics()
    }
    fn free_page(&self, obj: ObjectId, page: u64) -> Result<()> {
        self.0.free_page(obj, page)
    }
    fn io_counts(&self) -> (u64, u64) {
        self.0.io_counts()
    }
}

/// The device image after `exercise` on a fresh device, with the
/// backend wrapped in `Forward` or not.
fn image_after_exercise(redo_logging: bool, decorated: bool) -> Vec<u8> {
    let device = Arc::new(
        DeviceBuilder::new(FlashGeometry::example()).timing(TimingModel::mlc_2015()).build(),
    );
    let noftl = Arc::new(NoFtl::new(device.clone(), NoFtlConfig::paper_defaults()));
    let placement = PlacementConfig::traditional(8, ["t".to_string(), "t_pk".to_string()]);
    let mut backend: Arc<dyn StorageBackend> =
        Arc::new(NoFtlBackend::new(noftl, &placement).unwrap());
    if decorated {
        backend = Arc::new(Forward(backend));
    }
    let config = DatabaseConfig { buffer_pages: 64, redo_logging, ..Default::default() };
    exercise(&Database::open(backend, config).unwrap());
    device.image()
}

/// A forward-only decorator on the storage seam changes no byte on
/// flash, payloads and OOB metadata alike, with the log durable or not:
/// no provided method of `StorageBackend` does what the bare backend's
/// own implementation would not.
#[test]
fn a_forward_only_storage_decorator_changes_no_byte_on_flash() {
    let images = [false, true].map(|redo_logging| {
        let bare = image_after_exercise(redo_logging, false);
        let decorated = image_after_exercise(redo_logging, true);
        assert!(bare == decorated, "redo_logging {redo_logging}: the images differ");
        bare
    });
    assert!(images[0] != images[1], "the durable log reaches flash");
}

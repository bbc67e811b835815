//! Cross-crate integration test: the full stack from the flash simulator
//! up to the storage engine.

use std::sync::Arc;

use noftl_regions::dbms::value::{composite_key, Value};
use noftl_regions::dbms::{ColumnType, Database, DatabaseConfig, NoFtlBackend, Schema};
use noftl_regions::flash::{DeviceBuilder, FlashBackend, FlashGeometry, SimTime, TimingModel};
use noftl_regions::noftl::{NoFtl, NoFtlConfig, PlacementConfig};

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

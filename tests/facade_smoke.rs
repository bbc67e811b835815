//! Smoke test for the `noftl-regions` facade crate: every workspace member
//! must be reachable through the root crate's re-exports (`flash`,
//! `noftl`, `dbms`, `tpcc`, `workload`, `bench`), and a tiny device must
//! work end to end when driven exclusively through those paths.

use std::sync::Arc;

use noftl_regions::dbms::value::{composite_key, Value};
use noftl_regions::dbms::{ColumnType, Database, DatabaseConfig, NoFtlBackend, Schema};
use noftl_regions::flash::{DeviceBuilder, FlashBackend, FlashGeometry, SimTime, TimingModel};
use noftl_regions::noftl::{NoFtl, NoFtlConfig, PlacementConfig, RegionSpec};

#[test]
fn tiny_device_through_facade_reexports() {
    // flash: build a small native device through the re-exported builder.
    let device = Arc::new(
        DeviceBuilder::new(FlashGeometry::example()).timing(TimingModel::instant()).build(),
    );
    assert!(device.geometry().total_dies() >= 2);

    // noftl: carve a region and write/read raw object pages.
    let noftl = NoFtl::new(device.clone(), NoFtlConfig::paper_defaults());
    let region = noftl.create_region(RegionSpec::named("rgSmoke").with_die_count(2)).unwrap();
    let obj = noftl.create_object("smoke", region).unwrap();
    let mut now = SimTime::ZERO;
    for page in 0..8u64 {
        now = noftl.write(obj, page, &vec![page as u8; 4096], now).unwrap();
    }
    let mut data = vec![0; 4096];
    noftl.read(obj, 5, &mut data, now).unwrap();
    assert_eq!(data, vec![5u8; 4096]);

    // noftl::kv: the NoFTL-KV layer round-trips through the facade too.
    let noftl = Arc::new(noftl);
    let kv_region = noftl.create_region(RegionSpec::named("rgKv").with_die_count(2)).unwrap();
    let (kv, kv_t) = noftl_regions::noftl::kv::KvStore::create(
        Arc::clone(&noftl),
        kv_region,
        "smoke",
        noftl_regions::noftl::kv::KvConfig::default(),
        now,
    )
    .unwrap();
    let kv_t = kv.put(b"answer", b"42", kv_t).unwrap();
    let kv_t = kv.flush(kv_t).unwrap();
    assert_eq!(kv.get(b"answer", kv_t).unwrap().0.as_deref(), Some(b"42".as_slice()));

    // dbms: run the storage engine on a NoFTL backend, via the facade only.
    // A fresh device: the manager above already owns the first one's pages.
    let device = Arc::new(
        DeviceBuilder::new(FlashGeometry::example()).timing(TimingModel::instant()).build(),
    );
    let noftl = Arc::new(NoFtl::new(device.clone(), NoFtlConfig::paper_defaults()));
    let placement = PlacementConfig::traditional(2, ["t".to_string(), "t_pk".to_string()]);
    let backend = Arc::new(NoFtlBackend::new(noftl, &placement).unwrap());
    let db =
        Database::open(backend, DatabaseConfig { buffer_pages: 32, ..Default::default() }).unwrap();
    let schema = Schema::new(vec![("id", ColumnType::Int), ("note", ColumnType::Str(16))]);
    db.create_table("t", schema, SimTime::ZERO).unwrap();
    db.create_index("t", "t_pk", SimTime::ZERO).unwrap();
    let mut txn = db.begin(SimTime::ZERO);
    for id in 0..20i64 {
        db.insert(
            &mut txn,
            "t",
            &vec![Value::Int(id), Value::Str(format!("r{id}"))],
            &[("t_pk", composite_key(&[id]))],
        )
        .unwrap();
    }
    db.commit(&mut txn).unwrap();
    let mut txn = db.begin(txn.now);
    let (_, rec) = db.index_get(&mut txn, "t", "t_pk", &composite_key(&[7])).unwrap().unwrap();
    assert_eq!(rec.int(0), 7);
}

#[test]
fn remaining_reexports_are_wired() {
    // tpcc: placement helpers produce the paper's region layout.
    let cfg = noftl_regions::tpcc::placement::figure2(64);
    assert_eq!(cfg.total_dies(), 64);
    assert_eq!(cfg.regions.len(), 6);

    // bench: the experiment harness type is reachable through the facade.
    let exp = noftl_regions::bench::Experiment::figure3_base(
        noftl_regions::tpcc::placement::traditional(8),
        "facade smoke",
    );
    assert_eq!(exp.label, "facade smoke");

    // workload: a YCSB spec generates a deterministic stream through the
    // facade, and the key helpers are reachable.
    let spec = noftl_regions::workload::YcsbSpec::core('A', 10, 20, 7).unwrap();
    let ops: Vec<_> = spec.stream().collect();
    assert_eq!(ops.len(), 20);
    assert_eq!(
        noftl_regions::workload::stream_digest(ops.clone()),
        noftl_regions::workload::stream_digest(ops)
    );
    assert_eq!(noftl_regions::workload::key_bytes(42), b"user000000000042");
}

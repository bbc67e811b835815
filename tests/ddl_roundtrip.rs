//! Integration test: the paper's DDL example drives the real storage
//! manager, and the resulting objects are usable through the engine.

use std::sync::Arc;

use noftl_regions::flash::{DeviceBuilder, FlashBackend, FlashGeometry, SimTime};
use noftl_regions::noftl::{Ddl, NoFtl, NoFtlConfig};

#[test]
fn paper_ddl_example_end_to_end() {
    let device = Arc::new(DeviceBuilder::new(FlashGeometry::edbt_paper()).build());
    let noftl = NoFtl::new(device.clone(), NoFtlConfig::paper_defaults());
    let mut ddl = Ddl::new(&noftl);
    // Verbatim from Section 2 of the paper (EXTENT SIZE spelled with '_').
    ddl.run_script(
        "CREATE REGION rgHotTbl (MAX_CHIPS=8, MAX_CHANNELS=4, MAX_SIZE=1280M);
         CREATE TABLESPACE tsHotTbl (REGION=rgHotTbl, EXTENT_SIZE=128K);
         CREATE TABLE T (t_id NUMBER(3)) TABLESPACE tsHotTbl;",
        SimTime::ZERO,
    )
    .expect("the paper's example DDL must execute");

    let ts = ddl.tablespace("tsHotTbl").expect("tablespace registered");
    let info = noftl.region_info(ts.region).expect("region exists");
    assert_eq!(info.name, "rgHotTbl");
    // MAX_SIZE=1280M on 256 MiB dies resolves to 5 dies; MAX_CHIPS / MAX_CHANNELS
    // are looser bounds on this geometry.
    assert_eq!(info.dies.len(), 5);

    // The table is a real object: write it, crash-free read-back, stats.
    let table = ddl.table("T").expect("table registered");
    let mut now = SimTime::ZERO;
    for page in 0..128u64 {
        now = noftl.write(table, page, &vec![(page % 251) as u8; 4096], now).unwrap();
    }
    let mut data = vec![0; 4096];
    noftl.read(table, 99, &mut data, now).unwrap();
    assert_eq!(data, vec![99u8; 4096]);
    let stats = noftl.object_stats(table).unwrap();
    assert_eq!(stats.writes, 128);
    assert_eq!(stats.pages, 128);
    assert_eq!(stats.region, ts.region);

    // Die selection inside a region is not a DDL option: the clause is
    // refused by name and creates nothing.
    let err = ddl.run_script("CREATE REGION rg (DIES=2, PLACEMENT=QUEUE_AWARE)", now).unwrap_err();
    assert!(err.to_string().contains("unknown CREATE REGION option 'PLACEMENT'"), "{err}");
    assert!(noftl.region_id("rg").is_none());

    // Dropping the table frees its pages; dropping the region returns the dies.
    ddl.run_script("DROP TABLE T; DROP REGION rgHotTbl;", now).unwrap();
    assert!(noftl.region_id("rgHotTbl").is_none());
    assert_eq!(noftl.free_die_count(), device.geometry().total_dies());
}

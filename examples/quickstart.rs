//! Quickstart: create a native-flash device, define regions with the
//! paper's DDL, place a table in a tablespace bound to a region, and do
//! some I/O.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use std::sync::Arc;

use noftl_regions::flash::{DeviceBuilder, FlashBackend, FlashGeometry, SimTime, TimingModel};
use noftl_regions::noftl::{Ddl, NoFtl, NoFtlConfig};

fn main() {
    // 1. A simulated native flash device: 64 dies over 4 channels, 4 KiB pages.
    let device = Arc::new(
        DeviceBuilder::new(FlashGeometry::edbt_paper()).timing(TimingModel::mlc_2015()).build(),
    );
    println!(
        "device: {} dies, {} channels, {:.1} GiB raw capacity",
        device.geometry().total_dies(),
        device.geometry().channels,
        device.geometry().capacity_bytes() as f64 / (1 << 30) as f64
    );

    // 2. The NoFTL storage manager owns the physical address space.
    let noftl = NoFtl::new(device.clone(), NoFtlConfig::paper_defaults());

    // 3. The DBA speaks plain DDL — exactly the statements from the paper.
    let mut ddl = Ddl::new(&noftl);
    ddl.run_script(
        "CREATE REGION rgHotTbl (MAX_CHIPS=8, MAX_CHANNELS=4, MAX_SIZE=1280M);
         CREATE TABLESPACE tsHotTbl (REGION=rgHotTbl, EXTENT_SIZE=128K);
         CREATE TABLE T (t_id NUMBER(3)) TABLESPACE tsHotTbl;",
        SimTime::ZERO,
    )
    .expect("DDL executes");

    let region = ddl.tablespace("tsHotTbl").unwrap().region;
    let info = noftl.region_info(region).unwrap();
    println!(
        "region {} owns {} dies ({} pages of raw capacity)",
        info.name,
        info.dies.len(),
        info.capacity_pages
    );

    // 4. Write and read pages of table T through the storage manager.
    let table = ddl.table("T").unwrap();
    let mut now = SimTime::ZERO;
    for page in 0..64u64 {
        let data = vec![page as u8; 4096];
        now = noftl.write(table, page, &data, now).expect("write");
    }
    let mut data = vec![0; 4096];
    let done = noftl.read(table, 17, &mut data, now).expect("read");
    println!("page 17 read back correctly: {}", data == vec![17u8; 4096]);
    println!("64 writes + 1 read finished at simulated t = {done}");

    // 5. Every flash command is visible in the device statistics.
    let stats = device.stats();
    println!(
        "device stats: {} programs, {} reads, {} erases, {} copybacks, avg read {:.0} us, avg program {:.0} us",
        stats.page_programs,
        stats.page_reads,
        stats.block_erases,
        stats.copybacks,
        stats.avg_read_latency_us(),
        stats.avg_program_latency_us()
    );
}

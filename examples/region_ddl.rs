//! Region administration from the DBA's point of view: creating regions
//! with limits, binding tablespaces, growing/shrinking regions for global
//! wear leveling, and dropping them again.
//!
//! ```text
//! cargo run --example region_ddl
//! ```

use std::sync::Arc;

use noftl_regions::flash::{DeviceBuilder, FlashGeometry, SimTime, TimingModel};
use noftl_regions::noftl::{ddl, Ddl, NoFtl, NoFtlConfig};

fn main() {
    let device = Arc::new(
        DeviceBuilder::new(FlashGeometry::edbt_paper()).timing(TimingModel::mlc_2015()).build(),
    );
    let noftl = NoFtl::new(device.clone(), NoFtlConfig::paper_defaults());
    println!("free dies at start: {}", noftl.free_die_count());

    // Parse-only view of a statement.
    let stmt =
        ddl::parse_statement("CREATE REGION rgDemo (MAX_CHIPS=2, MAX_CHANNELS=2, MAX_SIZE=512M)")
            .expect("parses");
    println!("parsed: {stmt:?}");

    // Execute a small administration script.
    let mut executor = Ddl::new(&noftl);
    executor
        .run_script(
            "CREATE REGION rgHot (DIES=8);
             CREATE REGION rgCold (DIES=4);
             CREATE TABLESPACE tsHot (REGION=rgHot, EXTENT_SIZE=128K);
             CREATE TABLESPACE tsCold (REGION=rgCold, EXTENT_SIZE=1M);
             CREATE TABLE orders (o_id NUMBER(8), o_entry_d DATE) TABLESPACE tsHot;
             CREATE TABLE archive (a_id NUMBER(8), a_blob VARCHAR(256)) TABLESPACE tsCold;",
            SimTime::ZERO,
        )
        .expect("script executes");
    println!("free dies after CREATE REGION: {}", noftl.free_die_count());

    // Put some data into both tables.
    let orders = executor.table("orders").unwrap();
    let archive = executor.table("archive").unwrap();
    let mut now = SimTime::ZERO;
    for p in 0..256u64 {
        now = noftl.write(orders, p, &vec![1u8; 4096], now).unwrap();
        if p % 4 == 0 {
            now = noftl.write(archive, p / 4, &vec![2u8; 4096], now).unwrap();
        }
    }

    // Regions can change membership over time (the paper lists global wear
    // leveling as one reason): grow the hot region, shrink the cold one.
    let rg_hot = noftl.region_id("rgHot").unwrap();
    let rg_cold = noftl.region_id("rgCold").unwrap();
    noftl.grow_region(rg_hot, 2).unwrap();
    let done = noftl.shrink_region(rg_cold, 2, now).expect("data migrates off the removed dies");
    println!(
        "after rebalance: rgHot={} dies, rgCold={} dies (migration finished at {done})",
        noftl.region_info(rg_hot).unwrap().dies.len(),
        noftl.region_info(rg_cold).unwrap().dies.len(),
    );
    // The archived data survived the shrink.
    let mut data = vec![0; 4096];
    noftl.read(archive, 10, &mut data, done).unwrap();
    assert_eq!(data, vec![2u8; 4096]);
    println!("archive data intact after shrinking its region");

    // Region statistics per region.
    for rid in noftl.region_ids() {
        let info = noftl.region_info(rid).unwrap();
        let stats = noftl.region_stats(rid).unwrap();
        println!(
            "region {:<8} dies={:<2} host_writes={:<6} gc_copybacks={:<6} gc_erases={}",
            info.name,
            info.dies.len(),
            stats.host_writes,
            stats.gc_copybacks,
            stats.gc_erases
        );
    }

    // Clean up: drop the table and its region.
    let dropped =
        executor.run_script("DROP TABLE archive; DROP REGION rgCold;", done).expect("cleanup");
    println!(
        "free dies after DROP REGION: {} (its erases finished at {dropped})",
        noftl.free_die_count()
    );
}

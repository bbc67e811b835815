//! Demonstrates the core mechanism of the paper: separating hot and cold
//! data into different regions reduces garbage-collection copybacks and
//! erases compared with mixing them on the same dies.
//!
//! ```text
//! cargo run --release --example hot_cold_separation
//! ```

use std::sync::Arc;

use noftl_regions::flash::{
    DeviceBuilder, FlashBackend, FlashGeometry, NandDevice, SimTime, TimingModel,
};
use noftl_regions::noftl::{NoFtl, NoFtlConfig, RegionSpec};

/// Run a skewed update workload against two objects (one hot, one cold)
/// and report the device counters.
fn run(separate_regions: bool) -> (u64, u64, f64) {
    let geometry = FlashGeometry {
        channels: 2,
        chips_per_channel: 2,
        dies_per_chip: 2,
        planes_per_die: 1,
        blocks_per_plane: 64,
        pages_per_block: 32,
        page_size: 4096,
        oob_size: 64,
    };
    let device: Arc<NandDevice> =
        Arc::new(DeviceBuilder::new(geometry).timing(TimingModel::mlc_2015()).build());
    let noftl = NoFtl::new(device.clone(), NoFtlConfig::paper_defaults());
    let (hot_region, cold_region) = if separate_regions {
        (
            noftl.create_region(RegionSpec::named("rgHot").with_die_count(4)).unwrap(),
            noftl.create_region(RegionSpec::named("rgCold").with_die_count(4)).unwrap(),
        )
    } else {
        let all = noftl.create_region(RegionSpec::named("rgAll").with_die_count(8)).unwrap();
        (all, all)
    };
    let hot = noftl.create_object("hot_table", hot_region).unwrap();
    let cold = noftl.create_object("cold_table", cold_region).unwrap();

    let page = vec![0u8; 4096];
    let t = SimTime::ZERO;
    let hot_pages = 256u64;
    let cold_pages = 4_096u64;
    let mut cold_written = 0u64;
    // Interleave: a stream of cold inserts with constant hot updates, the
    // pattern TPC-C produces (ORDERLINE inserts vs. STOCK updates).
    for round in 0..200u64 {
        for p in 0..hot_pages / 4 {
            noftl.write(hot, (round * 13 + p) % hot_pages, &page, t).unwrap();
        }
        while cold_written < cold_pages && cold_written < (round + 1) * (cold_pages / 200) {
            noftl.write(cold, cold_written, &page, t).unwrap();
            cold_written += 1;
        }
    }
    let stats = device.stats();
    let wa = (stats.page_programs + stats.copybacks) as f64 / stats.page_programs.max(1) as f64;
    (stats.copybacks, stats.block_erases, wa)
}

fn main() {
    println!("skewed workload: hot updates interleaved with a cold insert stream\n");
    let (mixed_cb, mixed_er, mixed_wa) = run(false);
    let (sep_cb, sep_er, sep_wa) = run(true);
    println!(
        "{:<28} {:>12} {:>10} {:>20}",
        "placement", "copybacks", "erases", "write amplification"
    );
    println!(
        "{:<28} {:>12} {:>10} {:>20.3}",
        "mixed (single region)", mixed_cb, mixed_er, mixed_wa
    );
    println!("{:<28} {:>12} {:>10} {:>20.3}", "separated (two regions)", sep_cb, sep_er, sep_wa);
    let cb_delta = 100.0 * (mixed_cb as f64 - sep_cb as f64) / mixed_cb.max(1) as f64;
    let er_delta = 100.0 * (mixed_er as f64 - sep_er as f64) / mixed_er.max(1) as f64;
    println!("\nregion separation: {cb_delta:.1}% fewer copybacks, {er_delta:.1}% fewer erases");
    println!(
        "(the paper's Figure 3 reports ~20% fewer copybacks and ~4% fewer erases under TPC-C)"
    );
}

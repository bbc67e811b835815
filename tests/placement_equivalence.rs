//! Allocator equivalence harness, mirroring the PR 3 queue-equivalence
//! suite.
//!
//! The region allocator (`Space::allocate` in `noftl-core`'s `gc.rs`)
//! must reproduce the *seed* allocator byte-for-byte.  The golden digests
//! below were captured by running `workload_digest` against commit
//! `e591582`, where `allocate_in_region` striped over the region's dies
//! inline: for a deterministic mixed workload — single writes, queued
//! batches, overwrites deep enough to run GC, page frees — the full
//! device image (`DeviceSnapshot::encode`, which covers page states,
//! payloads, OOB records, wear and statistics) and the device write-epoch
//! counter must hash to exactly the same values ever since.
//!
//! The image CRC covers the statistics, and those hold latency sums and
//! queue depths: a change to the device's *timing* model moves it without
//! moving a single page.  Each golden therefore carries a second,
//! **placement-only** digest — the same image with `stats` and
//! `die_stats` blanked, i.e. every block's page states, payloads, OOB
//! records and wear plus the device epoch.  PR 18 (first-fit occupancy
//! timelines instead of `busy_until`) recorded the placement digests on
//! its parent tree, kept them green, and only then regenerated the image
//! CRCs.
//!
//! Regenerate with `NOFTL_PRINT_GOLDEN=1 cargo test --test
//! placement_equivalence -- --nocapture`: the placement digest *only*
//! when a change is meant to alter physical placement, the image CRC
//! also when it is meant to alter timing.

use std::sync::Arc;

use noftl_regions::flash::{
    DeviceBuilder, DeviceSnapshot, DeviceStats, DieStats, FlashGeometry, SimTime, TimingModel,
};
use noftl_regions::noftl::{NoFtl, NoFtlConfig, RegionSpec};

mod common;
use common::splitmix;

/// (seed, golden CRC32 of the device image, golden placement-only CRC32,
/// golden device epoch); see module docs.  The image CRCs were
/// `0x3BBE_9136`, `0xB1F0_FE68`, `0x70DC_2852` up to PR 17.
const GOLDEN: &[(u64, u32, u32, u64)] = &[
    (0x9E37_0001, 0x0574_0385, 0xD34F_9DDC, 984),
    (0x9E37_0002, 0xBFCF_7ED3, 0xF129_4BC1, 984),
    (0x9E37_0003, 0xCEF5_BCF8, 0x2A6C_81E4, 984),
];

fn page(b: u8) -> Vec<u8> {
    vec![b; 4096]
}

struct WorkloadRun {
    digest: u32,
    /// CRC of the image with the statistics blanked: placement only.
    placement: u32,
    epoch: u64,
    noftl: NoFtl,
    /// Live `(object, logical page) → value byte` expectation at the end.
    expected: std::collections::HashMap<(u32, u64), u8>,
    done: SimTime,
}

/// Run the deterministic mixed workload for `seed` and digest the device.
fn run_workload(seed: u64, config: NoFtlConfig) -> WorkloadRun {
    let device = Arc::new(
        DeviceBuilder::new(FlashGeometry::small_test()).timing(TimingModel::mlc_2015()).build(),
    );
    let noftl = NoFtl::new(device.clone(), config);
    let r = noftl.create_region(RegionSpec::named("rgEq").with_die_count(3)).unwrap();
    let a = noftl.create_object("a", r).unwrap();
    let b = noftl.create_object("b", r).unwrap();
    let geo = *device.geometry();
    // 60 % of the region's raw capacity, overwritten over several rounds,
    // so GC runs repeatedly while the workload is in flight.
    let working = 3 * geo.pages_per_die() * 6 / 10;
    let mut expected = std::collections::HashMap::new();
    let mut rng = seed;
    let mut t = SimTime::ZERO;
    for _round in 0..4u64 {
        // Single out-of-place writes to random logical pages of `a`.
        for _ in 0..working {
            let p = splitmix(&mut rng) % working;
            let v = (splitmix(&mut rng) % 251) as u8;
            t = noftl.write(a, p, &page(v), t).unwrap();
            expected.insert((a, p), v);
        }
        // A queued batch on `b` (the write_batch allocation path).
        let batch: Vec<(u32, u64, Vec<u8>)> = (0..16)
            .map(|_| {
                let p = splitmix(&mut rng) % 32;
                let v = (splitmix(&mut rng) % 251) as u8;
                expected.insert((b, p), v);
                (b, p, page(v))
            })
            .collect();
        t = noftl.write_batch(&batch, t).unwrap();
        // Free a few pages so invalidation accounting is exercised too.
        for _ in 0..4 {
            let p = splitmix(&mut rng) % working;
            noftl.free_page(a, p).unwrap();
            expected.remove(&(a, p));
        }
    }
    let stats = noftl.region_stats(r).unwrap();
    assert!(stats.gc_runs > 0, "seed {seed:#x}: the workload must trigger GC");
    // The image format ends with a CRC-32 over the entire payload; that
    // trailer *is* the digest of the full device state.  (Hashing the
    // whole image would always yield the CRC residue constant.)
    let snapshot = device.snapshot();
    let digest = image_crc(&snapshot);
    let placement = image_crc(&DeviceSnapshot {
        stats: DeviceStats::default(),
        die_stats: vec![DieStats::default(); snapshot.die_stats.len()],
        ..snapshot
    });
    let epoch = device.current_epoch();
    WorkloadRun { digest, placement, epoch, noftl, expected, done: t }
}

fn image_crc(snapshot: &DeviceSnapshot) -> u32 {
    let image = snapshot.encode();
    u32::from_le_bytes(image[image.len() - 4..].try_into().expect("4 bytes"))
}

#[test]
fn round_robin_reproduces_the_seed_allocator_byte_for_byte() {
    let print = std::env::var("NOFTL_PRINT_GOLDEN").is_ok();
    for (seed, golden_crc, golden_placement, golden_epoch) in GOLDEN {
        let run = run_workload(*seed, NoFtlConfig::default());
        if print {
            println!(
                "    ({seed:#x}, {:#010x}, {:#010x}, {}),",
                run.digest, run.placement, run.epoch
            );
            continue;
        }
        assert_eq!(
            (run.placement, run.epoch),
            (*golden_placement, *golden_epoch),
            "seed {seed:#x}: placement diverged from the seed allocator"
        );
        assert_eq!(
            run.digest, *golden_crc,
            "seed {seed:#x}: same placement, but the image's statistics (timing) moved"
        );
        // The digests pin the physical image; the translations must agree
        // with it: every live logical page reads back its latest value.
        for ((obj, p), v) in &run.expected {
            let (data, _) = run.noftl.read(*obj, *p, run.done).unwrap();
            assert_eq!(data, page(*v), "seed {seed:#x}: object {obj} page {p}");
        }
    }
}

#[test]
fn identical_runs_produce_identical_images() {
    // Determinism backstop for the digests above: two runs of the same
    // seed agree bit-for-bit, so a golden mismatch is a real placement
    // change, never noise.
    let r1 = run_workload(0xD1CE, NoFtlConfig::default());
    let r2 = run_workload(0xD1CE, NoFtlConfig::default());
    assert_eq!((r1.digest, r1.epoch), (r2.digest, r2.epoch));
}

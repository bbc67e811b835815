//! Allocator equivalence harness, mirroring the PR 3 queue-equivalence
//! suite.
//!
//! The region allocator (`Space::allocate` in `noftl-core`'s `gc.rs`)
//! must reproduce the *seed* allocator byte-for-byte.  The golden digests
//! below were captured by running `workload_digest` against commit
//! `e591582`, where `allocate_in_region` striped over the region's dies
//! inline: for a deterministic mixed workload — single writes, queued
//! batches, overwrites deep enough to run GC, page frees — the device
//! image and the device write-epoch counter must hash to exactly the same
//! values ever since.
//!
//! Each golden carries two digests.  The **placement** digest is the CRC
//! of the `NFLIMG04` image (`NandDevice::image`): every block's bad flag,
//! write pointer, invalid flags, payloads, OOB records and wear plus the
//! device epoch.  The
//! **timing** digest is a CRC of the live device's counters
//! (`stats()` and `die_stats()`), which hold latency sums and queue
//! depths: a change to the device's *timing* model moves it without
//! moving a single page.  PR 18 (first-fit occupancy timelines instead of
//! `busy_until`) recorded the placement digests on its parent tree, kept
//! them green, and only then regenerated the timing digests.
//!
//! PR 22 moved both on purpose: GC relocates a quantum of its victim per
//! host allocation instead of two blocks in one burst, so host pages and
//! relocated pages interleave differently in time and a victim chosen
//! later is a different block — the *order* of GC changes physical
//! placement.  The epochs (984 programs) did not move.  Both digests of
//! all three seeds were regenerated by the procedure below after the
//! read-back check at the end of the test passed on the new images.
//!
//! The die-time stripe moved both again, for the same kind of reason: a
//! region now stripes its pages by the die time it has issued on each
//! die, so the page whose allocation ran a GC step goes to a die that did
//! not just run it, and the dies a step put ahead take no page until the
//! others catch up.  Without GC the stripe is still round-robin, but this
//! workload collects throughout.  The epochs (984 programs) did not move;
//! both digests of all three seeds were regenerated by the procedure
//! below once every live page of the new images read back its latest
//! value (from `0x856F_360B` / `0x6E68_DD8F`, `0x87DD_54FB` /
//! `0xD2F0_F3A5` and `0x096D_22A8` / `0xCF87_150E`).
//!
//! The move to `NFLIMG03` (an image without counters) moved both digests
//! without moving a page: their values were recorded on that change's
//! parent, by encoding its device in the `NFLIMG03` layout with a
//! test-local encoder and hashing its live counters as below, and the
//! change reproduces them.  The move to `NFLIMG04` (no block or page
//! state tags, which follow from the write pointer, and no payload length
//! or padding) moved the placement digests the same way, from
//! `0x2D41_FCBA`, `0x6B3A_E887` and `0x565F_C12E`: on that change's
//! parent, a digest of every block's `block_info`, page states and
//! readable pages' bytes and OOB equalled the change's, and its device
//! encoded in the `NFLIMG04` layout gave the values below.  The timing
//! digests did not move.
//!
//! Regenerate with `NOFTL_PRINT_GOLDEN=1 cargo test --test
//! placement_equivalence -- --nocapture`: the placement digest *only*
//! when a change is meant to alter physical placement or the image
//! format, the timing digest also when it is meant to alter timing.

use std::sync::Arc;

use noftl_regions::flash::{
    crc32, DeviceBuilder, FlashBackend, FlashGeometry, SimTime, TimingModel,
};
use noftl_regions::noftl::crash::SplitMix64;
use noftl_regions::noftl::{IoRequest, NoFtl, NoFtlConfig, RegionSpec};

/// (seed, golden timing CRC32, golden placement CRC32, golden device
/// epoch); see module docs.  Under `NFLIMG02`, whose image held the
/// counters, the digests were a CRC of the full image and a CRC of the
/// image with its counters blanked: `0x9946_4C23` / `0x00BF_A14B`,
/// `0x4E33_DBB2` / `0x1AFE_15A6`, `0x7171_F78D` / `0x6E5B_5692`.
const GOLDEN: &[(u64, u32, u32, u64)] = &[
    (0x9E37_0001, 0x7A3B_3DD0, 0xC307_06DB, 984),
    (0x9E37_0002, 0xB25A_FF57, 0x9A8C_6DFE, 984),
    (0x9E37_0003, 0xEF9D_9F21, 0x876F_B892, 984),
];

fn page(b: u8) -> Vec<u8> {
    vec![b; 4096]
}

struct WorkloadRun {
    /// CRC of the live device's counters: timing.
    timing: u32,
    /// CRC of the device image: placement.
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
    let mut rng = SplitMix64(seed);
    let mut t = SimTime::ZERO;
    for _round in 0..4u64 {
        // Single out-of-place writes to random logical pages of `a`.
        for _ in 0..working {
            let p = rng.next_u64() % working;
            let v = (rng.next_u64() % 251) as u8;
            t = noftl.write(a, p, &page(v), t).unwrap();
            expected.insert((a, p), v);
        }
        // A queued batch on `b` (the fan-out `execute` allocation path).
        let batch: Vec<(u32, u64, Vec<u8>)> = (0..16)
            .map(|_| {
                let p = rng.next_u64() % 32;
                let v = (rng.next_u64() % 251) as u8;
                expected.insert((b, p), v);
                (b, p, page(v))
            })
            .collect();
        let requests = batch.iter().map(|(obj, p, data)| IoRequest::write(*obj, *p, data));
        t = noftl.execute(requests, t, usize::MAX, |_, _| Ok(())).unwrap();
        // Free a few pages so invalidation accounting is exercised too.
        for _ in 0..4 {
            let p = rng.next_u64() % working;
            noftl.free_page(a, p).unwrap();
            expected.remove(&(a, p));
        }
    }
    let stats = noftl.region_stats(r).unwrap();
    assert!(stats.gc_runs > 0, "seed {seed:#x}: the workload must trigger GC");
    // The image format ends with a CRC-32 over the entire payload; that
    // trailer *is* the digest of the device state.  (Hashing the whole
    // image would always yield the CRC residue constant.)
    let image = device.image();
    let placement = u32::from_le_bytes(image[image.len() - 4..].try_into().expect("4 bytes"));
    let timing = crc32(format!("{:?}", (device.stats(), device.die_stats())).as_bytes());
    let epoch = device.current_epoch();
    WorkloadRun { timing, placement, epoch, noftl, expected, done: t }
}

#[test]
fn round_robin_reproduces_the_seed_allocator_byte_for_byte() {
    let print = std::env::var("NOFTL_PRINT_GOLDEN").is_ok();
    for (seed, golden_timing, golden_placement, golden_epoch) in GOLDEN {
        let run = run_workload(*seed, NoFtlConfig::default());
        if print {
            println!(
                "    ({seed:#x}, {:#010x}, {:#010x}, {}),",
                run.timing, run.placement, run.epoch
            );
            continue;
        }
        assert_eq!(
            (run.placement, run.epoch),
            (*golden_placement, *golden_epoch),
            "seed {seed:#x}: placement diverged from the seed allocator"
        );
        assert_eq!(
            run.timing, *golden_timing,
            "seed {seed:#x}: same placement, but the device's statistics (timing) moved"
        );
        // The digests pin the physical image; the translations must agree
        // with it: every live logical page reads back its latest value.
        for ((obj, p), v) in &run.expected {
            let mut data = vec![0; 4096];
            run.noftl.read(*obj, *p, &mut data, run.done).unwrap();
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
    assert_eq!((r1.placement, r1.timing, r1.epoch), (r2.placement, r2.timing, r2.epoch));
}

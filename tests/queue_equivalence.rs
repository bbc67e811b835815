//! Command-path acceptance tests above the device.
//!
//! Three properties are checked here (that `execute` and the per-command
//! verbs agree is `crates/flash/tests/command_path.rs`'s job):
//!
//! 1. **Concurrency** — threads issuing commands to disjoint dies of one
//!    shared device produce exactly the per-die timings of a
//!    single-threaded run: a thread's timings depend on the simulated
//!    instants of its commands, not on how the host interleaves the
//!    threads on the device's one lock.
//! 2. **Crash interaction** — with a power cut armed, a batch issued at
//!    one instant tears exactly the commands whose scheduled completion
//!    exceeds the cut instant, and a NoFTL mount after the cut keeps
//!    every committed page while discarding the torn ones.
//! 3. **One request path** — at the storage-manager level every
//!    multi-page verb is a loop over the same per-request core: a batch
//!    equals the same blocking writes issued at the same instant, and a
//!    window of one equals chained blocking calls — device image,
//!    per-region statistics and completion times alike.
//!
//! (The file keeps its name because the tier-1 floor lists its tests by
//! path.)

use std::sync::Arc;

use proptest::prelude::*;

use noftl_regions::flash::{
    DeviceBuilder, DeviceStats, DieId, FlashBackend, FlashCommand, FlashGeometry, IoTag,
    NandDevice, PageAddr, PageMetadata, SimTime, TimingModel,
};
use noftl_regions::noftl::crash::{self, SplitMix64};
use noftl_regions::noftl::{
    IoRequest, NoFtl, NoFtlConfig, ObjectId, RegionId, RegionSpec, RegionStats,
};

fn device() -> NandDevice {
    DeviceBuilder::new(FlashGeometry::small_test()).timing(TimingModel::mlc_2015()).build()
}

/// Threads issuing commands to disjoint dies of one shared device get the
/// same per-die completion times as a single-threaded run: the host
/// serializes their commands on the device lock in whatever order it
/// picks, but a command's timing depends only on its simulated issue
/// instant and what is reserved on its die and channel.
#[test]
fn concurrent_disjoint_die_reads_do_not_serialize() {
    let geo = FlashGeometry::small_test();
    let prep = |dev: &NandDevice| {
        for die in 0..geo.total_dies() {
            for p in 0..geo.pages_per_block {
                let addr = PageAddr::new(DieId(die), 0, 0, p);
                let data = vec![(die ^ p) as u8; geo.page_size as usize];
                dev.program_page(addr, &data, PageMetadata::new(1, p as u64), SimTime::ZERO)
                    .unwrap();
            }
        }
    };
    let read_die = move |dev: &NandDevice, die: u32, at: SimTime| -> Vec<SimTime> {
        (0..geo.pages_per_block)
            .map(|p| {
                let addr = PageAddr::new(DieId(die), 0, 0, p);
                let read = FlashCommand::Read { addr, data: &mut [] };
                dev.execute(read, at, IoTag::default()).unwrap().outcome.completed_at
            })
            .collect()
    };

    // Single-threaded reference.
    let ref_dev = device();
    prep(&ref_dev);
    let t0 = ref_dev.quiesce_time();
    let expect0 = read_die(&ref_dev, 0, t0);
    let expect2 = read_die(&ref_dev, 2, t0);

    // Two threads on dies of different channels, one shared device.
    let dev = device();
    prep(&dev);
    let (got0, got2) = std::thread::scope(|s| {
        let ta = s.spawn(|| read_die(&dev, 0, t0));
        let tb = s.spawn(|| read_die(&dev, 2, t0));
        (ta.join().unwrap(), tb.join().unwrap())
    });
    assert_eq!(got0, expect0, "die 0 timings must match the single-threaded run");
    assert_eq!(got2, expect2, "die 2 timings must match the single-threaded run");
}

/// With a power cut armed, a fan-out batch issued at one instant tears
/// exactly the commands whose scheduled completion exceeds the cut.
#[test]
fn power_cut_tears_exactly_the_late_queued_programs() {
    let geo = FlashGeometry::small_test();
    // Two programs per die (depth 2 everywhere), all issued at t=0.
    let pages: Vec<Vec<u8>> =
        (0..2 * geo.total_dies()).map(|i| vec![i as u8; geo.page_size as usize]).collect();
    let issue_batch = |dev: &NandDevice| -> Vec<_> {
        (0..2 * geo.total_dies())
            .map(|i| {
                let die = i % geo.total_dies();
                let page = i / geo.total_dies();
                let data = &pages[i as usize];
                let program = FlashCommand::Program {
                    addr: PageAddr::new(DieId(die), 0, 0, page),
                    data,
                    meta: PageMetadata::new(1, i as u64).with_payload_checksum(data),
                };
                dev.execute(program, SimTime::ZERO, IoTag::default())
            })
            .collect()
    };

    // Probe run (no cut) to learn every command's completion time.
    let completions: Vec<SimTime> = issue_batch(&device())
        .into_iter()
        .map(|result| result.unwrap().outcome.completed_at)
        .collect();
    let earliest = *completions.iter().min().unwrap();
    let latest = *completions.iter().max().unwrap();
    assert!(earliest < latest, "queue depth 2 must stagger completions");
    // Cut strictly between the first and second wave.
    let cut = SimTime((earliest.as_nanos() + latest.as_nanos()) / 2);

    let dev = device();
    dev.arm_power_cut(cut);
    let mut survived = 0;
    for (i, result) in issue_batch(&dev).into_iter().enumerate() {
        if completions[i] <= cut {
            let out = result.unwrap_or_else(|e| {
                panic!("op {i} completing at {:?} <= cut {cut:?} must survive: {e}", completions[i])
            });
            assert_eq!(out.outcome.completed_at, completions[i]);
            survived += 1;
        } else {
            let err = result.expect_err("op completing after the cut must tear");
            assert!(err.is_power_loss(), "op {i}: {err}");
        }
    }
    assert_eq!(survived, geo.total_dies() as usize, "exactly the first wave survives");
}

/// A power cut mid-`write_batch` at the storage-manager level: the
/// committed prefix survives a reboot + mount, torn pages are discarded,
/// and the recovered manager serves the pre-crash versions.
#[test]
fn queued_write_batch_under_power_cut_mounts_cleanly() {
    let dev = Arc::new(device());
    let noftl = NoFtl::new(dev.clone(), NoFtlConfig::default());
    let rg = noftl.create_region(RegionSpec::named("rg").with_die_count(4)).unwrap();
    let obj = noftl.create_object("t", rg).unwrap();
    let psz = dev.geometry().page_size as usize;
    let page = |b: u8| vec![b; psz];

    // Base versions of 8 pages, checkpointed so the device mounts.
    let mut t = SimTime::ZERO;
    for p in 0..8u64 {
        t = noftl.write(obj, p, &page(0x10 + p as u8), t).unwrap();
    }
    t = noftl.checkpoint(t).unwrap();

    // Overwrite all 8 via one batch with a cut landing mid-batch:
    // two waves of 4 (one per die); tear the second wave.
    let quiesce = dev.quiesce_time();
    let probe_dev = Arc::new(device());
    let probe = NoFtl::new(probe_dev.clone(), NoFtlConfig::default());
    let prg = probe.create_region(RegionSpec::named("rg").with_die_count(4)).unwrap();
    let pobj = probe.create_object("t", prg).unwrap();
    let first_done = probe.write(pobj, 0, &page(1), SimTime::ZERO).unwrap();
    let span = first_done.as_nanos();
    let cut = SimTime(quiesce.as_nanos() + span * 3 / 2);
    dev.arm_power_cut(cut);

    let pages: Vec<Vec<u8>> = (0..8u8).map(|p| page(0x40 + p)).collect();
    let batch = pages.iter().enumerate().map(|(p, data)| IoRequest::write(obj, p as u64, data));
    let err = noftl.execute(batch, quiesce, usize::MAX, |_, _| Ok(())).unwrap_err();
    assert!(matches!(err, noftl_regions::noftl::NoFtlError::Flash(e) if e.is_power_loss()));

    // Power-cycle and mount.
    let dev2 = crash::power_cycle(&dev).unwrap();
    let (mounted, report) = NoFtl::mount(dev2, t).unwrap();
    assert!(report.torn_pages_discarded > 0, "the cut must have torn part of the batch");
    // Every page reads as either its base version or its batch version —
    // never a torn mix (the checksum would have discarded it).
    let done = report.completed_at;
    let mut new_versions = 0;
    for p in 0..8u64 {
        let mut data = vec![0; 4096];
        mounted.read(obj, p, &mut data, done).unwrap();
        let old = page(0x10 + p as u8);
        let new = page(0x40 + p as u8);
        assert!(data == old || data == new, "page {p} must be one complete version");
        new_versions += usize::from(data == new);
    }
    assert!(new_versions >= 1, "the first wave of the batch completed before the cut");
    assert!(new_versions < 8, "the cut must have prevented part of the batch");
}

/// A two-region manager small enough that a few hundred writes make GC
/// fire: `rgA` over two dies holding two objects, `rgB` over one die
/// holding a third.
fn two_region_stack() -> (Arc<NandDevice>, NoFtl, [RegionId; 2], [ObjectId; 3]) {
    let dev = Arc::new(device());
    let noftl = NoFtl::new(dev.clone(), NoFtlConfig::default());
    let a = noftl.create_region(RegionSpec::named("rgA").with_die_count(2)).unwrap();
    let b = noftl.create_region(RegionSpec::named("rgB").with_die_count(1)).unwrap();
    let objects = [
        noftl.create_object("a0", a).unwrap(),
        noftl.create_object("a1", a).unwrap(),
        noftl.create_object("b0", b).unwrap(),
    ];
    (dev, noftl, [a, b], objects)
}

/// Rounds of random writes over `two_region_stack`'s objects.  Each
/// object keeps to a small set of hot pages, so blocks fill with
/// overwritten versions and GC has to run.
fn generate_rounds(seed: u64, rounds: usize, psz: usize) -> Vec<Vec<(usize, u64, Vec<u8>)>> {
    let mut rng = SplitMix64(seed);
    (0..rounds)
        .map(|_| {
            let len = 1 + (rng.next_u64() % 32) as usize;
            (0..len)
                .map(|_| {
                    let obj = (rng.next_u64() % 3) as usize;
                    let page = rng.next_u64() % 20;
                    (obj, page, vec![(rng.next_u64() & 0xFF) as u8; psz])
                })
                .collect()
        })
        .collect()
}

/// Everything two runs of one workload must agree on: the device image,
/// the live device's counters and the per-region statistics.
fn outcome(
    dev: &NandDevice,
    noftl: &NoFtl,
    regions: [RegionId; 2],
) -> (Vec<u8>, DeviceStats, Vec<RegionStats>) {
    let regions = regions.iter().map(|r| noftl.region_stats(*r).unwrap()).collect();
    (dev.image(), dev.stats(), regions)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// A fan-out `execute(.., at, usize::MAX, ..)` of writes is the same
    /// blocking `write`s all issued at `at`: same device image (placement,
    /// GC, epochs), same per-region statistics, and the batch completes
    /// with its slowest page.
    #[test]
    fn write_batch_equals_blocking_writes_at_one_instant(
        seed in 0u64..(1u64 << 48),
        rounds in 40usize..60,
    ) {
        let psz = FlashGeometry::small_test().page_size as usize;
        let workload = generate_rounds(seed, rounds, psz);

        let (bdev, batched, bregions, bobjs) = two_region_stack();
        let (sdev, single, sregions, sobjs) = two_region_stack();
        let (mut bt, mut st) = (SimTime::ZERO, SimTime::ZERO);
        for round in &workload {
            let batch = round.iter().map(|(o, p, d)| IoRequest::write(bobjs[*o], *p, d));
            bt = batched.execute(batch, bt, usize::MAX, |_, _| Ok(())).unwrap();
            let at = st;
            for (o, p, d) in round {
                st = st.max(single.write(sobjs[*o], *p, d, at).unwrap());
            }
            prop_assert_eq!(bt, st, "batch completion is the max over its pages");
        }
        let gc_runs: u64 =
            bregions.iter().map(|r| batched.region_stats(*r).unwrap().gc_runs).sum();
        prop_assert!(gc_runs > 0, "the workload must make GC fire");
        let (a, b) = (outcome(&bdev, &batched, bregions), outcome(&sdev, &single, sregions));
        prop_assert!(a.0 == b.0, "device images differ");
        prop_assert_eq!(a.1, b.1);
        prop_assert_eq!(a.2, b.2);
    }

    /// `execute` with a window of one — of writes, then of reads — is
    /// chained blocking calls: each page issued at the previous one's
    /// completion.
    #[test]
    fn a_window_of_one_equals_chained_blocking_calls(
        seed in 0u64..(1u64 << 48),
        rounds in 40usize..60,
    ) {
        let psz = FlashGeometry::small_test().page_size as usize;
        let workload = generate_rounds(seed, rounds, psz);

        let (wdev, windowed, wregions, wobjs) = two_region_stack();
        let (cdev, chained, cregions, cobjs) = two_region_stack();
        let (mut wt, mut ct) = (SimTime::ZERO, SimTime::ZERO);
        for round in &workload {
            let batch = round.iter().map(|(o, p, d)| IoRequest::write(wobjs[*o], *p, d));
            wt = windowed.execute(batch, wt, 1, |_, _| Ok(())).unwrap();
            for (o, p, d) in round {
                ct = chained.write(cobjs[*o], *p, d, ct).unwrap();
            }
            prop_assert_eq!(wt, ct);

            let reads = round.iter().map(|(o, p, _)| IoRequest::read(wobjs[*o], *p));
            let mut payloads = Vec::new();
            wt = windowed
                .execute(reads, wt, 1, |_, data| {
                    payloads.push(data.to_vec());
                    Ok(())
                })
                .unwrap();
            for ((o, p, _), payload) in round.iter().zip(&payloads) {
                let mut data = vec![0; 4096];
                let done = chained.read(cobjs[*o], *p, &mut data, ct).unwrap();
                prop_assert_eq!(&data, payload);
                ct = done;
            }
            prop_assert_eq!(wt, ct);
        }
        let (a, b) = (outcome(&wdev, &windowed, wregions), outcome(&cdev, &chained, cregions));
        prop_assert!(a.0 == b.0, "device images differ");
        prop_assert_eq!(a.1, b.1);
        prop_assert_eq!(a.2, b.2);
    }
}

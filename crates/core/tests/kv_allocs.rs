//! Allocation budget of the NoFTL-KV data path.
//!
//! The memtable keeps every entry's bytes in one arena and its order in a
//! vector of slots, and both keep their capacity across flushes.  A get
//! lends the value to a closure, borrowed from the memtable or from the
//! run page the store keeps for gets (`KvStore::get_with`).  A flush is
//! one merge: it reads the runs it merges, through one read pipeline, into
//! a page arena the store keeps, and merges their entries and the
//! memtable's where they lie into a page buffer the store keeps.  So,
//! once a warm-up has flushed and compacted:
//!
//! * a get that hits the memtable, hits a run or misses allocates nothing;
//! * a put that does not flush allocates nothing;
//! * a flush allocates a constant per run it writes — the run's name,
//!   formatted and then copied into its object-directory entry, its
//!   descriptor (largest key, fences, filter), its page map — plus what its checkpoint allocates, which depends on the
//!   directory and not on the run, and a flush that merges runs adds a
//!   constant, whatever the number of runs or levels it merges (the read
//!   pipeline's page buffer and window, the merge's cursors).  So two like
//!   stores whose flushes differ only in size allocate the same count, and
//!   so do a merge of one level and one of two.
//!
//! Two things the data grows are kept out of the counted windows.  Every
//! block of the device has held a payload once before the store is built,
//! so no program allocates a block's payload buffer.  And the storage
//! manager's page map of a run object doubles as the run's pages are
//! mapped, so the runs measured against each other fill the same number
//! of doublings.
//!
//! The counting allocator is `tests/common/counting_alloc.rs` (per thread).
//! CI runs this in `--release`, where the claim matters.

#[path = "../../../tests/common/counting_alloc.rs"]
pub mod counting_alloc;

use std::sync::Arc;

use counting_alloc::counted;
use flash_sim::{
    BlockAddr, DeviceBuilder, FlashBackend, FlashCommand, FlashGeometry, IoTag, PageMetadata,
    SimTime, TimingModel,
};
use noftl_core::{KvConfig, KvStore, NoFtl, NoFtlConfig, RegionSpec};

/// Key `i` of the workload.
fn key(i: u64) -> [u8; 12] {
    let mut key = *b"user00000000";
    for (pos, digit) in key[4..].iter_mut().rev().enumerate() {
        *digit = b'0' + (i / 10u64.pow(pos as u32) % 10) as u8;
    }
    key
}

/// The value of key `i` written in `round`.
fn value(i: u64, round: u64) -> [u8; 100] {
    let mut value = [b'v'; 100];
    value[..8].copy_from_slice(&i.to_le_bytes());
    value[8..16].copy_from_slice(&round.to_le_bytes());
    value
}

/// A store on a device whose every block has held a payload once, with a
/// threshold no test reaches, so only explicit flushes write runs, and
/// the storage manager under it.
#[expect(
    clippy::unwrap_used,
    clippy::disallowed_methods,
    reason = "cycles the bare device before a manager owns it; a failed step fails the test"
)]
fn cold_store() -> (Arc<NoFtl>, KvStore, SimTime) {
    let geometry = FlashGeometry { blocks_per_plane: 64, ..FlashGeometry::small_test() };
    let device = Arc::new(DeviceBuilder::new(geometry).timing(TimingModel::mlc_2015()).build());
    let page = vec![0xC3; geometry.page_size as usize];
    let mut t = SimTime::ZERO;
    for die in geometry.dies() {
        for block in (0..geometry.blocks_per_plane).map(|b| BlockAddr::new(die, 0, b)) {
            let meta = PageMetadata::new(1, 0);
            let program = FlashCommand::Program { addr: block.page(0), data: &page, meta };
            t = device.execute(program, t, IoTag::default()).unwrap().outcome.completed_at;
            let erase = FlashCommand::Erase { block };
            t = device.execute(erase, t, IoTag::default()).unwrap().outcome.completed_at;
        }
    }
    let noftl = Arc::new(NoFtl::new(device, NoFtlConfig::default()));
    let rid = noftl.create_region(RegionSpec::named("rgKv").with_die_count(3)).unwrap();
    let config = KvConfig { memtable_bytes: 1 << 20 };
    let (kv, t) = KvStore::create(Arc::clone(&noftl), rid, "s", config, t).unwrap();
    (noftl, kv, t)
}

/// [`cold_store`] warmed up by ten flushes: two compactions have merged
/// eight of them into level 1, and two runs of keys `0..40` are left in
/// level 0.
fn warm_store() -> (KvStore, SimTime) {
    let (_, kv, mut t) = cold_store();
    // The first run is the largest: it grows the kept buffers to what the
    // measured flushes and compactions need.
    flush_of(&kv, 0..100, 0, &mut t);
    for round in 1..10 {
        flush_of(&kv, 0..40, round, &mut t);
    }
    let stats = kv.stats();
    assert_eq!((stats.flushes, stats.compactions, kv.run_count()), (10, 2, 4));
    (kv, t)
}

/// Put keys `keys` with `round`'s values, then flush: the allocations of
/// the flush alone.
#[expect(clippy::unwrap_used, reason = "a failed put or flush fails the test")]
fn flush_of(kv: &KvStore, keys: std::ops::Range<u64>, round: u64, t: &mut SimTime) -> u64 {
    for i in keys {
        *t = kv.put(&key(i), &value(i, round), *t).unwrap();
    }
    let (done, used) = counted(|| kv.flush(*t));
    *t = done.unwrap();
    used.allocs
}

#[test]
fn warm_gets_and_puts_allocate_nothing() {
    let (kv, mut t) = warm_store();
    t = kv.put(&key(3), &value(3, 99), t).unwrap();
    let gets: [(&[u8], &str, Option<u8>); 3] = [
        (&key(3), "a memtable hit", Some(99)),
        (&key(7), "a run hit", Some(9)),
        (b"user00000007+", "a miss", None),
    ];
    let reads = kv.stats().get_page_reads;
    for (k, what, expected) in gets {
        let (got, used) = counted(|| kv.get_with(k, t, |v| v.map(|v| v[8])));
        let (round, done) = got.unwrap();
        t = done;
        assert_eq!(round, expected, "the value of {what}");
        assert_eq!(used.allocs, 0, "allocations of {what}");
    }
    assert!(kv.stats().get_page_reads > reads, "the run hit read a page");
    for (i, what) in [(5, "a key in the runs"), (41, "a new key"), (3, "a key in the memtable")] {
        let (done, used) = counted(|| kv.put(&key(i), &value(i, 99), t));
        t = done.unwrap();
        assert_eq!(used.allocs, 0, "allocations of a put of {what} that does not flush");
    }
}

#[test]
fn a_flush_and_its_compaction_allocate_the_same_whatever_their_sizes() {
    // Each of two like stores writes a third level-0 run, then a fourth,
    // which compacts level 0; the first store's runs hold fewer keys.  The
    // merged runs keep within the page map's first four pages.
    let [small, large] = [(0..10, 100..110), (0..40, 100..150)].map(|(third, fourth)| {
        let (kv, mut t) = warm_store();
        let flush = flush_of(&kv, third, 10, &mut t);
        assert_eq!(kv.stats().compactions, 2, "the third run does not compact");
        let compacting = flush_of(&kv, fourth, 11, &mut t);
        let stats = kv.stats();
        assert_eq!(stats.compactions, 3, "the fourth run compacts");
        (flush, compacting, stats.flushed_pages, stats.compacted_pages)
    });
    assert!(small.2 < large.2 && small.3 < large.3, "{small:?} vs {large:?}: sizes differ");
    assert_eq!(small.0, large.0, "allocations of flushes of 10 and 40 keys");
    assert_eq!(small.1, large.1, "allocations of flushes and compactions of 50 and 90 keys");
}

#[test]
fn a_cascade_allocates_the_same_whatever_its_depth() {
    // Two like stores whose first flush is the largest and every later one
    // puts keys `0..80`.  After 43 flushes levels 0, 1 and 2 hold 3, 2 and
    // 2 runs (43 is 223 in base 4), so the 44th merges level 0 into level
    // 1; after 31 (133 in base 4) the 32nd merges levels 0 and 1 into
    // level 2.  Both merges read more pages than the read window holds,
    // write a run of four pages and checkpoint a directory of nine objects
    // (the sources are retired after it, and the next flush's checkpoint
    // records that).
    let [shallow, deep] = [(43, 1), (31, 2)].map(|(flushes, depth)| {
        let (noftl, kv, mut t) = cold_store();
        // The manager's object table holds one object per run ever
        // written; one more keeps the 32nd run off its doubling.
        assert!(noftl.create_object_in("pad", "rgKv").is_ok());
        flush_of(&kv, 0..100, 0, &mut t);
        for round in 1..flushes {
            flush_of(&kv, 0..80, round, &mut t);
        }
        let before = kv.stats();
        let cascade = flush_of(&kv, 0..80, flushes, &mut t);
        let after = kv.stats();
        assert_eq!(after.compacted_runs - before.compacted_runs, 3 * depth, "depth {depth}");
        cascade
    });
    assert_eq!(shallow, deep, "allocations of a depth-1 cascade and a depth-2 one");
}

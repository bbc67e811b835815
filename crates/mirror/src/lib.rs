//! `noftl-mirror`: mirrored regions with online rebuild.
//!
//! A nexus-style replication layer over 2+ simulated NAND devices
//! ([`flash_sim::NandDevice`]), presented to the rest of the stack as a
//! single [`flash_sim::FlashBackend`] — `noftl-core` mounts a
//! [`MirrorDevice`] exactly like a bare device.
//!
//! * **One in-sync rule** says which children a command on a segment may
//!   touch: an `Online` child takes it, a `Faulted` one skips it, and a
//!   `Rebuilding` one takes it only if every segment it reads or writes
//!   is clean and not being copied.  A child that skips goes stale for
//!   the segment written.
//! * **Writes** (program, erase, copyback, invalidation, retirement) go
//!   to every child the rule admits, timed ones at the same submit
//!   instant, so the children stay page-for-page identical.
//! * **Reads** are served by a child that would take a write of the
//!   page's segment, picked queue-aware (earliest start on the target
//!   die) with a round-robin tie-break.
//! * **Device loss** (via [`flash_sim::DeviceLossInjector`]) drives a
//!   per-child health machine `Online → Faulted → Rebuilding → Online`:
//!   the first timed command at or after a child's loss instant faults
//!   it.  While a child is out, a [`SegmentMap`] — a bitmap with one bit
//!   per erase block — records exactly which segments it missed; a child
//!   with unknown history has no map, and every segment counts as stale.
//! * **Online rebuild** drains the dirty map segment by segment while
//!   foreground traffic continues, protected by write-vs-rebuild range
//!   locks: a write into an already-copied segment is applied, while one
//!   that races an in-flight copy skips the child and redirties the
//!   segment instead of colliding with it.
//! * **Persistence**: the mirror's health + segment maps travel inside
//!   the checkpoint as an opaque replication blob ([`MirrorBlob`],
//!   CRC-guarded).  A torn blob degrades to "rebuild everything" —
//!   never to silent staleness — and a valid one is cross-checked
//!   against the devices at mount by a shape-and-OOB verify scan, so
//!   writes that landed after the checkpoint are found too.

#![warn(missing_docs)]

mod device;
mod health;
mod obs;
mod rebuild;
mod segmap;

pub use device::MirrorDevice;
pub use health::ChildHealth;
pub use obs::TRACK_MIRROR;
pub use rebuild::{RebuildReport, SegmentCopy};
pub use segmap::{ChildBlob, MirrorBlob, SegmentMap, BLOB_MAGIC};

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use flash_sim::{
        DeviceLossInjector, FlashBackend, FlashError, FlashGeometry, NandDevice, PageAddr,
        PageMetadata, SimTime, TimingModel,
    };

    use super::*;

    fn mirror(replicas: usize) -> MirrorDevice {
        MirrorDevice::new_fresh(replicas, FlashGeometry::small_test(), TimingModel::default())
            .unwrap()
    }

    fn page(die: u32, block: u32, page: u32) -> PageAddr {
        PageAddr::new(flash_sim::DieId(die), 0, block, page)
    }

    fn payload(tag: u8) -> Vec<u8> {
        vec![tag; FlashGeometry::small_test().page_size as usize]
    }

    #[test]
    fn needs_two_children_and_matching_injector() {
        let g = FlashGeometry::small_test();
        let t = TimingModel::default();
        let registry = Arc::new(noftl_obs::MetricsRegistry::new());
        let one = vec![Arc::new(
            flash_sim::DeviceBuilder::new(g).timing(t).metrics(registry.clone()).build(),
        )];
        let err = MirrorDevice::new(one, Arc::new(DeviceLossInjector::new(1))).unwrap_err();
        assert!(matches!(err, FlashError::MirrorConfig { .. }));

        let two: Vec<Arc<NandDevice>> = (0..2)
            .map(|_| {
                Arc::new(
                    flash_sim::DeviceBuilder::new(g).timing(t).metrics(registry.clone()).build(),
                )
            })
            .collect();
        let err = MirrorDevice::new(two, Arc::new(DeviceLossInjector::new(3))).unwrap_err();
        assert!(matches!(err, FlashError::MirrorConfig { .. }));
    }

    #[test]
    fn writes_fan_out_identically() {
        let m = mirror(2);
        let at = SimTime::ZERO;
        for p in 0..4 {
            m.program_page(
                page(0, 0, p),
                &payload(p as u8 + 1),
                PageMetadata::new(7, p as u64),
                at,
            )
            .unwrap();
        }
        for child in m.children() {
            for p in 0..4 {
                let (data, meta, _) = child.read_page(page(0, 0, p), SimTime(1_000_000)).unwrap();
                assert_eq!(data, payload(p as u8 + 1));
                assert_eq!(meta.unwrap().object_id, 7);
            }
        }
        // Both children stored the same mirror-stamped epochs.
        assert_eq!(m.children()[0].current_epoch(), m.children()[1].current_epoch());
        assert!(m.fully_online());
    }

    /// The mirror is transparent to the arbiter: a tag handed to the
    /// `_tagged` calls reaches every child's admission, so `Background`
    /// traffic is budgeted (and durability traffic exempt) on a mirror
    /// exactly as on a single device.
    #[test]
    fn io_tags_reach_the_children_arbiters() {
        let registry = Arc::new(noftl_obs::MetricsRegistry::new());
        let children: Vec<Arc<NandDevice>> = (0..2)
            .map(|_| {
                Arc::new(
                    flash_sim::DeviceBuilder::new(FlashGeometry::small_test())
                        .timing(TimingModel::mlc_2015())
                        .arbiter(flash_sim::ArbiterConfig::default())
                        .metrics(registry.clone())
                        .build(),
                )
            })
            .collect();
        let m = MirrorDevice::new(children, Arc::new(DeviceLossInjector::new(2))).unwrap();
        let count = |name: &str| registry.snapshot().counter(name).unwrap_or(0);
        let background = flash_sim::IoTag::background(Some(0));
        let mut t = SimTime::ZERO;
        for p in 0..4u32 {
            let meta = PageMetadata::new(1, u64::from(p));
            t = m
                .program_page_tagged(page(0, 0, p), &payload(p as u8), meta, t, background)
                .unwrap()
                .completed_at;
        }
        // Each program lands on both children.
        assert_eq!(count("flash.arbiter.class.background.ops"), 8);
        m.read_page_tagged(page(0, 0, 0), t, background).unwrap();
        m.read_metadata_tagged(page(0, 0, 1), t, background).unwrap();
        assert_eq!(count("flash.arbiter.class.background.ops"), 10);
        let durable = flash_sim::IoTag::durability(flash_sim::ServiceClass::Background, Some(0));
        m.program_page_tagged(page(1, 0, 0), &payload(9), PageMetadata::new(1, 9), t, durable)
            .unwrap();
        assert_eq!(count("flash.arbiter.exempt"), 2);
        // Untagged calls keep the default class.
        m.read_page(page(0, 0, 2), t).unwrap();
        assert_eq!(count("flash.arbiter.class.throughput.ops"), 1);
        // `execute` is the same path: its tag reaches the child too.
        let before = count("flash.arbiter.class.background.ops");
        let read = flash_sim::FlashCommand::Read { addr: page(0, 0, 3), data: &mut [] };
        m.execute(read, t, background).unwrap();
        assert_eq!(count("flash.arbiter.class.background.ops"), before + 1);
    }

    /// Stacking a mirror over the devices adds no second observation: N
    /// host programs are N latency samples and N die-track spans on each
    /// in-sync child (own registry each, tracer on) — and one read is one
    /// sample on the child that served it.
    #[test]
    fn every_command_is_observed_once_at_the_device() {
        let children: Vec<Arc<NandDevice>> = (0..2)
            .map(|_| Arc::new(flash_sim::DeviceBuilder::new(FlashGeometry::small_test()).build()))
            .collect();
        for child in &children {
            child.metrics().tracer().set_enabled(true);
        }
        let m = MirrorDevice::new(children, Arc::new(DeviceLossInjector::new(2))).unwrap();
        let n = 6u32;
        let mut t = SimTime::ZERO;
        for p in 0..n {
            let program = flash_sim::FlashCommand::Program {
                addr: page(p % 2, 0, p / 2),
                data: &payload(p as u8),
                meta: PageMetadata::new(1, u64::from(p)),
            };
            t = m.execute(program, t, flash_sim::IoTag::default()).unwrap().outcome.completed_at;
        }
        m.read_page(page(0, 0, 0), t).unwrap();
        let samples = |child: &NandDevice, hist: &str| {
            child.metrics().snapshot().histogram(hist).map_or(0, |h| h.count)
        };
        let mut reads = 0;
        for child in m.children() {
            assert_eq!(samples(child, "flash.op.program.latency_ns"), u64::from(n));
            let events = child.metrics().tracer().events();
            let programs = events.iter().filter(|e| e.name == "program" && e.dur_ns.is_some());
            assert_eq!(programs.count(), n as usize, "one span per program, on the die track");
            assert!(events.iter().all(|e| e.cat == "flash.op"), "the device is the only observer");
            reads += samples(child, "flash.op.read.latency_ns");
        }
        assert_eq!(reads, 1);
    }

    /// The mirror's statistics are the sum over its children: a program
    /// counts once per replica, a read once on the child that served it,
    /// a rejection once per child that rejected it.
    #[test]
    fn stats_are_the_sum_over_the_children() {
        let m = mirror(2);
        let mut t = SimTime::ZERO;
        for p in 0..3 {
            let meta = PageMetadata::new(1, u64::from(p));
            t = m.program_page(page(0, 0, p), &payload(1), meta, t).unwrap().completed_at;
        }
        m.read_page(page(0, 0, 1), t).unwrap();
        m.program_page(page(0, 0, 7), &payload(2), PageMetadata::new(1, 7), t).unwrap_err();
        let (a, b) = (m.children()[0].stats(), m.children()[1].stats());
        let s = m.stats();
        assert_eq!((s.page_programs, s.page_reads, s.errors), (6, 1, 2));
        assert_eq!(s.page_programs, a.page_programs + b.page_programs);
        assert_eq!(s.page_reads, a.page_reads + b.page_reads);
        assert_eq!(s.bytes_transferred, a.bytes_transferred + b.bytes_transferred);
        assert_eq!(s.program_latency_sum, a.program_latency_sum + b.program_latency_sum);
        assert_eq!(s.read_latency_sum, a.read_latency_sum + b.read_latency_sum);
        assert_eq!(s.errors, a.errors + b.errors);
        assert_eq!(s.queue_depth_hwm, a.queue_depth_hwm.max(b.queue_depth_hwm));
    }

    #[test]
    fn lost_child_goes_faulted_and_accrues_dirt() {
        let m = mirror(2);
        m.program_page(page(0, 0, 0), &payload(1), PageMetadata::new(1, 0), SimTime::ZERO).unwrap();
        m.injector().arm(1, SimTime(10));
        let at = SimTime(1_000_000);
        m.program_page(page(0, 1, 0), &payload(2), PageMetadata::new(1, 1), at).unwrap();
        assert_eq!(m.health(1), ChildHealth::Faulted);
        assert_eq!(m.health(0), ChildHealth::Online);
        // Only the write the child missed is dirty, not the whole device.
        assert_eq!(m.dirty_segments(1), 1);
        assert!(m.children()[1].read_page(page(0, 1, 0), SimTime(2_000_000)).is_err());
    }

    #[test]
    fn degraded_reads_avoid_the_lost_child() {
        let m = mirror(2);
        m.program_page(page(0, 0, 0), &payload(9), PageMetadata::new(3, 0), SimTime::ZERO).unwrap();
        m.injector().arm(1, SimTime(10));
        // Every read must come from child 0 even with the round-robin
        // cursor pointing at child 1.
        for _ in 0..8 {
            let (data, _, _) = m.read_page(page(0, 0, 0), SimTime(1_000_000)).unwrap();
            assert_eq!(data, payload(9));
        }
        let c0 = m.children()[0].stats().page_reads;
        let c1 = m.children()[1].stats().page_reads;
        assert_eq!(c0, 8);
        assert_eq!(c1, 0);
    }

    #[test]
    fn no_healthy_child_surfaces() {
        let m = mirror(2);
        m.program_page(page(0, 0, 0), &payload(1), PageMetadata::new(1, 0), SimTime::ZERO).unwrap();
        m.injector().arm(0, SimTime(5));
        m.injector().arm(1, SimTime(5));
        let err = m.read_page(page(0, 0, 0), SimTime(1_000_000)).unwrap_err();
        assert!(matches!(err, FlashError::NoHealthyChild { .. }));
        let err = m
            .program_page(page(0, 0, 1), &payload(2), PageMetadata::new(1, 1), SimTime(1_000_000))
            .unwrap_err();
        assert!(matches!(err, FlashError::NoHealthyChild { .. }));
    }

    #[test]
    fn rebuild_copies_only_dirty_segments() {
        let m = mirror(2);
        let at = SimTime::ZERO;
        // Spread writes over 6 blocks while both children are healthy.
        for b in 0..6 {
            m.program_page(
                page(0, b, 0),
                &payload(b as u8 + 1),
                PageMetadata::new(2, b as u64),
                at,
            )
            .unwrap();
        }
        // Lose child 1, then touch exactly 2 segments.
        m.injector().arm(1, SimTime(100));
        let at = SimTime(10_000_000);
        m.program_page(page(1, 0, 0), &payload(41), PageMetadata::new(2, 100), at).unwrap();
        m.program_page(page(1, 1, 0), &payload(42), PageMetadata::new(2, 101), at).unwrap();
        assert_eq!(m.dirty_segments(1), 2);

        let programs_before = m.children()[1].stats().page_programs;
        m.injector().clear(1);
        m.start_rebuild(1, SimTime(20_000_000)).unwrap();
        let report = m.rebuild(1, 4, SimTime(20_000_000)).unwrap();
        assert!(report.child_online);
        assert_eq!(report.segments_copied, 2);
        assert_eq!(report.segments_requeued, 0);
        assert_eq!(report.pages_copied, 2);
        // The rebuild programmed exactly the missed pages, nothing else.
        assert_eq!(m.children()[1].stats().page_programs - programs_before, 2);
        assert_eq!(m.health(1), ChildHealth::Online);
        assert_eq!(m.dirty_segments(1), 0);
        let (data, _, _) = m.children()[1].read_page(page(1, 0, 0), SimTime(30_000_000)).unwrap();
        assert_eq!(data, payload(41));
    }

    #[test]
    fn start_rebuild_requires_cleared_injector_and_faulted_child() {
        let m = mirror(2);
        m.program_page(page(0, 0, 0), &payload(1), PageMetadata::new(1, 0), SimTime::ZERO).unwrap();
        // Not faulted yet.
        assert!(m.start_rebuild(1, SimTime(1)).is_err());
        m.injector().arm(1, SimTime(10));
        m.program_page(page(0, 1, 0), &payload(2), PageMetadata::new(1, 1), SimTime(1_000))
            .unwrap();
        // Faulted but still lost.
        let err = m.start_rebuild(1, SimTime(2_000)).unwrap_err();
        assert!(matches!(err, FlashError::MirrorConfig { .. }));
        m.injector().clear(1);
        m.start_rebuild(1, SimTime(3_000)).unwrap();
        assert_eq!(m.health(1), ChildHealth::Rebuilding);
    }

    #[test]
    fn foreground_write_racing_a_copy_redirties_the_segment() {
        let m = mirror(2);
        m.program_page(page(0, 0, 0), &payload(1), PageMetadata::new(1, 0), SimTime::ZERO).unwrap();
        m.injector().arm(1, SimTime(10));
        let at = SimTime(1_000_000);
        m.program_page(page(0, 2, 0), &payload(2), PageMetadata::new(1, 1), at).unwrap();
        m.injector().clear(1);
        m.start_rebuild(1, SimTime(2_000_000)).unwrap();
        let seg = m.segment_of(page(0, 2, 0).block());
        assert_eq!(m.dirty_segments(1), 1);

        // Simulate the copy being in flight, then race a foreground write
        // into the locked segment.
        m.test_lock_segment(seg);
        let skips_before = m.children()[1].stats().page_programs;
        m.program_page(page(0, 2, 1), &payload(3), PageMetadata::new(1, 2), SimTime(3_000_000))
            .unwrap();
        // Child 1 did not receive the program...
        assert_eq!(m.children()[1].stats().page_programs, skips_before);
        // ...and the unlock reports the redirty, keeping the segment dirty.
        assert!(m.test_unlock_segment(seg));
        assert_eq!(m.dirty_segments(1), 1);

        // The real rebuild then converges: first pass requeues nothing
        // here (lock released), copies the segment including the raced
        // write.
        let report = m.rebuild(1, 4, SimTime(4_000_000)).unwrap();
        assert!(report.child_online);
        let (data, _, _) = m.children()[1].read_page(page(0, 2, 1), SimTime(9_000_000)).unwrap();
        assert_eq!(data, payload(3));
    }

    /// A 2-way mirror with page 0 of block 0 on both children, whose
    /// child 1 is rebuilding and stale for exactly the segment of block
    /// `stale` (page 0 written while it was lost).
    fn rebuilding_stale_for(stale: u32) -> MirrorDevice {
        let m = mirror(2);
        m.program_page(page(0, 0, 0), &payload(1), PageMetadata::new(1, 0), SimTime::ZERO).unwrap();
        m.injector().arm(1, SimTime(10));
        m.program_page(page(0, stale, 0), &payload(2), PageMetadata::new(1, 1), SimTime(1_000_000))
            .unwrap();
        m.injector().clear(1);
        m.start_rebuild(1, SimTime(2_000_000)).unwrap();
        assert_eq!(m.dirty_segments(1), 1);
        m
    }

    #[test]
    fn a_copyback_out_of_a_segment_in_copy_dirties_its_destination() {
        let m = rebuilding_stale_for(2);
        m.test_lock_segment(m.segment_of(page(0, 2, 0).block()));
        m.copyback(page(0, 2, 0), page(0, 3, 0), SimTime(3_000_000)).unwrap();
        // Child 1 skipped the copyback, so it is stale for the
        // destination too.
        assert_eq!(m.dirty_segments(1), 2, "the destination segment was left clean");
    }

    #[test]
    fn a_copyback_into_a_segment_in_copy_redirties_it() {
        let m = rebuilding_stale_for(3);
        let dst = m.segment_of(page(0, 3, 0).block());
        m.test_lock_segment(dst);
        m.copyback(page(0, 0, 0), page(0, 3, 1), SimTime(3_000_000)).unwrap();
        // The copy in flight may have read the block before the
        // copyback: the segment must stay dirty when it lands.
        assert!(m.test_unlock_segment(dst), "the destination segment was not redirtied");
    }

    #[test]
    fn rebuilding_child_serves_reads_only_from_clean_segments() {
        let m = mirror(2);
        m.program_page(page(0, 0, 0), &payload(1), PageMetadata::new(1, 0), SimTime::ZERO).unwrap();
        m.injector().arm(1, SimTime(10));
        m.program_page(page(0, 3, 0), &payload(2), PageMetadata::new(1, 1), SimTime(1_000))
            .unwrap();
        m.injector().clear(1);
        m.start_rebuild(1, SimTime(2_000)).unwrap();
        // Dirty segment: every read must hit child 0.
        let r0 = m.children()[0].stats().page_reads;
        for _ in 0..4 {
            m.read_page(page(0, 3, 0), SimTime(5_000_000)).unwrap();
        }
        assert_eq!(m.children()[0].stats().page_reads - r0, 4);
    }

    #[test]
    fn blob_roundtrip_through_backend_hooks() {
        let m = mirror(2);
        m.program_page(page(0, 0, 0), &payload(1), PageMetadata::new(1, 0), SimTime::ZERO).unwrap();
        m.injector().arm(1, SimTime(10));
        m.program_page(page(0, 1, 0), &payload(2), PageMetadata::new(1, 1), SimTime(1_000))
            .unwrap();
        let blob = m.replication_blob().unwrap();
        let decoded = MirrorBlob::decode(&blob).unwrap();
        assert_eq!(decoded.children.len(), 2);
        assert_eq!(decoded.children[0].health, ChildHealth::Online);
        assert_eq!(decoded.children[1].health, ChildHealth::Faulted);
        assert_eq!(decoded.children[1].dirty.dirty_count(), 1);
        assert_eq!(decoded.watermark, m.current_epoch());
    }

    #[test]
    fn torn_blob_restores_to_rebuild_everything() {
        let m = mirror(2);
        m.program_page(page(0, 0, 0), &payload(1), PageMetadata::new(1, 0), SimTime::ZERO).unwrap();
        let mut blob = m.replication_blob().unwrap();
        let last = blob.len() - 1;
        blob[last] ^= 0x40;
        m.restore_replication(Some(&blob), SimTime(1_000_000)).unwrap();
        assert_eq!(m.health(0), ChildHealth::Online);
        assert_eq!(m.health(1), ChildHealth::Faulted);
        assert_eq!(m.dirty_segments(1), m.segment_count());
    }

    #[test]
    fn restore_verifies_post_blob_writes() {
        let m = mirror(2);
        m.program_page(page(0, 0, 0), &payload(1), PageMetadata::new(1, 0), SimTime::ZERO).unwrap();
        // Blob cut while fully in sync: both children clean.
        let blob = m.replication_blob().unwrap();
        // Writes after the blob reach only child 0 (child 1 lost), so at
        // restore time the blob alone would claim child 1 is clean.
        m.injector().arm(1, SimTime(10));
        m.program_page(page(2, 5, 0), &payload(7), PageMetadata::new(4, 9), SimTime(1_000_000))
            .unwrap();
        m.injector().clear(1);
        let now = m.restore_replication(Some(&blob), SimTime(2_000_000)).unwrap();
        assert!(now >= SimTime(2_000_000));
        // The verify scan catches the divergence the blob missed.
        assert_eq!(m.health(1), ChildHealth::Faulted);
        assert_eq!(m.dirty_segments(1), 1);
        assert_eq!(m.health(0), ChildHealth::Online);
    }

    #[test]
    fn restore_on_pristine_mirror_keeps_everyone_online() {
        let m = mirror(3);
        m.restore_replication(None, SimTime::ZERO).unwrap();
        assert!(m.fully_online());
    }

    #[test]
    fn three_way_mirror_survives_double_fault() {
        let m = mirror(3);
        m.program_page(page(0, 0, 0), &payload(1), PageMetadata::new(1, 0), SimTime::ZERO).unwrap();
        m.injector().arm(1, SimTime(10));
        m.injector().arm(2, SimTime(10));
        let (data, _, _) = m.read_page(page(0, 0, 0), SimTime(1_000_000)).unwrap();
        assert_eq!(data, payload(1));
        m.program_page(page(0, 1, 0), &payload(2), PageMetadata::new(1, 1), SimTime(1_000_000))
            .unwrap();
        assert_eq!(m.health(0), ChildHealth::Online);
        assert_eq!(m.health(1), ChildHealth::Faulted);
        assert_eq!(m.health(2), ChildHealth::Faulted);
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Under an arbitrary schedule of child losses, rebuilds and
            /// mirrored writes, a mirrored read always returns the last
            /// acknowledged write of the page.
            #[test]
            fn reads_return_last_acked_write(
                seed in any::<u64>(),
                lose_at_step in 1u64..12,
                rebuild_at_step in 12u64..20,
            ) {
                let m = mirror(2);
                let mut clock = SimTime(1_000);
                let mut acked: Vec<(PageAddr, u8)> = Vec::new();
                let mut x = seed;
                let mut next_rand = move || {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    x >> 33
                };
                for step in 0..24u64 {
                    if step == lose_at_step {
                        m.injector().arm(1, clock);
                    }
                    if step == rebuild_at_step {
                        m.injector().clear(1);
                        m.start_rebuild(1, clock).unwrap();
                        let report = m.rebuild(1, 4, clock).unwrap();
                        prop_assert!(report.child_online);
                        clock = clock.max(report.completed_at);
                    }
                    let r = next_rand();
                    let block = (r % 8) as u32;
                    let die = ((r >> 8) % 4) as u32;
                    let tag = (step + 1) as u8;
                    // Always program the next free page of the block.
                    let info = m
                        .block_info(flash_sim::BlockAddr::new(flash_sim::DieId(die), 0, block))
                        .unwrap();
                    if info.write_ptr >= 8 {
                        continue;
                    }
                    let addr = page(die, block, info.write_ptr);
                    m.program_page(addr, &payload(tag), PageMetadata::new(1, step), clock)
                        .unwrap();
                    acked.push((addr, tag));
                    clock = SimTime(clock.as_nanos() + 500_000);
                }
                // Every acknowledged write must be readable through the
                // mirror regardless of which child serves it.
                for (addr, tag) in acked {
                    let (data, _, _) = m.read_page(addr, clock).unwrap();
                    prop_assert_eq!(data, payload(tag));
                }
            }
        }
    }
}

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
//!   is clean.  A child that skips goes stale for the segments the
//!   command changes.
//! * **Writes** (program, erase, copyback, invalidation, retirement) go
//!   to every child the rule admits, timed ones at the same submit
//!   instant, so the children stay page-for-page identical.
//! * **Reads** are served by a child that would take a write of the
//!   page's segment, picked queue-aware (earliest start on the target
//!   die) with a round-robin tie-break.
//! * **A lost child is a child without power**
//!   ([`flash_sim::NandDevice::arm_power_cut`]): the mirror learns of the
//!   loss from the child's own `PowerLoss`, which drives a per-child
//!   health machine `Online → Faulted → Rebuilding → Online`.  A write
//!   an `Online` survivor took is acknowledged, and a read falls back to
//!   the next in-sync child.  While a child is out, its dirty set — a
//!   `BTreeSet` of erase-block indices — records exactly which segments
//!   it missed; a child with unknown history has every segment dirty.
//! * **Online rebuild** drains the dirty set segment by segment while
//!   foreground traffic continues: a step holds the mirror lock across
//!   its copy, so a write into an already-copied segment is applied and
//!   one into a segment not yet copied skips the child, which the copy
//!   then brings over.
//! * **Persistence**: none of its own.  A child's staleness is read off
//!   the children at mount by a verify scan (block shape, OOB, and the
//!   stale child's payload against its OOB checksum), which finds what
//!   each child missed — writes after any checkpoint included, and a
//!   copy torn after its OOB landed — and a child without power at mount
//!   counts as stale everywhere, never silently trusted.

#![warn(missing_docs)]

mod device;
mod health;
mod obs;
mod rebuild;

pub use device::MirrorDevice;
pub use health::ChildHealth;
pub use obs::TRACK_MIRROR;
pub use rebuild::RebuildReport;

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use flash_sim::{
        FlashBackend, FlashError, FlashGeometry, NandDevice, PageAddr, PageMetadata, SimTime,
        TimingModel,
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
    fn needs_two_children() {
        let one =
            vec![Arc::new(flash_sim::DeviceBuilder::new(FlashGeometry::small_test()).build())];
        let err = MirrorDevice::new(one).unwrap_err();
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
    /// traffic is budgeted (and foreground traffic not) on a mirror
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
        let m = MirrorDevice::new(children).unwrap();
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
        let foreground = flash_sim::IoTag::new(flash_sim::ServiceClass::Latency, Some(0));
        m.program_page_tagged(page(1, 0, 0), &payload(9), PageMetadata::new(1, 9), t, foreground)
            .unwrap();
        assert_eq!(count("flash.arbiter.class.latency.ops"), 2);
        // Untagged calls keep the default class.
        m.read_page(page(0, 0, 2), t).unwrap();
        assert_eq!(count("flash.arbiter.class.latency.ops"), 3);
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
        let m = MirrorDevice::new(children).unwrap();
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
        m.children()[1].arm_power_cut(SimTime(10));
        let at = SimTime(1_000_000);
        m.program_page(page(0, 1, 0), &payload(2), PageMetadata::new(1, 1), at).unwrap();
        assert_eq!(m.health(1), ChildHealth::Faulted);
        assert_eq!(m.health(0), ChildHealth::Online);
        // Only the write the child missed is dirty, not the whole device.
        assert_eq!(m.dirty_segments(1), 1);
        assert!(m.children()[1].read_page(page(0, 1, 0), SimTime(2_000_000)).is_err());
    }

    /// A command outside the geometry changes no child, so it leaves a
    /// lost child's staleness as it was: block 16 of die 0 is no block,
    /// although its linear index is die 1's block 0.  The `Online` child
    /// still receives each command and rejects it.
    #[test]
    fn an_out_of_range_command_leaves_a_lost_childs_staleness_alone() {
        let m = mirror(2);
        m.children()[1].arm_power_cut(SimTime(10));
        let at = SimTime(1_000_000);
        m.program_page(page(0, 1, 0), &payload(2), PageMetadata::new(1, 1), at).unwrap();
        assert_eq!((m.health(1), m.dirty_segments(1)), (ChildHealth::Faulted, 1));
        let beyond = FlashGeometry::small_test().blocks_per_plane;
        let meta = PageMetadata::new(1, 2);
        assert!(m.program_page(page(0, beyond, 0), &payload(3), meta, at).is_err());
        let block = flash_sim::BlockAddr::new(flash_sim::DieId(0), 0, beyond);
        assert!(m.erase_block(block, at).is_err());
        assert_eq!(m.dirty_segments(1), 1, "an out-of-range command marked a segment");
        assert_eq!(m.children()[0].stats().errors, 2);
    }

    #[test]
    fn degraded_reads_avoid_the_lost_child() {
        let m = mirror(2);
        m.program_page(page(0, 0, 0), &payload(9), PageMetadata::new(3, 0), SimTime::ZERO).unwrap();
        m.children()[1].arm_power_cut(SimTime(10));
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

    /// A box whose every device lost power has lost power: a read and a
    /// write that no child took both say so, and neither faults a child.
    #[test]
    fn no_healthy_child_surfaces() {
        let m = mirror(2);
        m.program_page(page(0, 0, 0), &payload(1), PageMetadata::new(1, 0), SimTime::ZERO).unwrap();
        m.children()[0].arm_power_cut(SimTime(5));
        m.children()[1].arm_power_cut(SimTime(5));
        let err = m.read_page(page(0, 0, 0), SimTime(1_000_000)).unwrap_err();
        assert!(err.is_power_loss(), "{err}");
        let err = m
            .program_page(page(0, 0, 1), &payload(2), PageMetadata::new(1, 1), SimTime(1_000_000))
            .unwrap_err();
        assert!(err.is_power_loss(), "{err}");
        assert!(m.fully_online());
    }

    /// A program in flight on a child at its cut tears there, and the
    /// survivor's copy acknowledges it: the child goes `Faulted` at its
    /// cut, stale for the segment, and the rebuild brings the segment
    /// over so that the verify scan finds the children equal.
    #[test]
    fn a_program_in_flight_at_a_childs_cut_is_acknowledged_from_the_survivor() {
        let m = mirror(2);
        let at = SimTime(1_000);
        let cut = SimTime(at.as_nanos() + 100);
        m.children()[1].arm_power_cut(cut);
        let meta = PageMetadata::new(1, 0).with_payload_checksum(&payload(5));
        let done = m.program_page(page(0, 2, 0), &payload(5), meta, at).unwrap();
        assert!(done.completed_at > cut, "the program was not in flight at the cut");
        assert_eq!(m.health(1), ChildHealth::Faulted);
        assert_eq!(m.health(0), ChildHealth::Online);
        assert_eq!(m.dirty_segments(1), 1);
        // The child holds a torn page: programmed, with a bad checksum.
        let torn = m.children()[1].block_info(flash_sim::BlockAddr::new(flash_sim::DieId(0), 0, 2));
        assert_eq!(torn.unwrap().write_ptr, 1);
        // It stored the program's epoch before it tore; the survivor's
        // counter is past it, so a reboot takes the survivor as source.
        assert_eq!(m.children()[1].current_epoch(), 1);
        assert_eq!(m.children()[0].current_epoch(), 2);

        m.children()[1].clear_power_cut();
        m.start_rebuild(1, done.completed_at).unwrap();
        let report = m.rebuild(1, done.completed_at).unwrap();
        assert!(report.child_online);
        assert_eq!((report.segments_copied, report.pages_copied), (1, 1));
        m.restore_replication(None, m.quiesce_time()).unwrap();
        assert!(m.fully_online(), "the verify scan found the rebuilt segment stale");
        let (data, _, _) = m.children()[1].read_page(page(0, 2, 0), m.quiesce_time()).unwrap();
        assert_eq!(data, payload(5));
    }

    /// A `Rebuilding` child's epoch counter does not move with the
    /// programs it takes, so a program that only it survived is not
    /// acknowledged: the `Online` child that lost power in it goes
    /// `Faulted`, and the program returns `PowerLoss`.
    #[test]
    fn a_program_only_a_rebuilding_child_survived_is_not_acknowledged() {
        let m = mirror(2);
        m.children()[1].arm_power_cut(SimTime(10));
        m.program_page(page(0, 0, 0), &payload(1), PageMetadata::new(1, 0), SimTime(1_000))
            .unwrap();
        m.children()[1].clear_power_cut();
        m.start_rebuild(1, SimTime(2_000_000)).unwrap();
        // Segment 1 is clean on the rebuilding child: it takes the program.
        let at = SimTime(3_000_000);
        m.children()[0].arm_power_cut(SimTime(at.as_nanos() + 100));
        let err =
            m.program_page(page(0, 1, 0), &payload(2), PageMetadata::new(1, 1), at).unwrap_err();
        assert!(err.is_power_loss(), "{err}");
        assert_eq!(m.health(0), ChildHealth::Faulted);
        assert_eq!(m.children()[1].stats().page_programs, 1, "the rebuilding child skipped it");
    }

    /// A read first routed to a child without power falls back to its
    /// sibling: the child rejects it before reserving any time, so the
    /// read costs one page read, and the child is `Faulted` after it.
    #[test]
    fn a_read_routed_to_an_unpowered_child_is_served_by_its_sibling() {
        let m = mirror(2);
        m.program_page(page(0, 0, 0), &payload(3), PageMetadata::new(1, 0), SimTime::ZERO).unwrap();
        // Both dies are idle, so the round-robin cursor decides: child 0
        // first, then child 1.
        let at = SimTime(1_000_000);
        m.read_page(page(0, 0, 0), at).unwrap();
        m.children()[1].arm_power_cut(at);
        let reads = m.stats().page_reads;
        let (data, _, _) = m.read_page(page(0, 0, 0), at).unwrap();
        assert_eq!(data, payload(3));
        assert_eq!(m.children()[1].stats().errors, 1, "the read did not try child 1 first");
        assert_eq!(m.stats().page_reads, reads + 1);
        assert_eq!(m.children()[1].stats().page_reads, 0);
        assert_eq!(m.health(1), ChildHealth::Faulted);
        assert_eq!(m.dirty_segments(1), 0, "a read makes nothing stale");
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
        m.children()[1].arm_power_cut(SimTime(100));
        let at = SimTime(10_000_000);
        m.program_page(page(1, 0, 0), &payload(41), PageMetadata::new(2, 100), at).unwrap();
        m.program_page(page(1, 1, 0), &payload(42), PageMetadata::new(2, 101), at).unwrap();
        assert_eq!(m.dirty_segments(1), 2);

        let programs_before = m.children()[1].stats().page_programs;
        m.children()[1].clear_power_cut();
        m.start_rebuild(1, SimTime(20_000_000)).unwrap();
        let report = m.rebuild(1, SimTime(20_000_000)).unwrap();
        assert!(report.child_online);
        assert_eq!(report.segments_copied, 2);
        assert_eq!(report.pages_copied, 2);
        // The rebuild programmed exactly the missed pages, nothing else.
        assert_eq!(m.children()[1].stats().page_programs - programs_before, 2);
        assert_eq!(m.health(1), ChildHealth::Online);
        assert_eq!(m.dirty_segments(1), 0);
        let (data, _, _) = m.children()[1].read_page(page(1, 0, 0), SimTime(30_000_000)).unwrap();
        assert_eq!(data, payload(41));
    }

    #[test]
    fn start_rebuild_requires_power_and_a_faulted_child() {
        let m = mirror(2);
        m.program_page(page(0, 0, 0), &payload(1), PageMetadata::new(1, 0), SimTime::ZERO).unwrap();
        // Not faulted yet.
        assert!(m.start_rebuild(1, SimTime(1)).is_err());
        m.children()[1].arm_power_cut(SimTime(10));
        m.program_page(page(0, 1, 0), &payload(2), PageMetadata::new(1, 1), SimTime(1_000))
            .unwrap();
        // Faulted, and its cut is still armed.
        let err = m.start_rebuild(1, SimTime(2_000)).unwrap_err();
        assert!(matches!(err, FlashError::MirrorConfig { .. }));
        m.children()[1].clear_power_cut();
        m.start_rebuild(1, SimTime(3_000)).unwrap();
        assert_eq!(m.health(1), ChildHealth::Rebuilding);
    }

    /// A foreground thread that programs, invalidates and copies back
    /// pages across every segment while another thread rebuilds the lost
    /// child leaves the two children identical, at every seed.
    ///
    /// It holds under every interleaving the host picks.  A rebuild step
    /// holds the mirror lock from choosing its segment to removing it
    /// from the dirty set, and every foreground command holds it across
    /// its fan-out.  So each command lands either before a segment's copy
    /// — the rebuilding child skips it, the segment stays dirty and the
    /// copy brings the command's effect over — or after it, when the
    /// segment is clean and the child takes the command like its sibling.
    /// The rebuild ends only when no segment is dirty.  Erase counts are
    /// left out of the comparison: a copy erases a target block that held
    /// stale pages, and only on the rebuilt child.
    #[test]
    fn foreground_traffic_beside_a_rebuild_leaves_the_children_identical() {
        let g = FlashGeometry::small_test();
        let (ppb, bpp) = (g.pages_per_block, g.blocks_per_plane);
        let block_at = |die, block| flash_sim::BlockAddr::new(flash_sim::DieId(die), 0, block);
        for seed in 0..16u64 {
            let m = Arc::new(mirror(2));
            // Every other block holds a page on both children; child 1
            // then misses a page in a quarter of the blocks.
            for die in 0..g.total_dies() {
                for block in (0..g.blocks_per_plane).step_by(2) {
                    let meta =
                        PageMetadata::new(1, u64::from(block)).with_payload_checksum(&payload(1));
                    m.program_page(page(die, block, 0), &payload(1), meta, SimTime::ZERO).unwrap();
                }
            }
            m.children()[1].arm_power_cut(SimTime(10));
            for die in 0..g.total_dies() {
                for block in (0..g.blocks_per_plane).step_by(4) {
                    let meta =
                        PageMetadata::new(2, u64::from(block)).with_payload_checksum(&payload(2));
                    m.program_page(page(die, block, 1), &payload(2), meta, SimTime(1_000_000))
                        .unwrap();
                }
            }
            m.children()[1].clear_power_cut();
            m.start_rebuild(1, SimTime(2_000_000)).unwrap();

            // Both threads start together; from there the host picks the
            // interleaving.
            let start = Arc::new(std::sync::Barrier::new(2));
            let foreground = {
                let (m, start) = (Arc::clone(&m), Arc::clone(&start));
                std::thread::spawn(move || {
                    start.wait();
                    let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
                    let mut next = move || {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        x
                    };
                    let mut clock = SimTime(2_000_000);
                    for step in 0..160u64 {
                        let r = next();
                        let die = (r % u64::from(g.total_dies())) as u32;
                        let block = ((r >> 8) % u64::from(bpp)) as u32;
                        let written = m.block_info(block_at(die, block)).unwrap().write_ptr;
                        match (r >> 16) % 3 {
                            0 if written < ppb => {
                                let data = payload(step as u8);
                                let meta = PageMetadata::new(3, step).with_payload_checksum(&data);
                                m.program_page(page(die, block, written), &data, meta, clock)
                                    .unwrap();
                            }
                            1 if written > 0 => {
                                let victim = ((r >> 24) % u64::from(written)) as u32;
                                m.mark_invalid(page(die, block, victim)).unwrap();
                            }
                            2 if written > 0 => {
                                let dst =
                                    (block + 1 + ((r >> 24) % u64::from(bpp - 1)) as u32) % bpp;
                                let free = m.block_info(block_at(die, dst)).unwrap().write_ptr;
                                if free < ppb {
                                    let src =
                                        page(die, block, ((r >> 32) % u64::from(written)) as u32);
                                    m.copyback(src, page(die, dst, free), clock).unwrap();
                                }
                            }
                            _ => {}
                        }
                        clock = SimTime(clock.as_nanos() + 20_000);
                        std::thread::yield_now();
                    }
                })
            };
            let rebuild = {
                let m = Arc::clone(&m);
                std::thread::spawn(move || {
                    start.wait();
                    m.rebuild(1, SimTime(2_000_000)).unwrap()
                })
            };
            foreground.join().unwrap();
            assert!(rebuild.join().unwrap().child_online, "seed {seed}");

            assert_eq!(m.health(1), ChildHealth::Online, "seed {seed}");
            assert_eq!(m.dirty_segments(1), 0, "seed {seed}");
            let at = m.quiesce_time();
            m.restore_replication(None, at).unwrap();
            assert!(m.fully_online(), "seed {seed}: the verify scan found a stale segment");
            assert_eq!(m.dirty_segments(1), 0, "seed {seed}");

            let at = m.quiesce_time();
            let [a, b] = [&m.children()[0], &m.children()[1]];
            for seg in 0..g.total_blocks() {
                let block = g.block_at(seg);
                let info = |d: &NandDevice| flash_sim::BlockInfo {
                    erase_count: 0,
                    ..d.block_info(block).unwrap()
                };
                assert_eq!(info(a), info(b), "seed {seed}, segment {seg}");
                for p in 0..info(a).write_ptr {
                    if a.page_state(block.page(p)).unwrap() == flash_sim::PageState::Valid {
                        let read = |d: &NandDevice| {
                            let (data, meta, _) = d.read_page(block.page(p), at).unwrap();
                            (data, meta)
                        };
                        assert_eq!(read(a), read(b), "seed {seed}, segment {seg}, page {p}");
                    }
                }
            }
        }
    }

    /// A copyback changes its source segment too — it invalidates the
    /// source page — so a child that skips it is stale for both.
    #[test]
    fn a_skipped_copyback_leaves_the_child_stale_for_source_and_destination() {
        let m = mirror(2);
        m.program_page(page(0, 2, 0), &payload(1), PageMetadata::new(1, 0), SimTime::ZERO).unwrap();
        m.children()[1].arm_power_cut(SimTime(10));
        m.copyback(page(0, 2, 0), page(0, 3, 0), SimTime(1_000_000)).unwrap();
        assert_eq!(m.health(1), ChildHealth::Faulted);
        assert_eq!(m.dirty_segments(1), 2, "the source segment was left clean");
    }

    #[test]
    fn rebuilding_child_serves_reads_only_from_clean_segments() {
        let m = mirror(2);
        m.program_page(page(0, 0, 0), &payload(1), PageMetadata::new(1, 0), SimTime::ZERO).unwrap();
        m.children()[1].arm_power_cut(SimTime(10));
        m.program_page(page(0, 3, 0), &payload(2), PageMetadata::new(1, 1), SimTime(1_000))
            .unwrap();
        m.children()[1].clear_power_cut();
        m.start_rebuild(1, SimTime(2_000)).unwrap();
        // Dirty segment: every read must hit child 0.
        let r0 = m.children()[0].stats().page_reads;
        for _ in 0..4 {
            m.read_page(page(0, 3, 0), SimTime(5_000_000)).unwrap();
        }
        assert_eq!(m.children()[0].stats().page_reads - r0, 4);
    }

    #[test]
    fn restore_finds_writes_the_child_missed() {
        let m = mirror(2);
        let meta = PageMetadata::new(1, 0).with_payload_checksum(&payload(1));
        m.program_page(page(0, 0, 0), &payload(1), meta, SimTime::ZERO).unwrap();
        // Writes after the cut reach only child 0.
        m.children()[1].arm_power_cut(SimTime(10));
        let meta = PageMetadata::new(4, 9).with_payload_checksum(&payload(7));
        m.program_page(page(2, 5, 0), &payload(7), meta, SimTime(1_000_000)).unwrap();
        m.children()[1].clear_power_cut();
        let now = m.restore_replication(None, SimTime(2_000_000)).unwrap();
        assert!(now >= SimTime(2_000_000));
        // The verify scan finds the one segment child 1 missed.
        assert_eq!(m.health(1), ChildHealth::Faulted);
        assert_eq!(m.dirty_segments(1), 1);
        assert_eq!(m.health(0), ChildHealth::Online);
    }

    /// A program torn after its OOB landed keeps the whole page's OOB:
    /// the verify scan finds the torn copy by its payload checksum.
    #[test]
    fn restore_finds_a_torn_copy_that_kept_its_oob() {
        let m = mirror(2);
        let meta = PageMetadata::with_epoch(1, 0, 1).with_payload_checksum(&payload(3));
        let addr = page(0, 0, 0);
        let whole = m.children()[0].program_page(addr, &payload(3), meta, SimTime::ZERO).unwrap();
        // Child 1 loses power a nanosecond before the same program ends.
        let end = whole.completed_at;
        m.children()[1].arm_power_cut(SimTime(end.as_nanos() - 1));
        assert!(m.children()[1].program_page(addr, &payload(3), meta, SimTime::ZERO).is_err());
        m.children()[1].clear_power_cut();
        assert_eq!(m.children()[1].read_metadata(addr, end).unwrap().0, Some(meta));
        m.restore_replication(None, end).unwrap();
        assert_eq!(m.health(1), ChildHealth::Faulted, "the torn copy passed the verify scan");
        assert_eq!(m.dirty_segments(1), 1);
    }

    /// An erase of an erased block changes nothing the verify scan
    /// compares (erase counts are left out), so a child that skipped one
    /// comes back in sync: the restore trusts the scan alone, not the
    /// dirty set the mirror kept.
    #[test]
    fn restore_does_not_count_a_skipped_erase_of_an_erased_block_as_stale() {
        let m = mirror(2);
        m.children()[1].arm_power_cut(SimTime(10));
        let block = flash_sim::BlockAddr::new(flash_sim::DieId(0), 0, 4);
        m.erase_block(block, SimTime(1_000)).unwrap();
        assert_eq!((m.health(1), m.dirty_segments(1)), (ChildHealth::Faulted, 1));
        m.children()[1].clear_power_cut();
        m.restore_replication(None, m.quiesce_time()).unwrap();
        assert_eq!(m.health(1), ChildHealth::Online);
        assert_eq!(m.dirty_segments(1), 0);
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
        m.children()[1].arm_power_cut(SimTime(10));
        m.children()[2].arm_power_cut(SimTime(10));
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
                        m.children()[1].arm_power_cut(clock);
                    }
                    if step == rebuild_at_step {
                        m.children()[1].clear_power_cut();
                        m.start_rebuild(1, clock).unwrap();
                        let report = m.rebuild(1, clock).unwrap();
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

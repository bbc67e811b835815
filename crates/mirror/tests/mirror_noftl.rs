//! NoFTL-over-mirror integration: the storage manager mounts a
//! [`MirrorDevice`] exactly like a bare device, and a remount reads each
//! child's health and dirty set off the children (the verify scan), so a
//! rebuild provably copies only the segments the lost child actually
//! missed.

mod common;

use common::Mirror;
use flash_sim::{Duration, FlashBackend, SimTime};
use noftl_core::crash::{self, Bootable};
use noftl_core::{NoFtl, ObjectId};
use noftl_mirror::ChildHealth;

/// Logical page `page` of `obj` as the manager reads it at `at`.
#[expect(clippy::unwrap_used, reason = "a test helper: a failed step fails the test")]
fn read(noftl: &NoFtl, obj: ObjectId, page: u64, at: SimTime) -> Vec<u8> {
    let mut data = vec![0; 4096];
    noftl.read(obj, page, &mut data, at).unwrap();
    data
}

#[test]
fn checkpoint_mount_roundtrip_restores_mirror_state_and_rebuild_copies_only_dirty() {
    let machine = Mirror::fresh();
    let mirror = &machine.device;
    let (noftl, rid) = NoFtl::with_single_region(mirror.clone()).unwrap();
    let obj = noftl.create_object("t", rid).unwrap();
    let mut t = SimTime::ZERO;
    for p in 0..12u64 {
        t = noftl.write(obj, p, &vec![p as u8 + 1; 4096], t).unwrap();
    }
    t = noftl.checkpoint(t).unwrap();

    // Lose child 1, keep writing: only these writes may be stale on it.
    machine.lose(1, t);
    t = SimTime(t.as_nanos() + 1_000);
    for p in 0..4u64 {
        t = noftl.write(obj, p, &vec![0xA0 + p as u8; 4096], t).unwrap();
    }
    t = noftl.checkpoint(t).unwrap();
    assert_eq!(mirror.health(1), ChildHealth::Faulted);
    let dirty_before = mirror.dirty_segments(1);
    assert!(
        dirty_before > 0 && dirty_before < mirror.geometry().total_blocks(),
        "degraded writes must dirty some but not all segments (got {dirty_before})"
    );

    // Reboot and remount through the standard path.
    let machine2 = machine.reboot().unwrap();
    let mirror2 = &machine2.device;
    let (noftl2, report) = NoFtl::mount(mirror2.clone(), t).unwrap();
    assert!(report.checkpoint_seq >= 2);
    t = report.completed_at;

    // The verify scan brought back exactly the stale set — not
    // "everything", which is what an unverifiable child would force.
    assert_eq!(mirror2.health(1), ChildHealth::Faulted);
    let dirty_restored = mirror2.dirty_segments(1);
    assert!(dirty_restored > 0 && dirty_restored < mirror2.geometry().total_blocks());

    // Degraded reads already serve the freshest data.
    for p in 0..4u64 {
        assert_eq!(read(&noftl2, obj, p, t), vec![0xA0 + p as u8; 4096]);
    }
    for p in 4..12u64 {
        assert_eq!(read(&noftl2, obj, p, t), vec![p as u8 + 1; 4096]);
    }

    // Rebuild copies exactly the reloaded dirty segments.
    let programs_before = mirror2.children()[1].stats().page_programs;
    mirror2.start_rebuild(1, t).unwrap();
    let report = mirror2.rebuild(1, t).unwrap();
    assert_eq!(mirror2.health(1), ChildHealth::Online);
    assert_eq!(report.segments_copied, dirty_restored);
    assert!(mirror2.fully_online());
    assert_eq!(mirror2.dirty_segments(1), 0);
    let copied_programs = mirror2.children()[1].stats().page_programs - programs_before;
    assert_eq!(copied_programs, report.pages_copied);
    t = report.completed_at;

    t = noftl2.checkpoint(t).unwrap();
    let machine3 = machine2.reboot().unwrap();
    let mirror3 = &machine3.device;
    let (noftl3, report) = NoFtl::mount(mirror3.clone(), t).unwrap();
    // …which the verify scan confirms: a clean roundtrip mounts fully
    // online with nothing left to copy.
    assert!(mirror3.fully_online(), "verify scan found divergence after a completed rebuild");
    assert_eq!(mirror3.dirty_segments(1), 0);
    for p in 0..4u64 {
        assert_eq!(read(&noftl3, obj, p, report.completed_at), vec![0xA0 + p as u8; 4096]);
    }
}

#[test]
fn mount_with_child_still_missing_serves_degraded_and_rebuilds_later() {
    let machine = Mirror::fresh();
    let (noftl, rid) = NoFtl::with_single_region(machine.device.clone()).unwrap();
    let obj = noftl.create_object("t", rid).unwrap();
    let mut t = SimTime::ZERO;
    for p in 0..8u64 {
        t = noftl.write(obj, p, &vec![p as u8 + 10; 4096], t).unwrap();
    }
    t = noftl.checkpoint(t).unwrap();

    // Reboot with the child still absent: restore cannot verify it and
    // must fail safe ("assume everything stale"), yet the mount serves.
    let machine2 = machine.reboot().unwrap();
    machine2.lose(1, SimTime::ZERO);
    let mirror2 = &machine2.device;
    let (noftl2, report) = NoFtl::mount(mirror2.clone(), t).unwrap();
    t = report.completed_at;
    assert_eq!(mirror2.health(1), ChildHealth::Faulted);
    assert_eq!(mirror2.dirty_segments(1), mirror2.geometry().total_blocks());
    for p in 0..8u64 {
        assert_eq!(read(&noftl2, obj, p, t), vec![p as u8 + 10; 4096]);
    }

    // The device reattaches: its power is back, rebuild, fully online.
    machine2.reattach(1, t).unwrap();
    mirror2.start_rebuild(1, t).unwrap();
    mirror2.rebuild(1, t).unwrap();
    assert_eq!(mirror2.health(1), ChildHealth::Online);
    assert!(mirror2.fully_online());
}

/// A rebuild that finished after the last checkpoint is not redone: the
/// remount reads the rebuilt child's staleness off the children, which
/// agree, so it comes back `Online` with nothing to copy.
#[test]
fn a_rebuild_finished_after_the_last_checkpoint_is_not_redone() {
    let machine = Mirror::fresh();
    let mirror = &machine.device;
    let (noftl, rid) = NoFtl::with_single_region(mirror.clone()).unwrap();
    let obj = noftl.create_object("t", rid).unwrap();
    let mut t = SimTime::ZERO;
    for p in 0..8u64 {
        t = noftl.write(obj, p, &vec![p as u8 + 1; 4096], t).unwrap();
    }
    t = noftl.checkpoint(t).unwrap();

    machine.lose(1, t);
    t = SimTime(t.as_nanos() + 1_000);
    for p in 0..4u64 {
        t = noftl.write(obj, p, &vec![0xB0 + p as u8; 4096], t).unwrap();
    }
    t = noftl.checkpoint(t).unwrap();
    assert_eq!(mirror.health(1), ChildHealth::Faulted);
    assert!(mirror.dirty_segments(1) > 0);

    // The child comes back and is rebuilt; no checkpoint follows.
    machine.reattach(1, t).unwrap();
    mirror.start_rebuild(1, t).unwrap();
    let report = mirror.rebuild(1, t).unwrap();
    assert_eq!(mirror.health(1), ChildHealth::Online);
    t = report.completed_at;

    let machine2 = machine.reboot().unwrap();
    let mirror2 = &machine2.device;
    let (noftl2, report) = NoFtl::mount(mirror2.clone(), t).unwrap();
    assert_eq!(mirror2.health(1), ChildHealth::Online, "the finished rebuild is redone");
    assert_eq!(mirror2.dirty_segments(1), 0);
    for p in 0..8u64 {
        let expected = if p < 4 { 0xB0 + p as u8 } else { p as u8 + 1 };
        assert_eq!(read(&noftl2, obj, p, report.completed_at), vec![expected; 4096]);
    }
}

/// A write in flight on child 0 at its cut tears there and is
/// acknowledged from child 1.  The box then loses power before child 1
/// writes again, so child 0 holds the write's epoch (or tore under it)
/// and child 1 holds nothing newer: the remount must still take child 1
/// as its source and serve the acknowledged page.
#[test]
fn a_write_acknowledged_past_a_childs_cut_survives_a_reboot() {
    let machine = Mirror::fresh();
    let mirror = &machine.device;
    let (noftl, rid) = NoFtl::with_single_region(mirror.clone()).unwrap();
    let obj = noftl.create_object("t", rid).unwrap();
    let mut t = SimTime::ZERO;
    for p in 0..6u64 {
        t = noftl.write(obj, p, &vec![p as u8 + 1; 4096], t).unwrap();
    }
    t = noftl.checkpoint(t).unwrap();

    let cut = SimTime(t.as_nanos() + 1_000);
    machine.lose(0, cut);
    let done = noftl.write(obj, 2, &[0xEE; 4096], t).unwrap();
    assert!(done > cut, "the write was not in flight at child 0's cut");
    assert_eq!(mirror.health(0), ChildHealth::Faulted);
    assert_eq!(mirror.health(1), ChildHealth::Online);

    let machine2 = machine.reboot().unwrap();
    let (noftl2, report) = NoFtl::mount(machine2.device.clone(), done).unwrap();
    assert_eq!(machine2.device.health(1), ChildHealth::Online, "the remount took the torn child");
    assert_eq!(read(&noftl2, obj, 2, report.completed_at), vec![0xEE; 4096]);
    for p in (0..6u64).filter(|&p| p != 2) {
        assert_eq!(read(&noftl2, obj, p, report.completed_at), vec![p as u8 + 1; 4096]);
    }
}

#[test]
fn power_cut_during_mount_recovers_on_retry() {
    let machine = Mirror::fresh();
    let (noftl, rid) = NoFtl::with_single_region(machine.device.clone()).unwrap();
    let obj = noftl.create_object("t", rid).unwrap();
    let mut t = SimTime::ZERO;
    for p in 0..10u64 {
        t = noftl.write(obj, p, &vec![p as u8 + 3; 4096], t).unwrap();
    }
    t = noftl.checkpoint(t).unwrap();

    // Cut the box's power again while the mount itself is scanning the
    // devices: the mount dies of the cut, and the box reboots and mounts
    // cleanly with all data.
    let torn = [(Duration(50_000), Duration::ZERO)];
    let mounted = crash::mount(machine.reboot().unwrap(), t, &torn).unwrap();
    assert_eq!(mounted.torn_mounts, 1, "the cut did not land inside the mount");
    for p in 0..10u64 {
        assert_eq!(
            read(&mounted.noftl, obj, p, mounted.report.completed_at),
            vec![p as u8 + 3; 4096]
        );
    }
}

mod props {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Checkpoint → crash → mount restores the mirror's health and
        /// dirty set for arbitrary degraded write patterns: the dirty
        /// set the verify scan reads covers exactly the blocks the lost
        /// child missed and every acknowledged write survives.
        #[test]
        fn roundtrip_restores_exact_staleness(
            seed in any::<u64>(),
            degraded_writes in 1u64..10,
        ) {
            let machine = Mirror::fresh();
            let mirror = &machine.device;
            let (noftl, rid) = NoFtl::with_single_region(mirror.clone()).unwrap();
            let obj = noftl.create_object("t", rid).unwrap();
            let mut t = SimTime::ZERO;
            let mut expected = std::collections::HashMap::new();
            let mut x = seed | 1;
            let mut rand = move || {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                x >> 33
            };
            for i in 0..8u64 {
                t = noftl.write(obj, i, &vec![(rand() % 251) as u8; 4096], t).unwrap();
                expected.insert(i, read(&noftl, obj, i, t));
            }
            t = noftl.checkpoint(t).unwrap();
            machine.lose(1, t);
            t = SimTime(t.as_nanos() + 1_000);
            for _ in 0..degraded_writes {
                let page = rand() % 8;
                let val = vec![(rand() % 251) as u8; 4096];
                t = noftl.write(obj, page, &val, t).unwrap();
                expected.insert(page, val);
            }
            // Half the cases take a second checkpoint while degraded, half
            // crash with only the pre-loss one: the verify scan finds the
            // same staleness either way.
            if seed.is_multiple_of(2) {
                t = noftl.checkpoint(t).unwrap();
            }
            let machine2 = machine.reboot().unwrap();
            let mirror2 = &machine2.device;
            let (noftl2, report) =
                NoFtl::mount(mirror2.clone(), t).unwrap();
            t = report.completed_at;
            prop_assert_eq!(mirror2.health(0), ChildHealth::Online);
            prop_assert_eq!(mirror2.health(1), ChildHealth::Faulted);
            let dirty = mirror2.dirty_segments(1);
            prop_assert!(dirty > 0);
            prop_assert!(dirty < mirror2.geometry().total_blocks());
            for (page, val) in &expected {
                prop_assert_eq!(&read(&noftl2, obj, *page, t), val);
            }
            mirror2.start_rebuild(1, t).unwrap();
            let report = mirror2.rebuild(1, t).unwrap();
            prop_assert_eq!(mirror2.health(1), ChildHealth::Online);
            prop_assert_eq!(report.segments_copied, dirty);
            prop_assert!(mirror2.fully_online());
        }
    }
}

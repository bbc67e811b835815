//! NoFTL-over-mirror integration: the storage manager mounts a
//! [`MirrorDevice`] exactly like a bare device, the checkpoint carries
//! the mirror's replication blob, and a remount restores health + dirty
//! maps (refined by the verify scan) so a rebuild provably copies only
//! the segments the lost child actually missed.

use std::sync::Arc;

use flash_sim::{
    DeviceLossInjector, FlashBackend, FlashGeometry, NandDevice, SimTime, TimingModel,
};
use noftl_core::{crash, NoFtl, NoFtlConfig, ObjectId};
use noftl_mirror::{ChildHealth, MirrorDevice};

/// Logical page `page` of `obj` as the manager reads it at `at`.
#[expect(clippy::unwrap_used, reason = "a test helper: a failed step fails the test")]
fn read(noftl: &NoFtl, obj: ObjectId, page: u64, at: SimTime) -> Vec<u8> {
    let mut data = vec![0; 4096];
    noftl.read(obj, page, &mut data, at).unwrap();
    data
}

#[expect(clippy::unwrap_used, reason = "a test helper: a failed step fails the test")]
fn fresh_mirror() -> Arc<MirrorDevice> {
    Arc::new(
        MirrorDevice::new_fresh(2, FlashGeometry::small_test(), TimingModel::default()).unwrap(),
    )
}

/// Power-cycle every child and reassemble the mirror — a box with two
/// flash devices in it, rebooted.
#[expect(clippy::unwrap_used, reason = "a test helper: a failed step fails the test")]
fn reboot(mirror: &MirrorDevice) -> Arc<MirrorDevice> {
    let children: Vec<Arc<NandDevice>> =
        mirror.children().iter().map(|c| crash::power_cycle(c).unwrap()).collect();
    let injector = Arc::new(DeviceLossInjector::new(children.len()));
    Arc::new(MirrorDevice::new(children, injector).unwrap())
}

#[test]
fn checkpoint_mount_roundtrip_restores_mirror_state_and_rebuild_copies_only_dirty() {
    let mirror = fresh_mirror();
    let (noftl, _rid) = NoFtl::with_single_region(mirror.clone(), NoFtlConfig::default()).unwrap();
    let obj = noftl.create_object_in("t", "rgAll").unwrap();
    let mut t = SimTime::ZERO;
    for p in 0..12u64 {
        t = noftl.write(obj, p, &vec![p as u8 + 1; 4096], t).unwrap();
    }
    t = noftl.checkpoint(t).unwrap();

    // Lose child 1, keep writing: only these writes may be stale on it.
    mirror.injector().arm(1, t);
    t = SimTime(t.as_nanos() + 1_000);
    for p in 0..4u64 {
        t = noftl.write(obj, p, &vec![0xA0 + p as u8; 4096], t).unwrap();
    }
    t = noftl.checkpoint(t).unwrap();
    assert_eq!(mirror.health(1), ChildHealth::Faulted);
    let dirty_before = mirror.dirty_segments(1);
    assert!(
        dirty_before > 0 && dirty_before < mirror.segment_count(),
        "degraded writes must dirty some but not all segments (got {dirty_before})"
    );

    // Reboot and remount through the standard path.
    let mirror2 = reboot(&mirror);
    let (noftl2, report) = NoFtl::mount(mirror2.clone(), NoFtlConfig::default(), t).unwrap();
    assert!(report.checkpoint_seq >= 2);
    t = report.completed_at;

    // The persisted blob (plus verify scan) brought back exactly the stale
    // set — not "everything", which is what a torn blob would force.
    assert_eq!(mirror2.health(1), ChildHealth::Faulted);
    let dirty_restored = mirror2.dirty_segments(1);
    assert!(dirty_restored > 0 && dirty_restored < mirror2.segment_count());

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
    let report = mirror2.rebuild(1, 4, t).unwrap();
    assert!(report.child_online);
    assert_eq!(report.segments_copied, dirty_restored);
    assert!(mirror2.fully_online());
    assert_eq!(mirror2.dirty_segments(1), 0);
    let copied_programs = mirror2.children()[1].stats().page_programs - programs_before;
    assert_eq!(copied_programs, report.pages_copied);
    t = report.completed_at;

    t = noftl2.checkpoint(t).unwrap();
    let mirror3 = reboot(&mirror2);
    let (noftl3, report) = NoFtl::mount(mirror3.clone(), NoFtlConfig::default(), t).unwrap();
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
    let mirror = fresh_mirror();
    let (noftl, _rid) = NoFtl::with_single_region(mirror.clone(), NoFtlConfig::default()).unwrap();
    let obj = noftl.create_object_in("t", "rgAll").unwrap();
    let mut t = SimTime::ZERO;
    for p in 0..8u64 {
        t = noftl.write(obj, p, &vec![p as u8 + 10; 4096], t).unwrap();
    }
    t = noftl.checkpoint(t).unwrap();

    // Reboot with the child still absent: restore cannot verify it and
    // must fail safe ("assume everything stale"), yet the mount serves.
    let children: Vec<Arc<NandDevice>> =
        mirror.children().iter().map(|c| crash::power_cycle(c).unwrap()).collect();
    let injector = Arc::new(DeviceLossInjector::new(children.len()));
    injector.arm(1, SimTime::ZERO);
    let mirror2 = Arc::new(MirrorDevice::new(children, injector).unwrap());
    let (noftl2, report) = NoFtl::mount(mirror2.clone(), NoFtlConfig::default(), t).unwrap();
    t = report.completed_at;
    assert_eq!(mirror2.health(1), ChildHealth::Faulted);
    assert_eq!(mirror2.dirty_segments(1), mirror2.segment_count());
    for p in 0..8u64 {
        assert_eq!(read(&noftl2, obj, p, t), vec![p as u8 + 10; 4096]);
    }

    // The device reattaches: clear the loss, rebuild, fully online.
    mirror2.injector().clear(1);
    mirror2.start_rebuild(1, t).unwrap();
    let report = mirror2.rebuild(1, 8, t).unwrap();
    assert!(report.child_online);
    assert!(mirror2.fully_online());
}

#[test]
fn power_cut_during_mount_recovers_on_retry() {
    let mirror = fresh_mirror();
    let (noftl, _rid) = NoFtl::with_single_region(mirror.clone(), NoFtlConfig::default()).unwrap();
    let obj = noftl.create_object_in("t", "rgAll").unwrap();
    let mut t = SimTime::ZERO;
    for p in 0..10u64 {
        t = noftl.write(obj, p, &vec![p as u8 + 3; 4096], t).unwrap();
    }
    t = noftl.checkpoint(t).unwrap();

    let mirror2 = reboot(&mirror);
    // Cut power again while the mount itself is scanning the device.
    for child in mirror2.children() {
        child.arm_power_cut(SimTime(t.as_nanos() + 50_000));
    }
    let err = NoFtl::mount(mirror2.clone(), NoFtlConfig::default(), t).unwrap_err();
    assert!(format!("{err}").contains("power"), "mount failed for the wrong reason: {err}");

    // Power returns: the same devices mount cleanly with all data.
    for child in mirror2.children() {
        child.clear_power_cut();
    }
    let (noftl2, report) = NoFtl::mount(mirror2, NoFtlConfig::default(), t).unwrap();
    for p in 0..10u64 {
        assert_eq!(read(&noftl2, obj, p, report.completed_at), vec![p as u8 + 3; 4096]);
    }
}

mod props {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Checkpoint → crash → mount round-trips the mirror config and
        /// segment map for arbitrary degraded write patterns: the
        /// reloaded dirty set covers exactly the blocks the lost child
        /// missed and every acknowledged write survives.
        #[test]
        fn roundtrip_restores_exact_staleness(
            seed in any::<u64>(),
            degraded_writes in 1u64..10,
        ) {
            let mirror = fresh_mirror();
            let (noftl, _rid) = NoFtl::with_single_region(mirror.clone(), NoFtlConfig::default()).unwrap();
            let obj = noftl.create_object_in("t", "rgAll").unwrap();
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
            mirror.injector().arm(1, t);
            t = SimTime(t.as_nanos() + 1_000);
            for _ in 0..degraded_writes {
                let page = rand() % 8;
                let val = vec![(rand() % 251) as u8; 4096];
                t = noftl.write(obj, page, &val, t).unwrap();
                expected.insert(page, val);
            }
            // Half the cases persist the degraded state in a second
            // checkpoint (blob path), half crash with only the clean
            // pre-loss blob (verify-scan path).
            if seed.is_multiple_of(2) {
                t = noftl.checkpoint(t).unwrap();
            }
            let mirror2 = reboot(&mirror);
            let (noftl2, report) =
                NoFtl::mount(mirror2.clone(), NoFtlConfig::default(), t).unwrap();
            t = report.completed_at;
            prop_assert_eq!(mirror2.health(0), ChildHealth::Online);
            prop_assert_eq!(mirror2.health(1), ChildHealth::Faulted);
            let dirty = mirror2.dirty_segments(1);
            prop_assert!(dirty > 0);
            prop_assert!(dirty < mirror2.segment_count());
            for (page, val) in &expected {
                prop_assert_eq!(&read(&noftl2, obj, *page, t), val);
            }
            mirror2.start_rebuild(1, t).unwrap();
            let report = mirror2.rebuild(1, 4, t).unwrap();
            prop_assert!(report.child_online);
            prop_assert_eq!(report.segments_copied, dirty);
            prop_assert!(mirror2.fully_online());
        }
    }
}

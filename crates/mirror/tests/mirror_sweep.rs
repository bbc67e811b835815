//! Acceptance sweep: 25+ randomized cycles combining device loss,
//! power cuts mid-rebuild and crashes during mount, verifying that no
//! acknowledged write is ever lost and that rebuilds only ever copy
//! segments the lost child actually missed.
//!
//! Each cycle:
//!
//! 1. writes a random workload through NoFTL over a 2-way mirror and
//!    checkpoints it;
//! 2. loses a random child and keeps writing (degraded mode), possibly
//!    checkpointing the degraded state;
//! 3. sometimes reattaches the child and rebuilds — and sometimes cuts
//!    power *mid-rebuild*, leaving torn copies for recovery to discard;
//! 4. power-cycles the box through the crash driver, sometimes cutting
//!    power again *while the mount is scanning*, each child at its own
//!    instant (the box is then power-cycled once more before the retry),
//!    and sometimes booting with the lost child still absent;
//! 5. remounts, checks the directory and every acknowledged write,
//!    rebuilds to fully online and verifies again from the rebuilt
//!    mirror.

use std::collections::HashMap;
use std::sync::Arc;

use flash_sim::{
    DeviceLossInjector, Duration, FlashBackend, FlashError, FlashGeometry, SimTime, TimingModel,
};
use noftl_core::crash::{self, Bootable, Directory};
use noftl_core::{NoFtl, NoFtlConfig};
use noftl_mirror::{ChildHealth, MirrorDevice};
use rand::{rngs::StdRng, Rng, SeedableRng};

const CYCLES: u64 = 25;
const PAGES: u64 = 24;

/// The box under test: a mirror, the child that stays absent across
/// reboots, if any, and how long after a cut's instant each child loses
/// power.  Staggered cuts let one child die during the mount scan while
/// the other keeps serving.
struct Mirror {
    device: Arc<MirrorDevice>,
    absent: Option<usize>,
    stagger: Vec<Duration>,
}

impl Bootable for Mirror {
    fn backend(&self) -> Arc<dyn FlashBackend> {
        self.device.clone()
    }

    fn cut_power(&self, at: SimTime) {
        for (child, &lag) in self.device.children().iter().zip(&self.stagger) {
            child.arm_power_cut(at + lag);
        }
    }

    /// Power-cycle every child and reassemble the mirror.
    fn reboot(&self) -> noftl_core::Result<Mirror> {
        let children = self
            .device
            .children()
            .iter()
            .map(|c| crash::power_cycle(c))
            .collect::<noftl_core::Result<Vec<_>>>()?;
        let injector = Arc::new(DeviceLossInjector::new(children.len()));
        if let Some(child) = self.absent {
            injector.arm(child, SimTime::ZERO);
        }
        let device = Arc::new(MirrorDevice::new(children, injector)?);
        Ok(Mirror { device, absent: self.absent, stagger: self.stagger.clone() })
    }
}

#[test]
fn randomized_loss_and_crash_sweep_loses_no_acknowledged_write() {
    let mut torn_mounts = 0u64;
    let mut interrupted_rebuilds = 0u64;
    let mut absent_boots = 0u64;
    let mut total_copied = 0u64;
    for cycle in 0..CYCLES {
        let mut rng = StdRng::seed_from_u64(0x5EED_0000 + cycle);
        let mirror = Arc::new(
            MirrorDevice::new_fresh(2, FlashGeometry::small_test(), TimingModel::default())
                .unwrap(),
        );
        let (noftl, _rid) =
            NoFtl::with_single_region(mirror.clone(), NoFtlConfig::default()).unwrap();
        let obj = noftl.create_object_in("t", "rgAll").unwrap();
        let mut t = SimTime(1_000);
        let mut acked: HashMap<u64, Vec<u8>> = HashMap::new();
        let write = |noftl: &NoFtl,
                     t: &mut SimTime,
                     rng: &mut StdRng,
                     acked: &mut HashMap<u64, Vec<u8>>| {
            let page = rng.random_range(0..PAGES);
            let val = vec![rng.random_range(1..=255u32) as u8; 4096];
            *t = noftl.write(obj, page, &val, *t).unwrap();
            acked.insert(page, val);
        };

        // Phase 1: healthy writes + checkpoint (always, so a mount target
        // exists).
        for _ in 0..rng.random_range(10..30u32) {
            write(&noftl, &mut t, &mut rng, &mut acked);
        }
        t = noftl.checkpoint(t).unwrap();

        // Phase 2: lose a child, keep writing degraded.
        let lost_child = rng.random_range(0..2usize);
        mirror.injector().arm(lost_child, t);
        t = SimTime(t.as_nanos() + 1);
        for _ in 0..rng.random_range(5..20u32) {
            write(&noftl, &mut t, &mut rng, &mut acked);
        }
        assert_eq!(mirror.health(lost_child), ChildHealth::Faulted, "cycle {cycle}");
        if rng.random_range(0..100) < 50 {
            // Persist the degraded state (blob carries the dirty map).
            t = noftl.checkpoint(t).unwrap();
        }

        // Phase 3: sometimes reattach and rebuild, sometimes with a power
        // cut landing mid-rebuild.
        let mut cut_armed = false;
        if rng.random_range(0..100) < 60 {
            mirror.injector().clear(lost_child);
            mirror.start_rebuild(lost_child, t).unwrap();
            if rng.random_range(0..100) < 50 {
                // Cut power a little into the copy stream.
                let cut_at = SimTime(t.as_nanos() + rng.random_range(10_000..200_000u64));
                for child in mirror.children() {
                    child.arm_power_cut(cut_at);
                }
                cut_armed = true;
                let mut clock = t;
                let outcome = loop {
                    match mirror.rebuild_step(lost_child, 4, clock) {
                        Ok(None) => break Ok(()),
                        Ok(Some(copy)) => clock = clock.max(copy.completed_at),
                        Err(e) => break Err(e),
                    }
                };
                match outcome {
                    Ok(()) => {} // the cut landed after the rebuild drained
                    Err(e) => {
                        assert!(
                            e.is_power_loss(),
                            "cycle {cycle}: rebuild died of the wrong cause: {e}"
                        );
                        interrupted_rebuilds += 1;
                    }
                }
            } else {
                let report = mirror.rebuild(lost_child, 4, t).unwrap();
                assert!(report.child_online, "cycle {cycle}");
                t = t.max(report.completed_at);
                // A few more healthy writes after the rebuild.
                for _ in 0..rng.random_range(1..6u32) {
                    write(&noftl, &mut t, &mut rng, &mut acked);
                }
            }
        }
        if !cut_armed {
            // Crash now (all acknowledged writes have completed by `t`).
            for child in mirror.children() {
                child.arm_power_cut(t);
            }
        }
        // The mirror is genuinely dead from here on.
        let err = noftl.write(obj, 0, &[0u8; 4096], SimTime(t.as_nanos() + 1)).unwrap_err();
        let ferr: FlashError = match err {
            noftl_core::NoFtlError::Flash(f) => f,
            other => panic!("cycle {cycle}: expected a flash error, got {other}"),
        };
        assert!(
            ferr.is_power_loss() || matches!(ferr, FlashError::NoHealthyChild { .. }),
            "cycle {cycle}: post-crash write failed for the wrong reason: {ferr}"
        );

        // Phase 4: reboot. Sometimes the lost child is still absent;
        // sometimes power dies again during the mount itself, each child
        // at its own instant, and the box is power-cycled once more for
        // the real mount.
        let still_absent =
            mirror.health(lost_child) == ChildHealth::Faulted && rng.random_range(0..100) < 30;
        let absent = still_absent.then_some(lost_child);
        let stagger = vec![Duration::ZERO; 2];
        let mut rebooted = Mirror { device: mirror.clone(), absent, stagger }.reboot().unwrap();
        if still_absent {
            absent_boots += 1;
        }
        let torn: Vec<(Duration, Duration)> = if rng.random_range(0..100) < 40 {
            rebooted.stagger =
                (0..2).map(|_| Duration(rng.random_range(1_000..100_000u64))).collect();
            vec![(Duration::ZERO, Duration(1_000_000))]
        } else {
            Vec::new()
        };
        let mount_at = SimTime(t.as_nanos() + 10_000);
        let mounted = crash::mount(rebooted, mount_at, &torn)
            .unwrap_or_else(|e| panic!("cycle {cycle}: mount failed: {e}"));
        // No object or region was created or dropped after the first
        // checkpoint, so the directory at the crash is the committed one.
        let directory = Directory::of(&noftl);
        crash::check_mounted(&mounted.noftl, &directory, &directory)
            .and_then(|()| crash::check_recovered(&mounted.noftl, &directory, false))
            .unwrap_or_else(|e| panic!("cycle {cycle}: {e}"));
        torn_mounts += mounted.torn_mounts;
        let (mirror2, noftl2, report) = (mounted.machine.device, mounted.noftl, mounted.report);
        let mut t2 = report.completed_at;

        // Zero acknowledged-write loss, served possibly degraded.
        for (page, val) in &acked {
            let mut data = vec![0; 4096];
            let done = noftl2.read(obj, *page, &mut data, t2).unwrap();
            assert_eq!(&data, val, "cycle {cycle}: page {page} lost after remount");
            t2 = t2.max(done);
        }

        // Phase 5: bring the mirror fully online and verify once more.
        if !mirror2.fully_online() {
            let stale: Vec<usize> =
                (0..2).filter(|&c| mirror2.health(c) != ChildHealth::Online).collect();
            for child in stale {
                mirror2.injector().clear(child);
                let dirty = mirror2.dirty_segments(child);
                mirror2.start_rebuild(child, t2).unwrap();
                let report = mirror2.rebuild(child, 4, t2).unwrap();
                assert!(report.child_online, "cycle {cycle}");
                // The rebuild copies exactly what the reloaded map said
                // was stale.
                assert_eq!(
                    report.segments_copied, dirty,
                    "cycle {cycle}: rebuild copied a different segment count than the map held"
                );
                total_copied += report.segments_copied;
                t2 = t2.max(report.completed_at);
            }
        }
        assert!(mirror2.fully_online(), "cycle {cycle}");
        for (page, val) in &acked {
            let mut data = vec![0; 4096];
            let done = noftl2.read(obj, *page, &mut data, t2).unwrap();
            assert_eq!(&data, val, "cycle {cycle}: page {page} lost after rebuild");
            t2 = t2.max(done);
        }
    }
    // The sweep must actually have exercised its failure modes.
    assert!(torn_mounts > 0, "no cycle crashed during mount");
    assert!(interrupted_rebuilds > 0, "no cycle cut power mid-rebuild");
    assert!(absent_boots > 0, "no cycle booted with the child still absent");
    println!(
        "{CYCLES} cycles: {torn_mounts} mounts crashed, {interrupted_rebuilds} rebuilds \
         interrupted, {absent_boots} boots with an absent child, {total_copied} segments copied"
    );
}

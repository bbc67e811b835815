//! The mirror box the integration tests power-cycle: two children behind
//! one [`MirrorDevice`], cut and rebooted as one [`crash::Bootable`]
//! machine.
//!
//! A box cut ([`Bootable::cut_power`]) takes every child at once.  A test
//! loses one child with [`Mirror::lose`] and brings it back with
//! [`Mirror::reattach`]; neither ever postpones the box cut.  A reboot
//! power-cycles every child through its image bytes and reassembles the
//! mirror.

use std::cell::Cell;
use std::sync::Arc;

use flash_sim::{Duration, FlashBackend, FlashError, FlashGeometry, SimTime, TimingModel};
use noftl_core::crash::{self, Bootable};
use noftl_mirror::{ChildHealth, MirrorDevice};

/// A box of two flash devices mirrored.
pub struct Mirror {
    /// The mirror over the box's children.
    pub device: Arc<MirrorDevice>,
    /// The child that boots without power if it is `Faulted` when the box
    /// reboots; once absent, it stays absent across later reboots.
    pub absent: Option<usize>,
    /// How long after a box cut each child loses power once the box has
    /// rebooted: staggered cuts let one child die during the mount scan
    /// while the other keeps serving.  Before the first reboot a box cut
    /// takes every child at once.
    pub stagger: Vec<Duration>,
    /// Whether this box was booted by [`Bootable::reboot`].
    rebooted: bool,
    /// The armed box cut, if any.
    cut: Cell<Option<SimTime>>,
}

impl Mirror {
    /// A box of two fresh devices (the unit-test geometry, default timing)
    /// sharing one metrics registry, with no child absent and no stagger.
    #[expect(clippy::unwrap_used, reason = "a test helper: a failed step fails the test")]
    pub fn fresh() -> Mirror {
        let device =
            MirrorDevice::new_fresh(2, FlashGeometry::small_test(), TimingModel::default());
        Mirror {
            device: Arc::new(device.unwrap()),
            absent: None,
            stagger: vec![Duration::ZERO; 2],
            rebooted: false,
            cut: Cell::new(None),
        }
    }

    /// When a box cut at `at` reaches `child`.
    fn reaches(&self, child: usize, at: SimTime) -> SimTime {
        at + if self.rebooted { self.stagger[child] } else { Duration::ZERO }
    }

    /// Cut `child`'s power at `at`, or at the armed cut if that is earlier.
    pub fn lose(&self, child: usize, at: SimTime) {
        let device = &self.device.children()[child];
        device.arm_power_cut(device.power_cut().map_or(at, |armed| armed.min(at)));
    }

    /// Give `child` its power back at `at`, until the box cut if one is
    /// armed.  A box whose cut has passed by `at` stays dark: `PowerLoss`.
    pub fn reattach(&self, child: usize, at: SimTime) -> Result<(), FlashError> {
        if let Some(cut) = self.cut.get().filter(|&cut| cut <= at) {
            return Err(FlashError::PowerLoss { at: cut });
        }
        self.device.children()[child].clear_power_cut();
        if let Some(cut) = self.cut.get() {
            self.lose(child, self.reaches(child, cut));
        }
        Ok(())
    }
}

impl Bootable for Mirror {
    fn backend(&self) -> Arc<dyn FlashBackend> {
        self.device.clone()
    }

    fn cut_power(&self, at: SimTime) {
        self.cut.set(Some(at));
        for child in 0..self.device.children().len() {
            self.lose(child, self.reaches(child, at));
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
        let lost = |&c: &usize| self.rebooted || self.device.health(c) == ChildHealth::Faulted;
        let absent = self.absent.filter(lost);
        if let Some(child) = absent {
            children[child].arm_power_cut(SimTime::ZERO);
        }
        let device = Arc::new(MirrorDevice::new(children)?);
        let stagger = self.stagger.clone();
        Ok(Mirror { device, absent, stagger, rebooted: true, cut: Cell::new(None) })
    }
}

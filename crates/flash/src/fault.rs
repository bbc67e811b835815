//! Fault injection above the single-device level.
//!
//! The power-cut injector (`NandDevice::arm_power_cut`) models the loss of
//! *power* — every device in the box dies at the same instant and comes
//! back after a reboot.  [`DeviceLossInjector`] models the loss of a
//! *device*: one child of a replicated set disappears at a scheduled
//! simulated instant (hot-unplug, firmware death, a pulled cable) while
//! its siblings keep serving.  The mirror layer consults the injector at
//! submit time and fails the lost child's share of the fan-out with
//! [`crate::FlashError::DeviceLost`], driving its health machine to
//! `Faulted` without perturbing the device simulation itself.
//!
//! The injector is deterministic (a fixed schedule, no wall clock) and
//! lock-free: slots are atomics, so consulting it adds no lock to the
//! lock order.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::time::SimTime;

/// Sentinel for "no loss scheduled".
const NONE: u64 = u64::MAX;

/// A deterministic device-loss schedule over the children of a mirror.
///
/// ```
/// use flash_sim::fault::DeviceLossInjector;
/// use flash_sim::SimTime;
///
/// let inj = DeviceLossInjector::new(2);
/// inj.arm(1, SimTime(500));
/// assert!(!inj.is_lost(1, SimTime(499)));
/// assert!(inj.is_lost(1, SimTime(500)));
/// assert!(!inj.is_lost(0, SimTime(500)));
/// inj.clear(1); // the device was reattached or replaced
/// assert!(!inj.is_lost(1, SimTime(501)));
/// ```
#[derive(Debug)]
pub struct DeviceLossInjector {
    /// Per-child loss instants in nanoseconds (`NONE` = healthy forever).
    slots: Vec<AtomicU64>,
}

impl DeviceLossInjector {
    /// An injector for a set of `children` devices, none scheduled to fail.
    pub fn new(children: usize) -> Self {
        DeviceLossInjector { slots: (0..children).map(|_| AtomicU64::new(NONE)).collect() }
    }

    /// Number of child slots.
    pub fn children(&self) -> usize {
        self.slots.len()
    }

    /// Schedule child `child` to disappear at `at` (operations issued at
    /// or after that instant fail).  Re-arming overwrites any previous
    /// schedule; out-of-range children are ignored.
    pub fn arm(&self, child: usize, at: SimTime) {
        if let Some(slot) = self.slots.get(child) {
            slot.store(at.as_nanos(), Ordering::Release);
        }
    }

    /// Cancel the schedule of `child` (the device was reattached or a
    /// replacement took its slot).
    pub fn clear(&self, child: usize) {
        if let Some(slot) = self.slots.get(child) {
            slot.store(NONE, Ordering::Release);
        }
    }

    /// The scheduled loss instant of `child`, if any.
    pub fn loss_at(&self, child: usize) -> Option<SimTime> {
        let v = self.slots.get(child)?.load(Ordering::Acquire);
        (v != NONE).then_some(SimTime(v))
    }

    /// Is `child` lost for an operation issued at `at`?
    pub fn is_lost(&self, child: usize, at: SimTime) -> bool {
        self.loss_at(child).is_some_and(|loss| at >= loss)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unarmed_children_never_fail() {
        let inj = DeviceLossInjector::new(3);
        assert_eq!(inj.children(), 3);
        for c in 0..3 {
            assert!(!inj.is_lost(c, SimTime(u64::MAX - 1)));
            assert_eq!(inj.loss_at(c), None);
        }
    }

    #[test]
    fn losses_are_per_child_and_edge_inclusive() {
        let inj = DeviceLossInjector::new(2);
        inj.arm(0, SimTime(100));
        assert!(!inj.is_lost(0, SimTime(99)));
        assert!(inj.is_lost(0, SimTime(100)));
        assert!(!inj.is_lost(1, SimTime(100)));
        assert_eq!(inj.loss_at(0), Some(SimTime(100)));
    }

    #[test]
    fn clear_and_rearm() {
        let inj = DeviceLossInjector::new(1);
        inj.arm(0, SimTime::ZERO);
        assert!(inj.is_lost(0, SimTime::ZERO));
        inj.clear(0);
        assert!(!inj.is_lost(0, SimTime::ZERO));
        inj.arm(0, SimTime(7));
        assert!(inj.is_lost(0, SimTime(9)));
    }

    #[test]
    fn out_of_range_children_are_ignored() {
        let inj = DeviceLossInjector::new(1);
        inj.arm(5, SimTime::ZERO);
        inj.clear(5);
        assert_eq!(inj.loss_at(5), None);
        assert!(!inj.is_lost(5, SimTime::ZERO));
    }
}

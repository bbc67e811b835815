//! Composition of die and channel occupancy into end-to-end operation
//! latencies.
//!
//! The scheduler implements the resource model used by the device:
//!
//! * **Read**: the die performs an array read (tR), then the channel
//!   transfers the page to the controller.  The die is released after the
//!   array read; the channel is busy only during the transfer.
//! * **Program**: the channel first transfers the page to the die's page
//!   register, then the die programs the array (tPROG).  The channel is
//!   released after the transfer.
//! * **Erase**: die-only.
//! * **Copyback**: die-only (internal read + program, no channel traffic) —
//!   this is exactly why GC under NoFTL prefers copybacks.
//! * **Metadata read**: array read + a tiny OOB transfer.
//!
//! Each phase is one reservation on the resource's occupancy timeline
//! (`Timeline` in the `die` module): the first idle window at or after the
//! instant the previous phase ends.  There is one reservation rule — for
//! dies and channels, with the arbiter on or off.

use crate::command::OpKind;
use crate::die::{Die, Slot, Timeline};
use crate::geometry::FlashGeometry;
use crate::time::{Duration, SimTime};
use crate::timing::TimingModel;

/// Outcome of scheduling one operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Scheduled {
    /// When the operation actually started on the die.
    pub start: SimTime,
    /// When the result is available to the host (end-to-end completion).
    pub complete: SimTime,
    /// The command's claim on its die; `array.depth` is the die's queue
    /// depth at issue time (1 = the die was idle).
    pub array: Slot,
    /// Its claim on the channel, if it moves data.
    pub bus: Option<Slot>,
}

impl Scheduled {
    /// End-to-end latency relative to the issue time.
    pub fn latency(&self, issued_at: SimTime) -> Duration {
        self.complete - issued_at
    }
}

/// What one command occupies: the die's array for `array`, and — for the
/// three kinds that move data — the channel for a transfer before or
/// after it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Shape {
    /// Time the die's array is busy.
    pub array: Duration,
    /// Channel transfer `(duration, bytes moved)`; `None` for die-only
    /// commands.
    pub xfer: Option<(Duration, u32)>,
    /// The transfer precedes the array phase (a program loads the page
    /// register first) instead of following it (a read ships its result).
    pub xfer_first: bool,
}

impl Shape {
    /// The resource model of the module docs, one row per command kind.
    pub(crate) fn of(kind: OpKind, timing: &TimingModel, geometry: &FlashGeometry) -> Shape {
        let page = || Some((timing.transfer_time(geometry.page_size), geometry.page_size));
        let (array, xfer, xfer_first) = match kind {
            OpKind::Read => (timing.read_array_time(), page(), false),
            OpKind::Program => (timing.program_array_time(), page(), true),
            OpKind::Erase => (timing.erase_time(), None, false),
            OpKind::Copyback => (timing.copyback_time(), None, false),
            OpKind::MetadataRead => {
                let oob = Some((timing.oob_transfer_time(), geometry.oob_size));
                (timing.read_array_time(), oob, false)
            }
        };
        Shape { array, xfer, xfer_first }
    }
}

/// Reserve the die — and, for a command that moves data, its channel —
/// for one command of `shape` issued at `at`: channel then die for a
/// program, die then channel for a read.  This is the only place a
/// command claims device time.
pub(crate) fn schedule(
    die: &mut Die,
    channel: Option<&mut Timeline>,
    shape: &Shape,
    at: SimTime,
) -> Scheduled {
    let (Some(channel), Some((xfer, _))) = (channel, shape.xfer) else {
        let array = die.reserve(at, shape.array);
        return Scheduled { start: array.start, complete: array.end, array, bus: None };
    };
    if shape.xfer_first {
        let bus = channel.reserve(at, xfer);
        let array = die.reserve(bus.end, shape.array);
        Scheduled { start: bus.start, complete: array.end, array, bus: Some(bus) }
    } else {
        let array = die.reserve(at, shape.array);
        let bus = channel.reserve(array.end, xfer);
        Scheduled { start: array.start, complete: bus.end, array, bus: Some(bus) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn die() -> Die {
        Die::new(1, 4, 8)
    }

    /// Schedule one `kind` command (4 KiB pages, 64 B OOB).
    fn issue(
        kind: OpKind,
        die: &mut Die,
        channel: Option<&mut Timeline>,
        at: SimTime,
    ) -> Scheduled {
        let shape = Shape::of(kind, &TimingModel::mlc_2015(), &FlashGeometry::small_test());
        schedule(die, channel, &shape, at)
    }

    #[test]
    fn read_latency_is_array_plus_transfer() {
        let mut d = die();
        let mut ch = Timeline::default();
        let t = TimingModel::mlc_2015();
        let s = issue(OpKind::Read, &mut d, Some(&mut ch), SimTime::ZERO);
        let expected = t.read_array_time().as_us_f64() + t.transfer_time(4096).as_us_f64();
        assert!((s.latency(SimTime::ZERO).as_us_f64() - expected).abs() < 1e-6);
    }

    #[test]
    fn program_latency_is_transfer_plus_array() {
        let mut d = die();
        let mut ch = Timeline::default();
        let t = TimingModel::mlc_2015();
        let s = issue(OpKind::Program, &mut d, Some(&mut ch), SimTime::ZERO);
        let expected = t.program_array_time().as_us_f64() + t.transfer_time(4096).as_us_f64();
        assert!((s.latency(SimTime::ZERO).as_us_f64() - expected).abs() < 1e-6);
    }

    #[test]
    fn copyback_avoids_the_channel() {
        let mut d = die();
        let mut ch = Timeline::default();
        let t = TimingModel::mlc_2015();
        // Even when handed the channel, a die-only shape leaves it alone.
        let s = issue(OpKind::Copyback, &mut d, Some(&mut ch), SimTime::ZERO);
        assert_eq!(ch.end(), SimTime::ZERO);
        assert!(
            s.latency(SimTime::ZERO) < {
                // read + transfer out + transfer in + program (external move)
                t.read_array_time()
                    + t.transfer_time(4096)
                    + t.transfer_time(4096)
                    + t.program_array_time()
            }
        );
    }

    #[test]
    fn reads_to_different_dies_overlap() {
        let mut d1 = die();
        let mut d2 = die();
        let mut ch1 = Timeline::default();
        let mut ch2 = Timeline::default();
        let a = issue(OpKind::Read, &mut d1, Some(&mut ch1), SimTime::ZERO);
        let b = issue(OpKind::Read, &mut d2, Some(&mut ch2), SimTime::ZERO);
        // Same completion time: full parallelism across dies and channels.
        assert_eq!(a.complete, b.complete);
    }

    #[test]
    fn reads_to_same_die_serialize() {
        let mut d = die();
        let mut ch = Timeline::default();
        let t = TimingModel::mlc_2015();
        let a = issue(OpKind::Read, &mut d, Some(&mut ch), SimTime::ZERO);
        let b = issue(OpKind::Read, &mut d, Some(&mut ch), SimTime::ZERO);
        assert!(b.complete > a.complete);
        // The array phases serialize, transfers pipeline after them.
        assert!(b.start >= a.start + t.read_array_time());
    }

    #[test]
    fn dies_sharing_a_channel_contend_on_transfers() {
        let mut d1 = die();
        let mut d2 = die();
        let mut shared = Timeline::default();
        let t = TimingModel::mlc_2015();
        let a = issue(OpKind::Read, &mut d1, Some(&mut shared), SimTime::ZERO);
        let b = issue(OpKind::Read, &mut d2, Some(&mut shared), SimTime::ZERO);
        // Array reads overlap (different dies) but the second transfer must
        // queue behind the first on the shared channel.
        assert_eq!(b.complete, a.complete + t.transfer_time(4096));
    }

    #[test]
    fn a_command_called_later_but_issued_earlier_takes_the_earlier_window() {
        // The host runs one client's whole transaction before the next
        // client's: the second call carries the earlier simulated instant.
        let mut d = die();
        let mut ch = Timeline::default();
        let t = TimingModel::mlc_2015();
        let late = issue(OpKind::Read, &mut d, Some(&mut ch), SimTime::from_us(40_000));
        let early = issue(OpKind::Read, &mut d, Some(&mut ch), SimTime::from_us(100));
        let read = t.read_array_time() + t.transfer_time(4096);
        assert_eq!(early.latency(SimTime::from_us(100)), read, "the die was idle at t=100 us");
        assert_eq!(early.array.depth, 1);
        let shipped = early.bus.expect("a read moves data");
        assert!(shipped.backfilled, "its transfer lies before the channel's last reserved end");
        assert_eq!(late.latency(SimTime::from_us(40_000)), read);
        // Not enough room before a reservation: wait behind it.
        let squeezed = SimTime::from_us(39_999);
        let behind = issue(OpKind::Read, &mut d, Some(&mut ch), squeezed);
        assert_eq!(behind.start, late.start + t.read_array_time());
        assert_eq!(behind.array.depth, 2);
    }

    #[test]
    fn erase_is_die_only() {
        let mut d = die();
        let t = TimingModel::mlc_2015();
        let s = issue(OpKind::Erase, &mut d, None, SimTime::from_us(7));
        assert_eq!(s.start, SimTime::from_us(7));
        assert_eq!(s.complete, SimTime::from_us(7) + t.erase_time());
    }

    #[test]
    fn metadata_read_is_cheaper_than_full_read() {
        let mut d1 = die();
        let mut d2 = die();
        let mut ch1 = Timeline::default();
        let mut ch2 = Timeline::default();
        let full = issue(OpKind::Read, &mut d1, Some(&mut ch1), SimTime::ZERO);
        let meta = issue(OpKind::MetadataRead, &mut d2, Some(&mut ch2), SimTime::ZERO);
        assert!(meta.complete < full.complete);
    }
}

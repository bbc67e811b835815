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
//! Each phase is one reservation on the resource's occupancy
//! `Timeline`: the disjoint intervals of simulated time already claimed
//! on it.  A reservation takes the **first idle window at or after the
//! instant the previous phase ends that is long enough**, wherever that
//! window lies: a hole between two existing reservations is as good as
//! the tail.  Where a command lands therefore depends on the simulated
//! instants of the commands reserved so far, not on the order the host
//! happened to make its calls in.  There is one reservation rule — for
//! dies and channels, with the arbiter on or off.
//!
//! The first-fit search walks only the part of a timeline that can hold
//! a hole.  A timeline knows the last reservation with idle time before
//! it; every later one starts where the one before it ends, so a
//! reservation that finds no hole up to there goes to the tail without
//! walking the back-to-back queue (a KV flush issues a whole run's pages
//! at one instant, and each page would otherwise walk all the pages
//! ahead of it).
//!
//! `schedule` is the device's one reservation site.  `Timeline::reserve`
//! and the die counters updated around it are private to this module, so
//! a second site does not compile, and `clippy.toml` lets only
//! `NandDevice::phases` call `schedule`.

#![deny(clippy::indexing_slicing)]

use std::collections::VecDeque;

use crate::command::OpKind;
use crate::die::Die;
use crate::geometry::FlashGeometry;
use crate::time::{Duration, SimTime};
use crate::timing::TimingModel;

/// Reservations a [`Timeline`] remembers.  A constant of the model, not a
/// knob: at 4 096 every benchmark workload reproduces the unbounded
/// timeline bit for bit, and `flash.timeline.clamped` says so when a
/// workload outgrows it.
const HISTORY: usize = 4096;

/// Where a reservation landed — or, from [`Timeline::probe`], would land.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Slot {
    /// First instant of the claimed window.
    pub start: SimTime,
    /// First instant after it.
    pub end: SimTime,
    /// Reservations still unfinished at the issue instant that this one
    /// waited behind, plus itself (1 = the resource was idle).
    pub depth: u32,
    /// The window lies before the resource's last reserved end: the
    /// reservation filled a hole instead of extending the tail.
    pub backfilled: bool,
    /// The issue instant lay below the timeline's floor (history already
    /// forgotten), so the window may be later than an unbounded timeline
    /// would have found.
    pub clamped: bool,
}

/// Occupancy of one resource (a die's array, a channel's bus): disjoint
/// busy intervals `(start, end)` sorted by start — and therefore by end.
#[derive(Debug)]
pub(crate) struct Timeline {
    busy: VecDeque<(SimTime, SimTime)>,
    /// Every interval past this index starts exactly where the one before
    /// it ends: only the intervals up to it can have a hole before them.
    dense_from: usize,
    /// Nothing is placed before this instant: the end of the newest
    /// forgotten reservation.  Forgetting can only make a later
    /// reservation start later, never overlap.
    floor: SimTime,
    /// Reservations remembered: [`HISTORY`] outside unit tests.
    history: usize,
}

impl Default for Timeline {
    fn default() -> Self {
        // Sized once, so a steady-state reservation never allocates.
        Timeline {
            busy: VecDeque::with_capacity(HISTORY + 1),
            dense_from: 0,
            floor: SimTime::ZERO,
            history: HISTORY,
        }
    }
}

impl Timeline {
    /// End of all reserved work (the floor once everything is forgotten).
    pub(crate) fn end(&self) -> SimTime {
        self.busy.back().map_or(self.floor, |&(_, end)| end)
    }

    /// Reservations unfinished at `at`, started or not.
    pub(crate) fn pending_at(&self, at: SimTime) -> u32 {
        (self.busy.len() - self.busy.partition_point(|&(_, end)| end <= at)) as u32
    }

    /// Where a reservation of `dur` issued at `at` would land, and the
    /// index it would be inserted at: binary search to the first interval
    /// ending after `at`, then forward to the first hole of `dur`.  The
    /// walk stops at `dense_from`: past it the intervals lie back to back,
    /// so a reservation that has not fitted by then goes to the tail (one
    /// of zero length, as under `TimingModel::instant`, walks on: it fits
    /// between any two).  Purely observational.
    pub(crate) fn probe(&self, at: SimTime, dur: Duration) -> (usize, Slot) {
        let mut start = at.max(self.floor);
        let first = self.busy.partition_point(|&(_, end)| end <= start);
        let len = self.busy.len();
        let holes = if dur == Duration::ZERO { len } else { len.min(self.dense_from + 1) };
        let mut index = first;
        while let Some(&(next, end)) = self.busy.get(index).filter(|_| index < holes) {
            if start + dur <= next {
                break;
            }
            start = start.max(end);
            index += 1;
        }
        if index >= holes {
            start = start.max(self.end());
            index = len;
        }
        let slot = Slot {
            start,
            end: start + dur,
            depth: (index - first) as u32 + 1,
            backfilled: index < len,
            clamped: at < self.floor,
        };
        (index, slot)
    }

    /// Claim the first idle window of `dur` at or after `at`.  This is the
    /// only function that claims device time, and it is private to this
    /// module: outside the tests only [`schedule`] reaches it (a die's
    /// through [`claim`]).
    fn reserve(&mut self, at: SimTime, dur: Duration) -> Slot {
        let (index, slot) = self.probe(at, dur);
        // A backfill shifts the intervals from `index` on by one; an append
        // after idle time is the last interval with a hole before it.
        if slot.backfilled && index <= self.dense_from {
            self.dense_from += 1;
        } else if slot.start > self.end() {
            self.dense_from = index;
        }
        self.busy.insert(index, (slot.start, slot.end));
        if self.busy.len() > self.history {
            if let Some((_, end)) = self.busy.pop_front() {
                self.floor = end;
                self.dense_from = self.dense_from.saturating_sub(1);
            }
        }
        slot
    }
}

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
        let array = claim(die, at, shape.array);
        return Scheduled { start: array.start, complete: array.end, array, bus: None };
    };
    if shape.xfer_first {
        let bus = channel.reserve(at, xfer);
        let array = claim(die, bus.end, shape.array);
        Scheduled { start: bus.start, complete: array.end, array, bus: Some(bus) }
    } else {
        let array = claim(die, at, shape.array);
        let bus = channel.reserve(array.end, xfer);
        Scheduled { start: array.start, complete: bus.end, array, bus: Some(bus) }
    }
}

/// Reserve the die's array for an operation of length `dur` issued at
/// `at` and count it; the slot's `depth` is the die's queue depth at
/// issue time.
fn claim(die: &mut Die, at: SimTime, dur: Duration) -> Slot {
    let slot = die.timeline.reserve(at, dur);
    die.busy_time += dur;
    die.ops += 1;
    die.queue_depth_hwm = die.queue_depth_hwm.max(slot.depth);
    slot
}

#[cfg(test)]
#[expect(clippy::disallowed_methods, reason = "the scheduler's own tests call `schedule` directly")]
mod tests {
    use proptest::prelude::*;

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

    /// A timeline that remembers `history` reservations.
    fn timeline(history: usize) -> Timeline {
        Timeline { busy: VecDeque::new(), dense_from: 0, floor: SimTime::ZERO, history }
    }

    /// The reference first fit: forward from the first interval ending
    /// after `at`, one interval at a time over the whole timeline, to the
    /// first hole of `dur` or the tail.
    fn probe_by_walk(t: &Timeline, at: SimTime, dur: Duration) -> (usize, Slot) {
        let mut start = at.max(t.floor);
        let first = t.busy.partition_point(|&(_, end)| end <= start);
        let mut index = first;
        while let Some(&(next, end)) = t.busy.get(index) {
            if start + dur <= next {
                break;
            }
            start = start.max(end);
            index += 1;
        }
        let slot = Slot {
            start,
            end: start + dur,
            depth: (index - first) as u32 + 1,
            backfilled: index < t.busy.len(),
            clamped: at < t.floor,
        };
        (index, slot)
    }

    /// Reserve through [`probe_by_walk`]: the reference timeline, which
    /// never reads its `dense_from`.
    fn reserve_by_walk(t: &mut Timeline, at: SimTime, dur: Duration) -> (usize, Slot) {
        let (index, slot) = probe_by_walk(t, at, dur);
        t.busy.insert(index, (slot.start, slot.end));
        if t.busy.len() > t.history {
            t.floor = t.busy.pop_front().expect("over history").1;
        }
        (index, slot)
    }

    /// Every interval past `dense_from` starts where the one before it
    /// ends.
    fn dense_tail_is_back_to_back(t: &Timeline) -> bool {
        let tail = t.busy.iter().skip(t.dense_from);
        tail.clone().zip(tail.skip(1)).all(|(a, b)| a.1 == b.0)
    }

    #[test]
    fn a_long_back_to_back_queue_is_skipped_but_counted() {
        let mut t = timeline(usize::MAX);
        let mut walked = timeline(usize::MAX);
        let both = |t: &mut Timeline, walked: &mut Timeline, at: u64, dur: u64| {
            let (at, dur) = (SimTime(at), Duration(dur));
            let want = reserve_by_walk(walked, at, dur).1;
            let slot = t.reserve(at, dur);
            assert_eq!(slot, want, "issued at {at:?} for {dur:?}");
            slot
        };
        // [1000, 1010), leaving [0, 1000) idle.
        both(&mut t, &mut walked, 1_000, 10);
        // 4 100 reservations issued at one instant queue back to back
        // behind it; each counts every one ahead of it.
        for k in 0..4_100u64 {
            let slot = both(&mut t, &mut walked, 1_000, 10);
            assert_eq!(slot.start, SimTime(1_010 + k * 10));
            assert_eq!(slot.depth as u64, k + 2);
            assert!(!slot.backfilled);
        }
        assert_eq!(t.dense_from, 0, "the only hole lies before the first interval");
        // A short one still finds the early hole.
        let short = both(&mut t, &mut walked, 0, 5);
        assert_eq!((short.start, short.depth, short.backfilled), (SimTime(0), 1, true));
        assert_eq!(t.dense_from, 1, "the backfill moved the holed interval up by one");
        // And what is left of it: [5, 1000).
        let after = both(&mut t, &mut walked, 0, 995);
        assert_eq!((after.start, after.depth, after.backfilled), (SimTime(5), 2, true));
        // Now the whole timeline lies back to back: nothing fits before
        // the tail, however early it is issued.
        let tail = both(&mut t, &mut walked, 0, 1);
        assert_eq!((tail.start, tail.depth), (SimTime(42_010), 4_104));
        assert!(dense_tail_is_back_to_back(&t));
        assert_eq!(t.busy, walked.busy);
    }

    /// Brute force over integer instants: which are claimed, by anyone,
    /// ever — no intervals, no search, no forgetting.
    struct Claimed(Vec<bool>);

    impl Claimed {
        fn first_fit(&self, at: u64, dur: u64) -> u64 {
            let free =
                |s: u64| (s..s + dur).all(|t| !self.0.get(t as usize).copied().unwrap_or(false));
            (at..).find(|s| free(*s)).expect("the tail is always free")
        }

        fn claim(&mut self, start: u64, end: u64) {
            if self.0.len() < end as usize {
                self.0.resize(end as usize, false);
            }
            for t in start..end {
                assert!(
                    !std::mem::replace(&mut self.0[t as usize], true),
                    "instant {t} claimed twice"
                );
            }
        }
    }

    #[test]
    fn claim_serializes_a_dies_operations() {
        let mut die = Die::new(1, 4, 8);
        let first = claim(&mut die, SimTime::from_us(0), Duration::from_us(100));
        assert_eq!((first.start, first.end), (SimTime::ZERO, SimTime::from_us(100)));
        assert_eq!(first.depth, 1, "idle die: depth 1");
        // A second op issued at t=10 must wait until the first finishes.
        let second = claim(&mut die, SimTime::from_us(10), Duration::from_us(50));
        assert_eq!((second.start, second.end), (SimTime::from_us(100), SimTime::from_us(150)));
        assert_eq!(second.depth, 2, "second op queues behind the first");
        assert_eq!(die.ops, 2);
        assert_eq!(die.busy_time.as_us_f64(), 150.0);
        assert_eq!(die.queue_depth_hwm, 2);
    }

    #[test]
    fn die_idle_gap_is_not_counted_busy() {
        let mut die = Die::new(1, 4, 8);
        claim(&mut die, SimTime::from_us(0), Duration::from_us(10));
        // Issued long after the die went idle.
        let slot = claim(&mut die, SimTime::from_us(500), Duration::from_us(10));
        assert_eq!(slot.start, SimTime::from_us(500));
        assert_eq!(slot.depth, 1, "completed ops have left the queue");
        assert_eq!(die.busy_time.as_us_f64(), 20.0);
        assert_eq!(die.queue_depth_hwm, 1);
    }

    #[test]
    fn a_reservation_fills_a_hole_and_leaves_the_rest_of_it_free() {
        let mut ch = Timeline::default();
        let at = |t: &mut Timeline, at: u64, dur: u64| {
            let slot = t.reserve(SimTime(at), Duration(dur));
            (slot.start, slot.end, slot.backfilled)
        };
        // A transfer issued at t=100 on an idle channel claims [100, 150)
        // and leaves [0, 100) idle.
        assert_eq!(at(&mut ch, 100, 50), (SimTime(100), SimTime(150), false));
        // One that fits before it lands there and does not move the tail.
        assert_eq!(at(&mut ch, 10, 40), (SimTime(10), SimTime(50), true));
        assert_eq!(ch.end(), SimTime(150));
        // What is left of the hole stays usable: [0,10) and [50,100).
        assert_eq!(at(&mut ch, 0, 45), (SimTime(50), SimTime(95), true));
        // Nothing left that fits 60 ns: it goes to the tail.
        assert_eq!(at(&mut ch, 0, 60), (SimTime(150), SimTime(210), false));
        // [0,10) is still there for something short enough.
        assert_eq!(at(&mut ch, 0, 10), (SimTime(0), SimTime(10), true));
    }

    #[test]
    fn a_transfer_far_ahead_does_not_hold_up_the_sibling_die() {
        // Dies A and B share a channel.  A is erasing; a read queued
        // behind the erase reserves its transfer for when its array phase
        // ends, milliseconds ahead.
        let (mut a, mut b) = (Die::new(1, 4, 8), Die::new(1, 4, 8));
        let mut ch = Timeline::default();
        let (erase, array, xfer) =
            (Duration::from_us(3_000), Duration::from_us(75), Duration::from_us(10));
        claim(&mut a, SimTime::ZERO, erase);
        let read = claim(&mut a, SimTime::ZERO, array);
        let shipped = ch.reserve(read.end, xfer);
        assert_eq!(shipped.start, SimTime::from_us(3_075));
        // A program to idle die B at t=100 us loads its page register
        // right away: the channel is free until the read ships.  (Appended
        // at the channel's last reserved end it would have started 3 ms
        // late on a die that has nothing to do.)
        let load = ch.reserve(SimTime::from_us(100), xfer);
        assert_eq!((load.start, load.backfilled), (SimTime::from_us(100), true));
        assert_eq!(load.depth, 1, "nothing unfinished lay before it");
        let program = claim(&mut b, load.end, Duration::from_us(1_300));
        assert_eq!(program.start, SimTime::from_us(110));
        // The read's transfer is untouched.
        assert_eq!(ch.end(), SimTime::from_us(3_085));
    }

    #[test]
    fn history_is_bounded_and_forgetting_raises_the_floor() {
        let mut t = Timeline::default();
        // Every reservation leaves a 500 ns hole before it.
        for i in 0..(HISTORY as u64 + 100) {
            let slot = t.reserve(SimTime(i * 1_000 + 500), Duration(500));
            assert!(!slot.clamped && !slot.backfilled);
        }
        assert_eq!(t.busy.len(), HISTORY, "oldest reservations are forgotten");
        assert_eq!(t.floor, SimTime(100_000), "the floor is the newest forgotten end");
        // The forgotten holes are gone — and the loss is reported.
        let late = t.reserve(SimTime(0), Duration(500));
        assert_eq!((late.start, late.clamped), (SimTime(100_000), true));
        // A remembered hole is found as before.
        let kept = t.reserve(SimTime(200_000), Duration(500));
        assert_eq!((kept.start, kept.clamped, kept.backfilled), (SimTime(200_000), false, true));
        assert_eq!(t.pending_at(SimTime(0)), HISTORY as u32);
    }

    /// `(issue offset, duration)` pairs over small integers.
    fn requests() -> impl Strategy<Value = Vec<(u64, u64)>> {
        prop::collection::vec((0u64..60, 1u64..12), 1..80)
    }

    /// Batches `(issue offset, duration, size)`: `size` reservations of
    /// `duration` at one instant, durations of 0 included.
    fn batches() -> impl Strategy<Value = Vec<(u64, u64, u64)>> {
        prop::collection::vec((0u64..60, 0u64..12, 1u64..9), 1..40)
    }

    proptest! {
        /// Against the brute-force model: reservations never overlap,
        /// none starts before its issue instant, and none passes over an
        /// idle window it would have fitted (first fit is exact).
        #[test]
        fn first_fit_matches_the_brute_force_model(
            reqs in requests(),
            drift in 0u64..8,
        ) {
            let mut t = timeline(usize::MAX);
            let mut model = Claimed(Vec::new());
            for (i, (offset, dur)) in reqs.iter().enumerate() {
                // Issue instants wander forward but jump back freely.
                let at = offset + i as u64 * drift;
                let last_end = t.end();
                let slot = t.reserve(SimTime(at), Duration(*dur));
                prop_assert!(slot.start >= SimTime(at));
                prop_assert_eq!(slot.end, slot.start + Duration(*dur));
                prop_assert_eq!(slot.start.0, model.first_fit(at, *dur));
                prop_assert_eq!(slot.backfilled, slot.start < last_end);
                prop_assert!(!slot.clamped);
                model.claim(slot.start.0, slot.end.0);
            }
            prop_assert!(t.busy.iter().zip(t.busy.iter().skip(1)).all(|(a, b)| a.1 <= b.0));
        }

        /// Stopping the walk at `dense_from` changes nothing: against the
        /// walk over every interval, each reservation lands at the same
        /// index with the same slot, and the two timelines stay equal.
        /// Issue instants run forward and back, in batches at one
        /// instant, under short and unbounded histories.
        #[test]
        fn the_dense_tail_skip_matches_the_full_walk(
            batches in batches(),
            drift in 0u64..20,
            history in 1usize..6,
            unbounded in any::<bool>(),
        ) {
            let history = if unbounded { usize::MAX } else { history };
            let (mut t, mut walked) = (timeline(history), timeline(history));
            for (i, (offset, dur, size)) in batches.into_iter().enumerate() {
                let at = SimTime(offset + i as u64 * drift);
                for _ in 0..size {
                    let want = reserve_by_walk(&mut walked, at, Duration(dur));
                    prop_assert_eq!(t.probe(at, Duration(dur)), want);
                    prop_assert_eq!(t.reserve(at, Duration(dur)), want.1);
                    prop_assert_eq!(&t.busy, &walked.busy);
                    prop_assert_eq!(t.floor, walked.floor);
                    prop_assert!(dense_tail_is_back_to_back(&t));
                    prop_assert!(t.dense_from < t.busy.len());
                    for probe_at in [SimTime::ZERO, at, want.1.start, want.1.end] {
                        prop_assert_eq!(t.pending_at(probe_at), walked.pending_at(probe_at));
                    }
                }
            }
        }

        /// A stream in which every issue instant is at or after the start
        /// of the previous reservation — one client, or any number stepped
        /// in simulated-time order — lands exactly where the old
        /// `max(at, busy_until)` rule put it, with the same queue depth.
        #[test]
        fn an_in_order_stream_reproduces_the_busy_until_rule(reqs in requests()) {
            let mut t = Timeline::default();
            let (mut busy_until, mut inflight) = (0u64, VecDeque::new());
            let mut at = 0u64;
            for (advance, dur) in reqs {
                at += advance;
                let start = at.max(busy_until);
                busy_until = start + dur;
                while inflight.front().is_some_and(|done| *done <= at) {
                    inflight.pop_front();
                }
                inflight.push_back(busy_until);
                let slot = t.reserve(SimTime(at), Duration(dur));
                prop_assert_eq!((slot.start.0, slot.end.0), (start, busy_until));
                prop_assert_eq!(slot.depth as usize, inflight.len());
                prop_assert_eq!(t.pending_at(SimTime(at)) as usize, inflight.len());
                prop_assert!(!slot.backfilled);
                // The next issue instant may fall back as far as this start.
                at = start;
            }
        }

        /// Forgetting is pessimistic and visible: a bounded timeline
        /// never overlaps what it forgot, starts a reservation exactly
        /// where full memory would unless the issue instant lies below
        /// the floor, never earlier even then, and flags exactly those.
        #[test]
        fn a_pruned_timeline_is_only_ever_later_and_says_so(
            reqs in requests(),
            history in 1usize..6,
        ) {
            let mut t = timeline(history);
            let mut model = Claimed(Vec::new());
            let mut made: Vec<(u64, u64)> = Vec::new();
            for (i, (offset, dur)) in reqs.iter().enumerate() {
                let at = offset + i as u64 * 3;
                // Forgotten: all but the `history` latest starts.  The
                // floor is where the last of them ends.
                made.sort_unstable();
                let floor = made.len().checked_sub(history + 1).map_or(0, |last| made[last].1);
                let slot = t.reserve(SimTime(at), Duration(*dur));
                let full_memory = model.first_fit(at, *dur);
                prop_assert_eq!(slot.clamped, at < floor, "clamped counts exactly these");
                if slot.clamped {
                    prop_assert!(slot.start.0 >= full_memory.max(floor));
                } else {
                    prop_assert_eq!(slot.start.0, full_memory);
                }
                model.claim(slot.start.0, slot.end.0);
                made.push((slot.start.0, slot.end.0));
                prop_assert!(t.busy.len() <= history);
            }
        }
    }
}

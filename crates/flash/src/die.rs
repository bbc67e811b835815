//! Die and plane state, and the occupancy `Timeline` dies and channels
//! are reserved on.
//!
//! A die is the unit of command parallelism: it executes one array
//! operation (read, program, erase, copyback) at a time.  A channel is the
//! bus the dies behind it share for page transfers; its whole state is
//! its `Timeline`.  Each resource keeps a `Timeline` — the disjoint
//! intervals of simulated time already claimed on it — and a new
//! reservation takes the **first idle window at or after
//! its issue instant that is long enough**, wherever that window lies: a
//! hole between two existing reservations is as good as the tail.  Where a
//! command lands therefore depends on the simulated instants of the
//! commands reserved so far, not on the order the host happened to make
//! its calls in.  Planes within a die share its command logic but hold
//! independent block arrays.

use std::collections::VecDeque;

use crate::addr::BlockAddr;
use crate::block::Block;
use crate::time::{Duration, SimTime};

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
    /// ending after `at`, then forward to the first hole of `dur`.
    /// Purely observational.
    pub(crate) fn probe(&self, at: SimTime, dur: Duration) -> (usize, Slot) {
        let mut start = at.max(self.floor);
        let first = self.busy.partition_point(|&(_, end)| end <= start);
        let mut index = first;
        while let Some(&(next, end)) = self.busy.get(index) {
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
            backfilled: index < self.busy.len(),
            clamped: at < self.floor,
        };
        (index, slot)
    }

    /// Claim the first idle window of `dur` at or after `at`.  This is the
    /// only function that claims device time.
    pub(crate) fn reserve(&mut self, at: SimTime, dur: Duration) -> Slot {
        let (index, slot) = self.probe(at, dur);
        self.busy.insert(index, (slot.start, slot.end));
        if self.busy.len() > self.history {
            if let Some((_, end)) = self.busy.pop_front() {
                self.floor = end;
            }
        }
        slot
    }
}

/// One plane: an independent array of erase blocks.
#[derive(Debug)]
pub(crate) struct Plane {
    pub blocks: Vec<Block>,
}

impl Plane {
    pub(crate) fn new(blocks_per_plane: u32, pages_per_block: u32) -> Self {
        Plane { blocks: (0..blocks_per_plane).map(|_| Block::new(pages_per_block)).collect() }
    }
}

/// One die: a set of planes, the timing/occupancy state used by the
/// scheduler, and its counters.
#[derive(Debug)]
pub(crate) struct Die {
    pub planes: Vec<Plane>,
    /// When the die's array is claimed.
    pub timeline: Timeline,
    /// Total time the die has spent executing array operations.
    pub busy_time: Duration,
    /// Total array operations executed (reads + programs + erases + copybacks).
    pub ops: u64,
    /// Deepest the die's command queue has ever been (including the
    /// operation being issued).
    pub queue_depth_hwm: u32,
    /// Ever programmed, erased or retired: `NoFtl::mount` skips the OOB
    /// scan of a die that never held data.
    pub touched: bool,
}

impl Die {
    pub(crate) fn new(planes_per_die: u32, blocks_per_plane: u32, pages_per_block: u32) -> Self {
        Die::of(
            (0..planes_per_die).map(|_| Plane::new(blocks_per_plane, pages_per_block)).collect(),
        )
    }

    /// An idle, untouched die over `planes`.
    pub(crate) fn of(planes: Vec<Plane>) -> Self {
        Die {
            planes,
            timeline: Timeline::default(),
            busy_time: Duration::ZERO,
            ops: 0,
            queue_depth_hwm: 0,
            touched: false,
        }
    }

    /// The block at `addr` (bounds-checked against the geometry by the
    /// caller; the die component of `addr` is not consulted).
    pub(crate) fn block(&self, addr: BlockAddr) -> &Block {
        &self.planes[addr.plane as usize].blocks[addr.block as usize]
    }

    /// Mutable access to the block at `addr` (see [`Die::block`]).
    pub(crate) fn block_mut(&mut self, addr: BlockAddr) -> &mut Block {
        &mut self.planes[addr.plane as usize].blocks[addr.block as usize]
    }

    /// Reserve the die's array for an operation of length `dur` issued at
    /// `at`; the slot's `depth` is the die's queue depth at issue time.
    pub(crate) fn reserve(&mut self, at: SimTime, dur: Duration) -> Slot {
        let slot = self.timeline.reserve(at, dur);
        self.busy_time += dur;
        self.ops += 1;
        self.queue_depth_hwm = self.queue_depth_hwm.max(slot.depth);
        slot
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    /// A timeline that remembers `history` reservations.
    fn timeline(history: usize) -> Timeline {
        Timeline { busy: VecDeque::new(), floor: SimTime::ZERO, history }
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
    fn die_reserve_serializes_operations() {
        let mut die = Die::new(1, 4, 8);
        let first = die.reserve(SimTime::from_us(0), Duration::from_us(100));
        assert_eq!((first.start, first.end), (SimTime::ZERO, SimTime::from_us(100)));
        assert_eq!(first.depth, 1, "idle die: depth 1");
        // A second op issued at t=10 must wait until the first finishes.
        let second = die.reserve(SimTime::from_us(10), Duration::from_us(50));
        assert_eq!((second.start, second.end), (SimTime::from_us(100), SimTime::from_us(150)));
        assert_eq!(second.depth, 2, "second op queues behind the first");
        assert_eq!(die.ops, 2);
        assert_eq!(die.busy_time.as_us_f64(), 150.0);
        assert_eq!(die.queue_depth_hwm, 2);
    }

    #[test]
    fn die_idle_gap_is_not_counted_busy() {
        let mut die = Die::new(1, 4, 8);
        die.reserve(SimTime::from_us(0), Duration::from_us(10));
        // Issued long after the die went idle.
        let slot = die.reserve(SimTime::from_us(500), Duration::from_us(10));
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
        a.reserve(SimTime::ZERO, erase);
        let read = a.reserve(SimTime::ZERO, array);
        let shipped = ch.reserve(read.end, xfer);
        assert_eq!(shipped.start, SimTime::from_us(3_075));
        // A program to idle die B at t=100 us loads its page register
        // right away: the channel is free until the read ships.  (Appended
        // at the channel's last reserved end it would have started 3 ms
        // late on a die that has nothing to do.)
        let load = ch.reserve(SimTime::from_us(100), xfer);
        assert_eq!((load.start, load.backfilled), (SimTime::from_us(100), true));
        assert_eq!(load.depth, 1, "nothing unfinished lay before it");
        let program = b.reserve(load.end, Duration::from_us(1_300));
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

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

    #[test]
    fn plane_holds_blocks() {
        let p = Plane::new(16, 8);
        assert_eq!(p.blocks.len(), 16);
        assert_eq!(p.blocks[0].pages.len(), 8);
    }
}

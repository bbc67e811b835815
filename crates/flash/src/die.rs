//! Die and plane state.
//!
//! A die is the unit of command parallelism: it executes one array
//! operation (read, program, erase, copyback) at a time, tracked by a
//! `busy_until` timestamp.  Planes within a die share this command logic
//! but hold independent block arrays.

use std::collections::VecDeque;

use crate::addr::BlockAddr;
use crate::block::Block;
use crate::time::{Duration, SimTime};

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

/// One die: a set of planes plus the timing/occupancy state used by the
/// scheduler.
#[derive(Debug)]
pub(crate) struct Die {
    pub planes: Vec<Plane>,
    /// The die is executing an array operation until this instant.
    pub busy_until: SimTime,
    /// Total time the die has spent executing array operations.
    pub busy_time: Duration,
    /// Total array operations executed (reads + programs + erases + copybacks).
    pub ops: u64,
    /// Completion times of operations still in flight (in simulated time)
    /// relative to the most recent issue; completion times are monotone
    /// because a die executes one array operation at a time.
    pub inflight: VecDeque<SimTime>,
    /// Deepest the die's command queue has ever been (including the
    /// operation being issued).
    pub queue_depth_hwm: u32,
}

impl Die {
    pub(crate) fn new(planes_per_die: u32, blocks_per_plane: u32, pages_per_block: u32) -> Self {
        Die {
            planes: (0..planes_per_die)
                .map(|_| Plane::new(blocks_per_plane, pages_per_block))
                .collect(),
            busy_until: SimTime::ZERO,
            busy_time: Duration::ZERO,
            ops: 0,
            inflight: VecDeque::new(),
            queue_depth_hwm: 0,
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

    /// Number of operations still executing (or queued) on this die as of
    /// `at`: the in-flight completion times later than `at`.  A pure
    /// observation — nothing is pruned, so load snapshots never perturb
    /// the timing state.
    pub(crate) fn pending_at(&self, at: SimTime) -> u32 {
        self.inflight.iter().filter(|done| **done > at).count() as u32
    }

    /// Reserve the die for an array operation of length `dur` starting no
    /// earlier than `at`.  Returns `(start, end, depth)` of the operation,
    /// where `depth` is the die's queue depth at issue time (1 = the die
    /// was idle, N = this operation queued behind N-1 others).
    pub(crate) fn reserve(&mut self, at: SimTime, dur: Duration) -> (SimTime, SimTime, u32) {
        let start = at.max(self.busy_until);
        let end = start + dur;
        self.busy_until = end;
        self.busy_time += dur;
        self.ops += 1;
        while self.inflight.front().is_some_and(|done| *done <= at) {
            self.inflight.pop_front();
        }
        self.inflight.push_back(end);
        let depth = self.inflight.len() as u32;
        self.queue_depth_hwm = self.queue_depth_hwm.max(depth);
        (start, end, depth)
    }
}

/// How a transfer claims channel time (decided by the device's arbiter).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ChannelPolicy {
    /// Plain append at `busy_until` — the arbiter-off path, byte-identical
    /// to pre-arbiter scheduling (no gaps recorded or consumed).
    Direct,
    /// Foreground/exempt traffic on an arbiter-enabled device: claim a
    /// recorded idle gap if one fits, otherwise append.
    Backfill,
    /// Budget-deferred background traffic: append, recording the idle gap
    /// the deferral opens so foreground transfers can backfill it.
    Append,
}

/// Upper bound on remembered idle gaps per channel (oldest pruned first).
const MAX_GAPS: usize = 32;

/// Channel occupancy state: the bus shared by all dies of a channel for
/// data transfers between controller and page registers.
#[derive(Debug, Default)]
pub(crate) struct Channel {
    pub busy_until: SimTime,
    pub busy_time: Duration,
    pub bytes_transferred: u64,
    /// Idle windows `(start, end)` deliberately opened by deferred
    /// background transfers, in recording order.  Only populated on
    /// arbiter-enabled devices; always empty under [`ChannelPolicy::Direct`].
    gaps: Vec<(SimTime, SimTime)>,
}

impl Channel {
    /// Reserve the channel for a transfer of length `dur` starting no
    /// earlier than `at`.  Returns `(start, end)`.
    pub(crate) fn reserve(&mut self, at: SimTime, dur: Duration, bytes: u64) -> (SimTime, SimTime) {
        let start = at.max(self.busy_until);
        let end = start + dur;
        self.busy_until = end;
        self.busy_time += dur;
        self.bytes_transferred += bytes;
        (start, end)
    }

    /// Reserve under an arbiter policy.  Returns `(start, end, backfilled)`;
    /// `backfilled` is true when the transfer landed inside a recorded gap
    /// instead of extending `busy_until`.
    pub(crate) fn reserve_with(
        &mut self,
        policy: ChannelPolicy,
        at: SimTime,
        dur: Duration,
        bytes: u64,
    ) -> (SimTime, SimTime, bool) {
        match policy {
            ChannelPolicy::Direct => {
                let (start, end) = self.reserve(at, dur, bytes);
                (start, end, false)
            }
            ChannelPolicy::Backfill => {
                // Gaps ending by `at` simply never match first-fit below.
                // They are NOT pruned here: with eager execution a tenant
                // running far ahead in simulated time issues its transfers
                // before (in call order) a neighbor's sim-earlier ones, and
                // pruning by this op's `at` would destroy exactly the gaps
                // the neighbor's foreground traffic needs.  FIFO eviction
                // at recording time bounds the list instead.
                if let Some(i) = self.gaps.iter().position(|(gs, ge)| (*gs).max(at) + dur <= *ge) {
                    let (gs, ge) = self.gaps.remove(i);
                    let start = gs.max(at);
                    let end = start + dur;
                    // Keep the unused halves of the gap available.
                    if end < ge {
                        self.gaps.insert(i, (end, ge));
                    }
                    if start > gs {
                        self.gaps.insert(i, (gs, start));
                    }
                    self.busy_time += dur;
                    self.bytes_transferred += bytes;
                    (start, end, true)
                } else {
                    // Appending past an idle window opens a gap exactly
                    // like a deferred background append does — record it
                    // so sim-earlier foreground transfers (issued later in
                    // call order by a lagging tenant) can still use it.
                    if at > self.busy_until {
                        if self.gaps.len() == MAX_GAPS {
                            self.gaps.remove(0);
                        }
                        self.gaps.push((self.busy_until, at));
                    }
                    let (start, end) = self.reserve(at, dur, bytes);
                    (start, end, false)
                }
            }
            ChannelPolicy::Append => {
                if at > self.busy_until {
                    if self.gaps.len() == MAX_GAPS {
                        self.gaps.remove(0);
                    }
                    self.gaps.push((self.busy_until, at));
                }
                let (start, end) = self.reserve(at, dur, bytes);
                (start, end, false)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn die_reserve_serializes_operations() {
        let mut die = Die::new(1, 4, 8);
        let (s1, e1, d1) = die.reserve(SimTime::from_us(0), Duration::from_us(100));
        assert_eq!(s1, SimTime::ZERO);
        assert_eq!(e1, SimTime::from_us(100));
        assert_eq!(d1, 1, "idle die: depth 1");
        // A second op issued at t=10 must wait until the first finishes.
        let (s2, e2, d2) = die.reserve(SimTime::from_us(10), Duration::from_us(50));
        assert_eq!(s2, SimTime::from_us(100));
        assert_eq!(e2, SimTime::from_us(150));
        assert_eq!(d2, 2, "second op queues behind the first");
        assert_eq!(die.ops, 2);
        assert_eq!(die.busy_time.as_us_f64(), 150.0);
        assert_eq!(die.queue_depth_hwm, 2);
    }

    #[test]
    fn die_idle_gap_is_not_counted_busy() {
        let mut die = Die::new(1, 4, 8);
        die.reserve(SimTime::from_us(0), Duration::from_us(10));
        // Issued long after the die went idle.
        let (s, _, depth) = die.reserve(SimTime::from_us(500), Duration::from_us(10));
        assert_eq!(s, SimTime::from_us(500));
        assert_eq!(depth, 1, "completed ops have left the queue");
        assert_eq!(die.busy_time.as_us_f64(), 20.0);
        assert_eq!(die.queue_depth_hwm, 1);
    }

    #[test]
    fn channel_reserve_tracks_bytes() {
        let mut ch = Channel::default();
        ch.reserve(SimTime::ZERO, Duration::from_us(10), 4096);
        ch.reserve(SimTime::ZERO, Duration::from_us(10), 4096);
        assert_eq!(ch.bytes_transferred, 8192);
        assert_eq!(ch.busy_until, SimTime::from_us(20));
    }

    #[test]
    fn append_records_gaps_and_backfill_consumes_them() {
        let mut ch = Channel::default();
        // A deferred background transfer issued at t=100 on an idle
        // channel opens the gap [0, 100).
        let (s, e, bf) = ch.reserve_with(ChannelPolicy::Append, SimTime(100), Duration(50), 4096);
        assert_eq!((s, e, bf), (SimTime(100), SimTime(150), false));
        // A foreground transfer that fits the gap lands inside it without
        // touching busy_until.
        let (s, e, bf) = ch.reserve_with(ChannelPolicy::Backfill, SimTime(10), Duration(40), 4096);
        assert_eq!((s, e, bf), (SimTime(10), SimTime(50), true));
        assert_eq!(ch.busy_until, SimTime(150));
        // The gap's unused halves remain: [0,10) and [50,100).
        let (s, _, bf) = ch.reserve_with(ChannelPolicy::Backfill, SimTime(0), Duration(45), 64);
        assert_eq!((s, bf), (SimTime(50), true));
        // Nothing left that fits 60 ns — falls through to an append.
        let (s, _, bf) = ch.reserve_with(ChannelPolicy::Backfill, SimTime(0), Duration(60), 64);
        assert_eq!((s, bf), (SimTime(150), false));
    }

    #[test]
    fn direct_policy_matches_plain_reserve_and_records_no_gaps() {
        let mut plain = Channel::default();
        let mut direct = Channel::default();
        for (at, dur) in [(0u64, 10u64), (50, 10), (55, 20), (200, 5)] {
            let (s1, e1) = plain.reserve(SimTime(at), Duration(dur), 4096);
            let (s2, e2, bf) =
                direct.reserve_with(ChannelPolicy::Direct, SimTime(at), Duration(dur), 4096);
            assert_eq!((s1, e1, false), (s2, e2, bf));
        }
        assert_eq!(plain.busy_until, direct.busy_until);
        assert_eq!(plain.busy_time, direct.busy_time);
        assert!(direct.gaps.is_empty(), "Direct never records gaps");
    }

    #[test]
    fn gap_list_is_bounded() {
        let mut ch = Channel::default();
        for i in 0..100u64 {
            // Each append issues past busy_until, opening a fresh gap.
            ch.reserve_with(ChannelPolicy::Append, SimTime(i * 1_000 + 500), Duration(1), 64);
        }
        assert!(ch.gaps.len() <= 32, "gap list stays bounded, got {}", ch.gaps.len());
    }

    #[test]
    fn plane_holds_blocks() {
        let p = Plane::new(16, 8);
        assert_eq!(p.blocks.len(), 16);
        assert_eq!(p.blocks[0].pages.len(), 8);
    }
}

//! Operation tracing.
//!
//! An optional bounded trace of the most recent flash commands, useful for
//! debugging flash-management layers and for the examples that visualise
//! what the device is doing.

use std::collections::VecDeque;

use crate::addr::PageAddr;
use crate::time::{Duration, SimTime};

/// Kind of a traced flash command.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// Page read (array read + channel transfer out).
    Read,
    /// Page program (channel transfer in + array program).
    Program,
    /// Block erase.
    Erase,
    /// Die-internal copyback.
    Copyback,
    /// OOB metadata read.
    MetadataRead,
}

/// A single traced flash command.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlashOp {
    /// Command kind.
    pub kind: OpKind,
    /// Target address (for erases, the first page of the block; for
    /// copybacks, the destination page).
    pub addr: PageAddr,
    /// When the command was issued by the host.
    pub issued_at: SimTime,
    /// When the command completed.
    pub completed_at: SimTime,
    /// End-to-end latency (issue to completion, including queueing).
    pub latency: Duration,
    /// Queue depth of the target die at issue time (1 = die was idle);
    /// together with `latency` this supports per-depth latency histograms.
    pub queue_depth: u32,
}

/// A bounded ring buffer of recent flash commands.
#[derive(Debug)]
pub struct TraceBuffer {
    cap: usize,
    ops: VecDeque<FlashOp>,
    total_recorded: u64,
}

impl TraceBuffer {
    /// Create a trace buffer retaining at most `cap` recent operations.
    /// A capacity of zero disables tracing.
    pub fn new(cap: usize) -> Self {
        TraceBuffer { cap, ops: VecDeque::with_capacity(cap.min(4096)), total_recorded: 0 }
    }

    /// Record an operation (no-op if the buffer capacity is zero).
    pub fn record(&mut self, op: FlashOp) {
        if self.cap == 0 {
            return;
        }
        if self.ops.len() == self.cap {
            self.ops.pop_front();
        }
        self.ops.push_back(op);
        self.total_recorded += 1;
    }

    /// Whether tracing is enabled.
    pub fn enabled(&self) -> bool {
        self.cap > 0
    }

    /// Operations currently retained, oldest first.
    pub fn ops(&self) -> impl Iterator<Item = &FlashOp> {
        self.ops.iter()
    }

    /// Number of operations recorded over the lifetime of the buffer
    /// (including ones that have since been evicted).
    pub fn total_recorded(&self) -> u64 {
        self.total_recorded
    }

    /// Drop all retained operations (does not reset `total_recorded`).
    pub fn clear(&mut self) {
        self.ops.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::DieId;

    fn op(kind: OpKind, t: u64) -> FlashOp {
        FlashOp {
            kind,
            addr: PageAddr::new(DieId(0), 0, 0, 0),
            issued_at: SimTime::from_us(t),
            completed_at: SimTime::from_us(t + 1),
            latency: Duration::from_us(1),
            queue_depth: 1,
        }
    }

    #[test]
    fn zero_capacity_disables_tracing() {
        let mut t = TraceBuffer::new(0);
        assert!(!t.enabled());
        t.record(op(OpKind::Read, 0));
        assert_eq!(t.ops().count(), 0);
        assert_eq!(t.total_recorded(), 0);
    }

    #[test]
    fn ring_buffer_evicts_oldest() {
        let mut t = TraceBuffer::new(2);
        t.record(op(OpKind::Read, 1));
        t.record(op(OpKind::Program, 2));
        t.record(op(OpKind::Erase, 3));
        let kinds: Vec<_> = t.ops().map(|o| o.kind).collect();
        assert_eq!(kinds, vec![OpKind::Program, OpKind::Erase]);
        assert_eq!(t.total_recorded(), 3);
    }

    #[test]
    fn clear_keeps_total() {
        let mut t = TraceBuffer::new(4);
        t.record(op(OpKind::Copyback, 1));
        t.clear();
        assert_eq!(t.ops().count(), 0);
        assert_eq!(t.total_recorded(), 1);
    }
}

//! Transaction contexts.
//!
//! The engine's transactions are deliberately lightweight: each one carries
//! its own simulated clock (response time accumulates as it waits for
//! buffer misses and — if it wrote — the commit-time log force) plus a
//! few counters.  `writes == 0` at commit marks a read-only transaction,
//! which [`crate::Database::commit`] lets go without touching the log.  The
//! TPC-C driver runs one transaction at a time per logical client; device
//! contention between clients emerges from the shared die/channel
//! occupancy timelines of the device, not from locking inside the engine.

use flash_sim::{Duration, SimTime};

/// Outcome of a finished transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnOutcome {
    /// Committed successfully.
    Committed,
    /// Rolled back (e.g. TPC-C NewOrder with an unused item number).
    RolledBack,
}

/// A running transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Txn {
    /// Transaction id.
    pub id: u64,
    /// When the transaction started.
    pub started_at: SimTime,
    /// The transaction's current simulated time (advances as it performs
    /// I/O and, having written, waits for the commit log force).
    pub now: SimTime,
    /// Logical page reads performed.
    pub reads: u64,
    /// Logical page writes performed.
    pub writes: u64,
}

impl Txn {
    /// Begin a transaction at `now`.
    pub fn begin(id: u64, now: SimTime) -> Self {
        Txn { id, started_at: now, now, reads: 0, writes: 0 }
    }

    /// Advance the transaction clock to `t` (monotonically).
    pub fn advance_to(&mut self, t: SimTime) {
        if t > self.now {
            self.now = t;
        }
    }

    /// Add a CPU "think/compute" cost to the transaction.
    pub fn add_cpu(&mut self, d: Duration) {
        self.now += d;
    }

    /// Response time so far.
    pub fn elapsed(&self) -> Duration {
        self.now - self.started_at
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_is_monotonic() {
        let mut txn = Txn::begin(1, SimTime::from_us(100));
        txn.advance_to(SimTime::from_us(150));
        assert_eq!(txn.now, SimTime::from_us(150));
        // Going backwards is ignored.
        txn.advance_to(SimTime::from_us(120));
        assert_eq!(txn.now, SimTime::from_us(150));
        txn.add_cpu(Duration::from_us(10));
        assert_eq!(txn.now, SimTime::from_us(160));
        assert_eq!(txn.elapsed().as_us_f64(), 60.0);
        assert_eq!(txn.id, 1);
    }

    #[test]
    fn outcomes_compare() {
        assert_ne!(TxnOutcome::Committed, TxnOutcome::RolledBack);
    }
}

//! What the driver counts in one run.

use flash_sim::Duration;

use crate::driver::TxnType;

/// Per-transaction-type statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TxnTypeStats {
    /// Transactions of this type executed (committed or rolled back).
    pub count: u64,
    /// Transactions of this type that committed.
    pub committed: u64,
    /// Sum of response times.
    pub total_response: Duration,
}

impl TxnTypeStats {
    /// Mean response time in milliseconds.
    pub fn mean_response_ms(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_response.as_ms_f64() / self.count as f64
        }
    }
}

/// Result of one TPC-C run: the transactions the driver executed and
/// the simulated time they took.  Device and buffer pool counters are
/// read from the device and the database themselves.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Committed transactions.
    pub committed: u64,
    /// Rolled-back transactions.
    pub rolled_back: u64,
    /// Simulated wall-clock time of the run.
    pub makespan: Duration,
    /// Committed transactions per simulated second.
    pub tps: f64,
    /// Per-type statistics.
    pub per_type: Vec<(TxnType, TxnTypeStats)>,
}

impl RunReport {
    /// Look up the statistics of one transaction type.
    pub fn type_stats(&self, t: TxnType) -> Option<&TxnTypeStats> {
        self.per_type.iter().find(|(ty, _)| *ty == t).map(|(_, s)| s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn txn_type_stats_mean() {
        let s = TxnTypeStats { count: 4, committed: 4, total_response: Duration::from_ms(40) };
        assert!((s.mean_response_ms() - 10.0).abs() < 1e-9);
        assert_eq!(TxnTypeStats::default().mean_response_ms(), 0.0);
    }
}

//! Device operation statistics.
//!
//! The paper's Figure 3 reports host READ/WRITE I/O counts, GC COPYBACKs
//! and GC ERASEs plus latency figures; everything needed to regenerate
//! that table comes from these counters.

use crate::command::OpKind;
use crate::time::Duration;

/// Aggregate operation counters and timing accumulators for the device.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DeviceStats {
    /// Number of page reads.
    pub page_reads: u64,
    /// Number of page programs.
    pub page_programs: u64,
    /// Number of block erases.
    pub block_erases: u64,
    /// Number of copyback operations (die-internal page moves).
    pub copybacks: u64,
    /// Number of OOB-only metadata reads.
    pub metadata_reads: u64,
    /// Bytes moved over the channels (both directions).
    pub bytes_transferred: u64,
    /// Sum of end-to-end read latencies (issue → completion).
    pub read_latency_sum: Duration,
    /// Sum of end-to-end program latencies (issue → completion).
    pub program_latency_sum: Duration,
    /// Sum of end-to-end erase latencies.
    pub erase_latency_sum: Duration,
    /// Sum of end-to-end copyback latencies.
    pub copyback_latency_sum: Duration,
    /// Number of timed commands the device rejected, for any reason: an
    /// address outside the geometry, a payload of the wrong size, a
    /// cross-die copyback, a NAND-rule violation, a bad or worn-out
    /// block, or power loss.  Each is also an `error` instant on its
    /// die's tracer track.
    pub errors: u64,
    /// Deepest any die's command queue has ever been (1 = no operation
    /// ever queued behind another on the same die).
    pub queue_depth_hwm: u64,
}

impl DeviceStats {
    /// Account one completed command of `kind` that moved `bytes` over
    /// its channel, took `latency` from issue to completion and found its
    /// die's queue `depth` deep.  (Metadata reads keep no latency sum.)
    pub(crate) fn note(&mut self, kind: OpKind, bytes: u64, latency: Duration, depth: u32) {
        let (count, latency_sum) = match kind {
            OpKind::Read => (&mut self.page_reads, Some(&mut self.read_latency_sum)),
            OpKind::Program => (&mut self.page_programs, Some(&mut self.program_latency_sum)),
            OpKind::Erase => (&mut self.block_erases, Some(&mut self.erase_latency_sum)),
            OpKind::Copyback => (&mut self.copybacks, Some(&mut self.copyback_latency_sum)),
            OpKind::MetadataRead => (&mut self.metadata_reads, None),
        };
        *count += 1;
        if let Some(sum) = latency_sum {
            *sum += latency;
        }
        self.bytes_transferred += bytes;
        self.queue_depth_hwm = self.queue_depth_hwm.max(u64::from(depth));
    }

    /// Add another ledger's counters to these: counts and latency sums
    /// add, the queue-depth high-water mark is the deeper of the two.
    /// [`crate::FlashBackend::stats`] sums a device's dies, and a mirror
    /// its children, this way.
    pub fn accumulate(&mut self, s: &DeviceStats) {
        self.page_reads += s.page_reads;
        self.page_programs += s.page_programs;
        self.block_erases += s.block_erases;
        self.copybacks += s.copybacks;
        self.metadata_reads += s.metadata_reads;
        self.bytes_transferred += s.bytes_transferred;
        self.read_latency_sum += s.read_latency_sum;
        self.program_latency_sum += s.program_latency_sum;
        self.erase_latency_sum += s.erase_latency_sum;
        self.copyback_latency_sum += s.copyback_latency_sum;
        self.errors += s.errors;
        self.queue_depth_hwm = self.queue_depth_hwm.max(s.queue_depth_hwm);
    }

    /// Mean end-to-end page read latency in microseconds.
    pub fn avg_read_latency_us(&self) -> f64 {
        if self.page_reads == 0 {
            0.0
        } else {
            self.read_latency_sum.as_us_f64() / self.page_reads as f64
        }
    }

    /// Mean end-to-end page program latency in microseconds.
    pub fn avg_program_latency_us(&self) -> f64 {
        if self.page_programs == 0 {
            0.0
        } else {
            self.program_latency_sum.as_us_f64() / self.page_programs as f64
        }
    }

    /// Total array operations.
    pub fn total_ops(&self) -> u64 {
        self.page_reads
            + self.page_programs
            + self.block_erases
            + self.copybacks
            + self.metadata_reads
    }

    /// Difference between two snapshots (`self - earlier`), used to report
    /// per-experiment deltas.
    pub fn delta_since(&self, earlier: &DeviceStats) -> DeviceStats {
        DeviceStats {
            page_reads: self.page_reads - earlier.page_reads,
            page_programs: self.page_programs - earlier.page_programs,
            block_erases: self.block_erases - earlier.block_erases,
            copybacks: self.copybacks - earlier.copybacks,
            metadata_reads: self.metadata_reads - earlier.metadata_reads,
            bytes_transferred: self.bytes_transferred - earlier.bytes_transferred,
            read_latency_sum: Duration(self.read_latency_sum.0 - earlier.read_latency_sum.0),
            program_latency_sum: Duration(
                self.program_latency_sum.0 - earlier.program_latency_sum.0,
            ),
            erase_latency_sum: Duration(self.erase_latency_sum.0 - earlier.erase_latency_sum.0),
            copyback_latency_sum: Duration(
                self.copyback_latency_sum.0 - earlier.copyback_latency_sum.0,
            ),
            errors: self.errors - earlier.errors,
            // A high-water mark has no meaningful difference; the delta
            // carries the later snapshot's value.
            queue_depth_hwm: self.queue_depth_hwm,
        }
    }
}

/// Per-die utilisation statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DieStats {
    /// Total array operations executed by this die.
    pub ops: u64,
    /// Total busy time of this die.
    pub busy_time: Duration,
    /// Sum of erase counts over the die's blocks.
    pub total_erases: u64,
    /// Maximum erase count of any block on the die.
    pub max_erase_count: u64,
    /// Deepest this die's command queue has ever been (1 = no operation
    /// ever queued behind another).
    pub queue_depth_hwm: u32,
}

/// Summary of wear distribution over the device, used to evaluate the
/// longevity claims of the paper (fewer erases, more even wear).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WearSummary {
    /// Total erases performed over the device lifetime.
    pub total_erases: u64,
    /// Minimum per-block erase count.
    pub min_erase_count: u64,
    /// Maximum per-block erase count.
    pub max_erase_count: u64,
    /// Mean per-block erase count.
    pub mean_erase_count: f64,
    /// Standard deviation of per-block erase counts.
    pub stddev_erase_count: f64,
    /// Number of blocks currently marked bad.
    pub bad_blocks: u64,
}

impl WearSummary {
    /// Compute a wear summary from raw per-block erase counts.
    pub fn from_counts(counts: impl Iterator<Item = u64>, bad_blocks: u64) -> Self {
        let counts: Vec<u64> = counts.collect();
        if counts.is_empty() {
            return WearSummary { bad_blocks, ..Default::default() };
        }
        let total: u64 = counts.iter().sum();
        let n = counts.len() as f64;
        let mean = total as f64 / n;
        let var = counts.iter().map(|&c| (c as f64 - mean).powi(2)).sum::<f64>() / n;
        WearSummary {
            total_erases: total,
            min_erase_count: counts.iter().copied().min().unwrap_or(0),
            max_erase_count: counts.iter().copied().max().unwrap_or(0),
            mean_erase_count: mean,
            stddev_erase_count: var.sqrt(),
            bad_blocks,
        }
    }

    /// Wear imbalance: max/mean erase count (1.0 = perfectly even).
    pub fn imbalance(&self) -> f64 {
        if self.mean_erase_count <= f64::EPSILON {
            1.0
        } else {
            self.max_erase_count as f64 / self.mean_erase_count
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn averages_handle_zero_counts() {
        let s = DeviceStats::default();
        assert_eq!(s.avg_read_latency_us(), 0.0);
        assert_eq!(s.avg_program_latency_us(), 0.0);
        assert_eq!(s.total_ops(), 0);
    }

    #[test]
    fn averages_divide_correctly() {
        let s = DeviceStats {
            page_reads: 4,
            read_latency_sum: Duration::from_us(400),
            ..Default::default()
        };
        assert!((s.avg_read_latency_us() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn delta_subtracts_fields() {
        let early = DeviceStats { page_reads: 10, copybacks: 1, ..Default::default() };
        let late = DeviceStats { page_reads: 25, copybacks: 4, ..Default::default() };
        let d = late.delta_since(&early);
        assert_eq!(d.page_reads, 15);
        assert_eq!(d.copybacks, 3);
    }

    #[test]
    fn accumulate_adds_counts_and_keeps_the_deeper_queue() {
        let a = DeviceStats {
            page_reads: 3,
            page_programs: 2,
            block_erases: 1,
            copybacks: 4,
            metadata_reads: 5,
            bytes_transferred: 4096,
            read_latency_sum: Duration(30),
            program_latency_sum: Duration(20),
            erase_latency_sum: Duration(10),
            copyback_latency_sum: Duration(40),
            errors: 1,
            queue_depth_hwm: 6,
        };
        let b = DeviceStats {
            page_reads: 7,
            page_programs: 8,
            block_erases: 9,
            copybacks: 10,
            metadata_reads: 11,
            bytes_transferred: 8192,
            read_latency_sum: Duration(70),
            program_latency_sum: Duration(80),
            erase_latency_sum: Duration(90),
            copyback_latency_sum: Duration(100),
            errors: 2,
            queue_depth_hwm: 3,
        };
        let mut sum = DeviceStats::default();
        sum.accumulate(&a);
        sum.accumulate(&b);
        let expected = DeviceStats {
            page_reads: 10,
            page_programs: 10,
            block_erases: 10,
            copybacks: 14,
            metadata_reads: 16,
            bytes_transferred: 12_288,
            read_latency_sum: Duration(100),
            program_latency_sum: Duration(100),
            erase_latency_sum: Duration(100),
            copyback_latency_sum: Duration(140),
            errors: 3,
            queue_depth_hwm: 6,
        };
        assert_eq!(sum, expected);
        // What accumulates is exactly what `delta_since` takes apart.
        assert_eq!(sum.delta_since(&a), DeviceStats { queue_depth_hwm: 6, ..b });
    }

    #[test]
    fn wear_summary_statistics() {
        let w = WearSummary::from_counts([1u64, 2, 3, 4].into_iter(), 2);
        assert_eq!(w.total_erases, 10);
        assert_eq!(w.min_erase_count, 1);
        assert_eq!(w.max_erase_count, 4);
        assert!((w.mean_erase_count - 2.5).abs() < 1e-9);
        assert!(w.stddev_erase_count > 1.0 && w.stddev_erase_count < 1.2);
        assert_eq!(w.bad_blocks, 2);
        assert!((w.imbalance() - 1.6).abs() < 1e-9);
    }

    #[test]
    fn wear_summary_empty_input() {
        let w = WearSummary::from_counts(std::iter::empty(), 0);
        assert_eq!(w.total_erases, 0);
        assert_eq!(w.imbalance(), 1.0);
    }

    #[test]
    fn delta_carries_latest_queue_depth_hwm() {
        let early = DeviceStats { queue_depth_hwm: 4, ..Default::default() };
        let late = DeviceStats { queue_depth_hwm: 7, ..Default::default() };
        assert_eq!(late.delta_since(&early).queue_depth_hwm, 7);
    }
}

//! Run reports and the Figure 3 comparison table.

use flash_sim::{DeviceStats, Duration};

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

/// Result of one TPC-C run (one data-placement configuration).
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Label of the configuration (e.g. "Traditional", "Regions").
    pub label: String,
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
    /// Host 4 KiB page reads issued to the flash device.
    pub host_reads: u64,
    /// Host 4 KiB page writes issued to the flash device.
    pub host_writes: u64,
    /// GC copybacks performed by the device.
    pub gc_copybacks: u64,
    /// GC block erases performed by the device.
    pub gc_erases: u64,
    /// Mean end-to-end 4 KiB read latency in microseconds.
    pub avg_read_latency_us: f64,
    /// Mean end-to-end 4 KiB write (program) latency in microseconds.
    pub avg_write_latency_us: f64,
    /// Buffer pool statistics.
    pub buffer: dbms_engine::BufferStats,
    /// WAL forces performed.
    pub wal_forces: u64,
}

impl RunReport {
    /// Look up the statistics of one transaction type.
    pub fn type_stats(&self, t: TxnType) -> Option<&TxnTypeStats> {
        self.per_type.iter().find(|(ty, _)| *ty == t).map(|(_, s)| s)
    }

    /// Fill in the device-level counters from a device snapshot
    /// (typically the delta between the stats after and before the run).
    pub fn attach_device(&mut self, dev: &DeviceStats) {
        self.host_reads = dev.page_reads;
        self.host_writes = dev.page_programs;
        self.gc_copybacks = dev.copybacks;
        self.gc_erases = dev.block_erases;
        self.avg_read_latency_us = dev.avg_read_latency_us();
        self.avg_write_latency_us = dev.avg_program_latency_us();
    }

    /// Write amplification observed during the run.
    pub fn write_amplification(&self) -> f64 {
        if self.host_writes == 0 {
            0.0
        } else {
            (self.host_writes + self.gc_copybacks) as f64 / self.host_writes as f64
        }
    }
}

/// A side-by-side comparison of two runs in the shape of the paper's
/// Figure 3.
#[derive(Debug, Clone)]
pub struct ComparisonReport {
    /// The baseline run ("Traditional data placement").
    pub traditional: RunReport,
    /// The multi-region run ("Data placement using Regions").
    pub regions: RunReport,
}

impl ComparisonReport {
    /// Relative change of the regions run versus the baseline, in percent
    /// (positive = the regions value is larger).
    pub fn delta_pct(base: f64, new: f64) -> f64 {
        if base.abs() < f64::EPSILON {
            0.0
        } else {
            (new - base) / base * 100.0
        }
    }

    /// Throughput improvement of regions over traditional placement, in
    /// percent (the paper reports ≈ +20 %).
    pub fn tps_improvement_pct(&self) -> f64 {
        Self::delta_pct(self.traditional.tps, self.regions.tps)
    }

    /// Reduction in GC copybacks, in percent (the paper reports ≈ −20 %).
    pub fn copyback_reduction_pct(&self) -> f64 {
        -Self::delta_pct(self.traditional.gc_copybacks as f64, self.regions.gc_copybacks as f64)
    }

    /// Reduction in GC erases, in percent (the paper reports ≈ −4.3 %).
    pub fn erase_reduction_pct(&self) -> f64 {
        -Self::delta_pct(self.traditional.gc_erases as f64, self.regions.gc_erases as f64)
    }

    fn row(name: &str, a: String, b: String) -> String {
        format!("{name:<28} {a:>18} {b:>18}\n")
    }

    /// Render the comparison as a plain-text table mirroring Figure 3.
    pub fn to_table(&self) -> String {
        let t = &self.traditional;
        let r = &self.regions;
        let mut out = String::new();
        out.push_str(&Self::row("", "Traditional".to_string(), "Regions".to_string()));
        out.push_str(&Self::row("TPS", format!("{:.2}", t.tps), format!("{:.2}", r.tps)));
        out.push_str(&Self::row(
            "READ 4KB (us)",
            format!("{:.2}", t.avg_read_latency_us),
            format!("{:.2}", r.avg_read_latency_us),
        ));
        out.push_str(&Self::row(
            "WRITE 4KB (us)",
            format!("{:.2}", t.avg_write_latency_us),
            format!("{:.2}", r.avg_write_latency_us),
        ));
        for txn in [TxnType::NewOrder, TxnType::Payment, TxnType::StockLevel] {
            let a = t.type_stats(txn).copied().unwrap_or_default();
            let b = r.type_stats(txn).copied().unwrap_or_default();
            out.push_str(&Self::row(
                &format!("{} TRX (ms)", txn.name()),
                format!("{:.2}", a.mean_response_ms()),
                format!("{:.2}", b.mean_response_ms()),
            ));
        }
        out.push_str(&Self::row("Transactions", t.committed.to_string(), r.committed.to_string()));
        out.push_str(&Self::row(
            "Host READ I/Os (4KB)",
            t.host_reads.to_string(),
            r.host_reads.to_string(),
        ));
        out.push_str(&Self::row(
            "Host WRITE I/Os (4KB)",
            t.host_writes.to_string(),
            r.host_writes.to_string(),
        ));
        out.push_str(&Self::row(
            "GC COPYBACKs",
            t.gc_copybacks.to_string(),
            r.gc_copybacks.to_string(),
        ));
        out.push_str(&Self::row("GC ERASEs", t.gc_erases.to_string(), r.gc_erases.to_string()));
        out.push_str(&Self::row(
            "Write amplification",
            format!("{:.3}", t.write_amplification()),
            format!("{:.3}", r.write_amplification()),
        ));
        out.push_str(&format!(
            "\nRegions vs. traditional: TPS {:+.1}%, copybacks {:+.1}%, erases {:+.1}%\n",
            self.tps_improvement_pct(),
            -self.copyback_reduction_pct(),
            -self.erase_reduction_pct(),
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(label: &str, tps: f64, copybacks: u64, erases: u64) -> RunReport {
        RunReport {
            label: label.to_string(),
            committed: 1000,
            rolled_back: 10,
            makespan: Duration::from_ms(500),
            tps,
            per_type: vec![(
                TxnType::NewOrder,
                TxnTypeStats { count: 450, committed: 445, total_response: Duration::from_ms(900) },
            )],
            host_reads: 100_000,
            host_writes: 20_000,
            gc_copybacks: copybacks,
            gc_erases: erases,
            avg_read_latency_us: 500.0,
            avg_write_latency_us: 300.0,
            buffer: dbms_engine::BufferStats::default(),
            wal_forces: 1000,
        }
    }

    #[test]
    fn txn_type_stats_mean() {
        let s = TxnTypeStats { count: 4, committed: 4, total_response: Duration::from_ms(40) };
        assert!((s.mean_response_ms() - 10.0).abs() < 1e-9);
        assert_eq!(TxnTypeStats::default().mean_response_ms(), 0.0);
    }

    #[test]
    fn attach_device_copies_counters() {
        let mut r = report("x", 100.0, 0, 0);
        let dev = DeviceStats {
            page_reads: 5,
            page_programs: 7,
            copybacks: 3,
            block_erases: 2,
            read_latency_sum: Duration::from_us(500),
            program_latency_sum: Duration::from_us(700),
            ..Default::default()
        };
        r.attach_device(&dev);
        assert_eq!(r.host_reads, 5);
        assert_eq!(r.host_writes, 7);
        assert_eq!(r.gc_copybacks, 3);
        assert_eq!(r.gc_erases, 2);
        assert!((r.avg_read_latency_us - 100.0).abs() < 1e-9);
        assert!((r.write_amplification() - 10.0 / 7.0).abs() < 1e-9);
    }

    #[test]
    fn comparison_percentages_match_expectations() {
        let cmp = ComparisonReport {
            traditional: report("Traditional", 595.0, 4_326_612, 110_410),
            regions: report("Regions", 720.0, 3_496_984, 105_564),
        };
        assert!((cmp.tps_improvement_pct() - 21.0).abs() < 0.1);
        assert!((cmp.copyback_reduction_pct() - 19.2).abs() < 0.2);
        assert!((cmp.erase_reduction_pct() - 4.4).abs() < 0.2);
        let table = cmp.to_table();
        assert!(table.contains("GC COPYBACKs"));
        assert!(table.contains("NewOrder TRX (ms)"));
        assert!(table.contains("Traditional"));
        assert!(table.contains("Regions"));
    }

    #[test]
    fn delta_pct_handles_zero_baseline() {
        assert_eq!(ComparisonReport::delta_pct(0.0, 10.0), 0.0);
        assert!((ComparisonReport::delta_pct(100.0, 120.0) - 20.0).abs() < 1e-9);
    }

    #[test]
    fn write_amplification_guards_zero() {
        let mut r = report("x", 1.0, 0, 0);
        r.host_writes = 0;
        assert_eq!(r.write_amplification(), 0.0);
    }
}

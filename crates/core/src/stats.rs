//! Statistics exposed by the NoFTL storage manager.

use flash_sim::Duration;

/// Per-region counters.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RegionStats {
    /// Host page reads served from this region.
    pub host_reads: u64,
    /// Host page writes served by this region.
    pub host_writes: u64,
    /// GC runs in this region: victim blocks collected and erased.
    pub gc_runs: u64,
    /// Valid pages relocated by region GC (copybacks).
    pub gc_copybacks: u64,
    /// Blocks erased by region GC.
    pub gc_erases: u64,
    /// Always 0: wear leveling only picks the least-worn free block and
    /// never migrates data.  The frozen benchmark's metric table still
    /// reads the field (`core.wl_migrations`); it goes when that table is
    /// re-baselined.
    pub wl_migrations: u64,
    /// Pages migrated because a die was removed from the region.
    pub rebalance_moves: u64,
    /// Sum of end-to-end host read latencies in this region.
    pub read_latency_sum: Duration,
    /// Sum of end-to-end host write latencies in this region.
    pub write_latency_sum: Duration,
}

impl RegionStats {
    /// Add another region's counters to these: [`crate::NoFtl::stats`]
    /// sums every region this way.
    pub fn accumulate(&mut self, r: &RegionStats) {
        self.host_reads += r.host_reads;
        self.host_writes += r.host_writes;
        self.gc_runs += r.gc_runs;
        self.gc_copybacks += r.gc_copybacks;
        self.gc_erases += r.gc_erases;
        self.wl_migrations += r.wl_migrations;
        self.rebalance_moves += r.rebalance_moves;
        self.read_latency_sum += r.read_latency_sum;
        self.write_latency_sum += r.write_latency_sum;
    }

    /// Mean host read latency in microseconds.
    pub fn avg_read_latency_us(&self) -> f64 {
        if self.host_reads == 0 {
            0.0
        } else {
            self.read_latency_sum.as_us_f64() / self.host_reads as f64
        }
    }

    /// Mean host write latency in microseconds.
    pub fn avg_write_latency_us(&self) -> f64 {
        if self.host_writes == 0 {
            0.0
        } else {
            self.write_latency_sum.as_us_f64() / self.host_writes as f64
        }
    }

    /// Write amplification within the region: (host writes + GC copybacks)
    /// per host write.
    pub fn write_amplification(&self) -> f64 {
        if self.host_writes == 0 {
            0.0
        } else {
            (self.host_writes + self.gc_copybacks) as f64 / self.host_writes as f64
        }
    }
}

/// Per-object statistics snapshot (for the DBA and
/// [`crate::placement::assign_dies`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ObjectStats {
    /// Object id.
    pub object_id: u32,
    /// Object name.
    pub name: String,
    /// Region the object is placed in.
    pub region: crate::region::RegionId,
    /// Number of mapped (live) pages.
    pub pages: u64,
    /// Logical page reads served since the object was created or mounted.
    pub reads: u64,
    /// Logical page writes served since the object was created or mounted.
    pub writes: u64,
}

impl ObjectStats {
    /// Total I/O operations on the object.
    pub fn io_total(&self) -> u64 {
        self.reads + self.writes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::region::RegionId;

    #[test]
    fn region_stats_averages_and_wa() {
        let r = RegionStats {
            host_reads: 2,
            host_writes: 10,
            gc_copybacks: 5,
            read_latency_sum: Duration::from_us(300),
            write_latency_sum: Duration::from_us(1000),
            ..Default::default()
        };
        assert!((r.avg_read_latency_us() - 150.0).abs() < 1e-9);
        assert!((r.avg_write_latency_us() - 100.0).abs() < 1e-9);
        assert!((r.write_amplification() - 1.5).abs() < 1e-9);
        assert_eq!(RegionStats::default().write_amplification(), 0.0);
        assert_eq!(RegionStats::default().avg_read_latency_us(), 0.0);
    }

    #[test]
    fn aggregate_accumulates_regions() {
        let mut agg = RegionStats::default();
        let r1 = RegionStats { host_reads: 5, gc_erases: 2, ..Default::default() };
        let r2 = RegionStats { host_reads: 7, gc_copybacks: 3, ..Default::default() };
        agg.accumulate(&r1);
        agg.accumulate(&r2);
        assert_eq!(agg.host_reads, 12);
        assert_eq!(agg.gc_erases, 2);
        assert_eq!(agg.gc_copybacks, 3);
    }

    #[test]
    fn object_io_total() {
        let o = ObjectStats {
            object_id: 1,
            name: "orderline".into(),
            region: RegionId(0),
            pages: 100,
            reads: 30,
            writes: 70,
        };
        assert_eq!(o.io_total(), 100);
    }
}

//! Per-object I/O profiles: the hot/cold signal of database objects.
//!
//! The paper's central argument: *"the overhead of garbage collection
//! \[...\] is highly dependent on the ability to separate between hot and
//! cold data"* and, unlike the resource-starved SSD controller, *"the DBMS
//! maintains such and other statistics and metadata for each particular
//! database object."*  This module turns the per-object counters that the
//! storage manager collects anyway into the [`ObjectProfile`]s consumed
//! by the placement advisor.

use crate::stats::ObjectStats;

/// An object's I/O profile, the input to placement decisions.
#[derive(Debug, Clone, PartialEq)]
pub struct ObjectProfile {
    /// Object name.
    pub name: String,
    /// Size of the object in flash pages.
    pub pages: u64,
    /// Page reads per unit of observation (absolute counts are fine; only
    /// relative magnitudes matter).
    pub reads: u64,
    /// Page writes per unit of observation.
    pub writes: u64,
}

impl ObjectProfile {
    /// Build a profile from a statistics snapshot.
    pub fn from_stats(stats: &ObjectStats) -> Self {
        ObjectProfile {
            name: stats.name.clone(),
            pages: stats.pages,
            reads: stats.reads,
            writes: stats.writes,
        }
    }

    /// Total I/O rate of the object.
    pub fn io_rate(&self) -> u64 {
        self.reads + self.writes
    }

    /// Update intensity: writes per live page.  Objects with a high value
    /// invalidate their pages quickly and therefore drive GC cost.
    pub fn update_intensity(&self) -> f64 {
        self.writes as f64 / self.pages.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile(name: &str, pages: u64, reads: u64, writes: u64) -> ObjectProfile {
        ObjectProfile { name: name.into(), pages, reads, writes }
    }

    #[test]
    fn profile_metrics() {
        let p = profile("stock", 1000, 500, 2000);
        assert_eq!(p.io_rate(), 2500);
        assert!((p.update_intensity() - 2.0).abs() < 1e-9);
        let empty = profile("x", 0, 0, 5);
        assert_eq!(empty.update_intensity(), 5.0, "guards division by zero");
    }

    #[test]
    fn from_stats_copies_fields() {
        let s = ObjectStats {
            object_id: 2,
            name: "customer".into(),
            region: crate::region::RegionId(1),
            pages: 10,
            reads: 3,
            writes: 4,
        };
        let p = ObjectProfile::from_stats(&s);
        assert_eq!(p.name, "customer");
        assert_eq!(p.pages, 10);
        assert_eq!(p.io_rate(), 7);
    }
}

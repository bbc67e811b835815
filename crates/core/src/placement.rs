//! Placement: which region an object lives in, and how many dies each
//! region gets.
//!
//! The paper's Figure 2 shows a hand-tuned assignment of the TPC-C objects
//! to 6 regions and of the 64 flash dies to those regions "based on sizes
//! of objects and their I/O rate (required level of I/O parallelism)".
//! [`assign_dies`] automates exactly that computation: given groups of
//! objects and the [`ObjectStats`] the storage manager keeps for each, it
//! apportions the available dies proportionally to a weighted combination
//! of I/O and size (largest-remainder method, at least one die per region).
//!
//! That is the only placement decision there is.  *Inside* a region pages
//! are striped over the region's dies by the allocator
//! (`Space::allocate` in [`crate::gc`]) by the die time the region itself
//! has issued on each die, deliberately blind to the device's live load:
//! where a page is written decides which die serves its reads, and
//! steering fresh data toward idle dies cost `tpcc_traditional` 18 % of
//! its throughput on the repo benchmark (README, "Placement inside a
//! region").

use flash_sim::ServiceClass;

use crate::stats::ObjectStats;

/// One region of a placement configuration: its name, the objects placed
/// in it, and the number of dies assigned to it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegionAssignment {
    /// Region name.
    pub region_name: String,
    /// Names of the objects placed in this region.
    pub objects: Vec<String>,
    /// Number of dies assigned to the region.
    pub dies: u32,
    /// I/O service class for the region (`None` = manager default).
    /// Becomes [`crate::RegionSpec::with_service_class`] when the DBMS
    /// backend creates the region.
    pub service_class: Option<ServiceClass>,
}

impl RegionAssignment {
    /// Set the region's I/O service class.
    pub fn with_service_class(mut self, class: ServiceClass) -> Self {
        self.service_class = Some(class);
        self
    }
}

/// A complete data-placement configuration (the shape of the paper's
/// Figure 2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlacementConfig {
    /// The regions, in declaration order.
    pub regions: Vec<RegionAssignment>,
}

impl PlacementConfig {
    /// The "traditional data placement" baseline: a single region spanning
    /// all dies, holding every object.
    pub fn traditional(total_dies: u32, objects: impl IntoIterator<Item = String>) -> Self {
        PlacementConfig {
            regions: vec![RegionAssignment {
                region_name: "rgAll".to_string(),
                objects: objects.into_iter().collect(),
                dies: total_dies,
                service_class: None,
            }],
        }
    }

    /// Total number of dies used by the configuration.
    pub fn total_dies(&self) -> u32 {
        self.regions.iter().map(|r| r.dies).sum()
    }

    /// Find the region an object is assigned to.
    pub fn region_of(&self, object: &str) -> Option<&RegionAssignment> {
        self.regions.iter().find(|r| r.objects.iter().any(|o| o == object))
    }

    /// Render the configuration as an ASCII table (mirrors Figure 2).
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("{:<12} {:>9}   {}\n", "Region", "Dies", "DB-Objects"));
        for r in &self.regions {
            out.push_str(&format!(
                "{:<12} {:>9}   {}\n",
                r.region_name,
                r.dies,
                r.objects.join("; ")
            ));
        }
        out.push_str(&format!("{:<12} {:>9}\n", "TOTAL", self.total_dies()));
        out
    }
}

/// Weight of a group's share of all object I/O in its die share.
const IO_WEIGHT: f64 = 0.6;
/// Weight of a group's share of all object pages in its die share.
const SIZE_WEIGHT: f64 = 0.4;
/// Dies every region receives before the rest are apportioned.
const MIN_DIES_PER_REGION: u32 = 1;

/// Apportion `total_dies` dies over the given object groups, from the
/// statistics the storage manager keeps for each object.
///
/// Each group becomes one region named after the group.  The die share
/// of a group is proportional to
/// `0.6 * (group I/O / total I/O) + 0.4 * (group pages / total pages)`,
/// on top of one die per region, rounded with the largest-remainder
/// method so the shares always sum to `total_dies`.
///
/// # Panics
/// Panics if `total_dies` cannot satisfy the per-region minimum — that
/// is a configuration error in the calling experiment.
pub fn assign_dies(groups: &[(String, Vec<ObjectStats>)], total_dies: u32) -> PlacementConfig {
    assert!(!groups.is_empty(), "die apportioning needs at least one object group");
    let min_total = MIN_DIES_PER_REGION * groups.len() as u32;
    assert!(
        total_dies >= min_total,
        "cannot assign {total_dies} dies to {} regions with a minimum of {MIN_DIES_PER_REGION} each",
        groups.len(),
    );
    let total_io: u64 = groups.iter().flat_map(|(_, os)| os.iter()).map(|o| o.io_total()).sum();
    let total_pages: u64 = groups.iter().flat_map(|(_, os)| os.iter()).map(|o| o.pages).sum();
    let weights: Vec<f64> = groups
        .iter()
        .map(|(_, os)| {
            let io: u64 = os.iter().map(|o| o.io_total()).sum();
            let pages: u64 = os.iter().map(|o| o.pages).sum();
            let io_share = if total_io == 0 { 0.0 } else { io as f64 / total_io as f64 };
            let size_share = if total_pages == 0 { 0.0 } else { pages as f64 / total_pages as f64 };
            IO_WEIGHT * io_share + SIZE_WEIGHT * size_share
        })
        .collect();
    let weight_sum: f64 = weights.iter().sum();
    // Distribute the dies above the per-region minimum proportionally.
    let distributable = total_dies - min_total;
    let mut dies: Vec<u32> = vec![MIN_DIES_PER_REGION; groups.len()];
    if distributable > 0 {
        let shares: Vec<f64> = weights
            .iter()
            .map(|w| {
                if weight_sum <= f64::EPSILON {
                    distributable as f64 / groups.len() as f64
                } else {
                    w / weight_sum * distributable as f64
                }
            })
            .collect();
        for (d, s) in dies.iter_mut().zip(&shares) {
            *d += s.floor() as u32;
        }
        let assigned: u32 = dies.iter().sum();
        hand_out_remainders(&mut dies, &shares, total_dies.saturating_sub(assigned));
    }
    PlacementConfig {
        regions: groups
            .iter()
            .zip(dies)
            .map(|((name, os), d)| RegionAssignment {
                region_name: name.clone(),
                objects: os.iter().map(|o| o.name.clone()).collect(),
                dies: d,
                service_class: None,
            })
            .collect(),
    }
}

/// The largest-remainder step: hand `leftover` dies out one at a time to
/// `dies[i]`, in order of the fractional part of `shares[i]`, largest
/// first (equal parts keep index order), cycling if `leftover` exceeds
/// the entry count.
pub fn hand_out_remainders(dies: &mut [u32], shares: &[f64], leftover: u32) {
    let mut order: Vec<(usize, f64)> =
        shares.iter().enumerate().map(|(i, s)| (i, s - s.floor())).collect();
    order.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
    for &(i, _) in order.iter().cycle().take(leftover as usize) {
        dies[i] += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn profile(name: &str, pages: u64, reads: u64, writes: u64) -> ObjectStats {
        let region = crate::RegionId(0);
        ObjectStats { object_id: 0, name: name.into(), region, pages, reads, writes }
    }

    fn groups() -> Vec<(String, Vec<ObjectStats>)> {
        vec![
            (
                "rgMeta".into(),
                vec![profile("metadata", 10, 100, 10), profile("history", 200, 0, 300)],
            ),
            ("rgOrderline".into(), vec![profile("orderline", 3_000, 4_000, 9_000)]),
            ("rgCustomer".into(), vec![profile("customer", 2_500, 6_000, 3_000)]),
            (
                "rgStock".into(),
                vec![
                    profile("stock", 8_000, 12_000, 10_000),
                    profile("ol_idx", 1_500, 3_000, 2_000),
                ],
            ),
            (
                "rgSmallHot".into(),
                vec![profile("warehouse", 5, 2_000, 1_500), profile("district", 10, 2_500, 2_000)],
            ),
            (
                "rgOrderIdx".into(),
                vec![profile("no_idx", 300, 1_000, 1_200), profile("o_idx", 400, 900, 800)],
            ),
        ]
    }

    #[test]
    fn traditional_config_uses_one_region() {
        let cfg = PlacementConfig::traditional(64, ["a".to_string(), "b".to_string()]);
        assert_eq!(cfg.regions.len(), 1);
        assert_eq!(cfg.total_dies(), 64);
        assert_eq!(cfg.region_of("a").unwrap().region_name, "rgAll");
        assert!(cfg.region_of("zzz").is_none());
    }

    #[test]
    fn die_shares_sum_to_total_and_respect_minimum() {
        let cfg = assign_dies(&groups(), 64);
        assert_eq!(cfg.total_dies(), 64);
        assert_eq!(cfg.regions.len(), 6);
        assert!(cfg.regions.iter().all(|r| r.dies >= 1));
        // The biggest, most I/O-intensive group (stock) gets the most dies.
        let stock = cfg.regions.iter().find(|r| r.region_name == "rgStock").unwrap();
        assert!(cfg.regions.iter().all(|r| r.dies <= stock.dies));
        // The metadata group gets the fewest.
        let meta = cfg.regions.iter().find(|r| r.region_name == "rgMeta").unwrap();
        assert!(cfg.regions.iter().all(|r| r.dies >= meta.dies));
    }

    #[test]
    fn table_rendering_contains_all_regions() {
        let cfg = assign_dies(&groups(), 64);
        let table = cfg.to_table();
        for r in &cfg.regions {
            assert!(table.contains(&r.region_name));
        }
        assert!(table.contains("TOTAL"));
        assert!(table.contains("64"));
    }

    #[test]
    #[should_panic(expected = "cannot assign")]
    fn too_few_dies_panics() {
        assign_dies(&groups(), 3);
    }

    #[test]
    fn zero_io_groups_still_get_their_minimum() {
        let gs = vec![
            ("rgA".into(), vec![profile("a", 0, 0, 0)]),
            ("rgB".into(), vec![profile("b", 0, 0, 0)]),
        ];
        let cfg = assign_dies(&gs, 8);
        assert_eq!(cfg.total_dies(), 8);
        assert!(cfg.regions.iter().all(|r| r.dies >= 1));
    }

    /// `assign_dies`'s die counts before the largest-remainder step moved
    /// to [`hand_out_remainders`], loop for loop.
    fn assign_dies_reference(groups: &[(String, Vec<ObjectStats>)], total_dies: u32) -> Vec<u32> {
        let min_total = MIN_DIES_PER_REGION * groups.len() as u32;
        let total_io: u64 = groups.iter().flat_map(|(_, os)| os.iter()).map(|o| o.io_total()).sum();
        let total_pages: u64 = groups.iter().flat_map(|(_, os)| os.iter()).map(|o| o.pages).sum();
        let weights: Vec<f64> = groups
            .iter()
            .map(|(_, os)| {
                let io: u64 = os.iter().map(|o| o.io_total()).sum();
                let pages: u64 = os.iter().map(|o| o.pages).sum();
                let io_share = if total_io == 0 { 0.0 } else { io as f64 / total_io as f64 };
                let size_share =
                    if total_pages == 0 { 0.0 } else { pages as f64 / total_pages as f64 };
                IO_WEIGHT * io_share + SIZE_WEIGHT * size_share
            })
            .collect();
        let weight_sum: f64 = weights.iter().sum();
        let distributable = total_dies - min_total;
        let mut dies: Vec<u32> = vec![MIN_DIES_PER_REGION; groups.len()];
        if distributable > 0 {
            let shares: Vec<f64> = weights
                .iter()
                .map(|w| {
                    if weight_sum <= f64::EPSILON {
                        distributable as f64 / groups.len() as f64
                    } else {
                        w / weight_sum * distributable as f64
                    }
                })
                .collect();
            let floors: Vec<u32> = shares.iter().map(|s| s.floor() as u32).collect();
            let mut assigned: u32 = floors.iter().sum();
            for (d, f) in dies.iter_mut().zip(floors.iter()) {
                *d += *f;
            }
            let mut remainders: Vec<(usize, f64)> =
                shares.iter().enumerate().map(|(i, s)| (i, s - s.floor())).collect();
            remainders.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
            let mut i = 0;
            while assigned < distributable {
                dies[remainders[i % remainders.len()].0] += 1;
                assigned += 1;
                i += 1;
            }
        }
        dies
    }

    proptest! {
        #[test]
        fn apportionment_always_sums_to_total(
            dies in 6u32..128,
            weights in prop::collection::vec((1u64..10_000, 1u64..10_000, 1u64..10_000), 2..6),
        ) {
            let gs: Vec<(String, Vec<ObjectStats>)> = weights
                .iter()
                .enumerate()
                .map(|(i, (pages, reads, writes))| {
                    (format!("g{i}"), vec![profile(&format!("o{i}"), *pages, *reads, *writes)])
                })
                .collect();
            let cfg = assign_dies(&gs, dies);
            prop_assert_eq!(cfg.total_dies(), dies);
            prop_assert!(cfg.regions.iter().all(|r| r.dies >= 1));
            let got: Vec<u32> = cfg.regions.iter().map(|r| r.dies).collect();
            prop_assert_eq!(got, assign_dies_reference(&gs, dies));
        }
    }
}

//! Physical NAND flash geometry.
//!
//! The geometry describes how the raw flash of the device is organised:
//!
//! ```text
//! device ── channels ── chips ── dies ── planes ── blocks ── pages
//! ```
//!
//! The paper's evaluation device exposes 64 dies spread over several
//! channels; [`FlashGeometry::edbt_paper`] reproduces that layout with a
//! capacity scaled to simulation-friendly sizes.

use crate::addr::{BlockAddr, DieId, PageAddr};

/// Static description of the flash device layout.
///
/// All counts are per parent unit (e.g. `dies_per_chip` is the number of
/// dies on each chip).  The geometry is immutable once the device is built.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlashGeometry {
    /// Number of independent data channels connecting the controller to the
    /// flash packages.  Transfers on different channels proceed in parallel.
    pub channels: u32,
    /// Number of flash chips (packages) attached to each channel.
    pub chips_per_channel: u32,
    /// Number of dies inside each chip.  Dies operate independently.
    pub dies_per_chip: u32,
    /// Number of planes per die.  Planes share the die's command logic but
    /// hold independent block arrays.
    pub planes_per_die: u32,
    /// Number of erase blocks per plane.
    pub blocks_per_plane: u32,
    /// Number of pages per erase block.
    pub pages_per_block: u32,
    /// User-visible page size in bytes (the host I/O unit; 4 KiB in the paper).
    pub page_size: u32,
    /// Out-of-band (spare) area per page in bytes, used for page metadata.
    pub oob_size: u32,
}

impl FlashGeometry {
    /// Geometry mirroring the paper's evaluation device: 64 dies over
    /// 4 channels, 4 KiB pages.  Block/plane counts are chosen so that the
    /// device is large enough for a small TPC-C database while remaining
    /// fast to simulate.
    pub fn edbt_paper() -> Self {
        FlashGeometry {
            channels: 4,
            chips_per_channel: 4,
            dies_per_chip: 4,
            planes_per_die: 2,
            blocks_per_plane: 512,
            pages_per_block: 64,
            page_size: 4096,
            oob_size: 128,
        }
    }

    /// A tiny geometry for unit tests: 2 channels × 1 chip × 2 dies ×
    /// 1 plane × 16 blocks × 8 pages.
    pub fn small_test() -> Self {
        FlashGeometry {
            channels: 2,
            chips_per_channel: 1,
            dies_per_chip: 2,
            planes_per_die: 1,
            blocks_per_plane: 16,
            pages_per_block: 8,
            page_size: 4096,
            oob_size: 64,
        }
    }

    /// A mid-size geometry used by examples: 8 dies, 2 planes each.
    pub fn example() -> Self {
        FlashGeometry {
            channels: 2,
            chips_per_channel: 2,
            dies_per_chip: 2,
            planes_per_die: 2,
            blocks_per_plane: 128,
            pages_per_block: 32,
            page_size: 4096,
            oob_size: 64,
        }
    }

    /// Total number of dies in the device.
    #[inline]
    pub fn total_dies(&self) -> u32 {
        self.channels * self.chips_per_channel * self.dies_per_chip
    }

    /// Number of dies attached to each channel.
    #[inline]
    pub fn dies_per_channel(&self) -> u32 {
        self.chips_per_channel * self.dies_per_chip
    }

    /// Number of blocks in one die.
    #[inline]
    pub fn blocks_per_die(&self) -> u32 {
        self.planes_per_die * self.blocks_per_plane
    }

    /// Number of pages in one die.
    #[inline]
    pub fn pages_per_die(&self) -> u64 {
        self.blocks_per_die() as u64 * self.pages_per_block as u64
    }

    /// Total number of erase blocks in the device.
    #[inline]
    pub fn total_blocks(&self) -> u64 {
        self.total_dies() as u64 * self.blocks_per_die() as u64
    }

    /// Total number of pages in the device.
    #[inline]
    pub fn total_pages(&self) -> u64 {
        self.total_blocks() * self.pages_per_block as u64
    }

    /// Raw capacity of the device in bytes (excluding OOB areas).
    #[inline]
    pub fn capacity_bytes(&self) -> u64 {
        self.total_pages() * self.page_size as u64
    }

    /// Capacity of a single die in bytes.
    #[inline]
    pub fn die_capacity_bytes(&self) -> u64 {
        self.pages_per_die() * self.page_size as u64
    }

    /// The channel a given die is attached to.
    ///
    /// Dies are numbered channel-major: die `d` lives on channel
    /// `d / dies_per_channel()`.  This keeps dies of the same chip on the
    /// same channel, as on real hardware.
    #[inline]
    pub fn channel_of_die(&self, die: DieId) -> u32 {
        die.0 / self.dies_per_channel()
    }

    /// Iterate over all die ids of the device.
    pub fn dies(&self) -> impl Iterator<Item = DieId> {
        (0..self.total_dies()).map(DieId)
    }

    /// The linear index of a block, `(die * planes_per_die + plane) *
    /// blocks_per_plane + block`: 0 up to [`FlashGeometry::total_blocks`].
    pub fn block_index(&self, b: BlockAddr) -> u64 {
        let plane = u64::from(b.die.0) * u64::from(self.planes_per_die) + u64::from(b.plane);
        plane * u64::from(self.blocks_per_plane) + u64::from(b.block)
    }

    /// The block at linear index `index` (inverse of
    /// [`FlashGeometry::block_index`]).
    pub fn block_at(&self, index: u64) -> BlockAddr {
        let bpp = u64::from(self.blocks_per_plane);
        let plane = index / bpp;
        let ppd = u64::from(self.planes_per_die);
        BlockAddr::new(DieId((plane / ppd) as u32), (plane % ppd) as u32, (index % bpp) as u32)
    }

    /// Validate that a block address lies inside the device.
    pub fn contains_block(&self, b: BlockAddr) -> bool {
        b.die.0 < self.total_dies()
            && b.plane < self.planes_per_die
            && b.block < self.blocks_per_plane
    }

    /// Validate that a page address lies inside the device.
    pub fn contains_page(&self, p: PageAddr) -> bool {
        self.contains_block(p.block()) && p.page < self.pages_per_block
    }

    /// Perform a basic sanity check of the geometry (all counts non-zero,
    /// the die count and the blocks per die within `u32`, page size a
    /// power of two).  Returns a human-readable error string on failure;
    /// used by the device builder and the image decoder.
    pub fn validate(&self) -> std::result::Result<(), String> {
        if self.channels == 0
            || self.chips_per_channel == 0
            || self.dies_per_chip == 0
            || self.planes_per_die == 0
            || self.blocks_per_plane == 0
            || self.pages_per_block == 0
        {
            return Err("all geometry counts must be non-zero".to_string());
        }
        let dies = self.channels.checked_mul(self.chips_per_channel);
        let dies = dies.and_then(|d| d.checked_mul(self.dies_per_chip));
        if dies.is_none() || self.planes_per_die.checked_mul(self.blocks_per_plane).is_none() {
            return Err("the die count and the blocks per die must fit in 32 bits".to_string());
        }
        if self.page_size == 0 || !self.page_size.is_power_of_two() {
            return Err(format!("page_size must be a power of two, got {}", self.page_size));
        }
        if self.page_size < 512 {
            return Err(format!("page_size must be at least 512 bytes, got {}", self.page_size));
        }
        Ok(())
    }
}

impl Default for FlashGeometry {
    fn default() -> Self {
        Self::edbt_paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_geometry_has_64_dies() {
        let g = FlashGeometry::edbt_paper();
        assert_eq!(g.total_dies(), 64);
        assert_eq!(g.dies_per_channel(), 16);
        assert!(g.validate().is_ok());
        // 64 dies * 2 planes * 512 blocks * 64 pages * 4 KiB = 16 GiB
        assert_eq!(g.capacity_bytes(), 16 * 1024 * 1024 * 1024);
    }

    #[test]
    fn small_test_geometry_counts() {
        let g = FlashGeometry::small_test();
        assert_eq!(g.total_dies(), 4);
        assert_eq!(g.blocks_per_die(), 16);
        assert_eq!(g.pages_per_die(), 128);
        assert_eq!(g.total_pages(), 512);
    }

    #[test]
    fn channel_assignment_is_channel_major() {
        let g = FlashGeometry::small_test();
        // 4 dies, 2 channels, 2 dies per channel.
        assert_eq!(g.channel_of_die(DieId(0)), 0);
        assert_eq!(g.channel_of_die(DieId(1)), 0);
        assert_eq!(g.channel_of_die(DieId(2)), 1);
        assert_eq!(g.channel_of_die(DieId(3)), 1);
    }

    #[test]
    fn bounds_checks() {
        let g = FlashGeometry::small_test();
        let ok = PageAddr::new(DieId(3), 0, 15, 7);
        let bad_die = PageAddr::new(DieId(4), 0, 0, 0);
        let bad_block = PageAddr::new(DieId(0), 0, 16, 0);
        let bad_page = PageAddr::new(DieId(0), 0, 0, 8);
        assert!(g.contains_page(ok));
        assert!(!g.contains_page(bad_die));
        assert!(!g.contains_page(bad_block));
        assert!(!g.contains_page(bad_page));
    }

    #[test]
    fn block_index_round_trips_every_block() {
        let g = FlashGeometry::small_test();
        let mut next = 0;
        for die in g.dies() {
            for plane in 0..g.planes_per_die {
                for block in 0..g.blocks_per_plane {
                    let addr = BlockAddr::new(die, plane, block);
                    assert_eq!(g.block_index(addr), next, "{addr:?}");
                    assert_eq!(g.block_at(next), addr);
                    next += 1;
                }
            }
        }
        assert_eq!(next, g.total_blocks());
    }

    #[test]
    fn validation_rejects_bad_geometries() {
        let mut g = FlashGeometry::small_test();
        g.page_size = 1000;
        assert!(g.validate().is_err());
        g.page_size = 4096;
        g.channels = 0;
        assert!(g.validate().is_err());
        g = FlashGeometry::small_test();
        g.page_size = 256;
        assert!(g.validate().is_err());
    }

    #[test]
    fn dies_iterator_covers_all_dies() {
        let g = FlashGeometry::example();
        let dies: Vec<_> = g.dies().collect();
        assert_eq!(dies.len() as u32, g.total_dies());
        assert_eq!(dies[0], DieId(0));
        assert_eq!(dies.last().copied(), Some(DieId(g.total_dies() - 1)));
    }
}

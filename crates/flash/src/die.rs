//! Die and plane state.
//!
//! A die is the unit of command parallelism: it executes one array
//! operation (read, program, erase, copyback) at a time, claimed on its
//! occupancy `Timeline` (see the `sched` module, the only code that
//! reserves one).  Planes within a die share its command logic but hold
//! independent block arrays.

use crate::addr::BlockAddr;
use crate::block::Block;
use crate::sched::Timeline;
use crate::time::Duration;

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

/// One die: a set of planes, the timing/occupancy state used by the
/// scheduler, and its counters.
#[derive(Debug)]
pub(crate) struct Die {
    pub planes: Vec<Plane>,
    /// When the die's array is claimed.
    pub timeline: Timeline,
    /// Total time the die has spent executing array operations.
    pub busy_time: Duration,
    /// Total array operations executed (reads + programs + erases + copybacks).
    pub ops: u64,
    /// Deepest the die's command queue has ever been (including the
    /// operation being issued).
    pub queue_depth_hwm: u32,
}

impl Die {
    pub(crate) fn new(planes_per_die: u32, blocks_per_plane: u32, pages_per_block: u32) -> Self {
        Die::of(
            (0..planes_per_die).map(|_| Plane::new(blocks_per_plane, pages_per_block)).collect(),
        )
    }

    /// An idle die over `planes`.
    pub(crate) fn of(planes: Vec<Plane>) -> Self {
        Die {
            planes,
            timeline: Timeline::default(),
            busy_time: Duration::ZERO,
            ops: 0,
            queue_depth_hwm: 0,
        }
    }

    /// Whether any block of the die has left its factory state: written,
    /// erased or bad.  The one definition behind
    /// `FlashBackend::die_touched`, for a live device and a decoded image
    /// alike.
    pub(crate) fn touched(&self) -> bool {
        let mut blocks = self.planes.iter().flat_map(|p| &p.blocks);
        blocks.any(|b| b.write_ptr > 0 || b.erase_count > 0 || b.bad)
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plane_holds_blocks() {
        let p = Plane::new(16, 8);
        assert_eq!(p.blocks.len(), 16);
        assert_eq!(p.blocks[0].free_pages(), 8);
    }
}

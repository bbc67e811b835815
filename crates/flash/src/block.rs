//! Erase-block and page state tracking.
//!
//! A block is the unit of erasure.  Pages inside a block must be programmed
//! strictly in order and can only be programmed once per erase cycle; the
//! block therefore behaves like an append-only log segment, which is what
//! forces out-of-place updates at the layers above.
//!
//! A block records how far it is programmed once, in its write pointer:
//! its [`BlockState`] follows from that and its bad mark, and each page's
//! [`PageState`] from that and the host's invalidation mark.  Its payload
//! is exactly the pages below the write pointer.
//!
//! A block's payload buffer outlives its erases.  It grows with the write
//! pointer: each program appends its page to the buffer the block already
//! holds instead of allocating a new one, so a device in steady state
//! (blocks cycling through program and erase) allocates nothing for its
//! payloads, and nothing zeroes pages that are not programmed yet.  What
//! can be observed is unchanged: an erased block holds no payload — it
//! reads and images exactly as a block that never had one.

use crate::metadata::PageMetadata;

/// Lifecycle state of a single flash page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageState {
    /// Erased and programmable.
    Free,
    /// Programmed and holding live data.
    Valid,
    /// Programmed but superseded by a newer out-of-place write;
    /// space is reclaimed by erasing the block.
    Invalid,
}

/// Lifecycle state of an erase block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockState {
    /// Fully erased; no page programmed yet.
    Free,
    /// Some pages programmed, more space available (the "write frontier"
    /// block of a die/plane).
    Open,
    /// All pages programmed.
    Full,
    /// Factory-bad or retired due to wear; unusable.
    Bad,
}

/// Per-block bookkeeping kept by the simulated device.
#[derive(Debug, Clone)]
pub(crate) struct Block {
    /// Factory-bad or retired due to wear; unusable.
    pub bad: bool,
    /// Index of the next page that may be programmed (sequential rule):
    /// the pages below it are programmed, the rest erased.
    pub write_ptr: u32,
    /// Number of completed program/erase cycles.
    pub erase_count: u64,
    /// Per-page invalidation marks, set only below the write pointer.
    pub invalid: Vec<bool>,
    /// Per-page OOB metadata (None until programmed).
    pub meta: Vec<Option<PageMetadata>>,
    /// Page payloads: every page below the write pointer.  An erase
    /// clears it and keeps its capacity for the next cycle.
    pub data: Vec<u8>,
}

impl Block {
    pub(crate) fn new(pages_per_block: u32) -> Self {
        Block {
            bad: false,
            write_ptr: 0,
            erase_count: 0,
            invalid: vec![false; pages_per_block as usize],
            meta: vec![None; pages_per_block as usize],
            data: Vec::new(),
        }
    }

    /// Lifecycle state: bad, else how far the write pointer got.
    pub(crate) fn state(&self) -> BlockState {
        match self.write_ptr {
            _ if self.bad => BlockState::Bad,
            0 => BlockState::Free,
            p if p < self.invalid.len() as u32 => BlockState::Open,
            _ => BlockState::Full,
        }
    }

    /// State of `page`: free at or above the write pointer, else valid
    /// unless marked invalid.
    pub(crate) fn page_state(&self, page: u32) -> PageState {
        match page {
            p if p >= self.write_ptr => PageState::Free,
            p if self.invalid[p as usize] => PageState::Invalid,
            _ => PageState::Valid,
        }
    }

    /// Reset the block to the erased state (does not touch `erase_count`;
    /// the caller increments it so failed erases can be modelled).
    pub(crate) fn reset_erased(&mut self) {
        self.write_ptr = 0;
        self.invalid.fill(false);
        self.meta.fill(None);
        self.data.clear();
    }

    /// Turn a programmed page invalid (superseded, or moved away by a
    /// copyback); a free page is left as it is.
    pub(crate) fn invalidate(&mut self, page: u32) {
        if page < self.write_ptr {
            self.invalid[page as usize] = true;
        }
    }

    /// Number of still-free pages.
    pub(crate) fn free_pages(&self) -> u32 {
        (self.invalid.len() as u32).saturating_sub(self.write_ptr)
    }
}

/// Read-only snapshot of a block's state, exposed to flash management
/// layers (the NoFTL storage manager and the FTL) for victim selection,
/// wear leveling and free-space accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockInfo {
    /// Lifecycle state.
    pub state: BlockState,
    /// Next programmable page index.
    pub write_ptr: u32,
    /// Completed erase cycles.
    pub erase_count: u64,
    /// Pages holding live data.
    pub valid_pages: u32,
    /// Pages holding superseded data.
    pub invalid_pages: u32,
    /// Pages still erased.
    pub free_pages: u32,
}

impl BlockInfo {
    pub(crate) fn from_block(b: &Block) -> Self {
        let invalid_pages = b.invalid.iter().filter(|&&invalid| invalid).count() as u32;
        BlockInfo {
            state: b.state(),
            write_ptr: b.write_ptr,
            erase_count: b.erase_count,
            valid_pages: b.write_ptr - invalid_pages,
            invalid_pages,
            free_pages: b.free_pages(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_block_is_free() {
        let b = Block::new(8);
        assert_eq!(b.state(), BlockState::Free);
        assert_eq!(b.write_ptr, 0);
        let info = BlockInfo::from_block(&b);
        assert_eq!((info.valid_pages, info.invalid_pages), (0, 0));
        assert_eq!(b.free_pages(), 8);
        assert!(b.data.is_empty());
    }

    #[test]
    fn reset_clears_everything_but_wear() {
        let mut b = Block::new(4);
        b.write_ptr = 4;
        b.erase_count = 3;
        b.invalidate(1);
        b.data = Vec::with_capacity(4 * 16);
        b.data.extend_from_slice(&[1u8; 4 * 16]);
        assert_eq!(b.state(), BlockState::Full);
        b.reset_erased();
        assert_eq!(b.state(), BlockState::Free);
        assert_eq!(b.write_ptr, 0);
        assert_eq!(BlockInfo::from_block(&b).valid_pages, 0);
        assert_eq!(b.erase_count, 3, "erase_count is managed by the caller");
        assert!((0..4).all(|p| b.page_state(p) == PageState::Free));
        assert!(b.invalid.iter().all(|&i| !i), "no mark survives the erase");
        assert!(b.data.is_empty(), "an erased block holds no payload");
        assert_eq!(b.data.capacity(), 4 * 16, "and keeps its buffer");
    }

    #[test]
    fn block_info_snapshot_counts() {
        let mut b = Block::new(4);
        b.write_ptr = 3;
        b.invalidate(1);
        b.invalidate(2);
        b.invalidate(3);
        let pages: Vec<PageState> = (0..4).map(|p| b.page_state(p)).collect();
        assert_eq!(
            pages,
            [PageState::Valid, PageState::Invalid, PageState::Invalid, PageState::Free],
            "a free page takes no mark"
        );
        let info = BlockInfo::from_block(&b);
        assert_eq!((info.valid_pages, info.invalid_pages, info.free_pages), (1, 2, 1));
        assert_eq!(info.state, BlockState::Open);
        b.bad = true;
        assert_eq!(BlockInfo::from_block(&b).state, BlockState::Bad);
    }
}

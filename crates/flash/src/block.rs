//! Erase-block and page state tracking.
//!
//! A block is the unit of erasure.  Pages inside a block must be programmed
//! strictly in order and can only be programmed once per erase cycle; the
//! block therefore behaves like an append-only log segment, which is what
//! forces out-of-place updates at the layers above.
//!
//! A block's payload buffer outlives its erases.  The first program after
//! an erase zero-fills the buffer the block already holds instead of
//! allocating a new one, so a device in steady state (blocks cycling
//! through program and erase) allocates nothing for its payloads.  What
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
    pub state: BlockState,
    /// Index of the next page that may be programmed (sequential rule).
    pub write_ptr: u32,
    /// Number of completed program/erase cycles.
    pub erase_count: u64,
    /// Per-page states.
    pub pages: Vec<PageState>,
    /// Per-page OOB metadata (None until programmed).
    pub meta: Vec<Option<PageMetadata>>,
    /// Page payloads: empty until the first program after an erase, a
    /// whole block's worth from then on.  An erase clears it and keeps
    /// its capacity for the next cycle.
    pub data: Vec<u8>,
}

impl Block {
    pub(crate) fn new(pages_per_block: u32) -> Self {
        Block {
            state: BlockState::Free,
            write_ptr: 0,
            erase_count: 0,
            pages: vec![PageState::Free; pages_per_block as usize],
            meta: vec![None; pages_per_block as usize],
            data: Vec::new(),
        }
    }

    /// Reset the block to the erased state (does not touch `erase_count`;
    /// the caller increments it so failed erases can be modelled).
    pub(crate) fn reset_erased(&mut self) {
        self.state = BlockState::Free;
        self.write_ptr = 0;
        for p in &mut self.pages {
            *p = PageState::Free;
        }
        for m in &mut self.meta {
            *m = None;
        }
        self.data.clear();
    }

    /// Turn a valid page invalid (superseded, or moved away by a
    /// copyback); a page in any other state is left as it is.
    pub(crate) fn invalidate(&mut self, page: u32) {
        if self.pages[page as usize] == PageState::Valid {
            self.pages[page as usize] = PageState::Invalid;
        }
    }

    /// Number of pages in `state`.
    pub(crate) fn count(&self, state: PageState) -> u32 {
        self.pages.iter().filter(|p| **p == state).count() as u32
    }

    /// Number of still-free pages.
    pub(crate) fn free_pages(&self) -> u32 {
        (self.pages.len() as u32).saturating_sub(self.write_ptr)
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
        BlockInfo {
            state: b.state,
            write_ptr: b.write_ptr,
            erase_count: b.erase_count,
            valid_pages: b.count(PageState::Valid),
            invalid_pages: b.count(PageState::Invalid),
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
        assert_eq!(b.state, BlockState::Free);
        assert_eq!(b.write_ptr, 0);
        assert_eq!(b.count(PageState::Valid), 0);
        assert_eq!(b.free_pages(), 8);
        assert_eq!(b.count(PageState::Invalid), 0);
        assert!(b.data.is_empty());
    }

    #[test]
    fn reset_clears_everything_but_wear() {
        let mut b = Block::new(4);
        b.state = BlockState::Full;
        b.write_ptr = 4;
        b.erase_count = 3;
        b.pages = vec![PageState::Valid, PageState::Invalid, PageState::Valid, PageState::Valid];
        b.data = vec![1u8; 4 * 16];
        b.reset_erased();
        assert_eq!(b.state, BlockState::Free);
        assert_eq!(b.write_ptr, 0);
        assert_eq!(b.count(PageState::Valid), 0);
        assert_eq!(b.erase_count, 3, "erase_count is managed by the caller");
        assert!(b.pages.iter().all(|p| *p == PageState::Free));
        assert!(b.data.is_empty(), "an erased block holds no payload");
        assert_eq!(b.data.capacity(), 4 * 16, "and keeps its buffer");
    }

    #[test]
    fn block_info_snapshot_counts() {
        let mut b = Block::new(4);
        b.pages = vec![PageState::Valid, PageState::Invalid, PageState::Invalid, PageState::Free];
        b.write_ptr = 3;
        b.state = BlockState::Open;
        let info = BlockInfo::from_block(&b);
        assert_eq!(info.valid_pages, 1);
        assert_eq!(info.invalid_pages, 2);
        assert_eq!(info.free_pages, 1);
        assert_eq!(info.state, BlockState::Open);
    }
}

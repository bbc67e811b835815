//! Error types for native flash operations.

use crate::addr::{BlockAddr, PageAddr};
use crate::time::SimTime;
use std::fmt;

/// Errors returned by the native flash interface.
///
/// Most of these correspond to violations of NAND programming rules that a
/// correct flash management layer (an FTL or the NoFTL storage manager)
/// must never trigger; they are therefore also the primary safety net of
/// the test suite.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FlashError {
    /// The address does not exist in the device geometry.
    OutOfBounds {
        /// Human-readable description of the offending address.
        addr: String,
    },
    /// Attempt to program a page that is not in the erased state
    /// (in-place updates are impossible on NAND flash).
    PageNotErased {
        /// The page that was targeted.
        addr: PageAddr,
    },
    /// Pages within a block must be programmed strictly sequentially.
    NonSequentialProgram {
        /// The page that was targeted.
        addr: PageAddr,
        /// The page index that must be programmed next.
        expected_next: u32,
    },
    /// Attempt to read a page that has never been programmed since the
    /// last erase of its block.
    UnwrittenPage {
        /// The page that was targeted.
        addr: PageAddr,
    },
    /// The block has been marked bad (factory-bad or worn out) and cannot
    /// be used.
    BadBlock {
        /// The bad block.
        addr: BlockAddr,
    },
    /// The block exceeded its program/erase endurance and the erase failed.
    WornOut {
        /// The worn-out block.
        addr: BlockAddr,
        /// Erase count at the time of failure.
        erase_count: u64,
    },
    /// Copyback source and destination must be on the same die.
    CopybackCrossDie {
        /// Source page.
        src: PageAddr,
        /// Destination page.
        dst: PageAddr,
    },
    /// The data buffer length does not match the device page size.
    BadPageSize {
        /// Expected page size in bytes.
        expected: u32,
        /// Length of the supplied buffer.
        got: usize,
    },
    /// A simulated power cut: the device lost power at `at` and rejects
    /// every operation issued at or after that instant (operations still in
    /// flight at `at` are torn — see `NandDevice::arm_power_cut`).
    PowerLoss {
        /// The simulated instant at which power was lost.
        at: SimTime,
    },
    /// A replicated operation found no healthy child to serve it.
    NoHealthyChild {
        /// The simulated instant of the failed operation.
        at: SimTime,
    },
    /// A mirror could not be assembled or driven (too few children,
    /// mismatched geometries, an illegal health transition, ...).
    MirrorConfig {
        /// Human-readable description.
        message: String,
    },
    /// A device image could not be decoded.
    Image {
        /// Human-readable description.
        message: String,
    },
}

impl fmt::Display for FlashError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlashError::OutOfBounds { addr } => write!(f, "address out of bounds: {addr}"),
            FlashError::PageNotErased { addr } => {
                write!(f, "program to non-erased page {addr} (in-place update attempted)")
            }
            FlashError::NonSequentialProgram { addr, expected_next } => write!(
                f,
                "non-sequential program to {addr}: next programmable page index is {expected_next}"
            ),
            FlashError::UnwrittenPage { addr } => write!(f, "read of unwritten page {addr}"),
            FlashError::BadBlock { addr } => write!(f, "operation on bad block {addr}"),
            FlashError::WornOut { addr, erase_count } => {
                write!(f, "block {addr} worn out after {erase_count} erase cycles")
            }
            FlashError::CopybackCrossDie { src, dst } => {
                write!(f, "copyback must stay within one die: {src} -> {dst}")
            }
            FlashError::BadPageSize { expected, got } => {
                write!(f, "bad page buffer size: expected {expected} bytes, got {got}")
            }
            FlashError::PowerLoss { at } => {
                write!(f, "power lost at t={} ns; device requires reboot", at.as_nanos())
            }
            FlashError::NoHealthyChild { at } => {
                write!(f, "no healthy mirror child available at t={} ns", at.as_nanos())
            }
            FlashError::MirrorConfig { message } => write!(f, "mirror error: {message}"),
            FlashError::Image { message } => write!(f, "device image error: {message}"),
        }
    }
}

impl std::error::Error for FlashError {}

impl FlashError {
    /// Convenience constructor for out-of-bounds errors.
    pub fn oob(addr: impl fmt::Display) -> Self {
        FlashError::OutOfBounds { addr: addr.to_string() }
    }

    /// True if the error reports a simulated power loss (the device must be
    /// rebooted from its image before it accepts further operations).
    pub fn is_power_loss(&self) -> bool {
        matches!(self, FlashError::PowerLoss { .. })
    }

    /// True if the error indicates a permanently unusable block.
    pub fn is_permanent(&self) -> bool {
        matches!(self, FlashError::BadBlock { .. } | FlashError::WornOut { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::DieId;

    #[test]
    fn display_messages_mention_addresses() {
        let p = PageAddr::new(DieId(1), 0, 2, 3);
        let msg = FlashError::PageNotErased { addr: p }.to_string();
        assert!(msg.contains("die1/p0/b2/pg3"));
        let msg = FlashError::NonSequentialProgram { addr: p, expected_next: 1 }.to_string();
        assert!(msg.contains("next programmable page index is 1"));
    }

    #[test]
    fn permanence_classification() {
        let b = BlockAddr::new(DieId(0), 0, 0);
        assert!(FlashError::BadBlock { addr: b }.is_permanent());
        assert!(FlashError::WornOut { addr: b, erase_count: 10 }.is_permanent());
        assert!(!FlashError::UnwrittenPage { addr: b.page(0) }.is_permanent());
        assert!(!FlashError::oob("x").is_permanent());
    }
}

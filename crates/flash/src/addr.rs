//! Physical addressing types.
//!
//! Under NoFTL the DBMS addresses flash *physically*: a page is identified
//! by its (die, plane, block, page) coordinates.  These types are small
//! `Copy` newtypes so they can be passed around freely and stored in
//! mapping tables.

use std::fmt;

/// Global die index (0-based across the whole device).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DieId(pub u32);

impl fmt::Display for DieId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "die{}", self.0)
    }
}

/// A plane within a specific die.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PlaneAddr {
    /// Owning die.
    pub die: DieId,
    /// Plane index within the die.
    pub plane: u32,
}

impl PlaneAddr {
    /// Create a plane address.
    pub fn new(die: DieId, plane: u32) -> Self {
        PlaneAddr { die, plane }
    }
}

impl fmt::Display for PlaneAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/p{}", self.die, self.plane)
    }
}

/// Physical address of an erase block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlockAddr {
    /// Owning die.
    pub die: DieId,
    /// Plane index within the die.
    pub plane: u32,
    /// Block index within the plane.
    pub block: u32,
}

impl BlockAddr {
    /// Create a block address.
    pub fn new(die: DieId, plane: u32, block: u32) -> Self {
        BlockAddr { die, plane, block }
    }

    /// The plane this block belongs to.
    pub fn plane_addr(&self) -> PlaneAddr {
        PlaneAddr::new(self.die, self.plane)
    }

    /// The address of a page inside this block.
    pub fn page(&self, page: u32) -> PageAddr {
        PageAddr { die: self.die, plane: self.plane, block: self.block, page }
    }
}

impl fmt::Display for BlockAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/p{}/b{}", self.die, self.plane, self.block)
    }
}

/// Physical address of a flash page (the unit of read/program).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PageAddr {
    /// Owning die.
    pub die: DieId,
    /// Plane index within the die.
    pub plane: u32,
    /// Block index within the plane.
    pub block: u32,
    /// Page index within the block.
    pub page: u32,
}

impl PageAddr {
    /// Create a page address from its components.
    pub fn new(die: DieId, plane: u32, block: u32, page: u32) -> Self {
        PageAddr { die, plane, block, page }
    }

    /// The block this page belongs to.
    pub fn block(&self) -> BlockAddr {
        BlockAddr { die: self.die, plane: self.plane, block: self.block }
    }

    /// The plane this page belongs to.
    pub fn plane_addr(&self) -> PlaneAddr {
        PlaneAddr::new(self.die, self.plane)
    }

    /// Pack the address into a single `u64` (useful for compact mapping
    /// tables).  Layout: die(16) | plane(8) | block(24) | page(16).
    pub fn pack(&self) -> u64 {
        debug_assert!(self.die.0 < (1 << 16));
        debug_assert!(self.plane < (1 << 8));
        debug_assert!(self.block < (1 << 24));
        debug_assert!(self.page < (1 << 16));
        ((self.die.0 as u64) << 48)
            | ((self.plane as u64) << 40)
            | ((self.block as u64) << 16)
            | (self.page as u64)
    }

    /// Inverse of [`PageAddr::pack`].
    pub fn unpack(v: u64) -> Self {
        PageAddr {
            die: DieId(((v >> 48) & 0xFFFF) as u32),
            plane: ((v >> 40) & 0xFF) as u32,
            block: ((v >> 16) & 0xFF_FFFF) as u32,
            page: (v & 0xFFFF) as u32,
        }
    }
}

impl fmt::Display for PageAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/p{}/b{}/pg{}", self.die, self.plane, self.block, self.page)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn display_formats() {
        let p = PageAddr::new(DieId(3), 1, 42, 7);
        assert_eq!(p.to_string(), "die3/p1/b42/pg7");
        assert_eq!(p.block().to_string(), "die3/p1/b42");
        assert_eq!(p.plane_addr().to_string(), "die3/p1");
    }

    #[test]
    fn block_page_roundtrip() {
        let b = BlockAddr::new(DieId(2), 0, 10);
        let p = b.page(5);
        assert_eq!(p.block(), b);
        assert_eq!(p.page, 5);
    }

    #[test]
    fn pack_unpack_roundtrip_basic() {
        let p = PageAddr::new(DieId(63), 1, 511, 63);
        assert_eq!(PageAddr::unpack(p.pack()), p);
    }

    proptest! {
        #[test]
        fn pack_unpack_roundtrip(die in 0u32..u16::MAX as u32,
                                 plane in 0u32..256,
                                 block in 0u32..(1 << 24),
                                 page in 0u32..u16::MAX as u32) {
            let p = PageAddr::new(DieId(die), plane, block, page);
            prop_assert_eq!(PageAddr::unpack(p.pack()), p);
        }

        #[test]
        fn pack_is_injective(a_die in 0u32..64, a_block in 0u32..512, a_page in 0u32..64,
                             b_die in 0u32..64, b_block in 0u32..512, b_page in 0u32..64) {
            let a = PageAddr::new(DieId(a_die), 0, a_block, a_page);
            let b = PageAddr::new(DieId(b_die), 0, b_block, b_page);
            prop_assert_eq!(a == b, a.pack() == b.pack());
        }
    }
}

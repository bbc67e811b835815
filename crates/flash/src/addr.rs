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
}

impl fmt::Display for PageAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/p{}/b{}/pg{}", self.die, self.plane, self.block, self.page)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        let p = PageAddr::new(DieId(3), 1, 42, 7);
        assert_eq!(p.to_string(), "die3/p1/b42/pg7");
        assert_eq!(p.block().to_string(), "die3/p1/b42");
    }

    #[test]
    fn block_page_roundtrip() {
        let b = BlockAddr::new(DieId(2), 0, 10);
        let p = b.page(5);
        assert_eq!(p.block(), b);
        assert_eq!(p.page, 5);
    }
}

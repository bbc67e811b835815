//! Dirty-segment tracking.
//!
//! A *segment* is one erase block, addressed by its linear block index
//! ([`FlashGeometry::block_index`](flash_sim::FlashGeometry::block_index)).  While a
//! child is faulted, every write that would have reached it marks the
//! targeted segment dirty in that child's [`SegmentMap`]; the rebuild
//! engine later copies exactly the dirty segments and nothing else.
//!
//! A map lives in memory only: after a reboot the mount's verify scan
//! ([`MirrorDevice::restore_replication`](crate::MirrorDevice::restore_replication))
//! reads a child's staleness off the children themselves, so nothing
//! persists it.

/// A fixed-size bitmap over the segments of one child.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentMap {
    segments: u64,
    words: Vec<u64>,
}

impl SegmentMap {
    /// A map over `segments` segments, all clean.
    pub fn all_clean(segments: u64) -> Self {
        let words = segments.div_ceil(64) as usize;
        SegmentMap { segments, words: vec![0; words] }
    }

    /// A map over `segments` segments, all dirty (the fail-safe state).
    pub fn all_dirty(segments: u64) -> Self {
        let mut map = Self::all_clean(segments);
        for seg in 0..segments {
            map.mark(seg);
        }
        map
    }

    /// Number of dirty segments.
    pub fn dirty_count(&self) -> u64 {
        self.words.iter().map(|w| u64::from(w.count_ones())).sum()
    }

    /// True when no segment is dirty.
    pub fn is_all_clean(&self) -> bool {
        self.words.iter().all(|w| *w == 0)
    }

    /// Is `seg` dirty?  Out-of-range segments report clean.
    pub fn is_dirty(&self, seg: u64) -> bool {
        if seg >= self.segments {
            return false;
        }
        self.words[(seg / 64) as usize] & (1u64 << (seg % 64)) != 0
    }

    /// Mark `seg` dirty; returns `true` if it was clean before.
    /// Out-of-range segments are ignored.
    pub fn mark(&mut self, seg: u64) -> bool {
        if seg >= self.segments || self.is_dirty(seg) {
            return false;
        }
        self.words[(seg / 64) as usize] |= 1u64 << (seg % 64);
        true
    }

    /// Clear `seg`; returns `true` if it was dirty before.
    pub fn clear(&mut self, seg: u64) -> bool {
        if !self.is_dirty(seg) {
            return false;
        }
        self.words[(seg / 64) as usize] &= !(1u64 << (seg % 64));
        true
    }

    /// Lowest dirty segment, if any (the rebuild engine's work picker).
    pub fn first_dirty(&self) -> Option<u64> {
        for (w, word) in self.words.iter().enumerate() {
            if *word != 0 {
                let seg = w as u64 * 64 + word.trailing_zeros() as u64;
                return (seg < self.segments).then_some(seg);
            }
        }
        None
    }

    /// Iterate over the dirty segments in ascending order.
    pub fn iter_dirty(&self) -> impl Iterator<Item = u64> + '_ {
        (0..self.segments).filter(|&s| self.is_dirty(s))
    }

    /// Mark every segment that is dirty in `other`.
    pub fn union(&mut self, other: &SegmentMap) {
        for seg in other.iter_dirty() {
            self.mark(seg);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn mark_clear_count() {
        let mut m = SegmentMap::all_clean(100);
        assert!(m.is_all_clean());
        assert!(m.mark(0));
        assert!(m.mark(63));
        assert!(m.mark(64));
        assert!(m.mark(99));
        assert!(!m.mark(99), "re-marking reports already dirty");
        assert!(!m.mark(100), "out of range ignored");
        assert_eq!(m.dirty_count(), 4);
        assert!(m.is_dirty(64));
        assert!(!m.is_dirty(65));
        assert!(m.clear(63));
        assert!(!m.clear(63));
        assert_eq!(m.dirty_count(), 3);
        assert_eq!(m.first_dirty(), Some(0));
        assert_eq!(m.iter_dirty().collect::<Vec<_>>(), vec![0, 64, 99]);
    }

    #[test]
    fn all_dirty_and_union() {
        let m = SegmentMap::all_dirty(70);
        assert_eq!(m.dirty_count(), 70);
        assert_eq!(m.first_dirty(), Some(0));
        let mut a = SegmentMap::all_clean(70);
        a.mark(3);
        let mut b = SegmentMap::all_clean(70);
        b.mark(3);
        b.mark(69);
        a.union(&b);
        assert_eq!(a.iter_dirty().collect::<Vec<_>>(), vec![3, 69]);
    }

    proptest! {
        #[test]
        fn dirty_count_tracks_bits(segs in 1u64..200, seed in any::<u64>()) {
            let mut m = SegmentMap::all_clean(segs);
            let mut x = seed | 1;
            for _ in 0..segs {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let s = x % segs;
                if x & 1 == 0 { m.mark(s); } else { m.clear(s); }
                prop_assert_eq!(m.dirty_count(), m.iter_dirty().count() as u64);
            }
        }
    }
}

//! Dirty-segment tracking and its persisted form.
//!
//! A *segment* is one erase block, addressed by its linear block index
//! ([`FlashGeometry::block_index`](flash_sim::FlashGeometry::block_index)).  While a
//! child is faulted, every write that would have reached it marks the
//! targeted segment dirty in that child's [`SegmentMap`]; the rebuild
//! engine later copies exactly the dirty segments and nothing else.
//!
//! [`MirrorBlob`] is the persisted form carried inside the NoFTL
//! checkpoint (`CheckpointImage::replication`): per-child health byte and
//! bitmap plus the mirror's epoch watermark, framed by a magic and a
//! CRC-32 trailer.  A torn or truncated blob decodes to `None`, which the
//! restore path treats as "every non-source child may be entirely stale"
//! — the mandated fail-safe direction.

use crate::health::ChildHealth;
use flash_sim::codec::{open, put_u32, put_u64, put_u8, seal, Reader};

/// Magic prefix of the persisted mirror blob.
pub const BLOB_MAGIC: &[u8; 8] = b"NFMIRR01";

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

    /// Number of segments the map covers.
    pub fn segments(&self) -> u64 {
        self.segments
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

    fn encode_into(&self, out: &mut Vec<u8>) {
        put_u64(out, self.segments);
        put_u32(out, self.words.len() as u32);
        for w in &self.words {
            put_u64(out, *w);
        }
    }

    fn decode_from(r: &mut Reader<'_>) -> Option<SegmentMap> {
        let segments = r.u64()?;
        let word_count = r.u32()?;
        if u64::from(word_count) != segments.div_ceil(64) {
            return None;
        }
        let words: Vec<u64> = (0..word_count).map(|_| r.u64()).collect::<Option<_>>()?;
        // Bits beyond `segments` must be zero or the blob is corrupt.
        if segments % 64 != 0 {
            if let Some(last) = words.last() {
                if last >> (segments % 64) != 0 {
                    return None;
                }
            }
        }
        Some(SegmentMap { segments, words })
    }
}

/// Persisted health + dirty map of one child.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChildBlob {
    /// Health at blob time (`Rebuilding` collapses to `Faulted`).
    pub health: ChildHealth,
    /// Dirty segments at blob time, including any copy that was still in
    /// flight (a crash mid-copy must re-copy, never trust it landed).
    pub dirty: SegmentMap,
}

/// The persisted replication state of a whole mirror.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MirrorBlob {
    /// Mirror write epoch when the blob was taken (diagnostic watermark;
    /// source selection at restore re-derives from the devices).
    pub watermark: u64,
    /// Per-child state, indexed like the mirror's children.
    pub children: Vec<ChildBlob>,
}

impl MirrorBlob {
    /// Serialise: magic | watermark | child count | children | crc32.
    pub fn encode(&self) -> Vec<u8> {
        seal(BLOB_MAGIC, 0, |out| {
            put_u64(out, self.watermark);
            put_u32(out, self.children.len() as u32);
            for child in &self.children {
                put_u8(out, child.health.encode());
                child.dirty.encode_into(out);
            }
        })
    }

    /// Decode a blob produced by [`MirrorBlob::encode`].  Any framing,
    /// length or checksum mismatch yields `None` — the caller must then
    /// assume every non-source child is entirely stale.
    pub fn decode(buf: &[u8]) -> Option<MirrorBlob> {
        let mut r = open(buf, BLOB_MAGIC)?;
        let watermark = r.u64()?;
        let children = (0..r.u32()?)
            .map(|_| {
                let health = ChildHealth::decode(r.u8()?)?;
                Some(ChildBlob { health, dirty: SegmentMap::decode_from(&mut r)? })
            })
            .collect::<Option<_>>()?;
        r.rest().is_empty().then_some(MirrorBlob { watermark, children })
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

    #[test]
    fn blob_roundtrip() {
        let mut dirty0 = SegmentMap::all_clean(64);
        dirty0.mark(7);
        dirty0.mark(63);
        let blob = MirrorBlob {
            watermark: 12345,
            children: vec![
                ChildBlob { health: ChildHealth::Online, dirty: SegmentMap::all_clean(64) },
                ChildBlob { health: ChildHealth::Faulted, dirty: dirty0 },
            ],
        };
        let enc = blob.encode();
        assert_eq!(MirrorBlob::decode(&enc), Some(blob));
    }

    #[test]
    fn rebuilding_child_persists_as_faulted() {
        let blob = MirrorBlob {
            watermark: 1,
            children: vec![ChildBlob {
                health: ChildHealth::Rebuilding,
                dirty: SegmentMap::all_clean(8),
            }],
        };
        let dec = MirrorBlob::decode(&blob.encode()).unwrap();
        assert_eq!(dec.children[0].health, ChildHealth::Faulted);
    }

    #[test]
    fn torn_blobs_decode_to_none() {
        let blob = MirrorBlob {
            watermark: 99,
            children: vec![ChildBlob {
                health: ChildHealth::Online,
                dirty: SegmentMap::all_dirty(130),
            }],
        };
        let enc = blob.encode();
        // Truncations at every length.
        for n in 0..enc.len() {
            assert_eq!(MirrorBlob::decode(&enc[..n]), None, "truncated to {n}");
        }
        // Any single-byte corruption breaks the CRC (or the framing).
        for i in 0..enc.len() {
            let mut bad = enc.clone();
            bad[i] ^= 0x40;
            assert_eq!(MirrorBlob::decode(&bad), None, "flipped byte {i}");
        }
        assert_eq!(MirrorBlob::decode(b"junk"), None);
        assert_eq!(MirrorBlob::decode(&[]), None);
    }

    proptest! {
        #[test]
        fn roundtrip_any(watermark in any::<u64>(), segs in 1u64..300, seed in any::<u64>()) {
            let mut dirty = SegmentMap::all_clean(segs);
            // Deterministic pseudo-random dirtying from the seed.
            let mut x = seed | 1;
            for _ in 0..(segs / 2) {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                dirty.mark(x % segs);
            }
            let blob = MirrorBlob {
                watermark,
                children: vec![
                    ChildBlob { health: ChildHealth::Faulted, dirty },
                    ChildBlob { health: ChildHealth::Online, dirty: SegmentMap::all_clean(segs) },
                ],
            };
            prop_assert_eq!(MirrorBlob::decode(&blob.encode()), Some(blob));
        }

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

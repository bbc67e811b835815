//! Slotted 4 KiB data pages.
//!
//! Layout:
//!
//! ```text
//! +--------+-----------------------+............+----------------------+
//! | header | slot directory -->    |   free     |   <-- record data    |
//! +--------+-----------------------+............+----------------------+
//! ```
//!
//! * header: `slot_count: u16`, `free_end: u16` (offset where record data
//!   begins, records grow downwards from the page end);
//! * slot: `offset: u16`, `len: u16`; a slot with `offset == 0` is a
//!   tombstone (page offsets below the header are impossible, so 0 is free
//!   to use as the dead marker).

use std::ops::Range;

use crate::error::DbError;
use crate::Result;
use crate::PAGE_SIZE;

const HEADER_LEN: usize = 4;
const SLOT_LEN: usize = 4;

/// A slotted page over a 4 KiB buffer it does not own — a buffer-pool
/// frame, lent by [`crate::buffer::BufferPool::with_page`] to read or by
/// [`crate::buffer::BufferPool::with_page_mut`] to edit in place.
#[derive(Debug)]
pub struct SlottedPage<B> {
    buf: B,
}

impl<B: AsRef<[u8]>> SlottedPage<B> {
    /// Interpret an existing 4 KiB buffer as a slotted page.
    pub fn new(buf: B) -> Result<Self> {
        let len = buf.as_ref().len();
        if len != PAGE_SIZE {
            return Err(DbError::Corrupted {
                message: format!("page buffer has {len} bytes, expected {PAGE_SIZE}"),
            });
        }
        Ok(SlottedPage { buf })
    }

    /// The raw page bytes.
    pub fn as_bytes(&self) -> &[u8] {
        self.buf.as_ref()
    }

    fn u16_at(&self, at: usize) -> u16 {
        let b = self.as_bytes();
        u16::from_le_bytes([b[at], b[at + 1]])
    }

    fn slot_count(&self) -> u16 {
        self.u16_at(0)
    }

    fn free_end(&self) -> u16 {
        self.u16_at(2)
    }

    fn slot(&self, idx: u16) -> (u16, u16) {
        let base = HEADER_LEN + idx as usize * SLOT_LEN;
        (self.u16_at(base), self.u16_at(base + 2))
    }

    /// True if a record of `len` bytes and its slot fit in the contiguous
    /// free space.
    pub fn fits(&self, len: usize) -> bool {
        let dir_end = HEADER_LEN + self.slot_count() as usize * SLOT_LEN;
        (self.free_end() as usize).saturating_sub(dir_end) >= len + SLOT_LEN
    }

    /// Read the record in `slot` where it lies.  A slot count or slot
    /// entry that points outside the page is `Corrupted`, not a panic.
    pub fn get(&self, slot: u16) -> Result<&[u8]> {
        Ok(&self.as_bytes()[self.span(slot)?])
    }

    /// Where the record in `slot` lies, checked as [`SlottedPage::get`]
    /// says.
    fn span(&self, slot: u16) -> Result<Range<usize>> {
        let beyond = |what| DbError::Corrupted { message: format!("{what} lies beyond the page") };
        if slot >= self.slot_count() {
            return Err(DbError::InvalidRid { message: format!("slot {slot} out of range") });
        }
        if HEADER_LEN + (slot as usize + 1) * SLOT_LEN > PAGE_SIZE {
            return Err(beyond(format!("slot {slot}")));
        }
        let (off, len) = self.slot(slot);
        if off == 0 {
            return Err(DbError::InvalidRid { message: format!("slot {slot} is deleted") });
        }
        let span = off as usize..off as usize + len as usize;
        (span.end <= PAGE_SIZE)
            .then_some(span)
            .ok_or_else(|| beyond(format!("record of slot {slot}")))
    }

    /// Iterate over `(slot, record)` pairs of live records.
    pub fn iter(&self) -> impl Iterator<Item = (u16, &[u8])> {
        (0..self.slot_count()).filter_map(move |i| {
            let (off, len) = self.slot(i);
            if off == 0 {
                None
            } else {
                Some((i, &self.as_bytes()[off as usize..off as usize + len as usize]))
            }
        })
    }
}

impl<B: AsRef<[u8]> + AsMut<[u8]>> SlottedPage<B> {
    /// Format `buf` as an empty page.
    pub fn init(buf: B) -> Result<Self> {
        let mut page = Self::new(buf)?;
        let bytes = page.buf.as_mut();
        bytes.fill(0);
        // slot_count = 0, free_end = PAGE_SIZE
        bytes[2..4].copy_from_slice(&(PAGE_SIZE as u16).to_le_bytes());
        Ok(page)
    }

    /// Edit the record in `slot` where it lies; refused as
    /// [`SlottedPage::get`] refuses.
    pub fn get_mut(&mut self, slot: u16) -> Result<&mut [u8]> {
        let span = self.span(slot)?;
        Ok(&mut self.buf.as_mut()[span])
    }

    fn set_u16(&mut self, at: usize, v: u16) {
        self.buf.as_mut()[at..at + 2].copy_from_slice(&v.to_le_bytes());
    }

    fn set_slot(&mut self, idx: u16, off: u16, len: u16) {
        let base = HEADER_LEN + idx as usize * SLOT_LEN;
        self.set_u16(base, off);
        self.set_u16(base + 2, len);
    }

    /// Insert a record, returning its slot number, or `None` — and the
    /// page untouched — if it does not fit.
    pub fn insert(&mut self, record: &[u8]) -> Option<u16> {
        if record.is_empty() || record.len() > u16::MAX as usize || !self.fits(record.len()) {
            return None;
        }
        let slot = self.slot_count();
        let new_end = self.free_end() as usize - record.len();
        self.buf.as_mut()[new_end..new_end + record.len()].copy_from_slice(record);
        self.set_u16(2, new_end as u16);
        self.set_u16(0, slot + 1);
        self.set_slot(slot, new_end as u16, record.len() as u16);
        Some(slot)
    }

    /// Overwrite the record in `slot` in place.  The new record must not be
    /// larger than the existing one (fixed-layout records never are).  On
    /// error the page is untouched.
    pub fn update(&mut self, slot: u16, record: &[u8]) -> Result<()> {
        let len = self.get(slot)?.len();
        if record.len() > len {
            return Err(DbError::TooLarge {
                message: format!("update of {} bytes into a {len}-byte record", record.len()),
            });
        }
        let (off, _) = self.slot(slot);
        self.buf.as_mut()[off as usize..off as usize + record.len()].copy_from_slice(record);
        if record.len() < len {
            self.set_slot(slot, off, record.len() as u16);
        }
        Ok(())
    }

    /// Delete the record in `slot` (tombstone; space is not compacted).
    /// On error the page is untouched.
    pub fn delete(&mut self, slot: u16) -> Result<()> {
        if slot >= self.slot_count() {
            return Err(DbError::InvalidRid { message: format!("slot {slot} out of range") });
        }
        let (off, _) = self.slot(slot);
        if off == 0 {
            return Err(DbError::InvalidRid { message: format!("slot {slot} already deleted") });
        }
        self.set_slot(slot, 0, 0);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn empty() -> SlottedPage<Vec<u8>> {
        SlottedPage::init(vec![0xA5; PAGE_SIZE]).unwrap()
    }

    #[test]
    fn empty_page_properties() {
        let p = empty();
        assert_eq!(p.iter().count(), 0);
        assert!(p.fits(PAGE_SIZE - HEADER_LEN - SLOT_LEN));
        assert!(!p.fits(PAGE_SIZE - HEADER_LEN - SLOT_LEN + 1));
        assert!(p.as_bytes()[4..].iter().all(|b| *b == 0), "init zeroes the frame");
    }

    #[test]
    fn insert_get_update_delete() {
        let mut p = empty();
        let s0 = p.insert(b"hello").unwrap();
        let s1 = p.insert(b"world!").unwrap();
        assert_eq!(p.get(s0).unwrap(), b"hello");
        assert_eq!(p.get(s1).unwrap(), b"world!");
        assert_eq!(p.iter().count(), 2);
        p.update(s0, b"HELLO").unwrap();
        assert_eq!(p.get(s0).unwrap(), b"HELLO");
        // An edit where the record lies.
        p.get_mut(s0).unwrap()[0] = b'J';
        assert_eq!(p.get(s0).unwrap(), b"JELLO");
        p.update(s0, b"HELLO").unwrap();
        // Shrinking updates adjust the visible length.
        p.update(s1, b"hi").unwrap();
        assert_eq!(p.get(s1).unwrap(), b"hi");
        // Growing updates are rejected.
        assert!(matches!(p.update(s1, b"too long now"), Err(DbError::TooLarge { .. })));
        p.delete(s0).unwrap();
        assert!(p.get(s0).is_err());
        assert!(matches!(p.get_mut(s0), Err(DbError::InvalidRid { .. })));
        assert!(matches!(p.get_mut(9), Err(DbError::InvalidRid { .. })));
        assert!(p.delete(s0).is_err());
        let collected: Vec<_> = p.iter().map(|(s, r)| (s, r.to_vec())).collect();
        assert_eq!(collected, vec![(s1, b"hi".to_vec())]);
    }

    #[test]
    fn page_fills_up_and_rejects_overflow() {
        let mut frame = [0u8; PAGE_SIZE];
        let mut p = SlottedPage::init(&mut frame[..]).unwrap();
        let rec = vec![7u8; 100];
        let mut inserted = 0;
        while p.insert(&rec).is_some() {
            inserted += 1;
        }
        // 4 KiB / (100 + 4 slot bytes) ≈ 39 records.
        assert!((35..=40).contains(&inserted), "inserted {inserted}");
        assert!(!p.fits(100));
        // The records are in the frame: a read-only view sees them.
        let view = SlottedPage::new(&frame[..]).unwrap();
        assert_eq!(view.iter().count(), inserted);
        assert_eq!(view.get(0).unwrap(), &rec[..]);
    }

    #[test]
    fn invalid_inputs_leave_the_page_untouched() {
        let mut p = empty();
        let slot = p.insert(b"abc").unwrap();
        let before = p.as_bytes().to_vec();
        assert!(p.insert(&[]).is_none());
        assert!(p.insert(&vec![0u8; PAGE_SIZE]).is_none());
        assert!(p.get(1).is_err());
        assert!(p.update(3, b"x").is_err());
        assert!(p.update(slot, b"abcd").is_err());
        assert!(p.delete(3).is_err());
        assert_eq!(p.as_bytes(), &before[..]);
        assert!(SlottedPage::new(vec![0u8; 100]).is_err());
    }

    proptest! {
        /// Inserted records always read back verbatim, regardless of order
        /// and interleaved deletes — from the page that wrote them and
        /// from a read-only view of its bytes; deleted and out-of-range
        /// slots are refused by both.
        #[test]
        fn insert_read_consistency(
            records in prop::collection::vec(prop::collection::vec(any::<u8>(), 1..200), 1..30),
            deleted in prop::collection::vec(any::<bool>(), 30..31),
        ) {
            let mut p = empty();
            let mut stored: Vec<(u16, Vec<u8>)> = Vec::new();
            for r in &records {
                if let Some(slot) = p.insert(r) {
                    stored.push((slot, r.clone()));
                }
            }
            for (slot, _) in &stored {
                if deleted[*slot as usize] {
                    p.delete(*slot).unwrap();
                }
            }
            let view = SlottedPage::new(p.as_bytes()).unwrap();
            for (slot, expected) in &stored {
                if deleted[*slot as usize] {
                    prop_assert!(matches!(p.get(*slot), Err(DbError::InvalidRid { .. })));
                    prop_assert!(matches!(view.get(*slot), Err(DbError::InvalidRid { .. })));
                } else {
                    prop_assert_eq!(p.get(*slot).unwrap(), &expected[..]);
                    prop_assert_eq!(view.get(*slot).unwrap(), &expected[..]);
                }
            }
            let live = stored.iter().filter(|(slot, _)| !deleted[*slot as usize]).count();
            prop_assert_eq!(view.iter().count(), live);
            let slots = stored.len() as u16;
            for beyond in [slots, slots + 1, u16::MAX] {
                prop_assert!(matches!(view.get(beyond), Err(DbError::InvalidRid { .. })));
            }
            prop_assert!(matches!(
                SlottedPage::new(&p.as_bytes()[..PAGE_SIZE - 1]),
                Err(DbError::Corrupted { .. })
            ));
        }
    }

    #[test]
    fn get_refuses_slots_that_point_outside_the_page() {
        let mut p = empty();
        let slot = p.insert(b"abc").unwrap();
        let mut image = p.as_bytes().to_vec();
        // Record end past the page.
        image[HEADER_LEN + 2..HEADER_LEN + 4].copy_from_slice(&u16::MAX.to_le_bytes());
        let view = |image: &[u8], slot| SlottedPage::new(image).unwrap().get(slot).map(<[u8]>::len);
        let edit = |image: &mut [u8], slot| {
            SlottedPage::new(image).unwrap().get_mut(slot).map(|record| record.len())
        };
        assert!(matches!(view(&image, slot), Err(DbError::Corrupted { .. })));
        assert!(matches!(edit(&mut image, slot), Err(DbError::Corrupted { .. })));
        // A slot count whose directory runs off the page.
        image[0..2].copy_from_slice(&u16::MAX.to_le_bytes());
        assert!(matches!(view(&image, 2_000), Err(DbError::Corrupted { .. })));
        assert!(matches!(edit(&mut image, 2_000), Err(DbError::Corrupted { .. })));
    }
}

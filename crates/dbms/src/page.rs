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

use crate::error::DbError;
use crate::Result;
use crate::PAGE_SIZE;

const HEADER_LEN: usize = 4;
const SLOT_LEN: usize = 4;

/// A slotted page over a fixed 4 KiB buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlottedPage {
    buf: Vec<u8>,
}

impl Default for SlottedPage {
    fn default() -> Self {
        Self::new()
    }
}

impl SlottedPage {
    /// Create an empty page.
    pub fn new() -> Self {
        let mut buf = vec![0u8; PAGE_SIZE];
        // slot_count = 0, free_end = PAGE_SIZE
        buf[2..4].copy_from_slice(&(PAGE_SIZE as u16).to_le_bytes());
        SlottedPage { buf }
    }

    /// Interpret an existing 4 KiB buffer as a slotted page.
    pub fn from_bytes(buf: Vec<u8>) -> Result<Self> {
        if buf.len() != PAGE_SIZE {
            return Err(DbError::Corrupted {
                message: format!("page buffer has {} bytes, expected {PAGE_SIZE}", buf.len()),
            });
        }
        Ok(SlottedPage { buf })
    }

    /// The raw page bytes (for writing back to storage).
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Consume the page, returning the raw buffer.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    fn slot_count(&self) -> u16 {
        u16::from_le_bytes(self.buf[0..2].try_into().expect("2 bytes"))
    }

    fn set_slot_count(&mut self, v: u16) {
        self.buf[0..2].copy_from_slice(&v.to_le_bytes());
    }

    fn free_end(&self) -> u16 {
        u16::from_le_bytes(self.buf[2..4].try_into().expect("2 bytes"))
    }

    fn set_free_end(&mut self, v: u16) {
        self.buf[2..4].copy_from_slice(&v.to_le_bytes());
    }

    fn slot(&self, idx: u16) -> (u16, u16) {
        let base = HEADER_LEN + idx as usize * SLOT_LEN;
        let off = u16::from_le_bytes(self.buf[base..base + 2].try_into().expect("2 bytes"));
        let len = u16::from_le_bytes(self.buf[base + 2..base + 4].try_into().expect("2 bytes"));
        (off, len)
    }

    fn set_slot(&mut self, idx: u16, off: u16, len: u16) {
        let base = HEADER_LEN + idx as usize * SLOT_LEN;
        self.buf[base..base + 2].copy_from_slice(&off.to_le_bytes());
        self.buf[base + 2..base + 4].copy_from_slice(&len.to_le_bytes());
    }

    /// Number of live (non-deleted) records on the page.
    pub fn live_records(&self) -> usize {
        (0..self.slot_count()).filter(|i| self.slot(*i).0 != 0).count()
    }

    /// Number of slots (live or dead).
    pub fn slots(&self) -> u16 {
        self.slot_count()
    }

    /// Contiguous free space available for a new record (including its slot).
    pub fn free_space(&self) -> usize {
        let dir_end = HEADER_LEN + self.slot_count() as usize * SLOT_LEN;
        (self.free_end() as usize).saturating_sub(dir_end)
    }

    /// True if a record of `len` bytes fits.
    pub fn fits(&self, len: usize) -> bool {
        self.free_space() >= len + SLOT_LEN
    }

    /// Insert a record, returning its slot number, or `None` if it does not
    /// fit.
    pub fn insert(&mut self, record: &[u8]) -> Option<u16> {
        if record.is_empty() || record.len() > u16::MAX as usize || !self.fits(record.len()) {
            return None;
        }
        let slot = self.slot_count();
        let new_end = self.free_end() as usize - record.len();
        self.buf[new_end..new_end + record.len()].copy_from_slice(record);
        self.set_free_end(new_end as u16);
        self.set_slot_count(slot + 1);
        self.set_slot(slot, new_end as u16, record.len() as u16);
        Some(slot)
    }

    /// Read the record in `slot`.
    pub fn get(&self, slot: u16) -> Result<&[u8]> {
        Self::record_in(&self.buf, slot)
    }

    /// Read the record in `slot` of a serialized page where it lies —
    /// what a reader borrowing a buffer-pool frame uses instead of
    /// copying the page into a [`SlottedPage`] first.
    pub fn record_in(buf: &[u8], slot: u16) -> Result<&[u8]> {
        if buf.len() != PAGE_SIZE {
            return Err(DbError::Corrupted {
                message: format!("page buffer has {} bytes, expected {PAGE_SIZE}", buf.len()),
            });
        }
        let slot_count = u16::from_le_bytes(buf[0..2].try_into().expect("2 bytes"));
        if slot >= slot_count {
            return Err(DbError::InvalidRid { message: format!("slot {slot} out of range") });
        }
        let base = HEADER_LEN + slot as usize * SLOT_LEN;
        let entry = buf.get(base..base + SLOT_LEN).ok_or_else(|| DbError::Corrupted {
            message: format!("slot {slot} lies beyond the page"),
        })?;
        let off = u16::from_le_bytes(entry[0..2].try_into().expect("2 bytes")) as usize;
        let len = u16::from_le_bytes(entry[2..4].try_into().expect("2 bytes")) as usize;
        if off == 0 {
            return Err(DbError::InvalidRid { message: format!("slot {slot} is deleted") });
        }
        buf.get(off..off + len).ok_or_else(|| DbError::Corrupted {
            message: format!("record of slot {slot} lies beyond the page"),
        })
    }

    /// Overwrite the record in `slot` in place.  The new record must not be
    /// larger than the existing one (fixed-layout records never are).
    pub fn update(&mut self, slot: u16, record: &[u8]) -> Result<()> {
        if slot >= self.slot_count() {
            return Err(DbError::InvalidRid { message: format!("slot {slot} out of range") });
        }
        let (off, len) = self.slot(slot);
        if off == 0 {
            return Err(DbError::InvalidRid { message: format!("slot {slot} is deleted") });
        }
        if record.len() > len as usize {
            return Err(DbError::TooLarge {
                message: format!("update of {} bytes into a {len}-byte record", record.len()),
            });
        }
        self.buf[off as usize..off as usize + record.len()].copy_from_slice(record);
        if record.len() < len as usize {
            self.set_slot(slot, off, record.len() as u16);
        }
        Ok(())
    }

    /// Delete the record in `slot` (tombstone; space is not compacted).
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

    /// Iterate over `(slot, record)` pairs of live records.
    pub fn iter(&self) -> impl Iterator<Item = (u16, &[u8])> {
        (0..self.slot_count()).filter_map(move |i| {
            let (off, len) = self.slot(i);
            if off == 0 {
                None
            } else {
                Some((i, &self.buf[off as usize..off as usize + len as usize]))
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_page_properties() {
        let p = SlottedPage::new();
        assert_eq!(p.live_records(), 0);
        assert_eq!(p.slots(), 0);
        assert_eq!(p.free_space(), PAGE_SIZE - HEADER_LEN);
        assert!(p.fits(100));
        assert_eq!(p.as_bytes().len(), PAGE_SIZE);
    }

    #[test]
    fn insert_get_update_delete() {
        let mut p = SlottedPage::new();
        let s0 = p.insert(b"hello").unwrap();
        let s1 = p.insert(b"world!").unwrap();
        assert_eq!(p.get(s0).unwrap(), b"hello");
        assert_eq!(p.get(s1).unwrap(), b"world!");
        assert_eq!(p.live_records(), 2);
        p.update(s0, b"HELLO").unwrap();
        assert_eq!(p.get(s0).unwrap(), b"HELLO");
        // Shrinking updates adjust the visible length.
        p.update(s1, b"hi").unwrap();
        assert_eq!(p.get(s1).unwrap(), b"hi");
        // Growing updates are rejected.
        assert!(matches!(p.update(s1, b"too long now"), Err(DbError::TooLarge { .. })));
        p.delete(s0).unwrap();
        assert!(p.get(s0).is_err());
        assert!(p.delete(s0).is_err());
        assert_eq!(p.live_records(), 1);
        let collected: Vec<_> = p.iter().map(|(s, r)| (s, r.to_vec())).collect();
        assert_eq!(collected, vec![(s1, b"hi".to_vec())]);
    }

    #[test]
    fn page_fills_up_and_rejects_overflow() {
        let mut p = SlottedPage::new();
        let rec = vec![7u8; 100];
        let mut inserted = 0;
        while p.insert(&rec).is_some() {
            inserted += 1;
        }
        // 4 KiB / (100 + 4 slot bytes) ≈ 39 records.
        assert!((35..=40).contains(&inserted), "inserted {inserted}");
        assert!(!p.fits(100));
        // Records survive a serialization roundtrip.
        let restored = SlottedPage::from_bytes(p.as_bytes().to_vec()).unwrap();
        assert_eq!(restored.live_records(), inserted);
        assert_eq!(restored.get(0).unwrap(), &rec[..]);
    }

    #[test]
    fn invalid_inputs() {
        let mut p = SlottedPage::new();
        assert!(p.insert(&[]).is_none());
        assert!(p.insert(&vec![0u8; PAGE_SIZE]).is_none());
        assert!(p.get(0).is_err());
        assert!(p.update(3, b"x").is_err());
        assert!(p.delete(3).is_err());
        assert!(SlottedPage::from_bytes(vec![0u8; 100]).is_err());
    }

    proptest! {
        /// Inserted records always read back verbatim, regardless of order
        /// and interleaved deletes — from the owned page and, borrowed,
        /// from its serialized image; deleted and out-of-range slots are
        /// refused by both.
        #[test]
        fn insert_read_consistency(
            records in prop::collection::vec(prop::collection::vec(any::<u8>(), 1..200), 1..30),
            deleted in prop::collection::vec(any::<bool>(), 30..31),
        ) {
            let mut p = SlottedPage::new();
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
            let image = p.as_bytes();
            for (slot, expected) in &stored {
                if deleted[*slot as usize] {
                    prop_assert!(matches!(p.get(*slot), Err(DbError::InvalidRid { .. })));
                    prop_assert!(matches!(
                        SlottedPage::record_in(image, *slot),
                        Err(DbError::InvalidRid { .. })
                    ));
                } else {
                    prop_assert_eq!(p.get(*slot).unwrap(), &expected[..]);
                    prop_assert_eq!(SlottedPage::record_in(image, *slot).unwrap(), &expected[..]);
                }
            }
            let live = stored.iter().filter(|(slot, _)| !deleted[*slot as usize]).count();
            prop_assert_eq!(p.live_records(), live);
            for beyond in [p.slots(), p.slots() + 1, u16::MAX] {
                prop_assert!(matches!(
                    SlottedPage::record_in(image, beyond),
                    Err(DbError::InvalidRid { .. })
                ));
            }
            prop_assert!(matches!(
                SlottedPage::record_in(&image[..PAGE_SIZE - 1], 0),
                Err(DbError::Corrupted { .. })
            ));
        }
    }

    #[test]
    fn record_in_refuses_slots_that_point_outside_the_page() {
        let mut p = SlottedPage::new();
        let slot = p.insert(b"abc").unwrap();
        let mut image = p.into_bytes();
        // Record end past the page.
        image[HEADER_LEN + 2..HEADER_LEN + 4].copy_from_slice(&u16::MAX.to_le_bytes());
        assert!(matches!(SlottedPage::record_in(&image, slot), Err(DbError::Corrupted { .. })));
        // A slot count whose directory runs off the page.
        image[0..2].copy_from_slice(&u16::MAX.to_le_bytes());
        assert!(matches!(SlottedPage::record_in(&image, 2_000), Err(DbError::Corrupted { .. })));
    }
}

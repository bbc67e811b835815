//! Heap files: unordered collections of records in slotted pages.

use flash_sim::SimTime;

use crate::buffer::BufferPool;
use crate::error::DbError;
use crate::page::SlottedPage;
use crate::storage::ObjectId;
use crate::Result;
use crate::PAGE_SIZE;

/// Physical address of a record: page number within the heap plus slot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RecordId {
    /// Logical page number within the heap object.
    pub page: u64,
    /// Slot within the page.
    pub slot: u16,
}

impl RecordId {
    /// Construct a record id.
    pub fn new(page: u64, slot: u16) -> Self {
        RecordId { page, slot }
    }

    /// Pack into 10 bytes (used as B+-tree payload).
    pub fn encode(&self) -> [u8; 10] {
        let mut out = [0u8; 10];
        out[..8].copy_from_slice(&self.page.to_le_bytes());
        out[8..].copy_from_slice(&self.slot.to_le_bytes());
        out
    }

    /// Inverse of [`RecordId::encode`]; `None` if the buffer is too short.
    pub fn decode(buf: &[u8]) -> Option<Self> {
        let page = u64::from_le_bytes(buf.get(..8)?.try_into().ok()?);
        Some(RecordId { page, slot: u16::from_le_bytes(buf.get(8..10)?.try_into().ok()?) })
    }
}

/// A heap file storing fixed-schema records in slotted pages.
///
/// Deleted record space is reclaimed when new inserts land on the same
/// page, but pages are never returned to the storage manager; for the
/// bounded benchmark runs in this repository that is sufficient (and it is
/// what Shore-MT's heap does within a run, too).
#[derive(Debug)]
pub struct HeapFile {
    obj: ObjectId,
    /// Number of pages allocated so far.
    page_count: u64,
    /// The page currently being filled by inserts.
    fill_page: Option<u64>,
    /// Live record estimate.
    records: u64,
}

impl HeapFile {
    /// Create an empty heap over storage object `obj`.
    pub fn new(obj: ObjectId) -> Self {
        HeapFile { obj, page_count: 0, fill_page: None, records: 0 }
    }

    /// The storage object backing this heap.
    pub fn object_id(&self) -> ObjectId {
        self.obj
    }

    /// Re-attach to a heap that survived a crash: `extent` is the object's
    /// logical extent on storage (from the backend).  Pages that never
    /// became durable (they belonged only to uncommitted transactions) are
    /// tolerated as empty.  Returns the heap and the time at which the
    /// record-count scan finished.
    pub fn attach(
        obj: ObjectId,
        pool: &mut BufferPool,
        extent: u64,
        now: SimTime,
    ) -> Result<(HeapFile, SimTime)> {
        let mut records = 0u64;
        let mut t = now;
        for page_no in 0..extent {
            let Ok((live, t_read)) = pool.with_page(obj, page_no, t, |frame| {
                SlottedPage::new(frame).map_or(0, |page| page.iter().count() as u64)
            }) else {
                continue;
            };
            t = t_read;
            records += live;
        }
        Ok((HeapFile { obj, page_count: extent, fill_page: extent.checked_sub(1), records }, t))
    }

    /// Number of pages allocated.
    pub fn page_count(&self) -> u64 {
        self.page_count
    }

    /// Approximate number of live records.
    pub fn record_count(&self) -> u64 {
        self.records
    }

    /// Insert a record, returning its id.
    pub fn insert(
        &mut self,
        pool: &mut BufferPool,
        record: &[u8],
        now: SimTime,
    ) -> Result<(RecordId, SimTime)> {
        let mut t = now;
        // Try the current fill page first; a record that does not fit
        // leaves it as it was.
        if let Some(page_no) = self.fill_page {
            let (slot, t_read) = self.edit(pool, page_no, t, |page| {
                let slot = page.insert(record);
                Ok((slot, slot.is_some()))
            })?;
            t = t_read;
            if let Some(slot) = slot {
                self.records += 1;
                return Ok((RecordId::new(page_no, slot), t));
            }
        }
        // Allocate a fresh page.
        let page_no = self.page_count;
        self.page_count += 1;
        self.fill_page = Some(page_no);
        let mut frame = [0u8; PAGE_SIZE];
        let slot =
            SlottedPage::init(&mut frame[..])?.insert(record).ok_or_else(|| DbError::TooLarge {
                message: format!("record of {} bytes does not fit in an empty page", record.len()),
            })?;
        let t_write = pool.write_page(self.obj, page_no, &frame, t)?;
        self.records += 1;
        Ok((RecordId::new(page_no, slot), t_write))
    }

    /// Lend the record at `rid` to `f` where the buffer pool holds it.
    pub fn read<R>(
        &self,
        pool: &mut BufferPool,
        rid: RecordId,
        now: SimTime,
        f: impl FnOnce(&[u8]) -> R,
    ) -> Result<(R, SimTime)> {
        let (record, t) = pool.with_page(self.obj, rid.page, now, |frame| {
            SlottedPage::new(frame)?.get(rid.slot).map(f)
        })?;
        Ok((record?, t))
    }

    /// Overwrite the record at `rid` in place.
    pub fn update(
        &self,
        pool: &mut BufferPool,
        rid: RecordId,
        record: &[u8],
        now: SimTime,
    ) -> Result<SimTime> {
        let ((), t) =
            self.edit(pool, rid.page, now, |page| Ok((page.update(rid.slot, record)?, true)))?;
        Ok(t)
    }

    /// Delete the record at `rid`.
    pub fn delete(
        &mut self,
        pool: &mut BufferPool,
        rid: RecordId,
        now: SimTime,
    ) -> Result<SimTime> {
        let ((), t) = self.edit(pool, rid.page, now, |page| Ok((page.delete(rid.slot)?, true)))?;
        self.records = self.records.saturating_sub(1);
        Ok(t)
    }

    /// Edit page `page_no` where the buffer pool holds it.  `f` returns
    /// its result and whether it wrote; an `f` that fails must leave the
    /// page untouched (the [`SlottedPage`] mutators do), and the frame
    /// then stays clean.
    pub(crate) fn edit<R>(
        &self,
        pool: &mut BufferPool,
        page_no: u64,
        now: SimTime,
        f: impl FnOnce(&mut SlottedPage<&mut [u8]>) -> Result<(R, bool)>,
    ) -> Result<(R, SimTime)> {
        let (edited, t) = pool.with_page_mut(self.obj, page_no, now, |frame| {
            let edited = SlottedPage::new(frame).and_then(|mut page| f(&mut page));
            let wrote = matches!(edited, Ok((_, true)));
            (edited.map(|(result, _)| result), wrote)
        })?;
        Ok((edited?, t))
    }

    /// Scan the whole heap, invoking `f(rid, record_bytes)` for every live
    /// record.  Returns the time at which the scan completes.
    pub fn scan<F: FnMut(RecordId, &[u8])>(
        &self,
        pool: &mut BufferPool,
        now: SimTime,
        mut f: F,
    ) -> Result<SimTime> {
        let mut t = now;
        for page_no in 0..self.page_count {
            let (scanned, t_read) = pool.with_page(self.obj, page_no, t, |frame| {
                for (slot, rec) in SlottedPage::new(frame)?.iter() {
                    f(RecordId::new(page_no, slot), rec);
                }
                Ok::<_, DbError>(())
            })?;
            scanned?;
            t = t_read;
        }
        Ok(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::{NoFtlBackend, StorageBackend};
    use flash_sim::{DeviceBuilder, FlashGeometry, TimingModel};
    use noftl_core::{NoFtl, NoFtlConfig, PlacementConfig};
    use std::sync::Arc;

    fn setup() -> (Arc<NoFtlBackend>, BufferPool, HeapFile) {
        let device = Arc::new(
            DeviceBuilder::new(FlashGeometry::example()).timing(TimingModel::instant()).build(),
        );
        let noftl = Arc::new(NoFtl::new(device, NoFtlConfig::default()));
        let placement = PlacementConfig::traditional(8, ["heap".to_string()]);
        let backend = Arc::new(NoFtlBackend::new(noftl, &placement).unwrap());
        let obj = backend.create_object("heap").unwrap();
        let pool = BufferPool::new(backend.clone(), 32);
        (backend, pool, HeapFile::new(obj))
    }

    #[test]
    fn rid_encoding_roundtrip() {
        let rid = RecordId::new(123456, 42);
        assert_eq!(RecordId::decode(&rid.encode()), Some(rid));
        assert_eq!(RecordId::decode(&[0u8; 3]), None);
    }

    #[test]
    fn insert_get_update_delete() {
        let (_, mut pool, mut heap) = setup();
        let t = SimTime::ZERO;
        let (rid, t) = heap.insert(&mut pool, b"record-one", t).unwrap();
        let (data, t) = heap.read(&mut pool, rid, t, <[u8]>::to_vec).unwrap();
        assert_eq!(data, b"record-one");
        let t = heap.update(&mut pool, rid, b"record-two", t).unwrap();
        let (data, t) = heap.read(&mut pool, rid, t, <[u8]>::to_vec).unwrap();
        assert_eq!(data, b"record-two");
        // An edit where the record lies, and a read that lends it.
        let ((), t) = heap
            .edit(&mut pool, rid.page, t, |page| {
                page.get_mut(rid.slot)?[..6].copy_from_slice(b"RECORD");
                Ok(((), true))
            })
            .unwrap();
        let (data, t) = heap.read(&mut pool, rid, t, |rec| rec == b"RECORD-two").unwrap();
        assert!(data);
        assert_eq!(heap.record_count(), 1);
        heap.delete(&mut pool, rid, t).unwrap();
        assert!(heap.read(&mut pool, rid, t, <[u8]>::to_vec).is_err());
        assert_eq!(heap.record_count(), 0);
    }

    #[test]
    fn inserts_spill_to_new_pages() {
        let (_, mut pool, mut heap) = setup();
        let record = vec![9u8; 500];
        let mut t = SimTime::ZERO;
        let mut rids = Vec::new();
        for _ in 0..50 {
            let (rid, t2) = heap.insert(&mut pool, &record, t).unwrap();
            rids.push(rid);
            t = t2;
        }
        // 4 KiB pages hold ~8 records of 500 bytes → several pages needed.
        assert!(heap.page_count() >= 6, "page_count = {}", heap.page_count());
        assert_eq!(heap.record_count(), 50);
        for rid in rids {
            assert_eq!(heap.read(&mut pool, rid, t, <[u8]>::to_vec).unwrap().0, record);
        }
    }

    #[test]
    fn oversized_record_is_rejected() {
        let (_, mut pool, mut heap) = setup();
        let record = vec![0u8; crate::PAGE_SIZE];
        assert!(matches!(
            heap.insert(&mut pool, &record, SimTime::ZERO),
            Err(DbError::TooLarge { .. })
        ));
    }

    #[test]
    fn scan_visits_all_live_records() {
        let (_, mut pool, mut heap) = setup();
        let mut t = SimTime::ZERO;
        let mut expected = Vec::new();
        for i in 0..30u8 {
            let rec = vec![i; 200];
            let (rid, t2) = heap.insert(&mut pool, &rec, t).unwrap();
            t = t2;
            expected.push((rid, rec));
        }
        // Delete a few.
        heap.delete(&mut pool, expected[3].0, t).unwrap();
        heap.delete(&mut pool, expected[17].0, t).unwrap();
        expected.remove(17);
        expected.remove(3);
        let mut seen = Vec::new();
        heap.scan(&mut pool, t, |rid, rec| seen.push((rid, rec.to_vec()))).unwrap();
        seen.sort();
        let mut expected_sorted = expected.clone();
        expected_sorted.sort();
        assert_eq!(seen, expected_sorted);
    }

    #[test]
    fn data_survives_pool_eviction_pressure() {
        let device = Arc::new(
            DeviceBuilder::new(FlashGeometry::example()).timing(TimingModel::instant()).build(),
        );
        let noftl = Arc::new(NoFtl::new(device, NoFtlConfig::default()));
        let placement = PlacementConfig::traditional(8, ["heap".to_string()]);
        let backend = Arc::new(NoFtlBackend::new(noftl, &placement).unwrap());
        let obj = backend.create_object("heap").unwrap();
        // Tiny pool: constant evictions.
        let mut pool = BufferPool::new(backend.clone(), 4);
        let mut heap = HeapFile::new(obj);
        let mut t = SimTime::ZERO;
        let mut rids = Vec::new();
        for i in 0..40u8 {
            let (rid, t2) = heap.insert(&mut pool, &vec![i; 900], t).unwrap();
            rids.push((rid, i));
            t = t2;
        }
        for (rid, i) in rids {
            let (data, _) = heap.read(&mut pool, rid, t, <[u8]>::to_vec).unwrap();
            assert_eq!(data, vec![i; 900]);
        }
        assert!(pool.stats().evictions > 0);
    }
}

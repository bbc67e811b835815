//! The write-ahead log: ARIES-lite redo logging.
//!
//! Every record carries a monotonically increasing **LSN** and a CRC, and
//! the log stream is chunked into self-validating pages, so after a crash
//! the intact prefix of the log can be recovered and the torn tail
//! discarded.  Only transactions that wrote reach the log: a read-only
//! commit (or rollback) has nothing to redo, so [`crate::Database`]
//! appends no record and forces nothing for it.  Two kinds of payload
//! flow through the log:
//!
//! * **Note** records — the small logical operation records the space-
//!   management experiments measure (one per DML statement, as before);
//! * **PageImage** records — full after-images of the pages a transaction
//!   dirtied, appended at commit time.  The redo pass of
//!   [`crate::Database::recover`] replays the images of *committed*
//!   transactions in LSN order; because an after-image overwrite is
//!   idempotent, redo is safe to repeat.
//!
//! The log is just another storage object, so under NoFTL it lives in
//! whatever region the placement configuration assigns (the paper's
//! Figure 2 puts it in a small dedicated region).  A segment-size guard
//! bounds the log: once the current segment exceeds the configured page
//! budget, the database takes a checkpoint and calls [`Wal::truncate`],
//! which frees the old segment's pages and restarts the stream at a fresh
//! page boundary.

use std::sync::OnceLock;

use parking_lot::Mutex;

use flash_sim::{crc32, SimTime};
use noftl_obs::{Histogram, Unit};

use crate::storage::{ObjectId, StorageBackend};
use crate::Result;
use crate::PAGE_SIZE;

/// Log sequence number: position of a record in the logical log stream.
pub type Lsn = u64;

/// Magic number of a WAL page ("WALP").
const PAGE_MAGIC: u32 = 0x5741_4C50;

/// Page header: magic:4 | page_no:8 | used:4 | crc:4 | reserved:4.
const PAGE_HEADER: usize = 24;

/// Log payload bytes per page.
const PAGE_CAP: usize = PAGE_SIZE - PAGE_HEADER;

/// A typed log record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalRecord {
    /// A small logical operation record (kept for I/O-behaviour parity
    /// with the paper experiments; not replayed).
    Note {
        /// Transaction id.
        txn: u64,
        /// Free-form description, e.g. `INSERT customer 3:12`.
        text: String,
    },
    /// Full after-image of one page dirtied by a transaction.
    PageImage {
        /// Transaction id.
        txn: u64,
        /// Storage object the page belongs to.
        obj: ObjectId,
        /// Logical page number.
        page: u64,
        /// The page contents after the transaction's writes.
        image: Vec<u8>,
    },
    /// The transaction committed; its images must be redone.
    Commit {
        /// Transaction id.
        txn: u64,
    },
    /// The transaction rolled back; its records are ignored by redo.
    Rollback {
        /// Transaction id.
        txn: u64,
    },
    /// A checkpoint completed; everything before this point is durable in
    /// the data pages themselves.
    Checkpoint,
}

impl WalRecord {
    /// The record's compact textual form, used by the *volatile* log mode
    /// (no recovery) to reproduce the original engine's log byte stream,
    /// whose I/O footprint the paper's experiments measure.
    fn legacy_text(&self) -> String {
        match self {
            WalRecord::Note { text, .. } => text.clone(),
            WalRecord::PageImage { obj, page, .. } => format!("IMG {obj} {page}"),
            WalRecord::Commit { txn } => format!("COMMIT {txn}"),
            WalRecord::Rollback { txn } => format!("ROLLBACK {txn}"),
            WalRecord::Checkpoint => "CHECKPOINT".to_string(),
        }
    }

    fn encode_body(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(32);
        match self {
            WalRecord::Note { txn, text } => {
                out.push(1);
                out.extend_from_slice(&txn.to_le_bytes());
                out.extend_from_slice(&(text.len() as u32).to_le_bytes());
                out.extend_from_slice(text.as_bytes());
            }
            WalRecord::PageImage { txn, obj, page, image } => {
                out.push(2);
                out.extend_from_slice(&txn.to_le_bytes());
                out.extend_from_slice(&obj.to_le_bytes());
                out.extend_from_slice(&page.to_le_bytes());
                out.extend_from_slice(&(image.len() as u32).to_le_bytes());
                out.extend_from_slice(image);
            }
            WalRecord::Commit { txn } => {
                out.push(3);
                out.extend_from_slice(&txn.to_le_bytes());
            }
            WalRecord::Rollback { txn } => {
                out.push(4);
                out.extend_from_slice(&txn.to_le_bytes());
            }
            WalRecord::Checkpoint => out.push(5),
        }
        out
    }

    fn decode_body(body: &[u8]) -> Option<WalRecord> {
        let (&tag, rest) = body.split_first()?;
        let u64_at = |b: &[u8], o: usize| -> Option<u64> {
            Some(u64::from_le_bytes(b.get(o..o + 8)?.try_into().ok()?))
        };
        let u32_at = |b: &[u8], o: usize| -> Option<u32> {
            Some(u32::from_le_bytes(b.get(o..o + 4)?.try_into().ok()?))
        };
        match tag {
            1 => {
                let txn = u64_at(rest, 0)?;
                let len = u32_at(rest, 8)? as usize;
                let text = String::from_utf8(rest.get(12..12 + len)?.to_vec()).ok()?;
                Some(WalRecord::Note { txn, text })
            }
            2 => {
                let txn = u64_at(rest, 0)?;
                let obj = u32_at(rest, 8)?;
                let page = u64_at(rest, 12)?;
                let len = u32_at(rest, 20)? as usize;
                let image = rest.get(24..24 + len)?.to_vec();
                Some(WalRecord::PageImage { txn, obj, page, image })
            }
            3 => Some(WalRecord::Commit { txn: u64_at(rest, 0)? }),
            4 => Some(WalRecord::Rollback { txn: u64_at(rest, 0)? }),
            5 => Some(WalRecord::Checkpoint),
            _ => None,
        }
    }
}

struct WalInner {
    /// LSN handed to the next appended record.
    next_lsn: Lsn,
    /// Page number the partial payload below will be written to.
    cur_page: u64,
    /// Payload of the current (partial) page; always shorter than
    /// `PAGE_CAP`.
    cur_payload: Vec<u8>,
    /// Completed pages not yet forced to storage.
    pending: Vec<(u64, Vec<u8>)>,
    /// First page of the current segment (everything before it has been
    /// freed by truncation).
    segment_start: u64,
    records: u64,
    forces: u64,
    appended_bytes: u64,
    truncations: u64,
    /// Pages freed by truncation over the log's lifetime (feeds the
    /// cumulative `pages` statistic now that page numbers are reused).
    pages_retired: u64,
}

/// Statistics of the log.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalStats {
    /// Log records appended.
    pub records: u64,
    /// Log forces: one per commit of a transaction that wrote, one per
    /// checkpoint — none for read-only commits.
    pub forces: u64,
    /// Bytes appended (record payloads, before framing).
    pub appended_bytes: u64,
    /// Current log length in pages (including truncated segments).
    pub pages: u64,
    /// Pages in the current segment (reset by truncation).
    pub segment_pages: u64,
    /// Completed truncations.
    pub truncations: u64,
    /// LSN the next record will receive.
    pub next_lsn: Lsn,
}

/// An append-only, force-at-commit, CRC-framed redo log.
pub struct Wal {
    obj: ObjectId,
    /// Whether completed (spilled) pages are written out by `force`.
    /// `true` is required for recovery; `false` reproduces the original
    /// engine's I/O behaviour — exactly one page write per force, with
    /// the current page as a rolling commit marker — which the paper's
    /// space-management experiments measure.
    durable_spill: bool,
    inner: Mutex<WalInner>,
    /// `dbms.wal.force_ns` handle, bound lazily on the first force (the
    /// registry lives behind the backend, which `new` does not see).
    force_hist: OnceLock<Histogram>,
}

impl Wal {
    /// Create a log writing to storage object `obj`.
    pub fn new(obj: ObjectId) -> Self {
        Wal {
            obj,
            durable_spill: true,
            force_hist: OnceLock::new(),
            inner: Mutex::new(WalInner {
                next_lsn: 1,
                cur_page: 0,
                cur_payload: Vec::with_capacity(PAGE_CAP),
                pending: Vec::new(),
                segment_start: 0,
                records: 0,
                forces: 0,
                appended_bytes: 0,
                truncations: 0,
                pages_retired: 0,
            }),
        }
    }

    /// Configure whether spilled pages are made durable (see the field
    /// docs; disable only when the log is pure I/O ballast).
    pub fn with_durable_spill(mut self, durable: bool) -> Self {
        self.durable_spill = durable;
        self
    }

    /// The storage object backing the log.
    pub fn object_id(&self) -> ObjectId {
        self.obj
    }

    /// Append a typed record (buffered; not durable until [`Wal::force`]).
    /// Returns the record's LSN.
    pub fn append(&self, record: &WalRecord) -> Lsn {
        let mut inner = self.inner.lock();
        let lsn = inner.next_lsn;
        inner.next_lsn += 1;
        inner.records += 1;
        let framed = if self.durable_spill {
            // Frame: len:4 | crc:4 | lsn:8 | body.  `len` counts lsn + body.
            let body = record.encode_body();
            inner.appended_bytes += body.len() as u64;
            let mut framed = Vec::with_capacity(16 + body.len());
            framed.extend_from_slice(&((8 + body.len()) as u32).to_le_bytes());
            let mut checked = Vec::with_capacity(8 + body.len());
            checked.extend_from_slice(&lsn.to_le_bytes());
            checked.extend_from_slice(&body);
            framed.extend_from_slice(&crc32(&checked).to_le_bytes());
            framed.extend_from_slice(&checked);
            framed
        } else {
            // Volatile log: the original engine's compact length-prefixed
            // text records (pure I/O ballast; never scanned back).
            let text = record.legacy_text();
            inner.appended_bytes += text.len() as u64;
            let mut framed = Vec::with_capacity(4 + text.len());
            framed.extend_from_slice(&(text.len() as u32).to_le_bytes());
            framed.extend_from_slice(text.as_bytes());
            framed
        };
        // Stream the frame into pages, spilling as they fill up.
        let mut rest = framed.as_slice();
        while !rest.is_empty() {
            let room = PAGE_CAP - inner.cur_payload.len();
            let take = room.min(rest.len());
            inner.cur_payload.extend_from_slice(&rest[..take]);
            rest = &rest[take..];
            if inner.cur_payload.len() == PAGE_CAP {
                let page_no = inner.cur_page;
                let full = std::mem::replace(&mut inner.cur_payload, Vec::with_capacity(PAGE_CAP));
                inner.pending.push((page_no, full));
                inner.cur_page += 1;
            }
        }
        lsn
    }

    /// Convenience wrapper appending a [`WalRecord::Note`].
    pub fn append_note(&self, txn: u64, text: impl Into<String>) -> Lsn {
        self.append(&WalRecord::Note { txn, text: text.into() })
    }

    fn seal(page_no: u64, payload: &[u8]) -> Vec<u8> {
        debug_assert!(payload.len() <= PAGE_CAP);
        let mut page = vec![0u8; PAGE_SIZE];
        page[0..4].copy_from_slice(&PAGE_MAGIC.to_le_bytes());
        page[4..12].copy_from_slice(&page_no.to_le_bytes());
        page[12..16].copy_from_slice(&(payload.len() as u32).to_le_bytes());
        page[16..20].copy_from_slice(&crc32(payload).to_le_bytes());
        page[PAGE_HEADER..PAGE_HEADER + payload.len()].copy_from_slice(payload);
        page
    }

    fn unseal(page_no: u64, page: &[u8]) -> Option<Vec<u8>> {
        if page.len() < PAGE_HEADER {
            return None;
        }
        if u32::from_le_bytes(page[0..4].try_into().ok()?) != PAGE_MAGIC {
            return None;
        }
        if u64::from_le_bytes(page[4..12].try_into().ok()?) != page_no {
            return None;
        }
        let used = u32::from_le_bytes(page[12..16].try_into().ok()?) as usize;
        if PAGE_HEADER + used > page.len() {
            return None;
        }
        let payload = &page[PAGE_HEADER..PAGE_HEADER + used];
        if crc32(payload) != u32::from_le_bytes(page[16..20].try_into().ok()?) {
            return None;
        }
        Some(payload.to_vec())
    }

    /// Force every unforced log page to storage (the durability point of
    /// a writing transaction's commit, and of a checkpoint).  The pages are submitted as one queued batch issued at `now`, so a
    /// multi-page force overlaps across the log region's dies; the
    /// returned time — the part of a commit the transaction must wait
    /// for — is the completion of the slowest page.
    pub fn force(&self, backend: &dyn StorageBackend, now: SimTime) -> Result<SimTime> {
        let mut inner = self.inner.lock();
        inner.forces += 1;
        let pending = std::mem::take(&mut inner.pending);
        let mut batch: Vec<(crate::storage::ObjectId, u64, Vec<u8>)> =
            Vec::with_capacity(pending.len() + 1);
        if self.durable_spill {
            for (page_no, payload) in &pending {
                batch.push((self.obj, *page_no, Self::seal(*page_no, payload)));
            }
        }
        batch.push((self.obj, inner.cur_page, Self::seal(inner.cur_page, &inner.cur_payload)));
        let done = backend.write_batch(&batch, now)?;
        if let Some(registry) = backend.metrics() {
            let hist = self
                .force_hist
                .get_or_init(|| registry.histogram("dbms.wal.force_ns", Unit::SimNanos));
            hist.record(done.since(now).as_nanos());
            // Track 101: WAL spans (see the core obs module's track map).
            registry.tracer().span(
                "dbms.wal",
                "force",
                101,
                now.as_nanos(),
                done.as_nanos(),
                &[("pages", batch.len() as u64)],
            );
        }
        Ok(done)
    }

    /// Pages in the current segment.
    pub fn segment_pages(&self) -> u64 {
        let inner = self.inner.lock();
        inner.cur_page - inner.segment_start + 1
    }

    /// True once the current segment exceeds `limit` pages — the signal
    /// for the database to checkpoint and truncate.
    pub fn needs_truncation(&self, limit: u64) -> bool {
        self.segment_pages() > limit.max(1)
    }

    /// Drop the current segment after a checkpoint made it redundant: its
    /// pages are freed and the stream restarts at page 0, reusing the
    /// logical page space (out-of-place updates make the rewrite safe and
    /// the freed translations keep the log object's extent — and the
    /// storage manager's per-page map — bounded by the segment budget).
    /// The caller must have forced the log (and made all logged state
    /// durable elsewhere) first.  Returns the number of pages freed.
    pub fn truncate(&self, backend: &dyn StorageBackend) -> Result<u64> {
        let mut inner = self.inner.lock();
        // Anything still buffered belongs to the pre-checkpoint world the
        // caller just made durable; it is dropped with the segment.
        inner.pending.clear();
        inner.cur_payload.clear();
        let mut freed = 0u64;
        for page_no in inner.segment_start..=inner.cur_page {
            backend.free_page(self.obj, page_no)?;
            freed += 1;
        }
        inner.pages_retired += inner.cur_page - inner.segment_start + 1;
        inner.segment_start = 0;
        inner.cur_page = 0;
        inner.truncations += 1;
        if let Some(registry) = backend.metrics() {
            registry.counter("dbms.wal.truncations").inc();
        }
        Ok(freed)
    }

    /// Current statistics.
    pub fn stats(&self) -> WalStats {
        let inner = self.inner.lock();
        WalStats {
            records: inner.records,
            forces: inner.forces,
            appended_bytes: inner.appended_bytes,
            pages: inner.pages_retired + inner.cur_page + 1,
            segment_pages: inner.cur_page - inner.segment_start + 1,
            truncations: inner.truncations,
            next_lsn: inner.next_lsn,
        }
    }

    /// Scan a log object on storage and return the intact record prefix in
    /// LSN order.  Unreadable or corrupt pages end the scan (the torn
    /// tail); freed pages before the surviving segment are skipped.
    pub fn scan(
        backend: &dyn StorageBackend,
        obj: ObjectId,
        at: SimTime,
    ) -> Result<(Vec<(Lsn, WalRecord)>, SimTime)> {
        let extent = backend.object_extent(obj)?;
        let mut now = at;
        // Find the surviving segment: the first readable, valid page.
        let mut stream = Vec::new();
        let mut in_run = false;
        for page_no in 0..extent {
            let payload = match backend.read_page(obj, page_no, at) {
                Ok((bytes, t)) => {
                    now = now.max(t);
                    Self::unseal(page_no, &bytes)
                }
                Err(_) => None,
            };
            match payload {
                Some(p) => {
                    in_run = true;
                    stream.extend_from_slice(&p);
                }
                None if in_run => break, // torn tail
                None => continue,        // truncated prefix
            }
        }
        // Parse records until the stream runs dry or a frame fails its CRC.
        let mut records = Vec::new();
        let mut pos = 0usize;
        while pos + 8 <= stream.len() {
            let len =
                u32::from_le_bytes(stream[pos..pos + 4].try_into().expect("4 bytes")) as usize;
            if len < 8 || pos + 8 + len > stream.len() {
                break;
            }
            let crc = u32::from_le_bytes(stream[pos + 4..pos + 8].try_into().expect("4 bytes"));
            let checked = &stream[pos + 8..pos + 8 + len];
            if crc32(checked) != crc {
                break;
            }
            let lsn = u64::from_le_bytes(checked[..8].try_into().expect("8 bytes"));
            let Some(record) = WalRecord::decode_body(&checked[8..]) else {
                break;
            };
            records.push((lsn, record));
            pos += 8 + len;
        }
        Ok((records, now))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::NoFtlBackend;
    use flash_sim::{DeviceBuilder, FlashGeometry, TimingModel};
    use noftl_core::{NoFtl, NoFtlConfig, PlacementConfig};
    use std::sync::Arc;

    fn backend() -> Arc<NoFtlBackend> {
        let device = Arc::new(
            DeviceBuilder::new(FlashGeometry::example()).timing(TimingModel::mlc_2015()).build(),
        );
        let noftl = Arc::new(NoFtl::new(device, NoFtlConfig::default()));
        Arc::new(
            NoFtlBackend::new(noftl, &PlacementConfig::traditional(8, ["log".to_string()]))
                .unwrap(),
        )
    }

    #[test]
    fn append_and_force() {
        let backend = backend();
        let obj = backend.create_object("log").unwrap();
        let wal = Wal::new(obj);
        let l1 = wal.append_note(1, "begin;update;commit");
        let l2 = wal.append(&WalRecord::Commit { txn: 1 });
        assert!(l2 > l1, "LSNs are monotonic");
        let done = wal.force(&*backend, SimTime::ZERO).unwrap();
        assert!(done > SimTime::ZERO, "a force is a real flash write");
        let s = wal.stats();
        assert_eq!(s.records, 2);
        assert_eq!(s.forces, 1);
        assert_eq!(s.pages, 1);
        assert!(s.appended_bytes > 0);
        assert_eq!(s.next_lsn, 3);
    }

    #[test]
    fn log_spills_to_new_pages_and_scan_recovers_records() {
        let backend = backend();
        let obj = backend.create_object("log").unwrap();
        let wal = Wal::new(obj);
        let mut appended = Vec::new();
        for i in 0..50u64 {
            let rec = WalRecord::Note { txn: i, text: "x".repeat(400) };
            let lsn = wal.append(&rec);
            appended.push((lsn, rec));
        }
        assert!(wal.stats().pages >= 4, "pages = {}", wal.stats().pages);
        wal.force(&*backend, SimTime::ZERO).unwrap();
        let (scanned, _) = Wal::scan(&*backend, obj, SimTime::ZERO).unwrap();
        assert_eq!(scanned, appended);
    }

    #[test]
    fn scan_recovers_page_images_spanning_pages() {
        let backend = backend();
        let obj = backend.create_object("log").unwrap();
        let wal = Wal::new(obj);
        let img = WalRecord::PageImage {
            txn: 9,
            obj: 3,
            page: 17,
            image: (0..PAGE_SIZE).map(|i| i as u8).collect(),
        };
        wal.append(&img);
        wal.append(&WalRecord::Commit { txn: 9 });
        wal.force(&*backend, SimTime::ZERO).unwrap();
        let (scanned, _) = Wal::scan(&*backend, obj, SimTime::ZERO).unwrap();
        assert_eq!(scanned.len(), 2);
        assert_eq!(scanned[0].1, img);
        assert_eq!(scanned[1].1, WalRecord::Commit { txn: 9 });
    }

    #[test]
    fn unforced_records_are_not_recovered() {
        let backend = backend();
        let obj = backend.create_object("log").unwrap();
        let wal = Wal::new(obj);
        wal.append_note(1, "durable");
        wal.force(&*backend, SimTime::ZERO).unwrap();
        wal.append_note(2, "volatile");
        let (scanned, _) = Wal::scan(&*backend, obj, SimTime::ZERO).unwrap();
        assert_eq!(scanned.len(), 1);
        assert!(matches!(&scanned[0].1, WalRecord::Note { txn: 1, .. }));
    }

    #[test]
    fn segment_limit_triggers_truncation_and_scan_skips_freed_prefix() {
        // Satellite: `Wal::append` gains a size/rotation guard with
        // checkpoint-triggered truncation.
        let backend = backend();
        let obj = backend.create_object("log").unwrap();
        let wal = Wal::new(obj);
        for i in 0..40u64 {
            wal.append(&WalRecord::Note { txn: i, text: "y".repeat(400) });
        }
        wal.force(&*backend, SimTime::ZERO).unwrap();
        assert!(wal.needs_truncation(2));
        let before = wal.stats();
        let freed = wal.truncate(&*backend).unwrap();
        assert!(freed >= before.segment_pages - 1, "old segment freed");
        let after = wal.stats();
        assert_eq!(after.segment_pages, 1);
        assert_eq!(after.truncations, 1);
        assert!(!wal.needs_truncation(2));
        // Post-truncation records land after the freed prefix and scan
        // correctly.
        wal.append(&WalRecord::Commit { txn: 99 });
        wal.force(&*backend, SimTime::ZERO).unwrap();
        let (scanned, _) = Wal::scan(&*backend, obj, SimTime::ZERO).unwrap();
        assert_eq!(scanned.len(), 1);
        assert_eq!(scanned[0].1, WalRecord::Commit { txn: 99 });
    }

    #[test]
    fn record_codec_rejects_garbage() {
        assert!(WalRecord::decode_body(&[]).is_none());
        assert!(WalRecord::decode_body(&[9, 0, 0]).is_none());
        assert!(WalRecord::decode_body(&[2, 1]).is_none());
        let body = WalRecord::Checkpoint.encode_body();
        assert_eq!(WalRecord::decode_body(&body), Some(WalRecord::Checkpoint));
    }
}

//! The write-ahead log: ARIES-lite redo logging.
//!
//! Every record carries a monotonically increasing **LSN** and a CRC, and
//! the log stream is chunked into self-validating pages, so after a crash
//! the intact prefix of the log can be recovered and the torn tail
//! discarded.  Only transactions that wrote reach the log: a read-only
//! commit (or rollback) has nothing to redo, so [`crate::Database`]
//! appends no record and forces nothing for it.
//!
//! The log has one record type, [`WalRecord`], which borrows what it
//! logs, and one [`Wal::append`].  A record has two forms: the durable
//! body that a recovering log streams and [`Wal::records`] reads back in
//! place, and the compact text the volatile log (no recovery) streams as
//! the original engine's I/O ballast.  The redo pass of
//! [`crate::Database::recover`] replays one kind, the **PageImage**: the
//! full after-image of a page a transaction dirtied, appended at commit
//! time.  It replays the images of *committed* transactions in LSN order;
//! because an after-image overwrite is idempotent, redo is safe to
//! repeat.  The notes (one per DML statement) are kept for the paper
//! experiments' I/O footprint.
//!
//! The log is just another storage object, so under NoFTL it lives in
//! whatever region the placement configuration assigns (the paper's
//! Figure 2 puts it in a small dedicated region).  A segment-size guard
//! bounds the log: once the current segment exceeds the configured page
//! budget, the database takes a checkpoint and calls [`Wal::truncate`],
//! which frees the old segment's pages and restarts the stream at a fresh
//! page boundary.
//!
//! A log page is the 24-byte `WALP` header (magic, page number, payload
//! length, payload CRC), the payload and zero padding.  The current page
//! is built in place, in the page buffer the force writes: records are
//! streamed straight into it, and a force writes only its header.  The
//! header's payload CRC is extended as records arrive; the page's own
//! CRC, which the storage manager stamps into its OOB metadata for
//! torn-page detection on remount, is taken there from the bytes it
//! programs, as for every other page.

use flash_sim::codec::{put_bytes, put_u32, put_u64, put_u8, Reader};
use flash_sim::{crc32, crc32_update, SimTime};
use noftl_obs::{Histogram, Unit};
use std::io::Write as _;

use crate::heap::RecordId;
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

/// A log record, borrowing what it logs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalRecord<'a> {
    /// A small logical operation record (kept for I/O-behaviour parity
    /// with the paper experiments; not replayed).
    Note {
        /// Transaction id.
        txn: u64,
        /// Free-form description, e.g. `INSERT customer 3:12`.
        text: &'a str,
    },
    /// The note of a row operation, `"{verb} {table} {page}:{slot}"`,
    /// written with no `String` in between; it reads back as that
    /// [`WalRecord::Note`].
    RowNote {
        /// Transaction id.
        txn: u64,
        /// `INSERT`, `UPDATE` or `DELETE`.
        verb: &'a str,
        /// The table the row belongs to.
        table: &'a str,
        /// The row.
        rid: RecordId,
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
        image: &'a [u8],
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

impl<'a> WalRecord<'a> {
    /// Append the durable body: a tag byte, then the variant's fields.
    fn put_body(&self, out: &mut Vec<u8>) {
        match *self {
            WalRecord::Note { txn, .. } | WalRecord::RowNote { txn, .. } => {
                put_u8(out, 1);
                put_u64(out, txn);
                self.put_text(out);
            }
            WalRecord::PageImage { txn, obj, page, image } => {
                put_u8(out, 2);
                put_u64(out, txn);
                put_u32(out, obj);
                put_u64(out, page);
                put_bytes(out, image);
            }
            WalRecord::Commit { txn } => {
                put_u8(out, 3);
                put_u64(out, txn);
            }
            WalRecord::Rollback { txn } => {
                put_u8(out, 4);
                put_u64(out, txn);
            }
            WalRecord::Checkpoint => put_u8(out, 5),
        }
    }

    /// Append the record's compact text behind its `u32` length (the
    /// layout of [`put_bytes`], with no `String` in between): the volatile
    /// log streams it to reproduce the original engine's log byte stream,
    /// whose I/O footprint the paper's experiments measure.
    fn put_text(&self, out: &mut Vec<u8>) {
        let at = out.len();
        put_u32(out, 0);
        // Writing into a `Vec` cannot fail.
        match *self {
            WalRecord::Note { text, .. } => out.extend_from_slice(text.as_bytes()),
            WalRecord::RowNote { verb, table, rid, .. } => put_row_note(out, verb, table, rid),
            WalRecord::PageImage { obj, page, .. } => drop(write!(out, "IMG {obj} {page}")),
            WalRecord::Commit { txn } => drop(write!(out, "COMMIT {txn}")),
            WalRecord::Rollback { txn } => drop(write!(out, "ROLLBACK {txn}")),
            WalRecord::Checkpoint => out.extend_from_slice(b"CHECKPOINT"),
        }
        let len = (out.len() - at - 4) as u32;
        out[at..at + 4].copy_from_slice(&len.to_le_bytes());
    }

    /// Read a durable body back, borrowing from the stream.
    fn read(r: &mut Reader<'a>) -> Option<Self> {
        Some(match r.u8()? {
            1 => WalRecord::Note { txn: r.u64()?, text: r.str()? },
            2 => WalRecord::PageImage {
                txn: r.u64()?,
                obj: r.u32()?,
                page: r.u64()?,
                image: r.bytes()?,
            },
            3 => WalRecord::Commit { txn: r.u64()? },
            4 => WalRecord::Rollback { txn: r.u64()? },
            5 => WalRecord::Checkpoint,
            _ => return None,
        })
    }
}

/// Append a row note's text, `"{verb} {table} {page}:{slot}"`, with the
/// digits put down by hand rather than through `core::fmt`.
fn put_row_note(out: &mut Vec<u8>, verb: &str, table: &str, rid: RecordId) {
    out.extend_from_slice(verb.as_bytes());
    out.push(b' ');
    out.extend_from_slice(table.as_bytes());
    out.push(b' ');
    put_decimal(out, rid.page);
    out.push(b':');
    put_decimal(out, rid.slot.into());
}

/// Append `v` in decimal, without leading zeros.
fn put_decimal(out: &mut Vec<u8>, v: u64) {
    let digits = v.checked_ilog10().map_or(1, |log| log as usize + 1);
    let at = out.len();
    out.resize(at + digits, b'0');
    let mut rest = v;
    for digit in out[at..].iter_mut().rev() {
        *digit = b'0' + (rest % 10) as u8;
        rest /= 10;
    }
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
    /// Whether the log is recoverable: it streams each record's durable
    /// body in a CRC'd frame and a force writes out every completed
    /// (spilled) page.  A volatile log streams each record's text and
    /// reproduces the original engine's I/O behaviour — exactly one page
    /// write per force, with the current page as a rolling commit marker —
    /// which the paper's space-management experiments measure.
    durable: bool,
    /// LSN handed to the next appended record.
    next_lsn: Lsn,
    /// Page number of the current page, `batch[sealed]`.
    cur_page: u64,
    /// Payload bytes in the current page; always below `PAGE_CAP`.
    cur_used: usize,
    /// CRC of the current page's payload, extended as bytes are streamed
    /// in, so a force does not checksum the growing page again.
    cur_crc: u32,
    /// The pages the next force writes: `batch[..sealed]` are the
    /// completed pages not yet forced (none for a volatile log, which
    /// never writes a completed page), sealed as they fill up, and
    /// `batch[sealed]` is the current page, `PAGE_SIZE` long and zero
    /// past its payload, which the force seals behind them and then moves
    /// to slot 0 to keep filling.  A slot is zeroed once, when a page
    /// starts in it; the batch keeps its page buffers from force to
    /// force.
    batch: Vec<(ObjectId, u64, Vec<u8>)>,
    sealed: usize,
    records: u64,
    forces: u64,
    appended_bytes: u64,
    truncations: u64,
    /// Pages freed by truncation over the log's lifetime (feeds the
    /// cumulative `pages` statistic now that page numbers are reused).
    pages_retired: u64,
    /// The frame of the record being appended, reused by every append.
    frame: Vec<u8>,
    /// `dbms.wal.force_ns` handle, bound on the first force (the
    /// registry lives behind the backend, which `new` does not see).
    force_hist: Option<Histogram>,
}

impl Wal {
    /// Create a log writing to storage object `obj`, recoverable when
    /// `durable` (see the field docs; a volatile log is pure I/O ballast).
    pub fn new(obj: ObjectId, durable: bool) -> Self {
        Wal {
            obj,
            durable,
            next_lsn: 1,
            cur_page: 0,
            cur_used: 0,
            cur_crc: 0,
            batch: vec![(obj, 0, vec![0; PAGE_SIZE])],
            sealed: 0,
            records: 0,
            forces: 0,
            appended_bytes: 0,
            truncations: 0,
            pages_retired: 0,
            frame: Vec::new(),
            force_hist: None,
        }
    }

    /// The storage object backing the log.
    pub fn object_id(&self) -> ObjectId {
        self.obj
    }

    /// Append a record (buffered; not durable until [`Wal::force`]),
    /// written straight into the log's reused frame buffer from what it
    /// borrows.  Returns the record's LSN.
    pub fn append(&mut self, record: &WalRecord<'_>) -> Lsn {
        let lsn = self.next_lsn;
        self.next_lsn += 1;
        self.records += 1;
        let mut frame = std::mem::take(&mut self.frame);
        frame.clear();
        if self.durable {
            // Frame: len:4 | crc:4 | lsn:8 | body.  `len` counts lsn + body.
            put_u64(&mut frame, 0); // len and crc, filled in below
            put_u64(&mut frame, lsn);
            record.put_body(&mut frame);
            let checked = &frame[8..];
            let (len, crc) = (checked.len() as u32, crc32(checked));
            frame[..4].copy_from_slice(&len.to_le_bytes());
            frame[4..8].copy_from_slice(&crc.to_le_bytes());
            self.appended_bytes += u64::from(len) - 8;
        } else {
            // Volatile log: the original engine's compact length-prefixed
            // text records (pure I/O ballast; never scanned back).
            record.put_text(&mut frame);
            self.appended_bytes += frame.len() as u64 - 4;
        }
        self.stream(&frame);
        self.frame = frame;
        lsn
    }

    /// Stream `bytes` into the current page, moving on to the next page
    /// number whenever one fills up.  A full page is sealed for the next
    /// force of a durable log; a volatile log drops it.
    fn stream(&mut self, mut bytes: &[u8]) {
        while !bytes.is_empty() {
            let take = (PAGE_CAP - self.cur_used).min(bytes.len());
            let (head, rest) = bytes.split_at(take);
            let at = PAGE_HEADER + self.cur_used;
            self.batch[self.sealed].2[at..at + take].copy_from_slice(head);
            self.cur_used += take;
            self.cur_crc = crc32_update(self.cur_crc, head);
            bytes = rest;
            if self.cur_used == PAGE_CAP {
                if self.durable {
                    self.seal_current();
                    self.sealed += 1;
                }
                self.cur_page += 1;
                self.start_page();
            }
        }
    }

    /// Start page `cur_page`, empty, in the batch slot behind the sealed
    /// pages.
    fn start_page(&mut self) {
        (self.cur_used, self.cur_crc) = (0, 0);
        if self.batch.len() == self.sealed {
            self.batch.push((self.obj, 0, vec![0; PAGE_SIZE]));
        }
        let (_, page_no, page) = &mut self.batch[self.sealed];
        *page_no = self.cur_page;
        page.fill(0);
    }

    /// Seal the current page: write its `WALP` header (magic:4 |
    /// page_no:8 | used:4 | crc:4 | reserved:4) in front of the payload.
    fn seal_current(&mut self) {
        let (used, crc) = (self.cur_used, self.cur_crc);
        let (_, page_no, page) = &mut self.batch[self.sealed];
        let mut header = &mut page[..PAGE_HEADER];
        let (magic, len) = (PAGE_MAGIC.to_le_bytes(), (used as u32).to_le_bytes());
        for field in [&magic[..], &page_no.to_le_bytes(), &len, &crc.to_le_bytes()] {
            // Writing into the header's slice cannot fail.
            let _ = header.write_all(field);
        }
    }

    /// The payload of log page `page_no`; `None` unless it is an intact
    /// page of that number.
    fn unseal(page_no: u64, page: &[u8]) -> Option<&[u8]> {
        let mut r = Reader::new(page);
        if r.u32()? != PAGE_MAGIC || r.u64()? != page_no {
            return None;
        }
        let (used, crc, _reserved) = (r.u32()?, r.u32()?, r.u32()?);
        r.take(used as usize).filter(|payload| crc32(payload) == crc)
    }

    /// Force every unforced log page to storage (the durability point of
    /// a writing transaction's commit, and of a checkpoint).  Sealing the
    /// current page writes its header only.  The pages are submitted as
    /// one queued batch issued at `now`, so a multi-page force overlaps
    /// across the log region's dies; the returned time — the part of a commit the transaction
    /// must wait for — is the completion of the slowest page.
    pub fn force(&mut self, backend: &dyn StorageBackend, now: SimTime) -> Result<SimTime> {
        self.forces += 1;
        self.seal_current();
        let pages = self.sealed + 1;
        let done = backend.write_batch(&self.batch[..pages], now);
        self.batch.swap(0, std::mem::take(&mut self.sealed));
        let done = done?;
        if let Some(registry) = backend.metrics() {
            let hist = self
                .force_hist
                .get_or_insert_with(|| registry.histogram("dbms.wal.force_ns", Unit::SimNanos));
            hist.record(done.since(now).as_nanos());
            // Track 101: WAL spans (see the core obs module's track map).
            registry.tracer().span(
                "dbms.wal",
                "force",
                101,
                now.as_nanos(),
                done.as_nanos(),
                &[("pages", pages as u64)],
            );
        }
        Ok(done)
    }

    /// Pages in the current segment, which always starts at page 0.
    pub fn segment_pages(&self) -> u64 {
        self.cur_page + 1
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
    pub fn truncate(&mut self, backend: &dyn StorageBackend) -> Result<u64> {
        // Anything still buffered belongs to the pre-checkpoint world the
        // caller just made durable; it is dropped with the segment.
        let freed = self.segment_pages();
        self.sealed = 0;
        self.cur_page = 0;
        self.start_page();
        for page_no in 0..freed {
            backend.free_page(self.obj, page_no)?;
        }
        self.pages_retired += freed;
        self.truncations += 1;
        Ok(freed)
    }

    /// Current statistics.
    pub fn stats(&self) -> WalStats {
        WalStats {
            records: self.records,
            forces: self.forces,
            appended_bytes: self.appended_bytes,
            pages: self.pages_retired + self.cur_page + 1,
            segment_pages: self.segment_pages(),
            truncations: self.truncations,
            next_lsn: self.next_lsn,
        }
    }

    /// Scan a log object on storage and return its intact stream: the
    /// payloads of the surviving segment's pages, in page order, for
    /// [`Wal::records`] to read.  Unreadable or corrupt pages end the scan
    /// (the torn tail); freed pages before the surviving segment are
    /// skipped.
    pub fn scan(
        backend: &dyn StorageBackend,
        obj: ObjectId,
        at: SimTime,
    ) -> Result<(Vec<u8>, SimTime)> {
        let extent = backend.object_extent(obj)?;
        let mut now = at;
        // Find the surviving segment: the first readable, valid page.
        let mut stream = Vec::new();
        let mut in_run = false;
        let mut page = vec![0; PAGE_SIZE];
        for page_no in 0..extent {
            let read = backend.read_page_into(obj, page_no, &mut page, at).ok();
            if let Some(t) = read {
                now = now.max(t);
            }
            match read.and_then(|_| Self::unseal(page_no, &page)) {
                Some(payload) => {
                    in_run = true;
                    stream.extend_from_slice(payload);
                }
                None if in_run => break, // torn tail
                None => continue,        // truncated prefix
            }
        }
        Ok((stream, now))
    }

    /// The records of a [`Wal::scan`]ned stream in LSN order, read in
    /// place: a note's text and a page image borrow from `stream`.
    pub fn records(stream: &[u8]) -> impl Iterator<Item = (Lsn, WalRecord<'_>)> {
        let mut r = Reader::new(stream);
        std::iter::from_fn(move || Self::frame(&mut r))
    }

    /// The next record of a log stream: `None` where the stream runs dry
    /// or at the first frame that is short, fails its CRC or does not
    /// decode.  The frame CRC catches what each page's own checks cannot:
    /// a frame spliced from two copies of a log page.
    fn frame<'a>(r: &mut Reader<'a>) -> Option<(Lsn, WalRecord<'a>)> {
        let (len, crc) = (r.u32()?, r.u32()?);
        let mut checked = Reader::new(r.take(len as usize).filter(|c| crc32(c) == crc)?);
        Some((checked.u64()?, WalRecord::read(&mut checked)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::NoFtlBackend;
    use flash_sim::{DeviceBuilder, Duration, FlashBackend, FlashGeometry, TimingModel};
    use flash_sim::{IoTag, PageMetadata, PageState};
    use noftl_core::{crash::power_cycle, NoFtl, NoFtlConfig, PlacementConfig};
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

    /// The payload of the log's current page.
    fn cur_payload(wal: &Wal) -> &[u8] {
        &wal.batch[wal.sealed].2[PAGE_HEADER..PAGE_HEADER + wal.cur_used]
    }

    /// The intact stream of log object `obj`.
    fn scan(backend: &dyn StorageBackend, obj: ObjectId) -> Vec<u8> {
        Wal::scan(backend, obj, SimTime::ZERO).unwrap().0
    }

    /// Every record of `stream`.
    fn records(stream: &[u8]) -> Vec<(Lsn, WalRecord<'_>)> {
        Wal::records(stream).collect()
    }

    #[test]
    fn append_and_force() {
        let backend = backend();
        let obj = backend.create_object("log").unwrap();
        let mut wal = Wal::new(obj, true);
        let l1 = wal.append(&WalRecord::Note { txn: 1, text: "begin;update;commit" });
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
        let mut wal = Wal::new(obj, true);
        let text = "x".repeat(400);
        let mut appended = Vec::new();
        for i in 0..50u64 {
            let rec = WalRecord::Note { txn: i, text: &text };
            let lsn = wal.append(&rec);
            appended.push((lsn, rec));
        }
        assert!(wal.stats().pages >= 4, "pages = {}", wal.stats().pages);
        wal.force(&*backend, SimTime::ZERO).unwrap();
        assert_eq!(records(&scan(&*backend, obj)), appended);
    }

    #[test]
    fn scan_recovers_page_images_spanning_pages() {
        let backend = backend();
        let obj = backend.create_object("log").unwrap();
        let mut wal = Wal::new(obj, true);
        let image: Vec<u8> = (0..PAGE_SIZE).map(|i| i as u8).collect();
        let img = WalRecord::PageImage { txn: 9, obj: 3, page: 17, image: &image };
        wal.append(&img);
        wal.append(&WalRecord::Commit { txn: 9 });
        wal.force(&*backend, SimTime::ZERO).unwrap();
        let stream = scan(&*backend, obj);
        assert_eq!(records(&stream), [(1, img), (2, WalRecord::Commit { txn: 9 })]);
    }

    #[test]
    fn unforced_records_are_not_recovered() {
        let backend = backend();
        let obj = backend.create_object("log").unwrap();
        let mut wal = Wal::new(obj, true);
        wal.append(&WalRecord::Note { txn: 1, text: "durable" });
        wal.force(&*backend, SimTime::ZERO).unwrap();
        wal.append(&WalRecord::Note { txn: 2, text: "volatile" });
        let stream = scan(&*backend, obj);
        assert_eq!(records(&stream), [(1, WalRecord::Note { txn: 1, text: "durable" })]);
    }

    #[test]
    fn segment_limit_triggers_truncation_and_scan_skips_freed_prefix() {
        // Satellite: `Wal::append` gains a size/rotation guard with
        // checkpoint-triggered truncation.
        let backend = backend();
        let obj = backend.create_object("log").unwrap();
        let mut wal = Wal::new(obj, true);
        let text = "y".repeat(400);
        for i in 0..40u64 {
            wal.append(&WalRecord::Note { txn: i, text: &text });
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
        assert_eq!(records(&scan(&*backend, obj)), [(41, WalRecord::Commit { txn: 99 })]);
    }

    #[test]
    fn record_codec_rejects_garbage() {
        fn decode(bytes: &[u8]) -> Option<WalRecord<'_>> {
            WalRecord::read(&mut Reader::new(bytes))
        }
        assert!(decode(&[9, 0, 0]).is_none());
        let image = [0xA5; 40];
        let records = [
            WalRecord::Note { txn: 7, text: "INSERT t 3:12" },
            WalRecord::PageImage { txn: 7, obj: 3, page: 17, image: &image },
            WalRecord::Commit { txn: 7 },
            WalRecord::Rollback { txn: 8 },
            WalRecord::Checkpoint,
        ];
        for record in records {
            let mut body = Vec::new();
            record.put_body(&mut body);
            assert_eq!(decode(&body), Some(record));
            for n in 0..body.len() {
                assert_eq!(decode(&body[..n]), None, "{record:?}: prefix of {n} bytes");
            }
            body[0] ^= 0x08;
            assert_eq!(decode(&body), None, "{record:?}: flipped tag");
        }
        let (mut note, mut row_note) = (Vec::new(), Vec::new());
        records[0].put_body(&mut note);
        let rid = RecordId { page: 3, slot: 12 };
        WalRecord::RowNote { txn: 7, verb: "INSERT", table: "t", rid }.put_body(&mut row_note);
        assert_eq!(row_note, note, "a row note reads back as the note it writes");
    }

    #[test]
    fn torn_pages_and_frames_end_the_log() {
        let payload = b"frames".to_vec();
        let mut wal = Wal::new(1, true);
        wal.cur_page = 4;
        wal.start_page();
        wal.stream(&payload);
        wal.seal_current();
        let page = wal.batch[0].2.clone();
        assert_eq!(Wal::unseal(4, &page), Some(&payload[..]));
        assert_eq!(Wal::unseal(5, &page), None, "another page number");
        for n in 0..PAGE_HEADER + payload.len() {
            assert_eq!(Wal::unseal(4, &page[..n]), None, "page prefix of {n} bytes");
        }
        let mut flipped = page.clone();
        flipped[PAGE_HEADER] ^= 0x01;
        assert_eq!(Wal::unseal(4, &flipped), None, "payload fails its CRC");

        let mut wal = Wal::new(1, true);
        wal.append(&WalRecord::Commit { txn: 3 });
        let stream = cur_payload(&wal).to_vec();
        assert_eq!(Wal::frame(&mut Reader::new(&stream)), Some((1, WalRecord::Commit { txn: 3 })));
        for n in 0..stream.len() {
            assert_eq!(Wal::frame(&mut Reader::new(&stream[..n])), None, "frame prefix of {n}");
        }
        let mut flipped = stream.clone();
        flipped[8] ^= 0x01;
        assert_eq!(Wal::frame(&mut Reader::new(&flipped)), None, "lsn fails the frame CRC");

        // The rolling-tail splice: the older copy of page 0, forced after
        // two notes, then the newer page 1, which continues a frame begun
        // in the newer copy of page 0 that a power cut tore.  Each page
        // passes its own checks, and the continued bytes are forged to
        // look like a frame: a checkpoint whose CRC is wrong.
        let mut wal = Wal::new(1, true);
        wal.append(&WalRecord::Note { txn: 1, text: "older" });
        wal.append(&WalRecord::Note { txn: 2, text: "copy" });
        wal.seal_current();
        let older = wal.batch[0].2.clone();
        // The image's first byte is 41 bytes into its frame: len, crc,
        // lsn, tag, txn, obj, page and the image's length.
        let mut image = vec![0; PAGE_SIZE];
        let forged = &mut image[PAGE_CAP - wal.cur_used - 41..];
        forged[..4].copy_from_slice(&9u32.to_le_bytes());
        forged[8..16].copy_from_slice(&3u64.to_le_bytes());
        forged[16] = 5;
        wal.append(&WalRecord::PageImage { txn: 3, obj: 2, page: 0, image: &image });
        wal.seal_current();
        assert_eq!((wal.sealed, wal.cur_page), (1, 1), "the image spilled into page 1");
        let mut stream = Wal::unseal(0, &older).unwrap().to_vec();
        let splice = stream.len();
        stream.extend_from_slice(Wal::unseal(1, &wal.batch[1].2).unwrap());
        let lsns: Vec<Lsn> = Wal::records(&stream).map(|(lsn, _)| lsn).collect();
        assert_eq!(lsns, [1, 2], "the stream ends at the splice");
        let mut r = Reader::new(&stream[splice..]);
        let (len, _crc) = (r.u32().unwrap(), r.u32().unwrap());
        let mut body = Reader::new(r.take(len as usize).unwrap());
        let unchecked = (body.u64(), WalRecord::read(&mut body));
        assert_eq!(unchecked, (Some(3), Some(WalRecord::Checkpoint)), "only the CRC ends it");
    }

    /// The frames the log streamed before it had one record type, spelled
    /// out field by field: durable `len | crc | lsn | body`, volatile
    /// `put_bytes` of the record's text.
    fn reference_stream(records: &[WalRecord<'_>], durable: bool) -> Vec<u8> {
        let mut stream = Vec::new();
        for (lsn, record) in (1u64..).zip(records) {
            let text = match *record {
                WalRecord::Note { text, .. } => text.to_string(),
                WalRecord::RowNote { verb, table, rid, .. } => {
                    format!("{verb} {table} {}:{}", rid.page, rid.slot)
                }
                WalRecord::PageImage { obj, page, .. } => format!("IMG {obj} {page}"),
                WalRecord::Commit { txn } => format!("COMMIT {txn}"),
                WalRecord::Rollback { txn } => format!("ROLLBACK {txn}"),
                WalRecord::Checkpoint => "CHECKPOINT".to_string(),
            };
            if !durable {
                put_bytes(&mut stream, text.as_bytes());
                continue;
            }
            let mut checked = Vec::new();
            put_u64(&mut checked, lsn);
            match *record {
                WalRecord::Note { txn, .. } | WalRecord::RowNote { txn, .. } => {
                    put_u8(&mut checked, 1);
                    put_u64(&mut checked, txn);
                    put_bytes(&mut checked, text.as_bytes());
                }
                WalRecord::PageImage { txn, obj, page, image } => {
                    put_u8(&mut checked, 2);
                    put_u64(&mut checked, txn);
                    put_u32(&mut checked, obj);
                    put_u64(&mut checked, page);
                    put_bytes(&mut checked, image);
                }
                WalRecord::Commit { txn } => {
                    put_u8(&mut checked, 3);
                    put_u64(&mut checked, txn);
                }
                WalRecord::Rollback { txn } => {
                    put_u8(&mut checked, 4);
                    put_u64(&mut checked, txn);
                }
                WalRecord::Checkpoint => put_u8(&mut checked, 5),
            }
            put_u32(&mut stream, checked.len() as u32);
            put_u32(&mut stream, crc32(&checked));
            stream.extend_from_slice(&checked);
        }
        stream
    }

    #[test]
    fn row_notes_write_the_bytes_of_their_format_form() {
        let long = "t".repeat(64);
        for table in ["", long.as_str()] {
            for page in [0, 1, u64::MAX] {
                for slot in [0, u16::MAX] {
                    let mut out = vec![7];
                    put_row_note(&mut out, "UPDATE", table, RecordId { page, slot });
                    assert_eq!(out[1..], *format!("UPDATE {table} {page}:{slot}").as_bytes());
                }
            }
        }
    }

    #[test]
    fn records_written_in_place_stream_the_same_bytes() {
        let (text, image) = ("é".repeat(300), vec![0x5A; PAGE_SIZE]);
        let rid = RecordId { page: 41, slot: 7 };
        let records = [
            WalRecord::RowNote { txn: 5, verb: "UPDATE", table: "stock", rid },
            WalRecord::Note { txn: 5, text: &text },
            WalRecord::PageImage { txn: 5, obj: 3, page: 9, image: &image },
            WalRecord::Commit { txn: 5 },
            WalRecord::Rollback { txn: 6 },
            WalRecord::Checkpoint,
        ];
        for durable in [true, false] {
            let mut wal = Wal::new(1, durable);
            for record in &records {
                wal.append(record);
            }
            let sealed = wal.batch[..wal.sealed].iter();
            let mut streamed: Vec<u8> = sealed
                .flat_map(|(_, no, page)| Wal::unseal(*no, page).unwrap().iter().copied())
                .collect();
            streamed.extend_from_slice(cur_payload(&wal));
            // The durable stream spills (the page image), the volatile one
            // stays on its first page: both are here in full.
            assert_eq!(streamed, reference_stream(&records, durable), "durable: {durable}");
            assert_eq!(wal.cur_page, u64::from(durable));
            assert_eq!(wal.cur_crc, crc32(cur_payload(&wal)), "the running page CRC");
        }
    }

    #[test]
    fn a_volatile_log_spills_by_page_number_and_writes_only_the_tail() {
        let backend = backend();
        let obj = backend.create_object("log").unwrap();
        let mut wal = Wal::new(obj, false);
        for i in 0..300u64 {
            let rid = RecordId { page: i, slot: 0 };
            wal.append(&WalRecord::RowNote { txn: i, verb: "INSERT", table: "t", rid });
        }
        assert_eq!(wal.stats().segment_pages, 2, "the notes spilled into a second page");
        assert_eq!(wal.sealed, 0, "a volatile log keeps no full page");
        let programs = |b: &NoFtlBackend| b.noftl().device().stats().page_programs;
        let before = programs(&backend);
        wal.force(&*backend, SimTime::ZERO).unwrap();
        assert_eq!(programs(&backend) - before, 1, "one force, one page: the current one");
    }

    /// Every live page of `obj` with its OOB metadata, read off the
    /// device.
    fn live_pages(backend: &NoFtlBackend, obj: ObjectId) -> Vec<(PageMetadata, Vec<u8>)> {
        let device = backend.noftl().device();
        let g = device.geometry();
        let addrs = (0..g.total_blocks())
            .flat_map(|b| (0..g.pages_per_block).map(move |p| g.block_at(b).page(p)));
        let live = addrs.filter(|&a| device.page_state(a).ok() == Some(PageState::Valid));
        live.filter_map(|addr| {
            let (data, meta, _) =
                device.read_page_tagged(addr, SimTime::ZERO, IoTag::default()).unwrap();
            meta.filter(|m| m.object_id == obj).map(|m| (m, data))
        })
        .collect()
    }

    /// Every log page on the device carries the CRC of its whole content
    /// in its OOB metadata, through spills, many forces of one growing
    /// tail page, a truncation and the volatile mode, and the log scans
    /// back what was appended.
    #[test]
    fn every_log_page_carries_its_own_crc() {
        let text = "n".repeat(400);
        for durable in [true, false] {
            let backend = backend();
            let obj = backend.create_object("log").unwrap();
            let mut wal = Wal::new(obj, durable);
            let mut appended = Vec::new();
            let check = |wal: &mut Wal, appended: &mut Vec<_>, notes: u64, len: usize| {
                for txn in 0..notes {
                    let record = WalRecord::Note { txn, text: &text[..len] };
                    appended.push((wal.append(&record), record));
                }
                wal.force(&*backend, SimTime::ZERO).unwrap();
                let pages = live_pages(&backend, obj);
                for (meta, page) in &pages {
                    assert_eq!(meta.checksum, crc32(page), "page {}", meta.logical_page);
                    assert!(Wal::unseal(meta.logical_page, page).is_some());
                }
                if durable {
                    assert_eq!(pages.len() as u64, wal.segment_pages(), "every page is live");
                    let stream = scan(&*backend, obj);
                    assert_eq!(records(&stream), *appended);
                }
            };
            check(&mut wal, &mut appended, 24, 400);
            assert!(wal.segment_pages() >= 3, "the log spilled");
            for _ in 0..20 {
                check(&mut wal, &mut appended, 1, 50);
            }
            wal.truncate(&*backend).unwrap();
            appended.clear();
            check(&mut wal, &mut appended, 3, 30);
            check(&mut wal, &mut appended, 14, 400);
        }
    }

    /// A power cut inside the second force of one log page tears that
    /// copy only: the mount discards it by its CRC and the log scans back
    /// the first force's records from the copy before.
    #[test]
    fn a_torn_tail_force_falls_back_to_the_previous_copy() {
        let device = Arc::new(
            DeviceBuilder::new(FlashGeometry::example()).timing(TimingModel::mlc_2015()).build(),
        );
        let placement = PlacementConfig::traditional(8, ["log".to_string()]);
        let noftl = Arc::new(NoFtl::new(device.clone(), NoFtlConfig::default()));
        let backend = NoFtlBackend::new(noftl, &placement).unwrap();
        let obj = backend.create_object("log").unwrap();
        backend.checkpoint(SimTime::ZERO).unwrap();
        let mut wal = Wal::new(obj, true);
        let text = "t".repeat(300);
        let note = |txn, len| WalRecord::Note { txn, text: &text[..len] };
        let first: Vec<_> =
            (0..4).map(|txn| (wal.append(&note(txn, 100)), note(txn, 100))).collect();
        let first_at = device.quiesce_time();
        let span = wal.force(&backend, first_at).unwrap() - first_at;
        // The second copy's payload runs well past the prefix the cut
        // leaves (60 %, with the OOB area written).
        for txn in 4..12 {
            wal.append(&note(txn, 300));
        }
        assert_eq!(wal.segment_pages(), 1, "both forces write page 0");
        let second_at = device.quiesce_time();
        let cut = second_at + Duration(span.0 * 6 / 10);
        device.arm_power_cut(cut);
        assert!(wal.force(&backend, second_at).is_err());
        let (noftl, report) = NoFtl::mount(power_cycle(&device).unwrap(), cut).unwrap();
        assert_eq!(report.torn_pages_discarded, 1);
        let backend = NoFtlBackend::attach(Arc::new(noftl), &placement).unwrap();
        let (stream, _) = Wal::scan(&backend, obj, report.completed_at).unwrap();
        assert_eq!(records(&stream), first);
    }
}

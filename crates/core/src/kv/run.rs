//! Sorted-run page format.
//!
//! A run is one immutable NoFTL object: `data_pages` pages of sorted
//! key/value entries followed by a *tail* of `tail_pages >= 1` pages.
//! The tail is self-describing — store name, level, the flush-sequence
//! range the run covers, entry count, the first key of **every** data
//! page (the fence index) and a Bloom filter over the run's keys — so a
//! remount can rebuild the whole run directory from object contents
//! alone, and a run whose tail (or any data page) was torn by a power cut
//! is detected and discarded.
//!
//! Layout, format v2 (all integers little-endian):
//!
//! ```text
//! data page:  [magic "KVDP"][count u32] then per entry
//!             [klen u16][vlen u32]([vlen == u32::MAX] = tombstone)[key][value]
//! tail page:  [magic "KVRF"][version u16][seq u32][total u32][chunk]
//! tail bytes: [store_len u16][store]
//!             [level u32][seq_lo u64][seq_hi u64][entries u64]
//!             [data_pages u32][maxk_len u16][max_key]
//!             data_pages x [klen u16][first_key]
//!             [filter_len u32][filter]
//! ```
//!
//! The tail bytes are one stream cut into `page_size - 14`-byte chunks,
//! one per tail page; `seq` counts the chunks from 0 and every page
//! repeats `total`, so a tail with a missing, reordered or foreign member
//! never decodes.  A run of a few hundred data pages still has a
//! one-page tail; only large runs spill (well under 1 % of their pages).
//!
//! **Point lookups cost one page read.**  The fence index has no stride:
//! entry `i` is the first key of data page `i`, so the page that can
//! hold a key is known before anything is read, and the filter (10 bits
//! per key, 7 probes: ~1 % false positives) skips runs whose key range
//! covers the key but which do not hold it.  Version 1 squeezed the
//! index into one page by doubling a stride, which left a 4 000-page run
//! with one fence per 32 pages and ~10 page reads per get.
//!
//! **Memory.**  [`RunMeta`] keeps the whole index and filter resident:
//! one first key per data page (its bytes, its 2-byte length and a 4-byte
//! offset, all in two buffers, [`Fences`]) and 10 bits per entry — about 1 % of the run's size, bounded by the
//! data itself.  That is why the filter density and probe count are
//! constants rather than [`KvConfig`](super::store::KvConfig) fields:
//! there is no budget to trade against, and a format whose readers must
//! agree on the probe sequence is not a tuning surface.

use flash_sim::codec::{put_bytes16, put_u16, put_u32, put_u64, Reader};
use flash_sim::SimTime;

use crate::object::ObjectId;

/// Magic of a run data page (`"KVDP"`).
pub const DATA_MAGIC: u32 = 0x4B56_4450;
/// Magic of a run tail page (`"KVRF"`).
pub const TAIL_MAGIC: u32 = 0x4B56_5246;
/// Current format version (2: multi-page tail, full fence index, filter).
pub const FORMAT_VERSION: u16 = 2;
/// Value-length sentinel marking a tombstone entry.
const TOMBSTONE: u32 = u32::MAX;
/// Per-page header: magic + entry count.
const DATA_HEADER: usize = 8;
/// Per-entry framing: klen (u16) + vlen (u32).
const ENTRY_HEADER: usize = 6;
/// Per-tail-page header: magic + version + seq + total.
const TAIL_HEADER: usize = 14;
/// Filter bits per entry of the run.
const BLOOM_BITS_PER_KEY: usize = 10;
/// Bit positions set / tested per key.
const BLOOM_PROBES: u64 = 7;

/// One key/value-or-tombstone entry.
pub type Entry = (Vec<u8>, Option<Vec<u8>>);

/// One entry borrowed from where it lies: a key and its value, `None` for
/// a tombstone.
pub type EntryRef<'a> = (&'a [u8], Option<&'a [u8]>);

/// Bloom filter over the keys of one run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bloom {
    bits: Vec<u8>,
}

impl Bloom {
    /// The 64-bit key hash every probe position derives from (FNV-1a with
    /// a final avalanche).  It is part of the on-flash format: a filter
    /// written by one build must answer for the next.
    pub fn hash(key: &[u8]) -> u64 {
        let mut h = 0xCBF2_9CE4_8422_2325u64;
        for byte in key {
            h = (h ^ u64::from(*byte)).wrapping_mul(0x0000_0100_0000_01B3);
        }
        h = (h ^ (h >> 33)).wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        h = (h ^ (h >> 33)).wrapping_mul(0xC4CE_B9FE_1A85_EC53);
        h ^ (h >> 33)
    }

    /// Bit positions of `hash` in a filter of `bytes` bytes: double
    /// hashing over the filter's width.
    fn positions(bytes: usize, hash: u64) -> impl Iterator<Item = usize> {
        let width = bytes as u64 * 8;
        let step = (hash >> 32) | 1;
        (0..BLOOM_PROBES).map(move |i| (hash.wrapping_add(i.wrapping_mul(step)) % width) as usize)
    }

    /// Set the bits of `hash` in the filter bytes `bits`.
    fn insert(bits: &mut [u8], hash: u64) {
        for pos in Self::positions(bits.len(), hash) {
            bits[pos / 8] |= 1 << (pos % 8);
        }
    }

    /// Whether a key hashing to `hash` ([`Bloom::hash`]) may have been
    /// inserted: never `false` for one that was.
    pub fn may_contain(&self, hash: u64) -> bool {
        let bits = &self.bits;
        !bits.is_empty()
            && Self::positions(bits.len(), hash).all(|pos| bits[pos / 8] & (1 << (pos % 8)) != 0)
    }
}

/// The fence index of a run: the first key of every data page, packed as
/// the tail stores them (`[klen u16][key]` per page) in one buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fences {
    bytes: Vec<u8>,
    /// Where each page's fence starts in `bytes`.
    starts: Vec<u32>,
}

/// In-memory descriptor of one on-flash run, rebuilt from the tail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunMeta {
    /// The NoFTL object holding the run's pages.
    pub object: ObjectId,
    /// LSM level (0 = freshly flushed memtables).
    pub level: u32,
    /// Lowest flush sequence number folded into this run.
    pub seq_lo: u64,
    /// Highest flush sequence number folded into this run.
    pub seq_hi: u64,
    /// Entries stored (tombstones included).
    pub entries: u64,
    /// Number of data pages (the tail starts at logical page
    /// `data_pages`).
    pub data_pages: u32,
    /// Number of tail pages following the data pages.
    pub tail_pages: u32,
    /// Largest key in the run (empty for an entry-less run).
    pub max_key: Vec<u8>,
    /// Fence index: one fence per data page, its first key, so the first
    /// fence is the smallest key.
    pub index: Fences,
    /// Filter over every key of the run.
    pub filter: Bloom,
    /// Device time when the run became durable.
    pub written_at: SimTime,
}

impl RunMeta {
    /// Whether `key` can possibly live in this run: inside its key range
    /// and not ruled out by the filter.
    pub fn may_contain(&self, key: &[u8]) -> bool {
        self.page_window(key).is_some() && self.filter.may_contain(Bloom::hash(key))
    }

    /// Data pages whose first key is `<= key`.
    fn pages_starting_at_or_before(&self, key: &[u8]) -> u32 {
        let Fences { bytes, starts } = &self.index;
        let fence =
            |start: u32| Reader::new(&bytes[start as usize..]).bytes16().unwrap_or_default();
        starts.partition_point(|&start| fence(start) <= key) as u32
    }

    /// The one data page a point lookup of `key` must read: the last page
    /// whose first key is `<= key`.  `None` if `key` lies outside the
    /// run's key range (always, for an entry-less run).
    pub fn page_window(&self, key: &[u8]) -> Option<u32> {
        if key > self.max_key.as_slice() {
            return None;
        }
        self.pages_starting_at_or_before(key).checked_sub(1)
    }

    /// Data-page window `[start, end)` overlapping the key range
    /// `[lo, hi]` (both inclusive; `None` = unbounded).
    pub fn range_window(&self, lo: Option<&[u8]>, hi: Option<&[u8]>) -> (u32, u32) {
        let start = lo.map_or(0, |lo| self.pages_starting_at_or_before(lo).saturating_sub(1));
        let end = hi.map_or(self.data_pages, |hi| self.pages_starting_at_or_before(hi));
        (start, end.max(start))
    }
}

/// Largest key+value payload a single entry may carry for `page_size`.
pub fn max_entry_payload(page_size: usize) -> usize {
    page_size - DATA_HEADER - ENTRY_HEADER
}

/// Encodes runs into page images held in buffers it keeps, so a warm
/// writer allocates only what decoding a run's tail does: the store name
/// and the [`RunMeta`]'s largest key, fences and filter, each sized
/// exactly, once.
#[derive(Debug)]
pub struct RunWriter {
    page_size: usize,
    /// The last run's page images: its data pages, then its tail.
    pages: Vec<u8>,
    /// A data page's entries, then the tail bytes, before framing.
    scratch: Vec<u8>,
}

impl RunWriter {
    /// A writer of `page_size`-byte pages.
    pub fn new(page_size: usize) -> Self {
        RunWriter { page_size, pages: Vec::new(), scratch: Vec::new() }
    }

    /// The page images of the run last encoded, `page_size` bytes each:
    /// its `data_pages` data pages, then its `tail_pages` tail pages.
    pub fn pages(&self) -> std::slice::Chunks<'_, u8> {
        self.pages.chunks(self.page_size)
    }

    /// Frame the entries in `scratch` as the next data page.
    fn seal_data_page(&mut self, count: u32) {
        if count == 0 {
            return;
        }
        put_u32(&mut self.pages, DATA_MAGIC);
        put_u32(&mut self.pages, count);
        self.pages.extend_from_slice(&self.scratch);
        self.pages.resize(self.pages.len().next_multiple_of(self.page_size), 0);
        self.scratch.clear();
    }

    /// Serialise sorted `entries` into run pages, replacing the last run's
    /// ([`pages`](Self::pages)), and return the descriptor a remount would
    /// decode from them (with `object` and `written_at` left for the
    /// caller to fill in); `None` only if that tail does not decode.
    ///
    /// # Panics
    /// Panics if an entry exceeds [`max_entry_payload`] or a tail page
    /// cannot hold its header — both are programming errors the store's
    /// put path rejects much earlier.
    pub fn encode<'a>(
        &mut self,
        store: &str,
        level: u32,
        (seq_lo, seq_hi): (u64, u64),
        entries: impl IntoIterator<Item = EntryRef<'a>>,
    ) -> Option<RunMeta> {
        let page_size = self.page_size;
        assert!(page_size > TAIL_HEADER, "a tail page must hold more than its header");
        self.pages.clear();
        self.scratch.clear();
        let (mut count, mut total, mut last) = (0u32, 0u64, &[][..]);
        for (key, value) in entries {
            let vlen = value.map_or(0, <[u8]>::len);
            // The same bound `KvStore::check_entry_size` enforces at put
            // time: a maximum-size entry occupies a data page exactly.
            assert!(
                key.len() + vlen <= max_entry_payload(page_size),
                "entry of {} payload bytes exceeds the page budget",
                key.len() + vlen
            );
            if DATA_HEADER + self.scratch.len() + ENTRY_HEADER + key.len() + vlen > page_size {
                self.seal_data_page(count);
                count = 0;
            }
            put_u16(&mut self.scratch, key.len() as u16);
            put_u32(&mut self.scratch, value.map_or(TOMBSTONE, |v| v.len() as u32));
            self.scratch.extend_from_slice(key);
            self.scratch.extend_from_slice(value.unwrap_or_default());
            (count, total, last) = (count + 1, total + 1, key);
        }
        self.seal_data_page(count);

        // The tail bytes; the fences and the filter come from the data
        // pages just framed, the filter's bits set where they lie.
        let data = self.pages.chunks(page_size);
        let tail = &mut self.scratch;
        put_bytes16(tail, store.as_bytes());
        put_u32(tail, level);
        put_u64(tail, seq_lo);
        put_u64(tail, seq_hi);
        put_u64(tail, total);
        put_u32(tail, data.len() as u32);
        put_bytes16(tail, last);
        for page in data {
            data_entries(page, page_size).take(1).for_each(|(first, _)| put_bytes16(tail, first));
        }
        let filter_len = (total as usize * BLOOM_BITS_PER_KEY).div_ceil(8);
        put_u32(tail, filter_len as u32);
        let filter = tail.len();
        tail.resize(filter + filter_len, 0);
        for (key, _) in data_entries(&self.pages, page_size) {
            Bloom::insert(&mut tail[filter..], Bloom::hash(key));
        }
        let chunk = page_size - TAIL_HEADER;
        let tail_pages = tail.len().div_ceil(chunk) as u32;
        for (seq, part) in self.scratch.chunks(chunk).enumerate() {
            put_u32(&mut self.pages, TAIL_MAGIC);
            put_u16(&mut self.pages, FORMAT_VERSION);
            put_u32(&mut self.pages, seq as u32);
            put_u32(&mut self.pages, tail_pages);
            self.pages.extend_from_slice(part);
            self.pages.resize(self.pages.len().next_multiple_of(page_size), 0);
        }
        decode_tail_bytes(&self.scratch, tail_pages).map(|(_, meta)| meta)
    }
}

/// Why pages do not decode as a run tail of this build's format.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TailError {
    /// Not a tail page at all, or a tail with a missing, out-of-order or
    /// foreign member, or bytes that do not parse: what a power cut
    /// leaves behind.
    Torn,
    /// A tail page (`"KVRF"` magic) of another format version: data some
    /// other build wrote, which must not be mistaken for a torn run.
    Version(u16),
}

/// Read one tail page's header: its position `seq` among the `total`
/// pages of its tail, and its chunk of the tail bytes.
pub fn tail_page(page: &[u8]) -> Result<(u32, u32, &[u8]), TailError> {
    let mut r = Reader::new(page);
    if r.u32() != Some(TAIL_MAGIC) {
        return Err(TailError::Torn);
    }
    match r.u16() {
        Some(FORMAT_VERSION) => {}
        Some(other) => return Err(TailError::Version(other)),
        None => return Err(TailError::Torn),
    }
    let (seq, total) = r.u32().zip(r.u32()).ok_or(TailError::Torn)?;
    if seq >= total {
        return Err(TailError::Torn);
    }
    Ok((seq, total, r.rest()))
}

/// Decode a complete tail from its pages, in object order: the name of
/// the store the run belongs to and the run's descriptor (like
/// [`RunWriter::encode`]'s, with `object` and `written_at` left for the
/// caller to fill in).
pub fn decode_tail<P: AsRef<[u8]>>(pages: &[P]) -> Result<(String, RunMeta), TailError> {
    let mut bytes = Vec::new();
    for (i, page) in pages.iter().enumerate() {
        let (seq, total, chunk) = tail_page(page.as_ref())?;
        if seq as usize != i || total as usize != pages.len() {
            return Err(TailError::Torn);
        }
        bytes.extend_from_slice(chunk);
    }
    decode_tail_bytes(&bytes, pages.len() as u32).ok_or(TailError::Torn)
}

fn decode_tail_bytes(bytes: &[u8], tail_pages: u32) -> Option<(String, RunMeta)> {
    let mut r = Reader::new(bytes);
    let store = r.str16()?.to_owned();
    let level = r.u32()?;
    let seq_lo = r.u64()?;
    let seq_hi = r.u64()?;
    if seq_lo > seq_hi {
        return None;
    }
    let entries = r.u64()?;
    let data_pages = r.u32()?;
    let max_key = r.bytes16()?.to_vec();
    // Every index entry takes at least its length field, which bounds
    // `data_pages` by the bytes present before anything is allocated.
    if data_pages as usize > bytes.len() / 2 {
        return None;
    }
    let fences = r.rest();
    let mut starts = Vec::with_capacity(data_pages as usize);
    for _ in 0..data_pages {
        starts.push((fences.len() - r.rest().len()) as u32);
        r.bytes16()?;
    }
    let index = Fences { bytes: fences[..fences.len() - r.rest().len()].to_vec(), starts };
    let bits = r.bytes()?;
    let sized_for = usize::try_from(entries).ok()?.checked_mul(BLOOM_BITS_PER_KEY)?.div_ceil(8);
    if bits.len() != sized_for {
        return None;
    }
    let filter = Bloom { bits: bits.to_vec() };
    let meta = RunMeta {
        object: 0,
        level,
        seq_lo,
        seq_hi,
        entries,
        data_pages,
        tail_pages,
        max_key,
        index,
        filter,
        written_at: SimTime::ZERO,
    };
    Some((store, meta))
}

/// Walk a data page's framing: its entry count and an iterator over the
/// borrowed entries, each `None` where the framing runs off the page.
fn data_page_entries(page: &[u8]) -> Option<impl Iterator<Item = Option<EntryRef<'_>>>> {
    let mut r = Reader::new(page);
    if r.u32()? != DATA_MAGIC {
        return None;
    }
    let count = r.u32()?;
    Some((0..count).map(move |_| {
        let klen = r.u16()? as usize;
        let vtag = r.u32()?;
        let key = r.take(klen)?;
        let value = if vtag == TOMBSTONE { None } else { Some(r.take(vtag as usize)?) };
        Some((key, value))
    }))
}

/// Whether `page` is a data page whose framing holds all its entries.
pub fn is_data_page(page: &[u8]) -> bool {
    data_page_entries(page).is_some_and(|mut entries| entries.all(|entry| entry.is_some()))
}

/// The entries of consecutive `page_size`-byte data pages in order,
/// borrowed from the pages.  A page that [`is_data_page`] rejects ends its
/// entries where its framing breaks.
pub fn data_entries(pages: &[u8], page_size: usize) -> impl Iterator<Item = EntryRef<'_>> {
    pages
        .chunks(page_size)
        .flat_map(|page| data_page_entries(page).into_iter().flatten().map_while(|e| e))
}

/// Merge sorted entry streams, oldest first, into one sorted stream that
/// borrows from them: each key once, smallest first, its newest version
/// (from the last stream that holds it) winning.  `drop_tombstones` leaves
/// out keys whose newest version is a tombstone — right at the bottom
/// level, where no older run can hold a version the tombstone shadows.
pub fn merge<'a, I: Iterator<Item = EntryRef<'a>>>(
    streams: impl IntoIterator<Item = I>,
    drop_tombstones: bool,
) -> impl Iterator<Item = EntryRef<'a>> {
    let mut streams: Vec<_> = streams.into_iter().map(Iterator::peekable).collect();
    std::iter::from_fn(move || loop {
        let key = streams.iter_mut().filter_map(|s| s.peek().map(|&(key, _)| key)).min()?;
        // Every stream's version of the key is taken; the last is newest.
        let newest = streams.iter_mut().filter_map(|s| s.next_if(|&(k, _)| k == key)).last();
        if !drop_tombstones || newest.is_some_and(|(_, value)| value.is_some()) {
            return newest;
        }
    })
}

/// Decode a data page into its sorted entries; `None` if malformed.
pub fn decode_data_page(page: &[u8]) -> Option<Vec<Entry>> {
    data_page_entries(page)?
        .map(|entry| entry.map(|(key, value)| (key.to_vec(), value.map(<[u8]>::to_vec))))
        .collect()
}

/// What a data page holds for one key: `None` = the key is not in the
/// page, `Some(None)` = a tombstone, `Some(Some(value))` = a live value
/// borrowed from the page.
pub type Lookup<'a> = Option<Option<&'a [u8]>>;

/// Find `key` in a data page without materialising it.  `None` if the
/// page is malformed — exactly when [`decode_data_page`] says so, because
/// the whole framing is checked either way.
pub fn lookup_in_page<'a>(page: &'a [u8], key: &[u8]) -> Option<Lookup<'a>> {
    let found = data_page_entries(page)?.map_while(|entry| entry).find(|&(k, _)| k == key);
    is_data_page(page).then_some(found.map(|(_, value)| value))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::crash::SplitMix64;

    /// A run's page images, one vector per page, and its descriptor.
    pub(crate) struct EncodedRun {
        pub pages: Vec<Vec<u8>>,
        pub meta: RunMeta,
    }

    /// Encode owned `entries` with a fresh [`RunWriter`].
    pub(crate) fn encode_run(
        store: &str,
        level: u32,
        seq_lo: u64,
        seq_hi: u64,
        entries: &[Entry],
        page_size: usize,
    ) -> EncodedRun {
        let mut writer = RunWriter::new(page_size);
        let borrowed = entries.iter().map(|(k, v)| (k.as_slice(), v.as_deref()));
        let meta = writer.encode(store, level, (seq_lo, seq_hi), borrowed).unwrap();
        EncodedRun { pages: writer.pages().map(<[u8]>::to_vec).collect(), meta }
    }

    fn kv(i: u32) -> Entry {
        (format!("key-{i:06}").into_bytes(), Some(vec![i as u8; 40]))
    }

    fn tail_of(run: &EncodedRun) -> &[Vec<u8>] {
        &run.pages[run.meta.data_pages as usize..]
    }

    #[test]
    fn roundtrip_small_run() {
        let entries: Vec<Entry> = (0..10).map(kv).collect();
        let run = encode_run("s", 0, 3, 3, &entries, 4096);
        assert_eq!(run.meta.tail_pages, 1, "a small run costs exactly one extra page");
        assert_eq!(run.meta.data_pages as usize + 1, run.pages.len());
        assert_eq!((run.meta.seq_lo, run.meta.seq_hi, run.meta.level), (3, 3, 0));
        assert_eq!(run.meta.entries, 10);
        assert_eq!(run.meta.max_key, entries.last().unwrap().0);
        assert_eq!(decode_tail(tail_of(&run)), Ok(("s".to_string(), run.meta.clone())));
        let mut all = Vec::new();
        for page in &run.pages[..run.meta.data_pages as usize] {
            all.extend(decode_data_page(page).unwrap());
        }
        assert_eq!(all, entries);
    }

    #[test]
    fn multi_page_run_has_usable_index() {
        // ~54 bytes per entry → a few hundred entries span several pages.
        let entries: Vec<Entry> = (0..400).map(kv).collect();
        let run = encode_run("s", 1, 1, 4, &entries, 4096);
        assert!(run.meta.data_pages > 2);
        assert_eq!(run.meta.index.starts.len(), run.meta.data_pages as usize);
        for (i, (key, value)) in entries.iter().enumerate().step_by(37) {
            let page = run.meta.page_window(key).unwrap_or_else(|| panic!("entry {i}: no page"));
            let hit = lookup_in_page(&run.pages[page as usize], key).unwrap();
            assert_eq!(hit, Some(value.as_deref()), "entry {i} not on its indexed page");
            assert!(run.meta.may_contain(key), "entry {i}: false negative");
        }
        // A key below the minimum probes nothing.
        assert_eq!(run.meta.page_window(b"key-"), None);
        assert!(!run.meta.may_contain(b"key-"));
        assert!(!run.meta.may_contain(b"zzz"));
    }

    #[test]
    fn tombstones_survive_the_roundtrip() {
        let entries = vec![(b"a".to_vec(), Some(b"1".to_vec())), (b"b".to_vec(), None::<Vec<u8>>)];
        let run = encode_run("s", 0, 1, 1, &entries, 4096);
        let page = &run.pages[0];
        assert_eq!(lookup_in_page(page, b"b"), Some(Some(None)));
        assert_eq!(lookup_in_page(page, b"a"), Some(Some(Some(b"1".as_slice()))));
        assert_eq!(lookup_in_page(page, b"c"), Some(None));
        assert_eq!(decode_data_page(page).unwrap(), entries);
    }

    #[test]
    fn empty_run_is_tail_only() {
        let run = encode_run("s", 2, 5, 9, &[], 4096);
        assert_eq!(run.meta.data_pages, 0);
        assert_eq!(run.pages.len(), 1);
        assert_eq!(run.meta.entries, 0);
        assert_eq!(decode_tail(&run.pages), Ok(("s".to_string(), run.meta.clone())));
        assert!(!run.meta.may_contain(b"anything"));
        assert_eq!(run.meta.range_window(None, None), (0, 0));
    }

    #[test]
    fn large_index_spills_into_more_tail_pages_not_a_stride() {
        // Long keys push the index far past one page.  The tail grows;
        // the index keeps one fence per data page, so every lookup is
        // still exactly one page.
        let entries: Vec<Entry> = (0..6000)
            .map(|i| {
                (format!("verbose-key-prefix-{i:08}-pad-pad-pad").into_bytes(), Some(vec![1; 40]))
            })
            .collect();
        let run = encode_run("s", 0, 1, 1, &entries, 4096);
        assert!(run.meta.tail_pages >= 2, "got {} tail pages", run.meta.tail_pages);
        assert_eq!(run.meta.index.starts.len(), run.meta.data_pages as usize);
        assert_eq!(run.pages.len(), (run.meta.data_pages + run.meta.tail_pages) as usize);
        for (key, value) in &entries {
            let page = run.meta.page_window(key).expect("every stored key has its page");
            let hit = lookup_in_page(&run.pages[page as usize], key).unwrap();
            assert_eq!(hit, Some(value.as_deref()));
        }
        assert_eq!(decode_tail(tail_of(&run)), Ok(("s".to_string(), run.meta.clone())));
    }

    #[test]
    fn incomplete_reordered_or_foreign_tails_are_torn() {
        let entries: Vec<Entry> = (0..6000)
            .map(|i| (format!("verbose-key-prefix-{i:08}-pad-pad-pad").into_bytes(), None))
            .collect();
        let run = encode_run("s", 0, 1, 1, &entries, 4096);
        let tail = tail_of(&run);
        assert!(tail.len() >= 3);
        assert_eq!(decode_tail(&tail[..tail.len() - 1]), Err(TailError::Torn), "last page missing");
        assert_eq!(decode_tail(&tail[1..]), Err(TailError::Torn), "first page missing");
        let mut swapped = tail.to_vec();
        swapped.swap(0, 1);
        assert_eq!(decode_tail(&swapped), Err(TailError::Torn), "out of order");
        // Same length, but one member belongs to another run's shorter tail.
        let other = encode_run("s", 0, 2, 2, &entries[..3000], 4096);
        assert_ne!(other.meta.tail_pages, run.meta.tail_pages);
        let mut foreign = tail.to_vec();
        foreign[1] = tail_of(&other)[1].clone();
        assert_eq!(decode_tail(&foreign), Err(TailError::Torn), "wrong total");
        // Well-framed pages whose byte stream does not parse.
        let mut garbled = tail.to_vec();
        garbled[0][TAIL_HEADER..].fill(0xFF);
        assert_eq!(decode_tail(&garbled), Err(TailError::Torn));
    }

    #[test]
    fn another_format_version_is_not_a_torn_run() {
        let run = encode_run("s", 0, 1, 1, &[kv(1)], 4096);
        let mut old = run.pages[1].clone();
        old[4..6].copy_from_slice(&1u16.to_le_bytes());
        assert_eq!(tail_page(&old).unwrap_err(), TailError::Version(1));
        assert_eq!(decode_tail(&[old]), Err(TailError::Version(1)));
    }

    #[test]
    fn filter_has_no_false_negatives_and_few_false_positives() {
        let mut rng = SplitMix64(0xB100_F11E);
        for round in 0..8 {
            let n = 1 + rng.below(5_000);
            let mut keys: Vec<Vec<u8>> = (0..n)
                .map(|_| {
                    let len = 1 + rng.below(40);
                    (0..len).map(|_| rng.next_u64() as u8).collect()
                })
                .collect();
            keys.sort();
            keys.dedup();
            let entries: Vec<Entry> = keys.iter().map(|k| (k.clone(), None)).collect();
            let run = encode_run("s", 0, 1, 1, &entries, 4096);
            for key in &keys {
                assert!(run.meta.filter.may_contain(Bloom::hash(key)), "round {round}: lost a key");
            }
        }
        // Sequential keys (the YCSB shape), probed with 10 000 absent
        // keys from inside the run's key range.
        let entries: Vec<Entry> =
            (0..20_000u32).map(|i| (format!("user{:012}", i * 2).into_bytes(), None)).collect();
        let run = encode_run("s", 0, 1, 1, &entries, 4096);
        let false_positives = (0..10_000u32)
            .map(|i| format!("user{:012}", i * 2 + 1).into_bytes())
            .filter(|key| run.meta.may_contain(key))
            .count();
        assert!(false_positives < 200, "{false_positives} of 10 000 absent keys pass the filter");
    }

    #[test]
    fn maximum_size_entry_fills_a_page_exactly() {
        // The boundary the store's put-time check admits: key + value ==
        // max_entry_payload must encode without panicking, as a single
        // full data page.
        let key = vec![b'k'; 16];
        let value = vec![b'v'; max_entry_payload(4096) - 16];
        let entries = vec![(key.clone(), Some(value.clone()))];
        let run = encode_run("s", 0, 1, 1, &entries, 4096);
        assert_eq!(run.meta.data_pages, 1);
        assert_eq!(lookup_in_page(&run.pages[0], &key), Some(Some(Some(value.as_slice()))));
    }

    #[test]
    fn garbage_pages_do_not_decode() {
        assert_eq!(decode_tail(&[[0u8; 4096]]), Err(TailError::Torn));
        assert_eq!(decode_tail::<Vec<u8>>(&[]), Err(TailError::Torn));
        assert!(decode_data_page(&[0u8; 4096]).is_none());
        assert!(lookup_in_page(&[0u8; 4096], b"k").is_none());
        // A data page is not a tail and vice versa.
        let run = encode_run("s", 0, 1, 1, &[(b"k".to_vec(), Some(b"v".to_vec()))], 4096);
        assert_eq!(decode_tail(&run.pages[..1]), Err(TailError::Torn));
        assert!(decode_data_page(&run.pages[1]).is_none());
        // Framing that runs off the page is malformed for the in-place
        // lookup exactly as for the full decode, even past the hit.
        let mut page = run.pages[0].clone();
        page[4..8].copy_from_slice(&2u32.to_le_bytes());
        page[DATA_HEADER + ENTRY_HEADER + 2..][..2].copy_from_slice(&u16::MAX.to_le_bytes());
        assert!(decode_data_page(&page).is_none());
        assert!(lookup_in_page(&page, b"k").is_none());
    }

    #[test]
    fn every_strict_prefix_and_a_flipped_magic_are_rejected() {
        let entries = vec![(b"a".to_vec(), Some(b"1".to_vec())), (b"b".to_vec(), None)];
        let run = encode_run("s", 0, 1, 1, &entries, 4096);
        // The data page up to the end of its last entry (padding follows).
        let used = DATA_HEADER + 2 * ENTRY_HEADER + 3;
        let data = &run.pages[0];
        assert_eq!(decode_data_page(&data[..used]), Some(entries));
        for n in 0..used {
            assert!(decode_data_page(&data[..n]).is_none(), "data prefix of {n} bytes");
            assert!(lookup_in_page(&data[..n], b"b").is_none(), "data prefix of {n} bytes");
        }
        // The tail bytes: 40 fixed, store, max key, one fence, 3 filter bytes.
        let (_, _, chunk) = tail_page(&run.pages[1]).unwrap();
        let tail_len = 40 + 1 + 1 + 3 + 3;
        assert_eq!(decode_tail_bytes(&chunk[..tail_len], 1), Some(("s".into(), run.meta)));
        for n in 0..tail_len {
            assert_eq!(decode_tail_bytes(&chunk[..n], 1), None, "tail prefix of {n} bytes");
        }
        for n in 0..TAIL_HEADER {
            assert_eq!(tail_page(&run.pages[1][..n]), Err(TailError::Torn), "header of {n} bytes");
        }
        for page in &run.pages {
            let mut flipped = page.clone();
            flipped[0] ^= 0x01;
            assert!(decode_data_page(&flipped).is_none());
            assert_eq!(tail_page(&flipped), Err(TailError::Torn));
        }
    }

    #[test]
    fn range_window_prunes_pages() {
        let entries: Vec<Entry> = (0..400).map(kv).collect();
        let run = encode_run("s", 0, 1, 1, &entries, 4096);
        let lo = entries[200].0.clone();
        let hi = entries[210].0.clone();
        let (start, end) = run.meta.range_window(Some(&lo), Some(&hi));
        assert!(start < end && end <= run.meta.data_pages);
        assert!(end - start < run.meta.data_pages, "a narrow range must prune pages");
        let (full_start, full_end) = run.meta.range_window(None, None);
        assert_eq!((full_start, full_end), (0, run.meta.data_pages));
    }
}

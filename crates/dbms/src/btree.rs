//! B+-tree indexes stored in 4 KiB pages.
//!
//! Keys are arbitrary byte strings compared lexicographically (the
//! workload builds order-preserving composite keys, see
//! [`crate::value::composite_key`]); leaf payloads are [`RecordId`]s.
//! Leaves are linked for range scans.  Deletion removes entries without
//! rebalancing — sufficient for TPC-C, whose only index deletes are the
//! NEW_ORDER removals performed by the Delivery transaction.
//!
//! A node splits where the insert lands.  When the new key is the last
//! one of an overflowing leaf, the old entries stay on the left and the
//! new key alone starts the right leaf; when an internal node's new
//! separator is its last, the key before it moves up.  Every other split
//! is 50/50.  Key-ordered loads (the TPC-C loader fills every index in
//! key order) thus leave full pages behind instead of half-empty ones —
//! the rule of SQLite's `balance_quick` and PostgreSQL's rightmost-leaf
//! fill.  Appends that take turns across key groups (ORDER keys during
//! a TPC-C run, district after district) land before the next group's
//! first key, not at the leaf's end, and still split 50/50.
//!
//! A node is a 4 KiB page: a flag byte (2 for an internal node, 3 for a
//! leaf), the entry count `n`, an 8-byte `extra` (a leaf's next leaf, an
//! internal node's child below its first key), then a slot directory of
//! `n` `u16` entry end offsets, then the entries back to back in key
//! order — each a key and its payload, a 10-byte record id in a leaf or
//! an 8-byte child page in an internal node — and zeros.  The directory
//! costs the two bytes per entry that a key length did before it, so
//! fan-out and every split point are those of the length-prefixed
//! layout, whose flag bytes (0 and 1) are refused as corrupted.
//!
//! Every operation is one descent from the root, one logical read per
//! level, over the page images where the buffer pool holds them (a
//! borrowed `NodeView`; nothing is decoded).  A node is validated in one
//! pass over its directory and then binary-searched through it: a
//! lookup compares at most ⌈log2(n + 1)⌉ keys instead of about half of
//! them, and a scan starts at its low key's place in the first leaf.
//! Writes edit the leaf in its frame: an insert opens a slot and a gap
//! for the entry and writes both, an upsert overwrites the 10-byte record
//! id, a delete closes the slot and the gap and zeroes the tail they
//! vacate.  A split decodes nothing either: it writes its two halves,
//! then the widened parent or a new root, from the node's image — the
//! full leaf as the descent found it, each parent as the descent copied
//! it into a per-tree path buffer — into page buffers the tree keeps, so
//! once the tree has split at a depth a split there allocates nothing.
//! Every image is the one the owned reference node of the tests writes
//! for the same edit (property-tested, byte for byte).  Scans copy no key
//! either: they hand each `(key, rid)` to a closure while the key lies in
//! the leaf.  With the heap and the rows read and edited in their frames
//! too, and TPC-C building its rows on the stack, a TPC-C transaction
//! allocates 0.096 times and 4 980 B (`host_allocs_per_op` /
//! `host_alloc_bytes_per_op`, `tpcc_traditional` at the default seed,
//! nearly all of it block payload buffers of a fresh device; 80.1 and
//! 21 302 B while splits decoded and rows were copied), every simulated
//! number unchanged.

use std::ops::ControlFlow;

use flash_sim::codec::{put_u16, put_u64, put_u8};
use flash_sim::SimTime;

use crate::buffer::BufferPool;
use crate::error::DbError;
use crate::heap::RecordId;
use crate::storage::ObjectId;
use crate::Result;
use crate::PAGE_SIZE;

const NONE_PAGE: u64 = u64::MAX;
/// The flag byte, the entry count and `extra`.
const HEADER: usize = 1 + 2 + 8;
/// The flag byte of an internal node and of a leaf.  The layout before
/// the slot directory flagged them 0 and 1: such a page is refused.
const INTERNAL: u8 = 2;
const LEAF: u8 = 3;

/// A node entry, `(key, payload)`.
type Entry<'e> = (&'e [u8], &'e [u8]);

/// Bytes after an entry's key: a record id in a leaf, a child page in an
/// internal node.
const fn payload_len(leaf: bool) -> usize {
    8 + 2 * leaf as usize
}

/// The child page an internal node's entry points to.
#[expect(
    clippy::expect_used,
    reason = "an internal node's payload is 8 bytes: `NodeView::entry` cuts it at its end"
)]
fn child_page(payload: &[u8]) -> u64 {
    u64::from_le_bytes(payload.try_into().expect("8 bytes"))
}

/// A borrowed view of a serialized node, nothing decoded ahead of use:
/// the flag byte, the entry count `n`, `extra`, the slot directory — `n`
/// `u16` end offsets, entry `i` ending where entry `i + 1` starts — then
/// the entries back to back, each a key and its payload, in key order;
/// zeros after them.  Every descent binary-searches the page image where
/// the buffer pool holds it, inserts and deletes edit a leaf there
/// ([`insert_in_leaf`], [`delete_from_leaf`]), and a split writes its
/// halves from it ([`split_node`]).
#[derive(Clone, Copy)]
struct NodeView<'a> {
    leaf: bool,
    n: usize,
    /// For a leaf: the next leaf in key order (`NONE_PAGE` = last leaf).
    /// For an internal node: the child covering the keys below its first.
    extra: u64,
    /// The slot directory, validated by [`NodeView::parse`].
    dir: &'a [u8],
    /// The `n` entries and nothing after them: the directory's offsets
    /// count from here.
    heap: &'a [u8],
}

impl<'a> NodeView<'a> {
    /// Validate `buf` as a node: each entry ends at least a payload after
    /// the one before it, the last inside the page — one pass of
    /// independent loads, so the accessors below slice without checking.
    fn parse(buf: &'a [u8]) -> Result<Self> {
        let corrupted = || DbError::Corrupted { message: "not an intact B+-tree node".into() };
        let header = buf.first_chunk::<HEADER>();
        let Some(&[flag @ (INTERNAL | LEAF), n0, n1, extra @ ..]) = header else {
            return Err(corrupted());
        };
        let (leaf, n) = (flag == LEAF, usize::from(u16::from_le_bytes([n0, n1])));
        let (dir, heap) = buf[HEADER..].split_at_checked(2 * n).ok_or_else(corrupted)?;
        let (ordered, end) = dir.chunks_exact(2).fold((true, 0), |(ordered, start), end| {
            let end = usize::from(u16::from_le_bytes([end[0], end[1]]));
            (ordered & (end >= start + payload_len(leaf)), end)
        });
        if !ordered || end > heap.len() {
            return Err(corrupted());
        }
        Ok(NodeView { leaf, n, extra: u64::from_le_bytes(extra), dir, heap: &heap[..end] })
    }

    /// Where entry `i` ends in `heap`, and entry `i + 1` starts.
    fn end(&self, i: usize) -> usize {
        usize::from(u16::from_le_bytes([self.dir[2 * i], self.dir[2 * i + 1]]))
    }

    /// Entry `i` as `(key, payload)`: the payload is the 10-byte record
    /// id in a leaf, the 8-byte child page in an internal node.
    fn entry(&self, i: usize) -> Entry<'a> {
        let (start, end) = (i.checked_sub(1).map_or(0, |i| self.end(i)), self.end(i));
        self.heap[start..end].split_at(end - start - payload_len(self.leaf))
    }

    /// The page bytes up to the end of the last entry.
    fn used(&self) -> usize {
        HEADER + self.dir.len() + self.heap.len()
    }

    /// Where `key` is, or would go: the index of its entry (or of the
    /// first entry after it), and whether the entry holds `key`.  A
    /// binary search over the directory: at most ⌈log2(n + 1)⌉ compares.
    fn seek(&self, key: &[u8]) -> (usize, bool) {
        let (mut low, mut high) = (0, self.n);
        while low < high {
            let mid = low + (high - low) / 2;
            #[cfg(test)]
            tests::COMPARES.set(tests::COMPARES.get() + 1);
            match self.entry(mid).0.cmp(key) {
                std::cmp::Ordering::Less => low = mid + 1,
                std::cmp::Ordering::Greater => high = mid,
                std::cmp::Ordering::Equal => return (mid, true),
            }
        }
        (low, false)
    }

    /// The entries in key order from entry `from` on.
    fn iter(self, from: usize) -> impl Iterator<Item = Entry<'a>> + Clone {
        (from..self.n).map(move |i| self.entry(i))
    }

    /// The entries with `entry` inserted as entry `pos`.
    fn with(self, pos: usize, entry: Entry<'a>) -> impl Iterator<Item = Entry<'a>> + Clone {
        self.iter(0).take(pos).chain(std::iter::once(entry)).chain(self.iter(pos))
    }

    /// Leaf entries from entry `from` on, as `(key, record id)`.
    fn rids(self, from: usize) -> impl Iterator<Item = (&'a [u8], RecordId)> {
        self.iter(from).filter_map(|(key, payload)| Some((key, RecordId::decode(payload)?)))
    }

    /// Exact-match lookup in a leaf.
    fn search(&self, key: &[u8]) -> Option<RecordId> {
        let (pos, found) = self.seek(key);
        found.then(|| RecordId::decode(self.entry(pos).1)).flatten()
    }

    /// Page of the child to follow for `key` in an internal node: the
    /// child of the last separator `<= key`, or `extra` below the first.
    fn child_for(&self, key: &[u8]) -> u64 {
        let (pos, found) = self.seek(key);
        let below = (pos + usize::from(found)).checked_sub(1);
        below.map_or(self.extra, |i| child_page(self.entry(i).1))
    }
}

/// What [`insert_in_leaf`] did to a leaf.
enum LeafInsert {
    /// The key was there: its record id was overwritten.
    Upserted,
    /// The key was added in order.
    Inserted,
    /// The key does not fit and the page is untouched: the index the key
    /// goes to, for the split.
    Full(usize),
}

/// Add `delta` (modulo 2^16) to the end offsets of directory `slots`.
fn shift_ends(page: &mut [u8], slots: std::ops::Range<usize>, delta: u16) {
    for end in page[HEADER + 2 * slots.start..HEADER + 2 * slots.end].chunks_exact_mut(2) {
        let moved = u16::from_le_bytes([end[0], end[1]]).wrapping_add(delta);
        end.copy_from_slice(&moved.to_le_bytes());
    }
}

/// Insert or overwrite `key` → `rid` in the leaf image `page` where it
/// lies: an upsert overwrites the entry's 10-byte record id; an insert
/// moves the entries after the key on by a slot and the entry, the
/// directory from slot `pos` and the entries before the key by a slot,
/// and writes the slot and the entry into the gaps.  The page ends up as
/// [`encode_node`] would write the edited node.
fn insert_in_leaf(page: &mut [u8], key: &[u8], rid: RecordId) -> Result<LeafInsert> {
    let node = NodeView::parse(page)?;
    debug_assert!(node.leaf);
    let (pos, found) = node.seek(key);
    let (n, base, end) = (node.n, HEADER + 2 * node.n, node.used());
    if found {
        let rid_at = base + node.end(pos) - payload_len(true);
        page[rid_at..rid_at + 10].copy_from_slice(&rid.encode());
        return Ok(LeafInsert::Upserted);
    }
    let (slot, size) = (HEADER + 2 * pos, key.len() + payload_len(true));
    let at = base + pos.checked_sub(1).map_or(0, |i| node.end(i));
    if end + 2 + size > PAGE_SIZE {
        return Ok(LeafInsert::Full(pos));
    }
    page.copy_within(at..end, at + 2 + size);
    page.copy_within(slot..at, slot + 2);
    page[slot..slot + 2].copy_from_slice(&((at - base + size) as u16).to_le_bytes());
    shift_ends(page, pos + 1..n + 1, size as u16);
    page[at + 2..at + 2 + key.len()].copy_from_slice(key);
    page[at + 2 + key.len()..at + 2 + size].copy_from_slice(&rid.encode());
    page[1..3].copy_from_slice(&(n as u16 + 1).to_le_bytes());
    Ok(LeafInsert::Inserted)
}

/// Remove `key` from the leaf image `page` where it lies: move the
/// directory after its slot and the entries before it back by a slot,
/// those after it by the slot and the entry, and zero the bytes that
/// leaves unused at the tail, so the page ends up as [`encode_node`]
/// would write it.  Returns whether `key` was there (the page is
/// untouched if not).
fn delete_from_leaf(page: &mut [u8], key: &[u8]) -> Result<bool> {
    let node = NodeView::parse(page)?;
    debug_assert!(node.leaf);
    let (pos, found) = node.seek(key);
    if !found {
        return Ok(false);
    }
    let (n, slot, size, end) = (node.n, HEADER + 2 * pos, key.len() + 10, node.used());
    let at = HEADER + 2 * n + node.end(pos) - size;
    page.copy_within(slot + 2..at, slot);
    page.copy_within(at + size..end, at - 2);
    shift_ends(page, pos..n - 1, (size as u16).wrapping_neg());
    page[end - 2 - size..end].fill(0);
    page[1..3].copy_from_slice(&(n as u16 - 1).to_le_bytes());
    Ok(true)
}

/// Write into `out` the image of a node of `n` entries, the first `n`
/// of `entries`: flag byte, entry count, `extra`, the slot directory, the
/// entries, zeros.
fn encode_node<'e>(
    out: &mut Vec<u8>,
    leaf: bool,
    extra: u64,
    n: usize,
    entries: impl Iterator<Item = Entry<'e>>,
) {
    out.clear();
    put_u8(out, if leaf { LEAF } else { INTERNAL });
    put_u16(out, n as u16);
    put_u64(out, extra);
    out.resize(HEADER + 2 * n, 0);
    for (slot, (key, payload)) in entries.take(n).enumerate() {
        out.extend_from_slice(key);
        out.extend_from_slice(payload);
        let end = ((out.len() - HEADER - 2 * n) as u16).to_le_bytes();
        out[HEADER + 2 * slot..HEADER + 2 * slot + 2].copy_from_slice(&end);
    }
    out.resize(PAGE_SIZE, 0);
}

/// Split `node`, given `entry` as its entry `pos` and with it one entry
/// too many for a page, into `halves` — the left one stays on the node's
/// page, the right one goes to `right_page` — and put the key that goes
/// up to the parent into `sep`.  A new last key goes alone to the right
/// (a leaf) or up (an internal node, whose key before it moves up);
/// every other split is 50/50.  A leaf's separator is the right half's
/// first key; an internal node's moves up, and its child becomes the
/// right half's `extra`.
fn split_node(
    node: NodeView<'_>,
    pos: usize,
    entry: Entry<'_>,
    right_page: u64,
    halves: &mut [Vec<u8>; 2],
    sep: &mut Vec<u8>,
) -> Result<()> {
    // `n` entries with the new one, which is the last at `pos == node.n`.
    let (entries, n) = (node.with(pos, entry), node.n + 1);
    let mid = if pos < node.n { n / 2 } else { node.n - usize::from(!node.leaf) };
    let (up, child) = entries.clone().nth(mid).ok_or_else(|| DbError::Corrupted {
        message: format!("split point {mid} past a node of {n} entries"),
    })?;
    sep.clear();
    sep.extend_from_slice(up);
    let (left_extra, right_extra, skip) = match node.leaf {
        true => (right_page, node.extra, mid),
        false => (node.extra, child_page(child), mid + 1),
    };
    let [left, right] = halves;
    encode_node(left, node.leaf, left_extra, mid, entries.clone());
    encode_node(right, node.leaf, right_extra, n - skip, entries.skip(skip));
    Ok(())
}

/// The internal nodes an insert descended through, root first: their
/// page numbers and, back to back, their images as read.  Kept across
/// inserts, with room for [`PATH_LEVELS`] from the start, so a descent
/// allocates nothing, not even the first after the tree grew a level.
#[derive(Debug)]
struct Path {
    pages: Vec<u64>,
    images: Vec<u8>,
}

/// The internal levels a [`Path`] has room for when its tree is built:
/// with 32-byte keys, four hold some 10^8 leaves.
const PATH_LEVELS: usize = 4;

/// The page buffers a split writes from, kept across inserts as [`Path`]
/// is: the full leaf as the descent found it, the two halves (the left
/// one also builds a widened parent or a new root), and the separator
/// going up with the one the level below sent.
#[derive(Debug, Default)]
struct Split {
    leaf: Vec<u8>,
    halves: [Vec<u8>; 2],
    sep: Vec<u8>,
    carry: Vec<u8>,
}

/// A B+-tree index over a storage object.
#[derive(Debug)]
pub struct BTree {
    obj: ObjectId,
    root: u64,
    page_count: u64,
    entries: u64,
    initialized: bool,
    path: Path,
    split: Split,
}

impl BTree {
    /// Create a (lazily initialised) B+-tree over storage object `obj`.
    pub fn new(obj: ObjectId) -> Self {
        let path = Path {
            pages: Vec::with_capacity(PATH_LEVELS),
            images: Vec::with_capacity(PATH_LEVELS * PAGE_SIZE),
        };
        let split = Split::default();
        BTree { obj, root: 0, page_count: 1, entries: 0, initialized: false, path, split }
    }

    /// The storage object backing this index.
    pub fn object_id(&self) -> ObjectId {
        self.obj
    }

    /// Re-attach to a B+-tree that survived a crash: `extent` is the
    /// object's logical extent on storage.  The root is recovered
    /// structurally — it is the node no other node references (when an
    /// old root survives alongside garbage from uncommitted splits, the
    /// highest-numbered unreferenced node wins, because root pages are
    /// always allocated after their children).  Returns the tree and the
    /// completion time of the structure scan.
    pub fn attach(
        obj: ObjectId,
        pool: &mut BufferPool,
        extent: u64,
        now: SimTime,
    ) -> Result<(BTree, SimTime)> {
        if extent == 0 {
            return Ok((BTree::new(obj), now));
        }
        let (mut t, mut present, mut entries) = (now, Vec::new(), 0u64);
        let mut referenced = std::collections::HashSet::new();
        for page_no in 0..extent {
            let Ok((parsed, t_read)) = pool.with_page(obj, page_no, t, |buf| {
                let Ok(node) = NodeView::parse(buf) else { return false };
                if node.leaf {
                    entries += node.n as u64;
                } else {
                    referenced.insert(node.extra);
                    referenced.extend(node.iter(0).map(|(_, child)| child_page(child)));
                }
                true
            }) else {
                continue;
            };
            t = t_read;
            present.extend(parsed.then_some(page_no));
        }
        let root = present.into_iter().filter(|p| !referenced.contains(p)).max().unwrap_or(0);
        Ok((BTree { root, page_count: extent, entries, initialized: true, ..BTree::new(obj) }, t))
    }

    /// Number of entries currently in the index.
    pub fn len(&self) -> u64 {
        self.entries
    }

    /// True if the index holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of pages allocated by the index.
    pub fn page_count(&self) -> u64 {
        self.page_count
    }

    fn ensure_init(&mut self, pool: &mut BufferPool, now: SimTime) -> Result<SimTime> {
        if self.initialized {
            return Ok(now);
        }
        let leaf = &mut self.split.halves[0];
        encode_node(leaf, true, NONE_PAGE, 0, std::iter::empty());
        let t = pool.write_page(self.obj, 0, leaf, now)?;
        self.initialized = true;
        Ok(t)
    }

    /// Descend from `root` to `key`'s leaf — one logical read per level
    /// — and hand the leaf's buffer frame to `at_leaf`, which returns its
    /// result and whether it wrote (a reader never does, and then the
    /// descent counts what a borrowing one would).  With a `path`, every
    /// internal node on the way is copied into it, so a split can rewrite
    /// its parent from exactly the bytes the descent read, even if a miss
    /// further down evicted it.  Returns `at_leaf`'s result, the leaf's
    /// page and the completion time.
    fn descend<R>(
        obj: ObjectId,
        pool: &mut BufferPool,
        root: u64,
        key: &[u8],
        now: SimTime,
        mut path: Option<&mut Path>,
        at_leaf: impl FnOnce(&mut [u8]) -> Result<(R, bool)>,
    ) -> Result<(R, u64, SimTime)> {
        let (mut page, mut t, mut at_leaf) = (root, now, Some(at_leaf));
        loop {
            let (step, t2) = pool.with_page_mut(obj, page, t, |frame| {
                if frame[0] == LEAF {
                    let Some(at_leaf) = at_leaf.take() else {
                        let message = "a descent reached a second leaf".into();
                        return (Err(DbError::Corrupted { message }), false);
                    };
                    let done = at_leaf(frame);
                    let wrote = matches!(done, Ok((_, true)));
                    return (done.map(|(done, _)| ControlFlow::Break(done)), wrote);
                }
                let child = NodeView::parse(frame).map(|node| node.child_for(key));
                if let (Ok(_), Some(path)) = (&child, path.as_mut()) {
                    path.pages.push(page);
                    path.images.extend_from_slice(frame);
                }
                (child.map(ControlFlow::Continue), false)
            })?;
            t = t2;
            match step? {
                ControlFlow::Continue(child) => page = child,
                ControlFlow::Break(done) => return Ok((done, page, t)),
            }
        }
    }

    /// Insert (or overwrite) `key` → `rid`.  Returns the completion time.
    pub fn insert(
        &mut self,
        pool: &mut BufferPool,
        key: &[u8],
        rid: RecordId,
        now: SimTime,
    ) -> Result<SimTime> {
        if key.is_empty() || key.len() + 12 + HEADER > PAGE_SIZE / 4 {
            return Err(DbError::TooLarge { message: format!("index key of {} bytes", key.len()) });
        }
        let t = self.ensure_init(pool, now)?;
        let BTree { obj, root, page_count, entries, path, split, .. } = self;
        let Split { leaf, halves, sep, carry } = split;
        path.pages.clear();
        path.images.clear();
        let (outcome, leaf_page, mut t) =
            Self::descend(*obj, pool, *root, key, t, Some(path), |frame| {
                let outcome = insert_in_leaf(frame, key, rid)?;
                let full = matches!(outcome, LeafInsert::Full(_));
                if full {
                    leaf.clear();
                    leaf.extend_from_slice(frame);
                }
                Ok((outcome, !full))
            })?;
        *entries += u64::from(!matches!(outcome, LeafInsert::Upserted));
        let LeafInsert::Full(pos) = outcome else { return Ok(t) };
        // Split bottom-up, from the leaf's image and then from the copies
        // the descent took of its parents: each split hands its separator
        // and right page up, until a parent takes them without splitting.
        carry.clear();
        carry.extend_from_slice(key);
        // The entry for the level being split: the key and record id for
        // the leaf, then each separator and the page right of it.
        let (mut payload, mut len) = (rid.encode(), payload_len(true));
        let (mut page, mut pos, mut image) = (leaf_page, pos, &leaf[..]);
        let mut parents = path.pages.iter().zip(path.images.chunks(PAGE_SIZE)).rev();
        loop {
            let right_page = *page_count;
            *page_count += 1;
            let entry = (&carry[..], &payload[..len]);
            split_node(NodeView::parse(image)?, pos, entry, right_page, halves, sep)?;
            t = pool.write_page(*obj, page, &halves[0], t)?;
            t = pool.write_page(*obj, right_page, &halves[1], t)?;
            std::mem::swap(carry, sep);
            len = payload_len(false);
            payload[..len].copy_from_slice(&right_page.to_le_bytes());
            let entry = (&carry[..], &payload[..len]);
            let Some((&parent, parent_image)) = parents.next() else {
                // The root split: grow the tree.
                encode_node(&mut halves[0], false, *root, 1, std::iter::once(entry));
                *root = *page_count;
                *page_count += 1;
                return pool.write_page(*obj, *root, &halves[0], t);
            };
            let node = NodeView::parse(parent_image)?;
            let (at, found) = node.seek(carry);
            pos = at + usize::from(found);
            if node.used() + 2 + carry.len() + len <= PAGE_SIZE {
                encode_node(&mut halves[0], false, node.extra, node.n + 1, node.with(pos, entry));
                return pool.write_page(*obj, parent, &halves[0], t);
            }
            (page, image) = (parent, parent_image);
        }
    }

    /// Exact-match lookup.
    pub fn search(
        &mut self,
        pool: &mut BufferPool,
        key: &[u8],
        now: SimTime,
    ) -> Result<(Option<RecordId>, SimTime)> {
        let t = self.ensure_init(pool, now)?;
        let (found, _, t) = Self::descend(self.obj, pool, self.root, key, t, None, |leaf| {
            Ok((NodeView::parse(leaf)?.search(key), false))
        })?;
        Ok((found, t))
    }

    /// Range scan: hand the first `limit` `(key, rid)` pairs with
    /// `low <= key < high` to `visit`, in key order (`high == None`: no
    /// upper bound; `limit == usize::MAX`: no limit).  The key is
    /// borrowed from the leaf.  Returns the completion time.
    pub fn range(
        &mut self,
        pool: &mut BufferPool,
        low: &[u8],
        high: Option<&[u8]>,
        limit: usize,
        now: SimTime,
        visit: impl FnMut(&[u8], RecordId),
    ) -> Result<SimTime> {
        self.scan(pool, low, |key| high.is_none_or(|high| key < high), limit, now, visit)
    }

    /// Hand `visit` the first `limit` pairs from `low` on while `in_range`
    /// holds, which must fail from some key on — a range scan below a
    /// high bound, or a prefix scan while keys start with the prefix.  The
    /// walk stops at the first key out of range or at `limit` pairs,
    /// whichever comes first, and reads nothing for `limit == 0`.  The
    /// key is borrowed from the leaf, as in [`BTree::range`].
    ///
    /// The walk starts at `low`'s place in its leaf and follows the leaf
    /// chain: a pointer chase, the next leaf only known after reading the
    /// current one, and nothing read ahead of it.  Readahead by page
    /// number would be a guess (the leaves of a tree grown by random
    /// inserts are not in file order), and no workload in the repo scans
    /// far enough for one to pay: TPC-C's scans touch one or two leaves,
    /// the YCSB-style short scans at most 50 rows.
    pub fn scan(
        &mut self,
        pool: &mut BufferPool,
        low: &[u8],
        in_range: impl Fn(&[u8]) -> bool,
        limit: usize,
        now: SimTime,
        mut visit: impl FnMut(&[u8], RecordId),
    ) -> Result<SimTime> {
        let t = self.ensure_init(pool, now)?;
        if limit == 0 {
            return Ok(t);
        }
        let (mut from, mut page, mut t) =
            Self::descend(self.obj, pool, self.root, low, t, None, |leaf| {
                Ok((NodeView::parse(leaf)?.seek(low).0, false))
            })?;
        let mut left = limit;
        loop {
            let (next, t2) = pool.with_page(self.obj, page, t, |buf| {
                let node = NodeView::parse(buf)?;
                let more = node.rids(std::mem::take(&mut from)).all(|(key, rid)| {
                    if !in_range(key) {
                        return false;
                    }
                    visit(key, rid);
                    left -= 1;
                    left > 0
                });
                Ok::<_, DbError>(more.then_some(node.extra))
            })?;
            t = t2;
            match next? {
                Some(next) if next != NONE_PAGE => page = next,
                _ => return Ok(t),
            }
        }
    }

    /// Remove `key`.  Returns whether the key existed.
    pub fn delete(
        &mut self,
        pool: &mut BufferPool,
        key: &[u8],
        now: SimTime,
    ) -> Result<(bool, SimTime)> {
        let t = self.ensure_init(pool, now)?;
        let (deleted, _, t) = Self::descend(self.obj, pool, self.root, key, t, None, |leaf| {
            let deleted = delete_from_leaf(leaf, key)?;
            Ok((deleted, deleted))
        })?;
        if deleted {
            self.entries = self.entries.saturating_sub(1);
        }
        Ok((deleted, t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::{NoFtlBackend, StorageBackend};
    use crate::value::composite_key;
    use flash_sim::{DeviceBuilder, FlashGeometry, TimingModel};
    use noftl_core::crash::SplitMix64;
    use noftl_core::{NoFtl, NoFtlConfig, PlacementConfig};
    use proptest::prelude::*;
    use std::cell::Cell;
    use std::sync::Arc;

    thread_local! {
        /// The key compares [`NodeView::seek`] made on this thread.
        pub(super) static COMPARES: Cell<usize> = const { Cell::new(0) };
    }

    /// The owned node: the reference every in-place edit and split is held
    /// to, byte for byte, through [`Node::encode`].
    #[derive(Debug, Clone, Default)]
    struct Node {
        leaf: bool,
        /// For leaves: the next leaf in key order (`NONE_PAGE` = last leaf).
        /// For internal nodes: the child covering keys below `keys[0]`.
        extra: u64,
        keys: Vec<Vec<u8>>,
        /// Leaf payloads (parallel to `keys`).
        rids: Vec<RecordId>,
        /// Internal children: `children[i]` covers keys in `[keys[i], keys[i+1])`.
        children: Vec<u64>,
    }

    impl Node {
        /// An empty node; `extra` as in [`Node::extra`].
        fn new(leaf: bool, extra: u64) -> Self {
            Node { leaf, extra, ..Node::default() }
        }

        fn serialized_size(&self) -> usize {
            let payload = payload_len(self.leaf);
            HEADER + self.keys.iter().map(|k| 2 + k.len() + payload).sum::<usize>()
        }

        /// The page image: flag byte, entry count, `extra`, the slot
        /// directory (each entry's end, counted from the first entry's
        /// start), then each key and its payload; zeros after them.
        fn encode(&self) -> Vec<u8> {
            let mut out = Vec::with_capacity(PAGE_SIZE);
            put_u8(&mut out, if self.leaf { LEAF } else { INTERNAL });
            put_u16(&mut out, self.keys.len() as u16);
            put_u64(&mut out, self.extra);
            let mut end = 0;
            for key in &self.keys {
                end += key.len() + payload_len(self.leaf);
                put_u16(&mut out, end as u16);
            }
            for (i, key) in self.keys.iter().enumerate() {
                out.extend_from_slice(key);
                if self.leaf {
                    out.extend_from_slice(&self.rids[i].encode());
                } else {
                    put_u64(&mut out, self.children[i]);
                }
            }
            out.resize(PAGE_SIZE, 0);
            out
        }

        /// Decode a node image slot by slot, each entry sliced from where
        /// the one before it ended — the reference [`NodeView::parse`] must
        /// accept and reject pages with.
        fn decode(buf: &[u8]) -> Result<Self> {
            let bad = || DbError::Corrupted { message: "not a node".into() };
            let header = buf.get(..HEADER).ok_or_else(bad)?;
            let leaf = match header[0] {
                LEAF => true,
                INTERNAL => false,
                _ => return Err(bad()),
            };
            let n = u16::from_le_bytes([header[1], header[2]]) as usize;
            let mut node = Node::new(leaf, u64::from_le_bytes(header[3..].try_into().unwrap()));
            let (heap, mut start) = (HEADER + 2 * n, 0);
            for slot in 0..n {
                let end = buf.get(HEADER + 2 * slot..HEADER + 2 * slot + 2).ok_or_else(bad)?;
                let end = u16::from_le_bytes([end[0], end[1]]) as usize;
                let entry = buf.get(heap + start..heap + end).ok_or_else(bad)?;
                let key_len = entry.len().checked_sub(payload_len(leaf)).ok_or_else(bad)?;
                let (key, payload) = entry.split_at(key_len);
                node.keys.push(key.to_vec());
                if leaf {
                    node.rids.extend(RecordId::decode(payload));
                } else {
                    node.children.push(child_page(payload));
                }
                start = end;
            }
            Ok(node)
        }

        /// Split this overflowing node, just given an entry at index `pos`,
        /// into itself and `right`, to be written as page `right_page`.  A
        /// new last key goes alone to the right (a leaf) or up (an internal
        /// node, whose key before it moves up); every other split is 50/50.
        /// Returns the separator for the parent and `right`.
        fn split(&mut self, pos: usize, right_page: u64) -> (Vec<u8>, Node) {
            let last = self.keys.len() - 1;
            if self.leaf {
                let mid = if pos == last { last } else { self.keys.len() / 2 };
                let mut right = Node::new(true, NONE_PAGE);
                right.keys = self.keys.split_off(mid);
                right.rids = self.rids.split_off(mid);
                right.extra = std::mem::replace(&mut self.extra, right_page);
                return (right.keys[0].clone(), right);
            }
            let mid = if pos == last { last - 1 } else { self.keys.len() / 2 };
            let mut right = Node::new(false, NONE_PAGE);
            right.keys = self.keys.split_off(mid + 1);
            right.children = self.children.split_off(mid + 1);
            right.extra = self.children.pop().expect("mid is a child");
            (self.keys.pop().expect("mid is a key"), right)
        }
    }

    fn setup(pool_pages: usize) -> (BufferPool, BTree) {
        let device = Arc::new(
            DeviceBuilder::new(FlashGeometry::example()).timing(TimingModel::instant()).build(),
        );
        let noftl = Arc::new(NoFtl::new(device, NoFtlConfig::default()));
        let placement = PlacementConfig::traditional(8, ["idx".to_string()]);
        let backend = Arc::new(NoFtlBackend::new(noftl, &placement).unwrap());
        let obj = backend.create_object("idx").unwrap();
        let pool = BufferPool::new(backend, pool_pages);
        (pool, BTree::new(obj))
    }

    fn rid(n: u64) -> RecordId {
        RecordId::new(n, (n % 100) as u16)
    }

    type Pairs = Vec<(Vec<u8>, RecordId)>;

    /// The pairs `BTree::range` hands out, collected.
    fn range(
        tree: &mut BTree,
        pool: &mut BufferPool,
        low: &[u8],
        high: Option<&[u8]>,
        limit: usize,
        t: SimTime,
    ) -> (Pairs, SimTime) {
        let mut pairs = Vec::new();
        let t = tree.range(pool, low, high, limit, t, |k, r| pairs.push((k.to_vec(), r))).unwrap();
        (pairs, t)
    }

    /// The pairs a prefix scan hands out, collected.
    fn prefix_scan(
        tree: &mut BTree,
        pool: &mut BufferPool,
        prefix: &[u8],
        t: SimTime,
    ) -> (Pairs, SimTime) {
        let mut pairs = Vec::new();
        let in_range = |key: &[u8]| key.starts_with(prefix);
        let t =
            tree.scan(pool, prefix, in_range, usize::MAX, t, |k, r| pairs.push((k.to_vec(), r)));
        let t = t.unwrap();
        (pairs, t)
    }

    fn node_at(pool: &mut BufferPool, tree: &BTree, page: u64, t: SimTime) -> Node {
        pool.with_page(tree.obj, page, t, Node::decode).unwrap().0.unwrap()
    }

    /// The tree's depth (1 = a lone leaf) and its leaves in chain order.
    fn shape(pool: &mut BufferPool, tree: &BTree, t: SimTime) -> (u64, Vec<Node>) {
        let root = tree.root;
        let (mut node, mut depth) = (node_at(pool, tree, root, t), 1);
        while !node.leaf {
            node = node_at(pool, tree, node.extra, t);
            depth += 1;
        }
        let mut leaves = vec![node];
        let mut next = leaves[0].extra;
        while next != NONE_PAGE {
            let leaf = node_at(pool, tree, next, t);
            next = leaf.extra;
            leaves.push(leaf);
        }
        (depth, leaves)
    }

    /// Share of the page a node's entries take up.
    fn fill(node: &Node) -> f64 {
        node.serialized_size() as f64 / PAGE_SIZE as f64
    }

    fn shuffle<T>(items: &mut [T], seed: u64) {
        let mut rng = SplitMix64(seed);
        for i in (1..items.len()).rev() {
            items.swap(i, rng.below(i as u64 + 1) as usize);
        }
    }

    #[test]
    fn ascending_inserts_fill_every_leaf_but_the_last() {
        let (mut pool, mut tree) = setup(256);
        let mut t = SimTime::ZERO;
        // Wide keys, so the inner level splits too.
        let key = |i: i64| composite_key(&[i, 0, 0, 0, 0, 0]);
        for i in 0..10_000i64 {
            t = tree.insert(&mut pool, &key(i), rid(i as u64), t).unwrap();
        }
        let (depth, leaves) = shape(&mut pool, &tree, t);
        assert!(depth >= 3, "depth {depth}: the inner level never split");
        for (i, leaf) in leaves[..leaves.len() - 1].iter().enumerate() {
            assert!(fill(leaf) >= 0.95, "leaf {i} of {} is {:.3} full", leaves.len(), fill(leaf));
        }
    }

    #[test]
    fn per_group_appends_fill_the_leaves_they_end() {
        // ORDER-shaped keys (w, d, o) the way TPC-C writes them: the
        // loader fills one district after the other in key order, then
        // the run's districts take turns appending.
        let key = |g: i64, o: i64| composite_key(&[g / 10 + 1, g % 10 + 1, o]);
        let full = |leaves: &[Node]| leaves.iter().all(|l| fill(l) >= 0.95);
        let (mut pool, mut tree) = setup(256);
        let mut t = SimTime::ZERO;
        for g in 0..20 {
            for o in 0..1_000 {
                t = tree.insert(&mut pool, &key(g, o), rid(o as u64), t).unwrap();
            }
        }
        let (_, loaded) = shape(&mut pool, &tree, t);
        assert!(full(&loaded[..loaded.len() - 1]), "a loaded leaf is not full");
        for o in 1_000..1_300 {
            for g in 0..20 {
                t = tree.insert(&mut pool, &key(g, o), rid(o as u64), t).unwrap();
            }
        }
        let (_, leaves) = shape(&mut pool, &tree, t);
        // The last district appends at the end of the tree, from the
        // leaf its load ended in: every leaf but its open one is full.
        let last = leaves.iter().position(|l| l.keys.contains(&key(19, 999))).unwrap();
        assert!(full(&leaves[last..leaves.len() - 1]), "the last district's leaves are not full");
        // Most other districts' tails share a leaf with the next
        // district's head, so their appends are not the leaf's last key
        // and split 50/50, as every split did before: no fuller, but,
        // apart from each district's open leaf, no emptier either.
        let open = |l: &&Node| (0..20).any(|g| l.keys.contains(&key(g, 1_299)));
        let least = leaves.iter().filter(|l| !open(l)).map(fill).fold(1.0, f64::min);
        assert!(least >= 0.5, "a leaf is {least:.3} full");
    }

    #[test]
    fn shuffled_inserts_cost_no_more_pages_than_even_splits() {
        // A random key is the last of its leaf about once per leaf's
        // worth of inserts; that split leaves a full page, which splits
        // 50/50 on its next insert.
        let mut pages = 0;
        for seed in 1..=5 {
            let (mut pool, mut tree) = setup(256);
            let mut keys: Vec<i64> = (0..20_000).collect();
            shuffle(&mut keys, seed);
            let mut t = SimTime::ZERO;
            for k in keys {
                t = tree.insert(&mut pool, &composite_key(&[k]), rid(k as u64), t).unwrap();
            }
            pages += tree.page_count();
        }
        // With every split 50/50 (before PR 25) the same inserts took
        // 130, 131, 133, 135 and 134 pages.
        const EVEN_SPLIT_PAGES: u64 = 663;
        assert!(pages * 100 <= EVEN_SPLIT_PAGES * 102, "{pages} pages against {EVEN_SPLIT_PAGES}");
    }

    #[test]
    fn empty_tree_lookups() {
        let (mut pool, mut tree) = setup(64);
        assert!(tree.is_empty());
        let (found, _) = tree.search(&mut pool, &composite_key(&[1]), SimTime::ZERO).unwrap();
        assert_eq!(found, None);
        let (low, high) = (composite_key(&[0]), composite_key(&[100]));
        let (pairs, _) = range(&mut tree, &mut pool, &low, Some(&high), usize::MAX, SimTime::ZERO);
        assert!(pairs.is_empty());
        let (deleted, _) = tree.delete(&mut pool, &composite_key(&[1]), SimTime::ZERO).unwrap();
        assert!(!deleted);
    }

    #[test]
    fn insert_search_roundtrip_with_splits() {
        let (mut pool, mut tree) = setup(256);
        let mut t = SimTime::ZERO;
        let n = 5_000i64;
        // Insert in a shuffled-ish order to exercise splits on both sides.
        for i in 0..n {
            let k = (i * 2_654_435_761i64).rem_euclid(n);
            t = tree.insert(&mut pool, &composite_key(&[k]), rid(k as u64), t).unwrap();
        }
        assert_eq!(tree.len(), n as u64);
        assert!(tree.page_count() > 1, "tree must have split");
        for i in 0..n {
            let (found, t2) = tree.search(&mut pool, &composite_key(&[i]), t).unwrap();
            t = t2;
            assert_eq!(found, Some(rid(i as u64)), "key {i}");
        }
        // Missing keys are not found.
        let (missing, _) = tree.search(&mut pool, &composite_key(&[n + 10]), t).unwrap();
        assert_eq!(missing, None);
    }

    #[test]
    fn attach_finds_the_root_and_counts_the_entries_from_the_images() {
        let (mut pool, mut tree) = setup(64);
        let mut t = SimTime::ZERO;
        for i in 0..3_000i64 {
            let k = (i * 2_654_435_761i64).rem_euclid(3_000);
            t = tree.insert(&mut pool, &composite_key(&[k]), rid(k as u64), t).unwrap();
        }
        for k in (0..3_000i64).step_by(3) {
            t = tree.delete(&mut pool, &composite_key(&[k]), t).unwrap().1;
        }
        t = pool.flush_all(t).unwrap();
        // A cold pool over the same object, as recovery has.
        let mut cold = BufferPool::new(pool.backend().clone(), 64);
        let (mut attached, t) = BTree::attach(tree.obj, &mut cold, tree.page_count(), t).unwrap();
        let shape = |tree: &BTree| (tree.root, tree.page_count, tree.entries);
        assert_eq!(shape(&attached), shape(&tree));
        assert_eq!(attached.len(), 2_000);
        for k in 0..3_000i64 {
            let (found, _) = attached.search(&mut cold, &composite_key(&[k]), t).unwrap();
            assert_eq!(found, (k % 3 != 0).then(|| rid(k as u64)), "key {k}");
        }
    }

    #[test]
    fn upsert_replaces_payload_without_growing() {
        let (mut pool, mut tree) = setup(64);
        let key = composite_key(&[7, 8]);
        let t = tree.insert(&mut pool, &key, rid(1), SimTime::ZERO).unwrap();
        let t = tree.insert(&mut pool, &key, rid(2), t).unwrap();
        assert_eq!(tree.len(), 1);
        let (found, _) = tree.search(&mut pool, &key, t).unwrap();
        assert_eq!(found, Some(rid(2)));
    }

    #[test]
    fn range_scans_return_sorted_results() {
        let (mut pool, mut tree) = setup(256);
        let mut t = SimTime::ZERO;
        for i in 0..2_000i64 {
            t = tree.insert(&mut pool, &composite_key(&[i]), rid(i as u64), t).unwrap();
        }
        let (low, high) = (composite_key(&[100]), composite_key(&[120]));
        let (results, _) = range(&mut tree, &mut pool, &low, Some(&high), usize::MAX, t);
        assert_eq!(results.len(), 20);
        let keys: Vec<i64> = results
            .iter()
            .map(|(k, _)| crate::value::decode_key_int(*k.first_chunk().unwrap()))
            .collect();
        assert_eq!(keys, (100..120).collect::<Vec<_>>());
        assert!(results.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn cold_range_scan_reads_the_pages_it_visits_and_no_other() {
        // Ascending inserts lay the leaf chain out in file order, shuffled
        // ones do not; either way a scan fetches a node when it gets there.
        let orders: [fn(i64) -> i64; 2] = [|i| i, |i| (i * 2_654_435_761i64).rem_euclid(2_000)];
        for order in orders {
            let (mut pool, mut tree) = setup(256);
            let mut t = SimTime::ZERO;
            for i in 0..2_000i64 {
                let k = order(i);
                t = tree.insert(&mut pool, &composite_key(&[k]), rid(k as u64), t).unwrap();
            }
            t = pool.flush_all(t).unwrap();
            assert!(tree.page_count() > 8, "scan must cross several leaves");

            // A range that ends mid-file: reading on past it would show.
            // The walk goes down the inner levels, then along the leaves
            // from the one holding 300 to the one holding 900, where it
            // meets the bound.
            let (low, high) = (composite_key(&[300]), composite_key(&[900]));
            let (depth, leaves) = shape(&mut pool, &tree, t);
            let leaf_of = |key: &Vec<u8>| leaves.iter().position(|l| l.keys.contains(key)).unwrap();
            let expected = depth - 1 + (leaf_of(&high) - leaf_of(&low) + 1) as u64;
            assert!(expected < tree.page_count(), "the range covers the whole tree");
            let visits_before = pool.stats().logical_reads;
            let (warm_rows, _) = range(&mut tree, &mut pool, &low, Some(&high), usize::MAX, t);
            // The walk looks at its first leaf a second time.
            let nodes = pool.stats().logical_reads - visits_before - 1;

            // A cold pool over the same backing object.
            let mut cold = BufferPool::new(pool.backend().clone(), 256);
            let reads_before = cold.backend().io_counts().0;
            let (cold_rows, _) = range(&mut tree, &mut cold, &low, Some(&high), usize::MAX, t);
            assert_eq!(warm_rows.len(), 600);
            assert_eq!(warm_rows, cold_rows);
            assert_eq!(nodes, expected, "{nodes} nodes visited of {}", tree.page_count());
            assert_eq!(cold.backend().io_counts().0 - reads_before, nodes);
            assert_eq!(cold.stats().misses, nodes);
        }
    }

    #[test]
    fn prefix_scan_composite_keys() {
        let (mut pool, mut tree) = setup(256);
        let mut t = SimTime::ZERO;
        // Keys (warehouse, district, order): scan one district.
        for w in 1..=2i64 {
            for d in 1..=3i64 {
                for o in 1..=50i64 {
                    t = tree
                        .insert(
                            &mut pool,
                            &composite_key(&[w, d, o]),
                            rid((w * 1000 + d * 100 + o) as u64),
                            t,
                        )
                        .unwrap();
                }
            }
        }
        let (results, _) = prefix_scan(&mut tree, &mut pool, &composite_key(&[1, 2]), t);
        assert_eq!(results.len(), 50);
        for (k, _) in &results {
            assert_eq!(crate::value::decode_key_int(k[0..8].try_into().unwrap()), 1);
            assert_eq!(crate::value::decode_key_int(k[8..16].try_into().unwrap()), 2);
        }
    }

    #[test]
    fn delete_removes_entries() {
        let (mut pool, mut tree) = setup(256);
        let mut t = SimTime::ZERO;
        for i in 0..500i64 {
            t = tree.insert(&mut pool, &composite_key(&[i]), rid(i as u64), t).unwrap();
        }
        for i in (0..500i64).step_by(2) {
            let (deleted, t2) = tree.delete(&mut pool, &composite_key(&[i]), t).unwrap();
            t = t2;
            assert!(deleted);
        }
        assert_eq!(tree.len(), 250);
        for i in 0..500i64 {
            let (found, t2) = tree.search(&mut pool, &composite_key(&[i]), t).unwrap();
            t = t2;
            assert_eq!(found.is_some(), i % 2 == 1, "key {i}");
        }
    }

    #[test]
    fn oversized_keys_are_rejected() {
        let (mut pool, mut tree) = setup(64);
        let huge = vec![1u8; PAGE_SIZE];
        assert!(tree.insert(&mut pool, &huge, rid(0), SimTime::ZERO).is_err());
        assert!(tree.insert(&mut pool, &[], rid(0), SimTime::ZERO).is_err());
    }

    #[test]
    fn works_under_buffer_pressure() {
        // A tiny pool forces every level of the tree to be re-read from
        // flash constantly; correctness must not depend on caching.
        let (mut pool, mut tree) = setup(4);
        let mut t = SimTime::ZERO;
        for i in 0..800i64 {
            t = tree.insert(&mut pool, &composite_key(&[i]), rid(i as u64), t).unwrap();
        }
        for i in 0..800i64 {
            let (found, t2) = tree.search(&mut pool, &composite_key(&[i]), t).unwrap();
            t = t2;
            assert_eq!(found, Some(rid(i as u64)));
        }
        assert!(pool.stats().evictions > 0);
    }

    /// `Node::decode` and `NodeView::parse` must accept or reject `buf`
    /// together and, when they accept, hold the same entries; on a
    /// well-ordered node `search` / `child_for` must agree for every probe.
    fn assert_view_matches_node(buf: &[u8], probes: &[Vec<u8>]) {
        let (node, view) = match (Node::decode(buf), NodeView::parse(buf)) {
            (Err(_), Err(_)) => return,
            (Ok(node), Ok(view)) => (node, view),
            (node, view) => panic!(
                "decode {} but parse {} a {}-byte image",
                if node.is_ok() { "accepts" } else { "rejects" },
                if view.is_ok() { "accepts" } else { "rejects" },
                buf.len()
            ),
        };
        assert_eq!((node.leaf, node.extra, node.keys.len()), (view.leaf, view.extra, view.n));
        let keys = node.keys.iter().map(Vec::as_slice);
        if node.leaf {
            let scanned: Vec<_> = view.rids(0).collect();
            assert_eq!(scanned, keys.zip(node.rids.iter().copied()).collect::<Vec<_>>());
        } else {
            let children: Vec<_> =
                view.iter(0).map(|(k, c)| (k, u64::from_le_bytes(c.try_into().unwrap()))).collect();
            assert_eq!(children, keys.zip(node.children.iter().copied()).collect::<Vec<_>>());
        }
        if !node.keys.windows(2).all(|w| w[0] < w[1]) {
            return; // a corrupted length re-framed the keys out of order
        }
        for probe in probes.iter().chain(&node.keys) {
            if node.leaf {
                let owned = node.keys.binary_search(probe).ok().map(|pos| node.rids[pos]);
                assert_eq!(view.search(probe), owned);
            } else {
                let below = node.keys.partition_point(|k| k <= probe);
                let child = below.checked_sub(1).map_or(node.extra, |i| node.children[i]);
                assert_eq!(view.child_for(probe), child);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        /// The borrowed view is the owned node: same answers as a
        /// `BTreeMap` model on intact images, same verdict as
        /// `Node::decode` on every truncation, on every flag byte and on
        /// every corrupted length field (entry count and each directory
        /// slot).
        #[test]
        fn node_view_agrees_with_node_decode_and_the_model(
            leaf in any::<bool>(),
            extra in any::<u64>(),
            entries in prop::collection::vec(
                (prop::collection::vec(any::<u8>(), 1..40), any::<u64>()), 0..200),
            probes in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..40), 1..12),
        ) {
            // 0..max entries: keep what fits one page.
            let mut model = std::collections::BTreeMap::new();
            let mut node = Node::new(leaf, extra);
            let mut size = HEADER;
            for (key, payload) in entries {
                let entry = 2 + key.len() + payload_len(leaf);
                if size + entry <= PAGE_SIZE && !model.contains_key(&key) {
                    size += entry;
                    model.insert(key, payload);
                }
            }
            for (key, payload) in &model {
                node.keys.push(key.clone());
                if leaf {
                    node.rids.push(rid(*payload));
                } else {
                    node.children.push(*payload);
                }
            }
            prop_assert_eq!(node.serialized_size(), size);
            let image = node.encode();

            // Intact image: the view answers like the model.
            let view = NodeView::parse(&image).unwrap();
            for probe in probes.iter().chain(model.keys()) {
                if leaf {
                    prop_assert_eq!(view.search(probe), model.get(probe).map(|p| rid(*p)));
                } else {
                    let below = model.range::<Vec<u8>, _>(..=probe).next_back();
                    prop_assert_eq!(view.child_for(probe), below.map_or(extra, |(_, c)| *c));
                }
            }
            assert_view_matches_node(&image, &probes);

            // Every truncation (past the entries the image is zero padding).
            for len in 0..(node.serialized_size() + 2).min(PAGE_SIZE) {
                assert_view_matches_node(&image[..len], &probes);
            }
            // The flag byte: the key-length layout's 0 and 1 are refused.
            for flag in [0, 1, INTERNAL, LEAF, 0xFF] {
                let mut corrupt = image.clone();
                corrupt[0] = flag;
                assert_view_matches_node(&corrupt, &probes);
            }
            // The entry count and every directory slot, nudged and maxed.
            let slots = (0..node.keys.len()).map(|slot| HEADER + 2 * slot);
            for field in std::iter::once(1).chain(slots) {
                let stored = u16::from_le_bytes(image[field..field + 2].try_into().unwrap());
                for bad in [stored.wrapping_add(1), stored.wrapping_sub(1), 0, u16::MAX] {
                    let mut corrupt = image.clone();
                    corrupt[field..field + 2].copy_from_slice(&bad.to_le_bytes());
                    assert_view_matches_node(&corrupt, &probes);
                }
            }
        }
    }

    /// A node of sorted, distinct random keys of 1 to `max_len` bytes,
    /// `count` of them or as many as fit one page, and its image.
    fn random_node(leaf: bool, count: usize, max_len: u64, rng: &mut SplitMix64) -> Node {
        let mut keys = std::collections::BTreeSet::new();
        let mut size = HEADER;
        while keys.len() < count {
            let key: Vec<u8> = (0..=rng.below(max_len)).map(|_| rng.next_u64() as u8).collect();
            let entry = 2 + key.len() + payload_len(leaf);
            if size + entry > PAGE_SIZE {
                break;
            }
            size += if keys.insert(key) { entry } else { 0 };
        }
        let mut node = Node::new(leaf, rng.next_u64());
        node.rids = (0..keys.len()).map(|_| rid(rng.next_u64())).collect();
        node.children = (0..keys.len()).map(|_| rng.next_u64()).collect();
        node.keys = keys.into_iter().collect();
        node
    }

    /// Probes below, equal to, between and above every key of `node`.
    fn probes(node: &Node) -> Vec<Vec<u8>> {
        let mut probes = vec![Vec::new(), vec![0xFF; 65]];
        for key in &node.keys {
            let mut below = key.clone();
            below.pop();
            let mut above = key.clone();
            above.push(0);
            probes.extend([key.clone(), below, above]);
        }
        probes
    }

    proptest! {
        /// The binary searches answer what a linear scan over the entries
        /// answers: `seek` the first entry `>= key`, `search` the entry
        /// `== key`, `child_for` the child of the last separator `<= key`
        /// — for leaves and internal nodes of 0 entries up to a full page.
        #[test]
        fn binary_searches_match_a_linear_scan(
            leaf in any::<bool>(),
            count in 0usize..400,
            short in any::<bool>(),
            seed in any::<u64>(),
        ) {
            let mut rng = SplitMix64(seed);
            let node = random_node(leaf, count, if short { 4 } else { 64 }, &mut rng);
            let image = node.encode();
            let view = NodeView::parse(&image).unwrap();
            for probe in probes(&node) {
                let probe = &probe[..];
                let pos = view.iter(0).position(|(k, _)| k >= probe).unwrap_or(view.n);
                let found = pos < view.n && view.entry(pos).0 == probe;
                prop_assert_eq!(view.seek(probe), (pos, found));
                if leaf {
                    let linear = view.rids(0).find(|(k, _)| *k == probe).map(|(_, r)| r);
                    prop_assert_eq!(view.search(probe), linear);
                } else {
                    let below = view.iter(0).take_while(|(k, _)| *k <= probe).last();
                    prop_assert_eq!(view.child_for(probe), below.map_or(view.extra, |(_, c)| child_page(c)));
                }
            }
        }
    }

    #[test]
    fn a_lookup_in_a_full_node_compares_at_most_log2_n_plus_one_keys() {
        for leaf in [true, false] {
            // 4-byte keys up to the last byte that takes one.
            let n = (PAGE_SIZE - HEADER) / (2 + 4 + payload_len(leaf));
            let mut node = Node::new(leaf, 0);
            node.keys = (0..n as u32).map(|rank| (2 * rank + 1).to_be_bytes().to_vec()).collect();
            node.rids = (0..n as u64).map(rid).collect();
            node.children = (0..n as u64).collect();
            let image = node.encode();
            let view = NodeView::parse(&image).unwrap();
            // ⌈log2(n + 1)⌉, plus one.
            let bound = (usize::BITS - view.n.leading_zeros()) as usize + 1;
            for probe in probes(&node) {
                COMPARES.set(0);
                if leaf {
                    view.search(&probe);
                } else {
                    view.child_for(&probe);
                }
                let compares = COMPARES.get();
                assert!(compares <= bound, "{compares} compares among {} keys", view.n);
            }
        }
    }

    /// The image the key-length layout wrote for `node`: a flag byte of 0
    /// or 1, then each key behind its `u16` length and its payload.
    fn key_length_image(node: &Node) -> Vec<u8> {
        let mut out = vec![u8::from(node.leaf)];
        put_u16(&mut out, node.keys.len() as u16);
        put_u64(&mut out, node.extra);
        for (i, key) in node.keys.iter().enumerate() {
            flash_sim::codec::put_bytes16(&mut out, key);
            match node.leaf {
                true => out.extend_from_slice(&node.rids[i].encode()),
                false => put_u64(&mut out, node.children[i]),
            }
        }
        out.resize(PAGE_SIZE, 0);
        out
    }

    #[test]
    fn a_page_in_the_key_length_layout_is_refused_and_never_searched() {
        let corrupted = |r: Result<_>| matches!(r, Err(DbError::Corrupted { .. }));
        let mut rng = SplitMix64(11);
        // An empty node's bytes differ from the new layout's in the flag
        // byte alone.
        for (leaf, count) in [(true, 0), (false, 0), (true, 50), (false, 50)] {
            let node = random_node(leaf, count, 16, &mut rng);
            let old = key_length_image(&node);
            assert!(corrupted(NodeView::parse(&old).map(drop)));
            assert!(corrupted(Node::decode(&old).map(drop)));
            // The old page as a tree's root: every operation refuses it.
            let (mut pool, mut tree) = setup(16);
            let (one, two) = (composite_key(&[1]), composite_key(&[2]));
            let t = tree.insert(&mut pool, &one, rid(1), SimTime::ZERO).unwrap();
            let t = pool.write_page(tree.obj, tree.root, &old, t).unwrap();
            COMPARES.set(0);
            assert!(corrupted(tree.search(&mut pool, &one, t).map(drop)));
            assert!(corrupted(tree.insert(&mut pool, &two, rid(2), t).map(drop)));
            assert!(corrupted(tree.delete(&mut pool, &one, t).map(drop)));
            assert!(corrupted(tree.range(&mut pool, &[], None, 1, t, |_, _| {}).map(drop)));
            assert_eq!(COMPARES.get(), 0, "a refused page was searched");
        }
    }

    /// One in-place leaf edit against its reference, `Node::decode → edit
    /// → Node::encode`: the same page bytes, a page `NodeView::parse`
    /// accepts, and `Full` exactly when the edited node overflows.  A
    /// full leaf is then split 50/50 as the tree would, and the left half
    /// goes on.  `insert == None` deletes `key`.
    fn edit_matches_reference(page: &mut Vec<u8>, key: &[u8], insert: Option<RecordId>) {
        let before = page.clone();
        let mut reference = Node::decode(page).unwrap();
        let found = reference.keys.binary_search_by(|k| k.as_slice().cmp(key));
        match (insert, found) {
            (Some(rid), Ok(i)) => reference.rids[i] = rid,
            (Some(rid), Err(i)) => {
                reference.keys.insert(i, key.to_vec());
                reference.rids.insert(i, rid);
            }
            (None, Ok(i)) => {
                reference.keys.remove(i);
                reference.rids.remove(i);
            }
            (None, Err(_)) => {}
        }
        match insert {
            Some(rid) => match insert_in_leaf(page, key, rid).unwrap() {
                LeafInsert::Full(pos) => {
                    assert!(
                        reference.serialized_size() > PAGE_SIZE,
                        "a {}-byte key fits",
                        key.len()
                    );
                    assert_eq!(page.as_slice(), &before[..]);
                    assert_eq!(Err(pos), found);
                    reference.keys.truncate(reference.keys.len() / 2);
                    reference.rids.truncate(reference.keys.len());
                    *page = reference.encode();
                }
                outcome => {
                    assert!(
                        reference.serialized_size() <= PAGE_SIZE,
                        "a {}-byte key overflows",
                        key.len()
                    );
                    assert_eq!(matches!(outcome, LeafInsert::Upserted), found.is_ok());
                }
            },
            None => assert_eq!(delete_from_leaf(page, key).unwrap(), found.is_ok()),
        }
        assert_eq!(page.as_slice(), reference.encode(), "edit of a {}-byte key differs", key.len());
        assert!(NodeView::parse(page).is_ok());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        /// In-place leaf inserts, upserts, deletes of absent and present
        /// keys and splits write exactly the bytes the decode → edit →
        /// encode path writes — including the zeroed tail a delete
        /// leaves and entries that fill the page to its last byte.
        #[test]
        fn in_place_leaf_edits_equal_decode_edit_encode(
            ops in prop::collection::vec(
                (0u8..4, prop::collection::vec(any::<u8>(), 1..60), any::<u64>()), 1..400),
        ) {
            let mut page = Node::new(true, NONE_PAGE).encode();
            for (op, key, n) in ops {
                let keys = Node::decode(&page).unwrap().keys;
                let present = (!keys.is_empty()).then(|| keys[n as usize % keys.len()].clone());
                match (op, present) {
                    // A new (or, by chance, present) key.
                    (0, _) => edit_matches_reference(&mut page, &key, Some(rid(n))),
                    (1, Some(key)) => edit_matches_reference(&mut page, &key, Some(rid(n))),
                    (2, _) => edit_matches_reference(&mut page, &key, None),
                    (3, Some(key)) => edit_matches_reference(&mut page, &key, None),
                    _ => {}
                }
                // Top the leaf up to its last byte with one absent key.
                let end = NodeView::parse(&page).unwrap().used();
                if n % 5 == 0 && PAGE_SIZE - end >= 2 + 1 + 10 {
                    let mut filler = vec![0xFF; PAGE_SIZE - end - 12];
                    while Node::decode(&page).unwrap().keys.contains(&filler) {
                        *filler.last_mut().unwrap() -= 1;
                    }
                    edit_matches_reference(&mut page, &filler, Some(rid(n)));
                    prop_assert_eq!(NodeView::parse(&page).unwrap().used(), PAGE_SIZE);
                }
            }
        }
    }

    /// The longest key [`BTree::insert`] takes.
    const MAX_KEY: usize = PAGE_SIZE / 4 - 12 - HEADER;

    /// Key `rank` of a drawn node: the rank big-endian, so keys sort by
    /// it whatever follows, then `tail` bytes up to a `len`-byte key.
    fn ranked_key(rank: u32, len: usize, rng: &mut SplitMix64) -> Vec<u8> {
        let mut key = rank.to_be_bytes().to_vec();
        key.extend((4..len).map(|_| rng.next_u64() as u8));
        key
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        /// A split writes, from the node's image and the entry it is given,
        /// exactly the halves and separator of `Node::decode → insert →
        /// split → encode`, at every position of the new entry (first and
        /// last included, so both the rightmost rule and the 50/50 rule
        /// fire), for leaves and internal nodes with keys of one length or
        /// of many, up to the longest key an insert takes.  A parent
        /// widened by the entry is `Node::decode → insert → encode` too.
        #[test]
        fn decode_free_splits_equal_decode_insert_split_encode(
            leaf in any::<bool>(),
            fixed in any::<bool>(),
            seed in any::<u64>(),
        ) {
            let mut rng = SplitMix64(seed);
            let fixed_len = 4 + rng.below(MAX_KEY as u64 - 3) as usize;
            // Mostly short keys of many lengths, now and then a long one.
            let key_len = |rng: &mut SplitMix64| match (fixed, rng.below(4)) {
                (true, _) => fixed_len,
                (false, 0) => 4 + rng.below(MAX_KEY as u64 - 3) as usize,
                (false, _) => 4 + rng.below(40) as usize,
            };
            let payload = |rank: u32| match leaf {
                true => rid(u64::from(rank)).encode().to_vec(),
                false => (u64::from(rank) * 7).to_le_bytes().to_vec(),
            };
            // Even ranks fill the node until the next entry overflows it.
            let mut node = Node::new(leaf, rng.next_u64());
            loop {
                let key = ranked_key(2 * node.keys.len() as u32 + 2, key_len(&mut rng), &mut rng);
                if node.serialized_size() + 2 + key.len() + payload_len(leaf) > PAGE_SIZE {
                    break;
                }
                if leaf {
                    node.rids.push(rid(u64::from(2 * node.keys.len() as u32 + 2)));
                } else {
                    node.children.push(u64::from(2 * node.keys.len() as u32 + 2) * 7);
                }
                node.keys.push(key);
            }
            let (n, image) = (node.keys.len(), node.encode());
            let free = PAGE_SIZE - node.serialized_size();
            let right_page = rng.next_u64();
            let (mut halves, mut sep) = (<[Vec<u8>; 2]>::default(), Vec::new());
            let mut rules = [false; 2];
            for pos in 0..=n {
                // An odd rank sorts between the even ones; long enough
                // to overflow the page.
                let least = (free + 1).saturating_sub(2 + payload_len(leaf)).max(4);
                let len = match fixed {
                    true => fixed_len,
                    false => least + rng.below((MAX_KEY - least) as u64 + 1) as usize,
                };
                let key = ranked_key(2 * pos as u32 + 1, len, &mut rng);
                let value = payload(2 * pos as u32 + 1);
                let mut reference = node.clone();
                reference.keys.insert(pos, key.clone());
                if leaf {
                    reference.rids.insert(pos, RecordId::decode(&value).unwrap());
                } else {
                    reference.children.insert(pos, child_page(&value));
                }
                prop_assert!(reference.serialized_size() > PAGE_SIZE);
                let (expected_sep, right) = reference.split(pos, right_page);
                let view = NodeView::parse(&image).unwrap();
                split_node(view, pos, (&key, &value), right_page, &mut halves, &mut sep).unwrap();
                prop_assert_eq!(&sep, &expected_sep, "separator, entry {} of {}", pos, n + 1);
                prop_assert_eq!(&halves[0], &reference.encode(), "left half, entry {}", pos);
                prop_assert_eq!(&halves[1], &right.encode(), "right half, entry {}", pos);
                rules[usize::from(pos == n)] = true;

                // The first half of the node takes a short entry as it is.
                let mut widened = node.clone();
                widened.keys.truncate(n / 2);
                widened.rids.truncate(n / 2);
                widened.children.truncate(n / 2);
                let at = pos.min(n / 2);
                let short = ranked_key(2 * at as u32 + 1, 4 + rng.below(8) as usize, &mut rng);
                let half = widened.encode();
                widened.keys.insert(at, short.clone());
                if leaf {
                    widened.rids.insert(at, RecordId::decode(&value).unwrap());
                } else {
                    widened.children.insert(at, child_page(&value));
                }
                let view = NodeView::parse(&half).unwrap();
                encode_node(&mut sep, leaf, view.extra, view.n + 1, view.with(at, (&short, &value)));
                prop_assert_eq!(&sep, &widened.encode(), "widened node, entry {}", at);
            }
            prop_assert_eq!(rules, [true, true]);
        }
    }

    /// The high bound a prefix scan used to compute: the least key above
    /// every key with the prefix (`None`: there is none).
    fn successor(prefix: &[u8]) -> Option<Vec<u8>> {
        let mut high = prefix.to_vec();
        while let Some(b) = high.pop() {
            if b < 0xFF {
                high.push(b + 1);
                return Some(high);
            }
        }
        None
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        /// A prefix scan stops at the first key without the prefix: the
        /// pairs, and the nodes read, of a range scan up to the prefix's
        /// successor — also for prefixes of 0xFF bytes and the empty one.
        #[test]
        fn prefix_scans_read_what_their_successor_bound_read(
            keys in prop::collection::vec(prop::collection::vec(0u8..4, 1..6), 1..600),
            prefixes in prop::collection::vec(prop::collection::vec(0u8..4, 0..4), 1..8),
        ) {
            let bytes = |k: &[u8]| -> Vec<u8> { k.iter().map(|b| [0x00, 0x01, 0xFE, 0xFF][*b as usize]).collect() };
            let (mut pool, mut tree) = setup(64);
            let mut model = std::collections::BTreeMap::new();
            let mut t = SimTime::ZERO;
            for (i, key) in keys.iter().enumerate() {
                t = tree.insert(&mut pool, &bytes(key), rid(i as u64), t).unwrap();
                model.insert(bytes(key), rid(i as u64));
            }
            for prefix in prefixes.iter().map(|p| bytes(p)) {
                let reads = pool.stats().logical_reads;
                let (scanned, _) = prefix_scan(&mut tree, &mut pool, &prefix, t);
                let reads = pool.stats().logical_reads - reads;
                let bounded_reads = pool.stats().logical_reads;
                let high = successor(&prefix);
                let (bounded, _) = range(&mut tree, &mut pool, &prefix, high.as_deref(), usize::MAX, t);
                prop_assert_eq!(pool.stats().logical_reads - bounded_reads, reads);
                prop_assert_eq!(&scanned, &bounded);
                let expected: Pairs =
                    model.iter().filter(|(k, _)| k.starts_with(&prefix)).map(|(k, r)| (k.clone(), *r)).collect();
                prop_assert_eq!(scanned, expected);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        /// The tree behaves like a sorted map for arbitrary insert/delete
        /// interleavings.
        #[test]
        fn behaves_like_btreemap(ops in prop::collection::vec((0i64..300, any::<bool>()), 1..400)) {
            let (mut pool, mut tree) = setup(128);
            let mut model = std::collections::BTreeMap::new();
            let mut t = SimTime::ZERO;
            for (i, (k, is_insert)) in ops.iter().enumerate() {
                let key = composite_key(&[*k]);
                if *is_insert {
                    let r = rid(i as u64);
                    t = tree.insert(&mut pool, &key, r, t).unwrap();
                    model.insert(*k, r);
                } else {
                    let (deleted, t2) = tree.delete(&mut pool, &key, t).unwrap();
                    t = t2;
                    prop_assert_eq!(deleted, model.remove(k).is_some());
                }
            }
            prop_assert_eq!(tree.len(), model.len() as u64);
            for (k, r) in &model {
                let (found, t2) = tree.search(&mut pool, &composite_key(&[*k]), t).unwrap();
                t = t2;
                prop_assert_eq!(found, Some(*r));
            }
            // A full range scan returns exactly the model's keys in order.
            let (low, high) = (composite_key(&[-1]), composite_key(&[301]));
            let (all, _) = range(&mut tree, &mut pool, &low, Some(&high), usize::MAX, t);
            let scanned: Vec<i64> = all.iter().map(|(k, _)| crate::value::decode_key_int(*k.first_chunk().unwrap())).collect();
            let expected: Vec<i64> = model.keys().copied().collect();
            prop_assert_eq!(scanned, expected);
        }

        /// Whatever order the keys come in — ascending (every split an
        /// append), descending, shuffled, or appends taking turns across
        /// groups — with upserts mixed in, every key is found and every
        /// scan returns its keys in order, up to its bound or its limit.
        #[test]
        fn every_insert_order_keeps_keys_found_and_scans_ordered(
            order in 0u8..4,
            n in 1i64..1_500,
            groups in 1i64..6,
            seed in any::<u64>(),
            upsert_every in 1usize..20,
            limit in 0usize..1_600,
        ) {
            // (group, sequence) in per-group append order.
            let mut keys: Vec<(i64, i64)> = (0..n).map(|i| (i % groups, i / groups)).collect();
            match order {
                0 => keys.sort(),
                1 => keys.sort_by(|a, b| b.cmp(a)),
                2 => shuffle(&mut keys, seed),
                _ => {}
            }
            let (mut pool, mut tree) = setup(64);
            let mut model = std::collections::BTreeMap::new();
            let (mut t, mut rng) = (SimTime::ZERO, SplitMix64(seed));
            for (i, &(g, s)) in keys.iter().enumerate() {
                let mut put = |g: i64, s: i64, payload: u64| {
                    t = tree.insert(&mut pool, &composite_key(&[g, s]), rid(payload), t).unwrap();
                    model.insert((g, s), rid(payload));
                };
                put(g, s, i as u64);
                if i % upsert_every == 0 {
                    // Overwrite a key already in the tree.
                    let (g, s) = keys[rng.below(i as u64 + 1) as usize];
                    put(g, s, n as u64 + i as u64);
                }
            }
            prop_assert_eq!(tree.len(), model.len() as u64);
            for ((g, s), r) in &model {
                let (found, t2) = tree.search(&mut pool, &composite_key(&[*g, *s]), t).unwrap();
                t = t2;
                prop_assert_eq!(found, Some(*r));
            }
            let decode = |rows: &[(Vec<u8>, RecordId)]| -> Vec<((i64, i64), RecordId)> {
                rows.iter()
                    .map(|(k, r)| {
                        let col = |c: usize| crate::value::decode_key_int(k[8 * c..8 * c + 8].try_into().unwrap());
                        ((col(0), col(1)), *r)
                    })
                    .collect()
            };
            // The model's pairs of groups `from..to`.
            let groups_of = |from: i64, to: i64| -> Vec<((i64, i64), RecordId)> {
                model.range((from, i64::MIN)..(to, i64::MIN)).map(|(k, r)| (*k, *r)).collect()
            };
            let first = |mut rows: Vec<_>| {
                rows.truncate(limit);
                rows
            };
            let (low, high) = (composite_key(&[0]), composite_key(&[groups]));
            let (all, t2) = range(&mut tree, &mut pool, &low, Some(&high), usize::MAX, t);
            t = t2;
            prop_assert_eq!(decode(&all), groups_of(0, groups));
            let (rows, t2) = range(&mut tree, &mut pool, &low, Some(&high), limit, t);
            t = t2;
            prop_assert_eq!(decode(&rows), first(groups_of(0, groups)));
            // No upper bound: only the limit stops the walk.
            let middle = composite_key(&[groups / 2]);
            let (rows, t2) = range(&mut tree, &mut pool, &middle, None, limit, t);
            t = t2;
            prop_assert_eq!(decode(&rows), first(groups_of(groups / 2, groups)));
            for g in 0..groups {
                let (rows, t2) = prefix_scan(&mut tree, &mut pool, &composite_key(&[g]), t);
                t = t2;
                prop_assert_eq!(decode(&rows), groups_of(g, g + 1));
            }
        }
    }
}

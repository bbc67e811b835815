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

use std::ops::ControlFlow;

use parking_lot::Mutex;

use flash_sim::SimTime;

use crate::buffer::BufferPool;
use crate::error::DbError;
use crate::heap::RecordId;
use crate::storage::ObjectId;
use crate::Result;
use crate::PAGE_SIZE;

const NONE_PAGE: u64 = u64::MAX;
const HEADER: usize = 1 + 2 + 8;

/// Bytes after an entry's key: a record id in a leaf, a child page in an
/// internal node.
const fn payload_len(leaf: bool) -> usize {
    if leaf {
        10
    } else {
        8
    }
}

#[derive(Debug, Clone)]
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
    fn new_leaf() -> Self {
        Node {
            leaf: true,
            extra: NONE_PAGE,
            keys: Vec::new(),
            rids: Vec::new(),
            children: Vec::new(),
        }
    }

    fn new_internal(first_child: u64) -> Self {
        Node {
            leaf: false,
            extra: first_child,
            keys: Vec::new(),
            rids: Vec::new(),
            children: Vec::new(),
        }
    }

    fn serialized_size(&self) -> usize {
        let payload = payload_len(self.leaf);
        HEADER + self.keys.iter().map(|k| 2 + k.len() + payload).sum::<usize>()
    }

    fn encode(&self) -> Vec<u8> {
        let mut out = vec![0u8; PAGE_SIZE];
        out[0] = u8::from(self.leaf);
        out[1..3].copy_from_slice(&(self.keys.len() as u16).to_le_bytes());
        out[3..11].copy_from_slice(&self.extra.to_le_bytes());
        let mut off = HEADER;
        for (i, key) in self.keys.iter().enumerate() {
            out[off..off + 2].copy_from_slice(&(key.len() as u16).to_le_bytes());
            off += 2;
            out[off..off + key.len()].copy_from_slice(key);
            off += key.len();
            if self.leaf {
                out[off..off + 10].copy_from_slice(&self.rids[i].encode());
                off += 10;
            } else {
                out[off..off + 8].copy_from_slice(&self.children[i].to_le_bytes());
                off += 8;
            }
        }
        out
    }

    fn decode(buf: &[u8]) -> Result<Self> {
        if buf.len() < HEADER {
            return Err(DbError::Corrupted { message: "B+-tree node too short".into() });
        }
        let leaf = buf[0] != 0;
        let n = u16::from_le_bytes(buf[1..3].try_into().expect("2 bytes")) as usize;
        let extra = u64::from_le_bytes(buf[3..11].try_into().expect("8 bytes"));
        let mut node = Node {
            leaf,
            extra,
            keys: Vec::with_capacity(n),
            rids: Vec::new(),
            children: Vec::new(),
        };
        let mut off = HEADER;
        for _ in 0..n {
            if off + 2 > buf.len() {
                return Err(DbError::Corrupted { message: "truncated B+-tree entry".into() });
            }
            let klen = u16::from_le_bytes(buf[off..off + 2].try_into().expect("2 bytes")) as usize;
            off += 2;
            if off + klen > buf.len() {
                return Err(DbError::Corrupted { message: "truncated B+-tree key".into() });
            }
            node.keys.push(buf[off..off + klen].to_vec());
            off += klen;
            if leaf {
                let rid = RecordId::decode(&buf[off..]).ok_or_else(|| DbError::Corrupted {
                    message: "truncated B+-tree rid".into(),
                })?;
                node.rids.push(rid);
                off += 10;
            } else {
                if off + 8 > buf.len() {
                    return Err(DbError::Corrupted { message: "truncated B+-tree child".into() });
                }
                node.children
                    .push(u64::from_le_bytes(buf[off..off + 8].try_into().expect("8 bytes")));
                off += 8;
            }
        }
        Ok(node)
    }

    /// Index of the child to follow for `key` in an internal node.
    /// Returns the page number.
    fn child_for(&self, key: &[u8]) -> u64 {
        let idx = self.keys.partition_point(|k| k.as_slice() <= key);
        if idx == 0 {
            self.extra
        } else {
            self.children[idx - 1]
        }
    }
}

/// A borrowed view of a serialized node — same on-flash format as
/// [`Node`], nothing decoded ahead of use.  The read-only paths (point
/// lookups, range descents, leaf walks) search the page image where the
/// buffer pool holds it; [`Node`] stays the owned form insert, delete
/// and split work on.
struct NodeView<'a> {
    leaf: bool,
    n: usize,
    /// See [`Node::extra`].
    extra: u64,
    /// The `n` entries, validated by [`NodeView::parse`].
    entries: &'a [u8],
}

impl<'a> NodeView<'a> {
    /// Validate `buf` as a node.  Walks all `n` entries, so it rejects
    /// exactly the images [`Node::decode`] rejects and the accessors
    /// below can slice without checking again.
    fn parse(buf: &'a [u8]) -> Result<Self> {
        if buf.len() < HEADER {
            return Err(DbError::Corrupted { message: "B+-tree node too short".into() });
        }
        let leaf = buf[0] != 0;
        let n = u16::from_le_bytes(buf[1..3].try_into().expect("2 bytes")) as usize;
        let extra = u64::from_le_bytes(buf[3..11].try_into().expect("8 bytes"));
        let entries = &buf[HEADER..];
        let truncated = || DbError::Corrupted { message: "truncated B+-tree entry".into() };
        let mut off = 0usize;
        for _ in 0..n {
            let klen = entries.get(off..off + 2).ok_or_else(truncated)?;
            off += 2
                + u16::from_le_bytes(klen.try_into().expect("2 bytes")) as usize
                + payload_len(leaf);
            if off > entries.len() {
                return Err(truncated());
            }
        }
        Ok(NodeView { leaf, n, extra, entries })
    }

    /// The entries in key order as `(key, payload)`: the payload is the
    /// 10-byte record id in a leaf, the 8-byte child page in an internal
    /// node.
    fn iter(&self) -> impl Iterator<Item = (&'a [u8], &'a [u8])> + '_ {
        let payload = payload_len(self.leaf);
        let mut rest = self.entries;
        (0..self.n).map(move |_| {
            let klen = u16::from_le_bytes(rest[..2].try_into().expect("2 bytes")) as usize;
            let (entry, tail) = rest.split_at(2 + klen + payload);
            rest = tail;
            (&entry[2..2 + klen], &entry[2 + klen..])
        })
    }

    /// Leaf entries as `(key, record id)`.
    fn rids(&self) -> impl Iterator<Item = (&'a [u8], RecordId)> + '_ {
        self.iter().filter_map(|(key, payload)| Some((key, RecordId::decode(payload)?)))
    }

    /// Exact-match lookup in a leaf.
    fn search(&self, key: &[u8]) -> Option<RecordId> {
        self.rids().take_while(|(k, _)| *k <= key).find(|(k, _)| *k == key).map(|(_, rid)| rid)
    }

    /// Page of the child to follow for `key` in an internal node (see
    /// [`Node::child_for`]).
    fn child_for(&self, key: &[u8]) -> u64 {
        self.iter()
            .take_while(|(k, _)| *k <= key)
            .last()
            .map_or(self.extra, |(_, child)| u64::from_le_bytes(child.try_into().expect("8 bytes")))
    }
}

#[derive(Debug)]
struct BTreeInner {
    root: u64,
    page_count: u64,
    entries: u64,
    initialized: bool,
}

/// `(key bytes, record id)` pairs produced by a scan, together with the
/// simulated time at which the scan completed.
pub type ScanResult = (Vec<(Vec<u8>, RecordId)>, SimTime);

/// A B+-tree index over a storage object.
#[derive(Debug)]
pub struct BTree {
    obj: ObjectId,
    inner: Mutex<BTreeInner>,
}

impl BTree {
    /// Create a (lazily initialised) B+-tree over storage object `obj`.
    pub fn new(obj: ObjectId) -> Self {
        BTree {
            obj,
            inner: Mutex::new(BTreeInner {
                root: 0,
                page_count: 1,
                entries: 0,
                initialized: false,
            }),
        }
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
        pool: &BufferPool,
        extent: u64,
        now: SimTime,
    ) -> Result<(BTree, SimTime)> {
        if extent == 0 {
            return Ok((BTree::new(obj), now));
        }
        let mut t = now;
        let mut present: Vec<(u64, Node)> = Vec::new();
        for page_no in 0..extent {
            let Ok((bytes, t_read)) = pool.read_page(obj, page_no, t) else { continue };
            t = t_read;
            if let Ok(node) = Node::decode(&bytes) {
                present.push((page_no, node));
            }
        }
        let mut referenced = std::collections::HashSet::new();
        for (_, node) in &present {
            if !node.leaf {
                referenced.insert(node.extra);
                referenced.extend(node.children.iter().copied());
            }
        }
        let root =
            present.iter().map(|(p, _)| *p).filter(|p| !referenced.contains(p)).max().unwrap_or(0);
        let entries: u64 =
            present.iter().filter(|(_, n)| n.leaf).map(|(_, n)| n.keys.len() as u64).sum();
        Ok((
            BTree {
                obj,
                inner: Mutex::new(BTreeInner {
                    root,
                    page_count: extent,
                    entries,
                    initialized: true,
                }),
            },
            t,
        ))
    }

    /// Number of entries currently in the index.
    pub fn len(&self) -> u64 {
        self.inner.lock().entries
    }

    /// True if the index holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of pages allocated by the index.
    pub fn page_count(&self) -> u64 {
        self.inner.lock().page_count
    }

    fn read_node(&self, pool: &BufferPool, page: u64, now: SimTime) -> Result<(Node, SimTime)> {
        let (bytes, t) = pool.read_page(self.obj, page, now)?;
        Ok((Node::decode(&bytes)?, t))
    }

    /// Lend the node on `page` to `f` without copying or decoding it.
    fn view_node<R>(
        &self,
        pool: &BufferPool,
        page: u64,
        now: SimTime,
        f: impl FnOnce(&NodeView<'_>) -> R,
    ) -> Result<(R, SimTime)> {
        let (viewed, t) =
            pool.with_page(self.obj, page, now, |buf| NodeView::parse(buf).map(|node| f(&node)))?;
        Ok((viewed?, t))
    }

    /// Descend from `root` to the leaf that would contain `key`.
    fn leaf_for(
        &self,
        pool: &BufferPool,
        root: u64,
        key: &[u8],
        now: SimTime,
    ) -> Result<(u64, SimTime)> {
        let (mut page, mut t) = (root, now);
        loop {
            let (child, t2) =
                self.view_node(pool, page, t, |node| (!node.leaf).then(|| node.child_for(key)))?;
            t = t2;
            match child {
                Some(child) => page = child,
                None => return Ok((page, t)),
            }
        }
    }

    /// Walk the leaf chain from `page`, handing every entry to `visit`
    /// in key order until it returns `false` or the chain ends.
    ///
    /// The chain is a pointer chase: the next leaf is only known after
    /// reading the current one, and the walk reads nothing ahead of it.
    /// Readahead by page number would be a guess (the leaves of a tree
    /// grown by random inserts are not in file order), and no workload in
    /// the repo scans far enough for one to pay: TPC-C's scans touch one
    /// or two leaves, the YCSB-style short scans at most 50 rows.
    fn walk_leaves(
        &self,
        pool: &BufferPool,
        mut page: u64,
        now: SimTime,
        mut visit: impl FnMut(&[u8], RecordId) -> bool,
    ) -> Result<SimTime> {
        let mut t = now;
        loop {
            let (next, t2) = self.view_node(pool, page, t, |node| {
                node.rids().all(|(key, rid)| visit(key, rid)).then_some(node.extra)
            })?;
            t = t2;
            match next {
                Some(next) if next != NONE_PAGE => page = next,
                _ => return Ok(t),
            }
        }
    }

    fn write_node(
        &self,
        pool: &BufferPool,
        page: u64,
        node: &Node,
        now: SimTime,
    ) -> Result<SimTime> {
        pool.write_page(self.obj, page, &node.encode(), now)
    }

    fn ensure_init(
        &self,
        inner: &mut BTreeInner,
        pool: &BufferPool,
        now: SimTime,
    ) -> Result<SimTime> {
        if inner.initialized {
            return Ok(now);
        }
        let t = self.write_node(pool, 0, &Node::new_leaf(), now)?;
        inner.initialized = true;
        Ok(t)
    }

    /// Insert (or overwrite) `key` → `rid`.  Returns the completion time.
    pub fn insert(
        &self,
        pool: &BufferPool,
        key: &[u8],
        rid: RecordId,
        now: SimTime,
    ) -> Result<SimTime> {
        if key.is_empty() || key.len() + 12 + HEADER > PAGE_SIZE / 4 {
            return Err(DbError::TooLarge { message: format!("index key of {} bytes", key.len()) });
        }
        let mut inner = self.inner.lock();
        let mut t = self.ensure_init(&mut inner, pool, now)?;
        let root = inner.root;
        let (split, t2, inserted) = self.insert_rec(&mut inner, pool, root, key, rid, t)?;
        t = t2;
        if inserted {
            inner.entries += 1;
        }
        if let Some((sep, right_page)) = split {
            // Grow the tree: new root.
            let new_root_page = inner.page_count;
            inner.page_count += 1;
            let mut new_root = Node::new_internal(inner.root);
            new_root.keys.push(sep);
            new_root.children.push(right_page);
            t = self.write_node(pool, new_root_page, &new_root, t)?;
            inner.root = new_root_page;
        }
        Ok(t)
    }

    #[allow(clippy::type_complexity)]
    fn insert_rec(
        &self,
        inner: &mut BTreeInner,
        pool: &BufferPool,
        page: u64,
        key: &[u8],
        rid: RecordId,
        now: SimTime,
    ) -> Result<(Option<(Vec<u8>, u64)>, SimTime, bool)> {
        let (mut node, mut t) = self.read_node(pool, page, now)?;
        if node.leaf {
            let pos = match node.keys.binary_search_by(|k| k.as_slice().cmp(key)) {
                Ok(pos) => {
                    // Upsert: overwrite the payload.
                    node.rids[pos] = rid;
                    t = self.write_node(pool, page, &node, t)?;
                    return Ok((None, t, false));
                }
                Err(pos) => pos,
            };
            node.keys.insert(pos, key.to_vec());
            node.rids.insert(pos, rid);
            if node.serialized_size() <= PAGE_SIZE {
                t = self.write_node(pool, page, &node, t)?;
                return Ok((None, t, true));
            }
            // Split the leaf where the insert landed: a new last key goes
            // alone to the right, anything else splits 50/50.
            let last = node.keys.len() - 1;
            let mid = if pos == last { last } else { node.keys.len() / 2 };
            let right_page = inner.page_count;
            inner.page_count += 1;
            let mut right = Node::new_leaf();
            right.keys = node.keys.split_off(mid);
            right.rids = node.rids.split_off(mid);
            right.extra = node.extra;
            node.extra = right_page;
            let sep = right.keys[0].clone();
            t = self.write_node(pool, page, &node, t)?;
            t = self.write_node(pool, right_page, &right, t)?;
            return Ok((Some((sep, right_page)), t, true));
        }
        // Internal node: descend.
        let child = node.child_for(key);
        let (split, t2, inserted) = self.insert_rec(inner, pool, child, key, rid, t)?;
        t = t2;
        let Some((sep, new_child)) = split else {
            return Ok((None, t, inserted));
        };
        let pos = node.keys.partition_point(|k| k.as_slice() <= sep.as_slice());
        node.keys.insert(pos, sep);
        node.children.insert(pos, new_child);
        if node.serialized_size() <= PAGE_SIZE {
            t = self.write_node(pool, page, &node, t)?;
            return Ok((None, t, inserted));
        }
        // Split the internal node; the middle key moves up — or, when the
        // new separator is the last one, the key before it, so the right
        // node starts with the one separator and the left keeps the rest.
        let last = node.keys.len() - 1;
        let mid = if pos == last { last - 1 } else { node.keys.len() / 2 };
        let up_key = node.keys[mid].clone();
        let right_page = inner.page_count;
        inner.page_count += 1;
        let mut right = Node::new_internal(node.children[mid]);
        right.keys = node.keys.split_off(mid + 1);
        right.children = node.children.split_off(mid + 1);
        node.keys.pop();
        node.children.pop();
        t = self.write_node(pool, page, &node, t)?;
        t = self.write_node(pool, right_page, &right, t)?;
        Ok((Some((up_key, right_page)), t, inserted))
    }

    /// Exact-match lookup.
    pub fn search(
        &self,
        pool: &BufferPool,
        key: &[u8],
        now: SimTime,
    ) -> Result<(Option<RecordId>, SimTime)> {
        let mut inner = self.inner.lock();
        let mut t = self.ensure_init(&mut inner, pool, now)?;
        let mut page = inner.root;
        loop {
            let (step, t2) = self.view_node(pool, page, t, |node| {
                if node.leaf {
                    ControlFlow::Break(node.search(key))
                } else {
                    ControlFlow::Continue(node.child_for(key))
                }
            })?;
            t = t2;
            match step {
                ControlFlow::Continue(child) => page = child,
                ControlFlow::Break(found) => return Ok((found, t)),
            }
        }
    }

    /// Range scan: the first `limit` `(key, rid)` pairs with
    /// `low <= key < high`, in key order (`high == None`: no upper bound;
    /// `limit == usize::MAX`: no limit).  The walk stops at the high bound
    /// or at `limit` pairs, whichever comes first, and reads nothing for
    /// `limit == 0`.
    pub fn range(
        &self,
        pool: &BufferPool,
        low: &[u8],
        high: Option<&[u8]>,
        limit: usize,
        now: SimTime,
    ) -> Result<ScanResult> {
        let mut inner = self.inner.lock();
        let t = self.ensure_init(&mut inner, pool, now)?;
        let mut out = Vec::new();
        if limit == 0 {
            return Ok((out, t));
        }
        let (leaf, t) = self.leaf_for(pool, inner.root, low, t)?;
        let t = self.walk_leaves(pool, leaf, t, |key, rid| {
            if key < low {
                return true;
            }
            if high.is_some_and(|high| key >= high) {
                return false;
            }
            out.push((key.to_vec(), rid));
            out.len() < limit
        })?;
        Ok((out, t))
    }

    /// Range scan for all keys starting with `prefix`.
    pub fn prefix_scan(
        &self,
        pool: &BufferPool,
        prefix: &[u8],
        now: SimTime,
    ) -> Result<ScanResult> {
        let mut high = prefix.to_vec();
        // Smallest byte string strictly greater than every string with the
        // prefix: increment the last non-0xFF byte and truncate.
        loop {
            match high.last_mut() {
                Some(b) if *b < 0xFF => {
                    *b += 1;
                    break;
                }
                Some(_) => {
                    high.pop();
                }
                None => {
                    // Prefix was all 0xFF (or empty): scan to the end.
                    return self.range(pool, prefix, None, usize::MAX, now);
                }
            }
        }
        self.range(pool, prefix, Some(&high), usize::MAX, now)
    }

    /// Remove `key`.  Returns whether the key existed.
    pub fn delete(&self, pool: &BufferPool, key: &[u8], now: SimTime) -> Result<(bool, SimTime)> {
        let mut inner = self.inner.lock();
        let mut t = self.ensure_init(&mut inner, pool, now)?;
        let mut page = inner.root;
        loop {
            let (mut node, t2) = self.read_node(pool, page, t)?;
            t = t2;
            if node.leaf {
                return match node.keys.binary_search_by(|k| k.as_slice().cmp(key)) {
                    Ok(pos) => {
                        node.keys.remove(pos);
                        node.rids.remove(pos);
                        t = self.write_node(pool, page, &node, t)?;
                        inner.entries = inner.entries.saturating_sub(1);
                        Ok((true, t))
                    }
                    Err(_) => Ok((false, t)),
                };
            }
            page = node.child_for(key);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::{NoFtlBackend, StorageBackend};
    use crate::value::composite_key;
    use flash_sim::{DeviceBuilder, FlashGeometry, TimingModel};
    use noftl_core::{NoFtl, NoFtlConfig, PlacementConfig};
    use proptest::prelude::*;
    use std::sync::Arc;

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

    /// The tree's depth (1 = a lone leaf) and its leaves in chain order.
    fn shape(pool: &BufferPool, tree: &BTree, t: SimTime) -> (u64, Vec<Node>) {
        let root = tree.inner.lock().root;
        let (mut node, mut depth) = (tree.read_node(pool, root, t).unwrap().0, 1);
        while !node.leaf {
            node = tree.read_node(pool, node.extra, t).unwrap().0;
            depth += 1;
        }
        let mut leaves = vec![node];
        let mut next = leaves[0].extra;
        while next != NONE_PAGE {
            let (leaf, _) = tree.read_node(pool, next, t).unwrap();
            next = leaf.extra;
            leaves.push(leaf);
        }
        (depth, leaves)
    }

    /// Share of the page a node's entries take up.
    fn fill(node: &Node) -> f64 {
        node.serialized_size() as f64 / PAGE_SIZE as f64
    }

    /// SplitMix64: a seeded stream for shuffles, no dependency needed.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn shuffle<T>(items: &mut [T], seed: u64) {
        let mut state = seed;
        for i in (1..items.len()).rev() {
            items.swap(i, (splitmix(&mut state) % (i as u64 + 1)) as usize);
        }
    }

    #[test]
    fn ascending_inserts_fill_every_leaf_but_the_last() {
        let (pool, tree) = setup(256);
        let mut t = SimTime::ZERO;
        // Wide keys, so the inner level splits too.
        let key = |i: i64| composite_key(&[i, 0, 0, 0, 0, 0]);
        for i in 0..10_000i64 {
            t = tree.insert(&pool, &key(i), rid(i as u64), t).unwrap();
        }
        let (depth, leaves) = shape(&pool, &tree, t);
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
        let (pool, tree) = setup(256);
        let mut t = SimTime::ZERO;
        for g in 0..20 {
            for o in 0..1_000 {
                t = tree.insert(&pool, &key(g, o), rid(o as u64), t).unwrap();
            }
        }
        let (_, loaded) = shape(&pool, &tree, t);
        assert!(full(&loaded[..loaded.len() - 1]), "a loaded leaf is not full");
        for o in 1_000..1_300 {
            for g in 0..20 {
                t = tree.insert(&pool, &key(g, o), rid(o as u64), t).unwrap();
            }
        }
        let (_, leaves) = shape(&pool, &tree, t);
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
            let (pool, tree) = setup(256);
            let mut keys: Vec<i64> = (0..20_000).collect();
            shuffle(&mut keys, seed);
            let mut t = SimTime::ZERO;
            for k in keys {
                t = tree.insert(&pool, &composite_key(&[k]), rid(k as u64), t).unwrap();
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
        let (pool, tree) = setup(64);
        assert!(tree.is_empty());
        let (found, _) = tree.search(&pool, &composite_key(&[1]), SimTime::ZERO).unwrap();
        assert_eq!(found, None);
        let (low, high) = (composite_key(&[0]), composite_key(&[100]));
        let (range, _) = tree.range(&pool, &low, Some(&high), usize::MAX, SimTime::ZERO).unwrap();
        assert!(range.is_empty());
        let (deleted, _) = tree.delete(&pool, &composite_key(&[1]), SimTime::ZERO).unwrap();
        assert!(!deleted);
    }

    #[test]
    fn insert_search_roundtrip_with_splits() {
        let (pool, tree) = setup(256);
        let mut t = SimTime::ZERO;
        let n = 5_000i64;
        // Insert in a shuffled-ish order to exercise splits on both sides.
        for i in 0..n {
            let k = (i * 2_654_435_761i64).rem_euclid(n);
            t = tree.insert(&pool, &composite_key(&[k]), rid(k as u64), t).unwrap();
        }
        assert_eq!(tree.len(), n as u64);
        assert!(tree.page_count() > 1, "tree must have split");
        for i in 0..n {
            let (found, t2) = tree.search(&pool, &composite_key(&[i]), t).unwrap();
            t = t2;
            assert_eq!(found, Some(rid(i as u64)), "key {i}");
        }
        // Missing keys are not found.
        let (missing, _) = tree.search(&pool, &composite_key(&[n + 10]), t).unwrap();
        assert_eq!(missing, None);
    }

    #[test]
    fn upsert_replaces_payload_without_growing() {
        let (pool, tree) = setup(64);
        let key = composite_key(&[7, 8]);
        let t = tree.insert(&pool, &key, rid(1), SimTime::ZERO).unwrap();
        let t = tree.insert(&pool, &key, rid(2), t).unwrap();
        assert_eq!(tree.len(), 1);
        let (found, _) = tree.search(&pool, &key, t).unwrap();
        assert_eq!(found, Some(rid(2)));
    }

    #[test]
    fn range_scans_return_sorted_results() {
        let (pool, tree) = setup(256);
        let mut t = SimTime::ZERO;
        for i in 0..2_000i64 {
            t = tree.insert(&pool, &composite_key(&[i]), rid(i as u64), t).unwrap();
        }
        let (low, high) = (composite_key(&[100]), composite_key(&[120]));
        let (results, _) = tree.range(&pool, &low, Some(&high), usize::MAX, t).unwrap();
        assert_eq!(results.len(), 20);
        let keys: Vec<i64> =
            results.iter().map(|(k, _)| crate::value::decode_key_int(&k[..8])).collect();
        assert_eq!(keys, (100..120).collect::<Vec<_>>());
        assert!(results.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn cold_range_scan_reads_the_pages_it_visits_and_no_other() {
        // Ascending inserts lay the leaf chain out in file order, shuffled
        // ones do not; either way a scan fetches a node when it gets there.
        let orders: [fn(i64) -> i64; 2] = [|i| i, |i| (i * 2_654_435_761i64).rem_euclid(2_000)];
        for order in orders {
            let (pool, tree) = setup(256);
            let mut t = SimTime::ZERO;
            for i in 0..2_000i64 {
                let k = order(i);
                t = tree.insert(&pool, &composite_key(&[k]), rid(k as u64), t).unwrap();
            }
            t = pool.flush_all(t).unwrap();
            assert!(tree.page_count() > 8, "scan must cross several leaves");

            // A range that ends mid-file: reading on past it would show.
            // The walk goes down the inner levels, then along the leaves
            // from the one holding 300 to the one holding 900, where it
            // meets the bound.
            let (low, high) = (composite_key(&[300]), composite_key(&[900]));
            let (depth, leaves) = shape(&pool, &tree, t);
            let leaf_of = |key: &Vec<u8>| leaves.iter().position(|l| l.keys.contains(key)).unwrap();
            let expected = depth - 1 + (leaf_of(&high) - leaf_of(&low) + 1) as u64;
            assert!(expected < tree.page_count(), "the range covers the whole tree");
            let visits_before = pool.stats().logical_reads;
            let (warm_rows, _) = tree.range(&pool, &low, Some(&high), usize::MAX, t).unwrap();
            // The walk looks at its first leaf a second time.
            let nodes = pool.stats().logical_reads - visits_before - 1;

            // A cold pool over the same backing object.
            let cold = BufferPool::new(pool.backend().clone(), 256);
            let reads_before = cold.backend().io_counts().0;
            let (cold_rows, _) = tree.range(&cold, &low, Some(&high), usize::MAX, t).unwrap();
            assert_eq!(warm_rows.len(), 600);
            assert_eq!(warm_rows, cold_rows);
            assert_eq!(nodes, expected, "{nodes} nodes visited of {}", tree.page_count());
            assert_eq!(cold.backend().io_counts().0 - reads_before, nodes);
            assert_eq!(cold.stats().misses, nodes);
        }
    }

    #[test]
    fn prefix_scan_composite_keys() {
        let (pool, tree) = setup(256);
        let mut t = SimTime::ZERO;
        // Keys (warehouse, district, order): scan one district.
        for w in 1..=2i64 {
            for d in 1..=3i64 {
                for o in 1..=50i64 {
                    t = tree
                        .insert(
                            &pool,
                            &composite_key(&[w, d, o]),
                            rid((w * 1000 + d * 100 + o) as u64),
                            t,
                        )
                        .unwrap();
                }
            }
        }
        let (results, _) = tree.prefix_scan(&pool, &composite_key(&[1, 2]), t).unwrap();
        assert_eq!(results.len(), 50);
        for (k, _) in &results {
            assert_eq!(crate::value::decode_key_int(&k[0..8]), 1);
            assert_eq!(crate::value::decode_key_int(&k[8..16]), 2);
        }
    }

    #[test]
    fn delete_removes_entries() {
        let (pool, tree) = setup(256);
        let mut t = SimTime::ZERO;
        for i in 0..500i64 {
            t = tree.insert(&pool, &composite_key(&[i]), rid(i as u64), t).unwrap();
        }
        for i in (0..500i64).step_by(2) {
            let (deleted, t2) = tree.delete(&pool, &composite_key(&[i]), t).unwrap();
            t = t2;
            assert!(deleted);
        }
        assert_eq!(tree.len(), 250);
        for i in 0..500i64 {
            let (found, t2) = tree.search(&pool, &composite_key(&[i]), t).unwrap();
            t = t2;
            assert_eq!(found.is_some(), i % 2 == 1, "key {i}");
        }
    }

    #[test]
    fn oversized_keys_are_rejected() {
        let (pool, tree) = setup(64);
        let huge = vec![1u8; PAGE_SIZE];
        assert!(tree.insert(&pool, &huge, rid(0), SimTime::ZERO).is_err());
        assert!(tree.insert(&pool, &[], rid(0), SimTime::ZERO).is_err());
    }

    #[test]
    fn works_under_buffer_pressure() {
        // A tiny pool forces every level of the tree to be re-read from
        // flash constantly; correctness must not depend on caching.
        let (pool, tree) = setup(4);
        let mut t = SimTime::ZERO;
        for i in 0..800i64 {
            t = tree.insert(&pool, &composite_key(&[i]), rid(i as u64), t).unwrap();
        }
        for i in 0..800i64 {
            let (found, t2) = tree.search(&pool, &composite_key(&[i]), t).unwrap();
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
            let scanned: Vec<_> = view.rids().collect();
            assert_eq!(scanned, keys.zip(node.rids.iter().copied()).collect::<Vec<_>>());
        } else {
            let children: Vec<_> =
                view.iter().map(|(k, c)| (k, u64::from_le_bytes(c.try_into().unwrap()))).collect();
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
                assert_eq!(view.child_for(probe), node.child_for(probe));
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        /// The borrowed view is the owned node: same answers as a
        /// `BTreeMap` model on intact images, same verdict as
        /// `Node::decode` on every truncation and on every corrupted
        /// length field (entry count and each key length).
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
            let mut node = if leaf { Node::new_leaf() } else { Node::new_internal(extra) };
            node.extra = extra;
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
            // Every length field, nudged and maxed.
            let mut fields = vec![1usize];
            let mut off = HEADER;
            for key in &node.keys {
                fields.push(off);
                off += 2 + key.len() + payload_len(leaf);
            }
            for field in fields {
                let stored = u16::from_le_bytes(image[field..field + 2].try_into().unwrap());
                for bad in [stored.wrapping_add(1), stored.wrapping_sub(1), 0, u16::MAX] {
                    let mut corrupt = image.clone();
                    corrupt[field..field + 2].copy_from_slice(&bad.to_le_bytes());
                    assert_view_matches_node(&corrupt, &probes);
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        /// The tree behaves like a sorted map for arbitrary insert/delete
        /// interleavings.
        #[test]
        fn behaves_like_btreemap(ops in prop::collection::vec((0i64..300, any::<bool>()), 1..400)) {
            let (pool, tree) = setup(128);
            let mut model = std::collections::BTreeMap::new();
            let mut t = SimTime::ZERO;
            for (i, (k, is_insert)) in ops.iter().enumerate() {
                let key = composite_key(&[*k]);
                if *is_insert {
                    let r = rid(i as u64);
                    t = tree.insert(&pool, &key, r, t).unwrap();
                    model.insert(*k, r);
                } else {
                    let (deleted, t2) = tree.delete(&pool, &key, t).unwrap();
                    t = t2;
                    prop_assert_eq!(deleted, model.remove(k).is_some());
                }
            }
            prop_assert_eq!(tree.len(), model.len() as u64);
            for (k, r) in &model {
                let (found, t2) = tree.search(&pool, &composite_key(&[*k]), t).unwrap();
                t = t2;
                prop_assert_eq!(found, Some(*r));
            }
            // A full range scan returns exactly the model's keys in order.
            let (low, high) = (composite_key(&[-1]), composite_key(&[301]));
            let (all, _) = tree.range(&pool, &low, Some(&high), usize::MAX, t).unwrap();
            let scanned: Vec<i64> = all.iter().map(|(k, _)| crate::value::decode_key_int(&k[..8])).collect();
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
            let (pool, tree) = setup(64);
            let mut model = std::collections::BTreeMap::new();
            let (mut t, mut state) = (SimTime::ZERO, seed);
            for (i, &(g, s)) in keys.iter().enumerate() {
                let mut put = |g: i64, s: i64, payload: u64| {
                    t = tree.insert(&pool, &composite_key(&[g, s]), rid(payload), t).unwrap();
                    model.insert((g, s), rid(payload));
                };
                put(g, s, i as u64);
                if i % upsert_every == 0 {
                    // Overwrite a key already in the tree.
                    let (g, s) = keys[(splitmix(&mut state) % (i as u64 + 1)) as usize];
                    put(g, s, n as u64 + i as u64);
                }
            }
            prop_assert_eq!(tree.len(), model.len() as u64);
            for ((g, s), r) in &model {
                let (found, t2) = tree.search(&pool, &composite_key(&[*g, *s]), t).unwrap();
                t = t2;
                prop_assert_eq!(found, Some(*r));
            }
            let decode = |rows: &[(Vec<u8>, RecordId)]| -> Vec<((i64, i64), RecordId)> {
                rows.iter()
                    .map(|(k, r)| {
                        let col = |c: usize| crate::value::decode_key_int(&k[8 * c..8 * c + 8]);
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
            let (all, t2) = tree.range(&pool, &low, Some(&high), usize::MAX, t).unwrap();
            t = t2;
            prop_assert_eq!(decode(&all), groups_of(0, groups));
            let (rows, t2) = tree.range(&pool, &low, Some(&high), limit, t).unwrap();
            t = t2;
            prop_assert_eq!(decode(&rows), first(groups_of(0, groups)));
            // No upper bound: only the limit stops the walk.
            let middle = composite_key(&[groups / 2]);
            let (rows, t2) = tree.range(&pool, &middle, None, limit, t).unwrap();
            t = t2;
            prop_assert_eq!(decode(&rows), first(groups_of(groups / 2, groups)));
            for g in 0..groups {
                let (rows, t2) = tree.prefix_scan(&pool, &composite_key(&[g]), t).unwrap();
                t = t2;
                prop_assert_eq!(decode(&rows), groups_of(g, g + 1));
            }
        }
    }
}

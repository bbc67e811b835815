//! The in-memory sorted write buffer of a [`KvStore`].
//!
//! A memtable maps keys to either a value or a *tombstone* (a recorded
//! delete).  Both must be kept until they reach a sorted run: a tombstone
//! has to shadow older on-flash versions of the key.  The memtable tracks
//! an approximate byte footprint so the store can flush once a configured
//! threshold is crossed.
//!
//! **Layout.**  Every entry's bytes (its key, then its value) lie in one
//! byte *arena*; a vector of *slots*, sorted by key, says where.  A put of
//! a new key appends to the arena and inserts a slot; an overwrite writes
//! the new value over the old one when it fits, and appends otherwise.
//! Bytes an overwrite leaves behind are reclaimed by sliding the live
//! entries together once the arena holds more than twice the charged
//! footprint, so the arena never outgrows twice the flush threshold.
//! [`clear`](Memtable::clear) keeps both vectors' capacity, so a warm
//! memtable allocates nothing.
//!
//! [`KvStore`]: super::store::KvStore

use super::run::EntryRef;

/// Fixed per-entry overhead charged against the flush threshold (slot,
/// lengths, tombstone flag) on top of the key/value payload bytes.
const ENTRY_OVERHEAD: usize = 32;

/// Where one entry lies in the arena: its key at `off`, its value after.
#[derive(Debug, Clone, Copy)]
struct Slot {
    off: usize,
    klen: usize,
    /// The value's length; `None` = tombstone.
    vlen: Option<usize>,
}

impl Slot {
    fn key(self, arena: &[u8]) -> &[u8] {
        &arena[self.off..self.off + self.klen]
    }

    fn entry(self, arena: &[u8]) -> EntryRef<'_> {
        (self.key(arena), self.vlen.map(|n| &arena[self.off + self.klen..][..n]))
    }
}

/// An in-memory sorted buffer of key → value-or-tombstone entries.
#[derive(Debug, Default)]
pub struct Memtable {
    arena: Vec<u8>,
    /// One per entry, in key order.
    slots: Vec<Slot>,
    bytes: usize,
}

impl Memtable {
    /// The slot of `key`, or where it would go.
    fn find(&self, key: &[u8]) -> Result<usize, usize> {
        self.slots.binary_search_by(|s| s.key(&self.arena).cmp(key))
    }

    /// Append an entry's bytes to the arena.
    fn append(&mut self, key: &[u8], value: Option<&[u8]>) -> Slot {
        let off = self.arena.len();
        self.arena.extend_from_slice(key);
        self.arena.extend_from_slice(value.unwrap_or_default());
        Slot { off, klen: key.len(), vlen: value.map(<[u8]>::len) }
    }

    /// Record a put (`Some(value)`) or a delete tombstone (`None`).
    pub fn insert(&mut self, key: &[u8], value: Option<&[u8]>) {
        let charge = |vlen: Option<usize>| ENTRY_OVERHEAD + key.len() + vlen.unwrap_or(0);
        let vlen = value.map(<[u8]>::len);
        match self.find(key) {
            Ok(i) => {
                // Replaced in place: release the old entry's full charge (the
                // key included — it is charged again below) so repeated
                // overwrites of a resident key leave the footprint
                // payload-accurate.
                let old = self.slots[i];
                self.bytes = self.bytes.saturating_sub(charge(old.vlen));
                if vlen.unwrap_or(0) <= old.vlen.unwrap_or(0) {
                    let value = value.unwrap_or_default();
                    self.arena[old.off + old.klen..][..value.len()].copy_from_slice(value);
                    self.slots[i].vlen = vlen;
                } else {
                    self.slots[i] = self.append(key, value);
                }
            }
            Err(i) => {
                let slot = self.append(key, value);
                self.slots.insert(i, slot);
            }
        }
        self.bytes += charge(vlen);
        if self.arena.len() > 2 * self.bytes {
            self.compact();
        }
    }

    /// Slide the live entries to the front of the arena, dropping the
    /// bytes overwrites left behind.  Sorts in place, so it allocates
    /// nothing.
    fn compact(&mut self) {
        self.slots.sort_unstable_by_key(|s| s.off);
        let mut end = 0;
        for s in &mut self.slots {
            let len = s.klen + s.vlen.unwrap_or(0);
            self.arena.copy_within(s.off..s.off + len, end);
            s.off = end;
            end += len;
        }
        self.arena.truncate(end);
        self.slots.sort_unstable_by(|a, b| a.key(&self.arena).cmp(b.key(&self.arena)));
    }

    /// Look a key up.  `None` = not present here (check the runs);
    /// `Some(None)` = tombstoned; `Some(Some(v))` = live value.
    pub fn get(&self, key: &[u8]) -> Option<Option<&[u8]>> {
        Some(self.slots[self.find(key).ok()?].entry(&self.arena).1)
    }

    /// Number of buffered entries (tombstones included).
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Approximate resident bytes, compared against the flush threshold.
    pub fn approx_bytes(&self) -> usize {
        self.bytes
    }

    /// Every entry in key order (tombstones included), borrowed.
    pub fn iter(&self) -> impl Iterator<Item = EntryRef<'_>> {
        self.slots.iter().map(|s| s.entry(&self.arena))
    }

    /// Empty the memtable after a flush, keeping its buffers.
    pub fn clear(&mut self) {
        self.arena.clear();
        self.slots.clear();
        self.bytes = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn insert_get_and_tombstones() {
        let mut m = Memtable::default();
        assert_eq!(m.len(), 0);
        m.insert(b"b", Some(b"2"));
        m.insert(b"a", Some(b"1"));
        m.insert(b"c", None);
        assert_eq!(m.len(), 3);
        assert_eq!(m.get(b"a"), Some(Some(b"1".as_slice())));
        assert_eq!(m.get(b"c"), Some(None), "tombstone is present but empty");
        assert_eq!(m.get(b"d"), None, "unknown key is absent");
    }

    #[test]
    fn byte_accounting_tracks_replacements() {
        let mut m = Memtable::default();
        m.insert(b"k", Some(&[0u8; 100]));
        let first = m.approx_bytes();
        m.insert(b"k", Some(&[0u8; 10]));
        assert!(m.approx_bytes() < first, "smaller replacement shrinks the footprint");
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn same_size_overwrites_do_not_inflate_the_footprint() {
        // Regression: overwriting a resident key used to leak the key's
        // length into the footprint on every replacement, flushing
        // near-empty memtables under update-heavy workloads.
        let mut m = Memtable::default();
        m.insert(b"counter", Some(&[1u8; 50]));
        let first = m.approx_bytes();
        for _ in 0..1_000 {
            m.insert(b"counter", Some(&[2u8; 50]));
        }
        assert_eq!(m.approx_bytes(), first, "steady-state overwrites keep the footprint flat");
        assert_eq!(m.arena.len(), 7 + 50, "a value that fits is written over the old one");
    }

    #[test]
    fn clear_empties_and_iter_walks_in_key_order() {
        let mut m = Memtable::default();
        m.insert(b"z", Some(b"26"));
        m.insert(b"a", None);
        let items: Vec<_> = m.iter().collect();
        assert_eq!(items, vec![(b"a".as_slice(), None), (b"z".as_slice(), Some(b"26".as_slice()))]);
        m.clear();
        assert_eq!(m.len(), 0);
        assert_eq!(m.approx_bytes(), 0);
        assert_eq!(m.iter().count(), 0);
    }

    /// The footprint a model's entries are charged.
    fn charged(model: &BTreeMap<Vec<u8>, Option<Vec<u8>>>) -> usize {
        model.iter().map(|(k, v)| ENTRY_OVERHEAD + k.len() + v.as_ref().map_or(0, Vec::len)).sum()
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        /// Over random put / delete / drain histories the memtable agrees
        /// with a `BTreeMap` after every step: every key's lookup, the
        /// charged footprint, and the sorted drain.
        #[test]
        fn the_memtable_matches_a_btreemap_model(
            ops in proptest::collection::vec((0u8..12, 0u8..24, 0usize..300), 1..400),
        ) {
            let mut m = Memtable::default();
            let mut model: BTreeMap<Vec<u8>, Option<Vec<u8>>> = BTreeMap::new();
            for (step, &(op, k, len)) in ops.iter().enumerate() {
                let key = format!("key{k:02}").into_bytes();
                match op {
                    0..=7 => {
                        let value = vec![step as u8; len];
                        m.insert(&key, Some(&value));
                        model.insert(key, Some(value));
                    }
                    8..=10 => {
                        m.insert(&key, None);
                        model.insert(key, None);
                    }
                    _ => {
                        let drained: Vec<(Vec<u8>, Option<Vec<u8>>)> =
                            m.iter().map(|(k, v)| (k.to_vec(), v.map(<[u8]>::to_vec))).collect();
                        let expected: Vec<_> = std::mem::take(&mut model).into_iter().collect();
                        proptest::prop_assert_eq!(drained, expected);
                        m.clear();
                    }
                }
                proptest::prop_assert_eq!(m.len(), model.len());
                proptest::prop_assert_eq!(m.approx_bytes(), charged(&model));
                for k in 0..24u8 {
                    let key = format!("key{k:02}").into_bytes();
                    let expected = model.get(&key).map(|v| v.as_deref());
                    proptest::prop_assert_eq!(m.get(&key), expected);
                }
            }
        }
    }

    #[test]
    fn overwrites_of_a_resident_key_keep_the_arena_within_twice_the_threshold() {
        // The store's small test threshold; the footprint of one key stays
        // far below it, so no flush would ever clear the arena.
        const THRESHOLD: usize = 4 * 1024;
        let mut m = Memtable::default();
        m.insert(b"neighbour", Some(&[7; 100]));
        let mut rng = crate::crash::SplitMix64(0x0A7E_4A11);
        for round in 0..100_000u64 {
            // Values grow in waves and shrink in between.
            let len = (round % 1_000) as usize + rng.below(200) as usize;
            m.insert(b"resident", Some(&vec![round as u8; len]));
            assert!(m.approx_bytes() < THRESHOLD);
            assert!(
                m.arena.capacity() <= 2 * THRESHOLD,
                "round {round}: arena of {} bytes",
                m.arena.capacity()
            );
        }
        assert_eq!(m.get(b"neighbour"), Some(Some([7; 100].as_slice())));
        assert_eq!(m.len(), 2);
    }
}

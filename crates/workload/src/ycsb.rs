//! The six YCSB core workloads as deterministic operation streams.
//!
//! A [`YcsbSpec`] fixes the op mix, key distribution and sizes; an
//! [`OpStream`] expands it into a concrete sequence of [`Op`]s using only
//! the spec and its seed — never feedback from a backend — so the *same
//! spec always yields the same stream*, no matter which storage engine
//! consumes it.  That is what makes an A-vs-A comparison between
//! NoFTL-KV and the B+-tree honest: both sides replay identical keys in
//! identical order.
//!
//! Keys are loaded in *ordered* mode (`user<12-digit id>`), so scans walk
//! consecutive ids and inserts append at the tail of the key space —
//! YCSB's `insertorder=ordered` setting.

use crate::rng::{fnv64, KeyChooser, KeyDistribution, KeyedRng};

/// One operation kind of the YCSB core mixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// Point read of one key.
    Read,
    /// Overwrite the value of an existing key.
    Update,
    /// Insert a brand-new key at the tail of the key space.
    Insert,
    /// Short range scan starting at a key.
    Scan,
    /// Read a key, then write it back modified.
    ReadModifyWrite,
    /// Remove a key (delete-bearing mix variants only).
    Delete,
}

impl OpKind {
    /// One-letter code, the byte [`stream_digest`] hashes for the kind.
    pub fn code(self) -> char {
        match self {
            OpKind::Read => 'R',
            OpKind::Update => 'U',
            OpKind::Insert => 'I',
            OpKind::Scan => 'S',
            OpKind::ReadModifyWrite => 'M',
            OpKind::Delete => 'D',
        }
    }

    /// Parse a one-letter code.
    pub fn from_code(c: char) -> Option<Self> {
        Some(match c {
            'R' => OpKind::Read,
            'U' => OpKind::Update,
            'I' => OpKind::Insert,
            'S' => OpKind::Scan,
            'M' => OpKind::ReadModifyWrite,
            'D' => OpKind::Delete,
            _ => return None,
        })
    }
}

/// One concrete operation of a stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    /// What to do.
    pub kind: OpKind,
    /// Key id (`0..` maps to `user<id>` via [`key_bytes`]).
    pub key: u64,
    /// Number of rows a [`OpKind::Scan`] touches (0 otherwise).
    pub scan_len: u32,
}

/// Render a key id as its on-disk key (`user` + 12 decimal digits, so
/// lexicographic order equals numeric order).
pub fn key_bytes(id: u64) -> Vec<u8> {
    let digits = id.checked_ilog10().map_or(1, |log| log as usize + 1).max(12);
    let mut key = Vec::with_capacity(4 + digits);
    key.extend_from_slice(b"user");
    key.resize(4 + digits, b'0');
    let mut rest = id;
    for digit in key.iter_mut().rev().take(digits) {
        *digit = b'0' + (rest % 10) as u8;
        rest /= 10;
    }
    key
}

/// `v` as 16 lower-case hex digits, most significant first.
fn hex16(v: u64) -> [u8; 16] {
    std::array::from_fn(|i| b"0123456789abcdef"[(v >> (60 - 4 * i)) as usize & 0xf])
}

/// Render a key id in *scrambled* mode: the id is FNV-hashed before
/// rendering, so consecutive ids land at unrelated points of the key
/// space — YCSB's `insertorder=hashed` setting.  Still a pure function
/// of the id, so both backends agree on every key.
pub fn scrambled_key_bytes(id: u64) -> Vec<u8> {
    let mut key = Vec::with_capacity(20);
    key.extend_from_slice(b"user");
    key.extend_from_slice(&hex16(fnv64(&id.to_le_bytes())));
    key
}

/// A YCSB workload description.
#[derive(Debug, Clone)]
pub struct YcsbSpec {
    /// Workload tag (`"A"`..`"F"` for the core mixes).
    pub name: &'static str,
    /// Fraction of point reads.
    pub read: f64,
    /// Fraction of updates.
    pub update: f64,
    /// Fraction of inserts.
    pub insert: f64,
    /// Fraction of scans.
    pub scan: f64,
    /// Fraction of read-modify-writes.
    pub rmw: f64,
    /// Fraction of deletes (0 in the core mixes; see
    /// [`YcsbSpec::with_deletes`]).
    pub delete: f64,
    /// Key distribution of reads/updates/scans/rmws.
    pub dist: KeyDistribution,
    /// Records loaded before the run.
    pub record_count: u64,
    /// Operations in the run phase.
    pub op_count: u64,
    /// Value payload bytes per record.
    pub value_len: usize,
    /// Scans touch `1..=max_scan_len` rows (uniform).
    pub max_scan_len: u32,
    /// Stream seed; the whole run is a pure function of the spec.
    pub seed: u64,
    /// Scrambled-key mode: render keys via [`scrambled_key_bytes`]
    /// instead of ordered `user<12 digits>` ids.
    pub scrambled: bool,
}

impl YcsbSpec {
    /// The YCSB core workload `which` ('A'..='F', case-insensitive) sized
    /// to `record_count` records and `op_count` operations.
    pub fn core(which: char, record_count: u64, op_count: u64, seed: u64) -> Option<Self> {
        let zipf = KeyDistribution::Zipfian { theta: 0.99 };
        let spec = match which.to_ascii_uppercase() {
            // A: update heavy — 50/50 read/update, zipfian.
            'A' => YcsbSpec { name: "A", read: 0.5, update: 0.5, ..Self::base(zipf) },
            // B: read mostly — 95/5 read/update, zipfian.
            'B' => YcsbSpec { name: "B", read: 0.95, update: 0.05, ..Self::base(zipf) },
            // C: read only, zipfian.
            'C' => YcsbSpec { name: "C", read: 1.0, ..Self::base(zipf) },
            // D: read latest — 95/5 read/insert, latest distribution.
            'D' => YcsbSpec {
                name: "D",
                read: 0.95,
                insert: 0.05,
                ..Self::base(KeyDistribution::Latest)
            },
            // E: short ranges — 95/5 scan/insert, zipfian start keys.
            'E' => YcsbSpec { name: "E", scan: 0.95, insert: 0.05, ..Self::base(zipf) },
            // F: read-modify-write — 50/50 read/rmw, zipfian.
            'F' => YcsbSpec { name: "F", read: 0.5, rmw: 0.5, ..Self::base(zipf) },
            _ => return None,
        };
        Some(YcsbSpec { record_count, op_count, seed, ..spec })
    }

    fn base(dist: KeyDistribution) -> Self {
        YcsbSpec {
            name: "?",
            read: 0.0,
            update: 0.0,
            insert: 0.0,
            scan: 0.0,
            rmw: 0.0,
            delete: 0.0,
            dist,
            record_count: 1_000,
            op_count: 1_000,
            value_len: 100,
            max_scan_len: 50,
            seed: 0,
            scrambled: false,
        }
    }

    /// Turn this spec into a delete-bearing variant: `fraction` of the
    /// ops become deletes of chooser-picked keys, the original mix is
    /// rescaled to the remainder.
    pub fn with_deletes(mut self, fraction: f64) -> Self {
        let fraction = fraction.clamp(0.0, 1.0);
        let keep = 1.0 - fraction;
        self.read *= keep;
        self.update *= keep;
        self.insert *= keep;
        self.scan *= keep;
        self.rmw *= keep;
        self.delete = fraction;
        self
    }

    /// Switch the spec to scrambled (hashed) key rendering.
    pub fn scrambled(mut self) -> Self {
        self.scrambled = true;
        self
    }

    /// Render a key id under this spec's key mode.
    pub fn key(&self, id: u64) -> Vec<u8> {
        if self.scrambled {
            scrambled_key_bytes(id)
        } else {
            key_bytes(id)
        }
    }

    /// Expand the spec into its deterministic operation stream.
    pub fn stream(&self) -> OpStream {
        OpStream {
            ops: KeyedRng::new(self.seed, "op-mix"),
            scans: KeyedRng::new(self.seed, "scan-len"),
            chooser: KeyChooser::new(self.dist, self.record_count, self.seed),
            spec: self.clone(),
            live: self.record_count,
            emitted: 0,
        }
    }

    /// Deterministic value payload for a key: printable ASCII (so it
    /// survives string-typed columns) sized by the spec, tagged with the
    /// key so reads can be sanity-checked.
    pub fn value_for(&self, key: u64) -> Vec<u8> {
        let tag = hex16(key);
        let mut v = Vec::with_capacity(self.value_len);
        while v.len() < self.value_len {
            let take = (self.value_len - v.len()).min(tag.len());
            v.extend_from_slice(&tag[..take]);
        }
        v
    }
}

/// Iterator expanding a [`YcsbSpec`] into [`Op`]s.
#[derive(Debug, Clone)]
pub struct OpStream {
    spec: YcsbSpec,
    ops: KeyedRng,
    scans: KeyedRng,
    chooser: KeyChooser,
    /// Keys live after the ops emitted so far (initial records plus
    /// inserts).
    live: u64,
    emitted: u64,
}

impl Iterator for OpStream {
    type Item = Op;

    fn next(&mut self) -> Option<Op> {
        if self.emitted >= self.spec.op_count {
            return None;
        }
        self.emitted += 1;
        let s = &self.spec;
        let d = self.ops.next_f64();
        let op = if d < s.read {
            Op { kind: OpKind::Read, key: self.chooser.next(self.live), scan_len: 0 }
        } else if d < s.read + s.update {
            Op { kind: OpKind::Update, key: self.chooser.next(self.live), scan_len: 0 }
        } else if d < s.read + s.update + s.insert {
            let key = self.live;
            self.live += 1;
            Op { kind: OpKind::Insert, key, scan_len: 0 }
        } else if d < s.read + s.update + s.insert + s.scan {
            let len = 1 + self.scans.below(u64::from(s.max_scan_len.max(1))) as u32;
            Op { kind: OpKind::Scan, key: self.chooser.next(self.live), scan_len: len }
        } else if d < s.read + s.update + s.insert + s.scan + s.delete {
            Op { kind: OpKind::Delete, key: self.chooser.next(self.live), scan_len: 0 }
        } else {
            Op { kind: OpKind::ReadModifyWrite, key: self.chooser.next(self.live), scan_len: 0 }
        };
        Some(op)
    }
}

/// Order-sensitive digest of an op stream — two streams with the same
/// digest replayed the same ops in the same order.  The benchmark's
/// result objects carry it, and the cross-backend tests assert on it that
/// both backends consumed identical streams.
pub fn stream_digest(ops: impl IntoIterator<Item = Op>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for op in ops {
        let mut buf = [0u8; 13];
        buf[0] = op.kind.code() as u8;
        buf[1..9].copy_from_slice(&op.key.to_le_bytes());
        buf[9..13].copy_from_slice(&op.scan_len.to_le_bytes());
        h ^= fnv64(&buf);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn core_mixes_sum_to_one() {
        for w in ['A', 'B', 'C', 'D', 'E', 'F'] {
            let s = YcsbSpec::core(w, 100, 100, 1).unwrap();
            let total = s.read + s.update + s.insert + s.scan + s.rmw;
            assert!((total - 1.0).abs() < 1e-9, "workload {w} mix sums to {total}");
        }
        assert!(YcsbSpec::core('G', 100, 100, 1).is_none());
    }

    #[test]
    fn stream_is_a_pure_function_of_the_spec() {
        let spec = YcsbSpec::core('A', 500, 2_000, 99).unwrap();
        let a: Vec<Op> = spec.stream().collect();
        let b: Vec<Op> = spec.stream().collect();
        assert_eq!(a, b);
        assert_eq!(stream_digest(a.iter().copied()), stream_digest(b.iter().copied()));
        let other = YcsbSpec { seed: 100, ..spec };
        assert_ne!(
            stream_digest(other.stream()),
            stream_digest(spec.stream()),
            "a different seed must change the stream"
        );
    }

    #[test]
    fn mix_fractions_are_respected() {
        let spec = YcsbSpec::core('B', 1_000, 20_000, 7).unwrap();
        let ops: Vec<Op> = spec.stream().collect();
        let reads = ops.iter().filter(|o| o.kind == OpKind::Read).count() as f64;
        let frac = reads / ops.len() as f64;
        assert!((frac - 0.95).abs() < 0.02, "read fraction {frac} should be ~0.95");
    }

    #[test]
    fn inserts_extend_the_keyspace_monotonically() {
        let spec = YcsbSpec::core('D', 100, 5_000, 3).unwrap();
        let mut next_insert = 100u64;
        for op in spec.stream() {
            if op.kind == OpKind::Insert {
                assert_eq!(op.key, next_insert, "inserts append in order");
                next_insert += 1;
            } else {
                assert!(op.key < next_insert, "non-inserts hit live keys only");
            }
        }
    }

    #[test]
    fn scan_lengths_are_bounded() {
        let spec = YcsbSpec::core('E', 1_000, 5_000, 11).unwrap();
        for op in spec.stream() {
            if op.kind == OpKind::Scan {
                assert!(op.scan_len >= 1 && op.scan_len <= spec.max_scan_len);
            }
        }
    }

    #[test]
    fn record_bytes_match_their_format_forms() {
        for id in [0, 1, 999_999_999_999, 1_000_000_000_000, u64::MAX] {
            assert_eq!(key_bytes(id), format!("user{id:012}").into_bytes());
            let hashed = fnv64(&id.to_le_bytes());
            assert_eq!(scrambled_key_bytes(id), format!("user{hashed:016x}").into_bytes());
            assert_eq!(key_bytes(id).len(), key_bytes(id).capacity());
            assert_eq!(scrambled_key_bytes(id).capacity(), 20);
            for value_len in [0, 7, 16, 400] {
                let spec = YcsbSpec { value_len, ..YcsbSpec::base(KeyDistribution::Uniform) };
                let tag = format!("{id:016x}");
                let want: Vec<u8> = tag.bytes().cycle().take(value_len).collect();
                let value = spec.value_for(id);
                assert_eq!(value, want, "id {id}, value_len {value_len}");
                assert_eq!(value.capacity(), value_len);
            }
        }
    }

    #[test]
    fn ordered_keys_sort_like_their_ids() {
        assert!(key_bytes(5) < key_bytes(50));
        assert!(key_bytes(999) < key_bytes(1_000));
    }

    #[test]
    fn scrambled_keys_are_deterministic_and_spread() {
        assert_eq!(scrambled_key_bytes(7), scrambled_key_bytes(7));
        assert_ne!(scrambled_key_bytes(7), scrambled_key_bytes(8));
        // Consecutive ids must not stay adjacent in key order.
        let mut rendered: Vec<Vec<u8>> = (0..100).map(scrambled_key_bytes).collect();
        let ordered = rendered.clone();
        rendered.sort();
        assert_ne!(rendered, ordered, "hashing must break insertion order");
        // Spec-level rendering honors the mode.
        let plain = YcsbSpec::core('A', 10, 10, 1).unwrap();
        let hashed = plain.clone().scrambled();
        assert_eq!(plain.key(3), key_bytes(3));
        assert_eq!(hashed.key(3), scrambled_key_bytes(3));
    }

    #[test]
    fn delete_bearing_variant_rescales_the_mix() {
        let spec = YcsbSpec::core('A', 1_000, 20_000, 13).unwrap().with_deletes(0.1);
        let total = spec.read + spec.update + spec.insert + spec.scan + spec.rmw + spec.delete;
        assert!((total - 1.0).abs() < 1e-9, "mix still sums to one, got {total}");
        let ops: Vec<Op> = spec.stream().collect();
        let deletes = ops.iter().filter(|o| o.kind == OpKind::Delete).count() as f64;
        let frac = deletes / ops.len() as f64;
        assert!((frac - 0.1).abs() < 0.02, "delete fraction {frac} should be ~0.1");
        assert_eq!(OpKind::from_code('D'), Some(OpKind::Delete));
        assert_eq!(OpKind::Delete.code(), 'D');
        // Deletes change the digest.
        let base = YcsbSpec::core('A', 1_000, 20_000, 13).unwrap();
        assert_ne!(stream_digest(base.stream()), stream_digest(spec.stream()));
    }
}

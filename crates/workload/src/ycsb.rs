//! The three YCSB core workloads the benchmark runs — A, B and C — as
//! deterministic operation streams.
//!
//! A [`YcsbSpec`] fixes the read share, sizes and seed; an [`OpStream`]
//! expands it into a concrete sequence of [`Op`]s using only the spec and
//! its seed — never feedback from a backend — so the *same spec always
//! yields the same stream*, no matter which storage engine consumes it.
//! That is what makes an A-vs-A comparison between NoFTL-KV and the
//! B+-tree honest: both sides replay identical keys in identical order.
//!
//! Every op is a point read or an update of a loaded key, chosen by a
//! Zipfian (theta 0.99) rank over the records; keys are rendered in
//! *ordered* mode (`user<12-digit id>`), YCSB's `insertorder=ordered`.

use crate::rng::{fnv64, KeyedRng, Zipfian};

/// One operation kind.  The mixes emit only [`OpKind::Read`] and
/// [`OpKind::Update`]; the other four name the remaining YCSB verbs,
/// which no mix emits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// Point read of one key.
    Read,
    /// Overwrite the value of an existing key.
    Update,
    /// Insert a brand-new key (no mix emits it).
    Insert,
    /// Short range scan starting at a key (no mix emits it).
    Scan,
    /// Read a key, then write it back modified (no mix emits it).
    ReadModifyWrite,
    /// Remove a key (no mix emits it).
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
}

/// One concrete operation of a stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    /// What to do.
    pub kind: OpKind,
    /// Key id (`0..` maps to `user<id>` via [`key_bytes`]).
    pub key: u64,
    /// Rows a scan would touch: always 0, as no mix scans; kept because
    /// [`stream_digest`] folds it.
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

/// A YCSB workload description.
#[derive(Debug, Clone)]
pub struct YcsbSpec {
    /// Workload tag (`"A"`, `"B"` or `"C"`).
    pub name: &'static str,
    /// Fraction of point reads; every other op is an update.
    pub read: f64,
    /// Records loaded before the run.
    pub record_count: u64,
    /// Operations in the run phase.
    pub op_count: u64,
    /// Value payload bytes per record.
    pub value_len: usize,
    /// Stream seed; the whole run is a pure function of the spec.
    pub seed: u64,
}

impl YcsbSpec {
    /// The YCSB core workload `which` ('A', 'B' or 'C', case-insensitive)
    /// sized to `record_count` records of 100-byte values and `op_count`
    /// operations; `None` for any other letter.
    pub fn core(which: char, record_count: u64, op_count: u64, seed: u64) -> Option<Self> {
        let (name, read) = match which.to_ascii_uppercase() {
            // A: update heavy — 50/50 read/update.
            'A' => ("A", 0.5),
            // B: read mostly — 95/5 read/update.
            'B' => ("B", 0.95),
            // C: read only.
            'C' => ("C", 1.0),
            _ => return None,
        };
        Some(YcsbSpec { name, read, record_count, op_count, value_len: 100, seed })
    }

    /// Render a key id: [`key_bytes`].
    pub fn key(&self, id: u64) -> Vec<u8> {
        key_bytes(id)
    }

    /// Expand the spec into its deterministic operation stream.
    pub fn stream(&self) -> OpStream {
        OpStream {
            ops: KeyedRng::new(self.seed, "op-mix"),
            keys: KeyedRng::new(self.seed, "key-chooser"),
            zipf: Zipfian::new(self.record_count, 0.99),
            read: self.read,
            left: self.op_count,
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
    /// The `"op-mix"` stream: one draw per op picks read or update.
    ops: KeyedRng,
    /// The `"key-chooser"` stream the Zipfian ranks are drawn from.
    keys: KeyedRng,
    zipf: Zipfian,
    read: f64,
    /// Ops still to emit.
    left: u64,
}

impl Iterator for OpStream {
    type Item = Op;

    fn next(&mut self) -> Option<Op> {
        self.left = self.left.checked_sub(1)?;
        let kind = if self.ops.next_f64() < self.read { OpKind::Read } else { OpKind::Update };
        Some(Op { kind, key: self.zipf.next(&mut self.keys), scan_len: 0 })
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
        for (w, read) in [('A', 0.5), ('B', 0.95), ('C', 1.0)] {
            let s = YcsbSpec::core(w, 100, 100, 1).unwrap();
            assert_eq!((s.name.to_string(), s.read), (w.to_string(), read));
            assert_eq!(YcsbSpec::core(w.to_ascii_lowercase(), 100, 100, 1).unwrap().read, read);
            // Reads plus updates are the whole stream.
            assert!(s.stream().all(|op| matches!(op.kind, OpKind::Read | OpKind::Update)));
        }
        for w in ['D', 'E', 'F', 'G'] {
            assert!(YcsbSpec::core(w, 100, 100, 1).is_none(), "workload {w}");
        }
    }

    /// Each mix's stream is pinned: the benchmark's YCSB workloads replay
    /// these streams, so a digest that moves changes what they measure.
    #[test]
    fn core_streams_keep_their_digests() {
        let golden = [
            ('A', 150, 250, 0x5eed, 0x13d8_ae05_f482_15d0),
            ('B', 150, 250, 0x5eed, 0x871a_88f1_62cb_820e),
            ('C', 150, 250, 0x5eed, 0x330c_eca0_874e_ca07),
            ('A', 1_000, 20_000, 7, 0x3b56_27e6_778a_5a46),
            ('B', 1_000, 20_000, 7, 0xb318_c16d_a1fd_adf1),
            ('C', 1_000, 20_000, 7, 0xe04e_ec37_c276_8c47),
        ];
        for (w, records, ops, seed, digest) in golden {
            let spec = YcsbSpec::core(w, records, ops, seed).unwrap();
            assert_eq!(stream_digest(spec.stream()), digest, "{w} ({records}, {ops}, {seed})");
        }
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
    fn record_bytes_match_their_format_forms() {
        for id in [0, 1, 999_999_999_999, 1_000_000_000_000, u64::MAX] {
            assert_eq!(key_bytes(id), format!("user{id:012}").into_bytes());
            assert_eq!(key_bytes(id).len(), key_bytes(id).capacity());
            for value_len in [0, 7, 16, 400] {
                let spec = YcsbSpec { value_len, ..YcsbSpec::core('A', 1, 1, 0).unwrap() };
                let tag = format!("{id:016x}");
                let want: Vec<u8> = tag.bytes().cycle().take(value_len).collect();
                assert_eq!(spec.key(id), key_bytes(id));
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
}

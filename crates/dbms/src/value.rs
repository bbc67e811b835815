//! Values, records and index keys.
//!
//! Records are encoded with a fixed layout derived from the table schema
//! (see [`crate::schema`]): integers and floats take 8 bytes, strings are
//! padded to their declared maximum length.  A fixed layout keeps every
//! record of a table the same size, so in-place updates never need to
//! relocate a record — which matches how TPC-C updates behave.
//!
//! A [`Record`] of values is what a row is built from: an insert encodes
//! it once.  From then on a record stays in its bytes — reads return a
//! [`crate::Row`] over them and updates store its bytes back — so values
//! are never decoded.  Decoding was about half of what a TPC-C
//! transaction allocated: one `Vec<Value>` and a `String` per string
//! column for every row read (a STOCK row has 11).  Without it, and with
//! scans that copy no keys, a transaction allocates 90 times, not 406.

/// A single column value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float (used for money/quantity columns).
    Float(f64),
    /// Variable-content string, stored padded to the column's declared size.
    Str(String),
}

/// A record: one value per column, in schema order.
pub type Record = Vec<Value>;

/// Encode an integer key component with order-preserving big-endian
/// encoding (sign bit flipped so negative numbers sort before positives).
pub fn encode_key_int(v: i64) -> [u8; 8] {
    ((v as u64) ^ (1u64 << 63)).to_be_bytes()
}

/// Decode a key component produced by [`encode_key_int`].
pub fn decode_key_int(b: [u8; 8]) -> i64 {
    (u64::from_be_bytes(b) ^ (1u64 << 63)) as i64
}

/// Build a composite, order-preserving key from integer components
/// (the form every TPC-C index key takes).
pub fn composite_key(parts: &[i64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(parts.len() * 8);
    for p in parts {
        out.extend_from_slice(&encode_key_int(*p));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn key_encoding_preserves_order() {
        let values = [-100i64, -1, 0, 1, 7, 1000, i64::MAX, i64::MIN];
        let mut sorted = values.to_vec();
        sorted.sort_unstable();
        let mut encoded: Vec<[u8; 8]> = sorted.iter().map(|v| encode_key_int(*v)).collect();
        let mut resorted = encoded.clone();
        resorted.sort_unstable();
        encoded.sort_unstable();
        assert_eq!(encoded, resorted);
        for v in values {
            assert_eq!(decode_key_int(encode_key_int(v)), v);
        }
    }

    #[test]
    fn composite_keys_sort_lexicographically_by_component() {
        let a = composite_key(&[1, 5]);
        let b = composite_key(&[1, 6]);
        let c = composite_key(&[2, 0]);
        assert!(a < b);
        assert!(b < c);
    }

    proptest! {
        #[test]
        fn int_key_order_is_preserved(a in any::<i64>(), b in any::<i64>()) {
            let ka = encode_key_int(a);
            let kb = encode_key_int(b);
            prop_assert_eq!(a.cmp(&b), ka.cmp(&kb));
        }

        #[test]
        fn composite_order_matches_tuple_order(a1 in -1000i64..1000, a2 in -1000i64..1000,
                                               b1 in -1000i64..1000, b2 in -1000i64..1000) {
            let ka = composite_key(&[a1, a2]);
            let kb = composite_key(&[b1, b2]);
            prop_assert_eq!((a1, a2).cmp(&(b1, b2)), ka.cmp(&kb));
        }
    }
}

//! Values and records.
//!
//! Records are encoded with a fixed layout derived from the table schema
//! (see [`crate::schema`]): integers and floats take 8 bytes, strings are
//! padded to their declared maximum length.  A fixed layout keeps every
//! record of a table the same size, so in-place updates never need to
//! relocate a record — which matches how TPC-C updates behave.

use std::fmt;

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

impl Value {
    /// The integer inside, if this is an [`Value::Int`].
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// The float inside, accepting both [`Value::Float`] and [`Value::Int`].
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Float(v) => Some(*v),
            Value::Int(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// The string inside, if this is a [`Value::Str`].
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v) => write!(f, "{v}"),
            Value::Str(s) => write!(f, "'{s}'"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(v as i64)
    }
}

impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::Int(v as i64)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

/// A record: one value per column, in schema order.
pub type Record = Vec<Value>;

/// Encode an integer key component with order-preserving big-endian
/// encoding (sign bit flipped so negative numbers sort before positives).
pub fn encode_key_int(v: i64) -> [u8; 8] {
    ((v as u64) ^ (1u64 << 63)).to_be_bytes()
}

/// Decode a key component produced by [`encode_key_int`].
pub fn decode_key_int(b: &[u8]) -> i64 {
    let raw = u64::from_be_bytes(b[..8].try_into().expect("8 bytes"));
    (raw ^ (1u64 << 63)) as i64
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

/// Build a composite key ending in a string component (used by the TPC-C
/// customer-by-last-name index).  The string is padded with zero bytes to
/// `pad` so keys stay fixed-length and order-preserving.
pub fn composite_key_with_str(parts: &[i64], s: &str, pad: usize) -> Vec<u8> {
    let mut out = composite_key(parts);
    let bytes = s.as_bytes();
    let take = bytes.len().min(pad);
    out.extend_from_slice(&bytes[..take]);
    out.resize(parts.len() * 8 + pad, 0);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn accessors_and_conversions() {
        assert_eq!(Value::from(5i64).as_int(), Some(5));
        assert_eq!(Value::from(5i32).as_int(), Some(5));
        assert_eq!(Value::from(5u32).as_int(), Some(5));
        assert_eq!(Value::from(2.5).as_float(), Some(2.5));
        assert_eq!(Value::Int(3).as_float(), Some(3.0));
        assert_eq!(Value::from("hi").as_str(), Some("hi"));
        assert_eq!(Value::from("hi".to_string()).as_str(), Some("hi"));
        assert_eq!(Value::Int(3).as_str(), None);
        assert_eq!(Value::Str("x".into()).as_int(), None);
        assert_eq!(format!("{}", Value::Int(3)), "3");
        assert_eq!(format!("{}", Value::Str("a".into())), "'a'");
    }

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
            assert_eq!(decode_key_int(&encode_key_int(v)), v);
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

    #[test]
    fn composite_key_with_string_component() {
        let a = composite_key_with_str(&[1, 2], "ABLE", 16);
        let b = composite_key_with_str(&[1, 2], "BAKER", 16);
        let c = composite_key_with_str(&[1, 3], "ABLE", 16);
        assert!(a < b);
        assert!(b < c);
        assert_eq!(a.len(), 2 * 8 + 16);
        // Over-long strings are truncated to the pad length.
        let long = composite_key_with_str(&[], &"X".repeat(100), 8);
        assert_eq!(long.len(), 8);
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

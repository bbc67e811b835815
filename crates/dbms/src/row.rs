//! Rows: a record kept in its fixed-layout bytes.
//!
//! A [`Row`] is a record's bytes plus its table's schema, which knows
//! where every column starts ([`Schema::field`]).  A getter reads a
//! column where it lies; a setter writes it there, exactly as
//! [`Schema::encode`] would.  The bytes are whatever the row is over: a
//! `Row` owns a copy in [`RowBytes`] (inline up to [`INLINE_RECORD`]
//! bytes, so copying a YCSB or most TPC-C records allocates nothing), a
//! `Row<&[u8]>` is the record in its buffer frame, lent by
//! [`crate::Database::read`], and a `Row<&mut [u8]>` edits it there,
//! lent by [`crate::Database::update_with`].  So a read decodes and
//! copies nothing and an update encodes nothing.  A [`Record`]
//! (`Vec<Value>`) is still what an insert usually starts from: both are
//! [`AsRecord`], and values are encoded into a buffer the engine keeps.

use std::borrow::Cow;
use std::fmt;
use std::mem::discriminant;
use std::ops::Range;
use std::sync::Arc;

use crate::error::DbError;
use crate::schema::{ColumnType, Schema};
use crate::value::Record;
use crate::Result;

/// A record in its encoded bytes `B`, with its table's schema.
///
/// The getters and setters take a column index and panic if the column
/// does not exist or is of another type (a float column also takes
/// [`Row::set_int`], as [`Schema::encode`] takes an `Int` there).
#[derive(Debug, Clone)]
pub struct Row<B = RowBytes> {
    schema: Arc<Schema>,
    bytes: B,
}

/// The longest record an owned [`Row`] keeps inline: the YCSB record
/// (128 bytes) and every TPC-C table's but CUSTOMER's and STOCK's.
pub const INLINE_RECORD: usize = 256;

/// The bytes of an owned [`Row`]: a record of up to [`INLINE_RECORD`]
/// bytes inline, a longer one in one heap buffer of its length.
#[derive(Clone)]
pub struct RowBytes(Repr);

#[derive(Clone)]
#[expect(clippy::large_enum_variant, reason = "the inline record is the point of the type")]
enum Repr {
    /// The record's length, at most [`INLINE_RECORD`], and its bytes in
    /// front of the array.
    Inline(usize, [u8; INLINE_RECORD]),
    /// A record longer than [`INLINE_RECORD`].
    Spilled(Box<[u8]>),
}

impl From<&[u8]> for RowBytes {
    fn from(bytes: &[u8]) -> RowBytes {
        if bytes.len() > INLINE_RECORD {
            return RowBytes(Repr::Spilled(bytes.into()));
        }
        let mut inline = [0; INLINE_RECORD];
        inline[..bytes.len()].copy_from_slice(bytes);
        RowBytes(Repr::Inline(bytes.len(), inline))
    }
}

impl AsRef<[u8]> for RowBytes {
    fn as_ref(&self) -> &[u8] {
        match &self.0 {
            Repr::Inline(len, inline) => &inline[..*len],
            Repr::Spilled(bytes) => bytes,
        }
    }
}

impl AsMut<[u8]> for RowBytes {
    fn as_mut(&mut self) -> &mut [u8] {
        match &mut self.0 {
            Repr::Inline(len, inline) => &mut inline[..*len],
            Repr::Spilled(bytes) => bytes,
        }
    }
}

impl fmt::Debug for RowBytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.as_ref().fmt(f)
    }
}

impl<B: AsRef<[u8]>> Row<B> {
    /// The row `bytes` hold for `schema`: `Corrupted` if they are shorter
    /// than a record or a string's stored length exceeds its column.
    /// Bytes past the record are not the row's.
    pub fn new(schema: Arc<Schema>, bytes: B) -> Result<Row<B>> {
        let (len, buf) = (schema.record_len(), bytes.as_ref());
        if buf.len() < len {
            return Err(DbError::Corrupted {
                message: format!(
                    "record buffer of {} bytes is shorter than schema length {len}",
                    buf.len()
                ),
            });
        }
        for col in 0..schema.len() {
            if let (at, ColumnType::Str(n)) = schema.field(col) {
                let stored = u16::from_le_bytes([buf[at], buf[at + 1]]);
                if stored > n {
                    return Err(DbError::Corrupted {
                        message: format!("string length {stored} exceeds column size {n}"),
                    });
                }
            }
        }
        Ok(Row { schema, bytes })
    }

    /// The encoded record.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes.as_ref()[..self.schema.record_len()]
    }

    /// An owned copy: the record's bytes, copied once, into the row
    /// itself up to [`INLINE_RECORD`] bytes, else into one heap buffer.
    pub fn owned(&self) -> Row {
        Row { schema: Arc::clone(&self.schema), bytes: RowBytes::from(self.bytes()) }
    }

    /// The bytes of column `col`, which must be of `kind`'s type (a
    /// string column of any length).
    fn span(&self, col: usize, kind: ColumnType) -> Range<usize> {
        let (at, ty) = self.schema.field(col);
        assert_eq!(discriminant(&ty), discriminant(&kind), "column {col} is {ty:?}");
        at..at + ty.encoded_len()
    }

    #[expect(clippy::expect_used, reason = "an integer or float column spans 8 bytes")]
    fn word(&self, col: usize, kind: ColumnType) -> [u8; 8] {
        self.bytes.as_ref()[self.span(col, kind)].try_into().expect("8 bytes")
    }

    /// The integer in column `col`.
    pub fn int(&self, col: usize) -> i64 {
        i64::from_le_bytes(self.word(col, ColumnType::Int))
    }

    /// The float in column `col`.
    pub fn float(&self, col: usize) -> f64 {
        f64::from_le_bytes(self.word(col, ColumnType::Float))
    }

    /// The string in column `col`, borrowed; bytes that are not UTF-8
    /// (a multi-byte character cut by truncation) read as U+FFFD.
    pub fn str(&self, col: usize) -> Cow<'_, str> {
        let field = &self.bytes.as_ref()[self.span(col, ColumnType::Str(0))];
        let len = usize::from(u16::from_le_bytes([field[0], field[1]]));
        String::from_utf8_lossy(&field[2..2 + len])
    }
}

impl<B: AsRef<[u8]> + AsMut<[u8]>> Row<B> {
    /// Store `v` in column `col`; a float column stores it as `v as f64`.
    pub fn set_int(&mut self, col: usize, v: i64) {
        if self.schema.field(col).1 == ColumnType::Float {
            return self.set_float(col, v as f64);
        }
        let span = self.span(col, ColumnType::Int);
        self.bytes.as_mut()[span].copy_from_slice(&v.to_le_bytes());
    }

    /// Store `v` in column `col`.
    pub fn set_float(&mut self, col: usize, v: f64) {
        let span = self.span(col, ColumnType::Float);
        self.bytes.as_mut()[span].copy_from_slice(&v.to_le_bytes());
    }

    /// Store `s` in column `col`: cut to the column's size, zero-padded.
    pub fn set_str(&mut self, col: usize, s: &str) {
        let span = self.span(col, ColumnType::Str(0));
        let (len, text) = self.bytes.as_mut()[span].split_at_mut(2);
        let take = s.len().min(text.len());
        len.copy_from_slice(&(take as u16).to_le_bytes());
        text[..take].copy_from_slice(&s.as_bytes()[..take]);
        text[take..].fill(0);
    }
}

/// A record [`crate::Database::insert`] and [`crate::Database::update`]
/// can store.
pub trait AsRecord {
    /// The record's bytes for `schema`: borrowed where they already are,
    /// else encoded into `buf`, a buffer the caller keeps.
    fn encoded<'a>(&'a self, schema: &Schema, buf: &'a mut Vec<u8>) -> Result<&'a [u8]>;
}

/// Values are encoded ([`Schema::encode`]) into the buffer.
impl AsRecord for Record {
    fn encoded<'a>(&'a self, schema: &Schema, buf: &'a mut Vec<u8>) -> Result<&'a [u8]> {
        schema.encode(self, buf)?;
        Ok(buf)
    }
}

/// A row lends its bytes; a row of another schema is a `SchemaMismatch`.
impl<B: AsRef<[u8]>> AsRecord for Row<B> {
    fn encoded<'a>(&'a self, schema: &Schema, _: &'a mut Vec<u8>) -> Result<&'a [u8]> {
        if !std::ptr::eq(&*self.schema, schema) && *self.schema != *schema {
            return Err(DbError::SchemaMismatch { message: "row of another schema".into() });
        }
        Ok(self.bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;
    use noftl_core::crash::SplitMix64;
    use proptest::prelude::*;

    /// The parent's `Schema::decode`, kept as the getters' reference.
    fn decode(schema: &Schema, buf: &[u8]) -> Result<Record> {
        if buf.len() < schema.record_len() {
            return Err(DbError::Corrupted { message: "short".into() });
        }
        let mut record = Vec::with_capacity(schema.len());
        let mut off = 0usize;
        for col in 0..schema.len() {
            match schema.field(col).1 {
                ColumnType::Int => {
                    record.push(Value::Int(i64::from_le_bytes(
                        buf[off..off + 8].try_into().unwrap(),
                    )));
                    off += 8;
                }
                ColumnType::Float => {
                    let v = f64::from_le_bytes(buf[off..off + 8].try_into().unwrap());
                    record.push(Value::Float(v));
                    off += 8;
                }
                ColumnType::Str(n) => {
                    let n = n as usize;
                    let len = u16::from_le_bytes(buf[off..off + 2].try_into().unwrap()) as usize;
                    if len > n {
                        return Err(DbError::Corrupted { message: "long".into() });
                    }
                    let s = String::from_utf8_lossy(&buf[off + 2..off + 2 + len]).into_owned();
                    record.push(Value::Str(s));
                    off += 2 + n;
                }
            }
        }
        Ok(record)
    }

    /// Up to twice a column's size plus a little, with multi-byte
    /// characters a cut can split.
    fn text(rng: &mut SplitMix64, n: u16) -> String {
        const CHARS: [char; 5] = ['a', 'Z', ' ', 'é', '€'];
        let len = rng.below(2 * u64::from(n) + 4);
        (0..len).map(|_| CHARS[rng.below(CHARS.len() as u64) as usize]).collect()
    }

    /// A value for column type `ty`; a float column gets an `Int` at times.
    fn value(rng: &mut SplitMix64, ty: ColumnType) -> Value {
        match ty {
            ColumnType::Int => Value::Int(rng.next_u64() as i64),
            ColumnType::Float if rng.below(3) == 0 => Value::Int(rng.next_u64() as i64 >> 11),
            ColumnType::Float => Value::Float(f64::from_bits(rng.next_u64())),
            ColumnType::Str(n) => Value::Str(text(rng, n)),
        }
    }

    fn random_schema(rng: &mut SplitMix64) -> Schema {
        let names = ["a", "b", "c", "d", "e", "f", "g", "h", "i", "j", "k", "l"];
        let columns = (0..1 + rng.below(names.len() as u64) as usize)
            .map(|i| {
                let ty = match rng.below(3) {
                    0 => ColumnType::Int,
                    1 => ColumnType::Float,
                    _ => ColumnType::Str(rng.below(120) as u16),
                };
                (names[i], ty)
            })
            .collect();
        Schema::new(columns)
    }

    /// The bytes [`Schema::encode`] writes for `record`.
    fn encode(schema: &Schema, record: &Record) -> Result<Vec<u8>> {
        let mut out = Vec::new();
        schema.encode(record, &mut out).map(|()| out)
    }

    /// Each getter reads what `decode` decoded.
    fn assert_getters_match<B: AsRef<[u8]>>(row: &Row<B>, reference: &Record) {
        for (col, value) in reference.iter().enumerate() {
            match value {
                Value::Int(v) => assert_eq!(row.int(col), *v, "column {col}"),
                Value::Float(v) => {
                    assert_eq!(row.float(col).to_bits(), v.to_bits(), "column {col}")
                }
                Value::Str(s) => assert_eq!(row.str(col), s.as_str(), "column {col}"),
            }
        }
    }

    fn set<B: AsRef<[u8]> + AsMut<[u8]>>(row: &mut Row<B>, col: usize, edit: &Value) {
        match edit {
            Value::Int(v) => row.set_int(col, *v),
            Value::Float(v) => row.set_float(col, *v),
            Value::Str(s) => row.set_str(col, s),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        /// Random schemas and records, strings past their column and ints
        /// in float columns: the getters read what `decode` returned, any
        /// run of setters leaves the bytes `encode` writes for the same
        /// edits, and a short buffer or an over-long string length is
        /// `Corrupted` — for an owned row and for one borrowed, and one
        /// mutably borrowed, from a frame that holds the record followed
        /// by bytes that are not the row's and stay as they are.  The
        /// records run from a few bytes to about 500, so owned rows lie
        /// inline and spilled alike, each as its length says.  And a
        /// row that starts as zero bytes and gets a random subset of its
        /// columns set holds what `encode` writes for the same values,
        /// with each unset column `Int(0)`, `Float(0.0)` or empty.
        #[test]
        fn row_bytes_equal_the_value_round_trip(seed in any::<u64>(), edits in 0usize..24) {
            let mut rng = SplitMix64(seed);
            let schema = Arc::new(random_schema(&mut rng));
            let types: Vec<ColumnType> = (0..schema.len()).map(|c| schema.field(c).1).collect();
            let mut record: Record = types.iter().map(|ty| value(&mut rng, *ty)).collect();
            let bytes = encode(&schema, &record).unwrap();
            let mut row = Row::new(Arc::clone(&schema), &bytes[..]).unwrap().owned();
            let len = schema.record_len();
            let inline = matches!(row.bytes.0, Repr::Inline(..));
            prop_assert_eq!(inline, len <= INLINE_RECORD, "a {}-byte record", len);
            let tail: Vec<u8> = (0..rng.below(5)).map(|_| rng.next_u64() as u8).collect();
            let mut frame = [&bytes[..], &tail].concat();
            let borrowed = |frame: &[u8]| Row::new(Arc::clone(&schema), frame).unwrap().bytes().to_vec();
            let reference = decode(&schema, &bytes).unwrap();
            assert_getters_match(&row, &reference);
            assert_getters_match(&Row::new(Arc::clone(&schema), &frame[..]).unwrap(), &reference);
            prop_assert_eq!(borrowed(&frame), bytes.clone());

            for _ in 0..edits {
                let col = rng.below(types.len() as u64) as usize;
                let edit = value(&mut rng, types[col]);
                set(&mut row, col, &edit);
                set(&mut Row::new(Arc::clone(&schema), &mut frame[..]).unwrap(), col, &edit);
                record[col] = edit;
                let bytes = encode(&schema, &record).unwrap();
                prop_assert_eq!(row.bytes(), &bytes[..]);
                prop_assert_eq!(&frame[..len], &bytes[..]);
                prop_assert_eq!(&frame[len..], &tail[..]);
                let reference = decode(&schema, &bytes).unwrap();
                assert_getters_match(&row, &reference);
                assert_getters_match(&Row::new(Arc::clone(&schema), &frame[..]).unwrap(), &reference);
                assert_getters_match(&Row::new(Arc::clone(&schema), &mut frame[..]).unwrap(), &reference);
            }
            // Values encode into the caller's buffer, rows lend their bytes.
            let mut buf = tail.clone();
            prop_assert_eq!(record.encoded(&schema, &mut buf).unwrap(), row.bytes());
            prop_assert_eq!(row.encoded(&schema, &mut buf).unwrap(), row.bytes());
            let lent = Row::new(Arc::clone(&schema), &frame[..]).unwrap();
            prop_assert_eq!(lent.encoded(&schema, &mut buf).unwrap(), row.bytes());
            prop_assert_eq!(lent.owned().bytes(), row.bytes());
            // The bound itself: a record of `INLINE_RECORD` bytes is inline.
            let edge = vec![seed as u8; INLINE_RECORD + 1];
            prop_assert!(matches!(RowBytes::from(&edge[1..]).0, Repr::Inline(INLINE_RECORD, _)));
            prop_assert!(matches!(RowBytes::from(&edge[..]).0, Repr::Spilled(b) if *b == *edge));

            let mut zeroed = vec![0; len];
            let mut built = Row::new(Arc::clone(&schema), &mut zeroed[..]).unwrap();
            let mut values = Record::new();
            for (col, ty) in types.iter().enumerate() {
                values.push(match ty {
                    _ if rng.below(2) == 0 => {
                        let v = value(&mut rng, *ty);
                        set(&mut built, col, &v);
                        v
                    }
                    ColumnType::Int => Value::Int(0),
                    ColumnType::Float => Value::Float(0.0),
                    ColumnType::Str(_) => Value::Str(String::new()),
                });
            }
            prop_assert_eq!(built.bytes(), &encode(&schema, &values).unwrap()[..]);

            // A buffer one byte short, or shorter: owned, borrowed and
            // mutably borrowed.
            let short = rng.below(len as u64) as usize;
            let corrupted = |r: Result<Vec<u8>>| matches!(r, Err(DbError::Corrupted { .. }));
            let owned = |bytes: &[u8]| Row::new(Arc::clone(&schema), RowBytes::from(bytes)).map(|r| r.bytes().to_vec());
            let lent = |bytes: &[u8]| Row::new(Arc::clone(&schema), bytes).map(|r| r.bytes().to_vec());
            let lent_mut = |bytes: &mut [u8]| Row::new(Arc::clone(&schema), bytes).map(|r| r.bytes().to_vec());
            prop_assert!(corrupted(owned(&row.bytes()[..short])));
            prop_assert!(corrupted(lent(&frame[..short])));
            prop_assert!(corrupted(lent_mut(&mut frame[..short])));
            let mut longer = row.bytes().to_vec();
            longer.push(7);
            prop_assert_eq!(owned(&longer).unwrap(), row.bytes());
            // A string length past its column.
            for (col, ty) in types.iter().enumerate() {
                let ColumnType::Str(n) = *ty else { continue };
                let mut bytes = row.bytes().to_vec();
                let at = schema.field(col).0;
                let len = n + 1 + rng.below(u64::from(u16::MAX - n)) as u16;
                bytes[at..at + 2].copy_from_slice(&len.to_le_bytes());
                prop_assert!(decode(&schema, &bytes).is_err());
                prop_assert!(corrupted(owned(&bytes)));
                prop_assert!(corrupted(lent(&bytes)));
                prop_assert!(corrupted(lent_mut(&mut bytes)));
            }
        }
    }

    #[test]
    fn a_row_of_another_schema_is_refused() {
        let schema = Schema::new(vec![("id", ColumnType::Int), ("name", ColumnType::Str(4))]);
        let record = vec![Value::Int(3), Value::Str("abc".into())];
        let row = Row::new(Arc::new(schema.clone()), encode(&schema, &record).unwrap()).unwrap();
        // An equal schema is the same layout.
        assert_eq!(row.encoded(&schema, &mut Vec::new()).unwrap(), row.bytes());
        let other = Schema::new(vec![("id", ColumnType::Int), ("name", ColumnType::Str(5))]);
        assert!(matches!(
            row.encoded(&other, &mut Vec::new()),
            Err(DbError::SchemaMismatch { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "column 1 is Str(4)")]
    fn a_getter_of_the_wrong_type_panics() {
        let schema =
            Arc::new(Schema::new(vec![("id", ColumnType::Int), ("n", ColumnType::Str(4))]));
        let row = Row::new(schema, vec![0; 8 + 2 + 4]).unwrap();
        row.int(1);
    }
}

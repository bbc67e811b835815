//! Table schemas and fixed-layout record encoding.

use flash_sim::codec::{put_bytes16, put_u16, put_u8, Reader};

use crate::error::DbError;
use crate::value::{Record, Value};
use crate::Result;

/// Column data types.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColumnType {
    /// 64-bit signed integer (8 bytes on disk).
    Int,
    /// 64-bit float (8 bytes on disk).
    Float,
    /// String padded/truncated to `n` bytes on disk.
    Str(u16),
}

impl ColumnType {
    /// On-disk size of a value of this type.
    pub fn encoded_len(&self) -> usize {
        match self {
            ColumnType::Int | ColumnType::Float => 8,
            ColumnType::Str(n) => 2 + *n as usize, // u16 actual length + padded bytes
        }
    }
}

/// A table schema: ordered, named, typed columns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    columns: Vec<(String, ColumnType)>,
}

impl Schema {
    /// Build a schema from `(name, type)` pairs.
    pub fn new(columns: Vec<(&str, ColumnType)>) -> Self {
        Schema { columns: columns.into_iter().map(|(n, t)| (n.to_string(), t)).collect() }
    }

    /// Number of columns.
    pub fn len(&self) -> usize {
        self.columns.len()
    }

    /// True if the schema has no columns.
    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// Index of a column by name.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|(n, _)| n == name)
    }

    /// Name and type of the column at `idx`.
    pub fn column(&self, idx: usize) -> Option<(&str, ColumnType)> {
        self.columns.get(idx).map(|(n, t)| (n.as_str(), *t))
    }

    /// The fixed on-disk size of a record of this schema.
    pub fn record_len(&self) -> usize {
        self.columns.iter().map(|(_, t)| t.encoded_len()).sum()
    }

    /// Append the schema *definition* (column names and types) so the
    /// catalog can be checkpointed and rebuilt during crash recovery.
    pub fn encode_def(&self, out: &mut Vec<u8>) {
        put_u16(out, self.columns.len() as u16);
        for (name, ty) in &self.columns {
            put_bytes16(out, name.as_bytes());
            match ty {
                ColumnType::Int => put_u8(out, 0),
                ColumnType::Float => put_u8(out, 1),
                ColumnType::Str(n) => {
                    put_u8(out, 2);
                    put_u16(out, *n);
                }
            }
        }
    }

    /// Read a definition written by [`Schema::encode_def`]; `None` on
    /// corruption.
    pub fn decode_def(r: &mut Reader<'_>) -> Option<Schema> {
        let columns = (0..r.u16()?)
            .map(|_| {
                let name = r.str16()?.to_owned();
                let ty = match r.u8()? {
                    0 => ColumnType::Int,
                    1 => ColumnType::Float,
                    2 => ColumnType::Str(r.u16()?),
                    _ => return None,
                };
                Some((name, ty))
            })
            .collect::<Option<_>>()?;
        Some(Schema { columns })
    }

    /// Encode a record according to the schema.
    pub fn encode(&self, record: &Record) -> Result<Vec<u8>> {
        if record.len() != self.columns.len() {
            return Err(DbError::SchemaMismatch {
                message: format!(
                    "record has {} values, schema has {} columns",
                    record.len(),
                    self.columns.len()
                ),
            });
        }
        let mut out = Vec::with_capacity(self.record_len());
        for ((name, ty), value) in self.columns.iter().zip(record.iter()) {
            match (ty, value) {
                (ColumnType::Int, Value::Int(v)) => out.extend_from_slice(&v.to_le_bytes()),
                (ColumnType::Float, Value::Float(v)) => out.extend_from_slice(&v.to_le_bytes()),
                (ColumnType::Float, Value::Int(v)) => {
                    out.extend_from_slice(&(*v as f64).to_le_bytes())
                }
                (ColumnType::Str(n), Value::Str(s)) => {
                    let n = *n as usize;
                    let bytes = s.as_bytes();
                    let take = bytes.len().min(n);
                    out.extend_from_slice(&(take as u16).to_le_bytes());
                    out.extend_from_slice(&bytes[..take]);
                    out.resize(out.len() + (n - take), 0);
                }
                _ => {
                    return Err(DbError::SchemaMismatch {
                        message: format!("column '{name}' expects {ty:?}, got {value:?}"),
                    })
                }
            }
        }
        Ok(out)
    }

    /// Decode a record previously produced by [`Schema::encode`].
    pub fn decode(&self, buf: &[u8]) -> Result<Record> {
        if buf.len() < self.record_len() {
            return Err(DbError::Corrupted {
                message: format!(
                    "record buffer of {} bytes is shorter than schema length {}",
                    buf.len(),
                    self.record_len()
                ),
            });
        }
        let mut record = Vec::with_capacity(self.columns.len());
        let mut off = 0usize;
        for (_, ty) in &self.columns {
            match ty {
                ColumnType::Int => {
                    let v = i64::from_le_bytes(buf[off..off + 8].try_into().expect("8 bytes"));
                    record.push(Value::Int(v));
                    off += 8;
                }
                ColumnType::Float => {
                    let v = f64::from_le_bytes(buf[off..off + 8].try_into().expect("8 bytes"));
                    record.push(Value::Float(v));
                    off += 8;
                }
                ColumnType::Str(n) => {
                    let n = *n as usize;
                    let len =
                        u16::from_le_bytes(buf[off..off + 2].try_into().expect("2 bytes")) as usize;
                    if len > n {
                        return Err(DbError::Corrupted {
                            message: format!("string length {len} exceeds column size {n}"),
                        });
                    }
                    let s = String::from_utf8_lossy(&buf[off + 2..off + 2 + len]).into_owned();
                    record.push(Value::Str(s));
                    off += 2 + n;
                }
            }
        }
        Ok(record)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn schema() -> Schema {
        Schema::new(vec![
            ("id", ColumnType::Int),
            ("balance", ColumnType::Float),
            ("name", ColumnType::Str(16)),
        ])
    }

    #[test]
    fn record_roundtrip() {
        let s = schema();
        let rec: Record = vec![Value::Int(42), Value::Float(-3.25), Value::Str("alice".into())];
        let enc = s.encode(&rec).unwrap();
        assert_eq!(enc.len(), s.record_len());
        assert_eq!(s.decode(&enc).unwrap(), rec);
    }

    #[test]
    fn fixed_record_length_is_independent_of_content() {
        let s = schema();
        let a = s.encode(&vec![Value::Int(1), Value::Float(0.0), Value::Str("".into())]).unwrap();
        let b = s
            .encode(&vec![Value::Int(2), Value::Float(1.5), Value::Str("sixteen-chars!!!".into())])
            .unwrap();
        assert_eq!(a.len(), b.len());
    }

    #[test]
    fn long_strings_are_truncated_to_column_size() {
        let s = schema();
        let rec: Record = vec![Value::Int(1), Value::Float(0.0), Value::Str("x".repeat(100))];
        let enc = s.encode(&rec).unwrap();
        let dec = s.decode(&enc).unwrap();
        assert_eq!(dec[2].as_str().unwrap().len(), 16);
    }

    #[test]
    fn int_is_accepted_for_float_columns() {
        let s = schema();
        let rec: Record = vec![Value::Int(1), Value::Int(7), Value::Str("a".into())];
        let dec = s.decode(&s.encode(&rec).unwrap()).unwrap();
        assert_eq!(dec[1], Value::Float(7.0));
    }

    #[test]
    fn schema_mismatch_errors() {
        let s = schema();
        assert!(s.encode(&vec![Value::Int(1)]).is_err());
        assert!(s
            .encode(&vec![Value::Str("x".into()), Value::Float(0.0), Value::Str("y".into())])
            .is_err());
        assert!(s.decode(&[0u8; 3]).is_err());
    }

    #[test]
    fn definition_roundtrip_and_rejection() {
        let mut def = Vec::new();
        schema().encode_def(&mut def);
        assert_eq!(Schema::decode_def(&mut Reader::new(&def)), Some(schema()));
        for n in 0..def.len() {
            assert_eq!(Schema::decode_def(&mut Reader::new(&def[..n])), None, "prefix of {n}");
        }
        // The `balance` column's type tag (0/1/2) becomes 3.
        let tag = 2 + (2 + 2) + 1 + (2 + 7);
        def[tag] ^= 0x02;
        assert_eq!(Schema::decode_def(&mut Reader::new(&def)), None);
    }

    #[test]
    fn column_lookup() {
        let s = schema();
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
        assert_eq!(s.column_index("balance"), Some(1));
        assert_eq!(s.column_index("nope"), None);
        assert_eq!(s.column(2).unwrap().0, "name");
        assert!(s.column(9).is_none());
    }

    proptest! {
        #[test]
        fn roundtrip_arbitrary_values(id in any::<i64>(), bal in any::<f64>(), name in "[a-zA-Z0-9 ]{0,16}") {
            prop_assume!(!bal.is_nan());
            let s = schema();
            let rec: Record = vec![Value::Int(id), Value::Float(bal), Value::Str(name.clone())];
            let dec = s.decode(&s.encode(&rec).unwrap()).unwrap();
            prop_assert_eq!(dec, rec);
        }
    }
}

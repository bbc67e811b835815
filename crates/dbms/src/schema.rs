//! Table schemas and fixed-layout record encoding.
//!
//! A record stays in its bytes.  [`Schema::encode`] lays a [`Record`] of
//! values out once, when it is inserted, into a buffer the engine keeps
//! (so no record write allocates); from then on the engine hands
//! out and takes back [`crate::Row`]s, which read and write each column
//! at the offset [`Schema::field`] gives, computed once per schema.
//! There is no decoder: with reads and updates left in their bytes,
//! a TPC-C transaction allocates 90 times instead of 406
//! (`host_allocs_per_op` on `tpcc_traditional` at the default seed,
//! 96 KB → 73 KB), every simulated figure and every stored row unchanged.

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
    /// Where each column starts in an encoded record, then the record's
    /// length: computed once, so a [`crate::Row`] reads a column in place.
    offsets: Vec<usize>,
}

impl Schema {
    /// Build a schema from `(name, type)` pairs.
    pub fn new(columns: Vec<(&str, ColumnType)>) -> Self {
        Self::from_columns(columns.into_iter().map(|(n, t)| (n.to_string(), t)).collect())
    }

    fn from_columns(columns: Vec<(String, ColumnType)>) -> Self {
        let mut offsets = vec![0];
        for (_, ty) in &columns {
            offsets.push(offsets[offsets.len() - 1] + ty.encoded_len());
        }
        Schema { columns, offsets }
    }

    /// Number of columns.
    pub fn len(&self) -> usize {
        self.columns.len()
    }

    /// True if the schema has no columns.
    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// The fixed on-disk size of a record of this schema.
    pub fn record_len(&self) -> usize {
        self.offsets[self.columns.len()]
    }

    /// Where column `idx` starts in an encoded record, and its type.
    /// Panics if there is no such column.
    pub fn field(&self, idx: usize) -> (usize, ColumnType) {
        (self.offsets[idx], self.columns[idx].1)
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
        Some(Self::from_columns(columns))
    }

    /// Encode a record according to the schema into `out`, replacing
    /// what it held; `out` keeps its capacity from record to record.
    pub fn encode(&self, record: &Record, out: &mut Vec<u8>) -> Result<()> {
        if record.len() != self.columns.len() {
            return Err(DbError::SchemaMismatch {
                message: format!(
                    "record has {} values, schema has {} columns",
                    record.len(),
                    self.columns.len()
                ),
            });
        }
        out.clear();
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
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Schema {
        Schema::new(vec![
            ("id", ColumnType::Int),
            ("balance", ColumnType::Float),
            ("name", ColumnType::Str(16)),
        ])
    }

    fn encode(s: &Schema, record: &Record) -> Result<Vec<u8>> {
        let mut out = vec![7; 3];
        s.encode(record, &mut out).map(|()| out)
    }

    #[test]
    fn fixed_record_length_is_independent_of_content() {
        let s = schema();
        let a = encode(&s, &vec![Value::Int(1), Value::Float(0.0), Value::Str("".into())]);
        let long = vec![Value::Int(2), Value::Float(1.5), Value::Str("sixteen-chars!!!".into())];
        let (a, b) = (a.unwrap(), encode(&s, &long).unwrap());
        assert_eq!((a.len(), b.len()), (s.record_len(), s.record_len()));
        // Encoded into a buffer that held a longer record: replaced.
        let mut buf = b.clone();
        s.encode(&vec![Value::Int(1), Value::Float(0.0), Value::Str("".into())], &mut buf).unwrap();
        assert_eq!(buf, a);
        assert_eq!(s.record_len(), 8 + 8 + 2 + 16);
        assert_eq!(s.field(2), (16, ColumnType::Str(16)));
    }

    #[test]
    fn schema_mismatch_errors() {
        let s = schema();
        assert!(encode(&s, &vec![Value::Int(1)]).is_err());
        let swapped = vec![Value::Str("x".into()), Value::Float(0.0), Value::Str("y".into())];
        assert!(encode(&s, &swapped).is_err());
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
        assert_eq!(s.columns[1].0, "balance");
        assert_eq!(s.columns[2].0, "name");
    }
}

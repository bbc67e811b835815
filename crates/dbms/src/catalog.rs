//! The catalog's entries: tables, their schemas, heaps and indexes.

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::btree::BTree;
use crate::error::DbError;
use crate::heap::HeapFile;
use crate::schema::Schema;
use crate::Result;

/// A table: schema, heap file and indexes.
#[derive(Debug)]
pub struct TableDef {
    /// Column schema, shared with every [`crate::Row`] read from the table.
    pub schema: Arc<Schema>,
    /// The heap file holding the rows.
    pub heap: HeapFile,
    /// The B+-tree of each index on the table, by index name (unique
    /// within the database).
    pub indexes: BTreeMap<String, BTree>,
}

impl TableDef {
    /// Look up an index of this table, to write to.
    pub(crate) fn index_mut(&mut self, name: &str) -> Result<&mut BTree> {
        self.indexes.get_mut(name).ok_or_else(|| no_index(name))
    }
}

/// Index names are unique within the database, so the name alone says
/// which index is missing.
fn no_index(index: &str) -> DbError {
    DbError::not_found(format!("index '{index}'"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ColumnType;

    #[test]
    fn index_lookup_on_table() {
        let mut t = TableDef {
            schema: Arc::new(Schema::new(vec![("id", ColumnType::Int)])),
            heap: HeapFile::new(1),
            indexes: BTreeMap::new(),
        };
        assert!(t.index_mut("o_idx").is_err());
        t.indexes.insert("o_idx".to_string(), BTree::new(2));
        assert!(t.index_mut("o_idx").is_ok());
    }
}

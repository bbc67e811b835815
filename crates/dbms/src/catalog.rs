//! The catalog: tables, their schemas, heaps and indexes.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::RwLock;

use crate::btree::BTree;
use crate::error::DbError;
use crate::heap::HeapFile;
use crate::schema::Schema;
use crate::Result;

/// Definition of a secondary (or primary) index.
#[derive(Debug)]
pub struct IndexDef {
    /// Index name (unique within the database).
    pub name: String,
    /// The B+-tree storing the index.
    pub tree: BTree,
}

/// A table: schema, heap file and indexes.
#[derive(Debug)]
pub struct TableDef {
    /// Table name.
    pub name: String,
    /// Column schema, shared with every [`crate::Row`] read from the table.
    pub schema: Arc<Schema>,
    /// The heap file holding the rows.
    pub heap: HeapFile,
    /// Indexes on the table, by name.
    pub indexes: RwLock<HashMap<String, Arc<IndexDef>>>,
}

impl TableDef {
    /// Look up an index of this table.
    pub fn index(&self, name: &str) -> Result<Arc<IndexDef>> {
        self.indexes
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| DbError::not_found(format!("index '{name}' on table '{}'", self.name)))
    }
}

/// The database catalog.
#[derive(Debug, Default)]
pub struct Catalog {
    tables: RwLock<HashMap<String, Arc<TableDef>>>,
}

impl Catalog {
    /// Create an empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a table.
    pub fn add_table(&self, table: TableDef) -> Result<Arc<TableDef>> {
        let mut tables = self.tables.write();
        if tables.contains_key(&table.name) {
            return Err(DbError::AlreadyExists { what: format!("table '{}'", table.name) });
        }
        let arc = Arc::new(table);
        tables.insert(arc.name.clone(), Arc::clone(&arc));
        Ok(arc)
    }

    /// Look up a table.
    pub fn table(&self, name: &str) -> Result<Arc<TableDef>> {
        self.tables
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| DbError::not_found(format!("table '{name}'")))
    }

    /// Names of all tables.
    pub fn table_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.tables.read().keys().cloned().collect();
        names.sort();
        names
    }

    /// Number of tables.
    pub fn table_count(&self) -> usize {
        self.tables.read().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ColumnType;

    fn table(name: &str) -> TableDef {
        TableDef {
            name: name.to_string(),
            schema: Arc::new(Schema::new(vec![("id", ColumnType::Int)])),
            heap: HeapFile::new(1),
            indexes: RwLock::new(HashMap::new()),
        }
    }

    #[test]
    fn add_and_lookup_tables() {
        let catalog = Catalog::new();
        catalog.add_table(table("customer")).unwrap();
        catalog.add_table(table("stock")).unwrap();
        assert!(catalog.table("customer").is_ok());
        assert!(catalog.table("nope").is_err());
        assert_eq!(catalog.table_count(), 2);
        assert_eq!(catalog.table_names(), vec!["customer".to_string(), "stock".to_string()]);
        // Duplicates rejected.
        assert!(matches!(catalog.add_table(table("stock")), Err(DbError::AlreadyExists { .. })));
    }

    #[test]
    fn index_lookup_on_table() {
        let catalog = Catalog::new();
        let t = catalog.add_table(table("orders")).unwrap();
        assert!(t.index("o_idx").is_err());
        t.indexes.write().insert(
            "o_idx".to_string(),
            Arc::new(IndexDef { name: "o_idx".to_string(), tree: BTree::new(2) }),
        );
        assert!(t.index("o_idx").is_ok());
    }
}

//! TPC-C schema: tables, indexes and helper key builders.
//!
//! Object names follow the paper's Figure 2 exactly, so a placement
//! configuration can be written directly against them:
//! `WAREHOUSE`, `DISTRICT`, `CUSTOMER`, `HISTORY`, `NEW_ORDER`, `ORDER`,
//! `ORDERLINE`, `ITEM`, `STOCK` and the indexes `W_IDX`, `D_IDX`, `C_IDX`,
//! `C_NAME_IDX`, `I_IDX`, `S_IDX`, `O_IDX`, `O_CUST_IDX`, `NO_IDX`,
//! `OL_IDX` (plus the engine's own `DBMS-metadata` and `DBMS-log`).

use std::sync::Arc;

use dbms_engine::value::encode_key_int;
use dbms_engine::{ColumnType, Database, RecordId, Row, Schema, Txn};
use flash_sim::SimTime;

/// Width of the padded last-name component in `C_NAME_IDX` keys.
pub const LAST_NAME_KEY_PAD: usize = 16;

/// Names of all TPC-C tables (heap objects).
pub fn table_names() -> Vec<String> {
    [
        "WAREHOUSE",
        "DISTRICT",
        "CUSTOMER",
        "HISTORY",
        "NEW_ORDER",
        "ORDER",
        "ORDERLINE",
        "ITEM",
        "STOCK",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect()
}

/// Every TPC-C index with the table it belongs to, in creation order.
pub const INDEXES: [(&str, &str); 10] = [
    ("W_IDX", "WAREHOUSE"),
    ("D_IDX", "DISTRICT"),
    ("C_IDX", "CUSTOMER"),
    ("C_NAME_IDX", "CUSTOMER"),
    ("I_IDX", "ITEM"),
    ("S_IDX", "STOCK"),
    ("O_IDX", "ORDER"),
    ("O_CUST_IDX", "ORDER"),
    ("NO_IDX", "NEW_ORDER"),
    ("OL_IDX", "ORDERLINE"),
];

/// All storage object names the workload creates (tables, indexes and the
/// engine's metadata/log objects).
pub fn object_names() -> Vec<String> {
    let mut names = table_names();
    names.extend(INDEXES.iter().map(|(index, _)| index.to_string()));
    names.push(dbms_engine::db::METADATA_OBJECT.to_string());
    names.push(dbms_engine::db::LOG_OBJECT.to_string());
    names
}

/// The table `index` belongs to; `None` for a name [`INDEXES`] lacks.
pub fn index_table(index: &str) -> Option<&'static str> {
    INDEXES.iter().find(|(name, _)| *name == index).map(|(_, table)| *table)
}

/// Schema of the WAREHOUSE table.
pub fn warehouse_schema() -> Schema {
    Schema::new(vec![
        ("w_id", ColumnType::Int),
        ("w_name", ColumnType::Str(10)),
        ("w_street_1", ColumnType::Str(20)),
        ("w_street_2", ColumnType::Str(20)),
        ("w_city", ColumnType::Str(20)),
        ("w_state", ColumnType::Str(2)),
        ("w_zip", ColumnType::Str(9)),
        ("w_tax", ColumnType::Float),
        ("w_ytd", ColumnType::Float),
    ])
}

/// Schema of the DISTRICT table.
pub fn district_schema() -> Schema {
    Schema::new(vec![
        ("d_id", ColumnType::Int),
        ("d_w_id", ColumnType::Int),
        ("d_name", ColumnType::Str(10)),
        ("d_street_1", ColumnType::Str(20)),
        ("d_street_2", ColumnType::Str(20)),
        ("d_city", ColumnType::Str(20)),
        ("d_state", ColumnType::Str(2)),
        ("d_zip", ColumnType::Str(9)),
        ("d_tax", ColumnType::Float),
        ("d_ytd", ColumnType::Float),
        ("d_next_o_id", ColumnType::Int),
    ])
}

/// Schema of the CUSTOMER table (the paper-era 655-byte row, dominated by
/// the 500-byte `c_data` field).
pub fn customer_schema() -> Schema {
    Schema::new(vec![
        ("c_id", ColumnType::Int),
        ("c_d_id", ColumnType::Int),
        ("c_w_id", ColumnType::Int),
        ("c_first", ColumnType::Str(16)),
        ("c_middle", ColumnType::Str(2)),
        ("c_last", ColumnType::Str(16)),
        ("c_street_1", ColumnType::Str(20)),
        ("c_street_2", ColumnType::Str(20)),
        ("c_city", ColumnType::Str(20)),
        ("c_state", ColumnType::Str(2)),
        ("c_zip", ColumnType::Str(9)),
        ("c_phone", ColumnType::Str(16)),
        ("c_since", ColumnType::Str(14)),
        ("c_credit", ColumnType::Str(2)),
        ("c_credit_lim", ColumnType::Float),
        ("c_discount", ColumnType::Float),
        ("c_balance", ColumnType::Float),
        ("c_ytd_payment", ColumnType::Float),
        ("c_payment_cnt", ColumnType::Int),
        ("c_delivery_cnt", ColumnType::Int),
        ("c_data", ColumnType::Str(500)),
    ])
}

/// Schema of the HISTORY table.
pub fn history_schema() -> Schema {
    Schema::new(vec![
        ("h_c_id", ColumnType::Int),
        ("h_c_d_id", ColumnType::Int),
        ("h_c_w_id", ColumnType::Int),
        ("h_d_id", ColumnType::Int),
        ("h_w_id", ColumnType::Int),
        ("h_date", ColumnType::Str(14)),
        ("h_amount", ColumnType::Float),
        ("h_data", ColumnType::Str(24)),
    ])
}

/// Schema of the NEW_ORDER table.
pub fn new_order_schema() -> Schema {
    Schema::new(vec![
        ("no_o_id", ColumnType::Int),
        ("no_d_id", ColumnType::Int),
        ("no_w_id", ColumnType::Int),
    ])
}

/// Schema of the ORDER table.
pub fn order_schema() -> Schema {
    Schema::new(vec![
        ("o_id", ColumnType::Int),
        ("o_d_id", ColumnType::Int),
        ("o_w_id", ColumnType::Int),
        ("o_c_id", ColumnType::Int),
        ("o_entry_d", ColumnType::Str(14)),
        ("o_carrier_id", ColumnType::Int),
        ("o_ol_cnt", ColumnType::Int),
        ("o_all_local", ColumnType::Int),
    ])
}

/// Schema of the ORDERLINE table.
pub fn orderline_schema() -> Schema {
    Schema::new(vec![
        ("ol_o_id", ColumnType::Int),
        ("ol_d_id", ColumnType::Int),
        ("ol_w_id", ColumnType::Int),
        ("ol_number", ColumnType::Int),
        ("ol_i_id", ColumnType::Int),
        ("ol_supply_w_id", ColumnType::Int),
        ("ol_delivery_d", ColumnType::Str(14)),
        ("ol_quantity", ColumnType::Int),
        ("ol_amount", ColumnType::Float),
        ("ol_dist_info", ColumnType::Str(24)),
    ])
}

/// Schema of the ITEM table.
pub fn item_schema() -> Schema {
    Schema::new(vec![
        ("i_id", ColumnType::Int),
        ("i_im_id", ColumnType::Int),
        ("i_name", ColumnType::Str(24)),
        ("i_price", ColumnType::Float),
        ("i_data", ColumnType::Str(50)),
    ])
}

/// Schema of the STOCK table.
pub fn stock_schema() -> Schema {
    let mut cols: Vec<(&str, ColumnType)> = vec![
        ("s_i_id", ColumnType::Int),
        ("s_w_id", ColumnType::Int),
        ("s_quantity", ColumnType::Int),
    ];
    // The ten 24-byte district info strings of the spec.
    cols.extend([
        ("s_dist_01", ColumnType::Str(24)),
        ("s_dist_02", ColumnType::Str(24)),
        ("s_dist_03", ColumnType::Str(24)),
        ("s_dist_04", ColumnType::Str(24)),
        ("s_dist_05", ColumnType::Str(24)),
        ("s_dist_06", ColumnType::Str(24)),
        ("s_dist_07", ColumnType::Str(24)),
        ("s_dist_08", ColumnType::Str(24)),
        ("s_dist_09", ColumnType::Str(24)),
        ("s_dist_10", ColumnType::Str(24)),
    ]);
    cols.extend([
        ("s_ytd", ColumnType::Float),
        ("s_order_cnt", ColumnType::Int),
        ("s_remote_cnt", ColumnType::Int),
        ("s_data", ColumnType::Str(50)),
    ]);
    Schema::new(cols)
}

/// Create all TPC-C tables and indexes in `db`.
pub fn create_schema(db: &Database, now: SimTime) -> dbms_engine::Result<()> {
    db.create_table("WAREHOUSE", warehouse_schema(), now)?;
    db.create_table("DISTRICT", district_schema(), now)?;
    db.create_table("CUSTOMER", customer_schema(), now)?;
    db.create_table("HISTORY", history_schema(), now)?;
    db.create_table("NEW_ORDER", new_order_schema(), now)?;
    db.create_table("ORDER", order_schema(), now)?;
    db.create_table("ORDERLINE", orderline_schema(), now)?;
    db.create_table("ITEM", item_schema(), now)?;
    db.create_table("STOCK", stock_schema(), now)?;
    for (index, table) in INDEXES {
        db.create_index(table, index, now)?;
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Row builder
// ---------------------------------------------------------------------

/// Bytes enough for any TPC-C row: CUSTOMER's, the longest, is 733.
pub const ROW_BYTES: usize = 1024;

/// A row's columns, set in schema order from the first, straight into
/// the row's bytes.
pub struct Columns<'r, 'b> {
    row: &'r mut Row<&'b mut [u8]>,
    col: usize,
}

impl Columns<'_, '_> {
    /// Set the next column to the integer `v`.
    pub fn int(&mut self, v: i64) -> &mut Self {
        self.row.set_int(self.col, v);
        self.skip(1)
    }

    /// Set the next column to the float `v`.
    pub fn float(&mut self, v: f64) -> &mut Self {
        self.row.set_float(self.col, v);
        self.skip(1)
    }

    /// Set the next column to the string `s`, cut to the column's size.
    pub fn str(&mut self, s: &str) -> &mut Self {
        self.row.set_str(self.col, s);
        self.skip(1)
    }

    /// Leave the next `n` columns unset, so zero: `Int(0)`, `Float(0.0)`
    /// or an empty string, as `Schema::encode` writes them.
    pub fn skip(&mut self, n: usize) -> &mut Self {
        self.col += n;
        self
    }
}

/// Insert into `table` the row `build` sets, over zeroed bytes on the
/// stack, and register it under `keys`: the row lends its bytes to
/// [`Database::insert`], so nothing is built on the heap.
pub fn insert_row(
    db: &Database,
    txn: &mut Txn,
    table: &str,
    keys: &[(&str, impl AsRef<[u8]>)],
    build: impl FnOnce(&mut Columns<'_, '_>),
) -> dbms_engine::Result<RecordId> {
    let schema = db.with_table(table, |t| Arc::clone(&t.schema))?;
    let mut bytes = [0; ROW_BYTES];
    let mut row = Row::new(schema, &mut bytes[..])?;
    build(&mut Columns { row: &mut row, col: 0 });
    db.insert(txn, table, &row, keys)
}

// ---------------------------------------------------------------------
// Key builders
// ---------------------------------------------------------------------
//
// Every key is an array on the stack holding the bytes
// `dbms_engine::value::composite_key` would build for the same
// components.  A key of leading components is the prefix of every key
// that extends it: `district_key` covers a district's orders in `O_IDX`,
// `NO_IDX` and `OL_IDX`, `order_key` an order's lines in `OL_IDX`, and
// `customer_key` a customer's orders in `O_CUST_IDX`.

/// The order-preserving key of `parts`, `N` = 8 bytes per component.
fn key<const N: usize>(parts: &[i64]) -> [u8; N] {
    debug_assert_eq!(N, 8 * parts.len());
    let mut key = [0; N];
    for (field, part) in key.chunks_exact_mut(8).zip(parts) {
        field.copy_from_slice(&encode_key_int(*part));
    }
    key
}

/// Key of `W_IDX`: (w_id).
pub fn warehouse_key(w_id: i64) -> [u8; 8] {
    key(&[w_id])
}

/// Key of `D_IDX`: (w_id, d_id).
pub fn district_key(w_id: i64, d_id: i64) -> [u8; 16] {
    key(&[w_id, d_id])
}

/// Key of `C_IDX`: (w_id, d_id, c_id).
pub fn customer_key(w_id: i64, d_id: i64, c_id: i64) -> [u8; 24] {
    key(&[w_id, d_id, c_id])
}

/// Key of `C_NAME_IDX`: (w_id, d_id, c_last, c_id).
pub fn customer_name_key(w_id: i64, d_id: i64, c_last: &str, c_id: i64) -> [u8; 40] {
    let mut key = [0; 40];
    key[..32].copy_from_slice(&customer_name_prefix(w_id, d_id, c_last));
    key[32..].copy_from_slice(&encode_key_int(c_id));
    key
}

/// Prefix of `C_NAME_IDX` covering every customer with a given last name:
/// (w_id, d_id), then `c_last` cut or zero-padded to
/// [`LAST_NAME_KEY_PAD`] bytes, so keys stay fixed-length and ordered.
pub fn customer_name_prefix(w_id: i64, d_id: i64, c_last: &str) -> [u8; 16 + LAST_NAME_KEY_PAD] {
    let mut key = [0; 16 + LAST_NAME_KEY_PAD];
    key[..16].copy_from_slice(&district_key(w_id, d_id));
    let name = &c_last.as_bytes()[..c_last.len().min(LAST_NAME_KEY_PAD)];
    key[16..16 + name.len()].copy_from_slice(name);
    key
}

/// Key of `I_IDX`: (i_id).
pub fn item_key(i_id: i64) -> [u8; 8] {
    key(&[i_id])
}

/// Key of `S_IDX`: (w_id, i_id).
pub fn stock_key(w_id: i64, i_id: i64) -> [u8; 16] {
    key(&[w_id, i_id])
}

/// Key of `O_IDX`: (w_id, d_id, o_id).
pub fn order_key(w_id: i64, d_id: i64, o_id: i64) -> [u8; 24] {
    key(&[w_id, d_id, o_id])
}

/// Key of `O_CUST_IDX`: (w_id, d_id, c_id, o_id).
pub fn order_customer_key(w_id: i64, d_id: i64, c_id: i64, o_id: i64) -> [u8; 32] {
    key(&[w_id, d_id, c_id, o_id])
}

/// Key of `NO_IDX`: (w_id, d_id, o_id).
pub fn new_order_key(w_id: i64, d_id: i64, o_id: i64) -> [u8; 24] {
    key(&[w_id, d_id, o_id])
}

/// Key of `OL_IDX`: (w_id, d_id, o_id, ol_number).
pub fn orderline_key(w_id: i64, d_id: i64, o_id: i64, ol_number: i64) -> [u8; 32] {
    key(&[w_id, d_id, o_id, ol_number])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schemas_have_realistic_row_sizes() {
        // Approximate sizes from the TPC-C specification (bytes).
        assert!(customer_schema().record_len() >= 600, "customer row should be ~655 bytes");
        assert!(stock_schema().record_len() >= 300, "stock row should be ~306 bytes");
        assert!(orderline_schema().record_len() <= 120, "orderline rows are small");
        assert!(new_order_schema().record_len() <= 32);
        assert!(item_schema().record_len() >= 80);
    }

    #[test]
    fn every_row_fits_the_row_builder() {
        let schemas = [
            warehouse_schema(),
            district_schema(),
            customer_schema(),
            history_schema(),
            new_order_schema(),
            order_schema(),
            orderline_schema(),
            item_schema(),
            stock_schema(),
        ];
        let longest = schemas.iter().map(Schema::record_len).max().unwrap();
        assert_eq!((longest, customer_schema().record_len()), (733, 733));
        assert!(longest <= ROW_BYTES);
    }

    #[test]
    fn every_index_maps_to_a_table() {
        for (index, table) in INDEXES {
            assert!(table_names().contains(&table.to_string()));
            assert_eq!(index_table(index), Some(table));
        }
        assert_eq!(object_names().len(), 9 + 10 + 2);
    }

    #[test]
    fn an_unknown_index_has_no_table() {
        assert_eq!(index_table("NOT_AN_INDEX"), None);
    }

    #[test]
    fn composite_keys_order_correctly() {
        assert!(order_key(1, 1, 5) < order_key(1, 1, 6));
        assert!(order_key(1, 1, 99) < order_key(1, 2, 1));
        assert!(customer_name_key(1, 1, "ABLE", 3) < customer_name_key(1, 1, "BAKER", 1));
        // The last-name prefix covers the full key.
        let prefix = customer_name_prefix(1, 1, "ABLE");
        let full = customer_name_key(1, 1, "ABLE", 42);
        assert!(full.starts_with(&prefix));
    }

    #[test]
    fn stack_keys_hold_the_composite_key_bytes() {
        use dbms_engine::value::composite_key;
        assert_eq!(warehouse_key(-3).to_vec(), composite_key(&[-3]));
        assert_eq!(stock_key(1, i64::MAX).to_vec(), composite_key(&[1, i64::MAX]));
        assert_eq!(order_customer_key(1, 2, 3, 4).to_vec(), composite_key(&[1, 2, 3, 4]));
        assert_eq!(orderline_key(1, 2, 3, 0).to_vec(), composite_key(&[1, 2, 3, 0]));
        assert!(orderline_key(1, 2, 3, 7).starts_with(&order_key(1, 2, 3)));
        // A name is cut or zero-padded to its 16 bytes.
        for (name, stored) in
            [("ABLE", &b"ABLE"[..]), ("PRESCALLYEINGATIONBAR", b"PRESCALLYEINGATI")]
        {
            let mut expected = composite_key(&[1, 2]);
            expected.extend_from_slice(stored);
            expected.resize(16 + LAST_NAME_KEY_PAD, 0);
            assert_eq!(customer_name_prefix(1, 2, name).to_vec(), expected);
            expected.extend_from_slice(&composite_key(&[9]));
            assert_eq!(customer_name_key(1, 2, name, 9).to_vec(), expected);
        }
    }
}

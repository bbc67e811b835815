//! DDL for regions, tablespaces and tables.
//!
//! The paper shows how the DBA administers native flash with *existing*
//! logical structures plus one new physical structure, the region:
//!
//! ```sql
//! CREATE REGION rgHotTbl (MAX_CHIPS=8, MAX_CHANNELS=4, MAX_SIZE=1280M);
//! CREATE TABLESPACE tsHotTbl (REGION=rgHotTbl, EXTENT_SIZE=128K);
//! CREATE TABLE T (t_id NUMBER(3)) TABLESPACE tsHotTbl;
//! ```
//!
//! This module implements a small parser for exactly that dialect and an
//! executor that applies the statements to a [`NoFtl`] storage manager,
//! maintaining the tablespace → region binding.  Column definitions inside
//! `CREATE TABLE` are accepted and recorded verbatim (the storage manager
//! does not interpret them; the DBMS layer above does).

use std::collections::HashMap;

use crate::error::NoFtlError;
use crate::manager::NoFtl;
use crate::object::ObjectId;
use flash_sim::{ServiceClass, SimTime};

use crate::region::{RegionId, RegionSpec};
use crate::Result;

/// A parsed DDL statement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DdlStatement {
    /// `CREATE REGION name (MAX_CHIPS=.., MAX_CHANNELS=.., MAX_SIZE=..,
    /// DIES=.., CLASS=..)`: the options fill the region's [`RegionSpec`]
    /// (`DIES` is its die count, `CLASS` its service class: `LATENCY`,
    /// the foreground default, or `BACKGROUND`).
    CreateRegion(RegionSpec),
    /// `CREATE TABLESPACE name (REGION=.., EXTENT_SIZE=..)`
    CreateTablespace {
        /// Tablespace name.
        name: String,
        /// The region the tablespace is bound to.
        region: String,
        /// Extent size in bytes, if given.
        extent_size_bytes: Option<u64>,
    },
    /// `CREATE TABLE name (col defs...) TABLESPACE ts`
    CreateTable {
        /// Table name.
        name: String,
        /// Raw column definition list (uninterpreted).
        columns: Vec<String>,
        /// The tablespace the table is placed in.
        tablespace: String,
    },
    /// `DROP REGION name`
    DropRegion {
        /// Region name.
        name: String,
    },
    /// `DROP TABLE name`
    DropTable {
        /// Table name.
        name: String,
    },
}

fn ddl_err(msg: impl Into<String>) -> NoFtlError {
    NoFtlError::Ddl { message: msg.into() }
}

/// Parse a size literal such as `1280M`, `128K`, `4G`, or `4096`.  A
/// literal of 2⁶⁴ bytes or more is refused.
pub fn parse_size(s: &str) -> Result<u64> {
    let s = s.trim();
    if s.is_empty() {
        return Err(ddl_err("empty size literal"));
    }
    let (digits, suffix) = match s.chars().last() {
        Some('k' | 'K') => (&s[..s.len() - 1], 1024u64),
        Some('m' | 'M') => (&s[..s.len() - 1], 1024 * 1024),
        Some('g' | 'G') => (&s[..s.len() - 1], 1024 * 1024 * 1024),
        _ => (s, 1),
    };
    digits
        .trim()
        .parse::<u64>()
        .ok()
        .and_then(|v| v.checked_mul(suffix))
        .ok_or_else(|| ddl_err(format!("invalid size literal '{s}'")))
}

/// Split a statement's parenthesised body into top-level comma-separated
/// items (nested parentheses, as in `NUMBER(3)`, stay intact).
fn split_top_level(body: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut depth = 0i32;
    let mut cur = String::new();
    for c in body.chars() {
        match c {
            '(' => {
                depth += 1;
                cur.push(c);
            }
            ')' => {
                depth -= 1;
                cur.push(c);
            }
            ',' if depth == 0 => {
                out.push(cur.trim().to_string());
                cur.clear();
            }
            _ => cur.push(c),
        }
    }
    if !cur.trim().is_empty() {
        out.push(cur.trim().to_string());
    }
    out
}

/// Parse one DDL statement (a trailing `;` is allowed).
pub fn parse_statement(sql: &str) -> Result<DdlStatement> {
    let sql = sql.trim().trim_end_matches(';').trim();
    let upper = sql.to_ascii_uppercase();
    if let Some(rest) = upper.strip_prefix("CREATE REGION") {
        let rest_orig = &sql[sql.len() - rest.len()..];
        return parse_create_region(rest_orig);
    }
    if let Some(rest) = upper.strip_prefix("CREATE TABLESPACE") {
        let rest_orig = &sql[sql.len() - rest.len()..];
        return parse_create_tablespace(rest_orig);
    }
    if let Some(rest) = upper.strip_prefix("CREATE TABLE") {
        let rest_orig = &sql[sql.len() - rest.len()..];
        return parse_create_table(rest_orig);
    }
    if let Some(rest) = upper.strip_prefix("DROP REGION") {
        let name = sql[sql.len() - rest.len()..].trim();
        if name.is_empty() {
            return Err(ddl_err("DROP REGION requires a name"));
        }
        return Ok(DdlStatement::DropRegion { name: name.to_string() });
    }
    if let Some(rest) = upper.strip_prefix("DROP TABLE") {
        let name = sql[sql.len() - rest.len()..].trim();
        if name.is_empty() {
            return Err(ddl_err("DROP TABLE requires a name"));
        }
        return Ok(DdlStatement::DropTable { name: name.to_string() });
    }
    Err(ddl_err(format!("unrecognised DDL statement: '{sql}'")))
}

fn name_and_body(rest: &str) -> Result<(String, Option<String>)> {
    let rest = rest.trim();
    match rest.find('(') {
        Some(open) => {
            let name = rest[..open].trim().to_string();
            let close = rest.rfind(')').ok_or_else(|| ddl_err("missing closing ')'"))?;
            if close < open {
                return Err(ddl_err("mismatched parentheses"));
            }
            Ok((name, Some(rest[open + 1..close].to_string())))
        }
        None => Ok((rest.to_string(), None)),
    }
}

fn parse_kv_options(body: &str) -> Result<HashMap<String, String>> {
    let mut map = HashMap::new();
    for item in split_top_level(body) {
        let (k, v) = item
            .split_once('=')
            .ok_or_else(|| ddl_err(format!("expected KEY=VALUE, got '{item}'")))?;
        map.insert(k.trim().to_ascii_uppercase(), v.trim().to_string());
    }
    Ok(map)
}

fn parse_create_region(rest: &str) -> Result<DdlStatement> {
    let (name, body) = name_and_body(rest)?;
    if name.is_empty() || name.contains(char::is_whitespace) {
        return Err(ddl_err(format!("invalid region name '{name}'")));
    }
    let mut spec = RegionSpec::named(name);
    let count = |key: &str, v: &str| {
        v.parse::<u32>().map_err(|_| ddl_err(format!("bad {key} value '{v}'")))
    };
    for (k, v) in parse_kv_options(body.as_deref().unwrap_or_default())? {
        match k.as_str() {
            "DIES" => spec.die_count = Some(count(&k, &v)?),
            "MAX_CHIPS" => spec.max_chips = Some(count(&k, &v)?),
            "MAX_CHANNELS" => spec.max_channels = Some(count(&k, &v)?),
            "MAX_SIZE" => spec.max_size_bytes = Some(parse_size(&v)?),
            "CLASS" => {
                spec.service_class = Some(ServiceClass::parse(&v).ok_or_else(|| {
                    ddl_err(format!("bad CLASS value '{v}' (expected LATENCY or BACKGROUND)"))
                })?)
            }
            other => return Err(ddl_err(format!("unknown CREATE REGION option '{other}'"))),
        }
    }
    Ok(DdlStatement::CreateRegion(spec))
}

fn parse_create_tablespace(rest: &str) -> Result<DdlStatement> {
    let (name, body) = name_and_body(rest)?;
    if name.is_empty() || name.contains(char::is_whitespace) {
        return Err(ddl_err(format!("invalid tablespace name '{name}'")));
    }
    let body = body.ok_or_else(|| ddl_err("CREATE TABLESPACE requires (REGION=...)"))?;
    let opts = parse_kv_options(&body)?;
    let mut region = None;
    let mut extent_size_bytes = None;
    for (k, v) in opts {
        match k.as_str() {
            "REGION" => region = Some(v),
            "EXTENT_SIZE" | "EXTENT SIZE" => extent_size_bytes = Some(parse_size(&v)?),
            other => return Err(ddl_err(format!("unknown CREATE TABLESPACE option '{other}'"))),
        }
    }
    let region = region.ok_or_else(|| ddl_err("CREATE TABLESPACE requires REGION=<name>"))?;
    Ok(DdlStatement::CreateTablespace { name, region, extent_size_bytes })
}

fn parse_create_table(rest: &str) -> Result<DdlStatement> {
    let rest = rest.trim();
    let upper = rest.to_ascii_uppercase();
    let ts_pos = upper
        .rfind("TABLESPACE")
        .ok_or_else(|| ddl_err("CREATE TABLE requires a TABLESPACE clause"))?;
    let tablespace = rest[ts_pos + "TABLESPACE".len()..].trim().to_string();
    if tablespace.is_empty() {
        return Err(ddl_err("TABLESPACE clause requires a name"));
    }
    let head = rest[..ts_pos].trim();
    let (name, body) = name_and_body(head)?;
    if name.is_empty() || name.contains(char::is_whitespace) {
        return Err(ddl_err(format!("invalid table name '{name}'")));
    }
    let columns = body.map(|b| split_top_level(&b)).unwrap_or_default();
    Ok(DdlStatement::CreateTable { name, columns, tablespace })
}

/// Parse a script of `;`-separated statements (blank statements are skipped).
pub fn parse_script(sql: &str) -> Result<Vec<DdlStatement>> {
    sql.split(';').map(str::trim).filter(|s| !s.is_empty()).map(parse_statement).collect()
}

/// A tablespace: a named binding to a region, plus the declared extent
/// size.  The extent size is recorded and not interpreted, as `CREATE
/// TABLE`'s column list is: nothing allocates by it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tablespace {
    /// The region the tablespace maps to.
    pub region: RegionId,
    /// Declared extent size in bytes, if given (recorded only).
    pub extent_size_bytes: Option<u64>,
}

/// DDL executor: applies parsed statements to a [`NoFtl`] instance and
/// keeps the tablespace catalog.  Tables are the manager's objects, found
/// by name through [`NoFtl::object_id`].
pub struct Ddl<'a> {
    noftl: &'a NoFtl,
    tablespaces: HashMap<String, Tablespace>,
}

impl<'a> Ddl<'a> {
    /// Create an executor bound to a storage manager.
    pub fn new(noftl: &'a NoFtl) -> Self {
        Ddl { noftl, tablespaces: HashMap::new() }
    }

    /// Execute a single parsed statement at `at` and return its
    /// completion: `at` itself, except for `DROP REGION`, whose erases
    /// are issued at `at` and take device time.
    pub fn execute(&mut self, stmt: &DdlStatement, at: SimTime) -> Result<SimTime> {
        match stmt {
            DdlStatement::CreateRegion(spec) => {
                self.noftl.create_region(spec.clone())?;
            }
            DdlStatement::CreateTablespace { name, region, extent_size_bytes } => {
                let rid = self
                    .noftl
                    .region_id(region)
                    .ok_or_else(|| NoFtlError::UnknownRegion { region: region.clone() })?;
                if self.tablespaces.contains_key(name) {
                    return Err(ddl_err(format!("tablespace '{name}' already exists")));
                }
                let extent_size_bytes = *extent_size_bytes;
                self.tablespaces
                    .insert(name.clone(), Tablespace { region: rid, extent_size_bytes });
            }
            DdlStatement::CreateTable { name, tablespace, .. } => {
                let region = self
                    .tablespaces
                    .get(tablespace)
                    .map(|ts| ts.region)
                    .ok_or_else(|| ddl_err(format!("unknown tablespace '{tablespace}'")))?;
                self.noftl.create_object(name, region)?;
            }
            DdlStatement::DropRegion { name } => {
                let rid = self
                    .noftl
                    .region_id(name)
                    .ok_or_else(|| NoFtlError::UnknownRegion { region: name.clone() })?;
                let done = self.noftl.drop_region(rid, at)?;
                self.tablespaces.retain(|_, ts| ts.region != rid);
                return Ok(done);
            }
            DdlStatement::DropTable { name } => {
                let obj = self
                    .table(name)
                    .ok_or_else(|| NoFtlError::UnknownObject { object: name.clone() })?;
                self.noftl.drop_object(obj)?;
            }
        }
        Ok(at)
    }

    /// Parse and execute a script of statements, each at the completion
    /// of the one before, the first at `at`.  Returns the last completion.
    pub fn run_script(&mut self, sql: &str, at: SimTime) -> Result<SimTime> {
        parse_script(sql)?.iter().try_fold(at, |t, stmt| self.execute(stmt, t))
    }

    /// Look up a tablespace by name.
    pub fn tablespace(&self, name: &str) -> Option<Tablespace> {
        self.tablespaces.get(name).cloned()
    }

    /// Look up a table's object id by name.
    pub fn table(&self, name: &str) -> Option<ObjectId> {
        self.noftl.object_id(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NoFtlConfig;
    use flash_sim::{DeviceBuilder, FlashBackend, FlashGeometry, TimingModel};
    use std::sync::Arc;

    #[test]
    fn parse_sizes() {
        assert_eq!(parse_size("128K").unwrap(), 128 * 1024);
        assert_eq!(parse_size("1280M").unwrap(), 1280 * 1024 * 1024);
        assert_eq!(parse_size("2G").unwrap(), 2 * 1024 * 1024 * 1024);
        assert_eq!(parse_size("4096").unwrap(), 4096);
        assert!(parse_size("").is_err());
        assert!(parse_size("abcM").is_err());
    }

    #[test]
    fn parse_paper_example_statements() {
        let s = parse_statement(
            "CREATE REGION rgHotTbl (MAX_CHIPS=8, MAX_CHANNELS=4, MAX_SIZE=1280M);",
        )
        .unwrap();
        assert_eq!(
            s,
            DdlStatement::CreateRegion(RegionSpec {
                max_chips: Some(8),
                max_channels: Some(4),
                max_size_bytes: Some(1280 * 1024 * 1024),
                ..RegionSpec::named("rgHotTbl")
            })
        );
        // Die selection inside a region is not a DDL option: the clause is
        // refused by name, never silently accepted.
        let err = parse_statement("CREATE REGION rg (DIES=2, PLACEMENT=QUEUE_AWARE)").unwrap_err();
        assert!(
            err.to_string().contains("unknown CREATE REGION option 'PLACEMENT'"),
            "unexpected error: {err}"
        );
        let s = parse_statement("CREATE REGION rgOltp (DIES=2, CLASS=LATENCY)").unwrap();
        assert_eq!(
            s,
            DdlStatement::CreateRegion(
                RegionSpec::named("rgOltp")
                    .with_die_count(2)
                    .with_service_class(ServiceClass::Latency)
            )
        );
        assert!(parse_statement("CREATE REGION rgBad (CLASS=URGENT)").is_err());
        assert!(parse_statement("CREATE REGION rgBad (CLASS=THROUGHPUT)").is_err());
        let s = parse_statement("CREATE TABLESPACE tsHotTbl (REGION=rgHotTbl, EXTENT_SIZE=128K)")
            .unwrap();
        assert_eq!(
            s,
            DdlStatement::CreateTablespace {
                name: "tsHotTbl".into(),
                region: "rgHotTbl".into(),
                extent_size_bytes: Some(128 * 1024),
            }
        );
        let s = parse_statement("CREATE TABLE T (t_id NUMBER(3)) TABLESPACE tsHotTbl").unwrap();
        assert_eq!(
            s,
            DdlStatement::CreateTable {
                name: "T".into(),
                columns: vec!["t_id NUMBER(3)".into()],
                tablespace: "tsHotTbl".into(),
            }
        );
    }

    #[test]
    fn parse_multi_column_table_and_drops() {
        let s = parse_statement(
            "create table orders (o_id NUMBER(8), o_entry_d DATE, o_comment VARCHAR(24)) tablespace tsA",
        )
        .unwrap();
        match s {
            DdlStatement::CreateTable { name, columns, tablespace } => {
                assert_eq!(name, "orders");
                assert_eq!(columns.len(), 3);
                assert_eq!(tablespace, "tsA");
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(
            parse_statement("DROP REGION rgX").unwrap(),
            DdlStatement::DropRegion { name: "rgX".into() }
        );
        assert_eq!(
            parse_statement("DROP TABLE t1;").unwrap(),
            DdlStatement::DropTable { name: "t1".into() }
        );
    }

    #[test]
    fn parse_errors() {
        assert!(parse_statement("SELECT * FROM t").is_err());
        assert!(parse_statement("CREATE REGION r (FOO=1)").is_err());
        assert!(parse_statement("CREATE REGION r (MAX_CHIPS=x)").is_err());
        assert!(parse_statement("CREATE TABLESPACE ts (EXTENT_SIZE=1K)").is_err());
        assert!(parse_statement("CREATE TABLE t (a INT)").is_err());
        assert!(parse_statement("DROP REGION").is_err());
        assert!(parse_statement("CREATE REGION r (MAX_CHIPS=8").is_err());
    }

    #[test]
    fn parse_script_splits_statements() {
        let script = "CREATE REGION a (DIES=1);\n\nCREATE REGION b (DIES=1);";
        let stmts = parse_script(script).unwrap();
        assert_eq!(stmts.len(), 2);
    }

    fn noftl() -> NoFtl {
        let device = Arc::new(DeviceBuilder::new(FlashGeometry::small_test()).build());
        NoFtl::new(device, NoFtlConfig::default())
    }

    #[test]
    fn an_out_of_range_size_literal_is_refused() {
        assert_eq!(parse_size("17179869183G").unwrap(), u64::MAX - (1 << 30) + 1);
        for literal in ["17179869184G", "18446744073709551616", "17592186044416M"] {
            let err = parse_size(literal).unwrap_err();
            assert!(matches!(err, NoFtlError::Ddl { .. }), "{literal}: {err}");
        }
        let err = parse_statement("CREATE REGION rg (MAX_SIZE=17179869184G)").unwrap_err();
        assert!(err.to_string().contains("invalid size literal '17179869184G'"), "{err}");
    }

    #[test]
    fn an_oversized_region_wants_more_dies_than_the_device_has() {
        let noftl = noftl();
        let per_die = noftl.device().geometry().die_capacity_bytes();
        // 2³² + 1 dies' worth of bytes: the die count does not fit a u32.
        let size = per_die * ((1 << 32) + 1);
        let err = Ddl::new(&noftl)
            .run_script(&format!("CREATE REGION rgHuge (MAX_SIZE={size})"), SimTime::ZERO)
            .unwrap_err();
        assert!(
            matches!(err, NoFtlError::NotEnoughDies { requested: u32::MAX, available: 4 }),
            "{err}"
        );
        assert!(noftl.region_id("rgHuge").is_none());
    }

    #[test]
    fn executor_applies_paper_script() {
        let noftl = noftl();
        let mut ddl = Ddl::new(&noftl);
        ddl.run_script(
            "CREATE REGION rgHotTbl (DIES=2);\n             CREATE TABLESPACE tsHotTbl (REGION=rgHotTbl, EXTENT_SIZE=128K);\n             CREATE TABLE T (t_id NUMBER(3)) TABLESPACE tsHotTbl;",
            SimTime::ZERO,
        )
        .unwrap();
        let ts = ddl.tablespace("tsHotTbl").unwrap();
        assert_eq!(ts.extent_size_bytes, Some(128 * 1024));
        let obj = ddl.table("T").unwrap();
        assert_eq!(noftl.object_id("T"), Some(obj));
        assert_eq!(noftl.region_info(ts.region).unwrap().dies.len(), 2);
        // The object is usable through the storage manager.
        noftl.write(obj, 0, &vec![1u8; 4096], SimTime::ZERO).unwrap();
    }

    #[test]
    fn executor_error_paths() {
        let noftl = noftl();
        let mut ddl = Ddl::new(&noftl);
        // Unknown region in tablespace.
        assert!(ddl
            .execute(
                &DdlStatement::CreateTablespace {
                    name: "ts".into(),
                    region: "nope".into(),
                    extent_size_bytes: None,
                },
                SimTime::ZERO
            )
            .is_err());
        // Unknown tablespace in table.
        assert!(ddl
            .execute(
                &DdlStatement::CreateTable {
                    name: "t".into(),
                    columns: vec![],
                    tablespace: "nope".into(),
                },
                SimTime::ZERO
            )
            .is_err());
        // Drop of unknown things.
        assert!(ddl
            .execute(&DdlStatement::DropRegion { name: "nope".into() }, SimTime::ZERO)
            .is_err());
        assert!(ddl
            .execute(&DdlStatement::DropTable { name: "nope".into() }, SimTime::ZERO)
            .is_err());
        // Duplicate tablespace.
        ddl.run_script(
            "CREATE REGION rg (DIES=1); CREATE TABLESPACE ts (REGION=rg);",
            SimTime::ZERO,
        )
        .unwrap();
        assert!(ddl
            .execute(
                &DdlStatement::CreateTablespace {
                    name: "ts".into(),
                    region: "rg".into(),
                    extent_size_bytes: None,
                },
                SimTime::ZERO
            )
            .is_err());
    }

    #[test]
    fn drop_table_and_region_through_ddl() {
        let noftl = noftl();
        let mut ddl = Ddl::new(&noftl);
        ddl.run_script(
            "CREATE REGION rg (DIES=1); CREATE TABLESPACE ts (REGION=rg); CREATE TABLE t (a INT) TABLESPACE ts;",
            SimTime::ZERO,
        )
        .unwrap();
        ddl.execute(&DdlStatement::DropTable { name: "t".into() }, SimTime::ZERO).unwrap();
        assert!(ddl.table("t").is_none());
        ddl.execute(&DdlStatement::DropRegion { name: "rg".into() }, SimTime::ZERO).unwrap();
        assert!(noftl.region_id("rg").is_none());
        assert!(ddl.tablespace("ts").is_none());
    }

    #[test]
    fn drop_region_erases_at_the_callers_instant() {
        let device = Arc::new(
            DeviceBuilder::new(FlashGeometry::small_test()).timing(TimingModel::mlc_2015()).build(),
        );
        let erase = device.timing().erase_time();
        let noftl = NoFtl::new(device.clone(), NoFtlConfig::default());
        let mut ddl = Ddl::new(&noftl);
        let script = "CREATE REGION rg (DIES=1); CREATE TABLESPACE ts (REGION=rg); \
                      CREATE TABLE t (a INT) TABLESPACE ts;";
        ddl.run_script(script, SimTime::ZERO).unwrap();
        // The die idles for longer than an erase before the first write, so
        // erases issued at an earlier instant would fit in front of it.
        let obj = ddl.table("t").unwrap();
        let mut at = SimTime::ZERO + erase + erase;
        for page in 0..4 {
            at = noftl.write(obj, page, &vec![page as u8; 4096], at).unwrap();
        }
        ddl.execute(&DdlStatement::DropTable { name: "t".into() }, at).unwrap();
        let tracer = device.metrics().tracer();
        tracer.set_enabled(true);
        let done = ddl.execute(&DdlStatement::DropRegion { name: "rg".into() }, at).unwrap();
        let erases: Vec<u64> =
            tracer.events().iter().filter(|e| e.name == "erase").map(|e| e.ts_ns).collect();
        assert!(!erases.is_empty(), "the region's written block is erased");
        assert!(erases.iter().all(|&ts| ts >= at.as_nanos()), "erase before {at:?}: {erases:?}");
        assert!(done >= at + erase, "completion {done:?} of an erase issued at {at:?}");
    }
}

//! A second test schema: a Star-Schema-Benchmark-style retail database.
//!
//! The paper notes (§6.1) that it "also evaluated our tests on other
//! databases with different schemas and sizes, and the results are
//! similar". This schema backs that claim in our reproduction: one wide
//! fact table referencing four dimensions — a shape with very different
//! join topology from TPC-H's chains — behind the same `Database` API, so
//! every framework component runs against it unchanged.

use crate::catalog::{Catalog, ColumnDef, ForeignKey, TableDef};
use crate::datagen::vocabulary;
use crate::table::Database;
use ruletest_common::{DataType, Result, Rng, Row, Value};

/// Table ids in the SSB catalog, in registration order.
pub mod table_ids {
    use ruletest_common::TableId;
    pub const DATE_DIM: TableId = TableId(0);
    pub const CUSTOMER: TableId = TableId(1);
    pub const SUPPLIER: TableId = TableId(2);
    pub const PART: TableId = TableId(3);
    pub const LINEORDER: TableId = TableId(4);
}

/// Row counts and seed for the generated star schema.
#[derive(Debug, Clone)]
pub struct SsbConfig {
    pub seed: u64,
    pub dates: usize,
    pub customers: usize,
    pub suppliers: usize,
    pub parts: usize,
    pub lineorders: usize,
    pub null_probability: f64,
}

impl Default for SsbConfig {
    fn default() -> Self {
        Self {
            seed: 0x55B,
            dates: 24,
            customers: 25,
            suppliers: 10,
            parts: 20,
            lineorders: 250,
            null_probability: 0.1,
        }
    }
}

fn col(name: &str, dt: DataType, nullable: bool) -> ColumnDef {
    ColumnDef::new(name, dt, nullable)
}

/// Builds the SSB catalog (schema only).
pub fn ssb_catalog() -> Catalog {
    use table_ids::*;
    let mut cat = Catalog::new();
    cat.add_table(TableDef {
        id: DATE_DIM,
        name: "date_dim".into(),
        columns: vec![
            col("d_datekey", DataType::Int, false),
            col("d_month", DataType::Int, false),
            col("d_year", DataType::Int, false),
            col("d_weekday", DataType::Str, false),
        ],
        primary_key: vec![0],
        unique_keys: vec![],
        foreign_keys: vec![],
    })
    .expect("static schema");
    cat.add_table(TableDef {
        id: CUSTOMER,
        name: "ssb_customer".into(),
        columns: vec![
            col("c_custkey", DataType::Int, false),
            col("c_city", DataType::Str, false),
            col("c_region", DataType::Str, false),
        ],
        primary_key: vec![0],
        unique_keys: vec![],
        foreign_keys: vec![],
    })
    .expect("static schema");
    cat.add_table(TableDef {
        id: SUPPLIER,
        name: "ssb_supplier".into(),
        columns: vec![
            col("s_suppkey", DataType::Int, false),
            col("s_city", DataType::Str, false),
        ],
        primary_key: vec![0],
        unique_keys: vec![],
        foreign_keys: vec![],
    })
    .expect("static schema");
    cat.add_table(TableDef {
        id: PART,
        name: "ssb_part".into(),
        columns: vec![
            col("p_partkey", DataType::Int, false),
            col("p_category", DataType::Str, false),
            col("p_color", DataType::Str, true),
        ],
        primary_key: vec![0],
        unique_keys: vec![],
        foreign_keys: vec![],
    })
    .expect("static schema");
    cat.add_table(TableDef {
        id: LINEORDER,
        name: "lineorder".into(),
        columns: vec![
            col("lo_orderkey", DataType::Int, false),
            col("lo_linenumber", DataType::Int, false),
            col("lo_custkey", DataType::Int, false),
            col("lo_suppkey", DataType::Int, false),
            col("lo_partkey", DataType::Int, false),
            col("lo_orderdate", DataType::Int, false),
            col("lo_quantity", DataType::Int, false),
            col("lo_revenue", DataType::Int, false),
            col("lo_discount", DataType::Int, true),
        ],
        primary_key: vec![0, 1],
        unique_keys: vec![],
        foreign_keys: vec![
            ForeignKey {
                columns: vec![2],
                ref_table: CUSTOMER,
                ref_columns: vec![0],
            },
            ForeignKey {
                columns: vec![3],
                ref_table: SUPPLIER,
                ref_columns: vec![0],
            },
            ForeignKey {
                columns: vec![4],
                ref_table: PART,
                ref_columns: vec![0],
            },
            ForeignKey {
                columns: vec![5],
                ref_table: DATE_DIM,
                ref_columns: vec![0],
            },
        ],
    })
    .expect("static schema");
    cat
}

const CITIES: &[&str] = &["LIMA", "CAIRO", "OSLO", "KYOTO", "QUITO"];
const REGIONS: &[&str] = &["AMERICA", "AFRICA", "EUROPE", "ASIA"];
const CATEGORIES: &[&str] = &["MFGR#11", "MFGR#12", "MFGR#21"];
const COLORS: &[&str] = &["red", "green", "blue", "plum"];
const WEEKDAYS: &[&str] = &["Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun"];

/// Builds and populates the star-schema test database.
pub fn ssb_database(config: &SsbConfig) -> Result<Database> {
    let mut db = Database::new(ssb_catalog());
    let mut rng = Rng::new(config.seed);
    let p = config.null_probability;
    use table_ids::*;
    let cities = vocabulary(CITIES);
    let regions = vocabulary(REGIONS);
    let categories = vocabulary(CATEGORIES);
    let colors = vocabulary(COLORS);
    let weekdays = vocabulary(WEEKDAYS);

    let rows: Vec<Row> = (0..config.dates)
        .map(|i| {
            vec![
                Value::Int(19_920_101 + i as i64),
                Value::Int(1 + (i as i64 % 12)),
                Value::Int(1992 + (i as i64 / 12)),
                weekdays[i % weekdays.len()].clone(),
            ]
        })
        .collect();
    db.load_table(DATE_DIM, rows)?;

    let mut r = rng.fork(1);
    let rows: Vec<Row> = (0..config.customers)
        .map(|i| {
            vec![
                Value::Int(i as i64),
                r.pick(&cities).clone(),
                r.pick(&regions).clone(),
            ]
        })
        .collect();
    db.load_table(CUSTOMER, rows)?;

    let mut r = rng.fork(2);
    let rows: Vec<Row> = (0..config.suppliers)
        .map(|i| vec![Value::Int(i as i64), r.pick(&cities).clone()])
        .collect();
    db.load_table(SUPPLIER, rows)?;

    let mut r = rng.fork(3);
    let rows: Vec<Row> = (0..config.parts)
        .map(|i| {
            let color = if r.gen_bool(p) {
                Value::Null
            } else {
                r.pick(&colors).clone()
            };
            vec![Value::Int(i as i64), r.pick(&categories).clone(), color]
        })
        .collect();
    db.load_table(PART, rows)?;

    let mut r = rng.fork(4);
    let mut rows: Vec<Row> = Vec::with_capacity(config.lineorders);
    for i in 0..config.lineorders {
        let order = (i / 3) as i64;
        let line = (i % 3) as i64 + 1;
        let discount = if r.gen_bool(p) {
            Value::Null
        } else {
            Value::Int(r.gen_range_i64(0, 10))
        };
        rows.push(vec![
            Value::Int(order),
            Value::Int(line),
            Value::Int(r.gen_index(config.customers) as i64),
            Value::Int(r.gen_index(config.suppliers) as i64),
            Value::Int(r.gen_index(config.parts) as i64),
            Value::Int(19_920_101 + r.gen_index(config.dates) as i64),
            Value::Int(r.gen_range_i64(1, 50)),
            Value::Int(r.gen_range_i64(100, 10_000)),
            discount,
        ]);
    }
    db.load_table(LINEORDER, rows)?;
    Ok(db)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn catalog_shape() {
        let cat = ssb_catalog();
        assert_eq!(cat.len(), 5);
        let fact = cat.table_by_name("lineorder").unwrap();
        assert_eq!(fact.foreign_keys.len(), 4, "star: fact references all dims");
        assert_eq!(fact.primary_key, vec![0, 1]);
    }

    #[test]
    fn generated_data_upholds_constraints() {
        let db = ssb_database(&SsbConfig::default()).unwrap();
        for def in db.catalog.tables().to_vec() {
            let t = db.table(def.id).unwrap();
            let mut seen = HashSet::new();
            for row in &t.rows {
                let key: Vec<Value> = def.primary_key.iter().map(|&c| row[c].clone()).collect();
                assert!(seen.insert(key), "duplicate PK in {}", def.name);
            }
            for fk in &def.foreign_keys {
                let parent = db.table(fk.ref_table).unwrap();
                let keys: HashSet<Vec<Value>> = parent
                    .rows
                    .iter()
                    .map(|r| fk.ref_columns.iter().map(|&c| r[c].clone()).collect())
                    .collect();
                for row in &t.rows {
                    let k: Vec<Value> = fk.columns.iter().map(|&c| row[c].clone()).collect();
                    if !k.iter().any(Value::is_null) {
                        assert!(keys.contains(&k), "dangling FK in {}", def.name);
                    }
                }
            }
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = ssb_database(&SsbConfig::default()).unwrap();
        let b = ssb_database(&SsbConfig::default()).unwrap();
        assert_eq!(
            a.table(table_ids::LINEORDER).unwrap().rows,
            b.table(table_ids::LINEORDER).unwrap().rows
        );
    }
}

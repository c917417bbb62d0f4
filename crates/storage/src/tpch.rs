//! The TPC-H-shaped test schema and database builder.
//!
//! The paper's evaluation (§6.1) "use[s] tables from the TPC-H database" and
//! notes that the logical rules it tests fire largely independent of data
//! size/distribution. We reproduce the eight-table TPC-H schema with
//! simplified types (dates become BIGINT day numbers, monetary columns
//! become BIGINT cents) and configurable, small row counts so that
//! correctness validation — which *executes* plans — stays fast.

use crate::catalog::{Catalog, ColumnDef, ForeignKey, TableDef};
use crate::datagen;
use crate::table::Database;
use ruletest_common::{DataType, Result};

/// Table ids in the TPC-H catalog, in registration order.
pub mod table_ids {
    use ruletest_common::TableId;
    pub const REGION: TableId = TableId(0);
    pub const NATION: TableId = TableId(1);
    pub const SUPPLIER: TableId = TableId(2);
    pub const PART: TableId = TableId(3);
    pub const PARTSUPP: TableId = TableId(4);
    pub const CUSTOMER: TableId = TableId(5);
    pub const ORDERS: TableId = TableId(6);
    pub const LINEITEM: TableId = TableId(7);
}

/// Row-count configuration for the generated database.
///
/// Defaults are deliberately tiny (hundreds of rows): rule firing depends on
/// tree shape and schema, not volume, and small tables keep cross products
/// (which random generation does produce) executable.
#[derive(Debug, Clone)]
pub struct TpchConfig {
    pub seed: u64,
    pub regions: usize,
    pub nations: usize,
    pub suppliers: usize,
    pub parts: usize,
    pub partsupps: usize,
    pub customers: usize,
    pub orders: usize,
    pub lineitems: usize,
    /// Probability that a nullable column's value is NULL.
    pub null_probability: f64,
}

impl Default for TpchConfig {
    fn default() -> Self {
        Self {
            seed: 0xC0FFEE,
            regions: 3,
            nations: 10,
            suppliers: 12,
            parts: 25,
            partsupps: 60,
            customers: 30,
            orders: 120,
            lineitems: 300,
            null_probability: 0.1,
        }
    }
}

impl TpchConfig {
    /// A configuration scaled by an integer factor (factor 1 = default).
    pub fn scaled(seed: u64, factor: usize) -> Self {
        let base = Self::default();
        let f = factor.max(1);
        Self {
            seed,
            regions: base.regions,
            nations: base.nations,
            suppliers: base.suppliers * f,
            parts: base.parts * f,
            partsupps: base.partsupps * f,
            customers: base.customers * f,
            orders: base.orders * f,
            lineitems: base.lineitems * f,
            null_probability: base.null_probability,
        }
    }

    /// Recovers the integer scale factor this configuration was built
    /// with (1 for the default). Derived from the lineitem count so
    /// hand-tweaked configs still report a sensible magnitude.
    pub fn scale_factor(&self) -> usize {
        (self.lineitems / Self::default().lineitems).max(1)
    }
}

fn col(name: &str, dt: DataType, nullable: bool) -> ColumnDef {
    ColumnDef::new(name, dt, nullable)
}

/// Builds the TPC-H catalog (schema only, no data).
pub fn tpch_catalog() -> Catalog {
    use table_ids::*;
    let mut cat = Catalog::new();

    cat.add_table(TableDef {
        id: REGION,
        name: "region".into(),
        columns: vec![
            col("r_regionkey", DataType::Int, false),
            col("r_name", DataType::Str, false),
        ],
        primary_key: vec![0],
        unique_keys: vec![vec![1]],
        foreign_keys: vec![],
    })
    .expect("static schema");

    cat.add_table(TableDef {
        id: NATION,
        name: "nation".into(),
        columns: vec![
            col("n_nationkey", DataType::Int, false),
            col("n_name", DataType::Str, false),
            col("n_regionkey", DataType::Int, false),
        ],
        primary_key: vec![0],
        unique_keys: vec![],
        foreign_keys: vec![ForeignKey {
            columns: vec![2],
            ref_table: REGION,
            ref_columns: vec![0],
        }],
    })
    .expect("static schema");

    cat.add_table(TableDef {
        id: SUPPLIER,
        name: "supplier".into(),
        columns: vec![
            col("s_suppkey", DataType::Int, false),
            col("s_name", DataType::Str, false),
            col("s_nationkey", DataType::Int, false),
            col("s_acctbal", DataType::Int, true),
        ],
        primary_key: vec![0],
        unique_keys: vec![],
        foreign_keys: vec![ForeignKey {
            columns: vec![2],
            ref_table: NATION,
            ref_columns: vec![0],
        }],
    })
    .expect("static schema");

    cat.add_table(TableDef {
        id: PART,
        name: "part".into(),
        columns: vec![
            col("p_partkey", DataType::Int, false),
            col("p_name", DataType::Str, false),
            col("p_brand", DataType::Str, false),
            col("p_size", DataType::Int, false),
            col("p_retailprice", DataType::Int, true),
        ],
        primary_key: vec![0],
        unique_keys: vec![],
        foreign_keys: vec![],
    })
    .expect("static schema");

    cat.add_table(TableDef {
        id: PARTSUPP,
        name: "partsupp".into(),
        columns: vec![
            col("ps_partkey", DataType::Int, false),
            col("ps_suppkey", DataType::Int, false),
            col("ps_availqty", DataType::Int, false),
            col("ps_supplycost", DataType::Int, true),
        ],
        primary_key: vec![0, 1],
        unique_keys: vec![],
        foreign_keys: vec![
            ForeignKey {
                columns: vec![0],
                ref_table: PART,
                ref_columns: vec![0],
            },
            ForeignKey {
                columns: vec![1],
                ref_table: SUPPLIER,
                ref_columns: vec![0],
            },
        ],
    })
    .expect("static schema");

    cat.add_table(TableDef {
        id: CUSTOMER,
        name: "customer".into(),
        columns: vec![
            col("c_custkey", DataType::Int, false),
            col("c_name", DataType::Str, false),
            col("c_nationkey", DataType::Int, false),
            col("c_acctbal", DataType::Int, true),
            col("c_mktsegment", DataType::Str, false),
        ],
        primary_key: vec![0],
        unique_keys: vec![],
        foreign_keys: vec![ForeignKey {
            columns: vec![2],
            ref_table: NATION,
            ref_columns: vec![0],
        }],
    })
    .expect("static schema");

    cat.add_table(TableDef {
        id: ORDERS,
        name: "orders".into(),
        columns: vec![
            col("o_orderkey", DataType::Int, false),
            col("o_custkey", DataType::Int, false),
            col("o_orderstatus", DataType::Str, false),
            col("o_totalprice", DataType::Int, false),
            col("o_orderdate", DataType::Int, false),
            col("o_orderpriority", DataType::Str, true),
        ],
        primary_key: vec![0],
        unique_keys: vec![],
        foreign_keys: vec![ForeignKey {
            columns: vec![1],
            ref_table: CUSTOMER,
            ref_columns: vec![0],
        }],
    })
    .expect("static schema");

    cat.add_table(TableDef {
        id: LINEITEM,
        name: "lineitem".into(),
        columns: vec![
            col("l_orderkey", DataType::Int, false),
            col("l_linenumber", DataType::Int, false),
            col("l_partkey", DataType::Int, false),
            col("l_suppkey", DataType::Int, false),
            col("l_quantity", DataType::Int, false),
            col("l_extendedprice", DataType::Int, false),
            col("l_discount", DataType::Int, false),
            col("l_returnflag", DataType::Str, false),
            col("l_shipdate", DataType::Int, true),
        ],
        primary_key: vec![0, 1],
        unique_keys: vec![],
        foreign_keys: vec![
            ForeignKey {
                columns: vec![0],
                ref_table: ORDERS,
                ref_columns: vec![0],
            },
            ForeignKey {
                columns: vec![2],
                ref_table: PART,
                ref_columns: vec![0],
            },
            ForeignKey {
                columns: vec![3],
                ref_table: SUPPLIER,
                ref_columns: vec![0],
            },
        ],
    })
    .expect("static schema");

    cat
}

/// Builds and populates the full TPC-H test database.
pub fn tpch_database(config: &TpchConfig) -> Result<Database> {
    let catalog = tpch_catalog();
    let mut db = Database::new(catalog);
    datagen::populate_tpch(&mut db, config)?;
    Ok(db)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_has_eight_tables_with_keys() {
        let cat = tpch_catalog();
        assert_eq!(cat.len(), 8);
        assert_eq!(cat.table_by_name("lineitem").unwrap().primary_key.len(), 2);
        assert!(cat.table_by_name("orders").unwrap().is_unique_column(0));
        assert!(!cat.table_by_name("lineitem").unwrap().is_unique_column(0));
    }

    #[test]
    fn foreign_keys_reference_existing_tables() {
        let cat = tpch_catalog();
        for t in cat.tables() {
            for fk in &t.foreign_keys {
                let parent = cat.table(fk.ref_table).unwrap();
                for &rc in &fk.ref_columns {
                    assert!(rc < parent.columns.len());
                }
            }
        }
    }

    #[test]
    fn default_database_builds_with_expected_row_counts() {
        let cfg = TpchConfig::default();
        let db = tpch_database(&cfg).unwrap();
        assert_eq!(
            db.table(table_ids::LINEITEM).unwrap().row_count(),
            cfg.lineitems
        );
        assert_eq!(
            db.table(table_ids::REGION).unwrap().row_count(),
            cfg.regions
        );
    }

    #[test]
    fn scaled_config_multiplies_fact_tables_only() {
        let c = TpchConfig::scaled(1, 3);
        let base = TpchConfig::default();
        assert_eq!(c.lineitems, base.lineitems * 3);
        assert_eq!(c.regions, base.regions);
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = tpch_database(&TpchConfig::default()).unwrap();
        let b = tpch_database(&TpchConfig::default()).unwrap();
        let ta = a.table(table_ids::ORDERS).unwrap();
        let tb = b.table(table_ids::ORDERS).unwrap();
        assert_eq!(ta.rows, tb.rows);

        let cfg2 = TpchConfig {
            seed: 999,
            ..Default::default()
        };
        let c = tpch_database(&cfg2).unwrap();
        assert_ne!(ta.rows, c.table(table_ids::ORDERS).unwrap().rows);
    }
}

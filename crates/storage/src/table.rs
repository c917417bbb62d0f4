//! In-memory tables and the database handle.

use crate::catalog::Catalog;
use crate::stats::TableStats;
use ruletest_common::{Error, Result, Row, TableId, Value};
use std::cmp::Ordering;
use std::collections::HashMap;

/// A materialized base table: its rows plus precomputed statistics and an
/// index over the primary key (used by the `IndexSeek` physical operator).
#[derive(Debug, Clone)]
pub struct Table {
    pub id: TableId,
    pub rows: Vec<Row>,
    pub stats: TableStats,
    /// The primary key's column ordinals.
    primary_key: Vec<usize>,
    /// Primary-key index: the offsets of the rows whose key has no NULL
    /// component, sorted by key under `Value::total_cmp` and then by offset
    /// (our shipped schemas have non-null keys; the guard is for
    /// user-supplied data).
    pk_index: Vec<usize>,
}

impl Table {
    /// Builds a table from rows, validating arity and computing stats.
    pub fn from_rows(catalog: &Catalog, id: TableId, rows: Vec<Row>) -> Result<Table> {
        let def = catalog.table(id)?;
        let ncols = def.columns.len();
        for (i, row) in rows.iter().enumerate() {
            if row.len() != ncols {
                return Err(Error::invalid(format!(
                    "row {i} of {} has {} values, expected {ncols}",
                    def.name,
                    row.len()
                )));
            }
        }
        let stats = TableStats::compute(def, &rows);
        let primary_key = def.primary_key.clone();
        let mut pk_index: Vec<usize> = (0..rows.len())
            .filter(|&off| primary_key.iter().all(|&c| !rows[off][c].is_null()))
            .collect();
        // Stable, so equal keys keep their ascending offsets.
        pk_index.sort_by(|&a, &b| {
            let key = primary_key.iter().map(|&c| &rows[b][c]);
            cmp_key(&primary_key, &rows[a], key)
        });
        Ok(Table {
            id,
            rows,
            stats,
            primary_key,
            pk_index,
        })
    }

    /// Looks up row offsets by primary-key value tuple, ascending. A key
    /// with a NULL component or of another arity than the primary key's
    /// matches nothing.
    pub fn pk_lookup(&self, key: &[Value]) -> &[usize] {
        if key.len() != self.primary_key.len() {
            return &[];
        }
        let cmp = |off: usize| cmp_key(&self.primary_key, &self.rows[off], key.iter());
        let lo = self.pk_index.partition_point(|&off| cmp(off).is_lt());
        // The caller visits every match anyway, and a key is usually unique:
        // walking to the end of the run beats a second search over cold rows.
        let matches = self.pk_index[lo..]
            .iter()
            .take_while(|&&off| cmp(off).is_eq())
            .count();
        &self.pk_index[lo..lo + matches]
    }

    pub fn row_count(&self) -> usize {
        self.rows.len()
    }
}

/// Orders `row`'s primary-key columns against `key`, column by column.
fn cmp_key<'a>(primary_key: &[usize], row: &Row, key: impl Iterator<Item = &'a Value>) -> Ordering {
    primary_key
        .iter()
        .zip(key)
        .map(|(&c, v)| row[c].total_cmp(v))
        .find(|o| o.is_ne())
        .unwrap_or(Ordering::Equal)
}

/// A catalog plus materialized tables — the "given test database" of §2.3.
#[derive(Debug, Clone)]
pub struct Database {
    pub catalog: Catalog,
    tables: HashMap<TableId, Table>,
}

impl Database {
    pub fn new(catalog: Catalog) -> Self {
        Self {
            catalog,
            tables: HashMap::new(),
        }
    }

    /// Materializes a table's data (replacing any previous contents).
    pub fn load_table(&mut self, id: TableId, rows: Vec<Row>) -> Result<()> {
        let table = Table::from_rows(&self.catalog, id, rows)?;
        self.tables.insert(id, table);
        Ok(())
    }

    pub fn table(&self, id: TableId) -> Result<&Table> {
        self.tables
            .get(&id)
            .ok_or_else(|| Error::not_found(format!("table data for {id}")))
    }

    /// Statistics for a table; required by the optimizer's cost model.
    pub fn stats(&self, id: TableId) -> Result<&TableStats> {
        Ok(&self.table(id)?.stats)
    }

    pub fn total_rows(&self) -> usize {
        self.tables.values().map(Table::row_count).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{ColumnDef, TableDef};
    use ruletest_common::DataType;

    fn db_with_one_table() -> Database {
        let mut cat = Catalog::new();
        cat.add_table(TableDef {
            id: TableId(0),
            name: "t".into(),
            columns: vec![
                ColumnDef::new("k", DataType::Int, false),
                ColumnDef::new("v", DataType::Str, true),
            ],
            primary_key: vec![0],
            unique_keys: vec![],
            foreign_keys: vec![],
        })
        .unwrap();
        Database::new(cat)
    }

    #[test]
    fn load_and_read_back() {
        let mut db = db_with_one_table();
        db.load_table(
            TableId(0),
            vec![
                vec![Value::Int(1), Value::Str("a".into())],
                vec![Value::Int(2), Value::Null],
            ],
        )
        .unwrap();
        let t = db.table(TableId(0)).unwrap();
        assert_eq!(t.row_count(), 2);
        assert_eq!(db.total_rows(), 2);
        assert_eq!(db.stats(TableId(0)).unwrap().row_count, 2);
    }

    #[test]
    fn arity_mismatch_rejected() {
        let mut db = db_with_one_table();
        let err = db.load_table(TableId(0), vec![vec![Value::Int(1)]]);
        assert!(err.is_err());
    }

    #[test]
    fn pk_index_lookup() {
        let mut db = db_with_one_table();
        db.load_table(
            TableId(0),
            vec![
                vec![Value::Int(10), Value::Null],
                vec![Value::Int(20), Value::Str("x".into())],
            ],
        )
        .unwrap();
        let t = db.table(TableId(0)).unwrap();
        assert_eq!(t.pk_lookup(&[Value::Int(20)]), &[1]);
        assert!(t.pk_lookup(&[Value::Int(99)]).is_empty());
    }

    #[test]
    fn rows_with_a_null_key_component_are_not_indexed() {
        let mut cat = Catalog::new();
        cat.add_table(TableDef {
            id: TableId(0),
            name: "t".into(),
            columns: vec![
                ColumnDef::new("a", DataType::Int, true),
                ColumnDef::new("b", DataType::Int, true),
            ],
            primary_key: vec![0, 1],
            unique_keys: vec![],
            foreign_keys: vec![],
        })
        .unwrap();
        let rows = vec![
            vec![Value::Int(1), Value::Null],
            vec![Value::Int(1), Value::Int(2)],
            vec![Value::Null, Value::Int(2)],
            vec![Value::Null, Value::Null],
        ];
        let t = Table::from_rows(&cat, TableId(0), rows.clone()).unwrap();
        assert_eq!(t.pk_lookup(&[Value::Int(1), Value::Int(2)]), &[1]);
        for (off, row) in rows.iter().enumerate() {
            if off != 1 {
                assert!(t.pk_lookup(row).is_empty(), "row {off} is indexed");
            }
        }
    }

    #[test]
    fn missing_table_data_errors() {
        let db = db_with_one_table();
        assert!(db.table(TableId(0)).is_err());
    }
}

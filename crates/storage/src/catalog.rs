//! Schema metadata: tables, columns, keys, and foreign keys.
//!
//! Several transformation rules fire only under schema constraints (paper
//! §7): `GbAggEliminateOnKey` needs the grouping columns to cover a
//! non-nullable key,
//! `SemiJoinToInnerJoinOnKey` needs the probe-side join column to be unique.
//! The catalog is therefore the source of truth for keys and nullability.

use ruletest_common::{DataType, Error, Result, TableId};
use std::collections::HashMap;

/// A column definition within a base table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnDef {
    pub name: String,
    pub data_type: DataType,
    pub nullable: bool,
}

impl ColumnDef {
    pub fn new(name: &str, data_type: DataType, nullable: bool) -> Self {
        Self {
            name: name.to_string(),
            data_type,
            nullable,
        }
    }
}

/// A foreign-key constraint: `columns` of this table reference
/// `ref_columns` of `ref_table` (ordinals in both cases).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ForeignKey {
    pub columns: Vec<usize>,
    pub ref_table: TableId,
    pub ref_columns: Vec<usize>,
}

/// A base table definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableDef {
    pub id: TableId,
    pub name: String,
    pub columns: Vec<ColumnDef>,
    /// Ordinals of the primary-key columns (possibly composite, never empty
    /// for the shipped schemas).
    pub primary_key: Vec<usize>,
    /// Additional unique keys (ordinal sets).
    pub unique_keys: Vec<Vec<usize>>,
    pub foreign_keys: Vec<ForeignKey>,
}

impl TableDef {
    /// Looks up a column ordinal by name.
    pub fn column_ordinal(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name == name)
    }

    /// True iff the given set of ordinals contains some unique key
    /// (primary or secondary) of this table with no nullable column: NULL
    /// keys would not be unique group identities.
    pub fn ordinals_cover_non_null_key(&self, ordinals: &[usize]) -> bool {
        let covers = |key: &[usize]| {
            key.iter()
                .all(|&k| ordinals.contains(&k) && !self.columns[k].nullable)
        };
        covers(&self.primary_key) || self.unique_keys.iter().any(|k| covers(k))
    }

    /// True iff the single column ordinal is by itself a unique key.
    pub fn is_unique_column(&self, ordinal: usize) -> bool {
        (self.primary_key.len() == 1 && self.primary_key[0] == ordinal)
            || self
                .unique_keys
                .iter()
                .any(|k| k.len() == 1 && k[0] == ordinal)
    }
}

/// The collection of table definitions the framework runs against.
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    tables: Vec<TableDef>,
    by_name: HashMap<String, TableId>,
}

impl Catalog {
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a table; its id must equal its insertion index.
    pub fn add_table(&mut self, def: TableDef) -> Result<TableId> {
        if def.id.0 as usize != self.tables.len() {
            return Err(Error::invalid(format!(
                "table {} registered with id {}, expected {}",
                def.name,
                def.id,
                self.tables.len()
            )));
        }
        if self.by_name.contains_key(&def.name) {
            return Err(Error::invalid(format!("duplicate table name {}", def.name)));
        }
        for fk in &def.foreign_keys {
            if fk.columns.len() != fk.ref_columns.len() {
                return Err(Error::invalid(format!(
                    "foreign key arity mismatch on {}",
                    def.name
                )));
            }
        }
        let id = def.id;
        self.by_name.insert(def.name.clone(), id);
        self.tables.push(def);
        Ok(id)
    }

    pub fn table(&self, id: TableId) -> Result<&TableDef> {
        self.tables
            .get(id.0 as usize)
            .ok_or_else(|| Error::not_found(format!("table {id}")))
    }

    pub fn table_by_name(&self, name: &str) -> Result<&TableDef> {
        let id = self
            .by_name
            .get(name)
            .ok_or_else(|| Error::not_found(format!("table '{name}'")))?;
        self.table(*id)
    }

    pub fn tables(&self) -> &[TableDef] {
        &self.tables
    }

    pub fn len(&self) -> usize {
        self.tables.len()
    }

    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_col_table(id: u32, name: &str) -> TableDef {
        TableDef {
            id: TableId(id),
            name: name.to_string(),
            columns: vec![
                ColumnDef::new("k", DataType::Int, false),
                ColumnDef::new("v", DataType::Str, true),
            ],
            primary_key: vec![0],
            unique_keys: vec![],
            foreign_keys: vec![],
        }
    }

    #[test]
    fn add_and_lookup_by_name_and_id() {
        let mut cat = Catalog::new();
        let id = cat.add_table(two_col_table(0, "t")).unwrap();
        assert_eq!(cat.table(id).unwrap().name, "t");
        assert_eq!(cat.table_by_name("t").unwrap().id, id);
        assert_eq!(cat.len(), 1);
        assert!(!cat.is_empty());
    }

    #[test]
    fn rejects_out_of_order_ids() {
        let mut cat = Catalog::new();
        assert!(cat.add_table(two_col_table(5, "t")).is_err());
    }

    #[test]
    fn rejects_duplicate_names() {
        let mut cat = Catalog::new();
        cat.add_table(two_col_table(0, "t")).unwrap();
        assert!(cat.add_table(two_col_table(1, "t")).is_err());
    }

    #[test]
    fn missing_lookups_error() {
        let cat = Catalog::new();
        assert!(cat.table(TableId(0)).is_err());
        assert!(cat.table_by_name("nope").is_err());
    }

    #[test]
    fn key_coverage() {
        let mut t = two_col_table(0, "t");
        t.unique_keys = vec![vec![1]];
        assert!(t.ordinals_cover_non_null_key(&[0]));
        // `v` is a unique key, but nullable.
        assert!(!t.ordinals_cover_non_null_key(&[1]));
        assert!(t.ordinals_cover_non_null_key(&[0, 1]));
        assert!(t.is_unique_column(0));
        assert!(t.is_unique_column(1));

        let mut comp = two_col_table(0, "c");
        comp.primary_key = vec![0, 1];
        assert!(!comp.ordinals_cover_non_null_key(&[0]));
        // A composite key with a nullable column covers no non-null key.
        assert!(!comp.ordinals_cover_non_null_key(&[1, 0]));
        comp.columns[1].nullable = false;
        assert!(comp.ordinals_cover_non_null_key(&[1, 0]));
        assert!(!comp.is_unique_column(0));
    }

    #[test]
    fn column_ordinal_by_name() {
        let t = two_col_table(0, "t");
        assert_eq!(t.column_ordinal("v"), Some(1));
        assert_eq!(t.column_ordinal("zz"), None);
    }

    #[test]
    fn foreign_key_arity_checked() {
        let mut cat = Catalog::new();
        cat.add_table(two_col_table(0, "parent")).unwrap();
        let mut child = two_col_table(1, "child");
        child.foreign_keys = vec![ForeignKey {
            columns: vec![0],
            ref_table: TableId(0),
            ref_columns: vec![0, 1],
        }];
        assert!(cat.add_table(child).is_err());
    }
}

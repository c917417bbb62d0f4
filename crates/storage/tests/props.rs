//! Property tests for the test-database substrate: the invariants the
//! generator must hold for *any* seed and scale, because rule
//! preconditions (keys, FKs, nullability) depend on them. Runs on the
//! in-repo `check` harness.

use ruletest_common::check::{gen, CheckConfig};
use ruletest_common::{ensure, ensure_eq, forall, DataType, TableId, Value};
use ruletest_storage::{tpch_database, Catalog, ColumnDef, Database, TableDef, TpchConfig};
use std::collections::HashSet;

fn config(seed: u64, factor: usize, null_p: f64) -> TpchConfig {
    let mut cfg = TpchConfig::scaled(seed, factor);
    cfg.null_probability = null_p;
    cfg
}

/// Primary keys are unique and non-null at every seed/scale.
#[test]
fn primary_keys_hold() {
    forall!(CheckConfig::cases(24);
            seed in gen::u64s(),
            factor in gen::usizes(1..4),
            null_p in gen::f64s(0.0..0.5) => {
        let db = tpch_database(&config(seed, factor, null_p)).unwrap();
        for def in db.catalog.tables().to_vec() {
            let t = db.table(def.id).unwrap();
            let mut seen = HashSet::new();
            for row in &t.rows {
                let key: Vec<Value> =
                    def.primary_key.iter().map(|&c| row[c].clone()).collect();
                ensure!(!key.iter().any(Value::is_null), "{}: NULL PK", def.name);
                ensure!(seen.insert(key), "{}: duplicate PK", def.name);
            }
        }
        Ok(())
    });
}

/// Every non-null foreign key resolves to a parent row.
#[test]
fn foreign_keys_resolve() {
    forall!(CheckConfig::cases(24); seed in gen::u64s(), factor in gen::usizes(1..3) => {
        let db = tpch_database(&config(seed, factor, 0.15)).unwrap();
        for def in db.catalog.tables().to_vec() {
            let child = db.table(def.id).unwrap();
            for fk in &def.foreign_keys {
                let parent = db.table(fk.ref_table).unwrap();
                let parent_keys: HashSet<Vec<Value>> = parent
                    .rows
                    .iter()
                    .map(|r| fk.ref_columns.iter().map(|&c| r[c].clone()).collect())
                    .collect();
                for row in &child.rows {
                    let key: Vec<Value> =
                        fk.columns.iter().map(|&c| row[c].clone()).collect();
                    if key.iter().any(Value::is_null) {
                        continue;
                    }
                    ensure!(parent_keys.contains(&key), "{}: dangling FK", def.name);
                }
            }
        }
        Ok(())
    });
}

/// Statistics agree with the data they were computed from.
#[test]
fn statistics_are_exact() {
    forall!(CheckConfig::cases(24); seed in gen::u64s() => {
        let db = tpch_database(&config(seed, 1, 0.2)).unwrap();
        for def in db.catalog.tables().to_vec() {
            let t = db.table(def.id).unwrap();
            ensure_eq!(t.stats.row_count as usize, t.rows.len());
            for (c, stats) in t.stats.columns.iter().enumerate() {
                let nulls = t.rows.iter().filter(|r| r[c].is_null()).count();
                ensure_eq!(stats.null_count as usize, nulls);
                let distinct: HashSet<&Value> = t
                    .rows
                    .iter()
                    .map(|r| &r[c])
                    .filter(|v| !v.is_null())
                    .collect();
                ensure_eq!(stats.ndv as usize, distinct.len());
                if let Some(min) = &stats.min {
                    ensure!(distinct.iter().all(|v| min.total_cmp(v).is_le()));
                    ensure!(distinct.contains(min));
                }
            }
        }
        Ok(())
    });
}

/// The generator is a pure function of its configuration.
#[test]
fn generation_is_pure() {
    forall!(CheckConfig::cases(24); seed in gen::u64s() => {
        let a = tpch_database(&config(seed, 1, 0.1)).unwrap();
        let b = tpch_database(&config(seed, 1, 0.1)).unwrap();
        for def in a.catalog.tables().to_vec() {
            ensure_eq!(&a.table(def.id).unwrap().rows, &b.table(def.id).unwrap().rows);
        }
        Ok(())
    });
}

/// The primary-key index answers point lookups as a scan does, on every
/// table (the composite keys of `lineitem` and `partsupp` included): a key
/// taken from a row, a random key, an absent one, one containing NULL and
/// ones of the wrong arity.
#[test]
fn pk_index_matches_scan() {
    forall!(CheckConfig::cases(24);
            seed in gen::u64s(),
            pick in gen::usizes(0..10_000),
            probe in gen::pairs(gen::i64s(0..50), gen::i64s(0..9)) => {
        let db = tpch_database(&config(seed, 1, 0.1)).unwrap();
        for def in db.catalog.tables() {
            let t = db.table(def.id).unwrap();
            let key_of = |row: &[Value]| -> Vec<Value> {
                def.primary_key.iter().map(|&c| row[c].clone()).collect()
            };
            let scan = |key: &[Value]| -> Vec<usize> {
                (0..t.rows.len()).filter(|&i| key_of(&t.rows[i]) == key).collect()
            };
            let arity = def.primary_key.len();

            let present = key_of(&t.rows[pick % t.rows.len()]);
            ensure_eq!(t.pk_lookup(&present), [pick % t.rows.len()], "{}", def.name);
            let random = [Value::Int(probe.0), Value::Int(probe.1)][..arity].to_vec();
            ensure_eq!(t.pk_lookup(&random), scan(&random), "{}: {random:?}", def.name);

            let mut absent = present.clone();
            absent[arity - 1] = Value::Int(-1);
            ensure!(t.pk_lookup(&absent).is_empty(), "{}: absent key", def.name);
            let mut with_null = present.clone();
            with_null[arity - 1] = Value::Null;
            ensure!(t.pk_lookup(&with_null).is_empty(), "{}: NULL in key", def.name);
            let mut longer = present.clone();
            longer.push(Value::Int(0));
            ensure!(t.pk_lookup(&longer).is_empty(), "{}: key too long", def.name);
            ensure!(t.pk_lookup(&present[..arity - 1]).is_empty(), "{}: key too short", def.name);
        }
        Ok(())
    });
}

/// A table may hold a key more than once (nothing enforces uniqueness on
/// user-supplied rows): every offset comes back, ascending.
#[test]
fn duplicated_keys_come_back_ascending() {
    let mut catalog = Catalog::new();
    let id = catalog
        .add_table(TableDef {
            id: TableId(0),
            name: "dup".into(),
            columns: vec![
                ColumnDef::new("a", DataType::Int, true),
                ColumnDef::new("b", DataType::Str, true),
            ],
            primary_key: vec![0, 1],
            unique_keys: vec![],
            foreign_keys: vec![],
        })
        .unwrap();
    let key = |a: i64, b: &str| vec![Value::Int(a), Value::from(b)];
    let mut db = Database::new(catalog);
    db.load_table(
        id,
        vec![
            key(2, "x"),
            key(1, "y"),
            key(2, "x"),
            vec![Value::Int(2), Value::Null],
            key(2, "w"),
            key(1, "y"),
            key(2, "x"),
        ],
    )
    .unwrap();
    let t = db.table(id).unwrap();
    assert_eq!(t.pk_lookup(&key(2, "x")), [0, 2, 6]);
    assert_eq!(t.pk_lookup(&key(1, "y")), [1, 5]);
    assert_eq!(t.pk_lookup(&key(2, "w")), [4]);
    assert!(t.pk_lookup(&key(1, "x")).is_empty());
    assert!(t.pk_lookup(&[Value::Int(2), Value::Null]).is_empty());
}

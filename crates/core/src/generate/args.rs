//! Shared argument instantiation for query generation.
//!
//! After a pattern (or a random shape) fixes the *operators*, their
//! *arguments* still have to be chosen: join predicates, filter conjuncts,
//! grouping columns, aggregate calls, union alignments (§3.1 step (b)).
//! The heuristics here are deliberately key- and type-aware — equality
//! predicates prefer foreign-key/primary-key pairs, groupings sometimes
//! cover a key — so that preconditions of schema-dependent rules are hit
//! with realistic probability, while still leaving room for misses (the
//! reason PATTERN occasionally needs more than one trial).

use ruletest_common::{ColId, DataType, Rng, TableId, Value};
use ruletest_expr::{AggCall, AggFunc, BinOp, Expr};
use ruletest_logical::{derive_schema, IdGen, JoinKind, LogicalTree, Schema, SortKey};
use ruletest_storage::Database;
use std::collections::HashMap;

/// String constants that actually occur in the generated TPC-H data, so
/// string equality predicates are sometimes selective rather than always
/// empty.
const STR_POOL: &[&str] = &[
    "ASIA",
    "EUROPE",
    "AMERICA",
    "AUTOMOBILE",
    "BUILDING",
    "Brand#11",
    "Brand#21",
    "A",
    "N",
    "R",
    "F",
    "O",
    "1-URGENT",
    "5-LOW",
    "NATION_03",
];

/// A tree under construction, carrying its derived schema and the mapping
/// from visible columns back to base-table columns (for key awareness).
#[derive(Debug, Clone)]
pub struct Built {
    pub tree: LogicalTree,
    pub schema: Schema,
    /// Visible column -> (base table, ordinal), for columns that are direct
    /// passthroughs of a base table column.
    pub base_cols: HashMap<ColId, (TableId, usize)>,
}

impl Built {
    /// Wraps and validates a finished subtree.
    pub fn new(
        db: &Database,
        tree: LogicalTree,
        base_cols: HashMap<ColId, (TableId, usize)>,
    ) -> Option<Built> {
        let schema = derive_schema(&db.catalog, &tree).ok()?;
        let base_cols = base_cols
            .into_iter()
            .filter(|(c, _)| schema.iter().any(|ci| ci.id == *c))
            .collect();
        Some(Built {
            tree,
            schema,
            base_cols,
        })
    }

    /// True iff `col` is a single-column unique key of its base table.
    pub fn is_key_col(&self, db: &Database, col: ColId) -> bool {
        self.base_cols.get(&col).is_some_and(|(t, ord)| {
            db.catalog
                .table(*t)
                .map(|def| def.is_unique_column(*ord))
                .unwrap_or(false)
        })
    }
}

/// Argument generator over a fixed test database.
pub struct ArgGen<'a> {
    pub db: &'a Database,
}

impl<'a> ArgGen<'a> {
    pub fn new(db: &'a Database) -> Self {
        Self { db }
    }

    /// A random base-table access.
    pub fn random_get(&self, rng: &mut Rng, ids: &mut IdGen) -> Built {
        let tables = self.db.catalog.tables();
        let def = &tables[rng.gen_index(tables.len())];
        let tree = LogicalTree::get(def, ids);
        let cols = match &tree.op {
            ruletest_logical::Operator::Get { cols, .. } => cols.clone(),
            _ => unreachable!(),
        };
        let base_cols = cols
            .iter()
            .enumerate()
            .map(|(ord, &c)| (c, (def.id, ord)))
            .collect();
        Built::new(self.db, tree, base_cols).expect("base table access is always valid")
    }

    fn cols_of_type(schema: &Schema, dt: DataType) -> Vec<ColId> {
        schema
            .iter()
            .filter(|c| c.data_type == dt)
            .map(|c| c.id)
            .collect()
    }

    fn random_literal(&self, rng: &mut Rng, dt: DataType) -> Value {
        match dt {
            DataType::Int => {
                if rng.gen_bool(0.6) {
                    Value::Int(rng.gen_range_i64(0, 20))
                } else {
                    Value::Int(rng.gen_range_i64(0, 10_000))
                }
            }
            DataType::Str => Value::from(*rng.pick(STR_POOL)),
            DataType::Bool => Value::Bool(rng.gen_bool(0.5)),
        }
    }

    /// One random comparison conjunct over `schema`.
    fn conjunct(&self, rng: &mut Rng, schema: &Schema) -> Expr {
        if schema.is_empty() {
            return Expr::true_lit();
        }
        let c = &schema[rng.gen_index(schema.len())];
        let roll = rng.gen_below(100);
        if roll < 8 {
            // Null tests keep null-rejection analysis honest.
            let e = Expr::is_null(Expr::col(c.id));
            return if rng.gen_bool(0.5) { Expr::not(e) } else { e };
        }
        if roll < 20 {
            // Column-to-column comparison within the schema.
            let peers = Self::cols_of_type(schema, c.data_type);
            if peers.len() > 1 {
                let other = loop {
                    let cand = *rng.pick(&peers);
                    if cand != c.id {
                        break cand;
                    }
                };
                let op = *rng.pick(&[BinOp::Eq, BinOp::Lt, BinOp::Ne]);
                return Expr::bin(op, Expr::col(c.id), Expr::col(other));
            }
        }
        let op = match c.data_type {
            DataType::Int => *rng.pick(&[
                BinOp::Eq,
                BinOp::Ne,
                BinOp::Lt,
                BinOp::Le,
                BinOp::Gt,
                BinOp::Ge,
            ]),
            _ => *rng.pick(&[BinOp::Eq, BinOp::Ne]),
        };
        Expr::bin(
            op,
            Expr::col(c.id),
            Expr::Lit(self.random_literal(rng, c.data_type)),
        )
    }

    /// A filter predicate: 1–3 conjuncts, occasionally an OR.
    pub fn filter_predicate(&self, rng: &mut Rng, schema: &Schema) -> Expr {
        let n = 1 + rng.gen_index(3);
        let mut parts: Vec<Expr> = (0..n).map(|_| self.conjunct(rng, schema)).collect();
        if parts.len() >= 2 && rng.gen_bool(0.15) {
            let b = parts.pop().expect("len >= 2");
            let a = parts.pop().expect("len >= 1");
            parts.push(Expr::or(a, b));
        }
        ruletest_expr::conjoin(parts)
    }

    /// A join predicate across two inputs. Prefers a cross-side equality,
    /// with a bias toward (foreign key, primary key) column pairs; with
    /// `require_equi` a cross-side equality is guaranteed (semi/anti joins
    /// and hash-join-dependent rules need one).
    pub fn join_predicate(
        &self,
        rng: &mut Rng,
        left: &Built,
        right: &Built,
        require_equi: bool,
    ) -> Expr {
        let mut candidates: Vec<(ColId, ColId, bool)> = Vec::new();
        for lc in &left.schema {
            for rc in &right.schema {
                if lc.data_type != rc.data_type || lc.data_type == DataType::Bool {
                    continue;
                }
                let keyish = left.is_key_col(self.db, lc.id) || right.is_key_col(self.db, rc.id);
                candidates.push((lc.id, rc.id, keyish));
            }
        }
        let pick_equi = |rng: &mut Rng, candidates: &[(ColId, ColId, bool)]| -> Option<Expr> {
            if candidates.is_empty() {
                return None;
            }
            // 70%: prefer a key-involving pair when one exists.
            let keyed: Vec<&(ColId, ColId, bool)> =
                candidates.iter().filter(|(_, _, k)| *k).collect();
            let (l, r, _) = if !keyed.is_empty() && rng.gen_bool(0.7) {
                **rng.pick(&keyed)
            } else {
                *rng.pick(candidates)
            };
            Some(Expr::eq(Expr::col(l), Expr::col(r)))
        };
        let equi = pick_equi(rng, &candidates);
        match equi {
            Some(eq) if require_equi || rng.gen_bool(0.85) => {
                if rng.gen_bool(0.25) {
                    // An extra one-sided conjunct exercises pushdown rules
                    // through the join predicate path.
                    let side = if rng.gen_bool(0.5) {
                        &left.schema
                    } else {
                        &right.schema
                    };
                    Expr::and(eq, self.conjunct(rng, side))
                } else {
                    eq
                }
            }
            _ if require_equi => Expr::true_lit(), // caller will fail validation/trial
            _ => {
                if rng.gen_bool(0.5) {
                    Expr::true_lit() // cross product
                } else {
                    let mut all = left.schema.clone();
                    all.extend(right.schema.iter().cloned());
                    self.conjunct(rng, &all)
                }
            }
        }
    }

    /// Grouping columns and aggregate calls over a child.
    ///
    /// Heuristics: with some probability the grouping covers a base-table
    /// key (enabling `GbAggEliminateOnKey`) or stays small; aggregates draw
    /// from COUNT(*) / COUNT / SUM / MIN / MAX with SUM restricted to INT.
    pub fn gbagg_args(
        &self,
        rng: &mut Rng,
        ids: &mut IdGen,
        child: &Built,
    ) -> (Vec<ColId>, Vec<AggCall>) {
        let schema = &child.schema;
        let mut group_by: Vec<ColId> = Vec::new();
        if !schema.is_empty() && rng.gen_bool(0.85) {
            if rng.gen_bool(0.35) {
                // Try to cover a single-column key.
                if let Some(key) = schema
                    .iter()
                    .map(|c| c.id)
                    .find(|&c| child.is_key_col(self.db, c))
                {
                    group_by.push(key);
                }
            }
            let extra = rng.gen_index(3);
            for _ in 0..extra {
                let c = schema[rng.gen_index(schema.len())].id;
                if !group_by.contains(&c) {
                    group_by.push(c);
                }
            }
            if group_by.is_empty() {
                group_by.push(schema[rng.gen_index(schema.len())].id);
            }
        }
        let int_cols = Self::cols_of_type(schema, DataType::Int);
        let n_aggs = 1 + rng.gen_index(2);
        let mut aggs = Vec::new();
        for _ in 0..n_aggs {
            let func = *rng.pick(&[
                AggFunc::CountStar,
                AggFunc::Count,
                AggFunc::Sum,
                AggFunc::Min,
                AggFunc::Max,
            ]);
            let arg = match func {
                AggFunc::CountStar => None,
                AggFunc::Sum => {
                    if int_cols.is_empty() {
                        continue;
                    }
                    Some(*rng.pick(&int_cols))
                }
                _ => {
                    if schema.is_empty() {
                        continue;
                    }
                    Some(schema[rng.gen_index(schema.len())].id)
                }
            };
            aggs.push(AggCall::new(func, arg, ids.fresh()));
        }
        (group_by, aggs)
    }

    /// Type-aligned column maps for a UNION ALL of two inputs, if any
    /// alignment exists.
    #[allow(clippy::type_complexity)]
    pub fn union_alignment(
        &self,
        rng: &mut Rng,
        ids: &mut IdGen,
        left: &Built,
        right: &Built,
    ) -> Option<(Vec<ColId>, Vec<ColId>, Vec<ColId>)> {
        let mut pairs: Vec<(ColId, ColId)> = Vec::new();
        let mut used_right: Vec<ColId> = Vec::new();
        let mut lcols: Vec<&ruletest_logical::ColumnInfo> = left.schema.iter().collect();
        rng.shuffle(&mut lcols);
        for lc in lcols {
            if let Some(rc) = right
                .schema
                .iter()
                .find(|rc| rc.data_type == lc.data_type && !used_right.contains(&rc.id))
            {
                used_right.push(rc.id);
                pairs.push((lc.id, rc.id));
            }
        }
        if pairs.is_empty() {
            return None;
        }
        let keep = 1 + rng.gen_index(pairs.len().min(3));
        pairs.truncate(keep);
        let outputs: Vec<ColId> = (0..pairs.len()).map(|_| ids.fresh()).collect();
        let left_cols = pairs.iter().map(|(l, _)| *l).collect();
        let right_cols = pairs.iter().map(|(_, r)| *r).collect();
        Some((outputs, left_cols, right_cols))
    }

    /// Random sort keys (1–2 columns).
    pub fn sort_keys(&self, rng: &mut Rng, schema: &Schema) -> Vec<SortKey> {
        if schema.is_empty() {
            return vec![];
        }
        let n = 1 + rng.gen_index(2.min(schema.len()));
        let idxs = rng.sample_indices(schema.len(), n);
        idxs.into_iter()
            .map(|i| SortKey {
                col: schema[i].id,
                descending: rng.gen_bool(0.4),
            })
            .collect()
    }

    /// A random join kind, weighted toward inner joins.
    pub fn random_join_kind(&self, rng: &mut Rng) -> JoinKind {
        let roll = rng.gen_below(100);
        match roll {
            0..=54 => JoinKind::Inner,
            55..=69 => JoinKind::LeftOuter,
            70..=76 => JoinKind::RightOuter,
            77..=82 => JoinKind::FullOuter,
            83..=91 => JoinKind::LeftSemi,
            _ => JoinKind::LeftAnti,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ruletest_storage::{tpch_database, TpchConfig};

    fn db() -> Database {
        tpch_database(&TpchConfig::default()).unwrap()
    }

    #[test]
    fn random_get_is_valid_and_key_aware() {
        let db = db();
        let gen = ArgGen::new(&db);
        let mut rng = Rng::new(1);
        let mut ids = IdGen::new();
        for _ in 0..20 {
            let b = gen.random_get(&mut rng, &mut ids);
            assert!(!b.schema.is_empty());
            assert_eq!(b.base_cols.len(), b.schema.len());
        }
        // Nation's key column should be recognized.
        let def = db.catalog.table_by_name("nation").unwrap();
        let tree = LogicalTree::get(def, &mut ids);
        let base_cols = (0..3).map(|o| (tree.output_col(o), (def.id, o))).collect();
        let b = Built::new(&db, tree, base_cols).unwrap();
        assert!(b.is_key_col(&db, b.tree.output_col(0)));
        assert!(!b.is_key_col(&db, b.tree.output_col(2)));
    }

    #[test]
    fn predicates_type_check() {
        let db = db();
        let gen = ArgGen::new(&db);
        let mut rng = Rng::new(2);
        let mut ids = IdGen::new();
        for _ in 0..100 {
            let b = gen.random_get(&mut rng, &mut ids);
            let pred = gen.filter_predicate(&mut rng, &b.schema);
            let sel = LogicalTree::select(b.tree, pred);
            assert!(derive_schema(&db.catalog, &sel).is_ok());
        }
    }

    #[test]
    fn join_predicates_type_check_and_can_require_equi() {
        let db = db();
        let gen = ArgGen::new(&db);
        let mut rng = Rng::new(3);
        let mut ids = IdGen::new();
        for _ in 0..100 {
            let l = gen.random_get(&mut rng, &mut ids);
            let r = gen.random_get(&mut rng, &mut ids);
            let pred = gen.join_predicate(&mut rng, &l, &r, true);
            let j = LogicalTree::join(JoinKind::Inner, l.tree, r.tree, pred.clone());
            assert!(derive_schema(&db.catalog, &j).is_ok());
            // Required equi: must contain a cross-side equality (TPC-H
            // always has int columns on both sides).
            let schema_l = derive_schema(&db.catalog, &j.children[0]).unwrap();
            let schema_r = derive_schema(&db.catalog, &j.children[1]).unwrap();
            let (keys, _) =
                ruletest_optimizer::cost::split_equi_conjuncts(&pred, &schema_l, &schema_r);
            assert!(!keys.is_empty());
        }
    }

    #[test]
    fn gbagg_args_validate() {
        let db = db();
        let gen = ArgGen::new(&db);
        let mut rng = Rng::new(4);
        let mut ids = IdGen::new();
        for _ in 0..100 {
            let b = gen.random_get(&mut rng, &mut ids);
            let (group_by, aggs) = gen.gbagg_args(&mut rng, &mut ids, &b);
            let t = LogicalTree::gbagg(b.tree, group_by, aggs);
            assert!(derive_schema(&db.catalog, &t).is_ok());
        }
    }

    #[test]
    fn union_alignment_validates() {
        let db = db();
        let gen = ArgGen::new(&db);
        let mut rng = Rng::new(5);
        let mut ids = IdGen::new();
        for _ in 0..50 {
            let l = gen.random_get(&mut rng, &mut ids);
            let r = gen.random_get(&mut rng, &mut ids);
            let Some((outs, lc, rc)) = gen.union_alignment(&mut rng, &mut ids, &l, &r) else {
                panic!("TPC-H tables always share int columns");
            };
            let u = LogicalTree::union_all(l.tree, r.tree, outs, lc, rc);
            assert!(derive_schema(&db.catalog, &u).is_ok());
        }
    }

    #[test]
    fn sort_keys_reference_schema() {
        let db = db();
        let gen = ArgGen::new(&db);
        let mut rng = Rng::new(6);
        let mut ids = IdGen::new();
        let b = gen.random_get(&mut rng, &mut ids);
        for _ in 0..20 {
            let keys = gen.sort_keys(&mut rng, &b.schema);
            assert!(!keys.is_empty());
            for k in keys {
                assert!(b.schema.iter().any(|c| c.id == k.col));
            }
        }
    }
}

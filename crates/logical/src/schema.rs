//! Output-schema derivation and validation for logical operators.
//!
//! Deriving a schema doubles as semantic validation: unknown column
//! references, type errors, arity mismatches, and duplicate output ids are
//! all rejected here. Both the standalone tree and the optimizer memo call
//! [`output_schema`]; the memo caches one schema per group (all expressions
//! in a group share it — a logical property of equivalence).

use crate::op::{JoinKind, Operator};
use crate::tree::LogicalTree;
use ruletest_common::{wire_record, ColId, DataType, Error, Result};
use ruletest_expr::{infer_type, AggFunc};
use ruletest_storage::Catalog;
use std::collections::BTreeSet;

/// One output column of an operator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnInfo {
    pub id: ColId,
    pub data_type: DataType,
    pub nullable: bool,
}

wire_record!(ColumnInfo { "id" => id, "nullable" => nullable, "type" => data_type });

/// An ordered output schema.
pub type Schema = Vec<ColumnInfo>;

fn find(schema: &Schema, id: ColId) -> Option<&ColumnInfo> {
    schema.iter().find(|c| c.id == id)
}

fn type_resolver<'a>(schemas: &'a [&Schema]) -> impl Fn(ColId) -> Option<DataType> + 'a {
    move |id| {
        schemas
            .iter()
            .find_map(|s| find(s, id).map(|c| c.data_type))
    }
}

fn check_predicate(predicate: &ruletest_expr::Expr, schemas: &[&Schema]) -> Result<()> {
    let t = infer_type(predicate, &type_resolver(schemas))?;
    match t {
        None | Some(DataType::Bool) => Ok(()),
        Some(other) => Err(Error::invalid(format!(
            "predicate has type {other}, expected BOOLEAN"
        ))),
    }
}

fn no_duplicate_ids(schema: &Schema) -> Result<()> {
    // Ids are minted densely from zero, so a bitmap over the low ones
    // decides nearly every schema without allocating (this runs once per
    // memo insert and once per physical candidate); larger ids fall back
    // to an ordered set.
    let mut low = [0u64; 16];
    let mut high = BTreeSet::new();
    for c in schema {
        let id = c.id.0 as usize;
        let fresh = match low.get_mut(id / 64) {
            Some(word) => {
                let bit = 1u64 << (id % 64);
                let fresh = *word & bit == 0;
                *word |= bit;
                fresh
            }
            None => high.insert(c.id),
        };
        if !fresh {
            return Err(Error::invalid(format!("duplicate output column {}", c.id)));
        }
    }
    Ok(())
}

/// Derives the output schema of `op` given its children's schemas,
/// validating arguments along the way.
pub fn output_schema(catalog: &Catalog, op: &Operator, children: &[&Schema]) -> Result<Schema> {
    if children.len() != op.arity() {
        return Err(Error::invalid(format!(
            "{} expects {} children, got {}",
            op.label(),
            op.arity(),
            children.len()
        )));
    }
    let schema = match op {
        Operator::Get { table, cols } => {
            let def = catalog.table(*table)?;
            if cols.len() != def.columns.len() {
                return Err(Error::invalid(format!(
                    "Get({}) instantiates {} column ids, table has {}",
                    def.name,
                    cols.len(),
                    def.columns.len()
                )));
            }
            cols.iter()
                .zip(&def.columns)
                .map(|(&id, cd)| ColumnInfo {
                    id,
                    data_type: cd.data_type,
                    nullable: cd.nullable,
                })
                .collect()
        }
        Operator::Select { predicate } => {
            check_predicate(predicate, children)?;
            children[0].clone()
        }
        Operator::Project { outputs } => {
            let resolver = type_resolver(children);
            let input = children[0];
            let mut out = Schema::with_capacity(outputs.len());
            for (id, expr) in outputs {
                let t = infer_type(expr, &resolver)?
                    .ok_or_else(|| Error::invalid("projection of untyped NULL literal"))?;
                // Nullability: conservative — nullable unless a bare
                // reference to a non-nullable input column.
                let nullable = match expr {
                    ruletest_expr::Expr::Col(c) => {
                        find(input, *c).map(|ci| ci.nullable).unwrap_or(true)
                    }
                    ruletest_expr::Expr::Lit(v) => v.is_null(),
                    _ => true,
                };
                out.push(ColumnInfo {
                    id: *id,
                    data_type: t,
                    nullable,
                });
            }
            out
        }
        Operator::Join { kind, predicate } => {
            check_predicate(predicate, children)?;
            let (left, right) = (children[0], children[1]);
            match kind {
                JoinKind::LeftSemi | JoinKind::LeftAnti => left.clone(),
                _ => {
                    let null_left = kind.preserves_right(); // unmatched right pads left
                    let null_right = kind.preserves_left();
                    let mut out = Schema::with_capacity(left.len() + right.len());
                    for c in left {
                        out.push(ColumnInfo {
                            nullable: c.nullable || null_left,
                            ..c.clone()
                        });
                    }
                    for c in right {
                        out.push(ColumnInfo {
                            nullable: c.nullable || null_right,
                            ..c.clone()
                        });
                    }
                    out
                }
            }
        }
        Operator::GbAgg { group_by, aggs } => {
            let input = children[0];
            let mut out = Schema::with_capacity(group_by.len() + aggs.len());
            for &g in group_by {
                let ci = find(input, g)
                    .ok_or_else(|| Error::invalid(format!("unknown grouping column {g}")))?;
                out.push(ci.clone());
            }
            for call in aggs {
                let arg_type = match call.arg {
                    Some(a) => Some(
                        find(input, a)
                            .ok_or_else(|| {
                                Error::invalid(format!("unknown aggregate argument {a}"))
                            })?
                            .data_type,
                    ),
                    None => None,
                };
                if call.func == AggFunc::Sum && arg_type != Some(DataType::Int) {
                    return Err(Error::invalid("SUM requires an INT argument"));
                }
                let nullable = !matches!(call.func, AggFunc::Count | AggFunc::CountStar);
                out.push(ColumnInfo {
                    id: call.output,
                    data_type: call.func.output_type(arg_type),
                    nullable,
                });
            }
            out
        }
        Operator::UnionAll {
            outputs,
            left_cols,
            right_cols,
        } => {
            let (left, right) = (children[0], children[1]);
            if outputs.len() != left_cols.len() || outputs.len() != right_cols.len() {
                return Err(Error::invalid(format!(
                    "UNION ALL arity mismatch: {} outputs vs {}/{} side columns",
                    outputs.len(),
                    left_cols.len(),
                    right_cols.len()
                )));
            }
            let mut out = Schema::with_capacity(outputs.len());
            for (i, &id) in outputs.iter().enumerate() {
                let lc = find(left, left_cols[i]).ok_or_else(|| {
                    Error::invalid(format!("UNION ALL: unknown left column {}", left_cols[i]))
                })?;
                let rc = find(right, right_cols[i]).ok_or_else(|| {
                    Error::invalid(format!("UNION ALL: unknown right column {}", right_cols[i]))
                })?;
                if lc.data_type != rc.data_type {
                    return Err(Error::invalid(format!(
                        "UNION ALL type mismatch at position {i}: {} vs {}",
                        lc.data_type, rc.data_type
                    )));
                }
                out.push(ColumnInfo {
                    id,
                    data_type: lc.data_type,
                    nullable: lc.nullable || rc.nullable,
                });
            }
            out
        }
        Operator::Distinct => children[0].clone(),
        Operator::Sort { keys } | Operator::Top { keys, .. } => {
            for k in keys {
                if find(children[0], k.col).is_none() {
                    return Err(Error::invalid(format!("unknown sort column {}", k.col)));
                }
            }
            children[0].clone()
        }
    };
    no_duplicate_ids(&schema)?;
    // All predicate/argument columns must come from the children.
    Ok(schema)
}

/// Recursively derives (and thereby validates) the schema of a whole tree.
pub fn derive_schema(catalog: &Catalog, tree: &LogicalTree) -> Result<Schema> {
    let child_schemas: Vec<Schema> = tree
        .children
        .iter()
        .map(|c| derive_schema(catalog, c))
        .collect::<Result<_>>()?;
    let refs: Vec<&Schema> = child_schemas.iter().collect();
    output_schema(catalog, &tree.op, &refs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::{IdGen, LogicalTree};
    use ruletest_common::TableId;
    use ruletest_expr::{AggCall, Expr};
    use ruletest_storage::tpch_catalog;

    fn get(catalog: &Catalog, name: &str, ids: &mut IdGen) -> LogicalTree {
        let def = catalog.table_by_name(name).unwrap();
        LogicalTree::get(def, ids)
    }

    #[test]
    fn get_schema_matches_catalog() {
        let cat = tpch_catalog();
        let mut ids = IdGen::new();
        let t = get(&cat, "region", &mut ids);
        let s = derive_schema(&cat, &t).unwrap();
        assert_eq!(s.len(), 2);
        assert_eq!(s[0].data_type, DataType::Int);
        assert!(!s[0].nullable);
    }

    #[test]
    fn join_concatenates_and_outer_nullifies() {
        let cat = tpch_catalog();
        let mut ids = IdGen::new();
        let l = get(&cat, "region", &mut ids);
        let r = get(&cat, "nation", &mut ids);
        let lk = l.output_col(0);
        let rk = r.output_col(2);
        let pred = Expr::eq(Expr::col(lk), Expr::col(rk));

        let inner = LogicalTree::join(JoinKind::Inner, l.clone(), r.clone(), pred.clone());
        let s = derive_schema(&cat, &inner).unwrap();
        assert_eq!(s.len(), 5);
        assert!(!s[0].nullable);

        let loj = LogicalTree::join(JoinKind::LeftOuter, l.clone(), r.clone(), pred.clone());
        let s = derive_schema(&cat, &loj).unwrap();
        assert!(!s[0].nullable, "preserved side stays non-null");
        assert!(s[2].nullable, "null-supplying side becomes nullable");

        let semi = LogicalTree::join(JoinKind::LeftSemi, l, r, pred);
        let s = derive_schema(&cat, &semi).unwrap();
        assert_eq!(s.len(), 2, "semi join emits only the left side");
    }

    #[test]
    fn full_and_right_outer_nullability() {
        let cat = tpch_catalog();
        let mut ids = IdGen::new();
        let l = get(&cat, "region", &mut ids);
        let r = get(&cat, "nation", &mut ids);
        let pred = Expr::eq(Expr::col(l.output_col(0)), Expr::col(r.output_col(2)));

        // Full outer: unmatched rows pad BOTH sides, so every column of
        // both inputs must come out nullable.
        let foj = LogicalTree::join(JoinKind::FullOuter, l.clone(), r.clone(), pred.clone());
        let s = derive_schema(&cat, &foj).unwrap();
        assert_eq!(s.len(), 5);
        assert!(
            s.iter().all(|c| c.nullable),
            "full outer join must nullify every column of both sides"
        );

        // Right outer mirrors left outer: the left side is null-supplied.
        let roj = LogicalTree::join(JoinKind::RightOuter, l, r, pred);
        let s = derive_schema(&cat, &roj).unwrap();
        assert!(s[0].nullable, "null-supplied left side becomes nullable");
        assert!(!s[2].nullable, "preserved right side keeps its nullability");
    }

    #[test]
    fn anti_join_hides_right_side_and_keeps_left_nullability() {
        let cat = tpch_catalog();
        let mut ids = IdGen::new();
        let l = get(&cat, "region", &mut ids);
        let r = get(&cat, "nation", &mut ids);
        let rk = r.output_col(2);
        let left_schema = derive_schema(&cat, &l).unwrap();
        let pred = Expr::eq(Expr::col(l.output_col(0)), Expr::col(rk));

        let anti = LogicalTree::join(JoinKind::LeftAnti, l, r, pred);
        let s = derive_schema(&cat, &anti).unwrap();
        assert_eq!(
            s, left_schema,
            "anti join passes the left schema through untouched"
        );
        assert!(
            s.iter().all(|c| c.id != rk),
            "right-side columns are invisible above a semi/anti join"
        );
    }

    #[test]
    fn select_requires_boolean_predicate_over_visible_columns() {
        let cat = tpch_catalog();
        let mut ids = IdGen::new();
        let t = get(&cat, "region", &mut ids);
        let bad_type = LogicalTree::select(t.clone(), Expr::lit(5i64));
        assert!(derive_schema(&cat, &bad_type).is_err());
        let unknown = LogicalTree::select(t.clone(), Expr::col(ColId(999)));
        assert!(derive_schema(&cat, &unknown).is_err());
        let ok = LogicalTree::select(t, Expr::true_lit());
        assert!(derive_schema(&cat, &ok).is_ok());
    }

    #[test]
    fn gbagg_schema_and_count_nullability() {
        let cat = tpch_catalog();
        let mut ids = IdGen::new();
        let t = get(&cat, "supplier", &mut ids);
        let nation = t.output_col(2);
        let acct = t.output_col(3);
        let cnt = ids.fresh();
        let mx = ids.fresh();
        let agg = LogicalTree::gbagg(
            t,
            vec![nation],
            vec![
                AggCall::new(AggFunc::CountStar, None, cnt),
                AggCall::new(AggFunc::Max, Some(acct), mx),
            ],
        );
        let s = derive_schema(&cat, &agg).unwrap();
        assert_eq!(s.len(), 3);
        assert!(!s[1].nullable, "COUNT is never NULL");
        assert!(s[2].nullable, "MAX over empty group is NULL");
    }

    #[test]
    fn union_all_checks_arity_and_types() {
        let cat = tpch_catalog();
        let mut ids = IdGen::new();
        let a = get(&cat, "region", &mut ids);
        let b = get(&cat, "region", &mut ids);
        let (a0, a1) = (a.output_col(0), a.output_col(1));
        let (b0, b1) = (b.output_col(0), b.output_col(1));
        let outs = vec![ids.fresh(), ids.fresh()];
        let u = LogicalTree::union_all(a.clone(), b, outs, vec![a0, a1], vec![b0, b1]);
        assert_eq!(derive_schema(&cat, &u).unwrap().len(), 2);

        // Mismatched types: region key (INT) aligned with nation name (STR).
        let c = get(&cat, "nation", &mut ids);
        let (c0, c1) = (c.output_col(0), c.output_col(1));
        let outs = vec![ids.fresh(), ids.fresh()];
        let bad = LogicalTree::union_all(a.clone(), c.clone(), outs, vec![a0, a1], vec![c1, c0]);
        assert!(derive_schema(&cat, &bad).is_err());

        // Unknown side column id.
        let outs = vec![ids.fresh(), ids.fresh()];
        let dangling = LogicalTree::union_all(
            a.clone(),
            c.clone(),
            outs,
            vec![a0, ColId(999)],
            vec![c0, c1],
        );
        assert!(derive_schema(&cat, &dangling).is_err());

        // Column-count mismatch: two outputs but only one left-side column.
        let outs = vec![ids.fresh(), ids.fresh()];
        let short = LogicalTree::union_all(a, c, outs, vec![a0], vec![c0, c1]);
        assert!(
            derive_schema(&cat, &short).is_err(),
            "side-column lists shorter than the output list must be rejected"
        );
    }

    #[test]
    fn duplicate_output_ids_rejected() {
        let cat = tpch_catalog();
        // Low ids take the bitmap, ids past it the ordered set.
        for (a, b, ok) in [
            (1, 1, false),
            (1, 2, true),
            (5000, 5000, false),
            (5000, 5001, true),
        ] {
            let tree = LogicalTree {
                op: Operator::Get {
                    table: TableId(0),
                    cols: vec![ColId(a), ColId(b)],
                },
                children: vec![],
            };
            assert_eq!(derive_schema(&cat, &tree).is_ok(), ok, "ids {a}, {b}");
        }
    }

    #[test]
    fn sum_over_string_rejected() {
        let cat = tpch_catalog();
        let mut ids = IdGen::new();
        let t = get(&cat, "region", &mut ids);
        let name_col = t.output_col(1);
        let out = ids.fresh();
        let agg = LogicalTree::gbagg(
            t,
            vec![],
            vec![AggCall::new(AggFunc::Sum, Some(name_col), out)],
        );
        assert!(derive_schema(&cat, &agg).is_err());
    }
}

//! Filter, compute, concat, distinct, sort, and top-n operators.
//!
//! Filter and distinct pass the row handle they pulled through untouched;
//! sort and top-n materialise handles, not rows; compute and concat build
//! the rows they emit.

use crate::context::{
    bind, charged, open as open_child, position, schema_ids, Ctx, Layout, Need, Opened, RowRef,
};
use ruletest_common::{ColId, Error, Result, WordBuild};
use ruletest_expr::columns_of;
use ruletest_logical::SortKey;
use ruletest_optimizer::{PhysOp, PhysicalPlan};
use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::HashSet;

/// Opens a unary operator or a concat. Filter and sort emit their input's
/// handles and so its layout (asking it for what they read besides their
/// parent); distinct and top-n read whole rows, so they ask for the
/// input's whole schema; compute and concat build rows of their own
/// schema.
pub(crate) fn open<'a>(
    ctx: &'a Ctx<'a>,
    plan: &'a PhysicalPlan,
    need: &Need,
) -> Result<Opened<'a>> {
    let child = &plan.children[0];
    let child_need: Need = match &plan.op {
        PhysOp::Filter { predicate } => need | &columns_of(predicate),
        PhysOp::SortOp { keys } => need | &keys.iter().map(|k| k.col).collect(),
        PhysOp::Compute { outputs } => outputs.iter().flat_map(|(_, e)| columns_of(e)).collect(),
        PhysOp::Concat { left_cols, .. } => left_cols.iter().copied().collect(),
        _ => schema_ids(child).into_iter().collect(),
    };
    let (input, layout) = open_child(ctx, child, &child_need)?;
    let input = charged(ctx, input);
    ctx.charge(1)?;
    match &plan.op {
        PhysOp::Filter { predicate } => {
            let predicate = bind(predicate, &layout, layout.len());
            let rows = input.filter(move |row| match row {
                Ok(row) => predicate.holds(row, &[]),
                Err(_) => true,
            });
            Ok((Box::new(rows), layout))
        }
        PhysOp::Compute { outputs } => {
            let bound = |(_, e): &(_, _)| bind(e, &layout, layout.len());
            let outputs: Vec<_> = outputs.iter().map(bound).collect();
            let rows = input.map(move |row| {
                let row = row?;
                let computed = outputs.iter().map(|e| e.eval(&row, &[]));
                Ok(Cow::Owned(computed.collect()))
            });
            Ok((Box::new(rows), schema_ids(plan)))
        }
        PhysOp::Concat {
            left_cols,
            right_cols,
            ..
        } => {
            let rchild = &plan.children[1];
            let (right, rlayout) = open_child(ctx, rchild, &right_cols.iter().copied().collect())?;
            let right = charged(ctx, right);
            let lpos = left_cols.iter().map(|&c| position(&layout, c)).collect();
            let rpos = right_cols.iter().map(|&c| position(&rlayout, c)).collect();
            let rows = remap(input, lpos).chain(remap(right, rpos));
            Ok((Box::new(rows), schema_ids(plan)))
        }
        PhysOp::HashDistinct => {
            // SQL DISTINCT treats NULLs as equal — Value's Eq does too.
            let mut seen: HashSet<RowRef<'a>, WordBuild> = HashSet::default();
            let rows = input.filter(move |row| match row {
                Ok(row) => !seen.contains(row) && seen.insert(row.clone()),
                Err(_) => true,
            });
            Ok((Box::new(rows), layout))
        }
        PhysOp::SortOp { keys } => {
            let mut rows: Vec<RowRef<'a>> = input.collect::<Result<_>>()?;
            let key_pos = key_positions(keys, &layout);
            rows.sort_by(|a, b| cmp_keys(&key_pos, a, b));
            Ok((Box::new(rows.into_iter().map(Ok)), layout))
        }
        PhysOp::TopN { n, keys } => {
            let mut rows: Vec<RowRef<'a>> = input.collect::<Result<_>>()?;
            let key_pos = key_positions(keys, &layout);
            // Tie-break on the full row with columns in ascending id order —
            // a total, *plan-independent* order, so TopN is a deterministic
            // function of the input multiset (see crate docs).
            let mut tie_cols: Vec<ColId> = layout.clone();
            tie_cols.sort_unstable();
            tie_cols.dedup();
            let tie_pos: Vec<usize> = tie_cols.iter().map(|&c| position(&layout, c)).collect();
            rows.sort_by(|a, b| {
                cmp_keys(&key_pos, a, b).then_with(|| {
                    tie_pos
                        .iter()
                        .map(|&p| a[p].total_cmp(&b[p]))
                        .find(|c| c.is_ne())
                        .unwrap_or(Ordering::Equal)
                })
            });
            rows.truncate(*n as usize);
            Ok((Box::new(rows.into_iter().map(Ok)), layout))
        }
        other => Err(Error::internal(format!(
            "misc executor got {}",
            other.name()
        ))),
    }
}

/// One side of a concat: each row re-mapped to the output's column order.
fn remap<'a>(
    input: impl Iterator<Item = Result<RowRef<'a>>> + 'a,
    positions: Vec<usize>,
) -> impl Iterator<Item = Result<RowRef<'a>>> + 'a {
    input.map(move |row| {
        let row = row?;
        Ok(Cow::Owned(
            positions.iter().map(|&p| row[p].clone()).collect(),
        ))
    })
}

fn key_positions(keys: &[SortKey], layout: &Layout) -> Vec<(usize, bool)> {
    keys.iter()
        .map(|k| (position(layout, k.col), k.descending))
        .collect()
}

fn cmp_keys(key_pos: &[(usize, bool)], a: &RowRef, b: &RowRef) -> Ordering {
    key_pos
        .iter()
        .map(|&(p, desc)| {
            let c = a[p].total_cmp(&b[p]);
            if desc {
                c.reverse()
            } else {
                c
            }
        })
        .find(|c| c.is_ne())
        .unwrap_or(Ordering::Equal)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::execute;
    use crate::context::testkit::*;
    use ruletest_common::{ColId, Value};
    use ruletest_expr::{BinOp, Expr};
    use ruletest_logical::SortKey;
    use ruletest_optimizer::PhysOp;

    #[test]
    fn filter_drops_unknown_and_false() {
        let db = tiny_db();
        // b = 'one': TRUE for row 1, UNKNOWN for NULL b, FALSE for 'three'.
        let p = plan(
            PhysOp::Filter {
                predicate: Expr::eq(Expr::col(ColId(1)), Expr::lit("one")),
            },
            vec![scan_t0()],
            vec![int_col(0), str_col(1)],
        );
        let rows = execute(&db, &p).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][0], Value::Int(1));
    }

    #[test]
    fn filter_hands_on_the_rows_the_scan_borrowed_from_storage() {
        let db = tiny_db();
        // a >= 2 keeps the last two rows of t0.
        let p = plan(
            PhysOp::Filter {
                predicate: Expr::bin(BinOp::Ge, Expr::col(ColId(0)), Expr::lit(2i64)),
            },
            vec![scan_t0()],
            vec![int_col(0), str_col(1)],
        );
        let config = crate::ExecConfig::default();
        let ctx = Ctx::new(&db, &config);
        let need = crate::context::schema_ids(&p).into_iter().collect();
        let rows: Vec<RowRef> = crate::context::open(&ctx, &p, &need)
            .unwrap()
            .0
            .collect::<Result<_>>()
            .unwrap();
        let stored = &db.table(ruletest_common::TableId(0)).unwrap().rows;
        assert_eq!(rows.len(), 2);
        for (row, stored) in rows.iter().zip(&stored[1..]) {
            assert!(
                matches!(row, Cow::Borrowed(r) if std::ptr::eq(*r, stored.as_slice())),
                "{row:?} is not the stored row itself"
            );
        }
    }

    /// Columns are resolved when the operator opens, so a column its
    /// input lacks fails there, even when no row would reach it.
    #[test]
    #[should_panic(expected = "unresolved column c99")]
    fn unresolved_column_panics_at_open() {
        let db = tiny_db();
        let schema = || vec![int_col(0), str_col(1)];
        let empty = plan(
            PhysOp::Filter {
                predicate: Expr::lit(false),
            },
            vec![scan_t0()],
            schema(),
        );
        let p = plan(
            PhysOp::Filter {
                predicate: Expr::eq(Expr::col(ColId(99)), Expr::lit(1i64)),
            },
            vec![empty],
            schema(),
        );
        let _ = execute(&db, &p);
    }

    #[test]
    fn compute_evaluates_expressions() {
        let db = tiny_db();
        let p = plan(
            PhysOp::Compute {
                outputs: vec![
                    (
                        ColId(10),
                        Expr::bin(BinOp::Mul, Expr::col(ColId(0)), Expr::lit(2i64)),
                    ),
                    (ColId(11), Expr::is_null(Expr::col(ColId(1)))),
                ],
            },
            vec![scan_t0()],
            vec![int_col(10), int_col(11)],
        );
        let rows = execute(&db, &p).unwrap();
        assert_eq!(rows[0], vec![Value::Int(2), Value::Bool(false)]);
        assert_eq!(rows[1], vec![Value::Int(4), Value::Bool(true)]);
    }

    #[test]
    fn concat_remaps_both_sides() {
        let db = tiny_db();
        let p = plan(
            PhysOp::Concat {
                outputs: vec![ColId(20)],
                left_cols: vec![ColId(0)],
                right_cols: vec![ColId(3)],
            },
            vec![scan_t0(), scan_t1()],
            vec![int_col(20)],
        );
        let rows = execute(&db, &p).unwrap();
        assert_eq!(rows.len(), 6);
        assert_eq!(rows[0], vec![Value::Int(1)]);
        assert_eq!(rows[4], vec![Value::Null], "right NULL y survives");
    }

    #[test]
    fn distinct_treats_nulls_as_equal() {
        let db = tiny_db();
        let project_b = plan(
            PhysOp::Compute {
                outputs: vec![(ColId(10), Expr::is_null(Expr::col(ColId(1))))],
            },
            vec![scan_t0()],
            vec![int_col(10)],
        );
        let p = plan(PhysOp::HashDistinct, vec![project_b], vec![int_col(10)]);
        let rows = execute(&db, &p).unwrap();
        assert_eq!(rows.len(), 2); // true / false
    }

    #[test]
    fn sort_orders_with_nulls_first_and_desc() {
        let db = tiny_db();
        let p = plan(
            PhysOp::SortOp {
                keys: vec![SortKey::asc(ColId(3))],
            },
            vec![scan_t1()],
            vec![int_col(2), int_col(3)],
        );
        let rows = execute(&db, &p).unwrap();
        assert!(rows[0][1].is_null(), "NULLS FIRST ascending");
        assert_eq!(rows[1][1], Value::Int(10));

        let p = plan(
            PhysOp::SortOp {
                keys: vec![SortKey::desc(ColId(3))],
            },
            vec![scan_t1()],
            vec![int_col(2), int_col(3)],
        );
        let rows = execute(&db, &p).unwrap();
        assert_eq!(rows[0][1], Value::Int(40));
        assert!(rows[2][1].is_null(), "NULLS LAST descending");
    }

    #[test]
    fn top_n_takes_smallest_under_keys() {
        let db = tiny_db();
        let p = plan(
            PhysOp::TopN {
                n: 2,
                keys: vec![SortKey::desc(ColId(2))],
            },
            vec![scan_t1()],
            vec![int_col(2), int_col(3)],
        );
        let rows = execute(&db, &p).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0][0], Value::Int(4));
        assert_eq!(rows[1][0], Value::Int(2));
    }

    #[test]
    fn top_n_larger_than_input_keeps_all() {
        let db = tiny_db();
        let p = plan(
            PhysOp::TopN {
                n: 99,
                keys: vec![SortKey::asc(ColId(2))],
            },
            vec![scan_t1()],
            vec![int_col(2), int_col(3)],
        );
        assert_eq!(execute(&db, &p).unwrap().len(), 3);
    }
}

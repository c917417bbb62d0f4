//! Aggregation operators: hash aggregate and (sort-based) stream aggregate.
//!
//! SQL grouping semantics: NULL group keys compare equal (one NULL group);
//! a *scalar* aggregate (no GROUP BY) emits exactly one row even over empty
//! input; a grouped aggregate over empty input emits nothing.
//!
//! Hash and scalar aggregation fold their input as it is pulled; stream
//! aggregation sorts it first and so materialises the row handles.

use crate::context::{
    charged, open as open_child, position, schema_ids, Ctx, Need, Opened, RowRef, NONE,
};
use ruletest_common::{Error, Result, Row, Value, WordBuild, WordHasher};
use ruletest_expr::AggAccumulator;
use ruletest_optimizer::{PhysOp, PhysicalPlan};
use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

/// One group: its key values and one accumulator per aggregate call.
struct Group {
    key: Vec<Value>,
    accs: Vec<AggAccumulator>,
}

/// Opens an aggregate, asking its input for the grouping and argument
/// columns only.
pub(crate) fn open<'a>(ctx: &'a Ctx<'a>, plan: &'a PhysicalPlan) -> Result<Opened<'a>> {
    let (group_by, aggs, sort_based) = match &plan.op {
        PhysOp::HashAgg { group_by, aggs } => (group_by, aggs, false),
        PhysOp::StreamAgg { group_by, aggs } => (group_by, aggs, true),
        other => {
            return Err(Error::internal(format!(
                "aggregate executor got {}",
                other.name()
            )))
        }
    };
    let reads: Need = group_by
        .iter()
        .copied()
        .chain(aggs.iter().filter_map(|a| a.arg))
        .collect();
    let (input, layout) = open_child(ctx, &plan.children[0], &reads)?;
    let input = charged(ctx, input);
    ctx.charge(1)?;
    let key_positions: Vec<usize> = group_by.iter().map(|&c| position(&layout, c)).collect();
    let arg_positions: Vec<Option<usize>> = aggs
        .iter()
        .map(|a| a.arg.map(|c| position(&layout, c)))
        .collect();

    let fresh = |key: Vec<Value>| Group {
        key,
        accs: aggs.iter().map(|a| AggAccumulator::new(a.func)).collect(),
    };
    let key_of = |row: &[Value]| key_positions.iter().map(|&p| row[p].clone()).collect();
    // SQL GROUP BY treats NULLs as equal — Value's Eq does too.
    let same_key = |key: &[Value], row: &[Value]| {
        let of_row = key_positions.iter().map(|&p| &row[p]);
        of_row.eq(key)
    };
    let feed = |group: &mut Group, row: &[Value]| {
        for ((acc, call), arg) in group.accs.iter_mut().zip(aggs).zip(&arg_positions) {
            match arg {
                Some(p) => acc.update(call.func, &row[*p]),
                None => acc.update(call.func, &Value::Bool(true)), // COUNT(*): any non-null marker
            }
        }
    };

    let mut groups: Vec<Group> = Vec::new();
    if group_by.is_empty() {
        // Scalar aggregation: exactly one output row, always.
        let mut group = fresh(vec![]);
        for row in input {
            feed(&mut group, &row?);
        }
        groups.push(group);
    } else if sort_based {
        // Stream aggregation sorts its input by the grouping key first —
        // the cost model charges it for exactly this sort.
        let mut rows: Vec<RowRef<'a>> = input.collect::<Result<_>>()?;
        rows.sort_by(|a, b| {
            key_positions
                .iter()
                .map(|&p| a[p].total_cmp(&b[p]))
                .find(|c| c.is_ne())
                .unwrap_or(Ordering::Equal)
        });
        for row in &rows {
            match groups.last_mut() {
                Some(group) if same_key(&group.key, row) => feed(group, row),
                _ => {
                    let mut group = fresh(key_of(row));
                    feed(&mut group, row);
                    groups.push(group);
                }
            }
        }
    } else {
        // Hash aggregation; groups are emitted in first-occurrence order.
        // Groups whose keys hash alike are chained: `heads` holds the
        // newest group per key hash, `next[g]` the one before `g`.
        let mut heads: HashMap<u64, usize, WordBuild> = HashMap::default();
        let mut next: Vec<usize> = Vec::new();
        for row in input {
            let row = row?;
            let mut h = WordHasher::default();
            key_positions.iter().for_each(|&p| row[p].hash(&mut h));
            let head = heads.entry(h.finish()).or_insert(NONE);
            let mut g = *head;
            while g != NONE && !same_key(&groups[g].key, &row) {
                g = next[g];
            }
            if g == NONE {
                g = groups.len();
                next.push(*head);
                *head = g;
                groups.push(fresh(key_of(&row)));
            }
            feed(&mut groups[g], &row);
        }
    }
    let rows = groups.into_iter().map(move |group| {
        ctx.charge(1)?;
        let mut row: Row = group.key;
        row.extend(group.accs.into_iter().map(AggAccumulator::finish));
        Ok(Cow::Owned(row))
    });
    Ok((Box::new(rows), schema_ids(plan)))
}

#[cfg(test)]
mod tests {
    use crate::context::execute;
    use crate::context::testkit::*;
    use ruletest_common::{multisets_equal, ColId, Value};
    use ruletest_expr::{AggCall, AggFunc};
    use ruletest_optimizer::PhysOp;

    fn agg_plan(
        hash: bool,
        group_by: Vec<ColId>,
        aggs: Vec<AggCall>,
    ) -> ruletest_optimizer::PhysicalPlan {
        let mut schema: Vec<_> = group_by.iter().map(|c| int_col(c.0)).collect();
        schema.extend(aggs.iter().map(|a| int_col(a.output.0)));
        let op = if hash {
            PhysOp::HashAgg { group_by, aggs }
        } else {
            PhysOp::StreamAgg { group_by, aggs }
        };
        plan(op, vec![scan_t1()], schema)
    }

    // t1 rows: (1,10), (2,NULL), (4,40)

    #[test]
    fn scalar_aggregate_over_rows() {
        let db = tiny_db();
        for hash in [true, false] {
            let p = agg_plan(
                hash,
                vec![],
                vec![
                    AggCall::new(AggFunc::CountStar, None, ColId(10)),
                    AggCall::new(AggFunc::Count, Some(ColId(3)), ColId(11)),
                    AggCall::new(AggFunc::Sum, Some(ColId(3)), ColId(12)),
                    AggCall::new(AggFunc::Min, Some(ColId(2)), ColId(13)),
                    AggCall::new(AggFunc::Max, Some(ColId(2)), ColId(14)),
                ],
            );
            let rows = execute(&db, &p).unwrap();
            assert_eq!(
                rows,
                vec![vec![
                    Value::Int(3),
                    Value::Int(2),
                    Value::Int(50),
                    Value::Int(1),
                    Value::Int(4),
                ]]
            );
        }
    }

    #[test]
    fn scalar_aggregate_over_empty_input_emits_one_row() {
        let db = tiny_db();
        // Filter everything out first.
        let filter = plan(
            PhysOp::Filter {
                predicate: ruletest_expr::Expr::lit(false),
            },
            vec![scan_t1()],
            vec![int_col(2), int_col(3)],
        );
        let p = plan(
            PhysOp::HashAgg {
                group_by: vec![],
                aggs: vec![
                    AggCall::new(AggFunc::CountStar, None, ColId(10)),
                    AggCall::new(AggFunc::Sum, Some(ColId(3)), ColId(11)),
                ],
            },
            vec![filter],
            vec![int_col(10), int_col(11)],
        );
        let rows = execute(&db, &p).unwrap();
        assert_eq!(rows, vec![vec![Value::Int(0), Value::Null]]);
    }

    #[test]
    fn grouped_aggregate_hash_and_stream_agree() {
        let db = tiny_db();
        // Group t1 by y (values 10, NULL, 40): three groups incl. the NULL
        // group.
        let mk = |hash| {
            agg_plan(
                hash,
                vec![ColId(3)],
                vec![AggCall::new(AggFunc::CountStar, None, ColId(10))],
            )
        };
        let h = execute(&db, &mk(true)).unwrap();
        let s = execute(&db, &mk(false)).unwrap();
        assert_eq!(h.len(), 3);
        assert!(multisets_equal(&h, &s));
        assert!(h.iter().any(|r| r[0].is_null() && r[1] == Value::Int(1)));
    }

    #[test]
    fn grouped_aggregate_over_empty_input_emits_nothing() {
        let db = tiny_db();
        let filter = plan(
            PhysOp::Filter {
                predicate: ruletest_expr::Expr::lit(false),
            },
            vec![scan_t1()],
            vec![int_col(2), int_col(3)],
        );
        let p = plan(
            PhysOp::StreamAgg {
                group_by: vec![ColId(2)],
                aggs: vec![AggCall::new(AggFunc::CountStar, None, ColId(10))],
            },
            vec![filter],
            vec![int_col(2), int_col(10)],
        );
        assert!(execute(&db, &p).unwrap().is_empty());
    }
}

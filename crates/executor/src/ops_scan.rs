//! Base-table access operators: sequential scan and primary-key index seek.
//! Both hand out rows borrowed from the table; neither copies one.

use crate::context::{bind, eval_at, is_true, schema_ids, Ctx, Opened};
use ruletest_common::{Error, Result};
use ruletest_optimizer::{PhysOp, PhysicalPlan};
use std::borrow::Cow;

/// Opens a scan; its rows are the stored rows, so its layout is its whole
/// schema whatever the parent reads.
pub(crate) fn open<'a>(ctx: &'a Ctx<'a>, plan: &'a PhysicalPlan) -> Result<Opened<'a>> {
    let layout = schema_ids(plan);
    match &plan.op {
        PhysOp::SeqScan { table, .. } => {
            let t = ctx.db.table(*table)?;
            ctx.charge(t.rows.len() as u64)?;
            let rows = t.rows.iter().map(|row| Ok(Cow::Borrowed(row.as_slice())));
            Ok((Box::new(rows), layout))
        }
        PhysOp::IndexSeek {
            table,
            key,
            residual,
            ..
        } => {
            let t = ctx.db.table(*table)?;
            let residual = bind(residual, &layout);
            let hits = t.pk_lookup(std::slice::from_ref(key)).iter();
            let rows = hits.filter_map(move |&off| {
                if let Err(e) = ctx.charge(1) {
                    return Some(Err(e));
                }
                let row = t.rows[off].as_slice();
                is_true(&eval_at(&residual, row)).then_some(Ok(Cow::Borrowed(row)))
            });
            Ok((Box::new(rows), layout))
        }
        other => Err(Error::internal(format!(
            "scan executor got {}",
            other.name()
        ))),
    }
}

#[cfg(test)]
mod tests {
    use crate::context::execute;
    use crate::context::testkit::*;
    use ruletest_common::{ColId, TableId, Value};
    use ruletest_expr::{BinOp, Expr};
    use ruletest_optimizer::PhysOp;

    #[test]
    fn index_seek_finds_by_key() {
        let db = tiny_db();
        let p = plan(
            PhysOp::IndexSeek {
                table: TableId(0),
                cols: vec![ColId(0), ColId(1)],
                key: Value::Int(2),
                residual: Expr::true_lit(),
            },
            vec![],
            vec![int_col(0), str_col(1)],
        );
        let rows = execute(&db, &p).unwrap();
        assert_eq!(rows, vec![vec![Value::Int(2), Value::Null]]);
    }

    #[test]
    fn index_seek_misses_cleanly() {
        let db = tiny_db();
        let p = plan(
            PhysOp::IndexSeek {
                table: TableId(0),
                cols: vec![ColId(0), ColId(1)],
                key: Value::Int(99),
                residual: Expr::true_lit(),
            },
            vec![],
            vec![int_col(0), str_col(1)],
        );
        assert!(execute(&db, &p).unwrap().is_empty());
    }

    #[test]
    fn index_seek_applies_residual() {
        let db = tiny_db();
        let p = plan(
            PhysOp::IndexSeek {
                table: TableId(0),
                cols: vec![ColId(0), ColId(1)],
                key: Value::Int(2),
                // b IS NULL holds for the row with a=2 -> NOT NULL rejects it
                residual: Expr::bin(BinOp::Eq, Expr::col(ColId(1)), Expr::lit("one")),
            },
            vec![],
            vec![int_col(0), str_col(1)],
        );
        assert!(execute(&db, &p).unwrap().is_empty());
    }
}

//! Cardinality estimation and the cost model.
//!
//! Estimates are deliberately simple, deterministic functions of the
//! operator and its children's estimates. Two properties matter for the
//! testing framework (and are property-tested):
//!
//! 1. **Determinism** — the same physical tree always gets the same cost,
//!    regardless of which rule mask produced it.
//! 2. **Monotonicity under masking** — since disabling rules only removes
//!    alternatives from the search space, and a tree's cost is computed
//!    from the tree alone, `Cost(q) <= Cost(q, ¬R)` (the invariant behind
//!    the paper's factor-2 proof in §5.2 and the pruning in §5.3.1).

use crate::physical::PhysOp;
use ruletest_expr::{conjuncts, try_col_eq_col, BinOp, Expr};
use ruletest_logical::{JoinKind, Operator, Schema};
use ruletest_storage::Database;

/// Heuristic selectivity of a predicate (no per-column histograms; fixed
/// factors per conjunct shape, floored to stay positive).
pub fn selectivity(pred: &Expr) -> f64 {
    let parts = conjuncts(pred);
    if parts.is_empty() {
        return 1.0;
    }
    let s: f64 = parts.iter().map(conjunct_selectivity).product();
    s.max(1e-3)
}

fn conjunct_selectivity(e: &Expr) -> f64 {
    match e {
        Expr::Lit(v) => match v {
            ruletest_common::Value::Bool(true) => 1.0,
            ruletest_common::Value::Bool(false) => 1e-3,
            _ => 0.5,
        },
        Expr::Col(_) => 0.5,
        Expr::IsNull(_) => 0.1,
        Expr::Not(inner) => (1.0 - conjunct_selectivity(inner)).max(1e-3),
        Expr::Bin { op, left, right } => match op {
            BinOp::Eq => {
                if try_col_eq_col(e).is_some() {
                    0.2
                } else if matches!(left.as_ref(), Expr::Col(_))
                    || matches!(right.as_ref(), Expr::Col(_))
                {
                    0.1
                } else {
                    0.3
                }
            }
            BinOp::Ne => 0.9,
            BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => 0.33,
            BinOp::And => conjunct_selectivity(left) * conjunct_selectivity(right),
            BinOp::Or => {
                let a = conjunct_selectivity(left);
                let b = conjunct_selectivity(right);
                (a + b - a * b).min(1.0)
            }
            _ => 0.25,
        },
    }
}

/// Splits a join predicate into cross-side equi conjuncts and the rest,
/// given the set of left-side column ids.
pub fn split_equi_conjuncts(
    pred: &Expr,
    left: &Schema,
    right: &Schema,
) -> (
    Vec<(ruletest_common::ColId, ruletest_common::ColId)>,
    Vec<Expr>,
) {
    let in_left = |c: ruletest_common::ColId| left.iter().any(|ci| ci.id == c);
    let in_right = |c: ruletest_common::ColId| right.iter().any(|ci| ci.id == c);
    let mut keys = Vec::new();
    let mut rest = Vec::new();
    for part in conjuncts(pred) {
        match try_col_eq_col(&part) {
            Some((a, b)) if in_left(a) && in_right(b) => keys.push((a, b)),
            Some((a, b)) if in_right(a) && in_left(b) => keys.push((b, a)),
            _ => rest.push(part),
        }
    }
    (keys, rest)
}

/// Estimated output rows of a join, from its kind, predicate, and input
/// estimates.
pub fn join_rows(
    kind: JoinKind,
    pred: &Expr,
    left: &Schema,
    right: &Schema,
    l: f64,
    r: f64,
) -> f64 {
    let (keys, rest) = split_equi_conjuncts(pred, left, right);
    let inner = if keys.is_empty() {
        (l * r * selectivity(pred)).max(1.0)
    } else {
        // First equi key joins roughly FK-style; extra conjuncts filter.
        let base = l.max(r);
        let extra = 0.7f64.powi((keys.len() - 1) as i32)
            * rest
                .iter()
                .map(conjunct_selectivity)
                .product::<f64>()
                .max(1e-3);
        (base * extra).max(1.0)
    };
    match kind {
        JoinKind::Inner => inner,
        JoinKind::LeftOuter => inner.max(l),
        JoinKind::RightOuter => inner.max(r),
        JoinKind::FullOuter => inner.max(l).max(r),
        JoinKind::LeftSemi => (l * 0.5).max(1.0),
        JoinKind::LeftAnti => (l * 0.5).max(1.0),
    }
}

/// Estimated output rows of a logical operator.
pub fn estimate_rows(db: &Database, op: &Operator, children: &[&Schema], rows: &[f64]) -> f64 {
    match op {
        Operator::Get { table, .. } => db
            .stats(*table)
            .map(|s| s.row_count as f64)
            .unwrap_or(1000.0),
        Operator::Select { predicate } => (rows[0] * selectivity(predicate)).max(1.0),
        Operator::Project { .. } => rows[0],
        Operator::Join { kind, predicate } => {
            join_rows(*kind, predicate, children[0], children[1], rows[0], rows[1])
        }
        Operator::GbAgg { group_by, .. } => {
            if group_by.is_empty() {
                1.0
            } else {
                rows[0].powf(0.75).max(1.0)
            }
        }
        Operator::UnionAll { .. } => rows[0] + rows[1],
        Operator::Distinct => (rows[0] * 0.6).max(1.0),
        Operator::Sort { .. } => rows[0],
        Operator::Top { n, .. } => (*n as f64).min(rows[0]).max(1.0),
    }
}

fn log2(x: f64) -> f64 {
    x.max(2.0).log2()
}

/// Total cost of a physical node given its children's total costs.
///
/// Nested-loops re-scans its inner side once per outer row — the classic
/// `cost(outer) + |outer| * cost(inner)` — which is what makes disabling
/// the hash-join rule genuinely expensive (§4.1's observation that
/// `Cost(q, ¬r)` can far exceed `Cost(q)`).
pub fn phys_cost(op: &PhysOp, child_rows: &[f64], child_costs: &[f64], out_rows: f64) -> f64 {
    let own = match op {
        PhysOp::SeqScan { .. } => out_rows,
        PhysOp::IndexSeek { .. } => 4.0 + out_rows,
        PhysOp::Filter { .. } => child_rows[0] * 0.1,
        PhysOp::Compute { .. } => child_rows[0] * 0.1,
        PhysOp::NLJoin { .. } => child_rows[0] * child_rows[1] * 0.2 + out_rows * 0.05,
        PhysOp::HashJoin { .. } => child_rows[1] * 2.0 + child_rows[0] * 1.2 + out_rows * 0.05,
        PhysOp::MergeJoin { .. } => {
            child_rows[0] * log2(child_rows[0]) * 0.3
                + child_rows[1] * log2(child_rows[1]) * 0.3
                + (child_rows[0] + child_rows[1]) * 0.5
        }
        PhysOp::HashAgg { .. } => child_rows[0] * 2.0,
        PhysOp::StreamAgg { .. } => child_rows[0] * log2(child_rows[0]) * 0.3 + child_rows[0] * 0.5,
        PhysOp::Concat { .. } => (child_rows[0] + child_rows[1]) * 0.05,
        PhysOp::HashDistinct => child_rows[0] * 1.5,
        PhysOp::SortOp { .. } => child_rows[0] * log2(child_rows[0]) * 0.3,
        PhysOp::TopN { n, .. } => child_rows[0] * log2(*n as f64 + 2.0) * 0.2,
    };
    let children: f64 = match op {
        PhysOp::NLJoin { .. } => child_costs[0] + child_rows[0].max(1.0) * child_costs[1],
        _ => child_costs.iter().sum(),
    };
    own + children
}

#[cfg(test)]
mod tests {
    use super::*;
    use ruletest_common::ColId;
    use ruletest_logical::ColumnInfo;
    use ruletest_storage::{tpch_database, TpchConfig};

    fn schema(ids: &[u32]) -> Schema {
        ids.iter()
            .map(|&i| ColumnInfo {
                id: ColId(i),
                data_type: ruletest_common::DataType::Int,
                nullable: false,
            })
            .collect()
    }

    #[test]
    fn selectivity_bounds() {
        let eq = Expr::eq(Expr::col(ColId(0)), Expr::lit(5i64));
        assert!(selectivity(&eq) > 0.0 && selectivity(&eq) < 1.0);
        assert_eq!(selectivity(&Expr::true_lit()), 1.0);
        let multi = Expr::and(eq.clone(), eq.clone());
        assert!(selectivity(&multi) <= selectivity(&eq));
        assert!(selectivity(&Expr::lit(false)) >= 1e-3);
    }

    #[test]
    fn equi_split_normalizes_sides() {
        let left = schema(&[1, 2]);
        let right = schema(&[3, 4]);
        // c3 = c1 is written right-to-left; split must normalize.
        let pred = Expr::and(
            Expr::eq(Expr::col(ColId(3)), Expr::col(ColId(1))),
            Expr::bin(BinOp::Lt, Expr::col(ColId(2)), Expr::lit(9i64)),
        );
        let (keys, rest) = split_equi_conjuncts(&pred, &left, &right);
        assert_eq!(keys, vec![(ColId(1), ColId(3))]);
        assert_eq!(rest.len(), 1);
    }

    #[test]
    fn same_side_equality_is_not_a_join_key() {
        let left = schema(&[1, 2]);
        let right = schema(&[3]);
        let pred = Expr::eq(Expr::col(ColId(1)), Expr::col(ColId(2)));
        let (keys, rest) = split_equi_conjuncts(&pred, &left, &right);
        assert!(keys.is_empty());
        assert_eq!(rest.len(), 1);
    }

    #[test]
    fn join_rows_cross_vs_equi() {
        let left = schema(&[1]);
        let right = schema(&[2]);
        let cross = join_rows(
            JoinKind::Inner,
            &Expr::true_lit(),
            &left,
            &right,
            100.0,
            50.0,
        );
        assert_eq!(cross, 5000.0);
        let equi = join_rows(
            JoinKind::Inner,
            &Expr::eq(Expr::col(ColId(1)), Expr::col(ColId(2))),
            &left,
            &right,
            100.0,
            50.0,
        );
        assert!(equi < cross);
        let outer = join_rows(
            JoinKind::LeftOuter,
            &Expr::eq(Expr::col(ColId(1)), Expr::col(ColId(2))),
            &left,
            &right,
            100.0,
            50.0,
        );
        assert!(outer >= 100.0, "outer join preserves the left side");
    }

    #[test]
    fn nl_join_costs_more_than_hash_on_large_inputs() {
        let nl = PhysOp::NLJoin {
            kind: JoinKind::Inner,
            predicate: Expr::true_lit(),
        };
        let hash = PhysOp::HashJoin {
            kind: JoinKind::Inner,
            left_keys: vec![ColId(1)],
            right_keys: vec![ColId(2)],
            residual: Expr::true_lit(),
        };
        let nl_cost = phys_cost(&nl, &[1000.0, 1000.0], &[1000.0, 1000.0], 1000.0);
        let hash_cost = phys_cost(&hash, &[1000.0, 1000.0], &[1000.0, 1000.0], 1000.0);
        assert!(nl_cost > 10.0 * hash_cost);
    }

    #[test]
    fn estimate_rows_uses_table_stats() {
        let db = tpch_database(&TpchConfig::default()).unwrap();
        let op = Operator::Get {
            table: ruletest_common::TableId(0),
            cols: vec![],
        };
        let est = estimate_rows(&db, &op, &[], &[]);
        assert_eq!(est, TpchConfig::default().regions as f64);
    }

    #[test]
    fn scalar_agg_estimates_one_row() {
        let db = tpch_database(&TpchConfig::default()).unwrap();
        let scalar = Operator::GbAgg {
            group_by: vec![],
            aggs: vec![],
        };
        let s = schema(&[1]);
        assert_eq!(estimate_rows(&db, &scalar, &[&s], &[500.0]), 1.0);
        let grouped = Operator::GbAgg {
            group_by: vec![ColId(1)],
            aggs: vec![],
        };
        let g = estimate_rows(&db, &grouped, &[&s], &[500.0]);
        assert!(g > 1.0 && g < 500.0);
    }

    #[test]
    fn costs_are_positive_and_include_children() {
        let filter = PhysOp::Filter {
            predicate: Expr::true_lit(),
        };
        let c = phys_cost(&filter, &[100.0], &[250.0], 100.0);
        assert!(c > 250.0);
    }
}

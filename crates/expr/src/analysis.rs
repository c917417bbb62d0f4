//! Expression analyses used by transformation-rule preconditions.
//!
//! These are the load-bearing pieces behind the paper's observation that a
//! rule's *pattern* is necessary but not sufficient (§3): the sufficient
//! conditions live here — which side of a join a conjunct references,
//! whether a predicate rejects NULLs, whether a projection can absorb a
//! predicate, and so on.

use crate::expr::{BinOp, Expr, SubExpr};
use ruletest_common::ColId;
use std::collections::{BTreeSet, HashMap};
use std::hash::BuildHasher;

/// True iff `f` holds for every column reference of `expr`, visited left
/// to right; stops at the first that fails. The one column walk: no set is
/// built.
pub fn every_column(expr: &Expr, f: &mut impl FnMut(ColId) -> bool) -> bool {
    match expr {
        Expr::Col(c) => f(*c),
        Expr::Lit(_) => true,
        Expr::Bin { left, right, .. } => every_column(left, f) && every_column(right, f),
        Expr::Not(e) | Expr::IsNull(e) => every_column(e, f),
    }
}

/// Collects all column ids referenced by `expr` into `out`.
pub fn collect_columns(expr: &Expr, out: &mut BTreeSet<ColId>) {
    every_column(expr, &mut |c| {
        out.insert(c);
        true
    });
}

/// The set of column ids referenced by `expr`.
pub fn columns_of(expr: &Expr) -> BTreeSet<ColId> {
    let mut out = BTreeSet::new();
    collect_columns(expr, &mut out);
    out
}

/// Splits a predicate into its top-level AND conjuncts. The literal TRUE
/// contributes no conjuncts.
///
/// ```
/// use ruletest_common::ColId;
/// use ruletest_expr::{conjuncts, Expr};
/// let p = Expr::and(
///     Expr::eq(Expr::col(ColId(1)), Expr::lit(1i64)),
///     Expr::eq(Expr::col(ColId(2)), Expr::lit(2i64)),
/// );
/// assert_eq!(conjuncts(&p).len(), 2);
/// assert!(conjuncts(&Expr::true_lit()).is_empty());
/// ```
pub fn conjuncts(expr: &Expr) -> Vec<Expr> {
    let mut out = Vec::new();
    for_each_conjunct(expr, &mut |c| out.push(c.clone()));
    out
}

/// Hands `f` each conjunct [`conjuncts`] would list, in its order, without
/// collecting them.
pub fn for_each_conjunct<'e>(expr: &'e Expr, f: &mut impl FnMut(&'e Expr)) {
    match expr {
        Expr::Bin {
            op: BinOp::And,
            left,
            right,
        } => {
            for_each_conjunct(left, f);
            for_each_conjunct(right, f);
        }
        _ if expr.is_true_lit() => {}
        other => f(other),
    }
}

/// Reassembles conjuncts into a single predicate (empty list -> TRUE).
pub fn conjoin(parts: Vec<Expr>) -> Expr {
    let mut iter = parts.into_iter();
    match iter.next() {
        None => Expr::true_lit(),
        Some(first) => iter.fold(first, Expr::and),
    }
}

/// If `expr` is a simple equality between two distinct column refs, returns
/// the pair. Used to detect equi-join conjuncts for hash/merge join rules.
pub fn try_col_eq_col(expr: &Expr) -> Option<(ColId, ColId)> {
    if let Expr::Bin {
        op: BinOp::Eq,
        left,
        right,
    } = expr
    {
        if let (Expr::Col(a), Expr::Col(b)) = (left.as_ref(), right.as_ref()) {
            if a != b {
                return Some((*a, *b));
            }
        }
    }
    None
}

/// `expr` with each column reference `c` replaced by `to(c)`, or kept where
/// that is `None`. Every subtree in which no column changed is the input's
/// own: with nothing changed, the operands are pointer-equal to `expr`'s.
pub fn rewrite_columns(expr: &Expr, to: &mut impl FnMut(ColId) -> Option<Expr>) -> Expr {
    changed_columns(expr, to).unwrap_or_else(|| expr.clone())
}

/// What [`rewrite_columns`] makes of `expr`, or `None` where that is
/// structurally `expr` itself.
fn changed_columns(expr: &Expr, to: &mut impl FnMut(ColId) -> Option<Expr>) -> Option<Expr> {
    match expr {
        Expr::Col(c) => to(*c).filter(|e| *e != Expr::Col(*c)),
        Expr::Lit(_) => None,
        Expr::Bin { op, left, right } => {
            let (l, r) = (changed_columns(left, to), changed_columns(right, to));
            if l.is_none() && r.is_none() {
                return None;
            }
            let operand =
                |new: Option<Expr>, old: &SubExpr| new.map_or_else(|| old.clone(), SubExpr::new);
            Some(Expr::Bin {
                op: *op,
                left: operand(l, left),
                right: operand(r, right),
            })
        }
        Expr::Not(e) => changed_columns(e, to).map(Expr::not),
        Expr::IsNull(e) => changed_columns(e, to).map(Expr::is_null),
    }
}

/// Rewrites column references according to `map` (unmapped columns are left
/// unchanged), sharing what does not change (see [`rewrite_columns`]).
pub fn remap_columns<S: BuildHasher>(expr: &Expr, map: &HashMap<ColId, ColId, S>) -> Expr {
    rewrite_columns(expr, &mut |c| map.get(&c).map(|&to| Expr::Col(to)))
}

/// Substitutes whole expressions for column references (used to push a
/// predicate through a computing projection, and to merge projections),
/// sharing what does not change (see [`rewrite_columns`]).
pub fn substitute<S: BuildHasher>(expr: &Expr, map: &HashMap<ColId, Expr, S>) -> Expr {
    rewrite_columns(expr, &mut |c| map.get(&c).cloned())
}

/// True iff `expr` evaluates to NULL whenever column `col` is NULL
/// (strict null propagation).
fn strictly_propagates_null(expr: &Expr, col: ColId) -> bool {
    match expr {
        Expr::Col(c) => *c == col,
        Expr::Lit(_) => false,
        Expr::Bin { op, left, right } => {
            if op.is_logical() {
                // Kleene AND/OR can absorb NULL (FALSE AND NULL = FALSE).
                false
            } else {
                strictly_propagates_null(left, col) || strictly_propagates_null(right, col)
            }
        }
        Expr::Not(e) => strictly_propagates_null(e, col),
        Expr::IsNull(_) => false,
    }
}

/// Conservative syntactic test: does the predicate reject rows where *any*
/// of `cols` is NULL? (i.e. the predicate cannot evaluate to TRUE then).
///
/// This is the precondition of the outer-join-to-inner-join rule: a
/// null-rejecting predicate above a left outer join on the null-supplying
/// side's columns makes the outer join equivalent to an inner join.
pub fn is_null_rejecting(expr: &Expr, cols: &BTreeSet<ColId>) -> bool {
    cols.iter().any(|&c| rejects_null_on(expr, c))
}

fn rejects_null_on(expr: &Expr, col: ColId) -> bool {
    match expr {
        // A strict expression that is NULL is not TRUE, so the filter drops
        // the row.
        Expr::Bin { op, left, right } if op.is_comparison() => {
            strictly_propagates_null(left, col) || strictly_propagates_null(right, col)
        }
        Expr::Bin {
            op: BinOp::And,
            left,
            right,
        } => rejects_null_on(left, col) || rejects_null_on(right, col),
        Expr::Bin {
            op: BinOp::Or,
            left,
            right,
        } => rejects_null_on(left, col) && rejects_null_on(right, col),
        // NOT(e) is TRUE iff e is FALSE; if e is strict on col, NULL col
        // makes e NULL, so NOT e is NULL -> rejected.
        Expr::Not(e) => match e.as_ref() {
            Expr::Bin { op, left, right } if op.is_comparison() => {
                strictly_propagates_null(left, col) || strictly_propagates_null(right, col)
            }
            // NOT (x IS NULL) rejects NULL x.
            Expr::IsNull(inner) => matches!(inner.as_ref(), Expr::Col(c) if *c == col),
            _ => false,
        },
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::eval;
    use ruletest_common::Value;

    fn c(i: u32) -> ColId {
        ColId(i)
    }

    #[test]
    fn columns_collects_all_refs() {
        let e = Expr::and(
            Expr::eq(Expr::col(c(1)), Expr::col(c(2))),
            Expr::is_null(Expr::col(c(3))),
        );
        let cols = columns_of(&e);
        assert_eq!(cols, BTreeSet::from([c(1), c(2), c(3)]));
    }

    #[test]
    fn conjuncts_roundtrip_through_conjoin() {
        let e = Expr::and(
            Expr::and(
                Expr::eq(Expr::col(c(1)), Expr::lit(1i64)),
                Expr::eq(Expr::col(c(2)), Expr::lit(2i64)),
            ),
            Expr::eq(Expr::col(c(3)), Expr::lit(3i64)),
        );
        let parts = conjuncts(&e);
        assert_eq!(parts.len(), 3);
        let back = conjoin(parts);
        // Same truth value under any binding (associativity only).
        for v in [Value::Int(1), Value::Int(2), Value::Null] {
            let mut g1 = |_id: ColId| v.clone();
            let mut g2 = |_id: ColId| v.clone();
            assert_eq!(eval(&e, &mut g1), eval(&back, &mut g2));
        }
    }

    #[test]
    fn conjuncts_of_true_is_empty() {
        assert!(conjuncts(&Expr::true_lit()).is_empty());
        assert!(conjoin(vec![]).is_true_lit());
    }

    #[test]
    fn col_eq_col_detection() {
        assert_eq!(
            try_col_eq_col(&Expr::eq(Expr::col(c(1)), Expr::col(c(2)))),
            Some((c(1), c(2)))
        );
        assert_eq!(
            try_col_eq_col(&Expr::eq(Expr::col(c(1)), Expr::lit(5i64))),
            None
        );
        assert_eq!(
            try_col_eq_col(&Expr::eq(Expr::col(c(1)), Expr::col(c(1)))),
            None
        );
    }

    #[test]
    fn remap_rewrites_only_mapped() {
        let e = Expr::eq(Expr::col(c(1)), Expr::col(c(2)));
        let map = HashMap::from([(c(1), c(10))]);
        assert_eq!(
            remap_columns(&e, &map),
            Expr::eq(Expr::col(c(10)), Expr::col(c(2)))
        );
    }

    #[test]
    fn substitute_expands_computed_columns() {
        let e = Expr::eq(Expr::col(c(5)), Expr::lit(7i64));
        let map = HashMap::from([(
            c(5),
            Expr::bin(BinOp::Add, Expr::col(c(1)), Expr::col(c(2))),
        )]);
        let sub = substitute(&e, &map);
        assert_eq!(sub.to_string(), "((c1 + c2) = 7)");
    }

    #[test]
    fn null_rejection_on_comparisons() {
        let cols = BTreeSet::from([c(1)]);
        assert!(is_null_rejecting(
            &Expr::eq(Expr::col(c(1)), Expr::lit(3i64)),
            &cols
        ));
        assert!(is_null_rejecting(
            &Expr::bin(BinOp::Lt, Expr::col(c(2)), Expr::col(c(1))),
            &cols
        ));
        // IS NULL accepts nulls.
        assert!(!is_null_rejecting(&Expr::is_null(Expr::col(c(1))), &cols));
        // NOT (c1 IS NULL) rejects.
        assert!(is_null_rejecting(
            &Expr::not(Expr::is_null(Expr::col(c(1)))),
            &cols
        ));
    }

    #[test]
    fn null_rejection_through_and_or() {
        let cols = BTreeSet::from([c(1)]);
        let rej = Expr::eq(Expr::col(c(1)), Expr::lit(3i64));
        let acc = Expr::is_null(Expr::col(c(1)));
        assert!(is_null_rejecting(
            &Expr::and(rej.clone(), acc.clone()),
            &cols
        ));
        assert!(!is_null_rejecting(
            &Expr::or(rej.clone(), acc.clone()),
            &cols
        ));
        assert!(is_null_rejecting(&Expr::or(rej.clone(), rej), &cols));
    }

    #[test]
    fn null_rejection_is_semantically_sound() {
        // For a sample of predicates flagged as null-rejecting on c1,
        // evaluating with c1 = NULL must not yield TRUE.
        let preds = vec![
            Expr::eq(Expr::col(c(1)), Expr::lit(3i64)),
            Expr::and(Expr::eq(Expr::col(c(1)), Expr::col(c(2))), Expr::lit(true)),
            Expr::not(Expr::is_null(Expr::col(c(1)))),
            Expr::bin(
                BinOp::Ge,
                Expr::bin(BinOp::Add, Expr::col(c(1)), Expr::lit(1i64)),
                Expr::lit(0i64),
            ),
        ];
        let cols = BTreeSet::from([c(1)]);
        for p in preds {
            assert!(is_null_rejecting(&p, &cols), "{p}");
            for other in [Value::Int(0), Value::Int(5), Value::Null] {
                let mut get = |id: ColId| {
                    if id == c(1) {
                        Value::Null
                    } else {
                        other.clone()
                    }
                };
                assert_ne!(eval(&p, &mut get), Value::Bool(true), "{p}");
            }
        }
    }

    #[test]
    fn arithmetic_propagates_through_comparison() {
        let cols = BTreeSet::from([c(1)]);
        let p = Expr::eq(
            Expr::bin(BinOp::Mul, Expr::col(c(1)), Expr::lit(2i64)),
            Expr::lit(10i64),
        );
        assert!(is_null_rejecting(&p, &cols));
    }
}

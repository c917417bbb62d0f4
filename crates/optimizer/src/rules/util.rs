//! Shared helpers for rule substitution functions.

use crate::rule::{BoundChild, NewChild};
use ruletest_common::ColId;
use ruletest_expr::Expr;
use std::collections::BTreeSet;

/// Shorthand: a substitute child referencing the group a bound child
/// matched.
pub(crate) fn gref(child: &BoundChild) -> NewChild {
    NewChild::Group(child.group())
}

/// Partitions conjuncts of `pred` into (those referencing only `cols`,
/// the rest).
pub(crate) fn partition_conjuncts(pred: &Expr, cols: &BTreeSet<ColId>) -> (Vec<Expr>, Vec<Expr>) {
    let mut inside = Vec::new();
    let mut rest = Vec::new();
    for c in ruletest_expr::conjuncts(pred) {
        if ruletest_expr::columns_of(&c).is_subset(cols) {
            inside.push(c);
        } else {
            rest.push(c);
        }
    }
    (inside, rest)
}

/// True iff every column of `pred` is in `cols`.
pub(crate) fn pred_within(pred: &Expr, cols: &BTreeSet<ColId>) -> bool {
    ruletest_expr::columns_of(pred).is_subset(cols)
}

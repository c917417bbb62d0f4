//! Selection (filter) transformation rules: merging, splitting, pushdown
//! through every operator that admits it, and outer-join simplification.

use super::util::*;
use crate::pattern::PatternTree;
use crate::rule::{Bound, NewChild, NewTree, Rule, RuleCtx};
use ruletest_expr::{conjoin, conjuncts, is_null_rejecting, Expr};
use ruletest_logical::{JoinKind, OpKind, Operator};
use std::collections::HashMap;

fn any() -> PatternTree {
    PatternTree::Any
}

fn select_op(predicate: Expr) -> Operator {
    Operator::Select { predicate }
}

fn sel_pattern(child: PatternTree) -> PatternTree {
    PatternTree::kind(OpKind::Select, vec![child])
}

/// `σp(σq(x)) -> σ(p AND q)(x)`.
fn select_merge(_ctx: &RuleCtx, b: &Bound) -> Vec<NewTree> {
    let Operator::Select { predicate: p } = &b.op else {
        return vec![];
    };
    let Some(inner) = b.children[0].nested() else {
        return vec![];
    };
    let Operator::Select { predicate: q } = &inner.op else {
        return vec![];
    };
    vec![NewTree::new(
        select_op(Expr::and(p.clone(), q.clone())),
        vec![gref(&inner.children[0])],
    )]
}

/// `σ(c1 AND rest)(x) -> σc1(σrest(x))` — inverse of merge; the memo's
/// global deduplication keeps the pair finite.
fn select_split(_ctx: &RuleCtx, b: &Bound) -> Vec<NewTree> {
    let Operator::Select { predicate } = &b.op else {
        return vec![];
    };
    let parts = conjuncts(predicate);
    if parts.len() < 2 {
        return vec![];
    }
    let first = parts[0].clone();
    let rest = conjoin(parts[1..].to_vec());
    vec![NewTree::new(
        select_op(first),
        vec![NewChild::Tree(NewTree::new(
            select_op(rest),
            vec![gref(&b.children[0])],
        ))],
    )]
}

/// `σp(A JOIN B)`: conjuncts over only A go below the left input, over only
/// B below the right, the remainder stays above (inner joins).
fn select_push_below_inner_join(ctx: &RuleCtx, b: &Bound) -> Vec<NewTree> {
    let Operator::Select { predicate } = &b.op else {
        return vec![];
    };
    let Some(join) = b.children[0].nested() else {
        return vec![];
    };
    let Operator::Join {
        kind,
        predicate: jp,
    } = &join.op
    else {
        return vec![];
    };
    debug_assert_eq!(*kind, JoinKind::Inner);
    let left_cols = ctx.cols(join.children[0].group());
    let right_cols = ctx.cols(join.children[1].group());
    let (to_left, rest) = partition_conjuncts(predicate, left_cols);
    let (to_right, keep) = {
        let (tr, kp): (Vec<Expr>, Vec<Expr>) =
            rest.into_iter().partition(|c| pred_within(c, right_cols));
        (tr, kp)
    };
    if to_left.is_empty() && to_right.is_empty() {
        return vec![];
    }
    let left_child = if to_left.is_empty() {
        gref(&join.children[0])
    } else {
        NewChild::Tree(NewTree::new(
            select_op(conjoin(to_left)),
            vec![gref(&join.children[0])],
        ))
    };
    let right_child = if to_right.is_empty() {
        gref(&join.children[1])
    } else {
        NewChild::Tree(NewTree::new(
            select_op(conjoin(to_right)),
            vec![gref(&join.children[1])],
        ))
    };
    let new_join = NewTree::new(
        Operator::Join {
            kind: JoinKind::Inner,
            predicate: jp.clone(),
        },
        vec![left_child, right_child],
    );
    let result = if keep.is_empty() {
        // The whole filter was absorbed — but the substitute must stay
        // schema-equivalent to the Select group, which it is (Select
        // preserves schema). A filterless result is fine.
        new_join
    } else {
        NewTree::new(select_op(conjoin(keep)), vec![NewChild::Tree(new_join)])
    };
    vec![result]
}

/// `σp(A LOJ/ROJ B)`: only conjuncts over the *preserved* side may move
/// below (pushing a null-supplying-side conjunct below an outer join is the
/// classic correctness bug this framework exists to catch).
fn select_push_below_outer_join(ctx: &RuleCtx, b: &Bound) -> Vec<NewTree> {
    let Operator::Select { predicate } = &b.op else {
        return vec![];
    };
    let Some(join) = b.children[0].nested() else {
        return vec![];
    };
    let Operator::Join {
        kind,
        predicate: jp,
    } = &join.op
    else {
        return vec![];
    };
    let preserved_idx = match kind {
        JoinKind::LeftOuter => 0,
        JoinKind::RightOuter => 1,
        _ => return vec![],
    };
    let preserved_cols = ctx.cols(join.children[preserved_idx].group());
    let (push, keep) = partition_conjuncts(predicate, preserved_cols);
    if push.is_empty() {
        return vec![];
    }
    let pushed = NewTree::new(
        select_op(conjoin(push)),
        vec![gref(&join.children[preserved_idx])],
    );
    let mut join_children = vec![gref(&join.children[0]), gref(&join.children[1])];
    join_children[preserved_idx] = NewChild::Tree(pushed);
    let new_join = NewTree::new(
        Operator::Join {
            kind: *kind,
            predicate: jp.clone(),
        },
        join_children,
    );
    let result = if keep.is_empty() {
        new_join
    } else {
        NewTree::new(select_op(conjoin(keep)), vec![NewChild::Tree(new_join)])
    };
    vec![result]
}

/// `σp(A SEMI/ANTI B)`: the output is a subset of A's rows, so any conjunct
/// (all reference A) commutes with the join.
fn select_push_below_semi_join(_ctx: &RuleCtx, b: &Bound) -> Vec<NewTree> {
    let Operator::Select { predicate } = &b.op else {
        return vec![];
    };
    let Some(join) = b.children[0].nested() else {
        return vec![];
    };
    let Operator::Join {
        kind,
        predicate: jp,
    } = &join.op
    else {
        return vec![];
    };
    if !matches!(kind, JoinKind::LeftSemi | JoinKind::LeftAnti) {
        return vec![];
    }
    vec![NewTree::new(
        Operator::Join {
            kind: *kind,
            predicate: jp.clone(),
        },
        vec![
            NewChild::Tree(NewTree::new(
                select_op(predicate.clone()),
                vec![gref(&join.children[0])],
            )),
            gref(&join.children[1]),
        ],
    )]
}

/// `σp(π(x)) -> π(σp')(x)` where p' substitutes each projected expression
/// for its output column.
fn select_push_below_project(_ctx: &RuleCtx, b: &Bound) -> Vec<NewTree> {
    let Operator::Select { predicate } = &b.op else {
        return vec![];
    };
    let Some(proj) = b.children[0].nested() else {
        return vec![];
    };
    let Operator::Project { outputs } = &proj.op else {
        return vec![];
    };
    let map: HashMap<_, _> = outputs.iter().cloned().collect();
    let rewritten = ruletest_expr::substitute(predicate, &map);
    vec![NewTree::new(
        Operator::Project {
            outputs: outputs.clone(),
        },
        vec![NewChild::Tree(NewTree::new(
            select_op(rewritten),
            vec![gref(&proj.children[0])],
        ))],
    )]
}

/// `π(σp(x)) -> σp'(π(x))` when every column of p survives the projection
/// as a bare column reference.
fn select_pull_above_project(_ctx: &RuleCtx, b: &Bound) -> Vec<NewTree> {
    let Operator::Project { outputs } = &b.op else {
        return vec![];
    };
    let Some(sel) = b.children[0].nested() else {
        return vec![];
    };
    let Operator::Select { predicate } = &sel.op else {
        return vec![];
    };
    // Build input-column -> output-column map for passthrough columns.
    let mut passthrough: HashMap<ruletest_common::ColId, ruletest_common::ColId> = HashMap::new();
    for (out, e) in outputs {
        if let Expr::Col(c) = e {
            passthrough.entry(*c).or_insert(*out);
        }
    }
    let pred_cols = ruletest_expr::columns_of(predicate);
    if !pred_cols.iter().all(|c| passthrough.contains_key(c)) {
        return vec![];
    }
    let rewritten = ruletest_expr::remap_columns(predicate, &passthrough);
    vec![NewTree::new(
        select_op(rewritten),
        vec![NewChild::Tree(NewTree::new(
            Operator::Project {
                outputs: outputs.clone(),
            },
            vec![gref(&sel.children[0])],
        ))],
    )]
}

/// `σp(A UNION ALL B) -> σpa(A) UNION ALL σpb(B)` with the predicate
/// remapped through each side's column map.
fn select_push_below_union(_ctx: &RuleCtx, b: &Bound) -> Vec<NewTree> {
    let Operator::Select { predicate } = &b.op else {
        return vec![];
    };
    let Some(union) = b.children[0].nested() else {
        return vec![];
    };
    let Operator::UnionAll {
        outputs,
        left_cols,
        right_cols,
    } = &union.op
    else {
        return vec![];
    };
    let to_left: HashMap<_, _> = outputs
        .iter()
        .copied()
        .zip(left_cols.iter().copied())
        .collect();
    let to_right: HashMap<_, _> = outputs
        .iter()
        .copied()
        .zip(right_cols.iter().copied())
        .collect();
    vec![NewTree::new(
        union.op.clone(),
        vec![
            NewChild::Tree(NewTree::new(
                select_op(ruletest_expr::remap_columns(predicate, &to_left)),
                vec![gref(&union.children[0])],
            )),
            NewChild::Tree(NewTree::new(
                select_op(ruletest_expr::remap_columns(predicate, &to_right)),
                vec![gref(&union.children[1])],
            )),
        ],
    )]
}

/// `σp(GbAgg(x))`: conjuncts referencing only grouping columns commute with
/// the aggregation (the precondition the paper's §1 example alludes to).
fn select_push_below_gbagg(_ctx: &RuleCtx, b: &Bound) -> Vec<NewTree> {
    let Operator::Select { predicate } = &b.op else {
        return vec![];
    };
    let Some(agg) = b.children[0].nested() else {
        return vec![];
    };
    let Operator::GbAgg { group_by, aggs } = &agg.op else {
        return vec![];
    };
    let group_set: std::collections::BTreeSet<_> = group_by.iter().copied().collect();
    let (push, keep) = partition_conjuncts(predicate, &group_set);
    if push.is_empty() {
        return vec![];
    }
    let inner = NewTree::new(
        Operator::GbAgg {
            group_by: group_by.clone(),
            aggs: aggs.clone(),
        },
        vec![NewChild::Tree(NewTree::new(
            select_op(conjoin(push)),
            vec![gref(&agg.children[0])],
        ))],
    );
    let result = if keep.is_empty() {
        inner
    } else {
        NewTree::new(select_op(conjoin(keep)), vec![NewChild::Tree(inner)])
    };
    vec![result]
}

/// `σp(Sort(x)) -> Sort(σp(x))`.
fn select_push_below_sort(_ctx: &RuleCtx, b: &Bound) -> Vec<NewTree> {
    let Operator::Select { predicate } = &b.op else {
        return vec![];
    };
    let Some(sort) = b.children[0].nested() else {
        return vec![];
    };
    let Operator::Sort { keys } = &sort.op else {
        return vec![];
    };
    vec![NewTree::new(
        Operator::Sort { keys: keys.clone() },
        vec![NewChild::Tree(NewTree::new(
            select_op(predicate.clone()),
            vec![gref(&sort.children[0])],
        ))],
    )]
}

/// `σp(Distinct(x)) -> Distinct(σp(x))`.
fn select_push_below_distinct(_ctx: &RuleCtx, b: &Bound) -> Vec<NewTree> {
    let Operator::Select { predicate } = &b.op else {
        return vec![];
    };
    let Some(d) = b.children[0].nested() else {
        return vec![];
    };
    if !matches!(d.op, Operator::Distinct) {
        return vec![];
    }
    vec![NewTree::new(
        Operator::Distinct,
        vec![NewChild::Tree(NewTree::new(
            select_op(predicate.clone()),
            vec![gref(&d.children[0])],
        ))],
    )]
}

/// `σp(A JOIN[Inner] B) -> A JOIN[p AND on] B` — merges the filter into the
/// join predicate (subsumes cross-product-to-inner-join).
fn select_into_inner_join(_ctx: &RuleCtx, b: &Bound) -> Vec<NewTree> {
    let Operator::Select { predicate } = &b.op else {
        return vec![];
    };
    let Some(join) = b.children[0].nested() else {
        return vec![];
    };
    let Operator::Join { predicate: jp, .. } = &join.op else {
        return vec![];
    };
    let merged = if jp.is_true_lit() {
        predicate.clone()
    } else {
        Expr::and(predicate.clone(), jp.clone())
    };
    vec![NewTree::new(
        Operator::Join {
            kind: JoinKind::Inner,
            predicate: merged,
        },
        vec![gref(&join.children[0]), gref(&join.children[1])],
    )]
}

/// Outer-join simplification: a null-rejecting filter above an outer join
/// on the null-supplying side's columns converts the join to a stricter
/// kind (LOJ/ROJ -> INNER; FOJ -> LOJ/ROJ/INNER).
fn outer_join_simplify(ctx: &RuleCtx, b: &Bound) -> Vec<NewTree> {
    let Operator::Select { predicate } = &b.op else {
        return vec![];
    };
    let Some(join) = b.children[0].nested() else {
        return vec![];
    };
    let Operator::Join {
        kind,
        predicate: jp,
    } = &join.op
    else {
        return vec![];
    };
    let left_cols = ctx.cols(join.children[0].group());
    let right_cols = ctx.cols(join.children[1].group());
    let rejects_left = is_null_rejecting(predicate, left_cols);
    let rejects_right = is_null_rejecting(predicate, right_cols);
    let new_kind = match kind {
        JoinKind::LeftOuter if rejects_right => JoinKind::Inner,
        JoinKind::RightOuter if rejects_left => JoinKind::Inner,
        JoinKind::FullOuter => match (rejects_left, rejects_right) {
            (true, true) => JoinKind::Inner,
            // Rejecting left-side NULLs drops the rows that pad the left,
            // i.e. the unmatched *right* rows: FOJ degrades to LOJ.
            (true, false) => JoinKind::LeftOuter,
            (false, true) => JoinKind::RightOuter,
            (false, false) => return vec![],
        },
        _ => return vec![],
    };
    vec![NewTree::new(
        select_op(predicate.clone()),
        vec![NewChild::Tree(NewTree::new(
            Operator::Join {
                kind: new_kind,
                predicate: jp.clone(),
            },
            vec![gref(&join.children[0]), gref(&join.children[1])],
        ))],
    )]
}

pub(super) fn rules() -> Vec<Rule> {
    vec![
        Rule::explore(
            "SelectMerge",
            sel_pattern(sel_pattern(any())),
            "always applicable",
            select_merge,
        ),
        Rule::explore(
            "SelectSplit",
            sel_pattern(any()),
            "predicate has at least two conjuncts",
            select_split,
        ),
        Rule::explore(
            "SelectPushBelowInnerJoin",
            sel_pattern(PatternTree::join(vec![JoinKind::Inner], any(), any())),
            "some conjunct references only one join input",
            select_push_below_inner_join,
        ),
        Rule::explore(
            "SelectPushBelowOuterJoin",
            sel_pattern(PatternTree::join(
                vec![JoinKind::LeftOuter, JoinKind::RightOuter],
                any(),
                any(),
            )),
            "some conjunct references only the preserved side",
            select_push_below_outer_join,
        ),
        Rule::explore(
            "SelectPushBelowSemiJoin",
            sel_pattern(PatternTree::join(
                vec![JoinKind::LeftSemi, JoinKind::LeftAnti],
                any(),
                any(),
            )),
            "always applicable (semi/anti output is a subset of the left input)",
            select_push_below_semi_join,
        ),
        Rule::explore(
            "SelectPushBelowProject",
            sel_pattern(PatternTree::kind(OpKind::Project, vec![any()])),
            "always applicable (predicate rewritten by substitution)",
            select_push_below_project,
        ),
        Rule::explore(
            "SelectPullAboveProject",
            PatternTree::kind(OpKind::Project, vec![sel_pattern(any())]),
            "every predicate column survives the projection as a bare column",
            select_pull_above_project,
        ),
        Rule::explore(
            "SelectPushBelowUnionAll",
            sel_pattern(PatternTree::kind(OpKind::UnionAll, vec![any(), any()])),
            "always applicable",
            select_push_below_union,
        ),
        Rule::explore(
            "SelectPushBelowGbAgg",
            sel_pattern(PatternTree::kind(OpKind::GbAgg, vec![any()])),
            "some conjunct references only grouping columns",
            select_push_below_gbagg,
        ),
        Rule::explore(
            "SelectPushBelowSort",
            sel_pattern(PatternTree::kind(OpKind::Sort, vec![any()])),
            "always applicable",
            select_push_below_sort,
        ),
        Rule::explore(
            "SelectPushBelowDistinct",
            sel_pattern(PatternTree::kind(OpKind::Distinct, vec![any()])),
            "always applicable",
            select_push_below_distinct,
        ),
        Rule::explore(
            "SelectIntoInnerJoin",
            sel_pattern(PatternTree::join(vec![JoinKind::Inner], any(), any())),
            "always applicable",
            select_into_inner_join,
        ),
        Rule::explore(
            "OuterJoinSimplify",
            sel_pattern(PatternTree::join(
                vec![
                    JoinKind::LeftOuter,
                    JoinKind::RightOuter,
                    JoinKind::FullOuter,
                ],
                any(),
                any(),
            )),
            "filter is null-rejecting on a null-supplying side",
            outer_join_simplify,
        ),
    ]
}

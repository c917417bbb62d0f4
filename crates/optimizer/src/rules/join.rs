//! Join transformation rules.
//!
//! Includes the paper's running example (§3): the associativity of join and
//! left outer join — `R JOIN (S LOJ T) = (R JOIN S) LOJ T` when the join
//! predicate references only R and S — whose firing *enables* inner-join
//! commutativity on the new `(R JOIN S)` expression (a rule dependency).

use super::util::*;
use crate::pattern::PatternTree;
use crate::rule::{Bound, NewChild, NewTree, Rule, RuleCtx};
use ruletest_expr::{conjoin, try_col_eq_col, Expr};
use ruletest_logical::{JoinKind, OpKind, Operator};

fn any() -> PatternTree {
    PatternTree::Any
}

fn join_op(kind: JoinKind, predicate: Expr) -> Operator {
    Operator::Join { kind, predicate }
}

/// `A JOIN B -> B JOIN A` (inner joins; output columns are a set, so no
/// projection is needed).
fn inner_join_commute(_ctx: &RuleCtx, b: &Bound) -> Vec<NewTree> {
    let Operator::Join { predicate, .. } = &b.op else {
        return vec![];
    };
    vec![NewTree::new(
        join_op(JoinKind::Inner, predicate.clone()),
        vec![gref(&b.children[1]), gref(&b.children[0])],
    )]
}

/// `(A JOIN B) JOIN C -> A JOIN (B JOIN C)`, redistributing the combined
/// conjuncts: the new lower join receives those over B∪C, the upper join
/// the rest.
fn inner_join_assoc_left(ctx: &RuleCtx, b: &Bound) -> Vec<NewTree> {
    let Operator::Join { predicate: p, .. } = &b.op else {
        return vec![];
    };
    let Some(lower) = b.children[0].nested() else {
        return vec![];
    };
    let Operator::Join { predicate: q, .. } = &lower.op else {
        return vec![];
    };
    let (a, bb) = (&lower.children[0], &lower.children[1]);
    let c = &b.children[1];
    let mut all = ruletest_expr::conjuncts(p);
    all.extend(ruletest_expr::conjuncts(q));
    let (lower_parts, upper_parts): (Vec<Expr>, Vec<Expr>) = all
        .into_iter()
        .partition(|e| pred_within_groups(ctx, e, bb.group(), c.group()));
    vec![NewTree::new(
        join_op(JoinKind::Inner, conjoin(upper_parts)),
        vec![
            gref(a),
            NewChild::Tree(NewTree::new(
                join_op(JoinKind::Inner, conjoin(lower_parts)),
                vec![gref(bb), gref(c)],
            )),
        ],
    )]
}

/// `A JOIN (B JOIN C) -> (A JOIN B) JOIN C` — mirror of the above.
fn inner_join_assoc_right(ctx: &RuleCtx, b: &Bound) -> Vec<NewTree> {
    let Operator::Join { predicate: p, .. } = &b.op else {
        return vec![];
    };
    let Some(lower) = b.children[1].nested() else {
        return vec![];
    };
    let Operator::Join { predicate: q, .. } = &lower.op else {
        return vec![];
    };
    let a = &b.children[0];
    let (bb, c) = (&lower.children[0], &lower.children[1]);
    let mut all = ruletest_expr::conjuncts(p);
    all.extend(ruletest_expr::conjuncts(q));
    let (lower_parts, upper_parts): (Vec<Expr>, Vec<Expr>) = all
        .into_iter()
        .partition(|e| pred_within_groups(ctx, e, a.group(), bb.group()));
    vec![NewTree::new(
        join_op(JoinKind::Inner, conjoin(upper_parts)),
        vec![
            NewChild::Tree(NewTree::new(
                join_op(JoinKind::Inner, conjoin(lower_parts)),
                vec![gref(a), gref(bb)],
            )),
            gref(c),
        ],
    )]
}

/// `A LOJ B -> B ROJ A`.
fn loj_commute(_ctx: &RuleCtx, b: &Bound) -> Vec<NewTree> {
    let Operator::Join { predicate, .. } = &b.op else {
        return vec![];
    };
    vec![NewTree::new(
        join_op(JoinKind::RightOuter, predicate.clone()),
        vec![gref(&b.children[1]), gref(&b.children[0])],
    )]
}

/// `A ROJ B -> B LOJ A`.
fn roj_commute(_ctx: &RuleCtx, b: &Bound) -> Vec<NewTree> {
    let Operator::Join { predicate, .. } = &b.op else {
        return vec![];
    };
    vec![NewTree::new(
        join_op(JoinKind::LeftOuter, predicate.clone()),
        vec![gref(&b.children[1]), gref(&b.children[0])],
    )]
}

/// `A FOJ B -> B FOJ A`.
fn foj_commute(_ctx: &RuleCtx, b: &Bound) -> Vec<NewTree> {
    let Operator::Join { predicate, .. } = &b.op else {
        return vec![];
    };
    vec![NewTree::new(
        join_op(JoinKind::FullOuter, predicate.clone()),
        vec![gref(&b.children[1]), gref(&b.children[0])],
    )]
}

/// The paper's §3 example: `R JOIN (S LOJ T) -> (R JOIN S) LOJ T`, valid
/// when the inner-join predicate references only R and S.
fn join_loj_assoc(ctx: &RuleCtx, b: &Bound) -> Vec<NewTree> {
    let Operator::Join { predicate: p, .. } = &b.op else {
        return vec![];
    };
    let r = &b.children[0];
    let Some(loj) = b.children[1].nested() else {
        return vec![];
    };
    let Operator::Join { predicate: q, .. } = &loj.op else {
        return vec![];
    };
    let (s, t) = (&loj.children[0], &loj.children[1]);
    if !pred_within_groups(ctx, p, r.group(), s.group()) {
        return vec![];
    }
    vec![NewTree::new(
        join_op(JoinKind::LeftOuter, q.clone()),
        vec![
            NewChild::Tree(NewTree::new(
                join_op(JoinKind::Inner, p.clone()),
                vec![gref(r), gref(s)],
            )),
            gref(t),
        ],
    )]
}

/// Inverse of the above: `(R JOIN S) LOJ T -> R JOIN (S LOJ T)`, valid when
/// the outer-join predicate references only S and T.
fn join_loj_assoc_inv(ctx: &RuleCtx, b: &Bound) -> Vec<NewTree> {
    let Operator::Join { predicate: q, .. } = &b.op else {
        return vec![];
    };
    let Some(inner) = b.children[0].nested() else {
        return vec![];
    };
    let Operator::Join { predicate: p, .. } = &inner.op else {
        return vec![];
    };
    let (r, s) = (&inner.children[0], &inner.children[1]);
    let t = &b.children[1];
    if !pred_within_groups(ctx, q, s.group(), t.group()) {
        return vec![];
    }
    // The inner predicate must also avoid T (guaranteed: it was validated
    // over R∪S), and must reference only R∪S so it can move up — it already
    // does. The rotated form re-checks p over R∪(S LOJ T) which is a
    // superset, so it stays valid.
    vec![NewTree::new(
        join_op(JoinKind::Inner, p.clone()),
        vec![
            gref(r),
            NewChild::Tree(NewTree::new(
                join_op(JoinKind::LeftOuter, q.clone()),
                vec![gref(s), gref(t)],
            )),
        ],
    )]
}

/// Distributes a left-row-driven join over a union on its left input:
/// `(A UNION ALL B) op C -> (A op C) UNION ALL (B op C)` for
/// op ∈ {JOIN, LOJ, SEMI, ANTI}.
fn join_distribute_union_left(ctx: &RuleCtx, b: &Bound) -> Vec<NewTree> {
    let Operator::Join { kind, predicate } = &b.op else {
        return vec![];
    };
    if !matches!(
        kind,
        JoinKind::Inner | JoinKind::LeftOuter | JoinKind::LeftSemi | JoinKind::LeftAnti
    ) {
        return vec![];
    }
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
    let (ua, ub) = (&union.children[0], &union.children[1]);
    let c = &b.children[1];
    let to_left: std::collections::HashMap<_, _> = outputs
        .iter()
        .copied()
        .zip(left_cols.iter().copied())
        .collect();
    let to_right: std::collections::HashMap<_, _> = outputs
        .iter()
        .copied()
        .zip(right_cols.iter().copied())
        .collect();
    let pred_a = ruletest_expr::remap_columns(predicate, &to_left);
    let pred_b = ruletest_expr::remap_columns(predicate, &to_right);
    let join_a = NewTree::new(join_op(*kind, pred_a), vec![gref(ua), gref(c)]);
    let join_b = NewTree::new(join_op(*kind, pred_b), vec![gref(ub), gref(c)]);
    // The new union's outputs must equal this group's schema: the original
    // union outputs plus (for both-sides kinds) C's columns mapped to
    // themselves.
    let mut new_outputs = outputs.clone();
    let mut new_left = left_cols.clone();
    let mut new_right = right_cols.clone();
    if kind.emits_both_sides() {
        for ci in ctx.schema(c.group()) {
            new_outputs.push(ci.id);
            new_left.push(ci.id);
            new_right.push(ci.id);
        }
    }
    vec![NewTree::new(
        Operator::UnionAll {
            outputs: new_outputs,
            left_cols: new_left,
            right_cols: new_right,
        },
        vec![NewChild::Tree(join_a), NewChild::Tree(join_b)],
    )]
}

/// Distributes a join over a union on its right input:
/// `C op (A UNION ALL B) -> (C op A) UNION ALL (C op B)` for
/// op ∈ {JOIN, ROJ}.
fn join_distribute_union_right(ctx: &RuleCtx, b: &Bound) -> Vec<NewTree> {
    let Operator::Join { kind, predicate } = &b.op else {
        return vec![];
    };
    if !matches!(kind, JoinKind::Inner | JoinKind::RightOuter) {
        return vec![];
    }
    let c = &b.children[0];
    let Some(union) = b.children[1].nested() else {
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
    let (ua, ub) = (&union.children[0], &union.children[1]);
    let to_left: std::collections::HashMap<_, _> = outputs
        .iter()
        .copied()
        .zip(left_cols.iter().copied())
        .collect();
    let to_right: std::collections::HashMap<_, _> = outputs
        .iter()
        .copied()
        .zip(right_cols.iter().copied())
        .collect();
    let pred_a = ruletest_expr::remap_columns(predicate, &to_left);
    let pred_b = ruletest_expr::remap_columns(predicate, &to_right);
    let join_a = NewTree::new(join_op(*kind, pred_a), vec![gref(c), gref(ua)]);
    let join_b = NewTree::new(join_op(*kind, pred_b), vec![gref(c), gref(ub)]);
    let c_ids: Vec<_> = ctx.schema(c.group()).iter().map(|ci| ci.id).collect();
    let mut new_outputs = c_ids.clone();
    let mut new_left = c_ids.clone();
    let mut new_right = c_ids;
    new_outputs.extend(outputs.iter().copied());
    new_left.extend(left_cols.iter().copied());
    new_right.extend(right_cols.iter().copied());
    vec![NewTree::new(
        Operator::UnionAll {
            outputs: new_outputs,
            left_cols: new_left,
            right_cols: new_right,
        },
        vec![NewChild::Tree(join_a), NewChild::Tree(join_b)],
    )]
}

/// `A SEMI B -> project_A(A JOIN B)` when the probe side is a base table
/// and some equi conjunct hits one of its single-column unique keys (each
/// left row then matches at most one right row, so the inner join cannot
/// duplicate). A schema-dependent rule in the sense of §7.
fn semi_join_to_inner_on_key(ctx: &RuleCtx, b: &Bound) -> Vec<NewTree> {
    let Operator::Join { predicate, .. } = &b.op else {
        return vec![];
    };
    let Some(get) = b.children[1].nested() else {
        return vec![];
    };
    let Operator::Get { table, cols } = &get.op else {
        return vec![];
    };
    let Ok(def) = ctx.db.catalog.table(*table) else {
        return vec![];
    };
    // One side of the equality must be a unique column of the probe table
    // and the other side must come from elsewhere (a genuine cross-side
    // conjunct) — otherwise uniqueness does not bound the match count.
    let ord_of = |col| cols.iter().position(|&g| g == col);
    let unique_hit = ruletest_expr::conjuncts(predicate).iter().any(|c| {
        try_col_eq_col(c).is_some_and(|(a, bcol)| match (ord_of(a), ord_of(bcol)) {
            (Some(ord), None) | (None, Some(ord)) => def.is_unique_column(ord),
            _ => false,
        })
    });
    if !unique_hit {
        return vec![];
    }
    let left_schema = ctx.schema(b.children[0].group());
    let outputs: Vec<_> = left_schema
        .iter()
        .map(|ci| (ci.id, Expr::col(ci.id)))
        .collect();
    vec![NewTree::new(
        Operator::Project { outputs },
        vec![NewChild::Tree(NewTree::new(
            join_op(JoinKind::Inner, predicate.clone()),
            vec![gref(&b.children[0]), gref(&b.children[1])],
        ))],
    )]
}

/// `A ANTI B -> project_A(filter[b IS NULL](A LOJ B))` where `b` is a right
/// column appearing in an equi conjunct (so matched rows always have it
/// non-null).
fn anti_join_to_loj_filter(ctx: &RuleCtx, b: &Bound) -> Vec<NewTree> {
    let Operator::Join { predicate, .. } = &b.op else {
        return vec![];
    };
    let right_cols = ctx.cols(b.children[1].group());
    let probe = ruletest_expr::conjuncts(predicate).iter().find_map(|c| {
        try_col_eq_col(c).and_then(|(x, y)| {
            if right_cols.contains(&x) {
                Some(x)
            } else if right_cols.contains(&y) {
                Some(y)
            } else {
                None
            }
        })
    });
    let Some(probe_col) = probe else {
        return vec![];
    };
    let left_schema = ctx.schema(b.children[0].group());
    let outputs: Vec<_> = left_schema
        .iter()
        .map(|ci| (ci.id, Expr::col(ci.id)))
        .collect();
    vec![NewTree::new(
        Operator::Project { outputs },
        vec![NewChild::Tree(NewTree::new(
            Operator::Select {
                predicate: Expr::is_null(Expr::col(probe_col)),
            },
            vec![NewChild::Tree(NewTree::new(
                join_op(JoinKind::LeftOuter, predicate.clone()),
                vec![gref(&b.children[0]), gref(&b.children[1])],
            ))],
        ))],
    )]
}

/// The join rule set, in registration order.
pub(super) fn rules() -> Vec<Rule> {
    vec![
        Rule::explore(
            "InnerJoinCommute",
            PatternTree::join(vec![JoinKind::Inner], any(), any()),
            "always applicable",
            inner_join_commute,
        ),
        Rule::explore(
            "InnerJoinAssocLeft",
            PatternTree::join(
                vec![JoinKind::Inner],
                PatternTree::join(vec![JoinKind::Inner], any(), any()),
                any(),
            ),
            "always applicable (conjuncts redistribute; lower join may become a cross product)",
            inner_join_assoc_left,
        ),
        Rule::explore(
            "InnerJoinAssocRight",
            PatternTree::join(
                vec![JoinKind::Inner],
                any(),
                PatternTree::join(vec![JoinKind::Inner], any(), any()),
            ),
            "always applicable",
            inner_join_assoc_right,
        ),
        Rule::explore(
            "LojCommute",
            PatternTree::join(vec![JoinKind::LeftOuter], any(), any()),
            "always applicable",
            loj_commute,
        ),
        Rule::explore(
            "RojCommute",
            PatternTree::join(vec![JoinKind::RightOuter], any(), any()),
            "always applicable",
            roj_commute,
        ),
        Rule::explore(
            "FojCommute",
            PatternTree::join(vec![JoinKind::FullOuter], any(), any()),
            "always applicable",
            foj_commute,
        ),
        Rule::explore(
            "JoinLojAssoc",
            PatternTree::join(
                vec![JoinKind::Inner],
                any(),
                PatternTree::join(vec![JoinKind::LeftOuter], any(), any()),
            ),
            "inner-join predicate references only R and S",
            join_loj_assoc,
        ),
        Rule::explore(
            "JoinLojAssocInv",
            PatternTree::join(
                vec![JoinKind::LeftOuter],
                PatternTree::join(vec![JoinKind::Inner], any(), any()),
                any(),
            ),
            "outer-join predicate references only S and T",
            join_loj_assoc_inv,
        ),
        Rule::explore(
            "JoinDistributeUnionLeft",
            PatternTree::join(
                vec![
                    JoinKind::Inner,
                    JoinKind::LeftOuter,
                    JoinKind::LeftSemi,
                    JoinKind::LeftAnti,
                ],
                PatternTree::kind(OpKind::UnionAll, vec![any(), any()]),
                any(),
            ),
            "join kind is left-row-driven",
            join_distribute_union_left,
        ),
        Rule::explore(
            "JoinDistributeUnionRight",
            PatternTree::join(
                vec![JoinKind::Inner, JoinKind::RightOuter],
                any(),
                PatternTree::kind(OpKind::UnionAll, vec![any(), any()]),
            ),
            "join kind is right-row-driven",
            join_distribute_union_right,
        ),
        Rule::explore(
            "SemiJoinToInnerOnKey",
            PatternTree::join(
                vec![JoinKind::LeftSemi],
                any(),
                PatternTree::kind(OpKind::Get, vec![]),
            ),
            "an equi conjunct hits a single-column unique key of the probe-side base table",
            semi_join_to_inner_on_key,
        ),
        Rule::explore(
            "AntiJoinToLojFilter",
            PatternTree::join(vec![JoinKind::LeftAnti], any(), any()),
            "an equi conjunct provides a right-side probe column",
            anti_join_to_loj_filter,
        ),
    ]
}

//! Union, projection, sort, and top-n transformation rules.

use super::util::*;
use crate::pattern::PatternTree;
use crate::rule::{Bound, NewChild, NewTree, Rule, RuleCtx};
use ruletest_common::WordBuild;
use ruletest_logical::{OpKind, Operator};
use std::collections::HashMap;

fn any() -> PatternTree {
    PatternTree::Any
}

/// `A UNION ALL B -> B UNION ALL A` (side maps swap with the children).
fn union_all_commute(_ctx: &RuleCtx, b: &Bound) -> Vec<NewTree> {
    let Operator::UnionAll {
        outputs,
        left_cols,
        right_cols,
    } = &b.op
    else {
        return vec![];
    };
    vec![NewTree::new(
        Operator::UnionAll {
            outputs: outputs.clone(),
            left_cols: right_cols.clone(),
            right_cols: left_cols.clone(),
        },
        vec![gref(&b.children[1]), gref(&b.children[0])],
    )]
}

/// `(A UNION ALL B) UNION ALL C -> A UNION ALL (B UNION ALL C)`.
fn union_all_assoc(ctx: &RuleCtx, b: &Bound) -> Vec<NewTree> {
    let Operator::UnionAll {
        outputs: out2,
        left_cols: l2,
        right_cols: r2,
    } = &b.op
    else {
        return vec![];
    };
    let Some(inner) = b.children[0].nested() else {
        return vec![];
    };
    let Operator::UnionAll {
        outputs: out1,
        left_cols: l1,
        right_cols: r1,
    } = &inner.op
    else {
        return vec![];
    };
    let (a, bb) = (&inner.children[0], &inner.children[1]);
    let c = &b.children[1];
    // For each final output, chase its source through the inner union.
    let mut ids = ctx.ids.borrow_mut();
    let mut top_left = Vec::with_capacity(out2.len());
    let mut top_right = Vec::with_capacity(out2.len());
    let mut mid_out = Vec::with_capacity(out2.len());
    let mut mid_left = Vec::with_capacity(out2.len());
    let mut mid_right = Vec::with_capacity(out2.len());
    for i in 0..out2.len() {
        let Some(j) = out1.iter().position(|&o| o == l2[i]) else {
            return vec![];
        };
        let fresh = ids.fresh();
        top_left.push(l1[j]);
        top_right.push(fresh);
        mid_out.push(fresh);
        mid_left.push(r1[j]);
        mid_right.push(r2[i]);
    }
    vec![NewTree::new(
        Operator::UnionAll {
            outputs: out2.clone(),
            left_cols: top_left,
            right_cols: top_right,
        },
        vec![
            gref(a),
            NewChild::Tree(NewTree::new(
                Operator::UnionAll {
                    outputs: mid_out,
                    left_cols: mid_left,
                    right_cols: mid_right,
                },
                vec![gref(bb), gref(c)],
            )),
        ],
    )]
}

/// `Distinct(A UNION ALL B) -> Distinct(Distinct(A) UNION ALL Distinct(B))`
/// — early duplicate elimination.
fn distinct_push_below_union(_ctx: &RuleCtx, b: &Bound) -> Vec<NewTree> {
    if !matches!(b.op, Operator::Distinct) {
        return vec![];
    }
    let Some(union) = b.children[0].nested() else {
        return vec![];
    };
    if !matches!(union.op, Operator::UnionAll { .. }) {
        return vec![];
    }
    vec![NewTree::new(
        Operator::Distinct,
        vec![NewChild::Tree(NewTree::new(
            union.op.clone(),
            vec![
                NewChild::Tree(NewTree::new(
                    Operator::Distinct,
                    vec![gref(&union.children[0])],
                )),
                NewChild::Tree(NewTree::new(
                    Operator::Distinct,
                    vec![gref(&union.children[1])],
                )),
            ],
        ))],
    )]
}

/// `π1(π2(x)) -> π(x)` — composes the projections by substitution.
fn project_merge(_ctx: &RuleCtx, b: &Bound) -> Vec<NewTree> {
    let Operator::Project { outputs: o1 } = &b.op else {
        return vec![];
    };
    let Some(inner) = b.children[0].nested() else {
        return vec![];
    };
    let Operator::Project { outputs: o2 } = &inner.op else {
        return vec![];
    };
    let map: HashMap<_, _, WordBuild> = o2.iter().cloned().collect();
    let merged = o1
        .iter()
        .map(|(id, e)| (*id, ruletest_expr::substitute(e, &map)))
        .collect();
    vec![NewTree::new(
        Operator::Project { outputs: merged },
        vec![gref(&inner.children[0])],
    )]
}

/// `π(A UNION ALL B) -> π'(A) UNION ALL π'(B)` with the projection
/// rewritten through each side's column map and fresh branch ids.
fn project_push_below_union(ctx: &RuleCtx, b: &Bound) -> Vec<NewTree> {
    let Operator::Project { outputs } = &b.op else {
        return vec![];
    };
    let Some(union) = b.children[0].nested() else {
        return vec![];
    };
    let Operator::UnionAll {
        outputs: uouts,
        left_cols,
        right_cols,
    } = &union.op
    else {
        return vec![];
    };
    let to_left: HashMap<_, _, WordBuild> = uouts
        .iter()
        .copied()
        .zip(left_cols.iter().copied())
        .collect();
    let to_right: HashMap<_, _, WordBuild> = uouts
        .iter()
        .copied()
        .zip(right_cols.iter().copied())
        .collect();
    let mut ids = ctx.ids.borrow_mut();
    let mut proj_a = Vec::with_capacity(outputs.len());
    let mut proj_b = Vec::with_capacity(outputs.len());
    let mut new_out = Vec::with_capacity(outputs.len());
    let mut new_l = Vec::with_capacity(outputs.len());
    let mut new_r = Vec::with_capacity(outputs.len());
    for (id, e) in outputs {
        let fa = ids.fresh();
        let fb = ids.fresh();
        proj_a.push((fa, ruletest_expr::remap_columns(e, &to_left)));
        proj_b.push((fb, ruletest_expr::remap_columns(e, &to_right)));
        new_out.push(*id);
        new_l.push(fa);
        new_r.push(fb);
    }
    vec![NewTree::new(
        Operator::UnionAll {
            outputs: new_out,
            left_cols: new_l,
            right_cols: new_r,
        },
        vec![
            NewChild::Tree(NewTree::new(
                Operator::Project { outputs: proj_a },
                vec![gref(&union.children[0])],
            )),
            NewChild::Tree(NewTree::new(
                Operator::Project { outputs: proj_b },
                vec![gref(&union.children[1])],
            )),
        ],
    )]
}

/// `Sort1(Sort2(x)) -> Sort1(x)` — the outer sort wins.
fn sort_collapse(_ctx: &RuleCtx, b: &Bound) -> Vec<NewTree> {
    let Operator::Sort { keys } = &b.op else {
        return vec![];
    };
    let Some(inner) = b.children[0].nested() else {
        return vec![];
    };
    if !matches!(inner.op, Operator::Sort { .. }) {
        return vec![];
    }
    vec![NewTree::new(
        Operator::Sort { keys: keys.clone() },
        vec![gref(&inner.children[0])],
    )]
}

/// `GbAgg(Sort(x)) -> GbAgg(x)` — aggregation is order-insensitive.
fn sort_elim_below_gbagg(_ctx: &RuleCtx, b: &Bound) -> Vec<NewTree> {
    let Operator::GbAgg { .. } = &b.op else {
        return vec![];
    };
    let Some(inner) = b.children[0].nested() else {
        return vec![];
    };
    if !matches!(inner.op, Operator::Sort { .. }) {
        return vec![];
    }
    vec![NewTree::new(b.op.clone(), vec![gref(&inner.children[0])])]
}

/// `Distinct(Sort(x)) -> Distinct(x)`.
fn sort_elim_below_distinct(_ctx: &RuleCtx, b: &Bound) -> Vec<NewTree> {
    if !matches!(b.op, Operator::Distinct) {
        return vec![];
    }
    let Some(inner) = b.children[0].nested() else {
        return vec![];
    };
    if !matches!(inner.op, Operator::Sort { .. }) {
        return vec![];
    }
    vec![NewTree::new(
        Operator::Distinct,
        vec![gref(&inner.children[0])],
    )]
}

/// `Top[n,k](Top[m,k](x)) -> Top[min(n,m),k](x)` when the sort keys are
/// identical (same keys imply the same deterministic total order, so the
/// compositions agree).
fn top_top_collapse(_ctx: &RuleCtx, b: &Bound) -> Vec<NewTree> {
    let Operator::Top { n, keys } = &b.op else {
        return vec![];
    };
    let Some(inner) = b.children[0].nested() else {
        return vec![];
    };
    let Operator::Top {
        n: m,
        keys: inner_keys,
    } = &inner.op
    else {
        return vec![];
    };
    if keys != inner_keys {
        return vec![];
    }
    vec![NewTree::new(
        Operator::Top {
            n: (*n).min(*m),
            keys: keys.clone(),
        },
        vec![gref(&inner.children[0])],
    )]
}

/// `Top[n,k](Sort(x)) -> Top[n,k](x)` — Top imposes its own order.
fn top_sort_absorb(_ctx: &RuleCtx, b: &Bound) -> Vec<NewTree> {
    let Operator::Top { n, keys } = &b.op else {
        return vec![];
    };
    let Some(inner) = b.children[0].nested() else {
        return vec![];
    };
    if !matches!(inner.op, Operator::Sort { .. }) {
        return vec![];
    }
    vec![NewTree::new(
        Operator::Top {
            n: *n,
            keys: keys.clone(),
        },
        vec![gref(&inner.children[0])],
    )]
}

pub(super) fn rules() -> Vec<Rule> {
    vec![
        Rule::explore(
            "UnionAllCommute",
            PatternTree::kind(OpKind::UnionAll, vec![any(), any()]),
            "always applicable",
            union_all_commute,
        ),
        Rule::explore(
            "UnionAllAssoc",
            PatternTree::kind(
                OpKind::UnionAll,
                vec![
                    PatternTree::kind(OpKind::UnionAll, vec![any(), any()]),
                    any(),
                ],
            ),
            "always applicable",
            union_all_assoc,
        )
        .minting_fresh_ids(),
        Rule::explore(
            "DistinctPushBelowUnionAll",
            PatternTree::kind(
                OpKind::Distinct,
                vec![PatternTree::kind(OpKind::UnionAll, vec![any(), any()])],
            ),
            "always applicable",
            distinct_push_below_union,
        ),
        Rule::explore(
            "ProjectMerge",
            PatternTree::kind(
                OpKind::Project,
                vec![PatternTree::kind(OpKind::Project, vec![any()])],
            ),
            "always applicable (composition by substitution)",
            project_merge,
        ),
        Rule::explore(
            "ProjectPushBelowUnionAll",
            PatternTree::kind(
                OpKind::Project,
                vec![PatternTree::kind(OpKind::UnionAll, vec![any(), any()])],
            ),
            "always applicable",
            project_push_below_union,
        )
        .minting_fresh_ids(),
        Rule::explore(
            "SortCollapse",
            PatternTree::kind(
                OpKind::Sort,
                vec![PatternTree::kind(OpKind::Sort, vec![any()])],
            ),
            "always applicable (outer order wins)",
            sort_collapse,
        ),
        Rule::explore(
            "SortElimBelowGbAgg",
            PatternTree::kind(
                OpKind::GbAgg,
                vec![PatternTree::kind(OpKind::Sort, vec![any()])],
            ),
            "always applicable",
            sort_elim_below_gbagg,
        ),
        Rule::explore(
            "SortElimBelowDistinct",
            PatternTree::kind(
                OpKind::Distinct,
                vec![PatternTree::kind(OpKind::Sort, vec![any()])],
            ),
            "always applicable",
            sort_elim_below_distinct,
        ),
        Rule::explore(
            "TopTopCollapse",
            PatternTree::kind(
                OpKind::Top,
                vec![PatternTree::kind(OpKind::Top, vec![any()])],
            ),
            "identical sort keys on both Top operators",
            top_top_collapse,
        ),
        Rule::explore(
            "TopSortAbsorb",
            PatternTree::kind(
                OpKind::Top,
                vec![PatternTree::kind(OpKind::Sort, vec![any()])],
            ),
            "always applicable",
            top_sort_absorb,
        ),
    ]
}

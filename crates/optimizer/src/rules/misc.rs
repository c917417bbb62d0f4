//! Union, projection, sort, and top-n transformation rules.
//!
//! Seven rules are [`Rewrite`]s; each comment names its pattern's nodes in
//! pre-order (see [`crate::rewrite::Node`]). Three stay code, each needing a
//! term no second rule or mutant uses (DESIGN §18): `UnionAllAssoc` (fresh
//! ids chased through the inner union's lists), `ProjectMerge` (composition
//! by substitution) and `ProjectPushBelowUnionAll` (a projection remapped
//! per branch under fresh ids).

use super::util::*;
use crate::pattern::PatternTree;
use crate::rewrite::{Guard, Limit, Rewrite, Target};
use crate::rule::{Bound, NewChild, NewTree, Rule, RuleCtx};
use ruletest_common::WordBuild;
use ruletest_logical::{OpKind, Operator};
use std::collections::HashMap;

const ANY: PatternTree = PatternTree::Any;

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

/// The misc rule set, in registration order.
pub(super) fn rules() -> Vec<Rule> {
    use Target::Group;
    let unary = |kind, child| PatternTree::kind(kind, vec![child]);
    let union = || PatternTree::kind(OpKind::UnionAll, vec![ANY, ANY]);
    // `0(Sort1(2)) -> 0(2)`: the sort below operator 0 goes.
    let drop_sort = |name, outer, precondition| {
        Rule::rewrite(
            name,
            unary(outer, unary(OpKind::Sort, ANY)),
            precondition,
            Rewrite {
                guards: vec![],
                targets: vec![Target::reemit(0, vec![Group(2)])],
            },
        )
    };
    vec![
        // `1 ∪0 2 -> 2 ∪ 1`, the branch lists swapped with the inputs.
        Rule::rewrite(
            "UnionAllCommute",
            union(),
            "always applicable",
            Rewrite {
                guards: vec![],
                targets: vec![Target::Union {
                    of: 0,
                    branches: [1, 0],
                    before: None,
                    after: None,
                    inputs: Box::new([Group(2), Group(1)]),
                }],
            },
        ),
        Rule::explore(
            "UnionAllAssoc",
            PatternTree::kind(OpKind::UnionAll, vec![union(), ANY]),
            "always applicable",
            union_all_assoc,
        )
        .minting_fresh_ids(),
        // `Distinct0(2 ∪1 3) -> Distinct(Distinct(2) ∪ Distinct(3))`: early
        // duplicate elimination.
        Rule::rewrite(
            "DistinctPushBelowUnionAll",
            unary(OpKind::Distinct, union()),
            "always applicable",
            Rewrite {
                guards: vec![],
                targets: vec![Target::reemit(
                    0,
                    vec![Target::reemit(
                        1,
                        vec![
                            Target::reemit(0, vec![Group(2)]),
                            Target::reemit(0, vec![Group(3)]),
                        ],
                    )],
                )],
            },
        ),
        Rule::explore(
            "ProjectMerge",
            unary(OpKind::Project, unary(OpKind::Project, ANY)),
            "always applicable (composition by substitution)",
            project_merge,
        ),
        Rule::explore(
            "ProjectPushBelowUnionAll",
            unary(OpKind::Project, union()),
            "always applicable",
            project_push_below_union,
        )
        .minting_fresh_ids(),
        drop_sort(
            "SortCollapse",
            OpKind::Sort,
            "always applicable (outer order wins)",
        ),
        drop_sort("SortElimBelowGbAgg", OpKind::GbAgg, "always applicable"),
        drop_sort(
            "SortElimBelowDistinct",
            OpKind::Distinct,
            "always applicable",
        ),
        // `Top0[n, k](Top1[m, k](2)) -> Top[min(n, m), k](2)`: the same keys
        // are the same deterministic total order, so the compositions agree.
        Rule::rewrite(
            "TopTopCollapse",
            unary(OpKind::Top, unary(OpKind::Top, ANY)),
            "identical sort keys on both Top operators",
            Rewrite {
                guards: vec![Guard::SameKeys(0, 1)],
                targets: vec![Target::Top {
                    of: [0, 1],
                    limit: Limit::Min,
                    input: Box::new(Group(2)),
                }],
            },
        ),
        // Top imposes its own order.
        drop_sort("TopSortAbsorb", OpKind::Top, "always applicable"),
    ]
}

//! Aggregation transformation rules, including the paper's flagship example
//! of a precondition-laden rule: pushing a Group-By Aggregate below a join
//! (§1 cites [3]; we implement the Yan–Larson *eager aggregation* form,
//! which is unconditionally duplicate-correct because the join predicate's
//! columns are added to the partial grouping key).

use super::util::*;
use crate::pattern::PatternTree;
use crate::rule::{Bound, NewChild, NewTree, Rule, RuleCtx};
use ruletest_expr::{every_column, AggCall, AggFunc, Expr};
use ruletest_logical::{JoinKind, OpKind, Operator};
use std::collections::BTreeSet;

fn any() -> PatternTree {
    PatternTree::Any
}

/// `Distinct(x) -> GbAgg[all columns of x; no aggregates](x)`.
fn distinct_to_gbagg(ctx: &RuleCtx, b: &Bound) -> Vec<NewTree> {
    if !matches!(b.op, Operator::Distinct) {
        return vec![];
    }
    let group_by: Vec<_> = ctx
        .schema(b.children[0].group())
        .iter()
        .map(|c| c.id)
        .collect();
    vec![NewTree::new(
        Operator::GbAgg {
            group_by,
            aggs: vec![],
        },
        vec![gref(&b.children[0])],
    )]
}

/// `GbAgg[G; F](x) -> GbAgg[G; combine(F)](GbAgg[G; F](x))` — the
/// local/global split. Well-defined for the whole supported aggregate set
/// (COUNT combines via SUM; SUM/MIN/MAX are self-combining).
fn gbagg_split_local_global(ctx: &RuleCtx, b: &Bound) -> Vec<NewTree> {
    let Operator::GbAgg { group_by, aggs } = &b.op else {
        return vec![];
    };
    let mut ids = ctx.ids.borrow_mut();
    let locals: Vec<AggCall> = aggs
        .iter()
        .map(|a| AggCall::new(a.func, a.arg, ids.fresh()))
        .collect();
    let globals: Vec<AggCall> = aggs
        .iter()
        .zip(&locals)
        .map(|(orig, local)| {
            AggCall::new(orig.func.combining_func(), Some(local.output), orig.output)
        })
        .collect();
    vec![NewTree::new(
        Operator::GbAgg {
            group_by: group_by.clone(),
            aggs: globals,
        },
        vec![NewChild::Tree(NewTree::new(
            Operator::GbAgg {
                group_by: group_by.clone(),
                aggs: locals,
            },
            vec![gref(&b.children[0])],
        ))],
    )]
}

/// Shared implementation of eager aggregation for either join input.
///
/// `GbAgg[G; F](A JOIN_p B)` with every aggregate argument from side S
/// becomes `GbAgg[G; combine(F)]( partial JOIN_p other )` where
/// `partial = GbAgg[(G ∪ cols(p)) ∩ cols(S); F](S)`.
///
/// Correct for inner joins because collapsing S-rows that agree on the
/// partial grouping key (which includes every join-predicate column of S)
/// does not change which other-side rows each collapsed group joins with,
/// and the global combine re-expands multiplicities exactly.
fn eager_push(ctx: &RuleCtx, b: &Bound, side: usize) -> Vec<NewTree> {
    let Operator::GbAgg { group_by, aggs } = &b.op else {
        return vec![];
    };
    let Some(join) = b.children[0].nested() else {
        return vec![];
    };
    let Operator::Join { kind, predicate } = &join.op else {
        return vec![];
    };
    if *kind != JoinKind::Inner {
        return vec![];
    }
    let side_cols = ctx.cols(join.children[side].group());
    // Every aggregate argument must come from this side. COUNT(*) has no
    // argument and is side-agnostic.
    if !aggs
        .iter()
        .all(|a| a.arg.is_none_or(|c| side_cols.contains(&c)))
    {
        return vec![];
    }
    // A scalar global aggregate (empty G) turns COUNT's empty-input result
    // from 0 into SUM-over-nothing = NULL; exclude that combination.
    if group_by.is_empty()
        && aggs
            .iter()
            .any(|a| matches!(a.func, AggFunc::Count | AggFunc::CountStar))
    {
        return vec![];
    }
    // Partial grouping key: grouping and join-predicate columns of this side.
    let mut partial_keys: BTreeSet<_> = group_by
        .iter()
        .copied()
        .filter(|c| side_cols.contains(c))
        .collect();
    every_column(predicate, &mut |c| {
        if side_cols.contains(&c) {
            partial_keys.insert(c);
        }
        true
    });
    let mut ids = ctx.ids.borrow_mut();
    let locals: Vec<AggCall> = aggs
        .iter()
        .map(|a| AggCall::new(a.func, a.arg, ids.fresh()))
        .collect();
    let globals: Vec<AggCall> = aggs
        .iter()
        .zip(&locals)
        .map(|(orig, local)| {
            AggCall::new(orig.func.combining_func(), Some(local.output), orig.output)
        })
        .collect();
    let partial = NewTree::new(
        Operator::GbAgg {
            group_by: partial_keys.into_iter().collect(),
            aggs: locals,
        },
        vec![gref(&join.children[side])],
    );
    let mut join_children = vec![gref(&join.children[0]), gref(&join.children[1])];
    join_children[side] = NewChild::Tree(partial);
    vec![NewTree::new(
        Operator::GbAgg {
            group_by: group_by.clone(),
            aggs: globals,
        },
        vec![NewChild::Tree(NewTree::new(
            Operator::Join {
                kind: JoinKind::Inner,
                predicate: predicate.clone(),
            },
            join_children,
        ))],
    )]
}

fn eager_gbagg_push_left(ctx: &RuleCtx, b: &Bound) -> Vec<NewTree> {
    eager_push(ctx, b, 0)
}

fn eager_gbagg_push_right(ctx: &RuleCtx, b: &Bound) -> Vec<NewTree> {
    eager_push(ctx, b, 1)
}

/// `GbAgg[G; F](Get(T)) -> Project` when G covers a non-nullable unique key
/// of T: every row is its own group, so COUNT(*) is 1 and SUM/MIN/MAX of a
/// single value is the value itself. COUNT(col) is excluded (it would need
/// a conditional expression). A schema-dependent rule in the sense of §7.
fn gbagg_eliminate_on_key(ctx: &RuleCtx, b: &Bound) -> Vec<NewTree> {
    let Operator::GbAgg { group_by, aggs } = &b.op else {
        return vec![];
    };
    let Some(get) = b.children[0].nested() else {
        return vec![];
    };
    let Operator::Get { table, cols } = &get.op else {
        return vec![];
    };
    let Ok(def) = ctx.db.catalog.table(*table) else {
        return vec![];
    };
    let ordinals: Vec<usize> = group_by
        .iter()
        .filter_map(|g| cols.iter().position(|c| c == g))
        .collect();
    if ordinals.len() != group_by.len() || !def.ordinals_cover_key(&ordinals) {
        return vec![];
    }
    // The covering key must be non-nullable (NULL keys would not be unique
    // group identities). Primary keys are non-null by construction; check
    // anyway for secondary unique keys.
    let covering_non_null = {
        let check = |key: &[usize]| {
            key.iter().all(|k| ordinals.contains(k))
                && key.iter().all(|&k| !def.columns[k].nullable)
        };
        check(&def.primary_key) || def.unique_keys.iter().any(|k| check(k))
    };
    if !covering_non_null {
        return vec![];
    }
    if aggs.iter().any(|a| a.func == AggFunc::Count) {
        return vec![];
    }
    let mut outputs: Vec<(ruletest_common::ColId, Expr)> =
        group_by.iter().map(|&g| (g, Expr::col(g))).collect();
    for a in aggs {
        let e = match a.func {
            AggFunc::CountStar => Expr::lit(1i64),
            AggFunc::Sum | AggFunc::Min | AggFunc::Max => {
                Expr::col(a.arg.expect("non-star aggregates have arguments"))
            }
            AggFunc::Count => unreachable!("excluded above"),
        };
        outputs.push((a.output, e));
    }
    vec![NewTree::new(
        Operator::Project { outputs },
        vec![gref(&b.children[0])],
    )]
}

pub(super) fn rules() -> Vec<Rule> {
    vec![
        Rule::explore(
            "DistinctToGbAgg",
            PatternTree::kind(OpKind::Distinct, vec![any()]),
            "always applicable",
            distinct_to_gbagg,
        ),
        Rule::explore(
            "GbAggSplitLocalGlobal",
            PatternTree::kind(OpKind::GbAgg, vec![any()]),
            "all aggregates decomposable (always true for the supported set)",
            gbagg_split_local_global,
        )
        .minting_fresh_ids(),
        Rule::explore(
            "EagerGbAggPushBelowJoinLeft",
            PatternTree::kind(
                OpKind::GbAgg,
                vec![PatternTree::join(vec![JoinKind::Inner], any(), any())],
            ),
            "all aggregate arguments from the left input; no COUNT under a scalar aggregate",
            eager_gbagg_push_left,
        )
        .minting_fresh_ids(),
        Rule::explore(
            "EagerGbAggPushBelowJoinRight",
            PatternTree::kind(
                OpKind::GbAgg,
                vec![PatternTree::join(vec![JoinKind::Inner], any(), any())],
            ),
            "all aggregate arguments from the right input; no COUNT under a scalar aggregate",
            eager_gbagg_push_right,
        )
        .minting_fresh_ids(),
        Rule::explore(
            "GbAggEliminateOnKey",
            PatternTree::kind(OpKind::GbAgg, vec![PatternTree::kind(OpKind::Get, vec![])]),
            "grouping columns cover a non-nullable unique key; no COUNT(col) aggregate",
            gbagg_eliminate_on_key,
        ),
    ]
}

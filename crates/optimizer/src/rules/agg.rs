//! Aggregation transformation rules, including the paper's flagship example
//! of a precondition-laden rule: pushing a Group-By Aggregate below a join
//! (§1 cites [3]; we implement the Yan–Larson *eager aggregation* form,
//! which is unconditionally duplicate-correct because the join predicate's
//! columns are added to the partial grouping key).
//!
//! Three rules are [`Rewrite`]s; each comment names its pattern's nodes in
//! pre-order (see [`crate::rewrite::Node`]). Two stay code, each needing a
//! term no second rule uses (DESIGN §18): `DistinctToGbAgg` (grouping keys
//! from a group's schema) and `GbAggEliminateOnKey` (a covering-key test
//! and a projection per aggregate function).

use super::util::*;
use crate::pattern::PatternTree;
use crate::rewrite::{Aggs, Guard, Keys, Node, Rewrite, Target};
use crate::rule::{Bound, NewTree, Rule, RuleCtx};
use ruletest_expr::{AggFunc, Expr};
use ruletest_logical::{JoinKind, OpKind, Operator};

const ANY: PatternTree = PatternTree::Any;

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

/// Eager aggregation below input `side` of the inner join 1 under
/// `GbAgg0[G; F]`, whose inputs are 2 and 3: the partial aggregate
/// `GbAgg[(G ∪ cols(1)) ∩ cols(side); F](side)` replaces the input, and
/// `combine(F)` above the join re-expands multiplicities exactly.
///
/// Correct for inner joins because collapsing the side's rows that agree
/// on the partial key (which includes every join-predicate column of the
/// side) does not change which other-side rows each collapsed group joins
/// with.
fn eager_push(side: Node) -> Rewrite {
    let mut inputs = vec![Target::Group(2), Target::Group(3)];
    inputs[side - 2] = Target::gbagg(
        Keys::Partial {
            agg: 0,
            pred: 1,
            side,
        },
        Aggs::Local(0),
        Target::Group(side),
    );
    Rewrite {
        guards: vec![Guard::ArgsWithin { agg: 0, side }, Guard::NoScalarCount(0)],
        targets: vec![Target::gbagg(
            Keys::Of(0),
            Aggs::Global(0),
            Target::reemit(1, inputs),
        )],
    }
}

/// The aggregate rule set, in registration order.
pub(super) fn rules() -> Vec<Rule> {
    let gbagg = |child| PatternTree::kind(OpKind::GbAgg, vec![child]);
    let over_join = || gbagg(PatternTree::join(vec![JoinKind::Inner], ANY, ANY));
    vec![
        Rule::explore(
            "DistinctToGbAgg",
            PatternTree::kind(OpKind::Distinct, vec![ANY]),
            "always applicable",
            distinct_to_gbagg,
        ),
        // `GbAgg0[G; F](1) -> GbAgg[G; combine(F)](GbAgg[G; F](1))`, the
        // local/global split. Well-defined for the whole supported
        // aggregate set (COUNT combines via SUM; SUM/MIN/MAX are
        // self-combining).
        Rule::rewrite(
            "GbAggSplitLocalGlobal",
            gbagg(ANY),
            "all aggregates decomposable (always true for the supported set)",
            Rewrite {
                guards: vec![],
                targets: vec![Target::gbagg(
                    Keys::Of(0),
                    Aggs::Global(0),
                    Target::gbagg(Keys::Of(0), Aggs::Local(0), Target::Group(1)),
                )],
            },
        )
        .minting_fresh_ids(),
        Rule::rewrite(
            "EagerGbAggPushBelowJoinLeft",
            over_join(),
            "all aggregate arguments from the left input; no COUNT under a scalar aggregate",
            eager_push(2),
        )
        .minting_fresh_ids(),
        Rule::rewrite(
            "EagerGbAggPushBelowJoinRight",
            over_join(),
            "all aggregate arguments from the right input; no COUNT under a scalar aggregate",
            eager_push(3),
        )
        .minting_fresh_ids(),
        Rule::explore(
            "GbAggEliminateOnKey",
            gbagg(PatternTree::kind(OpKind::Get, vec![])),
            "grouping columns cover a non-nullable unique key; no COUNT(col) aggregate",
            gbagg_eliminate_on_key,
        ),
    ]
}

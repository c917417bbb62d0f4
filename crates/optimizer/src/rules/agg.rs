//! Aggregation transformation rules, including the paper's flagship example
//! of a precondition-laden rule: pushing a Group-By Aggregate below a join
//! (§1 cites [3]; we implement the Yan–Larson *eager aggregation* form,
//! which is unconditionally duplicate-correct because the join predicate's
//! columns are added to the partial grouping key).
//!
//! All five rules are [`Rewrite`]s; each comment names its pattern's nodes
//! in pre-order (see [`crate::rewrite::Node`]).

use crate::pattern::PatternTree;
use crate::rewrite::{Aggs, Guard, Keys, Node, Rewrite, Target};
use crate::rule::Rule;
use ruletest_logical::{JoinKind, OpKind};

const ANY: PatternTree = PatternTree::Any;

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
        // `Distinct0(1) -> GbAgg[every column of 1; no aggregates](1)`.
        Rule::rewrite(
            "DistinctToGbAgg",
            PatternTree::kind(OpKind::Distinct, vec![ANY]),
            "always applicable",
            Rewrite {
                guards: vec![],
                targets: vec![Target::gbagg(Keys::Schema(1), Aggs::None, Target::Group(1))],
            },
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
        // `GbAgg0[G; F](Get1) -> Project(Get1)` when G covers a non-nullable
        // unique key of the table: every group is one row, so COUNT(*) is 1
        // and SUM/MIN/MAX of one value is the value. COUNT(col) would need a
        // conditional expression. A schema-dependent rule in the sense of §7.
        Rule::rewrite(
            "GbAggEliminateOnKey",
            gbagg(PatternTree::kind(OpKind::Get, vec![])),
            "grouping columns cover a non-nullable unique key; no COUNT(col) aggregate",
            Rewrite {
                guards: vec![Guard::KeyCovered { agg: 0, get: 1 }, Guard::NoCount(0)],
                targets: vec![Target::SingleRow {
                    of: 0,
                    input: Box::new(Target::Group(1)),
                }],
            },
        ),
    ]
}

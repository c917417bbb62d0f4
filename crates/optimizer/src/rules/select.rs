//! Selection (filter) transformation rules: merging, splitting, pushdown
//! through every operator that admits it, and outer-join simplification.
//!
//! Ten rules are [`Rewrite`]s; each comment names its pattern's nodes in
//! pre-order (see [`crate::rewrite::Node`]). Three stay code, each needing a
//! term no second rule or mutant uses (DESIGN §18): `SelectSplit` (a first
//! conjunct and the rest), `SelectPushBelowProject` (substitution through
//! the projection) and `SelectPullAboveProject` (a pass-through remap).

use super::util::*;
use crate::pattern::PatternTree;
use crate::rewrite::{Guard, Kind, Pred, Rewrite, Scope, Target};
use crate::rule::{Bound, NewChild, NewTree, Rule, RuleCtx};
use ruletest_common::ColId;
use ruletest_expr::{conjoin, conjuncts, every_column, rewrite_columns, BinOp, Expr};
use ruletest_logical::{JoinKind, OpKind, Operator};

const ANY: PatternTree = PatternTree::Any;

fn select_op(predicate: Expr) -> Operator {
    Operator::Select { predicate }
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
    // Output ids are unique (the memo rejects a schema that repeats one).
    let rewritten = rewrite_columns(predicate, &mut |c| {
        outputs
            .iter()
            .find(|(id, _)| *id == c)
            .map(|(_, e)| e.clone())
    });
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
    // The first output that passes input column `c` through as a bare
    // reference.
    let passthrough = |c: ColId| {
        outputs
            .iter()
            .find_map(|(out, e)| matches!(e, Expr::Col(x) if *x == c).then_some(*out))
    };
    if !every_column(predicate, &mut |c| passthrough(c).is_some()) {
        return vec![];
    }
    let rewritten = rewrite_columns(predicate, &mut |c| passthrough(c).map(Expr::Col));
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

/// `σ0(2 op1 3)`: each conjunct of 0 that references only input 2 (or 3),
/// while op's kind is in that input's `kinds`, moves below the input; the
/// rest stay above `rejoin`. Nothing if no conjunct moves.
fn push_below_join(
    kinds: [Vec<JoinKind>; 2],
    rejoin: impl FnOnce(Target, Target) -> Target,
) -> Rewrite {
    let [left, right] = kinds;
    let input = |side, kinds| Scope::Input {
        join: 1,
        side,
        kinds,
    };
    Rewrite {
        guards: vec![
            Guard::Split {
                pred: 0,
                scopes: vec![input(0, left), input(1, right)],
            },
            Guard::NonEmpty(Pred::and(Pred::Part(0), Pred::Part(1))),
        ],
        targets: vec![Target::select_if_any(
            Pred::Remainder,
            rejoin(
                Target::select_if_any(Pred::Part(0), Target::Group(2)),
                Target::select_if_any(Pred::Part(1), Target::Group(3)),
            ),
        )],
    }
}

/// The select rule set, in registration order.
pub(super) fn rules() -> Vec<Rule> {
    use JoinKind::{FullOuter, Inner, LeftAnti, LeftOuter, LeftSemi, RightOuter};
    use Target::Group;
    let sel = |child| PatternTree::kind(OpKind::Select, vec![child]);
    // `σ0(1(2)) -> 1(σ0(2))` for the unary operator 1.
    let push_below_unary = |name, kind| {
        Rule::rewrite(
            name,
            sel(PatternTree::kind(kind, vec![ANY])),
            "always applicable",
            Rewrite {
                guards: vec![],
                targets: vec![Target::reemit(
                    1,
                    vec![Target::select(Pred::Of(0), Group(2))],
                )],
            },
        )
    };
    vec![
        // `σ0(σ1(2)) -> σ(0 AND 1)(2)`.
        Rule::rewrite(
            "SelectMerge",
            sel(sel(ANY)),
            "always applicable",
            Rewrite {
                guards: vec![],
                targets: vec![Target::select(
                    Pred::and(Pred::Of(0), Pred::Of(1)),
                    Group(2),
                )],
            },
        ),
        Rule::explore(
            "SelectSplit",
            sel(ANY),
            "predicate has at least two conjuncts",
            select_split,
        ),
        Rule::rewrite(
            "SelectPushBelowInnerJoin",
            sel(PatternTree::join(vec![Inner], ANY, ANY)),
            "some conjunct references only one join input",
            push_below_join([vec![Inner], vec![Inner]], |l, r| {
                Target::join(Inner, Pred::Of(1), l, r)
            }),
        ),
        // Only conjuncts over the *preserved* side may move below (pushing
        // a null-supplying-side conjunct below an outer join is the classic
        // correctness bug this framework exists to catch).
        Rule::rewrite(
            "SelectPushBelowOuterJoin",
            sel(PatternTree::join(vec![LeftOuter, RightOuter], ANY, ANY)),
            "some conjunct references only the preserved side",
            push_below_join([vec![LeftOuter], vec![RightOuter]], |l, r| {
                Target::reemit(1, vec![l, r])
            }),
        ),
        // `σ0(2 SEMI/ANTI1 3) -> σ0(2) SEMI/ANTI1 3`: the output is a subset
        // of 2's rows, so every conjunct references 2 only.
        Rule::rewrite(
            "SelectPushBelowSemiJoin",
            sel(PatternTree::join(vec![LeftSemi, LeftAnti], ANY, ANY)),
            "always applicable (semi/anti output is a subset of the left input)",
            Rewrite {
                guards: vec![],
                targets: vec![Target::reemit(
                    1,
                    vec![Target::select(Pred::Of(0), Group(2)), Group(3)],
                )],
            },
        ),
        Rule::explore(
            "SelectPushBelowProject",
            sel(PatternTree::kind(OpKind::Project, vec![ANY])),
            "always applicable (predicate rewritten by substitution)",
            select_push_below_project,
        ),
        Rule::explore(
            "SelectPullAboveProject",
            PatternTree::kind(OpKind::Project, vec![sel(ANY)]),
            "every predicate column survives the projection as a bare column",
            select_pull_above_project,
        ),
        // `σ0(2 ∪1 3) -> σ(2) ∪ σ(3)`, each with the predicate read over
        // its branch.
        Rule::rewrite(
            "SelectPushBelowUnionAll",
            sel(PatternTree::kind(OpKind::UnionAll, vec![ANY, ANY])),
            "always applicable",
            Rewrite {
                guards: vec![],
                targets: vec![Target::reemit(
                    1,
                    vec![
                        Target::select(Pred::branch(Pred::Of(0), 1, 0), Group(2)),
                        Target::select(Pred::branch(Pred::Of(0), 1, 1), Group(3)),
                    ],
                )],
            },
        ),
        // `σ0(GbAgg1(2))`: conjuncts over only the grouping columns commute
        // with the aggregation (the precondition the paper's §1 example
        // alludes to).
        Rule::rewrite(
            "SelectPushBelowGbAgg",
            sel(PatternTree::kind(OpKind::GbAgg, vec![ANY])),
            "some conjunct references only grouping columns",
            Rewrite {
                guards: vec![
                    Guard::Split {
                        pred: 0,
                        scopes: vec![Scope::GroupBy(1)],
                    },
                    Guard::NonEmpty(Pred::Part(0)),
                ],
                targets: vec![Target::select_if_any(
                    Pred::Remainder,
                    Target::reemit(1, vec![Target::select(Pred::Part(0), Group(2))]),
                )],
            },
        ),
        push_below_unary("SelectPushBelowSort", OpKind::Sort),
        push_below_unary("SelectPushBelowDistinct", OpKind::Distinct),
        // `σ0(2 ⋈1 3) -> 2 ⋈[0 AND 1] 3`, leaving out a TRUE join predicate
        // (subsumes cross-product-to-inner-join).
        Rule::rewrite(
            "SelectIntoInnerJoin",
            sel(PatternTree::join(vec![Inner], ANY, ANY)),
            "always applicable",
            Rewrite {
                guards: vec![],
                targets: vec![Target::join(
                    Inner,
                    Pred::Bin {
                        op: BinOp::And,
                        args: Box::new([Pred::Of(0), Pred::Of(1)]),
                        drop_true: true,
                    },
                    Group(2),
                    Group(3),
                )],
            },
        ),
        // `σ0(2 ⟗1 3) -> σ0(2 ⋈ 3)` under the stricter kind a filter that
        // rejects NULLs on a null-supplying side leaves.
        Rule::rewrite(
            "OuterJoinSimplify",
            sel(PatternTree::join(
                vec![LeftOuter, RightOuter, FullOuter],
                ANY,
                ANY,
            )),
            "filter is null-rejecting on a null-supplying side",
            Rewrite {
                guards: vec![Guard::NullRejecting { pred: 0, join: 1 }],
                targets: vec![Target::select(
                    Pred::Of(0),
                    Target::Join {
                        kind: Kind::Stricter,
                        pred: Pred::Of(1),
                        children: Box::new([Group(2), Group(3)]),
                    },
                )],
            },
        ),
    ]
}

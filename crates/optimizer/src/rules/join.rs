//! Join transformation rules.
//!
//! Includes the paper's running example (§3): the associativity of join and
//! left outer join — `R JOIN (S LOJ T) = (R JOIN S) LOJ T` when the join
//! predicate references only R and S — whose firing *enables* inner-join
//! commutativity on the new `(R JOIN S)` expression (a rule dependency).
//!
//! Every rule but the two union distributions is a [`Rewrite`]; each comment
//! names its pattern's nodes in pre-order (see [`crate::rewrite::Node`]).

use super::util::*;
use crate::pattern::PatternTree;
use crate::rewrite::{Guard, Pred, Rewrite, Target};
use crate::rule::{Bound, NewChild, NewTree, Rule, RuleCtx};
use ruletest_common::{ColId, WordBuild};
use ruletest_expr::Expr;
use ruletest_logical::{JoinKind, OpKind, Operator};
use std::collections::HashMap;

const ANY: PatternTree = PatternTree::Any;

fn join_op(kind: JoinKind, predicate: Expr) -> Operator {
    Operator::Join { kind, predicate }
}

/// The predicate as it reads over a union's left and right inputs.
fn remap_to_sides(
    predicate: &Expr,
    outputs: &[ColId],
    left: &[ColId],
    right: &[ColId],
) -> [Expr; 2] {
    [left, right].map(|side| {
        let map: HashMap<_, _, WordBuild> =
            outputs.iter().copied().zip(side.iter().copied()).collect();
        ruletest_expr::remap_columns(predicate, &map)
    })
}

/// Distributes a left-row-driven join over a union on its left input:
/// `(A UNION ALL B) op C -> (A op C) UNION ALL (B op C)` for
/// op ∈ {JOIN, LOJ, SEMI, ANTI}.
fn join_distribute_union_left(ctx: &RuleCtx, b: &Bound) -> Vec<NewTree> {
    let Operator::Join { kind, predicate } = &b.op else {
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
    let c = &b.children[1];
    let [pred_a, pred_b] = remap_to_sides(predicate, outputs, left_cols, right_cols);
    let join_a = NewTree::new(
        join_op(*kind, pred_a),
        vec![gref(&union.children[0]), gref(c)],
    );
    let join_b = NewTree::new(
        join_op(*kind, pred_b),
        vec![gref(&union.children[1]), gref(c)],
    );
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
    let [pred_a, pred_b] = remap_to_sides(predicate, outputs, left_cols, right_cols);
    let join_a = NewTree::new(
        join_op(*kind, pred_a),
        vec![gref(c), gref(&union.children[0])],
    );
    let join_b = NewTree::new(
        join_op(*kind, pred_b),
        vec![gref(c), gref(&union.children[1])],
    );
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

/// The join rule set, in registration order.
pub(super) fn rules() -> Vec<Rule> {
    use JoinKind::{FullOuter, Inner, LeftAnti, LeftOuter, LeftSemi, RightOuter};
    use Target::Group;
    let join = |kind, left, right| PatternTree::join(vec![kind], left, right);
    // 0 the join, 1 its left input, 2 its right: `1 op 2 -> 2 op' 1`.
    let commute = |name, from, to| {
        Rule::rewrite(
            name,
            join(from, ANY, ANY),
            "always applicable",
            Rewrite {
                guards: vec![],
                targets: vec![Target::join(to, Pred::Of(0), Group(2), Group(1))],
            },
        )
    };
    vec![
        // Output columns are a set, so no projection is needed.
        commute("InnerJoinCommute", Inner, Inner),
        // `(2 ⋈ 3) ⋈ 4 -> 2 ⋈ (3 ⋈ 4)`: the new lower join receives the
        // combined conjuncts over 3 ∪ 4, the upper join the rest.
        Rule::rewrite(
            "InnerJoinAssocLeft",
            join(Inner, join(Inner, ANY, ANY), ANY),
            "always applicable (conjuncts redistribute; lower join may become a cross product)",
            Rewrite {
                guards: vec![],
                targets: vec![Target::join(
                    Inner,
                    Pred::Rest(3, 4),
                    Group(2),
                    Target::join(Inner, Pred::Inside(3, 4), Group(3), Group(4)),
                )],
            },
        ),
        // `1 ⋈ (3 ⋈ 4) -> (1 ⋈ 3) ⋈ 4` — mirror of the above.
        Rule::rewrite(
            "InnerJoinAssocRight",
            join(Inner, ANY, join(Inner, ANY, ANY)),
            "always applicable",
            Rewrite {
                guards: vec![],
                targets: vec![Target::join(
                    Inner,
                    Pred::Rest(1, 3),
                    Target::join(Inner, Pred::Inside(1, 3), Group(1), Group(3)),
                    Group(4),
                )],
            },
        ),
        commute("LojCommute", LeftOuter, RightOuter),
        commute("RojCommute", RightOuter, LeftOuter),
        commute("FojCommute", FullOuter, FullOuter),
        // The paper's §3 example: `R JOIN (S LOJ T) -> (R JOIN S) LOJ T`
        // (R = 1, S = 3, T = 4).
        Rule::rewrite(
            "JoinLojAssoc",
            join(Inner, ANY, join(LeftOuter, ANY, ANY)),
            "inner-join predicate references only R and S",
            Rewrite {
                guards: vec![Guard::Scope {
                    pred: 0,
                    a: 1,
                    b: 3,
                }],
                targets: vec![Target::join(
                    LeftOuter,
                    Pred::Of(2),
                    Target::join(Inner, Pred::Of(0), Group(1), Group(3)),
                    Group(4),
                )],
            },
        ),
        // Its inverse: `(R JOIN S) LOJ T -> R JOIN (S LOJ T)` (R = 2, S = 3,
        // T = 4). The inner predicate already references only R ∪ S, a
        // subset of what it sees after the rotation.
        Rule::rewrite(
            "JoinLojAssocInv",
            join(LeftOuter, join(Inner, ANY, ANY), ANY),
            "outer-join predicate references only S and T",
            Rewrite {
                guards: vec![Guard::Scope {
                    pred: 0,
                    a: 3,
                    b: 4,
                }],
                targets: vec![Target::join(
                    Inner,
                    Pred::Of(1),
                    Group(2),
                    Target::join(LeftOuter, Pred::Of(0), Group(3), Group(4)),
                )],
            },
        ),
        Rule::explore(
            "JoinDistributeUnionLeft",
            PatternTree::join(
                vec![Inner, LeftOuter, LeftSemi, LeftAnti],
                PatternTree::kind(OpKind::UnionAll, vec![ANY, ANY]),
                ANY,
            ),
            "join kind is left-row-driven",
            join_distribute_union_left,
        ),
        Rule::explore(
            "JoinDistributeUnionRight",
            PatternTree::join(
                vec![Inner, RightOuter],
                ANY,
                PatternTree::kind(OpKind::UnionAll, vec![ANY, ANY]),
            ),
            "join kind is right-row-driven",
            join_distribute_union_right,
        ),
        // `1 SEMI 2 -> project_1(1 JOIN 2)` when the probe side 2 is a base
        // table and an equi conjunct hits one of its single-column unique
        // keys (each left row then matches at most one right row, so the
        // inner join cannot duplicate). A schema-dependent rule in the
        // sense of §7.
        Rule::rewrite(
            "SemiJoinToInnerOnKey",
            join(LeftSemi, ANY, PatternTree::kind(OpKind::Get, vec![])),
            "an equi conjunct hits a single-column unique key of the probe-side base table",
            Rewrite {
                guards: vec![Guard::UniqueKey { pred: 0, get: 2 }],
                targets: vec![Target::project(
                    1,
                    Target::join(Inner, Pred::Of(0), Group(1), Group(2)),
                )],
            },
        ),
        // `1 ANTI 2 -> project_1(filter[b IS NULL](1 LOJ 2))` where `b` is
        // a column of 2 in an equi conjunct (so matched rows always have it
        // non-null).
        Rule::rewrite(
            "AntiJoinToLojFilter",
            join(LeftAnti, ANY, ANY),
            "an equi conjunct provides a right-side probe column",
            Rewrite {
                guards: vec![Guard::Probe {
                    side: 2,
                    equi: Some(0),
                }],
                targets: vec![Target::project(
                    1,
                    Target::select(
                        Pred::ProbeIsNull,
                        Target::join(LeftOuter, Pred::Of(0), Group(1), Group(2)),
                    ),
                )],
            },
        ),
    ]
}

//! Join transformation rules.
//!
//! Includes the paper's running example (§3): the associativity of join and
//! left outer join — `R JOIN (S LOJ T) = (R JOIN S) LOJ T` when the join
//! predicate references only R and S — whose firing *enables* inner-join
//! commutativity on the new `(R JOIN S)` expression (a rule dependency).
//!
//! Every rule is a [`Rewrite`]; each comment names its pattern's nodes in
//! pre-order (see [`crate::rewrite::Node`]).

use crate::pattern::PatternTree;
use crate::rewrite::{Guard, Node, Pred, Rewrite, Target};
use crate::rule::Rule;
use ruletest_logical::{JoinKind, OpKind};

const ANY: PatternTree = PatternTree::Any;

/// A join of one of `kinds` with a union at input `side`.
fn join_union(kinds: Vec<JoinKind>, side: usize) -> PatternTree {
    let mut inputs = [ANY, ANY];
    inputs[side] = PatternTree::kind(OpKind::UnionAll, vec![ANY, ANY]);
    let [left, right] = inputs;
    PatternTree::join(kinds, left, right)
}

/// Distributes join 0 over the union at node `union`: per branch `i` the
/// join re-emitted over `inputs[i]` with its predicate read over that
/// branch, under a union whose lists gain the other join input's columns
/// `before` or `after` the old ones.
fn distribute(
    union: Node,
    inputs: [[Node; 2]; 2],
    before: Option<Node>,
    after: Option<Node>,
) -> Rewrite {
    let branch = |i: usize| Target::Reemit {
        node: 0,
        pred: Some(Pred::branch(Pred::Of(0), union, i)),
        inputs: inputs[i].map(Target::Group).into(),
    };
    Rewrite {
        guards: vec![],
        targets: vec![Target::Union {
            of: union,
            branches: [0, 1],
            before,
            after,
            inputs: Box::new([branch(0), branch(1)]),
        }],
    }
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
        // `(2 ∪1 3) op0 4 -> (2 op 4) ∪ (3 op 4)` for a left-row-driven op:
        // each branch joins with the predicate read over it, and the new
        // union's lists carry 4's columns after the old ones, where op
        // outputs them.
        Rule::rewrite(
            "JoinDistributeUnionLeft",
            join_union(vec![Inner, LeftOuter, LeftSemi, LeftAnti], 0),
            "join kind is left-row-driven",
            distribute(1, [[2, 4], [3, 4]], None, Some(4)),
        ),
        // `1 op0 (3 ∪2 4) -> (1 op 3) ∪ (1 op 4)` for op ∈ {JOIN, ROJ}, 1's
        // columns first.
        Rule::rewrite(
            "JoinDistributeUnionRight",
            join_union(vec![Inner, RightOuter], 1),
            "join kind is right-row-driven",
            distribute(2, [[1, 3], [1, 4]], Some(1), None),
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

//! The mutant catalog: buggy variants derived from the real rule set.
//!
//! Each mutant's `build` receives the real rule and changes one thing, in
//! one of three ways:
//! * *edited* mutants (18) change one part of an IR rule's [`Rewrite`] —
//!   delete a guard, change a target's join kind, connective or a split's
//!   scope, un-swap its inputs, reverse a predicate term, empty or repeat
//!   its targets, drop a residual or an outer operator, re-emit another
//!   node, read one union branch twice;
//! * *wrapped* mutants (1) keep a hand-coded rule's substitution and edit
//!   each substitute it returns (a limit bump);
//! * *rewritten* mutants (6) re-implement a hand-coded rule's substitution
//!   with one check or step deleted — the bug is inside the logic, so
//!   output transformation cannot express it. `EagerAggDropsJoinColumns`
//!   is one though its rule is in the IR: its guard (a non-empty grouping)
//!   is no edit of the rule's guards.
//!
//! Every mutant keeps the real rule's name (so the optimizer override
//! replaces it), pattern, and `mints_fresh_ids` flag; only the
//! substitution differs. `SelectMergedIntoOuterJoin` alone widens the
//! pattern, because that is its bug.

use super::{BugClass, Mutant, Verdict};
use ruletest_expr::{AggCall, AggFunc, BinOp, Expr};
use ruletest_logical::{JoinKind, OpKind, Operator};
use ruletest_optimizer::rewrite::{Guard, Pred, Scope, Target};
use ruletest_optimizer::rule::RuleCtx;
use ruletest_optimizer::{Bound, NewChild, NewTree, PatternTree, Rewrite, Rule, RuleAction};
use std::collections::BTreeSet;
use std::sync::Arc;

/// The real rule, by name, from the production catalog.
pub(super) fn real(name: &str) -> Rule {
    ruletest_optimizer::rules::exploration_rules()
        .into_iter()
        .find(|r| r.name == name)
        .unwrap_or_else(|| panic!("mutant targets unknown rule {name}"))
}

/// An edited mutant: `rule` with `edit` applied to its rewrite.
fn edited(mut rule: Rule, precondition: &'static str, edit: fn(&mut Rewrite)) -> Rule {
    let RuleAction::Rewrite(rewrite) = &mut rule.action else {
        unreachable!("{} is an IR rule", rule.name);
    };
    edit(rewrite);
    Rule {
        precondition,
        ..rule
    }
}

/// The join at or under the selects atop a rewrite's first target: its
/// kind, predicate term and inputs.
fn first_join(rewrite: &mut Rewrite) -> (&mut JoinKind, &mut Pred, &mut [Target; 2]) {
    fn walk(t: &mut Target) -> (&mut JoinKind, &mut Pred, &mut [Target; 2]) {
        match t {
            Target::Join {
                kind,
                pred,
                children,
            } => (kind, pred, children),
            Target::Select { input, .. } | Target::SelectIfAny { input, .. } => walk(input),
            _ => unreachable!("a join under selects"),
        }
    }
    walk(&mut rewrite.targets[0])
}

/// The join kinds under which a join pushdown's split moves conjuncts
/// below input `side`.
fn input_kinds(rewrite: &mut Rewrite, side: usize) -> &mut Vec<JoinKind> {
    match rewrite.guards.first_mut() {
        Some(Guard::Split { scopes, .. }) => match &mut scopes[side] {
            Scope::Input { kinds, .. } => kinds,
            Scope::GroupBy(_) => unreachable!("a join pushdown splits by input"),
        },
        _ => unreachable!("a pushdown splits first"),
    }
}

/// A wrapped mutant: `rule` with `edit` applied to each substitute.
fn wrapped(rule: Rule, precondition: &'static str, edit: fn(&mut NewTree)) -> Rule {
    Rule {
        precondition,
        ..rule
    }
    .wrap_explore(move |_, mut substitutes| {
        substitutes.iter_mut().for_each(edit);
        substitutes
    })
}

/// A rewritten mutant: `rule` with its substitution replaced by `f`.
fn rewritten(
    rule: Rule,
    precondition: &'static str,
    f: fn(&RuleCtx, &Bound) -> Vec<NewTree>,
) -> Rule {
    Rule {
        precondition,
        action: RuleAction::Explore(Arc::new(f)),
        ..rule
    }
}

// ---------------------------------------------------------------------
// Class 1: dropped preconditions.
// ---------------------------------------------------------------------

/// `OuterJoinSimplify` without the null-rejection analysis: every
/// filtered LOJ/ROJ becomes an inner join.
fn ojs_unconditional(_ctx: &RuleCtx, b: &Bound) -> Vec<NewTree> {
    let Operator::Select { predicate } = &b.op else {
        return vec![];
    };
    let Some(join) = b.children[0].nested() else {
        return vec![];
    };
    let Operator::Join { predicate: jp, .. } = &join.op else {
        return vec![];
    };
    vec![NewTree::new(
        Operator::Select {
            predicate: predicate.clone(),
        },
        vec![NewChild::Tree(NewTree::new(
            Operator::Join {
                kind: JoinKind::Inner,
                predicate: jp.clone(),
            },
            vec![
                NewChild::Group(join.children[0].group()),
                NewChild::Group(join.children[1].group()),
            ],
        ))],
    )]
}

/// `TopTopCollapse` without the identical-keys precondition: collapsing
/// differently-keyed Tops keeps the wrong `min(n,m)` rows.
fn top_top_any_keys(_ctx: &RuleCtx, b: &Bound) -> Vec<NewTree> {
    let Operator::Top { n, keys } = &b.op else {
        return vec![];
    };
    let Some(inner) = b.children[0].nested() else {
        return vec![];
    };
    let Operator::Top { n: m, .. } = &inner.op else {
        return vec![];
    };
    vec![NewTree::new(
        Operator::Top {
            n: (*n).min(*m),
            keys: keys.clone(),
        },
        vec![NewChild::Group(inner.children[0].group())],
    )]
}

// ---------------------------------------------------------------------
// Class 3: set/bag duplicate sensitivity.
// ---------------------------------------------------------------------

/// `DistinctToGbAgg` grouping by only the first column: collapses rows
/// that agree on it, and the output loses every other column.
fn distinct_to_gbagg_first_col(ctx: &RuleCtx, b: &Bound) -> Vec<NewTree> {
    if !matches!(b.op, Operator::Distinct) {
        return vec![];
    }
    let Some(first) = ctx
        .schema(b.children[0].group())
        .iter()
        .map(|c| c.id)
        .next()
    else {
        return vec![];
    };
    vec![NewTree::new(
        Operator::GbAgg {
            group_by: vec![first],
            aggs: vec![],
        },
        vec![NewChild::Group(b.children[0].group())],
    )]
}

// ---------------------------------------------------------------------
// Class 5: aggregate/TopN boundary bugs.
// ---------------------------------------------------------------------

/// `TopTopCollapse` taking `max(n, m)` instead of `min`.
fn top_top_max(_ctx: &RuleCtx, b: &Bound) -> Vec<NewTree> {
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
            n: (*n).max(*m),
            keys: keys.clone(),
        },
        vec![NewChild::Group(inner.children[0].group())],
    )]
}

/// `GbAggEliminateOnKey` without the no-COUNT precondition: when each
/// group is a single row, the real rule rewrites `SUM/MIN/MAX(x)` to
/// `x` but refuses `COUNT(x)` (whose value is 0 or 1, depending on
/// NULLness, never `x`). The mutant treats COUNT like the others — a
/// classic aggregate boundary bug at the NULL edge. The elimination
/// replaces an aggregate with a projection, so the cost model takes it.
fn gbagg_eliminate_count_unchecked(ctx: &RuleCtx, b: &Bound) -> Vec<NewTree> {
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
    // BUG: the no-COUNT guard is gone; COUNT(x) becomes x.
    let mut outputs: Vec<(ruletest_common::ColId, Expr)> =
        group_by.iter().map(|&g| (g, Expr::col(g))).collect();
    for a in aggs {
        let e = match a.func {
            AggFunc::CountStar => Expr::lit(1i64),
            _ => Expr::col(a.arg.expect("non-star aggregates have arguments")),
        };
        outputs.push((a.output, e));
    }
    vec![NewTree::new(
        Operator::Project { outputs },
        vec![NewChild::Group(b.children[0].group())],
    )]
}

/// Eager aggregation whose partial grouping key forgets the
/// join-predicate columns: side rows that differ on the join key are
/// collapsed before joining.
fn eager_push_drops_join_cols(ctx: &RuleCtx, b: &Bound) -> Vec<NewTree> {
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
    let side_cols = ctx.cols(join.children[0].group());
    if !aggs
        .iter()
        .all(|a| a.arg.is_none_or(|c| side_cols.contains(&c)))
    {
        return vec![];
    }
    if group_by.is_empty() {
        return vec![];
    }
    // BUG: the partial key keeps only the grouping columns of this side;
    // the join-predicate columns are missing.
    let partial_keys: BTreeSet<_> = group_by
        .iter()
        .copied()
        .filter(|c| side_cols.contains(c))
        .collect();
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
        vec![NewChild::Group(join.children[0].group())],
    );
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
            vec![
                NewChild::Tree(partial),
                NewChild::Group(join.children[1].group()),
            ],
        ))],
    )]
}

// ---------------------------------------------------------------------
// Class 6: cost-only / benign mutants (false-positive controls).
// ---------------------------------------------------------------------

/// The catalog, in stable declaration order (grouped by class).
static CATALOG: &[Mutant] = &[
    // -- dropped preconditions ----------------------------------------
    Mutant {
        id: "OuterJoinSimplifyUnconditional",
        class: BugClass::DroppedPrecondition,
        rule_name: "OuterJoinSimplify",
        expected: Verdict::DetectableStatic,
        note: "null-rejection check deleted; every filtered outer join becomes inner",
        build: |rule| rewritten(rule, "BUGGY: no null-rejection check", ojs_unconditional),
    },
    Mutant {
        id: "TopTopKeysCheckDropped",
        class: BugClass::DroppedPrecondition,
        rule_name: "TopTopCollapse",
        expected: Verdict::DetectableDynamic,
        note: "identical-keys precondition deleted; collapses differently-ordered Tops",
        build: |rule| {
            rewritten(
                rule,
                "BUGGY: collapses Tops with different sort keys",
                top_top_any_keys,
            )
        },
    },
    Mutant {
        id: "JoinLojAssocScopeDropped",
        class: BugClass::DroppedPrecondition,
        rule_name: "JoinLojAssoc",
        expected: Verdict::DetectableDynamic,
        note: "predicate-scope check deleted; rotation leaves columns unbound at runtime",
        build: |rule| {
            edited(
                rule,
                "BUGGY: no predicate-scope check before rotating",
                |rw| rw.guards.retain(|g| !matches!(g, Guard::Scope { .. })),
            )
        },
    },
    Mutant {
        id: "AntiJoinProbeCheckDropped",
        class: BugClass::DroppedPrecondition,
        rule_name: "AntiJoinToLojFilter",
        expected: Verdict::DetectableDynamic,
        note: "probe column tested on the preserved side, which is never NULL-padded",
        build: |rule| {
            edited(
                rule,
                "BUGGY: probe column taken from the preserved side",
                |rw| {
                    // The left input's first column, no equi conjunct.
                    rw.guards = vec![Guard::Probe {
                        side: 1,
                        equi: None,
                    }]
                },
            )
        },
    },
    // -- predicate misplacement ---------------------------------------
    Mutant {
        id: "PushBelowNullSupplyingSide",
        class: BugClass::PredicateMisplacement,
        rule_name: "SelectPushBelowOuterJoin",
        expected: Verdict::DetectableStatic,
        note: "conjuncts pushed below the null-supplying side of a LOJ",
        build: |rule| {
            edited(rule, "BUGGY: pushes below the null-supplying side", |rw| {
                // A left outer join's conjuncts move right; nothing moves
                // below a right outer join.
                *input_kinds(rw, 0) = vec![];
                *input_kinds(rw, 1) = vec![JoinKind::LeftOuter];
            })
        },
    },
    Mutant {
        id: "SelectMergedIntoOuterJoin",
        class: BugClass::PredicateMisplacement,
        rule_name: "SelectIntoInnerJoin",
        expected: Verdict::DetectableStatic,
        note: "filter merged into a left outer join's ON clause",
        build: |rule| Rule {
            // The real rule only matches inner joins; the sabotaged one widened
            // its pattern to left outer joins, so the mutant carries it too.
            pattern: PatternTree::kind(
                OpKind::Select,
                vec![PatternTree::join(
                    vec![JoinKind::LeftOuter],
                    PatternTree::Any,
                    PatternTree::Any,
                )],
            ),
            ..edited(
                rule,
                "BUGGY: merges the filter into an outer join's ON clause",
                |rw| *first_join(rw).0 = JoinKind::LeftOuter,
            )
        },
    },
    Mutant {
        id: "SelectPushDropsResidualConjuncts",
        class: BugClass::PredicateMisplacement,
        rule_name: "SelectPushBelowInnerJoin",
        expected: Verdict::DetectableDynamic,
        note: "pushdown drops the residual cross-input conjuncts",
        build: |rule| {
            edited(
                rule,
                "BUGGY: residual cross-input conjuncts dropped during pushdown",
                |rw| {
                    // Fires only when there is a residual, and drops it.
                    rw.guards[1] = Guard::NonEmpty(Pred::Remainder);
                    let Some(Target::SelectIfAny { input, .. }) = rw.targets.pop() else {
                        unreachable!("the residual selects over the join");
                    };
                    rw.targets.push(*input);
                },
            )
        },
    },
    Mutant {
        id: "SelectMergeWithOr",
        class: BugClass::PredicateMisplacement,
        rule_name: "SelectMerge",
        expected: Verdict::DetectableDynamic,
        note: "stacked filters merged with OR instead of AND",
        build: |rule| {
            edited(rule, "BUGGY: merges stacked filters with OR", |rw| {
                let [Target::Select {
                    pred: Pred::Bin { op, .. },
                    ..
                }] = &mut rw.targets[..]
                else {
                    unreachable!("a merge selects by a connective");
                };
                *op = BinOp::Or;
            })
        },
    },
    Mutant {
        id: "SelectPushBelowGbAggUnchecked",
        class: BugClass::PredicateMisplacement,
        rule_name: "SelectPushBelowGbAgg",
        expected: Verdict::DetectableStatic,
        note: "aggregate-output conjuncts pushed below the aggregate (unbound)",
        build: |rule| {
            edited(
                rule,
                "BUGGY: pushes aggregate-output conjuncts below the aggregate",
                |rw| {
                    // No split: the whole predicate moves, whatever it
                    // references.
                    rw.guards.clear();
                    rw.targets = vec![Target::reemit(
                        1,
                        vec![Target::select(Pred::Of(0), Target::Group(2))],
                    )];
                },
            )
        },
    },
    // -- duplicate sensitivity ----------------------------------------
    Mutant {
        id: "SemiJoinKeyCheckDropped",
        class: BugClass::DuplicateSensitivity,
        rule_name: "SemiJoinToInnerOnKey",
        expected: Verdict::DetectableDynamic,
        note: "unique-key precondition deleted; inner join duplicates left rows",
        build: |rule| {
            edited(rule, "BUGGY: no unique-key check on the probe side", |rw| {
                rw.guards.retain(|g| !matches!(g, Guard::UniqueKey { .. }))
            })
        },
    },
    Mutant {
        id: "DistinctPushDropsOuter",
        class: BugClass::DuplicateSensitivity,
        rule_name: "DistinctPushBelowUnionAll",
        expected: Verdict::DetectableStatic,
        note: "outer Distinct dropped; cross-branch duplicates survive",
        build: |rule| {
            edited(
                rule,
                "BUGGY: outer Distinct dropped (UNION as UNION ALL)",
                |rw| {
                    let Some(Target::Reemit { mut inputs, .. }) = rw.targets.pop() else {
                        unreachable!("the outer Distinct re-emits");
                    };
                    rw.targets.append(&mut inputs);
                },
            )
        },
    },
    Mutant {
        id: "DistinctGroupsFirstColumnOnly",
        class: BugClass::DuplicateSensitivity,
        rule_name: "DistinctToGbAgg",
        expected: Verdict::DetectableStatic,
        note: "grouping key shrunk to the first column; schema and rows both wrong",
        build: |rule| {
            rewritten(
                rule,
                "BUGGY: groups by the first column only",
                distinct_to_gbagg_first_col,
            )
        },
    },
    Mutant {
        id: "UnionAllCommuteLeftTwice",
        class: BugClass::DuplicateSensitivity,
        rule_name: "UnionAllCommute",
        expected: Verdict::DetectableDynamic,
        note: "left branch unioned with itself; right branch's rows vanish",
        build: |rule| {
            edited(rule, "BUGGY: emits the left child on both sides", |rw| {
                let [Target::Union {
                    branches, inputs, ..
                }] = &mut rw.targets[..]
                else {
                    unreachable!("a commute emits one union");
                };
                // Branch 0's list and input, twice.
                *branches = [0, 0];
                **inputs = [Target::Group(1), Target::Group(1)];
            })
        },
    },
    // -- operand corruption -------------------------------------------
    Mutant {
        id: "LojCommuteKeepsKind",
        class: BugClass::OperandCorruption,
        rule_name: "LojCommute",
        expected: Verdict::DetectableStatic,
        note: "children swapped but the kind stays LeftOuter",
        build: |rule| {
            edited(rule, "BUGGY: kind not flipped with the children", |rw| {
                *first_join(rw).0 = JoinKind::LeftOuter
            })
        },
    },
    Mutant {
        id: "RojCommuteForgetsSwap",
        class: BugClass::OperandCorruption,
        rule_name: "RojCommute",
        expected: Verdict::DetectableStatic,
        note: "kind rewritten to LeftOuter without swapping the children",
        build: |rule| {
            edited(
                rule,
                "BUGGY: kind rewritten without swapping the children",
                |rw| first_join(rw).2.swap(0, 1),
            )
        },
    },
    Mutant {
        id: "FojCommuteDemotedToLoj",
        class: BugClass::OperandCorruption,
        rule_name: "FojCommute",
        expected: Verdict::DetectableStatic,
        note: "full outer commuted into a left outer",
        build: |rule| {
            edited(rule, "BUGGY: full outer demoted to left outer", |rw| {
                *first_join(rw).0 = JoinKind::LeftOuter
            })
        },
    },
    Mutant {
        id: "PushBelowJoinCorruptsKind",
        class: BugClass::OperandCorruption,
        rule_name: "SelectPushBelowInnerJoin",
        expected: Verdict::DetectableStatic,
        note: "rebuilt inner join comes back as a left outer join",
        build: |rule| {
            edited(
                rule,
                "BUGGY: rebuilt join kind corrupted to left outer",
                |rw| *first_join(rw).0 = JoinKind::LeftOuter,
            )
        },
    },
    // -- aggregate/TopN boundary --------------------------------------
    Mutant {
        id: "TopTopCollapseOffByOne",
        class: BugClass::BoundaryBug,
        rule_name: "TopTopCollapse",
        expected: Verdict::DetectableDynamic,
        note: "collapsed limit is min(n, m) + 1",
        build: |rule| {
            wrapped(rule, "BUGGY: collapsed limit is min(n, m) + 1", |t| {
                if let Operator::Top { n, .. } = &mut t.op {
                    *n += 1;
                }
            })
        },
    },
    Mutant {
        id: "TopTopCollapseTakesMax",
        class: BugClass::BoundaryBug,
        rule_name: "TopTopCollapse",
        expected: Verdict::DetectableDynamic,
        note: "collapsed limit is max(n, m)",
        build: |rule| {
            rewritten(
                rule,
                "BUGGY: keeps max(n, m) rows instead of min",
                top_top_max,
            )
        },
    },
    Mutant {
        id: "GbAggEliminateMiscountsNulls",
        class: BugClass::BoundaryBug,
        rule_name: "GbAggEliminateOnKey",
        expected: Verdict::DetectableDynamic,
        note: "COUNT(x) eliminated to x instead of 0/1 on single-row groups",
        build: |rule| {
            rewritten(
                rule,
                "BUGGY: COUNT survives key-based elimination as an identity",
                gbagg_eliminate_count_unchecked,
            )
        },
    },
    Mutant {
        id: "EagerAggDropsJoinColumns",
        class: BugClass::BoundaryBug,
        rule_name: "EagerGbAggPushBelowJoinLeft",
        expected: Verdict::DetectableStatic,
        note: "partial grouping key omits the join-predicate columns",
        build: |rule| {
            rewritten(
                rule,
                "BUGGY: partial grouping key omits the join-predicate columns",
                eager_push_drops_join_cols,
            )
        },
    },
    // -- cost-only / benign -------------------------------------------
    Mutant {
        id: "InnerJoinCommuteSuppressed",
        class: BugClass::CostOnly,
        rule_name: "InnerJoinCommute",
        expected: Verdict::Benign,
        note: "rule never fires; the search space shrinks, results cannot change",
        build: |rule| {
            edited(rule, "BUGGY(benign): substitution never fires", |rw| {
                rw.targets.clear()
            })
        },
    },
    Mutant {
        id: "SortCollapseKeepsInnerKeys",
        class: BugClass::CostOnly,
        rule_name: "SortCollapse",
        expected: Verdict::Benign,
        note: "wrong sort keys win; order is presentation-only under the multiset oracle",
        build: |rule| {
            edited(
                rule,
                "BUGGY(benign): inner sort keys win (order is presentation-only)",
                |rw| {
                    let [Target::Reemit { node, .. }] = &mut rw.targets[..] else {
                        unreachable!("a collapse re-emits one sort");
                    };
                    *node = 1;
                },
            )
        },
    },
    Mutant {
        id: "InnerJoinCommuteDuplicated",
        class: BugClass::CostOnly,
        rule_name: "InnerJoinCommute",
        expected: Verdict::Benign,
        note: "substitute emitted twice; the memo deduplicates it",
        build: |rule| {
            edited(rule, "BUGGY(benign): substitute emitted twice", |rw| {
                rw.targets.extend_from_within(..)
            })
        },
    },
    Mutant {
        id: "InnerJoinCommuteReordersConjuncts",
        class: BugClass::CostOnly,
        rule_name: "InnerJoinCommute",
        expected: Verdict::Benign,
        note: "conjunct order flipped in the commuted predicate; same semantics",
        build: |rule| {
            edited(
                rule,
                "BUGGY(benign): conjuncts reordered in the commuted predicate",
                |rw| {
                    let pred = first_join(rw).1;
                    *pred = Pred::Reversed(Box::new(pred.clone()))
                },
            )
        },
    },
];

pub(super) fn all() -> &'static [Mutant] {
    CATALOG
}

#[cfg(test)]
mod tests {
    use super::*;
    use ruletest_logical::{IdGen, LogicalTree};
    use ruletest_optimizer::rule::newtree_from_logical;
    use ruletest_optimizer::{match_bindings, GroupId, Memo};
    use ruletest_storage::{tpch_database, TpchConfig};
    use std::cell::RefCell;

    /// A mutant replaces its rule by name and differs only in what the
    /// substitution does: kind, mints flag and pattern are the real
    /// rule's, or the override would change scheduling rather than
    /// semantics. The one exception is `SelectMergedIntoOuterJoin`,
    /// whose widened pattern is the bug.
    #[test]
    fn mutants_preserve_rule_registration_metadata() {
        for m in Mutant::all() {
            let real = real(m.rule_name);
            let mutated = m.rule();
            assert_eq!(mutated.kind, real.kind, "{}", m.id);
            assert_eq!(
                mutated.mints_fresh_ids, real.mints_fresh_ids,
                "{}: mints_fresh_ids flag lost",
                m.id
            );
            assert_eq!(
                mutated.pattern == real.pattern,
                m.id != "SelectMergedIntoOuterJoin",
                "{}: pattern",
                m.id
            );
        }
    }

    /// An edited mutant's rewrite is not its real rule's: an edit that
    /// changed nothing would pass every golden as a silent no-op.
    #[test]
    fn edited_mutants_differ_from_their_real_rewrites() {
        let mut edited = 0;
        for m in Mutant::all() {
            let RuleAction::Rewrite(mutated) = &m.rule().action else {
                continue;
            };
            let RuleAction::Rewrite(real) = &real(m.rule_name).action else {
                panic!("{}: an edit of a rule outside the IR", m.id);
            };
            assert_ne!(mutated, real, "{}", m.id);
            edited += 1;
        }
        assert_eq!(edited, 18);
    }

    /// What `rule` substitutes for `region ⋈ nation` joined with `kind`,
    /// as (root join kind, child groups) per substitute, and the join's
    /// own (left, right) groups.
    fn commutes(rule: &Rule, kind: JoinKind) -> (Vec<(JoinKind, Vec<GroupId>)>, [GroupId; 2]) {
        let db = tpch_database(&TpchConfig::default()).unwrap();
        let mut ids = IdGen::new();
        let l = LogicalTree::get(db.catalog.table_by_name("region").unwrap(), &mut ids);
        let r = LogicalTree::get(db.catalog.table_by_name("nation").unwrap(), &mut ids);
        let pred = Expr::eq(Expr::col(l.output_col(0)), Expr::col(r.output_col(2)));
        let tree = newtree_from_logical(&LogicalTree::join(kind, l, r, pred));
        let mut memo = Memo::new();
        let (root, _) = memo.insert(&db, tree, None, true).unwrap();
        let ids = RefCell::new(ids);
        let ctx = RuleCtx {
            db: &db,
            memo: &memo,
            ids: &ids,
        };
        let substitutes = match_bindings(&memo, &rule.pattern, root, 0)
            .iter()
            .flat_map(|b| rule.action.apply_explore(&ctx, b).unwrap())
            .map(|t| {
                let Operator::Join { kind, .. } = t.op else {
                    panic!("a commute substitutes a join");
                };
                let children = t.children.iter().map(|c| match c {
                    NewChild::Group(g) => *g,
                    NewChild::Tree(_) => panic!("a commute references existing groups"),
                });
                (kind, children.collect())
            })
            .collect();
        let join = &memo.group(root).exprs[0].children;
        (substitutes, [join[0], join[1]])
    }

    #[test]
    fn kind_edited_commutes_keep_the_real_child_order() {
        // Each mutant swaps the children as its rule does but emits a
        // left outer join where the rule emits `real_kind`.
        for (id, kind, real_kind) in [
            (
                "LojCommuteKeepsKind",
                JoinKind::LeftOuter,
                JoinKind::RightOuter,
            ),
            (
                "FojCommuteDemotedToLoj",
                JoinKind::FullOuter,
                JoinKind::FullOuter,
            ),
        ] {
            let m = Mutant::by_id(id).unwrap();
            let (real, [l, r]) = commutes(&real(m.rule_name), kind);
            let (mutated, _) = commutes(&m.rule(), kind);
            assert_eq!(real, vec![(real_kind, vec![r, l])], "{id}: the real rule");
            assert_eq!(mutated, vec![(JoinKind::LeftOuter, vec![r, l])], "{id}");
        }
    }
}

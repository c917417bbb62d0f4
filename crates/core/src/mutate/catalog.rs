//! The mutant catalog: buggy variants derived from the real rule set.
//!
//! Two derivation styles:
//! * *wrapped* mutants keep the real rule's substitution and transform
//!   its output (child swaps, join-kind corruption, limit bumps) — the
//!   systematic form, enabled by `RuleAction::ExploreDyn`;
//! * *rewritten* mutants re-implement the substitution with one check
//!   or step deleted (dropped preconditions, dropped conjuncts) — the
//!   bug is inside the logic, so output transformation cannot express
//!   it.
//!
//! Every mutant keeps the real rule's name (so the optimizer override
//! replaces it), pattern, and `mints_fresh_ids` flag; only the
//! substitution differs.

use super::{BugClass, Mutant, Verdict};
use ruletest_expr::{conjoin, conjuncts, AggCall, AggFunc, Expr};
use ruletest_logical::{JoinKind, OpKind, Operator};
use ruletest_optimizer::rule::RuleCtx;
use ruletest_optimizer::{Bound, NewChild, NewTree, PatternTree, Rule, RuleAction};
use std::collections::BTreeSet;
use std::sync::Arc;

/// The real rule, by name, from the production catalog.
fn real(name: &str) -> Rule {
    ruletest_optimizer::rules::exploration_rules()
        .into_iter()
        .find(|r| r.name == name)
        .unwrap_or_else(|| panic!("mutant targets unknown rule {name}"))
}

/// A rewritten mutant: the real rule's pattern and flags with a
/// replacement substitution.
fn rewritten(
    name: &'static str,
    precondition: &'static str,
    f: fn(&RuleCtx, &Bound) -> Vec<NewTree>,
) -> Rule {
    let r = real(name);
    let mut rule = Rule::explore(r.name, r.pattern, precondition, f);
    rule.mints_fresh_ids = r.mints_fresh_ids;
    rule
}

/// A wrapped mutant: the real rule's substitution with `transform`
/// applied to its output.
fn wrapped(
    name: &'static str,
    precondition: &'static str,
    transform: impl Fn(Vec<NewTree>) -> Vec<NewTree> + Send + Sync + 'static,
) -> Rule {
    let r = real(name);
    let RuleAction::Explore(f) = r.action else {
        panic!("wrapped mutants derive from fn-pointer exploration rules");
    };
    let mut rule = Rule::explore_dyn(
        r.name,
        r.pattern,
        precondition,
        Arc::new(move |ctx: &RuleCtx, b: &Bound| transform(f(ctx, b))),
    );
    rule.mints_fresh_ids = r.mints_fresh_ids;
    rule
}

/// Rewrites the kind of the first `Join` operator found on the spine of
/// a substitute (depth-first).
fn corrupt_first_join_kind(tree: &mut NewTree, from: JoinKind, to: JoinKind) -> bool {
    if let Operator::Join { kind, .. } = &mut tree.op {
        if *kind == from {
            *kind = to;
            return true;
        }
    }
    for c in &mut tree.children {
        if let NewChild::Tree(t) = c {
            if corrupt_first_join_kind(t, from, to) {
                return true;
            }
        }
    }
    false
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

/// `SemiJoinToInnerOnKey` without the unique-key check: the inner join
/// duplicates left rows whenever the probe matches more than once.
fn semi_to_inner_no_key_check(ctx: &RuleCtx, b: &Bound) -> Vec<NewTree> {
    let Operator::Join { predicate, .. } = &b.op else {
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
            Operator::Join {
                kind: JoinKind::Inner,
                predicate: predicate.clone(),
            },
            vec![
                NewChild::Group(b.children[0].group()),
                NewChild::Group(b.children[1].group()),
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

/// `JoinLojAssoc` without the predicate-scope check: rotates even when
/// the inner-join predicate references T, leaving it unbound below.
fn join_loj_assoc_no_scope_check(_ctx: &RuleCtx, b: &Bound) -> Vec<NewTree> {
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
    vec![NewTree::new(
        Operator::Join {
            kind: JoinKind::LeftOuter,
            predicate: q.clone(),
        },
        vec![
            NewChild::Tree(NewTree::new(
                Operator::Join {
                    kind: JoinKind::Inner,
                    predicate: p.clone(),
                },
                vec![NewChild::Group(r.group()), NewChild::Group(s.group())],
            )),
            NewChild::Group(t.group()),
        ],
    )]
}

/// `AntiJoinToLojFilter` with the probe column taken from the *left*
/// schema — a side confusion: `IS NULL(left col)` tests the preserved
/// side, which is never NULL-padded, so matched and unmatched rows are
/// kept or dropped by their own data instead of by match status.
fn anti_probe_wrong_side(ctx: &RuleCtx, b: &Bound) -> Vec<NewTree> {
    let Operator::Join { predicate, .. } = &b.op else {
        return vec![];
    };
    let Some(probe_col) = ctx
        .schema(b.children[0].group())
        .iter()
        .map(|c| c.id)
        .next()
    else {
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
                Operator::Join {
                    kind: JoinKind::LeftOuter,
                    predicate: predicate.clone(),
                },
                vec![
                    NewChild::Group(b.children[0].group()),
                    NewChild::Group(b.children[1].group()),
                ],
            ))],
        ))],
    )]
}

// ---------------------------------------------------------------------
// Class 2: predicate misplacement.
// ---------------------------------------------------------------------

/// `SelectPushBelowOuterJoin` pushing conjuncts below the
/// *null-supplying* side of a LOJ.
fn push_below_null_side(ctx: &RuleCtx, b: &Bound) -> Vec<NewTree> {
    let Operator::Select { predicate } = &b.op else {
        return vec![];
    };
    let Some(join) = b.children[0].nested() else {
        return vec![];
    };
    let Operator::Join {
        kind,
        predicate: jp,
    } = &join.op
    else {
        return vec![];
    };
    if *kind != JoinKind::LeftOuter {
        return vec![];
    }
    let right_cols = ctx.cols(join.children[1].group());
    let (push, keep): (Vec<Expr>, Vec<Expr>) = conjuncts(predicate)
        .into_iter()
        .partition(|c| ruletest_expr::columns_of(c).is_subset(right_cols));
    if push.is_empty() {
        return vec![];
    }
    let pushed = NewTree::new(
        Operator::Select {
            predicate: conjoin(push),
        },
        vec![NewChild::Group(join.children[1].group())],
    );
    let new_join = NewTree::new(
        Operator::Join {
            kind: *kind,
            predicate: jp.clone(),
        },
        vec![
            NewChild::Group(join.children[0].group()),
            NewChild::Tree(pushed),
        ],
    );
    vec![if keep.is_empty() {
        new_join
    } else {
        NewTree::new(
            Operator::Select {
                predicate: conjoin(keep),
            },
            vec![NewChild::Tree(new_join)],
        )
    }]
}

/// `SelectIntoInnerJoin` applied to a left outer join: filtered-out rows
/// come back NULL-padded.
fn select_into_outer_join(_ctx: &RuleCtx, b: &Bound) -> Vec<NewTree> {
    let Operator::Select { predicate } = &b.op else {
        return vec![];
    };
    let Some(join) = b.children[0].nested() else {
        return vec![];
    };
    let Operator::Join {
        kind,
        predicate: jp,
    } = &join.op
    else {
        return vec![];
    };
    if *kind != JoinKind::LeftOuter {
        return vec![];
    }
    let merged = if jp.is_true_lit() {
        predicate.clone()
    } else {
        Expr::and(predicate.clone(), jp.clone())
    };
    vec![NewTree::new(
        Operator::Join {
            kind: *kind,
            predicate: merged,
        },
        vec![
            NewChild::Group(join.children[0].group()),
            NewChild::Group(join.children[1].group()),
        ],
    )]
}

/// `SelectPushBelowInnerJoin` that pushes the single-side conjuncts
/// correctly but silently drops the residual cross-input conjuncts
/// instead of keeping them above the join. The buggy plan joins
/// *smaller* (filtered) inputs, so the cost model prefers it — the
/// mutation is reachable precisely because it looks like a win.
fn select_push_drops_residual(ctx: &RuleCtx, b: &Bound) -> Vec<NewTree> {
    let Operator::Select { predicate } = &b.op else {
        return vec![];
    };
    let Some(join) = b.children[0].nested() else {
        return vec![];
    };
    let Operator::Join { predicate: jp, .. } = &join.op else {
        return vec![];
    };
    let left_cols = ctx.cols(join.children[0].group());
    let right_cols = ctx.cols(join.children[1].group());
    let mut to_left = Vec::new();
    let mut to_right = Vec::new();
    let mut dropped = false;
    for c in conjuncts(predicate) {
        let cols = ruletest_expr::columns_of(&c);
        if cols.is_subset(left_cols) {
            to_left.push(c);
        } else if cols.is_subset(right_cols) {
            to_right.push(c);
        } else {
            dropped = true;
        }
    }
    // Only fire in the buggy case, where a residual conjunct vanishes.
    if !dropped {
        return vec![];
    }
    let side = |push: Vec<Expr>, g: ruletest_optimizer::GroupId| {
        if push.is_empty() {
            NewChild::Group(g)
        } else {
            NewChild::Tree(NewTree::new(
                Operator::Select {
                    predicate: conjoin(push),
                },
                vec![NewChild::Group(g)],
            ))
        }
    };
    vec![NewTree::new(
        Operator::Join {
            kind: JoinKind::Inner,
            predicate: jp.clone(),
        },
        vec![
            side(to_left, join.children[0].group()),
            side(to_right, join.children[1].group()),
        ],
    )]
}

/// `SelectMerge` joining the two predicates with OR instead of AND.
fn select_merge_or(_ctx: &RuleCtx, b: &Bound) -> Vec<NewTree> {
    let Operator::Select { predicate: p } = &b.op else {
        return vec![];
    };
    let Some(inner) = b.children[0].nested() else {
        return vec![];
    };
    let Operator::Select { predicate: q } = &inner.op else {
        return vec![];
    };
    vec![NewTree::new(
        Operator::Select {
            predicate: Expr::or(p.clone(), q.clone()),
        },
        vec![NewChild::Group(inner.children[0].group())],
    )]
}

/// `SelectPushBelowGbAgg` pushing *every* conjunct below the aggregate,
/// including those over aggregate outputs (unbound below).
fn select_push_below_gbagg_all(_ctx: &RuleCtx, b: &Bound) -> Vec<NewTree> {
    let Operator::Select { predicate } = &b.op else {
        return vec![];
    };
    let Some(agg) = b.children[0].nested() else {
        return vec![];
    };
    let Operator::GbAgg { group_by, aggs } = &agg.op else {
        return vec![];
    };
    vec![NewTree::new(
        Operator::GbAgg {
            group_by: group_by.clone(),
            aggs: aggs.clone(),
        },
        vec![NewChild::Tree(NewTree::new(
            Operator::Select {
                predicate: predicate.clone(),
            },
            vec![NewChild::Group(agg.children[0].group())],
        ))],
    )]
}

// ---------------------------------------------------------------------
// Class 3: set/bag duplicate sensitivity.
// ---------------------------------------------------------------------

/// `DistinctPushBelowUnionAll` that drops the outer Distinct — the
/// classic UNION-as-UNION-ALL bug: cross-branch duplicates survive.
fn distinct_union_no_outer(_ctx: &RuleCtx, b: &Bound) -> Vec<NewTree> {
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
        union.op.clone(),
        vec![
            NewChild::Tree(NewTree::new(
                Operator::Distinct,
                vec![NewChild::Group(union.children[0].group())],
            )),
            NewChild::Tree(NewTree::new(
                Operator::Distinct,
                vec![NewChild::Group(union.children[1].group())],
            )),
        ],
    )]
}

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

/// `UnionAllCommute` emitting the left child twice: one branch's rows
/// doubled, the other's dropped.
fn union_commute_left_twice(_ctx: &RuleCtx, b: &Bound) -> Vec<NewTree> {
    let Operator::UnionAll {
        outputs, left_cols, ..
    } = &b.op
    else {
        return vec![];
    };
    vec![NewTree::new(
        Operator::UnionAll {
            outputs: outputs.clone(),
            left_cols: left_cols.clone(),
            right_cols: left_cols.clone(),
        },
        vec![
            NewChild::Group(b.children[0].group()),
            NewChild::Group(b.children[0].group()),
        ],
    )]
}

// ---------------------------------------------------------------------
// Class 4: operand swaps and join-kind corruption.
// ---------------------------------------------------------------------

/// `RojCommute` that rewrites the kind but forgets to swap the
/// children: `A ROJ B` becomes `A LOJ B` (preserved side flips).
fn roj_commute_no_swap(_ctx: &RuleCtx, b: &Bound) -> Vec<NewTree> {
    let Operator::Join { predicate, .. } = &b.op else {
        return vec![];
    };
    vec![NewTree::new(
        Operator::Join {
            kind: JoinKind::LeftOuter,
            predicate: predicate.clone(),
        },
        vec![
            NewChild::Group(b.children[0].group()),
            NewChild::Group(b.children[1].group()),
        ],
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

/// `InnerJoinCommute` whose substitution never fires: plan choice
/// shrinks, results cannot change.
fn commute_suppressed(_ctx: &RuleCtx, _b: &Bound) -> Vec<NewTree> {
    vec![]
}

/// `SortCollapse` keeping the *inner* sort's keys. Wrong order — but
/// the §2.3 oracle compares result multisets, and ORDER BY is
/// presentation-only, so this must not be reported as a bug.
fn sort_collapse_keeps_inner(_ctx: &RuleCtx, b: &Bound) -> Vec<NewTree> {
    if !matches!(b.op, Operator::Sort { .. }) {
        return vec![];
    }
    let Some(inner) = b.children[0].nested() else {
        return vec![];
    };
    let Operator::Sort { keys: inner_keys } = &inner.op else {
        return vec![];
    };
    vec![NewTree::new(
        Operator::Sort {
            keys: inner_keys.clone(),
        },
        vec![NewChild::Group(inner.children[0].group())],
    )]
}

/// `InnerJoinCommute` with the merged predicate's conjuncts reordered —
/// a different expression (and plan), identical semantics.
fn commute_pred_reordered(_ctx: &RuleCtx, b: &Bound) -> Vec<NewTree> {
    let Operator::Join { predicate, .. } = &b.op else {
        return vec![];
    };
    let mut parts = conjuncts(predicate);
    parts.reverse();
    vec![NewTree::new(
        Operator::Join {
            kind: JoinKind::Inner,
            predicate: conjoin(parts),
        },
        vec![
            NewChild::Group(b.children[1].group()),
            NewChild::Group(b.children[0].group()),
        ],
    )]
}

// ---------------------------------------------------------------------
// Wrapped-mutant builders.
// ---------------------------------------------------------------------

fn b_loj_commute_keeps_kind() -> Rule {
    // Children swap (correct) but the kind stays LeftOuter instead of
    // flipping to RightOuter: the preserved side flips.
    wrapped(
        "LojCommute",
        "BUGGY: kind not flipped with the children",
        |trees| {
            trees
                .into_iter()
                .map(|mut t| {
                    if let Operator::Join { kind, .. } = &mut t.op {
                        *kind = JoinKind::LeftOuter;
                    }
                    t
                })
                .collect()
        },
    )
}

fn b_foj_commute_to_loj() -> Rule {
    wrapped(
        "FojCommute",
        "BUGGY: full outer demoted to left outer",
        |trees| {
            trees
                .into_iter()
                .map(|mut t| {
                    if let Operator::Join { kind, .. } = &mut t.op {
                        *kind = JoinKind::LeftOuter;
                    }
                    t
                })
                .collect()
        },
    )
}

fn b_push_inner_to_loj() -> Rule {
    // The rebuilt join comes back LeftOuter: unmatched left rows are
    // resurrected NULL-padded.
    wrapped(
        "SelectPushBelowInnerJoin",
        "BUGGY: rebuilt join kind corrupted to left outer",
        |trees| {
            trees
                .into_iter()
                .map(|mut t| {
                    corrupt_first_join_kind(&mut t, JoinKind::Inner, JoinKind::LeftOuter);
                    t
                })
                .collect()
        },
    )
}

fn b_top_top_off_by_one() -> Rule {
    wrapped(
        "TopTopCollapse",
        "BUGGY: collapsed limit is min(n, m) + 1",
        |trees| {
            trees
                .into_iter()
                .map(|mut t| {
                    if let Operator::Top { n, .. } = &mut t.op {
                        *n += 1;
                    }
                    t
                })
                .collect()
        },
    )
}

fn b_commute_duplicated() -> Rule {
    // Emits the commuted tree twice; the memo deduplicates, so the plan
    // space (and every result) is unchanged.
    wrapped(
        "InnerJoinCommute",
        "BUGGY(benign): substitute emitted twice",
        |trees| {
            let mut out = trees.clone();
            out.extend(trees);
            out
        },
    )
}

// ---------------------------------------------------------------------
// Rewritten-mutant builders.
// ---------------------------------------------------------------------

fn b_ojs_unconditional() -> Rule {
    rewritten(
        "OuterJoinSimplify",
        "BUGGY: no null-rejection check",
        ojs_unconditional,
    )
}
fn b_semi_no_key() -> Rule {
    rewritten(
        "SemiJoinToInnerOnKey",
        "BUGGY: no unique-key check on the probe side",
        semi_to_inner_no_key_check,
    )
}
fn b_top_top_any_keys() -> Rule {
    rewritten(
        "TopTopCollapse",
        "BUGGY: collapses Tops with different sort keys",
        top_top_any_keys,
    )
}
fn b_join_loj_no_scope() -> Rule {
    rewritten(
        "JoinLojAssoc",
        "BUGGY: no predicate-scope check before rotating",
        join_loj_assoc_no_scope_check,
    )
}
fn b_anti_probe_any() -> Rule {
    rewritten(
        "AntiJoinToLojFilter",
        "BUGGY: probe column taken from the preserved side",
        anti_probe_wrong_side,
    )
}
fn b_push_null_side() -> Rule {
    rewritten(
        "SelectPushBelowOuterJoin",
        "BUGGY: pushes below the null-supplying side",
        push_below_null_side,
    )
}
fn b_select_into_oj() -> Rule {
    // The real rule's pattern only matches inner joins; the bug is that
    // the sabotaged implementation *widened* it to left outer joins, so
    // the mutant must carry the widened pattern too.
    Rule::explore(
        "SelectIntoInnerJoin",
        PatternTree::kind(
            OpKind::Select,
            vec![PatternTree::join(
                vec![JoinKind::LeftOuter],
                PatternTree::Any,
                PatternTree::Any,
            )],
        ),
        "BUGGY: merges the filter into an outer join's ON clause",
        select_into_outer_join,
    )
}
fn b_push_drops_residual() -> Rule {
    rewritten(
        "SelectPushBelowInnerJoin",
        "BUGGY: residual cross-input conjuncts dropped during pushdown",
        select_push_drops_residual,
    )
}
fn b_merge_or() -> Rule {
    rewritten(
        "SelectMerge",
        "BUGGY: merges stacked filters with OR",
        select_merge_or,
    )
}
fn b_gbagg_push_all() -> Rule {
    rewritten(
        "SelectPushBelowGbAgg",
        "BUGGY: pushes aggregate-output conjuncts below the aggregate",
        select_push_below_gbagg_all,
    )
}
fn b_distinct_union_no_outer() -> Rule {
    rewritten(
        "DistinctPushBelowUnionAll",
        "BUGGY: outer Distinct dropped (UNION as UNION ALL)",
        distinct_union_no_outer,
    )
}
fn b_distinct_first_col() -> Rule {
    rewritten(
        "DistinctToGbAgg",
        "BUGGY: groups by the first column only",
        distinct_to_gbagg_first_col,
    )
}
fn b_union_left_twice() -> Rule {
    rewritten(
        "UnionAllCommute",
        "BUGGY: emits the left child on both sides",
        union_commute_left_twice,
    )
}
fn b_roj_no_swap() -> Rule {
    rewritten(
        "RojCommute",
        "BUGGY: kind rewritten without swapping the children",
        roj_commute_no_swap,
    )
}
fn b_top_top_max() -> Rule {
    rewritten(
        "TopTopCollapse",
        "BUGGY: keeps max(n, m) rows instead of min",
        top_top_max,
    )
}
fn b_eliminate_count() -> Rule {
    rewritten(
        "GbAggEliminateOnKey",
        "BUGGY: COUNT survives key-based elimination as an identity",
        gbagg_eliminate_count_unchecked,
    )
}
fn b_eager_drops_join_cols() -> Rule {
    rewritten(
        "EagerGbAggPushBelowJoinLeft",
        "BUGGY: partial grouping key omits the join-predicate columns",
        eager_push_drops_join_cols,
    )
}
fn b_commute_suppressed() -> Rule {
    rewritten(
        "InnerJoinCommute",
        "BUGGY(benign): substitution never fires",
        commute_suppressed,
    )
}
fn b_sort_keeps_inner() -> Rule {
    rewritten(
        "SortCollapse",
        "BUGGY(benign): inner sort keys win (order is presentation-only)",
        sort_collapse_keeps_inner,
    )
}
fn b_commute_reordered() -> Rule {
    rewritten(
        "InnerJoinCommute",
        "BUGGY(benign): conjuncts reordered in the commuted predicate",
        commute_pred_reordered,
    )
}

/// The catalog, in stable declaration order (grouped by class).
static CATALOG: &[Mutant] = &[
    // -- dropped preconditions ----------------------------------------
    Mutant {
        id: "OuterJoinSimplifyUnconditional",
        class: BugClass::DroppedPrecondition,
        rule_name: "OuterJoinSimplify",
        expected: Verdict::DetectableStatic,
        note: "null-rejection check deleted; every filtered outer join becomes inner",
        build: b_ojs_unconditional,
    },
    Mutant {
        id: "TopTopKeysCheckDropped",
        class: BugClass::DroppedPrecondition,
        rule_name: "TopTopCollapse",
        expected: Verdict::DetectableDynamic,
        note: "identical-keys precondition deleted; collapses differently-ordered Tops",
        build: b_top_top_any_keys,
    },
    Mutant {
        id: "JoinLojAssocScopeDropped",
        class: BugClass::DroppedPrecondition,
        rule_name: "JoinLojAssoc",
        expected: Verdict::DetectableDynamic,
        note: "predicate-scope check deleted; rotation leaves columns unbound at runtime",
        build: b_join_loj_no_scope,
    },
    Mutant {
        id: "AntiJoinProbeCheckDropped",
        class: BugClass::DroppedPrecondition,
        rule_name: "AntiJoinToLojFilter",
        expected: Verdict::DetectableDynamic,
        note: "probe column tested on the preserved side, which is never NULL-padded",
        build: b_anti_probe_any,
    },
    // -- predicate misplacement ---------------------------------------
    Mutant {
        id: "PushBelowNullSupplyingSide",
        class: BugClass::PredicateMisplacement,
        rule_name: "SelectPushBelowOuterJoin",
        expected: Verdict::DetectableStatic,
        note: "conjuncts pushed below the null-supplying side of a LOJ",
        build: b_push_null_side,
    },
    Mutant {
        id: "SelectMergedIntoOuterJoin",
        class: BugClass::PredicateMisplacement,
        rule_name: "SelectIntoInnerJoin",
        expected: Verdict::DetectableStatic,
        note: "filter merged into a left outer join's ON clause",
        build: b_select_into_oj,
    },
    Mutant {
        id: "SelectPushDropsResidualConjuncts",
        class: BugClass::PredicateMisplacement,
        rule_name: "SelectPushBelowInnerJoin",
        expected: Verdict::DetectableDynamic,
        note: "pushdown drops the residual cross-input conjuncts",
        build: b_push_drops_residual,
    },
    Mutant {
        id: "SelectMergeWithOr",
        class: BugClass::PredicateMisplacement,
        rule_name: "SelectMerge",
        expected: Verdict::DetectableDynamic,
        note: "stacked filters merged with OR instead of AND",
        build: b_merge_or,
    },
    Mutant {
        id: "SelectPushBelowGbAggUnchecked",
        class: BugClass::PredicateMisplacement,
        rule_name: "SelectPushBelowGbAgg",
        expected: Verdict::DetectableStatic,
        note: "aggregate-output conjuncts pushed below the aggregate (unbound)",
        build: b_gbagg_push_all,
    },
    // -- duplicate sensitivity ----------------------------------------
    Mutant {
        id: "SemiJoinKeyCheckDropped",
        class: BugClass::DuplicateSensitivity,
        rule_name: "SemiJoinToInnerOnKey",
        expected: Verdict::DetectableDynamic,
        note: "unique-key precondition deleted; inner join duplicates left rows",
        build: b_semi_no_key,
    },
    Mutant {
        id: "DistinctPushDropsOuter",
        class: BugClass::DuplicateSensitivity,
        rule_name: "DistinctPushBelowUnionAll",
        expected: Verdict::DetectableStatic,
        note: "outer Distinct dropped; cross-branch duplicates survive",
        build: b_distinct_union_no_outer,
    },
    Mutant {
        id: "DistinctGroupsFirstColumnOnly",
        class: BugClass::DuplicateSensitivity,
        rule_name: "DistinctToGbAgg",
        expected: Verdict::DetectableStatic,
        note: "grouping key shrunk to the first column; schema and rows both wrong",
        build: b_distinct_first_col,
    },
    Mutant {
        id: "UnionAllCommuteLeftTwice",
        class: BugClass::DuplicateSensitivity,
        rule_name: "UnionAllCommute",
        expected: Verdict::DetectableDynamic,
        note: "left branch unioned with itself; right branch's rows vanish",
        build: b_union_left_twice,
    },
    // -- operand corruption -------------------------------------------
    Mutant {
        id: "LojCommuteKeepsKind",
        class: BugClass::OperandCorruption,
        rule_name: "LojCommute",
        expected: Verdict::DetectableStatic,
        note: "children swapped but the kind stays LeftOuter",
        build: b_loj_commute_keeps_kind,
    },
    Mutant {
        id: "RojCommuteForgetsSwap",
        class: BugClass::OperandCorruption,
        rule_name: "RojCommute",
        expected: Verdict::DetectableStatic,
        note: "kind rewritten to LeftOuter without swapping the children",
        build: b_roj_no_swap,
    },
    Mutant {
        id: "FojCommuteDemotedToLoj",
        class: BugClass::OperandCorruption,
        rule_name: "FojCommute",
        expected: Verdict::DetectableStatic,
        note: "full outer commuted into a left outer",
        build: b_foj_commute_to_loj,
    },
    Mutant {
        id: "PushBelowJoinCorruptsKind",
        class: BugClass::OperandCorruption,
        rule_name: "SelectPushBelowInnerJoin",
        expected: Verdict::DetectableStatic,
        note: "rebuilt inner join comes back as a left outer join",
        build: b_push_inner_to_loj,
    },
    // -- aggregate/TopN boundary --------------------------------------
    Mutant {
        id: "TopTopCollapseOffByOne",
        class: BugClass::BoundaryBug,
        rule_name: "TopTopCollapse",
        expected: Verdict::DetectableDynamic,
        note: "collapsed limit is min(n, m) + 1",
        build: b_top_top_off_by_one,
    },
    Mutant {
        id: "TopTopCollapseTakesMax",
        class: BugClass::BoundaryBug,
        rule_name: "TopTopCollapse",
        expected: Verdict::DetectableDynamic,
        note: "collapsed limit is max(n, m)",
        build: b_top_top_max,
    },
    Mutant {
        id: "GbAggEliminateMiscountsNulls",
        class: BugClass::BoundaryBug,
        rule_name: "GbAggEliminateOnKey",
        expected: Verdict::DetectableDynamic,
        note: "COUNT(x) eliminated to x instead of 0/1 on single-row groups",
        build: b_eliminate_count,
    },
    Mutant {
        id: "EagerAggDropsJoinColumns",
        class: BugClass::BoundaryBug,
        rule_name: "EagerGbAggPushBelowJoinLeft",
        expected: Verdict::DetectableStatic,
        note: "partial grouping key omits the join-predicate columns",
        build: b_eager_drops_join_cols,
    },
    // -- cost-only / benign -------------------------------------------
    Mutant {
        id: "InnerJoinCommuteSuppressed",
        class: BugClass::CostOnly,
        rule_name: "InnerJoinCommute",
        expected: Verdict::Benign,
        note: "rule never fires; the search space shrinks, results cannot change",
        build: b_commute_suppressed,
    },
    Mutant {
        id: "SortCollapseKeepsInnerKeys",
        class: BugClass::CostOnly,
        rule_name: "SortCollapse",
        expected: Verdict::Benign,
        note: "wrong sort keys win; order is presentation-only under the multiset oracle",
        build: b_sort_keeps_inner,
    },
    Mutant {
        id: "InnerJoinCommuteDuplicated",
        class: BugClass::CostOnly,
        rule_name: "InnerJoinCommute",
        expected: Verdict::Benign,
        note: "substitute emitted twice; the memo deduplicates it",
        build: b_commute_duplicated,
    },
    Mutant {
        id: "InnerJoinCommuteReordersConjuncts",
        class: BugClass::CostOnly,
        rule_name: "InnerJoinCommute",
        expected: Verdict::Benign,
        note: "conjunct order flipped in the commuted predicate; same semantics",
        build: b_commute_reordered,
    },
];

pub(super) fn all() -> &'static [Mutant] {
    CATALOG
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Anti-regression: every mutant's rule differs from the real rule
    /// on at least one axis the engine relies on (same name, same
    /// pattern, different action is not checkable directly — but the
    /// mints flag and kind must match the original, or the override
    /// would change scheduling rather than semantics).
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
        }
    }

    #[test]
    fn wrapped_mutants_transform_real_output() {
        // LojCommuteKeepsKind must produce a LeftOuter root where the
        // real rule produces RightOuter — spot-check the wrapper plumbing
        // via the rule action on a synthetic bound match. Building a
        // full memo here is overkill; the campaign tests cover firing.
        let rule = b_loj_commute_keeps_kind();
        assert!(rule.action.is_explore());
        assert_eq!(rule.name, "LojCommute");
    }
}

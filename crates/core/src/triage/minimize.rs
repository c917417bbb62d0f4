//! Delta-debugging minimizer for bug witnesses.
//!
//! Greedy first-improvement descent over a shrink lattice: each round
//! enumerates candidate reductions of the current witness (biggest wins
//! first), accepts the first candidate on which `Plan(q)` and
//! `Plan(q, ¬R)` still disagree on executed results, and restarts from
//! it. Each check is the campaign's own oracle (`crate::oracle`) through
//! the invocation cache, so re-checks of already-optimized trees are
//! cache hits and minimization stays cheap. The crash minimizer
//! (`supervise::crash_bundles`) walks the same lattice through
//! `descend` under its own acceptance test.
//!
//! The lattice has two kinds of edges:
//! - **operator drop**: replace any node by one of its children (removes
//!   the node and, for binary nodes, the whole sibling subtree);
//! - **conjunct shrink**: drop one conjunct from a `Select` or `Join`
//!   predicate, or relax a join predicate to `TRUE`.
//!
//! Candidates are validated with `derive_schema` (and must render back to
//! SQL) before any optimizer work is spent on them, and pruned when no
//! masked rule's pattern matches anywhere in them: pattern presence is
//! the §3.1 necessary condition for the rule to fire as written, so a
//! pattern-free candidate cannot diverge. (Rule *sequences* can recreate
//! a pattern mid-exploration, so the prune may skip a shrink — it never
//! accepts a wrong one.)
//!
//! After the descent converges, the result is **certified**: the accepted
//! shrink trajectory is re-checked end to end and the final witness is
//! re-proven 1-minimal (no single further shrink preserves the
//! divergence). Every optimizer invocation in that pass re-hits the
//! invocation cache — certification costs executions, not optimizations.

use super::TriageConfig;
use crate::framework::Framework;
use crate::oracle::{Oracle, Outcome, Plans};
use ruletest_common::{Result, ResultDiff, RuleId};
use ruletest_executor::ExecConfig;
use ruletest_expr::{conjoin, conjuncts, Expr};
use ruletest_logical::{derive_schema, LogicalTree, Operator};
use ruletest_sql::to_sql;

/// The minimizer's output.
pub struct Minimized {
    /// The shrunk witness (still diverging).
    pub tree: LogicalTree,
    /// Accepted shrink steps (operator drops + conjunct shrinks).
    pub steps: usize,
    /// The certification pass confirmed the whole accepted trajectory
    /// still diverges and the final witness is 1-minimal.
    pub certified: bool,
}

/// The oracle as triage runs it, under a `Triage` span: both plans and
/// the result diff when `Plan(q)` and `Plan(q, ¬rules)` still disagree on
/// executed results over `fw`'s database. Anything else (identical plans,
/// equal results, a failed side) is `None` — for a shrink *candidate*
/// that simply rejects the candidate.
pub(crate) fn divergence(
    fw: &Framework,
    tree: &LogicalTree,
    rules: &[RuleId],
    exec: &ExecConfig,
) -> Option<(Plans, ResultDiff)> {
    let _span = fw.telemetry.span(ruletest_telemetry::Stage::Triage);
    let exec = fw.exec_config(exec);
    match Oracle::new(&fw.optimizer, &fw.telemetry, &exec).check(tree, rules, None) {
        Ok((plans, Outcome::Differ(diff))) => Some((plans, diff)),
        _ => None,
    }
}

/// Greedy first-improvement descent over the shrink lattice: from `tree`,
/// accept the first of its [`candidates`] that `accept` holds for and
/// restart from it, until no candidate is accepted or `max_steps` were.
/// Returns the accepted trajectory, `tree` first.
pub(crate) fn descend(
    tree: &LogicalTree,
    max_steps: usize,
    mut accept: impl FnMut(&LogicalTree) -> bool,
) -> Vec<LogicalTree> {
    let mut trajectory = vec![tree.clone()];
    while trajectory.len() <= max_steps {
        let cur = trajectory.last().expect("the trajectory starts at tree");
        match candidates(cur).into_iter().find(|c| accept(c)) {
            Some(next) => trajectory.push(next),
            None => break, // fixpoint: no candidate is accepted
        }
    }
    trajectory
}

/// Minimizes one diverging witness. `tree` must diverge under `fw` with
/// `rules` masked (it came out of detection, so it does).
pub fn minimize(
    fw: &Framework,
    tree: &LogicalTree,
    rules: &[RuleId],
    cfg: &TriageConfig,
) -> Result<Minimized> {
    let patterns: Vec<_> = rules
        .iter()
        .map(|&r| fw.optimizer.rule_pattern(r))
        .collect();
    // Worth optimizing: schema-valid, renders to SQL, and some masked
    // rule's pattern is present (necessary for the rule to fire).
    let worth_testing = |cand: &LogicalTree| {
        is_valid(fw, cand) && patterns.iter().any(|p| p.matches_anywhere(cand))
    };
    let diverges = |t: &LogicalTree| divergence(fw, t, rules, &cfg.exec).is_some();
    let mut trajectory = descend(tree, cfg.max_steps, |cand| {
        worth_testing(cand) && diverges(cand)
    });
    let steps = trajectory.len() - 1;
    // Certification: re-check the accepted trajectory end to end and
    // re-prove 1-minimality. All optimizer lookups here were just
    // computed by the descent, so this is served from the invocation
    // cache.
    let mut certified = trajectory.iter().all(diverges);
    let cur = trajectory.pop().expect("the trajectory starts at tree");
    if steps < cfg.max_steps {
        certified &= !candidates(&cur)
            .into_iter()
            .any(|c| worth_testing(&c) && diverges(&c));
    }
    Ok(Minimized {
        tree: cur,
        steps,
        certified,
    })
}

/// A candidate is worth optimizing only if it is schema-valid and renders
/// back to SQL (the surviving witness must round-trip through a bundle).
pub(crate) fn is_valid(fw: &Framework, cand: &LogicalTree) -> bool {
    derive_schema(&fw.db.catalog, cand).is_ok() && to_sql(&fw.db.catalog, cand).is_ok()
}

/// The shrink lattice below `tree`, biggest wins first: operator drops in
/// pre-order (dropping near the root removes the most), then conjunct
/// shrinks.
fn candidates(tree: &LogicalTree) -> Vec<LogicalTree> {
    let mut out = Vec::new();
    let paths = tree.paths();
    for path in &paths {
        let node = tree.at(path).expect("path from paths()");
        for child in &node.children {
            if let Some(cand) = tree.replace_at(path, child) {
                out.push(cand);
            }
        }
    }
    for path in &paths {
        let node = tree.at(path).expect("path from paths()");
        match &node.op {
            Operator::Select { predicate } => {
                shrink_predicate(tree, path, node, predicate, false, &mut out);
            }
            Operator::Join { kind, predicate } => {
                let relaxed = LogicalTree::new(
                    Operator::Join {
                        kind: *kind,
                        predicate: Expr::true_lit(),
                    },
                    node.children.clone(),
                );
                shrink_predicate(tree, path, node, predicate, true, &mut out);
                if !predicate.is_true_lit() {
                    if let Some(cand) = tree.replace_at(path, &relaxed) {
                        out.push(cand);
                    }
                }
            }
            _ => {}
        }
    }
    out
}

/// Candidates that drop one conjunct of `predicate` at `path`.
fn shrink_predicate(
    tree: &LogicalTree,
    path: &[usize],
    node: &LogicalTree,
    predicate: &Expr,
    is_join: bool,
    out: &mut Vec<LogicalTree>,
) {
    let parts = conjuncts(predicate);
    if parts.len() < 2 {
        return;
    }
    for drop in 0..parts.len() {
        let kept: Vec<Expr> = parts
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != drop)
            .map(|(_, c)| c.clone())
            .collect();
        let op = if is_join {
            let Operator::Join { kind, .. } = &node.op else {
                unreachable!("shrink_predicate(is_join) on non-join");
            };
            Operator::Join {
                kind: *kind,
                predicate: conjoin(kept),
            }
        } else {
            Operator::Select {
                predicate: conjoin(kept),
            }
        };
        if let Some(cand) = tree.replace_at(path, &LogicalTree::new(op, node.children.clone())) {
            out.push(cand);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::FrameworkConfig;
    use ruletest_expr::Expr;
    use ruletest_logical::{IdGen, JoinKind};

    #[test]
    fn candidates_shrink_strictly_and_stay_enumerable() {
        let fw = Framework::new(&FrameworkConfig::default()).unwrap();
        let cat = &fw.db.catalog;
        let mut ids = IdGen::new();
        let l = LogicalTree::get(cat.table_by_name("region").unwrap(), &mut ids);
        let r = LogicalTree::get(cat.table_by_name("nation").unwrap(), &mut ids);
        let pred = Expr::eq(Expr::col(l.output_col(0)), Expr::col(r.output_col(2)));
        let join = LogicalTree::join(JoinKind::LeftOuter, l, r, pred);
        let filter = Expr::and(
            Expr::not(Expr::is_null(Expr::col(join.children[1].output_col(0)))),
            Expr::not(Expr::is_null(Expr::col(join.children[0].output_col(1)))),
        );
        let tree = LogicalTree::select(join, filter);
        let cands = candidates(&tree);
        assert!(!cands.is_empty());
        for c in &cands {
            // Every candidate is strictly simpler: fewer operators, or the
            // same operators with a shorter/relaxed predicate.
            assert!(c.op_count() <= tree.op_count());
        }
        // At least one candidate drops an operator.
        assert!(cands.iter().any(|c| c.op_count() < tree.op_count()));
        // And the conjunct shrink produced same-shape candidates.
        assert!(cands.iter().any(|c| c.op_count() == tree.op_count()));
    }
}

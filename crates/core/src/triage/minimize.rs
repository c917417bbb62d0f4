//! Delta-debugging minimizer for bug witnesses.
//!
//! Greedy first-improvement descent over a shrink lattice: each round
//! enumerates candidate reductions of the current witness (biggest wins
//! first), accepts the first candidate on which `Plan(q)` and
//! `Plan(q, ¬R)` still disagree on executed results, and restarts from
//! it. Divergence checks go through `optimize_cached` /
//! `optimize_with_cached`, so re-checks of already-optimized trees are
//! invocation-cache hits and minimization stays cheap.
//!
//! The lattice has three kinds of edges:
//! - **operator drop**: replace any node by one of its children (removes
//!   the node and, for binary nodes, the whole sibling subtree);
//! - **conjunct shrink**: drop one conjunct from a `Select` or `Join`
//!   predicate, or relax a join predicate to `TRUE`;
//! - **scale reduction**: rebuild the test database at a smaller scale
//!   factor and re-confirm divergence there.
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
use crate::framework::{DbProfile, Framework};
use ruletest_common::{diff_multisets, Result, RuleId};
use ruletest_executor::{execute_profiled, ExecConfig};
use ruletest_expr::{conjoin, conjuncts, Expr};
use ruletest_logical::{derive_schema, LogicalTree, Operator};
use ruletest_optimizer::{Optimizer, OptimizerConfig, PhysicalPlan};
use ruletest_sql::to_sql;
use ruletest_storage::{tpch_database, TpchConfig};
use std::sync::Arc;

/// The minimizer's output.
pub struct Minimized {
    /// The shrunk witness (still diverging).
    pub tree: LogicalTree,
    /// Accepted shrink steps (operator drops + conjunct shrinks + scale
    /// reductions).
    pub steps: usize,
    /// Scale factor divergence was last confirmed at.
    pub scale: usize,
    /// Rule ids of the mask, valid for [`Minimized::framework`]'s
    /// optimizer (they are re-resolved by name when the scale reduction
    /// rebuilds the optimizer).
    pub rules: Vec<RuleId>,
    /// The certification pass confirmed the whole accepted trajectory
    /// still diverges and the final witness is 1-minimal.
    pub certified: bool,
    /// Present when a scale reduction succeeded: a framework over the
    /// smaller database (with the same fault injected).
    reduced: Option<Framework>,
}

impl Minimized {
    /// The framework the minimized witness diverges under: the rebuilt
    /// reduced-scale one if scale reduction succeeded, else the original.
    pub fn framework<'a>(&'a self, original: &'a Framework) -> &'a Framework {
        self.reduced.as_ref().unwrap_or(original)
    }
}

/// Everything a confirmed divergence yields.
pub(crate) struct Divergence {
    pub base_plan: PhysicalPlan,
    pub masked_plan: PhysicalPlan,
    /// Total multiplicity of rows the masked plan lost.
    pub missing: u64,
    /// Total multiplicity of rows the masked plan invented.
    pub extra: u64,
    pub diff_summary: String,
}

/// Checks whether `Plan(q)` vs `Plan(q, ¬rules)` still disagree on
/// executed results over `fw`'s database. Any failure along the way
/// (optimizer error, refused or over-budget execution) counts as "no" —
/// for a shrink *candidate* that simply rejects the candidate.
pub(crate) fn divergence(
    fw: &Framework,
    tree: &LogicalTree,
    rules: &[RuleId],
    exec: &ExecConfig,
) -> Option<Divergence> {
    let _span = fw.telemetry.span(ruletest_telemetry::Stage::Triage);
    let base = fw.optimizer.optimize_cached(tree).ok()?;
    let masked = fw
        .optimizer
        .optimize_with_cached(tree, &OptimizerConfig::disabling(rules))
        .ok()?;
    if base.plan.same_shape(&masked.plan) {
        return None;
    }
    let exec = &fw.exec_config(exec);
    let expected = execute_profiled(&fw.db, &base.plan, exec, &fw.telemetry).ok()?;
    let actual = execute_profiled(&fw.db, &masked.plan, exec, &fw.telemetry).ok()?;
    let diff = diff_multisets(&expected, &actual);
    if diff.is_empty() {
        return None;
    }
    let missing = diff.only_left.iter().map(|(_, n)| *n as u64).sum();
    let extra = diff.only_right.iter().map(|(_, n)| *n as u64).sum();
    Some(Divergence {
        base_plan: base.plan.clone(),
        masked_plan: masked.plan.clone(),
        missing,
        extra,
        diff_summary: diff.summary(),
    })
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
    let mut cur = tree.clone();
    let mut steps = 0usize;
    let mut trajectory = vec![tree.clone()];
    'outer: while steps < cfg.max_steps {
        for cand in candidates(&cur) {
            if !worth_testing(&cand) {
                continue;
            }
            if divergence(fw, &cand, rules, &cfg.exec).is_some() {
                cur = cand;
                trajectory.push(cur.clone());
                steps += 1;
                continue 'outer;
            }
        }
        break; // fixpoint: no candidate preserves the divergence
    }
    // Certification: re-check the accepted trajectory end to end and
    // re-prove 1-minimality. All optimizer lookups here were just
    // computed by the descent, so this is served from the invocation
    // cache.
    let mut certified = trajectory
        .iter()
        .all(|t| divergence(fw, t, rules, &cfg.exec).is_some());
    if steps < cfg.max_steps {
        certified &= !candidates(&cur)
            .into_iter()
            .any(|c| worth_testing(&c) && divergence(fw, &c, rules, &cfg.exec).is_some());
    }
    // Data reduction: try to confirm the shrunk witness over a smaller
    // database. Only meaningful when the campaign ran at scale > 1.
    let mut out = Minimized {
        tree: cur,
        steps,
        scale: fw.db_profile.scale,
        rules: rules.to_vec(),
        certified,
        reduced: None,
    };
    if out.scale > 1 && steps < cfg.max_steps {
        let mask_names: Vec<String> = rules
            .iter()
            .map(|&r| fw.optimizer.rule(r).name.to_string())
            .collect();
        for scale in [1, out.scale / 2] {
            if scale >= out.scale {
                continue;
            }
            let Some((small_fw, small_rules)) = rebuild_at_scale(fw, cfg, &mask_names, scale)
            else {
                continue;
            };
            if divergence(&small_fw, &out.tree, &small_rules, &cfg.exec).is_some() {
                out.scale = scale;
                out.rules = small_rules;
                out.reduced = Some(small_fw);
                out.steps += 1;
                break;
            }
        }
    }
    Ok(out)
}

/// A framework over a freshly generated database at `scale`, with the
/// configured fault injected (or a clean optimizer), and the rule mask
/// re-resolved by name.
fn rebuild_at_scale(
    fw: &Framework,
    cfg: &TriageConfig,
    mask_names: &[String],
    scale: usize,
) -> Option<(Framework, Vec<RuleId>)> {
    let db_seed = fw.db_profile.db_seed;
    let db = Arc::new(tpch_database(&TpchConfig::scaled(db_seed, scale)).ok()?);
    let optimizer = Arc::new(match cfg.fault {
        Some(mutant) => crate::mutate::mutant_optimizer(db, mutant),
        None => Optimizer::new(db),
    });
    let rules: Option<Vec<RuleId>> = mask_names.iter().map(|n| optimizer.rule_id(n)).collect();
    let small = Framework::with_optimizer(optimizer).with_db_profile(DbProfile { db_seed, scale });
    Some((small, rules?))
}

/// A candidate is worth optimizing only if it is schema-valid and renders
/// back to SQL (the surviving witness must round-trip through a bundle).
pub(crate) fn is_valid(fw: &Framework, cand: &LogicalTree) -> bool {
    derive_schema(&fw.db.catalog, cand).is_ok() && to_sql(&fw.db.catalog, cand).is_ok()
}

/// The shrink lattice below `tree`, biggest wins first: operator drops in
/// pre-order (dropping near the root removes the most), then conjunct
/// shrinks.
pub(crate) fn candidates(tree: &LogicalTree) -> Vec<LogicalTree> {
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

//! Per-rule verdict engine: witness passes plus normal-form comparison.
//!
//! For every substitute a rule produces over its extended symbolic
//! corpus, the engine runs *inequivalence witnesses* — checks whose
//! positive finding proves the rewrite changes results on some database
//! instance:
//!
//! 1. the concrete audit passes reused from
//!    [`crate::audit::audit_substitute`]. Well-formedness and schema
//!    equivalence findings are structural facts and fire immediately;
//!    row provenance and duplicate sensitivity are conservative
//!    analyses that can lose precision on valid rewrites, so their
//!    findings are *deferred* — an equal normal form (a sound
//!    equivalence proof) overrides them, anything less confirms them;
//! 2. a column-scope pass that catches predicates/projections referring
//!    to columns no child provides (type inference alone treats unknown
//!    columns as un-inferable and lets them pass);
//! 3. a provably-empty pass: a filter conjunct `c IS NULL` over a
//!    non-nullable `c` empties its subtree, so one side empty while the
//!    other is satisfiable is a counterexample;
//! 4. a leaf-set pass for `UnionAll` trees (outside the normalization
//!    fragment): a substitute reading a different *set* of base-table
//!    scans cannot be equivalent (a multiset would false-positive on
//!    valid scan-duplicating rules like join-over-union distribution);
//! 5. a conjunct-diff pass: when both sides normalize to the same
//!    skeleton but different canonical conjunct sets, the filters
//!    disagree on some instance (conjuncts are independent atoms in the
//!    symbolic domain).
//!
//! If no witness fires, equal normal forms give `Equivalent`; anything
//! else is `Unknown` and falls back to the concrete auditor.

use crate::audit::{self, CorpusTree};
use crate::node::AuditNode;
use crate::prove::{ProofViolation, ProveVerdict, RuleProof};
use crate::wellformed;
use ruletest_expr::{columns_of, conjuncts, Expr};
use ruletest_logical::{IdGen, JoinKind, LogicalTree, Operator};
use ruletest_optimizer::{match_bindings, Bound, GroupId, Memo, NewTree, Rule, RuleCtx};
use ruletest_storage::Database;
use std::cell::RefCell;
use std::collections::BTreeSet;

/// Outcome for a single substitute.
enum SubVerdict {
    Equivalent,
    Inequivalent(Vec<ProofViolation>),
    Unknown(String),
}

/// Proves one exploration rule over its extended symbolic corpus.
pub fn prove_rule(db: &Database, rule: &Rule) -> ruletest_common::Result<RuleProof> {
    if rule.mints_fresh_ids {
        return Ok(RuleProof {
            rule: rule.name.to_string(),
            verdict: ProveVerdict::Unknown,
            reason: Some(
                "mints fresh column ids: substitutes introduce symbols absent from the input \
                 (outside the decidable fragment)"
                    .to_string(),
            ),
            violations: vec![],
            substitutes: 0,
        });
    }

    let corpus = audit::build_corpus_extended(db, rule)?;
    let mut violations: Vec<ProofViolation> = Vec::new();
    let mut unknown_reason: Option<String> = None;
    let mut substitutes = 0usize;

    for ct in &corpus {
        for bound in match_bindings(&ct.memo, &rule.pattern, ct.root, 0) {
            let ids = RefCell::new(IdGen::above(&ct.tree));
            let ctx = RuleCtx {
                db,
                memo: &ct.memo,
                ids: &ids,
            };
            let Some(results) = rule.action.apply_explore(&ctx, &bound) else {
                continue;
            };
            for nt in &results {
                substitutes += 1;
                match prove_substitute(db, ct, &bound, nt, rule.name) {
                    SubVerdict::Equivalent => {}
                    SubVerdict::Inequivalent(vs) => {
                        for v in vs {
                            if !violations
                                .iter()
                                .any(|o| o.component == v.component && o.detail == v.detail)
                            {
                                violations.push(v);
                            }
                        }
                    }
                    SubVerdict::Unknown(reason) => {
                        unknown_reason.get_or_insert(reason);
                    }
                }
            }
        }
    }

    let (verdict, reason) = if !violations.is_empty() {
        (ProveVerdict::Inequivalent, None)
    } else if let Some(r) = unknown_reason {
        (ProveVerdict::Unknown, Some(r))
    } else if substitutes == 0 {
        (
            ProveVerdict::Equivalent,
            Some("vacuous: the rule never fired on its symbolic corpus".to_string()),
        )
    } else {
        (ProveVerdict::Equivalent, None)
    };
    Ok(RuleProof {
        rule: rule.name.to_string(),
        verdict,
        reason,
        violations,
        substitutes,
    })
}

fn prove_substitute(
    db: &Database,
    ct: &CorpusTree,
    bound: &Bound,
    nt: &NewTree,
    rule_name: &str,
) -> SubVerdict {
    // Witness 1: the concrete audit passes. Well-formedness and schema
    // equivalence are hard witnesses — their findings are structural
    // facts. Row provenance and duplicate sensitivity are *conservative
    // analyses* that can lose precision on valid rewrites (e.g. keys
    // through an outer-join-plus-filter anti-join encoding), so their
    // findings are held back until normal-form comparison: an equal
    // fingerprint is a sound equivalence proof and overrides them.
    let audit_found = audit::audit_substitute(db, &ct.memo, bound, &ct.resolve, rule_name, nt);
    let mut hard = Vec::new();
    let mut soft = Vec::new();
    for v in audit_found {
        let pv = ProofViolation {
            component: v.pass.name().to_string(),
            detail: v.detail,
        };
        match v.pass {
            crate::LintPass::WellFormed | crate::LintPass::SchemaEquivalence => hard.push(pv),
            _ => soft.push(pv),
        }
    }
    if !hard.is_empty() {
        return SubVerdict::Inequivalent(hard);
    }

    let input = AuditNode::from_bound(bound, &ct.resolve);
    let sub = AuditNode::from_newtree(nt, &ct.resolve);

    // Witness 2: unbound column references in the substitute.
    let mut unbound = Vec::new();
    check_scope(&ct.memo, &sub, &mut unbound);
    if !unbound.is_empty() {
        return SubVerdict::Inequivalent(
            unbound
                .into_iter()
                .map(|detail| ProofViolation {
                    component: "ColumnScope".to_string(),
                    detail,
                })
                .collect(),
        );
    }

    // Witness 3: one side provably empty, the other satisfiable.
    let empty_in = provably_empty(db, &ct.memo, &input);
    let empty_sub = provably_empty(db, &ct.memo, &sub);
    if empty_in != empty_sub {
        let (which, other) = if empty_in {
            ("input", "substitute")
        } else {
            ("substitute", "input")
        };
        return SubVerdict::Inequivalent(vec![ProofViolation {
            component: "ProvablyEmpty".to_string(),
            detail: format!(
                "the {which} filters on IS NULL of a non-nullable column (provably empty) \
                 but the {other} does not"
            ),
        }]);
    }

    // UnionAll is outside the normalization fragment: compare the *set*
    // of base-table scans (a rule may validly duplicate a scan, e.g.
    // distributing a join over a union), then fall back on the deferred
    // audit findings.
    if contains_union(&input) || contains_union(&sub) {
        let li = leaf_set(&input);
        let ls = leaf_set(&sub);
        if li != ls {
            return SubVerdict::Inequivalent(vec![ProofViolation {
                component: "LeafSet".to_string(),
                detail: format!(
                    "substitute reads a different set of base scans than its input \
                     ({} vs {} distinct leaves)",
                    ls.len(),
                    li.len()
                ),
            }]);
        }
        if !soft.is_empty() {
            return SubVerdict::Inequivalent(soft);
        }
        return SubVerdict::Unknown(
            "contains UnionAll (outside the normalization fragment)".to_string(),
        );
    }

    // Normal-form comparison.
    let normalized = match (to_logical(&input), to_logical(&sub)) {
        (Some(tin), Some(tsub)) => match (
            super::normalize::normalize(&db.catalog, &tin),
            super::normalize::normalize(&db.catalog, &tsub),
        ) {
            (Some(nin), Some(nsub)) => Some((nin, nsub)),
            _ => None,
        },
        _ => None,
    };
    let Some((nin, nsub)) = normalized else {
        if !soft.is_empty() {
            return SubVerdict::Inequivalent(soft);
        }
        return SubVerdict::Unknown("outside the normalization fragment".to_string());
    };
    let (fin, fsub) = (nin.fingerprint(), nsub.fingerprint());
    if fin == fsub {
        // Sound equivalence proof — overrides the conservative passes.
        return SubVerdict::Equivalent;
    }
    // Witness 4b: both sides take a prefix of the *same* ordered stream
    // but with different lengths, and the stream can exceed both — the
    // shorter prefix drops rows on some instance.
    if let (
        super::normalize::Nf::Top {
            n: ni,
            keys: ki,
            child: ci,
        },
        super::normalize::Nf::Top {
            n: ns,
            keys: ks,
            child: cs,
        },
    ) = (&nin, &nsub)
    {
        if ni != ns
            && ki == ks
            && ci.fingerprint() == cs.fingerprint()
            && super::normalize::max_rows_unbounded(ci)
        {
            return SubVerdict::Inequivalent(vec![ProofViolation {
                component: "TopN".to_string(),
                detail: format!(
                    "both sides take a prefix of the same ordered stream, but the input keeps \
                     {ni} rows and the substitute {ns}"
                ),
            }]);
        }
    }
    if !soft.is_empty() {
        return SubVerdict::Inequivalent(soft);
    }
    // Witness 5: same skeleton, different canonical conjunct sets.
    if nin.skeleton() == nsub.skeleton() {
        return SubVerdict::Inequivalent(vec![ProofViolation {
            component: "ConjunctDiff".to_string(),
            detail: format!(
                "both sides normalize to the same operator skeleton but different canonical \
                 conjunct sets: input `{fin}` vs substitute `{fsub}`"
            ),
        }]);
    }
    SubVerdict::Unknown(format!(
        "normal forms diverge: input `{fin}` vs substitute `{fsub}`"
    ))
}

/// Fully concrete `AuditNode` → standalone tree; `None` if any opaque
/// group reference remains.
fn to_logical(node: &AuditNode) -> Option<LogicalTree> {
    match node {
        AuditNode::Group(_) => None,
        AuditNode::Op { op, children, .. } => {
            let kids: Option<Vec<LogicalTree>> = children.iter().map(to_logical).collect();
            Some(LogicalTree {
                op: op.clone(),
                children: kids?,
            })
        }
    }
}

fn contains_union(node: &AuditNode) -> bool {
    match node {
        AuditNode::Group(_) => false,
        AuditNode::Op { op, children, .. } => {
            matches!(op, Operator::UnionAll { .. }) || children.iter().any(contains_union)
        }
    }
}

/// The set of base scans (and opaque groups) a tree reads, as group
/// ids. A set, not a multiset: equivalence-preserving rules may
/// duplicate a scan (join-over-union distribution), but a substitute
/// reading a leaf its input never touches — or dropping one — cannot be
/// equivalent.
fn leaf_set(node: &AuditNode) -> BTreeSet<GroupId> {
    fn walk(node: &AuditNode, out: &mut BTreeSet<GroupId>) {
        match node {
            AuditNode::Group(g) => {
                out.insert(*g);
            }
            AuditNode::Op { op, gid, children } => {
                if let Operator::Get { .. } = op {
                    if let Some(g) = gid {
                        out.insert(*g);
                    }
                }
                for c in children {
                    walk(c, out);
                }
            }
        }
    }
    let mut out = BTreeSet::new();
    walk(node, &mut out);
    out
}

/// Visible output columns of a node (schema-derived for groups).
fn node_cols(memo: &Memo, node: &AuditNode) -> BTreeSet<ruletest_common::ColId> {
    match node {
        AuditNode::Group(g) => memo.schema(*g).iter().map(|c| c.id).collect(),
        AuditNode::Op { op, children, .. } => match op {
            Operator::Get { cols, .. } => cols.iter().copied().collect(),
            Operator::Select { .. }
            | Operator::Distinct
            | Operator::Sort { .. }
            | Operator::Top { .. } => node_cols(memo, &children[0]),
            Operator::Project { outputs } => outputs.iter().map(|(id, _)| *id).collect(),
            Operator::GbAgg { group_by, aggs } => group_by
                .iter()
                .copied()
                .chain(aggs.iter().map(|a| a.output))
                .collect(),
            Operator::Join { kind, .. } => {
                let mut cols = node_cols(memo, &children[0]);
                if kind.emits_both_sides() {
                    cols.extend(node_cols(memo, &children[1]));
                }
                cols
            }
            Operator::UnionAll { outputs, .. } => outputs.iter().copied().collect(),
        },
    }
}

/// Flags every column an operator's scalar arguments reference that no
/// child of that operator provides.
fn check_scope(memo: &Memo, node: &AuditNode, out: &mut Vec<String>) {
    let AuditNode::Op { op, children, .. } = node else {
        return;
    };
    for c in children {
        check_scope(memo, c, out);
    }
    let visible: BTreeSet<_> = match op {
        Operator::Join { .. } | Operator::UnionAll { .. } => {
            children.iter().flat_map(|c| node_cols(memo, c)).collect()
        }
        _ => children
            .first()
            .map(|c| node_cols(memo, c))
            .unwrap_or_default(),
    };
    let mut referenced: BTreeSet<ruletest_common::ColId> = BTreeSet::new();
    match op {
        Operator::Get { .. } | Operator::Distinct => {}
        Operator::Select { predicate } | Operator::Join { predicate, .. } => {
            referenced.extend(columns_of(predicate));
        }
        Operator::Project { outputs } => {
            for (_, e) in outputs {
                referenced.extend(columns_of(e));
            }
        }
        Operator::GbAgg { group_by, aggs } => {
            referenced.extend(group_by.iter().copied());
            referenced.extend(aggs.iter().filter_map(|a| a.arg));
        }
        Operator::UnionAll {
            left_cols,
            right_cols,
            ..
        } => {
            // Side-scoped: each input list must come from its own child.
            for (cols, idx) in [(left_cols, 0), (right_cols, 1)] {
                let side: BTreeSet<_> = children
                    .get(idx)
                    .map(|c| node_cols(memo, c))
                    .unwrap_or_default();
                for c in cols {
                    if !side.contains(c) {
                        out.push(format!(
                            "UnionAll input column {c} is not provided by child {idx}"
                        ));
                    }
                }
            }
        }
        Operator::Sort { keys } | Operator::Top { keys, .. } => {
            referenced.extend(keys.iter().map(|k| k.col));
        }
    }
    for c in referenced {
        if !visible.contains(&c) {
            out.push(format!(
                "{} references column {c}, which no child provides",
                op.label()
            ));
        }
    }
}

/// Conservative emptiness proof: true only when the subtree provably
/// yields zero rows on *every* database instance.
fn provably_empty(db: &Database, memo: &Memo, node: &AuditNode) -> bool {
    let AuditNode::Op { op, children, .. } = node else {
        return false;
    };
    let child_empty = |i: usize| children.get(i).is_some_and(|c| provably_empty(db, memo, c));
    match op {
        Operator::Get { .. } => false,
        Operator::Select { predicate } => {
            if child_empty(0) {
                return true;
            }
            // A conjunct `c IS NULL` over a non-nullable c never holds.
            let Ok(schema) = wellformed::substitute_schema(&db.catalog, memo, &children[0]) else {
                return false;
            };
            conjuncts(predicate).iter().any(|c| match c {
                Expr::IsNull(inner) => match inner.as_ref() {
                    Expr::Col(col) => schema.iter().any(|ci| ci.id == *col && !ci.nullable),
                    _ => false,
                },
                _ => false,
            })
        }
        Operator::Project { .. }
        | Operator::Distinct
        | Operator::Sort { .. }
        | Operator::Top { .. } => child_empty(0),
        // Scalar aggregation yields one row even on empty input.
        Operator::GbAgg { group_by, .. } => !group_by.is_empty() && child_empty(0),
        Operator::Join { kind, .. } => match kind {
            JoinKind::Inner | JoinKind::LeftSemi => child_empty(0) || child_empty(1),
            JoinKind::LeftOuter | JoinKind::LeftAnti => child_empty(0),
            JoinKind::RightOuter => child_empty(1),
            JoinKind::FullOuter => child_empty(0) && child_empty(1),
        },
        Operator::UnionAll { .. } => child_empty(0) && child_empty(1),
    }
}

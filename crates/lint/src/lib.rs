//! Static plan auditor and rule linter (§3.1's necessary-condition
//! contract, checked before any query runs).
//!
//! The dynamic campaign finds rule bugs by executing queries and diffing
//! result multisets. This crate catches a large class of those bugs
//! *statically*: for every registered transformation rule it instantiates
//! a bounded corpus of small logical trees from the rule's exported
//! pattern, applies the rule's substitution in a sandboxed memo, and
//! checks each substitute against the input match on four axes —
//! well-formedness (column binding, predicate typing, outer-join
//! nullability, Union arity), schema equivalence, row provenance
//! (NULL-padding / row-preservation per base leaf), and duplicate
//! sensitivity (set-class vs bag-class outputs). A pattern-necessity
//! auditor separately probes every rule's action against every corpus
//! tree and flags actions that fire where their exported pattern does not
//! match.
//!
//! The entry point is [`lint_rules`] — the offline `ruletest lint` audit
//! over a whole optimizer rule catalog, producing a [`LintReport`].

pub mod audit;
pub mod derive;
pub mod keys;
pub mod node;
pub mod props;
pub mod prove;
pub mod report;
pub mod violation;
pub mod wellformed;

pub use audit::{AuditStats, CorpusTree};
pub use node::{AuditNode, LeafKey};
pub use prove::{ProofViolation, ProveReport, ProveVerdict, RuleProof};
pub use report::LintReport;
pub use violation::{dedup_violations, LintPass, LintViolation, Severity};

use ruletest_common::{Error, Result, RuleId};
use ruletest_optimizer::{Optimizer, Rule};

/// Runs the full static audit over an optimizer's rule catalog.
pub fn lint_rules(opt: &Optimizer) -> Result<LintReport> {
    lint_selected(opt, None)
}

/// Audits only the named rule — used to focus a fault investigation: its
/// pattern, its own corpus, and its necessity probe over every
/// exploration rule's corpus, the only sources of a violation naming it.
/// Fails if the name is not a rule of this optimizer.
pub fn lint_rules_focused(opt: &Optimizer, rule_name: &str) -> Result<LintReport> {
    let id = opt
        .rule_id(rule_name)
        .ok_or_else(|| Error::unsupported(format!("unknown rule '{rule_name}'")))?;
    lint_selected(opt, Some(id))
}

fn lint_selected(opt: &Optimizer, only: Option<RuleId>) -> Result<LintReport> {
    let db = opt.database();
    let selected = |id: RuleId| only.is_none_or(|o| o == id);
    let mut stats = AuditStats::default();
    let mut violations = Vec::new();

    let audited: Vec<&Rule> = opt
        .exploration_rule_ids()
        .into_iter()
        .chain(opt.implementation_rule_ids())
        .filter(|&id| selected(id))
        .map(|id| opt.rule(id))
        .collect();

    // Static pattern satisfiability for every audited rule, exploration
    // and implementation alike.
    for rule in &audited {
        violations.extend(audit::validate_pattern(rule.name, &rule.pattern));
    }

    // Corpus instantiation + substitute audit per audited exploration
    // rule. Every exploration rule's corpus joins the necessity-probe
    // tree pool.
    let mut corpora = Vec::new();
    for id in opt.exploration_rule_ids() {
        let rule = opt.rule(id);
        let corpus = audit::build_corpus(db, rule)?;
        if selected(id) {
            stats.corpus_trees += corpus.len();
            for ct in &corpus {
                // Self-check: corpus trees must themselves be well-formed,
                // or the audit would chase bugs in its own inputs.
                violations.extend(wellformed::check_tree(
                    &db.catalog,
                    &ct.tree,
                    &format!("corpus for {}", ct.origin),
                ));
            }
            violations.extend(audit::audit_rule(db, rule, &corpus, &mut stats));
        }
        corpora.extend(corpus);
    }

    violations.extend(audit::necessity_probe(&audited, &corpora, &mut stats));

    Ok(LintReport {
        rules_audited: audited.len(),
        stats,
        violations: dedup_violations(violations),
    })
}

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

/// Every exploration rule's lint corpus, in rule-id order: the trees the
/// necessity probe runs each audited rule against. A corpus depends only on
/// the database and its rule's pattern, so one set built from the real
/// catalog serves every focused lint of a mutant of it, read-only.
pub struct LintCorpora(Vec<(&'static str, Vec<CorpusTree>)>);

impl LintCorpora {
    /// Builds the corpus of every exploration rule of `opt`.
    pub fn build(opt: &Optimizer) -> Result<LintCorpora> {
        let db = opt.database();
        opt.exploration_rule_ids()
            .into_iter()
            .map(|id| {
                let rule = opt.rule(id);
                Ok((rule.name, audit::build_corpus(db, rule)?))
            })
            .collect::<Result<_>>()
            .map(LintCorpora)
    }

    /// The corpus of the exploration rule named `name`.
    fn of(&self, name: &str) -> Result<&[CorpusTree]> {
        self.0
            .iter()
            .find(|(rule, _)| *rule == name)
            .map(|(_, corpus)| &corpus[..])
            .ok_or_else(|| Error::internal(format!("no lint corpus for rule '{name}'")))
    }
}

/// Runs the full static audit over an optimizer's rule catalog.
pub fn lint_rules(opt: &Optimizer) -> Result<LintReport> {
    let corpora = LintCorpora::build(opt)?;
    let pool: Vec<&[CorpusTree]> = corpora.0.iter().map(|(_, c)| &c[..]).collect();
    lint_selected(opt, None, &pool)
}

/// Audits only the named rule — used to focus a fault investigation: its
/// pattern, its own corpus, and its necessity probe over every
/// exploration rule's corpus, the only sources of a violation naming it.
/// The named rule's corpus is built from `opt`, since a mutant may edit its
/// pattern; every other rule's is taken from `shared`, which must come from
/// a catalog whose other exploration rules are `opt`'s. Fails if the name
/// is not a rule of this optimizer.
pub fn lint_rules_focused(
    opt: &Optimizer,
    rule_name: &str,
    shared: &LintCorpora,
) -> Result<LintReport> {
    let id = opt
        .rule_id(rule_name)
        .ok_or_else(|| Error::unsupported(format!("unknown rule '{rule_name}'")))?;
    let explore = opt.exploration_rule_ids();
    let own = if explore.contains(&id) {
        audit::build_corpus(opt.database(), opt.rule(id))?
    } else {
        Vec::new()
    };
    let pool = explore
        .into_iter()
        .map(|e| {
            if e == id {
                Ok(&own[..])
            } else {
                shared.of(opt.rule(e).name)
            }
        })
        .collect::<Result<Vec<_>>>()?;
    lint_selected(opt, Some(id), &pool)
}

/// The audit over `pool`, one corpus per exploration rule of `opt` in
/// rule-id order.
fn lint_selected(
    opt: &Optimizer,
    only: Option<RuleId>,
    pool: &[&[CorpusTree]],
) -> Result<LintReport> {
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

    // Substitute audit per audited exploration rule, over its own corpus.
    for (id, &corpus) in opt.exploration_rule_ids().into_iter().zip(pool) {
        if !selected(id) {
            continue;
        }
        let rule = opt.rule(id);
        stats.corpus_trees += corpus.len();
        for ct in corpus {
            // Self-check: corpus trees must themselves be well-formed,
            // or the audit would chase bugs in its own inputs.
            violations.extend(wellformed::check_tree(
                &db.catalog,
                &ct.tree,
                &format!("corpus for {}", ct.origin),
            ));
        }
        violations.extend(audit::audit_rule(db, rule, corpus, &mut stats));
    }

    // Every exploration rule's corpus joins the necessity-probe tree pool.
    violations.extend(audit::necessity_probe(&audited, pool, &mut stats));

    Ok(LintReport {
        rules_audited: audited.len(),
        stats,
        violations: dedup_violations(violations),
    })
}

//! Rule mutation: systematic derivation of buggy rule variants from the
//! real catalog, to *measure* the framework's fault-detection power.
//!
//! The paper's claim (§2.3, §6) is that `Plan(q)` vs `Plan(q, ¬{r})`
//! differential execution finds incorrectly implemented rules. Three
//! hand-written bugs (the original `--fault` names, still the ids of
//! three mutants here) sit in one class — and the static linter catches
//! all three, so the dynamic pipeline's unique contribution was
//! unmeasured. This module derives a few dozen buggy variants ([`Mutant`]) across six bug
//! classes ([`BugClass`]) from the real rules, runs the full
//! generation → differential-execution pipeline plus the static linter
//! against each, and reports per-class detection rates and the
//! *lint-escape matrix*: mutants invisible to every static pass but
//! killed dynamically — the measured justification for executing
//! queries at all.
//!
//! Each mutant carries an expected verdict:
//! * [`Verdict::DetectableDynamic`] — the differential oracle must kill
//!   it (these are the lint-escape candidates);
//! * [`Verdict::DetectableStatic`] — the rule linter must flag it;
//! * [`Verdict::Benign`] — the mutant changes plan choice but not
//!   results; the oracle must *not* report a bug (false-positive
//!   control).

mod campaign;
mod catalog;
pub mod crossval;
mod detect;
mod report;

pub use campaign::{run_mutation_campaign, MutantOutcome, MutationConfig};
pub use crossval::{crossval_prove, CrossValReport, CrossValRow};
pub use detect::{detect_with_methodology, Detection, DynamicKill, KillKind, MutationBudget};
pub use report::{ClassStats, MutationReport};

use ruletest_common::{Error, Result};
use ruletest_optimizer::{Optimizer, Rule};
use ruletest_storage::Database;
use std::sync::Arc;

/// The six seeded bug classes (taxonomy after QPG's seeded logic bugs
/// and the set/bag + predicate-placement classes of duplicate-
/// sensitivity-guided transformation testing).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum BugClass {
    /// A precondition check deleted from the substitute (null-rejection,
    /// key/uniqueness, column-scope checks).
    DroppedPrecondition,
    /// A predicate moved to the wrong place (wrong join side, wrong
    /// clause, dropped conjuncts).
    PredicateMisplacement,
    /// Set/bag confusion: dropped dedup, wrong duplicate multiplicity.
    DuplicateSensitivity,
    /// Operand swaps and join-kind corruption in the substitute.
    OperandCorruption,
    /// Aggregate/TopN boundary bugs: off-by-one limits, wrong combining
    /// function, wrong partial grouping key.
    BoundaryBug,
    /// Plan-only mutants: they change which plan wins (or which plans
    /// exist) but never change results. The oracle must stay silent.
    CostOnly,
}

// Stable names used in CLI flags and `MUTATION_REPORT.json`.
ruletest_common::wire_names!(BugClass {
    DroppedPrecondition => "dropped-precondition",
    PredicateMisplacement => "predicate-misplacement",
    DuplicateSensitivity => "duplicate-sensitivity",
    OperandCorruption => "operand-corruption",
    BoundaryBug => "boundary-bug",
    CostOnly => "cost-only",
});

impl BugClass {
    /// [`BugClass::from_name`], failing with the offending name and the
    /// known classes.
    pub fn parse(name: &str) -> Result<BugClass> {
        BugClass::from_name(name).ok_or_else(|| {
            Error::unsupported(format!(
                "unknown bug class '{name}' (known: {})",
                BugClass::ALL.map(|c| c.name()).join(", ")
            ))
        })
    }
}

impl std::fmt::Display for BugClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// What the methodology is expected to do with a mutant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Killed by dynamic differential execution; the static linter is
    /// blind to it (a lint-escape row).
    DetectableDynamic,
    /// Flagged by the static rule linter (dynamic execution may or may
    /// not also kill it).
    DetectableStatic,
    /// Not a correctness bug: the dynamic oracle must report nothing.
    Benign,
}

ruletest_common::wire_names!(Verdict {
    DetectableDynamic => "detectable-dynamic",
    DetectableStatic => "detectable-static",
    Benign => "benign",
});

/// One derived buggy rule variant.
pub struct Mutant {
    /// Stable id used in CLI flags, reports, and repro bundles.
    pub id: &'static str,
    pub class: BugClass,
    /// Name of the real rule this mutant replaces.
    pub rule_name: &'static str,
    pub expected: Verdict,
    /// One-line statement of the seeded bug.
    pub note: &'static str,
    /// Derives the sabotaged rule from the real one (keeping its name, so
    /// [`Optimizer::new_with_overrides`] swaps it in).
    pub(crate) build: fn(Rule) -> Rule,
}

impl Mutant {
    /// The full mutant catalog, in declaration order (stable: reports
    /// and stratified samples index into this order).
    pub fn all() -> &'static [Mutant] {
        catalog::all()
    }

    /// Looks a mutant up by id; fails with the offending name (CLI
    /// boundary contract — see `Error::Unsupported`).
    pub fn by_id(id: &str) -> Result<&'static Mutant> {
        Mutant::all().iter().find(|m| m.id == id).ok_or_else(|| {
            Error::unsupported(format!(
                "unknown mutant '{id}' (see `ruletest mutate --list`)"
            ))
        })
    }

    /// The sabotaged rule.
    pub fn rule(&self) -> Rule {
        (self.build)(catalog::real(self.rule_name))
    }
}

impl std::fmt::Debug for Mutant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Mutant")
            .field("id", &self.id)
            .field("class", &self.class)
            .field("rule", &self.rule_name)
            .field("expected", &self.expected)
            .finish()
    }
}

/// An optimizer over `db` with `mutant` injected in place of the real
/// rule.
pub fn mutant_optimizer(db: Arc<Database>, mutant: &Mutant) -> Optimizer {
    Optimizer::new_with_overrides(db, vec![mutant.rule()])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_is_large_and_covers_every_class() {
        let all = Mutant::all();
        assert!(all.len() >= 18, "only {} mutants", all.len());
        for class in BugClass::ALL {
            assert!(
                all.iter().any(|m| m.class == class),
                "no mutant in class {class}"
            );
        }
        // Stable unique ids.
        let mut ids: Vec<_> = all.iter().map(|m| m.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), all.len(), "duplicate mutant ids");
    }

    #[test]
    fn every_mutant_names_a_real_rule() {
        let names: Vec<_> = ruletest_optimizer::rules::exploration_rules()
            .into_iter()
            .map(|r| r.name)
            .collect();
        for m in Mutant::all() {
            assert!(
                names.contains(&m.rule_name),
                "{}: rule {} not in catalog",
                m.id,
                m.rule_name
            );
            // The sabotaged rule must keep the real rule's name so the
            // override mechanism replaces rather than adds.
            assert_eq!(m.rule().name, m.rule_name, "{}", m.id);
        }
    }

    #[test]
    fn unknown_ids_fail_with_the_offending_name() {
        let err = Mutant::by_id("NoSuchMutant").unwrap_err();
        assert!(err.to_string().contains("NoSuchMutant"), "{err}");
        let err = BugClass::parse("no-such-class").unwrap_err();
        assert!(err.to_string().contains("no-such-class"), "{err}");
        assert!(err.to_string().contains("boundary-bug"), "{err}");
    }
}

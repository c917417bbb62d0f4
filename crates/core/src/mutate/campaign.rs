//! The mutation campaign: every selected mutant through the static
//! linter *and* the dynamic differential-execution pipeline.
//!
//! Each mutant gets its own optimizer (the sabotaged rule swapped in
//! for the real one via `Optimizer::new_with_overrides`), a focused
//! static lint pass over lint corpora the campaign builds once, and a
//! [`detect_with_methodology`] sweep. The sweeps
//! run in parallel via the deterministic `par_map` pool; outcomes come
//! back in catalog order and telemetry is merged afterwards, so the
//! report is byte-identical at any thread count.

use super::detect::{detect_with_methodology, Detection, DynamicKill, MutationBudget};
use super::report::MutationReport;
use super::{mutant_optimizer, BugClass, Mutant, Verdict};
use ruletest_common::{par_map, Result};
use ruletest_lint::{lint_rules_focused, LintCorpora};
use ruletest_optimizer::Optimizer;
use ruletest_storage::Database;
use ruletest_telemetry::{Counter, Telemetry};
use std::sync::Arc;

/// Selection and effort knobs for one campaign run.
#[derive(Debug, Clone, Copy, Default)]
pub struct MutationConfig {
    /// Restrict to one bug class (`--class`).
    pub class: Option<BugClass>,
    /// Stratified sample: keep at most this many mutants *per class*, in
    /// declaration order (`--sample`). Guarantees every class stays
    /// represented, which is what a smoke run wants.
    pub sample: Option<usize>,
    /// Worker threads (0 = sequential).
    pub threads: usize,
    pub budget: MutationBudget,
}

impl MutationConfig {
    /// The mutants this configuration selects, in catalog order.
    pub fn select(&self) -> Vec<&'static Mutant> {
        let mut per_class = [0usize; BugClass::ALL.len()];
        Mutant::all()
            .iter()
            .filter(|m| self.class.is_none_or(|c| m.class == c))
            .filter(|m| {
                let Some(n) = self.sample else { return true };
                // A class absent from `BugClass::ALL` has no stratum to
                // count against; exclude the mutant instead of panicking.
                let Some(slot) = BugClass::ALL.iter().position(|&c| c == m.class) else {
                    return false;
                };
                per_class[slot] += 1;
                per_class[slot] <= n
            })
            .collect()
    }
}

/// What the campaign observed for one mutant.
#[derive(Debug)]
pub struct MutantOutcome {
    pub mutant: &'static Mutant,
    /// The static rule linter flagged the sabotaged rule.
    pub static_caught: bool,
    /// The dynamic sweep's observations.
    pub detection: Detection,
}

impl MutantOutcome {
    pub fn dynamic(&self) -> Option<DynamicKill> {
        self.detection.dynamic
    }

    /// Detected at all, by either layer.
    pub fn killed(&self) -> bool {
        self.static_caught || self.detection.dynamic.is_some()
    }

    /// A lint-escape row: invisible to the static linter, killed by
    /// dynamic differential execution — the measured justification for
    /// running queries at all.
    pub fn lint_escape(&self) -> bool {
        self.detection.dynamic.is_some() && !self.static_caught
    }

    /// Did the methodology do what the mutant's verdict demands?
    pub fn passes_expectation(&self) -> bool {
        match self.mutant.expected {
            Verdict::DetectableDynamic => self.detection.dynamic.is_some(),
            Verdict::DetectableStatic => self.static_caught,
            // A benign mutant reported as a bug by either layer is a
            // false positive.
            Verdict::Benign => self.detection.dynamic.is_none() && !self.static_caught,
        }
    }
}

/// Runs the campaign over `cfg.select()` and assembles the report.
///
/// Telemetry counters (`mutate.killed`, `mutate.survived`,
/// `mutate.lint_escapes`) are incremented in catalog order after the
/// parallel phase completes, keeping metric output deterministic.
pub fn run_mutation_campaign(
    db: &Arc<Database>,
    cfg: &MutationConfig,
    tel: &Telemetry,
) -> Result<MutationReport> {
    let selected = cfg.select();
    let budget = cfg.budget;
    let static_caught = lint_each(db, &selected)?;
    let outcomes: Vec<Result<MutantOutcome>> = par_map(
        cfg.threads,
        tel.pool_stats(),
        &selected,
        |idx, m: &&'static Mutant| {
            let opt = Arc::new(mutant_optimizer(db.clone(), m));
            // Attach the campaign telemetry so the detection sweep's spans
            // and per-rule optimize costs are attributed under `mutation`.
            if tel.is_enabled() {
                opt.attach_telemetry(tel.clone());
            }
            Ok(MutantOutcome {
                mutant: m,
                static_caught: static_caught[idx],
                detection: detect_with_methodology(&opt, m.rule_name, &budget)?,
            })
        },
    );
    let outcomes: Vec<MutantOutcome> = outcomes.into_iter().collect::<Result<_>>()?;
    for o in &outcomes {
        if o.mutant.expected != Verdict::Benign {
            tel.incr(if o.killed() {
                Counter::MutantsKilled
            } else {
                Counter::MutantsSurvived
            });
        }
        if o.lint_escape() {
            tel.incr(Counter::LintEscapes);
        }
    }
    Ok(MutationReport::from_outcomes(outcomes, &budget))
}

/// Whether each mutant's focused lint flags its rule. A mutant replaces
/// one rule, so every other rule's lint corpus is the real catalog's: built
/// once here, and dropped before the detection sweeps start.
fn lint_each(db: &Arc<Database>, selected: &[&'static Mutant]) -> Result<Vec<bool>> {
    let corpora = LintCorpora::build(&Optimizer::new(db.clone()))?;
    selected
        .iter()
        .map(|m| {
            let opt = mutant_optimizer(db.clone(), m);
            let lint = lint_rules_focused(&opt, m.rule_name, &corpora)?;
            Ok(lint.flagged_rules().iter().any(|r| r == m.rule_name))
        })
        .collect()
}

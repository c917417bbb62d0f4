//! The dynamic detection harness: the §2.3 methodology packaged as a
//! reusable function.
//!
//! For a (possibly sabotaged) optimizer and a target rule, sweep seeds:
//! generate a query where the rule fires (pattern strategy), optimize
//! it twice — once normally, once with the rule masked — and execute
//! both plans. A result-multiset mismatch is a *kill*. This is the
//! exact loop the hand-written fault tests used inline; both the fault
//! tests and the mutation campaign now share it.

use crate::framework::Framework;
use crate::generate::pattern::instantiate_pattern;
use crate::generate::{GenConfig, Strategy};
use crate::oracle::{Failed, Oracle, Outcome};
use ruletest_common::{wire_names, wire_record, Error, Rng};
use ruletest_executor::ExecConfig;
use ruletest_logical::IdGen;
use ruletest_optimizer::{Optimizer, OptimizerConfig};
use std::sync::Arc;

/// Effort bounds for one mutant's detection sweep. Deliberately modest:
/// real bugs fall in the first handful of seeds, and the budget is paid
/// in full by every *surviving* mutant (benign controls, static-only
/// mutants whose dynamic effect needs data the generator never hits).
#[derive(Debug, Clone, Copy)]
pub struct MutationBudget {
    /// Seeds to sweep (`0..seeds`).
    pub seeds: u64,
    /// Generation trials per seed before giving up on it.
    pub max_trials: usize,
    /// Extra random operators stacked on the instantiated pattern.
    pub pad_ops: usize,
    /// Cooperative wall-clock deadline per mutant-plan execution, in
    /// milliseconds (0 = unarmed). With a deadline armed, a mutant whose
    /// plan loops or degenerates into pathological work is killed as
    /// [`KillKind::Hang`] instead of stalling the whole campaign.
    pub exec_deadline_ms: u64,
}

wire_record!(MutationBudget {
    "exec_deadline_ms" => exec_deadline_ms,
    "max_trials" => max_trials,
    "pad_ops" => pad_ops,
    "seeds" => seeds,
});

impl Default for MutationBudget {
    fn default() -> Self {
        MutationBudget {
            seeds: 48,
            max_trials: 20,
            pad_ops: 0,
            exec_deadline_ms: 0,
        }
    }
}

/// How a dynamic kill landed. The masked plan uses only unmutated rules,
/// so any asymmetric failure implicates the mutant — but *how* it failed
/// matters for the fault-detection-power analysis: a wrong answer, a
/// crash, and a hang are different bug classes with different production
/// blast radii.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KillKind {
    /// Both plans executed; the result multisets differ.
    Diff,
    /// One plan executed and the other failed outright (e.g. an unbound
    /// column reference surfacing at runtime, or a plan-time error).
    Crash,
    /// One plan executed and the other exceeded its cooperative deadline
    /// — the runaway-mutant signature (`Error::Timeout`).
    Hang,
}

// Stable names used in `MUTATION_REPORT.json` and the text report.
wire_names!(KillKind { Diff => "diff", Crash => "crash", Hang => "hang" });

/// A successful dynamic detection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DynamicKill {
    /// The seed whose query exposed the bug.
    pub seed: u64,
    /// Cumulative generation trials spent up to and including the kill
    /// (failed seeds charge their full `max_trials`) — the paper's
    /// trials-to-detection efficiency metric applied to mutants.
    pub trials: u64,
    /// How the kill landed (result diff / differential crash / hang).
    pub kind: KillKind,
}

impl KillKind {
    /// Classifies one check of the mutant against its masked optimizer.
    /// The masked plan uses only unmutated rules, so differing results
    /// are a kill, and so is exactly one failing side
    /// ([`KillKind::of_error`]). Identical plans, equal results and two
    /// failing sides are not kills.
    pub(crate) fn of(outcome: &Outcome) -> Option<KillKind> {
        match outcome {
            Outcome::Differ(_) => Some(KillKind::Diff),
            Outcome::Failed(Failed::Base {
                error,
                masked: None,
            })
            | Outcome::Failed(Failed::Masked(error)) => Some(KillKind::of_error(error)),
            _ => None,
        }
    }

    /// The kill one failing side is: a cooperative deadline expiry a
    /// hang, any other error a crash.
    fn of_error(error: &Error) -> KillKind {
        match error {
            Error::Timeout(_) => KillKind::Hang,
            _ => KillKind::Crash,
        }
    }
}

/// What the dynamic sweep observed for one mutant.
#[derive(Debug, Clone, Copy, Default)]
pub struct Detection {
    /// The target rule fired in at least one generated query.
    pub fired: bool,
    /// `Plan(q)` vs `Plan(q, ¬rule)` differed in shape at least once.
    pub plans_diverged: bool,
    /// The differential oracle found a result mismatch.
    pub dynamic: Option<DynamicKill>,
}

/// Runs the generation → differential-execution methodology against
/// `rule_name` on `opt` (normally a [`super::mutant_optimizer`]).
///
/// Returns as soon as a kill lands; otherwise exhausts the budget and
/// reports what was observed (`fired` / `plans_diverged` distinguish "the
/// mutant never executed" from "it executed and the results still
/// matched" — the difference between a vacuous and a meaningful
/// survival).
pub fn detect_with_methodology(
    opt: &Arc<Optimizer>,
    rule_name: &str,
    budget: &MutationBudget,
) -> ruletest_common::Result<Detection> {
    let rule = opt.rule_id(rule_name).ok_or_else(|| {
        ruletest_common::Error::unsupported(format!("unknown rule '{rule_name}'"))
    })?;
    // One span per mutant sweep, attributed through the optimizer's
    // telemetry (attached by the campaign). The internal framework below
    // keeps disabled telemetry, so no nested generation spans appear —
    // all optimize flushes land under this mutation span.
    let tel = opt.telemetry().clone();
    let _span = tel.span(ruletest_telemetry::Stage::Mutation);
    let db = opt.database();
    let fw = Framework::with_optimizer(opt.clone());
    let masked = OptimizerConfig::disabling(&[rule]);
    // Both sides run, since one failing side is a kill. Each execution
    // re-arms the deadline (0 leaves it unarmed).
    let exec = ExecConfig {
        deadline: ruletest_common::Deadline::after_ms(budget.exec_deadline_ms),
        ..ExecConfig::default()
    };
    let oracle = Oracle {
        both_sides: true,
        ..Oracle::new(opt, &tel, &exec)
    };
    let pattern = opt.rule_pattern(rule).clone();
    let mut det = Detection::default();
    let mut trials = 0u64;
    for seed in 0..budget.seeds {
        let cfg = GenConfig {
            seed,
            max_trials: budget.max_trials,
            pad_ops: budget.pad_ops,
            ..Default::default()
        };
        // Stage 1: the paper's differential-execution oracle on a query
        // where the (mutated) rule fires.
        if let Ok(out) = fw.find_query_for_rule(rule, Strategy::Pattern, &cfg) {
            trials += out.trials as u64;
            det.fired = true;
            // The trial optimized this tree through the same cache: a hit,
            // unless its search stopped at the memo cap without a plan.
            let outcome = match oracle.check(&out.query, &[rule], None) {
                Ok((_, outcome)) => {
                    det.plans_diverged |= !matches!(outcome, Outcome::Identical);
                    outcome
                }
                Err(failed) => Outcome::Failed(failed),
            };
            if let Some(kind) = KillKind::of(&outcome) {
                det.plans_diverged = true;
                det.dynamic = Some(DynamicKill { seed, trials, kind });
                return Ok(det);
            }
        } else {
            trials += budget.max_trials as u64;
        }
        // Stage 2: the plan-time crash probe. Generation optimizes each
        // candidate and discards the ones that error — which silently
        // hides mutants whose substitute makes *optimization itself* blow
        // up (e.g. an unbound column failing schema derivation). Replay
        // this seed's candidates: if the mutant-enabled optimizer errors
        // on a pattern-matching query the masked optimizer handles fine,
        // the mutant is implicated — a plan-time differential crash.
        let mut rng = Rng::new(seed);
        for _ in 0..budget.max_trials {
            let mut ids = IdGen::new();
            let Some(built) = instantiate_pattern(db, &mut rng, &mut ids, &pattern) else {
                continue;
            };
            // Generation searched most of these trees already: the cache
            // answers them, and errors (never cached) are recomputed.
            let Err(error) = opt.optimize_cached(&built.tree) else {
                continue;
            };
            if opt.optimize_with_cached(&built.tree, &masked).is_ok() {
                let kind = KillKind::of_error(&error);
                det.fired = true;
                det.plans_diverged = true;
                det.dynamic = Some(DynamicKill { seed, trials, kind });
                return Ok(det);
            }
        }
    }
    Ok(det)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One table over the oracle's outcomes: differing results are a
    /// kill, and so is exactly one failing side (a timeout a hang, any
    /// other error a crash, whichever side failed); identical plans, equal
    /// results and two failing sides are not.
    #[test]
    fn every_outcome_classifies_to_its_kill() {
        use ruletest_common::ResultDiff;
        let base = |error| {
            Outcome::Failed(Failed::Base {
                error,
                masked: None,
            })
        };
        let cases = [
            ("identical plans", Outcome::Identical, None),
            ("equal results", Outcome::Equal, None),
            (
                "differing results",
                Outcome::Differ(ResultDiff {
                    only_left: vec![(vec![], 1)],
                    only_right: vec![],
                    left_rows: 1,
                    right_rows: 0,
                }),
                Some(KillKind::Diff),
            ),
            (
                "only the base fails",
                base(Error::internal("boom")),
                Some(KillKind::Crash),
            ),
            (
                "only the base is over budget",
                base(Error::budget("rows")),
                Some(KillKind::Crash),
            ),
            (
                "only the masked side fails",
                Outcome::Failed(Failed::Masked(Error::unsupported("nope"))),
                Some(KillKind::Crash),
            ),
            (
                "the base times out",
                base(Error::timeout("deadline")),
                Some(KillKind::Hang),
            ),
            (
                "the masked side times out",
                Outcome::Failed(Failed::Masked(Error::timeout("deadline"))),
                Some(KillKind::Hang),
            ),
            (
                "both sides fail",
                Outcome::Failed(Failed::Base {
                    error: Error::internal("a"),
                    masked: Some(Error::timeout("b")),
                }),
                None,
            ),
        ];
        for (name, outcome, expected) in cases {
            assert_eq!(KillKind::of(&outcome), expected, "{name}");
        }
    }

    #[test]
    fn kill_kind_names_are_stable() {
        assert_eq!(KillKind::Diff.name(), "diff");
        assert_eq!(KillKind::Crash.name(), "crash");
        assert_eq!(KillKind::Hang.name(), "hang");
    }
}

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
use ruletest_common::{wire_names, Rng};
use ruletest_executor::ExecConfig;
use ruletest_logical::IdGen;
use ruletest_optimizer::{Optimizer, OptimizerConfig};
use std::sync::Arc;

/// Seeds one mutant's detection sweep runs (`0..SEEDS`). Deliberately
/// modest, like [`MAX_TRIALS`]: real bugs fall in the first handful of
/// seeds, and the sweep is paid in full by every *surviving* mutant
/// (benign controls, static-only mutants whose dynamic effect needs data
/// the generator never hits).
pub const SEEDS: u64 = 48;

/// Generation trials per seed before the sweep gives up on it.
pub const MAX_TRIALS: usize = 20;

/// How a dynamic kill landed. The masked plan uses only unmutated rules,
/// so any asymmetric failure implicates the mutant — but *how* it failed
/// matters for the fault-detection-power analysis: a wrong answer and a
/// crash are different bug classes with different production blast
/// radii.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KillKind {
    /// Both plans executed; the result multisets differ.
    Diff,
    /// One plan executed and the other failed outright (e.g. an unbound
    /// column reference surfacing at runtime, or a plan-time error).
    Crash,
}

// Stable names used in `MUTATION_REPORT.json` and the text report.
wire_names!(KillKind { Diff => "diff", Crash => "crash" });

/// A successful dynamic detection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DynamicKill {
    /// The seed whose query exposed the bug.
    pub seed: u64,
    /// Cumulative generation trials spent up to and including the kill
    /// (failed seeds charge their full [`MAX_TRIALS`]) — the paper's
    /// trials-to-detection efficiency metric applied to mutants.
    pub trials: u64,
    /// How the kill landed (result diff / differential crash).
    pub kind: KillKind,
}

impl KillKind {
    /// Classifies one check of the mutant against its masked optimizer.
    /// The masked plan uses only unmutated rules, so differing results
    /// are a kill, and so is exactly one failing side (a crash). Identical
    /// plans, equal results and two failing sides are not kills.
    pub(crate) fn of(outcome: &Outcome) -> Option<KillKind> {
        match outcome {
            Outcome::Differ(_) => Some(KillKind::Diff),
            Outcome::Failed(Failed::Base { masked: None, .. })
            | Outcome::Failed(Failed::Masked(_)) => Some(KillKind::Crash),
            _ => None,
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
    // Both sides run, since one failing side is a kill.
    let exec = ExecConfig::default();
    let oracle = Oracle {
        both_sides: true,
        ..Oracle::new(opt, &tel, &exec)
    };
    let pattern = opt.rule_pattern(rule).clone();
    let mut det = Detection::default();
    let mut trials = 0u64;
    for seed in 0..SEEDS {
        let cfg = GenConfig {
            seed,
            max_trials: MAX_TRIALS,
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
            trials += MAX_TRIALS as u64;
        }
        // Stage 2: the plan-time crash probe. Generation optimizes each
        // candidate and discards the ones that error — which silently
        // hides mutants whose substitute makes *optimization itself* blow
        // up (e.g. an unbound column failing schema derivation). Replay
        // this seed's candidates: if the mutant-enabled optimizer errors
        // on a pattern-matching query the masked optimizer handles fine,
        // the mutant is implicated — a plan-time differential crash.
        let mut rng = Rng::new(seed);
        for _ in 0..MAX_TRIALS {
            let mut ids = IdGen::new();
            let Some(built) = instantiate_pattern(db, &mut rng, &mut ids, &pattern) else {
                continue;
            };
            // Generation searched most of these trees already: the cache
            // answers them, and errors (never cached) are recomputed.
            if opt.optimize_cached(&built.tree).is_ok() {
                continue;
            }
            if opt.optimize_with_cached(&built.tree, &masked).is_ok() {
                det.fired = true;
                det.plans_diverged = true;
                det.dynamic = Some(DynamicKill {
                    seed,
                    trials,
                    kind: KillKind::Crash,
                });
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
    /// kill, and so is exactly one failing side (a crash, whichever side
    /// failed and however); identical plans, equal results and two failing
    /// sides are not.
    #[test]
    fn every_outcome_classifies_to_its_kill() {
        use ruletest_common::{Error, ResultDiff};
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
                Some(KillKind::Crash),
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
    }
}

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
use ruletest_common::{multisets_equal, Rng};
use ruletest_executor::{execute_profiled, ExecConfig};
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

impl KillKind {
    /// Stable name used in `MUTATION_REPORT.json` and the text report.
    pub fn name(self) -> &'static str {
        match self {
            KillKind::Diff => "diff",
            KillKind::Crash => "crash",
            KillKind::Hang => "hang",
        }
    }
}

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

impl DynamicKill {
    /// True when the kill was any kind of differential failure rather
    /// than a result diff (crash *or* hang).
    pub fn crashed(&self) -> bool {
        self.kind != KillKind::Diff
    }
}

/// Classifies one differential pair — two optimizations or two
/// executions of the same query, with and without the mutant. Exactly one
/// side failing implicates the mutant: a cooperative-deadline expiry is a
/// hang, any other error a crash. Both succeeding or both failing is not a
/// kill here.
fn asymmetric<A, B>(
    base: &ruletest_common::Result<A>,
    masked: &ruletest_common::Result<B>,
) -> Option<KillKind> {
    match (base, masked) {
        (Ok(_), Err(e)) | (Err(e), Ok(_)) => Some(match e {
            ruletest_common::Error::Timeout(_) => KillKind::Hang,
            _ => KillKind::Crash,
        }),
        _ => None,
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
    let masked_config = OptimizerConfig::disabling(&[rule]);
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
            let base = opt.optimize_cached(&out.query);
            let masked = opt.optimize_with_cached(&out.query, &masked_config);
            let kill = match (&base, &masked) {
                (Ok(base), Ok(masked)) if !base.plan.same_shape(&masked.plan) => {
                    det.plans_diverged = true;
                    let exec = ExecConfig {
                        deadline: ruletest_common::Deadline::after_ms(budget.exec_deadline_ms),
                        ..ExecConfig::default()
                    };
                    let a = execute_profiled(db, &base.plan, &exec, &tel);
                    let b = execute_profiled(db, &masked.plan, &exec, &tel);
                    match (&a, &b) {
                        (Ok(a), Ok(b)) if !multisets_equal(a, b) => Some(KillKind::Diff),
                        _ => asymmetric(&a, &b),
                    }
                }
                _ => asymmetric(&base, &masked),
            };
            if let Some(kind) = kill {
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
            let base = opt.optimize_cached(&built.tree);
            if base.is_ok() {
                continue;
            }
            let masked = opt.optimize_with_cached(&built.tree, &masked_config);
            if let Some(kind) = asymmetric(&base, &masked) {
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

    /// The one classifier every differential site uses: exactly one
    /// failing side is a kill, a timeout a hang and any other error a
    /// crash, whichever side failed; agreement is never a kill.
    #[test]
    fn only_one_failing_side_is_a_kill() {
        use ruletest_common::{Error, Result};
        let ok = || -> Result<()> { Ok(()) };
        let cases = [
            ("both ok", ok(), ok(), None),
            (
                "both fail",
                Err(Error::internal("a")),
                Err(Error::timeout("b")),
                None,
            ),
            (
                "base crashes",
                Err(Error::internal("boom")),
                ok(),
                Some(KillKind::Crash),
            ),
            (
                "masked crashes",
                ok(),
                Err(Error::unsupported("nope")),
                Some(KillKind::Crash),
            ),
            (
                "base over budget",
                Err(Error::budget("rows")),
                ok(),
                Some(KillKind::Crash),
            ),
            (
                "base hangs",
                Err(Error::timeout("deadline")),
                ok(),
                Some(KillKind::Hang),
            ),
            (
                "masked hangs",
                ok(),
                Err(Error::timeout("deadline")),
                Some(KillKind::Hang),
            ),
        ];
        for (name, base, masked, expected) in cases {
            assert_eq!(asymmetric(&base, &masked), expected, "{name}");
        }
        // The two sides may carry different success types (a plan and a
        // result set).
        let rows: Result<Vec<u8>> = Ok(vec![]);
        assert_eq!(
            asymmetric(&Err::<(), _>(Error::internal("x")), &rows),
            Some(KillKind::Crash)
        );
    }

    #[test]
    fn kill_kind_names_are_stable_and_crashed_covers_both_failures() {
        assert_eq!(KillKind::Diff.name(), "diff");
        assert_eq!(KillKind::Crash.name(), "crash");
        assert_eq!(KillKind::Hang.name(), "hang");
        for (kind, crashed) in [
            (KillKind::Diff, false),
            (KillKind::Crash, true),
            (KillKind::Hang, true),
        ] {
            let kill = DynamicKill {
                seed: 1,
                trials: 1,
                kind,
            };
            assert_eq!(kill.crashed(), crashed, "{}", kind.name());
        }
    }
}

//! Correctness-validation execution (§2.3).
//!
//! For every query in a (compressed) suite, `Plan(q)` executes once; for
//! every `(target, query)` assignment, `Plan(q, ¬R)` executes and the two
//! result multisets are compared. Differing results are correctness bugs.
//! Per the paper's footnote 1, when the two plans are identical the
//! execution is skipped — the results are guaranteed equal.

use crate::compress::{Instance, Solution};
use crate::framework::Framework;
use crate::oracle::{Failed, Oracle, Outcome};
use crate::suite::{RuleTarget, TestSuite};
use crate::supervise::{run_stage, ItemName, Quarantine, SITE_EXEC_BASE, SITE_EXEC_PAIR};
use ruletest_common::{Error, Result};
use ruletest_executor::{ExecConfig, ResultSet};
use ruletest_telemetry::{Counter, Event, Stage};
use std::collections::HashMap;
use std::time::Instant;

/// One detected correctness bug. Carries a full repro: the SQL alone is
/// not one, because the result diff depends on the generated database
/// (seed + scale) and on exactly which rules were masked.
#[derive(Debug, Clone)]
pub struct BugReport {
    pub target: RuleTarget,
    pub target_label: String,
    /// Index of the witness query in the suite (for triage post-processing).
    pub query: usize,
    pub sql: String,
    pub diff_summary: String,
    /// Suite generation seed (`GenConfig::seed`).
    pub seed: u64,
    /// Names of the rules disabled in the masked optimization.
    pub rule_mask: Vec<String>,
    /// Test-database scale factor at detection time.
    pub scale: usize,
}

/// The outcome of executing a test suite.
#[derive(Debug, Clone, Default)]
pub struct CorrectnessReport {
    /// (target, query) validations attempted.
    pub validations: usize,
    /// Plans actually executed (base plans + differing disabled plans).
    pub executions: usize,
    /// Validations skipped because `Plan(q)` and `Plan(q, ¬R)` were
    /// identical (footnote 1).
    pub skipped_identical: usize,
    /// Validations skipped because execution exceeded the work budget.
    pub skipped_expensive: usize,
    /// Validations skipped because the executor refused the masked plan
    /// (`Error::Unsupported`). Distinct from budget skips: a refused plan
    /// may hide an optimizer bug and deserves scrutiny, an expensive one
    /// is just slow.
    pub skipped_unsupported: usize,
    /// Validations skipped because the input is (or just became)
    /// quarantined: its plan pair crashed, timed out, or blew a budget
    /// under supervision — this run or a previous one. Always 0 without
    /// a quarantine.
    pub skipped_quarantined: usize,
    /// Total estimated cost actually incurred (nodes once + edges).
    pub estimated_cost: f64,
    pub bugs: Vec<BugReport>,
    pub elapsed: std::time::Duration,
}

impl CorrectnessReport {
    pub fn passed(&self) -> bool {
        self.bugs.is_empty()
    }
}

/// Executes a compressed test suite against the framework's optimizer:
/// [`execute_solution_with`] under the propagating policy.
pub fn execute_solution(
    fw: &Framework,
    suite: &TestSuite,
    _inst: &Instance,
    sol: &Solution,
    exec_config: &ExecConfig,
) -> Result<CorrectnessReport> {
    execute_solution_with(fw, suite, sol, exec_config, None)
}

/// Executes a compressed test suite against the framework's optimizer.
/// Plan-pair executions run concurrently on the campaign pool; outcomes
/// are merged in assignment order, so the report (bug order, counters,
/// cost sums) is byte-identical at any thread count.
///
/// With a quarantine, a base query or plan pair that panics, times out or
/// exhausts a budget is quarantined (with its SQL, so the crash minimizer
/// can shrink it later) instead of aborting the campaign, and inputs
/// already in the quarantine are skipped *before* any optimizer or
/// executor call — a resumed campaign never re-triggers a known crash.
pub fn execute_solution_with(
    fw: &Framework,
    suite: &TestSuite,
    sol: &Solution,
    exec_config: &ExecConfig,
    mut quarantine: Option<&mut Quarantine>,
) -> Result<CorrectnessReport> {
    let start = Instant::now();
    let exec_config = &fw.exec_config(exec_config);
    let oracle = Oracle::new(&fw.optimizer, &fw.telemetry, exec_config);
    let mut report = CorrectnessReport::default();
    // Base results, one execution per distinct query (the node-cost-sharing
    // observation of §4.1). Each query is independent; results merge in
    // `used_queries` order so the floating-point cost sum is reproducible.
    let used: Vec<usize> = sol.used_queries().into_iter().collect();
    let base_items = run_stage(
        fw,
        SITE_EXEC_BASE,
        &used,
        |&q| {
            let sql = &suite.queries[q].sql;
            ItemName {
                label: sql.clone(),
                sql: Some(sql.clone()),
                rule_mask: Vec::new(),
            }
        },
        |_, &q| {
            // Spans open inside the leaf closure so the tree shape is
            // thread-count-invariant.
            let _span = fw.telemetry.span(Stage::Correctness);
            let res = fw.optimizer.optimize_cached(&suite.queries[q].tree)?;
            let rows = oracle.execute(&res.plan);
            match rows {
                Err(Error::Budget(_) | Error::Unsupported(_)) | Ok(_) => Ok((res.cost, rows)),
                Err(e) => Err(e),
            }
        },
        quarantine.as_deref_mut(),
    )?;
    // A quarantined base query has no entry: every pair over it is skipped
    // below, so the worker closures never touch a poisoned input.
    let mut base_results: HashMap<usize, Result<ResultSet>> = HashMap::new();
    for (&q, item) in used.iter().zip(base_items) {
        let Some((cost, rows)) = item else {
            continue;
        };
        report.estimated_cost += cost;
        if rows.is_ok() {
            report.executions += 1;
        }
        base_results.insert(q, rows);
    }

    // Every (target, query) assignment is an independent plan-pair
    // validation against the read-only test database.
    let pairs: Vec<(usize, usize)> = sol
        .assignment
        .iter()
        .enumerate()
        .flat_map(|(t, qs)| qs.iter().map(move |&q| (t, q)))
        .collect();
    let validated = run_stage(
        fw,
        SITE_EXEC_PAIR,
        &pairs,
        |&(t, q)| {
            let (target, sql) = (suite.targets[t], &suite.queries[q].sql);
            ItemName {
                label: format!("{}|{sql}", target.label(&fw.optimizer)),
                sql: Some(sql.clone()),
                rule_mask: target.rule_names(&fw.optimizer),
            }
        },
        |_, &(t, q)| {
            // A pair over a quarantined base query is skipped.
            let Some(expected) = base_results.get(&q) else {
                return Ok(None);
            };
            let _span = fw.telemetry.span(Stage::Correctness);
            // Both optimizations are near-guaranteed invocation-cache hits:
            // the base plan was computed for the base-results stage, the
            // masked plan during graph construction.
            let tree = &suite.queries[q].tree;
            match oracle.check(tree, &suite.targets[t].rules(), Some(expected)) {
                // A refused masked plan is counted; any other failure of
                // its execution, or of an optimization, is the stage's.
                Ok((_, Outcome::Failed(Failed::Masked(e))))
                    if !matches!(e, Error::Budget(_) | Error::Unsupported(_)) =>
                {
                    Err(e)
                }
                Ok(((_, masked), outcome)) => Ok(Some((masked.cost, outcome))),
                Err(failed) => Err(failed.into_error()),
            }
        },
        quarantine,
    )?;
    // The merge runs in assignment order on one thread, so the telemetry
    // counters and events below are deterministic at any thread count.
    fw.telemetry
        .add(Counter::Executions, report.executions as u64);
    for (&(t, q), item) in pairs.iter().zip(validated) {
        merge_one(fw, suite, &mut report, t, q, item.flatten());
    }
    report.elapsed = start.elapsed();
    Ok(report)
}

/// Folds one `(target, query)` validation's masked-plan cost and outcome
/// into the report and the telemetry stream; `None` is a quarantined
/// input (previously or just now), not attempted or not completed.
fn merge_one(
    fw: &Framework,
    suite: &TestSuite,
    report: &mut CorrectnessReport,
    t: usize,
    q: usize,
    item: Option<(f64, Outcome)>,
) {
    let tel = &fw.telemetry;
    let (cost, outcome) = item.unzip();
    report.validations += 1;
    report.estimated_cost += cost.unwrap_or(0.0);
    tel.incr(Counter::Validations);
    let label = match outcome {
        None => {
            report.skipped_quarantined += 1;
            "quarantined"
        }
        Some(Outcome::Identical) => {
            report.skipped_identical += 1;
            tel.incr(Counter::SkippedIdentical);
            "identical"
        }
        // The base rows were refused, or the masked plan is over budget.
        Some(Outcome::Failed(Failed::Base { .. } | Failed::Masked(Error::Budget(_)))) => {
            report.skipped_expensive += 1;
            tel.incr(Counter::SkippedExpensive);
            "expensive"
        }
        Some(Outcome::Failed(Failed::Masked(_))) => {
            report.skipped_unsupported += 1;
            tel.incr(Counter::SkippedUnsupported);
            "unsupported"
        }
        Some(Outcome::Equal) => {
            report.executions += 1;
            tel.incr(Counter::Executions);
            "clean"
        }
        Some(Outcome::Differ(diff)) => {
            report.executions += 1;
            tel.incr(Counter::Executions);
            tel.incr(Counter::CorrectnessBugs);
            let target = suite.targets[t];
            report.bugs.push(BugReport {
                target,
                target_label: target.label(&fw.optimizer),
                query: q,
                sql: suite.queries[q].sql.clone(),
                diff_summary: diff.summary(),
                seed: suite.seed,
                rule_mask: target.rule_names(&fw.optimizer),
                scale: fw.db_profile.scale,
            });
            "bug"
        }
    };
    tel.event(|| Event::Validation {
        target: t as u32,
        query: q as u32,
        outcome: label,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::FrameworkConfig;
    use crate::generate::{GenConfig, Strategy};
    use crate::suite::{compress_suite, generate_suite, singleton_targets};

    #[test]
    fn correct_rules_yield_no_bugs() {
        let fw = Framework::new(&FrameworkConfig::default()).unwrap();
        let targets = singleton_targets(&fw, 5);
        let suite = generate_suite(
            &fw,
            targets,
            2,
            Strategy::Pattern,
            &GenConfig {
                pad_ops: 2,
                ..GenConfig::default()
            },
        )
        .unwrap();
        let c = compress_suite(&fw, suite, None).unwrap();
        for sol in [&c.baseline, &c.topk] {
            let report =
                execute_solution(&fw, &c.suite, &c.inst, sol, &ExecConfig::default()).unwrap();
            assert!(report.passed(), "false positives: {:?}", report.bugs);
            assert!(report.validations > 0);
            assert!(report.executions > 0);
        }
    }
}

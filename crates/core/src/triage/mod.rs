//! Bug triage (post-detection processing of [`CorrectnessReport::bugs`]).
//!
//! Detection alone leaves findings nearly undebuggable: a raw witness is a
//! padded generated query, one optimizer fault floods the report with
//! near-identical findings, and the SQL alone is not a repro (result diffs
//! depend on the generated database). Triage fixes all three, in the style
//! of QPG-like reducers and duplicate-signature normalization:
//!
//! 1. **Minimize** each failing logical tree with delta debugging
//!    ([`minimize`]) — drop operators, shrink predicate conjuncts —
//!    re-checking after every step that `Plan(q)` and `Plan(q, ¬R)` still
//!    disagree on executed results.
//! 2. **Deduplicate** by bug signature ([`signature`]): (masked rule set,
//!    shape of the plan diff, diff cardinality class). The smallest
//!    witness per signature survives.
//! 3. **Bundle** each survivor as a self-contained JSONL repro
//!    ([`bundle`]) that replays deterministically in a fresh process.

pub mod bundle;
pub mod minimize;
pub mod signature;

use crate::correctness::{BugReport, CorrectnessReport};
use crate::framework::Framework;
use crate::mutate::Mutant;
use crate::suite::TestSuite;
use ruletest_common::{Error, Result, RuleId};
use ruletest_executor::ExecConfig;
use ruletest_sql::to_sql;
use ruletest_telemetry::Counter;

pub use bundle::{read_bundles, replay, write_bundles, ReplayOutcome, ReproBundle};
pub use minimize::{minimize, Minimized};
pub use signature::BugSignature;

/// Triage parameters.
#[derive(Debug, Clone)]
pub struct TriageConfig {
    /// Budget for the divergence re-checks during minimization.
    pub exec: ExecConfig,
    /// Cap on accepted shrink steps per bug.
    pub max_steps: usize,
    /// The mutant injected into the framework's optimizer, if any —
    /// recorded in repro bundles so replay can rebuild the same optimizer.
    pub fault: Option<&'static Mutant>,
}

impl Default for TriageConfig {
    fn default() -> Self {
        Self {
            exec: ExecConfig::default(),
            max_steps: 64,
            fault: None,
        }
    }
}

/// One deduplicated, minimized bug.
#[derive(Debug, Clone)]
pub struct TriagedBug {
    /// The original detection record of the surviving (smallest) witness.
    pub report: BugReport,
    /// Minimized witness, still diverging.
    pub minimized_sql: String,
    /// Logical operator count of the minimized witness.
    pub ops: usize,
    /// Signature of the finding as detected, before minimization.
    /// Usually equal to [`TriagedBug::signature`]; a difference means
    /// minimization stripped structure that was incidental to the bug.
    pub raw_signature: BugSignature,
    pub signature: BugSignature,
    /// Raw findings collapsed into this signature (0 = unique).
    pub duplicates: usize,
    /// Accepted shrink steps spent on the surviving witness.
    pub steps: usize,
    /// The minimizer's certification pass confirmed the shrink
    /// trajectory and the witness's 1-minimality.
    pub certified: bool,
    /// `Plan(q)` (the full optimizer's plan) at the minimized witness.
    pub base_plan: String,
    /// `Plan(q, ¬R)` at the minimized witness.
    pub masked_plan: String,
    /// Result diff at the minimized witness.
    pub diff_summary: String,
}

/// The triage outcome: one entry per distinct bug signature.
#[derive(Debug, Clone, Default)]
pub struct TriageReport {
    /// Raw findings processed.
    pub raw_bugs: usize,
    /// Deduplicated bugs, in order of first appearance.
    pub bugs: Vec<TriagedBug>,
    /// Total accepted shrink steps.
    pub steps_total: usize,
    /// Raw findings collapsed into an existing signature.
    pub duplicates_collapsed: usize,
}

/// Post-processes a correctness report: minimize every finding, collapse
/// duplicates by signature, keep the smallest witness each. Sequential on
/// purpose — findings are few and the telemetry counters must accumulate
/// in deterministic order.
pub fn triage_report(
    fw: &Framework,
    suite: &TestSuite,
    report: &CorrectnessReport,
    cfg: &TriageConfig,
) -> Result<TriageReport> {
    let mut out = TriageReport {
        raw_bugs: report.bugs.len(),
        ..TriageReport::default()
    };
    for bug in &report.bugs {
        let triaged = triage_one(fw, suite, bug, cfg)?;
        fw.telemetry.incr(Counter::BugsMinimized);
        fw.telemetry
            .add(Counter::MinimizationSteps, triaged.steps as u64);
        out.steps_total += triaged.steps;
        match out
            .bugs
            .iter_mut()
            .find(|b| b.signature == triaged.signature)
        {
            Some(existing) => {
                existing.duplicates += 1;
                out.duplicates_collapsed += 1;
                fw.telemetry.incr(Counter::DuplicatesCollapsed);
                // Keep the smallest witness (ties break on SQL text so the
                // survivor is independent of finding order).
                if (triaged.ops, &triaged.minimized_sql) < (existing.ops, &existing.minimized_sql) {
                    let dups = existing.duplicates;
                    *existing = triaged;
                    existing.duplicates = dups;
                }
            }
            None => out.bugs.push(triaged),
        }
    }
    Ok(out)
}

/// Converts the surviving bugs to self-contained repro bundles. Each
/// bundle is self-checked before it is emitted: its SQL (the only query
/// payload a replaying process gets) must reproduce the recorded result
/// diff in-process. The check is cheap — the optimizations it needs are
/// invocation-cache hits.
pub fn to_bundles(
    fw: &Framework,
    report: &TriageReport,
    cfg: &TriageConfig,
) -> Result<Vec<ReproBundle>> {
    let mut out = Vec::new();
    for b in &report.bugs {
        let bundle = ReproBundle {
            version: bundle::BUNDLE_VERSION,
            target_label: b.report.target_label.clone(),
            rule_mask: b.report.rule_mask.clone(),
            fault: cfg.fault.map(|m| m.id.to_string()),
            seed: b.report.seed,
            db_seed: fw.db_profile.db_seed,
            scale: b.report.scale as u64,
            sql: b.minimized_sql.clone(),
            ops: b.ops as u64,
            signature: b.signature.key(),
            duplicates: b.duplicates as u64,
            diff_summary: b.diff_summary.clone(),
            base_plan: b.base_plan.clone(),
            masked_plan: b.masked_plan.clone(),
        };
        let tree = ruletest_sql::parse_sql(&fw.db.catalog, &bundle.sql)?;
        let replayed = minimize::divergence(fw, &tree, &b.report.target.rules(), &cfg.exec);
        if replayed.map(|(_, diff)| diff.summary()).as_ref() != Some(&bundle.diff_summary) {
            return Err(Error::internal(
                "bundle SQL does not reproduce its recorded diff",
            ));
        }
        out.push(bundle);
    }
    Ok(out)
}

/// Minimizes one finding and derives its signature and final artifacts.
fn triage_one(
    fw: &Framework,
    suite: &TestSuite,
    bug: &BugReport,
    cfg: &TriageConfig,
) -> Result<TriagedBug> {
    let tree = &suite.queries[bug.query].tree;
    let rules: Vec<RuleId> = bug.target.rules();
    // Signature of the finding as detected (cache-warm: the campaign
    // just optimized this tree both ways). Also re-confirms the finding
    // before any minimization effort is spent on it.
    let ((base, masked), diff) = minimize::divergence(fw, tree, &rules, &cfg.exec)
        .ok_or_else(|| Error::internal("reported finding does not reproduce"))?;
    let raw_signature = BugSignature::derive(&bug.rule_mask, &base.plan, &masked.plan, &diff);
    let min = minimize(fw, tree, &rules, cfg)?;
    // Re-derive the final artifacts from the minimized witness. Both
    // optimizations were just computed by the minimizer's last accepted
    // check, so these are invocation-cache hits.
    let ((base, masked), diff) = minimize::divergence(fw, &min.tree, &rules, &cfg.exec)
        .ok_or_else(|| Error::internal("minimized witness no longer diverges — minimizer bug"))?;
    let minimized_sql = to_sql(&fw.db.catalog, &min.tree)?;
    // Round-trip guard: bundles carry only the SQL, so the rendered
    // witness must parse back to a tree that still diverges.
    let reparsed = ruletest_sql::parse_sql(&fw.db.catalog, &minimized_sql)?;
    minimize::divergence(fw, &reparsed, &rules, &cfg.exec)
        .ok_or_else(|| Error::internal("minimized SQL does not round-trip to a divergence"))?;
    let signature = BugSignature::derive(&bug.rule_mask, &base.plan, &masked.plan, &diff);
    Ok(TriagedBug {
        report: bug.clone(),
        minimized_sql,
        ops: min.tree.op_count(),
        raw_signature,
        signature,
        duplicates: 0,
        steps: min.steps,
        certified: min.certified,
        base_plan: base.plan.explain(),
        masked_plan: masked.plan.explain(),
        diff_summary: diff.summary(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compress::{topk, Instance};
    use crate::framework::FrameworkConfig;
    use crate::generate::{GenConfig, Strategy};
    use crate::mutate::mutant_optimizer;
    use crate::suite::{build_graph, generate_suite, singleton_targets};
    use ruletest_executor::ExecConfig;
    use std::sync::Arc;

    #[test]
    fn clean_optimizer_triage_is_empty() {
        let fw = Framework::new(&FrameworkConfig::default()).unwrap();
        let targets = singleton_targets(&fw, 3);
        let suite =
            generate_suite(&fw, targets, 2, Strategy::Pattern, &GenConfig::default()).unwrap();
        let graph = build_graph(&fw, &suite).unwrap();
        let inst = Instance::from_graph(&graph);
        let sol = topk(&inst).unwrap();
        let report =
            crate::correctness::execute_solution(&fw, &suite, &inst, &sol, &ExecConfig::default())
                .unwrap();
        assert!(report.passed());
        let triaged = triage_report(&fw, &suite, &report, &TriageConfig::default()).unwrap();
        assert_eq!(triaged.raw_bugs, 0);
        assert!(triaged.bugs.is_empty());
    }

    #[test]
    fn duplicate_findings_collapse_to_one_signature() {
        // Inject one fault, find a bug via generation, then hand the
        // *same* finding to triage twice: the second must collapse.
        let fault = Mutant::by_id("SelectMergedIntoOuterJoin").unwrap();
        let db = Arc::new(
            ruletest_storage::tpch_database(&ruletest_storage::TpchConfig::default()).unwrap(),
        );
        let opt = Arc::new(mutant_optimizer(db, fault));
        let fw = Framework::with_optimizer(opt);
        let rule = fw.optimizer.rule_id(fault.rule_name).unwrap();
        let targets = vec![crate::suite::RuleTarget::Single(rule)];
        let mut found = None;
        for seed in [3u64, 11, 19, 27, 40, 55, 63, 71] {
            let cfg = GenConfig {
                seed,
                max_trials: 100,
                pad_ops: 1,
                ..GenConfig::default()
            };
            let Ok(suite) = generate_suite(&fw, targets.clone(), 2, Strategy::Pattern, &cfg) else {
                continue;
            };
            let graph = build_graph(&fw, &suite).unwrap();
            let inst = Instance::from_graph(&graph);
            let sol = topk(&inst).unwrap();
            let report = crate::correctness::execute_solution(
                &fw,
                &suite,
                &inst,
                &sol,
                &ExecConfig::default(),
            )
            .unwrap();
            if !report.bugs.is_empty() {
                found = Some((suite, report));
                break;
            }
        }
        let (suite, mut report) = found.expect("fault not detected by any seed");
        // Duplicate every finding.
        let bugs = report.bugs.clone();
        report.bugs.extend(bugs);
        let cfg = TriageConfig {
            fault: Some(fault),
            ..TriageConfig::default()
        };
        let triaged = triage_report(&fw, &suite, &report, &cfg).unwrap();
        assert_eq!(triaged.raw_bugs, report.bugs.len());
        assert_eq!(
            triaged.bugs.len(),
            1,
            "expected one signature, got {:?}",
            triaged
                .bugs
                .iter()
                .map(|b| b.signature.key())
                .collect::<Vec<_>>()
        );
        assert!(triaged.duplicates_collapsed >= report.bugs.len() / 2);
        let bug = &triaged.bugs[0];
        assert!(bug.ops <= 8, "witness too large: {} ops", bug.ops);
        assert!(bug.diff_summary.starts_with("results differ"));
    }
}

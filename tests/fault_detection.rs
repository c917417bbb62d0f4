//! End-to-end fault detection *and triage*: inject a known-buggy rule
//! into the optimizer, run the full pipeline (suite generation -> graph
//! -> compression -> correctness execution -> triage), and require
//! exactly one deduplicated, minimized, replayable bug signature.

use ruletest_core::compress::{topk, Instance};
use ruletest_core::correctness::execute_solution;
use ruletest_core::{
    build_graph, generate_suite, mutant_optimizer, read_bundles, replay, to_bundles, triage_report,
    write_bundles, Framework, GenConfig, Mutant, RuleTarget, Strategy, TriageConfig,
};
use ruletest_executor::ExecConfig;
use ruletest_storage::{tpch_database, TpchConfig};
use std::sync::Arc;

/// Detects the fault via the full campaign pipeline, then triages the
/// findings and checks every triage guarantee: one signature, a small
/// witness, a replayable bundle, and cache locality at least as good as
/// the campaign's.
fn detect_and_triage(mutant_id: &str) {
    let fault = Mutant::by_id(mutant_id).unwrap();
    let db = Arc::new(tpch_database(&TpchConfig::default()).unwrap());
    let opt = Arc::new(mutant_optimizer(db, fault));
    let fw = Framework::with_optimizer(opt.clone());
    let rule = opt.rule_id(fault.rule_name).unwrap();
    // A handful of seeds: suite generation is deterministic per seed, and
    // detection needs the buggy alternative to win costing on at least one
    // of the k queries.
    for seed in [3u64, 11, 19, 27, 40, 55, 63, 71] {
        let Ok(suite) = generate_suite(
            &fw,
            vec![RuleTarget::Single(rule)],
            4,
            Strategy::Pattern,
            &GenConfig {
                seed,
                pad_ops: 1,
                max_trials: 100,
                ..Default::default()
            },
        ) else {
            continue;
        };
        let Ok(graph) = build_graph(&fw, &suite) else {
            continue;
        };
        let inst = Instance::from_graph(&graph);
        let Ok(sol) = topk(&inst) else {
            continue;
        };
        let Ok(report) = execute_solution(&fw, &suite, &inst, &sol, &ExecConfig::default()) else {
            continue;
        };
        if report.passed() {
            continue;
        }
        // The report identifies the sabotaged rule and carries the
        // provenance needed to reproduce each finding.
        assert!(report
            .bugs
            .iter()
            .all(|b| b.target_label == fault.rule_name));
        assert!(report.bugs.iter().all(|b| !b.sql.is_empty()));
        assert!(report
            .bugs
            .iter()
            .all(|b| b.diff_summary.contains("results differ")));
        assert!(report.bugs.iter().all(|b| b.seed == seed));
        assert!(report.bugs.iter().all(|b| b.scale == 1));
        assert!(report
            .bugs
            .iter()
            .all(|b| b.rule_mask == vec![fault.rule_name.to_string()]));

        // Triage: every raw finding for one injected fault must collapse
        // to a single signature with a small witness.
        let campaign = fw.optimizer.cache_stats();
        let cfg = TriageConfig {
            fault: Some(fault),
            ..TriageConfig::default()
        };
        let triaged = triage_report(&fw, &suite, &report, &cfg).unwrap();
        assert_eq!(triaged.raw_bugs, report.bugs.len());
        assert_eq!(
            triaged.bugs.len(),
            1,
            "{fault:?}: expected one deduplicated signature, got {:?}",
            triaged
                .bugs
                .iter()
                .map(|b| b.signature.key())
                .collect::<Vec<_>>()
        );
        let bug = &triaged.bugs[0];
        assert!(
            bug.ops <= 8,
            "{fault:?}: minimized witness still has {} operators",
            bug.ops
        );
        assert_eq!(bug.duplicates, report.bugs.len() - 1);
        assert!(
            bug.certified,
            "{fault:?}: minimizer failed to certify the witness"
        );

        // The bundle round-trips through JSONL and replays to the exact
        // recorded divergence from its own fields alone.
        let bundles = to_bundles(&fw, &triaged, &cfg).unwrap();
        assert_eq!(bundles.len(), 1);

        // Triage (minimization, certification, bundle self-checks) leans
        // on the invocation cache: its hit ratio must be at least the
        // campaign's.
        let total = fw.optimizer.cache_stats();
        let (t_hits, t_misses) = (total.hits - campaign.hits, total.misses - campaign.misses);
        let triage_ratio = t_hits as f64 / (t_hits + t_misses).max(1) as f64;
        let campaign_ratio = campaign.hits as f64 / (campaign.hits + campaign.misses).max(1) as f64;
        assert!(
            triage_ratio >= campaign_ratio,
            "{fault:?}: triage cache hit ratio {triage_ratio:.2} below campaign's {campaign_ratio:.2}"
        );
        let mut buf = Vec::new();
        write_bundles(&mut buf, &bundles).unwrap();
        let back = read_bundles(&buf[..]).unwrap();
        assert_eq!(back, bundles);
        let outcome = replay(&back[0]).unwrap();
        assert!(
            outcome.confirmed,
            "{fault:?}: replay did not confirm (diverged={}, replayed diff: {})",
            outcome.diverged, outcome.diff_summary
        );
        return;
    }
    panic!("{fault:?} not detected by any seed");
}

#[test]
fn pipeline_detects_unconditional_outer_join_simplification() {
    detect_and_triage("OuterJoinSimplifyUnconditional");
}

#[test]
fn pipeline_detects_pushdown_below_null_supplying_side() {
    detect_and_triage("PushBelowNullSupplyingSide");
}

#[test]
fn pipeline_detects_filter_merged_into_outer_join() {
    detect_and_triage("SelectMergedIntoOuterJoin");
}

#[test]
fn clean_optimizer_produces_no_bug_reports_on_the_same_seeds() {
    let fw = Framework::new(&Default::default()).unwrap();
    let rule = fw.optimizer.rule_id("OuterJoinSimplify").unwrap();
    for seed in [3u64, 11] {
        let suite = generate_suite(
            &fw,
            vec![RuleTarget::Single(rule)],
            4,
            Strategy::Pattern,
            &GenConfig {
                seed,
                pad_ops: 1,
                max_trials: 100,
                ..Default::default()
            },
        )
        .unwrap();
        let graph = build_graph(&fw, &suite).unwrap();
        let inst = Instance::from_graph(&graph);
        let sol = topk(&inst).unwrap();
        let report = execute_solution(&fw, &suite, &inst, &sol, &ExecConfig::default()).unwrap();
        assert!(report.passed(), "false positives: {:?}", report.bugs);
        let triaged = triage_report(&fw, &suite, &report, &TriageConfig::default()).unwrap();
        assert!(triaged.bugs.is_empty());
    }
}

//! Pins what `ruletest triage --fault <id>` produces, byte for byte, for
//! every mutant whose seed ladder finds a bug, against
//! `tests/golden/triage_bundles.txt`. The record is built in-process
//! through the functions the command calls, at one worker: the campaign
//! seed, its validations and raw findings, each signature line with its
//! minimized SQL and result diff, the repro bundles' JSONL bytes, each
//! bundle's replay status, and the invocation cache's hits and lookups
//! (which catch an added or dropped optimizer call). There is
//! deliberately no regeneration switch: a change meant to move triage
//! copies the `actual` text this test prints on mismatch.

use ruletest_common::Parallelism;
use ruletest_core::compress::{topk, Instance};
use ruletest_core::correctness::execute_solution;
use ruletest_core::{
    build_graph, generate_suite, mutant_optimizer, replay, to_bundles, triage_report,
    write_bundles, Framework, GenConfig, Mutant, RuleTarget, Strategy, TriageConfig,
};
use ruletest_executor::ExecConfig;
use ruletest_storage::{tpch_database, TpchConfig};
use std::fmt::Write;
use std::sync::Arc;

const GOLDEN: &str = include_str!("golden/triage_bundles.txt");

/// The mutants whose seed ladder finds a bug. The other eight (the four
/// benign controls and four that the ladder never exposes) give triage
/// nothing to do.
const MUTANTS: [&str; 17] = [
    "OuterJoinSimplifyUnconditional",
    "TopTopKeysCheckDropped",
    "AntiJoinProbeCheckDropped",
    "PushBelowNullSupplyingSide",
    "SelectMergedIntoOuterJoin",
    "SelectPushDropsResidualConjuncts",
    "SelectMergeWithOr",
    "SemiJoinKeyCheckDropped",
    "DistinctPushDropsOuter",
    "UnionAllCommuteLeftTwice",
    "LojCommuteKeepsKind",
    "RojCommuteForgetsSwap",
    "FojCommuteDemotedToLoj",
    "PushBelowJoinCorruptsKind",
    "TopTopCollapseOffByOne",
    "TopTopCollapseTakesMax",
    "GbAggEliminateMiscountsNulls",
];

/// The command's defaults: `--seed 42 --k 3 --trials 500`, one padding
/// operator under `--fault`, and its seed ladder.
const SEED: u64 = 42;
const K: usize = 3;
const TRIALS: usize = 500;
const LADDER: [u64; 9] = [SEED, 3, 11, 19, 27, 40, 55, 63, 71];

/// `ruletest triage --fault <id> --threads 1 --out <file>` followed by
/// `ruletest triage replay <file>`, rendered for the golden.
fn triage_record(id: &str) -> String {
    let fault = Mutant::by_id(id).unwrap();
    let db = Arc::new(tpch_database(&TpchConfig::default()).unwrap());
    let fw = Framework::with_optimizer(Arc::new(mutant_optimizer(db, fault))).with_parallelism(
        Parallelism {
            threads: 1,
            seed: SEED,
        },
    );
    let rule = fw.optimizer.rule_id(fault.rule_name).unwrap();
    let mut found = None;
    for seed in LADDER {
        let gen = GenConfig {
            seed,
            pad_ops: 1,
            max_trials: TRIALS,
            ..Default::default()
        };
        let targets = vec![RuleTarget::Single(rule)];
        let Ok(suite) = generate_suite(&fw, targets, K, Strategy::Pattern, &gen) else {
            continue;
        };
        let graph = build_graph(&fw, &suite).unwrap();
        let inst = Instance::from_graph(&graph);
        let sol = topk(&inst).unwrap();
        let report = execute_solution(&fw, &suite, &inst, &sol, &ExecConfig::default()).unwrap();
        if !report.bugs.is_empty() {
            found = Some((seed, suite, report));
            break;
        }
    }
    let (seed, suite, report) = found.unwrap_or_else(|| panic!("{id}: no seed finds a bug"));
    let mut out = format!(
        "== {id}\ncampaign (seed {seed}): {} validations, {} raw findings\n",
        report.validations,
        report.bugs.len()
    );
    let cfg = TriageConfig {
        fault: Some(fault),
        ..TriageConfig::default()
    };
    let triaged = triage_report(&fw, &suite, &report, &cfg).unwrap();
    writeln!(
        out,
        "triage: {} raw -> {} signature(s), {} collapsed, {} shrink steps",
        triaged.raw_bugs,
        triaged.bugs.len(),
        triaged.duplicates_collapsed,
        triaged.steps_total
    )
    .unwrap();
    for bug in &triaged.bugs {
        writeln!(
            out,
            "SIGNATURE {}\n  scale={} ops={} duplicates={} steps={} certified={}\n  {}\n  {}",
            bug.signature.key(),
            bug.report.scale,
            bug.ops,
            bug.duplicates,
            bug.steps,
            bug.certified,
            bug.minimized_sql,
            bug.diff_summary
        )
        .unwrap();
        if bug.raw_signature != bug.signature {
            writeln!(out, "  raw signature was: {}", bug.raw_signature.key()).unwrap();
        }
    }
    let bundles = to_bundles(&fw, &triaged, &cfg).unwrap();
    let mut jsonl = Vec::new();
    write_bundles(&mut jsonl, &bundles).unwrap();
    out.push_str(&String::from_utf8(jsonl).unwrap());
    let stats = fw.optimizer.cache_stats();
    writeln!(
        out,
        "optimizer invocation cache: {} hits / {} lookups",
        stats.hits,
        stats.hits + stats.misses
    )
    .unwrap();
    for (i, bundle) in bundles.iter().enumerate() {
        let replayed = replay(bundle).unwrap();
        writeln!(
            out,
            "replay {}: diverged={} confirmed={} {}",
            i + 1,
            replayed.diverged,
            replayed.confirmed,
            replayed.diff_summary
        )
        .unwrap();
    }
    out
}

#[test]
fn triage_of_every_detected_mutant_matches_the_golden() {
    let actual: String = MUTANTS.iter().map(|id| triage_record(id)).collect();
    assert!(
        actual == GOLDEN,
        "actual differs from tests/golden/triage_bundles.txt\n--- actual ---\n{actual}"
    );
}

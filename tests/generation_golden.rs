//! Generation golden: the trial loop of suite generation — which trees it
//! optimizes, how large their memos grow, which trials hit the memo cap and
//! which generation problems succeed — pinned by one line per event in
//! `tests/golden/generation_trials.txt`.
//!
//! Each shape runs on one worker with an event tracer. Per computed
//! optimization the file holds its `Event::Invocation` (mask size, groups,
//! expressions, truncated; not the wall time), per generation problem its
//! `Event::GenOutcome`, and each shape ends with the generation and
//! optimizer counters. Cache lookups are left out: how often a caller
//! re-probes the cache for a tree it already optimized is not part of the
//! contract, only what was computed and what was found.
//!
//! Both shapes are chosen so that the memo cap is part of what is pinned:
//! some trials truncate, and at least one truncated trial is a hit that
//! the suite then rejects (a suite keeps only queries whose exploration
//! reached its fixpoint). The test asserts both, so the pin cannot quietly
//! become one that no truncated search passes through.
//!
//! There is deliberately no regeneration switch: a change that is *meant*
//! to alter generation regenerates the file by checking out its parent
//! commit and copying the `actual` text this test prints on mismatch.

use ruletest_common::Parallelism;
use ruletest_core::{
    generate_suite, generate_suite_lenient, pair_targets, singleton_targets, Framework,
    FrameworkConfig, GenConfig, Strategy,
};
use ruletest_storage::tpch_database;
use ruletest_telemetry::{Counter, Json, Telemetry};
use std::collections::HashMap;
use std::sync::Arc;

const GOLDEN: &str = include_str!("golden/generation_trials.txt");

/// One generation campaign's pinned text and the two counts that keep the
/// pin from going vacuous.
struct Traced {
    text: String,
    /// Trials whose optimization stopped at the memo cap.
    truncated_trials: usize,
    /// Successful generation problems whose query truncated.
    truncated_hits: usize,
}

fn field<'a>(doc: &'a Json, key: &str) -> &'a Json {
    doc.get(key)
        .unwrap_or_else(|| panic!("event without {key}: {doc:?}"))
}

fn count(doc: &Json, key: &str) -> u64 {
    field(doc, key).as_u64().expect("a count")
}

fn flag(doc: &Json, key: &str) -> bool {
    matches!(field(doc, key), Json::Bool(true))
}

/// Generates a suite over the first `rules` exploration rules (their pairs
/// when `pairs`), `k` queries per target, and renders its trace.
fn traced_generation(pairs: bool, rules: usize, k: usize) -> Traced {
    let db = Arc::new(tpch_database(&FrameworkConfig::default().db).unwrap());
    let fw = Framework::over_database(db)
        .with_parallelism(Parallelism {
            threads: 1,
            seed: 7,
        })
        .with_telemetry(Telemetry::with_tracing(1 << 20));
    let cfg = GenConfig {
        seed: 0xF1_60_5E,
        pad_ops: 1,
        max_trials: 60,
        ..GenConfig::default()
    };
    let shape = if pairs { "pairs" } else { "singletons" };
    let queries = if pairs {
        let targets = pair_targets(&fw, rules);
        let (suite, _) = generate_suite_lenient(&fw, targets, k, Strategy::Pattern, &cfg).unwrap();
        suite.queries.len()
    } else {
        let targets = singleton_targets(&fw, rules);
        let suite = generate_suite(&fw, targets, k, Strategy::Pattern, &cfg).unwrap();
        suite.queries.len()
    };
    let tel = &fw.telemetry;
    assert_eq!(
        tel.trace_stats().dropped,
        0,
        "tracer too small for the test"
    );
    let mut buf = Vec::new();
    tel.export_trace(&mut buf).unwrap();

    let mut text = format!("shape {shape} rules={rules} k={k} queries={queries}\n");
    let mut truncated_at: HashMap<String, bool> = HashMap::new();
    let mut last_lookup = None;
    let (mut truncated_trials, mut truncated_hits) = (0, 0);
    for line in String::from_utf8(buf).unwrap().lines() {
        let doc = Json::parse(line).unwrap();
        let fingerprint = || field(&doc, "fingerprint").as_str().unwrap().to_string();
        match field(&doc, "type").as_str().unwrap() {
            "cache_lookup" => last_lookup = Some(fingerprint()),
            "invocation" => {
                let truncated = flag(&doc, "truncated");
                truncated_trials += usize::from(truncated);
                truncated_at.insert(fingerprint(), truncated);
                text.push_str(&format!(
                    "inv masked={} groups={} exprs={} truncated={truncated}\n",
                    count(&doc, "masked_rules"),
                    count(&doc, "groups"),
                    count(&doc, "exprs"),
                ));
            }
            "gen_outcome" => {
                let found = flag(&doc, "found");
                // The hit is the tree of the trial's cache lookup, computed
                // then or by an earlier trial.
                if found && truncated_at[last_lookup.as_ref().expect("a trial probed")] {
                    truncated_hits += 1;
                }
                text.push_str(&format!(
                    "gen rule={} trials={} ops={} found={found}\n",
                    count(&doc, "rule"),
                    count(&doc, "trials"),
                    count(&doc, "ops"),
                ));
            }
            _ => {}
        }
    }
    for c in [
        Counter::GenTrials,
        Counter::GenHits,
        Counter::GenFailures,
        Counter::OptInvocations,
        Counter::OptTruncated,
    ] {
        text.push_str(&format!("{} {}\n", c.name(), tel.counter(c)));
    }
    Traced {
        text,
        truncated_trials,
        truncated_hits,
    }
}

#[test]
fn generation_trials_are_identical_to_the_golden() {
    let mut actual = String::new();
    // The smallest shapes with at least five truncated trials each.
    for (pairs, rules, k) in [(false, 10, 2), (true, 4, 2)] {
        let traced = traced_generation(pairs, rules, k);
        let (trials, hits) = (traced.truncated_trials, traced.truncated_hits);
        let shape = format!("pairs={pairs} rules={rules} k={k}");
        assert!(trials >= 5, "{shape}: only {trials} truncated trials");
        assert!(hits >= 1, "{shape}: no truncated hit");
        actual.push_str(&traced.text);
    }
    if actual != GOLDEN {
        let first = actual
            .lines()
            .zip(GOLDEN.lines())
            .position(|(a, g)| a != g)
            .unwrap_or_else(|| actual.lines().count().min(GOLDEN.lines().count()));
        panic!(
            "actual differs from tests/golden/generation_trials.txt \
             ({} actual vs {} golden lines, first difference at line {}):\n\
             actual: {:?}\ngolden: {:?}\n--- actual ---\n{actual}",
            actual.lines().count(),
            GOLDEN.lines().count(),
            first + 1,
            actual.lines().nth(first),
            GOLDEN.lines().nth(first),
        );
    }
}

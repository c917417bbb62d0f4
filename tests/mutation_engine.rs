//! Acceptance tests for the rule-mutation engine: the full catalog run
//! end-to-end, every expected-detectable mutant killed per its verdict,
//! every benign mutant reported as a non-bug, and the lint-escape
//! matrix non-trivial.
//!
//! The campaign's deterministic JSON is pinned by
//! `tests/golden/mutation_report.json` (every mutant's static catch,
//! kill seed, trials and kind), generated before ISSUE 25 re-expressed
//! the join rules and their mutants. There is no regeneration switch.

use ruletest_core::mutate::{BugClass, Mutant, MutationConfig, Verdict};
use ruletest_storage::{tpch_database, TpchConfig};
use ruletest_telemetry::{Counter, Telemetry};
use std::sync::Arc;

const GOLDEN_REPORT: &str = include_str!("golden/mutation_report.json");

/// The hand-written bugs that predate the catalog; `--fault` and repro
/// bundles name them by these ids.
const HISTORICAL_FAULTS: [&str; 3] = [
    "OuterJoinSimplifyUnconditional",
    "PushBelowNullSupplyingSide",
    "SelectMergedIntoOuterJoin",
];

#[test]
fn full_catalog_campaign_meets_the_acceptance_bar() {
    let db = Arc::new(tpch_database(&TpchConfig::default()).unwrap());
    let tel = Telemetry::metrics_only();
    let cfg = MutationConfig {
        threads: 3,
        ..Default::default()
    };
    let report = ruletest_core::mutate::run_mutation_campaign(&db, &cfg, &tel).unwrap();
    println!("{}", report.render_text());

    // Catalog breadth: ≥18 mutants across all 6 classes.
    assert!(report.outcomes.len() >= 18, "{}", report.outcomes.len());
    for class in BugClass::ALL {
        assert!(
            report.outcomes.iter().any(|o| o.mutant.class == class),
            "class {class} unexercised"
        );
    }

    // Every mutant must meet its expected verdict; report the whole
    // failure set at once for debuggability.
    let failures: Vec<String> = report
        .failures()
        .iter()
        .map(|o| {
            format!(
                "{} (expected {}, lint={}, dyn={:?}, fired={})",
                o.mutant.id,
                o.mutant.expected.name(),
                o.static_caught,
                o.dynamic().map(|k| k.seed),
                o.detection.fired,
            )
        })
        .collect();
    assert!(
        failures.is_empty(),
        "verdict violations:\n{}",
        failures.join("\n")
    );

    // The lint-escape matrix is the point of the exercise: at least 4
    // mutants must be invisible to the static linter yet dynamically
    // killed.
    let escapes = report.lint_escapes();
    assert!(
        escapes.len() >= 4,
        "only {} lint escapes: {escapes:?}",
        escapes.len()
    );

    // The three original faults are statically caught, and the §2.3
    // methodology detects each of them dynamically as well.
    for name in HISTORICAL_FAULTS {
        let o = report
            .outcomes
            .iter()
            .find(|o| o.mutant.id == name)
            .unwrap_or_else(|| panic!("{name} not in the catalog run"));
        assert!(
            o.dynamic().is_some(),
            "{name} was never detected (fired={}, diverged={})",
            o.detection.fired,
            o.detection.plans_diverged
        );
    }

    // Benign controls: no false positives anywhere.
    for s in report.class_stats() {
        assert_eq!(s.false_positives, 0, "{}", s.class);
    }

    // Telemetry counters reflect the run.
    let detectable = report
        .outcomes
        .iter()
        .filter(|o| o.mutant.expected != Verdict::Benign)
        .count() as u64;
    assert_eq!(
        tel.counter(Counter::MutantsKilled) + tel.counter(Counter::MutantsSurvived),
        detectable
    );
    assert_eq!(
        tel.counter(Counter::MutantsKilled),
        detectable,
        "survivors leaked"
    );
    assert_eq!(tel.counter(Counter::LintEscapes), escapes.len() as u64);
    assert!(!report.failed());

    let actual = report.to_json().to_string_pretty();
    assert!(
        actual == GOLDEN_REPORT,
        "report differs from tests/golden/mutation_report.json\n--- actual ---\n{actual}"
    );
}

#[test]
fn class_and_sample_filters_select_stratified_subsets() {
    let only_boundary = MutationConfig {
        class: Some(BugClass::BoundaryBug),
        ..Default::default()
    };
    let picked = only_boundary.select();
    assert!(!picked.is_empty());
    assert!(picked.iter().all(|m| m.class == BugClass::BoundaryBug));

    let one_per_class = MutationConfig {
        sample: Some(1),
        ..Default::default()
    };
    let picked = one_per_class.select();
    assert_eq!(picked.len(), BugClass::ALL.len());
    for class in BugClass::ALL {
        assert_eq!(picked.iter().filter(|m| m.class == class).count(), 1);
    }
}

#[test]
fn mutant_ids_resolve_and_bad_ids_name_the_offender() {
    for m in Mutant::all() {
        assert!(std::ptr::eq(Mutant::by_id(m.id).unwrap(), m));
    }
    let err = Mutant::by_id("Bogus").unwrap_err();
    assert!(err.to_string().contains("Bogus"), "{err}");
    // The three names `--fault` and repro bundles have always used are
    // mutant ids, each replacing the rule it names.
    for name in HISTORICAL_FAULTS {
        let m = Mutant::by_id(name).unwrap();
        assert_eq!(m.id, name);
        assert_eq!(m.rule().name, m.rule_name);
    }
}

//! Acceptance tests for the symbolic prover over the *clean* catalog:
//! no rule may be proved inequivalent, the undecided residue stays
//! under a pinned ceiling, telemetry carries the proof counters and
//! per-rule spans, and the whole-catalog proof stays fast.

use ruletest_lint::prove::{self, ProveVerdict};
use ruletest_optimizer::Optimizer;
use ruletest_telemetry::{Counter, Telemetry};
use std::sync::Arc;
use std::time::Instant;

/// The catalog's current undecided residue: 5 fresh-id-minting rules
/// plus 5 `UnionAll`-shaped rules. A higher count means a rule fell out
/// of the decidable fragment — treat that as a regression, not noise.
const UNKNOWN_CEILING: u64 = 10;

#[test]
fn clean_catalog_proves_with_no_inequivalences() {
    let db = Arc::new(prove::symbolic_database());
    let opt = Optimizer::new(db);
    let telemetry = Telemetry::metrics_only();

    let started = Instant::now();
    let report = prove::prove_rules(&opt, &telemetry).unwrap();
    let elapsed = started.elapsed();

    // Zero inequivalent: every flagged rule would be a prover false
    // positive (the catalog is correct).
    assert!(
        !report.has_inequivalent(),
        "clean rules proved inequivalent:\n{}",
        report.render_text()
    );
    // The majority of the catalog is decided, and the undecided residue
    // is pinned.
    assert!(
        report.equivalent >= 25,
        "only {} rules proved equivalent",
        report.equivalent
    );
    assert!(
        report.unknown <= UNKNOWN_CEILING,
        "{} unknown verdicts exceed the pinned ceiling {UNKNOWN_CEILING}",
        report.unknown
    );
    assert_eq!(
        report.rules.len() as u64,
        report.equivalent + report.inequivalent + report.unknown
    );

    // Counters mirror the report.
    assert_eq!(
        telemetry.counter(Counter::ProveEquivalent),
        report.equivalent
    );
    assert_eq!(telemetry.counter(Counter::ProveInequivalent), 0);
    assert_eq!(telemetry.counter(Counter::ProveUnknown), report.unknown);

    // The span profiler carries one `prove` stage span with nested
    // per-rule spans.
    let names: Vec<String> = (0..opt.num_rules())
        .map(|i| opt.rule(ruletest_common::RuleId(i as u16)).name.to_string())
        .collect();
    let section = telemetry.profile_section(&names);
    let prove_row = section
        .spans
        .iter()
        .find(|s| s.path == "prove")
        .expect("a `prove` stage span");
    assert_eq!(prove_row.count, 1);
    let rule_rows = section
        .spans
        .iter()
        .filter(|s| s.path.starts_with("prove;"))
        .count();
    assert_eq!(
        rule_rows as u64,
        report.equivalent + report.inequivalent + report.unknown,
        "one nested span per proved rule"
    );

    // Whole-catalog proof must stay interactive: <100ms single-threaded
    // in release builds (debug builds get generous slack so `cargo
    // test` stays meaningful without --release).
    let budget_ms = if cfg!(debug_assertions) { 2_000 } else { 100 };
    assert!(
        elapsed.as_millis() < budget_ms,
        "full-catalog proof took {elapsed:?} (budget {budget_ms}ms)"
    );
}

#[test]
fn focused_proof_checks_one_rule_and_rejects_unknown_names() {
    let db = Arc::new(prove::symbolic_database());
    let opt = Optimizer::new(db);
    let report =
        prove::prove_rules_focused(&opt, "TopTopCollapse", &Telemetry::disabled()).unwrap();
    assert_eq!(report.rules.len(), 1);
    assert_eq!(
        report.verdict_of("TopTopCollapse"),
        Some(ProveVerdict::Equivalent)
    );
    let err = prove::prove_rules_focused(&opt, "NoSuchRule", &Telemetry::disabled());
    assert!(err.is_err());
}

#[test]
fn report_json_round_trips_the_greppable_counts() {
    let db = Arc::new(prove::symbolic_database());
    let opt = Optimizer::new(db);
    let report = prove::prove_rules(&opt, &Telemetry::disabled()).unwrap();
    let text = ruletest_common::to_pretty(&report);
    // The CI gate greps these exact shapes; keep them stable.
    assert!(text.contains("\"schema_version\": 1"));
    assert!(text.contains("\"inequivalent\": 0"));
    assert!(text.contains(&format!("\"unknown\": {}", report.unknown)));
    assert!(text.contains("\"verdict\": \"equivalent\""));
}

#[test]
fn unknown_reasons_name_the_undecidable_fragment() {
    let db = Arc::new(prove::symbolic_database());
    let opt = Optimizer::new(db);
    let report = prove::prove_rules(&opt, &Telemetry::disabled()).unwrap();
    for rule in &report.rules {
        if rule.verdict == ProveVerdict::Unknown {
            let reason = rule.reason.as_deref().unwrap_or("");
            assert!(
                reason.contains("fresh column ids")
                    || reason.contains("UnionAll")
                    || reason.contains("normal"),
                "unknown verdict for {} lacks a fragment reason: {reason:?}",
                rule.rule
            );
        }
    }
}

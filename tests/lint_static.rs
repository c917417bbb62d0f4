//! Static lint acceptance: the shipped rule catalog audits clean, each of
//! the three original `--fault` mutants is caught *without executing a
//! single query*, and the pattern-necessity audit holds for every exported
//! rule pattern.
//!
//! The clean catalog's report — corpus trees, bindings and substitutes
//! audited — is pinned by `tests/golden/lint_clean.json`, generated before
//! ISSUE 25 re-expressed the join rules. There is no regeneration switch.
//! Each mutant's focused lint is pinned by `tests/golden/mutant_lints.txt`.

use ruletest_core::{mutant_optimizer, Mutant};
use ruletest_lint::{lint_rules, lint_rules_focused, LintCorpora, LintPass};
use ruletest_optimizer::Optimizer;
use ruletest_storage::{tpch_database, TpchConfig};
use std::fmt::Write as _;
use std::sync::Arc;

const GOLDEN_CLEAN: &str = include_str!("golden/lint_clean.json");
const GOLDEN_MUTANT_LINTS: &str = include_str!("golden/mutant_lints.txt");

fn db() -> Arc<ruletest_storage::Database> {
    // The audit is purely static — only the catalog matters — so the
    // default (smallest) data scale suffices.
    Arc::new(tpch_database(&TpchConfig::default()).unwrap())
}

#[test]
fn clean_catalog_has_no_violations() {
    let opt = Optimizer::new(db());
    let report = lint_rules(&opt).unwrap();
    assert!(
        report.is_clean(),
        "clean rule catalog flagged:\n{}",
        report.render_text()
    );
    // The audit must have actually exercised the catalog, not vacuously
    // passed on an empty corpus.
    assert!(report.rules_audited > 20);
    assert!(report.stats.corpus_trees > 50);
    assert!(report.stats.substitutes_audited > 100);
    assert!(report.stats.necessity_probes > 500);

    let actual = report.to_json().to_string_pretty();
    assert!(
        actual == GOLDEN_CLEAN,
        "report differs from tests/golden/lint_clean.json\n--- actual ---\n{actual}"
    );
}

#[test]
fn every_injected_fault_is_caught_statically() {
    for id in [
        "OuterJoinSimplifyUnconditional",
        "PushBelowNullSupplyingSide",
        "SelectMergedIntoOuterJoin",
    ] {
        let fault = Mutant::by_id(id).unwrap();
        let opt = mutant_optimizer(db(), fault);
        let report = lint_rules(&opt).unwrap();
        let flagged = report.flagged_rules();
        assert!(
            flagged.iter().any(|r| r == fault.rule_name),
            "{:?} not caught: flagged {:?}\n{}",
            fault,
            flagged,
            report.render_text()
        );
        // All three faults corrupt outer-join row provenance; the audit
        // must attribute them to the right pass, not trip incidentally.
        assert!(
            report
                .violations
                .iter()
                .any(|v| v.pass == LintPass::RowProvenance
                    && v.rule.as_deref() == Some(fault.rule_name)),
            "{fault:?} caught but not by the row-provenance pass:\n{}",
            report.render_text()
        );
    }
}

#[test]
fn necessity_audit_covers_every_rule() {
    let opt = Optimizer::new(db());
    let report = lint_rules(&opt).unwrap();
    assert_eq!(report.count_for(LintPass::PatternNecessity), 0);
    // Every rule in the catalog (exploration and implementation) was
    // probed against every corpus tree.
    let rules = opt.num_rules();
    assert!(report.stats.necessity_probes >= rules * report.stats.corpus_trees / 2);
}

/// Every mutant's focused lint — the one the mutation campaign runs —
/// rendered as text: per mutant, the rules audited, the five audit
/// counters, and every violation (pass, rule, message) in report order.
fn focused_lints_text() -> String {
    let db = db();
    let corpora = LintCorpora::build(&Optimizer::new(db.clone())).unwrap();
    let mut out = String::new();
    for m in Mutant::all() {
        let opt = mutant_optimizer(db.clone(), m);
        let report = lint_rules_focused(&opt, m.rule_name, &corpora).unwrap();
        let s = report.stats;
        writeln!(
            out,
            "{} {} rules_audited={} corpus_trees={} bindings_audited={} substitutes_audited={} necessity_probes={} firings_matched={}",
            m.id,
            m.rule_name,
            report.rules_audited,
            s.corpus_trees,
            s.bindings_audited,
            s.substitutes_audited,
            s.necessity_probes,
            s.firings_matched,
        )
        .unwrap();
        for v in &report.violations {
            writeln!(
                out,
                "  {} {} {}",
                v.pass.name(),
                v.rule.as_deref().unwrap_or("-"),
                v.detail
            )
            .unwrap();
        }
    }
    out
}

/// `tests/golden/mutant_lints.txt` pins what the focused lint reports
/// for each of the mutants. It was generated before the campaign shared
/// one set of lint corpora across its mutants; there is no regeneration
/// switch, and on mismatch the test prints the actual text.
#[test]
fn focused_lint_of_every_mutant_matches_the_golden() {
    let actual = focused_lints_text();
    assert!(
        actual == GOLDEN_MUTANT_LINTS,
        "focused lints differ from tests/golden/mutant_lints.txt\n--- actual ---\n{actual}"
    );
}

//! Cross-validation of the symbolic prover against the mutant corpus —
//! the prover's acceptance bar:
//!
//! * ≥60% of the *target-class* mutants (dropped-precondition,
//!   predicate-misplacement, duplicate-sensitivity, operand-corruption)
//!   are proved inequivalent statically;
//! * no correctness mutant is ever proved *equivalent* (that would be
//!   prover unsoundness);
//! * no cost-only (benign) mutant is proved inequivalent (that would be
//!   a false alarm).
//!
//! Two goldens, generated before ISSUE 25 re-expressed the join rules and
//! their mutants, pin the prover's output exactly (no regeneration
//! switch): `tests/golden/prove_mutants.txt` holds one line per mutant —
//! id, verdict, substitutes examined, violation components — and
//! `tests/golden/prove_clean.json` the clean catalog's report.
//!
//! A third golden, `tests/golden/corpus_substitutes.txt`, pins what the
//! rules and the mutants the prover reads return over its corpus: per
//! exploration rule and per mutant, the substitute count and a hash over
//! every substitute (generated before the union, sort-elimination and
//! aggregate-split rules moved into the rule IR; no regeneration switch).

use ruletest_core::mutate::{crossval_prove, mutant_optimizer, BugClass, Mutant};
use ruletest_lint::audit::build_corpus_extended;
use ruletest_lint::prove::{self, ProveVerdict};
use ruletest_logical::IdGen;
use ruletest_optimizer::rules::exploration_rules;
use ruletest_optimizer::{match_bindings, Fnv64, Optimizer, Rule, RuleCtx};
use ruletest_telemetry::Telemetry;
use std::cell::RefCell;
use std::sync::Arc;

const GOLDEN_MUTANTS: &str = include_str!("golden/prove_mutants.txt");
const GOLDEN_CLEAN: &str = include_str!("golden/prove_clean.json");
const GOLDEN_CORPUS: &str = include_str!("golden/corpus_substitutes.txt");

#[test]
fn mutant_proofs_match_the_golden_lines() {
    let db = Arc::new(prove::symbolic_database());
    let mut actual = String::new();
    for m in Mutant::all() {
        let opt = mutant_optimizer(db.clone(), m);
        let report = prove::prove_rules_focused(&opt, m.rule_name, &Telemetry::disabled()).unwrap();
        let proof = &report.rules[0];
        let components: Vec<&str> = proof
            .violations
            .iter()
            .map(|v| v.component.as_str())
            .collect();
        actual.push_str(&format!(
            "{} {} substitutes={} violations=[{}]\n",
            m.id,
            proof.verdict,
            proof.substitutes,
            components.join(",")
        ));
    }
    assert!(
        actual == GOLDEN_MUTANTS,
        "proofs differ from tests/golden/prove_mutants.txt\n--- actual ---\n{actual}"
    );
}

#[test]
fn clean_catalog_proof_matches_the_golden_report() {
    let opt = Optimizer::new(Arc::new(prove::symbolic_database()));
    let actual = prove::prove_rules(&opt, &Telemetry::disabled())
        .unwrap()
        .to_json()
        .to_string_pretty();
    assert!(
        actual == GOLDEN_CLEAN,
        "report differs from tests/golden/prove_clean.json\n--- actual ---\n{actual}"
    );
}

/// Per exploration rule, then per mutant: the substitute count and an FNV
/// hash over each substitute's `Debug` text, in order, over every binding
/// of every tree of the rule's extended corpus. Each binding gets its own
/// fresh ids above the tree, as the lint audit hands them out.
#[test]
fn corpus_substitutes_match_the_golden_hashes() {
    let db = prove::symbolic_database();
    let line = |label: &str, rule: &Rule| {
        let (mut n, mut h) = (0u64, Fnv64::new());
        for ct in build_corpus_extended(&db, rule).unwrap() {
            for bound in match_bindings(&ct.memo, &rule.pattern, ct.root, 0) {
                let ids = RefCell::new(IdGen::above(&ct.tree));
                let ctx = RuleCtx {
                    db: &db,
                    memo: &ct.memo,
                    ids: &ids,
                };
                for s in rule.action.apply_explore(&ctx, &bound).unwrap() {
                    n += 1;
                    h.write_str(&format!("{s:?}"));
                }
            }
        }
        format!("{label} {n} {:016x}\n", h.finish())
    };
    let mut actual = String::new();
    for rule in exploration_rules() {
        actual.push_str(&line(rule.name, &rule));
    }
    for m in Mutant::all() {
        actual.push_str(&line(m.id, &m.rule()));
    }
    assert!(
        actual == GOLDEN_CORPUS,
        "substitutes differ from tests/golden/corpus_substitutes.txt\n--- actual ---\n{actual}"
    );
}

const TARGET_CLASSES: [BugClass; 4] = [
    BugClass::DroppedPrecondition,
    BugClass::PredicateMisplacement,
    BugClass::DuplicateSensitivity,
    BugClass::OperandCorruption,
];

#[test]
fn prover_kills_most_target_class_mutants_statically() {
    let report = crossval_prove().unwrap();
    let (mut kills, mut total) = (0usize, 0usize);
    for class in TARGET_CLASSES {
        let (k, t) = report.class_kills(class);
        assert!(t > 0, "no mutants in target class {class}");
        kills += k;
        total += t;
    }
    // ≥60% static kill rate across the target classes. (Currently
    // 16/17: only TopTopKeysCheckDropped escapes to `Unknown` — its
    // differing-keys corpus tree defeats normalization.)
    assert!(
        kills * 100 >= total * 60,
        "static kill rate {kills}/{total} below the 60% bar:\n{}",
        report.render_text()
    );
}

#[test]
fn prover_never_proves_a_correctness_mutant_equivalent() {
    let report = crossval_prove().unwrap();
    let unsound = report.unsound();
    assert!(
        unsound.is_empty(),
        "prover UNSOUND — buggy rewrites proved equivalent: {:?}",
        unsound.iter().map(|r| r.mutant).collect::<Vec<_>>()
    );
}

#[test]
fn prover_raises_no_false_alarms_on_benign_mutants() {
    let report = crossval_prove().unwrap();
    let alarms = report.false_alarms();
    assert!(
        alarms.is_empty(),
        "cost-only mutants proved inequivalent: {:?}",
        alarms.iter().map(|r| r.mutant).collect::<Vec<_>>()
    );
    let (kills, total) = report.class_kills(BugClass::CostOnly);
    assert_eq!(kills, 0);
    assert_eq!(total, 4);
}

#[test]
fn crossval_covers_the_whole_catalog_with_honest_escapes() {
    let report = crossval_prove().unwrap();
    assert!(
        report.rows.len() >= 18,
        "thin corpus: {}",
        report.rows.len()
    );
    for row in &report.rows {
        // Every non-kill on a correctness mutant must be an honest
        // `Unknown` (escape to the dynamic campaign), never a proof.
        if row.class != BugClass::CostOnly && row.proved != ProveVerdict::Inequivalent {
            assert_eq!(
                row.proved,
                ProveVerdict::Unknown,
                "mutant {} verdicted {}",
                row.mutant,
                row.proved
            );
        }
    }
}

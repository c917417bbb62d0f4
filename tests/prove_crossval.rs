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

use ruletest_core::mutate::{crossval_prove, mutant_optimizer, BugClass, Mutant};
use ruletest_lint::prove::{self, ProveVerdict};
use ruletest_optimizer::Optimizer;
use ruletest_telemetry::Telemetry;
use std::sync::Arc;

const GOLDEN_MUTANTS: &str = include_str!("golden/prove_mutants.txt");
const GOLDEN_CLEAN: &str = include_str!("golden/prove_clean.json");

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

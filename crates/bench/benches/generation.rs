//! Microbenchmarks for query generation (the machinery behind Figures
//! 8–10): pattern instantiation vs. stochastic search, singletons and
//! pairs; then one surviving mutant's detection sweep and focused lint.
//! Runs on the dependency-free std::time harness.

use ruletest_bench::harness;
use ruletest_core::mutate::detect_with_methodology;
use ruletest_core::{mutant_optimizer, Framework, FrameworkConfig, GenConfig, Mutant, Strategy};
use ruletest_lint::{lint_rules_focused, LintCorpora};
use std::sync::Arc;

fn main() {
    let fw = Framework::new(&FrameworkConfig::default()).unwrap();
    let mut group = harness::group("generation");
    group.sample_size(20);

    // A common rule (cheap for both strategies) and a rare one. The rare
    // rule is only benchmarked under PATTERN — its RANDOM search needs
    // hundreds of trials per iteration, which belongs in the `repro`
    // figures, not a microbenchmark.
    for (rule_name, strategies) in [
        (
            "InnerJoinCommute",
            &[Strategy::Pattern, Strategy::Random][..],
        ),
        ("AntiJoinToLojFilter", &[Strategy::Pattern][..]),
    ] {
        let rule = fw.optimizer.rule_id(rule_name).unwrap();
        for &strategy in strategies {
            let mut seed = 0u64;
            group.bench(&format!("{}/{rule_name}", strategy.name()), || {
                seed += 1;
                fw.find_query_for_rule(
                    rule,
                    strategy,
                    &GenConfig {
                        seed,
                        max_trials: 3_000,
                        ..Default::default()
                    },
                )
                .expect("generation succeeds")
                .trials
            });
        }
    }

    // Pair composition.
    let a = fw.optimizer.rule_id("SelectMerge").unwrap();
    let b_rule = fw.optimizer.rule_id("InnerJoinCommute").unwrap();
    let mut seed = 0u64;
    group.bench("PATTERN/pair", || {
        seed += 1;
        fw.find_query_for_pair(
            (a, b_rule),
            Strategy::Pattern,
            &GenConfig {
                seed,
                max_trials: 500,
                ..Default::default()
            },
        )
        .expect("pair generation")
        .trials
    });

    // detect/benign-sweep: the full detection budget, which every
    // surviving mutant pays, on a benign mutant's fresh optimizer (empty
    // invocation cache) each iteration.
    let db = fw.optimizer.database().clone();
    let benign = Mutant::by_id("InnerJoinCommuteDuplicated").unwrap();
    group.bench("detect/benign-sweep", || {
        let opt = Arc::new(mutant_optimizer(db.clone(), benign));
        let det = detect_with_methodology(&opt, benign.rule_name).unwrap();
        assert!(det.dynamic.is_none(), "benign mutant killed");
        det.plans_diverged
    });

    // lint/focused: one mutant's focused lint over the campaign's shared
    // corpora, which only rebuilds the mutated rule's corpus.
    let corpora = LintCorpora::build(&fw.optimizer).unwrap();
    let opt = mutant_optimizer(db.clone(), benign);
    assert!(lint_rules_focused(&opt, benign.rule_name, &corpora)
        .unwrap()
        .is_clean());
    group.bench("lint/focused", || {
        lint_rules_focused(&opt, benign.rule_name, &corpora)
            .unwrap()
            .stats
            .necessity_probes
    });
    group.finish();
}

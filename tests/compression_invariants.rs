//! Cross-crate invariants of the compression pipeline on real generated
//! suites: solution validity, orderings among methods, the factor-2 bound,
//! the no-sharing variant, and correctness execution of compressed suites.

use ruletest_core::compress::{baseline, exact, matching, smc, topk, Instance};
use ruletest_core::correctness::execute_solution;
use ruletest_core::{
    build_graph, build_graph_pruned, generate_suite, generate_suite_lenient, pair_targets,
    singleton_targets, Framework, FrameworkConfig, GenConfig, Strategy,
};
use ruletest_executor::ExecConfig;

fn fw() -> Framework {
    Framework::new(&FrameworkConfig::default()).unwrap()
}

fn small_singleton_instance(
    fw: &Framework,
    n: usize,
    k: usize,
) -> (ruletest_core::TestSuite, Instance) {
    let suite = generate_suite(
        fw,
        singleton_targets(fw, n),
        k,
        Strategy::Pattern,
        &GenConfig {
            seed: 77,
            pad_ops: 2,
            ..Default::default()
        },
    )
    .unwrap();
    let graph = build_graph(fw, &suite).unwrap();
    (suite, Instance::from_graph(&graph))
}

#[test]
fn all_methods_produce_valid_solutions_on_a_real_suite() {
    let fw = fw();
    let (_suite, inst) = small_singleton_instance(&fw, 6, 3);
    for sol in [
        baseline(&inst).unwrap(),
        smc(&inst).unwrap(),
        topk(&inst).unwrap(),
    ] {
        sol.validate(&inst).unwrap();
        assert!(sol.total_cost(&inst).is_finite());
    }
}

#[test]
fn compressed_methods_beat_baseline_on_singletons() {
    let fw = fw();
    let (_suite, inst) = small_singleton_instance(&fw, 8, 5);
    let b = baseline(&inst).unwrap().total_cost(&inst);
    let s = smc(&inst).unwrap().total_cost(&inst);
    let t = topk(&inst).unwrap().total_cost(&inst);
    assert!(s <= b + 1e-9, "SMC {s} vs BASELINE {b}");
    assert!(t <= b + 1e-9, "TOPK {t} vs BASELINE {b}");
}

#[test]
fn topk_is_within_factor_two_of_exact_on_a_real_small_instance() {
    let fw = fw();
    let (_suite, inst) = small_singleton_instance(&fw, 4, 2);
    let Some(opt) = exact(&inst) else {
        panic!("instance should be small enough for the exact solver");
    };
    let opt_cost = opt.total_cost(&inst);
    let tk = topk(&inst).unwrap().total_cost(&inst);
    assert!(tk >= opt_cost - 1e-9);
    assert!(
        tk <= 2.0 * opt_cost + 1e-9,
        "factor-2 bound violated: {tk} vs opt {opt_cost}"
    );
    let s = smc(&inst).unwrap().total_cost(&inst);
    assert!(s >= opt_cost - 1e-9);
}

#[test]
fn matching_variant_assigns_all_queries_once() {
    let fw = fw();
    let (_suite, inst) = small_singleton_instance(&fw, 5, 2);
    let sol = matching(&inst).unwrap();
    sol.validate(&inst).unwrap();
    assert_eq!(sol.used_queries().len(), inst.num_queries());
    // No sharing can never be cheaper than the shared optimum would allow,
    // and in particular never cheaper than TOPK's lower bound on edges.
    let shared = topk(&inst).unwrap();
    let edge_sum = |sol: &ruletest_core::compress::Solution| -> f64 {
        sol.assignment
            .iter()
            .enumerate()
            .flat_map(|(t, qs)| qs.iter().map(move |&q| (t, q)))
            .map(|(t, q)| inst.edge(t, q))
            .sum()
    };
    assert!(edge_sum(&sol) >= edge_sum(&shared) - 1e-9);
}

/// Pruning keeps every edge eager TOPK picks, ties included: on this
/// suite some pair target's k-th cheapest edge ties with the edge of a
/// query whose node cost equals it, and eager TOPK's (edge, index) order
/// picks that query.
#[test]
fn pruned_graph_supports_topk_with_same_edge_quality() {
    let fw = fw();
    let (suite, _) = generate_suite_lenient(
        &fw,
        pair_targets(&fw, 5),
        2,
        Strategy::Pattern,
        &GenConfig {
            seed: 14,
            pad_ops: 1,
            max_trials: 60,
            ..Default::default()
        },
    )
    .unwrap();
    let eager = build_graph(&fw, &suite).unwrap();
    let pruned = build_graph_pruned(&fw, &suite).unwrap();
    assert!(pruned.optimizer_calls <= eager.optimizer_calls);
    let topk_of = |g| topk(&Instance::from_graph(g)).unwrap();
    assert_eq!(
        topk_of(&eager),
        topk_of(&pruned),
        "pruning changed the TOPK assignment"
    );
}

#[test]
fn executing_a_compressed_suite_is_cheaper_and_equally_clean() {
    let fw = fw();
    let (suite, inst) = small_singleton_instance(&fw, 5, 2);
    let base_sol = baseline(&inst).unwrap();
    let topk_sol = topk(&inst).unwrap();
    let exec = ExecConfig::default();
    let base_rep = execute_solution(&fw, &suite, &inst, &base_sol, &exec).unwrap();
    let topk_rep = execute_solution(&fw, &suite, &inst, &topk_sol, &exec).unwrap();
    assert!(base_rep.passed() && topk_rep.passed());
    assert_eq!(base_rep.validations, topk_rep.validations);
    // The whole point of compression (Example 1): lower execution cost for
    // the same number of validations.
    assert!(topk_rep.estimated_cost <= base_rep.estimated_cost + 1e-6);
}

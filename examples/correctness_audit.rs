//! A complete correctness-testing campaign (§2.3 + §4 + §5):
//!
//! 1. Generate a test suite (k queries per rule).
//! 2. Build the bipartite graph and compress it with BASELINE, SMC,
//!    and TOPK; compare estimated execution costs.
//! 3. Execute the compressed suite: every rule validated on k queries by
//!    comparing `Plan(q)` and `Plan(q, ¬{r})` results.
//! 4. Re-run against an optimizer with an injected bug to show the
//!    pipeline catching it.
//!
//! Run with: `cargo run --release --example correctness_audit`

use ruletest::core::compress::{baseline, smc, topk, Instance};
use ruletest::core::correctness::execute_solution;
use ruletest::core::{
    build_graph, generate_suite, mutant_optimizer, singleton_targets, Framework, FrameworkConfig,
    GenConfig, Mutant, Strategy,
};
use ruletest::executor::ExecConfig;
use ruletest::storage::{tpch_database, TpchConfig};
use std::sync::Arc;

fn main() {
    let fw = Framework::new(&FrameworkConfig::default()).expect("framework");
    let n = 8;
    let k = 3;
    println!("== generating a test suite: {n} rules x k={k} queries ==");
    let suite = generate_suite(
        &fw,
        singleton_targets(&fw, n),
        k,
        Strategy::Pattern,
        &GenConfig {
            seed: 0xA0D17,
            pad_ops: 2,
            ..Default::default()
        },
    )
    .expect("suite");
    println!("{} queries generated\n", suite.queries.len());

    println!("== bipartite graph (Figure 4) ==");
    let graph = build_graph(&fw, &suite).expect("graph");
    println!(
        "{} targets, {} queries, {} edges ({} optimizer calls)\n",
        graph.targets.len(),
        graph.node_cost.len(),
        graph.edges.len(),
        graph.optimizer_calls
    );

    let inst = Instance::from_graph(&graph);
    let solutions = [
        ("BASELINE", baseline(&inst).expect("baseline")),
        ("SMC", smc(&inst).expect("smc")),
        ("TOPK", topk(&inst).expect("topk")),
    ];
    println!("== compression (Figures 11–13) ==");
    for (name, sol) in &solutions {
        println!(
            "  {name:<9} estimated cost {:>12.1}  ({} distinct queries)",
            sol.total_cost(&inst),
            sol.used_queries().len()
        );
    }

    println!("\n== executing the TOPK-compressed suite ==");
    let report = execute_solution(&fw, &suite, &inst, &solutions[2].1, &ExecConfig::default())
        .expect("execution");
    println!(
        "  validations: {}, executions: {}, skipped (identical plans): {}, bugs: {}",
        report.validations,
        report.executions,
        report.skipped_identical,
        report.bugs.len()
    );
    assert!(report.passed(), "the shipped rules are correct");

    println!("\n== same pipeline against a sabotaged optimizer ==");
    let db = Arc::new(tpch_database(&TpchConfig::default()).expect("db"));
    let fault = Mutant::by_id("OuterJoinSimplifyUnconditional").expect("mutant");
    let buggy = Arc::new(mutant_optimizer(db, fault));
    let buggy_fw = Framework::with_optimizer(buggy.clone());
    let rule = buggy.rule_id(fault.rule_name).expect("rule");
    for seed in [3u64, 11, 19, 27, 40] {
        let Ok(suite) = generate_suite(
            &buggy_fw,
            vec![ruletest::core::RuleTarget::Single(rule)],
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
        let graph = build_graph(&buggy_fw, &suite).expect("graph");
        let inst = Instance::from_graph(&graph);
        let sol = topk(&inst).expect("topk");
        let report = execute_solution(&buggy_fw, &suite, &inst, &sol, &ExecConfig::default())
            .expect("execution");
        if !report.passed() {
            let bug = &report.bugs[0];
            println!("  BUG FOUND in rule '{}':", bug.target_label);
            println!("    query: {}", bug.sql);
            println!("    {}", bug.diff_summary);
            return;
        }
    }
    println!("  (no bug surfaced on these seeds — try more)");
}

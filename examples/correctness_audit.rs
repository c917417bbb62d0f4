//! A complete correctness-testing campaign (§2.3 + §4 + §5):
//!
//! 1. Generate a test suite (k queries per rule).
//! 2. Compress it with BASELINE, SMC, and TOPK, computing only the
//!    bipartite-graph edges they read; compare estimated execution costs.
//! 3. Execute the compressed suite: every rule validated on k queries by
//!    comparing `Plan(q)` and `Plan(q, ¬{r})` results.
//! 4. Re-run against an optimizer with an injected bug to show the
//!    pipeline catching it; the example fails if it does not.
//!
//! Run with: `cargo run --release --example correctness_audit`

use ruletest::core::correctness::execute_solution;
use ruletest::core::{
    compress_suite, generate_suite, mutant_optimizer, singleton_targets, triage_campaign,
    Framework, FrameworkConfig, GenConfig, Mutant, RuleTarget, Strategy, TriageConfig,
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

    println!("== bipartite graph (Figure 4), the edges compression reads ==");
    let c = compress_suite(&fw, suite, None).expect("compression");
    println!(
        "{} targets, {} queries, {} edges (one optimizer call each)\n",
        c.suite.targets.len(),
        c.suite.queries.len(),
        c.inst.edge_cost.len()
    );

    println!("== compression (Figures 11–13) ==");
    for (name, sol) in [
        ("BASELINE", &c.baseline),
        ("SMC", &c.smc),
        ("TOPK", &c.topk),
    ] {
        println!(
            "  {name:<9} estimated cost {:>12.1}  ({} distinct queries)",
            sol.total_cost(&c.inst),
            sol.used_queries().len()
        );
    }

    println!("\n== executing the TOPK-compressed suite ==");
    let report = execute_solution(&fw, &c.suite, &c.inst, &c.topk, &ExecConfig::default())
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
    // Detection is seed-sensitive: the triage campaign walks its seed
    // ladder from seed 3 and fails when no seed finds the bug.
    let campaign = triage_campaign(
        &buggy_fw,
        &[RuleTarget::Single(rule)],
        4,
        &GenConfig {
            seed: 3,
            pad_ops: 1,
            max_trials: 100,
            ..Default::default()
        },
        &TriageConfig {
            fault: Some(fault),
            ..TriageConfig::default()
        },
    )
    .expect("the injected fault must be detected");
    let bug = &campaign.report.bugs[0];
    println!(
        "  BUG FOUND in rule '{}' (seed {}):",
        bug.target_label, campaign.seed
    );
    println!("    query: {}", bug.sql);
    println!("    {}", bug.diff_summary);
}

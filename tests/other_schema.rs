//! The paper's §6.1 generality claim: "We have also evaluated our tests on
//! other databases with different schemas and sizes, and the results are
//! similar." Run the framework's core experiments against the star-schema
//! database and assert the same shapes.

use ruletest_core::correctness::execute_solution;
use ruletest_core::{
    compress_suite, generate_suite, singleton_targets, Framework, GenConfig, Strategy,
};
use ruletest_executor::ExecConfig;
use ruletest_storage::{ssb_database, SsbConfig};
use std::sync::Arc;

fn star_framework() -> Framework {
    Framework::over_database(Arc::new(ssb_database(&SsbConfig::default()).unwrap()))
}

#[test]
fn pattern_beats_random_on_the_star_schema_too() {
    let fw = star_framework();
    let rules = fw.optimizer.exploration_rule_ids();
    let mut random_total = 0usize;
    let mut pattern_total = 0usize;
    for (i, rid) in rules.iter().take(12).enumerate() {
        let rnd = fw.find_query_for_rule(
            *rid,
            Strategy::Random,
            &GenConfig {
                seed: 0x57A + i as u64,
                max_trials: 1500,
                ..Default::default()
            },
        );
        let pat = fw.find_query_for_rule(
            *rid,
            Strategy::Pattern,
            &GenConfig {
                seed: 0x57B + i as u64,
                max_trials: 60,
                ..Default::default()
            },
        );
        random_total += rnd.map(|o| o.trials).unwrap_or(1500);
        pattern_total += pat.map(|o| o.trials).unwrap_or(60);
    }
    assert!(
        pattern_total * 2 < random_total,
        "star schema: PATTERN {pattern_total} vs RANDOM {random_total}"
    );
}

#[test]
fn compression_and_correctness_hold_on_the_star_schema() {
    let fw = star_framework();
    let suite = generate_suite(
        &fw,
        singleton_targets(&fw, 5),
        2,
        Strategy::Pattern,
        &GenConfig {
            seed: 0x57AC,
            pad_ops: 1,
            max_trials: 80,
            ..Default::default()
        },
    )
    .unwrap();
    let c = compress_suite(&fw, suite, None).unwrap();
    assert!(c.topk.total_cost(&c.inst) <= c.baseline.total_cost(&c.inst) + 1e-9);
    let report = execute_solution(&fw, &c.suite, &c.inst, &c.topk, &ExecConfig::default()).unwrap();
    assert!(
        report.passed(),
        "rules must be correct on any schema: {:?}",
        report.bugs
    );
    assert!(report.validations > 0);
}

#[test]
fn sql_round_trips_on_the_star_schema() {
    let fw = star_framework();
    let sql = "SELECT c_region, COUNT(*) AS orders, SUM(lo_revenue) AS revenue \
               FROM lineorder JOIN ssb_customer ON lo_custkey = c_custkey \
               GROUP BY c_region";
    let tree = ruletest_sql::parse_sql(&fw.db.catalog, sql).unwrap();
    let res = fw.optimizer.optimize(&tree).unwrap();
    let rows = ruletest_executor::execute(&fw.db, &res.plan).unwrap();
    assert!(!rows.is_empty());
    let rendered = ruletest_sql::to_sql(&fw.db.catalog, &tree).unwrap();
    let reparsed = ruletest_sql::parse_sql(&fw.db.catalog, &rendered).unwrap();
    assert_eq!(tree, reparsed);
}

//! Tentpole invariants of the parallel campaign engine: (1) any thread
//! count reproduces byte-identical results from the same seed, and (2)
//! the optimizer-invocation cache is result-transparent — cached and
//! uncached optimization agree on every observable.

use ruletest_common::{Parallelism, Rng};
use ruletest_core::compress::topk;
use ruletest_core::correctness::execute_solution;
use ruletest_core::generate::random::random_tree;
use ruletest_core::{
    build_graph_pruned, generate_suite, singleton_targets, Framework, FrameworkConfig, GenConfig,
    Instance, Strategy,
};
use ruletest_executor::ExecConfig;
use ruletest_logical::IdGen;
use ruletest_optimizer::{OptimizerConfig, RuleMask};
use ruletest_storage::tpch_database;
use ruletest_telemetry::{RunReport, Telemetry};
use std::sync::Arc;

fn fw_with_threads(threads: usize) -> Framework {
    let db = Arc::new(tpch_database(&FrameworkConfig::default().db).unwrap());
    Framework::over_database(db).with_parallelism(Parallelism { threads, seed: 7 })
}

/// Runs the full pipeline with telemetry attached and returns the final
/// aggregate report.
fn telemetry_campaign(threads: usize, seed: u64) -> RunReport {
    let fw = fw_with_threads(threads).with_telemetry(Telemetry::metrics_only());
    let gen_cfg = GenConfig {
        seed,
        pad_ops: 1,
        ..Default::default()
    };
    let suite = generate_suite(
        &fw,
        singleton_targets(&fw, 6),
        2,
        Strategy::Pattern,
        &gen_cfg,
    )
    .unwrap();
    let graph = build_graph_pruned(&fw, &suite).unwrap();
    let inst = Instance::from_graph(&graph);
    let sol = topk(&inst).unwrap();
    execute_solution(&fw, &suite, &inst, &sol, &ExecConfig::default()).unwrap();
    fw.run_report()
}

/// The full campaign — suite generation, pruned graph, compression,
/// correctness execution — produces identical output at 1 and 3 threads,
/// and attaching telemetry changes none of it.
#[test]
fn campaign_is_deterministic_across_thread_counts() {
    let gen_cfg = GenConfig {
        seed: 0x00D5_7E12,
        pad_ops: 1,
        ..Default::default()
    };
    let mut outcomes = Vec::new();
    for (threads, telemetry) in [
        (1usize, Telemetry::disabled()),
        (3, Telemetry::disabled()),
        (3, Telemetry::metrics_only()),
    ] {
        let fw = fw_with_threads(threads).with_telemetry(telemetry);
        let suite = generate_suite(
            &fw,
            singleton_targets(&fw, 6),
            2,
            Strategy::Pattern,
            &gen_cfg,
        )
        .unwrap();
        let graph = build_graph_pruned(&fw, &suite).unwrap();
        let inst = Instance::from_graph(&graph);
        let sol = topk(&inst).unwrap();
        let report = execute_solution(&fw, &suite, &inst, &sol, &ExecConfig::default()).unwrap();

        let sqls: Vec<String> = suite.queries.iter().map(|q| q.sql.clone()).collect();
        let costs: Vec<u64> = suite.queries.iter().map(|q| q.cost.to_bits()).collect();
        let mut edges: Vec<((usize, usize), u64)> = graph
            .edges
            .iter()
            .map(|(&e, &c)| (e, c.to_bits()))
            .collect();
        edges.sort();
        outcomes.push((
            sqls,
            costs,
            edges,
            graph.optimizer_calls,
            (
                report.validations,
                report.executions,
                report.skipped_identical,
                report.skipped_expensive,
                report.estimated_cost.to_bits(),
                report.bugs.len(),
            ),
        ));
    }
    assert_eq!(
        outcomes[0], outcomes[1],
        "1-thread and 3-thread campaigns diverged"
    );
    assert_eq!(outcomes[1], outcomes[2], "telemetry changed the campaign");
}

/// Cached optimization returns exactly what uncached optimization returns,
/// over a randomized workload of trees and rule masks — and actually
/// serves repeats from the cache instead of re-invoking the optimizer.
#[test]
fn cache_is_result_transparent() {
    let fw = fw_with_threads(1);
    let mut rng = Rng::new(0xCAC4E);
    let exploration = fw.optimizer.exploration_rule_ids();
    let mut workload = Vec::new();
    for _ in 0..20 {
        let mut ids = IdGen::new();
        let tree = random_tree(&fw.db, &mut rng, &mut ids, 4).tree;
        let n = rng.gen_index(4);
        let disabled: Vec<_> = (0..n)
            .map(|_| exploration[rng.gen_index(exploration.len())])
            .collect();
        workload.push((tree, disabled));
    }

    for (tree, disabled) in &workload {
        let cfg = OptimizerConfig {
            mask: RuleMask::disabling(disabled),
            ..Default::default()
        };
        let uncached = fw.optimizer.optimize_with(tree, &cfg).unwrap();
        let cached = fw.optimizer.optimize_with_cached(tree, &cfg).unwrap();
        assert_eq!(uncached.cost.to_bits(), cached.cost.to_bits());
        assert!(uncached.plan.same_shape(&cached.plan));
        assert_eq!(uncached.rule_set, cached.rule_set);
        assert_eq!(uncached.truncated, cached.truncated);
    }

    // Replaying the cached half must not spend a single new invocation.
    let before = fw.optimizer.invocation_count();
    let hits_before = fw.optimizer.cache_stats().hits;
    for (tree, disabled) in &workload {
        let cfg = OptimizerConfig {
            mask: RuleMask::disabling(disabled),
            ..Default::default()
        };
        fw.optimizer.optimize_with_cached(tree, &cfg).unwrap();
    }
    assert_eq!(fw.optimizer.invocation_count(), before);
    assert_eq!(
        fw.optimizer.cache_stats().hits,
        hits_before + workload.len() as u64
    );
}

/// Repeating the identical campaign (same seed, same thread count) yields
/// the identical deterministic aggregate view — rule firings, logical
/// counters, and seed-determined histograms, byte for byte.
#[test]
fn telemetry_report_is_reproducible_for_a_fixed_seed_and_threads() {
    let a = telemetry_campaign(3, 0x07E1_EAE7);
    let b = telemetry_campaign(3, 0x07E1_EAE7);
    assert_eq!(
        a.deterministic_json(),
        b.deterministic_json(),
        "repeat runs disagreed on deterministic aggregates"
    );
}

/// The deterministic aggregates — per-rule firing counts in particular —
/// are identical at 1 and 3 threads: unique-optimization counting is what
/// makes firing counts schedule-independent even when racing workers
/// duplicate a cache-miss compute.
#[test]
fn telemetry_report_is_thread_count_invariant() {
    let single = telemetry_campaign(1, 0x07E1_EAE8);
    let multi = telemetry_campaign(3, 0x07E1_EAE8);
    assert_eq!(
        single.rule_firings, multi.rule_firings,
        "per-rule firing counts diverged across thread counts"
    );
    assert_eq!(
        single.counter(ruletest_telemetry::Counter::EdgesPruned),
        multi.counter(ruletest_telemetry::Counter::EdgesPruned),
        "edge-prune counts diverged across thread counts"
    );
    assert_eq!(
        single.deterministic_json(),
        multi.deterministic_json(),
        "deterministic aggregates diverged across thread counts"
    );
    // The campaign actually exercised the instrumentation.
    single.check().expect("single-threaded report self-check");
}

/// `clear_cache` really drops entries (the next lookup is a miss, not a
/// stale hit) without perturbing results.
#[test]
fn clearing_the_cache_is_safe() {
    let fw = fw_with_threads(1);
    let mut ids = IdGen::new();
    let tree = random_tree(&fw.db, &mut Rng::new(5), &mut ids, 3).tree;
    let a = fw.optimizer.optimize_cached(&tree).unwrap();
    fw.optimizer.clear_cache();
    let misses_before = fw.optimizer.cache_stats().misses;
    let b = fw.optimizer.optimize_cached(&tree).unwrap();
    assert_eq!(fw.optimizer.cache_stats().misses, misses_before + 1);
    assert_eq!(a.cost.to_bits(), b.cost.to_bits());
    assert!(a.plan.same_shape(&b.plan));
}

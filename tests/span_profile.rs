//! Tentpole invariants of the span profiler: (1) the span *tree shape*
//! (paths + counts) over a full campaign is identical at any thread
//! count, (2) the exact-accounting invariant holds on real runs — every
//! row's child time is precisely the sum of its direct children's wall
//! time, so self time sums to the root walls — and (3) the folded-stack
//! export is well-formed. `tests/golden/profile_slice.txt` pins the
//! deterministic slice of one traced campaign byte for byte: span paths
//! and counts, and per rule its binds and fires.

use ruletest_common::Parallelism;
use ruletest_core::compress::topk;
use ruletest_core::correctness::execute_solution;
use ruletest_core::{
    build_graph_pruned, generate_suite, singleton_targets, Framework, FrameworkConfig, GenConfig,
    Instance, Strategy,
};
use ruletest_executor::ExecConfig;
use ruletest_storage::tpch_database;
use ruletest_telemetry::json::JsonWriter;
use ruletest_telemetry::{ProfileSection, RunReport, Telemetry};
use std::sync::Arc;

const GOLDEN_SLICE: &str = include_str!("golden/profile_slice.txt");

/// Runs the full pipeline — generation, pruned graph, compression,
/// correctness — with metrics-only telemetry and returns the report.
fn profiled_campaign(threads: usize, seed: u64) -> RunReport {
    let db = Arc::new(tpch_database(&FrameworkConfig::default().db).unwrap());
    let fw = Framework::over_database(db)
        .with_parallelism(Parallelism { threads, seed: 7 })
        .with_telemetry(Telemetry::metrics_only());
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

/// The deterministic slice of a profile: paths + counts, no durations.
fn shape(p: &ProfileSection) -> Vec<(String, u64)> {
    p.spans.iter().map(|s| (s.path.clone(), s.count)).collect()
}

#[test]
fn span_tree_shape_is_thread_count_invariant_over_a_full_campaign() {
    let single = profiled_campaign(1, 0x5AA5_0001);
    let multi = profiled_campaign(3, 0x5AA5_0001);
    assert!(!single.profile.is_empty(), "campaign produced no spans");
    assert_eq!(
        shape(&single.profile),
        shape(&multi.profile),
        "span tree shape diverged across thread counts"
    );
    assert_eq!(
        single.profile.rules.keys().collect::<Vec<_>>(),
        multi.profile.rules.keys().collect::<Vec<_>>(),
        "per-rule cost attribution keys diverged across thread counts"
    );
    for (k, a) in &single.profile.rules {
        let b = &multi.profile.rules[k];
        assert_eq!(
            (a.binds, a.fires),
            (b.binds, b.fires),
            "deterministic rule-cost counts diverged for {k}"
        );
    }
}

#[test]
fn profile_slice_matches_the_golden() {
    let report = profiled_campaign(1, 0x5AA5_0004);
    let mut actual = String::new();
    report
        .profile
        .write_deterministic(&mut JsonWriter::pretty(&mut actual));
    actual.push('\n');
    if actual != GOLDEN_SLICE {
        let first = actual
            .lines()
            .zip(GOLDEN_SLICE.lines())
            .position(|(a, g)| a != g)
            .unwrap_or_else(|| actual.lines().count().min(GOLDEN_SLICE.lines().count()));
        panic!(
            "actual differs from tests/golden/profile_slice.txt at line {}:\n\
             actual: {:?}\ngolden: {:?}",
            first + 1,
            actual.lines().nth(first),
            GOLDEN_SLICE.lines().nth(first),
        );
    }
}

#[test]
fn campaign_profile_covers_the_pipeline_and_accounts_exactly() {
    let report = profiled_campaign(2, 0x5AA5_0002);
    let profile = &report.profile;
    // Every pipeline stage this campaign ran shows up as a root span, with
    // the optimizer and executor attributed beneath them.
    for root in ["generation", "graph", "correctness"] {
        assert!(
            profile.spans.iter().any(|s| s.path == root),
            "missing root span '{root}'"
        );
    }
    assert!(
        profile.spans.iter().any(|s| s.path.ends_with(";optimize")),
        "no optimizer invocations attributed under a stage"
    );
    assert!(
        profile
            .spans
            .iter()
            .any(|s| s.path == "correctness;execution"),
        "no executor time attributed under correctness"
    );
    // Rule-phase attribution reached the per-rule cost table.
    assert!(!profile.rules.is_empty(), "per-rule cost table is empty");
    assert!(profile.rules.values().any(|r| r.binds > 0));
    // Exact accounting: validate() enforces child_ns == Σ children wall_ns
    // per row; consequently self time over all rows sums to the root walls.
    report.check().expect("report self-check");
    assert_eq!(
        profile.total_self_ns(),
        profile.root_wall_ns(),
        "self time does not sum to total wall"
    );
    // And the report JSON round-trips the whole profile.
    let back = RunReport::from_json(&ruletest_common::to_pretty(&report)).unwrap();
    assert_eq!(back.profile, *profile);
}

#[test]
fn folded_export_is_well_formed() {
    let report = profiled_campaign(1, 0x5AA5_0003);
    let folded = report.profile.folded();
    assert!(!folded.is_empty());
    let mut lines = 0;
    for line in folded.lines() {
        let (path, value) = line.rsplit_once(' ').expect("line has 'path value' form");
        assert!(!path.is_empty(), "empty path in folded line {line:?}");
        assert!(
            !path.contains(' '),
            "unescaped space in folded path {path:?}"
        );
        value
            .parse::<u64>()
            .unwrap_or_else(|_| panic!("non-numeric self time in {line:?}"));
        lines += 1;
    }
    assert_eq!(
        lines,
        report.profile.spans.len(),
        "folded output must have one line per span row"
    );
}

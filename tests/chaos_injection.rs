//! The chaos engine against the supervision layer: every injected fault
//! must be caught, attributed (supervise.* counters, quarantine entries),
//! and survivable — a campaign under a panic+stall+budget storm completes
//! cleanly, and a fixed plan replays to identical quarantine state.
//!
//! Chaos state is process-global, so every test here serializes on one
//! lock and clears the plan before returning. Thread count is pinned to 1
//! inside chaos sections: injection fires on global site hit counts, and
//! only a sequential run gives those counts a deterministic order.

use ruletest_common::chaos::{self, ChaosPlan};
use ruletest_common::FailureKind;
use ruletest_core::compress::topk;
use ruletest_core::{
    crash_bundles, execute_solution_with, generate_suite_with, run_checkpointed_campaign,
    singleton_targets, CampaignParams, Framework, FrameworkConfig, GenConfig, Instance, Quarantine,
    Strategy,
};
use ruletest_core::{CorrectnessReport, TriageConfig};
use ruletest_executor::ExecConfig;
use ruletest_telemetry::{Counter, RunReport, Telemetry};
use std::path::PathBuf;
use std::sync::Mutex;

static CHAOS_TEST_LOCK: Mutex<()> = Mutex::new(());

fn locked() -> std::sync::MutexGuard<'static, ()> {
    CHAOS_TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ruletest_chaos_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn fw() -> Framework {
    let mut cfg = FrameworkConfig::default();
    cfg.parallelism.threads = 1;
    Framework::new(&cfg)
        .unwrap()
        .with_telemetry(Telemetry::metrics_only())
}

fn params() -> CampaignParams {
    CampaignParams {
        rules: 6,
        k: 2,
        seed: 42,
        pad_ops: 2,
        max_trials: GenConfig::default().max_trials,
    }
}

/// Supervised campaign + execution under whatever chaos plan is
/// installed; returns the report slice, quarantine, and correctness
/// outcome.
fn supervised_run(fw: &Framework) -> (RunReport, Quarantine, CorrectnessReport) {
    let mut quarantine = Quarantine::new();
    let run = run_checkpointed_campaign(fw, &params(), None, false, Some(&mut quarantine))
        .expect("supervised campaign must absorb chaos, not abort");
    let inst = Instance::from_graph(&run.graph);
    let sol = topk(&inst).unwrap();
    let report = execute_solution_with(
        fw,
        &run.suite,
        &sol,
        &ExecConfig::default(),
        Some(&mut quarantine),
    )
    .expect("supervised execution must absorb chaos, not abort");
    (fw.run_report(), quarantine, report)
}

/// The headline robustness claim: a campaign under a panic + stall +
/// budget fault storm completes, quarantines all three kinds, attributes
/// each in the supervision counters, and still produces crash bundles
/// for the quarantined inputs that carry SQL.
#[test]
fn campaign_survives_panic_stall_and_budget_storm() {
    let _guard = locked();
    // Generation retries optimizer errors as discarded trials, so a
    // budget fault only quarantines when it lands in the graph stage.
    // Calibration pass: same panic rule, a never-firing budget sentinel,
    // suite generation only — `site_hits` then tells us exactly how many
    // memo inserts generation consumes, and the real run (identical seed,
    // one worker) aims the budget fault one hit past them.
    chaos::install(
        ChaosPlan::parse("memo.insert:panic@35#1,memo.insert:budget@1000000000000").unwrap(),
    );
    let (calibration_fw, p) = (fw(), params());
    generate_suite_with(
        &calibration_fw,
        singleton_targets(&calibration_fw, p.rules),
        p.k,
        Strategy::Pattern,
        &p.gen_config(),
        Some(&mut Quarantine::new()),
    )
    .unwrap();
    let gen_hits = chaos::site_hits("memo.insert");
    assert!(
        gen_hits > 35,
        "calibration run looks wrong: {gen_hits} hits"
    );
    chaos::clear();

    chaos::install(
        ChaosPlan::parse(&format!(
            "memo.insert:panic@35#1,memo.insert:budget@{}#1,exec.batch:stall@3#1",
            gen_hits + 1
        ))
        .unwrap(),
    );
    let fw = fw();
    let (report, quarantine, correctness) = supervised_run(&fw);
    let stats = chaos::stats();
    chaos::clear();

    assert_eq!(
        (stats.panics, stats.budgets, stats.stalls),
        (1, 1, 1),
        "every bounded rule must have spent its injection budget: {stats:?}"
    );
    for kind in [
        FailureKind::Panic,
        FailureKind::Budget,
        FailureKind::Timeout,
    ] {
        assert!(
            quarantine.entries().iter().any(|e| e.kind == kind),
            "no {kind} entry in quarantine: {:?}",
            quarantine.entries()
        );
    }
    // Attribution: each absorbed fault bumped its per-kind counter, and
    // every new entry bumped the quarantine counter.
    assert_eq!(report.counter(Counter::SupervisePanics), 1);
    assert_eq!(report.counter(Counter::SuperviseBudget), 1);
    assert_eq!(report.counter(Counter::SuperviseTimeouts), 1);
    assert_eq!(
        report.counter(Counter::SuperviseQuarantined),
        quarantine.len() as u64
    );
    // Execution-stage faults carry a SQL witness, so the triage minimizer
    // can emit crash repro bundles for them.
    let bundles = crash_bundles(&fw, params().seed, &quarantine, &TriageConfig::default());
    assert!(
        !bundles.is_empty(),
        "quarantined executions must yield crash bundles"
    );
    for b in &bundles {
        assert!(b.signature.starts_with("crash:"), "{}", b.signature);
        assert!(!b.sql.is_empty());
    }
    // The campaign itself stayed healthy: quarantined inputs are skipped,
    // not reported as correctness bugs.
    assert!(correctness.bugs.is_empty());
    assert!(correctness.skipped_quarantined > 0);
}

/// Fixed plan + fixed seed + one worker ⇒ byte-identical replay: the
/// same faults land on the same inputs and the quarantine (and the
/// deterministic report slice) comes out identical.
#[test]
fn fixed_plan_replays_to_identical_quarantine() {
    let _guard = locked();
    let run_once = || {
        chaos::install(ChaosPlan::parse("memo.insert:panic@40#1,exec.batch:stall@4#1").unwrap());
        let fw = fw();
        let (report, quarantine, _) = supervised_run(&fw);
        let stats = chaos::stats();
        chaos::clear();
        (report.deterministic_json(), quarantine, stats)
    };
    let a = run_once();
    let b = run_once();
    assert_eq!(a.1, b.1, "quarantine replay diverged");
    assert_eq!(a.0, b.0, "deterministic slice replay diverged");
    assert_eq!(a.2, b.2, "injection stats replay diverged");
}

/// Cache-I/O chaos degrades gracefully: a stall on `cache.load` cold-
/// starts the shard, a budget fault on `cache.save` skips one snapshot
/// round — the campaign completes and the deterministic slice matches a
/// chaos-free run.
#[test]
fn cache_io_chaos_degrades_to_cold_start() {
    let _guard = locked();
    chaos::clear();
    let dir = temp_dir("cache-io");

    // Seed the cache with a clean checkpointed campaign.
    let clean_fw = fw();
    let mut q = Quarantine::new();
    run_checkpointed_campaign(&clean_fw, &params(), Some(&dir), false, Some(&mut q)).unwrap();
    ruletest_core::final_persist(&clean_fw).unwrap();
    let clean_slice = clean_fw.run_report().deterministic_json();

    // A warm start under cache-I/O chaos: every load degrades cold, every
    // save is skipped, nothing crashes, nothing is quarantined, and the
    // recomputed campaign reproduces the clean slice.
    chaos::install(ChaosPlan::parse("cache.load:stall@1,cache.save:budget@1").unwrap());
    let chaotic_fw = fw();
    let mut q = Quarantine::new();
    let run =
        run_checkpointed_campaign(&chaotic_fw, &params(), Some(&dir), false, Some(&mut q)).unwrap();
    ruletest_core::final_persist(&chaotic_fw).unwrap();
    let stats = chaos::stats();
    chaos::clear();

    assert!(stats.total() > 0, "cache chaos never fired");
    assert!(q.is_empty(), "cache-I/O faults degrade, never quarantine");
    assert!(!run.suite.queries.is_empty());
    assert_eq!(
        clean_fw.run_report().counter(Counter::CacheWarmHits),
        0,
        "the seeding run was cold"
    );
    assert_eq!(
        chaotic_fw.run_report().counter(Counter::CacheWarmHits),
        0,
        "chaos-degraded loads must not serve warm entries"
    );
    assert_eq!(
        clean_slice,
        chaotic_fw.run_report().deterministic_json(),
        "cold-started recomputation must reproduce the clean slice"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

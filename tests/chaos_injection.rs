//! The chaos engine against the supervision layer: every injected fault
//! must be caught, attributed (supervise.* counters, quarantine entries),
//! and survivable — a campaign under a panic+stall+budget storm completes
//! cleanly, and a fixed plan replays to identical quarantine state.
//!
//! Every campaign here carries its own chaos handle, so the tests run side
//! by side with no lock. Thread count is pinned to 1 inside a campaign:
//! injection fires on the campaign's site hit counts, and only a
//! sequential run gives those counts a deterministic order.

use ruletest_common::chaos::{Chaos, ChaosPlan};
use ruletest_common::{fnv1a, FailureKind};
use ruletest_core::{
    crash_bundles, execute_solution_with, generate_suite_with, run_checkpointed_campaign,
    singleton_targets, CampaignParams, Framework, FrameworkConfig, GenConfig, Quarantine, Strategy,
};
use ruletest_core::{CorrectnessReport, TriageConfig};
use ruletest_executor::ExecConfig;
use ruletest_telemetry::{Counter, RunReport, Telemetry};
use std::path::PathBuf;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ruletest_chaos_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn chaos(spec: &str) -> Chaos {
    Chaos::new(ChaosPlan::parse(spec).unwrap())
}

/// A one-worker campaign framework injecting through `chaos`.
fn fw(chaos: &Chaos) -> Framework {
    let mut cfg = FrameworkConfig {
        chaos: chaos.clone(),
        ..FrameworkConfig::default()
    };
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

/// Supervised campaign + execution under the framework's chaos plan;
/// returns the report slice, quarantine, and correctness outcome. Every
/// edge the three compressions read was computed, also when the graph
/// stage quarantined a target and ran again on the shrunk suite.
fn supervised_run(fw: &Framework) -> (RunReport, Quarantine, CorrectnessReport) {
    let mut quarantine = Quarantine::new();
    let c = run_checkpointed_campaign(fw, &params(), None, false, Some(&mut quarantine))
        .expect("supervised campaign must absorb chaos, not abort")
        .compressed;
    for sol in [&c.baseline, &c.smc, &c.topk] {
        assert!(sol.total_cost(&c.inst).is_finite(), "an edge is missing");
    }
    let report = execute_solution_with(
        fw,
        &c.suite,
        &c.topk,
        &ExecConfig::default(),
        Some(&mut quarantine),
    )
    .expect("supervised execution must absorb chaos, not abort");
    (fw.run_report(), quarantine, report)
}

/// The calibration pass of the storm below. Generation retries optimizer
/// errors as discarded trials, so a budget fault only quarantines when it
/// lands in the graph stage. Same panic rule, a never-firing budget
/// sentinel, suite generation only: `site_hits` then tells exactly how
/// many memo inserts generation consumes, and the real run (identical
/// seed, one worker) aims the budget fault one hit past them.
fn calibrate_storm() -> u64 {
    let sentinel = chaos("memo.insert:panic@35#1,memo.insert:budget@1000000000000");
    let (calibration_fw, p) = (fw(&sentinel), params());
    generate_suite_with(
        &calibration_fw,
        singleton_targets(&calibration_fw, p.rules),
        p.k,
        Strategy::Pattern,
        &p.gen_config(),
        Some(&mut Quarantine::new()),
    )
    .unwrap();
    let gen_hits = sentinel.site_hits("memo.insert");
    assert!(
        gen_hits > 35,
        "calibration run looks wrong: {gen_hits} hits"
    );
    gen_hits
}

/// The panic + budget + stall storm, its budget fault aimed one memo
/// insert past suite generation's `gen_hits`.
fn storm_spec(gen_hits: u64) -> String {
    format!(
        "memo.insert:panic@35#1,memo.insert:budget@{}#1,exec.batch:stall@3#1",
        gen_hits + 1
    )
}

/// The headline robustness claim: a campaign under a panic + stall +
/// budget fault storm completes, quarantines all three kinds, attributes
/// each in the supervision counters, and still produces crash bundles
/// for the quarantined inputs that carry SQL.
#[test]
fn campaign_survives_panic_stall_and_budget_storm() {
    let storm = chaos(&storm_spec(calibrate_storm()));
    let fw = fw(&storm);
    let (report, quarantine, correctness) = supervised_run(&fw);
    let stats = storm.stats();

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
    let run_once = || {
        let fixed = chaos("memo.insert:panic@40#1,exec.batch:stall@4#1");
        let (report, quarantine, _) = supervised_run(&fw(&fixed));
        (report.deterministic_json(), quarantine, fixed.stats())
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
    let dir = temp_dir("cache-io");

    // Seed the cache with a clean checkpointed campaign.
    let clean_fw = fw(&Chaos::default());
    let mut q = Quarantine::new();
    run_checkpointed_campaign(&clean_fw, &params(), Some(&dir), false, Some(&mut q)).unwrap();
    ruletest_core::final_persist(&clean_fw).unwrap();
    let clean_slice = clean_fw.run_report().deterministic_json();

    // A warm start under cache-I/O chaos: every load degrades cold, every
    // save is skipped, nothing crashes, nothing is quarantined, and the
    // recomputed campaign reproduces the clean slice.
    let cache_chaos = chaos("cache.load:stall@1,cache.save:budget@1");
    let chaotic_fw = fw(&cache_chaos);
    let mut q = Quarantine::new();
    let run =
        run_checkpointed_campaign(&chaotic_fw, &params(), Some(&dir), false, Some(&mut q)).unwrap();
    ruletest_core::final_persist(&chaotic_fw).unwrap();
    let stats = cache_chaos.stats();

    assert!(stats.total() > 0, "cache chaos never fired");
    assert!(q.is_empty(), "cache-I/O faults degrade, never quarantine");
    assert!(!run.compressed.suite.queries.is_empty());
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

const STORM_GOLDEN: &str = include_str!("golden/chaos_storm.txt");

/// One supervised run under `spec` at one worker, rendered for the
/// golden: the injection stats, every quarantine entry, the crash
/// bundles minimized from it and an FNV hash of the deterministic report
/// slice.
fn storm_record(title: &str, spec: &str) -> String {
    let plan = chaos(spec);
    let fw = fw(&plan);
    let (report, quarantine, _) = supervised_run(&fw);
    let bundles = crash_bundles(&fw, params().seed, &quarantine, &TriageConfig::default());
    let stats = plan.stats();
    let mut out = format!(
        "== {title}: {spec}\ninjected: {} panics, {} stalls, {} budgets\n",
        stats.panics, stats.stalls, stats.budgets
    );
    for e in quarantine.entries() {
        out.push_str(&format!(
            "quarantine: {} {} {} {:?} {:?}\n",
            e.site, e.kind, e.fingerprint, e.label, e.message
        ));
    }
    for b in &bundles {
        out.push_str(&format!(
            "bundle: {} {:?} ops={} {:?}\n",
            b.signature, b.target_label, b.ops, b.sql
        ));
    }
    let slice = fnv1a(report.deterministic_json().as_bytes());
    out.push_str(&format!("slice: {slice:016x}\n"));
    out
}

/// The same faults land on the same inputs: the fixed plan of
/// `fixed_plan_replays_to_identical_quarantine` and the calibrated storm
/// of `campaign_survives_panic_stall_and_budget_storm`, pinned against
/// `tests/golden/chaos_storm.txt`. There is deliberately no regeneration
/// switch: a change meant to move a fault copies the `actual` text this
/// test prints on mismatch.
#[test]
fn chaos_storm_matches_the_golden() {
    let mut actual = storm_record("fixed", "memo.insert:panic@40#1,exec.batch:stall@4#1");
    let gen_hits = calibrate_storm();
    actual.push_str(&format!("calibration: memo.insert hits {gen_hits}\n"));
    actual.push_str(&storm_record("storm", &storm_spec(gen_hits)));
    assert!(
        actual == STORM_GOLDEN,
        "actual differs from tests/golden/chaos_storm.txt\n--- actual ---\n{actual}"
    );
}

/// Two campaigns with different plans on two threads of one process: each
/// counts its own hits, so each lands exactly the faults it lands alone.
#[test]
fn two_campaigns_with_different_plans_run_side_by_side() {
    let specs = [
        "memo.insert:panic@40#1,exec.batch:stall@4#1",
        "memo.insert:panic@25#2,exec.batch:stall@6#1",
    ];
    let solo = specs.map(|spec| storm_record("solo", spec));
    let start = std::sync::Barrier::new(specs.len());
    let side_by_side = std::thread::scope(|scope| {
        specs
            .map(|spec| {
                let start = &start;
                scope.spawn(move || {
                    start.wait();
                    storm_record("solo", spec)
                })
            })
            .map(|run| run.join().unwrap())
    });
    for (alone, beside) in solo.iter().zip(&side_by_side) {
        assert!(alone.contains("quarantine: "), "{alone}");
        assert_eq!(alone, beside);
    }
}

/// `ruletest sql` executes under the command line's chaos plan: an
/// `exec.batch` stall aborts the query with the injected error, and the
/// same query runs clean without a plan. The join charges a few thousand
/// units; a bare scan of the default 300-row `lineitem` would charge fewer
/// than one batch and never reach the site.
#[test]
fn sql_command_executes_under_the_chaos_plan() {
    let sql = "SELECT COUNT(*) AS n FROM lineitem JOIN orders ON l_orderkey = o_orderkey";
    let run = |extra: &[&str]| {
        std::process::Command::new(env!("CARGO_BIN_EXE_ruletest"))
            .arg("sql")
            .arg(sql)
            .args(extra)
            .output()
            .unwrap()
    };
    let stalled = run(&["--chaos-plan", "exec.batch:stall@1"]);
    let stderr = String::from_utf8_lossy(&stalled.stderr);
    assert!(!stalled.status.success(), "stall ignored; stderr: {stderr}");
    assert!(
        stderr.contains("chaos: injected stall at exec.batch (hit 1)"),
        "stderr: {stderr}"
    );
    let clean = run(&[]);
    assert!(
        clean.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&clean.stderr)
    );
    assert!(String::from_utf8_lossy(&clean.stdout).contains("-- 1 rows --"));
}

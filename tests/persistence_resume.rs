//! Persistent invocation cache + campaign resume invariants: (1) a warm
//! start answers every unchanged invocation from disk and reproduces the
//! cold run's deterministic report slice byte for byte, (2) a campaign
//! killed at a stage boundary reruns — with or without `--resume` — to the
//! identical deterministic slice an uninterrupted run produces, computing
//! only what the killed process had not saved, and (3) a snapshot written
//! under a different campaign fingerprint is rejected, never served.

use ruletest_common::{from_str, Parallelism};
use ruletest_core::compress::topk;
use ruletest_core::correctness::execute_solution;
use ruletest_core::{
    build_graph_with, final_persist, generate_suite_with, run_checkpointed_campaign,
    singleton_targets, CampaignParams, Framework, FrameworkConfig, GenConfig, Instance, Strategy,
};
use ruletest_executor::ExecConfig;
use ruletest_optimizer::SnapshotStore;
use ruletest_telemetry::{Counter, RunReport, Telemetry};
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ruletest_resume_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn fw() -> Framework {
    Framework::new(&FrameworkConfig::default())
        .unwrap()
        .with_telemetry(Telemetry::metrics_only())
}

fn params() -> CampaignParams {
    CampaignParams {
        rules: 3,
        k: 2,
        seed: 11,
        pad_ops: 1,
        max_trials: GenConfig::default().max_trials,
    }
}

/// Runs the full campaign (generation → graph → compression → execution →
/// final cache save) and returns the final report.
fn full_campaign(fw: &Framework, cache_dir: Option<&Path>, resume: bool) -> RunReport {
    let run = run_checkpointed_campaign(fw, &params(), cache_dir, resume, None).unwrap();
    let inst = Instance::from_graph(&run.graph);
    let sol = topk(&inst).unwrap();
    execute_solution(fw, &run.suite, &inst, &sol, &ExecConfig::default()).unwrap();
    final_persist(fw).unwrap();
    let report = fw.run_report();
    report.check().unwrap();
    report
}

/// The process that gets killed: runs the stages through `boundary` on a
/// framework with the warm store attached, saving the invocation cache
/// after each completed stage as the campaign driver does, then vanishes —
/// no execute stage, no final save, like a SIGKILL between stages. Built
/// from the public stage functions, so no production code carries a kill
/// hook. Returns the optimizations it computed, all of them persisted.
fn killed_at(dir: &Path, boundary: &str) -> u64 {
    let fw = fw().with_parallelism(Parallelism::single());
    let store = SnapshotStore::open(dir, fw.campaign_fingerprint(), None).unwrap();
    fw.optimizer.attach_snapshot_store(Arc::new(store));
    let p = params();
    let suite = generate_suite_with(
        &fw,
        singleton_targets(&fw, p.rules),
        p.k,
        Strategy::Pattern,
        &p.gen_config(),
        None,
    )
    .unwrap();
    fw.optimizer.persist_cache().unwrap();
    if boundary == "graph" {
        build_graph_with(&fw, suite, None).unwrap();
        fw.optimizer.persist_cache().unwrap();
    }
    fw.optimizer.invocation_count()
}

/// A warm start recomputes nothing and reproduces the cold deterministic
/// slice exactly.
#[test]
fn warm_start_is_deterministic_with_zero_recomputation() {
    let dir = temp_dir("warm");

    let cold_fw = fw();
    let cold = full_campaign(&cold_fw, Some(&dir), false);
    assert!(cold_fw.optimizer.invocation_count() > 0);
    assert!(cold.counter(Counter::CachePersisted) > 0);
    assert_eq!(cold.counter(Counter::CacheWarmHits), 0);

    let warm_fw = fw();
    let warm = full_campaign(&warm_fw, Some(&dir), false);
    assert_eq!(
        warm_fw.optimizer.invocation_count(),
        0,
        "warm start must not re-optimize any unchanged entry"
    );
    assert!(warm.counter(Counter::CacheWarmHits) > 0);
    assert_eq!(
        cold.deterministic_json(),
        warm.deterministic_json(),
        "cold and warm deterministic slices diverged"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// The invocation cache alone carries a killed campaign: a plain rerun on
/// the same cache dir (no `--resume`, no stage file read) yields the
/// uninterrupted run's deterministic slice and computes exactly the
/// optimizations the killed process had not persisted. One worker, so no
/// two workers race to compute the same key and the counts are exact.
#[test]
fn warm_rerun_after_kill_matches_uninterrupted_run() {
    let single = || fw().with_parallelism(Parallelism::single());
    let baseline_dir = temp_dir("rerun-baseline");
    let uninterrupted_fw = single();
    let uninterrupted = full_campaign(&uninterrupted_fw, Some(&baseline_dir), false);
    let total = uninterrupted_fw.optimizer.invocation_count();

    for boundary in ["suite", "graph"] {
        let dir = temp_dir(&format!("rerun-{boundary}"));
        let persisted = killed_at(&dir, boundary);
        assert!(persisted > 0, "{boundary}: the killed process did no work");

        let rerun_fw = single();
        let report = full_campaign(&rerun_fw, Some(&dir), false);
        assert_eq!(
            report.deterministic_json(),
            uninterrupted.deterministic_json(),
            "{boundary}: rerun slice diverged from the uninterrupted run"
        );
        assert_eq!(
            rerun_fw.optimizer.invocation_count(),
            total - persisted,
            "{boundary}: the rerun computes what the killed process had not saved"
        );
        if boundary == "graph" {
            // Every Plan(q, ¬R) the execute stage needs is an edge cost
            // the graph stage already computed.
            assert_eq!(persisted, total);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
    let _ = std::fs::remove_dir_all(&baseline_dir);
}

/// Killing the campaign at a stage boundary and resuming yields the same
/// deterministic slice as never having been killed.
#[test]
fn resume_after_kill_matches_uninterrupted_run() {
    for boundary in ["suite", "graph"] {
        let dir = temp_dir(&format!("kill-{boundary}"));
        killed_at(&dir, boundary);
        let report = full_campaign(&fw(), Some(&dir), true);

        let baseline_dir = temp_dir(&format!("kill-{boundary}-baseline"));
        let uninterrupted = full_campaign(&fw(), Some(&baseline_dir), false);
        assert_eq!(
            report.deterministic_json(),
            uninterrupted.deterministic_json(),
            "{boundary}: resumed slice diverged from the uninterrupted run"
        );

        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&baseline_dir);
    }
}

/// A metrics-enabled rerun over the snapshot of an unobserved
/// (telemetry-disabled) run reports the invocations its warm hits stand
/// for: the entries carry no profile sample, but each hit still counts as
/// the optimization it replays, so `RunReport::check` passes without
/// recomputing anything.
#[test]
fn metrics_rerun_over_an_unobserved_snapshot_reports_its_invocations() {
    let dir = temp_dir("mode-switch");

    let unobserved = Framework::new(&FrameworkConfig::default()).unwrap();
    let run = run_checkpointed_campaign(&unobserved, &params(), Some(&dir), false, None).unwrap();
    assert!(!run.suite.queries.is_empty());
    drop(unobserved);

    // full_campaign's fw() enables metrics, and the helper runs
    // `report.check()` — which would fail on a zero-invocation report.
    let observed = fw();
    let report = full_campaign(&observed, Some(&dir), true);
    assert_eq!(observed.optimizer.invocation_count(), 0);
    assert!(report.counter(Counter::OptInvocations) > 0);

    let _ = std::fs::remove_dir_all(&dir);
}

/// Corrupted or truncated persisted files degrade to recomputation, not a
/// crash: a truncated cache shard or a mangled quarantine file each warn
/// and cold-start, and the recomputed campaign reproduces the clean
/// deterministic slice.
#[test]
fn corrupted_checkpoints_recompute_instead_of_crashing() {
    let dir = temp_dir("corrupt");
    let clean = full_campaign(&fw(), Some(&dir), false);

    // Corrupt both persisted artifact classes at once: one cache shard
    // (truncated JSON) and the quarantine file (not JSON at all).
    let checkpoint = dir.join("checkpoint");
    std::fs::write(checkpoint.join("quarantine.json"), "not json either").unwrap();
    let shard = dir.join("cache").join("shard-0.jsonl");
    if shard.exists() {
        std::fs::write(&shard, "{\"truncated").unwrap();
    }

    let resumed_fw = fw();
    let mut quarantine = ruletest_core::Quarantine::new();
    let run = run_checkpointed_campaign(
        &resumed_fw,
        &params(),
        Some(&dir),
        true,
        Some(&mut quarantine),
    )
    .unwrap();
    assert!(
        quarantine.is_empty(),
        "a corrupted quarantine file loads as empty, not as an error"
    );
    let inst = Instance::from_graph(&run.graph);
    let sol = topk(&inst).unwrap();
    execute_solution(&resumed_fw, &run.suite, &inst, &sol, &ExecConfig::default()).unwrap();
    final_persist(&resumed_fw).unwrap();
    let report = resumed_fw.run_report();
    report.check().unwrap();
    assert_eq!(
        clean.deterministic_json(),
        report.deterministic_json(),
        "recomputation after corruption diverged from the clean run"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// A quarantine entry's failure kind is a closed set. A stamped
/// `quarantine.json` from outside the program with a kind that is none of
/// panic / timeout / budget is a decode error naming the field — the
/// `corrupted (…)` warning path — and loads as an empty quarantine, never
/// as an entry counted under some other kind.
#[test]
fn unknown_quarantine_kind_is_corruption_not_an_entry() {
    use ruletest_common::{FailureKind, Json};
    use ruletest_core::{input_fingerprint, CampaignStore, Quarantine, QuarantineEntry};
    let dir = temp_dir("unknown-kind");
    let store = CampaignStore::open(&dir, 7, &params()).unwrap();
    let mut quarantine = Quarantine::new();
    quarantine.add(QuarantineEntry {
        fingerprint: input_fingerprint("suite.generate", "SelectMerge"),
        kind: FailureKind::Panic,
        site: "suite.generate".to_string(),
        message: "boom".to_string(),
        label: "SelectMerge".to_string(),
        sql: None,
        rule_mask: vec!["SelectMerge".to_string()],
    });
    store.save_quarantine(&quarantine).unwrap();
    assert_eq!(store.load_quarantine(), quarantine);

    let path = dir.join("checkpoint").join("quarantine.json");
    let stamped = std::fs::read_to_string(&path).unwrap();
    let foreign = stamped.replace("\"kind\":\"panic\"", "\"kind\":\"oom\"");
    assert_ne!(foreign, stamped);
    let doc = Json::parse(&foreign).unwrap();
    let quarantine = doc.get("quarantine").unwrap().to_string_compact();
    let err = from_str::<Quarantine>(&quarantine).unwrap_err();
    assert!(err.to_string().contains("entries[0].kind"), "{err}");
    std::fs::write(&path, foreign).unwrap();
    assert!(store.load_quarantine().is_empty());

    let _ = std::fs::remove_dir_all(&dir);
}

/// A snapshot produced under one campaign fingerprint is rejected by a
/// campaign with another (here: a different database seed) — the second
/// campaign recomputes everything rather than serve poisoned entries.
#[test]
fn fingerprint_mismatch_rejects_snapshot_and_checkpoints() {
    let dir = temp_dir("mismatch");
    full_campaign(&fw(), Some(&dir), false);

    let mut other_cfg = FrameworkConfig::default();
    other_cfg.db.seed = other_cfg.db.seed.wrapping_add(1);
    let other_fw = Framework::new(&other_cfg)
        .unwrap()
        .with_telemetry(Telemetry::metrics_only());
    let report = full_campaign(&other_fw, Some(&dir), true);
    assert_eq!(
        report.counter(Counter::CacheFingerprintRejected),
        1,
        "the stale snapshot must be counted as rejected"
    );
    assert_eq!(report.counter(Counter::CacheWarmHits), 0);
    assert!(
        other_fw.optimizer.invocation_count() > 0,
        "a rejected snapshot means everything recomputes"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// The warm start through the command line: a second `ruletest audit` on
/// the same `--cache-dir` computes nothing, both run reports pass
/// `report --check`, and `diff` finds no regression from cold to warm.
/// One rule and one query keep the run short and still persist entries.
#[test]
fn audit_command_warm_starts_from_its_cache_dir() {
    let dir = temp_dir("cli");
    let ruletest = |args: &[&str]| {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_ruletest"))
            .args(args)
            .output()
            .unwrap();
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        assert!(
            out.status.success(),
            "ruletest {args:?} failed\nstdout: {stdout}\nstderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        stdout
    };
    let (cache, cold, warm) = (
        dir.join("cache"),
        dir.join("cold.json"),
        dir.join("warm.json"),
    );
    let audit = |report: &Path| {
        let stdout = ruletest(&[
            "audit",
            "--rules",
            "1",
            "--k",
            "1",
            "--threads",
            "1",
            "--cache-dir",
            cache.to_str().unwrap(),
            "--metrics-json",
            report.to_str().unwrap(),
        ]);
        let line = stdout.lines().find(|l| l.starts_with("cache: ")).unwrap();
        let computed = line.strip_suffix(" computed by this run").unwrap();
        computed.rsplit(' ').next().unwrap().parse::<u64>().unwrap()
    };
    assert!(audit(&cold) > 0, "the cold run computed nothing");
    assert_eq!(audit(&warm), 0, "the warm run re-optimized a cached entry");
    for report in [&cold, &warm] {
        ruletest(&["report", report.to_str().unwrap(), "--check"]);
    }
    ruletest(&[
        "diff",
        cold.to_str().unwrap(),
        warm.to_str().unwrap(),
        "--threshold-pct",
        "25",
    ]);
    let _ = std::fs::remove_dir_all(&dir);
}

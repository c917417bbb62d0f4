//! Supervision determinism invariants: (1) on a clean run the supervised
//! campaign's deterministic report slice is byte-identical to the
//! unsupervised campaign's, at one worker and at four; (2) a
//! pre-quarantined target is skipped without ever reaching the optimizer
//! and the surviving targets' queries stay byte-identical to a strict
//! run; (3) the quarantine persists in the campaign's checkpoint dir, so
//! a `--resume` skips poisoned inputs instead of re-hitting them.

use ruletest_common::FailureKind;
use ruletest_core::correctness::execute_solution;
use ruletest_core::supervise::SITE_SUITE;
use ruletest_core::{
    execute_solution_with, run_checkpointed_campaign, CampaignParams, Framework, FrameworkConfig,
    GenConfig, Quarantine, QuarantineEntry,
};
use ruletest_executor::ExecConfig;
use ruletest_telemetry::{Counter, RunReport, Telemetry};
use std::path::PathBuf;

fn temp_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("ruletest_supervisor_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn fw(threads: usize) -> Framework {
    let mut cfg = FrameworkConfig::default();
    cfg.parallelism.threads = threads;
    Framework::new(&cfg)
        .unwrap()
        .with_telemetry(Telemetry::metrics_only())
}

fn params() -> CampaignParams {
    CampaignParams {
        rules: 4,
        k: 2,
        seed: 17,
        pad_ops: 1,
        max_trials: GenConfig::default().max_trials,
    }
}

/// Full campaign, unsupervised.
fn strict_campaign(fw: &Framework) -> RunReport {
    let c = run_checkpointed_campaign(fw, &params(), None, false, None)
        .unwrap()
        .compressed;
    execute_solution(fw, &c.suite, &c.inst, &c.topk, &ExecConfig::default()).unwrap();
    fw.run_report()
}

/// Full campaign, supervised; returns the final quarantine too.
fn supervised_campaign(fw: &Framework, quarantine: &mut Quarantine) -> RunReport {
    let c = run_checkpointed_campaign(fw, &params(), None, false, Some(&mut *quarantine))
        .unwrap()
        .compressed;
    execute_solution_with(
        fw,
        &c.suite,
        &c.topk,
        &ExecConfig::default(),
        Some(quarantine),
    )
    .unwrap();
    fw.run_report()
}

/// The tentpole determinism contract: with no failures, supervision is
/// invisible — the deterministic slice matches the unsupervised run byte
/// for byte at any thread count.
#[test]
fn clean_supervised_slice_matches_unsupervised_at_any_thread_count() {
    let baseline = strict_campaign(&fw(1)).deterministic_json();
    for threads in [1, 4] {
        let strict = strict_campaign(&fw(threads));
        assert_eq!(
            baseline,
            strict.deterministic_json(),
            "unsupervised slice diverged at {threads} threads"
        );
        let mut quarantine = Quarantine::new();
        let supervised = supervised_campaign(&fw(threads), &mut quarantine);
        assert!(quarantine.is_empty(), "clean run must not quarantine");
        assert_eq!(supervised.counter(Counter::SuperviseQuarantined), 0);
        assert_eq!(
            baseline,
            supervised.deterministic_json(),
            "supervised slice diverged at {threads} threads"
        );
    }
}

/// A pre-quarantined target is dropped without optimizer calls, and the
/// surviving targets' queries are byte-identical to the strict run's
/// (original-index seed streams).
#[test]
fn quarantined_targets_are_skipped_and_survivors_unchanged() {
    let strict_fw = fw(2);
    let strict_run = run_checkpointed_campaign(&strict_fw, &params(), None, false, None).unwrap();
    let poisoned_label = strict_run.compressed.suite.targets[1].label(&strict_fw.optimizer);

    let sup_fw = fw(2);
    let mut quarantine = Quarantine::new();
    quarantine.add(QuarantineEntry {
        fingerprint: ruletest_core::input_fingerprint(SITE_SUITE, &poisoned_label),
        kind: FailureKind::Panic,
        site: SITE_SUITE.to_string(),
        message: "injected by test".to_string(),
        label: poisoned_label.clone(),
        sql: None,
        rule_mask: vec![poisoned_label.clone()],
    });
    let sup_run =
        run_checkpointed_campaign(&sup_fw, &params(), None, false, Some(&mut quarantine)).unwrap();
    assert_eq!(
        sup_run.compressed.suite.targets.len(),
        strict_run.compressed.suite.targets.len() - 1,
        "the poisoned target must be dropped"
    );
    assert!(
        !sup_run
            .compressed
            .suite
            .targets
            .iter()
            .any(|t| t.label(&sup_fw.optimizer) == poisoned_label),
        "the poisoned target must not survive"
    );
    // Survivors keep their strict-run queries byte for byte.
    let strict_sql: Vec<&str> = strict_run
        .compressed
        .suite
        .queries
        .iter()
        .filter(|q| {
            strict_run.compressed.suite.targets[q.generated_for].label(&strict_fw.optimizer)
                != poisoned_label
        })
        .map(|q| q.sql.as_str())
        .collect();
    let sup_sql: Vec<&str> = sup_run
        .compressed
        .suite
        .queries
        .iter()
        .map(|q| q.sql.as_str())
        .collect();
    assert_eq!(strict_sql, sup_sql, "surviving queries diverged");
}

/// The quarantine rides campaign checkpoints: a resumed campaign loads it
/// and keeps skipping the poisoned input without re-running it.
#[test]
fn resume_skips_quarantined_inputs() {
    let dir = temp_dir("resume-skip");

    let first_fw = fw(2);
    let first_params = params();
    let label = {
        // Learn a real target label from a throwaway strict run.
        let probe = run_checkpointed_campaign(&fw(1), &first_params, None, false, None).unwrap();
        probe.compressed.suite.targets[0].label(&fw(1).optimizer)
    };
    let mut quarantine = Quarantine::new();
    quarantine.add(QuarantineEntry {
        fingerprint: ruletest_core::input_fingerprint(SITE_SUITE, &label),
        kind: FailureKind::Timeout,
        site: SITE_SUITE.to_string(),
        message: "injected by test".to_string(),
        label: label.clone(),
        sql: None,
        rule_mask: vec![label.clone()],
    });
    let first_run = run_checkpointed_campaign(
        &first_fw,
        &first_params,
        Some(&dir),
        false,
        Some(&mut quarantine),
    )
    .unwrap();
    first_run
        .store
        .as_ref()
        .expect("cache-dir campaign has a store")
        .save_quarantine(&quarantine)
        .unwrap();
    let first_queries: Vec<String> = first_run
        .compressed
        .suite
        .queries
        .iter()
        .map(|q| q.sql.clone())
        .collect();

    // A fresh process resumes: the quarantine is loaded from disk, the
    // poisoned target stays dropped, and the warm rerun regenerates the
    // same (shrunk) suite without optimizing anything again.
    let resumed_fw = fw(2);
    let mut resumed_quarantine = Quarantine::new();
    let resumed = run_checkpointed_campaign(
        &resumed_fw,
        &first_params,
        Some(&dir),
        true,
        Some(&mut resumed_quarantine),
    )
    .unwrap();
    assert_eq!(
        resumed_fw.optimizer.invocation_count(),
        0,
        "both stages must be answered from the persisted cache"
    );
    assert!(
        resumed_quarantine.contains_input(SITE_SUITE, &label),
        "the persisted quarantine must be loaded on resume"
    );
    let resumed_queries: Vec<String> = resumed
        .compressed
        .suite
        .queries
        .iter()
        .map(|q| q.sql.clone())
        .collect();
    assert_eq!(first_queries, resumed_queries);
    assert!(
        !resumed
            .compressed
            .suite
            .targets
            .iter()
            .any(|t| t.label(&resumed_fw.optimizer) == label),
        "the poisoned target must stay dropped across resume"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

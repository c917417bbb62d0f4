//! Campaign-level supervision: the quarantine, the one stage runner every
//! campaign stage fans out through, and crash repro bundles.
//!
//! `ruletest_common::supervise` provides the mechanism (panic sandbox,
//! deadlines, the [`Failure`] taxonomy); this module provides the policy.
//! A stage is written once, on top of [`run_stage`], and what happens when
//! one of its items fails is the caller's choice of policy: without a
//! quarantine the failure propagates (first error by item order, a panic
//! resumes on the caller); with one, the failure is absorbed — the
//! poisoned input is recorded in the [`Quarantine`] under a *stable
//! fingerprint* of `(site, input)` and the stage carries on without it.
//! The quarantine persists in campaign checkpoints, so a `--resume` skips
//! known-poisoned inputs instead of re-hitting the crash; crash inputs
//! that carry SQL are fed to the triage minimizer's shrink lattice and
//! emitted as [`ReproBundle`]s.
//!
//! **Determinism contract:** on a clean run (no failures, empty
//! quarantine) a stage performs exactly the same optimizer/executor
//! calls, opens the same telemetry spans, and bumps the same counters
//! under either policy — the deterministic report slice is byte-identical
//! with supervision on or off, at any thread count. All supervision
//! counters are environmental (excluded from the deterministic slice), so
//! absorbed faults never perturb it either.

use crate::framework::Framework;
use crate::oracle::Oracle;
use crate::suite::RuleTarget;
use crate::triage::{bundle::BUNDLE_VERSION, minimize, ReproBundle, TriageConfig};
use ruletest_common::{fnv1a, par_map, sandbox, wire_record, Failure, FailureKind, Result, RuleId};
use ruletest_logical::LogicalTree;
use ruletest_optimizer::OptimizerConfig;
use ruletest_telemetry::{Counter, Event, Telemetry};

/// Supervision site labels (stable: they feed quarantine fingerprints).
pub const SITE_SUITE: &str = "suite.generate";
pub const SITE_GRAPH: &str = "graph.edges";
pub const SITE_EXEC_BASE: &str = "exec.base";
pub const SITE_EXEC_PAIR: &str = "exec.pair";

/// Stable fingerprint of a supervised input: a pure function of the site
/// label and the input's identity string (target label, SQL text, ...),
/// never of run state like indices or thread ids — so the same poisoned
/// input maps to the same quarantine entry across runs and resumes.
pub fn fingerprint_u64(site: &str, input: &str) -> u64 {
    fnv1a(format!("{site}\u{1f}{input}").as_bytes())
}

/// [`fingerprint_u64`] rendered as the 16-hex-digit key quarantine files
/// use.
pub fn input_fingerprint(site: &str, input: &str) -> String {
    format!("{:016x}", fingerprint_u64(site, input))
}

/// One quarantined input: enough to skip it on resume and to attempt a
/// crash repro later.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantineEntry {
    /// [`input_fingerprint`] of `(site, input)` — the dedup/skip key.
    pub fingerprint: String,
    /// Failure kind (`panic` / `timeout` / `budget` on the wire).
    pub kind: FailureKind,
    /// Supervision site (`suite.generate`, `graph.edges`, `exec.base`,
    /// `exec.pair`).
    pub site: String,
    /// Failure message (panic payload, deadline description, ...).
    pub message: String,
    /// Human-readable input identity (target label or query label).
    pub label: String,
    /// The poisoned query's SQL, when the input has one — the crash
    /// minimizer's starting witness.
    pub sql: Option<String>,
    /// Rule names masked when the failure happened (empty for base
    /// executions and suite generation).
    pub rule_mask: Vec<String>,
}

wire_record!(QuarantineEntry {
    "fingerprint" => fingerprint,
    "kind" => kind,
    "label" => label,
    "message" => message,
    "rule_mask" => rule_mask,
    "site" => site,
    "sql" => sql: omit_none,
});

/// The set of inputs a campaign must not touch again. Ordered by first
/// insertion; deduplicated by fingerprint.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Quarantine {
    entries: Vec<QuarantineEntry>,
}

wire_record!(Quarantine { "entries" => entries });

impl Quarantine {
    pub fn new() -> Self {
        Quarantine::default()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn entries(&self) -> &[QuarantineEntry] {
        &self.entries
    }

    /// True when `(site, input)` is already quarantined.
    pub fn contains_input(&self, site: &str, input: &str) -> bool {
        let fp = input_fingerprint(site, input);
        self.entries.iter().any(|e| e.fingerprint == fp)
    }

    /// Inserts an entry; returns `true` when it is new (false = already
    /// quarantined under the same fingerprint).
    pub fn add(&mut self, entry: QuarantineEntry) -> bool {
        if self
            .entries
            .iter()
            .any(|e| e.fingerprint == entry.fingerprint)
        {
            return false;
        }
        self.entries.push(entry);
        true
    }

    /// Merges another quarantine (e.g. one loaded from a checkpoint) into
    /// this one, first-insertion order preserved.
    pub fn merge(&mut self, other: Quarantine) {
        for e in other.entries {
            self.add(e);
        }
    }
}

/// How a stage names one of its items to the quarantine.
pub(crate) struct ItemName {
    /// The input's identity at this site; with the site label it makes
    /// the fingerprint.
    pub label: String,
    /// The item's SQL, when it has one (see [`QuarantineEntry::sql`]).
    pub sql: Option<String>,
    /// Names of the rules masked while the item runs.
    pub rule_mask: Vec<String>,
}

impl ItemName {
    /// The name of a per-target item (suite generation, graph edges).
    pub(crate) fn of_target(fw: &Framework, target: RuleTarget) -> Self {
        ItemName {
            label: target.label(&fw.optimizer),
            sql: None,
            rule_mask: target.rule_names(&fw.optimizer),
        }
    }
}

/// Records one absorbed failure: bumps the per-kind supervision counter,
/// emits the `supervised` event, and quarantines the input (bumping the
/// quarantine counter only for *new* entries — a resume re-absorbing a
/// known input is not a new quarantine).
fn absorb(
    fw: &Framework,
    quarantine: &mut Quarantine,
    site: &str,
    name: ItemName,
    failure: &Failure,
) {
    let fp = fingerprint_u64(site, &name.label);
    let kind = failure.kind();
    fw.telemetry.incr(match kind {
        FailureKind::Panic => Counter::SupervisePanics,
        FailureKind::Timeout => Counter::SuperviseTimeouts,
        FailureKind::Budget => Counter::SuperviseBudget,
    });
    fw.telemetry.event(|| Event::Supervised {
        kind: kind.name(),
        site: site.to_string(),
        fingerprint: fp,
    });
    let new = quarantine.add(QuarantineEntry {
        fingerprint: format!("{fp:016x}"),
        kind,
        site: site.to_string(),
        message: failure.message().to_string(),
        label: name.label,
        sql: name.sql,
        rule_mask: name.rule_mask,
    });
    if new {
        fw.telemetry.incr(Counter::SuperviseQuarantined);
    }
}

/// Runs one campaign stage: `work` over every item on the campaign pool,
/// one slot per item, in item order. Every stage driver fans out through
/// here, and `quarantine` is its failure policy (DESIGN §15.1 has the
/// table). Under both, `work` gets the item's index in `items` and an
/// ordinary error returns as the lowest failing item's `Err`.
///
/// * `None` propagates: the lowest failing item's error returns — a
///   timeout or budget error like any other — and a panic resumes on the
///   caller.
/// * `Some(q)` absorbs: an item already in `q` (same site, same
///   [`ItemName::label`]) is skipped before `work` is ever called for it;
///   the rest run inside [`sandbox`], the one place that decides whether
///   an outcome is a [`Failure`]. A panic, timeout or exhausted budget is
///   recorded in `q` and the stage carries on. Skipped and failed items
///   have `None` in their slot.
pub(crate) fn run_stage<T: Sync, R: Send>(
    fw: &Framework,
    site: &str,
    items: &[T],
    name: impl Fn(&T) -> ItemName,
    work: impl Fn(usize, &T) -> Result<R> + Sync,
    quarantine: Option<&mut Quarantine>,
) -> Result<Vec<Option<R>>> {
    let (threads, stats) = (fw.parallelism.threads, fw.telemetry.pool_stats());
    let Some(quarantine) = quarantine else {
        return par_map(threads, stats, items, |i, item| work(i, item).map(Some))
            .into_iter()
            .collect();
    };
    let pending: Vec<(usize, ItemName)> = items
        .iter()
        .map(name)
        .enumerate()
        .filter(|(_, n)| !quarantine.contains_input(site, &n.label))
        .collect();
    let outcomes = par_map(threads, stats, &pending, |_, &(i, _)| {
        sandbox(site, || work(i, &items[i]))
    });
    let mut slots: Vec<Option<R>> = items.iter().map(|_| None).collect();
    for ((i, name), outcome) in pending.into_iter().zip(outcomes) {
        match outcome {
            Ok(result) => slots[i] = Some(result?),
            Err(failure) => absorb(fw, quarantine, site, name, &failure),
        }
    }
    Ok(slots)
}

// ---------------------------------------------------------------------
// Crash repro bundles.

/// Converts quarantined crash inputs that carry SQL into repro bundles,
/// shrinking each witness through the triage minimizer's candidate
/// lattice while the failure (same kind) still reproduces. Entries whose
/// failure no longer reproduces (e.g. an exhausted chaos injection cap)
/// are bundled unshrunk — the bundle still records the witness, site,
/// and failure message.
///
/// Unlike result-diff bundles, crash bundles are *not* self-checked
/// against a recorded divergence: their `signature` is
/// `crash:<kind>:<site>` and their `diff_summary` is the failure
/// message; `base_plan`/`masked_plan` stay empty (the plans may not be
/// derivable from a crashing input).
pub fn crash_bundles(
    fw: &Framework,
    suite_seed: u64,
    quarantine: &Quarantine,
    cfg: &TriageConfig,
) -> Vec<ReproBundle> {
    let (exec, tel) = (fw.exec_config(&cfg.exec), Telemetry::disabled());
    let probe = Oracle::new(&fw.optimizer, &tel, &exec);
    let mut out = Vec::new();
    let mut total_steps = 0u64;
    for entry in quarantine.entries() {
        let Some(sql) = &entry.sql else {
            continue;
        };
        let Ok(tree) = ruletest_sql::parse_sql(&fw.db.catalog, sql) else {
            continue;
        };
        let rules: Vec<RuleId> = entry
            .rule_mask
            .iter()
            .filter_map(|n| fw.optimizer.rule_id(n))
            .collect();
        // The crash probe optimizes both ways and executes both plans,
        // identical ones too (a base query's mask is empty), stopping at
        // the first failure; it compares no results.
        let reproduces = |t: &LogicalTree| {
            sandbox("crash.probe", || {
                let base = fw.optimizer.optimize_cached(t)?;
                let masked = fw
                    .optimizer
                    .optimize_with_cached(t, &OptimizerConfig::disabling(&rules))?;
                probe.execute(&base.plan)?;
                probe.execute(&masked.plan).map(drop)
            })
            .is_err_and(|failure| failure.kind() == entry.kind)
        };
        let trajectory = if rules.len() == entry.rule_mask.len() && reproduces(&tree) {
            minimize::descend(&tree, cfg.max_steps, |c| {
                minimize::is_valid(fw, c) && reproduces(c)
            })
        } else {
            vec![tree]
        };
        total_steps += trajectory.len() as u64 - 1;
        let tree = trajectory.last().expect("the trajectory starts at tree");
        let final_sql = ruletest_sql::to_sql(&fw.db.catalog, tree).unwrap_or_else(|_| sql.clone());
        out.push(ReproBundle {
            version: BUNDLE_VERSION,
            target_label: entry.label.clone(),
            rule_mask: entry.rule_mask.clone(),
            fault: cfg.fault.map(|m| m.id.to_string()),
            seed: suite_seed,
            db_seed: fw.db_profile.db_seed,
            scale: fw.db_profile.scale as u64,
            sql: final_sql,
            ops: tree.op_count() as u64,
            signature: format!("crash:{}:{}", entry.kind, entry.site),
            duplicates: 0,
            diff_summary: format!("{} at {}: {}", entry.kind, entry.site, entry.message),
            base_plan: String::new(),
            masked_plan: String::new(),
        });
    }
    if !out.is_empty() {
        fw.telemetry.add(Counter::BugsMinimized, out.len() as u64);
        fw.telemetry.add(Counter::MinimizationSteps, total_steps);
    }
    out
}

/// Renders a one-line quarantine summary for campaign output.
pub fn quarantine_summary(q: &Quarantine) -> String {
    if q.is_empty() {
        return "quarantine: empty".to_string();
    }
    let mut by_kind: Vec<(FailureKind, usize)> = Vec::new();
    for e in q.entries() {
        match by_kind.iter_mut().find(|(k, _)| *k == e.kind) {
            Some((_, n)) => *n += 1,
            None => by_kind.push((e.kind, 1)),
        }
    }
    let detail: Vec<String> = by_kind
        .into_iter()
        .map(|(k, n)| format!("{n} {k}"))
        .collect();
    format!("quarantine: {} entries ({})", q.len(), detail.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::FrameworkConfig;
    use crate::generate::{GenConfig, Strategy};
    use crate::suite::{build_graph_with, generate_suite_with};
    use ruletest_common::Error;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn fingerprints_are_stable_and_site_scoped() {
        let a = input_fingerprint("suite.generate", "InnerJoinCommute");
        let b = input_fingerprint("suite.generate", "InnerJoinCommute");
        let c = input_fingerprint("graph.edges", "InnerJoinCommute");
        assert_eq!(a, b);
        assert_ne!(
            a, c,
            "the same input at a different site is a different entry"
        );
        assert_eq!(a.len(), 16);
    }

    #[test]
    fn quarantine_dedups_by_fingerprint_and_round_trips_json() {
        let mut q = Quarantine::new();
        let entry = QuarantineEntry {
            fingerprint: input_fingerprint(SITE_EXEC_PAIR, "A|SELECT 1"),
            kind: FailureKind::Panic,
            site: SITE_EXEC_PAIR.to_string(),
            message: "chaos: injected panic at memo.insert (hit 3)".to_string(),
            label: "A|SELECT 1".to_string(),
            sql: Some("SELECT 1".to_string()),
            rule_mask: vec!["InnerJoinCommute".to_string()],
        };
        assert!(q.add(entry.clone()));
        assert!(!q.add(entry.clone()), "same fingerprint must dedup");
        assert!(q.add(QuarantineEntry {
            fingerprint: input_fingerprint(SITE_SUITE, "B"),
            kind: FailureKind::Timeout,
            site: SITE_SUITE.to_string(),
            message: "deadline".to_string(),
            label: "B".to_string(),
            sql: None,
            rule_mask: vec![],
        }));
        assert_eq!(q.len(), 2);
        assert!(q.contains_input(SITE_EXEC_PAIR, "A|SELECT 1"));
        assert!(!q.contains_input(SITE_EXEC_PAIR, "A|SELECT 2"));

        let text = ruletest_common::to_compact(&q);
        let round = ruletest_common::from_str::<Quarantine>(&text).unwrap();
        assert_eq!(round, q);
        // The optional sql field round-trips both present and absent.
        assert_eq!(round.entries()[0].sql.as_deref(), Some("SELECT 1"));
        assert_eq!(round.entries()[1].sql, None);
    }

    #[test]
    fn merge_preserves_first_insertion_and_dedups() {
        let mk = |site: &str, label: &str| QuarantineEntry {
            fingerprint: input_fingerprint(site, label),
            kind: FailureKind::Budget,
            site: site.to_string(),
            message: "m".to_string(),
            label: label.to_string(),
            sql: None,
            rule_mask: vec![],
        };
        let mut a = Quarantine::new();
        a.add(mk(SITE_SUITE, "x"));
        let mut b = Quarantine::new();
        b.add(mk(SITE_SUITE, "x"));
        b.add(mk(SITE_GRAPH, "y"));
        a.merge(b);
        assert_eq!(a.len(), 2);
        assert_eq!(a.entries()[0].label, "x");
        assert_eq!(a.entries()[1].label, "y");
    }

    #[test]
    fn quarantine_summary_groups_by_kind() {
        let mut q = Quarantine::new();
        assert_eq!(quarantine_summary(&q), "quarantine: empty");
        for (site, label, kind) in [
            (SITE_SUITE, "a", FailureKind::Panic),
            (SITE_SUITE, "b", FailureKind::Panic),
            (SITE_GRAPH, "c", FailureKind::Timeout),
        ] {
            q.add(QuarantineEntry {
                fingerprint: input_fingerprint(site, label),
                kind,
                site: site.to_string(),
                message: String::new(),
                label: label.to_string(),
                sql: None,
                rule_mask: vec![],
            });
        }
        assert_eq!(
            quarantine_summary(&q),
            "quarantine: 3 entries (2 panic, 1 timeout)"
        );
    }

    fn fw_with(threads: usize) -> Framework {
        let mut cfg = FrameworkConfig::default();
        cfg.parallelism.threads = threads;
        Framework::new(&cfg)
            .unwrap()
            .with_telemetry(ruletest_telemetry::Telemetry::metrics_only())
    }

    /// Stage work for the runner tests, keyed on the item's value and
    /// counting its invocations per item: one item of each failing kind,
    /// an ordinary error at `invalid_at`, squares elsewhere.
    fn flaky(
        calls: &[AtomicUsize],
        invalid_at: Option<usize>,
    ) -> impl Fn(usize, &usize) -> Result<usize> + Sync + '_ {
        move |_, &v| {
            calls[v].fetch_add(1, Ordering::Relaxed);
            match v {
                3 => panic!("item 3 exploded"),
                7 => Err(Error::timeout("item 7 hung")),
                11 => Err(Error::budget("item 11 grew")),
                _ if invalid_at == Some(v) => Err(Error::invalid("item is malformed")),
                _ => Ok(v * v),
            }
        }
    }

    fn item_name(v: &usize) -> ItemName {
        ItemName {
            label: format!("item{v}"),
            sql: None,
            rule_mask: Vec::new(),
        }
    }

    #[test]
    fn run_stage_absorbs_failures_and_never_reruns_a_quarantined_item() {
        const SITE: &str = "test.stage";
        let items: Vec<usize> = (0..16).collect();
        for threads in [1, 4] {
            let fw = fw_with(threads);
            let calls: Vec<AtomicUsize> = items.iter().map(|_| AtomicUsize::new(0)).collect();
            let mut q = Quarantine::new();
            let work = flaky(&calls, None);
            let out = run_stage(&fw, SITE, &items, item_name, &work, Some(&mut q)).unwrap();
            for (v, slot) in out.iter().enumerate() {
                let expected = (![3, 7, 11].contains(&v)).then_some(v * v);
                assert_eq!(*slot, expected, "slot {v} at {threads} threads");
            }
            let entries: Vec<(FailureKind, &str, String)> = q
                .entries()
                .iter()
                .map(|e| (e.kind, e.message.as_str(), e.fingerprint.clone()))
                .collect();
            let fp = |label| input_fingerprint(SITE, label);
            assert_eq!(
                entries,
                vec![
                    (FailureKind::Panic, "item 3 exploded", fp("item3")),
                    (FailureKind::Timeout, "item 7 hung", fp("item7")),
                    (FailureKind::Budget, "item 11 grew", fp("item11")),
                ]
            );
            for c in [
                Counter::SupervisePanics,
                Counter::SuperviseTimeouts,
                Counter::SuperviseBudget,
            ] {
                assert_eq!(fw.telemetry.counter(c), 1, "{c:?}");
            }
            assert_eq!(fw.telemetry.counter(Counter::SuperviseQuarantined), 3);

            // Same items again: the three poisoned ones are skipped before
            // `work` is ever called for them.
            let again = run_stage(&fw, SITE, &items, item_name, &work, Some(&mut q)).unwrap();
            assert_eq!(again, out);
            assert_eq!(q.len(), 3);
            for (v, n) in calls.iter().enumerate() {
                let expected = if [3, 7, 11].contains(&v) { 1 } else { 2 };
                assert_eq!(n.load(Ordering::Relaxed), expected, "calls of item {v}");
            }
        }
    }

    #[test]
    fn run_stage_without_a_quarantine_propagates_the_lowest_failure() {
        let items: Vec<usize> = (0..16).collect();
        for threads in [1, 4] {
            let fw = fw_with(threads);
            let calls: Vec<AtomicUsize> = items.iter().map(|_| AtomicUsize::new(0)).collect();
            let work = flaky(&calls, None);
            // Lowest failing item is the panic: it resumes on the caller.
            let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                run_stage(&fw, "test.stage", &items, item_name, &work, None)
            }))
            .expect_err("the panic must propagate");
            assert_eq!(payload.downcast_ref::<&str>(), Some(&"item 3 exploded"));
            // Past the panic, the lowest failing item is the timeout.
            let err = run_stage(&fw, "test.stage", &items[4..], item_name, &work, None);
            assert_eq!(err.unwrap_err(), Error::timeout("item 7 hung"));
            // And a stage with no failing item returns every result.
            let ok = run_stage(&fw, "test.stage", &items[12..], item_name, &work, None);
            assert_eq!(
                ok.unwrap(),
                vec![Some(144), Some(169), Some(196), Some(225)]
            );
        }
    }

    #[test]
    fn run_stage_returns_an_ordinary_error_under_both_policies() {
        let items: Vec<usize> = (8..16).collect();
        for threads in [1, 4] {
            let fw = fw_with(threads);
            let calls: Vec<AtomicUsize> = (0..16).map(|_| AtomicUsize::new(0)).collect();
            let work = flaky(&calls, Some(9));
            let mut q = Quarantine::new();
            for policy in [None, Some(&mut q)] {
                let out = run_stage(&fw, "test.stage", &items, item_name, &work, policy);
                assert_eq!(out.unwrap_err(), Error::invalid("item is malformed"));
            }
            assert!(q.is_empty(), "item 9 errs before item 11 is absorbed");
        }
    }

    #[test]
    fn supervised_generation_matches_strict_generation_on_the_clean_path() {
        use crate::suite::{generate_suite, singleton_targets};
        let fw = Framework::new(&FrameworkConfig::default()).unwrap();
        let targets = singleton_targets(&fw, 4);
        let strict = generate_suite(
            &fw,
            targets.clone(),
            2,
            Strategy::Pattern,
            &GenConfig::default(),
        )
        .unwrap();
        let mut q = Quarantine::new();
        let supervised = generate_suite_with(
            &fw,
            targets,
            2,
            Strategy::Pattern,
            &GenConfig::default(),
            Some(&mut q),
        )
        .unwrap();
        assert!(q.is_empty());
        assert_eq!(supervised.targets, strict.targets);
        assert_eq!(supervised.queries.len(), strict.queries.len());
        for (a, b) in supervised.queries.iter().zip(&strict.queries) {
            assert_eq!(a.sql, b.sql);
            assert_eq!(a.cost, b.cost);
            assert_eq!(a.generated_for, b.generated_for);
        }
    }

    #[test]
    fn supervised_graph_matches_eager_graph_on_the_clean_path() {
        use crate::suite::{build_graph, generate_suite, singleton_targets};
        let fw = Framework::new(&FrameworkConfig::default()).unwrap();
        let targets = singleton_targets(&fw, 4);
        let suite =
            generate_suite(&fw, targets, 2, Strategy::Pattern, &GenConfig::default()).unwrap();
        let eager = build_graph(&fw, &suite).unwrap();
        let mut q = Quarantine::new();
        let (sup_suite, sup) = build_graph_with(&fw, suite.clone(), Some(&mut q)).unwrap();
        assert!(q.is_empty());
        assert_eq!(sup_suite.targets, suite.targets);
        assert_eq!(sup.adjacency, eager.adjacency);
        assert_eq!(sup.edges, eager.edges);
        assert_eq!(sup.node_cost, eager.node_cost);
        assert_eq!(sup.generated_for, eager.generated_for);
        assert_eq!(sup.optimizer_calls, eager.optimizer_calls);
    }

    #[test]
    fn quarantined_targets_are_skipped_and_dropped() {
        use crate::suite::{generate_suite, singleton_targets};
        let fw = Framework::new(&FrameworkConfig::default()).unwrap();
        let targets = singleton_targets(&fw, 4);
        let labels: Vec<String> = targets.iter().map(|t| t.label(&fw.optimizer)).collect();
        // Pre-poison the second target at the generation site.
        let mut q = Quarantine::new();
        q.add(QuarantineEntry {
            fingerprint: input_fingerprint(SITE_SUITE, &labels[1]),
            kind: FailureKind::Panic,
            site: SITE_SUITE.to_string(),
            message: "previously crashed".to_string(),
            label: labels[1].clone(),
            sql: None,
            rule_mask: vec![],
        });
        let suite = generate_suite_with(
            &fw,
            targets.clone(),
            2,
            Strategy::Pattern,
            &GenConfig::default(),
            Some(&mut q),
        )
        .unwrap();
        assert_eq!(suite.targets.len(), 3, "poisoned target dropped");
        assert!(!suite.targets.contains(&targets[1]));
        // The surviving targets' queries are identical to the strict
        // build's (original-index seed streams survive the drop).
        let strict = generate_suite(
            &fw,
            targets.clone(),
            2,
            Strategy::Pattern,
            &GenConfig::default(),
        )
        .unwrap();
        let strict_sql: Vec<&String> = strict
            .queries
            .iter()
            .filter(|sq| sq.generated_for != 1)
            .map(|sq| &sq.sql)
            .collect();
        let sup_sql: Vec<&String> = suite.queries.iter().map(|sq| &sq.sql).collect();
        assert_eq!(sup_sql, strict_sql);

        // Graph stage: pre-poison one more target at the graph site.
        q.add(QuarantineEntry {
            fingerprint: input_fingerprint(SITE_GRAPH, &labels[2]),
            kind: FailureKind::Timeout,
            site: SITE_GRAPH.to_string(),
            message: "previously hung".to_string(),
            label: labels[2].clone(),
            sql: None,
            rule_mask: vec![],
        });
        let (g_suite, graph) = build_graph_with(&fw, suite.clone(), Some(&mut q)).unwrap();
        assert_eq!(g_suite.targets.len(), 2);
        assert!(!g_suite.targets.contains(&targets[2]));
        assert_eq!(graph.targets, g_suite.targets);
        // Every adjacency pair has an edge (eager invariant preserved
        // across the shrink/remap).
        for (t, adj) in graph.adjacency.iter().enumerate() {
            for &qi in adj {
                assert!(
                    graph.edges.contains_key(&(t, qi)),
                    "missing edge ({t},{qi})"
                );
            }
        }
        assert_eq!(graph.optimizer_calls, graph.edges.len() as u64);
    }
}

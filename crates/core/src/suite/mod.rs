//! Test suites for correctness testing (§2.3, §4).
//!
//! A test suite assigns to every rule (or rule pair) `k` distinct queries
//! that exercise it. The suite is represented as a bipartite graph
//! (Figure 4 / Figure 7): query nodes carry `Cost(q)`, and an edge
//! `(target, q)` carries `Cost(q, ¬R)` — the plan cost with the target's
//! rules disabled.

pub mod graph;

use crate::framework::Framework;
use crate::generate::{GenConfig, Strategy};
use crate::supervise::{run_stage, ItemName, Quarantine, SITE_SUITE};
use ruletest_common::{Error, Result, RuleId};
use ruletest_logical::LogicalTree;
use ruletest_optimizer::Searched;
use ruletest_telemetry::Counter;
use std::collections::BTreeSet;

pub use graph::{
    build_graph, build_graph_pruned, compress_suite, BipartiteGraph, Compressed, EdgeOracle,
};

/// What a test-suite slot validates: a single rule or a rule pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RuleTarget {
    Single(RuleId),
    Pair(RuleId, RuleId),
}

impl RuleTarget {
    /// The rules to disable for `Plan(q, ¬R)`.
    pub fn rules(&self) -> Vec<RuleId> {
        match self {
            RuleTarget::Single(r) => vec![*r],
            RuleTarget::Pair(a, b) => vec![*a, *b],
        }
    }

    /// True iff a query with this `RuleSet` exercises the target.
    pub fn covered_by(&self, rule_set: &BTreeSet<RuleId>) -> bool {
        self.rules().iter().all(|r| rule_set.contains(r))
    }

    /// Names of [`RuleTarget::rules`] — the rule mask as bug reports,
    /// quarantine entries and repro bundles record it.
    pub fn rule_names(&self, optimizer: &ruletest_optimizer::Optimizer) -> Vec<String> {
        self.rules()
            .iter()
            .map(|&r| optimizer.rule(r).name.to_string())
            .collect()
    }

    /// Human-readable label.
    pub fn label(&self, optimizer: &ruletest_optimizer::Optimizer) -> String {
        match self {
            RuleTarget::Single(r) => optimizer.rule(*r).name.to_string(),
            RuleTarget::Pair(a, b) => {
                format!("{}+{}", optimizer.rule(*a).name, optimizer.rule(*b).name)
            }
        }
    }
}

/// One generated query in a suite.
#[derive(Debug, Clone)]
pub struct SuiteQuery {
    pub tree: LogicalTree,
    pub sql: String,
    /// `RuleSet(q)` from optimizing with all rules enabled.
    pub rule_set: BTreeSet<RuleId>,
    /// `Cost(q)` — the query node cost in the bipartite graph.
    pub cost: f64,
    /// Index of the target this query was generated for (the BASELINE
    /// method validates each target with exactly its own queries).
    pub generated_for: usize,
}

/// A complete test suite: `k` dedicated queries per target, plus the
/// cross-coverage information compression exploits.
#[derive(Debug, Clone)]
pub struct TestSuite {
    pub targets: Vec<RuleTarget>,
    pub k: usize,
    pub queries: Vec<SuiteQuery>,
    /// The generation seed (`GenConfig::seed`) the suite was built from —
    /// recorded so bug reports are reproducible.
    pub seed: u64,
}

impl TestSuite {
    /// Queries that cover target `t` (the adjacency of the bipartite
    /// graph).
    pub fn covering(&self, t: usize) -> Vec<usize> {
        self.queries
            .iter()
            .enumerate()
            .filter(|(_, q)| self.targets[t].covered_by(&q.rule_set))
            .map(|(i, _)| i)
            .collect()
    }
}

/// The one suite collector: `work(ti, target)` finds one target's queries
/// (`Ok(None)` = could not be filled, the target is handed back in the
/// second list), fanned out through [`run_stage`] under the caller's
/// failure policy. Each target is an independent generation problem whose
/// seed stream depends only on `(seed, ti)`, and `ti` is always the
/// target's index in `targets`, so the queries of every kept target are
/// byte-identical at any thread count and whichever neighbours a
/// quarantine drops. Kept targets are numbered in target order and their
/// queries retagged to match.
fn collect_suite(
    fw: &Framework,
    targets: Vec<RuleTarget>,
    k: usize,
    seed: u64,
    quarantine: Option<&mut Quarantine>,
    work: impl Fn(usize, RuleTarget) -> Result<Option<Vec<SuiteQuery>>> + Sync,
) -> Result<(TestSuite, Vec<RuleTarget>)> {
    let per_target = run_stage(
        fw,
        SITE_SUITE,
        &targets,
        |&t| ItemName::of_target(fw, t),
        |ti, &t| work(ti, t),
        quarantine,
    )?;
    let mut suite = TestSuite {
        targets: Vec::new(),
        k,
        queries: Vec::new(),
        seed,
    };
    let mut unfilled = Vec::new();
    for (target, found) in targets.into_iter().zip(per_target) {
        match found {
            Some(Some(mini)) => {
                let slot = suite.targets.len();
                suite.targets.push(target);
                suite.queries.extend(mini.into_iter().map(|mut q| {
                    q.generated_for = slot;
                    q
                }));
            }
            Some(None) => unfilled.push(target),
            // Quarantined, before this run or just now: dropped.
            None => {}
        }
    }
    Ok((suite, unfilled))
}

/// Generates a test suite, dropping targets for which `k` distinct
/// untruncated queries cannot be found within the attempt budget. Returns
/// the suite plus the skipped targets — the lenient entry point used by
/// sweep harnesses where one pathological target must not stall the run.
///
/// Unlike [`generate_suite`], every target draws from seed stream 0
/// whatever its position; `tests/golden/search_digest.txt` and the
/// perfbench result digests pin the queries that produces.
pub fn generate_suite_lenient(
    fw: &Framework,
    targets: Vec<RuleTarget>,
    k: usize,
    strategy: Strategy,
    cfg: &GenConfig,
) -> Result<(TestSuite, Vec<RuleTarget>)> {
    collect_suite(fw, targets, k, cfg.seed, None, |_, target| {
        Ok(queries_for_target(fw, target, 0, k, strategy, cfg).ok())
    })
}

/// Generates a test suite: for each target, `k` distinct queries that
/// exercise it (§2.3's `TS = ∪ TS_i`). A target that cannot be filled is
/// an error.
pub fn generate_suite(
    fw: &Framework,
    targets: Vec<RuleTarget>,
    k: usize,
    strategy: Strategy,
    cfg: &GenConfig,
) -> Result<TestSuite> {
    generate_suite_with(fw, targets, k, strategy, cfg, None)
}

/// [`generate_suite`] under a failure policy: with a quarantine, a target
/// whose generation panics, times out or exhausts a budget is quarantined
/// and dropped, and an already-quarantined target is skipped without
/// touching the optimizer. An unfillable target is a generation outcome,
/// not a crash, and stays an error under both policies.
pub fn generate_suite_with(
    fw: &Framework,
    targets: Vec<RuleTarget>,
    k: usize,
    strategy: Strategy,
    cfg: &GenConfig,
    quarantine: Option<&mut Quarantine>,
) -> Result<TestSuite> {
    let strict = |ti, target| queries_for_target(fw, target, ti, k, strategy, cfg).map(Some);
    Ok(collect_suite(fw, targets, k, cfg.seed, quarantine, strict)?.0)
}

/// Finds `k` distinct untruncated queries for one target — the unit of
/// work [`collect_suite`] fans out over. `ti` feeds both the seed stream
/// and the `generated_for` tags of the returned queries.
fn queries_for_target(
    fw: &Framework,
    target: RuleTarget,
    ti: usize,
    k: usize,
    strategy: Strategy,
    cfg: &GenConfig,
) -> Result<Vec<SuiteQuery>> {
    let mut queries: Vec<SuiteQuery> = Vec::new();
    let mut attempt = 0u64;
    while queries.len() < k {
        if attempt > (k as u64) * 12 {
            return Err(Error::unsupported(format!(
                "could not find {k} distinct queries for target {ti} ({})",
                target.label(&fw.optimizer)
            )));
        }
        let sub_cfg = GenConfig {
            seed: cfg
                .seed
                .wrapping_add((ti as u64) << 32)
                .wrapping_add(attempt.wrapping_mul(0x9E37_79B9)),
            ..cfg.clone()
        };
        attempt += 1;
        let out = match &target.rules()[..] {
            [r] => fw.find_query_for_rule(*r, strategy, &sub_cfg),
            [a, b] => fw.find_query_for_pair((*a, *b), strategy, &sub_cfg),
            rs => fw.find_query_for_rules(rs, strategy, &sub_cfg),
        };
        let Ok(out) = out else {
            continue;
        };
        // Distinctness by SQL text.
        if queries.iter().any(|q| q.sql == out.sql) {
            continue;
        }
        // A truncated search is not "well behaved": Cost(q) <= Cost(q, ¬R)
        // — the §5.2/§5.3.1 invariant — only holds when exploration
        // reaches its fixpoint. Reject such queries (the paper's
        // substrate prunes heuristically too, but its invariant
        // discussion assumes well-behaved costing).
        let Searched::Fixpoint(res) = out.searched else {
            fw.telemetry.incr(Counter::GenRejectedTruncated);
            continue;
        };
        queries.push(SuiteQuery {
            tree: out.query,
            sql: out.sql,
            rule_set: res.rule_set.clone(),
            cost: res.cost,
            generated_for: ti,
        });
    }
    Ok(queries)
}

/// All singleton targets for the first `n` exploration rules.
pub fn singleton_targets(fw: &Framework, n: usize) -> Vec<RuleTarget> {
    fw.optimizer
        .exploration_rule_ids()
        .into_iter()
        .take(n)
        .map(RuleTarget::Single)
        .collect()
}

/// All pair targets over the first `n` exploration rules (nC2 pairs, §3.2).
pub fn pair_targets(fw: &Framework, n: usize) -> Vec<RuleTarget> {
    let rules: Vec<RuleId> = fw
        .optimizer
        .exploration_rule_ids()
        .into_iter()
        .take(n)
        .collect();
    let mut out = Vec::new();
    for i in 0..rules.len() {
        for j in (i + 1)..rules.len() {
            out.push(RuleTarget::Pair(rules[i], rules[j]));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::FrameworkConfig;

    fn fw() -> Framework {
        Framework::new(&FrameworkConfig::default()).unwrap()
    }

    #[test]
    fn target_cover_and_labels() {
        let fw = fw();
        let a = fw.optimizer.rule_id("InnerJoinCommute").unwrap();
        let b = fw.optimizer.rule_id("SelectMerge").unwrap();
        let single = RuleTarget::Single(a);
        let pair = RuleTarget::Pair(a, b);
        let mut rs = BTreeSet::new();
        rs.insert(a);
        assert!(single.covered_by(&rs));
        assert!(!pair.covered_by(&rs));
        rs.insert(b);
        assert!(pair.covered_by(&rs));
        assert_eq!(single.label(&fw.optimizer), "InnerJoinCommute");
        assert!(pair.label(&fw.optimizer).contains('+'));
    }

    #[test]
    fn generate_small_suite_with_cross_coverage() {
        let fw = fw();
        let targets = singleton_targets(&fw, 4);
        let suite =
            generate_suite(&fw, targets, 2, Strategy::Pattern, &GenConfig::default()).unwrap();
        assert_eq!(suite.queries.len(), 8, "k queries per target");
        for t in 0..suite.targets.len() {
            let cov = suite.covering(t);
            assert!(
                cov.len() >= 2,
                "each target covered at least by its own queries"
            );
            // The dedicated queries are among the coverers.
            let own: Vec<usize> = suite
                .queries
                .iter()
                .enumerate()
                .filter(|(_, q)| q.generated_for == t)
                .map(|(i, _)| i)
                .collect();
            for o in own {
                assert!(cov.contains(&o));
            }
        }
    }

    #[test]
    fn lenient_generation_drops_unfillable_targets() {
        let fw = fw();
        let a = fw.optimizer.rule_id("InnerJoinCommute").unwrap();
        let b = fw.optimizer.rule_id("SelectMerge").unwrap();
        // An absurd k with a one-trial budget cannot be filled; the lenient
        // generator must drop the target rather than err.
        let cfg = GenConfig {
            max_trials: 1,
            ..GenConfig::default()
        };
        let (suite, skipped) = generate_suite_lenient(
            &fw,
            vec![RuleTarget::Single(a), RuleTarget::Pair(a, b)],
            1,
            Strategy::Pattern,
            &cfg,
        )
        .unwrap();
        // The singleton fills in one trial; whether the pair fills in a
        // single trial depends on the candidate order, so just check
        // consistency of the split.
        assert_eq!(suite.targets.len() + skipped.len(), 2);
        assert!(suite.targets.contains(&RuleTarget::Single(a)));
        for (ti, _) in suite.targets.iter().enumerate() {
            assert_eq!(
                suite
                    .queries
                    .iter()
                    .filter(|q| q.generated_for == ti)
                    .count(),
                1
            );
        }
    }

    #[test]
    fn pair_targets_enumerate_n_choose_2() {
        let fw = fw();
        assert_eq!(pair_targets(&fw, 5).len(), 10);
        assert_eq!(pair_targets(&fw, 15).len(), 105);
        assert_eq!(singleton_targets(&fw, 30).len(), 30);
    }
}

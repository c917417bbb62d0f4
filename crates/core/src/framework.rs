//! The framework facade (Figure 2): test database + instrumented optimizer
//! + query generation entry points.

use crate::generate::pairs::compose_patterns;
use crate::generate::pattern::{instantiate_pattern, pad_above};
use crate::generate::random::random_tree;
use crate::generate::{GenConfig, GenOutcome, Strategy};
use ruletest_common::chaos::Chaos;
use ruletest_common::{Error, Parallelism, Result, Rng, RuleId};
use ruletest_executor::ExecConfig;
use ruletest_logical::{IdGen, LogicalTree};
use ruletest_optimizer::{Optimizer, PatternTree, RuleKind, Searched};
use ruletest_sql::to_sql;
use ruletest_storage::{tpch_database, Database, TpchConfig};
use ruletest_telemetry::{CacheSection, Counter, Event, Hist, RunReport, Stage, Telemetry};
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Instant;

/// Framework construction parameters.
#[derive(Debug, Clone, Default)]
pub struct FrameworkConfig {
    /// The fixed test database (§2.3 assumes one is given).
    pub db: TpchConfig,
    /// Worker threads + master seed for the parallel campaign stages
    /// (suite generation, graph construction, correctness execution).
    /// Results are byte-identical at any thread count.
    pub parallelism: Parallelism,
    /// Campaign telemetry (disabled by default — recording sites become
    /// near-no-ops and results stay byte-identical to an uninstrumented
    /// build).
    pub telemetry: Telemetry,
    /// The campaign's fault injector (no plan by default). This is the one
    /// place a campaign sets it: the framework hands it to its optimizer
    /// and to every execution it runs, so the campaign's hits form one
    /// sequence.
    pub chaos: Chaos,
}

/// How the test database was generated — recorded so bug reports carry a
/// full repro (the result diff depends on the data, not just the SQL).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DbProfile {
    /// Seed the TPC-H (or other) generator ran with.
    pub db_seed: u64,
    /// Integer scale factor relative to the default table sizes.
    pub scale: usize,
}

impl Default for DbProfile {
    fn default() -> Self {
        DbProfile {
            db_seed: TpchConfig::default().seed,
            scale: 1,
        }
    }
}

/// The rule-testing framework: owns the test database and the instrumented
/// optimizer, and exposes the generation/compression/correctness pipeline.
pub struct Framework {
    pub db: Arc<Database>,
    pub optimizer: Arc<Optimizer>,
    /// Campaign parallelism; see [`FrameworkConfig::parallelism`].
    pub parallelism: Parallelism,
    /// Campaign telemetry; see [`FrameworkConfig::telemetry`].
    pub telemetry: Telemetry,
    /// Provenance of `db`; see [`DbProfile`].
    pub db_profile: DbProfile,
}

impl Framework {
    /// Builds the framework over a freshly generated TPC-H test database.
    pub fn new(config: &FrameworkConfig) -> Result<Framework> {
        let db = Arc::new(tpch_database(&config.db)?);
        let optimizer = Arc::new(Optimizer::new(db.clone()).with_chaos(config.chaos.clone()));
        Ok(Framework {
            db,
            optimizer,
            parallelism: config.parallelism,
            telemetry: Telemetry::disabled(),
            db_profile: DbProfile {
                db_seed: config.db.seed,
                scale: config.db.scale_factor(),
            },
        }
        .with_telemetry(config.telemetry.clone()))
    }

    /// Builds the framework around an existing (possibly fault-injected)
    /// optimizer.
    pub fn with_optimizer(optimizer: Arc<Optimizer>) -> Framework {
        Framework {
            db: optimizer.database().clone(),
            optimizer,
            parallelism: Parallelism::default(),
            telemetry: Telemetry::disabled(),
            db_profile: DbProfile::default(),
        }
    }

    /// Builds the framework over an arbitrary test database — the paper's
    /// techniques "can be invoked against any database" (§2.3); see the
    /// star-schema run in `tests/other_schema.rs`.
    pub fn over_database(db: Arc<Database>) -> Framework {
        let optimizer = Arc::new(Optimizer::new(db.clone()));
        Framework {
            db,
            optimizer,
            parallelism: Parallelism::default(),
            telemetry: Telemetry::disabled(),
            db_profile: DbProfile::default(),
        }
    }

    /// Replaces the parallelism configuration (builder style).
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> Framework {
        self.parallelism = parallelism;
        self
    }

    /// Records the database provenance (builder style) — needed by the
    /// `with_optimizer`/`over_database` constructors, which receive a
    /// ready-made database and cannot infer how it was generated.
    pub fn with_db_profile(mut self, profile: DbProfile) -> Framework {
        self.db_profile = profile;
        self
    }

    /// Installs campaign telemetry (builder style): the handle is shared
    /// with the optimizer, and the campaign's parallel stages record their
    /// pool statistics into it.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Framework {
        if telemetry.is_enabled() {
            self.optimizer.attach_telemetry(telemetry.clone());
        }
        self.telemetry = telemetry;
        self
    }

    /// Rule names indexed by `RuleId`, for report labeling.
    pub fn rule_names(&self) -> Vec<String> {
        (0..self.optimizer.num_rules())
            .map(|i| self.optimizer.rule(RuleId(i as u16)).name.to_string())
            .collect()
    }

    /// The content fingerprint guarding this campaign's persistent cache
    /// and checkpoints: schema catalog, rule catalog, database seed and
    /// scale. A run whose fingerprint differs must never consume another
    /// run's cached entries or checkpoints.
    pub fn campaign_fingerprint(&self) -> u64 {
        ruletest_optimizer::campaign_fingerprint(
            &self.db.catalog,
            (0..self.optimizer.num_rules()).map(|i| self.optimizer.rule(RuleId(i as u16))),
            self.db_profile.db_seed,
            self.db_profile.scale as u64,
        )
    }

    /// Rolls the campaign so far into one aggregate [`RunReport`]: the
    /// telemetry's sections plus the cache section this framework's
    /// optimizer owns. `wall_seconds` is left 0 for the caller to fill.
    pub fn run_report(&self) -> RunReport {
        let mut report = self.telemetry.run_report(&self.rule_names());
        let cs = self.optimizer.cache_stats();
        report.cache = CacheSection {
            hits: cs.hits,
            misses: cs.misses,
            evictions: cs.evictions,
        };
        report
    }

    /// `config` carrying the campaign's fault injector, for an execution
    /// the framework runs: its `exec.batch` hits continue the sequence
    /// the optimizer's sites count into.
    pub fn exec_config(&self, config: &ExecConfig) -> ExecConfig {
        ExecConfig {
            chaos: self.optimizer.chaos().clone(),
            ..config.clone()
        }
    }

    /// Generates a SQL query that exercises `rule` (§3.1). The efficiency
    /// metric is [`GenOutcome::trials`].
    pub fn find_query_for_rule(
        &self,
        rule: RuleId,
        strategy: Strategy,
        cfg: &GenConfig,
    ) -> Result<GenOutcome> {
        self.find_query_for_rules(&[rule], strategy, cfg)
    }

    /// Generates a SQL query that exercises both rules of a pair (§3.2).
    pub fn find_query_for_pair(
        &self,
        pair: (RuleId, RuleId),
        strategy: Strategy,
        cfg: &GenConfig,
    ) -> Result<GenOutcome> {
        self.find_query_for_rules(&[pair.0, pair.1], strategy, cfg)
    }

    /// Generates a SQL query whose optimization exercises every rule in
    /// `targets`.
    pub fn find_query_for_rules(
        &self,
        targets: &[RuleId],
        strategy: Strategy,
        cfg: &GenConfig,
    ) -> Result<GenOutcome> {
        // One span per generation problem: this method runs inside the
        // worker-pool leaf closure, so the span tree's shape is independent
        // of the thread count.
        let _span = self.telemetry.span(Stage::Generation);
        let start = Instant::now();
        if targets.is_empty() {
            return Err(Error::unsupported(
                "generation needs at least one target rule",
            ));
        }
        let mut rng = Rng::new(cfg.seed);
        // PATTERN: the candidate composite patterns, smallest first.
        let candidates: Vec<PatternTree> = match (strategy, targets) {
            (Strategy::Random, _) => vec![],
            (Strategy::Pattern, [single]) => vec![self.optimizer.rule_pattern(*single).clone()],
            (Strategy::Pattern, [a, b]) => {
                // Rule dependencies (§3) mean one rule's pattern alone often
                // suffices for a pair — its firing exposes the other rule's
                // pattern during exploration — and such queries are smaller
                // than any composite. Try the individual patterns first,
                // then the composites.
                let mut cands = vec![
                    self.optimizer.rule_pattern(*a).clone(),
                    self.optimizer.rule_pattern(*b).clone(),
                ];
                cands.extend(compose_patterns(
                    self.optimizer.rule_pattern(*a),
                    self.optimizer.rule_pattern(*b),
                ));
                cands
            }
            (Strategy::Pattern, many) => {
                // Fold composition left-to-right for larger sets (§7).
                let mut acc = vec![self.optimizer.rule_pattern(many[0]).clone()];
                for r in &many[1..] {
                    let mut next = Vec::new();
                    for a in &acc {
                        next.extend(compose_patterns(a, self.optimizer.rule_pattern(*r)));
                    }
                    next.sort_by_key(PatternTree::concrete_ops);
                    next.truncate(8);
                    acc = next;
                }
                acc
            }
        };
        // Composition can come up empty for incompatible pattern shapes;
        // without this guard the round-robin `% candidates.len()` below
        // divides by zero.
        if matches!(strategy, Strategy::Pattern) && candidates.is_empty() {
            return Err(Error::unsupported(format!(
                "no composite pattern candidates for {:?}",
                targets
            )));
        }

        // Every suite rejects a truncated search (§5.2), so when the hit
        // test reads only exploration rules the search stops at the memo
        // cap without extracting a plan. Implementation rules are
        // exercised only by extraction: their targets search in full.
        let explore_only = targets
            .iter()
            .all(|&t| self.optimizer.rule(t).kind == RuleKind::Exploration);
        let covers = |rules: &BTreeSet<RuleId>| targets.iter().all(|t| rules.contains(t));
        let tel = &self.telemetry;
        for trial in 1..=cfg.max_trials {
            tel.incr(Counter::GenTrials);
            let mut ids = IdGen::new();
            let built = match strategy {
                Strategy::Random => Some(random_tree(&self.db, &mut rng, &mut ids, cfg.target_ops)),
                Strategy::Pattern => {
                    // Sweep candidates round-robin, smallest first.
                    let pattern = &candidates[(trial - 1) % candidates.len()];
                    instantiate_pattern(&self.db, &mut rng, &mut ids, pattern)
                        .map(|b| pad_above(&self.db, &mut rng, &mut ids, b, cfg.pad_ops))
                }
            };
            let Some(built) = built else {
                continue; // counted as a trial: an instantiation attempt failed
            };
            let hit = if explore_only {
                let searched = self.optimizer.optimize_fixpoint_cached(&built.tree);
                searched.ok().filter(|s| covers(s.rule_set()))
            } else {
                let res = self.optimizer.optimize_cached(&built.tree);
                res.ok()
                    .filter(|r| covers(&r.rule_set))
                    .map(|r| Searched::of(r, &self.optimizer))
            };
            let Some(searched) = hit else {
                continue;
            };
            let sql = to_sql(&self.db.catalog, &built.tree)?;
            let ops = built.tree.op_count();
            tel.incr(Counter::GenHits);
            tel.observe(Hist::GenTrialsToHit, trial as u64);
            tel.event(|| Event::GenOutcome {
                rule: targets[0].0,
                trials: trial as u64,
                ops: ops as u32,
                found: true,
            });
            return Ok(GenOutcome {
                query: built.tree,
                sql,
                trials: trial,
                elapsed: start.elapsed(),
                ops,
                searched,
            });
        }
        tel.incr(Counter::GenFailures);
        tel.event(|| Event::GenOutcome {
            rule: targets[0].0,
            trials: cfg.max_trials as u64,
            ops: 0,
            found: false,
        });
        Err(Error::unsupported(format!(
            "no query exercising {:?} found in {} trials ({})",
            targets
                .iter()
                .map(|t| self.optimizer.rule(*t).name)
                .collect::<Vec<_>>(),
            cfg.max_trials,
            strategy.name()
        )))
    }

    /// Convenience: optimize a tree with all rules enabled.
    pub fn optimize(&self, tree: &LogicalTree) -> Result<ruletest_optimizer::OptimizeResult> {
        self.optimizer.optimize(tree)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn framework() -> Framework {
        Framework::new(&FrameworkConfig::default()).unwrap()
    }

    #[test]
    fn pattern_generation_finds_join_commute_quickly() {
        let fw = framework();
        let rule = fw.optimizer.rule_id("InnerJoinCommute").unwrap();
        let out = fw
            .find_query_for_rule(rule, Strategy::Pattern, &GenConfig::default())
            .unwrap();
        assert!(out.trials <= 3, "took {} trials", out.trials);
        assert!(out.sql.contains("JOIN") || out.sql.contains("WHERE"));
    }

    #[test]
    fn random_generation_eventually_finds_common_rules() {
        let fw = framework();
        let rule = fw.optimizer.rule_id("SelectPushBelowInnerJoin").unwrap();
        let out = fw
            .find_query_for_rule(rule, Strategy::Random, &GenConfig::default())
            .unwrap();
        assert!(out.trials >= 1);
    }

    #[test]
    fn pattern_beats_random_on_a_rare_rule() {
        let fw = framework();
        let rule = fw.optimizer.rule_id("AntiJoinToLojFilter").unwrap();
        let cfg = GenConfig {
            max_trials: 2000,
            ..GenConfig::default()
        };
        let pat = fw
            .find_query_for_rule(rule, Strategy::Pattern, &cfg)
            .unwrap();
        let rnd = fw
            .find_query_for_rule(rule, Strategy::Random, &cfg)
            .unwrap();
        assert!(
            pat.trials < rnd.trials,
            "pattern {} vs random {}",
            pat.trials,
            rnd.trials
        );
    }

    #[test]
    fn pair_generation_via_composition() {
        let fw = framework();
        let a = fw.optimizer.rule_id("InnerJoinCommute").unwrap();
        let b = fw.optimizer.rule_id("SelectMerge").unwrap();
        let out = fw
            .find_query_for_pair((a, b), Strategy::Pattern, &GenConfig::default())
            .unwrap();
        let res = fw.optimize(&out.query).unwrap();
        assert!(res.rule_set.contains(&a) && res.rule_set.contains(&b));
    }

    #[test]
    fn padded_queries_are_bigger() {
        let fw = framework();
        let rule = fw.optimizer.rule_id("SelectMerge").unwrap();
        let small = fw
            .find_query_for_rule(rule, Strategy::Pattern, &GenConfig::default())
            .unwrap();
        let cfg = GenConfig {
            pad_ops: 6,
            seed: 7,
            ..GenConfig::default()
        };
        let big = fw
            .find_query_for_rule(rule, Strategy::Pattern, &cfg)
            .unwrap();
        assert!(big.ops > small.ops);
    }

    #[test]
    fn empty_target_list_is_a_clean_error() {
        // Regression: an empty composite-candidate list used to reach the
        // round-robin `trial % candidates.len()` and panic with a
        // mod-by-zero instead of reporting an unsupported request.
        let fw = framework();
        for strategy in [Strategy::Pattern, Strategy::Random] {
            let r = fw.find_query_for_rules(&[], strategy, &GenConfig::default());
            assert!(matches!(r, Err(Error::Unsupported(_))), "{strategy:?}");
        }
    }

    #[test]
    fn exhaustion_is_a_clean_error() {
        let fw = framework();
        let rule = fw.optimizer.rule_id("AntiJoinToLojFilter").unwrap();
        let cfg = GenConfig {
            max_trials: 1,
            seed: 3,
            ..GenConfig::default()
        };
        // One random trial essentially never hits the anti-join rule.
        let r = fw.find_query_for_rule(rule, Strategy::Random, &cfg);
        assert!(matches!(r, Err(Error::Unsupported(_))));
    }
}

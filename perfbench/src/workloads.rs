//! The five workloads. Each one is prepared once (set-up) and then run
//! many times; a run times its own measured region, so that the untimed
//! work a traced run adds afterwards (report snapshots, quality probes)
//! stays out of every wall-clock sample.
//!
//! `--seed` generates the test database (`TpchConfig::seed`) of four
//! workloads and is unused by `mutant_sweep`; [`seed_use`] says so in every
//! run's output. The optimizer costs plans from row counts only and query
//! generation reads only the catalog, so another seed gives other table
//! contents, query results and digests but the same optimizer search: runs
//! on different seeds repeat one search, they do not sample searches. The
//! generation seed is a fixed part of each campaign shape: it moves a
//! campaign's wall time by tens of percent (measured 3.5 s to 6.3 s over
//! six seeds on `singleton_cold`), which no regression bound survives.

use crate::harness::SpanLog;
use ruletest_common::{diff_multisets, Error, Parallelism, Result, Row};
use ruletest_core::compress::{baseline, smc, topk};
use ruletest_core::correctness::execute_solution;
use ruletest_core::suite::EdgeOracle;
use ruletest_core::{
    build_graph_pruned, final_persist, generate_suite, generate_suite_lenient, pair_targets,
    run_mutation_campaign, singleton_targets, BipartiteGraph, CorrectnessReport, DbProfile,
    Framework, GenConfig, Instance, MutationConfig, Solution, Strategy, TestSuite, Verdict,
};
use ruletest_executor::{execute_profiled, reference_eval, ExecConfig};
use ruletest_logical::LogicalTree;
use ruletest_optimizer::{Fnv64, Optimizer, OptimizerConfig, SnapshotStore};
use ruletest_sql::parse_sql;
use ruletest_storage::{tpch_database, Database, TpchConfig};
use ruletest_telemetry::{RunReport, Telemetry};
use std::cell::OnceCell;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// The workload names, in the order BENCHMARK.json lists them.
pub const NAMES: [&str; 5] = [
    "singleton_cold",
    "pair_cold",
    "cache_warm",
    "sql_differential",
    "mutant_sweep",
];

/// `GenConfig::seed` of the three campaign workloads (the `repro` default).
const GEN_SEED: u64 = 0xF1_60_5E;

/// What `--seed` varies in the named workload, for the run's output.
pub fn seed_use(workload: &str) -> &'static str {
    match workload {
        "mutant_sweep" => {
            "is not used: the mutants' verdicts are pinned on the default database, \
             so every seed measures the same inputs"
        }
        "sql_differential" => {
            "generates the test database: other rows and results, the same corpus and plans"
        }
        _ => {
            "generates the test database: other rows and results; the generation seed is \
             fixed (0xF1605E), so the optimizer search is the same for every seed"
        }
    }
}

/// Everything a workload needs from the run that hosts it.
pub struct Env {
    /// `--seed`: the test database's generator seed (see [`seed_use`]).
    pub seed: u64,
    /// `--smoke`: the same code on shrunken shapes, for the test suite.
    pub smoke: bool,
    /// Scratch directory for the cache snapshot and the trace file.
    pub out_dir: PathBuf,
    pub spans: SpanLog,
}

impl Env {
    fn database(&self, scale: usize) -> Result<Arc<Database>> {
        Ok(Arc::new(tpch_database(&TpchConfig::scaled(
            self.seed, scale,
        ))?))
    }
}

/// What one run of a workload produced.
pub struct Outcome {
    /// Wall seconds of the measured region.
    pub wall_s: f64,
    /// Digest of every result the run computed; equal on every run of one
    /// workload and seed.
    pub digest: u64,
    /// Operations attempted and failed (see each workload).
    pub attempted: u64,
    pub failed: u64,
    /// A broken workload invariant (not an operation failure): the run's
    /// results cannot be trusted.
    pub violation: Option<String>,
    /// Per-layer metrics only this workload can supply.
    pub layers: Layers,
    /// More of them, which cost optimizer calls or disk reads to compute:
    /// the traced run asks for them once, outside every measured region.
    pub deferred_layers: Option<Box<dyn FnOnce() -> Result<Layers>>>,
    /// The telemetry report of a traced run, snapshotted when the
    /// measured region ended.
    pub report: Option<RunReport>,
}

/// `(metric name, value)` pairs.
pub type Layers = Vec<(&'static str, f64)>;

pub trait Workload {
    /// Runs the workload once on `threads` workers; `traced` attaches
    /// `Telemetry::metrics_only()` and fills `Outcome::report`.
    fn run(&self, env: &Env, threads: usize, traced: bool) -> Result<Outcome>;
}

/// Builds the named workload's inputs and program state (everything of
/// set-up except the warm-up run).
pub fn prepare(name: &str, env: &Env) -> Result<Box<dyn Workload>> {
    Ok(match name {
        "singleton_cold" => Box::new(Campaign::new(env, false)?),
        "pair_cold" => Box::new(Campaign::new(env, true)?),
        "cache_warm" => Box::new(Campaign::warm(env)?),
        "sql_differential" => Box::new(SqlDifferential::new(env)?),
        "mutant_sweep" => Box::new(MutantSweep::new(env)?),
        other => {
            return Err(Error::unsupported(format!(
                "unknown workload '{other}' (known: {})",
                NAMES.join(", ")
            )))
        }
    })
}

fn telemetry(traced: bool) -> Telemetry {
    if traced {
        Telemetry::metrics_only()
    } else {
        Telemetry::disabled()
    }
}

fn io_err(what: &str, e: std::io::Error) -> Error {
    Error::unsupported(format!("{what}: {e}"))
}

// ---------------------------------------------------------------------
// singleton_cold, pair_cold, cache_warm: one paper-shaped campaign.

/// Generate k queries per target, build the pruned bipartite graph,
/// compress, execute `Plan(q)` vs `Plan(q, ¬R)` on the TOPK solution.
/// Operations are the `targets × k` rule-target validations; one fails
/// when generation drops its target or it ends `Bug`, `Expensive` or
/// `Unsupported`.
struct Campaign {
    db: Arc<Database>,
    profile: DbProfile,
    pairs: bool,
    /// Exploration rules the targets are drawn from.
    rules: usize,
    k: usize,
    /// `cache_warm`: the snapshot directory the cold set-up run filled,
    /// and that run's digest.
    warm: Option<(PathBuf, u64)>,
}

impl Campaign {
    fn new(env: &Env, pairs: bool) -> Result<Campaign> {
        let (rules, k) = match (pairs, env.smoke) {
            (false, false) => (30, 10),
            (true, false) => (8, 5),
            (false, true) => (6, 2),
            (true, true) => (3, 2),
        };
        Ok(Campaign {
            db: env.database(1)?,
            profile: DbProfile {
                db_seed: env.seed,
                scale: 1,
            },
            pairs,
            rules,
            k,
            warm: None,
        })
    }

    /// `cache_warm` set-up: the `singleton_cold` campaign once, cold, with
    /// a snapshot store on a fresh directory, saved at the end.
    fn warm(env: &Env) -> Result<Campaign> {
        let dir = env
            .out_dir
            .join(format!("cache_warm.{}", std::process::id()));
        // A leftover directory of a killed run with the same pid would
        // turn the cold run warm.
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| io_err("creating the snapshot dir", e))?;
        let mut campaign = Campaign::new(env, false)?;
        let cold = campaign.run_with_store(env, 1, false, Some(&dir))?;
        campaign.warm = Some((dir, cold.digest));
        Ok(campaign)
    }

    /// The measured region: everything a user of the campaign waits for.
    fn stages(
        &self,
        env: &Env,
        threads: usize,
        traced: bool,
        store_dir: Option<&Path>,
    ) -> Result<Stages> {
        let spans = &env.spans;
        let fw = spans.scope("core.framework_new", || {
            Framework::over_database(self.db.clone())
                .with_parallelism(Parallelism {
                    threads,
                    seed: env.seed,
                })
                .with_db_profile(self.profile)
                .with_telemetry(telemetry(traced))
        });
        if let Some(dir) = store_dir {
            let store = spans
                .scope("optimizer.snapshot_open", || {
                    SnapshotStore::open(dir, fw.campaign_fingerprint(), None)
                })
                .map_err(|e| io_err("opening the snapshot store", e))?;
            fw.optimizer.attach_snapshot_store(Arc::new(store));
        }
        let cfg = GenConfig {
            seed: GEN_SEED,
            pad_ops: 1,
            max_trials: 60,
            ..GenConfig::default()
        };
        let (suite, dropped) = spans.scope("core.generate", || {
            if self.pairs {
                let targets = pair_targets(&fw, self.rules);
                generate_suite_lenient(&fw, targets, self.k, Strategy::Pattern, &cfg)
            } else {
                let targets = singleton_targets(&fw, self.rules);
                generate_suite(&fw, targets, self.k, Strategy::Pattern, &cfg).map(|s| (s, vec![]))
            }
        })?;
        let graph = spans.scope("core.graph", || build_graph_pruned(&fw, &suite))?;
        let (inst, solutions) = spans.scope("core.compress", || {
            let inst = Instance::from_graph(&graph);
            let solutions = [baseline(&inst)?, smc(&inst)?, topk(&inst)?];
            Ok::<_, Error>((inst, solutions))
        })?;
        let report = spans.scope("core.correctness", || {
            execute_solution(&fw, &suite, &inst, &solutions[2], &ExecConfig::default())
        })?;
        if store_dir.is_some() {
            spans.scope("optimizer.snapshot_save", || final_persist(&fw))?;
        }
        Ok(Stages {
            fw,
            suite,
            dropped: dropped.len(),
            graph,
            inst,
            solutions,
            report,
        })
    }

    fn run_with_store(
        &self,
        env: &Env,
        threads: usize,
        traced: bool,
        store_dir: Option<&Path>,
    ) -> Result<Outcome> {
        let (stages, wall_s) = timed(env, || self.stages(env, threads, traced, store_dir));
        let Stages {
            fw,
            suite,
            dropped,
            graph,
            inst,
            solutions,
            report,
        } = stages?;
        let run_report = traced.then(|| fw.run_report());

        let mut digest = Fnv64::new();
        for q in &suite.queries {
            digest.write_str(&q.sql);
        }
        let mut edges: Vec<_> = graph
            .edges
            .iter()
            .map(|(&e, &c)| (e, c.to_bits()))
            .collect();
        edges.sort_unstable();
        for ((t, q), bits) in edges {
            digest
                .write_u64(t as u64)
                .write_u64(q as u64)
                .write_u64(bits);
        }
        for n in [
            report.validations,
            report.executions,
            report.skipped_identical,
            report.skipped_expensive,
            report.skipped_unsupported,
            report.bugs.len(),
        ] {
            digest.write_u64(n as u64);
        }
        digest.write_u64(report.estimated_cost.to_bits());

        let requested = suite.targets.len() + dropped;
        let failed = dropped * self.k
            + report.bugs.len()
            + report.skipped_expensive
            + report.skipped_unsupported
            + report.skipped_quarantined;
        let invocations = fw.optimizer.invocation_count();
        let mut violation = None;
        if let Some((_, cold_digest)) = &self.warm {
            if invocations != 0 {
                violation = Some(format!("warm run computed {invocations} optimizations"));
            } else if digest.finish() != *cold_digest {
                violation = Some("warm run's results differ from the cold run's".into());
            }
        }
        let layers = vec![
            ("executor.executions", report.executions as f64),
            // Physical computes: a warm run's telemetry replays the cold
            // run's invocation counter, the optimizer's own count does not.
            ("optimizer.invocations", invocations as f64),
        ];
        let store_dir = store_dir.map(Path::to_path_buf);
        let db = self.db.clone();
        let quality = move || {
            let mut layers = compression_quality(&fw, &suite, &inst, &solutions)?;
            let unparsed = suite
                .queries
                .iter()
                .filter(|q| parse_sql(&db.catalog, &q.sql).is_err())
                .count();
            layers.push(("sql.roundtrip_failures", unparsed as f64));
            if let Some(dir) = store_dir {
                layers.push(("optimizer.snapshot_bytes", dir_bytes(&dir)? as f64));
                let load_s = snapshot_load_seconds(&dir, fw.campaign_fingerprint())
                    .map_err(|e| io_err("probing the snapshot store", e))?;
                layers.push(("optimizer.snapshot_load_s", load_s));
            }
            Ok(layers)
        };
        Ok(Outcome {
            wall_s,
            digest: digest.finish(),
            attempted: (requested * self.k) as u64,
            failed: failed as u64,
            violation,
            layers,
            deferred_layers: traced.then(|| Box::new(quality) as _),
            report: run_report,
        })
    }
}

impl Workload for Campaign {
    fn run(&self, env: &Env, threads: usize, traced: bool) -> Result<Outcome> {
        let dir = self.warm.as_ref().map(|(dir, _)| dir.as_path());
        self.run_with_store(env, threads, traced, dir)
    }
}

impl Drop for Campaign {
    fn drop(&mut self) {
        if let Some((dir, _)) = &self.warm {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// What the measured region of a campaign leaves behind.
struct Stages {
    fw: Framework,
    suite: TestSuite,
    /// Targets generation dropped (`pair_cold` only).
    dropped: usize,
    graph: BipartiteGraph,
    inst: Instance,
    /// BASELINE, SMC, TOPK.
    solutions: [Solution; 3],
    report: CorrectnessReport,
}

/// Runs a workload's measured region inside the `iteration` span and
/// returns its wall seconds.
fn timed<R>(env: &Env, region: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let result = env.spans.scope("iteration", region);
    (result, start.elapsed().as_secs_f64())
}

/// Seconds a fresh store handle takes to read and decode the snapshot
/// under `dir`. The store loads shards lazily and `save` loads every shard
/// before writing, so this is a first `save` minus a second one.
fn snapshot_load_seconds(dir: &Path, fingerprint: u64) -> std::io::Result<f64> {
    let store = SnapshotStore::open(dir, fingerprint, None)?;
    let start = Instant::now();
    store.save()?;
    let load_and_save = start.elapsed();
    let start = Instant::now();
    store.save()?;
    Ok(load_and_save.saturating_sub(start.elapsed()).as_secs_f64())
}

/// Figures 11–13: the estimated cost of the three compressed suites. The
/// pruned graph holds only the edges TOPK can use, so the edges BASELINE
/// and SMC picked are costed here, on demand.
fn compression_quality(
    fw: &Framework,
    suite: &TestSuite,
    inst: &Instance,
    [base_sol, smc_sol, topk_sol]: &[Solution; 3],
) -> Result<Layers> {
    let oracle = EdgeOracle::new(fw, suite);
    let cost = |sol: &Solution| -> Result<f64> {
        let mut total: f64 = sol.used_queries().iter().map(|&q| inst.node_cost[q]).sum();
        for (t, qs) in sol.assignment.iter().enumerate() {
            for &q in qs {
                total += oracle.edge_cost(t, q)?;
            }
        }
        Ok(total)
    };
    let (b, s, t) = (cost(base_sol)?, cost(smc_sol)?, cost(topk_sol)?);
    Ok(vec![
        ("core.baseline_cost", b),
        ("core.smc_cost", s),
        ("core.topk_cost", t),
        ("core.topk_over_baseline", t / b),
    ])
}

fn dir_bytes(dir: &Path) -> Result<u64> {
    let mut total = 0;
    let entries = std::fs::read_dir(dir).map_err(|e| io_err("listing the snapshot dir", e))?;
    for entry in entries {
        let path = entry
            .map_err(|e| io_err("listing the snapshot dir", e))?
            .path();
        let meta = std::fs::metadata(&path).map_err(|e| io_err("sizing the snapshot", e))?;
        total += if meta.is_dir() {
            dir_bytes(&path)?
        } else {
            meta.len()
        };
    }
    Ok(total)
}

// ---------------------------------------------------------------------
// sql_differential: a fixed corpus through parser, optimizer, executor.

/// The corpus, one statement per query (see the comments in the file).
const SQL_CORPUS: &str = include_str!("../workloads/sql_differential.sql");

/// The corpus statements, comments stripped.
pub fn sql_corpus() -> Vec<String> {
    let code: Vec<&str> = SQL_CORPUS
        .lines()
        .filter(|l| !l.trim_start().starts_with("--"))
        .collect();
    code.join("\n")
        .split(';')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(str::to_string)
        .collect()
}

/// Order-independent hash of a result multiset.
fn multiset_hash(rows: &[Row]) -> u64 {
    use std::hash::{Hash, Hasher};
    /// `Fnv64` behind the `Hasher` trait `Value: Hash` writes to.
    struct StableHasher(Fnv64);
    impl Hasher for StableHasher {
        fn finish(&self) -> u64 {
            self.0.finish()
        }
        fn write(&mut self, bytes: &[u8]) {
            self.0.write(bytes);
        }
    }
    rows.iter().fold(rows.len() as u64, |acc, row| {
        let mut h = StableHasher(Fnv64::new());
        row.hash(&mut h);
        acc.wrapping_add(h.finish())
    })
}

/// Runs the corpus through `execute` and through the independent
/// `reference_eval` on a scale-4 database; returns the seconds the
/// reference took and the number of queries whose results differ.
pub fn reference_check(env: &Env) -> Result<(f64, u64)> {
    let db = env.database(4)?;
    let opt = Optimizer::new(db.clone());
    let (mut seconds, mut mismatches) = (0.0, 0);
    for sql in sql_corpus() {
        let tree = parse_sql(&db.catalog, &sql)?;
        let rows = ruletest_executor::execute(&db, &opt.optimize(&tree)?.plan)?;
        let t = Instant::now();
        let expected = reference_eval(&db, &tree, &ExecConfig::default())?;
        seconds += t.elapsed().as_secs_f64();
        if !diff_multisets(&expected, &rows).is_empty() {
            mismatches += 1;
        }
    }
    Ok((seconds, mismatches))
}

/// Per query: parse, optimize, execute; then for every exploration rule
/// in `RuleSet(q)` optimize with the rule disabled and, unless the plan is
/// unchanged, execute it and compare the result multisets. One optimizer
/// lives across runs, so after the warm-up every optimization is a cache
/// hit and the executor does the work. Operations are the plan pairs
/// compared; one fails on a result difference or an execution error.
struct SqlDifferential {
    db: Arc<Database>,
    statements: Vec<String>,
    plain: Optimizer,
    /// The traced runs' optimizer: telemetry attaches once per optimizer,
    /// so it cannot be the plain one.
    traced: OnceCell<(Optimizer, Telemetry)>,
}

impl SqlDifferential {
    fn new(env: &Env) -> Result<SqlDifferential> {
        let scale = if env.smoke { 8 } else { 256 };
        let db = env.database(scale)?;
        let statements = sql_corpus();
        let plain = Optimizer::new(db.clone());
        let explore: BTreeSet<_> = plain.exploration_rule_ids().into_iter().collect();
        for sql in &statements {
            let tree = parse_sql(&db.catalog, sql)?;
            if plain.optimize(&tree)?.rule_set.is_disjoint(&explore) {
                return Err(Error::invalid(format!(
                    "corpus statement exercises no exploration rule: {sql}"
                )));
            }
        }
        let (_, mismatches) = reference_check(env)?;
        if mismatches > 0 {
            return Err(Error::internal(format!(
                "{mismatches} corpus queries differ between execute and reference_eval"
            )));
        }
        Ok(SqlDifferential {
            db,
            statements,
            plain,
            traced: OnceCell::new(),
        })
    }

    fn pass(&self, env: &Env, opt: &Optimizer, tel: &Telemetry) -> Result<Outcome> {
        let spans = &env.spans;
        let explore = opt.exploration_rule_ids();
        let exec_config = ExecConfig::default();
        let mut digest = Fnv64::new();
        let (mut attempted, mut failed, mut executions, mut rows_out) = (0u64, 0u64, 0u64, 0u64);
        let (result, wall_s) = timed(env, || {
            for sql in &self.statements {
                let tree: LogicalTree =
                    spans.scope("sql.parse", || parse_sql(&self.db.catalog, sql))?;
                let base = spans.scope("optimizer.optimize", || opt.optimize_cached(&tree))?;
                let expected = spans.scope("executor.execute", || {
                    execute_profiled(&self.db, &base.plan, &exec_config, tel)
                })?;
                executions += 1;
                rows_out += expected.len() as u64;
                digest.write_u64(multiset_hash(&expected));
                for rule in base.rule_set.iter().filter(|r| explore.contains(r)) {
                    let masked = spans.scope("optimizer.optimize", || {
                        opt.optimize_with_cached(&tree, &OptimizerConfig::disabling(&[*rule]))
                    })?;
                    if base.plan.same_shape(&masked.plan) {
                        continue;
                    }
                    attempted += 1;
                    let actual = spans.scope("executor.execute", || {
                        execute_profiled(&self.db, &masked.plan, &exec_config, tel)
                    });
                    executions += 1;
                    match actual {
                        Ok(actual) => {
                            rows_out += actual.len() as u64;
                            let same = spans.scope("common.multiset_diff", || {
                                diff_multisets(&expected, &actual).is_empty()
                            });
                            failed += u64::from(!same);
                        }
                        Err(_) => failed += 1,
                    }
                }
            }
            Ok::<_, Error>(())
        });
        result?;
        Ok(Outcome {
            wall_s,
            digest: digest.finish(),
            attempted,
            failed,
            violation: None,
            layers: vec![
                ("executor.executions", executions as f64),
                ("executor.rows_out", rows_out as f64),
            ],
            deferred_layers: None,
            report: None,
        })
    }
}

impl Workload for SqlDifferential {
    fn run(&self, env: &Env, _threads: usize, traced: bool) -> Result<Outcome> {
        if !traced {
            return self.pass(env, &self.plain, &Telemetry::disabled());
        }
        if self.traced.get().is_none() {
            let tel = Telemetry::metrics_only();
            let opt = Optimizer::new(self.db.clone());
            opt.attach_telemetry(tel.clone());
            // Warm its cache the way set-up warmed the plain one's.
            env.spans.suspended(|| self.pass(env, &opt, &tel))?;
            let _ = self.traced.set((opt, tel));
        }
        let (opt, tel) = self.traced.get().expect("initialised above");
        let mut outcome = self.pass(env, opt, tel)?;
        let names: Vec<String> = (0..opt.num_rules())
            .map(|i| opt.rule(ruletest_common::RuleId(i as u16)).name.to_string())
            .collect();
        let mut report = tel.run_report(&names);
        let stats = opt.cache_stats();
        report.cache.hits = stats.hits;
        report.cache.misses = stats.misses;
        outcome.report = Some(report);
        Ok(outcome)
    }
}

// ---------------------------------------------------------------------
// mutant_sweep: the full mutation campaign.

/// `run_mutation_campaign` over the mutant catalog: one short-lived
/// optimizer per mutant, lint, prover and crash probes, a differential
/// sweep each. Operations are the mutant verdicts; one fails when it
/// differs from the mutant's pinned expectation.
struct MutantSweep {
    db: Arc<Database>,
    config: MutationConfig,
}

impl MutantSweep {
    fn new(env: &Env) -> Result<MutantSweep> {
        // The mutants' expected verdicts are pinned on the default
        // database (a kill needs data that exposes the bug), so this
        // workload's inputs are fixed and `--seed` changes nothing.
        let db = tpch_database(&TpchConfig::default())?;
        Ok(MutantSweep {
            db: Arc::new(db),
            config: MutationConfig {
                sample: env.smoke.then_some(1),
                ..MutationConfig::default()
            },
        })
    }
}

impl Workload for MutantSweep {
    fn run(&self, env: &Env, threads: usize, traced: bool) -> Result<Outcome> {
        let tel = telemetry(traced);
        let config = MutationConfig {
            threads,
            ..self.config
        };
        let (report, wall_s) = timed(env, || {
            env.spans.scope("core.mutate", || {
                run_mutation_campaign(&self.db, &config, &tel)
            })
        });
        let report = report?;
        let kills: Vec<f64> = report
            .outcomes
            .iter()
            .filter_map(|o| o.dynamic())
            .map(|k| k.trials as f64)
            .collect();
        let killed = report
            .outcomes
            .iter()
            .filter(|o| o.mutant.expected != Verdict::Benign && o.killed())
            .count();
        Ok(Outcome {
            wall_s,
            digest: Fnv64::new()
                .write_str(&report.to_json().to_string_compact())
                .finish(),
            attempted: report.outcomes.len() as u64,
            failed: report.failures().len() as u64,
            violation: None,
            layers: vec![
                ("core.mutants_killed", killed as f64),
                (
                    "core.mean_trials_to_kill",
                    kills.iter().sum::<f64>() / kills.len().max(1) as f64,
                ),
                ("core.verdict_violations", report.failures().len() as f64),
            ],
            deferred_layers: None,
            report: traced
                .then(|| tel.run_report(&Framework::over_database(self.db.clone()).rule_names())),
        })
    }
}

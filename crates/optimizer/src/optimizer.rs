//! The optimization driver: exploration to a fixpoint, then cost-based
//! plan extraction — with the three testing extensions (rule tracing, rule
//! masking, pattern export) the framework requires (§2.3).

use crate::cache::{CacheKey, CacheStats, Cached, Inserted, OptCache};
use crate::cost::phys_cost;
use crate::mask::RuleMask;
use crate::memo::{GroupExpr, GroupId, Memo};
use crate::pattern::{OpMatcher, PatternTree};
use crate::persist::SnapshotStore;
use crate::physical::{PhysOp, PhysicalPlan};
use crate::rewrite::{Offers, Probed};
use crate::rule::{newtree_from_logical, Bound, BoundChild, Rule, RuleAction, RuleCtx, RuleKind};
use crate::rules::exploration_rules;
use crate::rules_impl::implementation_rules;
use ruletest_common::chaos::Chaos;
use ruletest_common::{Error, Result, RuleId, WordBuild};
use ruletest_expr::Expr;
use ruletest_logical::{
    derive_schema, output_schema, IdGen, JoinKind, LogicalTree, OpKind, Operator, Schema,
};
use ruletest_storage::Database;
use ruletest_telemetry::{
    Counter, Event, Hist, ProfileSample, RuleCostRow, RulePhase, SampleClock, Telemetry,
};
use std::cell::RefCell;
use std::collections::{BTreeSet, HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Search budgets and the rule mask for one optimization.
#[derive(Debug, Clone)]
pub struct OptimizerConfig {
    /// Disabled rules (`¬R`); empty for `Plan(q)`.
    pub mask: RuleMask,
    /// Safety cap on total memo expressions; exceeding it sets
    /// [`OptimizeResult::truncated`].
    pub max_exprs: usize,
    /// Safety cap on exploration passes.
    pub max_passes: usize,
    /// Hard memo-growth cap: exceeding it *fails* the invocation with
    /// `Error::Budget` instead of truncating. `None` (the default) keeps
    /// the graceful truncation behavior. The supervision layer uses this
    /// to turn a rule that floods the memo into a quarantinable
    /// `Failure::BudgetExhausted` rather than a silently weaker search.
    pub hard_max_exprs: Option<usize>,
}

impl Default for OptimizerConfig {
    fn default() -> Self {
        Self {
            mask: RuleMask::all_enabled(),
            // Large enough that the fixpoint is reached for the padded
            // pattern queries correctness suites use; large random
            // multi-join queries may truncate (industrial optimizers prune
            // their search too).
            max_exprs: 3_000,
            max_passes: 64,
            hard_max_exprs: None,
        }
    }
}

impl OptimizerConfig {
    /// All rules enabled.
    pub fn all_enabled() -> Self {
        Self::default()
    }

    /// Disabling exactly `rules`.
    pub fn disabling(rules: &[RuleId]) -> Self {
        Self {
            mask: RuleMask::disabling(rules),
            ..Self::default()
        }
    }
}

/// The outcome of optimizing one query.
#[derive(Debug, Clone)]
pub struct OptimizeResult {
    /// `Plan(q)` (or `Plan(q, ¬R)` under a mask).
    pub plan: PhysicalPlan,
    /// `Cost(q)` — the plan's estimated cost in optimizer units.
    pub cost: f64,
    /// `RuleSet(q)`: every rule exercised during this optimization.
    pub rule_set: BTreeSet<RuleId>,
    /// Observed rule dependencies (§7's second interaction flavor): a pair
    /// `(r1, r2)` records that r2 fired on an expression r1 had created.
    pub rule_dependencies: BTreeSet<(RuleId, RuleId)>,
    /// Memo size diagnostics.
    pub groups: usize,
    pub exprs: usize,
    /// True if a search budget was hit (the plan is still valid, the
    /// exploration just stopped early).
    pub truncated: bool,
}

ruletest_common::wire_record!(OptimizeResult {
    "cost" => cost,
    "exprs" => exprs,
    "groups" => groups,
    "plan" => plan,
    "rule_deps" => rule_dependencies,
    "rule_set" => rule_set,
    "truncated" => truncated,
});

impl OptimizeResult {
    /// Exercised rules restricted to exploration rules.
    pub fn exercised(&self, optimizer: &Optimizer) -> BTreeSet<RuleId> {
        self.rule_set
            .iter()
            .copied()
            .filter(|&r| optimizer.rule(r).kind == RuleKind::Exploration)
            .collect()
    }
}

/// A search that stopped at the memo cap, kept without extracting a plan:
/// the exploration rules it exercised (all a hit test on exploration
/// targets reads) and the memo size telemetry books for it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Explored {
    /// Exploration rules exercised before the cap.
    pub rule_set: BTreeSet<RuleId>,
    pub groups: usize,
    pub exprs: usize,
}

ruletest_common::wire_record!(Explored {
    "exprs" => exprs,
    "groups" => groups,
    "rule_set" => rule_set,
});

/// What [`Optimizer::optimize_fixpoint_cached`] answers.
#[derive(Debug, Clone)]
pub enum Searched {
    /// The exploration reached its fixpoint: the full result.
    Fixpoint(Arc<OptimizeResult>),
    /// The search stopped at the memo cap: the exploration rules it
    /// exercised.
    Truncated(Arc<BTreeSet<RuleId>>),
}

impl Searched {
    /// The full result's rule set, or the exploration rules of a
    /// truncated search.
    pub fn rule_set(&self) -> &BTreeSet<RuleId> {
        match self {
            Searched::Fixpoint(result) => &result.rule_set,
            Searched::Truncated(rules) => rules,
        }
    }

    /// A full result as a caller that rejects truncation sees it.
    pub fn of(result: Arc<OptimizeResult>, optimizer: &Optimizer) -> Searched {
        if result.truncated {
            Searched::Truncated(Arc::new(result.exercised(optimizer)))
        } else {
            Searched::Fixpoint(result)
        }
    }
}

/// The rule-based optimizer.
pub struct Optimizer {
    db: Arc<Database>,
    rules: Vec<Rule>,
    by_name: HashMap<&'static str, RuleId>,
    /// Exploration-rule indexes whose pattern root can match each OpKind
    /// (indexed by `kind as usize`) — avoids testing all rules against
    /// every expression.
    explore_by_kind: [Vec<usize>; ALL_KINDS.len()],
    /// Same for implementation rules.
    implement_by_kind: [Vec<usize>; ALL_KINDS.len()],
    /// Per rule: the pattern is one concrete node over placeholders, so an
    /// expression has at most one binding of it, whatever its child groups
    /// hold.
    root_only: Vec<bool>,
    invocations: AtomicU64,
    /// Invocation cache for the `optimize*_cached` entry points; shared
    /// across every campaign phase that goes through this optimizer.
    cache: OptCache,
    /// Campaign telemetry, attached once (through the `Arc`) by whoever
    /// owns the campaign; never attached → every recording site is a
    /// near-no-op branch.
    telemetry: OnceLock<Telemetry>,
    /// Disk-backed warm store (`--cache-dir`), attached once like
    /// telemetry; never attached → the cached path never touches disk.
    store: OnceLock<Arc<SnapshotStore>>,
    /// The campaign's fault injector, probed at `memo.insert` and, through
    /// the warm store, at `cache.load` / `cache.save`. No plan unless
    /// built [`Optimizer::with_chaos`].
    chaos: Chaos,
}

const ALL_KINDS: [OpKind; 9] = [
    OpKind::Get,
    OpKind::Select,
    OpKind::Project,
    OpKind::Join,
    OpKind::GbAgg,
    OpKind::UnionAll,
    OpKind::Distinct,
    OpKind::Sort,
    OpKind::Top,
];

/// Tree-only fingerprint used to correlate trace events (cache lookups
/// and invocations on the same query share it; the mask does not feed it).
fn tree_fingerprint(tree: &LogicalTree) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    tree.hash(&mut h);
    h.finish()
}

impl Optimizer {
    /// Builds the optimizer with the full rule catalog over `db`.
    pub fn new(db: Arc<Database>) -> Self {
        let mut rules = exploration_rules();
        rules.extend(implementation_rules());
        Self::with_rules(db, rules)
    }

    /// Builds the optimizer with the standard catalog, but with any rule
    /// whose name matches an override replaced by the override. This is the
    /// fault-injection hook the testing framework uses to demonstrate that
    /// correctness validation detects incorrectly implemented rules.
    pub fn new_with_overrides(db: Arc<Database>, overrides: Vec<Rule>) -> Self {
        let mut rules = exploration_rules();
        rules.extend(implementation_rules());
        for over in overrides {
            if let Some(slot) = rules.iter_mut().find(|r| r.name == over.name) {
                *slot = over;
            } else {
                rules.push(over);
            }
        }
        Self::with_rules(db, rules)
    }

    fn with_rules(db: Arc<Database>, rules: Vec<Rule>) -> Self {
        let by_name = rules
            .iter()
            .enumerate()
            .map(|(i, r)| (r.name, RuleId(i as u16)))
            .collect();
        let mut explore_by_kind: [Vec<usize>; ALL_KINDS.len()] = Default::default();
        let mut implement_by_kind: [Vec<usize>; ALL_KINDS.len()] = Default::default();
        for kind in ALL_KINDS {
            for (i, r) in rules.iter().enumerate() {
                let root_accepts = match &r.pattern {
                    PatternTree::Op { matcher, .. } => match matcher {
                        OpMatcher::Kind(k) => *k == kind,
                        OpMatcher::Join(_) => kind == OpKind::Join,
                    },
                    PatternTree::Any => true,
                };
                if root_accepts {
                    match r.kind {
                        RuleKind::Exploration => explore_by_kind[kind as usize].push(i),
                        RuleKind::Implementation => implement_by_kind[kind as usize].push(i),
                    }
                }
            }
        }
        let root_only = rules
            .iter()
            .map(|r| r.pattern.concrete_ops() == 1)
            .collect();
        Self {
            db,
            rules,
            by_name,
            explore_by_kind,
            implement_by_kind,
            root_only,
            invocations: AtomicU64::new(0),
            cache: OptCache::default(),
            telemetry: OnceLock::new(),
            store: OnceLock::new(),
            chaos: Chaos::default(),
        }
    }

    /// The same optimizer probing `chaos`'s sites (builder style, before
    /// the optimizer is shared).
    pub fn with_chaos(mut self, chaos: Chaos) -> Self {
        self.chaos = chaos;
        self
    }

    /// The fault injector this optimizer probes (no plan by default).
    pub fn chaos(&self) -> &Chaos {
        &self.chaos
    }

    /// Attaches campaign telemetry. The first attachment wins; later calls
    /// are ignored. Takes `&self` so it works through an `Arc<Optimizer>`.
    pub fn attach_telemetry(&self, telemetry: Telemetry) {
        let _ = self.telemetry.set(telemetry);
    }

    /// The attached telemetry handle, or a disabled (no-op) one.
    pub fn telemetry(&self) -> &Telemetry {
        static DISABLED: Telemetry = Telemetry::disabled();
        self.telemetry.get().unwrap_or(&DISABLED)
    }

    /// Attaches the disk-backed warm store. The first attachment wins.
    /// A store whose on-disk snapshot was fingerprint-rejected is still
    /// attached (it starts cold and overwrites the stale snapshot on
    /// save); the rejection is counted so reports surface it. Attach
    /// telemetry first for the rejection counter to land.
    pub fn attach_snapshot_store(&self, store: Arc<SnapshotStore>) {
        if store.rejected() {
            self.telemetry().incr(Counter::CacheFingerprintRejected);
        }
        let _ = self.store.set(store);
    }

    /// The attached warm store, if any.
    pub fn snapshot_store(&self) -> Option<&Arc<SnapshotStore>> {
        self.store.get()
    }

    /// Saves the warm store to disk (no-op without one), counting the
    /// persisted entries under `cache.persisted`.
    pub fn persist_cache(&self) -> std::io::Result<u64> {
        let Some(store) = self.store.get() else {
            return Ok(0);
        };
        let persisted = store.save_with(&self.chaos)?;
        self.telemetry().add(Counter::CachePersisted, persisted);
        Ok(persisted)
    }

    pub fn database(&self) -> &Arc<Database> {
        &self.db
    }

    /// Total number of rules.
    pub fn num_rules(&self) -> usize {
        self.rules.len()
    }

    pub fn rule(&self, id: RuleId) -> &Rule {
        &self.rules[id.0 as usize]
    }

    pub fn rule_id(&self, name: &str) -> Option<RuleId> {
        self.by_name.get(name).copied()
    }

    /// **The pattern-export API of §3.1**: the rule pattern tree for a rule.
    /// Serialize with [`PatternTree::to_xml`] for the paper's XML format.
    pub fn rule_pattern(&self, id: RuleId) -> &PatternTree {
        &self.rule(id).pattern
    }

    /// Ids of all exploration (logical) rules, in stable order.
    pub fn exploration_rule_ids(&self) -> Vec<RuleId> {
        self.rules
            .iter()
            .enumerate()
            .filter(|(_, r)| r.kind == RuleKind::Exploration)
            .map(|(i, _)| RuleId(i as u16))
            .collect()
    }

    /// Ids of all implementation (physical) rules.
    pub fn implementation_rule_ids(&self) -> Vec<RuleId> {
        self.rules
            .iter()
            .enumerate()
            .filter(|(_, r)| r.kind == RuleKind::Implementation)
            .map(|(i, _)| RuleId(i as u16))
            .collect()
    }

    /// Number of `optimize*` calls made so far (the "optimizer invocations"
    /// counted by §5.3.1 / Figure 14).
    pub fn invocation_count(&self) -> u64 {
        self.invocations.load(Ordering::Relaxed)
    }

    /// Optimizes with every rule enabled — `Plan(q)`.
    pub fn optimize(&self, tree: &LogicalTree) -> Result<OptimizeResult> {
        self.optimize_with(tree, &OptimizerConfig::default())
    }

    /// Cached variant of [`Optimizer::optimize`]: identical result, but a
    /// repeat of a previously optimized `(tree, mask, budgets)` key is
    /// served from the invocation cache without spending an invocation.
    pub fn optimize_cached(&self, tree: &LogicalTree) -> Result<Arc<OptimizeResult>> {
        self.optimize_with_cached(tree, &OptimizerConfig::default())
    }

    /// Cached variant of [`Optimizer::optimize_with`]. Errors are not
    /// cached (they are rare and cheap to rediscover).
    pub fn optimize_with_cached(
        &self,
        tree: &LogicalTree,
        config: &OptimizerConfig,
    ) -> Result<Arc<OptimizeResult>> {
        match self.cached(tree, config, true)? {
            Cached::Full(result) => Ok(result),
            Cached::Truncated(_) => unreachable!("a plan was asked for"),
        }
    }

    /// Cached entry point for a caller that rejects truncated searches
    /// (all rules enabled): a search that reaches the memo cap returns
    /// there, without extracting the plan, as the exploration rules it
    /// exercised. A full result already cached answers too — a truncated
    /// one by its exploration rules — so the answer does not depend on
    /// which caller reached the tree first.
    pub fn optimize_fixpoint_cached(&self, tree: &LogicalTree) -> Result<Searched> {
        Ok(
            match self.cached(tree, &OptimizerConfig::default(), false)? {
                Cached::Full(result) => Searched::of(result, self),
                Cached::Truncated(explored) => {
                    Searched::Truncated(Arc::new(explored.rule_set.clone()))
                }
            },
        )
    }

    /// The cached path: memory, then the disk warm store, then a compute.
    /// Without `needs_plan` a cached truncated outcome answers, and a
    /// compute stops at the memo cap; with it, a truncated outcome is a
    /// miss whose full result replaces it.
    fn cached(
        &self,
        tree: &LogicalTree,
        config: &OptimizerConfig,
        needs_plan: bool,
    ) -> Result<Cached> {
        let key = CacheKey::new(tree, config);
        let tel = self.telemetry();
        let hit = self.cache.lookup(&key, needs_plan);
        tel.event(|| Event::CacheLookup {
            fingerprint: tree_fingerprint(tree),
            hit: hit.is_some(),
        });
        if let Some(hit) = hit {
            return Ok(hit);
        }
        // Disk warm path: a persisted entry stands in for the compute —
        // including its profile sample's counts, so warm telemetry replays
        // the cold run's deterministic slice exactly.
        if let Some(store) = self.store.get() {
            let warm = store.peek_warm(&key, &self.chaos);
            if let Some(warm) = warm.filter(|w| !needs_plan || matches!(w.value, Cached::Full(_))) {
                tel.incr(Counter::CacheWarmHits);
                self.remember(key, warm.value.clone(), warm.sample);
                return Ok(warm.value);
            }
        }
        let (value, sample) = self.compute(tree, config, !needs_plan)?;
        if let Some(store) = self.store.get() {
            store.record_fresh(&key, &value, sample.as_ref(), &self.chaos);
        }
        self.remember(key, value.clone(), sample);
        Ok(value)
    }

    /// Caches `value` and records what it added. Racing workers may
    /// compute one key concurrently, and a key may be reached first by a
    /// caller that stops at the memo cap and then by one that needs the
    /// plan; recording only what the cache took keeps every aggregate
    /// counting each unique optimization once, whatever the thread count
    /// or the order its callers came in.
    fn remember(&self, key: CacheKey, value: Cached, sample: Option<ProfileSample>) {
        match self.cache.insert(key, value.clone()) {
            Inserted::New => self.record(&value, sample, false),
            Inserted::Upgraded => self.record(&value, sample, true),
            Inserted::Present => {}
        }
    }

    /// Hit/miss/eviction counters of the invocation cache.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Drops every cached optimization result (counters are kept).
    pub fn clear_cache(&self) {
        self.cache.clear()
    }

    /// Optimizes under a configuration — `Plan(q, ¬R)` when rules are
    /// disabled in `config.mask`.
    pub fn optimize_with(
        &self,
        tree: &LogicalTree,
        config: &OptimizerConfig,
    ) -> Result<OptimizeResult> {
        let (value, sample) = self.compute(tree, config, false)?;
        self.record(&value, sample, false);
        match value {
            Cached::Full(result) => Ok(Arc::unwrap_or_clone(result)),
            Cached::Truncated(_) => unreachable!("extraction runs unless told to stop at the cap"),
        }
    }

    /// Records an optimization into the telemetry registry and books its
    /// profile sample under the caller's span stack. Called once per
    /// *unique* `(tree, mask, budgets)` key on the cached path and once per
    /// direct [`Self::optimize_with`] call, which keeps every aggregate
    /// thread-count-invariant. `upgrade`: `value` is the full result of a
    /// key recorded before as a truncated outcome, so only its
    /// implementation half — the rules extraction exercised, and their
    /// sample rows — is new.
    fn record(&self, value: &Cached, sample: Option<ProfileSample>, upgrade: bool) {
        let tel = self.telemetry();
        if !tel.is_enabled() {
            return;
        }
        let (rule_set, groups, exprs, truncated) = match value {
            Cached::Full(r) => (&r.rule_set, r.groups, r.exprs, r.truncated),
            Cached::Truncated(e) => (&e.rule_set, e.groups, e.exprs, true),
        };
        if let Some(mut sample) = sample {
            if upgrade {
                sample.retain_phase(RulePhase::Implement);
            }
            tel.flush_profile(&sample, u64::from(!upgrade));
        }
        let explores = |r: &RuleId| self.rule(*r).kind == RuleKind::Exploration;
        let explore = rule_set.iter().filter(|r| explores(r)).count() as u64;
        if !upgrade {
            tel.incr(Counter::OptInvocations);
            if truncated {
                tel.incr(Counter::OptTruncated);
            }
            tel.observe(Hist::MemoGroups, groups as u64);
            tel.observe(Hist::MemoExprs, exprs as u64);
            tel.add(Counter::RuleFiresExplore, explore);
        }
        tel.add(Counter::RuleFiresImplement, rule_set.len() as u64 - explore);
        tel.record_rule_set(
            rule_set
                .iter()
                .filter(|r| !upgrade || !explores(r))
                .map(|r| r.0),
        );
    }

    /// The actual optimization (uninstrumented entry point — callers are
    /// responsible for [`Self::record`] so cached and uncached paths agree
    /// on what counts as one invocation). With `stop_at_cap`, a search
    /// that reaches the memo cap is returned as a truncated outcome
    /// without extracting a plan. Returns the profile sample alongside the
    /// value so the caller can flush it only for deduplicated winners.
    fn compute(
        &self,
        tree: &LogicalTree,
        config: &OptimizerConfig,
        stop_at_cap: bool,
    ) -> Result<(Cached, Option<ProfileSample>)> {
        let invocation = self.invocations.fetch_add(1, Ordering::Relaxed);
        let tel = self.telemetry();
        // Timestamp only when enabled: `Instant::now` is a syscall on some
        // platforms and the disabled path must stay near-free.
        let started = tel.is_enabled().then(Instant::now);
        // Fingerprint the *unpinned* tree so invocation events correlate
        // with the cache-lookup events for the same query.
        let fingerprint = tel.tracing().then(|| tree_fingerprint(tree));

        // Optimizers sharing one campaign's telemetry (a mutation sweep's)
        // repeat invocation numbers; the campaign's count of booked ones
        // so far gives their equal searches different timed positions.
        let booked = tel.counter(Counter::OptInvocations);
        let clock = SampleClock::new(started.map(|_| booked << 32 | invocation));
        let mut search = self.search(tree, config, clock)?;
        let plan = if stop_at_cap && search.truncated {
            None
        } else {
            Some(self.extract(&mut search, config)?)
        };
        let Search {
            memo,
            tally,
            rule_dependencies,
            truncated,
            ..
        } = search;

        let sample = started.map(|started| {
            let elapsed = started.elapsed();
            let elapsed_us = elapsed.as_micros() as u64;
            tel.observe(Hist::InvocationMicros, elapsed_us);
            let (groups, exprs) = (memo.num_groups() as u32, memo.num_exprs() as u32);
            let masked_rules = config.mask.disabled_rules().len() as u32;
            tel.event(|| Event::Invocation {
                fingerprint: fingerprint.unwrap_or(0),
                masked_rules,
                groups,
                exprs,
                truncated,
                elapsed_us,
            });
            // Each rule binds in one phase only: exploration rules in
            // `search`, implementation rules in `extract`.
            let phase = |r: usize| match self.rules[r].kind {
                RuleKind::Exploration => RulePhase::Explore,
                RuleKind::Implementation => RulePhase::Implement,
            };
            let rows = tally.iter().enumerate();
            let rows = rows.map(|(r, cost)| (r as u16, phase(r), *cost));
            ProfileSample::new(elapsed.as_nanos() as u64, rows)
        });

        let n_rules = self.rules.len();
        let rule = |r: usize| RuleId(r as u16);
        let fired = tally.iter().enumerate().filter(|(_, cost)| cost.fires > 0);
        let rule_set = fired.map(|(r, _)| rule(r)).collect();
        let (groups, exprs) = (memo.num_groups(), memo.num_exprs());
        let Some(plan) = plan else {
            let explored = Explored {
                rule_set,
                groups,
                exprs,
            };
            return Ok((Cached::Truncated(Arc::new(explored)), sample));
        };
        let result = OptimizeResult {
            cost: plan.est_cost,
            plan,
            rule_set,
            rule_dependencies: (0..n_rules * n_rules)
                .filter(|&i| rule_dependencies[i])
                .map(|i| (rule(i / n_rules), rule(i % n_rules)))
                .collect(),
            groups,
            exprs,
            truncated,
        };
        Ok((Cached::Full(Arc::new(result)), sample))
    }

    /// The first phase of an optimization: seeds a memo with `tree` and
    /// explores it to the fixpoint (or a budget). Public for tests and
    /// benches that look at one phase; counts no invocation, times no rule.
    pub fn explore(&self, tree: &LogicalTree, config: &OptimizerConfig) -> Result<Search> {
        self.search(tree, config, SampleClock::new(None))
    }

    /// [`Self::explore`], timing the rule events `clock` picks.
    fn search(
        &self,
        tree: &LogicalTree,
        config: &OptimizerConfig,
        mut clock: SampleClock,
    ) -> Result<Search> {
        let tel = self.telemetry();
        // Pin the root output order with an identity projection so that
        // every alternative plan emits columns in the same order (join
        // commutativity legitimately permutes column order inside).
        let pinned;
        let tree = if matches!(tree.op, Operator::Project { .. }) {
            tree
        } else {
            let schema = derive_schema(&self.db.catalog, tree)?;
            let outputs = schema
                .iter()
                .map(|c| (c.id, Expr::col(c.id)))
                .collect::<Vec<_>>();
            pinned = LogicalTree::project(tree.clone(), outputs);
            &pinned
        };

        let mut memo = Memo::new();
        let (root, _) = memo.insert(&self.db, newtree_from_logical(tree), None, true)?;
        let ids = RefCell::new(IdGen::above(tree));
        let n_rules = self.rules.len();
        let mut tally = vec![RuleCostRow::default(); n_rules];
        let mut rule_dependencies = vec![false; n_rules * n_rules];
        let mut truncated = false;

        // ---- Exploration to fixpoint ----
        // Each (expression, rule, concrete binding) is applied once. Rules
        // that mint fresh column ids fire only on *organic* expressions
        // (those not derived from any fresh-id rule): their outputs can
        // never deduplicate, so firing them on their own descendants would
        // diverge (e.g. endlessly re-splitting the global aggregate of a
        // previous split). Organic-ness is intrinsic to an expression's
        // derivation, hence independent of the rule mask — which preserves
        // cost monotonicity under masking.
        //
        // Per group, at `expr * stride + position of the rule among the
        // expression kind's rules`: `UNMATCHED`, or the memo's expression
        // count when the rule last bound the expression. Read against the
        // insertion stamps ([`Group::stamp`]) the mark says whether a child
        // group grew since (re-binding is pointless until one does) and
        // which bindings are new: those with a nested pick stamped at or
        // after the mark. Every older binding was enumerated by that last
        // bind and applied then.
        let mut marks: Vec<Vec<u32>> = Vec::new();
        const UNMATCHED: u32 = u32::MAX;
        let stride = self.explore_by_kind.iter().map(Vec::len).max().unwrap_or(0);
        // A minting rule skips a binding with a non-organic pick *without*
        // applying it, and the pick may turn organic later, so for these
        // rules alone an old binding is not an applied one: theirs are
        // remembered here, as `[rule, binding signature..]`.
        let mut applied: HashSet<Box<[u32]>, WordBuild> = HashSet::default();
        let mut key: Vec<u32> = Vec::new();
        let mut binder = Binder::default();
        let mut offers = Offers::default();

        'passes: for pass in 0..config.max_passes {
            let mut changed = false;
            let mut g = 0usize;
            while g < memo.num_groups() {
                let gid = GroupId(g as u32);
                marks.resize_with(memo.num_groups(), Vec::new);
                let mut ei = 0usize;
                while ei < memo.group(gid).exprs.len() {
                    let kind = memo.group(gid).exprs[ei].op.kind();
                    if marks[g].len() < (ei + 1) * stride {
                        marks[g].resize((ei + 1) * stride, UNMATCHED);
                    }
                    let marks = &mut marks[g][ei * stride..][..stride];
                    // The newest stamp in a child group, as of `newest_at`
                    // expressions. Applying a rule here can grow a child
                    // group only if that child is this expression's own.
                    let (mut newest, mut newest_at) = (0, 0);
                    for (slot, &ri) in self.explore_by_kind[kind as usize].iter().enumerate() {
                        let rule = &self.rules[ri];
                        let rid = RuleId(ri as u16);
                        if config.mask.is_disabled(rid) {
                            continue;
                        }
                        if rule.mints_fresh_ids && !memo.is_organic(gid, ei) {
                            continue;
                        }
                        let mark = marks[slot];
                        if mark != UNMATCHED {
                            // Its one binding was applied.
                            if self.root_only[ri] {
                                continue;
                            }
                            if newest_at != memo.num_exprs() {
                                newest_at = memo.num_exprs();
                                newest = memo.group(gid).exprs[ei]
                                    .children
                                    .iter()
                                    .filter_map(|&c| memo.group(c).stamp.last().copied())
                                    .max()
                                    .unwrap_or(0);
                            }
                            if newest < mark {
                                continue;
                            }
                        }
                        marks[slot] = memo.num_exprs() as u32;
                        let timed = clock.start();
                        binder.sigs.clear();
                        let bindings = binder.bind(&memo, &rule.pattern, gid, ei);
                        tally[ri].binds += 1;
                        if let Some(t) = timed {
                            tally[ri].bind_ns += t.estimate();
                        }
                        let nodes = binder.sigs.len() / bindings.max(1);
                        for sig in (0..bindings).map(|b| &binder.sigs[b * nodes..][..nodes]) {
                            if rule.mints_fresh_ids {
                                if !sig
                                    .iter()
                                    .all(|&(g, e)| memo.is_organic(GroupId(g), e as usize))
                                {
                                    continue;
                                }
                                if nodes > 1 {
                                    key.clear();
                                    key.push(ri as u32);
                                    key.extend(sig.iter().flat_map(|&(g, e)| [g, e]));
                                    if applied.contains(key.as_slice()) {
                                        continue;
                                    }
                                    applied.insert(key.as_slice().into());
                                }
                            } else if mark != UNMATCHED
                                && sig[1..]
                                    .iter()
                                    .all(|&(g, e)| memo.group(GroupId(g)).stamp[e as usize] < mark)
                            {
                                continue;
                            }
                            let timed = clock.start();
                            let ctx = RuleCtx {
                                db: &self.db,
                                memo: &memo,
                                ids: &ids,
                            };
                            // An IR rule's substitutes are probed in the
                            // memo before they are built; a code rule's
                            // come built.
                            offers.below.clear();
                            match &rule.action {
                                RuleAction::Rewrite(rewrite) => {
                                    rewrite.probe(&ctx, &rule.pattern, sig, &mut offers)
                                }
                                action => {
                                    let mut picks = sig.iter().copied();
                                    let bound = bound_at(&memo, &rule.pattern, &mut picks);
                                    let built = action
                                        .apply_explore(&ctx, &bound)
                                        .expect("exploration task on implementation rule");
                                    offers.roots.extend(built.into_iter().map(Probed::Tree));
                                }
                            }
                            let produced = offers.roots.len() as u32;
                            if let Some(t) = timed {
                                tally[ri].subst_ns += t.estimate();
                            }
                            if produced > 0 {
                                tally[ri].fires += 1;
                                if let Some(creator) = memo.created_by(gid, ei) {
                                    rule_dependencies[creator.0 as usize * n_rules + ri] = true;
                                }
                                tel.event(|| Event::RuleFire {
                                    rule: rid.0,
                                    phase: RulePhase::Explore,
                                    produced,
                                });
                            }
                            let organic = !rule.mints_fresh_ids && memo.is_organic(gid, ei);
                            if organic {
                                memo.upgrade(&offers.below);
                            }
                            for root in offers.roots.drain(..) {
                                self.chaos.point("memo.insert")?;
                                let (_, fresh) = memo.offer(&self.db, root, gid, organic, rid)?;
                                changed |= fresh;
                            }
                            if let Some(hard) = config.hard_max_exprs {
                                if memo.num_exprs() > hard {
                                    return Err(Error::budget(format!(
                                        "memo grew past the hard cap of {hard} expressions"
                                    )));
                                }
                            }
                            if memo.num_exprs() > config.max_exprs {
                                truncated = true;
                                break 'passes;
                            }
                        }
                    }
                    ei += 1;
                }
                g += 1;
            }
            if !changed {
                break;
            }
            if pass + 1 == config.max_passes {
                truncated = true;
            }
        }

        Ok(Search {
            memo,
            root,
            ids,
            tally,
            rule_dependencies,
            truncated,
            clock,
        })
    }

    /// The second phase: implementation and extraction of the cheapest
    /// physical plan for `search.root`.
    pub fn extract(&self, search: &mut Search, config: &OptimizerConfig) -> Result<PhysicalPlan> {
        let mut extractor = Extractor {
            optimizer: self,
            memo: &search.memo,
            config,
            ids: &search.ids,
            winners: (0..search.memo.num_groups()).map(|_| None).collect(),
            binder: Binder::default(),
            tally: &mut search.tally,
            clock: &mut search.clock,
        };
        if !extractor.solve(search.root)? {
            return Err(Error::invalid(
                "no physical plan exists under the given rule mask",
            ));
        }
        extractor.assemble(search.root)
    }
}

/// One query's search state: what exploration hands to extraction and to
/// the result.
pub struct Search {
    pub memo: Memo,
    /// The group of the (order-pinned) query root.
    pub root: GroupId,
    ids: RefCell<IdGen>,
    /// Per rule id: binds, applications that returned a substitute or a
    /// candidate (`RuleSet(q)` is `fires > 0`), and their sampled time.
    tally: Vec<RuleCostRow>,
    /// At `r1 * rules + r2`: r2 fired on an expression r1 had created.
    rule_dependencies: Vec<bool>,
    truncated: bool,
    /// Picks the binds and applications whose time the tally samples.
    clock: SampleClock,
}

/// The pattern binder and its reusable buffers. Bindings are enumerated
/// as signatures — the (group, expression) picked for each concrete
/// pattern node, root first, in pattern pre-order — which are small
/// integers, so the caller may grow the memo while it walks them; a
/// [`Bound`] is built from a signature (by [`bound_at`]) only when a rule
/// is actually applied.
#[derive(Default)]
struct Binder<'p> {
    /// Concrete pattern nodes still to be matched: each with the group it
    /// must match in and, for the root, the one expression to try. The top
    /// is next in pattern pre-order.
    todo: Vec<(&'p PatternTree, GroupId, Option<usize>)>,
    /// The picks made so far for the binding under construction.
    partial: Vec<(u32, u32)>,
    /// Output: the signatures of the enumerated bindings, back to back.
    sigs: Vec<(u32, u32)>,
}

impl<'p> Binder<'p> {
    /// Appends to `sigs` the signature of every binding of `pattern`
    /// against expression `ei` of group `gid` and returns their number.
    /// Order: the first child slot varies slowest, and within a slot the
    /// child group's expressions are tried in position order.
    fn bind(&mut self, memo: &Memo, pattern: &'p PatternTree, gid: GroupId, ei: usize) -> usize {
        self.todo.push((pattern, gid, Some(ei)));
        let found = self.expand(memo);
        self.todo.clear();
        found
    }

    /// Matches the top of `todo` against the expressions of its group and,
    /// for each that fits, the rest of `todo`; leaves `todo` as found.
    fn expand(&mut self, memo: &Memo) -> usize {
        let Some((pattern, g, only)) = self.todo.pop() else {
            self.sigs.extend_from_slice(&self.partial);
            return 1;
        };
        let rest = self.todo.len();
        let exprs = &memo.group(g).exprs;
        let mut found = 0;
        for ei in only.map_or(0..exprs.len(), |e| e..e + 1) {
            let expr: &GroupExpr = &exprs[ei];
            // A bare placeholder root would match trivially but bind
            // nothing a rule could use; no rule has one.
            let children = match pattern {
                PatternTree::Op { matcher, children }
                    if matcher.accepts(expr.op.kind(), expr.op.join_kind())
                        && children.len() == expr.children.len() =>
                {
                    children
                }
                _ => continue,
            };
            self.partial.push((g.0, ei as u32));
            for (p, &cg) in children.iter().zip(expr.children.iter()).rev() {
                if matches!(p, PatternTree::Op { .. }) {
                    self.todo.push((p, cg, None));
                }
            }
            found += self.expand(memo);
            self.todo.truncate(rest);
            self.partial.pop();
        }
        self.todo.push((pattern, g, only));
        found
    }
}

/// Builds the [`Bound`] of the binding of `pattern` whose signature `sig`
/// yields.
fn bound_at<'m>(
    memo: &'m Memo,
    pattern: &PatternTree,
    sig: &mut impl Iterator<Item = (u32, u32)>,
) -> Bound<'m> {
    let (g, e) = sig.next().expect("one pick per concrete pattern node");
    let expr = &memo.group(GroupId(g)).exprs[e as usize];
    let PatternTree::Op { children, .. } = pattern else {
        unreachable!("only concrete pattern nodes are bound");
    };
    let children = children
        .iter()
        .zip(expr.children.iter())
        .map(|(p, &cg)| match p {
            PatternTree::Any => BoundChild::Leaf(cg),
            PatternTree::Op { .. } => BoundChild::Nested(bound_at(memo, p, sig)),
        })
        .collect();
    Bound {
        group: GroupId(g),
        op: &expr.op,
        children,
    }
}

/// The bindings of `pattern` against expression `ei` of group `gid` —
/// exactly those, in the order, the explore loop applies. Public so the
/// lint crate's corpus auditor can bind rules the same way.
pub fn match_bindings<'m>(
    memo: &'m Memo,
    pattern: &PatternTree,
    gid: GroupId,
    ei: usize,
) -> Vec<Bound<'m>> {
    let mut binder = Binder::default();
    let bindings = binder.bind(memo, pattern, gid, ei);
    let mut picks = binder.sigs.iter().copied();
    (0..bindings)
        .map(|_| bound_at(memo, pattern, &mut picks))
        .collect()
}

/// The signatures of [`match_bindings`]' bindings, in its order: per
/// binding the `(group, expression)` picked for each concrete pattern node,
/// in pre-order, which is what [`Rewrite::probe`](crate::Rewrite::probe)
/// reads.
pub fn match_signatures(
    memo: &Memo,
    pattern: &PatternTree,
    gid: GroupId,
    ei: usize,
) -> Vec<Vec<(u32, u32)>> {
    let mut binder = Binder::default();
    let bindings = binder.bind(memo, pattern, gid, ei);
    let nodes = binder.sigs.len() / bindings.max(1);
    binder
        .sigs
        .chunks(nodes.max(1))
        .map(<[_]>::to_vec)
        .collect()
}

/// Maps a physical operator to the logical operator whose schema derivation
/// it shares.
fn logical_equivalent(op: &PhysOp) -> Operator {
    match op {
        PhysOp::SeqScan { table, cols } => Operator::Get {
            table: *table,
            cols: cols.clone(),
        },
        PhysOp::IndexSeek { table, cols, .. } => Operator::Get {
            table: *table,
            cols: cols.clone(),
        },
        PhysOp::Filter { predicate } => Operator::Select {
            predicate: predicate.clone(),
        },
        PhysOp::Compute { outputs } => Operator::Project {
            outputs: outputs.clone(),
        },
        PhysOp::NLJoin { kind, predicate } => Operator::Join {
            kind: *kind,
            predicate: predicate.clone(),
        },
        PhysOp::HashJoin {
            kind,
            left_keys,
            right_keys,
            residual,
        } => {
            let mut pred = residual.clone();
            for (l, r) in left_keys.iter().zip(right_keys) {
                pred = Expr::and(pred, Expr::eq(Expr::col(*l), Expr::col(*r)));
            }
            Operator::Join {
                kind: *kind,
                predicate: pred,
            }
        }
        PhysOp::MergeJoin {
            left_key,
            right_key,
            residual,
        } => Operator::Join {
            kind: JoinKind::Inner,
            predicate: Expr::and(
                residual.clone(),
                Expr::eq(Expr::col(*left_key), Expr::col(*right_key)),
            ),
        },
        PhysOp::HashAgg { group_by, aggs } | PhysOp::StreamAgg { group_by, aggs } => {
            Operator::GbAgg {
                group_by: group_by.clone(),
                aggs: aggs.clone(),
            }
        }
        PhysOp::Concat {
            outputs,
            left_cols,
            right_cols,
        } => Operator::UnionAll {
            outputs: outputs.clone(),
            left_cols: left_cols.clone(),
            right_cols: right_cols.clone(),
        },
        PhysOp::HashDistinct => Operator::Distinct,
        PhysOp::SortOp { keys } => Operator::Sort { keys: keys.clone() },
        PhysOp::TopN { n, keys } => Operator::Top {
            n: *n,
            keys: keys.clone(),
        },
    }
}

/// Output schema of a physical operator given its child *plan* schemas
/// (positional, so a commuted join's plan schema reflects the commuted
/// order).
pub fn phys_schema(db: &Database, op: &PhysOp, children: &[&Schema]) -> Result<Schema> {
    let logical = logical_equivalent(op);
    // IndexSeek absorbed a Select(Get); its schema is the Get's.
    output_schema(&db.catalog, &logical, children)
}

/// No physical operator has more inputs than a join.
const MAX_INPUTS: usize = 2;

/// The cheapest implementation found for a group: one physical operator
/// over child *groups* (their own winners complete the plan). It holds no
/// schema: cost never reads one, so only the returned plan derives its
/// schemas, in [`Extractor::assemble`].
struct Winner {
    op: PhysOp,
    children: Vec<GroupId>,
    cost: f64,
}

struct Extractor<'a> {
    optimizer: &'a Optimizer,
    memo: &'a Memo,
    config: &'a OptimizerConfig,
    ids: &'a RefCell<IdGen>,
    /// Per group: `None` until visited, `Some(None)` while in progress or
    /// when no plan exists, else the winner. Never revised once set to a
    /// winner, so parents may cost against it.
    winners: Vec<Option<Option<Winner>>>,
    binder: Binder<'a>,
    /// The search's tally and clock: implementation rules bind here.
    tally: &'a mut [RuleCostRow],
    clock: &'a mut SampleClock,
}

impl Extractor<'_> {
    /// Bottom-up dynamic program: finds the cheapest physical operator for
    /// group `g` (and, first, for the groups below it). False when the
    /// group has no plan — or is still being solved further up the stack
    /// (the cycle guard).
    fn solve(&mut self, g: GroupId) -> Result<bool> {
        if let Some(seen) = &self.winners[g.0 as usize] {
            return Ok(seen.is_some());
        }
        self.winners[g.0 as usize] = Some(None);

        let (db, memo) = (&self.optimizer.db, self.memo);
        let mut best: Option<Winner> = None;
        for ei in 0..memo.group(g).exprs.len() {
            let kind = memo.group(g).exprs[ei].op.kind();
            for &ri in &self.optimizer.implement_by_kind[kind as usize] {
                let rule = &self.optimizer.rules[ri];
                let rid = RuleId(ri as u16);
                if self.config.mask.is_disabled(rid) {
                    continue;
                }
                let timed = self.clock.start();
                // Deeper groups solved below push their signatures above
                // this group's and pop them again.
                let base = self.binder.sigs.len();
                let bindings = self.binder.bind(memo, &rule.pattern, g, ei);
                self.tally[ri].binds += 1;
                if let Some(t) = timed {
                    self.tally[ri].bind_ns += t.estimate();
                }
                let stride = (self.binder.sigs.len() - base) / bindings.max(1);
                for b in 0..bindings {
                    let timed = self.clock.start();
                    let candidates = {
                        let sig = &self.binder.sigs[base + b * stride..][..stride];
                        let bound = bound_at(memo, &rule.pattern, &mut sig.iter().copied());
                        let ctx = RuleCtx {
                            db,
                            memo,
                            ids: self.ids,
                        };
                        match &rule.action {
                            RuleAction::Implement(f) => f(&ctx, &bound),
                            _ => unreachable!(),
                        }
                    };
                    if let Some(t) = timed {
                        self.tally[ri].subst_ns += t.estimate();
                    }
                    if !candidates.is_empty() {
                        self.tally[ri].fires += 1;
                        let produced = candidates.len() as u32;
                        self.optimizer.telemetry().event(|| Event::RuleFire {
                            rule: rid.0,
                            phase: RulePhase::Implement,
                            produced,
                        });
                    }
                    'cand: for cand in candidates {
                        for &cg in &cand.children {
                            if !self.solve(cg)? {
                                continue 'cand;
                            }
                        }
                        // Cardinality is a *group* (logical) property: every
                        // plan implementing a group carries the same row
                        // estimate. Per-plan estimates would let a locally
                        // cheaper alternative claim a different output size
                        // and make parent costs — and therefore the chosen
                        // plan — depend on which alternatives the rule mask
                        // happened to generate.
                        let n = cand.children.len();
                        let (mut rows, mut costs) = ([0.0; MAX_INPUTS], [0.0; MAX_INPUTS]);
                        for (i, &cg) in cand.children.iter().enumerate() {
                            rows[i] = memo.est_rows(cg);
                            costs[i] = self.winner(cg).cost;
                        }
                        let cost = phys_cost(&cand.op, &rows[..n], &costs[..n], memo.est_rows(g));
                        if best.as_ref().is_none_or(|b| cost < b.cost) {
                            best = Some(Winner {
                                op: cand.op,
                                children: cand.children,
                                cost,
                            });
                        }
                    }
                }
                self.binder.sigs.truncate(base);
            }
        }
        let solved = best.is_some();
        self.winners[g.0 as usize] = Some(best);
        Ok(solved)
    }

    fn winner(&self, g: GroupId) -> &Winner {
        self.winners[g.0 as usize]
            .as_ref()
            .and_then(Option::as_ref)
            .expect("assembled and costed only over solved groups")
    }

    /// Builds the plan tree of a solved group from the winners, deriving
    /// each node's schema from its children's. Finite: a winner's inputs
    /// were solved before it was chosen.
    fn assemble(&self, g: GroupId) -> Result<PhysicalPlan> {
        let w = self.winner(g);
        // Sized exactly, as `collect` over the plain map sized it: the
        // plan outlives the search (the invocation cache holds it).
        let mut children = Vec::with_capacity(w.children.len());
        for &cg in &w.children {
            children.push(self.assemble(cg)?);
        }
        let schemas: Vec<&Schema> = children.iter().map(|c: &PhysicalPlan| &c.schema).collect();
        let schema = phys_schema(&self.optimizer.db, &w.op, &schemas)?;
        Ok(PhysicalPlan {
            op: w.op.clone(),
            children,
            schema,
            est_rows: self.memo.est_rows(g),
            est_cost: w.cost,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ruletest_common::JsonWriter;
    use ruletest_expr::{AggCall, AggFunc, BinOp};
    use ruletest_storage::{tpch_database, TpchConfig};

    fn optimizer() -> Optimizer {
        Optimizer::new(Arc::new(tpch_database(&TpchConfig::default()).unwrap()))
    }

    fn simple_join(opt: &Optimizer) -> LogicalTree {
        let cat = &opt.db.catalog;
        let mut ids = IdGen::new();
        let l = LogicalTree::get(cat.table_by_name("nation").unwrap(), &mut ids);
        let r = LogicalTree::get(cat.table_by_name("region").unwrap(), &mut ids);
        let pred = Expr::eq(Expr::col(l.output_col(2)), Expr::col(r.output_col(0)));
        LogicalTree::join(JoinKind::Inner, l, r, pred)
    }

    /// `lineitem ⋈ orders ⋈ part ⋈ …` (`joins` inner joins on first
    /// columns) under a global `COUNT(*)`.
    fn star_query(opt: &Optimizer, joins: usize) -> LogicalTree {
        let cat = &opt.db.catalog;
        let mut ids = IdGen::new();
        let mut tree = LogicalTree::get(cat.table_by_name("lineitem").unwrap(), &mut ids);
        let mut left_key = tree.output_col(0);
        for t in ["orders", "part", "supplier", "customer"]
            .iter()
            .take(joins)
        {
            let right = LogicalTree::get(cat.table_by_name(t).unwrap(), &mut ids);
            let right_key = right.output_col(0);
            let pred = Expr::eq(Expr::col(left_key), Expr::col(right_key));
            tree = LogicalTree::join(JoinKind::Inner, tree, right, pred);
            left_key = right_key;
        }
        let count = AggCall::new(AggFunc::CountStar, None, ids.fresh());
        LogicalTree::gbagg(tree, vec![], vec![count])
    }

    /// `σ(s_key = 1 ∧ r_name IS NULL)((supplier ⋈ nation) ⟕ region)`: the
    /// outer-join and selection rules bind.
    fn outer_join_query(opt: &Optimizer) -> LogicalTree {
        let cat = &opt.db.catalog;
        let mut ids = IdGen::new();
        let s = LogicalTree::get(cat.table_by_name("supplier").unwrap(), &mut ids);
        let n = LogicalTree::get(cat.table_by_name("nation").unwrap(), &mut ids);
        let r = LogicalTree::get(cat.table_by_name("region").unwrap(), &mut ids);
        let filter = Expr::and(
            Expr::eq(Expr::col(s.output_col(0)), Expr::lit(1i64)),
            Expr::is_null(Expr::col(r.output_col(1))),
        );
        let sn = Expr::eq(Expr::col(s.output_col(3)), Expr::col(n.output_col(0)));
        let nr = Expr::eq(Expr::col(n.output_col(2)), Expr::col(r.output_col(0)));
        let inner = LogicalTree::join(JoinKind::Inner, s, n, sn);
        LogicalTree::select(LogicalTree::join(JoinKind::LeftOuter, inner, r, nr), filter)
    }

    /// `GROUP BY` over `(region ∪ region) ∪ region`, projected: every
    /// fresh-id rule over unions and aggregates binds.
    fn union_query(opt: &Optimizer) -> LogicalTree {
        let region = opt.db.catalog.table_by_name("region").unwrap();
        let mut ids = IdGen::new();
        let scan = |ids: &mut IdGen| {
            let table = LogicalTree::get(region, ids);
            let key = table.output_col(0);
            (table, key)
        };
        let ((a, ak), (b, bk), (c, ck)) = (scan(&mut ids), scan(&mut ids), scan(&mut ids));
        let (abk, key) = (ids.fresh(), ids.fresh());
        let ab = LogicalTree::union_all(a, b, vec![abk], vec![ak], vec![bk]);
        let abc = LogicalTree::union_all(ab, c, vec![key], vec![abk], vec![ck]);
        let projected = LogicalTree::project(abc, vec![(key, Expr::col(key))]);
        let count = AggCall::new(AggFunc::CountStar, None, ids.fresh());
        LogicalTree::gbagg(projected, vec![key], vec![count])
    }

    /// `σ(π(π(σ(part))))`. With `SelectPullAboveProject` disabled, a child
    /// group's first new expression is the very next push after its
    /// parent's bind: the boundary case of "stamped at or after the mark".
    fn select_project_query(opt: &Optimizer) -> LogicalTree {
        let mut ids = IdGen::new();
        let part = LogicalTree::get(opt.db.catalog.table_by_name("part").unwrap(), &mut ids);
        let col = |i| Expr::col(part.output_col(i));
        let named = Expr::or(Expr::eq(col(1), col(2)), Expr::eq(col(1), Expr::lit("A")));
        let inner_cols = [col(2), col(0), col(3), col(4)];
        let sum = Expr::bin(BinOp::Add, col(0), Expr::lit(4i64));
        let inner_ids = ids.fresh_n(5);
        let inner = LogicalTree::project(
            LogicalTree::select(part, named),
            inner_ids
                .iter()
                .copied()
                .zip(inner_cols.into_iter().chain([sum]))
                .collect(),
        );
        let outer_ids = ids.fresh_n(4);
        let sum2 = outer_ids[2];
        let outer = LogicalTree::project(
            inner,
            outer_ids
                .into_iter()
                .zip([0, 2, 4, 1].map(|i| Expr::col(inner_ids[i])))
                .collect(),
        );
        LogicalTree::select(
            outer,
            Expr::bin(BinOp::Lt, Expr::col(sum2), Expr::lit(15i64)),
        )
    }

    /// A binding as the integers that identify it: per concrete node its
    /// group and its operator's address (memo expressions never move), per
    /// placeholder the group it stands for.
    fn binding_key(bound: &Bound, out: &mut Vec<usize>) {
        out.extend([bound.group.0 as usize, bound.op as *const Operator as usize]);
        for child in &bound.children {
            match child {
                BoundChild::Leaf(g) => out.push(g.0 as usize),
                BoundChild::Nested(b) => binding_key(b, out),
            }
        }
    }

    type Applications = Arc<std::sync::Mutex<Vec<(&'static str, Vec<usize>)>>>;

    /// The catalog with each exploration rule `wrap` selects wrapped to
    /// log the binding it is applied to.
    fn recording_optimizer(wrap: impl Fn(&Rule) -> bool) -> (Optimizer, Applications) {
        let log = Applications::default();
        let overrides = exploration_rules()
            .into_iter()
            .filter(|r| wrap(r))
            .map(|rule| {
                let (name, log) = (rule.name, Arc::clone(&log));
                rule.wrap_explore(move |bound, substitutes| {
                    let mut key = Vec::new();
                    binding_key(bound, &mut key);
                    log.lock().unwrap().push((name, key));
                    substitutes
                })
            })
            .collect();
        let db = Arc::new(tpch_database(&TpchConfig::default()).unwrap());
        (Optimizer::new_with_overrides(db, overrides), log)
    }

    /// An oracle that shares nothing with the marks and stamps: whatever
    /// `explore` decided to apply, at the fixpoint every binding of every
    /// rule must have been handed to the rule's action exactly once.
    #[test]
    fn every_binding_at_the_fixpoint_was_applied_exactly_once() {
        let (opt, log) = recording_optimizer(|_| true);
        let all = OptimizerConfig::default();
        let no_pull = opt.rule_id("SelectPullAboveProject").unwrap();
        let queries = [
            (star_query(&opt, 3), all.clone()),
            (outer_join_query(&opt), all.clone()),
            (union_query(&opt), all),
            (
                select_project_query(&opt),
                OptimizerConfig::disabling(&[no_pull]),
            ),
        ];
        let mut applied_rules = BTreeSet::new();
        for (tree, config) in &queries {
            log.lock().unwrap().clear();
            let search = opt.explore(tree, config).unwrap();
            assert!(!search.truncated, "a fixpoint, not a budget");
            let mut recorded = std::mem::take(&mut *log.lock().unwrap());
            recorded.sort();
            for pair in recorded.windows(2) {
                assert_ne!(pair[0], pair[1], "applied twice");
            }

            let memo = &search.memo;
            let mut expected = Vec::new();
            for g in (0..memo.num_groups() as u32).map(GroupId) {
                for ei in 0..memo.group(g).exprs.len() {
                    for rid in opt.exploration_rule_ids() {
                        if config.mask.is_disabled(rid) {
                            continue;
                        }
                        let rule = opt.rule(rid);
                        for bound in match_bindings(memo, &rule.pattern, g, ei) {
                            let mut key = Vec::new();
                            binding_key(&bound, &mut key);
                            if !rule.mints_fresh_ids || all_picks_organic(memo, &bound) {
                                expected.push((rule.name, key));
                            }
                        }
                    }
                }
            }
            expected.sort();
            assert!(expected.len() > 10, "{} bindings", expected.len());
            assert_eq!(recorded, expected);
            applied_rules.extend(recorded.iter().map(|&(rule, _)| rule));
        }
        // The rules that keep the applied set were all in play.
        for rule in opt.rules.iter().filter(|r| r.mints_fresh_ids) {
            assert!(
                applied_rules.contains(rule.name),
                "{} never bound",
                rule.name
            );
        }
    }

    fn all_picks_organic(memo: &Memo, bound: &Bound) -> bool {
        let group = memo.group(bound.group);
        let at = group
            .exprs
            .iter()
            .position(|e| std::ptr::eq(&e.op, bound.op))
            .expect("a bound operator lives in its group");
        group.organic[at]
            && bound.children.iter().all(|c| match c {
                BoundChild::Leaf(_) => true,
                BoundChild::Nested(b) => all_picks_organic(memo, b),
            })
    }

    #[test]
    fn a_root_only_rule_is_applied_once_per_expression_it_matches() {
        let (opt, log) = recording_optimizer(|r| r.name == "InnerJoinCommute");
        // The largest star that reaches its fixpoint under the default
        // budget (four joins saturate at 115,605 expressions).
        let search = opt
            .explore(&star_query(&opt, 3), &OptimizerConfig::default())
            .unwrap();
        assert!(!search.truncated);
        let memo = &search.memo;
        let joins = (0..memo.num_groups() as u32)
            .flat_map(|g| &memo.group(GroupId(g)).exprs)
            .filter(|e| e.op.join_kind() == Some(JoinKind::Inner))
            .count();
        let mut calls = std::mem::take(&mut *log.lock().unwrap());
        assert_eq!(calls.len(), joins);
        assert!(joins > 100, "{joins} joins");
        calls.sort();
        calls.dedup();
        assert_eq!(calls.len(), joins, "each on its own expression");
    }

    #[test]
    fn exactly_the_single_node_patterns_are_root_only() {
        let opt = optimizer();
        let root_only: Vec<&str> = opt
            .exploration_rule_ids()
            .into_iter()
            .filter(|r| opt.root_only[r.0 as usize])
            .map(|r| opt.rule(r).name)
            .collect();
        assert_eq!(
            root_only,
            [
                "InnerJoinCommute",
                "LojCommute",
                "RojCommute",
                "FojCommute",
                "AntiJoinToLojFilter",
                "SelectSplit",
                "DistinctToGbAgg",
                "GbAggSplitLocalGlobal",
                "UnionAllCommute",
            ]
        );
    }

    #[test]
    fn optimize_produces_a_plan_and_ruleset() {
        let opt = optimizer();
        let tree = simple_join(&opt);
        let res = opt.optimize(&tree).unwrap();
        assert!(res.cost > 0.0);
        assert!(!res.truncated);
        assert!(!res.rule_set.is_empty());
        let commute = opt.rule_id("InnerJoinCommute").unwrap();
        assert!(res.rule_set.contains(&commute));
        // Implementation rules are traced too.
        let seqscan = opt.rule_id("GetToSeqScan").unwrap();
        assert!(res.rule_set.contains(&seqscan));
    }

    #[test]
    fn extraction_over_a_group_cycle_is_finite_and_costed_bottom_up() {
        use crate::rule::{NewChild, NewTree};

        fn recost(plan: &PhysicalPlan) -> f64 {
            let rows: Vec<f64> = plan.children.iter().map(|c| c.est_rows).collect();
            let costs: Vec<f64> = plan.children.iter().map(recost).collect();
            let cost = phys_cost(&plan.op, &rows, &costs, plan.est_rows);
            assert_eq!(
                plan.est_cost.to_bits(),
                cost.to_bits(),
                "{}",
                plan.op.name()
            );
            cost
        }

        let opt = optimizer();
        let tree = simple_join(&opt);
        let config = OptimizerConfig::default();
        let mut search = opt.explore(&tree, &config).unwrap();
        // `Select(true)` over its own group: a cycle the extractor must
        // step over, not follow.
        let cycle = NewTree::new(
            Operator::Select {
                predicate: Expr::true_lit(),
            },
            vec![NewChild::Group(search.root)],
        );
        let root = search.root;
        let (_, fresh) = search
            .memo
            .insert(&opt.db, cycle, Some(root), false)
            .unwrap();
        assert!(fresh);
        let plan = opt.extract(&mut search, &config).unwrap();
        recost(&plan);
        let whole = opt.optimize(&tree).unwrap();
        assert!(plan.same_shape(&whole.plan));
        assert_eq!(plan.est_cost.to_bits(), whole.cost.to_bits());
    }

    #[test]
    fn hard_memo_cap_fails_with_a_budget_error() {
        let opt = optimizer();
        let tree = simple_join(&opt);
        let err = opt
            .optimize_with(
                &tree,
                &OptimizerConfig {
                    hard_max_exprs: Some(1),
                    ..Default::default()
                },
            )
            .unwrap_err();
        assert!(matches!(err, Error::Budget(_)), "{err}");
    }

    #[test]
    fn masking_a_rule_removes_it_from_the_ruleset() {
        let opt = optimizer();
        let tree = simple_join(&opt);
        let commute = opt.rule_id("InnerJoinCommute").unwrap();
        let res = opt
            .optimize_with(&tree, &OptimizerConfig::disabling(&[commute]))
            .unwrap();
        assert!(!res.rule_set.contains(&commute));
    }

    #[test]
    fn disabling_rules_never_lowers_cost() {
        let opt = optimizer();
        let tree = simple_join(&opt);
        let base = opt.optimize(&tree).unwrap();
        for rid in opt.exploration_rule_ids() {
            let masked = opt
                .optimize_with(&tree, &OptimizerConfig::disabling(&[rid]))
                .unwrap();
            assert!(
                masked.cost >= base.cost - 1e-9,
                "disabling {} lowered cost: {} -> {}",
                opt.rule(rid).name,
                base.cost,
                masked.cost
            );
        }
    }

    #[test]
    fn hash_join_beats_nested_loops_here() {
        let opt = optimizer();
        let tree = simple_join(&opt);
        let base = opt.optimize(&tree).unwrap();
        let hj = opt.rule_id("JoinToHashJoin").unwrap();
        let mj = opt.rule_id("InnerJoinToMergeJoin").unwrap();
        let masked = opt
            .optimize_with(&tree, &OptimizerConfig::disabling(&[hj, mj]))
            .unwrap();
        assert!(masked.cost > base.cost);
    }

    #[test]
    fn disabling_every_join_implementation_fails() {
        let opt = optimizer();
        let tree = simple_join(&opt);
        let ids: Vec<RuleId> = [
            "JoinToNestedLoops",
            "JoinToHashJoin",
            "InnerJoinToMergeJoin",
        ]
        .iter()
        .map(|n| opt.rule_id(n).unwrap())
        .collect();
        assert!(opt
            .optimize_with(&tree, &OptimizerConfig::disabling(&ids))
            .is_err());
    }

    #[test]
    fn invocation_counter_increments() {
        let opt = optimizer();
        let tree = simple_join(&opt);
        let before = opt.invocation_count();
        let _ = opt.optimize(&tree).unwrap();
        let _ = opt.optimize(&tree).unwrap();
        assert_eq!(opt.invocation_count(), before + 2);
    }

    #[test]
    fn telemetry_counts_unique_optimizations_once() {
        let opt = optimizer();
        opt.attach_telemetry(Telemetry::enabled());
        let tree = simple_join(&opt);
        let a = opt.optimize_cached(&tree).unwrap();
        let _b = opt.optimize_cached(&tree).unwrap(); // cache hit
        let tel = opt.telemetry();
        assert_eq!(tel.counter(Counter::OptInvocations), 1);
        let snap = tel.metrics_snapshot();
        // Every rule in the result's rule set got exactly one firing.
        for rid in &a.rule_set {
            assert_eq!(snap.rule_firings[rid.0 as usize], 1, "rule {rid:?}");
        }
        // Both lookups and the computed invocation were traced.
        let events = tel.trace_stats();
        assert!(events.recorded >= 3, "lookups + rule fires + invocation");
    }

    #[test]
    fn profile_samples_flush_once_per_unique_key() {
        let opt = optimizer();
        opt.attach_telemetry(Telemetry::metrics_only());
        let tree = simple_join(&opt);
        let res = opt.optimize_cached(&tree).unwrap();
        let _ = opt.optimize_cached(&tree).unwrap(); // cache hit: no reflush
        let names: Vec<String> = (0..opt.num_rules())
            .map(|i| opt.rule(RuleId(i as u16)).name.to_string())
            .collect();
        let profile = opt.telemetry().profile_section(&names);
        profile.validate().unwrap();
        // No enclosing stage span here, so the invocation is a root row.
        let root = profile
            .spans
            .iter()
            .find(|r| r.path == "optimize")
            .expect("optimize row");
        assert_eq!(root.count, 1);
        // Per-rule attribution covers both phases.
        assert!(profile.rules.contains_key("InnerJoinCommute/explore"));
        assert!(profile.rules.contains_key("GetToSeqScan/implement"));
        let scan = &profile.rules["GetToSeqScan/implement"];
        assert!(scan.binds >= 1 && scan.fires >= 1);
        // Every rule in the result's rule set shows up in the cost table.
        for rid in &res.rule_set {
            let name = opt.rule(*rid).name;
            assert!(
                profile.rules.keys().any(|k| k.starts_with(name)),
                "missing cost row for {name}"
            );
        }
    }

    #[test]
    fn uncached_calls_record_each_time() {
        let opt = optimizer();
        opt.attach_telemetry(Telemetry::metrics_only());
        let tree = simple_join(&opt);
        let _ = opt.optimize(&tree).unwrap();
        let _ = opt.optimize(&tree).unwrap();
        assert_eq!(opt.telemetry().counter(Counter::OptInvocations), 2);
    }

    fn same_result(a: &OptimizeResult, b: &OptimizeResult) -> bool {
        a.plan.same_shape(&b.plan)
            && a.cost.to_bits() == b.cost.to_bits()
            && a.rule_set == b.rule_set
            && a.rule_dependencies == b.rule_dependencies
            && (a.groups, a.exprs, a.truncated) == (b.groups, b.exprs, b.truncated)
    }

    /// A caller that rejects truncation and one that needs the plan ask
    /// for one truncating tree, in both orders: the answers and what
    /// telemetry recorded must not depend on who came first.
    #[test]
    fn a_truncating_tree_answers_and_records_the_same_in_either_order() {
        let run = |fixpoint_first: bool| {
            let opt = optimizer();
            opt.attach_telemetry(Telemetry::metrics_only());
            // Four joins saturate at 115,605 expressions: capped at 3,000.
            let tree = star_query(&opt, 4);
            let (searched, full) = if fixpoint_first {
                let searched = opt.optimize_fixpoint_cached(&tree).unwrap();
                (searched, opt.optimize_cached(&tree).unwrap())
            } else {
                let full = opt.optimize_cached(&tree).unwrap();
                (opt.optimize_fixpoint_cached(&tree).unwrap(), full)
            };
            let names: Vec<String> = (0..opt.num_rules())
                .map(|i| opt.rule(RuleId(i as u16)).name.to_string())
                .collect();
            let tel = opt.telemetry();
            tel.profile_section(&names).validate().unwrap();
            assert_eq!(tel.counter(Counter::OptInvocations), 1);
            let report = tel.run_report(&names).deterministic_json();
            let Searched::Truncated(rules) = searched else {
                panic!("the 4-join star stops at the default cap");
            };
            assert_eq!(*rules, full.exercised(&opt));
            (rules, full, report, opt)
        };
        let (rules, full, report, opt) = run(true);
        let (rules_b, full_b, report_b, _) = run(false);
        assert!(full.truncated);
        assert_eq!(rules, rules_b);
        assert!(same_result(&full, &full_b));
        assert!(same_result(
            &full_b,
            &opt.optimize(&star_query(&opt, 4)).unwrap()
        ));
        assert_eq!(report, report_b);
    }

    #[test]
    fn warm_store_replays_cold_telemetry_without_computing() {
        use crate::persist::{campaign_fingerprint, SnapshotStore};
        let dir = std::env::temp_dir().join(format!(
            "ruletest-opt-warm-{}-{}",
            std::process::id(),
            std::thread::current().name().unwrap_or("t").len()
        ));
        let _ = std::fs::remove_dir_all(&dir);

        let cold = optimizer();
        cold.attach_telemetry(Telemetry::metrics_only());
        let fp = campaign_fingerprint(&cold.db.catalog, cold.rules.iter(), 1, 1);
        cold.attach_snapshot_store(Arc::new(SnapshotStore::open(&dir, fp, None).unwrap()));
        let tree = simple_join(&cold);
        let cold_res = cold.optimize_cached(&tree).unwrap();
        assert!(cold.persist_cache().unwrap() >= 1);
        assert!(cold.telemetry().counter(Counter::CachePersisted) >= 1);

        let warm = optimizer();
        warm.attach_telemetry(Telemetry::metrics_only());
        warm.attach_snapshot_store(Arc::new(SnapshotStore::open(&dir, fp, None).unwrap()));
        let warm_res = warm.optimize_cached(&tree).unwrap();
        assert_eq!(warm.invocation_count(), 0, "warm hit must not compute");
        assert_eq!(warm_res.cost.to_bits(), cold_res.cost.to_bits());
        assert_eq!(warm_res.rule_set, cold_res.rule_set);
        assert_eq!(warm.telemetry().counter(Counter::OptInvocations), 1);
        assert_eq!(warm.telemetry().counter(Counter::CacheWarmHits), 1);
        // The persisted profile sample replays its counts: warm and cold
        // deterministic slices are byte-identical, and the warm section,
        // which carries no time this process did not spend, validates.
        let names: Vec<String> = (0..cold.num_rules())
            .map(|i| cold.rule(RuleId(i as u16)).name.to_string())
            .collect();
        let slice = |opt: &Optimizer| {
            let section = opt.telemetry().profile_section(&names);
            let mut out = String::new();
            section.write_deterministic(&mut JsonWriter::compact(&mut out));
            (section, out)
        };
        let (cold_section, cold_slice) = slice(&cold);
        let (warm_section, warm_slice) = slice(&warm);
        assert!(!cold_section.rules.is_empty());
        assert_eq!(cold_slice, warm_slice);
        warm_section.validate().unwrap();

        // A stale fingerprint is rejected and counted; the probe computes.
        let stale = optimizer();
        stale.attach_telemetry(Telemetry::metrics_only());
        stale.attach_snapshot_store(Arc::new(SnapshotStore::open(&dir, fp + 1, None).unwrap()));
        assert_eq!(
            stale.telemetry().counter(Counter::CacheFingerprintRejected),
            1
        );
        let _ = stale.optimize_cached(&tree).unwrap();
        assert_eq!(stale.invocation_count(), 1, "rejected snapshot stays cold");

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn pattern_api_exports_xml() {
        let opt = optimizer();
        let commute = opt.rule_id("InnerJoinCommute").unwrap();
        let xml = opt.rule_pattern(commute).to_xml();
        assert!(xml.contains("Join"));
        assert!(xml.contains("<Any/>"));
    }

    #[test]
    fn rule_catalog_is_well_formed() {
        let opt = optimizer();
        assert!(opt.exploration_rule_ids().len() >= 30, "paper uses ~30");
        assert!(opt.implementation_rule_ids().len() >= 10);
        // Names unique.
        let mut names: Vec<_> = (0..opt.num_rules())
            .map(|i| opt.rule(RuleId(i as u16)).name)
            .collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), opt.num_rules());
    }
}

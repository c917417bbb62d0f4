//! Hierarchical span profiler: RAII guards, per-thread span stacks, and
//! a sharded path-aggregation table.
//!
//! The profiler answers "where did the campaign's wall time go" with a
//! *deterministic tree shape*: span paths, call counts, and per-rule
//! bind/fire counts are identical at any thread count (they follow the
//! campaign's deterministic work assignment and the invocation cache's
//! first-insertion-wins dedup), while the recorded durations naturally
//! vary run to run. [`ProfileSection::write_deterministic`] exposes
//! exactly the invariant slice; durations live only in the full report.
//!
//! Design constraints that shape the code:
//!
//! * **No span may be live across a `par_map` whose closures open
//!   spans.** Worker threads start with empty span stacks, so a stage
//!   span opened inside the per-item closure is a *root* span on every
//!   worker — the aggregated tree has the same shape whether the pool
//!   ran inline (1 thread) or on N workers. All instrumentation sites in
//!   the workspace follow this rule.
//! * **Optimizer work is buffered, not recorded live.** `compute` fills
//!   a [`ProfileSample`] (per-rule bind/substitute time) and the sample
//!   is flushed only by the invocation-cache *insertion winner*, mirroring
//!   how counters dedup to once per unique `(tree, mask, budgets)` key.
//!   Racing losers' time collapses into the enclosing stage's self time.
//! * **Exact accounting.** A guard's drop adds its wall time to the
//!   parent frame's child accumulator, so for every aggregated row
//!   `child_ns == Σ direct children wall_ns` *exactly* and self time is
//!   `wall_ns - child_ns` with no drift. [`ProfileSection::validate`]
//!   checks this.

use crate::json::{Json, JsonWriter};
use crate::metrics::MAX_RULES;
use crate::trace::RulePhase;
use ruletest_common::wire::{array, object, optional, required, Decode, DecodeError, Encode};
use ruletest_common::{wire_names, wire_record};
use std::cell::RefCell;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Campaign stages a span can be attributed to. `Optimize` frames are
/// synthesized by [`Profiler::flush_optimize`]; the rest are opened with
/// RAII guards at the pipeline's stage boundaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Stage {
    /// One query-generation problem (§4 trial loop).
    Generation,
    /// One target's §5.3.1 edge-probe scan.
    Graph,
    /// One correctness validation (optimize + execute + compare).
    Correctness,
    /// One triage divergence re-check (delta-debugging step).
    Triage,
    /// One mutant's detection sweep.
    Mutation,
    /// One computed optimizer invocation (cache misses / uncached calls).
    Optimize,
    /// One physical-plan execution.
    Execution,
    /// Cache/checkpoint persistence work (snapshot open and save).
    Persist,
    /// One rule's symbolic equivalence proof (witness passes + normalize).
    Prove,
}

wire_names!(Stage {
    Generation => "generation",
    Graph => "graph",
    Correctness => "correctness",
    Triage => "triage",
    Mutation => "mutation",
    Optimize => "optimize",
    Execution => "execution",
    Persist => "persist",
    Prove => "prove",
});

/// One attribution key in a span path: a campaign stage, or a rule
/// working in a specific optimizer phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SpanKey {
    Stage(Stage),
    Rule { rule: u16, phase: RulePhase },
}

impl SpanKey {
    /// Renders one path segment. Rule indices resolve against the run's
    /// rule table; out-of-table indices print as `rule#N`.
    fn segment(self, rule_names: &[String]) -> String {
        match self {
            SpanKey::Stage(s) => s.name().to_string(),
            SpanKey::Rule { rule, phase } => {
                let name = rule_names
                    .get(rule as usize)
                    .cloned()
                    .unwrap_or_else(|| format!("rule#{rule}"));
                format!("{name}.{}", phase.name())
            }
        }
    }
}

/// A live span on the current thread's stack.
struct Frame {
    key: SpanKey,
    start: Instant,
    /// Wall time already attributed to direct children (closed child
    /// guards + flushed optimizer samples).
    child_ns: u64,
}

thread_local! {
    /// Per-thread span stacks, keyed by profiler identity so tests (and
    /// multiple telemetry handles) never cross wires.
    static STACKS: RefCell<HashMap<usize, Vec<Frame>>> = RefCell::new(HashMap::new());
}

/// Aggregated totals for one distinct span path.
#[derive(Debug, Clone, Copy, Default)]
struct PathStat {
    count: u64,
    wall_ns: u64,
    child_ns: u64,
}

/// Per-(rule, phase) cost cell in the lock-free attribution table.
#[derive(Debug, Default)]
struct RuleCell {
    binds: AtomicU64,
    fires: AtomicU64,
    bind_ns: AtomicU64,
    subst_ns: AtomicU64,
}

const SHARDS: usize = 16;

/// The aggregation sink shared by all clones of one `Telemetry` handle.
///
/// Span-path rows live in thread-id-sharded maps (merged by summation at
/// snapshot time); per-rule costs live in a flat atomic table indexed by
/// `rule * 2 + phase`.
pub struct Profiler {
    shards: Vec<Mutex<HashMap<Vec<SpanKey>, PathStat>>>,
    rules: Box<[RuleCell]>,
}

impl Default for Profiler {
    fn default() -> Self {
        Profiler {
            shards: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
            rules: (0..MAX_RULES * 2).map(|_| RuleCell::default()).collect(),
        }
    }
}

fn phase_index(phase: RulePhase) -> usize {
    match phase {
        RulePhase::Explore => 0,
        RulePhase::Implement => 1,
    }
}

impl Profiler {
    /// Opens a span: pushes a frame on the current thread's stack. The
    /// returned guard closes it on drop; guards are `!Send` and must
    /// drop in LIFO order (RAII scoping guarantees both).
    pub fn enter(profiler: &Arc<Profiler>, key: SpanKey) -> SpanGuard {
        let ptr = Arc::as_ptr(profiler) as usize;
        STACKS.with(|s| {
            s.borrow_mut().entry(ptr).or_default().push(Frame {
                key,
                start: Instant::now(),
                child_ns: 0,
            });
        });
        SpanGuard {
            profiler: Some(Arc::clone(profiler)),
            _not_send: PhantomData,
        }
    }

    fn shard_for_current_thread(&self) -> &Mutex<HashMap<Vec<SpanKey>, PathStat>> {
        let mut h = DefaultHasher::new();
        std::thread::current().id().hash(&mut h);
        &self.shards[(h.finish() % SHARDS as u64) as usize]
    }

    fn record_path(&self, path: &[SpanKey], count: u64, wall_ns: u64, child_ns: u64) {
        let mut map = self
            .shard_for_current_thread()
            .lock()
            .expect("profiler shard poisoned");
        // `Vec<SpanKey>: Borrow<[SpanKey]>` lets updates skip the alloc.
        if let Some(stat) = map.get_mut(path) {
            stat.count += count;
            stat.wall_ns += wall_ns;
            stat.child_ns += child_ns;
        } else {
            map.insert(
                path.to_vec(),
                PathStat {
                    count,
                    wall_ns,
                    child_ns,
                },
            );
        }
    }

    /// Books a finished optimizer invocation under the current thread's
    /// span stack: one `optimize` row (child time = total per-rule time)
    /// counting `invocations`, plus one row per `(rule, phase)` the
    /// invocation touched, and the flat rule table. The enclosing frame's
    /// child accumulator absorbs the invocation's wall time so stage
    /// self/child accounting stays exact. `invocations` is 1, or 0 for a
    /// sample that completes an invocation booked earlier (the extraction
    /// of a search first kept without its plan).
    pub fn flush_optimize(self: &Arc<Self>, sample: &ProfileSample, invocations: u64) {
        let ptr = Arc::as_ptr(self) as usize;
        let mut path: Vec<SpanKey> = STACKS.with(|s| {
            let mut map = s.borrow_mut();
            match map.get_mut(&ptr) {
                Some(stack) => {
                    if let Some(top) = stack.last_mut() {
                        top.child_ns += sample.elapsed_ns;
                    }
                    stack.iter().map(|f| f.key).collect()
                }
                None => Vec::new(),
            }
        });
        path.push(SpanKey::Stage(Stage::Optimize));
        let rules_ns: u64 = sample.rules.values().map(|a| a.bind_ns + a.subst_ns).sum();
        self.record_path(&path, invocations, sample.elapsed_ns, rules_ns);
        for (&(rule, phase), acc) in &sample.rules {
            path.push(SpanKey::Rule { rule, phase });
            self.record_path(&path, acc.binds, acc.bind_ns + acc.subst_ns, 0);
            path.pop();
            let idx = rule as usize * 2 + phase_index(phase);
            if let Some(cell) = self.rules.get(idx) {
                cell.binds.fetch_add(acc.binds, Ordering::Relaxed);
                cell.fires.fetch_add(acc.fires, Ordering::Relaxed);
                cell.bind_ns.fetch_add(acc.bind_ns, Ordering::Relaxed);
                cell.subst_ns.fetch_add(acc.subst_ns, Ordering::Relaxed);
            }
        }
    }

    /// Snapshot: merges the shards into a report section. Paths render
    /// with `rule_names`; rows come out sorted by rendered path string
    /// (parents precede children because a prefix sorts before its
    /// extensions). String order — rather than `SpanKey` order — keeps
    /// the ordering reproducible for sections merged back from a
    /// checkpointed report, where only rendered paths survive.
    pub fn section(&self, rule_names: &[String]) -> ProfileSection {
        let mut merged: BTreeMap<String, PathStat> = BTreeMap::new();
        for shard in &self.shards {
            for (path, stat) in shard.lock().expect("profiler shard poisoned").iter() {
                let rendered = path
                    .iter()
                    .map(|k| k.segment(rule_names))
                    .collect::<Vec<_>>()
                    .join(";");
                let row = merged.entry(rendered).or_default();
                row.count += stat.count;
                row.wall_ns += stat.wall_ns;
                row.child_ns += stat.child_ns;
            }
        }
        let spans = merged
            .into_iter()
            .map(|(path, stat)| SpanRow {
                path,
                count: stat.count,
                wall_ns: stat.wall_ns,
                child_ns: stat.child_ns,
            })
            .collect();
        let mut rules = BTreeMap::new();
        for (idx, cell) in self.rules.iter().enumerate() {
            let binds = cell.binds.load(Ordering::Relaxed);
            let fires = cell.fires.load(Ordering::Relaxed);
            if binds == 0 && fires == 0 {
                continue;
            }
            let rule = (idx / 2) as u16;
            let phase = if idx % 2 == 0 {
                RulePhase::Explore
            } else {
                RulePhase::Implement
            };
            let name = rule_names
                .get(rule as usize)
                .cloned()
                .unwrap_or_else(|| format!("rule#{rule}"));
            rules.insert(
                format!("{name}/{}", phase.name()),
                RuleCostRow {
                    binds,
                    fires,
                    bind_ns: cell.bind_ns.load(Ordering::Relaxed),
                    subst_ns: cell.subst_ns.load(Ordering::Relaxed),
                },
            );
        }
        ProfileSection { spans, rules }
    }
}

/// RAII span guard: closes the span on drop, attributing wall time to
/// the span's path and updating the parent frame's child accumulator.
/// `!Send` — a span belongs to the thread that opened it.
#[must_use = "a span measures the scope holding its guard"]
pub struct SpanGuard {
    profiler: Option<Arc<Profiler>>,
    _not_send: PhantomData<*const ()>,
}

impl SpanGuard {
    /// The disabled-telemetry guard: does nothing on drop.
    pub fn noop() -> SpanGuard {
        SpanGuard {
            profiler: None,
            _not_send: PhantomData,
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(p) = self.profiler.take() else {
            return;
        };
        let ptr = Arc::as_ptr(&p) as usize;
        let (path, wall_ns, child_ns) = STACKS.with(|s| {
            let mut map = s.borrow_mut();
            let stack = map.get_mut(&ptr).expect("span stack missing at guard drop");
            let frame = stack.pop().expect("span stack underflow");
            let wall_ns = frame.start.elapsed().as_nanos() as u64;
            if let Some(parent) = stack.last_mut() {
                parent.child_ns += wall_ns;
            }
            let path: Vec<SpanKey> = stack
                .iter()
                .map(|f| f.key)
                .chain(std::iter::once(frame.key))
                .collect();
            if stack.is_empty() {
                map.remove(&ptr);
            }
            (path, wall_ns, frame.child_ns)
        });
        p.record_path(&path, 1, wall_ns, child_ns);
    }
}

/// Buffered profile of one optimizer invocation. The optimizer fills
/// one per `compute` and hands it back with the result; only the
/// invocation-cache insertion winner flushes it, so aggregated counts
/// stay deterministic under racing duplicate computations.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProfileSample {
    /// Whole-invocation wall time, set by the optimizer at the end of
    /// `compute`.
    pub elapsed_ns: u64,
    rules: BTreeMap<(u16, RulePhase), RuleCostRow>,
}

impl ProfileSample {
    /// One `match_bindings` call for `rule` in `phase` took `ns`.
    pub fn record_bind(&mut self, rule: u16, phase: RulePhase, ns: u64) {
        let acc = self.rules.entry((rule, phase)).or_default();
        acc.binds += 1;
        acc.bind_ns += ns;
    }

    /// One rule-action application took `ns`; `fired` marks whether it
    /// produced output.
    pub fn record_apply(&mut self, rule: u16, phase: RulePhase, ns: u64, fired: bool) {
        let acc = self.rules.entry((rule, phase)).or_default();
        acc.subst_ns += ns;
        if fired {
            acc.fires += 1;
        }
    }

    /// Drops the rows of every phase but `phase`.
    pub fn retain_phase(&mut self, phase: RulePhase) {
        self.rules.retain(|&(_, p), _| p == phase);
    }
}

/// The sample rides along with its result in the disk-backed invocation
/// cache, so a warm hit can flush the exact profile rows the original
/// compute produced (identical span shape and per-rule bind/fire counts).
/// Hand-written because the rows are a map keyed by a pair: each row is the
/// cost record with the key's `rule` and `phase` as two more members.
impl Encode for ProfileSample {
    fn encode(&self, w: &mut JsonWriter<'_>) {
        w.object(|w| {
            w.member("elapsed_ns", &self.elapsed_ns);
            w.key("rules");
            w.array(|w| {
                for (&(rule, phase), cost) in &self.rules {
                    w.object(|w| {
                        w.member("bind_ns", &cost.bind_ns);
                        w.member("binds", &cost.binds);
                        w.member("fires", &cost.fires);
                        w.member("phase", &phase);
                        w.member("rule", &rule);
                        w.member("subst_ns", &cost.subst_ns);
                    });
                }
            });
        });
    }
}

impl Decode for ProfileSample {
    fn decode(j: &Json) -> Result<Self, DecodeError> {
        let row = |row: &Json| {
            let key = object(row)?;
            let rule = required(key, "rule", Decode::decode)?;
            let phase = required(key, "phase", Decode::decode)?;
            Ok(((rule, phase), RuleCostRow::decode(row)?))
        };
        let m = object(j)?;
        Ok(ProfileSample {
            elapsed_ns: required(m, "elapsed_ns", Decode::decode)?,
            rules: optional(m, "rules", |rows| array(rows, row))?.unwrap_or_default(),
        })
    }
}

/// One aggregated span path in the report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRow {
    /// `;`-joined segments, e.g. `correctness;optimize;RuleA.explore`.
    pub path: String,
    pub count: u64,
    pub wall_ns: u64,
    /// Wall time attributed to direct children (exact sum of their
    /// `wall_ns`).
    pub child_ns: u64,
}

wire_record!(SpanRow {
    "child_ns" => child_ns,
    "count" => count,
    "path" => path,
    "wall_ns" => wall_ns,
});

impl SpanRow {
    pub fn self_ns(&self) -> u64 {
        self.wall_ns.saturating_sub(self.child_ns)
    }

    /// Path of the enclosing span, `None` for roots.
    pub fn parent(&self) -> Option<&str> {
        self.path.rfind(';').map(|pos| &self.path[..pos])
    }

    /// Final path segment.
    pub fn leaf(&self) -> &str {
        self.path.rsplit(';').next().unwrap_or(&self.path)
    }

    pub fn depth(&self) -> usize {
        self.path.matches(';').count()
    }
}

/// Aggregated per-(rule, phase) optimizer cost.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RuleCostRow {
    /// `match_bindings` calls.
    pub binds: u64,
    /// Applications that produced output.
    pub fires: u64,
    /// Time spent matching the rule's pattern.
    pub bind_ns: u64,
    /// Time spent running the rule's action (substitute construction).
    pub subst_ns: u64,
}

wire_record!(RuleCostRow {
    "bind_ns" => bind_ns,
    "binds" => binds,
    "fires" => fires,
    "subst_ns" => subst_ns,
});

impl RuleCostRow {
    pub fn total_ns(&self) -> u64 {
        self.bind_ns + self.subst_ns
    }
}

/// The `profile` section of a [`crate::RunReport`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProfileSection {
    /// Span rows in path order (parents precede children).
    pub spans: Vec<SpanRow>,
    /// `"{RuleName}/{phase}"` → aggregated optimizer cost.
    pub rules: BTreeMap<String, RuleCostRow>,
}

wire_record!(ProfileSection { "rules" => rules: or_default, "spans" => spans: or_default });

impl ProfileSection {
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty() && self.rules.is_empty()
    }

    /// Total wall time across root spans — the profiled universe.
    pub fn root_wall_ns(&self) -> u64 {
        self.spans
            .iter()
            .filter(|r| r.parent().is_none())
            .map(|r| r.wall_ns)
            .sum()
    }

    /// Total self time across all rows. Equals [`Self::root_wall_ns`]
    /// exactly when the section validates.
    pub fn total_self_ns(&self) -> u64 {
        self.spans.iter().map(SpanRow::self_ns).sum()
    }

    /// Writes the thread-count-invariant slice: span paths and counts
    /// plus per-rule bind/fire counts. Durations are deliberately excluded
    /// — they are real measurements and vary run to run.
    pub fn write_deterministic(&self, w: &mut JsonWriter<'_>) {
        w.object(|w| {
            w.key("rules");
            w.object(|w| {
                for (name, c) in &self.rules {
                    w.key(name);
                    w.object(|w| {
                        w.member("binds", &c.binds);
                        w.member("fires", &c.fires);
                    });
                }
            });
            w.key("spans");
            w.array(|w| {
                for r in &self.spans {
                    w.object(|w| {
                        w.member("count", &r.count);
                        w.member("path", &r.path);
                    });
                }
            });
        });
    }

    /// Structural self-check: unique paths, every non-root row's parent
    /// present, a non-zero count on every row but an `optimize` one (which
    /// may hold only the extraction of searches counted on another path),
    /// `child_ns ≤ wall_ns` per row, and `child_ns` equal to the exact sum
    /// of direct children's `wall_ns`.
    pub fn validate(&self) -> Result<(), String> {
        self.validate_with(true)
    }

    /// [`ProfileSection::validate`] with the timing-containment check
    /// (`child_ns ≤ wall_ns`) optional: a report containing warm-cache
    /// replays attributes the *original* compute's span time under
    /// parents that did almost no wall work in this process, so
    /// containment legitimately fails there while every structural
    /// invariant still holds.
    pub fn validate_with(&self, strict_timing: bool) -> Result<(), String> {
        let mut child_wall: HashMap<&str, u64> = HashMap::new();
        let mut rows: HashMap<&str, &SpanRow> = HashMap::new();
        for row in &self.spans {
            if row.path.is_empty() {
                return Err("profile.spans: empty span path".to_string());
            }
            if row.count == 0 && row.leaf() != Stage::Optimize.name() {
                return Err(format!("profile span '{}': zero count", row.path));
            }
            if strict_timing && row.child_ns > row.wall_ns {
                return Err(format!(
                    "profile span '{}': child_ns {} exceeds wall_ns {}",
                    row.path, row.child_ns, row.wall_ns
                ));
            }
            if rows.insert(row.path.as_str(), row).is_some() {
                return Err(format!("profile span '{}': duplicate path", row.path));
            }
        }
        for row in &self.spans {
            if let Some(parent) = row.parent() {
                if !rows.contains_key(parent) {
                    return Err(format!(
                        "profile span '{}': parent '{parent}' missing",
                        row.path
                    ));
                }
                *child_wall.entry(parent).or_default() += row.wall_ns;
            }
        }
        for row in &self.spans {
            let children = child_wall.get(row.path.as_str()).copied().unwrap_or(0);
            if children != row.child_ns {
                return Err(format!(
                    "profile span '{}': child_ns {} != sum of children wall_ns {}",
                    row.path, row.child_ns, children
                ));
            }
        }
        Ok(())
    }

    /// Folded-stack export (`path self_time_us` per line) consumable by
    /// standard flamegraph tooling.
    pub fn folded(&self) -> String {
        let mut out = String::new();
        for row in &self.spans {
            out.push_str(&row.path);
            out.push(' ');
            out.push_str(&(row.self_ns() / 1000).to_string());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ruletest_common::wire::to_compact;

    fn busy() {
        // A few hundred ns of real work so spans get non-zero walls.
        let t = Instant::now();
        while t.elapsed().as_nanos() < 500 {
            std::hint::black_box(0u64);
        }
    }

    #[test]
    fn nested_guards_build_a_tree_with_exact_accounting() {
        let p = Arc::new(Profiler::default());
        for _ in 0..3 {
            let _outer = Profiler::enter(&p, SpanKey::Stage(Stage::Correctness));
            busy();
            {
                let _inner = Profiler::enter(&p, SpanKey::Stage(Stage::Execution));
                busy();
            }
        }
        let sec = p.section(&[]);
        let paths: Vec<&str> = sec.spans.iter().map(|r| r.path.as_str()).collect();
        assert_eq!(paths, vec!["correctness", "correctness;execution"]);
        assert_eq!(sec.spans[0].count, 3);
        assert_eq!(sec.spans[1].count, 3);
        // Exact parent/child accounting, checked by validate.
        sec.validate().unwrap();
        assert_eq!(sec.spans[0].child_ns, sec.spans[1].wall_ns);
        assert!(sec.spans[0].wall_ns >= sec.spans[0].child_ns);
        assert_eq!(sec.total_self_ns(), sec.root_wall_ns());
    }

    #[test]
    fn flush_optimize_attributes_rules_under_the_current_stage() {
        let p = Arc::new(Profiler::default());
        {
            let _stage = Profiler::enter(&p, SpanKey::Stage(Stage::Generation));
            let mut s = ProfileSample::default();
            s.record_bind(3, RulePhase::Explore, 40);
            s.record_apply(3, RulePhase::Explore, 60, true);
            s.record_bind(3, RulePhase::Implement, 10);
            s.record_apply(3, RulePhase::Implement, 20, false);
            s.elapsed_ns = 1000;
            p.flush_optimize(&s, 1);
        }
        let names = vec!["A".into(), "B".into(), "C".into(), "D".into()];
        let sec = p.section(&names);
        sec.validate().unwrap();
        let by_path: BTreeMap<&str, &SpanRow> =
            sec.spans.iter().map(|r| (r.path.as_str(), r)).collect();
        let opt = by_path["generation;optimize"];
        assert_eq!((opt.count, opt.wall_ns, opt.child_ns), (1, 1000, 130));
        assert_eq!(by_path["generation;optimize;D.explore"].wall_ns, 100);
        assert_eq!(by_path["generation;optimize;D.implement"].wall_ns, 30);
        // The enclosing stage absorbed the invocation as child time.
        assert_eq!(by_path["generation"].child_ns, 1000);
        let explore = &sec.rules["D/explore"];
        assert_eq!(
            (
                explore.binds,
                explore.fires,
                explore.bind_ns,
                explore.subst_ns
            ),
            (1, 1, 40, 60)
        );
        let implement = &sec.rules["D/implement"];
        assert_eq!((implement.binds, implement.fires), (1, 0));
    }

    #[test]
    fn a_completing_flush_counts_no_invocation_and_still_validates() {
        let p = Arc::new(Profiler::default());
        let mut s = ProfileSample::default();
        s.record_bind(2, RulePhase::Explore, 4);
        s.record_bind(2, RulePhase::Implement, 6);
        s.elapsed_ns = 50;
        s.retain_phase(RulePhase::Implement);
        {
            let _stage = Profiler::enter(&p, SpanKey::Stage(Stage::Mutation));
            p.flush_optimize(&s, 0);
        }
        let sec = p.section(&["A".into(), "B".into(), "C".into()]);
        sec.validate().unwrap();
        let opt = sec.spans.iter().find(|r| r.path == "mutation;optimize");
        assert_eq!(opt.map(|r| (r.count, r.child_ns)), Some((0, 6)));
        assert_eq!(sec.rules.keys().collect::<Vec<_>>(), ["C/implement"]);
    }

    #[test]
    fn flush_with_empty_stack_makes_a_root_optimize_row() {
        let p = Arc::new(Profiler::default());
        let s = ProfileSample {
            elapsed_ns: 7,
            ..Default::default()
        };
        p.flush_optimize(&s, 1);
        let sec = p.section(&[]);
        sec.validate().unwrap();
        assert_eq!(sec.spans.len(), 1);
        assert_eq!(sec.spans[0].path, "optimize");
        assert_eq!(sec.spans[0].wall_ns, 7);
    }

    #[test]
    fn span_tree_shape_is_identical_across_thread_counts() {
        fn run(threads: usize) -> String {
            let p = Arc::new(Profiler::default());
            let work = |p: &Arc<Profiler>| {
                for _ in 0..4 {
                    let _g = Profiler::enter(p, SpanKey::Stage(Stage::Graph));
                    busy();
                    let mut s = ProfileSample::default();
                    s.record_bind(1, RulePhase::Explore, 5);
                    s.elapsed_ns = 10;
                    p.flush_optimize(&s, 1);
                }
            };
            if threads <= 1 {
                for _ in 0..3 {
                    work(&p);
                }
            } else {
                std::thread::scope(|scope| {
                    for _ in 0..3 {
                        let p = Arc::clone(&p);
                        scope.spawn(move || work(&p));
                    }
                });
            }
            let mut out = String::new();
            p.section(&["R0".into(), "R1".into()])
                .write_deterministic(&mut JsonWriter::compact(&mut out));
            out
        }
        assert_eq!(
            run(1),
            run(3),
            "span tree shape must not depend on thread count"
        );
    }

    #[test]
    fn folded_stack_golden() {
        let sec = ProfileSection {
            spans: vec![
                SpanRow {
                    path: "correctness".into(),
                    count: 2,
                    wall_ns: 5_000_000,
                    child_ns: 3_000_000,
                },
                SpanRow {
                    path: "correctness;execution".into(),
                    count: 2,
                    wall_ns: 3_000_000,
                    child_ns: 0,
                },
            ],
            rules: BTreeMap::new(),
        };
        assert_eq!(
            sec.folded(),
            "correctness 2000\ncorrectness;execution 3000\n"
        );
    }

    #[test]
    fn json_round_trip_and_field_path_errors() {
        let p = Arc::new(Profiler::default());
        {
            let _g = Profiler::enter(&p, SpanKey::Stage(Stage::Triage));
            let mut s = ProfileSample::default();
            s.record_bind(0, RulePhase::Explore, 3);
            s.elapsed_ns = 9;
            p.flush_optimize(&s, 1);
        }
        let sec = p.section(&["A".into()]);
        let back = ProfileSection::decode(&Json::parse(&to_compact(&sec)).unwrap()).unwrap();
        assert_eq!(back, sec);

        let bad = r#"{"spans":[{"path":"triage","count":1,"wall_ns":-1,"child_ns":0}]}"#;
        let bad = Json::parse(bad).unwrap();
        let err = ProfileSection::decode(&bad).unwrap_err().to_string();
        assert!(err.contains("spans[0].wall_ns"), "{err}");
        let bad = Json::parse(r#"{"spans":[{"count":1,"child_ns":0}]}"#).unwrap();
        let err = ProfileSection::decode(&bad).unwrap_err().to_string();
        assert!(err.contains("spans[0].path"), "{err}");
        let bad = Json::parse(r#"{"rules":{"A/explore":{"bind_ns":0,"binds":1}}}"#).unwrap();
        let err = ProfileSection::decode(&bad).unwrap_err().to_string();
        assert!(err.contains("rules.A/explore.fires"), "{err}");
    }

    #[test]
    fn validate_rejects_orphans_and_bad_accounting() {
        let orphan = ProfileSection {
            spans: vec![SpanRow {
                path: "generation;optimize".into(),
                count: 1,
                wall_ns: 5,
                child_ns: 0,
            }],
            rules: BTreeMap::new(),
        };
        assert!(orphan.validate().unwrap_err().contains("parent"));

        let inverted = ProfileSection {
            spans: vec![SpanRow {
                path: "generation".into(),
                count: 1,
                wall_ns: 5,
                child_ns: 9,
            }],
            rules: BTreeMap::new(),
        };
        assert!(inverted.validate().unwrap_err().contains("exceeds"));

        let drifted = ProfileSection {
            spans: vec![
                SpanRow {
                    path: "generation".into(),
                    count: 1,
                    wall_ns: 10,
                    child_ns: 4,
                },
                SpanRow {
                    path: "generation;optimize".into(),
                    count: 1,
                    wall_ns: 5,
                    child_ns: 0,
                },
            ],
            rules: BTreeMap::new(),
        };
        assert!(drifted.validate().unwrap_err().contains("sum of children"));
    }

    #[test]
    fn noop_guard_records_nothing() {
        let p = Arc::new(Profiler::default());
        {
            let _g = SpanGuard::noop();
        }
        assert!(p.section(&[]).is_empty());
    }
}

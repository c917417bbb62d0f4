//! Hierarchical span profiler: RAII guards, per-thread span stacks, and
//! one path-aggregation table.
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
//! * **Optimizer work is buffered, not recorded live.** `compute` turns
//!   its search's tally into one [`ProfileSample`] (exact per-rule
//!   bind/fire counts, sampled time), flushed only by the invocation-cache
//!   *insertion winner*, mirroring how counters dedup to once per unique
//!   `(tree, mask, budgets)` key. Sampled time goes into the rule table only.
//! * **Exact accounting.** A guard's drop adds its wall time to the
//!   parent frame's child accumulator, so for every aggregated row
//!   `child_ns == Σ direct children wall_ns` *exactly* and self time is
//!   `wall_ns - child_ns` with no drift. [`ProfileSection::validate`]
//!   checks this, on warm-cache replays too: they carry no time.

use crate::json::JsonWriter;
use crate::metrics::MAX_RULES;
use crate::trace::RulePhase;
use ruletest_common::wire::{Decode, DecodeError, Encode};
use ruletest_common::{wire_names, wire_record, JsonReader, Rng};
use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::marker::PhantomData;
use std::sync::{Arc, Mutex, MutexGuard};
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
    /// Renders one path segment.
    fn segment(self, rule_names: &[String]) -> String {
        match self {
            SpanKey::Stage(s) => s.name().to_string(),
            SpanKey::Rule { rule, phase } => {
                format!("{}.{}", rule_name(rule_names, rule), phase.name())
            }
        }
    }
}

/// A rule index resolved against the run's rule table; out-of-table
/// indices print as `rule#N`.
fn rule_name(rule_names: &[String], rule: u16) -> String {
    rule_names
        .get(rule as usize)
        .cloned()
        .unwrap_or_else(|| format!("rule#{rule}"))
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
#[derive(Debug, Clone, Default)]
struct PathStat {
    count: u64,
    wall_ns: u64,
    child_ns: u64,
    /// Under an `optimize` path: the binds of each `(rule, phase)`,
    /// indexed `rule * 2 + phase`, which become its child rows.
    binds: Vec<u64>,
}

impl PathStat {
    fn add(&mut self, count: u64, wall_ns: u64, child_ns: u64) {
        self.count += count;
        self.wall_ns += wall_ns;
        self.child_ns += child_ns;
    }
}

/// The aggregation table: span-path rows and the rule table.
#[derive(Default)]
struct Table {
    paths: HashMap<Vec<SpanKey>, PathStat>,
    /// Per-rule costs indexed `rule * 2 + phase`.
    rules: Vec<RuleCostRow>,
}

/// The aggregation sink shared by all clones of one `Telemetry` handle.
/// One lock: it is taken once per closed span and once per booked
/// optimization, never per rule event.
#[derive(Default)]
pub struct Profiler {
    table: Mutex<Table>,
}

/// The rule and phase of row `idx` of a table indexed `rule * 2 + phase`.
fn row_key(idx: usize) -> (u16, RulePhase) {
    ((idx / 2) as u16, RulePhase::ALL[idx % 2])
}

/// Row `rule`/`phase` of such a table, which grows to hold it.
fn row_mut(rows: &mut Vec<RuleCostRow>, rule: u16, phase: RulePhase) -> &mut RuleCostRow {
    let idx = rule as usize * 2 + phase as usize;
    if idx >= rows.len() {
        rows.resize(idx + 1, RuleCostRow::default());
    }
    &mut rows[idx]
}

/// The rows of such a table that were ever recorded, with their index.
fn touched(rows: &[RuleCostRow]) -> impl Iterator<Item = (usize, &RuleCostRow)> {
    let untouched = RuleCostRow::default();
    rows.iter()
        .enumerate()
        .filter(move |(_, row)| **row != untouched)
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

    fn table(&self) -> MutexGuard<'_, Table> {
        self.table.lock().expect("profiler table poisoned")
    }

    /// Books a finished optimizer invocation under the current thread's
    /// span stack, under one lock: one `optimize` row counting
    /// `invocations`, the binds of each `(rule, phase)` the invocation
    /// touched (its child rows, which carry no time), and the flat rule
    /// table. The enclosing frame's child accumulator absorbs the
    /// invocation's wall time so stage self/child accounting stays exact.
    /// `invocations` is 1, or 0 for a sample that completes an invocation
    /// booked earlier (the extraction of a search first kept without its
    /// plan).
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
        let table = &mut *self.table();
        let stat = table.paths.entry(path).or_default();
        stat.add(invocations, sample.elapsed_ns, 0);
        // The sample's table ends at its last recorded row.
        let len = sample.rows.len();
        stat.binds.resize(stat.binds.len().max(len), 0);
        let rules = table.rules.len().max(len);
        table.rules.resize(rules, RuleCostRow::default());
        for (idx, acc) in touched(&sample.rows) {
            stat.binds[idx] += acc.binds;
            table.rules[idx] += *acc;
        }
    }

    /// Snapshot: renders the table as a report section. Paths render
    /// with `rule_names`; rows come out sorted by rendered path string
    /// (parents precede children because a prefix sorts before its
    /// extensions). String order — rather than `SpanKey` order — keeps
    /// the ordering reproducible for sections merged back from a
    /// checkpointed report, where only rendered paths survive.
    pub fn section(&self, rule_names: &[String]) -> ProfileSection {
        let mut merged: BTreeMap<String, PathStat> = BTreeMap::new();
        let mut rules: BTreeMap<String, RuleCostRow> = BTreeMap::new();
        let table = self.table();
        for (path, stat) in &table.paths {
            let rendered = path
                .iter()
                .map(|k| k.segment(rule_names))
                .collect::<Vec<_>>()
                .join(";");
            for (idx, &binds) in stat.binds.iter().enumerate().filter(|(_, &b)| b > 0) {
                let (rule, phase) = row_key(idx);
                let leaf = SpanKey::Rule { rule, phase }.segment(rule_names);
                merged
                    .entry(format!("{rendered};{leaf}"))
                    .or_default()
                    .count += binds;
            }
            let row = merged.entry(rendered).or_default();
            row.add(stat.count, stat.wall_ns, stat.child_ns);
        }
        for (idx, cost) in touched(&table.rules) {
            let (rule, phase) = row_key(idx);
            let name = format!("{}/{}", rule_name(rule_names, rule), phase.name());
            *rules.entry(name).or_default() += *cost;
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
        p.table()
            .paths
            .entry(path)
            .or_default()
            .add(1, wall_ns, child_ns);
    }
}

/// About one bind or rule application in `STRIDE` is timed, and its
/// duration × `STRIDE` is added to its row.
pub const STRIDE: u32 = 64;

/// Picks the binds and rule applications a search times: geometric gaps
/// with mean `STRIDE`, drawn from a generator seeded per search.
pub struct SampleClock {
    /// `None`: the clock never reads the time (telemetry is off).
    gaps: Option<Rng>,
    /// Events left until the next timed one.
    countdown: u32,
}

impl SampleClock {
    /// A clock whose gaps are drawn from `seed`, if any.
    pub fn new(seed: Option<u64>) -> SampleClock {
        let mut gaps = seed.map(Rng::new);
        let countdown = gaps.as_mut().map_or(u32::MAX, next_gap);
        SampleClock { gaps, countdown }
    }

    /// Called as a bind or an application begins: its start if this event
    /// is timed (two clock reads, whose gap is the cost of one), else `None`.
    #[inline]
    pub fn start(&mut self) -> Option<Timed> {
        self.countdown -= 1;
        if self.countdown > 0 {
            return None;
        }
        self.countdown = self.gaps.as_mut().map_or(u32::MAX, next_gap);
        self.gaps.as_ref()?;
        let before = Instant::now();
        let at = Instant::now();
        Some(Timed(at, at.duration_since(before).as_nanos() as u64))
    }
}

/// Events up to and including the next timed one.
fn next_gap(gaps: &mut Rng) -> u32 {
    let u = ((gaps.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64; // in (0, 1]
    1 + (u.ln() / (1.0 - 1.0 / f64::from(STRIDE)).ln()) as u32
}

/// A timed event's start, and what one clock read cost then (ns).
pub struct Timed(Instant, u64);

impl Timed {
    /// What the event adds to its row's time: its duration, less the clock
    /// read that ends it, × `STRIDE`.
    pub fn estimate(self) -> u64 {
        let ns = self.0.elapsed().as_nanos() as u64;
        ns.saturating_sub(self.1) * u64::from(STRIDE)
    }
}

/// Buffered profile of one optimizer invocation. The optimizer builds
/// one per `compute` and hands it back with the result; only the
/// invocation-cache insertion winner flushes it, so aggregated counts
/// stay deterministic under racing duplicate computations.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProfileSample {
    /// Whole-invocation wall time.
    pub elapsed_ns: u64,
    /// Per-rule costs indexed `rule * 2 + phase`, as in the [`Profiler`]'s
    /// table; a row of zeros was never recorded, and none ends the table.
    rows: Vec<RuleCostRow>,
}

impl ProfileSample {
    /// An invocation's sample from its rules' costs, each with the phase
    /// the rule worked in; rows of zeros are left out.
    pub fn new(
        elapsed_ns: u64,
        rows: impl IntoIterator<Item = (u16, RulePhase, RuleCostRow)>,
    ) -> ProfileSample {
        let mut sample = ProfileSample {
            elapsed_ns,
            ..ProfileSample::default()
        };
        for (rule, phase, cost) in rows {
            if cost != RuleCostRow::default() {
                *row_mut(&mut sample.rows, rule, phase) += cost;
            }
        }
        sample
    }

    /// Drops the rows of every phase but `phase`.
    pub fn retain_phase(&mut self, phase: RulePhase) {
        for (idx, row) in self.rows.iter_mut().enumerate() {
            if row_key(idx).1 != phase {
                *row = RuleCostRow::default();
            }
        }
        let len = touched(&self.rows).last().map_or(0, |(idx, _)| idx + 1);
        self.rows.truncate(len);
    }
}

// The sample rides along with its result in the disk-backed invocation
// cache, so a warm hit can flush the exact counts the original compute
// produced (identical span shape and per-rule bind/fire counts); its time
// stays with the process that spent it. On disk it is its recorded rows
// in rule then phase order; of a repeated row the last copy wins.
struct Persisted {
    rules: Vec<PersistedRow>,
}

struct PersistedRow {
    binds: u64,
    fires: u64,
    phase: RulePhase,
    rule: u16,
}

wire_record!(Persisted { "rules" => rules: or_default });
wire_record!(PersistedRow { "binds" => binds, "fires" => fires, "phase" => phase, "rule" => rule });

impl Encode for ProfileSample {
    fn encode(&self, w: &mut JsonWriter<'_>) {
        let rules = touched(&self.rows).map(|(idx, c)| {
            let (rule, phase) = row_key(idx);
            PersistedRow {
                binds: c.binds,
                fires: c.fires,
                phase,
                rule,
            }
        });
        Persisted {
            rules: rules.collect(),
        }
        .encode(w);
    }
}

impl Decode for ProfileSample {
    fn decode(r: &mut JsonReader<'_>) -> Result<Self, DecodeError> {
        let mut sample = ProfileSample::default();
        for row in Persisted::decode(r)?.rules {
            // The table grows to the rule's row: bound it as the profiler is.
            if usize::from(row.rule) >= MAX_RULES {
                let beyond = format!("rule {} beyond {MAX_RULES}", row.rule);
                return Err(DecodeError::new(beyond).at("rules"));
            }
            let cost = row_mut(&mut sample.rows, row.rule, row.phase);
            (cost.binds, cost.fires) = (row.binds, row.fires);
        }
        Ok(sample)
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
    /// Time spent matching the rule's pattern (sampled, see [`STRIDE`]).
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

impl std::ops::AddAssign for RuleCostRow {
    fn add_assign(&mut self, other: RuleCostRow) {
        self.binds += other.binds;
        self.fires += other.fires;
        self.bind_ns += other.bind_ns;
        self.subst_ns += other.subst_ns;
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
        let mut child_wall: HashMap<&str, u64> = HashMap::new();
        let mut rows: HashMap<&str, &SpanRow> = HashMap::new();
        for row in &self.spans {
            if row.path.is_empty() {
                return Err("profile.spans: empty span path".to_string());
            }
            if row.count == 0 && row.leaf() != Stage::Optimize.name() {
                return Err(format!("profile span '{}': zero count", row.path));
            }
            if row.child_ns > row.wall_ns {
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
    use ruletest_common::wire::{from_str, to_compact};

    fn row(binds: u64, fires: u64, bind_ns: u64, subst_ns: u64) -> RuleCostRow {
        RuleCostRow {
            binds,
            fires,
            bind_ns,
            subst_ns,
        }
    }

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
            // One timed bind and one timed application, each of real work.
            let timed = || {
                let t = Timed(Instant::now(), 0);
                busy();
                t.estimate()
            };
            let rows = [
                (3, RulePhase::Explore, row(1, 1, timed(), 0)),
                (3, RulePhase::Implement, row(2, 0, 0, timed())),
            ];
            p.flush_optimize(&ProfileSample::new(1000, rows), 1);
        }
        let names = vec!["A".into(), "B".into(), "C".into(), "D".into()];
        let sec = p.section(&names);
        sec.validate().unwrap();
        let by_path: BTreeMap<&str, &SpanRow> =
            sec.spans.iter().map(|r| (r.path.as_str(), r)).collect();
        // The rule rows carry their counts and no time, so the invocation
        // has no child time.
        let opt = by_path["generation;optimize"];
        assert_eq!((opt.count, opt.wall_ns, opt.child_ns), (1, 1000, 0));
        let explore = by_path["generation;optimize;D.explore"];
        assert_eq!((explore.count, explore.wall_ns), (1, 0));
        let implement = by_path["generation;optimize;D.implement"];
        assert_eq!((implement.count, implement.wall_ns), (2, 0));
        // The enclosing stage absorbed the invocation as child time.
        assert_eq!(by_path["generation"].child_ns, 1000);
        // The rule table holds the sampled time: a timed event stands for
        // `STRIDE` of them.
        let stride = u64::from(STRIDE);
        let explore = &sec.rules["D/explore"];
        assert_eq!((explore.binds, explore.fires, explore.subst_ns), (1, 1, 0));
        assert!(explore.bind_ns >= 500 * stride && explore.bind_ns % stride == 0);
        let implement = &sec.rules["D/implement"];
        let counts = (implement.binds, implement.fires, implement.bind_ns);
        assert_eq!(counts, (2, 0, 0));
        assert!(implement.subst_ns >= 500 * stride && implement.subst_ns % stride == 0);
    }

    /// A timed event's estimate is its duration less the clock read's
    /// cost, × `STRIDE`, and never below zero.
    #[test]
    fn an_estimate_subtracts_the_clock_read_before_scaling() {
        const MS: u64 = 1_000_000;
        let at = Instant::now() - std::time::Duration::from_millis(100);
        let before = at.elapsed().as_nanos() as u64;
        let ns = Timed(at, 40 * MS).estimate();
        let after = at.elapsed().as_nanos() as u64;
        let stride = u64::from(STRIDE);
        assert_eq!(ns % stride, 0);
        assert!((before - 40 * MS) * stride <= ns, "{ns} from {before}");
        assert!(ns <= (after - 40 * MS) * stride, "{ns} from {after}");
        // A gap longer than the event saturates.
        assert_eq!(Timed(at, 10_000 * MS).estimate(), 0);
        assert_eq!(Timed(Instant::now(), u64::MAX).estimate(), 0);
    }

    /// Identical searches, one per invocation number, each a sequence of
    /// events over a few rules repeating with a period that divides
    /// `STRIDE`: a fixed stride, or one seed for every search, would time
    /// the same positions in each, so one rule's events and no other's.
    /// With a clock seeded per search, each rule's share of the timed
    /// events is its share of the events.
    #[test]
    fn stride_sampling_times_every_rule_of_a_periodic_sequence() {
        const RULES: usize = 4;
        const SEARCHES: u64 = 1_000;
        let mut timed = [0u32; RULES];
        let mut ns = [0u64; RULES];
        for invocation in 0..SEARCHES {
            let mut clock = SampleClock::new(Some(invocation));
            for _ in 0..STRIDE {
                for (n, total) in timed.iter_mut().zip(&mut ns) {
                    if let Some(t) = clock.start() {
                        *n += 1;
                        *total += t.estimate();
                    }
                }
            }
        }
        // Each rule has SEARCHES * STRIDE events, so SEARCHES timed ones
        // are expected: binomial, with a standard deviation of about
        // sqrt(SEARCHES) ≈ 32. Allow 5 of them.
        for (rule, (&n, &total)) in timed.iter().zip(&ns).enumerate() {
            assert!(n.abs_diff(SEARCHES as u32) <= 160, "rule {rule}: {n} timed");
            assert_eq!(total % u64::from(STRIDE), 0, "rule {rule}");
        }
        // A clock without a seed reads no time.
        let mut idle = SampleClock::new(None);
        assert!((0..100_000).all(|_| idle.start().is_none()));
    }

    #[test]
    fn a_sample_reads_back_its_rows_in_rule_then_phase_order() {
        let mut s = ProfileSample::new(
            0,
            [
                (9, RulePhase::Implement, row(1, 0, 0, 0)),
                (1, RulePhase::Explore, row(0, 1, 0, 0)),
                (9, RulePhase::Explore, row(1, 0, 0, 0)),
            ],
        );
        s.retain_phase(RulePhase::Implement);
        let text = to_compact(&s);
        assert_eq!(
            text,
            r#"{"rules":[{"binds":1,"fires":0,"phase":"implement","rule":9}]}"#
        );
        assert_eq!(from_str::<ProfileSample>(&text).unwrap(), s);
        // Time is not written: a sample reads back its counts.
        let timed = ProfileSample::new(50, [(9, RulePhase::Implement, row(2, 0, 7, 0))]);
        let back = from_str::<ProfileSample>(&to_compact(&timed)).unwrap();
        assert_eq!(
            (back.elapsed_ns, back.rows[19].binds, back.rows[19].bind_ns),
            (0, 2, 0)
        );
        // Of a repeated row the last copy wins; a rule past the profiler's
        // table is refused rather than grown to.
        let twice = text.replace(
            "]}",
            r#",{"binds":2,"fires":1,"phase":"implement","rule":9}]}"#,
        );
        let back = from_str::<ProfileSample>(&twice).unwrap();
        assert_eq!(
            to_compact(&back),
            twice.replace(r#"{"binds":1,"fires":0,"phase":"implement","rule":9},"#, "")
        );
        let far = text.replace("\"rule\":9", "\"rule\":65535");
        let err = from_str::<ProfileSample>(&far).unwrap_err();
        assert_eq!(err.to_string(), "rules: rule 65535 beyond 512");
    }

    #[test]
    fn a_completing_flush_counts_no_invocation_and_still_validates() {
        let p = Arc::new(Profiler::default());
        let rows = [
            (2, RulePhase::Explore, row(1, 0, 0, 0)),
            (2, RulePhase::Implement, row(1, 0, 0, 0)),
        ];
        let mut s = ProfileSample::new(50, rows);
        s.retain_phase(RulePhase::Implement);
        {
            let _stage = Profiler::enter(&p, SpanKey::Stage(Stage::Mutation));
            p.flush_optimize(&s, 0);
        }
        let sec = p.section(&["A".into(), "B".into(), "C".into()]);
        sec.validate().unwrap();
        let opt = sec.spans.iter().find(|r| r.path == "mutation;optimize");
        assert_eq!(opt.map(|r| (r.count, r.wall_ns)), Some((0, 50)));
        assert_eq!(sec.rules.keys().collect::<Vec<_>>(), ["C/implement"]);
    }

    #[test]
    fn flush_with_empty_stack_makes_a_root_optimize_row() {
        let p = Arc::new(Profiler::default());
        p.flush_optimize(&ProfileSample::new(7, []), 1);
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
                    let s = ProfileSample::new(10, [(1, RulePhase::Explore, row(1, 0, 0, 0))]);
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
            let s = ProfileSample::new(9, [(0, RulePhase::Explore, row(1, 0, 0, 0))]);
            p.flush_optimize(&s, 1);
        }
        let sec = p.section(&["A".into()]);
        let decode = |text: &str| from_str::<ProfileSection>(text);
        assert_eq!(decode(&to_compact(&sec)).unwrap(), sec);

        let bad = r#"{"spans":[{"path":"triage","count":1,"wall_ns":-1,"child_ns":0}]}"#;
        let err = decode(bad).unwrap_err().to_string();
        assert!(err.contains("spans[0].wall_ns"), "{err}");
        let err = decode(r#"{"spans":[{"count":1,"child_ns":0}]}"#)
            .unwrap_err()
            .to_string();
        assert!(err.contains("spans[0].path"), "{err}");
        let bad = r#"{"rules":{"A/explore":{"bind_ns":0,"binds":1}}}"#;
        let err = decode(bad).unwrap_err().to_string();
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

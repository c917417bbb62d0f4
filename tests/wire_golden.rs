//! Wire-format goldens: every on-disk format the campaign persists, pinned
//! byte for byte by the files under `tests/golden/wire/`.
//!
//! The files were generated by the hand-written `*_to_json` encoders
//! *before* they were replaced by the one wire codec
//! (`ruletest_common::wire`, ISSUE 13) and are the contract that the bytes
//! on disk did not move: `CHECKPOINT_FORMAT`, `BUNDLE_VERSION` and
//! `SCHEMA_VERSION` stay 1. `FORMAT_VERSION` went to 2 when a profile
//! sample stopped carrying its times (`elapsed_ns`, and per row `bind_ns`
//! and `subst_ns`), and to 3 when a cache key lost the search budgets
//! (the memo caps and the pass cap), which became constants; `cache_v2/`
//! keeps a format-2 snapshot, which is rejected whole.
//! Every value below is hand-built — no campaign, optimizer or rule runs —
//! so a rule change never moves a fixture. There is deliberately no
//! regeneration switch (same policy as `tests/search_golden.rs`): a change
//! that is *meant* to move a format bumps its version constant and rewrites
//! the fixture from the `actual` text the failing assertion prints. (The
//! cache shards were rewritten once without a version bump, when the
//! stage-boundary stamp `"b"` was retired: readers ignore members they do
//! not name, and `cache_with_boundary/` keeps the old bytes as a
//! read-compatibility fixture. `cache_truncated/` pins the line form of a
//! search kept without its plan, added beside the full-result form
//! without a version bump.)
//!
//! Each format is checked three ways: `encode(value) == golden`,
//! `decode(golden) == value`, and `encode(decode(golden)) == golden`.

use ruletest_common::chaos::Chaos;
use ruletest_common::{from_str, to_pretty, ColId, DataType, FailureKind, RuleId, TableId, Value};
use ruletest_core::{
    read_bundles, write_bundles, CampaignParams, CampaignStore, Quarantine, QuarantineEntry,
    ReproBundle,
};
use ruletest_expr::{AggCall, AggFunc, BinOp, Expr};
use ruletest_logical::{ColumnInfo, JoinKind, LogicalTree, SortKey};
use ruletest_optimizer::persist::canonical_key;
use ruletest_optimizer::{
    CacheKey, Cached, Explored, OptimizeResult, OptimizerConfig, PhysOp, PhysicalPlan,
    SnapshotStore,
};
use ruletest_telemetry::{
    diff_reports, CacheSection, Event, HistogramSnapshot, Json, PoolSection, ProfileSample,
    ProfileSection, RuleCostRow, RulePhase, RunReport, SpanRow, TraceSection, Tracer, HIST_BUCKETS,
};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

const FINGERPRINT: u64 = 0x5eed_cafe_f00d_0013;

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/wire")
}

fn golden(rel: &str) -> String {
    let path = golden_dir().join(rel);
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()))
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ruletest-wire-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn assert_golden(actual: &str, rel: &str) {
    let want = golden(rel);
    assert!(
        actual == want,
        "tests/golden/wire/{rel} differs\n--- actual ---\n{actual}\n--- golden ---\n{want}"
    );
}

// ---------------------------------------------------------------------
// Hand-built values.

fn c(i: u32) -> ColId {
    ColId(i)
}

fn leaf(table: u32, base: u32) -> LogicalTree {
    LogicalTree::get_with_cols(TableId(table), vec![c(base), c(base + 1), c(base + 2)])
}

/// Every `Expr` variant, every `BinOp` and every `Value` variant.
fn rich_predicate() -> Expr {
    let cmp = |op, l: u32, v: i64| Expr::bin(op, Expr::col(c(l)), Expr::lit(Value::Int(v)));
    let arith = Expr::bin(
        BinOp::Mul,
        Expr::bin(BinOp::Add, Expr::col(c(0)), Expr::col(c(1))),
        Expr::bin(BinOp::Sub, Expr::col(c(2)), Expr::lit(Value::Int(i64::MIN))),
    );
    [
        cmp(BinOp::Ne, 1, -9_007_199_254_740_993),
        cmp(BinOp::Lt, 2, i64::MAX),
        cmp(BinOp::Le, 0, 0),
        cmp(BinOp::Gt, 1, 42),
        Expr::bin(BinOp::Ge, arith, Expr::lit(Value::Int(7))),
        Expr::or(
            Expr::not(Expr::is_null(Expr::col(c(2)))),
            Expr::eq(
                Expr::col(c(1)),
                Expr::lit(Value::Str("it's \"quoted\"\n\\ tab\t".into())),
            ),
        ),
        Expr::or(Expr::lit(Value::Bool(false)), Expr::lit(Value::Null)),
    ]
    .into_iter()
    .fold(
        Expr::eq(Expr::col(c(0)), Expr::lit(Value::Int(1))),
        Expr::and,
    )
}

const OPERATORS: usize = 9;

/// One tree per `Operator` variant (the variant is the root); `table` is
/// the first leaf's table id.
fn tree(variant: usize, table: u32) -> LogicalTree {
    let a = leaf(table, 0);
    match variant {
        0 => a,
        1 => LogicalTree::select(a, rich_predicate()),
        2 => LogicalTree::project(
            a,
            vec![
                (c(40), Expr::col(c(0))),
                (
                    c(41),
                    Expr::bin(BinOp::Add, Expr::col(c(1)), Expr::lit(Value::Int(1))),
                ),
                (c(42), Expr::lit(Value::Str("x".into()))),
            ],
        ),
        3 => [
            JoinKind::LeftOuter,
            JoinKind::RightOuter,
            JoinKind::FullOuter,
            JoinKind::LeftSemi,
            JoinKind::LeftAnti,
            JoinKind::Inner,
        ]
        .into_iter()
        .enumerate()
        .fold(a, |acc, (i, kind)| {
            let base = 10 * (i as u32 + 1);
            LogicalTree::join(
                kind,
                acc,
                leaf(i as u32 + 1, base),
                Expr::eq(Expr::col(c(0)), Expr::col(c(base))),
            )
        }),
        4 => LogicalTree::gbagg(
            a,
            vec![c(0), c(1)],
            vec![
                AggCall::new(AggFunc::CountStar, None, c(50)),
                AggCall::new(AggFunc::Count, Some(c(2)), c(51)),
                AggCall::new(AggFunc::Sum, Some(c(2)), c(52)),
                AggCall::new(AggFunc::Min, Some(c(1)), c(53)),
                AggCall::new(AggFunc::Max, Some(c(1)), c(54)),
            ],
        ),
        5 => LogicalTree::union_all(
            a,
            leaf(1, 10),
            vec![c(60), c(61)],
            vec![c(0), c(1)],
            vec![c(10), c(11)],
        ),
        6 => LogicalTree::distinct(a),
        7 => LogicalTree::sort(a, vec![SortKey::desc(c(1)), SortKey::asc(c(0))]),
        8 => LogicalTree::top(a, 1 << 53, vec![SortKey::asc(c(2))]),
        _ => unreachable!("nine operator variants"),
    }
}

fn schema() -> Vec<ColumnInfo> {
    [
        (0, DataType::Int, false),
        (1, DataType::Str, true),
        (2, DataType::Bool, true),
    ]
    .into_iter()
    .map(|(id, data_type, nullable)| ColumnInfo {
        id: c(id),
        data_type,
        nullable,
    })
    .collect()
}

fn plan(op: PhysOp, children: Vec<PhysicalPlan>, rows: f64, cost: f64) -> PhysicalPlan {
    PhysicalPlan {
        op,
        children,
        schema: schema(),
        est_rows: rows,
        est_cost: cost,
    }
}

fn scan(table: u32) -> PhysicalPlan {
    plan(
        PhysOp::SeqScan {
            table: TableId(table),
            cols: vec![c(0), c(1), c(2)],
        },
        vec![],
        10.25,
        0.1 + 0.2,
    )
}

const PHYS_OPS: usize = 13;

/// One plan per `PhysOp` variant (the variant is the root).
fn phys_plan(variant: usize) -> PhysicalPlan {
    let one = || vec![scan(0)];
    let two = || vec![scan(0), scan(1)];
    let residual = || Expr::not(Expr::is_null(Expr::col(c(2))));
    let aggs = || {
        vec![
            AggCall::new(AggFunc::CountStar, None, c(50)),
            AggCall::new(AggFunc::Max, Some(c(1)), c(51)),
        ]
    };
    let (op, children) = match variant {
        0 => return scan(3),
        1 => (
            PhysOp::IndexSeek {
                table: TableId(2),
                cols: vec![c(0), c(1)],
                key: Value::Int(-5),
                residual: residual(),
            },
            vec![],
        ),
        2 => (
            PhysOp::Filter {
                predicate: rich_predicate(),
            },
            one(),
        ),
        3 => (
            PhysOp::Compute {
                outputs: vec![(c(40), Expr::col(c(0))), (c(41), Expr::lit(Value::Null))],
            },
            one(),
        ),
        4 => (
            PhysOp::NLJoin {
                kind: JoinKind::LeftAnti,
                predicate: Expr::true_lit(),
            },
            two(),
        ),
        5 => (
            PhysOp::HashJoin {
                kind: JoinKind::FullOuter,
                left_keys: vec![c(0), c(1)],
                right_keys: vec![c(10), c(11)],
                residual: residual(),
            },
            two(),
        ),
        6 => (
            PhysOp::MergeJoin {
                left_key: c(0),
                right_key: c(10),
                residual: Expr::true_lit(),
            },
            two(),
        ),
        7 => (
            PhysOp::HashAgg {
                group_by: vec![c(0)],
                aggs: aggs(),
            },
            one(),
        ),
        8 => (
            PhysOp::StreamAgg {
                group_by: vec![],
                aggs: aggs(),
            },
            one(),
        ),
        9 => (
            PhysOp::Concat {
                outputs: vec![c(60)],
                left_cols: vec![c(0)],
                right_cols: vec![c(10)],
            },
            two(),
        ),
        10 => (PhysOp::HashDistinct, one()),
        11 => (
            PhysOp::SortOp {
                keys: vec![SortKey::desc(c(1))],
            },
            one(),
        ),
        12 => (
            PhysOp::TopN {
                n: 3,
                keys: vec![SortKey::asc(c(0)), SortKey::desc(c(2))],
            },
            one(),
        ),
        _ => unreachable!("thirteen physical operators"),
    };
    plan(op, children, 1e300, f64::MIN_POSITIVE)
}

fn sample(i: usize) -> ProfileSample {
    let row = |binds, fires| RuleCostRow {
        binds,
        fires,
        ..RuleCostRow::default()
    };
    let rows = [
        (3, RulePhase::Explore, row(1, 1)),
        (i as u16, RulePhase::Implement, row(1, 0)),
    ];
    ProfileSample::new(0, rows)
}

/// One shard entry as the snapshot store sees it.
struct Entry {
    key: CacheKey,
    value: Cached,
    sample: Option<ProfileSample>,
}

/// The first leaf's table id per entry, picked once so that the thirteen
/// canonical keys land in two of the sixteen disk shards.
const TABLES: [u32; PHYS_OPS] = [7, 0, 1, 2, 3, 0, 6, 5, 0, 9, 11, 7, 8];

/// Thirteen entries: entry `i` is keyed by a tree rooted at `Operator`
/// variant `i % 9` and holds a plan rooted at `PhysOp` variant `i`.
fn entries() -> Vec<Entry> {
    (0..PHYS_OPS)
        .map(|i| {
            let config = if i % 3 == 1 {
                OptimizerConfig::disabling(&[RuleId(7), RuleId(2)])
            } else {
                OptimizerConfig::all_enabled()
            };
            let plan = phys_plan(i);
            Entry {
                key: CacheKey::new(&tree(i % OPERATORS, TABLES[i]), &config),
                value: Cached::Full(Arc::new(OptimizeResult {
                    cost: plan.est_cost,
                    plan,
                    rule_set: [RuleId(1), RuleId(4), RuleId(i as u16 + 10)]
                        .into_iter()
                        .collect(),
                    rule_dependencies: [(RuleId(1), RuleId(4)), (RuleId(4), RuleId(i as u16 + 10))]
                        .into_iter()
                        .collect(),
                    groups: 3 + i,
                    exprs: 9 * (i + 1),
                    truncated: i % 5 == 0,
                })),
                sample: (i % 2 == 0).then(|| sample(i)),
            }
        })
        .collect()
}

/// Two searches kept without a plan because they stopped at the memo cap:
/// one with a profile sample holding only exploration rows, one without.
fn truncated_entries() -> Vec<Entry> {
    (0..2)
        .map(|i| {
            let mut explore_only = sample(i);
            explore_only.retain_phase(RulePhase::Explore);
            Entry {
                key: CacheKey::new(&tree(0, 20 + i as u32), &OptimizerConfig::default()),
                value: Cached::Truncated(Arc::new(Explored {
                    rule_set: [RuleId(3), RuleId(i as u16 + 10)].into_iter().collect(),
                    groups: 400 + i,
                    exprs: 3_001 + i,
                })),
                sample: (i == 0).then_some(explore_only),
            }
        })
        .collect()
}

fn same_plan(a: &PhysicalPlan, b: &PhysicalPlan) -> bool {
    a.op == b.op
        && a.schema == b.schema
        && a.est_rows.to_bits() == b.est_rows.to_bits()
        && a.est_cost.to_bits() == b.est_cost.to_bits()
        && a.children.len() == b.children.len()
        && a.children
            .iter()
            .zip(&b.children)
            .all(|(x, y)| same_plan(x, y))
}

fn same_value(a: &Cached, b: &Cached) -> bool {
    match (a, b) {
        (Cached::Full(a), Cached::Full(b)) => {
            same_plan(&a.plan, &b.plan)
                && a.cost.to_bits() == b.cost.to_bits()
                && a.rule_set == b.rule_set
                && a.rule_dependencies == b.rule_dependencies
                && (a.groups, a.exprs, a.truncated) == (b.groups, b.exprs, b.truncated)
        }
        (Cached::Truncated(a), Cached::Truncated(b)) => a == b,
        _ => false,
    }
}

fn params() -> CampaignParams {
    CampaignParams {
        rules: 3,
        k: 2,
        seed: 0x5EA2C4,
        pad_ops: 1,
        max_trials: 400,
    }
}

fn histogram(values: &[(usize, u64)], count: u64, sum: u64) -> HistogramSnapshot {
    let mut buckets = [0u64; HIST_BUCKETS];
    for &(i, n) in values {
        buckets[i] = n;
    }
    HistogramSnapshot {
        buckets,
        count,
        sum,
    }
}

fn run_report() -> RunReport {
    let map = |pairs: &[(&str, u64)]| pairs.iter().map(|&(k, v)| (k.to_string(), v)).collect();
    RunReport {
        schema: 1,
        rule_firings: map(&[("RuleA", 2), ("RuleB", 0), ("Rule \"C\"", 1)]),
        counters: map(&[
            ("optimizer.invocations", 10),
            ("generate.trials", 40),
            ("cache.warm_hits", 0),
        ]),
        histograms: [
            (
                "generate.trials_to_hit".to_string(),
                histogram(&[(0, 1), (1, 2), (3, 5)], 8, 40),
            ),
            ("optimizer.invocation_us".to_string(), histogram(&[], 0, 0)),
            (
                "optimizer.memo_exprs".to_string(),
                histogram(&[(HIST_BUCKETS - 1, 1)], 1, 1 << 40),
            ),
        ]
        .into_iter()
        .collect(),
        cache: CacheSection {
            hits: 30,
            misses: 10,
            evictions: 1,
        },
        pool: PoolSection {
            par_calls: 3,
            tasks: 12,
            workers: 6,
            steals: 2,
            busy_ns: 900,
            idle_ns: 100,
        },
        trace: TraceSection {
            recorded: 50,
            dropped: 4,
        },
        profile: ProfileSection {
            spans: vec![
                SpanRow {
                    path: "correctness".to_string(),
                    count: 4,
                    wall_ns: 9_000_000,
                    child_ns: 6_000_000,
                },
                SpanRow {
                    path: "correctness;execution".to_string(),
                    count: 8,
                    wall_ns: 6_000_000,
                    child_ns: 0,
                },
            ],
            rules: [(
                "RuleA/explore".to_string(),
                RuleCostRow {
                    binds: 12,
                    fires: 3,
                    bind_ns: 500,
                    subst_ns: 700,
                },
            )]
            .into_iter()
            .collect(),
        },
        wall_seconds: 1.25,
    }
}

fn quarantine() -> Quarantine {
    let mut q = Quarantine::new();
    q.add(QuarantineEntry {
        fingerprint: "00000000deadbeef".to_string(),
        kind: FailureKind::Panic,
        site: "exec.pair".to_string(),
        message: "index out of bounds: \"len\" is 3".to_string(),
        label: "q7 -SelectIntoInnerJoin".to_string(),
        sql: Some("SELECT 1 FROM t WHERE a = 'x'".to_string()),
        rule_mask: vec!["SelectIntoInnerJoin".to_string(), "JoinCommute".to_string()],
    });
    q.add(QuarantineEntry {
        fingerprint: "0123456789abcdef".to_string(),
        kind: FailureKind::Timeout,
        site: "suite.generate".to_string(),
        message: "deadline of 50ms exceeded".to_string(),
        label: "OuterJoinSimplify".to_string(),
        sql: None,
        rule_mask: vec![],
    });
    q
}

fn bundles() -> Vec<ReproBundle> {
    let with_fault = ReproBundle {
        version: 1,
        target_label: "SelectIntoInnerJoin".to_string(),
        rule_mask: vec!["SelectIntoInnerJoin".to_string()],
        fault: Some("SelectMergedIntoOuterJoin".to_string()),
        seed: 3,
        db_seed: 0xC0FFEE,
        scale: 1,
        sql: "SELECT t0.a FROM t AS t0 WHERE t0.b = 'it''s'".to_string(),
        ops: 3,
        signature: "rules=[SelectIntoInnerJoin] delta=[..] diff=1e0".to_string(),
        duplicates: 2,
        diff_summary: "results differ: 1 missing, 0 extra".to_string(),
        base_plan: "Filter\n  NLJoin\n".to_string(),
        masked_plan: "NLJoin\n".to_string(),
    };
    let without = ReproBundle {
        fault: None,
        target_label: "A+B".to_string(),
        rule_mask: vec!["A".to_string(), "B".to_string()],
        ..with_fault.clone()
    };
    vec![with_fault, without]
}

// ---------------------------------------------------------------------
// The checks.

fn copy_dir(from: &Path, to: &Path) {
    fs::create_dir_all(to).unwrap();
    for f in fs::read_dir(from).unwrap() {
        let f = f.unwrap();
        fs::copy(f.path(), to.join(f.file_name())).unwrap();
    }
}

/// Asserts `dir` holds exactly the golden files of `rel` (byte for byte);
/// any other file the writer left must be empty (unused shards).
fn assert_dir_is_golden(dir: &Path, rel: &str) {
    let mut golden_names = Vec::new();
    for f in fs::read_dir(golden_dir().join(rel)).unwrap() {
        let name = f.unwrap().file_name().into_string().unwrap();
        let actual = fs::read_to_string(dir.join(&name)).unwrap();
        assert_golden(&actual, &format!("{rel}/{name}"));
        golden_names.push(name);
    }
    for f in fs::read_dir(dir).unwrap() {
        let f = f.unwrap();
        if !golden_names.contains(&f.file_name().into_string().unwrap()) {
            assert_eq!(f.metadata().unwrap().len(), 0, "{:?}", f.path());
        }
    }
}

/// Asserts the snapshot under `dir` answers every probe with `all`'s
/// entries, and holds nothing else.
fn assert_snapshot_holds(dir: &Path, all: &[Entry]) -> SnapshotStore {
    let store = SnapshotStore::open(dir, FINGERPRINT, None).unwrap();
    assert!(!store.rejected());
    for (i, e) in all.iter().enumerate() {
        let hit = store
            .peek_warm(&e.key, &Chaos::default())
            .unwrap_or_else(|| panic!("entry {i} is not warm"));
        assert!(same_value(&hit.value, &e.value), "entry {i} value");
        assert_eq!(hit.sample, e.sample, "entry {i} sample");
    }
    assert_eq!(store.resident_entries(), all.len());
    store
}

/// The three checks for the snapshot directory `rel` holding `all`.
fn check_snapshot(all: &[Entry], rel: &str) {
    // encode(value) == golden
    let fresh = temp_dir(&format!("{rel}-encode"));
    {
        let store = SnapshotStore::open(&fresh, FINGERPRINT, None).unwrap();
        for e in all {
            store.record_fresh(&e.key, &e.value, e.sample.as_ref(), &Chaos::default());
        }
        assert_eq!(store.save().unwrap(), all.len() as u64);
    }
    assert_dir_is_golden(&fresh.join("cache"), rel);

    // decode(golden) == value: the committed directory answers every probe.
    let copy = temp_dir(&format!("{rel}-decode"));
    copy_dir(&golden_dir().join(rel), &copy.join("cache"));
    let store = assert_snapshot_holds(&copy, all);

    // encode(decode(golden)) == golden. A save leaves unchanged shards
    // alone, so the decoded entries are written out through a fresh store.
    let again = temp_dir(&format!("{rel}-reencode"));
    {
        let rewritten = SnapshotStore::open(&again, FINGERPRINT, None).unwrap();
        for e in all {
            let hit = store.peek_warm(&e.key, &Chaos::default()).unwrap();
            rewritten.record_fresh(&e.key, &hit.value, hit.sample.as_ref(), &Chaos::default());
        }
        assert_eq!(rewritten.save().unwrap(), all.len() as u64);
    }
    assert_dir_is_golden(&again.join("cache"), rel);

    // Any other fingerprint rejects the snapshot wholesale.
    let other = SnapshotStore::open(&copy, FINGERPRINT + 1, None).unwrap();
    assert!(other.rejected());
    assert!(other.peek_warm(&all[0].key, &Chaos::default()).is_none());
    for dir in [fresh, copy, again] {
        let _ = fs::remove_dir_all(&dir);
    }
}

#[test]
fn shard_entries_and_manifest() {
    check_snapshot(&entries(), "cache");
    let shards = fs::read_dir(golden_dir().join("cache")).unwrap().count() - 1;
    assert_eq!(shards, 2, "the committed snapshot is a two-shard directory");
}

/// A search kept without its plan is its own line form: `"explored"` in
/// place of `"result"`, never a member named `truncated`.
#[test]
fn truncated_outcome_entries() {
    check_snapshot(&truncated_entries(), "cache_truncated");
    for f in fs::read_dir(golden_dir().join("cache_truncated")).unwrap() {
        let text = fs::read_to_string(f.unwrap().path()).unwrap();
        assert!(!text.contains("\"truncated\""), "{text}");
    }
    // The manifest is the full-result snapshot's, byte for byte.
    assert_eq!(
        golden("cache_truncated/MANIFEST.json"),
        golden("cache/MANIFEST.json")
    );
}

/// `cache_v2/` is the snapshot as format 2 wrote it (its manifest and the
/// shard whose five keys carry no hard cap), its keys carrying the search
/// budgets. Its manifest names the same fingerprint, but the format bump
/// rejects it whole: no line of it is read, let alone misread.
#[test]
fn format_2_snapshot_is_rejected_whole() {
    assert!(golden("cache_v2/MANIFEST.json").contains("\"format\": 2"));
    assert!(golden("cache_v2/shard-11.jsonl").contains("\"max_exprs\":3000"));
    let copy = temp_dir("cache-v2");
    copy_dir(&golden_dir().join("cache_v2"), &copy.join("cache"));
    let store = SnapshotStore::open(&copy, FINGERPRINT, None).unwrap();
    assert!(store.rejected());
    for (i, e) in entries().iter().enumerate() {
        assert!(
            store.peek_warm(&e.key, &Chaos::default()).is_none(),
            "entry {i}"
        );
    }
    assert_eq!(store.resident_entries(), 0);
    let _ = fs::remove_dir_all(&copy);
}

/// Read compatibility: `cache_with_boundary/` is the snapshot as written
/// before the stage-boundary stamp was retired — two thirds of its lines
/// end in `,"b":N`. It loads to the same entries, a save leaves its
/// unchanged shards byte for byte.
#[test]
fn snapshot_with_retired_boundary_stamps_still_loads() {
    let stamped = golden("cache_with_boundary/shard-3.jsonl");
    assert!(stamped.contains(",\"b\":2}"));
    for shard in ["shard-3.jsonl", "shard-5.jsonl"] {
        let unstamped: String = golden(&format!("cache_with_boundary/{shard}"))
            .lines()
            .map(|l| match l.rfind(",\"b\":") {
                Some(at) => format!("{}}}\n", &l[..at]),
                None => format!("{l}\n"),
            })
            .collect();
        assert_golden(&unstamped, &format!("cache/{shard}"));
    }
    let copy = temp_dir("cache-boundary");
    copy_dir(
        &golden_dir().join("cache_with_boundary"),
        &copy.join("cache"),
    );
    let all = entries();
    let store = assert_snapshot_holds(&copy, &all);
    assert_eq!(store.save().unwrap(), all.len() as u64);
    assert_dir_is_golden(&copy.join("cache"), "cache_with_boundary");
    let _ = fs::remove_dir_all(&copy);
}

#[test]
fn canonical_cache_keys() {
    let all = entries();
    // Entry 0 has no mask; entry 7 has one.
    let keys = [&all[0].key, &all[7].key];
    assert!(canonical_key(keys[0]).starts_with("{\"disabled\":[],\"tree\":"));
    assert!(canonical_key(keys[1]).starts_with("{\"disabled\":[2,7],\"tree\":"));
    let actual: String = keys.iter().map(|k| canonical_key(k) + "\n").collect();
    assert_golden(&actual, "cache_keys.txt");
    for (line, key) in golden("cache_keys.txt").lines().zip(keys) {
        // Content addressing: parsing and compact-printing is the identity.
        let parsed = Json::parse(line).unwrap();
        assert_eq!(parsed.to_string_compact(), line);
        assert_eq!(&from_str::<CacheKey>(line).unwrap(), key);
    }
}

#[test]
fn quarantine_checkpoint() {
    let open = |dir: &Path, p: &CampaignParams| CampaignStore::open(dir, FINGERPRINT, p);
    // encode(value) == golden
    let fresh = temp_dir("checkpoint-encode");
    let store = open(&fresh, &params()).unwrap();
    store.save_quarantine(&quarantine()).unwrap();
    assert_dir_is_golden(&fresh.join("checkpoint"), "checkpoint");

    // decode(golden) == value
    let copy = temp_dir("checkpoint-decode");
    copy_dir(&golden_dir().join("checkpoint"), &copy.join("checkpoint"));
    let store = open(&copy, &params()).unwrap();
    let loaded = store.load_quarantine();
    assert_eq!(loaded, quarantine());

    // encode(decode(golden)) == golden
    store.save_quarantine(&loaded).unwrap();
    assert_dir_is_golden(&copy.join("checkpoint"), "checkpoint");

    // The identity guard: another seed must not consume this file.
    let other = CampaignParams {
        seed: params().seed + 1,
        ..params()
    };
    let stranger = open(&copy, &other).unwrap();
    assert!(stranger.load_quarantine().is_empty());
    let _ = fs::remove_dir_all(&fresh);
    let _ = fs::remove_dir_all(&copy);
}

#[test]
fn repro_bundles() {
    let mut buf = Vec::new();
    write_bundles(&mut buf, &bundles()).unwrap();
    assert_golden(std::str::from_utf8(&buf).unwrap(), "bundles.jsonl");
    let back = read_bundles(golden("bundles.jsonl").as_bytes()).unwrap();
    assert_eq!(back, bundles());
    let mut again = Vec::new();
    write_bundles(&mut again, &back).unwrap();
    assert_golden(std::str::from_utf8(&again).unwrap(), "bundles.jsonl");
}

#[test]
fn run_report_document() {
    assert_golden(&to_pretty(&run_report()), "run_report.json");
    let back = RunReport::from_json(&golden("run_report.json")).unwrap();
    assert_eq!(back, run_report());
    assert_golden(&to_pretty(&back), "run_report.json");
}

/// The deterministic slice `ruletest` compares across thread counts.
#[test]
fn run_report_deterministic_slice() {
    let actual = run_report().deterministic_json() + "\n";
    assert_golden(&actual, "run_report_deterministic.json");
}

/// `ruletest diff --json`: a current report that moved a deterministic
/// counter and a rule firing, dropped a span and gained a counter and a
/// histogram, so the document carries both regressions and notes.
#[test]
fn diff_report_document() {
    let base = run_report();
    let mut cur = run_report();
    cur.counters.insert("generate.trials".to_string(), 41);
    cur.counters.insert("graph.edges_pruned".to_string(), 3);
    cur.rule_firings.insert("Rule \"C\"".to_string(), 2);
    cur.histograms
        .insert("graph.probes".to_string(), histogram(&[(2, 1)], 1, 3));
    cur.profile.spans.pop();
    let diff = diff_reports(&base, &cur, 25);
    assert!(!diff.regressions.is_empty() && !diff.notes.is_empty());
    assert_golden(&to_pretty(&diff), "diff_report.json");
}

/// The JSONL trace: one line per `Event` variant, with a fingerprint and a
/// count above 2^53 and a `site` that needs escapes.
#[test]
fn trace_lines() {
    let tracer = Tracer::new(64);
    for event in [
        Event::Invocation {
            fingerprint: u64::MAX - 1,
            masked_rules: 3,
            groups: 12,
            exprs: 40,
            truncated: true,
            elapsed_us: (1 << 53) + 1,
        },
        Event::CacheLookup {
            fingerprint: 1 << 53,
            hit: false,
        },
        Event::RuleFire {
            rule: 7,
            phase: RulePhase::Implement,
            produced: 2,
        },
        Event::GenOutcome {
            rule: 3,
            trials: 400,
            ops: 5,
            found: true,
        },
        Event::GraphProbe {
            target: 2,
            scanned: 9,
            pruned: 4,
        },
        Event::Validation {
            target: 1,
            query: 6,
            outcome: "bug",
        },
        Event::Supervised {
            kind: "panic",
            site: "exec.pair \"q\\7\"\n\t\u{1}".to_string(),
            fingerprint: 0xdead_beef_0bad_f00d,
        },
    ] {
        tracer.record(event);
    }
    let mut buf = Vec::new();
    tracer.export_jsonl(&mut buf).unwrap();
    assert_golden(std::str::from_utf8(&buf).unwrap(), "trace.jsonl");
}

// ---------------------------------------------------------------------
// Beyond the goldens: values the old number form rounded, and corruption.

/// `u64`s above 2^53 used to round through the `f64` number form, so two
/// seeds one apart shared a checkpoint identity and a suite did not record
/// the seed it was built from.
#[test]
fn seeds_above_2_pow_53_do_not_share_checkpoints() {
    use ruletest_core::{run_checkpointed_campaign, Framework, FrameworkConfig, GenConfig};
    let dir = temp_dir("big-seed");
    let run = |seed: u64, quarantine: &mut Quarantine| {
        let fw = Framework::new(&FrameworkConfig::default()).unwrap();
        let params = CampaignParams {
            rules: 3,
            k: 2,
            seed,
            pad_ops: 2,
            max_trials: GenConfig::default().max_trials,
        };
        run_checkpointed_campaign(&fw, &params, Some(&dir), true, Some(quarantine)).unwrap()
    };
    const SEED: u64 = (1 << 53) + 1;
    let first = run(SEED, &mut quarantine());
    let stamp = fs::read_to_string(dir.join("checkpoint/quarantine.json")).unwrap();
    assert!(stamp.contains("\"seed\":\"9007199254740993\""), "{stamp}");
    assert_eq!(first.compressed.suite.seed, SEED);
    // The same seed inherits the quarantine...
    let mut inherited = Quarantine::new();
    assert_eq!(run(SEED, &mut inherited).compressed.suite.seed, SEED);
    assert_eq!(inherited, quarantine());
    // ...while the neighbouring seed (what SEED used to round to) does not.
    let mut neighbour = Quarantine::new();
    assert_eq!(
        run(SEED - 1, &mut neighbour).compressed.suite.seed,
        SEED - 1
    );
    assert!(neighbour.is_empty(), "{neighbour:?}");
    let _ = fs::remove_dir_all(&dir);
}

/// A bundle replays from its own fields, so they must survive the file.
#[test]
fn bundle_seeds_survive_at_u64_max() {
    let mut big = bundles().remove(0);
    (big.seed, big.db_seed) = (u64::MAX, (1 << 53) + 1);
    let mut buf = Vec::new();
    write_bundles(&mut buf, std::slice::from_ref(&big)).unwrap();
    assert_eq!(read_bundles(&buf[..]).unwrap(), [big]);
}

/// Every prefix of `text`, and `text` with each single byte's low bit
/// flipped (the goldens are ASCII, so both stay valid UTF-8).
fn corruptions(text: &str) -> impl Iterator<Item = String> + '_ {
    let prefixes = (0..text.len()).map(|n| text[..n].to_string());
    let flips = (0..text.len()).map(|i| {
        let mut bytes = text.as_bytes().to_vec();
        bytes[i] ^= 1;
        String::from_utf8(bytes).expect("ASCII stays ASCII")
    });
    prefixes.chain(flips)
}

/// "Corrupt files degrade, never abort": every corruption of every golden
/// document decodes to an error or to some value — never a panic — through
/// the same entry points the campaign reads its files with.
#[test]
fn corrupt_documents_never_panic() {
    let dir = temp_dir("corrupt");
    // Shard lines: all corruptions of one line become one shard file, which
    // a full load (`save` loads every shard) must survive line by line.
    let cache = dir.join("cache");
    fs::create_dir_all(&cache).unwrap();
    fs::copy(
        golden_dir().join("cache/MANIFEST.json"),
        cache.join("MANIFEST.json"),
    )
    .unwrap();
    let truncated = fs::read_dir(golden_dir().join("cache_truncated"))
        .unwrap()
        .map(|f| f.unwrap().file_name().into_string().unwrap())
        .filter(|name| name.starts_with("shard-"))
        .map(|name| format!("cache_truncated/{name}"));
    let shards = ["cache/shard-3.jsonl", "cache/shard-5.jsonl"].map(String::from);
    for shard in shards.into_iter().chain(truncated) {
        for line in golden(&shard).lines() {
            let torn: Vec<String> = corruptions(line).collect();
            fs::write(cache.join("shard-0.jsonl"), torn.join("\n")).unwrap();
            let store = SnapshotStore::open(&dir, FINGERPRINT, None).unwrap();
            store.save().unwrap();
            assert!(store.resident_entries() < torn.len());
        }
    }
    for text in corruptions(&golden("cache/MANIFEST.json")) {
        fs::write(cache.join("MANIFEST.json"), text).unwrap();
        let _ = SnapshotStore::open(&dir, FINGERPRINT, None)
            .unwrap()
            .rejected();
    }
    // The quarantine, through the store that loads it on resume.
    let store = CampaignStore::open(&dir, FINGERPRINT, &params()).unwrap();
    for text in corruptions(&golden("checkpoint/quarantine.json")) {
        fs::write(dir.join("checkpoint/quarantine.json"), text).unwrap();
        let _ = store.load_quarantine();
    }
    for text in corruptions(&golden("bundles.jsonl")) {
        let _ = read_bundles(text.as_bytes());
    }
    for text in corruptions(&golden("run_report.json")) {
        let _ = RunReport::from_json(&text);
    }
    for text in corruptions(&golden("cache_keys.txt")) {
        let _ = from_str::<CacheKey>(&text);
    }
    let _ = fs::remove_dir_all(&dir);
}

//! Execution driver, resolution helpers, and the work budget.

use ruletest_common::chaos::Chaos;
use ruletest_common::{ColId, Error, Result, Row, Value};
use ruletest_expr::{Compiled, Expr};
use ruletest_optimizer::{PhysOp, PhysicalPlan};
use ruletest_storage::Database;
use std::borrow::Cow;
use std::cell::Cell;
use std::collections::BTreeSet;

/// Execution limits. Random queries can contain cross products; the budget
/// turns pathological plans into a clean error instead of an effective hang
/// (the test harness treats budget-exceeded queries as "too expensive" and
/// regenerates).
#[derive(Debug, Clone)]
pub struct ExecConfig {
    /// Cap on total work units (rows produced + join pairs examined).
    pub work_budget: u64,
    /// Cooperative wall-clock deadline, checked at batch boundaries
    /// (every [`BATCH_UNITS`] work units). Unarmed by default.
    pub deadline: ruletest_common::Deadline,
    /// The fault injector probed at the same batch boundaries
    /// (`exec.batch`): a framework's executions carry its campaign's
    /// handle. No plan by default.
    pub chaos: Chaos,
}

impl Default for ExecConfig {
    fn default() -> Self {
        Self {
            work_budget: 20_000_000,
            deadline: ruletest_common::Deadline::none(),
            chaos: Chaos::default(),
        }
    }
}

/// Work units between cooperative deadline checks and chaos probes. Large
/// enough that the hot charge path stays a couple of integer ops, small
/// enough that a stuck operator is abandoned within milliseconds of the
/// deadline passing.
pub const BATCH_UNITS: u64 = 1024;

/// An executed result: rows positionally aligned with the plan's schema.
pub type ResultSet = Vec<Row>;

/// A row in flight between operators: borrowed from the [`Database`] for as
/// long as no operator had to build it (scans, filters, distinct, sorts,
/// semi/anti joins pass the handle through), owned once one did (compute,
/// concat, the rows of a join, aggregate output).
pub(crate) type RowRef<'a> = Cow<'a, [Value]>;

/// An opened operator: pulling it runs the subtree one row at a time.
pub(crate) type RowIter<'a> = Box<dyn Iterator<Item = Result<RowRef<'a>>> + 'a>;

/// The columns a parent reads from an operator's output.
pub(crate) type Need = BTreeSet<ColId>;

/// The column at each position of the rows an opened operator emits: its
/// whole schema, or (an inner or outer join) the needed part of it.
pub(crate) type Layout = Vec<ColId>;

/// An opened operator and the layout of its rows.
pub(crate) type Opened<'a> = (RowIter<'a>, Layout);

/// Per-execution state shared by every opened operator of one plan; the
/// counters sit in `Cell`s because nested iterators all hold `&Ctx`.
pub(crate) struct Ctx<'a> {
    pub db: &'a Database,
    remaining: Cell<u64>,
    deadline: ruletest_common::Deadline,
    chaos: &'a Chaos,
    /// Work units charged since the last batch-boundary check.
    since_check: Cell<u64>,
}

impl<'a> Ctx<'a> {
    pub fn new(db: &'a Database, config: &'a ExecConfig) -> Self {
        Ctx {
            db,
            remaining: Cell::new(config.work_budget),
            // Re-armed per execution: a deadline parsed from the CLI at
            // process start becomes a budget for *this* run, not a fuse
            // that burned down during earlier campaign stages.
            deadline: config.deadline.rearm(),
            chaos: &config.chaos,
            since_check: Cell::new(0),
        }
    }

    /// Charges `n` work units, failing when the budget runs out. Every
    /// [`BATCH_UNITS`] charged units this also probes the `exec.batch`
    /// chaos site and checks the cooperative deadline, so a pathological
    /// plan is abandoned with [`Error::Timeout`] instead of hanging.
    pub fn charge(&self, n: u64) -> Result<()> {
        let remaining = self.remaining.get();
        if remaining < n {
            return Err(Error::budget("execution work budget exceeded"));
        }
        self.remaining.set(remaining - n);
        let since_check = self.since_check.get() + n;
        if since_check >= BATCH_UNITS {
            self.since_check.set(0);
            self.chaos.point("exec.batch")?;
            self.deadline.check("executor batch")?;
        } else {
            self.since_check.set(since_check);
        }
        Ok(())
    }
}

/// The end of a chain of row or group indices.
pub(crate) const NONE: usize = usize::MAX;

/// The column ids of `plan`'s schema, in order.
pub(crate) fn schema_ids(plan: &PhysicalPlan) -> Layout {
    plan.schema.iter().map(|c| c.id).collect()
}

/// The position of `c` in `layout` (its last one, should a column repeat:
/// a repeated column holds the same value at every position).
pub(crate) fn position(layout: &[ColId], c: ColId) -> usize {
    layout
        .iter()
        .rposition(|&x| x == c)
        .unwrap_or_else(|| panic!("unresolved column {c}"))
}

/// `expr` with each column resolved to its position in `layout`, compiled
/// once, at open: a position below `split` reads the first row, any other
/// the second (one row's layout passes its own length).
pub(crate) fn bind(expr: &Expr, layout: &[ColId], split: usize) -> Compiled {
    let positional = ruletest_expr::rewrite_columns(expr, &mut |c| {
        Some(Expr::col(ColId(position(layout, c) as u32)))
    });
    ruletest_expr::compile(&positional, split)
}

/// Executes a plan with the default budget.
pub fn execute(db: &Database, plan: &PhysicalPlan) -> Result<ResultSet> {
    execute_with(db, plan, &ExecConfig::default())
}

/// Executes a plan under an explicit budget.
pub fn execute_with(db: &Database, plan: &PhysicalPlan, config: &ExecConfig) -> Result<ResultSet> {
    let ctx = Ctx::new(db, config);
    let schema = schema_ids(plan);
    let (rows, layout) = open(&ctx, plan, &schema.iter().copied().collect())?;
    assert_eq!(layout, schema, "the root's rows must be its whole schema");
    // The only place a borrowed row is copied: the rows actually returned.
    let rows: ResultSet = rows
        .map(|row| row.map(Cow::into_owned))
        .collect::<Result<_>>()?;
    debug_assert!(
        rows.iter().all(|r| r.len() == plan.schema.len()),
        "executor produced rows not matching the plan schema"
    );
    Ok(rows)
}

/// Executes a plan under an explicit budget inside a [`Stage::Execution`]
/// profiling span, so executor wall time shows up under the enclosing
/// campaign stage in the run report's profile section.
pub fn execute_profiled(
    db: &Database,
    plan: &PhysicalPlan,
    config: &ExecConfig,
    tel: &ruletest_telemetry::Telemetry,
) -> Result<ResultSet> {
    let _span = tel.span(ruletest_telemetry::Stage::Execution);
    execute_with(db, plan, config)
}

/// Opens the operator tree under `plan`, whose parent reads the columns in
/// `need`, and binds it: every column an operator reads is resolved to a
/// position here, once. Children are opened left then right; an operator
/// that must see all of an input before it can emit (join build side,
/// merge join, sort, top-n, aggregation) drains that input here,
/// everything else is pulled row by row by the caller.
pub(crate) fn open<'a>(
    ctx: &'a Ctx<'a>,
    plan: &'a PhysicalPlan,
    need: &Need,
) -> Result<Opened<'a>> {
    match &plan.op {
        PhysOp::SeqScan { .. } | PhysOp::IndexSeek { .. } => crate::ops_scan::open(ctx, plan),
        PhysOp::Filter { .. }
        | PhysOp::Compute { .. }
        | PhysOp::Concat { .. }
        | PhysOp::HashDistinct
        | PhysOp::SortOp { .. }
        | PhysOp::TopN { .. } => crate::ops_misc::open(ctx, plan, need),
        PhysOp::NLJoin { .. } | PhysOp::HashJoin { .. } | PhysOp::MergeJoin { .. } => {
            crate::ops_join::open(ctx, plan, need)
        }
        PhysOp::HashAgg { .. } | PhysOp::StreamAgg { .. } => crate::ops_agg::open(ctx, plan),
    }
}

/// `child`, charging one work unit per row pulled from it.
pub(crate) fn charged<'a>(
    ctx: &'a Ctx<'a>,
    child: RowIter<'a>,
) -> impl Iterator<Item = Result<RowRef<'a>>> + 'a {
    child.map(move |row| {
        let row = row?;
        ctx.charge(1)?;
        Ok(row)
    })
}

#[cfg(test)]
pub(crate) mod testkit {
    //! Shared fixtures for executor unit tests: a tiny two-table database
    //! and helpers to construct physical plans by hand.

    use super::*;
    use ruletest_common::{DataType, TableId};
    use ruletest_logical::{ColumnInfo, Schema};
    use ruletest_storage::{Catalog, ColumnDef, TableDef};

    /// t0(a INT PK, b STR nullable), t1(x INT PK, y INT nullable)
    pub fn tiny_db() -> Database {
        let mut cat = Catalog::new();
        cat.add_table(TableDef {
            id: TableId(0),
            name: "t0".into(),
            columns: vec![
                ColumnDef::new("a", DataType::Int, false),
                ColumnDef::new("b", DataType::Str, true),
            ],
            primary_key: vec![0],
            unique_keys: vec![],
            foreign_keys: vec![],
        })
        .unwrap();
        cat.add_table(TableDef {
            id: TableId(1),
            name: "t1".into(),
            columns: vec![
                ColumnDef::new("x", DataType::Int, false),
                ColumnDef::new("y", DataType::Int, true),
            ],
            primary_key: vec![0],
            unique_keys: vec![],
            foreign_keys: vec![],
        })
        .unwrap();
        let mut db = Database::new(cat);
        db.load_table(
            TableId(0),
            vec![
                vec![Value::Int(1), Value::Str("one".into())],
                vec![Value::Int(2), Value::Null],
                vec![Value::Int(3), Value::Str("three".into())],
            ],
        )
        .unwrap();
        db.load_table(
            TableId(1),
            vec![
                vec![Value::Int(1), Value::Int(10)],
                vec![Value::Int(2), Value::Null],
                vec![Value::Int(4), Value::Int(40)],
            ],
        )
        .unwrap();
        db
    }

    pub fn int_col(id: u32) -> ColumnInfo {
        ColumnInfo {
            id: ColId(id),
            data_type: DataType::Int,
            nullable: true,
        }
    }

    pub fn str_col(id: u32) -> ColumnInfo {
        ColumnInfo {
            id: ColId(id),
            data_type: DataType::Str,
            nullable: true,
        }
    }

    pub fn plan(op: PhysOp, children: Vec<PhysicalPlan>, schema: Schema) -> PhysicalPlan {
        PhysicalPlan {
            op,
            children,
            schema,
            est_rows: 1.0,
            est_cost: 1.0,
        }
    }

    /// Scan of t0 with column ids 0,1.
    pub fn scan_t0() -> PhysicalPlan {
        plan(
            PhysOp::SeqScan {
                table: TableId(0),
                cols: vec![ColId(0), ColId(1)],
            },
            vec![],
            vec![int_col(0), str_col(1)],
        )
    }

    /// Scan of t1 with column ids 2,3.
    pub fn scan_t1() -> PhysicalPlan {
        plan(
            PhysOp::SeqScan {
                table: TableId(1),
                cols: vec![ColId(2), ColId(3)],
            },
            vec![],
            vec![int_col(2), int_col(3)],
        )
    }
}

#[cfg(test)]
mod tests {
    use super::testkit::*;
    use super::*;

    #[test]
    fn budget_exhaustion_is_a_clean_error() {
        let db = tiny_db();
        let plan = scan_t0();
        let err = execute_with(
            &db,
            &plan,
            &ExecConfig {
                work_budget: 1,
                ..Default::default()
            },
        );
        assert!(matches!(err, Err(Error::Budget(_))));
    }

    #[test]
    fn expired_deadline_abandons_execution_at_a_batch_boundary() {
        let db = tiny_db();
        let config = ExecConfig {
            work_budget: u64::MAX,
            deadline: ruletest_common::Deadline::after_ms(1),
            ..ExecConfig::default()
        };
        let ctx = Ctx::new(&db, &config);
        while !ctx.deadline.expired() {
            std::thread::yield_now();
        }
        // Under a full batch no check fires; crossing the boundary does.
        assert!(ctx.charge(BATCH_UNITS - 1).is_ok());
        let err = ctx.charge(BATCH_UNITS);
        assert!(matches!(err, Err(Error::Timeout(_))), "got {err:?}");
    }

    #[test]
    fn chaos_stall_at_the_exec_batch_site_is_a_timeout_error() {
        let db = tiny_db();
        let plan = ruletest_common::chaos::ChaosPlan::parse("exec.batch:stall@1").unwrap();
        let config = ExecConfig {
            work_budget: u64::MAX,
            chaos: Chaos::new(plan),
            ..ExecConfig::default()
        };
        let ctx = Ctx::new(&db, &config);
        let err = ctx.charge(BATCH_UNITS);
        assert_eq!(config.chaos.stats().stalls, 1);
        match err {
            Err(Error::Timeout(m)) => assert!(m.contains("chaos"), "unexpected message: {m}"),
            other => panic!("expected injected stall, got {other:?}"),
        }
    }

    /// One plan per operator with the work units it charges on `tiny_db`
    /// (3 + 3 rows), counted by hand from the accounting rules in DESIGN
    /// §16: the budget is exact, one unit less fails.
    #[test]
    fn each_operator_charges_exactly_its_minimum_budget() {
        use ruletest_common::{ColId, TableId};
        use ruletest_expr::{AggCall, AggFunc, Expr};
        use ruletest_logical::{JoinKind, SortKey};

        let eq = || Expr::eq(Expr::col(ColId(0)), Expr::col(ColId(2)));
        let joined = || vec![int_col(0), str_col(1), int_col(2), int_col(3)];
        let unary = |op: PhysOp| plan(op, vec![scan_t1()], vec![int_col(2), int_col(3)]);
        let count = || vec![AggCall::new(AggFunc::CountStar, None, ColId(10))];
        let cases: Vec<(PhysicalPlan, u64)> = vec![
            (scan_t0(), 3),
            (
                plan(
                    PhysOp::IndexSeek {
                        table: TableId(0),
                        cols: vec![ColId(0), ColId(1)],
                        key: Value::Int(2),
                        residual: Expr::true_lit(),
                    },
                    vec![],
                    vec![int_col(0), str_col(1)],
                ),
                1,
            ),
            // scan 3, open 1, 3 rows pulled
            (
                unary(PhysOp::Filter {
                    predicate: Expr::lit(false),
                }),
                7,
            ),
            (
                plan(
                    PhysOp::Compute {
                        outputs: vec![(ColId(10), Expr::col(ColId(2)))],
                    },
                    vec![scan_t1()],
                    vec![int_col(10)],
                ),
                7,
            ),
            // scans 6, open 1, 6 rows pulled
            (
                plan(
                    PhysOp::Concat {
                        outputs: vec![ColId(20)],
                        left_cols: vec![ColId(0)],
                        right_cols: vec![ColId(3)],
                    },
                    vec![scan_t0(), scan_t1()],
                    vec![int_col(20)],
                ),
                13,
            ),
            (unary(PhysOp::HashDistinct), 7),
            (
                unary(PhysOp::SortOp {
                    keys: vec![SortKey::asc(ColId(3))],
                }),
                7,
            ),
            (
                unary(PhysOp::TopN {
                    n: 1,
                    keys: vec![SortKey::asc(ColId(2))],
                }),
                7,
            ),
            // scans 6, (3 + 1) per left row, 2 rows out
            (
                plan(
                    PhysOp::NLJoin {
                        kind: JoinKind::Inner,
                        predicate: eq(),
                    },
                    vec![scan_t0(), scan_t1()],
                    joined(),
                ),
                20,
            ),
            // scans 6, build 3, 3 left rows + 2 key matches, 2 rows out
            (
                plan(
                    PhysOp::HashJoin {
                        kind: JoinKind::Inner,
                        left_keys: vec![ColId(0)],
                        right_keys: vec![ColId(2)],
                        residual: Expr::true_lit(),
                    },
                    vec![scan_t0(), scan_t1()],
                    joined(),
                ),
                16,
            ),
            // scans 6, sort 6, 3 merge steps + 2 run crossings, 2 rows out
            (
                plan(
                    PhysOp::MergeJoin {
                        left_key: ColId(0),
                        right_key: ColId(2),
                        residual: Expr::true_lit(),
                    },
                    vec![scan_t0(), scan_t1()],
                    joined(),
                ),
                19,
            ),
            // scan 3, open 1, 3 rows pulled, 3 groups out
            (
                plan(
                    PhysOp::HashAgg {
                        group_by: vec![ColId(3)],
                        aggs: count(),
                    },
                    vec![scan_t1()],
                    vec![int_col(3), int_col(10)],
                ),
                10,
            ),
            (
                plan(
                    PhysOp::StreamAgg {
                        group_by: vec![ColId(3)],
                        aggs: count(),
                    },
                    vec![scan_t1()],
                    vec![int_col(3), int_col(10)],
                ),
                10,
            ),
        ];
        let db = tiny_db();
        for (plan, min) in cases {
            let run = |work_budget| {
                let config = ExecConfig {
                    work_budget,
                    ..Default::default()
                };
                execute_with(&db, &plan, &config)
            };
            let name = plan.op.name();
            assert!(run(min).is_ok(), "{name} fails under {min}");
            assert!(
                matches!(run(min - 1), Err(Error::Budget(_))),
                "{name} does not charge {min}"
            );
        }
    }

    #[test]
    fn seq_scan_returns_all_rows() {
        let db = tiny_db();
        let rows = execute(&db, &scan_t0()).unwrap();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0][0], Value::Int(1));
    }
}

//! Join operators: nested loops (all kinds), hash join (all kinds), and
//! sort-merge join (inner).
//!
//! All three implement identical join *semantics* — only the algorithm
//! differs — which is precisely what correctness testing of implementation
//! rules verifies. The shared semantics: a pair matches iff the full ON
//! predicate evaluates to TRUE over the pair; outer kinds pad unmatched
//! preserved rows with NULLs; semi/anti emit the bare left row.
//!
//! The predicate is evaluated over the two rows where they lie; a row is
//! built only for a pair that is emitted, and only from the columns the
//! join's parent reads.

use crate::context::{
    bind, charged, open as open_child, position, schema_ids, Ctx, Layout, Need, Opened, RowIter,
    RowRef, NONE,
};
use ruletest_common::{Error, Result, Value, WordBuild, WordHasher};
use ruletest_expr::{collect_columns, Compiled, Expr};
use ruletest_logical::JoinKind;
use ruletest_optimizer::{PhysOp, PhysicalPlan};
use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

/// Opens a join. Both inputs are asked for what the parent reads plus
/// what the ON predicate and keys read. An inner or outer join emits
/// only the needed columns of its schema, in schema order; a semi or anti
/// join emits its left input's handles, in their layout.
pub(crate) fn open<'a>(
    ctx: &'a Ctx<'a>,
    plan: &'a PhysicalPlan,
    need: &Need,
) -> Result<Opened<'a>> {
    let (lplan, rplan) = (&plan.children[0], &plan.children[1]);
    let (kind, predicate, keys) = match &plan.op {
        PhysOp::NLJoin { kind, predicate } => (*kind, predicate, vec![]),
        PhysOp::HashJoin {
            kind,
            left_keys,
            right_keys,
            residual,
        } => (*kind, residual, [&left_keys[..], right_keys].concat()),
        PhysOp::MergeJoin {
            left_key,
            right_key,
            residual,
        } => (JoinKind::Inner, residual, vec![*left_key, *right_key]),
        other => {
            return Err(Error::internal(format!(
                "join executor got {}",
                other.name()
            )))
        }
    };
    let mut reads = need.clone();
    reads.extend(keys);
    collect_columns(predicate, &mut reads);
    let (left, llayout) = open_child(ctx, lplan, &reads)?;
    let (right, rlayout) = open_child(ctx, rplan, &reads)?;
    let layout: Layout = if kind.emits_both_sides() {
        let mut ids = schema_ids(plan);
        ids.retain(|c| need.contains(c));
        ids
    } else {
        llayout.clone()
    };
    let pair = JoinPair::new(predicate, &llayout, &rlayout, &layout);
    let (right, index) = match &plan.op {
        PhysOp::HashJoin {
            left_keys,
            right_keys,
            ..
        } => {
            let right: Vec<RowRef<'a>> = charged(ctx, right).collect::<Result<_>>()?;
            let index = HashIndex::build(
                &right,
                left_keys.iter().map(|&c| position(&llayout, c)).collect(),
                right_keys.iter().map(|&c| position(&rlayout, c)).collect(),
            );
            (right, Some(index))
        }
        PhysOp::MergeJoin {
            left_key,
            right_key,
            ..
        } => {
            let (li, ri) = (
                position(&llayout, *left_key),
                position(&rlayout, *right_key),
            );
            // NULL keys never join (inner): drop them before sorting.
            let non_null = |rows: RowIter<'a>, key: usize| -> Result<Vec<RowRef<'a>>> {
                rows.filter(|row| !matches!(row, Ok(row) if row[key].is_null()))
                    .collect()
            };
            let mut left = non_null(left, li)?;
            let mut right = non_null(right, ri)?;
            ctx.charge((left.len() + right.len()) as u64)?;
            left.sort_by(|a, b| a[li].total_cmp(&b[li]));
            right.sort_by(|a, b| a[ri].total_cmp(&b[ri]));
            let merge = Merge {
                ctx,
                pair,
                left,
                right,
                li,
                ri,
                i: 0,
                j: 0,
                run: None,
            };
            return Ok((Box::new(merge), layout));
        }
        _ => (right.collect::<Result<Vec<_>>>()?, None),
    };
    let probe = Probe {
        ctx,
        kind,
        pair,
        left,
        right_matched: vec![false; right.len()],
        right,
        index,
        current: None,
        unmatched_from: 0,
    };
    Ok((Box::new(probe), layout))
}

/// A join bound to its inputs' layouts side by side: a position below
/// `lwidth` is in the left row, any other in the right row, shifted by
/// `lwidth`. It judges a candidate pair where its two rows lie, and builds
/// the row of an emitted pair, or of a preserved row padded with NULLs,
/// from the output layout's columns only.
struct JoinPair {
    /// The ON/residual predicate, `None` when it is TRUE.
    predicate: Option<Compiled>,
    /// The position of each output column.
    out: Vec<usize>,
    lwidth: usize,
}

impl JoinPair {
    fn new(predicate: &Expr, llayout: &Layout, rlayout: &Layout, out: &Layout) -> Self {
        let both: Layout = llayout.iter().chain(rlayout).copied().collect();
        JoinPair {
            predicate: (!predicate.is_true_lit()).then(|| bind(predicate, &both, llayout.len())),
            out: out.iter().map(|&c| position(&both, c)).collect(),
            lwidth: llayout.len(),
        }
    }

    fn accepts(&self, left: &[Value], right: &[Value]) -> bool {
        self.predicate.as_ref().is_none_or(|p| p.holds(left, right))
    }

    /// The output row of `left` and `right`, NULL for the side that is
    /// `None`.
    fn build<'a>(&self, left: Option<&[Value]>, right: Option<&[Value]>) -> RowRef<'a> {
        let value = |&p: &usize| {
            let (side, p) = match p.checked_sub(self.lwidth) {
                None => (left, p),
                Some(p) => (right, p),
            };
            side.map_or(Value::Null, |row| row[p].clone())
        };
        Cow::Owned(self.out.iter().map(value).collect())
    }
}

/// Hash join's build side: right-row indices chained per key hash in
/// insertion order, so candidates come out in right-input order. Rows with
/// a NULL key are in no chain (SQL equality: NULL keys never match).
struct HashIndex {
    /// Key hash -> (first, last) right row of its chain.
    chains: HashMap<u64, (usize, usize), WordBuild>,
    /// Next right row of the same chain, or [`NONE`].
    next: Vec<usize>,
    lpos: Vec<usize>,
    rpos: Vec<usize>,
}

/// Hash of the key values of `row`, `None` when one is NULL.
fn key_hash(row: &[Value], positions: &[usize]) -> Option<u64> {
    let mut h = WordHasher::default();
    for &p in positions {
        if row[p].is_null() {
            return None;
        }
        row[p].hash(&mut h);
    }
    Some(h.finish())
}

impl HashIndex {
    fn build(right: &[RowRef], lpos: Vec<usize>, rpos: Vec<usize>) -> Self {
        let mut chains: HashMap<u64, (usize, usize), WordBuild> = HashMap::default();
        let mut next = vec![NONE; right.len()];
        for (ri, row) in right.iter().enumerate() {
            if let Some(h) = key_hash(row, &rpos) {
                chains
                    .entry(h)
                    .and_modify(|(_, last)| {
                        next[*last] = ri;
                        *last = ri;
                    })
                    .or_insert((ri, ri));
            }
        }
        HashIndex {
            chains,
            next,
            lpos,
            rpos,
        }
    }

    /// The first right row at or after `ri` in its chain whose key equals
    /// `left`'s (a chain holds every key that hashes alike).
    fn matching(&self, right: &[RowRef], left: &[Value], mut ri: usize) -> usize {
        while ri != NONE {
            let row = &right[ri];
            if self
                .lpos
                .iter()
                .zip(&self.rpos)
                .all(|(&l, &r)| left[l] == row[r])
            {
                break;
            }
            ri = self.next[ri];
        }
        ri
    }

    fn first(&self, right: &[RowRef], left: &[Value]) -> usize {
        let head = key_hash(left, &self.lpos).and_then(|h| self.chains.get(&h));
        head.map_or(NONE, |&(first, _)| self.matching(right, left, first))
    }

    fn after(&self, right: &[RowRef], left: &[Value], ri: usize) -> usize {
        self.matching(right, left, self.next[ri])
    }
}

/// The left row being probed and where its scan of the right side stands.
struct Current<'a> {
    left: RowRef<'a>,
    /// Next right row to examine, or [`NONE`].
    candidate: usize,
    matched: bool,
}

/// The probe phase of nested-loops and hash join: pulls left rows one at a
/// time against the materialised right side. With an `index` the candidates
/// of a left row are its key matches, without one every right row.
struct Probe<'a> {
    ctx: &'a Ctx<'a>,
    kind: JoinKind,
    pair: JoinPair,
    left: RowIter<'a>,
    right: Vec<RowRef<'a>>,
    index: Option<HashIndex>,
    right_matched: Vec<bool>,
    current: Option<Current<'a>>,
    /// Once the left side is exhausted: the next right row to consider for
    /// null-padded emission (right/full outer).
    unmatched_from: usize,
}

impl<'a> Probe<'a> {
    /// Pulls the next left row and charges for its probe: nested loops
    /// pays for the whole right side up front, hash join per candidate.
    fn next_left(&mut self) -> Result<Option<Current<'a>>> {
        let Some(left) = self.left.next().transpose()? else {
            return Ok(None);
        };
        let candidate = match &self.index {
            None => {
                self.ctx.charge(self.right.len() as u64 + 1)?;
                if self.right.is_empty() {
                    NONE
                } else {
                    0
                }
            }
            Some(index) => {
                self.ctx.charge(1)?;
                index.first(&self.right, &left)
            }
        };
        Ok(Some(Current {
            left,
            candidate,
            matched: false,
        }))
    }

    /// One step of the probe: pull a left row, examine one candidate, settle
    /// a left row whose candidates are exhausted, or (left side exhausted)
    /// find the next unmatched right row.
    fn step(&mut self) -> Result<Step<'a>> {
        let Some(cur) = &mut self.current else {
            self.current = self.next_left()?;
            if self.current.is_some() {
                return Ok(Step::Continue);
            }
            // Left side exhausted: unmatched right rows, in right order.
            if self.kind.preserves_right() {
                while self.unmatched_from < self.right.len() {
                    let ri = self.unmatched_from;
                    self.unmatched_from += 1;
                    if !self.right_matched[ri] {
                        return Ok(Step::Emit(self.pair.build(None, Some(&self.right[ri]))));
                    }
                }
            }
            return Ok(Step::Done);
        };
        if cur.candidate == NONE {
            // Right side scanned: what an unmatched left row is owed.
            let cur = self.current.take().expect("checked above");
            return Ok(match self.kind {
                JoinKind::LeftOuter | JoinKind::FullOuter if !cur.matched => {
                    Step::Emit(self.pair.build(Some(&cur.left), None))
                }
                JoinKind::LeftAnti if !cur.matched => Step::Emit(cur.left),
                _ => Step::Continue,
            });
        }
        let ri = cur.candidate;
        if self.index.is_some() {
            self.ctx.charge(1)?; // per key match examined
        }
        let accepted = self.pair.accepts(&cur.left, &self.right[ri]);
        if accepted {
            self.right_matched[ri] = true;
            match self.kind {
                // Semi: one match suffices; the left handle goes out as it came.
                JoinKind::LeftSemi => {
                    let cur = self.current.take().expect("checked above");
                    return Ok(Step::Emit(cur.left));
                }
                // Anti: any match disqualifies.
                JoinKind::LeftAnti => {
                    self.current = None;
                    return Ok(Step::Continue);
                }
                _ => cur.matched = true,
            }
        }
        cur.candidate = match &self.index {
            None if ri + 1 < self.right.len() => ri + 1,
            None => NONE,
            Some(index) => index.after(&self.right, &cur.left, ri),
        };
        Ok(if accepted {
            Step::Emit(self.pair.build(Some(&cur.left), Some(&self.right[ri])))
        } else {
            Step::Continue
        })
    }
}

/// What one step of a join's state machine did.
enum Step<'a> {
    Emit(RowRef<'a>),
    Continue,
    Done,
}

/// Steps a join until it emits (one unit charged per emitted row) or ends.
fn pull<'a>(
    ctx: &Ctx<'_>,
    mut step: impl FnMut() -> Result<Step<'a>>,
) -> Option<Result<RowRef<'a>>> {
    loop {
        match step() {
            Ok(Step::Emit(row)) => return Some(ctx.charge(1).map(|()| row)),
            Ok(Step::Continue) => {}
            Ok(Step::Done) => return None,
            Err(e) => return Some(Err(e)),
        }
    }
}

impl<'a> Iterator for Probe<'a> {
    type Item = Result<RowRef<'a>>;

    fn next(&mut self) -> Option<Self::Item> {
        pull(self.ctx, || self.step())
    }
}

/// An equal-key run on both sides of a merge join being crossed:
/// `left[l]` against `right[r..jend]`, then the next left row of the run.
struct Run {
    iend: usize,
    jstart: usize,
    jend: usize,
    l: usize,
    r: usize,
}

/// Sort-merge join over both inputs sorted by their key.
struct Merge<'a> {
    ctx: &'a Ctx<'a>,
    pair: JoinPair,
    left: Vec<RowRef<'a>>,
    right: Vec<RowRef<'a>>,
    li: usize,
    ri: usize,
    i: usize,
    j: usize,
    run: Option<Run>,
}

impl<'a> Merge<'a> {
    fn step(&mut self) -> Result<Step<'a>> {
        let (left, right, li, ri) = (&self.left, &self.right, self.li, self.ri);
        if let Some(run) = &mut self.run {
            if run.l == run.iend {
                self.run = None;
                return Ok(Step::Continue);
            }
            if run.r == run.jstart {
                self.ctx.charge((run.jend - run.jstart) as u64)?;
            }
            let (l, r) = (run.l, run.r);
            run.r += 1;
            if run.r == run.jend {
                run.l += 1;
                run.r = run.jstart;
            }
            return Ok(if self.pair.accepts(&left[l], &right[r]) {
                Step::Emit(self.pair.build(Some(&left[l]), Some(&right[r])))
            } else {
                Step::Continue
            });
        }
        if self.i >= left.len() || self.j >= right.len() {
            return Ok(Step::Done);
        }
        self.ctx.charge(1)?;
        match left[self.i][li].total_cmp(&right[self.j][ri]) {
            Ordering::Less => self.i += 1,
            Ordering::Greater => self.j += 1,
            Ordering::Equal => {
                // Find the equal runs; the steps above cross them.
                let key = &left[self.i][li];
                let (istart, jstart) = (self.i, self.j);
                while self.i < left.len() && left[self.i][li] == *key {
                    self.i += 1;
                }
                while self.j < right.len() && right[self.j][ri] == *key {
                    self.j += 1;
                }
                self.run = Some(Run {
                    iend: self.i,
                    jstart,
                    jend: self.j,
                    l: istart,
                    r: jstart,
                });
            }
        }
        Ok(Step::Continue)
    }
}

impl<'a> Iterator for Merge<'a> {
    type Item = Result<RowRef<'a>>;

    fn next(&mut self) -> Option<Self::Item> {
        pull(self.ctx, || self.step())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::execute;
    use crate::context::testkit::*;
    use ruletest_common::{multisets_equal, ColId};

    fn join_schema() -> Vec<ruletest_logical::ColumnInfo> {
        vec![int_col(0), str_col(1), int_col(2), int_col(3)]
    }

    fn eq_pred() -> Expr {
        Expr::eq(Expr::col(ColId(0)), Expr::col(ColId(2)))
    }

    fn nl(kind: JoinKind) -> ruletest_optimizer::PhysicalPlan {
        let schema = match kind {
            JoinKind::LeftSemi | JoinKind::LeftAnti => vec![int_col(0), str_col(1)],
            _ => join_schema(),
        };
        plan(
            PhysOp::NLJoin {
                kind,
                predicate: eq_pred(),
            },
            vec![scan_t0(), scan_t1()],
            schema,
        )
    }

    fn hash(kind: JoinKind) -> ruletest_optimizer::PhysicalPlan {
        let schema = match kind {
            JoinKind::LeftSemi | JoinKind::LeftAnti => vec![int_col(0), str_col(1)],
            _ => join_schema(),
        };
        plan(
            PhysOp::HashJoin {
                kind,
                left_keys: vec![ColId(0)],
                right_keys: vec![ColId(2)],
                residual: Expr::true_lit(),
            },
            vec![scan_t0(), scan_t1()],
            schema,
        )
    }

    // t0: a=1,2,3  t1: x=1,2,4 — inner matches a∈{1,2}.

    #[test]
    fn inner_join_all_algorithms_agree() {
        let db = tiny_db();
        let nl_rows = execute(&db, &nl(JoinKind::Inner)).unwrap();
        assert_eq!(nl_rows.len(), 2);
        let hash_rows = execute(&db, &hash(JoinKind::Inner)).unwrap();
        assert!(multisets_equal(&nl_rows, &hash_rows));
        let merge = plan(
            PhysOp::MergeJoin {
                left_key: ColId(0),
                right_key: ColId(2),
                residual: Expr::true_lit(),
            },
            vec![scan_t0(), scan_t1()],
            join_schema(),
        );
        let merge_rows = execute(&db, &merge).unwrap();
        assert!(multisets_equal(&nl_rows, &merge_rows));
    }

    #[test]
    fn left_outer_pads_unmatched_left() {
        let db = tiny_db();
        for p in [nl(JoinKind::LeftOuter), hash(JoinKind::LeftOuter)] {
            let rows = execute(&db, &p).unwrap();
            assert_eq!(rows.len(), 3);
            let padded: Vec<_> = rows
                .iter()
                .filter(|r| r[2].is_null() && r[3].is_null())
                .collect();
            assert_eq!(padded.len(), 1);
            assert_eq!(padded[0][0], Value::Int(3));
        }
    }

    #[test]
    fn right_outer_pads_unmatched_right() {
        let db = tiny_db();
        for p in [nl(JoinKind::RightOuter), hash(JoinKind::RightOuter)] {
            let rows = execute(&db, &p).unwrap();
            assert_eq!(rows.len(), 3);
            let padded: Vec<_> = rows.iter().filter(|r| r[0].is_null()).collect();
            assert_eq!(padded.len(), 1);
            assert_eq!(padded[0][2], Value::Int(4));
        }
    }

    #[test]
    fn full_outer_pads_both() {
        let db = tiny_db();
        for p in [nl(JoinKind::FullOuter), hash(JoinKind::FullOuter)] {
            let rows = execute(&db, &p).unwrap();
            assert_eq!(rows.len(), 4, "2 matches + 1 left pad + 1 right pad");
        }
    }

    #[test]
    fn semi_and_anti_partition_left() {
        let db = tiny_db();
        for (semi, anti) in [
            (nl(JoinKind::LeftSemi), nl(JoinKind::LeftAnti)),
            (hash(JoinKind::LeftSemi), hash(JoinKind::LeftAnti)),
        ] {
            let semi_rows = execute(&db, &semi).unwrap();
            let anti_rows = execute(&db, &anti).unwrap();
            assert_eq!(semi_rows.len(), 2);
            assert_eq!(anti_rows.len(), 1);
            assert_eq!(anti_rows[0][0], Value::Int(3));
            assert_eq!(semi_rows[0].len(), 2, "semi emits only left columns");
        }
    }

    /// t1 twice over (column ids 20, 21): every x value occurs twice.
    fn doubled_t1() -> PhysicalPlan {
        plan(
            PhysOp::Concat {
                outputs: vec![ColId(20), ColId(21)],
                left_cols: vec![ColId(2), ColId(3)],
                right_cols: vec![ColId(2), ColId(3)],
            },
            vec![scan_t1(), scan_t1()],
            vec![int_col(20), int_col(21)],
        )
    }

    fn pull_all<'a>(ctx: &'a Ctx<'a>, plan: &'a PhysicalPlan) -> Vec<RowRef<'a>> {
        let need = crate::context::schema_ids(plan).into_iter().collect();
        crate::context::open(ctx, plan, &need)
            .unwrap()
            .0
            .collect::<Result<_>>()
            .unwrap()
    }

    #[test]
    fn semi_and_anti_emit_each_left_handle_once_and_untouched() {
        let db = tiny_db();
        let stored = &db.table(ruletest_common::TableId(0)).unwrap().rows;
        let on = Expr::eq(Expr::col(ColId(0)), Expr::col(ColId(20)));
        let join = |hash: bool, kind| {
            let op = if hash {
                PhysOp::HashJoin {
                    kind,
                    left_keys: vec![ColId(0)],
                    right_keys: vec![ColId(20)],
                    residual: Expr::true_lit(),
                }
            } else {
                PhysOp::NLJoin {
                    kind,
                    predicate: on.clone(),
                }
            };
            plan(
                op,
                vec![scan_t0(), doubled_t1()],
                vec![int_col(0), str_col(1)],
            )
        };
        // a∈{1,2} each match two right rows, a=3 none.
        for hash in [false, true] {
            for (kind, expected) in [
                (JoinKind::LeftSemi, &stored[..2]),
                (JoinKind::LeftAnti, &stored[2..]),
            ] {
                let p = join(hash, kind);
                let config = crate::ExecConfig::default();
                let ctx = Ctx::new(&db, &config);
                let rows = pull_all(&ctx, &p);
                assert_eq!(rows.len(), expected.len(), "{kind:?} hash={hash}");
                for (row, stored) in rows.iter().zip(expected) {
                    // The scan's own handle: no row was built for it, let
                    // alone a concatenated one.
                    assert!(
                        matches!(row, Cow::Borrowed(r) if std::ptr::eq(*r, stored.as_slice())),
                        "{kind:?} hash={hash}: {row:?} is not the stored row itself"
                    );
                }
            }
        }
    }

    #[test]
    fn unmatched_right_rows_follow_the_whole_left_side() {
        let db = tiny_db();
        let null = Value::Null;
        let one = vec![1.into(), "one".into(), 1.into(), 10.into()];
        let two = vec![2.into(), null.clone(), 2.into(), null.clone()];
        let three = vec![3.into(), "three".into(), null.clone(), null.clone()];
        let four = vec![null.clone(), null.clone(), 4.into(), 40.into()];
        for (kind, expected) in [
            (
                JoinKind::RightOuter,
                vec![one.clone(), two.clone(), four.clone()],
            ),
            (JoinKind::FullOuter, vec![one, two, three, four]),
        ] {
            assert_eq!(execute(&db, &nl(kind)).unwrap(), expected, "NL {kind:?}");
            assert_eq!(
                execute(&db, &hash(kind)).unwrap(),
                expected,
                "hash {kind:?}"
            );
        }
    }

    /// The padding width is the child's schema width, not its number of
    /// distinct column ids: a right child that repeats a column must pad
    /// the same under both algorithms.
    #[test]
    fn outer_padding_counts_a_repeated_right_column_twice() {
        let db = tiny_db();
        let repeated = plan(
            PhysOp::Compute {
                outputs: vec![
                    (ColId(2), Expr::col(ColId(2))),
                    (ColId(3), Expr::col(ColId(3))),
                    (ColId(2), Expr::col(ColId(2))),
                ],
            },
            vec![scan_t1()],
            vec![int_col(2), int_col(3), int_col(2)],
        );
        let schema = vec![int_col(0), str_col(1), int_col(2), int_col(3), int_col(2)];
        let nl = plan(
            PhysOp::NLJoin {
                kind: JoinKind::LeftOuter,
                predicate: eq_pred(),
            },
            vec![scan_t0(), repeated.clone()],
            schema.clone(),
        );
        let hash = plan(
            PhysOp::HashJoin {
                kind: JoinKind::LeftOuter,
                left_keys: vec![ColId(0)],
                right_keys: vec![ColId(2)],
                residual: Expr::true_lit(),
            },
            vec![scan_t0(), repeated],
            schema,
        );
        let nl_rows = execute(&db, &nl).unwrap();
        assert_eq!(nl_rows, execute(&db, &hash).unwrap());
        assert_eq!(
            nl_rows[2],
            vec![
                Value::Int(3),
                "three".into(),
                Value::Null,
                Value::Null,
                Value::Null
            ]
        );
    }

    #[test]
    fn null_keys_never_match() {
        let db = tiny_db();
        // Join t0.a with t1.y (y has a NULL): NULL never equals anything.
        let pred = Expr::eq(Expr::col(ColId(0)), Expr::col(ColId(3)));
        let p = plan(
            PhysOp::NLJoin {
                kind: JoinKind::Inner,
                predicate: pred,
            },
            vec![scan_t0(), scan_t1()],
            join_schema(),
        );
        let rows = execute(&db, &p).unwrap();
        // y values: 10, NULL, 40 — none equals a∈{1,2,3}.
        assert!(rows.is_empty());

        let ph = plan(
            PhysOp::HashJoin {
                kind: JoinKind::Inner,
                left_keys: vec![ColId(0)],
                right_keys: vec![ColId(3)],
                residual: Expr::true_lit(),
            },
            vec![scan_t0(), scan_t1()],
            join_schema(),
        );
        assert!(execute(&db, &ph).unwrap().is_empty());
    }

    #[test]
    fn residual_predicate_filters_matches() {
        let db = tiny_db();
        // a = x AND y > 5: (1,10) passes, (2,NULL) fails (UNKNOWN).
        let residual = Expr::bin(
            ruletest_expr::BinOp::Gt,
            Expr::col(ColId(3)),
            Expr::lit(5i64),
        );
        let p = plan(
            PhysOp::HashJoin {
                kind: JoinKind::Inner,
                left_keys: vec![ColId(0)],
                right_keys: vec![ColId(2)],
                residual,
            },
            vec![scan_t0(), scan_t1()],
            join_schema(),
        );
        let rows = execute(&db, &p).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][0], Value::Int(1));
    }

    #[test]
    fn cross_join_via_true_predicate() {
        let db = tiny_db();
        let p = plan(
            PhysOp::NLJoin {
                kind: JoinKind::Inner,
                predicate: Expr::true_lit(),
            },
            vec![scan_t0(), scan_t1()],
            join_schema(),
        );
        assert_eq!(execute(&db, &p).unwrap().len(), 9);
    }
}

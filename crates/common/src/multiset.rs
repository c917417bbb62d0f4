//! Multiset comparison of query results.
//!
//! Correctness validation (paper §2.3) executes `Plan(q)` and
//! `Plan(q, ¬{r})` and checks that "the results of the query are identical".
//! SQL results without a top-level ORDER BY are *bags*, so two equivalent
//! plans may emit rows in different orders; we therefore compare results as
//! multisets under the total value order from [`crate::value::Value::total_cmp`].

use crate::value::{Row, Value};
use std::cmp::Ordering;

/// Total order over rows: lexicographic under `Value::total_cmp`, shorter
/// rows first (row lengths only differ when schemas differ, which is itself
/// reported as a mismatch).
pub fn row_total_cmp(a: &Row, b: &Row) -> Ordering {
    for (x, y) in a.iter().zip(b.iter()) {
        let c = x.total_cmp(y);
        if c != Ordering::Equal {
            return c;
        }
    }
    a.len().cmp(&b.len())
}

/// A human-readable account of how two result multisets differ.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResultDiff {
    /// Rows present in the left result but missing (or under-counted) in the
    /// right, with multiplicity delta.
    pub only_left: Vec<(Row, usize)>,
    /// Rows present in the right result but missing in the left.
    pub only_right: Vec<(Row, usize)>,
    /// Row counts of the two inputs.
    pub left_rows: usize,
    pub right_rows: usize,
}

impl ResultDiff {
    /// True iff the two multisets were equal.
    pub fn is_empty(&self) -> bool {
        self.only_left.is_empty() && self.only_right.is_empty()
    }

    /// One-line summary suitable for a bug report.
    pub fn summary(&self) -> String {
        if self.is_empty() {
            return "results identical".to_string();
        }
        let show = |side: &[(Row, usize)]| -> String {
            side.iter()
                .take(3)
                .map(|(r, n)| {
                    let cells: Vec<String> = r.iter().map(Value::to_string).collect();
                    format!("{}x[{}]", n, cells.join(", "))
                })
                .collect::<Vec<_>>()
                .join("; ")
        };
        format!(
            "results differ: {} vs {} rows; only-left: {}; only-right: {}",
            self.left_rows,
            self.right_rows,
            show(&self.only_left),
            show(&self.only_right)
        )
    }
}

fn normalize(rows: &[Row]) -> Vec<&Row> {
    let mut v: Vec<&Row> = rows.iter().collect();
    // Stable on purpose: results come in long sorted or reversed runs,
    // which the stable sort merges as runs (an unstable sort took twice as
    // long on the `diff/reversed` bench rung).
    v.sort_by(|a, b| row_total_cmp(a, b));
    v
}

/// Compares two results as multisets and reports the difference.
///
/// Two equal sequences are equal multisets, and that is answered without
/// sorting: equivalent plans often emit their rows in the same order (22 of
/// the 23 comparisons of a `sql_differential` pass do).
pub fn diff_multisets(left: &[Row], right: &[Row]) -> ResultDiff {
    let (l, r) = if left == right {
        (Vec::new(), Vec::new())
    } else {
        (normalize(left), normalize(right))
    };
    let mut only_left: Vec<(Row, usize)> = Vec::new();
    let mut only_right: Vec<(Row, usize)> = Vec::new();

    let (mut i, mut j) = (0usize, 0usize);
    // Merge-walk the two sorted row lists, grouping equal runs.
    while i < l.len() || j < r.len() {
        if i < l.len() && j < r.len() {
            match row_total_cmp(l[i], r[j]) {
                Ordering::Equal => {
                    let row = l[i];
                    let mut li = 0;
                    while i < l.len() && row_total_cmp(l[i], row) == Ordering::Equal {
                        li += 1;
                        i += 1;
                    }
                    let mut rj = 0;
                    while j < r.len() && row_total_cmp(r[j], row) == Ordering::Equal {
                        rj += 1;
                        j += 1;
                    }
                    match li.cmp(&rj) {
                        Ordering::Greater => only_left.push((row.clone(), li - rj)),
                        Ordering::Less => only_right.push((row.clone(), rj - li)),
                        Ordering::Equal => {}
                    }
                }
                Ordering::Less => {
                    let row = l[i];
                    let mut n = 0;
                    while i < l.len() && row_total_cmp(l[i], row) == Ordering::Equal {
                        n += 1;
                        i += 1;
                    }
                    only_left.push((row.clone(), n));
                }
                Ordering::Greater => {
                    let row = r[j];
                    let mut n = 0;
                    while j < r.len() && row_total_cmp(r[j], row) == Ordering::Equal {
                        n += 1;
                        j += 1;
                    }
                    only_right.push((row.clone(), n));
                }
            }
        } else if i < l.len() {
            let row = l[i];
            let mut n = 0;
            while i < l.len() && row_total_cmp(l[i], row) == Ordering::Equal {
                n += 1;
                i += 1;
            }
            only_left.push((row.clone(), n));
        } else {
            let row = r[j];
            let mut n = 0;
            while j < r.len() && row_total_cmp(r[j], row) == Ordering::Equal {
                n += 1;
                j += 1;
            }
            only_right.push((row.clone(), n));
        }
    }

    ResultDiff {
        only_left,
        only_right,
        left_rows: left.len(),
        right_rows: right.len(),
    }
}

/// True iff the two results are equal as multisets.
///
/// ```
/// use ruletest_common::{multisets_equal, Value};
/// let a = vec![vec![Value::Int(1)], vec![Value::Int(2)]];
/// let b = vec![vec![Value::Int(2)], vec![Value::Int(1)]];
/// assert!(multisets_equal(&a, &b)); // order-insensitive
/// assert!(!multisets_equal(&a, &a[..1]));
/// ```
pub fn multisets_equal(left: &[Row], right: &[Row]) -> bool {
    if left.len() != right.len() {
        return false;
    }
    diff_multisets(left, right).is_empty()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(vals: &[i64]) -> Row {
        vals.iter().map(|&v| Value::Int(v)).collect()
    }

    #[test]
    fn equal_ignores_order() {
        let a = vec![r(&[1, 2]), r(&[3, 4]), r(&[1, 2])];
        let b = vec![r(&[3, 4]), r(&[1, 2]), r(&[1, 2])];
        assert!(multisets_equal(&a, &b));
    }

    #[test]
    fn multiplicity_matters() {
        let a = vec![r(&[1]), r(&[1])];
        let b = vec![r(&[1])];
        assert!(!multisets_equal(&a, &b));
        let d = diff_multisets(&a, &b);
        assert_eq!(d.only_left, vec![(r(&[1]), 1)]);
        assert!(d.only_right.is_empty());
    }

    #[test]
    fn nulls_compare_equal_in_multiset() {
        let a = vec![vec![Value::Null, Value::Int(1)]];
        let b = vec![vec![Value::Null, Value::Int(1)]];
        assert!(multisets_equal(&a, &b));
    }

    #[test]
    fn disjoint_rows_reported_on_both_sides() {
        let a = vec![r(&[1]), r(&[2])];
        let b = vec![r(&[3])];
        let d = diff_multisets(&a, &b);
        assert_eq!(d.only_left.len(), 2);
        assert_eq!(d.only_right.len(), 1);
        assert!(!d.is_empty());
        assert!(d.summary().contains("results differ"));
    }

    #[test]
    fn empty_results_are_equal() {
        assert!(multisets_equal(&[], &[]));
        assert!(diff_multisets(&[], &[]).is_empty());
    }

    #[test]
    fn summary_of_equal_results() {
        let d = diff_multisets(&[r(&[1])], &[r(&[1])]);
        assert_eq!(d.summary(), "results identical");
    }

    #[test]
    fn row_cmp_is_lexicographic() {
        assert_eq!(row_total_cmp(&r(&[1, 2]), &r(&[1, 3])), Ordering::Less);
        assert_eq!(row_total_cmp(&r(&[2]), &r(&[1, 9])), Ordering::Greater);
        assert_eq!(row_total_cmp(&r(&[1]), &r(&[1, 0])), Ordering::Less);
    }

    /// The exact diff for each shape of input pair, including the
    /// same-order case answered without sorting.
    #[test]
    fn diff_is_exact_for_each_case() {
        let diff = |only_left, only_right, left_rows, right_rows| ResultDiff {
            only_left,
            only_right,
            left_rows,
            right_rows,
        };
        let cases = [
            (
                "same order",
                vec![r(&[2]), r(&[1]), r(&[3])],
                vec![r(&[2]), r(&[1]), r(&[3])],
                diff(vec![], vec![], 3, 3),
            ),
            (
                "permuted",
                vec![r(&[2]), r(&[1]), r(&[3])],
                vec![r(&[3]), r(&[2]), r(&[1])],
                diff(vec![], vec![], 3, 3),
            ),
            (
                "one row different",
                vec![r(&[1, 1]), r(&[2, 2])],
                vec![r(&[1, 1]), r(&[2, 3])],
                diff(vec![(r(&[2, 2]), 1)], vec![(r(&[2, 3]), 1)], 2, 2),
            ),
            (
                "different lengths",
                vec![r(&[1]), r(&[2]), r(&[3])],
                vec![r(&[1]), r(&[2])],
                diff(vec![(r(&[3]), 1)], vec![], 3, 2),
            ),
            (
                "duplicates",
                vec![r(&[5]), r(&[4]), r(&[5]), r(&[5])],
                vec![r(&[4]), r(&[4]), r(&[5])],
                diff(vec![(r(&[5]), 2)], vec![(r(&[4]), 1)], 4, 3),
            ),
        ];
        for (name, left, right, expected) in cases {
            assert_eq!(diff_multisets(&left, &right), expected, "{name}");
        }
    }

    #[test]
    fn mixed_types_and_strings() {
        let a = vec![vec![Value::Str("x".into()), Value::Bool(true)]];
        let b = vec![vec![Value::Str("x".into()), Value::Bool(false)]];
        assert!(!multisets_equal(&a, &b));
    }
}

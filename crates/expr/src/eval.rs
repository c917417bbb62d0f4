//! Three-valued-logic expression evaluation.
//!
//! NULL semantics follow SQL: comparisons and arithmetic are *strict*
//! (NULL in, NULL out); AND/OR/NOT use Kleene logic; `IS NULL` is total.
//! Integer arithmetic wraps on overflow — the generators keep literals small
//! enough that this never fires in practice, but wrapping guarantees two
//! equivalent plans can never diverge via a panic.

use crate::expr::{BinOp, Expr};
use ruletest_common::{ColId, Value};
use std::borrow::Cow;
use std::cmp::Ordering;

/// Evaluates `expr`, resolving column references through `get`.
pub fn eval(expr: &Expr, get: &mut impl FnMut(ColId) -> Value) -> Value {
    eval_in(expr, &mut |c| Cow::Owned(get(c))).into_owned()
}

/// Evaluates `expr` over borrowed operands: `get` hands out a column's
/// value where it lies, and a comparison reads its operands in place, so
/// only a computed value is ever built.
pub fn eval_in<'v>(
    expr: &'v Expr,
    get: &mut impl FnMut(ColId) -> Cow<'v, Value>,
) -> Cow<'v, Value> {
    match expr {
        Expr::Col(c) => get(*c),
        Expr::Lit(v) => Cow::Borrowed(v),
        Expr::Not(e) => Cow::Owned(match eval_in(e, get).as_ref() {
            Value::Null => Value::Null,
            Value::Bool(b) => Value::Bool(!b),
            other => panic!("type error: NOT over {other:?}"),
        }),
        Expr::IsNull(e) => Cow::Owned(Value::Bool(eval_in(e, get).is_null())),
        Expr::Bin { op, left, right } => {
            let l = eval_in(left, get);
            let r = eval_in(right, get);
            // Kleene AND/OR need non-strict handling (short-circuit on the
            // dominating value even when the other side is NULL).
            if *op == BinOp::And || *op == BinOp::Or {
                return Cow::Owned(eval_logical(*op, &l, &r));
            }
            if l.is_null() || r.is_null() {
                return Cow::Owned(Value::Null);
            }
            Cow::Owned(if op.is_comparison() {
                let ord = l.sql_cmp(&r).expect("non-null operands");
                Value::Bool(match op {
                    BinOp::Eq => ord == Ordering::Equal,
                    BinOp::Ne => ord != Ordering::Equal,
                    BinOp::Lt => ord == Ordering::Less,
                    BinOp::Le => ord != Ordering::Greater,
                    BinOp::Gt => ord == Ordering::Greater,
                    BinOp::Ge => ord != Ordering::Less,
                    _ => unreachable!(),
                })
            } else {
                let a = l.as_int().expect("arith over non-null");
                let b = r.as_int().expect("arith over non-null");
                Value::Int(match op {
                    BinOp::Add => a.wrapping_add(b),
                    BinOp::Sub => a.wrapping_sub(b),
                    BinOp::Mul => a.wrapping_mul(b),
                    _ => unreachable!(),
                })
            })
        }
    }
}

fn eval_logical(op: BinOp, l: &Value, r: &Value) -> Value {
    let lb = match l {
        Value::Null => None,
        Value::Bool(b) => Some(*b),
        other => panic!("type error: logical op over {other:?}"),
    };
    let rb = match r {
        Value::Null => None,
        Value::Bool(b) => Some(*b),
        other => panic!("type error: logical op over {other:?}"),
    };
    match op {
        BinOp::And => match (lb, rb) {
            (Some(false), _) | (_, Some(false)) => Value::Bool(false),
            (Some(true), Some(true)) => Value::Bool(true),
            _ => Value::Null,
        },
        BinOp::Or => match (lb, rb) {
            (Some(true), _) | (_, Some(true)) => Value::Bool(true),
            (Some(false), Some(false)) => Value::Bool(false),
            _ => Value::Null,
        },
        _ => unreachable!(),
    }
}

/// Evaluates a predicate to a SQL filter decision: keep the row only if the
/// predicate is TRUE (UNKNOWN and FALSE both reject).
pub fn eval_predicate(expr: &Expr, get: &mut impl FnMut(ColId) -> Value) -> bool {
    matches!(eval(expr, get), Value::Bool(true))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(e: &Expr) -> Value {
        eval(e, &mut |_| Value::Null)
    }

    fn with_col(e: &Expr, v: Value) -> Value {
        eval(e, &mut |_| v.clone())
    }

    #[test]
    fn comparisons_are_strict() {
        let e = Expr::eq(Expr::col(ColId(0)), Expr::lit(1i64));
        assert_eq!(with_col(&e, Value::Null), Value::Null);
        assert_eq!(with_col(&e, Value::Int(1)), Value::Bool(true));
        assert_eq!(with_col(&e, Value::Int(2)), Value::Bool(false));
    }

    #[test]
    fn all_comparison_ops() {
        let cases = [
            (BinOp::Eq, false, true, false),
            (BinOp::Ne, true, false, true),
            (BinOp::Lt, true, false, false),
            (BinOp::Le, true, true, false),
            (BinOp::Gt, false, false, true),
            (BinOp::Ge, false, true, true),
        ];
        for (op, lt, eq, gt) in cases {
            let mk = |a: i64, b: i64| Expr::bin(op, Expr::lit(a), Expr::lit(b));
            assert_eq!(ev(&mk(1, 2)), Value::Bool(lt), "{op:?} lt");
            assert_eq!(ev(&mk(2, 2)), Value::Bool(eq), "{op:?} eq");
            assert_eq!(ev(&mk(3, 2)), Value::Bool(gt), "{op:?} gt");
        }
    }

    #[test]
    fn kleene_and_truth_table() {
        let t = Expr::lit(true);
        let f = Expr::lit(false);
        let n = Expr::Lit(Value::Null);
        let and = |a: &Expr, b: &Expr| ev(&Expr::and(a.clone(), b.clone()));
        assert_eq!(and(&t, &t), Value::Bool(true));
        assert_eq!(and(&t, &f), Value::Bool(false));
        assert_eq!(and(&f, &n), Value::Bool(false));
        assert_eq!(and(&n, &f), Value::Bool(false));
        assert_eq!(and(&t, &n), Value::Null);
        assert_eq!(and(&n, &n), Value::Null);
    }

    #[test]
    fn kleene_or_truth_table() {
        let t = Expr::lit(true);
        let f = Expr::lit(false);
        let n = Expr::Lit(Value::Null);
        let or = |a: &Expr, b: &Expr| ev(&Expr::or(a.clone(), b.clone()));
        assert_eq!(or(&f, &f), Value::Bool(false));
        assert_eq!(or(&t, &n), Value::Bool(true));
        assert_eq!(or(&n, &t), Value::Bool(true));
        assert_eq!(or(&f, &n), Value::Null);
        assert_eq!(or(&n, &n), Value::Null);
    }

    #[test]
    fn not_and_is_null() {
        assert_eq!(ev(&Expr::not(Expr::lit(true))), Value::Bool(false));
        assert_eq!(ev(&Expr::not(Expr::Lit(Value::Null))), Value::Null);
        assert_eq!(
            ev(&Expr::is_null(Expr::Lit(Value::Null))),
            Value::Bool(true)
        );
        assert_eq!(ev(&Expr::is_null(Expr::lit(3i64))), Value::Bool(false));
    }

    #[test]
    fn arithmetic_is_strict_and_wrapping() {
        let add = Expr::bin(BinOp::Add, Expr::lit(2i64), Expr::lit(3i64));
        assert_eq!(ev(&add), Value::Int(5));
        let strict = Expr::bin(BinOp::Mul, Expr::Lit(Value::Null), Expr::lit(3i64));
        assert_eq!(ev(&strict), Value::Null);
        let wrap = Expr::bin(BinOp::Add, Expr::lit(i64::MAX), Expr::lit(1i64));
        assert_eq!(ev(&wrap), Value::Int(i64::MIN));
        let sub = Expr::bin(BinOp::Sub, Expr::lit(2i64), Expr::lit(7i64));
        assert_eq!(ev(&sub), Value::Int(-5));
    }

    #[test]
    fn predicate_rejects_unknown() {
        let unknown = Expr::eq(Expr::Lit(Value::Null), Expr::lit(1i64));
        assert!(!eval_predicate(&unknown, &mut |_| Value::Null));
        assert!(eval_predicate(&Expr::true_lit(), &mut |_| Value::Null));
        assert!(!eval_predicate(&Expr::lit(false), &mut |_| Value::Null));
    }

    #[test]
    fn string_comparison() {
        let e = Expr::bin(BinOp::Lt, Expr::lit("apple"), Expr::lit("banana"));
        assert_eq!(ev(&e), Value::Bool(true));
    }

    #[test]
    #[should_panic(expected = "type error")]
    fn logical_over_int_panics() {
        ev(&Expr::and(Expr::lit(1i64), Expr::lit(true)));
    }
}

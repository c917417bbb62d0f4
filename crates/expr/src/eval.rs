//! Three-valued-logic expression evaluation.
//!
//! NULL semantics follow SQL: comparisons and arithmetic are *strict*
//! (NULL in, NULL out); AND/OR/NOT use Kleene logic; `IS NULL` is total.
//! Integer arithmetic wraps on overflow — the generators keep literals small
//! enough that this never fires in practice, but wrapping guarantees two
//! equivalent plans can never diverge via a panic.
//!
//! [`eval`] interprets a tree (the reference evaluator's path); [`compile`]
//! turns one into closures once, for the executor's rows. Neither
//! short-circuits AND/OR, so both panic on the same ill-typed row.

use crate::expr::{BinOp, Expr};
use ruletest_common::{ColId, Value};

/// Evaluates `expr`, resolving column references through `get`.
pub fn eval(expr: &Expr, get: &mut impl FnMut(ColId) -> Value) -> Value {
    match expr {
        Expr::Col(c) => get(*c),
        Expr::Lit(v) => v.clone(),
        Expr::Not(e) => not(&eval(e, get)),
        Expr::IsNull(e) => Value::Bool(eval(e, get).is_null()),
        Expr::Bin { op, left, right } => {
            let (l, r) = (eval(left, get), eval(right, get));
            if op.is_logical() {
                eval_logical(*op, &l, &r)
            } else if op.is_comparison() {
                compare(accepts(*op), &l, &r).map_or(Value::Null, Value::Bool)
            } else {
                arith(*op, &l, &r)
            }
        }
    }
}

fn not(v: &Value) -> Value {
    match v {
        Value::Null => Value::Null,
        Value::Bool(b) => Value::Bool(!b),
        other => panic!("type error: NOT over {other:?}"),
    }
}

/// The orderings comparison `op` accepts, indexed by Less, Equal, Greater.
fn accepts(op: BinOp) -> [bool; 3] {
    match op {
        BinOp::Eq => [false, true, false],
        BinOp::Ne => [true, false, true],
        BinOp::Lt => [true, false, false],
        BinOp::Le => [true, true, false],
        BinOp::Gt => [false, false, true],
        _ => [false, true, true],
    }
}

/// Whether `l` and `r` compare in an `accept`ed order; `None` (UNKNOWN)
/// when either is NULL.
fn compare(accept: [bool; 3], l: &Value, r: &Value) -> Option<bool> {
    let ord = match (l, r) {
        (Value::Int(x), Value::Int(y)) => x.cmp(y),
        _ => l.sql_cmp(r)?,
    };
    Some(accept[(ord as i8 + 1) as usize])
}

/// Wrapping arithmetic over two INTs; NULL when either is NULL.
fn arith(op: BinOp, l: &Value, r: &Value) -> Value {
    if l.is_null() || r.is_null() {
        return Value::Null;
    }
    let a = l.as_int().expect("arith over non-null");
    let b = r.as_int().expect("arith over non-null");
    Value::Int(match op {
        BinOp::Add => a.wrapping_add(b),
        BinOp::Sub => a.wrapping_sub(b),
        _ => a.wrapping_mul(b),
    })
}

/// Kleene AND/OR: the dominating value (FALSE for AND, TRUE for OR) wins
/// even over NULL; otherwise NULL if either side is, else the other value.
fn eval_logical(op: BinOp, l: &Value, r: &Value) -> Value {
    let truth = |v: &Value| match v {
        Value::Null => None,
        Value::Bool(b) => Some(*b),
        other => panic!("type error: logical op over {other:?}"),
    };
    let (l, r, dominant) = (truth(l), truth(r), op == BinOp::Or);
    if l == Some(dominant) || r == Some(dominant) {
        Value::Bool(dominant)
    } else if l.is_none() || r.is_none() {
        Value::Null
    } else {
        Value::Bool(!dominant)
    }
}

/// Evaluates a predicate to a SQL filter decision: keep the row only if the
/// predicate is TRUE (UNKNOWN and FALSE both reject).
pub fn eval_predicate(expr: &Expr, get: &mut impl FnMut(ColId) -> Value) -> bool {
    matches!(eval(expr, get), Value::Bool(true))
}

/// An expression [`compile`]d into closures over one row or a pair of rows.
pub struct Compiled(Box<RowsFn>);

type RowsFn = dyn Fn(&[Value], &[Value]) -> Value;

impl Compiled {
    /// The value over `first` and `second` (empty when there is one row).
    pub fn eval(&self, first: &[Value], second: &[Value]) -> Value {
        (self.0)(first, second)
    }

    /// True when the value is TRUE (UNKNOWN and FALSE both reject).
    pub fn holds(&self, first: &[Value], second: &[Value]) -> bool {
        matches!(self.eval(first, second), Value::Bool(true))
    }
}

fn closure(f: impl Fn(&[Value], &[Value]) -> Value + 'static) -> Compiled {
    Compiled(Box::new(f))
}

/// An operand read where it lies: a column of the first or the second
/// row, or a literal.
enum Operand {
    First(usize),
    Second(usize),
    Lit(Value),
}

impl Operand {
    fn of(expr: &Expr, split: usize) -> Option<Self> {
        match expr {
            Expr::Col(c) if (c.0 as usize) < split => Some(Operand::First(c.0 as usize)),
            Expr::Col(c) => Some(Operand::Second(c.0 as usize - split)),
            Expr::Lit(v) => Some(Operand::Lit(v.clone())),
            _ => None,
        }
    }

    fn get<'r>(&'r self, first: &'r [Value], second: &'r [Value]) -> &'r Value {
        match self {
            Operand::First(p) => &first[*p],
            Operand::Second(p) => &second[*p],
            Operand::Lit(v) => v,
        }
    }
}

/// Compiles a positional expression, whose `ColId(p)` is the column at
/// position `p`: a position below `split` is in the first row, any other in
/// the second, shifted by `split`. An operator over columns and literals
/// reads its operands where they lie; only a computed operand is built.
/// The result equals [`eval`]'s, panics included.
pub fn compile(expr: &Expr, split: usize) -> Compiled {
    match expr {
        // A column or literal is its own operand, read in place and cloned.
        Expr::Col(_) | Expr::Lit(_) => unary(Value::clone, expr, split),
        Expr::IsNull(e) => unary(|v| Value::Bool(v.is_null()), e, split),
        Expr::Not(e) => unary(not, e, split),
        Expr::Bin { op, left, right } => {
            let op = *op;
            if op.is_comparison() {
                let accept = accepts(op);
                let f = move |l: &_, r: &_| compare(accept, l, r).map_or(Value::Null, Value::Bool);
                binary(f, left, right, split)
            } else if op.is_logical() {
                binary(move |l, r| eval_logical(op, l, r), left, right, split)
            } else {
                binary(move |l, r| arith(op, l, r), left, right, split)
            }
        }
    }
}

/// `f` over the value of `e`, read where it lies when it is a column or a
/// literal.
fn unary(f: impl Fn(&Value) -> Value + 'static, e: &Expr, split: usize) -> Compiled {
    match Operand::of(e, split) {
        Some(o) => closure(move |a, b| f(o.get(a, b))),
        None => {
            let e = compile(e, split);
            closure(move |a, b| f(&e.eval(a, b)))
        }
    }
}

/// `f` over the values of `left` and `right`, read where they lie when
/// both are columns or literals.
fn binary(
    f: impl Fn(&Value, &Value) -> Value + 'static,
    left: &Expr,
    right: &Expr,
    split: usize,
) -> Compiled {
    match (Operand::of(left, split), Operand::of(right, split)) {
        (Some(l), Some(r)) => closure(move |a, b| f(l.get(a, b), r.get(a, b))),
        _ => {
            let (l, r) = (compile(left, split), compile(right, split));
            closure(move |a, b| f(&l.eval(a, b), &r.eval(a, b)))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Each evaluator over `e` with every column `v`: the interpreter, the
    /// compiled form over one row, and over a pair with the row second.
    const EVALUATORS: [fn(&Expr, &Value) -> Value; 3] = [
        |e, v| eval(e, &mut |_| v.clone()),
        |e, v| compile(e, 1).eval(std::slice::from_ref(v), &[]),
        |e, v| compile(e, 0).eval(&[], std::slice::from_ref(v)),
    ];

    /// `e`'s value with every column `v`, the same from every evaluator.
    fn with_col(e: &Expr, v: Value) -> Value {
        let [first, rest @ ..] = EVALUATORS.map(|evaluate| evaluate(e, &v));
        assert!(
            rest.iter().all(|r| *r == first),
            "{e}: {first:?} vs {rest:?}"
        );
        first
    }

    fn ev(e: &Expr) -> Value {
        with_col(e, Value::Null)
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
    fn logical_over_int_panics() {
        let e = Expr::and(Expr::lit(1i64), Expr::lit(true));
        for evaluate in EVALUATORS {
            let panic = std::panic::catch_unwind(|| evaluate(&e, &Value::Null)).unwrap_err();
            let message = panic.downcast_ref::<String>().unwrap();
            assert_eq!(message, "type error: logical op over Int(1)");
        }
    }
}

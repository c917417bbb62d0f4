//! The scalar expression tree.

use ruletest_common::wire::{object, required, Decode, DecodeError, Encode};
use ruletest_common::{wire_names, ColId, Json, JsonWriter, Value, WordBuild};
use std::fmt;
use std::hash::{BuildHasher, Hash, Hasher};
use std::ops::Deref;
use std::sync::Arc;

/// Binary operators. Comparison and logical operators produce BOOL;
/// arithmetic operators produce INT.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    Add,
    Sub,
    Mul,
    And,
    Or,
}

wire_names!(BinOp {
    Eq => "eq",
    Ne => "ne",
    Lt => "lt",
    Le => "le",
    Gt => "gt",
    Ge => "ge",
    Add => "add",
    Sub => "sub",
    Mul => "mul",
    And => "and",
    Or => "or",
});

impl BinOp {
    /// True for `=, <>, <, <=, >, >=`.
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge
        )
    }

    /// True for `+, -, *`.
    pub fn is_arithmetic(self) -> bool {
        matches!(self, BinOp::Add | BinOp::Sub | BinOp::Mul)
    }

    /// True for `AND, OR`.
    pub fn is_logical(self) -> bool {
        matches!(self, BinOp::And | BinOp::Or)
    }

    /// SQL spelling of the operator.
    pub fn sql(self) -> &'static str {
        match self {
            BinOp::Eq => "=",
            BinOp::Ne => "<>",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::And => "AND",
            BinOp::Or => "OR",
        }
    }
}

/// A scalar expression over column ids. Subtrees are shared, never
/// mutated: cloning an expression (every rule that moves a predicate into
/// a substitute does) bumps reference counts instead of copying the tree.
/// Hashing one costs its own node: each [`SubExpr`] below it hashes as the
/// word it stored when it was built.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Expr {
    /// Reference to a column instance by id.
    Col(ColId),
    /// A constant.
    Lit(Value),
    /// Binary operation.
    Bin {
        op: BinOp,
        left: SubExpr,
        right: SubExpr,
    },
    /// Logical negation (Kleene NOT).
    Not(SubExpr),
    /// `expr IS NULL` — total (never returns NULL itself).
    IsNull(SubExpr),
}

/// A shared operand of [`Expr::Bin`], [`Expr::Not`] or [`Expr::IsNull`]:
/// the expression and its structural hash, computed once with the
/// [`WordHasher`](ruletest_common::WordHasher) when the node is built (not
/// interned). `Hash` writes that word; two operands are equal when they are
/// one allocation, or when their words and then their expressions agree.
/// `Debug` and `Display` print the expression alone.
#[derive(Clone)]
pub struct SubExpr(Arc<Hashed>);

struct Hashed {
    hash: u64,
    expr: Expr,
}

impl SubExpr {
    pub(crate) fn new(expr: Expr) -> Self {
        let hash = WordBuild::default().hash_one(&expr);
        SubExpr(Arc::new(Hashed { hash, expr }))
    }

    /// True iff `a` and `b` are one allocation.
    pub fn ptr_eq(a: &SubExpr, b: &SubExpr) -> bool {
        Arc::ptr_eq(&a.0, &b.0)
    }
}

impl Deref for SubExpr {
    type Target = Expr;

    fn deref(&self) -> &Expr {
        &self.0.expr
    }
}

impl AsRef<Expr> for SubExpr {
    fn as_ref(&self) -> &Expr {
        &self.0.expr
    }
}

impl PartialEq for SubExpr {
    fn eq(&self, other: &Self) -> bool {
        SubExpr::ptr_eq(self, other) || (self.0.hash == other.0.hash && self.0.expr == other.0.expr)
    }
}

impl Eq for SubExpr {}

impl Hash for SubExpr {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.0.hash);
    }
}

impl fmt::Debug for SubExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&self.0.expr, f)
    }
}

impl fmt::Display for SubExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&self.0.expr, f)
    }
}

impl Expr {
    pub fn col(id: ColId) -> Expr {
        Expr::Col(id)
    }

    pub fn lit(v: impl Into<Value>) -> Expr {
        Expr::Lit(v.into())
    }

    pub fn bin(op: BinOp, left: Expr, right: Expr) -> Expr {
        Expr::Bin {
            op,
            left: SubExpr::new(left),
            right: SubExpr::new(right),
        }
    }

    pub fn eq(left: Expr, right: Expr) -> Expr {
        Expr::bin(BinOp::Eq, left, right)
    }

    pub fn and(left: Expr, right: Expr) -> Expr {
        Expr::bin(BinOp::And, left, right)
    }

    pub fn or(left: Expr, right: Expr) -> Expr {
        Expr::bin(BinOp::Or, left, right)
    }

    // An associated constructor, not a `Not` impl: `Expr::not(e)` takes
    // no receiver, so it cannot shadow the operator trait.
    #[allow(clippy::should_implement_trait)]
    pub fn not(inner: Expr) -> Expr {
        Expr::Not(SubExpr::new(inner))
    }

    pub fn is_null(inner: Expr) -> Expr {
        Expr::IsNull(SubExpr::new(inner))
    }

    /// The constant TRUE predicate.
    pub fn true_lit() -> Expr {
        Expr::Lit(Value::Bool(true))
    }

    /// True iff this is the literal TRUE.
    pub fn is_true_lit(&self) -> bool {
        matches!(self, Expr::Lit(Value::Bool(true)))
    }

    /// Number of nodes in the expression tree.
    pub fn node_count(&self) -> usize {
        match self {
            Expr::Col(_) | Expr::Lit(_) => 1,
            Expr::Bin { left, right, .. } => 1 + left.node_count() + right.node_count(),
            Expr::Not(e) | Expr::IsNull(e) => 1 + e.node_count(),
        }
    }
}

/// Tagged by which member is present, not by a tag key: `{"col": id}`,
/// `{"lit": value}`, `{"bin": op, "l": e, "r": e}`, `{"not": e}`,
/// `{"is_null": e}` — so an expression carries no tag member.
impl Encode for Expr {
    fn encode(&self, w: &mut JsonWriter<'_>) {
        w.object(|w| match self {
            Expr::Col(c) => w.member("col", c),
            Expr::Lit(v) => w.member("lit", v),
            Expr::Bin { op, left, right } => {
                w.member("bin", op);
                w.member("l", &**left);
                w.member("r", &**right);
            }
            Expr::Not(x) => w.member("not", &**x),
            Expr::IsNull(x) => w.member("is_null", &**x),
        });
    }
}

impl Decode for Expr {
    fn decode(j: &Json) -> Result<Self, DecodeError> {
        let m = object(j)?;
        if m.contains_key("col") {
            required(m, "col", Decode::decode).map(Expr::Col)
        } else if m.contains_key("lit") {
            required(m, "lit", Decode::decode).map(Expr::Lit)
        } else if m.contains_key("bin") {
            Ok(Expr::bin(
                required(m, "bin", Decode::decode)?,
                required(m, "l", Decode::decode)?,
                required(m, "r", Decode::decode)?,
            ))
        } else if m.contains_key("not") {
            required(m, "not", Decode::decode).map(Expr::not)
        } else if m.contains_key("is_null") {
            required(m, "is_null", Decode::decode).map(Expr::is_null)
        } else {
            Err(DecodeError::expected("an expression"))
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Col(c) => write!(f, "{c}"),
            Expr::Lit(v) => write!(f, "{}", v.to_sql_literal()),
            Expr::Bin { op, left, right } => write!(f, "({left} {} {right})", op.sql()),
            Expr::Not(e) => write!(f, "(NOT {e})"),
            Expr::IsNull(e) => write!(f, "({e} IS NULL)"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_classification_is_partition() {
        for op in [
            BinOp::Eq,
            BinOp::Ne,
            BinOp::Lt,
            BinOp::Le,
            BinOp::Gt,
            BinOp::Ge,
            BinOp::Add,
            BinOp::Sub,
            BinOp::Mul,
            BinOp::And,
            BinOp::Or,
        ] {
            let classes = [op.is_comparison(), op.is_arithmetic(), op.is_logical()];
            assert_eq!(classes.iter().filter(|&&b| b).count(), 1, "{op:?}");
        }
    }

    #[test]
    fn display_renders_sql_like_text() {
        let e = Expr::and(
            Expr::eq(Expr::col(ColId(1)), Expr::lit(5i64)),
            Expr::not(Expr::is_null(Expr::col(ColId(2)))),
        );
        assert_eq!(e.to_string(), "((c1 = 5) AND (NOT (c2 IS NULL)))");
    }

    /// Every predicate is made of these: a field added to `Expr`, or to
    /// what a shared operand holds beside it, grows all of them.
    #[test]
    fn node_sizes_are_pinned() {
        assert_eq!(std::mem::size_of::<Expr>(), 32);
        assert_eq!(std::mem::size_of::<Hashed>(), 40);
        assert_eq!(std::mem::size_of::<SubExpr>(), 8);
    }

    #[test]
    fn operands_print_and_compare_like_their_expressions() {
        let e = Expr::and(
            Expr::eq(Expr::col(ColId(1)), Expr::lit(5i64)),
            Expr::not(Expr::is_null(Expr::col(ColId(2)))),
        );
        let Expr::Bin { left, right, .. } = &e else {
            unreachable!("an AND is a Bin");
        };
        assert_eq!(format!("{left:?}"), format!("{:?}", **left));
        assert_eq!(format!("{left:#?}"), format!("{:#?}", **left));
        assert_eq!(right.to_string(), "(NOT (c2 IS NULL))");
        let rebuilt = SubExpr::new((**left).clone());
        assert!(!SubExpr::ptr_eq(left, &rebuilt));
        assert_eq!(*left, rebuilt);
        assert_ne!(*left, *right);
        let hash = |s: &SubExpr| WordBuild::default().hash_one(s);
        assert_eq!(hash(left), hash(&rebuilt));
    }

    #[test]
    fn node_count() {
        let e = Expr::and(
            Expr::eq(Expr::col(ColId(1)), Expr::lit(5i64)),
            Expr::true_lit(),
        );
        assert_eq!(e.node_count(), 5);
        assert!(Expr::true_lit().is_true_lit());
        assert!(!Expr::lit(false).is_true_lit());
    }
}

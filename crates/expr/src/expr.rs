//! The scalar expression tree.

use ruletest_common::wire::{object, required, Decode, DecodeError, Encode};
use ruletest_common::{wire_names, ColId, Json, Value};
use std::fmt;
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
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Expr {
    /// Reference to a column instance by id.
    Col(ColId),
    /// A constant.
    Lit(Value),
    /// Binary operation.
    Bin {
        op: BinOp,
        left: Arc<Expr>,
        right: Arc<Expr>,
    },
    /// Logical negation (Kleene NOT).
    Not(Arc<Expr>),
    /// `expr IS NULL` — total (never returns NULL itself).
    IsNull(Arc<Expr>),
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
            left: Arc::new(left),
            right: Arc::new(right),
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
        Expr::Not(Arc::new(inner))
    }

    pub fn is_null(inner: Expr) -> Expr {
        Expr::IsNull(Arc::new(inner))
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
    fn encode(&self) -> Json {
        match self {
            Expr::Col(c) => Json::obj(vec![("col", c.encode())]),
            Expr::Lit(v) => Json::obj(vec![("lit", v.encode())]),
            Expr::Bin { op, left, right } => Json::obj(vec![
                ("bin", op.encode()),
                ("l", left.encode()),
                ("r", right.encode()),
            ]),
            Expr::Not(x) => Json::obj(vec![("not", x.encode())]),
            Expr::IsNull(x) => Json::obj(vec![("is_null", x.encode())]),
        }
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

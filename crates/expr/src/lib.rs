//! Scalar expressions, three-valued-logic evaluation, and the expression
//! analyses that transformation-rule preconditions are built from
//! (conjunct decomposition, column usage, null-rejection, substitution).

pub mod agg;
pub mod analysis;
pub mod eval;
pub mod expr;
pub mod types;

pub use agg::{AggAccumulator, AggCall, AggFunc};
pub use analysis::{
    collect_columns, columns_of, conjoin, conjuncts, every_column, for_each_conjunct,
    is_null_rejecting, remap_columns, rewrite_columns, substitute, try_col_eq_col,
};
pub use eval::{eval, eval_in};
pub use expr::{BinOp, Expr, SubExpr};
pub use types::infer_type;

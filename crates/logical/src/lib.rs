//! Logical relational operator trees.
//!
//! A [`LogicalTree`] is the "logical query tree" of the paper (§2.2,
//! Figure 1): a tree of logical relational operators, each instantiated
//! with its arguments. The optimizer's memo stores the same [`Operator`]
//! payloads with children abstracted into groups, so transformation rules
//! are written once against [`Operator`].

pub mod op;
pub mod schema;
pub mod tree;

pub use op::{projections, JoinKind, OpKind, Operator, SortKey};
pub use schema::{derive_schema, output_schema, ColumnInfo, Schema};
pub use tree::{IdGen, LogicalTree};

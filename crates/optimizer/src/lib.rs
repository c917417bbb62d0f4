//! A Cascades-style transformation-rule-based query optimizer.
//!
//! This crate is the substrate the paper instruments (§2.1): a top-down
//! optimizer whose search space is defined by *transformation rules* —
//! exploration rules producing equivalent logical expressions and
//! implementation rules producing physical alternatives. On top of the
//! classic architecture it provides the three extensions the testing
//! framework needs (§2.3):
//!
//! 1. **Rule tracing** — [`OptimizeResult::rule_set`] is `RuleSet(q)`, the
//!    set of rules exercised while optimizing a query.
//! 2. **Rule masking** — [`RuleMask`] disables any subset of rules for one
//!    optimization, yielding `Plan(q, ¬R)` and `Cost(q, ¬R)`.
//! 3. **Pattern export** — [`Optimizer::rule_pattern`] returns the pattern
//!    tree of any rule (and [`pattern::PatternTree::to_xml`] serializes it,
//!    mirroring the paper's XML-returning server API in §3.1).

pub mod cache;
pub mod cost;
pub mod mask;
pub mod memo;
pub mod optimizer;
pub mod pattern;
pub mod persist;
pub mod physical;
pub mod rewrite;
pub mod rule;
pub mod rules;
pub mod rules_impl;

pub use cache::{CacheKey, CacheStats, Cached, OptCache};
pub use mask::RuleMask;
pub use memo::{GroupId, Memo};
pub use optimizer::{
    match_bindings, match_signatures, Explored, OptimizeResult, Optimizer, OptimizerConfig, Search,
    Searched,
};
pub use pattern::{OpMatcher, PatternTree};
pub use persist::{campaign_fingerprint, SnapshotStore, WarmHit};
pub use physical::{PhysOp, PhysicalPlan};
pub use rewrite::{Offers, Probed, Rewrite};
pub use rule::{
    Bound, BoundChild, NewChild, NewTree, PhysCandidate, Rule, RuleAction, RuleCtx, RuleKind,
};
pub use ruletest_common::Fnv64;

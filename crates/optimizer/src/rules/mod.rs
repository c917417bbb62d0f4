//! The exploration (logical transformation) rule catalog.
//!
//! Every rule is correct by construction: the substitution preserves the
//! result multiset of the matched expression under SQL semantics (NULLs,
//! bags, three-valued logic). Preconditions that the pattern cannot express
//! are IR guards ([`crate::rewrite::Guard`]), or checked inside the
//! escape-hatch functions of the rules the IR does not cover — this is
//! exactly why a pattern is a *necessary but not sufficient* firing
//! condition (§3.1).
//!
//! Thirty-four of the forty rules are [`crate::rewrite::Rewrite`]s: all
//! twelve join rules, ten of thirteen select rules, all five aggregate
//! rules and seven of ten miscellaneous rules. Each family's module doc
//! names the rules it keeps as code.

mod agg;
mod join;
mod misc;
mod select;
pub(crate) mod util;

use crate::rule::Rule;

/// All exploration rules, in a stable order (their index is the `RuleId`
/// offset within the exploration segment).
pub fn exploration_rules() -> Vec<Rule> {
    let mut rules = Vec::new();
    rules.extend(join::rules());
    rules.extend(select::rules());
    rules.extend(agg::rules());
    rules.extend(misc::rules());
    rules
}

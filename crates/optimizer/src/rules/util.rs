//! Shared helpers for rule substitution functions.

use crate::rule::{BoundChild, NewChild};

/// Shorthand: a substitute child referencing the group a bound child
/// matched.
pub(crate) fn gref(child: &BoundChild) -> NewChild {
    NewChild::Group(child.group())
}

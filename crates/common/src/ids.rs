//! Identifier newtypes used across the workspace.

use crate::json::{JsonReader, JsonWriter};
use crate::wire::{Decode, DecodeError, Encode};
use std::fmt;

/// Identifies a base table in the catalog.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TableId(pub u32);

impl fmt::Display for TableId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

/// Identifies a column *instance* within one logical query tree.
///
/// Column ids are assigned per query: every `Get` instantiation mints fresh
/// ids for the columns it produces (so self-joins of the same base table get
/// distinct ids), and computed columns (projections, aggregates) mint fresh
/// ids too. Operators reference columns exclusively by id, which is what
/// makes structural transformations (commute, associate) order-insensitive.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ColId(pub u32);

impl fmt::Display for ColId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// Identifies a transformation rule in the optimizer's rule table.
///
/// Rule ids are dense (0..n) so rule masks can be bitsets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RuleId(pub u16);

impl fmt::Display for RuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// An id's wire form is its number.
macro_rules! id_wire {
    ($($ty:ident),+) => {$(
        impl Encode for $ty {
            fn encode(&self, w: &mut JsonWriter<'_>) {
                self.0.encode(w);
            }
        }

        impl Decode for $ty {
            fn decode(r: &mut JsonReader<'_>) -> Result<Self, DecodeError> {
                Decode::decode(r).map($ty)
            }
        }
    )+};
}

id_wire!(TableId, ColId, RuleId);

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn ids_display_with_kind_prefix() {
        assert_eq!(TableId(3).to_string(), "T3");
        assert_eq!(ColId(17).to_string(), "c17");
        assert_eq!(RuleId(5).to_string(), "r5");
    }

    #[test]
    fn ids_hash_and_order() {
        let mut set = HashSet::new();
        set.insert(ColId(1));
        set.insert(ColId(1));
        set.insert(ColId(2));
        assert_eq!(set.len(), 2);
        assert!(ColId(1) < ColId(2));
        assert!(RuleId(0) < RuleId(9));
    }
}

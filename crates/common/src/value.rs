//! SQL values, data types, and rows.
//!
//! The value domain is intentionally small (NULL, BOOL, INT, STRING): the
//! framework tests *transformation rules*, whose firing conditions depend on
//! operator shapes, keys, and nullability — not on a rich type system.
//! Floating point is excluded on purpose so that two semantically equivalent
//! plans always produce bit-identical results (no rounding divergence in
//! correctness validation).

use crate::json::{JsonReader, JsonWriter};
use crate::wire::{Decode, DecodeError, Encode};
use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

/// The static type of a column or expression.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    Bool,
    Int,
    Str,
}

crate::wire_names!(DataType { Bool => "bool", Int => "int", Str => "str" });

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataType::Bool => write!(f, "BOOLEAN"),
            DataType::Int => write!(f, "BIGINT"),
            DataType::Str => write!(f, "VARCHAR"),
        }
    }
}

/// A runtime SQL value.
///
/// `Null` is a member of every type; typed nulls are not distinguished
/// because the executor never needs to recover a null's type at runtime.
///
/// A string is shared by count: cloning a value (which the executor does for
/// every row it joins, groups or returns) never allocates, and the rows
/// drawn from one vocabulary word point at one allocation.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Value {
    Null,
    Bool(bool),
    Int(i64),
    Str(Arc<str>),
}

impl Value {
    /// Returns this value's data type, or `None` for NULL.
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Bool(_) => Some(DataType::Bool),
            Value::Int(_) => Some(DataType::Int),
            Value::Str(_) => Some(DataType::Str),
        }
    }

    /// True iff the value is SQL NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// SQL comparison: returns `None` if either side is NULL (UNKNOWN),
    /// otherwise the ordering of the two non-null values.
    ///
    /// Comparing values of different non-null types is an invariant
    /// violation (the planner type-checks expressions), and panics.
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        match (self, other) {
            (Value::Null, _) | (_, Value::Null) => None,
            (Value::Bool(a), Value::Bool(b)) => Some(a.cmp(b)),
            (Value::Int(a), Value::Int(b)) => Some(a.cmp(b)),
            (Value::Str(a), Value::Str(b)) => Some(a.cmp(b)),
            (a, b) => panic!("type error: comparing {a:?} with {b:?}"),
        }
    }

    /// Total order used for sorting and multiset normalization:
    /// NULL sorts first; then by type tag; then by value.
    ///
    /// This is *not* SQL comparison — it exists so plans can be compared as
    /// multisets and so ORDER BY has deterministic NULL placement
    /// (NULLS FIRST, matching the dialect we generate).
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        fn tag(v: &Value) -> u8 {
            match v {
                Value::Null => 0,
                Value::Bool(_) => 1,
                Value::Int(_) => 2,
                Value::Str(_) => 3,
            }
        }
        match (self, other) {
            (Value::Null, Value::Null) => Ordering::Equal,
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            (a, b) => tag(a).cmp(&tag(b)),
        }
    }

    /// Extracts an `i64`, panicking on non-int; NULL returns `None`.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Null => None,
            Value::Int(i) => Some(*i),
            other => panic!("type error: expected INT, got {other:?}"),
        }
    }

    /// Extracts a `bool`, panicking on non-bool; NULL returns `None`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Null => None,
            Value::Bool(b) => Some(*b),
            other => panic!("type error: expected BOOL, got {other:?}"),
        }
    }

    /// Renders the value as a SQL literal.
    pub fn to_sql_literal(&self) -> String {
        match self {
            Value::Null => "NULL".to_string(),
            Value::Bool(true) => "TRUE".to_string(),
            Value::Bool(false) => "FALSE".to_string(),
            Value::Int(i) => i.to_string(),
            Value::Str(s) => format!("'{}'", s.replace('\'', "''")),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Str(s) => write!(f, "{s}"),
        }
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.into())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s.into())
    }
}

/// Tagged by shape, not by a tag key: `null`, `true`/`false`, `{"int":
/// "<decimal>"}` (a string, because an `i64` exceeds the 2^53 a JSON number
/// holds exactly) or `{"str": "..."}`.
impl Encode for Value {
    fn encode(&self, w: &mut JsonWriter<'_>) {
        match self {
            Value::Null => w.null(),
            Value::Bool(b) => w.bool(*b),
            Value::Int(i) => w.object(|w| w.member("int", &i.to_string())),
            Value::Str(s) => w.object(|w| w.member("str", &**s)),
        }
    }
}

/// A member that is not a string counts as absent.
impl Decode for Value {
    fn decode(r: &mut JsonReader<'_>) -> Result<Self, DecodeError> {
        match r.peek() {
            Some(b't' | b'f') => return r.bool().map(Value::Bool),
            Some(b'{') => r.object()?,
            _ if r.null()? => return Ok(Value::Null),
            _ => return Err(DecodeError::expected("a value")),
        }
        let (mut int, mut str) = (None, None);
        while let Some(key) = r.key()? {
            let text = if r.peek() == Some(b'"') {
                Some(r.str()?)
            } else {
                r.skip().map(|()| None)?
            };
            match &*key {
                "int" => int = text,
                "str" => str = text,
                _ => {}
            }
        }
        match (int, str) {
            (Some(i), _) => (i.parse().map(Value::Int))
                .map_err(|_| DecodeError::expected("a decimal i64").at("int")),
            (None, Some(s)) => Ok(Value::Str((*s).into())),
            (None, None) => Err(DecodeError::expected("a value")),
        }
    }
}

/// A row of values. Positional — the surrounding operator's output schema
/// gives each position its column id.
pub type Row = Vec<Value>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sql_cmp_is_unknown_with_null() {
        assert_eq!(Value::Null.sql_cmp(&Value::Int(1)), None);
        assert_eq!(Value::Int(1).sql_cmp(&Value::Null), None);
        assert_eq!(Value::Null.sql_cmp(&Value::Null), None);
    }

    #[test]
    fn sql_cmp_orders_non_nulls() {
        assert_eq!(Value::Int(1).sql_cmp(&Value::Int(2)), Some(Ordering::Less));
        assert_eq!(
            Value::Str("b".into()).sql_cmp(&Value::Str("a".into())),
            Some(Ordering::Greater)
        );
        assert_eq!(
            Value::Bool(true).sql_cmp(&Value::Bool(true)),
            Some(Ordering::Equal)
        );
    }

    #[test]
    #[should_panic(expected = "type error")]
    fn sql_cmp_panics_on_cross_type() {
        let _ = Value::Int(1).sql_cmp(&Value::Str("1".into()));
    }

    #[test]
    fn total_cmp_puts_null_first_and_is_total() {
        let mut vals = vec![
            Value::Str("a".into()),
            Value::Int(5),
            Value::Null,
            Value::Bool(false),
            Value::Int(-2),
        ];
        vals.sort_by(|a, b| a.total_cmp(b));
        assert_eq!(
            vals,
            vec![
                Value::Null,
                Value::Bool(false),
                Value::Int(-2),
                Value::Int(5),
                Value::Str("a".into()),
            ]
        );
    }

    #[test]
    fn literal_rendering_escapes_quotes() {
        assert_eq!(Value::Str("O'Brien".into()).to_sql_literal(), "'O''Brien'");
        assert_eq!(Value::Null.to_sql_literal(), "NULL");
        assert_eq!(Value::Int(-9).to_sql_literal(), "-9");
        assert_eq!(Value::Bool(true).to_sql_literal(), "TRUE");
    }

    #[test]
    fn extractors_handle_null() {
        assert_eq!(Value::Null.as_int(), None);
        assert_eq!(Value::Int(7).as_int(), Some(7));
        assert_eq!(Value::Null.as_bool(), None);
        assert_eq!(Value::Bool(true).as_bool(), Some(true));
    }

    #[test]
    fn a_string_clone_shares_the_allocation_and_a_value_stays_three_words() {
        assert_eq!(std::mem::size_of::<Value>(), 24);
        let a = Value::from("shared");
        let (Value::Str(x), Value::Str(y)) = (&a, &a.clone()) else {
            panic!("not strings");
        };
        assert!(Arc::ptr_eq(x, y));
    }

    #[test]
    fn data_type_of_null_is_none() {
        assert_eq!(Value::Null.data_type(), None);
        assert_eq!(Value::Int(0).data_type(), Some(DataType::Int));
    }
}

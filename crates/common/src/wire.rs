//! The one wire codec: every persisted format is declared once, as an
//! [`Encode`]/[`Decode`] pair next to the type it encodes. [`Encode`]
//! writes into a [`JsonWriter`]; [`Decode`] reads the [`Json`] a parse
//! returns.
//!
//! Three `macro_rules!` forms derive both directions from one declaration
//! of the wire names, so an encoder and its decoder cannot drift apart:
//!
//! * [`wire_record!`](crate::wire_record) — a struct as an object,
//!   `"wire name" => field`;
//! * [`wire_enum!`](crate::wire_enum) — an enum of struct-like variants as
//!   an object carrying a tag key, `"tag value" => Variant { .. }`;
//! * [`wire_names!`](crate::wire_names) — a C-like enum as a string, which
//!   also yields its `name`/`from_name` table.
//!
//! A declaration lists its members in ascending wire-name order, the order
//! the writer must emit them in (debug builds assert it), so the canonical
//! text needs no sort. Formats that are not tagged records (an `Expr` is
//! tagged by which key is present, a shard line splices its raw key)
//! implement the two traits by hand with [`JsonWriter::member`] on one side
//! and [`object`], [`required`], [`optional`] and [`array`] on the other;
//! DESIGN.md §13 lists them. Decoding never panics on any input, and a
//! [`DecodeError`] names the offending field as a path
//! (`profile.spans[3].wall_ns`) that is assembled only while a failure
//! propagates outwards — the success path does no formatting.

use crate::json::{Json, JsonWriter, Members};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// The wire form of a value, written into `w`.
pub trait Encode {
    fn encode(&self, w: &mut JsonWriter<'_>);
}

/// The compact (canonical, single-line) text of `value`.
pub fn to_compact<T: Encode + ?Sized>(value: &T) -> String {
    let mut out = String::new();
    value.encode(&mut JsonWriter::compact(&mut out));
    out
}

/// The pretty text of `value`, newline-terminated: a file's contents.
pub fn to_pretty<T: Encode + ?Sized>(value: &T) -> String {
    let mut out = String::new();
    value.encode(&mut JsonWriter::pretty(&mut out));
    out + "\n"
}

/// Inverse of [`Encode`]: decoding the parse of `v`'s text gives `v`, bit
/// for bit.
pub trait Decode: Sized {
    fn decode(j: &Json) -> Result<Self, DecodeError>;
}

/// Why a document did not decode, and where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError {
    /// Field path from the decoded root, innermost segment last; empty
    /// when the root value itself is wrong.
    path: String,
    problem: String,
}

impl DecodeError {
    pub fn new(problem: impl Into<String>) -> Self {
        DecodeError {
            path: String::new(),
            problem: problem.into(),
        }
    }

    pub fn expected(what: &str) -> Self {
        DecodeError::new(format!("expected {what}"))
    }

    /// Prefixes the path with an object key.
    pub fn at(mut self, key: &str) -> Self {
        let dot = if self.path.is_empty() || self.path.starts_with('[') {
            ""
        } else {
            "."
        };
        self.path = format!("{key}{dot}{}", self.path);
        self
    }

    /// Prefixes the path with an array index.
    pub fn at_index(self, i: usize) -> Self {
        self.at(&format!("[{i}]"))
    }
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.path.is_empty() {
            f.write_str(&self.problem)
        } else {
            write!(f, "{}: {}", self.path, self.problem)
        }
    }
}

impl std::error::Error for DecodeError {}

impl From<DecodeError> for String {
    fn from(e: DecodeError) -> String {
        e.to_string()
    }
}

/// The members of an object value.
pub fn object(j: &Json) -> Result<&Members, DecodeError> {
    j.as_obj().ok_or_else(|| DecodeError::expected("an object"))
}

/// Decodes member `key`, which must be present.
pub fn required<'a, T>(
    members: &'a Members,
    key: &str,
    decode: impl FnOnce(&'a Json) -> Result<T, DecodeError>,
) -> Result<T, DecodeError> {
    match members.get(key) {
        Some(v) => decode(v).map_err(|e| e.at(key)),
        None => Err(DecodeError::new("missing").at(key)),
    }
}

/// Decodes member `key` when it is present and not `null`.
pub fn optional<'a, T>(
    members: &'a Members,
    key: &str,
    decode: impl FnOnce(&'a Json) -> Result<T, DecodeError>,
) -> Result<Option<T>, DecodeError> {
    match members.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => decode(v).map(Some).map_err(|e| e.at(key)),
    }
}

// ---------------------------------------------------------------------
// Primitives and containers.

impl<T: Encode + ?Sized> Encode for &T {
    fn encode(&self, w: &mut JsonWriter<'_>) {
        (**self).encode(w);
    }
}

impl Encode for u64 {
    fn encode(&self, w: &mut JsonWriter<'_>) {
        w.count(*self);
    }
}

/// A number up to 2^53 or, above (where [`JsonWriter::count`] writes one),
/// a decimal string.
impl Decode for u64 {
    fn decode(j: &Json) -> Result<Self, DecodeError> {
        match j {
            Json::Str(s) => s.parse().ok(),
            _ => j.as_u64(),
        }
        .ok_or_else(|| DecodeError::expected("a non-negative integer"))
    }
}

macro_rules! narrow_uint {
    ($($ty:ty),+) => {$(
        impl Encode for $ty {
            fn encode(&self, w: &mut JsonWriter<'_>) {
                w.count(*self as u64);
            }
        }

        impl Decode for $ty {
            fn decode(j: &Json) -> Result<Self, DecodeError> {
                <$ty>::try_from(u64::decode(j)?)
                    .map_err(|_| DecodeError::new(concat!("out of range for ", stringify!($ty))))
            }
        }
    )+};
}

narrow_uint!(usize, u32, u16);

impl Encode for bool {
    fn encode(&self, w: &mut JsonWriter<'_>) {
        w.bool(*self);
    }
}

impl Decode for bool {
    fn decode(j: &Json) -> Result<Self, DecodeError> {
        j.as_bool()
            .ok_or_else(|| DecodeError::expected("true or false"))
    }
}

impl Encode for str {
    fn encode(&self, w: &mut JsonWriter<'_>) {
        w.str(self);
    }
}

impl Encode for String {
    fn encode(&self, w: &mut JsonWriter<'_>) {
        w.str(self);
    }
}

impl Decode for String {
    fn decode(j: &Json) -> Result<Self, DecodeError> {
        j.as_str()
            .map(str::to_string)
            .ok_or_else(|| DecodeError::expected("a string"))
    }
}

/// The hex of the bit pattern: a JSON number is a decimal `f64`, and a
/// round-trip through decimal could perturb the bits — costs must compare
/// bit-identical warm vs cold. ([`decimal`] is the readable alternative for
/// measurements.)
impl Encode for f64 {
    fn encode(&self, w: &mut JsonWriter<'_>) {
        w.str(&format!("{:016x}", self.to_bits()));
    }
}

impl Decode for f64 {
    fn decode(j: &Json) -> Result<Self, DecodeError> {
        j.as_str()
            .and_then(|s| u64::from_str_radix(s, 16).ok())
            .map(f64::from_bits)
            .ok_or_else(|| DecodeError::expected("an f64 bit pattern in hex"))
    }
}

/// `via decimal`: an `f64` as a plain JSON number, for wall-clock
/// measurements a human reads and nothing compares bit for bit.
pub mod decimal {
    use super::{DecodeError, Json, JsonWriter};

    pub fn encode(f: &f64, w: &mut JsonWriter<'_>) {
        w.num(*f);
    }

    pub fn decode(j: &Json) -> Result<f64, DecodeError> {
        j.as_f64().ok_or_else(|| DecodeError::expected("a number"))
    }
}

impl<T: Encode> Encode for [T] {
    fn encode(&self, w: &mut JsonWriter<'_>) {
        w.array(|w| self.iter().for_each(|v| v.encode(w)));
    }
}

impl<T: Encode> Encode for Vec<T> {
    fn encode(&self, w: &mut JsonWriter<'_>) {
        self.as_slice().encode(w);
    }
}

/// Decodes every element of an array into a collection, naming the index
/// of the element that fails.
pub fn array<T, C: FromIterator<T>>(
    j: &Json,
    decode: impl Fn(&Json) -> Result<T, DecodeError>,
) -> Result<C, DecodeError> {
    j.as_arr()
        .ok_or_else(|| DecodeError::expected("an array"))?
        .iter()
        .enumerate()
        .map(|(i, v)| decode(v).map_err(|e| e.at_index(i)))
        .collect()
}

impl<T: Decode> Decode for Vec<T> {
    fn decode(j: &Json) -> Result<Self, DecodeError> {
        array(j, T::decode)
    }
}

impl<T: Encode> Encode for BTreeSet<T> {
    fn encode(&self, w: &mut JsonWriter<'_>) {
        w.array(|w| self.iter().for_each(|v| v.encode(w)));
    }
}

impl<T: Decode + Ord> Decode for BTreeSet<T> {
    fn decode(j: &Json) -> Result<Self, DecodeError> {
        array(j, T::decode)
    }
}

/// `null` when absent. (A record field that is *omitted* when absent is
/// declared `: omit_none` instead.)
impl<T: Encode> Encode for Option<T> {
    fn encode(&self, w: &mut JsonWriter<'_>) {
        match self {
            Some(v) => v.encode(w),
            None => w.null(),
        }
    }
}

impl<T: Decode> Decode for Option<T> {
    fn decode(j: &Json) -> Result<Self, DecodeError> {
        match j {
            Json::Null => Ok(None),
            _ => T::decode(j).map(Some),
        }
    }
}

/// A two-element array.
impl<A: Encode, B: Encode> Encode for (A, B) {
    fn encode(&self, w: &mut JsonWriter<'_>) {
        w.array(|w| {
            self.0.encode(w);
            self.1.encode(w);
        });
    }
}

impl<A: Decode, B: Decode> Decode for (A, B) {
    fn decode(j: &Json) -> Result<Self, DecodeError> {
        match j.as_arr() {
            Some([a, b]) => Ok((
                A::decode(a).map_err(|e| e.at_index(0))?,
                B::decode(b).map_err(|e| e.at_index(1))?,
            )),
            _ => Err(DecodeError::expected("a two-element array")),
        }
    }
}

/// An object keyed by the map's keys (already in order).
impl<V: Encode> Encode for BTreeMap<String, V> {
    fn encode(&self, w: &mut JsonWriter<'_>) {
        w.object(|w| self.iter().for_each(|(k, v)| w.member(k, v)));
    }
}

impl<V: Decode> Decode for BTreeMap<String, V> {
    fn decode(j: &Json) -> Result<Self, DecodeError> {
        object(j)?
            .iter()
            .map(|(k, v)| Ok((k.clone(), V::decode(v).map_err(|e| e.at(k))?)))
            .collect()
    }
}

// ---------------------------------------------------------------------
// The declaration macros.

/// Declares the wire form of a struct: one object member per field, listed
/// in ascending wire-name order.
///
/// ```ignore
/// wire_record!(SortKey { "col" => col, "desc" => descending });
/// ```
///
/// A field may name a codec module (`via m`: `m::encode(&T, &mut
/// JsonWriter)`, `m::decode(&Json) -> Result<T, DecodeError>`) when its
/// type's own wire form is not the one this format uses, and a presence
/// rule: `: omit_none` leaves an `Option` field's member out when it is
/// `None`, `: or_default` reads a missing (or `null`) member as
/// `Default::default()`. A member written `"name" => method()` is derived:
/// encoding writes `self.method()` as a JSON number, and decoding ignores
/// it, as it ignores every unknown member.
#[macro_export]
macro_rules! wire_record {
    ($ty:ident { $($members:tt)+ }) => {
        impl $crate::wire::Encode for $ty {
            fn encode(&self, w: &mut $crate::json::JsonWriter<'_>) {
                w.object(|w| {
                    $crate::wire_put_members!(self w $($members)+);
                });
            }
        }

        impl $crate::wire::Decode for $ty {
            fn decode(
                j: &$crate::json::Json,
            ) -> ::std::result::Result<Self, $crate::wire::DecodeError> {
                let members = $crate::wire::object(j)?;
                Ok($crate::wire_get_members!($ty members [] $($members)+))
            }
        }
    };
}

/// Writes a record's members in declared order (internal to
/// [`wire_record!`](crate::wire_record)).
#[doc(hidden)]
#[macro_export]
macro_rules! wire_put_members {
    ($s:ident $w:ident) => {};
    ($s:ident $w:ident $wire:literal => $method:ident () $(, $($rest:tt)*)?) => {
        $w.key($wire);
        $w.num($s.$method());
        $crate::wire_put_members!($s $w $($($rest)*)?);
    };
    ($s:ident $w:ident
        $wire:literal => $field:ident $(via $codec:ident)? $(: $rule:ident)? $(, $($rest:tt)*)?
    ) => {
        $crate::wire_put!($w, $wire, &$s.$field, [$($codec)?], [$($rule)?]);
        $crate::wire_put_members!($s $w $($($rest)*)?);
    };
}

/// Builds a record from its stored members, skipping the derived ones
/// (internal to [`wire_record!`](crate::wire_record)).
#[doc(hidden)]
#[macro_export]
macro_rules! wire_get_members {
    ($ty:ident $m:ident [$($init:tt)*]) => {
        $ty { $($init)* }
    };
    ($ty:ident $m:ident [$($init:tt)*] $wire:literal => $method:ident () $(, $($rest:tt)*)?) => {
        $crate::wire_get_members!($ty $m [$($init)*] $($($rest)*)?)
    };
    ($ty:ident $m:ident [$($init:tt)*]
        $wire:literal => $field:ident $(via $codec:ident)? $(: $rule:ident)? $(, $($rest:tt)*)?
    ) => {
        $crate::wire_get_members!($ty $m [
            $($init)* $field: $crate::wire_get!($m, $wire, [$($codec)?], [$($rule)?]),
        ] $($($rest)*)?)
    };
}

/// Declares the wire form of an enum whose variants are struct-like (or
/// unit, written `Variant {}`): an object holding the variant's tag under
/// `$tag` next to the variant's fields. Each variant lists its fields in
/// ascending wire-name order; the tag is written in its place among them.
/// Fields take `via` as in [`wire_record!`](crate::wire_record).
///
/// ```ignore
/// wire_enum!(Operator tagged "op" {
///     "select" => Select { "pred" => predicate },
///     "distinct" => Distinct {},
/// });
/// ```
#[macro_export]
macro_rules! wire_enum {
    ($ty:ident tagged $tag:literal {
        $($name:literal => $variant:ident {
            $($wire:literal => $field:ident $(via $codec:ident)?),* $(,)?
        }),+ $(,)?
    }) => {
        impl $crate::wire::Encode for $ty {
            fn encode(&self, w: &mut $crate::json::JsonWriter<'_>) {
                match self {
                    $($ty::$variant { $($field),* } => w.object(|w| {
                        #[allow(unused_mut)]
                        let mut tagged = false;
                        $(
                            if !tagged && $tag < $wire {
                                w.member($tag, $name);
                                tagged = true;
                            }
                            $crate::wire_put!(w, $wire, $field, [$($codec)?], []);
                        )*
                        if !tagged {
                            w.member($tag, $name);
                        }
                    }),)+
                }
            }
        }

        impl $crate::wire::Decode for $ty {
            fn decode(
                j: &$crate::json::Json,
            ) -> ::std::result::Result<Self, $crate::wire::DecodeError> {
                let members = $crate::wire::object(j)?;
                let tag = $crate::wire::required(members, $tag, |t| {
                    t.as_str()
                        .ok_or_else(|| $crate::wire::DecodeError::expected("a string"))
                })?;
                match tag {
                    $($name => Ok($ty::$variant {
                        $($field: $crate::wire_get!(members, $wire, [$($codec)?], []),)*
                    }),)+
                    other => Err($crate::wire::DecodeError::new(format!(
                        "unknown {} '{other}'",
                        stringify!($ty)
                    ))
                    .at($tag)),
                }
            }
        }
    };
}

/// Declares the stable names of a C-like enum: its wire form is the name
/// as a string, and the same table is exposed as `name` / `from_name`, with
/// every variant in declaration order as `ALL`.
///
/// ```ignore
/// wire_names!(RulePhase { Explore => "explore", Implement => "implement" });
/// ```
#[macro_export]
macro_rules! wire_names {
    ($ty:ident { $($variant:ident => $name:literal),+ $(,)? }) => {
        impl $ty {
            /// Every variant, in declaration order.
            pub const ALL: [$ty; [$($name),+].len()] = [$($ty::$variant),+];

            /// Stable name (wire form, reports, CLI).
            pub fn name(self) -> &'static str {
                match self {
                    $($ty::$variant => $name,)+
                }
            }

            /// Inverse of `name`.
            pub fn from_name(name: &str) -> Option<$ty> {
                match name {
                    $($name => Some($ty::$variant),)+
                    _ => None,
                }
            }
        }

        impl $crate::wire::Encode for $ty {
            fn encode(&self, w: &mut $crate::json::JsonWriter<'_>) {
                w.str(self.name());
            }
        }

        impl $crate::wire::Decode for $ty {
            fn decode(
                j: &$crate::json::Json,
            ) -> ::std::result::Result<Self, $crate::wire::DecodeError> {
                j.as_str().and_then($ty::from_name).ok_or_else(|| {
                    $crate::wire::DecodeError::new(format!(
                        "unknown {} {}",
                        stringify!($ty),
                        j.to_string_compact()
                    ))
                })
            }
        }
    };
}

/// Writes one member (internal to the declaration macros).
#[doc(hidden)]
#[macro_export]
macro_rules! wire_put {
    ($w:ident, $wire:literal, $value:expr, $codec:tt, [omit_none]) => {
        if let Some(present) = $value {
            $w.key($wire);
            $crate::wire_codec!(encode $codec)(present, $w);
        }
    };
    ($w:ident, $wire:literal, $value:expr, $codec:tt, $rule:tt) => {
        $w.key($wire);
        $crate::wire_codec!(encode $codec)($value, $w);
    };
}

/// Reads one member (internal to the declaration macros).
#[doc(hidden)]
#[macro_export]
macro_rules! wire_get {
    ($members:ident, $wire:literal, $codec:tt, []) => {
        $crate::wire::required($members, $wire, $crate::wire_codec!(decode $codec))?
    };
    ($members:ident, $wire:literal, $codec:tt, [omit_none]) => {
        $crate::wire::optional($members, $wire, $crate::wire_codec!(decode $codec))?
    };
    ($members:ident, $wire:literal, $codec:tt, [or_default]) => {
        $crate::wire::optional($members, $wire, $crate::wire_codec!(decode $codec))?
            .unwrap_or_default()
    };
}

/// The encode or decode function of a field: its type's own, or the one in
/// the `via` module (internal to the declaration macros).
#[doc(hidden)]
#[macro_export]
macro_rules! wire_codec {
    (encode []) => {
        $crate::wire::Encode::encode
    };
    (decode []) => {
        $crate::wire::Decode::decode
    };
    ($direction:ident [$codec:ident]) => {
        $codec::$direction
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, PartialEq, Default)]
    struct Inner {
        id: u32,
        weight: f64,
    }
    wire_record!(Inner { "id" => id, "w" => weight });

    #[derive(Debug, Clone, PartialEq)]
    struct Outer {
        items: Vec<Inner>,
        note: Option<String>,
        seed: u64,
        extra: Inner,
        secs: f64,
    }

    impl Outer {
        fn count(&self) -> f64 {
            self.items.len() as f64
        }
    }

    wire_record!(Outer {
        "count" => count(),
        "extra" => extra: or_default,
        "items" => items,
        "note" => note: omit_none,
        "secs" => secs via decimal,
        "seed" => seed,
    });

    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Kind {
        Left,
        Right,
    }
    wire_names!(Kind { Left => "left", Right => "right" });

    #[derive(Debug, Clone, PartialEq)]
    enum Shape {
        Dot {},
        Line { kind: Kind, len: usize },
    }
    wire_enum!(Shape tagged "shape" {
        "dot" => Dot {},
        "line" => Line { "kind" => kind, "len" => len },
    });

    /// Canonical text of an `Outer`: no `note` member (`omit_none`), the
    /// derived `count`, a `seed` above 2^53 and a negative zero weight.
    const OUTER: &str = "{\"count\":2,\"extra\":{\"id\":0,\"w\":\"0000000000000000\"},\
        \"items\":[{\"id\":1,\"w\":\"3fd3333333333334\"},{\"id\":2,\"w\":\"8000000000000000\"}],\
        \"secs\":1.25,\"seed\":\"18446744073709551615\"}";

    fn parse(text: &str) -> Json {
        Json::parse(text).unwrap()
    }

    #[test]
    fn records_round_trip_with_presence_rules_and_derived_members() {
        let v = Outer::decode(&parse(OUTER)).unwrap();
        assert_eq!(to_compact(&v), OUTER);
        assert_eq!((v.seed, v.note.as_ref(), v.secs), (u64::MAX, None, 1.25));
        assert_eq!(v.items[0].weight.to_bits(), (0.1f64 + 0.2).to_bits());
        assert_eq!(v.items[1].weight.to_bits(), (-0.0f64).to_bits());
        // `omit_none` writes the member only when present; `or_default`
        // reads a missing member as the default.
        let noted = Outer {
            note: Some("n".to_string()),
            ..v.clone()
        };
        let text = to_compact(&noted);
        assert_eq!(parse(&text).get("note"), Some(&Json::Str("n".to_string())));
        assert_eq!(Outer::decode(&parse(&text)).unwrap(), noted);
        // Pretty text is the same document.
        assert_eq!(parse(&to_pretty(&noted)), parse(&text));
        let without_extra = OUTER.replace("\"extra\":{\"id\":0,\"w\":\"0000000000000000\"},", "");
        assert_eq!(Outer::decode(&parse(&without_extra)).unwrap(), v);
    }

    #[test]
    fn u64_is_a_number_up_to_2_pow_53_and_a_string_above() {
        for (n, text) in [
            (0u64, "0"),
            (1 << 53, "9007199254740992"),
            ((1 << 53) + 1, "\"9007199254740993\""),
            (u64::MAX, "\"18446744073709551615\""),
        ] {
            assert_eq!(to_compact(&n), text);
            assert_eq!(u64::decode(&parse(text)), Ok(n));
        }
        // The decoder accepts both forms for small values, and nothing that
        // rounds: a number above 2^53 is refused.
        assert_eq!(u64::decode(&Json::Str("7".to_string())), Ok(7));
        for bad in ["1e300", "9007199254740994", "-1", "1.5", "\"x\"", "null"] {
            assert!(u64::decode(&parse(bad)).is_err(), "{bad}");
        }
        assert!(u16::decode(&Json::Num(65_536.0)).is_err());
        assert_eq!(usize::decode(&Json::Num(65_536.0)), Ok(65_536));
    }

    #[test]
    fn f64_bits_survive_the_round_trip() {
        for f in [0.0, -0.0, f64::MIN_POSITIVE, 1e300, 0.1 + 0.2, f64::NAN] {
            assert_eq!(
                f64::decode(&parse(&to_compact(&f))).unwrap().to_bits(),
                f.to_bits()
            );
        }
        assert!(f64::decode(&Json::Num(1.5)).is_err());
    }

    #[test]
    fn enums_round_trip_and_reject_unknown_tags() {
        let line = "{\"kind\":\"left\",\"len\":1,\"shape\":\"line\"}";
        let (kind, len) = (Kind::Left, 1);
        assert_eq!(Shape::decode(&parse(line)), Ok(Shape::Line { kind, len }));
        assert_eq!(to_compact(&Shape::Line { kind, len }), line);
        assert_eq!(to_compact(&Shape::Dot {}), "{\"shape\":\"dot\"}");
        assert_eq!(
            Shape::decode(&parse("{\"shape\":\"dot\"}")),
            Ok(Shape::Dot {})
        );
        assert_eq!(Kind::from_name("right"), Some(Kind::Right));
        assert_eq!(Kind::ALL, [Kind::Left, Kind::Right]);
        assert_eq!(Kind::Left.name(), "left");
        let err = Shape::decode(&parse("{\"shape\":\"blob\"}")).unwrap_err();
        assert_eq!(err.to_string(), "shape: unknown Shape 'blob'");
        let err = Shape::decode(&parse(&line.replace("left", "up"))).unwrap_err();
        assert_eq!(err.to_string(), "kind: unknown Kind \"up\"");
    }

    #[test]
    fn errors_carry_the_field_path() {
        let message = |text: &str| Outer::decode(&parse(text)).unwrap_err().to_string();
        assert_eq!(
            message(&OUTER.replace("\"id\":2", "\"id\":\"two\"")),
            "items[1].id: expected a non-negative integer"
        );
        assert_eq!(message("{\"items\":[],\"secs\":1}"), "seed: missing");
        assert_eq!(message("null"), "expected an object");
        let err = Vec::<(u32, u32)>::decode(&parse("[[1,2],[3]]")).unwrap_err();
        assert_eq!(err.to_string(), "[1]: expected a two-element array");
        let map = parse("{\"a\":{\"b\":[true,7]}}");
        let err = BTreeMap::<String, BTreeMap<String, Vec<bool>>>::decode(&map).unwrap_err();
        assert_eq!(err.to_string(), "a.b[1]: expected true or false");
        assert_eq!(String::from(err.clone()), err.to_string());
    }

    #[test]
    fn the_tag_takes_its_sorted_place_among_a_variants_fields() {
        #[derive(Debug, PartialEq)]
        enum Mark {
            Span { a: u32, z: u32 },
        }
        wire_enum!(Mark tagged "m" { "span" => Span { "a" => a, "z" => z } });
        let text = to_compact(&Mark::Span { a: 1, z: 2 });
        assert_eq!(text, "{\"a\":1,\"m\":\"span\",\"z\":2}");
        assert_eq!(Mark::decode(&parse(&text)), Ok(Mark::Span { a: 1, z: 2 }));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "object keys out of order: \"w\" before \"id\"")]
    fn an_unsorted_declaration_fails_in_debug_builds() {
        struct Unsorted {
            id: u32,
            weight: u32,
        }
        impl Encode for Unsorted {
            fn encode(&self, w: &mut JsonWriter<'_>) {
                w.object(|w| {
                    w.member("w", &self.weight);
                    w.member("id", &self.id);
                });
            }
        }
        to_compact(&Unsorted { id: 1, weight: 2 });
    }
}

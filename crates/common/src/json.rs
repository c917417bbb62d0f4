//! Minimal JSON: one writer, one reader, and a value model.
//!
//! The workspace builds fully offline with zero external dependencies, so
//! it carries its own JSON support: enough of RFC 8259 to write and read
//! back every persisted document (cache shards, checkpoints, bundles, run
//! reports) and JSONL trace events. Writing and reading are separate:
//!
//! * [`JsonWriter`] prints a document as it is visited, compact or pretty.
//!   Every [`Encode`] writes into one; no write path builds a tree. An
//!   object's members are written in ascending key order, so compact text
//!   is canonical, which is what lets tests compare reports as strings and
//!   lets a compact-printed cache key address its shard entry.
//! * [`JsonReader`] hands out each value as it reaches it in the text;
//!   every [`Decode`] reads from one, and no read path builds a tree. It is
//!   the only grammar: [`Json::parse`] decodes a [`Json`] through it.
//!
//! Numbers are `f64`, exact for integers up to 2^53;
//! [`JsonWriter::count`] writes larger `u64`s as decimal strings. The typed
//! layer over both is [`crate::wire`].

use crate::wire::{from_str, Decode, DecodeError, Encode};
use std::borrow::Cow;
use std::fmt::{self, Write as _};

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Members),
}

/// The members of an object: a vector sorted by key, no key twice.
#[derive(Clone, Default, PartialEq)]
pub struct Members(Vec<(String, Json)>);

/// Iterator over an object's members, in key order.
pub type MembersIter<'a> =
    std::iter::Map<std::slice::Iter<'a, (String, Json)>, fn(&(String, Json)) -> (&String, &Json)>;

impl Members {
    pub fn get(&self, key: &str) -> Option<&Json> {
        let at = self.0.binary_search_by(|(k, _)| k.as_str().cmp(key));
        at.ok().map(|i| &self.0[i].1)
    }

    pub fn iter(&self) -> MembersIter<'_> {
        fn pair((k, v): &(String, Json)) -> (&String, &Json) {
            (k, v)
        }
        self.0
            .iter()
            .map(pair as fn(&(String, Json)) -> (&String, &Json))
    }

    pub fn keys(&self) -> impl Iterator<Item = &String> {
        self.0.iter().map(|(k, _)| k)
    }
}

/// Sorts once; of a repeated key the last value wins, as in a parse.
impl FromIterator<(String, Json)> for Members {
    fn from_iter<I: IntoIterator<Item = (String, Json)>>(iter: I) -> Self {
        let mut members: Vec<(String, Json)> = iter.into_iter().collect();
        if members.windows(2).any(|w| w[0].0 >= w[1].0) {
            members.sort_by(|a, b| a.0.cmp(&b.0));
            // `dedup_by` keeps the first of a run: hand it the later value.
            members.dedup_by(|later, kept| {
                let repeated = later.0 == kept.0;
                if repeated {
                    std::mem::swap(&mut later.1, &mut kept.1);
                }
                repeated
            });
        }
        Members(members)
    }
}

impl<'a> IntoIterator for &'a Members {
    type Item = (&'a String, &'a Json);
    type IntoIter = MembersIter<'a>;

    fn into_iter(self) -> MembersIter<'a> {
        self.iter()
    }
}

impl fmt::Debug for Members {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

/// 2^53: the largest integer below which every integer is an exact `f64`.
const MAX_EXACT_INT: u64 = 1 << 53;

impl Json {
    pub fn as_obj(&self) -> Option<&Members> {
        match self {
            Json::Obj(m) => Some(m),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// A non-negative integral number no larger than 2^53. Anything above
    /// is not exactly representable (and [`JsonWriter::count`] never writes it),
    /// so a corrupt `1e300` is rejected instead of saturating to `u64::MAX`.
    pub fn as_u64(&self) -> Option<u64> {
        self.as_f64().and_then(exact_u64)
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Member lookup on objects (`None` for non-objects / absent keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_obj().and_then(|m| m.get(key))
    }

    /// Canonical single-line serialization (sorted keys, no whitespace).
    pub fn to_string_compact(&self) -> String {
        crate::wire::to_compact(self)
    }

    /// Parses a complete JSON document (trailing whitespace allowed).
    pub fn parse(text: &str) -> Result<Json, String> {
        Ok(from_str(text)?)
    }
}

/// `n` as a `u64` when it is a non-negative integer no larger than 2^53.
pub(crate) fn exact_u64(n: f64) -> Option<u64> {
    (n >= 0.0 && n <= MAX_EXACT_INT as f64 && n == n as u64 as f64).then_some(n as u64)
}

/// A value builds as it is read: an object's members are pushed in text
/// order and sorted (last repeat wins) only if they came out of order.
impl Decode for Json {
    fn decode(r: &mut JsonReader<'_>) -> Result<Json, DecodeError> {
        Ok(match r.peek() {
            None => return Err(DecodeError::new("unexpected end of input")),
            Some(b'n') => {
                r.literal("null")?;
                Json::Null
            }
            Some(b't' | b'f') => Json::Bool(r.bool()?),
            Some(b'"') => Json::Str(r.string()?.into_owned()),
            Some(b'[') => {
                let mut items = Vec::new();
                r.array()?;
                while r.item()? {
                    items.push(Json::decode(r)?);
                }
                Json::Arr(items)
            }
            Some(b'{') => {
                let mut members = Vec::new();
                r.object()?;
                while let Some(key) = r.key()? {
                    members.push((key.into_owned(), Json::decode(r)?));
                }
                Json::Obj(members.into_iter().collect())
            }
            Some(_) => Json::Num(r.num()?),
        })
    }
}

/// The one JSON printer: a document is written into `out` as it is
/// visited, compact or pretty (two-space indentation, `": "` after a key).
/// [`Encode`] writes into it; a parsed [`Json`] prints through it too.
///
/// An object's members are written in strictly ascending key order, the
/// order a parse keeps, so compact text is canonical. Debug builds assert
/// it for every object written.
pub struct JsonWriter<'a> {
    out: &'a mut String,
    pretty: bool,
    /// Open containers.
    depth: usize,
    /// The innermost open container has no element yet.
    empty: bool,
    /// A key was written; its value comes next.
    after_key: bool,
    /// Per open container, the last key written in it.
    #[cfg(debug_assertions)]
    keys: Vec<Option<String>>,
}

impl<'a> JsonWriter<'a> {
    /// Appends single-line text (no whitespace) to `out`.
    pub fn compact(out: &'a mut String) -> Self {
        Self::new(out, false)
    }

    /// Appends indented text to `out`, with no final newline.
    pub fn pretty(out: &'a mut String) -> Self {
        Self::new(out, true)
    }

    fn new(out: &'a mut String, pretty: bool) -> Self {
        JsonWriter {
            out,
            pretty,
            depth: 0,
            empty: true,
            after_key: false,
            #[cfg(debug_assertions)]
            keys: Vec::new(),
        }
    }

    /// The separator and indentation a new element of the open container
    /// takes (none for a key's value).
    fn element(&mut self) {
        if std::mem::take(&mut self.after_key) {
            return;
        }
        if self.depth > 0 {
            if !self.empty {
                self.out.push(',');
            }
            self.newline();
        }
        self.empty = false;
    }

    fn newline(&mut self) {
        if self.pretty {
            self.out.push('\n');
            for _ in 0..self.depth {
                self.out.push_str("  ");
            }
        }
    }

    #[inline]
    pub fn null(&mut self) {
        self.element();
        self.out.push_str("null");
    }

    pub fn bool(&mut self, b: bool) {
        self.element();
        self.out.push_str(if b { "true" } else { "false" });
    }

    /// A finite number as the shortest decimal that reads back exactly
    /// (integral ones without a fraction); NaN and infinities as `null`.
    pub fn num(&mut self, n: f64) {
        self.element();
        if !n.is_finite() {
            // JSON has no Infinity/NaN; null is the conventional stand-in.
            self.out.push_str("null");
        } else if n.fract() == 0.0 && n.abs() < 9e15 {
            let _ = write!(self.out, "{}", n as i64);
        } else {
            let _ = write!(self.out, "{n}");
        }
    }

    /// A `u64`: a number up to 2^53 (every integer below is exact in an
    /// `f64`), a decimal string above, so no value rounds on the way out.
    pub fn count(&mut self, n: u64) {
        self.element();
        if n <= MAX_EXACT_INT {
            write_u64(self.out, n);
        } else {
            self.out.push('"');
            write_u64(self.out, n);
            self.out.push('"');
        }
    }

    pub fn str(&mut self, s: &str) {
        self.element();
        write_escaped(self.out, s);
    }

    /// An object; `members` writes each member with [`Self::member`] (or
    /// [`Self::key`] and a value), keys ascending.
    pub fn object(&mut self, members: impl FnOnce(&mut Self)) {
        self.open('{');
        members(self);
        self.close('}');
    }

    /// An array; `items` writes each element.
    pub fn array(&mut self, items: impl FnOnce(&mut Self)) {
        self.open('[');
        items(self);
        self.close(']');
    }

    /// Member `key` of the open object; the value written next is its.
    pub fn key(&mut self, key: &str) {
        #[cfg(debug_assertions)]
        {
            let last = self.keys.last_mut().expect("a key outside an object");
            if let Some(prev) = last.as_deref() {
                assert!(
                    prev < key,
                    "object keys out of order: {prev:?} before {key:?}"
                );
            }
            *last = Some(key.to_string());
        }
        self.element();
        write_escaped(self.out, key);
        self.out.push_str(if self.pretty { ": " } else { ":" });
        self.after_key = true;
    }

    /// Member `key` of the open object, with `value`'s wire form.
    pub fn member<T: Encode + ?Sized>(&mut self, key: &str, value: &T) {
        self.key(key);
        value.encode(self);
    }

    fn open(&mut self, bracket: char) {
        self.element();
        self.out.push(bracket);
        self.depth += 1;
        self.empty = true;
        #[cfg(debug_assertions)]
        self.keys.push(None);
    }

    fn close(&mut self, bracket: char) {
        debug_assert!(!self.after_key, "a key without a value");
        self.depth -= 1;
        if !self.empty {
            self.newline();
        }
        self.out.push(bracket);
        self.empty = false;
        #[cfg(debug_assertions)]
        self.keys.pop();
    }
}

/// A parsed value prints through the writer: an object's members are
/// already sorted.
impl Encode for Json {
    fn encode(&self, w: &mut JsonWriter<'_>) {
        match self {
            Json::Null => w.null(),
            Json::Bool(b) => w.bool(*b),
            Json::Num(n) => w.num(*n),
            Json::Str(s) => w.str(s),
            Json::Arr(items) => w.array(|w| items.iter().for_each(|v| v.encode(w))),
            Json::Obj(members) => w.object(|w| members.iter().for_each(|(k, v)| w.member(k, v))),
        }
    }
}

/// `s` as a JSON string. The runs between characters that need an escape
/// (a quote, a backslash, a control character; all ASCII, so a run ends
/// on a character boundary) are copied in one piece.
fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    let mut run = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        out.push_str(&s[run..i]);
        run = i + 1;
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// The decimal digits of `n`, without the formatting machinery.
fn write_u64(out: &mut String, mut n: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[at..]).expect("ASCII digits"));
}

/// How deep arrays and objects may nest. Skipping and decoding recurse per
/// level, so without a limit a corrupt line of `[`s overflows the stack.
/// The deepest document the campaign writes nests 22 (a 30-target, k = 10
/// snapshot's shard line; the goldens reach 17), so the limit leaves a
/// margin over 10×.
pub const MAX_DEPTH: usize = 256;

/// A cursor over JSON text that hands out each value as it reaches it: the
/// one grammar every decode path reads. A decoder peeks at the next value's
/// first byte, reads a scalar, or walks a container: [`Self::object`] then
/// [`Self::key`] per member (the cursor is then at the member's value, to
/// be read or [`Self::skip`]ped), or [`Self::array`] then [`Self::item`]
/// per element. A syntax error names its byte offset, a value of the wrong
/// kind what was expected. Nothing panics on any input.
#[derive(Clone)]
pub struct JsonReader<'a> {
    text: &'a str,
    pos: usize,
    /// Containers open around the cursor.
    depth: usize,
    /// The innermost container has handed out no element yet.
    fresh: bool,
}

impl<'a> JsonReader<'a> {
    pub fn new(text: &'a str) -> Self {
        JsonReader {
            text,
            pos: 0,
            depth: 0,
            fresh: false,
        }
    }

    pub fn pos(&self) -> usize {
        self.pos
    }

    fn syntax(&self, what: &str) -> DecodeError {
        DecodeError::new(format!("{what} at byte {}", self.pos))
    }

    /// The next value's first byte, after whitespace; `None` at the end.
    #[inline]
    pub fn peek(&mut self) -> Option<u8> {
        let b = self.text.as_bytes();
        while self.pos < b.len() && matches!(b[self.pos], b' ' | b'\t' | b'\n' | b'\r') {
            self.pos += 1;
        }
        b.get(self.pos).copied()
    }

    /// Fails unless nothing but whitespace is left.
    pub fn end(&mut self) -> Result<(), DecodeError> {
        match self.peek() {
            None => Ok(()),
            Some(_) => Err(self.syntax("trailing garbage")),
        }
    }

    #[inline]
    fn literal(&mut self, lit: &str) -> Result<(), DecodeError> {
        if !self.text.as_bytes()[self.pos..].starts_with(lit.as_bytes()) {
            return Err(self.syntax(&format!("expected '{lit}'")));
        }
        self.pos += lit.len();
        Ok(())
    }

    /// Reads a `null` if one is next; `false`, with nothing read, if not.
    #[inline]
    pub fn null(&mut self) -> Result<bool, DecodeError> {
        let null = self.peek() == Some(b'n');
        if null {
            self.literal("null")?;
        }
        Ok(null)
    }

    #[inline]
    pub fn bool(&mut self) -> Result<bool, DecodeError> {
        match self.peek() {
            Some(b't') => self.literal("true").map(|()| true),
            Some(b'f') => self.literal("false").map(|()| false),
            _ => Err(DecodeError::expected("true or false")),
        }
    }

    /// A string: borrowed from the text unless it holds an escape.
    #[inline]
    pub fn str(&mut self) -> Result<Cow<'a, str>, DecodeError> {
        match self.peek() {
            Some(b'"') => self.string(),
            _ => Err(DecodeError::expected("a string")),
        }
    }

    /// Enters an array; [`Self::item`] then walks its elements.
    #[inline]
    pub fn array(&mut self) -> Result<(), DecodeError> {
        self.enter(b'[', "an array")
    }

    /// Enters an object; [`Self::key`] then walks its members.
    #[inline]
    pub fn object(&mut self) -> Result<(), DecodeError> {
        self.enter(b'{', "an object")
    }

    /// Enters an object whose `{` and first member precede the text.
    pub fn object_rest(&mut self) {
        self.depth += 1;
    }

    #[inline]
    fn enter(&mut self, open: u8, what: &str) -> Result<(), DecodeError> {
        if self.peek() != Some(open) {
            return Err(DecodeError::expected(what));
        }
        if self.depth == MAX_DEPTH {
            return Err(self.syntax(&format!("nesting deeper than {MAX_DEPTH}")));
        }
        (self.pos, self.depth, self.fresh) = (self.pos + 1, self.depth + 1, true);
        Ok(())
    }

    /// Moves to the next element of the array entered last (`false` past
    /// its end).
    #[inline]
    pub fn item(&mut self) -> Result<bool, DecodeError> {
        self.next(b']')
    }

    /// The next member's key, the cursor left at its value (`None` past
    /// the object's end).
    #[inline]
    pub fn key(&mut self) -> Result<Option<Cow<'a, str>>, DecodeError> {
        if !self.next(b'}')? {
            return Ok(None);
        }
        self.peek();
        let key = self.string()?;
        if self.peek() != Some(b':') {
            return Err(self.syntax("expected ':'"));
        }
        self.pos += 1;
        Ok(Some(key))
    }

    /// Past the `,` before the next element, or past `close` (`false`).
    #[inline]
    fn next(&mut self, close: u8) -> Result<bool, DecodeError> {
        let fresh = std::mem::take(&mut self.fresh);
        match self.peek() {
            Some(c) if c == close => {
                (self.pos, self.depth) = (self.pos + 1, self.depth - 1);
                Ok(false)
            }
            _ if fresh => Ok(true),
            Some(b',') => {
                self.pos += 1;
                Ok(true)
            }
            _ => Err(self.syntax(&format!("expected ',' or '{}'", close as char))),
        }
    }

    /// Walks past the next value, building nothing.
    pub fn skip(&mut self) -> Result<(), DecodeError> {
        match self.peek() {
            None => Err(DecodeError::new("unexpected end of input")),
            Some(b'n') => self.literal("null"),
            Some(b't' | b'f') => self.bool().map(drop),
            Some(b'"') => self.string().map(drop),
            Some(b'[') => {
                self.array()?;
                while self.item()? {
                    self.skip()?;
                }
                Ok(())
            }
            Some(b'{') => {
                self.object()?;
                self.skip_members()
            }
            Some(_) => self.num().map(drop),
        }
    }

    /// Walks past the members left in the object entered last.
    pub fn skip_members(&mut self) -> Result<(), DecodeError> {
        while self.key()?.is_some() {
            self.skip()?;
        }
        Ok(())
    }

    fn string(&mut self) -> Result<Cow<'a, str>, DecodeError> {
        let (text, b) = (self.text, self.text.as_bytes());
        if b.get(self.pos) != Some(&b'"') {
            return Err(self.syntax("expected string"));
        }
        self.pos += 1;
        let mut unescaped: Option<String> = None;
        loop {
            // The run up to the next quote or backslash is one piece (both
            // are ASCII, so the run ends on a character boundary).
            let run = b[self.pos..]
                .iter()
                .position(|&c| c == b'"' || c == b'\\')
                .ok_or_else(|| DecodeError::new("unterminated string"))?;
            let piece = &text[self.pos..self.pos + run];
            self.pos += run;
            if b[self.pos] == b'"' {
                self.pos += 1;
                return Ok(match unescaped {
                    None => Cow::Borrowed(piece),
                    Some(mut s) => {
                        s.push_str(piece);
                        Cow::Owned(s)
                    }
                });
            }
            self.pos += 1;
            let c = match b.get(self.pos) {
                Some(b'"') => '"',
                Some(b'\\') => '\\',
                Some(b'/') => '/',
                Some(b'n') => '\n',
                Some(b'r') => '\r',
                Some(b't') => '\t',
                Some(b'b') => '\u{8}',
                Some(b'f') => '\u{c}',
                Some(b'u') => self.unicode_escape()?,
                _ => return Err(self.syntax("bad escape")),
            };
            let s = unescaped.get_or_insert_with(String::new);
            s.push_str(piece);
            s.push(c);
            self.pos += 1;
        }
    }

    /// The character of a `\u` escape; the cursor is at the `u` and is left
    /// on the escape's last byte. A high surrogate followed by an escaped
    /// low one is the pair's character; a lone surrogate is U+FFFD.
    fn unicode_escape(&mut self) -> Result<char, DecodeError> {
        let unit = self.hex4(self.pos)?;
        self.pos += 4;
        let b = self.text.as_bytes();
        if (0xD800..0xDC00).contains(&unit) && b.get(self.pos + 1..self.pos + 3) == Some(b"\\u") {
            if let Ok(low @ 0xDC00..=0xDFFF) = self.hex4(self.pos + 2) {
                self.pos += 6;
                let code = 0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00);
                return Ok(char::from_u32(code).unwrap_or('\u{fffd}'));
            }
        }
        Ok(char::from_u32(unit).unwrap_or('\u{fffd}'))
    }

    /// The four hex digits after the `u` at byte `u`: exactly four, no sign.
    fn hex4(&self, u: usize) -> Result<u32, DecodeError> {
        match self.text.as_bytes().get(u + 1..u + 5) {
            Some(digits) if digits.iter().all(u8::is_ascii_hexdigit) => Ok(digits
                .iter()
                .fold(0, |n, &d| n * 16 + (d as char).to_digit(16).unwrap_or(0))),
            _ => Err(DecodeError::new(format!("bad \\u escape at byte {u}"))),
        }
    }

    pub fn num(&mut self) -> Result<f64, DecodeError> {
        if let None | Some(b'n' | b't' | b'f' | b'"' | b'[' | b'{') = self.peek() {
            return Err(DecodeError::expected("a number"));
        }
        let (b, start) = (self.text.as_bytes(), self.pos);
        let is_number = |c: &u8| matches!(c, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E');
        // A plain integer of at most 15 digits is below 2^53, so exact: it is
        // read digit by digit as the run is found. Anything else goes
        // through `str::parse`.
        let negative = b[start] == b'-';
        let (mut end, mut n) = (start + usize::from(negative), 0u64);
        while let Some(d @ b'0'..=b'9') = b.get(end) {
            n = n.wrapping_mul(10).wrapping_add(u64::from(d - b'0'));
            end += 1;
        }
        let digits = end - start - usize::from(negative);
        if (1..=15).contains(&digits) && !b.get(end).is_some_and(is_number) {
            self.pos = end;
            return Ok(if negative { -(n as f64) } else { n as f64 });
        }
        while b.get(self.pos).is_some_and(is_number) {
            self.pos += 1;
        }
        let run = &b[start..self.pos];
        std::str::from_utf8(run)
            .ok()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| DecodeError::new(format!("bad number at byte {start}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::wire::{to_compact, to_pretty};

    const DOC: &str =
        r#"{"a":42,"b":[null,true,1.5],"c":"quote \" backslash \\ newline \n","d":{}}"#;

    #[test]
    fn roundtrip_compact() {
        // Canonical: printing the parse is the text, and re-parses equal.
        let doc = Json::parse(DOC).unwrap();
        assert_eq!(doc.to_string_compact(), DOC);
        assert_eq!(Json::parse(&doc.to_string_compact()).unwrap(), doc);
        // Members are printed sorted, whatever order they were read in.
        let shuffled = Json::parse(
            r#"{ "d" : {}, "b":[null, true ,1.5],"a":42,
            "c":"quote \" backslash \\ newline \u000a"}"#,
        );
        assert_eq!(shuffled.unwrap().to_string_compact(), DOC);
    }

    #[test]
    fn roundtrip_pretty() {
        let doc = Json::parse(r#"{"nested":{"k":[1],"e":[]},"z":0.25}"#).unwrap();
        let pretty = to_pretty(&doc);
        assert_eq!(
            pretty,
            "{\n  \"nested\": {\n    \"e\": [],\n    \"k\": [\n      1\n    ]\n  },\n  \"z\": 0.25\n}\n"
        );
        assert_eq!(Json::parse(&pretty).unwrap(), doc);
    }

    #[test]
    fn the_writer_prints_values_as_they_are_visited() {
        let mut out = String::new();
        let mut w = JsonWriter::compact(&mut out);
        w.object(|w| {
            w.key("a");
            w.array(|w| {
                w.count(1 << 60);
                w.num(f64::NAN);
                w.str("\u{1}");
            });
            w.member("b", &Json::parse("{}").unwrap());
            w.key("c");
            w.bool(false);
        });
        assert_eq!(
            out,
            r#"{"a":["1152921504606846976",null,"\u0001"],"b":{},"c":false}"#
        );
        // Pretty mode lays the same document out, and it reads back equal.
        let doc = Json::parse(&out).unwrap();
        assert_eq!(Json::parse(&to_pretty(&doc)).unwrap(), doc);
        assert_eq!(to_compact(&doc), out);
    }

    #[test]
    fn large_counters_stay_exact() {
        for n in [(1u64 << 53) - 1, 1 << 53] {
            let text = to_compact(&n);
            assert_eq!(text, n.to_string());
            assert_eq!(Json::parse(&text).unwrap().as_u64(), Some(n));
        }
        // Above 2^53 the number form would round: a string is written.
        assert_eq!(to_compact(&((1u64 << 53) + 1)), "\"9007199254740993\"");
    }

    #[test]
    fn as_u64_rejects_numbers_beyond_the_exact_range() {
        // A corrupt `"groups":1e300` must not saturate to usize::MAX.
        for text in ["1e300", "9007199254740994", "1.8446744073709552e19"] {
            assert_eq!(Json::parse(text).unwrap().as_u64(), None, "{text}");
        }
        assert_eq!(Json::parse("-1").unwrap().as_u64(), None);
        assert_eq!(Json::parse("1.5").unwrap().as_u64(), None);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{\"a\":1} x").is_err());
        assert!(Json::parse("\"unterminated").is_err());
    }

    #[test]
    fn accessors() {
        let doc = Json::parse(r#"{"n": 3, "s": "x", "b": false, "a": [1]}"#).unwrap();
        assert_eq!(doc.get("n").and_then(Json::as_u64), Some(3));
        assert_eq!(doc.get("s").and_then(Json::as_str), Some("x"));
        assert_eq!(doc.get("b").and_then(Json::as_bool), Some(false));
        assert_eq!(
            doc.get("a").and_then(Json::as_arr).map(|a| a.len()),
            Some(1)
        );
        assert_eq!(doc.get("missing"), None);
    }

    #[test]
    fn unicode_escapes_parse() {
        let doc = Json::parse(r#""café""#).unwrap();
        assert_eq!(doc.as_str(), Some("café"));
    }

    #[test]
    fn surrogate_pairs_decode_to_their_character() {
        let parse = |text: &str| Json::parse(text).unwrap().as_str().unwrap().to_string();
        assert_eq!(parse(r#""\ud83d\ude00""#), "😀");
        assert_eq!(parse(r#""a\uD834\uDD1Eb""#), "a\u{1d11e}b");
        // A lone surrogate, either half, stays the replacement character.
        assert_eq!(parse(r#""\ud83d""#), "\u{fffd}");
        assert_eq!(parse(r#""\ude00\ud83d""#), "\u{fffd}\u{fffd}");
        assert_eq!(parse(r#""\ud83dx\ude00""#), "\u{fffd}x\u{fffd}");
        assert_eq!(parse(r#""\ud83d\u0041""#), "\u{fffd}A");
        // A high surrogate before a malformed escape is still an error.
        assert!(Json::parse(r#""\ud83d\uzzzz""#).is_err());
        // Decoding loses nothing: the character prints raw and re-reads.
        let text = Json::parse(r#""\ud83d\ude00""#)
            .unwrap()
            .to_string_compact();
        assert_eq!(text, "\"😀\"");
        assert_eq!(Json::parse(&text).unwrap().as_str(), Some("😀"));
    }

    #[test]
    fn members_stay_sorted_whatever_the_input_order() {
        let doc = Json::parse(r#"{"m":0,"b":1,"z":2,"a":3,"q":4,"b":null}"#).unwrap();
        assert_eq!(
            doc.to_string_compact(),
            r#"{"a":3,"b":null,"m":0,"q":4,"z":2}"#
        );
        let m = doc.as_obj().unwrap();
        assert_eq!(m.keys().collect::<Vec<_>>(), ["a", "b", "m", "q", "z"]);
        assert_eq!((m.get("n"), m.get("q")), (None, Some(&Json::Num(4.0))));
        assert_eq!(m.get("z"), Some(&Json::Num(2.0)));
        let wide: Members = (0..40u64)
            .rev()
            .map(|i| (format!("k{i}"), Json::Num(i as f64)))
            .collect();
        for i in 0..40u64 {
            assert_eq!(wide.get(&format!("k{i}")), Some(&Json::Num(i as f64)));
        }
        assert_eq!(wide.get("k40"), None);
    }

    #[test]
    fn members_from_iter_sort_once_and_keep_the_last_repeat() {
        let pairs = [("c", 1), ("a", 2), ("c", 3), ("b", 4), ("a", 5), ("c", 6)];
        let m: Members = pairs
            .into_iter()
            .map(|(k, v)| (k.to_string(), Json::Num(v as f64)))
            .collect();
        assert_eq!(Json::Obj(m).to_string_compact(), r#"{"a":5,"b":4,"c":6}"#);
        // The parser agrees, and builds the same value either way.
        let parsed = Json::parse(r#"{"c":1,"a":2,"c":3,"b":4,"a":5,"c":6}"#).unwrap();
        assert_eq!(parsed, Json::parse(r#"{"a":5,"b":4,"c":6}"#).unwrap());
        assert_eq!(
            format!("{:?}", parsed.as_obj().unwrap()),
            r#"{"a": Num(5.0), "b": Num(4.0), "c": Num(6.0)}"#
        );
    }

    /// The keys of the object `rest` ends, as [`JsonReader::object_rest`]
    /// reads them.
    fn rest_keys(rest: &str) -> Result<Vec<String>, String> {
        let mut r = JsonReader::new(rest);
        r.object_rest();
        let mut keys = Vec::new();
        while let Some(key) = r.key()? {
            keys.push(key.into_owned());
            r.skip()?;
        }
        r.end()?;
        Ok(keys)
    }

    /// How far skipping the value `text` starts with gets.
    fn skipped(text: &str) -> Result<usize, String> {
        let mut r = JsonReader::new(text);
        r.skip()?;
        Ok(r.pos())
    }

    #[test]
    fn skip_and_object_rest_split_an_object_after_its_first_member() {
        let line = r#"{"key":{"b":[1,"]"],"a":"}"} ,"z":1,"y":{}}"#;
        let after = line.strip_prefix(r#"{"key":"#).unwrap();
        let end = skipped(after).unwrap();
        assert_eq!(&after[..end], r#"{"b":[1,"]"],"a":"}"}"#);
        assert_eq!(rest_keys(&after[end..]).unwrap(), ["z", "y"]);
        assert_eq!(rest_keys(" } ").unwrap(), Vec::<String>::new());
        for bad in ["", ",}", ",\"z\":1", "} x", "x"] {
            assert!(rest_keys(bad).is_err(), "{bad}");
        }
        for bad in ["", "{\"a\":}", "[1,]", "\"open"] {
            assert!(skipped(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn a_unicode_escape_is_exactly_four_hex_digits() {
        assert_eq!(Json::parse(r#""Aé""#).unwrap().as_str(), Some("Aé"));
        // `u32::from_str_radix` would take the sign and read "A".
        for (text, at) in [
            (r#""\u+041""#, 2),
            (r#""ab\u-041""#, 4),
            (r#""\u00g1""#, 2),
            (r#""\u12""#, 2),
            (r#""x\u""#, 3),
        ] {
            let want = format!("bad \\u escape at byte {at}");
            assert_eq!(Json::parse(text).unwrap_err(), want, "{text}");
        }
    }

    #[test]
    fn short_integers_match_str_parse() {
        for text in [
            "0",
            "-0",
            "7",
            "-42",
            "000123",
            "999999999999999",
            "-999999999999999",
        ] {
            let want: f64 = text.parse().unwrap();
            let got = Json::parse(text).unwrap().as_f64().unwrap();
            assert_eq!(got.to_bits(), want.to_bits(), "{text}");
        }
    }

    /// A million `[` (or `{"k":`) would overflow any thread's stack if the
    /// parser recursed into each; it stops at the limit and names the byte.
    /// Run on a spawned thread, whose stack is smaller than the main one.
    #[test]
    fn nesting_past_the_limit_is_an_error_not_a_stack_overflow() {
        std::thread::spawn(|| {
            let arrays = "[".repeat(1_000_000);
            let objects = "{\"k\":".repeat(1_000_000);
            for (deep, step) in [(&arrays, 1), (&objects, 5)] {
                let at = MAX_DEPTH * step;
                let want = format!("nesting deeper than {MAX_DEPTH} at byte {at}");
                assert_eq!(Json::parse(deep).unwrap_err(), want);
                assert_eq!(skipped(deep).unwrap_err(), want);
                // The rest of a shard line: its object is one level.
                let rest = format!(",\"z\":{deep}");
                let want = format!("nesting deeper than {MAX_DEPTH} at byte {}", at - step + 5);
                assert_eq!(rest_keys(&rest).unwrap_err(), want);
            }
            // The limit itself is reached, not exceeded.
            let nested = |n: usize| "[".repeat(n) + &"]".repeat(n);
            assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
            assert!(skipped(&nested(MAX_DEPTH)).is_ok());
            assert!(Json::parse(&nested(MAX_DEPTH + 1)).is_err());
        })
        .join()
        .unwrap();
    }
}

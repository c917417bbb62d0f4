//! Minimal JSON: one writer, and a value model with its parser.
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
//! * [`Json`] is what [`Json::parse`] returns and what
//!   [`Decode`](crate::wire::Decode) reads. An object is a [`Members`]
//!   vector kept sorted by key. A parsed value prints through the same
//!   writer.
//!
//! Numbers are `f64`, exact for integers up to 2^53;
//! [`JsonWriter::count`] writes larger `u64`s as decimal strings. The typed
//! layer over both is [`crate::wire`].

use crate::wire::Encode;
use std::fmt::{self, Write as _};
use std::ops::Index;

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

/// The members of an object: a vector sorted by key, no key twice. Lookup
/// is a binary search (a scan in a small object); a parsed `{"col":3}` is
/// one small allocation.
#[derive(Clone, Default, PartialEq)]
pub struct Members(Vec<(String, Json)>);

/// Objects up to this many members are searched by a scan, not a binary
/// search (see [`Members::get`]).
const SCAN_MEMBERS: usize = 8;

/// Iterator over an object's members, in key order.
pub type MembersIter<'a> =
    std::iter::Map<std::slice::Iter<'a, (String, Json)>, fn(&(String, Json)) -> (&String, &Json)>;

impl Members {
    #[inline]
    fn find(&self, key: &str) -> Result<usize, usize> {
        self.0.binary_search_by(|(k, _)| k.as_str().cmp(key))
    }

    #[inline]
    pub fn get(&self, key: &str) -> Option<&Json> {
        // Most objects of a plan are small: they are scanned for an equal
        // key, which a length check rejects without reading its bytes.
        if self.0.len() <= SCAN_MEMBERS {
            return self.0.iter().find(|(k, _)| k == key).map(|(_, v)| v);
        }
        self.find(key).ok().map(|i| &self.0[i].1)
    }

    #[inline]
    pub fn contains_key(&self, key: &str) -> bool {
        self.get(key).is_some()
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

impl Index<&str> for Members {
    type Output = Json;

    fn index(&self, key: &str) -> &Json {
        self.get(key)
            .unwrap_or_else(|| panic!("no member {key:?} in the object"))
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
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= MAX_EXACT_INT as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
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
        let mut pos = 0usize;
        let value = parse_value::<true>(text, &mut pos, 0)?;
        at_end(text, pos)?;
        Ok(value)
    }

    /// The byte offset just past the value `text` starts with (after any
    /// leading whitespace). The value is checked by the same grammar as
    /// [`Json::parse`] but not built, and what follows it is not read.
    pub fn value_end(text: &str) -> Result<usize, String> {
        let mut pos = 0usize;
        parse_value::<false>(text, &mut pos, 0)?;
        Ok(pos)
    }
}

impl Members {
    /// Parses the rest of an object whose first member has been read:
    /// `text` starts at the `,` (or `}`) after it and holds nothing but
    /// whitespace after the closing brace. Returns the remaining members.
    pub fn parse_rest(text: &str) -> Result<Members, String> {
        let b = text.as_bytes();
        let mut pos = 0usize;
        skip_ws(b, &mut pos);
        let members = match b.get(pos) {
            Some(b'}') => {
                pos += 1;
                Members::default()
            }
            Some(b',') => {
                pos += 1;
                parse_members::<true>(text, &mut pos, 1)?
            }
            _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
        };
        at_end(text, pos)?;
        Ok(members)
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

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, lit: &str) -> Result<(), String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("expected '{lit}' at byte {pos}"))
    }
}

fn at_end(text: &str, mut pos: usize) -> Result<(), String> {
    skip_ws(text.as_bytes(), &mut pos);
    if pos == text.len() {
        Ok(())
    } else {
        Err(format!("trailing garbage at byte {pos}"))
    }
}

/// How deep arrays and objects may nest. The parser recurses per level, so
/// without a limit a corrupt line of `[`s overflows the stack. The deepest
/// document the campaign writes nests 22 (a 30-target, k = 10 snapshot's
/// shard line; the goldens reach 17), so the limit leaves a margin over 10×.
pub const MAX_DEPTH: usize = 256;

// The parser. With `BUILD` false it walks the same grammar without
// building: strings are not copied, containers stay empty. `depth` counts
// the containers around the value being read.

fn parse_value<const BUILD: bool>(s: &str, pos: &mut usize, depth: usize) -> Result<Json, String> {
    let b = s.as_bytes();
    skip_ws(b, pos);
    if matches!(b.get(*pos), Some(b'[' | b'{')) && depth == MAX_DEPTH {
        return Err(format!("nesting deeper than {MAX_DEPTH} at byte {pos}"));
    }
    match b.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'n') => expect(b, pos, "null").map(|_| Json::Null),
        Some(b't') => expect(b, pos, "true").map(|_| Json::Bool(true)),
        Some(b'f') => expect(b, pos, "false").map(|_| Json::Bool(false)),
        Some(b'"') => parse_string::<BUILD>(s, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                let item = parse_value::<BUILD>(s, pos, depth + 1)?;
                if BUILD {
                    items.push(item);
                }
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {pos}")),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(Members::default()));
            }
            parse_members::<BUILD>(s, pos, depth + 1).map(Json::Obj)
        }
        Some(_) => parse_number(b, pos).map(Json::Num),
    }
}

/// An object's members from the first key through the closing brace. They
/// are pushed as read and sorted only if they came out of order.
fn parse_members<const BUILD: bool>(
    s: &str,
    pos: &mut usize,
    depth: usize,
) -> Result<Members, String> {
    let b = s.as_bytes();
    let mut members: Vec<(String, Json)> = Vec::new();
    let mut sorted = true;
    loop {
        skip_ws(b, pos);
        let key = parse_string::<BUILD>(s, pos)?;
        skip_ws(b, pos);
        expect(b, pos, ":")?;
        let value = parse_value::<BUILD>(s, pos, depth)?;
        if BUILD {
            sorted &= members.last().is_none_or(|(last, _)| *last < key);
            members.push((key, value));
        }
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(if sorted {
                    Members(members)
                } else {
                    members.into_iter().collect()
                });
            }
            _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
        }
    }
}

fn parse_string<const BUILD: bool>(s: &str, pos: &mut usize) -> Result<String, String> {
    let b = s.as_bytes();
    if b.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {pos}"));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        // The run up to the next quote or backslash is copied in one piece
        // (both are ASCII, so the run ends on a character boundary).
        let run = b[*pos..]
            .iter()
            .position(|&c| c == b'"' || c == b'\\')
            .ok_or("unterminated string")?;
        if BUILD {
            out.push_str(&s[*pos..*pos + run]);
        }
        *pos += run;
        if b[*pos] == b'"' {
            *pos += 1;
            return Ok(out);
        }
        *pos += 1;
        let c = match b.get(*pos) {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'u') => parse_unicode_escape(b, pos)?,
            _ => return Err(format!("bad escape at byte {pos}")),
        };
        if BUILD {
            out.push(c);
        }
        *pos += 1;
    }
}

/// The character of a `\u` escape; `pos` is at the `u` and is left on the
/// escape's last byte. A high surrogate followed by an escaped low one is
/// the pair's character; a lone surrogate is U+FFFD.
fn parse_unicode_escape(b: &[u8], pos: &mut usize) -> Result<char, String> {
    let unit = hex4(b, *pos + 1)?;
    *pos += 4;
    if (0xD800..0xDC00).contains(&unit) && b.get(*pos + 1..*pos + 3) == Some(&b"\\u"[..]) {
        if let Ok(low @ 0xDC00..=0xDFFF) = hex4(b, *pos + 3) {
            *pos += 6;
            let code = 0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00);
            return Ok(char::from_u32(code).expect("a surrogate pair is a scalar"));
        }
    }
    Ok(char::from_u32(unit).unwrap_or('\u{fffd}'))
}

fn hex4(b: &[u8], at: usize) -> Result<u32, String> {
    let hex = b
        .get(at..at + 4)
        .ok_or("truncated \\u escape".to_string())?;
    let hex = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
    u32::from_str_radix(hex, 16).map_err(|e| e.to_string())
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<f64, String> {
    let start = *pos;
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
        *pos += 1;
    }
    let run = &b[start..*pos];
    // A plain integer of at most 15 digits is below 2^53, so exact: it is
    // read digit by digit. Anything else goes through `str::parse`.
    let (negative, digits) = match run {
        [b'-', digits @ ..] => (true, digits),
        _ => (false, run),
    };
    if (1..=15).contains(&digits.len()) && digits.iter().all(u8::is_ascii_digit) {
        let n = digits
            .iter()
            .fold(0u64, |n, d| n * 10 + u64::from(d - b'0')) as f64;
        return Ok(if negative { -n } else { n });
    }
    std::str::from_utf8(run)
        .ok()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad number at byte {start}"))
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
        assert_eq!(m["z"], Json::Num(2.0));
        // Past the scan size, lookups binary-search.
        let wide: Members = (0..40u64)
            .rev()
            .map(|i| (format!("k{i}"), Json::Num(i as f64)))
            .collect();
        for i in 0..40u64 {
            assert_eq!(wide[format!("k{i}").as_str()], Json::Num(i as f64));
        }
        assert!(!wide.contains_key("k40") && wide.contains_key("k39"));
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

    #[test]
    fn value_end_and_parse_rest_split_an_object_after_its_first_member() {
        let line = r#"{"key":{"b":[1,"]"],"a":"}"} ,"z":1,"y":{}}"#;
        let after = line.strip_prefix(r#"{"key":"#).unwrap();
        let end = Json::value_end(after).unwrap();
        assert_eq!(&after[..end], r#"{"b":[1,"]"],"a":"}"}"#);
        let rest = Members::parse_rest(&after[end..]).unwrap();
        assert_eq!(rest.keys().collect::<Vec<_>>(), ["y", "z"]);
        assert_eq!(Members::parse_rest(" } ").unwrap(), Members::default());
        for bad in ["", ",}", ",\"z\":1", "} x", "x"] {
            assert!(Members::parse_rest(bad).is_err(), "{bad}");
        }
        for bad in ["", "{\"a\":}", "[1,]", "\"open"] {
            assert!(Json::value_end(bad).is_err(), "{bad}");
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
                assert_eq!(Json::value_end(deep).unwrap_err(), want);
                // The rest of a shard line: its object is one level.
                let rest = format!(",\"z\":{deep}");
                let want = format!("nesting deeper than {MAX_DEPTH} at byte {}", at - step + 5);
                assert_eq!(Members::parse_rest(&rest).unwrap_err(), want);
            }
            // The limit itself is reached, not exceeded.
            let nested = |n: usize| "[".repeat(n) + &"]".repeat(n);
            assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
            assert!(Json::value_end(&nested(MAX_DEPTH)).is_ok());
            assert!(Json::parse(&nested(MAX_DEPTH + 1)).is_err());
        })
        .join()
        .unwrap();
    }
}

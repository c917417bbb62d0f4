//! Minimal JSON value model, serializer, and parser.
//!
//! The workspace builds fully offline with zero external dependencies, so
//! it carries its own JSON support: enough of RFC 8259 to write and read
//! back every persisted document (cache shards, checkpoints, bundles, run
//! reports) and JSONL trace events. Numbers are `f64`, exact for integers
//! up to 2^53; [`Json::count`] writes larger `u64`s as decimal strings.
//! Object keys are kept in a `BTreeMap` so serialization is canonical,
//! which is what lets tests compare reports as strings and lets a
//! compact-printed cache key address its shard entry. The typed layer over
//! this value model is [`crate::wire`].

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

/// 2^53: the largest integer below which every integer is an exact `f64`.
const MAX_EXACT_INT: u64 = 1 << 53;

impl Json {
    /// Convenience: an object from key/value pairs.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    pub fn num(n: impl Into<f64>) -> Json {
        Json::Num(n.into())
    }

    /// A `u64`: a number up to 2^53 (every integer below is exact in an
    /// `f64`), a decimal string above, so no value rounds on the way out.
    pub fn count(n: u64) -> Json {
        if n <= MAX_EXACT_INT {
            Json::Num(n as f64)
        } else {
            Json::Str(n.to_string())
        }
    }

    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    pub fn as_obj(&self) -> Option<&BTreeMap<String, Json>> {
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
    /// is not exactly representable (and [`Json::count`] never writes it),
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
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Pretty serialization with two-space indentation.
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        let (nl, pad, pad_in) = match indent {
            Some(w) => ("\n", " ".repeat(w * depth), " ".repeat(w * (depth + 1))),
            None => ("", String::new(), String::new()),
        };
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => write_num(out, *n),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(nl);
                    out.push_str(&pad_in);
                    item.write(out, indent, depth + 1);
                }
                out.push_str(nl);
                out.push_str(&pad);
                out.push(']');
            }
            Json::Obj(map) => {
                if map.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(nl);
                    out.push_str(&pad_in);
                    write_escaped(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1);
                }
                out.push_str(nl);
                out.push_str(&pad);
                out.push('}');
            }
        }
    }

    /// Parses a complete JSON document (trailing whitespace allowed).
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing garbage at byte {pos}"));
        }
        Ok(value)
    }
}

fn write_num(out: &mut String, n: f64) {
    if !n.is_finite() {
        // JSON has no Infinity/NaN; null is the conventional stand-in.
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() < 9e15 {
        let _ = write!(out, "{}", n as i64);
    } else {
        let _ = write!(out, "{n}");
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
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

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'n') => expect(b, pos, "null").map(|_| Json::Null),
        Some(b't') => expect(b, pos, "true").map(|_| Json::Bool(true)),
        Some(b'f') => expect(b, pos, "false").map(|_| Json::Bool(false)),
        Some(b'"') => parse_string(b, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(b, pos)?);
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
            let mut map = BTreeMap::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(map));
            }
            loop {
                skip_ws(b, pos);
                let key = parse_string(b, pos)?;
                skip_ws(b, pos);
                expect(b, pos, ":")?;
                let value = parse_value(b, pos)?;
                map.insert(key, value);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(map));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
                }
            }
        }
        Some(_) => parse_number(b, pos).map(Json::Num),
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    if b.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {pos}"));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .ok_or("truncated \\u escape".to_string())?;
                        let hex = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
                        let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                        // Surrogate pairs are not needed for telemetry
                        // payloads (rule names are ASCII); map lone
                        // surrogates to the replacement character.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {pos}")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar (input is a &str, so this is
                // always a valid boundary walk).
                let start = *pos;
                *pos += 1;
                while *pos < b.len() && (b[*pos] & 0xC0) == 0x80 {
                    *pos += 1;
                }
                out.push_str(std::str::from_utf8(&b[start..*pos]).expect("valid utf8"));
            }
        }
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<f64, String> {
    let start = *pos;
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
        *pos += 1;
    }
    std::str::from_utf8(&b[start..*pos])
        .ok()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad number at byte {start}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_compact() {
        let doc = Json::obj(vec![
            ("a", Json::count(42)),
            (
                "b",
                Json::Arr(vec![Json::Null, Json::Bool(true), Json::num(1.5)]),
            ),
            ("c", Json::str("quote \" backslash \\ newline \n")),
            ("d", Json::Obj(BTreeMap::new())),
        ]);
        let text = doc.to_string_compact();
        assert_eq!(Json::parse(&text).unwrap(), doc);
        // Canonical: re-serializing the parse is identical.
        assert_eq!(Json::parse(&text).unwrap().to_string_compact(), text);
    }

    #[test]
    fn roundtrip_pretty() {
        let doc = Json::obj(vec![
            (
                "nested",
                Json::obj(vec![("k", Json::Arr(vec![Json::count(1)]))]),
            ),
            ("z", Json::num(0.25)),
        ]);
        assert_eq!(Json::parse(&doc.to_string_pretty()).unwrap(), doc);
    }

    #[test]
    fn large_counters_stay_exact() {
        for n in [(1u64 << 53) - 1, 1 << 53] {
            let text = Json::count(n).to_string_compact();
            assert_eq!(text, n.to_string());
            assert_eq!(Json::parse(&text).unwrap().as_u64(), Some(n));
        }
        // Above 2^53 the number form would round: a string is written.
        assert_eq!(
            Json::count((1 << 53) + 1).to_string_compact(),
            "\"9007199254740993\""
        );
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
}

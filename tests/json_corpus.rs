//! JSON parser golden: for each document of a fixed corpus, what
//! `Json::parse` makes of it — its compact print, or `error` — and, for
//! every number in the parsed value (in print order), its `as_u64` and the
//! bits of its `as_f64`.
//!
//! `tests/golden/json_corpus.txt` was generated from the parser that kept
//! objects in a `BTreeMap` and read every number with `str::parse`, and is
//! the contract that a faster parser reads every document the same way:
//! repeated keys (the last one wins), members out of order, every escape,
//! raw multibyte UTF-8, exponents, the integers at the edges of a
//! fixed-width fast path, and malformed input. There is deliberately no
//! regeneration switch; on mismatch the test prints the actual text.
//! `\u` surrogate pairs are left out on purpose: their decoding is pinned
//! by a unit test in `crates/common/src/json.rs`.

use ruletest_common::Json;
use std::fmt::Write as _;
use std::path::Path;

const CORPUS: &[&str] = &[
    // Structure.
    "{}",
    "[]",
    " { } ",
    "[ ]",
    "null",
    "true",
    "false",
    "{\"b\":1,\"a\":2}",
    "{\"a\":1,\"a\":2}",
    "{\"a\":1,\"b\":2,\"a\":3}",
    "{\"c\":1,\"b\":2,\"c\":3,\"a\":4,\"b\":5}",
    "{\"z\":{\"y\":[1,{\"x\":null,\"w\":true}]},\"a\":false}",
    "{\"a\":[],\"b\":{},\"c\":[[]],\"d\":[{}]}",
    " \n\t{ \"a\" : 1 , \"b\" : [ 1 , 2 ] } \r\n",
    "{\"\":0,\"a\":\"\"}",
    "{\"aa\":1,\"a\":2,\"ab\":3,\"B\":4,\"_\":5}",
    "{\"key\":{\"tree\":{\"o\":{\"op\":\"get\",\"table\":3},\"c\":[]},\"max_passes\":64},\"result\":null}",
    "[null,true,false,0,\"s\",[],{}]",
    // Strings and escapes.
    "\"\"",
    "\"plain ascii\"",
    "\"\\\"\\\\\\/\\b\\f\\n\\r\\t\"",
    "\"abc\\\"def\\\\ghi\\/jkl\"",
    "\"\\u0041\\u00e9\\u20ac\\u0000\\u001f\\u007f\"",
    "\"\\u00E9\\u00e9\"",
    "\"tab\there\"",
    "\"raw \u{1} control\"",
    "\"café ü 中文 😀\"",
    "{\"ключ\":\"значение\",\"a\":\"ü\"}",
    "\"😀\\n😀\"",
    "\"\\\\u0041\"",
    // Numbers.
    "0",
    "-0",
    "007",
    "-007",
    "+1",
    "1.5",
    "-1.5",
    "0.1",
    "1.",
    ".5",
    "1e3",
    "1E3",
    "1e+3",
    "1e-3",
    "2.5e-7",
    "-1.25E+10",
    "1e300",
    "1e400",
    "-1e400",
    "5e-324",
    "999999999999999",
    "-999999999999999",
    "123456789012345",
    "000000000000000",
    "0000000000000001",
    "1234567890123456",
    "9999999999999999",
    "9007199254740992",
    "9007199254740993",
    "-9007199254740993",
    "18446744073709551615",
    "18446744073709551616",
    "[1,-0,007,1.5,-2]",
    "{\"n\":42,\"m\":-0.5,\"e\":1e2}",
    // Malformed.
    "",
    " ",
    "[1,]",
    "[1,,2]",
    "[1 2]",
    "{\"a\":}",
    "{\"a\" 1}",
    "{\"a\":1,}",
    "{a:1}",
    "{,}",
    "{",
    "[",
    "]",
    "}",
    "{\"a\":1}}",
    "{\"a\":1} x",
    "\"\\x\"",
    "\"\\u00\"",
    "\"\\uzzzz\"",
    "\"unterminated",
    "\"abc\\",
    "1-2",
    "-",
    "--1",
    "1e",
    "1.2.3",
    "0x10",
    "nul",
    "True",
    "truex",
    "[true false]",
];

/// Every number in `j`, in print order.
fn numbers(j: &Json, out: &mut Vec<f64>) {
    match j {
        Json::Num(n) => out.push(*n),
        Json::Arr(items) => items.iter().for_each(|v| numbers(v, out)),
        Json::Obj(_) => {
            let members = j.as_obj().expect("an object");
            members.iter().for_each(|(_, v)| numbers(v, out));
        }
        Json::Null | Json::Bool(_) | Json::Str(_) => {}
    }
}

fn corpus_text() -> String {
    let mut out = String::new();
    for doc in CORPUS {
        match Json::parse(doc) {
            Ok(j) => {
                writeln!(out, "{doc:?} => {}", j.to_string_compact()).unwrap();
                let mut nums = Vec::new();
                numbers(&j, &mut nums);
                for n in nums {
                    let as_u64 = Json::Num(n).as_u64();
                    writeln!(out, "  num as_u64={as_u64:?} f64={:016x}", n.to_bits()).unwrap();
                }
            }
            Err(_) => writeln!(out, "{doc:?} => error").unwrap(),
        }
    }
    out
}

#[test]
fn parser_reads_the_corpus_as_pinned() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/json_corpus.txt");
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
    let actual = corpus_text();
    assert!(
        actual == want,
        "tests/golden/json_corpus.txt differs\n--- actual ---\n{actual}\n--- golden ---\n{want}"
    );
}

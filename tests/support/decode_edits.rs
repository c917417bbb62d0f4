// The edits behind `tests/golden/decode_corpus.txt`, shared by the
// integration test `tests/decode_corpus.rs` and the shard-line unit test in
// `crates/optimizer/src/persist.rs` (which `include!`s this file).
//
// A document is held as written — members in their order, repeats kept,
// every scalar as its raw text — so each edit changes only what it names.
// `section` re-reads every edit of every document through a decoder and
// writes one line per edit: `<label>: err <error>`, or `<label>: ok` and the
// compact re-encoding — in full for the document as written, then `same`
// when an edit re-encodes to the same text, else the text's FNV-1a hash
// (the shard fixtures' full re-encodings would make the file 4 MB).

use std::fmt::Write as _;

/// A JSON value as written. Scalars and keys keep their raw text (a
/// string with its quotes and escapes).
#[derive(Clone)]
pub enum Node {
    Atom(String),
    Arr(Vec<Node>),
    Obj(Members),
}

/// An object's members as written: raw key and value.
type Members = Vec<(String, Node)>;

/// Reads a well-formed document (the fixtures are).
pub fn parse(text: &str) -> Node {
    let mut pos = 0;
    value(text, &mut pos)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && b[*pos].is_ascii_whitespace() {
        *pos += 1;
    }
}

fn value(text: &str, pos: &mut usize) -> Node {
    let b = text.as_bytes();
    skip_ws(b, pos);
    match b[*pos] {
        b'{' | b'[' => {
            let object = b[*pos] == b'{';
            *pos += 1;
            let (mut members, mut items) = (Vec::new(), Vec::new());
            loop {
                skip_ws(b, pos);
                match b[*pos] {
                    b'}' | b']' => {
                        *pos += 1;
                        break;
                    }
                    b',' => *pos += 1,
                    _ if object => {
                        let key = raw_string(text, pos);
                        skip_ws(b, pos);
                        assert_eq!(b[*pos], b':');
                        *pos += 1;
                        members.push((key, value(text, pos)));
                    }
                    _ => items.push(value(text, pos)),
                }
            }
            if object {
                Node::Obj(members)
            } else {
                Node::Arr(items)
            }
        }
        b'"' => Node::Atom(raw_string(text, pos)),
        _ => {
            let start = *pos;
            while *pos < b.len() && !matches!(b[*pos], b',' | b']' | b'}') {
                *pos += 1;
            }
            Node::Atom(text[start..*pos].trim_end().to_string())
        }
    }
}

fn raw_string(text: &str, pos: &mut usize) -> String {
    let b = text.as_bytes();
    let start = *pos;
    *pos += 1;
    while b[*pos] != b'"' {
        *pos += if b[*pos] == b'\\' { 2 } else { 1 };
    }
    *pos += 1;
    text[start..*pos].to_string()
}

/// Compact text, or the writer's pretty layout (two spaces, `": "`).
pub fn print(n: &Node, pretty: bool) -> String {
    let mut out = String::new();
    write_node(&mut out, n, pretty, 0);
    out
}

fn write_node(out: &mut String, n: &Node, pretty: bool, depth: usize) {
    let newline = |out: &mut String, depth: usize| {
        if pretty {
            out.push('\n');
            out.push_str(&"  ".repeat(depth));
        }
    };
    let (open, close, len) = match n {
        Node::Atom(a) => return out.push_str(a),
        Node::Arr(items) => ('[', ']', items.len()),
        Node::Obj(members) => ('{', '}', members.len()),
    };
    out.push(open);
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        newline(out, depth + 1);
        match n {
            Node::Arr(items) => write_node(out, &items[i], pretty, depth + 1),
            Node::Obj(members) => {
                out.push_str(&members[i].0);
                out.push_str(if pretty { ": " } else { ":" });
                write_node(out, &members[i].1, pretty, depth + 1);
            }
            Node::Atom(_) => unreachable!(),
        }
    }
    if len > 0 {
        newline(out, depth);
    }
    out.push(close);
}

/// `n` with `edit` applied to every object, innermost first.
fn each_object(n: &Node, edit: &dyn Fn(&mut Members)) -> Node {
    match n {
        Node::Atom(_) => n.clone(),
        Node::Arr(items) => Node::Arr(items.iter().map(|v| each_object(v, edit)).collect()),
        Node::Obj(members) => {
            let mut members: Members = members
                .iter()
                .map(|(k, v)| (k.clone(), each_object(v, edit)))
                .collect();
            edit(&mut members);
            Node::Obj(members)
        }
    }
}

/// One step from a container to an element: a member's position, or an
/// array index.
#[derive(Clone)]
enum Step {
    Member(usize),
    Item(usize),
}

/// The path of every object member, in document order, with its label
/// (`result.plan.c[0].o`).
fn member_paths(n: &Node, at: &mut Vec<Step>, label: &str, out: &mut Vec<(Vec<Step>, String)>) {
    match n {
        Node::Atom(_) => {}
        Node::Arr(items) => {
            for (i, v) in items.iter().enumerate() {
                at.push(Step::Item(i));
                member_paths(v, at, &format!("{label}[{i}]"), out);
                at.pop();
            }
        }
        Node::Obj(members) => {
            for (i, (k, v)) in members.iter().enumerate() {
                let key = k.trim_matches('"');
                let label = if label.is_empty() {
                    key.to_string()
                } else {
                    format!("{label}.{key}")
                };
                at.push(Step::Member(i));
                out.push((at.clone(), label.clone()));
                member_paths(v, at, &label, out);
                at.pop();
            }
        }
    }
}

/// `n` with the member at `path` removed (`None`) or its value replaced.
fn at_path(n: &Node, path: &[Step], with: Option<&Node>) -> Node {
    let mut n = n.clone();
    let mut cur = &mut n;
    for (depth, step) in path.iter().enumerate() {
        let last = depth + 1 == path.len();
        cur = match (cur, step) {
            (Node::Obj(members), Step::Member(i)) if last => {
                match with {
                    Some(v) => members[*i].1 = v.clone(),
                    None => {
                        members.remove(*i);
                    }
                }
                break;
            }
            (Node::Obj(members), Step::Member(i)) => &mut members[*i].1,
            (Node::Arr(items), Step::Item(i)) => &mut items[*i],
            _ => unreachable!("a path follows the document"),
        };
    }
    n
}

/// Every edit of `doc`, labelled, in a fixed order.
pub fn edits(doc: &str) -> Vec<(String, String)> {
    let n = parse(doc);
    let unknown = parse(r#"[null,{"x":1}]"#);
    let mut out = vec![
        ("as written".to_string(), doc.to_string()),
        ("pretty".to_string(), print(&n, true)),
        (
            "reversed".to_string(),
            print(&each_object(&n, &|m| m.reverse()), false),
        ),
        (
            "unknown member".to_string(),
            print(
                &each_object(&n, &|m| m.push(("\"zz_unknown\"".to_string(), unknown.clone()))),
                false,
            ),
        ),
        (
            "first member repeated".to_string(),
            print(
                &each_object(&n, &|m| {
                    if let Some(first) = m.first().cloned() {
                        m.push(first);
                    }
                }),
                false,
            ),
        ),
    ];
    let mut paths = Vec::new();
    member_paths(&n, &mut Vec::new(), "", &mut paths);
    for (path, label) in &paths {
        out.push((format!("removed {label}"), print(&at_path(&n, path, None), false)));
    }
    let null = Node::Atom("null".to_string());
    for (path, label) in &paths {
        out.push((format!("null {label}"), print(&at_path(&n, path, Some(&null)), false)));
    }
    let mut half = doc.len() / 2;
    while !doc.is_char_boundary(half) {
        half -= 1;
    }
    out.push(("cut in half".to_string(), doc[..half].to_string()));
    out
}

/// The corpus lines of one fixture: a heading, then every edit of every
/// document (one per line of a JSONL fixture, numbered) re-read by `read`.
pub fn section(fixture: &str, docs: &[&str], read: &dyn Fn(&str) -> Result<String, String>) -> String {
    let mut out = format!("# {fixture}\n");
    for (d, doc) in docs.iter().enumerate() {
        let line = if docs.len() > 1 {
            format!("[{d}] ")
        } else {
            String::new()
        };
        let mut as_written = None;
        for (label, text) in edits(doc) {
            let result = match read(&text) {
                Err(e) => format!("err {e}"),
                Ok(encoded) if as_written.is_none() => {
                    let line = format!("ok {encoded}");
                    as_written = Some(encoded);
                    line
                }
                Ok(encoded) if as_written.as_ref() == Some(&encoded) => "ok same".to_string(),
                Ok(encoded) => format!("ok fnv1a {:016x}", ruletest_common::fnv1a(encoded.as_bytes())),
            };
            writeln!(out, "{line}{label}: {result}").unwrap();
        }
    }
    out
}

/// Panics naming every section of `actual` (fixture, text) that the
/// committed corpus does not hold as is, with its actual text.
pub fn assert_sections(corpus: &str, actual: &[(String, String)]) {
    let mut report = String::new();
    for (fixture, text) in actual {
        if golden_section(corpus, fixture).as_deref() != Some(text.as_str()) {
            writeln!(report, "section {fixture} differs\n--- actual ---\n{text}--- end ---").unwrap();
        }
    }
    assert!(report.is_empty(), "tests/golden/decode_corpus.txt:\n{report}");
}

/// The section of the committed corpus headed `# fixture`.
fn golden_section(corpus: &str, fixture: &str) -> Option<String> {
    let heading = format!("# {fixture}\n");
    let start = corpus.find(&heading)?;
    let end = corpus[start + heading.len()..]
        .find("\n# ")
        .map_or(corpus.len(), |at| start + heading.len() + at + 1);
    Some(corpus[start..end].to_string())
}

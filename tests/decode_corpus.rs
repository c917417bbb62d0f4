//! Decode golden: every decodable fixture under `tests/golden/wire/`,
//! re-read after each of a fixed set of edits, against
//! `tests/golden/decode_corpus.txt`.
//!
//! The edits (`tests/support/decode_edits.rs`) are: the document as
//! written, pretty-printed, every object's members reversed, an unknown
//! member added to every object, every object's first member repeated at
//! its end, each member removed in turn, each member set to `null` in turn,
//! and the text cut in half. Each result is one line, `err <error>` or `ok`
//! with the compact re-encoding (in full for the document as written, then
//! `same` or the hash of the text), so the file pins what the decoders
//! accept, what they make of it and which error they name. There is
//! deliberately no regeneration switch; on mismatch the test prints the
//! actual section.
//!
//! This test covers the fixtures read through public entry points: cache
//! keys, the run report, repro bundles and the quarantine checkpoint. The
//! snapshot manifests and shard lines are private formats; their sections
//! are checked by `decode_corpus_pins_shard_lines_and_manifests` in
//! `crates/optimizer/src/persist.rs`.

use ruletest_common::{from_str, to_compact, wire_record, Decode};
use ruletest_core::{read_bundles, CampaignParams, Quarantine};
use ruletest_optimizer::CacheKey;
use ruletest_telemetry::RunReport;
use std::fs;
use std::path::{Path, PathBuf};

#[allow(dead_code)]
mod decode_edits {
    include!("support/decode_edits.rs");
}

use decode_edits::{assert_sections, section};

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

fn read(rel: &str) -> String {
    let path = root().join(rel);
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()))
}

/// `checkpoint/quarantine.json` as the campaign store reads it: the
/// campaign's stamp, then its quarantine.
#[derive(Debug)]
struct Checkpoint {
    fingerprint: String,
    format: u64,
    params: CampaignParams,
    quarantine: Quarantine,
}

wire_record!(Checkpoint {
    "fingerprint" => fingerprint,
    "format" => format,
    "params" => params,
    "quarantine" => quarantine,
});

fn decode<T: Decode>(text: &str) -> Result<T, String> {
    Ok(from_str(text)?)
}

#[test]
fn every_public_fixture_decodes_as_pinned() {
    let mut actual = Vec::new();
    let mut section_of =
        |fixture: &str, docs: &[&str], reader: &dyn Fn(&str) -> Result<String, String>| {
            actual.push((fixture.to_string(), section(fixture, docs, reader)));
        };
    let keys = read("wire/cache_keys.txt");
    section_of("cache_keys.txt", &keys.lines().collect::<Vec<_>>(), &|t| {
        decode::<CacheKey>(t).map(|k| to_compact(&k))
    });
    section_of("run_report.json", &[&read("wire/run_report.json")], &|t| {
        RunReport::from_json(t).map(|r| to_compact(&r))
    });
    let bundles = read("wire/bundles.jsonl");
    section_of(
        "bundles.jsonl",
        &bundles.lines().collect::<Vec<_>>(),
        &|t| read_bundles(t.as_bytes()).map(|b| to_compact(&b)),
    );
    section_of(
        "checkpoint/quarantine.json",
        &[&read("wire/checkpoint/quarantine.json")],
        &|t| decode::<Checkpoint>(t).map(|c| to_compact(&c)),
    );
    assert_sections(&read("decode_corpus.txt"), &actual);
}

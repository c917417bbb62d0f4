//! Database golden: what the generators build, pinned by one line per
//! table in `tests/golden/database_digest.txt` — its row count, an
//! order-sensitive digest of its rows and one of its `TableStats`.
//!
//! Every plan, result and report downstream is a function of these rows, so
//! a change to the generators' inputs (`Rng::sample_indices`, the value
//! representation, the table builder) that is *not* meant to change a
//! database leaves the file untouched. The file was generated from the
//! shuffling sampler and the `String`-owning `Value` (ISSUE 21, commit 1).
//! There is deliberately no regeneration switch: a change that is meant to
//! alter a generated database copies the `actual` text this test prints on
//! mismatch.

use ruletest_common::{Fnv64, Value};
use ruletest_storage::{ssb_database, tpch_database, Database, SsbConfig, TpchConfig};

const GOLDEN: &str = include_str!("golden/database_digest.txt");

/// Toolchain-independent bytes of one value: a tag and the payload
/// (`Value: Hash` is derived, so its byte stream is not ours to pin).
fn write_value(h: &mut Fnv64, v: &Value) {
    match v {
        Value::Null => h.write(&[0]),
        Value::Bool(b) => h.write(&[1, u8::from(*b)]),
        Value::Int(i) => h.write(&[2]).write(&i.to_le_bytes()),
        Value::Str(s) => h.write(&[3]).write_str(s),
    };
}

fn write_bound(h: &mut Fnv64, v: &Option<Value>) {
    match v {
        None => {
            h.write(&[0xff]);
        }
        Some(v) => write_value(h, v),
    }
}

/// One line per table of `db`, in catalog order.
fn digest(label: &str, db: &Database, out: &mut String) {
    for def in db.catalog.tables() {
        let t = db.table(def.id).unwrap();
        let mut rows = Fnv64::new();
        for row in &t.rows {
            rows.write_u64(row.len() as u64);
            for v in row {
                write_value(&mut rows, v);
            }
        }
        let mut stats = Fnv64::new();
        stats.write_u64(t.stats.row_count);
        for c in &t.stats.columns {
            stats.write_u64(c.ndv).write_u64(c.null_count);
            write_bound(&mut stats, &c.min);
            write_bound(&mut stats, &c.max);
        }
        out.push_str(&format!(
            "{label} {} rows={} data={:016x} stats={:016x}\n",
            def.name,
            t.rows.len(),
            rows.finish(),
            stats.finish(),
        ));
    }
}

#[test]
fn generated_databases_match_the_golden() {
    let mut actual = String::new();
    let tpch = [
        ("tpch-default", TpchConfig::default()),
        ("tpch-7x4", TpchConfig::scaled(7, 4)),
        ("tpch-1x256", TpchConfig::scaled(1, 256)),
        ("tpch-2x256", TpchConfig::scaled(2, 256)),
    ];
    for (label, config) in &tpch {
        digest(label, &tpch_database(config).unwrap(), &mut actual);
    }
    digest(
        "ssb-default",
        &ssb_database(&SsbConfig::default()).unwrap(),
        &mut actual,
    );
    assert!(
        actual == GOLDEN,
        "generated databases differ from tests/golden/database_digest.txt; actual:\n{actual}"
    );
}

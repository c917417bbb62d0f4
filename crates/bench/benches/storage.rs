//! Microbenchmarks for the test-database substrate at the benchmark's
//! scale (256: 140,045 rows): building the database, the partsupp index
//! sample that dominates the build, and primary-key point lookups.

use ruletest_bench::harness;
use ruletest_common::{Rng, Value};
use ruletest_storage::{tpch_database, TpchConfig};

fn main() {
    let config = TpchConfig::scaled(3, 256);

    let mut group = harness::group("storage");
    group.sample_size(5);
    group.bench("tpch_build_scale256", || {
        tpch_database(&config).unwrap().total_rows()
    });
    group.bench("sample_indices_19m", || {
        Rng::new(3).sample_indices(config.parts * config.suppliers, config.partsupps)
    });

    let db = tpch_database(&config).unwrap();
    let orders = db
        .table(db.catalog.table_by_name("orders").unwrap().id)
        .unwrap();
    // A stride coprime to the row count visits every key, out of order.
    let n = orders.rows.len() as i64;
    let mut next = 0i64;
    let mut probe = |offset: i64| {
        next = (next + 7919) % n;
        orders.pk_lookup(&[Value::Int(next + offset)]).len()
    };
    group.sample_size(20);
    group.bench("pk_lookup_hit", || probe(0));
    group.bench("pk_lookup_miss", || probe(n));
    group.finish();
}

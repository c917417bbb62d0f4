//! JSONL trace-export schema tests: every event a real campaign emits
//! parses back with its per-type required keys, and the histogram/counter
//! cross-invariants hold (bucket sums equal counts, histogram counts equal
//! the counters that gate their observations).

use ruletest_common::Parallelism;
use ruletest_core::compress::topk;
use ruletest_core::correctness::execute_solution;
use ruletest_core::{
    build_graph_pruned, generate_suite, singleton_targets, Framework, FrameworkConfig, GenConfig,
    Instance, Strategy,
};
use ruletest_executor::ExecConfig;
use ruletest_storage::tpch_database;
use ruletest_telemetry::{Counter, Hist, Json, Telemetry};
use std::collections::HashMap;
use std::sync::Arc;

/// Runs a small single-threaded campaign with a tracer big enough to
/// retain every event, and returns the framework.
fn traced_campaign() -> Framework {
    let db = Arc::new(tpch_database(&FrameworkConfig::default().db).unwrap());
    let fw = Framework::over_database(db)
        .with_parallelism(Parallelism {
            threads: 1,
            seed: 7,
        })
        .with_telemetry(Telemetry::with_tracing(65_536));
    let gen_cfg = GenConfig {
        seed: 0x7ACE,
        pad_ops: 1,
        ..Default::default()
    };
    let suite = generate_suite(
        &fw,
        singleton_targets(&fw, 5),
        2,
        Strategy::Pattern,
        &gen_cfg,
    )
    .unwrap();
    let graph = build_graph_pruned(&fw, &suite).unwrap();
    let inst = Instance::from_graph(&graph);
    let sol = topk(&inst).unwrap();
    execute_solution(&fw, &suite, &inst, &sol, &ExecConfig::default()).unwrap();
    fw
}

/// Keys every event of a given type must carry, beyond `seq` and `type`.
fn required_keys(kind: &str) -> &'static [&'static str] {
    match kind {
        "invocation" => &[
            "fingerprint",
            "masked_rules",
            "groups",
            "exprs",
            "truncated",
            "elapsed_us",
        ],
        "cache_lookup" => &["fingerprint", "hit"],
        "rule_fire" => &["rule", "phase", "produced"],
        "gen_outcome" => &["rule", "trials", "ops", "found"],
        "graph_probe" => &["target", "scanned", "pruned"],
        "validation" => &["target", "query", "outcome"],
        other => panic!("unknown event type in trace: {other}"),
    }
}

#[test]
fn every_exported_event_parses_with_its_schema() {
    let fw = traced_campaign();
    let stats = fw.telemetry.trace_stats();
    assert!(stats.recorded > 0, "campaign emitted no events");
    assert_eq!(stats.dropped, 0, "ring capacity too small for the test");

    let mut buf = Vec::new();
    fw.telemetry.export_trace(&mut buf).unwrap();
    let text = String::from_utf8(buf).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len() as u64, stats.recorded, "events lost on export");

    let num_rules = fw.optimizer.num_rules() as u64;
    let mut by_kind: HashMap<String, u64> = HashMap::new();
    let mut last_seq = None;
    for line in &lines {
        let doc = Json::parse(line).unwrap_or_else(|e| panic!("unparseable line {line:?}: {e}"));
        let seq = doc
            .get("seq")
            .and_then(Json::as_u64)
            .unwrap_or_else(|| panic!("missing seq in {line}"));
        // Single-threaded run: seq must be a strictly increasing total
        // order with no gaps.
        if let Some(prev) = last_seq {
            assert_eq!(seq, prev + 1, "sequence gap after {prev}");
        }
        last_seq = Some(seq);
        let kind = doc
            .get("type")
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("missing type in {line}"))
            .to_string();
        for key in required_keys(&kind) {
            assert!(doc.get(key).is_some(), "{kind} event missing {key}: {line}");
        }
        if kind == "rule_fire" || kind == "gen_outcome" {
            let rule = doc.get("rule").and_then(Json::as_u64).unwrap();
            assert!(rule < num_rules, "rule index {rule} out of range: {line}");
        }
        *by_kind.entry(kind).or_insert(0) += 1;
    }

    // Event counts must agree with the counters that gate them
    // (single-threaded, so no racing duplicate computes).
    let tel = &fw.telemetry;
    assert_eq!(
        by_kind.get("invocation").copied().unwrap_or(0),
        tel.counter(Counter::OptInvocations),
        "one invocation event per computed optimization"
    );
    let cache = fw.optimizer.cache_stats();
    assert_eq!(
        by_kind.get("cache_lookup").copied().unwrap_or(0),
        cache.hits + cache.misses,
        "one cache_lookup event per lookup"
    );
    assert_eq!(
        by_kind.get("gen_outcome").copied().unwrap_or(0),
        tel.counter(Counter::GenHits) + tel.counter(Counter::GenFailures),
        "one gen_outcome event per generation problem"
    );
    assert_eq!(
        by_kind.get("validation").copied().unwrap_or(0),
        tel.counter(Counter::Validations),
        "one validation event per (target, query) validation"
    );
    assert!(by_kind.get("rule_fire").copied().unwrap_or(0) > 0);
    assert!(by_kind.get("graph_probe").copied().unwrap_or(0) > 0);
}

#[test]
fn histogram_invariants_hold_against_counters() {
    let fw = traced_campaign();
    let snap = fw.telemetry.metrics_snapshot();

    // Bucket sums always equal the observation count.
    for h in Hist::ALL {
        let hist = snap.histogram(h);
        assert_eq!(
            hist.buckets.iter().sum::<u64>(),
            hist.count,
            "bucket sum != count for {}",
            h.name()
        );
    }

    // Each histogram's count equals the counter gating its observations.
    let invocations = snap.counter(Counter::OptInvocations);
    assert!(invocations > 0);
    assert_eq!(
        snap.histogram(Hist::GenTrialsToHit).count,
        snap.counter(Counter::GenHits)
    );
    assert_eq!(snap.histogram(Hist::MemoGroups).count, invocations);
    assert_eq!(snap.histogram(Hist::MemoExprs).count, invocations);
    // Single-threaded: every compute is the insertion winner, so the
    // per-compute timing histogram matches the unique-invocation counter.
    assert_eq!(snap.histogram(Hist::InvocationMicros).count, invocations);

    // Trials-to-hit observations can never exceed total trials.
    assert!(snap.histogram(Hist::GenTrialsToHit).sum <= snap.counter(Counter::GenTrials));

    // The JSON round-trip of the full report preserves the histograms.
    let report = fw.run_report();
    let back = ruletest_telemetry::RunReport::from_json(&ruletest_common::to_pretty(&report))
        .expect("report JSON round-trip");
    assert_eq!(back, report);
}

//! Campaign-engine benchmark: the full pipeline (suite generation →
//! pruned bipartite graph → Top-K compression → correctness execution)
//! at 1 thread vs. N threads, verifying byte-identical results and
//! reporting the wall-clock speedup, the invocation-cache statistics, and
//! the overhead of enabling campaign telemetry. Results land in
//! `BENCH_campaign.json` (timings + the telemetry run's full `RunReport`);
//! `--metrics-json PATH` additionally writes the bare `RunReport` in the
//! format `ruletest report` consumes.
//!
//! ```text
//! campaign [--threads N] [--rules N] [--k K] [--seed S]
//!          [--metrics-json PATH] [--trace-out PATH] [--cache-dir DIR]
//! ```
//!
//! With `--cache-dir`, the telemetry run attaches the persistent
//! invocation cache: a second invocation with the same directory answers
//! its optimizer probes from disk, and `telemetry_invocations` in the
//! output JSON measures the physical compute that remained — the CI
//! warm-cache gate asserts it drops. The 1-vs-N determinism runs never
//! touch the store, so the speedup/overhead numbers stay cold-for-cold.

use ruletest_common::{to_pretty, JsonWriter, Parallelism};
use ruletest_core::compress::topk;
use ruletest_core::correctness::execute_solution;
use ruletest_core::{
    build_graph_pruned, final_persist, generate_suite, singleton_targets, CorrectnessReport,
    Framework, FrameworkConfig, GenConfig, Instance, Strategy, TestSuite,
};
use ruletest_executor::ExecConfig;
use ruletest_optimizer::SnapshotStore;
use ruletest_storage::tpch_database;
use ruletest_telemetry::{RunReport, Telemetry};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

struct CampaignOutcome {
    suite_sql: Vec<String>,
    edges: Vec<((usize, usize), u64)>,
    report: CorrectnessReport,
    elapsed_s: f64,
    invocations: u64,
    cache_hits: u64,
    cache_misses: u64,
    /// The aggregate telemetry report (empty sections when disabled).
    run_report: RunReport,
}

fn run(
    db: Arc<ruletest_storage::Database>,
    threads: usize,
    rules: usize,
    k: usize,
    seed: u64,
    telemetry: Telemetry,
    cache_dir: Option<&Path>,
) -> CampaignOutcome {
    let fw = Framework::over_database(db)
        .with_parallelism(Parallelism { threads, seed })
        .with_telemetry(telemetry);
    if let Some(dir) = cache_dir {
        let store = SnapshotStore::open(dir, fw.campaign_fingerprint(), None)
            .expect("opening cache snapshot");
        fw.optimizer.attach_snapshot_store(Arc::new(store));
    }
    let t0 = Instant::now();
    let targets = singleton_targets(&fw, rules);
    let suite: TestSuite = generate_suite(
        &fw,
        targets,
        k,
        Strategy::Pattern,
        &GenConfig {
            seed,
            pad_ops: 1,
            ..Default::default()
        },
    )
    .expect("suite generation");
    let graph = build_graph_pruned(&fw, &suite).expect("graph construction");
    let inst = Instance::from_graph(&graph);
    let sol = topk(&inst).expect("compression");
    let report =
        execute_solution(&fw, &suite, &inst, &sol, &ExecConfig::default()).expect("execution");
    if cache_dir.is_some() {
        final_persist(&fw).expect("persisting invocation cache");
    }
    let elapsed_s = t0.elapsed().as_secs_f64();

    let mut edges: Vec<((usize, usize), u64)> = graph
        .edges
        .iter()
        .map(|(&e, &c)| (e, c.to_bits()))
        .collect();
    edges.sort();
    let stats = fw.optimizer.cache_stats();
    let mut run_report = fw.run_report();
    run_report.wall_seconds = elapsed_s;
    CampaignOutcome {
        suite_sql: suite.queries.iter().map(|q| q.sql.clone()).collect(),
        edges,
        report,
        elapsed_s,
        invocations: fw.optimizer.invocation_count(),
        cache_hits: stats.hits,
        cache_misses: stats.misses,
        run_report,
    }
}

fn report_fields(o: &CampaignOutcome) -> (usize, usize, usize, usize, u64, usize) {
    (
        o.report.validations,
        o.report.executions,
        o.report.skipped_identical,
        o.report.skipped_expensive,
        o.report.estimated_cost.to_bits(),
        o.report.bugs.len(),
    )
}

fn main() {
    let mut threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(4);
    let mut rules = 12usize;
    let mut k = 3usize;
    let mut seed = 0xCA_4A16Eu64;
    let mut metrics_json: Option<String> = None;
    let mut trace_out: Option<String> = None;
    let mut cache_dir: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut value = |name: &str| -> String {
            args.next()
                .unwrap_or_else(|| panic!("{name} needs a value"))
        };
        match a.as_str() {
            "--threads" => threads = value("--threads").parse().expect("--threads: number"),
            "--rules" => rules = value("--rules").parse().expect("--rules: number"),
            "--k" => k = value("--k").parse().expect("--k: number"),
            "--seed" => seed = value("--seed").parse().expect("--seed: number"),
            "--metrics-json" => metrics_json = Some(value("--metrics-json")),
            "--trace-out" => trace_out = Some(value("--trace-out")),
            "--cache-dir" => cache_dir = Some(value("--cache-dir")),
            other => panic!("unknown argument {other}"),
        }
    }

    println!("campaign benchmark: {rules} rules, k={k}, seed={seed:#x}");
    let db = Arc::new(tpch_database(&FrameworkConfig::default().db).expect("tpch"));

    let single = run(db.clone(), 1, rules, k, seed, Telemetry::disabled(), None);
    println!(
        "  1 thread           : {:.2}s ({} optimizer invocations, cache {}h/{}m)",
        single.elapsed_s, single.invocations, single.cache_hits, single.cache_misses
    );
    let multi = run(
        db.clone(),
        threads,
        rules,
        k,
        seed,
        Telemetry::disabled(),
        None,
    );
    println!(
        "  {threads} threads          : {:.2}s ({} optimizer invocations, cache {}h/{}m)",
        multi.elapsed_s, multi.invocations, multi.cache_hits, multi.cache_misses
    );
    let telemetry = if trace_out.is_some() {
        Telemetry::enabled()
    } else {
        Telemetry::metrics_only()
    };
    let traced = run(
        db,
        threads,
        rules,
        k,
        seed,
        telemetry.clone(),
        cache_dir.as_deref().map(Path::new),
    );
    println!(
        "  {threads} threads+telemetry: {:.2}s ({} optimizer invocations, cache {}h/{}m)",
        traced.elapsed_s, traced.invocations, traced.cache_hits, traced.cache_misses
    );
    if cache_dir.is_some() {
        println!(
            "  persistent cache: {} computed this run (0 = fully warm)",
            traced.invocations
        );
    }

    // Determinism: the parallel campaign must reproduce the sequential
    // one bit for bit — and enabling telemetry must not change any result.
    assert_eq!(single.suite_sql, multi.suite_sql, "suite SQL diverged");
    assert_eq!(single.edges, multi.edges, "graph edge costs diverged");
    assert_eq!(
        report_fields(&single),
        report_fields(&multi),
        "correctness report diverged"
    );
    assert_eq!(
        single.suite_sql, traced.suite_sql,
        "telemetry changed the suite"
    );
    assert_eq!(single.edges, traced.edges, "telemetry changed edge costs");
    assert_eq!(
        report_fields(&single),
        report_fields(&traced),
        "telemetry changed the correctness report"
    );
    println!("  results identical across thread counts and telemetry ✓");
    let speedup = single.elapsed_s / multi.elapsed_s;
    let overhead_pct = (traced.elapsed_s - multi.elapsed_s) / multi.elapsed_s * 100.0;
    println!("  speedup: {speedup:.2}x at {threads} threads");
    println!("  telemetry overhead: {overhead_pct:+.1}% (target < 3%)");
    traced
        .run_report
        .check()
        .expect("telemetry run report failed its self-check");

    let mut doc = String::new();
    fn number(w: &mut JsonWriter<'_>, key: &str, n: f64) {
        w.key(key);
        w.num(n);
    }
    JsonWriter::pretty(&mut doc).object(|w| {
        w.member("bench", "campaign");
        w.member("cache_hits", &multi.cache_hits);
        w.member("cache_misses", &multi.cache_misses);
        w.member("invocations", &multi.invocations);
        w.member("k", &k);
        number(w, "multi_thread_s", multi.elapsed_s);
        w.member("rules", &rules);
        w.member("run_report", &traced.run_report);
        w.member("seed", &seed);
        number(w, "single_thread_s", single.elapsed_s);
        number(w, "speedup", speedup);
        // Physical computes in the telemetry run — with --cache-dir this
        // is what the disk cache could not answer (the warm-cache CI gate
        // asserts it collapses on a second run).
        w.member("telemetry_invocations", &traced.invocations);
        number(w, "telemetry_overhead_pct", overhead_pct);
        number(w, "telemetry_s", traced.elapsed_s);
        w.member("threads", &threads);
    });
    doc.push('\n');
    std::fs::write("BENCH_campaign.json", doc).expect("writing bench json");
    println!("  wrote BENCH_campaign.json");
    if let Some(path) = metrics_json {
        // A plain RunReport document, consumable by `ruletest report`.
        std::fs::write(&path, to_pretty(&traced.run_report)).expect("writing metrics json");
        println!("  wrote {path}");
    }
    if let Some(path) = trace_out {
        let file = std::fs::File::create(&path).expect("creating trace file");
        let mut out = std::io::BufWriter::new(file);
        telemetry.export_trace(&mut out).expect("writing trace");
        println!(
            "  wrote {path} ({} events)",
            telemetry.trace_stats().recorded
        );
    }
}

//! `ruletest` — command-line front end for the rule-testing framework.
//!
//! ```text
//! ruletest rules                         list the optimizer's rule catalog
//! ruletest pattern <RULE>                print a rule's pattern as XML (§3.1 API)
//! ruletest gen <RULE> [opts]             generate a query exercising the rule
//! ruletest pair <RULE_A> <RULE_B> [opts] generate a query exercising a rule pair
//! ruletest relevant <RULE> [opts]        find a query where the rule changes the plan (§7)
//! ruletest dependency <R1> <R2> [opts]   find a query where R2 fires on R1's output (§7)
//! ruletest sql "<SELECT ...>"            parse, optimize, explain, and run SQL
//! ruletest audit [--rules N] [--k K]     compression + correctness campaign
//! ruletest impact [--rules N]            workload-level rule performance impact (§1's third dimension)
//! ruletest report <run-report.json>      summarize a --metrics-json run report (--check fails on dead instrumentation)
//! ruletest diff <BASE.json> <CUR.json>    compare two run reports; exits nonzero on regression (--threshold-pct N)
//! ruletest triage [--fault F] [--out P]  campaign + bug triage: minimize, dedup, emit repro bundles (F: any mutant id)
//! ruletest triage replay <bugs.jsonl>    re-execute bundles in a fresh process (--check fails unless all confirm)
//! ruletest lint [--fault F] [--json P]   static rule audit: catch rule bugs without executing queries
//! ruletest lint --prove                  also run the symbolic equivalence prover
//! ruletest prove [--rule R] [--json P]   prove catalog rules equivalence-preserving algebraically
//! ruletest prove --fault MUTANT          inject a mutant; fail unless proved inequivalent
//! ruletest mutate [--class C] [--sample N] [--json P]  rule-mutation campaign: measure fault-detection power
//! ruletest mutate --list                 print the mutant catalog
//!
//! common options: --seed N   --pad N   --random   --trials N   --threads N   --scale N
//! telemetry:      --metrics-json PATH   --trace-out PATH   --profile-folded PATH
//! robustness:     --no-supervise   --deadline-ms N   --chaos-seed N   --chaos-plan SPEC
//! ```
//!
//! `audit` runs supervised by default: every optimizer invocation and
//! executor run is sandboxed, failures land in a crash quarantine
//! (persisted under `--cache-dir`, inherited and skipped on
//! `--resume`), and quarantined inputs with SQL witnesses are minimized
//! into crash repro bundles. `--chaos-seed` / `--chaos-plan` give the
//! campaign a deterministic fault-injection plan to exercise exactly that
//! path; `triage`, `mutate`, `lint`, `prove`, `report` and `diff` reject
//! them.

use ruletest::cli::{self, Opts};
use ruletest::common::chaos::{Chaos, ChaosPlan};
use ruletest::common::to_pretty;
use ruletest::common::Decode;
use ruletest::core::compress::{baseline, smc, topk, Instance};
use ruletest::core::correctness::{execute_solution, execute_solution_with};
use ruletest::core::generate::dependency::find_dependency_query;
use ruletest::core::generate::relevant::find_relevant_query;
use ruletest::core::{
    build_graph, final_persist, generate_suite, mutant_optimizer, read_bundles, replay,
    run_checkpointed_campaign, singleton_targets, to_bundles, triage_report, write_bundles,
    CampaignParams, DbProfile, Framework, FrameworkConfig, GenConfig, Mutant, RuleTarget, Strategy,
    TriageConfig,
};
use ruletest::executor::{execute_with, ExecConfig};
use ruletest::optimizer::{Optimizer, RuleKind};
use ruletest::sql::parse_sql;
use ruletest::storage::{tpch_database, TpchConfig};
use ruletest::telemetry::{diff_reports, Json, RunReport, Telemetry};
use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

fn main() -> ExitCode {
    let (cmd, opts) = match cli::parse(std::env::args().skip(1)) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if cmd == "report" {
        // Pure file analysis: no framework (or test database) needed.
        return match run_report_cmd(&opts) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    if cmd == "diff" {
        // Pure file analysis: compares two saved run reports.
        return match run_diff_cmd(&opts) {
            Ok(regressed) => {
                if regressed {
                    ExitCode::FAILURE
                } else {
                    ExitCode::SUCCESS
                }
            }
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    if cmd == "triage" {
        // Builds its own (possibly fault-injected, scaled) framework.
        return match run_triage(&opts) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    if cmd == "mutate" {
        // Builds one optimizer per mutant; no shared framework.
        return match run_mutate(&opts) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    if cmd == "lint" {
        // Purely static: no executor, no framework, no query runs.
        return match run_lint(&opts) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    if cmd == "prove" {
        // Purely symbolic: rowless database, no executor, no framework.
        return match run_prove(&opts) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    // --threads 0 (the default) means "one worker per core".
    let mut parallelism = ruletest::common::Parallelism::default();
    if opts.threads > 0 {
        parallelism.threads = opts.threads;
    }
    parallelism.seed = opts.seed;
    // Either telemetry output flag turns recording on; the event tracer is
    // only allocated when a trace is actually wanted.
    let telemetry = if opts.trace_out.is_some() {
        Telemetry::enabled()
    } else if opts.metrics_json.is_some() || opts.profile_folded.is_some() {
        Telemetry::metrics_only()
    } else {
        Telemetry::disabled()
    };
    let chaos = match chaos_from(&opts) {
        Ok(chaos) => chaos,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let started = Instant::now();
    let fw = match Framework::new(&FrameworkConfig {
        parallelism,
        telemetry,
        chaos,
        ..Default::default()
    }) {
        Ok(fw) => fw,
        Err(e) => {
            eprintln!("framework construction failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let strategy = if opts.random {
        Strategy::Random
    } else {
        Strategy::Pattern
    };
    let gen_cfg = GenConfig {
        seed: opts.seed,
        pad_ops: opts.pad,
        max_trials: opts.trials,
        ..Default::default()
    };
    let rule_by_name = |name: &str| {
        fw.optimizer
            .rule_id(name)
            .ok_or_else(|| format!("unknown rule '{name}' — see `ruletest rules` for the catalog"))
    };

    let result: Result<(), String> = match cmd.as_str() {
        "rules" => {
            println!("{:<32} {:<15} precondition", "rule", "kind");
            for i in 0..fw.optimizer.num_rules() {
                let rid = ruletest::common::RuleId(i as u16);
                let rule = fw.optimizer.rule(rid);
                let kind = match rule.kind {
                    RuleKind::Exploration => "exploration",
                    RuleKind::Implementation => "implementation",
                };
                println!("{:<32} {:<15} {}", rule.name, kind, rule.precondition);
            }
            Ok(())
        }
        "pattern" => opts
            .positional
            .first()
            .ok_or_else(|| "usage: ruletest pattern <RULE>".to_string())
            .and_then(|name| rule_by_name(name))
            .map(|rid| print!("{}", fw.optimizer.rule_pattern(rid).to_xml())),
        "gen" => opts
            .positional
            .first()
            .ok_or_else(|| "usage: ruletest gen <RULE>".to_string())
            .and_then(|name| rule_by_name(name))
            .and_then(|rid| {
                fw.find_query_for_rule(rid, strategy, &gen_cfg)
                    .map_err(|e| e.to_string())
            })
            .map(|out| {
                println!(
                    "-- found in {} trials ({} operators, {:.1}ms)",
                    out.trials,
                    out.ops,
                    out.elapsed.as_secs_f64() * 1e3
                );
                println!("{}", out.sql);
            }),
        "pair" => {
            if opts.positional.len() < 2 {
                Err("usage: ruletest pair <RULE_A> <RULE_B>".to_string())
            } else {
                rule_by_name(&opts.positional[0])
                    .and_then(|a| rule_by_name(&opts.positional[1]).map(|b| (a, b)))
                    .and_then(|pair| {
                        fw.find_query_for_pair(pair, strategy, &gen_cfg)
                            .map_err(|e| e.to_string())
                    })
                    .map(|out| {
                        println!("-- found in {} trials ({} operators)", out.trials, out.ops);
                        println!("{}", out.sql);
                    })
            }
        }
        "relevant" => opts
            .positional
            .first()
            .ok_or_else(|| "usage: ruletest relevant <RULE>".to_string())
            .and_then(|name| rule_by_name(name))
            .and_then(|rid| {
                find_relevant_query(&fw, rid, strategy, &gen_cfg).map_err(|e| e.to_string())
            })
            .map(|(out, discarded)| {
                println!(
                    "-- relevant query found ({} trials, {} exercising-but-irrelevant discarded)",
                    out.trials, discarded
                );
                println!("{}", out.sql);
            }),
        "dependency" => {
            if opts.positional.len() < 2 {
                Err("usage: ruletest dependency <RULE_A> <RULE_B>".to_string())
            } else {
                rule_by_name(&opts.positional[0])
                    .and_then(|a| rule_by_name(&opts.positional[1]).map(|b| (a, b)))
                    .and_then(|(a, b)| {
                        find_dependency_query(&fw, a, b, strategy, &gen_cfg)
                            .map_err(|e| e.to_string())
                    })
                    .map(|(out, discarded)| {
                        println!(
                            "-- dependency witness found ({} trials, {} co-occurring-only discarded)",
                            out.trials, discarded
                        );
                        println!("{}", out.sql);
                    })
            }
        }
        "sql" => opts
            .positional
            .first()
            .ok_or_else(|| "usage: ruletest sql \"SELECT ...\"".to_string())
            .and_then(|text| run_sql(&fw, text)),
        "audit" => run_audit(&fw, &opts),
        "impact" => run_impact(&fw, &opts),
        _ => {
            eprintln!(
                "usage: ruletest <rules|pattern|gen|pair|relevant|sql|audit|impact|report|diff|triage|lint|prove|mutate> [options]\n\
                 see the module docs (`ruletest --help` equivalent) in src/bin/ruletest.rs"
            );
            Ok(())
        }
    };
    // Telemetry outputs are written even when the command failed — a
    // failing campaign's metrics are exactly what one wants to look at.
    let result = result.and(write_telemetry_outputs(&fw, &opts, started));
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The `--chaos-plan` / `--chaos-seed` fault injector, logging the
/// effective plan in replayable spec syntax. `--chaos-plan` (explicit
/// schedule) wins over `--chaos-seed` (derived schedule).
fn chaos_from(opts: &Opts) -> Result<Chaos, String> {
    let plan = match (&opts.chaos_plan, opts.chaos_seed) {
        (Some(spec), _) => ChaosPlan::parse(spec).map_err(|e| e.to_string())?,
        (None, Some(seed)) => ChaosPlan::seeded(seed),
        (None, None) => return Ok(Chaos::default()),
    };
    eprintln!("chaos: installed plan {}", plan.to_spec());
    Ok(Chaos::new(plan))
}

/// Writes the `--metrics-json` run report and the `--trace-out` JSONL
/// trace, when requested.
fn write_telemetry_outputs(fw: &Framework, opts: &Opts, started: Instant) -> Result<(), String> {
    if let Some(path) = &opts.metrics_json {
        let mut report = fw.run_report();
        report.wall_seconds = started.elapsed().as_secs_f64();
        std::fs::write(path, to_pretty(&report)).map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("wrote run report to {path}");
    }
    if let Some(path) = &opts.trace_out {
        let file = std::fs::File::create(path).map_err(|e| format!("creating {path}: {e}"))?;
        let mut out = std::io::BufWriter::new(file);
        fw.telemetry
            .export_trace(&mut out)
            .map_err(|e| format!("writing {path}: {e}"))?;
        let stats = fw.telemetry.trace_stats();
        eprintln!(
            "wrote {} trace events to {path} ({} dropped by the ring buffer)",
            stats.recorded.saturating_sub(stats.dropped),
            stats.dropped
        );
    }
    if let Some(path) = &opts.profile_folded {
        let section = fw.telemetry.profile_section(&fw.rule_names());
        std::fs::write(path, section.folded()).map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("wrote {} folded stack(s) to {path}", section.spans.len());
    }
    Ok(())
}

/// `ruletest report <run-report.json> [--check] [--profile-folded OUT]`.
fn run_report_cmd(opts: &Opts) -> Result<(), String> {
    let path = opts.positional.first().ok_or_else(|| {
        "usage: ruletest report <run-report.json> [--check] [--profile-folded OUT]".to_string()
    })?;
    let report = load_run_report(path)?;
    print!("{}", report.summary());
    if let Some(out) = &opts.profile_folded {
        std::fs::write(out, report.profile.folded()).map_err(|e| format!("writing {out}: {e}"))?;
        println!(
            "wrote {} folded stack(s) to {out}",
            report.profile.spans.len()
        );
    }
    if opts.check {
        report.check().map_err(|e| format!("check failed: {e}"))?;
        println!("check: ok");
    }
    Ok(())
}

/// Loads a `RunReport` from a JSON file — either a bare report (the
/// `--metrics-json` output) or a document embedding one under a
/// `run_report` key (the campaign bench's `BENCH_campaign.json`).
fn load_run_report(path: &str) -> Result<RunReport, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let report = doc.get("run_report").unwrap_or(&doc);
    RunReport::decode(report).map_err(|e| format!("{path}: {e}"))
}

/// `ruletest diff <BASE.json> <CUR.json> [--threshold-pct N] [--json OUT]`.
/// Returns `Ok(true)` when the comparison regressed (nonzero exit).
fn run_diff_cmd(opts: &Opts) -> Result<bool, String> {
    let usage = "usage: ruletest diff <BASE.json> <CUR.json> [--threshold-pct N] [--json OUT]";
    let base_path = opts.positional.first().ok_or_else(|| usage.to_string())?;
    let cur_path = opts.positional.get(1).ok_or_else(|| usage.to_string())?;
    let base = load_run_report(base_path)?;
    let cur = load_run_report(cur_path)?;
    let threshold = opts.threshold_pct.unwrap_or(10);
    let diff = diff_reports(&base, &cur, threshold);
    print!("{}", diff.render_text());
    if let Some(out) = &opts.json {
        std::fs::write(out, to_pretty(&diff)).map_err(|e| format!("writing {out}: {e}"))?;
        println!("diff: report written to {out}");
    }
    Ok(diff.regressed())
}

fn run_sql(fw: &Framework, text: &str) -> Result<(), String> {
    let tree = parse_sql(&fw.db.catalog, text).map_err(|e| e.to_string())?;
    let res = fw.optimizer.optimize(&tree).map_err(|e| e.to_string())?;
    println!("-- plan (cost {:.1}) --\n{}", res.cost, res.plan.explain());
    let fired: Vec<&str> = res
        .rule_set
        .iter()
        .map(|r| fw.optimizer.rule(*r).name)
        .collect();
    println!("-- rules exercised: {}", fired.join(", "));
    let exec = fw.exec_config(&ExecConfig::default());
    let rows = execute_with(&fw.db, &res.plan, &exec).map_err(|e| e.to_string())?;
    println!("-- {} rows --", rows.len());
    for row in rows.iter().take(20) {
        let cells: Vec<String> = row.iter().map(|v| v.to_string()).collect();
        println!("({})", cells.join(", "));
    }
    if rows.len() > 20 {
        println!("... {} more", rows.len() - 20);
    }
    Ok(())
}

fn run_impact(fw: &Framework, opts: &Opts) -> Result<(), String> {
    use ruletest::core::generate::random::random_tree;
    let mut rng = ruletest::common::Rng::new(opts.seed);
    let workload: Vec<_> = (0..20)
        .map(|_| {
            let mut ids = ruletest::logical::IdGen::new();
            random_tree(&fw.db, &mut rng, &mut ids, 7).tree
        })
        .collect();
    let report = ruletest::core::rule_impact(fw, &workload).map_err(|e| e.to_string())?;
    println!(
        "{:<32} {:>9} {:>8} {:>10}",
        "rule", "exercised", "relevant", "inflation"
    );
    for r in report.iter().take(opts.rules.max(10)) {
        println!(
            "{:<32} {:>9} {:>8} {:>9.2}x",
            r.rule_name,
            r.exercised,
            r.relevant,
            r.inflation()
        );
    }
    Ok(())
}

fn run_audit(fw: &Framework, opts: &Opts) -> Result<(), String> {
    use ruletest::core::{crash_bundles, quarantine_summary, Quarantine};
    let supervised = !opts.no_supervise;
    println!(
        "auditing {} rules with k={} queries each{}...",
        opts.rules,
        opts.k,
        if supervised { " (supervised)" } else { "" }
    );
    // The audit pipeline's generation parameters: `pad_ops: 2` pads each
    // pattern query a little so plans are non-trivial. They feed the
    // checkpoint identity, so an audit with different parameters never
    // inherits this one's quarantine.
    let params = CampaignParams {
        rules: opts.rules,
        k: opts.k,
        seed: opts.seed,
        pad_ops: 2,
        max_trials: GenConfig::default().max_trials,
    };
    let cache_dir = opts.cache_dir.as_deref().map(Path::new);
    if let Some(dir) = cache_dir {
        println!(
            "cache-dir: {}{}",
            dir.display(),
            if opts.resume { " (resume)" } else { "" }
        );
    }
    // One pipeline, two failure policies: absorb into the quarantine, or
    // (`--no-supervise`) propagate the first failure.
    let mut quarantine = Quarantine::new();
    let run = run_checkpointed_campaign(
        fw,
        &params,
        cache_dir,
        opts.resume,
        supervised.then_some(&mut quarantine),
    )
    .map_err(|e| e.to_string())?;
    let (suite, graph) = (&run.suite, &run.graph);
    let inst = Instance::from_graph(graph);
    println!(
        "suite: {} queries, {} edges ({} optimizer calls)",
        suite.queries.len(),
        graph.edges.len(),
        graph.optimizer_calls
    );
    let b = baseline(&inst).map_err(|e| e.to_string())?;
    let s = smc(&inst).map_err(|e| e.to_string())?;
    let t = topk(&inst).map_err(|e| e.to_string())?;
    println!("compression (estimated execution cost):");
    println!("  BASELINE {:>12.1}", b.total_cost(&inst));
    println!("  SMC      {:>12.1}", s.total_cost(&inst));
    println!("  TOPK     {:>12.1}", t.total_cost(&inst));
    // `--deadline-ms` arms a cooperative per-execution deadline in the
    // executor's batch loops (re-armed per run, so it is not a fuse from
    // process start).
    let exec_cfg = ExecConfig {
        deadline: ruletest::common::Deadline::after_ms(opts.deadline_ms),
        ..ExecConfig::default()
    };
    let policy = supervised.then_some(&mut quarantine);
    let report =
        execute_solution_with(fw, suite, &t, &exec_cfg, policy).map_err(|e| e.to_string())?;
    // Persist the final quarantine (now including execution-stage
    // entries) so a later --resume skips every poisoned input.
    if let Some(store) = &run.store {
        if supervised {
            store
                .save_quarantine(&quarantine)
                .map_err(|e| format!("saving quarantine: {e}"))?;
        }
    }
    // Final cache save: later runs with the same cache-dir warm-start
    // from everything this campaign computed.
    let persisted = final_persist(fw).map_err(|e| e.to_string())?;
    if cache_dir.is_some() {
        println!("cache: {persisted} invocation entries persisted");
    }
    println!(
        "executed TOPK suite: {} validations, {} executions, {} skipped-identical, {} skipped-unsupported, {} skipped-quarantined, {} bugs",
        report.validations,
        report.executions,
        report.skipped_identical,
        report.skipped_unsupported,
        report.skipped_quarantined,
        report.bugs.len()
    );
    if supervised && !quarantine.is_empty() {
        println!("{}", quarantine_summary(&quarantine));
        // Minimize crash witnesses into repro bundles: --out wins, a
        // cache-dir gets them as a campaign artifact, otherwise the
        // quarantine summary above is the record.
        let triage_cfg = TriageConfig {
            exec: exec_cfg.clone(),
            ..TriageConfig::default()
        };
        let bundles = crash_bundles(fw, params.seed, &quarantine, &triage_cfg);
        let bundle_path = opts
            .out
            .clone()
            .or_else(|| cache_dir.map(|d| d.join("crash_bundles.jsonl").display().to_string()));
        if let (Some(path), false) = (bundle_path, bundles.is_empty()) {
            let file = std::fs::File::create(&path).map_err(|e| format!("creating {path}: {e}"))?;
            let mut w = std::io::BufWriter::new(file);
            write_bundles(&mut w, &bundles).map_err(|e| format!("writing {path}: {e}"))?;
            println!("wrote {} crash repro bundle(s) to {path}", bundles.len());
        }
    }
    let chaos = fw.optimizer.chaos();
    if chaos.plan().is_some() {
        let s = chaos.stats();
        fw.telemetry
            .add(ruletest::telemetry::Counter::ChaosInjected, s.total());
        println!(
            "chaos: {} fault(s) injected ({} panics, {} stalls, {} budgets), {} quarantined",
            s.total(),
            s.panics,
            s.stalls,
            s.budgets,
            quarantine.len()
        );
    }
    for bug in &report.bugs {
        println!(
            "BUG in {}: {}\n  seed={} scale={} rule_mask=[{}]\n  {}",
            bug.target_label,
            bug.diff_summary,
            bug.seed,
            bug.scale,
            bug.rule_mask.join("+"),
            bug.sql
        );
    }
    if report.passed() {
        println!("all rules validated clean.");
        Ok(())
    } else {
        Err(format!("{} correctness bugs found", report.bugs.len()))
    }
}

/// Runs the static rule audit (`ruletest lint`): pattern-instantiated
/// corpora, sandboxed substitute checks, and the pattern-necessity
/// cross-check — no query is ever executed. Without `--fault` the command
/// fails when the catalog has violations; with `--fault F` the named
/// fault is injected and the command fails unless the audit catches it.
fn run_lint(opts: &Opts) -> Result<(), String> {
    let fault = match &opts.fault {
        Some(id) => Some(Mutant::by_id(id).map_err(|e| e.to_string())?),
        None => None,
    };
    // Data scale is irrelevant to a static audit; only the catalog is read.
    let db = Arc::new(tpch_database(&TpchConfig::default()).map_err(|e| e.to_string())?);
    let optimizer = match fault {
        Some(m) => mutant_optimizer(db, m),
        None => Optimizer::new(db),
    };
    let started = Instant::now();
    let report = ruletest::lint::lint_rules(&optimizer).map_err(|e| e.to_string())?;
    print!("{}", report.render_text());
    println!("lint: finished in {:?}", started.elapsed());
    if let Some(path) = &opts.json {
        std::fs::write(path, to_pretty(&report)).map_err(|e| format!("writing {path}: {e}"))?;
        println!("lint: report written to {path}");
    }
    // --prove: also run the symbolic prover, over its own rowless
    // symbolic database (the concrete lint corpus needs the TPC-H
    // catalog; proofs do not). The same fault is re-injected so both
    // layers see the same catalog.
    let prove_failures = if opts.prove {
        use ruletest::lint::prove;
        let sdb = Arc::new(prove::symbolic_database());
        let sopt = match fault {
            Some(m) => mutant_optimizer(sdb, m),
            None => Optimizer::new(sdb),
        };
        let preport =
            prove::prove_rules(&sopt, &Telemetry::disabled()).map_err(|e| e.to_string())?;
        print!("{}", preport.render_text());
        preport.inequivalent
    } else {
        0
    };
    match fault {
        Some(f) => {
            let caught =
                report.flagged_rules().iter().any(|r| r == f.rule_name) || prove_failures > 0;
            if caught {
                println!("lint: fault {} caught statically", f.id);
                Ok(())
            } else {
                Err(format!("fault {} NOT caught by the static audit", f.id))
            }
        }
        None if report.is_clean() && prove_failures == 0 => Ok(()),
        None if !report.is_clean() => Err(format!(
            "{} lint violation(s) in the rule catalog",
            report.violations.len()
        )),
        None => Err(format!(
            "{prove_failures} rule(s) proved inequivalent by the symbolic prover"
        )),
    }
}

/// Runs the symbolic equivalence prover (`ruletest prove`): every
/// exploration rule's pattern is instantiated over symbolic relations,
/// its action applied, and both sides compared algebraically — no rows,
/// no execution. Without `--fault` the command fails when any rule is
/// proved inequivalent; with `--fault MUTANT` the named mutant is
/// injected and the command fails unless its rule is proved
/// inequivalent statically.
fn run_prove(opts: &Opts) -> Result<(), String> {
    use ruletest::lint::prove::{self, ProveVerdict};
    let telemetry = if opts.metrics_json.is_some() || opts.profile_folded.is_some() {
        Telemetry::metrics_only()
    } else {
        Telemetry::disabled()
    };
    let mutant = match &opts.fault {
        Some(id) => Some(Mutant::by_id(id).map_err(|e| e.to_string())?),
        None => None,
    };
    // Proofs run over the rowless symbolic database, never TPC-H.
    let db = Arc::new(prove::symbolic_database());
    let optimizer = match mutant {
        Some(m) => mutant_optimizer(db, m),
        None => Optimizer::new(db),
    };
    let started = Instant::now();
    let report = match (mutant, &opts.rule) {
        (Some(m), _) => prove::prove_rules_focused(&optimizer, m.rule_name, &telemetry),
        (None, Some(rule)) => prove::prove_rules_focused(&optimizer, rule, &telemetry),
        (None, None) => prove::prove_rules(&optimizer, &telemetry),
    }
    .map_err(|e| e.to_string())?;
    print!("{}", report.render_text());
    println!("prove: finished in {:?}", started.elapsed());
    if let Some(path) = &opts.json {
        std::fs::write(path, to_pretty(&report)).map_err(|e| format!("writing {path}: {e}"))?;
        println!("prove: report written to {path}");
    }
    let rule_names: Vec<String> = (0..optimizer.num_rules())
        .map(|i| {
            optimizer
                .rule(ruletest::common::RuleId(i as u16))
                .name
                .to_string()
        })
        .collect();
    if let Some(path) = &opts.metrics_json {
        let mut run = telemetry.run_report(&rule_names);
        run.wall_seconds = started.elapsed().as_secs_f64();
        std::fs::write(path, to_pretty(&run)).map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("wrote run report to {path}");
    }
    if let Some(path) = &opts.profile_folded {
        let section = telemetry.profile_section(&rule_names);
        std::fs::write(path, section.folded()).map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("wrote {} folded stack(s) to {path}", section.spans.len());
    }
    match mutant {
        Some(m) => match report.verdict_of(m.rule_name) {
            Some(ProveVerdict::Inequivalent) => {
                println!("prove: mutant {} proved inequivalent statically", m.id);
                Ok(())
            }
            verdict => Err(format!(
                "mutant {} NOT proved inequivalent (verdict: {})",
                m.id,
                verdict.map_or("absent", |v| v.name())
            )),
        },
        None if report.has_inequivalent() => Err(format!(
            "{} rule(s) proved inequivalent",
            report.inequivalent
        )),
        None => Ok(()),
    }
}

/// `ruletest triage [--fault F] [--out P] [--scale N]` — runs a campaign
/// (over a fault-injected optimizer when `--fault` is given), then
/// minimizes, deduplicates, and bundles every finding.
///
/// Unlike `audit`, finding bugs here is *success*: the command's job is
/// producing repro bundles, and it fails only when a requested fault
/// injection yields nothing to triage.
/// Runs the rule-mutation campaign (`ruletest mutate`): derives buggy
/// variants of real catalog rules, runs the static linter *and* the §2.3
/// generation → differential-execution pipeline against each, and fails
/// unless every mutant meets its expected verdict — expected-detectable
/// mutants must be killed, benign (cost-only) mutants must *not* be
/// reported as bugs.
fn run_mutate(opts: &Opts) -> Result<(), String> {
    use ruletest::core::mutate::{BugClass, Mutant, MutationConfig};
    if opts.list {
        println!("{:<38} {:<24} {:<28} expected", "mutant", "class", "rule");
        for m in Mutant::all() {
            println!(
                "{:<38} {:<24} {:<28} {}",
                m.id,
                m.class.name(),
                m.rule_name,
                m.expected.name()
            );
        }
        return Ok(());
    }
    let class = match &opts.class {
        Some(name) => Some(BugClass::parse(name).map_err(|e| e.to_string())?),
        None => None,
    };
    let telemetry = if opts.metrics_json.is_some() || opts.profile_folded.is_some() {
        Telemetry::metrics_only()
    } else {
        Telemetry::disabled()
    };
    // Data scale: the differential oracle wants the default corpus the
    // detection budgets were tuned against.
    let db = Arc::new(tpch_database(&TpchConfig::default()).map_err(|e| e.to_string())?);
    let cfg = MutationConfig {
        class,
        sample: opts.sample,
        threads: opts.threads,
        ..Default::default()
    };
    let started = Instant::now();
    let report = ruletest::core::mutate::run_mutation_campaign(&db, &cfg, &telemetry)
        .map_err(|e| e.to_string())?;
    print!("{}", report.render_text());
    println!("mutate: finished in {:?}", started.elapsed());
    if let Some(path) = &opts.json {
        std::fs::write(path, to_pretty(&report)).map_err(|e| format!("writing {path}: {e}"))?;
        println!("mutate: report written to {path}");
    }
    if let Some(path) = &opts.metrics_json {
        let mut run = telemetry.run_report(&[]);
        run.wall_seconds = started.elapsed().as_secs_f64();
        std::fs::write(path, to_pretty(&run)).map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("wrote run report to {path}");
    }
    if let Some(path) = &opts.profile_folded {
        let section = telemetry.profile_section(&[]);
        std::fs::write(path, section.folded()).map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("wrote {} folded stack(s) to {path}", section.spans.len());
    }
    if report.failed() {
        Err(format!(
            "{} mutants violated their expected verdict",
            report.failures().len()
        ))
    } else {
        Ok(())
    }
}

fn run_triage(opts: &Opts) -> Result<(), String> {
    if opts.positional.first().map(String::as_str) == Some("replay") {
        return run_triage_replay(opts);
    }
    let started = Instant::now();
    let mut parallelism = ruletest::common::Parallelism::default();
    if opts.threads > 0 {
        parallelism.threads = opts.threads;
    }
    parallelism.seed = opts.seed;
    let telemetry = if opts.trace_out.is_some() {
        Telemetry::enabled()
    } else if opts.metrics_json.is_some() || opts.profile_folded.is_some() {
        Telemetry::metrics_only()
    } else {
        Telemetry::disabled()
    };
    let fault = match &opts.fault {
        Some(id) => Some(Mutant::by_id(id).map_err(|e| e.to_string())?),
        None => None,
    };
    let scale = opts.scale.max(1);
    let db_cfg = TpchConfig::scaled(TpchConfig::default().seed, scale);
    let db = Arc::new(tpch_database(&db_cfg).map_err(|e| e.to_string())?);
    let optimizer = Arc::new(match fault {
        Some(m) => mutant_optimizer(db.clone(), m),
        None => Optimizer::new(db.clone()),
    });
    let fw = Framework::with_optimizer(optimizer)
        .with_db_profile(DbProfile {
            db_seed: db_cfg.seed,
            scale,
        })
        .with_parallelism(parallelism)
        .with_telemetry(telemetry);
    // Fault mode targets the one replaced rule; clean mode audits broadly.
    let (targets, pad) = match fault {
        Some(f) => {
            let rid = fw
                .optimizer
                .rule_id(f.rule_name)
                .ok_or_else(|| format!("fault rule '{}' not in catalog", f.rule_name))?;
            (vec![RuleTarget::Single(rid)], opts.pad.max(1))
        }
        None => (singleton_targets(&fw, opts.rules), opts.pad.max(2)),
    };
    // Detection is seed-sensitive; fall back through a fixed seed ladder
    // until the campaign surfaces a finding (fault mode only — a clean
    // optimizer legitimately finds nothing).
    let mut seeds = vec![opts.seed];
    if fault.is_some() {
        seeds.extend(
            [3u64, 11, 19, 27, 40, 55, 63, 71]
                .iter()
                .filter(|s| **s != opts.seed),
        );
    }
    let mut found = None;
    for seed in seeds {
        let gen_cfg = GenConfig {
            seed,
            pad_ops: pad,
            max_trials: opts.trials,
            ..Default::default()
        };
        let Ok(suite) = generate_suite(&fw, targets.clone(), opts.k, Strategy::Pattern, &gen_cfg)
        else {
            continue;
        };
        let graph = build_graph(&fw, &suite).map_err(|e| e.to_string())?;
        let inst = Instance::from_graph(&graph);
        let sol = topk(&inst).map_err(|e| e.to_string())?;
        let report = execute_solution(&fw, &suite, &inst, &sol, &ExecConfig::default())
            .map_err(|e| e.to_string())?;
        let done = !report.bugs.is_empty() || fault.is_none();
        if done {
            found = Some((seed, suite, report));
            break;
        }
    }
    let Some((seed, suite, report)) = found else {
        return Err("fault injection produced no detectable bug on any seed".to_string());
    };
    println!(
        "campaign (seed {seed}): {} validations, {} raw findings",
        report.validations,
        report.bugs.len()
    );
    let cfg = TriageConfig {
        fault,
        ..TriageConfig::default()
    };
    let triaged = triage_report(&fw, &suite, &report, &cfg).map_err(|e| e.to_string())?;
    println!(
        "triage: {} raw -> {} deduplicated signature(s), {} duplicate(s) collapsed, {} shrink steps",
        triaged.raw_bugs,
        triaged.bugs.len(),
        triaged.duplicates_collapsed,
        triaged.steps_total
    );
    for bug in &triaged.bugs {
        println!(
            "SIGNATURE {}\n  seed={} scale={} rule_mask=[{}] ops={} duplicates={}{}\n  {}\n  {}",
            bug.signature.key(),
            bug.report.seed,
            bug.scale,
            bug.report.rule_mask.join("+"),
            bug.ops,
            bug.duplicates,
            if bug.certified { " (1-minimal)" } else { "" },
            bug.minimized_sql,
            bug.diff_summary
        );
        if bug.raw_signature != bug.signature {
            println!("  raw signature was: {}", bug.raw_signature.key());
        }
    }
    if let Some(path) = &opts.out {
        let bundles = to_bundles(&fw, &triaged, &cfg).map_err(|e| e.to_string())?;
        let file = std::fs::File::create(path).map_err(|e| format!("creating {path}: {e}"))?;
        let mut w = std::io::BufWriter::new(file);
        write_bundles(&mut w, &bundles).map_err(|e| format!("writing {path}: {e}"))?;
        println!("wrote {} repro bundle(s) to {path}", bundles.len());
    }
    let stats = fw.optimizer.cache_stats();
    println!(
        "optimizer invocation cache: {} hits / {} lookups",
        stats.hits,
        stats.hits + stats.misses
    );
    write_telemetry_outputs(&fw, opts, started)?;
    if fault.is_some() && triaged.bugs.is_empty() {
        return Err("fault injection produced no triaged bug".to_string());
    }
    Ok(())
}

/// `ruletest triage replay <bugs.jsonl> [--check]` — re-executes every
/// bundle from scratch in this (fresh) process.
fn run_triage_replay(opts: &Opts) -> Result<(), String> {
    let path = opts
        .positional
        .get(1)
        .ok_or_else(|| "usage: ruletest triage replay <bugs.jsonl> [--check]".to_string())?;
    let file = std::fs::File::open(path).map_err(|e| format!("opening {path}: {e}"))?;
    let bundles =
        read_bundles(std::io::BufReader::new(file)).map_err(|e| format!("{path}: {e}"))?;
    if bundles.is_empty() {
        return Err(format!("{path}: no bundles to replay"));
    }
    let mut unconfirmed = 0usize;
    for (i, bundle) in bundles.iter().enumerate() {
        let outcome = replay(bundle).map_err(|e| format!("bundle {}: {e}", i + 1))?;
        let status = if outcome.confirmed {
            "CONFIRMED"
        } else if outcome.diverged {
            "DIVERGED (diff mismatch)"
        } else {
            "NOT REPRODUCED"
        };
        println!(
            "bundle {}: {} [{}] {}",
            i + 1,
            bundle.signature,
            status,
            bundle.sql
        );
        if !outcome.confirmed {
            unconfirmed += 1;
            println!("  recorded: {}", bundle.diff_summary);
            println!("  replayed: {}", outcome.diff_summary);
        }
    }
    println!(
        "replayed {} bundle(s): {} confirmed, {} unconfirmed",
        bundles.len(),
        bundles.len() - unconfirmed,
        unconfirmed
    );
    if opts.check && unconfirmed > 0 {
        return Err(format!("{unconfirmed} bundle(s) failed to confirm"));
    }
    Ok(())
}

//! `perfbench --smoke` against ../BENCHMARK.json: every workload runs
//! untraced and traced on shrunken shapes, prints exactly the metrics the
//! contract file lists, each finite and with the listed unit, passes its
//! own correctness checks, and computes the same results twice.

use ruletest_telemetry::Json;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

fn contract() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("reading BENCHMARK.json");
    Json::parse(&text).expect("BENCHMARK.json is JSON")
}

/// `name -> unit` of one of the contract's metric lists.
fn listed(contract: &Json, key: &str) -> BTreeMap<String, String> {
    contract
        .get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"))
        .iter()
        .map(|m| {
            let field = |f: &str| m.get(f).and_then(Json::as_str).expect(f).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

struct Run {
    result: Json,
    digest: String,
}

fn run(workload: &str, trace: bool, out_dir: &Path) -> Run {
    let output = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--smoke", "--seconds", "0", "--seed", "7"])
        .args(["--workload", workload])
        .args(["--trace", if trace { "1" } else { "0" }])
        .env("PERFBENCH_OUT_DIR", out_dir)
        .output()
        .expect("spawning perfbench");
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    assert!(
        output.status.success(),
        "{workload} trace={trace} exited {:?}\n{stdout}\n{}",
        output.status.code(),
        String::from_utf8_lossy(&output.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    let digest = stdout
        .lines()
        .find_map(|l| l.strip_prefix("result digest "))
        .expect("a digest line")
        .to_string();
    Run {
        result: Json::parse(last).unwrap_or_else(|e| panic!("last line is not JSON ({e}): {last}")),
        digest,
    }
}

fn check_result(run: &Run, expected: &BTreeMap<String, String>, what: &str) {
    let r = &run.result;
    let keys: Vec<&String> = r.as_obj().expect("an object").keys().collect();
    assert_eq!(
        keys,
        ["attempted", "correct", "failed", "metrics"],
        "{what}"
    );
    assert_eq!(
        r.get("correct").and_then(Json::as_bool),
        Some(true),
        "{what}"
    );
    assert!(
        r.get("attempted")
            .and_then(Json::as_u64)
            .expect("attempted")
            >= 1,
        "{what}"
    );
    assert_eq!(r.get("failed").and_then(Json::as_u64), Some(0), "{what}");
    let metrics = r.get("metrics").and_then(Json::as_obj).expect("metrics");
    let printed: Vec<&String> = metrics.keys().collect();
    let wanted: Vec<&String> = expected.keys().collect();
    assert_eq!(
        printed, wanted,
        "{what}: metric names differ from BENCHMARK.json"
    );
    for (name, metric) in metrics {
        let value = metric.get("value").and_then(Json::as_f64);
        assert!(
            value.is_some_and(f64::is_finite),
            "{what}: {name} = {value:?}"
        );
        assert_eq!(
            metric.get("unit").and_then(Json::as_str),
            Some(expected[name].as_str()),
            "{what}: unit of {name}"
        );
    }
}

#[test]
fn every_workload_prints_the_contracted_metrics_and_repeats_its_results() {
    let contract = contract();
    let end_to_end = listed(&contract, "end_to_end");
    let per_layer = listed(&contract, "per_layer");
    let workloads: Vec<String> = contract
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect();
    assert_eq!(workloads.len(), 5);
    let scratch: PathBuf = Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke");
    // Ten short processes; run them side by side.
    std::thread::scope(|scope| {
        for workload in &workloads {
            for trace in [false, true] {
                let (end_to_end, per_layer) = (&end_to_end, &per_layer);
                let out_dir = scratch.join(format!("{workload}.{}", trace as u8));
                scope.spawn(move || {
                    let what = format!("{workload} trace={}", trace as u8);
                    let first = run(workload, trace, &out_dir);
                    check_result(&first, if trace { per_layer } else { end_to_end }, &what);
                    if trace {
                        let spans = out_dir.join(format!("trace_{workload}.jsonl"));
                        let text = std::fs::read_to_string(&spans).expect("a trace file");
                        assert!(text.lines().count() >= 1, "{what}: empty trace");
                        for line in text.lines() {
                            Json::parse(line).expect("trace lines are JSON");
                        }
                    } else {
                        let again = run(workload, trace, &out_dir);
                        assert_eq!(first.digest, again.digest, "{what}: digest changed");
                    }
                });
            }
        }
    });
    let _ = std::fs::remove_dir_all(&scratch);
}

#[test]
fn an_unknown_workload_is_refused_without_a_result() {
    let output = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "no_such_workload",
            "--smoke",
            "--seconds",
            "0",
        ])
        .output()
        .expect("spawning perfbench");
    assert!(!output.status.success());
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(!stdout.contains("\"metrics\""), "{stdout}");
    assert!(String::from_utf8_lossy(&output.stderr).contains("no_such_workload"));
}

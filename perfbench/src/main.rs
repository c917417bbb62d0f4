//! The repo benchmark (see README.md in this directory and
//! ../BENCHMARK.json).
//!
//! ```text
//! perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//! ```
//!
//! One process measures one workload. `--trace 0` prints the end-to-end
//! metrics, taken with telemetry and the benchmark's spans off, the times
//! as seconds at the machine's nominal speed (`harness::SpeedGauge`);
//! `--trace 1` prints the per-layer metrics of a traced run. The last line
//! of standard output is the result as one JSON object; the exit code is
//! non-zero when a correctness check failed. Scratch files (the
//! `cache_warm` snapshot, the trace) go to `perfbench/out/`, or to
//! `$PERFBENCH_OUT_DIR` when that is set (the smoke test's runs share one
//! checkout).

mod harness;
mod metrics;
mod probes;
mod workloads;

use harness::{cpu_seconds, macro_loop, peak_rss_mb, summarize, SpanLog, SpeedGauge};
use metrics::{Metrics, END_TO_END, PER_LAYER};
use ruletest_common::{Error, Result};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workloads::{Env, Outcome, Workload};

struct Args {
    workload: String,
    seconds: f64,
    trace: bool,
    env: Env,
}

const USAGE: &str =
    "usage: perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--smoke]";

fn parse_args(mut args: impl Iterator<Item = String>) -> std::result::Result<Args, String> {
    let mut workload = None;
    let mut seed = 0xF1_60_5Eu64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut smoke = false;
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                let v = value()?;
                seed = v
                    .parse()
                    .map_err(|_| format!("--seed: cannot parse '{v}'"))?;
            }
            "--seconds" => {
                let v = value()?;
                seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or(format!("--seconds: cannot parse '{v}'"))?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace: expected 0 or 1, got '{v}'")),
                }
            }
            "--smoke" => smoke = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !workloads::NAMES.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload '{workload}' (known: {})",
            workloads::NAMES.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seconds,
        trace,
        env: Env {
            seed,
            smoke,
            out_dir: std::env::var_os("PERFBENCH_OUT_DIR")
                .map_or_else(|| PathBuf::from("perfbench/out"), PathBuf::from),
            spans: SpanLog::default(),
        },
    })
}

/// What a run reports: the contract's `correct`, `attempted`, `failed`
/// and `metrics`.
struct RunResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Metrics,
}

/// Folds runs of one workload into operation counts and checks each
/// against the first run's digest.
struct Tally {
    reference_digest: u64,
    attempted: u64,
    failed: u64,
    correct: bool,
}

impl Tally {
    fn new(reference: &Outcome) -> Tally {
        let mut tally = Tally {
            reference_digest: reference.digest,
            attempted: 0,
            failed: 0,
            correct: true,
        };
        tally.check(reference, "warm-up");
        tally
    }

    /// Checks `outcome`'s invariants and digest without counting its
    /// operations.
    fn check(&mut self, outcome: &Outcome, what: &str) -> bool {
        let mut ok = true;
        if let Some(violation) = &outcome.violation {
            println!("CHECK FAILED ({what}): {violation}");
            ok = false;
        }
        if outcome.digest != self.reference_digest {
            println!(
                "CHECK FAILED ({what}): result digest {:016x} differs from the first run's {:016x}",
                outcome.digest, self.reference_digest
            );
            ok = false;
        }
        self.correct &= ok;
        ok
    }

    /// Counts `outcome`'s operations; a run whose results cannot be
    /// trusted fails all of them.
    fn count(&mut self, outcome: &Outcome, what: &str) {
        self.attempted += outcome.attempted;
        self.failed += if self.check(outcome, what) {
            outcome.failed
        } else {
            outcome.attempted
        };
    }
}

/// The benchmark driver gates `setup_s` and asks for the median of several
/// set-ups in a run. A cheap set-up is repeated while one more repetition
/// still fits into this many seconds since the process began (a set-up of
/// seconds is as steady as a timed iteration; `mutant_sweep`'s 0.8 s spread
/// by 24 % over ten runs when made once).
const SETUP_REPEAT_BUDGET_S: f64 = 3.0;
const SETUP_MAX_REPEATS: usize = 5;

/// The speed gauge runs for this many seconds before and after each
/// set-up, and after each timed iteration for this share of the
/// iteration's time, at most this many seconds.
const GAUGE_SETUP_S: f64 = 0.1;
const GAUGE_SHARE: f64 = 0.05;
const GAUGE_MAX_S: f64 = 0.25;

/// Set-up: the workload's inputs and program state, then one untimed
/// warm-up run. Returns the median seconds of one set-up, divided by the
/// machine's slowdown while it ran (see [`SpeedGauge`]).
fn set_up(args: &Args, gauge: &mut SpeedGauge) -> Result<(Box<dyn Workload>, Outcome, f64)> {
    let env = &args.env;
    let mut seconds = Vec::new();
    gauge.sample_for(GAUGE_SETUP_S);
    loop {
        let from = gauge.now();
        let workload = workloads::prepare(&args.workload, env)?;
        let prepared_s = gauge.now() - from;
        let warm_up = workload.run(env, 1, false)?;
        let to = gauge.now();
        gauge.sample_for(GAUGE_SETUP_S);
        let slowdown = gauge.slowdown(from, to);
        seconds.push((to - from) / slowdown);
        println!(
            "set-up {:.3} s (inputs and state {prepared_s:.3} s, warm-up run {:.3} s), \
             machine slowdown {slowdown:.3}",
            to - from,
            warm_up.wall_s
        );
        let after_one_more = gauge.now() + (to - from);
        if env.smoke
            || after_one_more >= SETUP_REPEAT_BUDGET_S
            || seconds.len() >= SETUP_MAX_REPEATS
        {
            return Ok((workload, warm_up, summarize(&seconds).median));
        }
        // The next repetition must find no state of this one (`cache_warm`
        // removes its snapshot directory when dropped).
        drop(workload);
    }
}

fn min_iterations(env: &Env) -> usize {
    if env.smoke {
        1
    } else {
        5
    }
}

/// One timed iteration of the untraced run.
struct Timed {
    /// The measured region on the gauge's clock.
    from: f64,
    to: f64,
    wall_s: f64,
    cpu_s: f64,
}

/// Telemetry off, spans off, one thread: the end-to-end metrics. The time
/// metrics are seconds at the machine's nominal speed: each set-up and
/// iteration is divided by the slowdown the gauge measured around it.
fn untraced(args: &Args, started: Instant) -> Result<RunResult> {
    let env = &args.env;
    let mut gauge = SpeedGauge::new(started);
    let (workload, warm_up, setup_s) = set_up(args, &mut gauge)?;
    let mut tally = Tally::new(&warm_up);
    let iterations = macro_loop(
        min_iterations(env),
        Duration::from_secs_f64(args.seconds),
        |i| {
            let cpu_before = cpu_seconds().map_err(proc_err)?;
            let from = gauge.now();
            let outcome = workload.run(env, 1, false)?;
            let to = gauge.now();
            let cpu_s = cpu_seconds().map_err(proc_err)? - cpu_before;
            gauge.sample_for((outcome.wall_s * GAUGE_SHARE).min(GAUGE_MAX_S));
            tally.count(&outcome, &format!("iteration {i}"));
            Ok::<_, Error>(Timed {
                from,
                to,
                wall_s: outcome.wall_s,
                cpu_s,
            })
        },
    )?;
    let n = iterations.len() as f64;
    let slowdowns: Vec<f64> = iterations
        .iter()
        .map(|it| gauge.slowdown(it.from, it.to))
        .collect();
    let measured = |value: fn(&Timed) -> f64| iterations.iter().map(value).collect::<Vec<f64>>();
    let at_nominal = |values: &[f64]| -> Vec<f64> {
        values.iter().zip(&slowdowns).map(|(v, s)| v / s).collect()
    };
    let (raw_wall, raw_cpu) = (measured(|it| it.wall_s), measured(|it| it.cpu_s));
    let raw = summarize(&raw_wall);
    let slow = summarize(&slowdowns);
    println!(
        "measured: iteration wall s median {:.4} (n={}, min {:.4}, q1 {:.4}, q3 {:.4}), \
         cpu s mean {:.4}; machine slowdown median {:.3} (min {:.3}, q3 {:.3})",
        raw.median,
        raw.n,
        raw.min,
        raw.q1,
        raw.q3,
        raw_cpu.iter().sum::<f64>() / n,
        slow.median,
        slow.min,
        slow.q3,
    );
    let mut nominal_wall = at_nominal(&raw_wall);
    let wall = summarize(&nominal_wall);
    let cpu_s = at_nominal(&raw_cpu).iter().sum::<f64>() / n;
    println!(
        "at nominal speed: campaign_wall_s median {:.4} (min {:.4}, q1 {:.4}, q3 {:.4}), \
         campaign_cpu_s {cpu_s:.4}",
        wall.median, wall.min, wall.q1, wall.q3
    );
    if wall.n >= 20 {
        nominal_wall.sort_by(f64::total_cmp);
        println!(
            "at nominal speed: campaign_wall_s p80 {:.4} (information only)",
            harness::quantile(&nominal_wall, 0.8)
        );
    }
    println!("result digest {:016x}", tally.reference_digest);
    let mut metrics = Metrics::new(&END_TO_END);
    metrics.set("setup_s", setup_s)?;
    metrics.set("campaign_wall_s", wall.median)?;
    metrics.set("campaign_cpu_s", cpu_s)?;
    metrics.set("peak_rss_mb", peak_rss_mb().map_err(proc_err)?)?;
    Ok(RunResult {
        correct: tally.correct,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
    })
}

fn proc_err(e: std::io::Error) -> Error {
    Error::unsupported(format!("reading /proc/self: {e}"))
}

/// The traced run: untraced and traced runs alternate (so both see the
/// same machine state), then `singleton_cold` runs once on two threads,
/// then the layer probes. Counts come from the first traced run, so they do not depend
/// on how many runs fit into `--seconds`.
fn traced(args: &Args, started: Instant) -> Result<RunResult> {
    let env = &args.env;
    let (workload, warm_up, _) = set_up(args, &mut SpeedGauge::new(started))?;
    let mut tally = Tally::new(&warm_up);
    let budget = Duration::from_secs_f64(args.seconds);
    let pairs = min_iterations(env).min(2);
    let (mut plain_s, mut traced_s) = (Vec::new(), Vec::new());
    let mut first_traced: Option<Outcome> = None;
    let loop_start = Instant::now();
    while traced_s.len() < pairs || loop_start.elapsed() < budget {
        let i = traced_s.len() as u32;
        env.spans.start_iteration(false, i);
        let plain = workload.run(env, 1, false)?;
        tally.count(&plain, &format!("untraced iteration {i}"));
        plain_s.push(plain.wall_s);
        env.spans.start_iteration(true, i);
        let outcome = workload.run(env, 1, true)?;
        tally.count(&outcome, &format!("traced iteration {i}"));
        traced_s.push(outcome.wall_s);
        first_traced.get_or_insert(outcome);
    }
    env.spans.start_iteration(false, 0);
    let mut first = first_traced.expect("the loop ran at least once");
    let iterations = traced_s.len() as f64;
    let (plain, with_tel) = (summarize(&plain_s), summarize(&traced_s));

    // One workload is enough to say what the pool gives on this box; the
    // others report 0.
    let mut pool_speedup = 0.0;
    if args.workload == "singleton_cold" {
        let two_threads = workload.run(env, 2, false)?;
        tally.check(&two_threads, "two-thread run");
        pool_speedup = plain.median / two_threads.wall_s;
    }

    let mut m = Metrics::new(&PER_LAYER);
    m.set("bench.traced_iterations", iterations)?;
    m.set("bench.untraced_wall_s", plain.median)?;
    m.set("bench.traced_wall_s", with_tel.median)?;
    m.set(
        "telemetry.overhead_pct",
        (with_tel.median - plain.median) / plain.median * 100.0,
    )?;
    m.set("common.pool_speedup_2t", pool_speedup)?;
    let report = first
        .report
        .as_ref()
        .ok_or_else(|| Error::internal("traced run returned no telemetry report"))?;
    metrics::from_report(&mut m, report)?;
    metrics::from_spans(&mut m, &env.spans, iterations)?;
    let deferred = first.deferred_layers.take().map_or(Ok(vec![]), |f| f())?;
    let layers = first.layers.iter().copied().chain(deferred);
    metrics::merge(&mut m, layers.chain(probes::run_all(env)?))?;
    metrics::derive(&mut m, with_tel.median)?;

    // The independent oracles: a disagreement is a wrong result somewhere,
    // whatever the workload computed.
    for (oracle, count) in metrics::oracle_failures(&m) {
        println!("CHECK FAILED: {oracle} = {count}");
        tally.correct = false;
    }

    let trace_path = env.out_dir.join(format!("trace_{}.jsonl", args.workload));
    std::fs::create_dir_all(&env.out_dir)
        .and_then(|()| env.spans.write_jsonl(&trace_path))
        .map_err(|e| Error::unsupported(format!("writing {}: {e}", trace_path.display())))?;
    println!(
        "wrote {} spans to {}",
        env.spans.len(),
        trace_path.display()
    );
    for (name, total) in env.spans.totals() {
        println!(
            "span {name}: {} calls, {:.4} s per iteration, self {:.4} s",
            total.count,
            total.wall_ns as f64 / 1e9 / iterations,
            total.self_ns as f64 / 1e9 / iterations,
        );
    }
    println!("result digest {:016x}", tally.reference_digest);
    Ok(RunResult {
        correct: tally.correct,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics: m,
    })
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!(
        "workload {} seed {} trace {} ({} s, one client, closed loop)",
        args.workload, args.env.seed, args.trace as u8, args.seconds
    );
    println!("--seed {}", workloads::seed_use(&args.workload));
    let result = if args.trace {
        traced(&args, started)
    } else {
        untraced(&args, started)
    };
    match result {
        Ok(r) => {
            for (name, value, unit) in r.metrics.iter() {
                println!("{name} {value} {unit}");
            }
            println!(
                "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
                r.correct,
                r.attempted,
                r.failed,
                r.metrics.to_json()
            );
            if r.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> std::result::Result<Args, String> {
        parse_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn driver_arguments_parse() {
        let a = parse(&[
            "--workload",
            "pair_cold",
            "--seed",
            "7",
            "--seconds",
            "12",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.env.seed, a.seconds, a.trace),
            ("pair_cold", 7, 12.0, true)
        );
        assert!(!a.env.smoke);
    }

    #[test]
    fn bad_arguments_are_errors_not_defaults() {
        for bad in [
            &["--seed", "1"][..],
            &["--workload"],
            &["--workload", "x", "--trace", "2"],
            &["--workload", "x", "--seed", "abc"],
            &["--workload", "x", "--seconds", "-1"],
            &["--workload", "x", "--frobnicate"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
    }
}

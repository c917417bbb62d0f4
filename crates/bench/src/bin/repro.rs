//! Regenerates every figure of the paper's evaluation.
//!
//! ```text
//! repro [--quick] [--seed N] [--out DIR] [--check FILE] [fig8|fig9|fig10|fig11|fig12|fig13|fig14|all]
//! ```
//!
//! `--check FILE` compares the tables of every figure but Figure 10 (wall
//! time), as printed, with FILE and exits 1 when they differ;
//! `tests/golden/figures_quick.txt` holds them for `--quick`. An argument
//! it does not understand, or a `--check` file it cannot read, exits 2
//! with the usage before any figure runs.

use ruletest_bench::figures::{self, ReproConfig};
use ruletest_bench::FigureTable;
use std::time::Instant;

/// Prints `error` and the usage on stderr, and exits 2.
fn usage(error: &str) -> ! {
    eprintln!(
        "error: {error}\nusage: repro [--quick] [--seed N] [--out DIR] [--check FILE] [fig8..fig14|all]..."
    );
    std::process::exit(2)
}

fn main() {
    let mut cfg = ReproConfig::default();
    let mut which: Vec<String> = Vec::new();
    let mut check: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut value = || {
            args.next()
                .unwrap_or_else(|| usage(&format!("{a} needs a value")))
        };
        match a.as_str() {
            "--quick" => cfg.quick = true,
            "--seed" => {
                cfg.seed = value()
                    .parse()
                    .unwrap_or_else(|_| usage("--seed needs a number"))
            }
            "--out" => cfg.out_dir = value().into(),
            "--check" => check = Some(value()),
            "fig8" | "fig9" | "fig10" | "fig11" | "fig12" | "fig13" | "fig14" | "all" => {
                which.push(a)
            }
            other => usage(&format!("unknown argument '{other}'")),
        }
    }
    if which.is_empty() {
        which.push("all".to_string());
    }
    let check = check.map(|path| match std::fs::read_to_string(&path) {
        Ok(expected) => (path, expected),
        Err(e) => usage(&format!("--check cannot read {path}: {e}")),
    });
    let all = which.iter().any(|w| w == "all");
    let wants = |f: &str| all || which.iter().any(|w| w == f);

    println!(
        "ruletest figure reproduction (seed={:#x}, {} mode)\n",
        cfg.seed,
        if cfg.quick { "quick" } else { "full" }
    );

    // Every table but Figure 10's, as printed, for `--check`.
    let mut tables = String::new();
    let mut emit = |t: &FigureTable, file: &str| {
        let text = t.render();
        if file != "fig10.csv" {
            tables.push_str(&text);
        }
        println!("{text}");
        let path = cfg.out_dir.join(file);
        if let Err(e) = t.write_csv(&path) {
            eprintln!("(csv write to {} failed: {e})", path.display());
        } else {
            println!("  [csv -> {}]\n", path.display());
        }
    };

    let t0 = Instant::now();
    if wants("fig8") {
        emit(&figures::fig8(&cfg), "fig8.csv");
    }
    if wants("fig9") || wants("fig10") {
        let (f9, f10) = figures::fig9_and_10(&cfg);
        if wants("fig9") {
            emit(&f9, "fig9.csv");
        }
        if wants("fig10") {
            emit(&f10, "fig10.csv");
            println!("  {}\n", figures::fig10_note());
        }
    }
    if wants("fig11") {
        emit(&figures::fig11(&cfg), "fig11.csv");
    }
    if wants("fig12") {
        emit(&figures::fig12(&cfg), "fig12.csv");
    }
    if wants("fig13") {
        emit(&figures::fig13(&cfg), "fig13.csv");
    }
    if wants("fig14") {
        emit(&figures::fig14(&cfg), "fig14.csv");
    }
    println!("total: {:.1}s", t0.elapsed().as_secs_f64());
    if let Some((path, expected)) = check {
        if tables != expected {
            let first = tables
                .lines()
                .zip(expected.lines())
                .position(|(a, e)| a != e)
                .unwrap_or_else(|| tables.lines().count().min(expected.lines().count()));
            eprintln!(
                "figure tables differ from {path} at line {}:\n  printed:  {:?}\n  expected: {:?}",
                first + 1,
                tables.lines().nth(first),
                expected.lines().nth(first),
            );
            std::process::exit(1);
        }
        println!("figure tables match {path}");
    }
}

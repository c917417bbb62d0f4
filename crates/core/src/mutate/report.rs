//! `MUTATION_REPORT.json`: per-mutant rows, per-class detection rates,
//! and the lint-escape matrix.
//!
//! The report is fully deterministic — catalog order, no wall-clock —
//! so the same seed produces byte-identical JSON at any thread count.

use super::campaign::MutantOutcome;
use super::detect::{KillKind, MAX_TRIALS, SEEDS};
use super::{BugClass, Verdict};
use ruletest_common::wire::{to_compact, Encode};
use ruletest_common::JsonWriter;
use ruletest_telemetry::Json;

/// Aggregates for one bug class.
#[derive(Debug, Clone, Copy)]
pub struct ClassStats {
    pub class: BugClass,
    /// Mutants in this class that the run selected.
    pub total: usize,
    /// Expected-detectable mutants killed (static or dynamic).
    pub killed: usize,
    /// Expected-detectable mutants that escaped both layers.
    pub survived: usize,
    /// Benign mutants correctly reported as non-bugs.
    pub benign_ok: usize,
    /// Benign mutants wrongly reported as bugs.
    pub false_positives: usize,
    /// Mean cumulative generation trials over this class's dynamic
    /// kills (the paper's efficiency metric), if any landed.
    pub mean_trials_to_kill: Option<f64>,
}

impl ClassStats {
    /// Killed fraction over expected-detectable mutants (1.0 when the
    /// class holds only benign controls).
    pub fn detection_rate(&self) -> f64 {
        let detectable = self.killed + self.survived;
        if detectable == 0 {
            1.0
        } else {
            self.killed as f64 / detectable as f64
        }
    }
}

/// The full campaign result.
#[derive(Debug)]
pub struct MutationReport {
    pub outcomes: Vec<MutantOutcome>,
}

impl MutationReport {
    /// Per-class aggregates, in [`BugClass::ALL`] order, classes with no
    /// selected mutants omitted.
    pub fn class_stats(&self) -> Vec<ClassStats> {
        BugClass::ALL
            .into_iter()
            .filter_map(|class| {
                let of_class: Vec<_> = self
                    .outcomes
                    .iter()
                    .filter(|o| o.mutant.class == class)
                    .collect();
                if of_class.is_empty() {
                    return None;
                }
                let mut s = ClassStats {
                    class,
                    total: of_class.len(),
                    killed: 0,
                    survived: 0,
                    benign_ok: 0,
                    false_positives: 0,
                    mean_trials_to_kill: None,
                };
                let mut trials = Vec::new();
                for o in &of_class {
                    if o.mutant.expected == Verdict::Benign {
                        if o.passes_expectation() {
                            s.benign_ok += 1;
                        } else {
                            s.false_positives += 1;
                        }
                    } else if o.killed() {
                        s.killed += 1;
                    } else {
                        s.survived += 1;
                    }
                    if let Some(k) = o.dynamic() {
                        trials.push(k.trials as f64);
                    }
                }
                if !trials.is_empty() {
                    s.mean_trials_to_kill = Some(trials.iter().sum::<f64>() / trials.len() as f64);
                }
                Some(s)
            })
            .collect()
    }

    /// The lint-escape matrix: ids of mutants the static linter missed
    /// but dynamic differential execution killed.
    pub fn lint_escapes(&self) -> Vec<&'static str> {
        self.outcomes
            .iter()
            .filter(|o| o.lint_escape())
            .map(|o| o.mutant.id)
            .collect()
    }

    /// Outcomes violating their mutant's expected verdict.
    pub fn failures(&self) -> Vec<&MutantOutcome> {
        self.outcomes
            .iter()
            .filter(|o| !o.passes_expectation())
            .collect()
    }

    /// Exit semantics: any expected-detectable mutant surviving (or any
    /// benign mutant reported as a bug) fails the run.
    pub fn failed(&self) -> bool {
        !self.failures().is_empty()
    }

    /// The report document as a parsed tree. Kept only because the
    /// benchmark (`perfbench/src/workloads.rs`) calls
    /// `.to_json().to_string_compact()` and may not be edited here;
    /// everything else writes the report with
    /// [`to_pretty`](ruletest_common::to_pretty). A benchmark
    /// PR drops it.
    pub fn to_json(&self) -> Json {
        Json::parse(&to_compact(self)).expect("a written report parses")
    }

    /// `(diff, crash)` counts over the dynamic kills.
    fn kill_kind_counts(&self) -> (u64, u64) {
        let mut counts = (0, 0);
        for k in self.outcomes.iter().filter_map(|o| o.dynamic()) {
            match k.kind {
                KillKind::Diff => counts.0 += 1,
                KillKind::Crash => counts.1 += 1,
            }
        }
        counts
    }

    fn kill_counts(&self) -> (u64, u64) {
        let mut killed = 0;
        let mut survived = 0;
        for o in &self.outcomes {
            if o.mutant.expected == Verdict::Benign {
                continue;
            }
            if o.killed() {
                killed += 1;
            } else {
                survived += 1;
            }
        }
        (killed, survived)
    }

    /// Human-readable summary for the CLI.
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<38} {:<24} {:<19} {:>6} {:>7} {:>5}",
            "mutant", "class", "expected", "lint", "dyn", "pass"
        );
        for o in &self.outcomes {
            let dynamic = match o.dynamic() {
                // Marker: `!` = differential crash, none = diff.
                Some(k) => {
                    let marker = match k.kind {
                        KillKind::Diff => "",
                        KillKind::Crash => "!",
                    };
                    format!("s{}{}", k.seed, marker)
                }
                None if o.detection.fired => "-".to_string(),
                None => "never".to_string(),
            };
            let _ = writeln!(
                out,
                "{:<38} {:<24} {:<19} {:>6} {:>7} {:>5}",
                o.mutant.id,
                o.mutant.class.name(),
                o.mutant.expected.name(),
                if o.static_caught { "flag" } else { "-" },
                dynamic,
                if o.passes_expectation() { "ok" } else { "FAIL" },
            );
        }
        let _ = writeln!(out);
        for s in self.class_stats() {
            let mean = s
                .mean_trials_to_kill
                .map(|m| format!("{m:.1}"))
                .unwrap_or_else(|| "-".into());
            let _ = writeln!(
                out,
                "{:<24} detection {:>3}/{:<3} ({:.0}%)  benign {}/{} ok  mean-trials {}",
                s.class.name(),
                s.killed,
                s.killed + s.survived,
                s.detection_rate() * 100.0,
                s.benign_ok,
                s.benign_ok + s.false_positives,
                mean,
            );
        }
        let escapes = self.lint_escapes();
        let _ = writeln!(
            out,
            "\nlint escapes (dynamic-only kills): {}",
            if escapes.is_empty() {
                "none".to_string()
            } else {
                escapes.join(", ")
            }
        );
        let _ = writeln!(
            out,
            "verdict: {}",
            if self.failed() { "FAIL" } else { "PASS" }
        );
        out
    }
}

/// Deterministic JSON (no wall-clock, catalog order).
impl Encode for MutationReport {
    fn encode(&self, w: &mut JsonWriter<'_>) {
        let (killed, survived) = self.kill_counts();
        let (diff, crash) = self.kill_kind_counts();
        let escapes = self.lint_escapes();
        w.object(|w| {
            w.key("budget");
            w.object(|w| {
                w.member("max_trials", &MAX_TRIALS);
                w.member("seeds", &SEEDS);
            });
            w.key("classes");
            w.array(|w| self.class_stats().iter().for_each(|s| class_row(s, w)));
            w.member("lint_escapes", &escapes);
            w.key("mutants");
            w.array(|w| self.outcomes.iter().for_each(|o| mutant_row(o, w)));
            w.key("summary");
            w.object(|w| {
                w.member("failures", &self.failures().len());
                w.key("kill_kinds");
                w.object(|w| {
                    w.member("crash", &crash);
                    w.member("diff", &diff);
                });
                w.member("killed", &killed);
                w.member("lint_escapes", &escapes.len());
                w.member("pass", &!self.failed());
                w.member("survived", &survived);
                w.member("total", &self.outcomes.len());
            });
        });
    }
}

fn class_row(s: &ClassStats, w: &mut JsonWriter<'_>) {
    w.object(|w| {
        w.member("benign_ok", &s.benign_ok);
        w.member("class", s.class.name());
        w.key("detection_rate");
        w.num(s.detection_rate());
        w.member("false_positives", &s.false_positives);
        w.member("killed", &s.killed);
        w.key("mean_trials_to_kill");
        match s.mean_trials_to_kill {
            Some(m) => w.num(m),
            None => w.null(),
        }
        w.member("survived", &s.survived);
        w.member("total", &s.total);
    });
}

fn mutant_row(o: &MutantOutcome, w: &mut JsonWriter<'_>) {
    let kill = o.dynamic();
    w.object(|w| {
        w.member("class", o.mutant.class.name());
        w.member("dynamic_caught", &kill.is_some());
        w.member("expected", &o.mutant.expected);
        w.member("fired", &o.detection.fired);
        w.member("id", o.mutant.id);
        w.member("kill_kind", &kill.map(|k| k.kind));
        w.member("kill_seed", &kill.map(|k| k.seed));
        w.member("kill_trials", &kill.map(|k| k.trials));
        w.member("note", o.mutant.note);
        w.member("pass", &o.passes_expectation());
        w.member("plans_diverged", &o.detection.plans_diverged);
        w.member("rule", o.mutant.rule_name);
        w.member("static_caught", &o.static_caught);
    });
}

#[cfg(test)]
mod tests {
    use super::super::campaign::MutantOutcome;
    use super::super::detect::{Detection, DynamicKill, KillKind};
    use super::super::Mutant;
    use super::{to_compact, Json, MutationReport};

    fn outcome(mutant: &'static Mutant, kind: KillKind) -> MutantOutcome {
        MutantOutcome {
            mutant,
            static_caught: false,
            detection: Detection {
                fired: true,
                plans_diverged: true,
                dynamic: Some(DynamicKill {
                    seed: 7,
                    trials: 3,
                    kind,
                }),
            },
        }
    }

    #[test]
    fn report_renders_kill_kinds_in_json_and_text() {
        let mutants = Mutant::all();
        let outcomes = vec![
            outcome(&mutants[0], KillKind::Diff),
            outcome(&mutants[1], KillKind::Crash),
        ];
        let report = MutationReport { outcomes };

        let json = to_compact(&report);
        assert!(json.contains("\"kill_kind\":\"diff\""), "{json}");
        assert!(json.contains("\"kill_kind\":\"crash\""), "{json}");
        let kinds = Json::parse(&json).unwrap();
        let kinds = kinds.get("summary").and_then(|s| s.get("kill_kinds"));
        let count = |k: &str| kinds.and_then(|v| v.get(k)).and_then(|v| v.as_u64());
        assert_eq!(count("diff"), Some(1), "{json}");
        assert_eq!(count("crash"), Some(1), "{json}");
        assert!(
            json.starts_with("{\"budget\":{\"max_trials\":20,\"seeds\":48},"),
            "{json}"
        );

        let text = report.render_text();
        assert!(text.contains("s7 "), "diff kill unmarked: {text}");
        assert!(text.contains("s7!"), "crash marker missing: {text}");
    }
}

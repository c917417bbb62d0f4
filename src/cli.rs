//! Argument parsing for the `ruletest` binary, split out so it can be
//! unit-tested.
//!
//! Parsing is strict: unknown `--flags` are errors, and every flag that
//! takes a value fails loudly when the value is missing or unparseable
//! (historically `--threads` with no value silently became 0, i.e. "one
//! worker per core").

use std::str::FromStr;

/// Parsed command-line options (everything after the subcommand).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Opts {
    pub seed: u64,
    pub trials: usize,
    pub random: bool,
    pub rules: usize,
    pub k: usize,
    /// 0 (the default) means "one worker per core".
    pub threads: usize,
    /// Write the aggregate `RunReport` JSON here after the command runs
    /// (enables telemetry).
    pub metrics_json: Option<String>,
    /// Write the JSONL event trace here after the command runs (enables
    /// telemetry with tracing).
    pub trace_out: Option<String>,
    /// `ruletest report --check`: fail on dead instrumentation.
    /// `ruletest triage replay --check`: fail unless every bundle confirms.
    pub check: bool,
    /// `--fault ID` (`triage`, `lint`, `prove`): inject the mutant with this id.
    pub fault: Option<String>,
    /// Write JSONL repro bundles here (`ruletest triage --out PATH`).
    pub out: Option<String>,
    /// Write a machine-readable report here (`ruletest lint --json PATH`).
    pub json: Option<String>,
    /// `ruletest mutate --class C`: restrict to one bug class.
    pub class: Option<String>,
    /// `ruletest mutate --sample N`: stratified sample, ≤N mutants per
    /// class.
    pub sample: Option<usize>,
    /// `ruletest mutate --list`: print the mutant catalog and exit.
    pub list: bool,
    /// Write the profile section as collapsed/folded stacks here
    /// (`path self_us` per line; enables telemetry on live commands).
    pub profile_folded: Option<String>,
    /// `ruletest diff --threshold-pct N`: allowed relative drift for
    /// timing/cache comparisons, in whole percent (default 10).
    pub threshold_pct: Option<u32>,
    /// `ruletest audit --cache-dir DIR`: persist the invocation cache and
    /// the quarantine under DIR; a later run warm-starts from the cache.
    pub cache_dir: Option<String>,
    /// `ruletest audit --cache-dir DIR --resume`: rerun an interrupted
    /// campaign warm, inheriting its quarantine instead of clearing it.
    pub resume: bool,
    /// `ruletest prove --rule NAME`: prove only the named rule.
    pub rule: Option<String>,
    /// `ruletest lint --prove`: run the symbolic prover alongside the
    /// concrete lint passes.
    pub prove: bool,
    /// `ruletest audit --no-supervise`: disable the invocation sandbox
    /// and crash quarantine (supervision is on by default for `audit`).
    pub no_supervise: bool,
    /// `ruletest audit --chaos-seed N`: run the campaign under a seeded
    /// chaos-injection plan (commands without a shared framework reject
    /// it).
    pub chaos_seed: Option<u64>,
    /// `ruletest audit --chaos-plan SPEC`: run the campaign under an
    /// explicit chaos plan (`site:kind@every[#times],...`); overrides
    /// `--chaos-seed`.
    pub chaos_plan: Option<String>,
    /// `ruletest audit --deadline-ms N`: cooperative per-execution
    /// deadline for executor batch loops (0 = unarmed).
    pub deadline_ms: u64,
    pub positional: Vec<String>,
}

impl Default for Opts {
    fn default() -> Self {
        Opts {
            seed: 42,
            trials: 500,
            random: false,
            rules: 8,
            k: 3,
            threads: 0,
            metrics_json: None,
            trace_out: None,
            check: false,
            fault: None,
            out: None,
            json: None,
            class: None,
            sample: None,
            list: false,
            profile_folded: None,
            threshold_pct: None,
            cache_dir: None,
            resume: false,
            rule: None,
            prove: false,
            no_supervise: false,
            chaos_seed: None,
            chaos_plan: None,
            deadline_ms: 0,
            positional: Vec::new(),
        }
    }
}

fn value_of(flag: &str, args: &mut impl Iterator<Item = String>) -> Result<String, String> {
    match args.next() {
        // A following flag almost certainly means the value was forgotten.
        Some(v) if !v.starts_with("--") => Ok(v),
        Some(v) => Err(format!("{flag} requires a value, got flag '{v}'")),
        None => Err(format!("{flag} requires a value")),
    }
}

fn parse_value<T: FromStr>(
    flag: &str,
    args: &mut impl Iterator<Item = String>,
) -> Result<T, String> {
    let v = value_of(flag, args)?;
    v.parse().map_err(|_| format!("{flag}: cannot parse '{v}'"))
}

/// Flags only `audit` reads; any other command would silently ignore them.
const AUDIT_ONLY: [&str; 4] = ["--deadline-ms", "--no-supervise", "--cache-dir", "--resume"];

/// Parses `(subcommand, options)` from the arguments after the program
/// name. No arguments at all resolves to the `help` subcommand.
pub fn parse(args: impl IntoIterator<Item = String>) -> Result<(String, Opts), String> {
    let mut args = args.into_iter();
    let cmd = args.next().unwrap_or_else(|| "help".to_string());
    let mut opts = Opts::default();
    while let Some(a) = args.next() {
        if cmd != "audit" && AUDIT_ONLY.contains(&a.as_str()) {
            return Err(format!("`{cmd}` takes no {a}: only `audit` reads it"));
        }
        match a.as_str() {
            "--seed" => opts.seed = parse_value(&a, &mut args)?,
            "--trials" => opts.trials = parse_value(&a, &mut args)?,
            "--rules" => opts.rules = parse_value(&a, &mut args)?,
            "--k" => opts.k = parse_value(&a, &mut args)?,
            "--threads" => opts.threads = parse_value(&a, &mut args)?,
            "--metrics-json" => opts.metrics_json = Some(value_of(&a, &mut args)?),
            "--trace-out" => opts.trace_out = Some(value_of(&a, &mut args)?),
            "--fault" => opts.fault = Some(value_of(&a, &mut args)?),
            "--out" => opts.out = Some(value_of(&a, &mut args)?),
            "--json" => opts.json = Some(value_of(&a, &mut args)?),
            "--class" => opts.class = Some(value_of(&a, &mut args)?),
            "--sample" => opts.sample = Some(parse_value(&a, &mut args)?),
            "--profile-folded" => opts.profile_folded = Some(value_of(&a, &mut args)?),
            "--threshold-pct" => opts.threshold_pct = Some(parse_value(&a, &mut args)?),
            "--cache-dir" => opts.cache_dir = Some(value_of(&a, &mut args)?),
            "--rule" => opts.rule = Some(value_of(&a, &mut args)?),
            "--chaos-seed" => opts.chaos_seed = Some(parse_value(&a, &mut args)?),
            "--chaos-plan" => opts.chaos_plan = Some(value_of(&a, &mut args)?),
            "--deadline-ms" => opts.deadline_ms = parse_value(&a, &mut args)?,
            "--no-supervise" => opts.no_supervise = true,
            "--random" => opts.random = true,
            "--check" => opts.check = true,
            "--list" => opts.list = true,
            "--resume" => opts.resume = true,
            "--prove" => opts.prove = true,
            other if other.starts_with("--") => {
                return Err(format!("unknown flag '{other}'"));
            }
            other => opts.positional.push(other.to_string()),
        }
    }
    // A fault plan reaches only the campaign framework the other commands
    // share; these build none and would silently ignore one.
    if ["report", "diff", "triage", "mutate", "lint", "prove"].contains(&cmd.as_str())
        && (opts.chaos_seed.is_some() || opts.chaos_plan.is_some())
    {
        return Err(format!("`{cmd}` takes no --chaos-seed / --chaos-plan"));
    }
    Ok((cmd, opts))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn defaults_and_positionals() {
        let (cmd, opts) = parse(argv(&["gen", "InnerJoinCommute"])).unwrap();
        assert_eq!(cmd, "gen");
        assert_eq!(opts.positional, vec!["InnerJoinCommute"]);
        assert_eq!(
            opts,
            Opts {
                positional: vec!["InnerJoinCommute".to_string()],
                ..Opts::default()
            }
        );
    }

    #[test]
    fn no_arguments_means_help() {
        let (cmd, _) = parse(argv(&[])).unwrap();
        assert_eq!(cmd, "help");
    }

    #[test]
    fn flags_parse_and_mix_with_positionals() {
        let (cmd, opts) = parse(argv(&[
            "audit",
            "--rules",
            "12",
            "--k",
            "4",
            "--threads",
            "3",
            "--seed",
            "7",
            "--random",
            "--metrics-json",
            "out.json",
            "--trace-out",
            "trace.jsonl",
        ]))
        .unwrap();
        assert_eq!(cmd, "audit");
        assert_eq!((opts.rules, opts.k, opts.threads, opts.seed), (12, 4, 3, 7));
        assert!(opts.random);
        assert_eq!(opts.metrics_json.as_deref(), Some("out.json"));
        assert_eq!(opts.trace_out.as_deref(), Some("trace.jsonl"));
    }

    #[test]
    fn missing_value_is_an_error_not_a_silent_default() {
        // Regression: `--threads` with no value used to become 0.
        let err = parse(argv(&["audit", "--threads"])).unwrap_err();
        assert!(err.contains("--threads"), "{err}");
        let err = parse(argv(&["audit", "--threads", "--seed", "1"])).unwrap_err();
        assert!(err.contains("--threads"), "{err}");
    }

    #[test]
    fn unparseable_value_is_an_error() {
        let err = parse(argv(&["audit", "--threads", "many"])).unwrap_err();
        assert!(err.contains("many"), "{err}");
        let err = parse(argv(&["gen", "--seed", "-3"])).unwrap_err();
        assert!(err.contains("-3"), "{err}");
    }

    #[test]
    fn unknown_flag_is_an_error() {
        let err = parse(argv(&["audit", "--frobnicate"])).unwrap_err();
        assert!(err.contains("--frobnicate"), "{err}");
    }

    #[test]
    fn triage_flags_parse() {
        let (cmd, opts) = parse(argv(&[
            "triage",
            "--fault",
            "SelectMergedIntoOuterJoin",
            "--out",
            "bugs.jsonl",
        ]))
        .unwrap();
        assert_eq!(cmd, "triage");
        assert_eq!(opts.fault.as_deref(), Some("SelectMergedIntoOuterJoin"));
        assert_eq!(opts.out.as_deref(), Some("bugs.jsonl"));
        // replay form: positional file + --check
        let (cmd, opts) = parse(argv(&["triage", "replay", "bugs.jsonl", "--check"])).unwrap();
        assert_eq!(cmd, "triage");
        assert_eq!(opts.positional, vec!["replay", "bugs.jsonl"]);
        assert!(opts.check);
        // missing values fail loudly
        assert!(parse(argv(&["triage", "--fault"])).is_err());
        // Triage runs at the default scale: there is no --scale.
        assert!(parse(argv(&["triage", "--scale", "2"])).is_err());
    }

    #[test]
    fn lint_flags_parse() {
        let (cmd, opts) = parse(argv(&[
            "lint",
            "--fault",
            "OuterJoinSimplifyUnconditional",
            "--json",
            "lint.json",
        ]))
        .unwrap();
        assert_eq!(cmd, "lint");
        assert_eq!(
            opts.fault.as_deref(),
            Some("OuterJoinSimplifyUnconditional")
        );
        assert_eq!(opts.json.as_deref(), Some("lint.json"));
        assert!(parse(argv(&["lint", "--json"])).is_err());
    }

    #[test]
    fn mutate_flags_parse() {
        let (cmd, opts) = parse(argv(&[
            "mutate",
            "--class",
            "boundary-bug",
            "--sample",
            "2",
            "--json",
            "MUTATION_REPORT.json",
        ]))
        .unwrap();
        assert_eq!(cmd, "mutate");
        assert_eq!(opts.class.as_deref(), Some("boundary-bug"));
        assert_eq!(opts.sample, Some(2));
        assert_eq!(opts.json.as_deref(), Some("MUTATION_REPORT.json"));
        let (_, opts) = parse(argv(&["mutate", "--list"])).unwrap();
        assert!(opts.list);
        // missing/unparseable values fail loudly
        assert!(parse(argv(&["mutate", "--class"])).is_err());
        assert!(parse(argv(&["mutate", "--sample", "few"])).is_err());
    }

    #[test]
    fn diff_and_profile_flags_parse() {
        let (cmd, opts) = parse(argv(&[
            "diff",
            "base.json",
            "cur.json",
            "--threshold-pct",
            "25",
            "--json",
            "diff.json",
        ]))
        .unwrap();
        assert_eq!(cmd, "diff");
        assert_eq!(opts.positional, vec!["base.json", "cur.json"]);
        assert_eq!(opts.threshold_pct, Some(25));
        assert_eq!(opts.json.as_deref(), Some("diff.json"));
        let (_, opts) = parse(argv(&["audit", "--profile-folded", "out.folded"])).unwrap();
        assert_eq!(opts.profile_folded.as_deref(), Some("out.folded"));
        // missing/unparseable values fail loudly
        assert!(parse(argv(&["diff", "--threshold-pct"])).is_err());
        assert!(parse(argv(&["diff", "--threshold-pct", "lots"])).is_err());
        assert!(parse(argv(&["audit", "--profile-folded"])).is_err());
    }

    #[test]
    fn cache_dir_and_resume_flags_parse() {
        let (cmd, opts) = parse(argv(&[
            "audit",
            "--cache-dir",
            ".ruletest-cache",
            "--resume",
        ]))
        .unwrap();
        assert_eq!(cmd, "audit");
        assert_eq!(opts.cache_dir.as_deref(), Some(".ruletest-cache"));
        assert!(opts.resume);
        // --resume without --cache-dir parses (the command decides whether
        // that combination is meaningful); a missing value fails loudly.
        let (_, opts) = parse(argv(&["audit", "--resume"])).unwrap();
        assert!(opts.resume && opts.cache_dir.is_none());
        assert!(parse(argv(&["audit", "--cache-dir"])).is_err());
        assert!(parse(argv(&["audit", "--cache-dir", "--resume"])).is_err());
    }

    #[test]
    fn prove_flags_parse() {
        let (cmd, opts) = parse(argv(&[
            "prove",
            "--rule",
            "TopTopCollapse",
            "--json",
            "prove.json",
        ]))
        .unwrap();
        assert_eq!(cmd, "prove");
        assert_eq!(opts.rule.as_deref(), Some("TopTopCollapse"));
        assert_eq!(opts.json.as_deref(), Some("prove.json"));
        // lint grows a --prove switch; --fault reuses the triage flag.
        let (cmd, opts) = parse(argv(&["lint", "--prove"])).unwrap();
        assert_eq!(cmd, "lint");
        assert!(opts.prove);
        let (_, opts) = parse(argv(&["prove", "--fault", "TopTopCollapseTakesMax"])).unwrap();
        assert_eq!(opts.fault.as_deref(), Some("TopTopCollapseTakesMax"));
        // missing values fail loudly
        assert!(parse(argv(&["prove", "--rule"])).is_err());
        assert!(parse(argv(&["prove", "--rule", "--json"])).is_err());
    }

    #[test]
    fn supervision_and_chaos_flags_parse() {
        let (cmd, opts) = parse(argv(&[
            "audit",
            "--chaos-seed",
            "99",
            "--deadline-ms",
            "250",
        ]))
        .unwrap();
        assert_eq!(cmd, "audit");
        assert_eq!(opts.chaos_seed, Some(99));
        assert_eq!(opts.deadline_ms, 250);
        assert!(!opts.no_supervise);
        let (_, opts) = parse(argv(&[
            "audit",
            "--chaos-plan",
            "memo.insert:panic@3#1,exec.batch:stall@5",
            "--no-supervise",
        ]))
        .unwrap();
        assert_eq!(
            opts.chaos_plan.as_deref(),
            Some("memo.insert:panic@3#1,exec.batch:stall@5")
        );
        assert!(opts.no_supervise);
        // missing/unparseable values fail loudly
        assert!(parse(argv(&["audit", "--chaos-seed"])).is_err());
        assert!(parse(argv(&["audit", "--chaos-seed", "entropy"])).is_err());
        assert!(parse(argv(&["audit", "--chaos-plan"])).is_err());
        assert!(parse(argv(&["audit", "--deadline-ms", "soon"])).is_err());
        // Commands without the shared campaign framework refuse a plan.
        for cmd in ["report", "diff", "triage", "mutate", "lint", "prove"] {
            let err = parse(argv(&[cmd, "--chaos-seed", "7"])).unwrap_err();
            assert!(err.contains("--chaos-seed"), "{err}");
            assert!(parse(argv(&[cmd, "--chaos-plan", "memo.insert:panic@3"])).is_err());
        }
        assert!(parse(argv(&["gen", "SelectMerge", "--chaos-seed", "7"])).is_ok());
    }

    /// The audit-only flags are refused everywhere else, value or not.
    fn refused_outside_audit(flag: &[&str]) {
        assert!(parse(argv(&[&["audit"][..], flag].concat())).is_ok());
        for cmd in [
            "triage", "mutate", "lint", "prove", "gen", "sql", "report", "diff",
        ] {
            let err = parse(argv(&[&[cmd][..], flag].concat())).unwrap_err();
            assert!(err.contains(flag[0]) && err.contains(cmd), "{err}");
        }
    }

    #[test]
    fn deadline_ms_is_audit_only() {
        refused_outside_audit(&["--deadline-ms", "1"]);
    }

    #[test]
    fn no_supervise_is_audit_only() {
        refused_outside_audit(&["--no-supervise"]);
    }

    #[test]
    fn cache_dir_is_audit_only() {
        refused_outside_audit(&["--cache-dir", "D"]);
    }

    #[test]
    fn resume_is_audit_only() {
        refused_outside_audit(&["--resume"]);
    }

    #[test]
    fn check_flag_for_report() {
        let (cmd, opts) = parse(argv(&["report", "out.json", "--check"])).unwrap();
        assert_eq!(cmd, "report");
        assert!(opts.check);
        assert_eq!(opts.positional, vec!["out.json"]);
    }
}

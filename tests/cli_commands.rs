//! The command-line front end's exit codes and the flags `audit` honours
//! or refuses, through the built `ruletest` binary.

use std::process::{Command, Output};

fn ruletest(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ruletest"))
        .args(args)
        .output()
        .unwrap()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// A misspelt command fails with the usage on stderr; `help` and no
/// command at all print the usage and succeed.
#[test]
fn unknown_command_fails_and_help_succeeds() {
    let out = ruletest(&["frobnicate"]);
    assert!(!out.status.success(), "an unknown command exited 0");
    assert!(stderr(&out).contains("usage: ruletest"), "{}", stderr(&out));
    assert!(stderr(&out).contains("unknown command 'frobnicate'"));
    for args in [&["help"][..], &[]] {
        let out = ruletest(args);
        assert!(out.status.success(), "ruletest {args:?}: {}", stderr(&out));
        assert!(stderr(&out).contains("usage: ruletest"));
    }
}

/// `--trials` reaches the campaign parameters the checkpoint records;
/// `--random`, which the campaign cannot honour, is refused, and so are
/// `--rules 0` and `--k 0`, which leave nothing to validate.
#[test]
fn audit_takes_trials_and_refuses_random() {
    let dir = std::env::temp_dir().join(format!("ruletest_cli_trials_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let args = ["audit", "--rules", "1", "--k", "1", "--threads", "1"];
    let cache = dir.to_str().unwrap();
    let out = ruletest(&[&args[..], &["--trials", "7", "--cache-dir", cache]].concat());
    assert!(out.status.success(), "{}", stderr(&out));
    let quarantine = std::fs::read_to_string(dir.join("checkpoint/quarantine.json")).unwrap();
    assert!(quarantine.contains("\"max_trials\":7"), "{quarantine}");
    let _ = std::fs::remove_dir_all(&dir);

    for refused in [&["--random"][..], &["--rules", "0"], &["--k", "0"]] {
        let named = refused.join(" ");
        let out = ruletest(&[&args[..], refused].concat());
        assert!(!out.status.success(), "audit {named} exited 0");
        assert!(stderr(&out).contains(&named), "{}", stderr(&out));
        assert!(out.stdout.is_empty(), "audit {named} ran a campaign");
    }
}

/// `triage replay` reports a bundle it cannot replay as `[ERROR]` and
/// counts it unconfirmed, and still replays the rest and prints the
/// summary: `--check` then exits 1, and without it the command exits 0.
/// A malformed line still fails the read, naming its line.
#[test]
fn replay_reports_an_unreplayable_bundle_and_carries_on() {
    let dir = std::env::temp_dir().join(format!("ruletest_cli_replay_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let found = dir.join("found.jsonl");
    let found = found.to_str().unwrap();
    let fault = "SelectMergedIntoOuterJoin";
    let out = ruletest(&["triage", "--fault", fault, "--threads", "1", "--out", found]);
    assert!(out.status.success(), "{}", stderr(&out));
    let good = std::fs::read_to_string(found).unwrap();
    let good = good.lines().next().unwrap();
    let bad = good.replace(
        &format!("\"fault\":\"{fault}\""),
        "\"fault\":\"NoSuchMutant\"",
    );
    assert_ne!(bad, good);
    let six = dir.join("six.jsonl");
    std::fs::write(&six, [good, good, good, &bad, good, good].join("\n") + "\n").unwrap();
    let six = six.to_str().unwrap();
    for (check, success) in [(false, true), (true, false)] {
        let args = [
            &["triage", "replay", six][..],
            if check { &["--check"] } else { &[] },
        ];
        let out = ruletest(&args.concat());
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(out.status.success(), success, "check={check}: {stdout}");
        for i in 1..=6 {
            let status = if i == 4 { "[ERROR]" } else { "[CONFIRMED]" };
            let line = stdout
                .lines()
                .find(|l| l.starts_with(&format!("bundle {i}: ")));
            assert!(line.unwrap_or_default().contains(status), "{stdout}");
        }
        assert!(
            stdout
                .lines()
                .any(|l| l.starts_with("[ERROR] unsupported: unknown mutant 'NoSuchMutant'")),
            "{stdout}"
        );
        assert!(
            stdout.contains("replayed 6 bundle(s): 5 confirmed, 1 unconfirmed"),
            "{stdout}"
        );
    }

    let malformed = dir.join("malformed.jsonl");
    std::fs::write(&malformed, format!("{good}\n{{not json\n")).unwrap();
    let out = ruletest(&["triage", "replay", malformed.to_str().unwrap()]);
    assert!(!out.status.success(), "a malformed line replayed");
    assert!(stderr(&out).contains("line 2"), "{}", stderr(&out));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A triage campaign whose suite cannot be generated stops there, naming
/// the rule and the seed, instead of running the rest of the seed ladder
/// and blaming the fault for finding nothing.
#[test]
fn triage_stops_at_a_seed_without_a_suite() {
    let out = ruletest(&[
        "triage",
        "--fault",
        "InnerJoinCommuteSuppressed",
        "--trials",
        "5",
    ]);
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    let err = stderr(&out);
    assert!(err.contains("InnerJoinCommute"), "{err}");
    assert!(err.contains("seed 42"), "{err}");
    assert!(out.stdout.is_empty(), "a campaign ran: {err}");
}

const AUDIT_GOLDEN: &str = include_str!("golden/audit_stdout.txt");

/// `ruletest audit`'s stdout at two shapes, one and two workers, and once
/// without supervision, pinned against `tests/golden/audit_stdout.txt`.
/// There is deliberately no regeneration switch: a change meant to move
/// the output copies the `actual` text this test prints on mismatch.
#[test]
fn audit_stdout_matches_the_golden() {
    let runs: [&[&str]; 5] = [
        &["--rules", "6", "--k", "2", "--threads", "1"],
        &["--rules", "6", "--k", "2", "--threads", "2"],
        &["--rules", "10", "--k", "3", "--threads", "1"],
        &["--rules", "10", "--k", "3", "--threads", "2"],
        &[
            "--rules",
            "10",
            "--k",
            "3",
            "--threads",
            "2",
            "--no-supervise",
        ],
    ];
    let mut actual = String::new();
    for args in runs {
        let out = ruletest(&[&["audit"][..], args].concat());
        assert!(out.status.success(), "audit {args:?}: {}", stderr(&out));
        actual.push_str(&format!("== audit {}\n", args.join(" ")));
        actual.push_str(&String::from_utf8_lossy(&out.stdout));
    }
    assert!(
        actual == AUDIT_GOLDEN,
        "actual differs from tests/golden/audit_stdout.txt\n--- actual ---\n{actual}"
    );
}

/// A §7 finder that discards co-occurring queries and then runs out names
/// the trials of every attempt, not only the last attempt's.
#[test]
fn dependency_finder_reports_every_trial_it_spent() {
    let out = ruletest(&["dependency", "LojCommute", "JoinLojAssoc"]);
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    assert!(
        stderr(&out).contains("LojCommute feeds JoinLojAssoc found in 500 trials"),
        "{}",
        stderr(&out)
    );
}

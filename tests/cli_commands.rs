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

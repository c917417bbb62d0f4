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

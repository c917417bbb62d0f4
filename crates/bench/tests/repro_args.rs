//! `repro` refuses an argument it does not understand, or a `--check` file
//! it cannot read, through the built binary: the usage on stderr, exit 2,
//! and no figure run.

use std::process::Command;

#[test]
fn unknown_arguments_fail_before_any_figure_runs() {
    let refused: [&[&str]; 6] = [
        &["--quick", "--chek", "tests/golden/figures_quick.txt"],
        &["--quick", "fig15"],
        &["--seed", "x"],
        &["--quick", "--check"],
        &["fig8", "--verbose"],
        &["--quick", "fig8", "--check", "no/such/figures.txt"],
    ];
    for args in refused {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(args)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "repro {args:?}: {stderr}");
        assert!(stderr.contains("usage: repro"), "repro {args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "repro {args:?} ran a figure");
    }
}

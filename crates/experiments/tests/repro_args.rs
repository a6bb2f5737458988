//! Command-line errors of the `repro` binary: a malformed or missing flag
//! value exits with status 2 and a message naming the flag, never a panic.

use std::process::Command;

/// Runs `repro` with `args` and returns its exit code and stderr.
fn repro(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_repro")).args(args).output().expect("spawn repro");
    (out.status.code(), String::from_utf8_lossy(&out.stderr).into_owned())
}

#[test]
fn malformed_flag_values_exit_2_without_panicking() {
    for args in [
        &["--ticks", "ten"][..],
        &["--seed", "-1"],
        &["--branches", "2.5"],
        &["--batch", ""],
        &["--repos", "many"],
        &["--items", "x"],
        &["--queue", "fifo"],
        &["--ticks"],
        &["--queue"],
    ] {
        let (code, stderr) = repro(args);
        assert_eq!(code, Some(2), "{args:?}: stderr {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(stderr.contains(args[0]), "{args:?}: {stderr}");
    }
}

#[test]
fn unknown_arguments_exit_2() {
    let (code, stderr) = repro(&["fig99"]);
    assert_eq!(code, Some(2));
    assert!(stderr.contains("unknown argument `fig99`"), "{stderr}");
}

//! Command-line errors of the `repro` binary: a malformed, missing or
//! out-of-range flag value exits with status 2 and a message naming the
//! flag, never a panic.

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
        // Counts the library would assert on (an empty trace, a
        // zero-length loss window, an empty workload) or silently clamp.
        &["dynamics", "--tiny", "--ticks", "0"],
        &["resilience", "--tiny", "--ticks", "1"],
        &["whatif", "--tiny", "--ticks", "1"],
        &["phases", "--repos", "0"],
        &["phases", "--repos", "10", "--items", "0"],
        &["whatif", "--tiny", "--branches", "0"],
        &["smoke", "--tiny", "--batch", "0"],
    ] {
        let (code, stderr) = repro(args);
        assert_eq!(code, Some(2), "{args:?}: stderr {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        // The offending flag is the last one on the line.
        let flag = args.iter().rev().find(|a| a.starts_with("--")).expect("a flag");
        assert!(stderr.contains(flag), "{args:?}: {stderr}");
    }
}

#[test]
fn unknown_arguments_exit_2() {
    let (code, stderr) = repro(&["fig99"]);
    assert_eq!(code, Some(2));
    assert!(stderr.contains("unknown argument `fig99`"), "{stderr}");
}

//! The `pdbt` binary's flag parser refuses what it does not
//! understand: an unknown `--flag` or a value flag without its value
//! is a usage error (exit status 2), never a silently different run.

use std::process::{Command, Output};

fn pdbt(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_pdbt"))
        .args(args)
        .output()
        .expect("pdbt runs")
}

fn assert_usage_error(out: &Output, needle: &str) {
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains(needle), "stderr lacks {needle:?}: {stderr}");
    assert!(stderr.contains("usage:"), "no usage text: {stderr}");
}

#[test]
fn unknown_flags_are_usage_errors() {
    // The removed replication flag must not boot a silently cold
    // daemon: the parser refuses it before `serve` binds anything.
    let out = pdbt(&["serve", "--addr", "127.0.0.1:0", "--peer", "127.0.0.1:7411"]);
    assert_usage_error(&out, "unknown flag --peer");
}

#[test]
fn value_flags_without_a_value_are_usage_errors() {
    let out = pdbt(&["run", "prog.s", "--jobs"]);
    assert_usage_error(&out, "--jobs needs a value");
    // A following flag is not a value either.
    let out = pdbt(&["run", "prog.s", "--jobs", "--stats"]);
    assert_usage_error(&out, "--jobs needs a value");
}

//! The `lis` binary's usage-error surface, driven as a subprocess.

use std::process::Command;

#[test]
fn retired_cached_backend_is_a_usage_error() {
    let runs: [&[&str]; 2] = [
        &["run", "prog.s", "--isa", "alpha", "--backend", "cached"],
        &["sweep", "--backends", "cached"],
    ];
    for args in runs {
        let out = Command::new(env!("CARGO_BIN_EXE_lis")).args(args).output().expect("lis runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("unknown backend `cached`"), "{args:?}: {err}");
    }
}

#[test]
fn assembler_errors_exit_1_with_the_line() {
    use std::io::Write as _;
    use std::process::Stdio;
    let mut child = Command::new(env!("CARGO_BIN_EXE_lis"))
        .args(["asm", "-", "--isa", "alpha"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("lis runs");
    child.stdin.take().expect("stdin").write_all(b"_start: clr\n").expect("source written");
    let out = child.wait_with_output().expect("lis exits");
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.starts_with("error: line 1:"), "{err}");
}

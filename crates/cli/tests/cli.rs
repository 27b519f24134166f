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

#[test]
fn a_hostile_source_is_an_error_not_an_abort() {
    use std::io::Write as _;
    use std::process::Stdio;
    let n = 100_000;
    let sources = [
        "_start: nop\n.data\n.space 0x100000000000000\n".to_string(),
        "_start: nop\n.data\n.org 0x100000000000000\n".to_string(),
        "_start: nop\n.data\n.align 0x4000000000000000\n".to_string(),
        "_start: nop\n.data\n.word 0x8000000000000000 % -1, 0 / 0\n".to_string(),
        format!("_start: nop\n.data\n.word {}1{}\n", "(".repeat(n), ")".repeat(n)),
        format!("_start: nop\nnop\nldq r1, {}r2{}\n", "[".repeat(n), "]".repeat(n)),
    ];
    for src in sources {
        let mut child = Command::new(env!("CARGO_BIN_EXE_lis"))
            .args(["asm", "-", "--isa", "alpha"])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("lis runs");
        child.stdin.take().expect("stdin").write_all(src.as_bytes()).expect("source written");
        let out = child.wait_with_output().expect("lis exits");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{err}");
        assert!(err.starts_with("error: line 3:"), "{err}");
    }
}

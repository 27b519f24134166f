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

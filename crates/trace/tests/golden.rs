//! Pins the trace codec's bytes and the sharded replay reports.
//!
//! For every suite kernel on every ISA this records a hash of the trace
//! bytes at `block-all` and at `block-decode` (both at the default chunk
//! target) and at `block-all` with 2 KiB chunks. On the small-chunk trace
//! it also records the [`TimingReport::to_json`] of a 2-shard and a 4-shard
//! [`replay_ooo`]. A codec or replay change meant to be behavior-preserving
//! must leave the committed `golden.txt` unchanged; `replay_equiv.rs`
//! checks one-shard replay against the live run, this file pins the rest.
//!
//! Regenerate the file (only for an intended format or timing change) with
//! `cargo test -p lis-trace --test golden -- --ignored`.
//!
//! [`TimingReport::to_json`]: lis_timing::TimingReport::to_json

use lis_core::{BuildsetDef, BLOCK_ALL, BLOCK_DECODE};
use lis_mem::{FxHasher, Image};
use lis_trace::{record, replay_ooo, RecordOptions, ReplayConfig, Trace, CHUNK_TARGET};
use lis_workloads::{spec_of, suite_of, ISAS};
use std::fmt::Write as _;
use std::hash::Hasher as _;

/// Chunk target of the small-chunk recording, which sharding splits.
const SMALL_CHUNK: usize = 2048;

fn record_bytes(isa: &str, image: &Image, buildset: BuildsetDef, chunk_target: usize) -> Vec<u8> {
    let mut bytes = Vec::new();
    let opts = RecordOptions { buildset, chunk_target, ..Default::default() };
    record(spec_of(isa), image, &mut bytes, &opts).expect("suite kernels record");
    bytes
}

fn hash(bytes: &[u8]) -> u64 {
    let mut h = FxHasher::default();
    h.write(bytes);
    h.finish()
}

/// Three lines per suite kernel: the trace hashes, then one report per
/// shard count.
fn render_isa(isa: &'static str) -> String {
    let mut out = String::new();
    for w in suite_of(isa) {
        let image = w.assemble().expect("suite kernel assembles");
        let all = record_bytes(isa, &image, BLOCK_ALL, CHUNK_TARGET);
        let decode = record_bytes(isa, &image, BLOCK_DECODE, CHUNK_TARGET);
        let small = record_bytes(isa, &image, BLOCK_ALL, SMALL_CHUNK);
        writeln!(
            out,
            "trace {isa} {} block-all={:016x} block-decode={:016x} block-all/{SMALL_CHUNK}={:016x} bytes={}",
            w.name,
            hash(&all),
            hash(&decode),
            hash(&small),
            all.len()
        )
        .unwrap();
        let trace = Trace::read_from(small.as_slice()).expect("trace reads back");
        for shards in [2, 4] {
            let cfg = ReplayConfig { shards, ..Default::default() };
            let report = replay_ooo(spec_of(isa), &trace, &cfg).expect("trace replays");
            writeln!(out, "replay {isa} {} x{shards} {}", w.name, report.to_json()).unwrap();
        }
    }
    out
}

/// Every ISA's lines, in `ISAS` order. The ISAs render on their own
/// threads, which keeps the debug-build run to a few seconds.
fn render() -> String {
    std::thread::scope(|s| {
        let parts: Vec<_> = ISAS.iter().map(|&isa| s.spawn(move || render_isa(isa))).collect();
        parts.into_iter().map(|h| h.join().expect("render thread")).collect()
    })
}

fn golden_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden.txt")
}

#[test]
fn traces_and_sharded_reports_match_golden() {
    let want = std::fs::read_to_string(golden_path()).expect("golden.txt is committed");
    let got = render();
    for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(g, w, "golden.txt line {} differs", i + 1);
    }
    assert_eq!(got.lines().count(), want.lines().count(), "golden.txt line count");
}

#[test]
#[ignore = "rewrites tests/golden.txt; run only for an intended format or timing change"]
fn regenerate_golden() {
    std::fs::write(golden_path(), render()).expect("golden.txt is writable");
}

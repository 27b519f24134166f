//! The repository benchmark: four workloads over the simulator's layers,
//! measured from outside through their public calls and the `lis serve`
//! wire protocol. See README.md for the catalog and how to compare runs.

mod common;
mod compare;
mod ladder;
mod ooo_hot;
mod outcome;
mod serve_mixed;
mod spans;
mod spec;
mod stats;
mod trace_replay;

use common::RunCfg;
use outcome::{Host, Outcome, Report};
use std::io::{BufRead, BufReader, Write};
use std::process::{Command, ExitCode, Stdio};

/// Set-up repetitions per run; `setup_s` is their median.
const SETUPS: usize = 3;

const USAGE: &str = "usage:
  benchmark [--workload NAME|all] [--seed N] [--trace 0|1]
            [--traced SPANS.jsonl] [--out RUNS.jsonl] [--seconds S]
  benchmark compare BASE.jsonl HEAD.jsonl

Runs one workload (or each in turn, in a child process of its own) for its
fixed number of rounds and prints every metric as `workload metric value
unit`, then one JSON result line. --trace 1 reports the per-layer metrics
instead of the end-to-end ones; --traced also writes the spans. --out
appends the full record that `compare` reads. --seconds, if given, must be
run_seconds of BENCHMARK.json, the time the rounds are sized to.";

/// Command-line settings of a run.
#[derive(Debug, Clone)]
struct Opts {
    workload: String,
    seed: u64,
    trace: bool,
    spans: Option<String>,
    out: Option<String>,
}

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts { workload: "all".to_string(), seed: 1, trace: false, spans: None, out: None };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => o.workload = value()?.clone(),
            "--seed" => o.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                // Run length is a fixed amount of work, not a time limit,
                // so that every commit does the same work; the flag only
                // confirms the catalog's measuring time.
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                let want = spec::spec().run_seconds;
                if s != want {
                    return Err(format!("--seconds must be run_seconds ({want}), not {s}"));
                }
            }
            "--trace" => {
                o.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--traced" => {
                o.spans = Some(value()?.clone());
                o.trace = true;
            }
            "--out" => o.out = Some(value()?.clone()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if o.workload != "all" && !spec::spec().workloads.contains(&o.workload) {
        return Err(format!("unknown workload {}", o.workload));
    }
    Ok(o)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("daemon") => u8::try_from(serve_mixed::daemon_main()).unwrap_or(1),
        Some("compare") if args.len() == 3 => {
            compare::main(&args[1], &args[2]).unwrap_or_else(|e| {
                eprintln!("benchmark compare: {e}");
                2
            })
        }
        Some("-h" | "--help") => {
            println!("{USAGE}");
            0
        }
        _ => match parse(&args) {
            Ok(o) if o.workload == "all" => run_all(&o),
            Ok(o) => run_one(&o),
            Err(e) => {
                eprintln!("benchmark: {e}\n{USAGE}");
                2
            }
        },
    };
    ExitCode::from(code)
}

fn run_one(opts: &Opts) -> u8 {
    let cfg = RunCfg {
        seed: opts.seed,
        rounds: rounds(&opts.workload),
        trace: opts.trace,
        setups: SETUPS,
        kernels: None,
    };
    let workload = opts.workload.as_str();
    let mut o = run_workload(workload, &cfg);
    let metrics = if opts.trace {
        let (metrics, missing) = o.per_layer();
        for name in missing {
            o.check(false, || format!("per-layer {name} was not measured"));
        }
        metrics
    } else {
        o.end_to_end()
    };
    for p in &o.problems {
        eprintln!("benchmark {workload}: FAILED {p}");
    }
    let host = Host::current();
    let report = Report {
        workload,
        seed: opts.seed,
        trace: opts.trace,
        rounds: cfg.rounds,
        metrics,
        outcome: &o,
    };
    let appended = append(opts.out.as_deref(), |w| writeln!(w, "{}", report.record_json(&host)))
        .and_then(|()| append(opts.spans.as_deref(), |w| o.tracer.write_jsonl(workload, w)));
    if let Err(e) = appended {
        eprintln!("benchmark {workload}: {e}");
        return 1;
    }
    let mut stdout = std::io::stdout().lock();
    for line in report.lines(&host) {
        let _ = writeln!(stdout, "{line}");
    }
    let _ = writeln!(stdout, "{}", report.result_json());
    let _ = stdout.flush();
    u8::from(!report.correct())
}

/// The fixed number of timed rounds of a workload.
fn rounds(name: &str) -> usize {
    match name {
        "ooo-hot" => ooo_hot::ROUNDS,
        "ladder" => ladder::ROUNDS,
        "trace-replay" => trace_replay::ROUNDS,
        "serve-mixed" => serve_mixed::ROUNDS,
        other => unreachable!("workload {other} is in BENCHMARK.json but not implemented"),
    }
}

/// Runs one workload by catalog name.
fn run_workload(name: &str, cfg: &RunCfg) -> Outcome {
    match name {
        "ooo-hot" => ooo_hot::run(cfg),
        "ladder" => ladder::run(cfg),
        "trace-replay" => trace_replay::run(cfg),
        "serve-mixed" => serve_mixed::run(cfg),
        other => unreachable!("workload {other} is in BENCHMARK.json but not implemented"),
    }
}

/// Appends to `path` (if given) through `f`.
fn append(
    path: Option<&str>,
    f: impl FnOnce(&mut std::io::BufWriter<std::fs::File>) -> std::io::Result<()>,
) -> Result<(), String> {
    let Some(path) = path else { return Ok(()) };
    let file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("{path}: {e}"))?;
    let mut w = std::io::BufWriter::new(file);
    f(&mut w).and_then(|()| w.flush()).map_err(|e| format!("{path}: {e}"))
}

/// Runs every workload in a child process of its own (so each reports its
/// own peak memory), forwarding their output, then prints one combined
/// result line with `<workload>.<metric>` keys.
fn run_all(opts: &Opts) -> u8 {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return 1;
        }
    };
    let (mut correct, mut attempted, mut failed, mut code) = (true, 0u64, 0u64, 0u8);
    let mut metrics = lis_core::JsonObj::new();
    for w in &spec::spec().workloads {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", w, "--seed", &opts.seed.to_string()])
            .args(["--trace", if opts.trace { "1" } else { "0" }]);
        if let Some(s) = &opts.spans {
            cmd.args(["--traced", s]);
        }
        if let Some(out) = &opts.out {
            cmd.args(["--out", out]);
        }
        let child = cmd.stdout(Stdio::piped()).spawn();
        let mut child = match child {
            Ok(c) => c,
            Err(e) => {
                eprintln!("benchmark: spawn {w}: {e}");
                return 1;
            }
        };
        let mut last = None;
        for line in BufReader::new(child.stdout.take().expect("stdout is piped")).lines() {
            let Ok(line) = line else { break };
            if let Some(prev) = last.replace(line) {
                println!("{prev}");
            }
        }
        let status = child.wait();
        let result = last.as_deref().and_then(|l| lis_serve::json::parse(l).ok());
        match (status, result) {
            (Ok(st), Some(v)) => {
                use lis_serve::json::Value;
                correct &= v.get("correct").and_then(Value::as_bool) == Some(true);
                attempted += v.get("attempted").and_then(Value::as_u64).unwrap_or(0);
                failed += v.get("failed").and_then(Value::as_u64).unwrap_or(0);
                if let Some(Value::Obj(ms)) = v.get("metrics") {
                    for (name, m) in ms {
                        let mut o = lis_core::JsonObj::new();
                        let value = m.get("value").and_then(spec::num).unwrap_or(f64::NAN);
                        o.raw("value", &outcome::num(value))
                            .str("unit", m.get("unit").and_then(Value::as_str).unwrap_or(""));
                        metrics.raw(&format!("{w}.{name}"), &o.finish());
                    }
                }
                if !st.success() {
                    code = 1;
                }
            }
            (status, _) => {
                eprintln!("benchmark: {w} gave no result ({status:?})");
                return 1;
            }
        }
    }
    let mut o = lis_core::JsonObj::new();
    o.bool("correct", correct)
        .u64("attempted", attempted.max(1))
        .u64("failed", failed)
        .raw("metrics", &metrics.finish());
    println!("{}", o.finish());
    code
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke(workload: &str, trace: bool) -> Vec<String> {
        let cfg = RunCfg {
            seed: 5,
            rounds: 2,
            trace,
            setups: 1,
            kernels: Some(vec!["strrev", "hash31"]),
        };
        let o = run_workload(workload, &cfg);
        assert_eq!(o.failed, 0, "{workload}: {:?}", o.problems);
        assert!(o.attempted > 0);
        let metrics = if trace {
            let (m, missing) = o.per_layer();
            assert!(missing.is_empty(), "{workload} did not measure {missing:?}");
            m
        } else {
            o.end_to_end()
        };
        for m in &metrics {
            assert!(m.value.is_finite(), "{workload} {} = {}", m.name, m.value);
        }
        if !trace {
            assert!(metrics.iter().all(|m| m.value > 0.0), "{workload}: {metrics:?}");
        }
        metrics.into_iter().map(|m| m.name).collect()
    }

    fn names(ms: &[spec::Metric]) -> Vec<String> {
        ms.iter().map(|m| m.name.clone()).collect()
    }

    #[test]
    fn in_process_workloads_emit_exactly_the_catalog_and_pass_their_checks() {
        let s = spec::spec();
        for w in ["ooo-hot", "ladder", "trace-replay"] {
            assert_eq!(smoke(w, false), names(&s.end_to_end), "{w}");
            assert_eq!(smoke(w, true), names(&s.per_layer), "{w}");
        }
    }

    #[test]
    fn every_catalog_workload_is_implemented() {
        let implemented = ["ooo-hot", "ladder", "trace-replay", "serve-mixed"];
        assert_eq!(spec::spec().workloads, implemented);
        assert!(implemented.iter().all(|w| rounds(w) >= 2), "a traced run needs two rounds");
    }

    #[test]
    fn arguments_parse_and_reject_bad_values() {
        let args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let secs = spec::spec().run_seconds.to_string();
        let o = parse(&args(&[
            "--workload",
            "ladder",
            "--seed",
            "7",
            "--seconds",
            &secs,
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!((o.workload.as_str(), o.seed, o.trace), ("ladder", 7, true));
        assert!(parse(&args(&["--seconds", "3"])).is_err(), "the run length is fixed");
        assert!(parse(&args(&["--workload", "nope"])).is_err());
        assert!(parse(&args(&["--trace", "2"])).is_err());
    }
}

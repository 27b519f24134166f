//! What one workload run measured, and how it becomes the metrics the
//! catalog names: the end-to-end set for an untraced run, the per-layer set
//! for a traced one.

use crate::common::Sample;
use crate::spans::Tracer;
use crate::spec::spec;
use crate::stats::{median, percentile, quartiles};
use lis_core::JsonObj;
use std::collections::BTreeMap;

/// One timed operation of the measured window.
#[derive(Debug, Clone, Copy)]
pub struct Op {
    /// Host nanoseconds the operation took.
    pub ns: u64,
    /// Simulated instructions it executed or consumed.
    pub insts: u64,
    /// Whether it ran with spans on.
    pub traced: bool,
}

/// Layers whose share of the measured window a traced run reports, with the
/// metric that reports it.
const SHARES: [(&str, &str); 5] = [
    ("runtime", "runtime.share"),
    ("timing", "timing.share"),
    ("trace", "trace.share"),
    ("serve", "serve.share"),
    ("bench", "bench.share"),
];

/// Per-layer times every workload measures: a zero here means the run
/// failed to measure them, not that the layer was idle.
const ALWAYS_MEASURED: [&str; 4] =
    ["asm.program_us", "analyze.preflight_us", "runtime.ns_per_inst", "bench.trace_overhead"];

/// The most problem messages kept; the failure count keeps counting.
const MAX_PROBLEMS: usize = 20;

/// Everything one workload run measured.
#[derive(Debug)]
pub struct Outcome {
    /// Spans of a traced run.
    pub tracer: Tracer,
    /// Seconds of each repetition of the set-up.
    pub setup_s: Vec<f64>,
    /// Timed operations attempted.
    pub attempted: u64,
    /// Every timed operation of a traced run (for the tracing overhead).
    pub ops: Vec<Op>,
    /// Simulated instructions per host second.
    pub sim_mips: Sample,
    /// Operations per host second.
    pub ops_per_s: Sample,
    /// Operation latencies in milliseconds, of which `op_p50_ms` is the
    /// median.
    pub op_ms: Vec<f64>,
    /// Peak resident set of the process doing the work, in KiB.
    pub rss_kb: u64,
    /// Failed checks.
    pub failed: u64,
    /// The first failed checks, described.
    pub problems: Vec<String>,
    /// FNV-64 over every simulated statistic and output of the run.
    pub digest: u64,
    /// Workload-specific numbers printed beside the metrics.
    pub details: Vec<(String, f64, &'static str)>,
    /// Per-layer values that only this workload measures.
    pub layers: Vec<(&'static str, f64)>,
}

/// One emitted metric with the samples behind it.
#[derive(Debug, Clone)]
pub struct Measured {
    /// Catalog name.
    pub name: String,
    /// Catalog unit.
    pub unit: String,
    /// The metric.
    pub value: f64,
    /// First quartile of the samples it summarizes.
    pub q1: f64,
    /// Third quartile of the samples it summarizes.
    pub q3: f64,
    /// Samples it summarizes.
    pub n: usize,
}

impl Outcome {
    /// An empty outcome; spans are kept when `trace` is set.
    pub fn new(trace: bool) -> Outcome {
        Outcome {
            tracer: Tracer::new(trace),
            setup_s: Vec::new(),
            attempted: 0,
            ops: Vec::new(),
            sim_mips: Sample::default(),
            ops_per_s: Sample::default(),
            op_ms: Vec::new(),
            rss_kb: 0,
            failed: 0,
            problems: Vec::new(),
            digest: crate::stats::FNV_OFFSET,
            details: Vec::new(),
            layers: Vec::new(),
        }
    }

    /// Counts a failed check when `ok` is false; returns `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        if !ok {
            self.failed += 1;
            if self.problems.len() < MAX_PROBLEMS {
                self.problems.push(what());
            }
        }
        ok
    }

    /// Records one timed operation. Only a traced run keeps them: an
    /// untraced run's memory must not grow with the rounds it makes.
    pub fn op(&mut self, ns: u64, insts: u64, traced: bool) {
        self.attempted += 1;
        if self.tracer.on() {
            self.ops.push(Op { ns, insts, traced });
        }
    }

    /// Records the span `name` of a call that is a whole operation, when
    /// `traced`. `start` and `ns` come from the tracer's clock.
    pub fn span(
        &mut self,
        traced: bool,
        name: &'static str,
        op: u64,
        start: u64,
        ns: u64,
        insts: u64,
    ) {
        if traced {
            self.tracer.push(name, op, None, start, start + ns, insts);
        }
    }

    /// Folds `bytes` into the run's simulation digest.
    pub fn digest(&mut self, bytes: &[u8]) {
        self.digest = crate::stats::fnv64(self.digest, bytes);
    }

    /// Adds a workload-specific number to the printed output.
    pub fn detail(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.details.push((name.into(), value, unit));
    }

    /// The end-to-end metrics, in catalog order.
    pub fn end_to_end(&self) -> Vec<Measured> {
        let lat = &self.op_ms;
        let (q1, q3) = quartiles(lat);
        let rss_mb = self.rss_kb as f64 / 1024.0;
        let values = [
            ("sim_mips", self.sim_mips),
            ("op_p50_ms", Sample { value: percentile(lat, 50.0), q1, q3, n: lat.len() }),
            ("ops_per_s", self.ops_per_s),
            ("setup_s", Sample::of(&self.setup_s)),
            ("rss_mb", Sample { value: rss_mb, q1: rss_mb, q3: rss_mb, n: 1 }),
        ];
        spec()
            .end_to_end
            .iter()
            .map(|m| {
                let &(_, s) = values
                    .iter()
                    .find(|v| v.0 == m.name)
                    .unwrap_or_else(|| panic!("no measurement for end-to-end metric {}", m.name));
                Measured {
                    name: m.name.clone(),
                    unit: m.unit.clone(),
                    value: s.value,
                    q1: s.q1,
                    q3: s.q3,
                    n: s.n,
                }
            })
            .collect()
    }

    /// The per-layer metrics, in catalog order, plus the names of those
    /// that every workload must measure but this run did not.
    pub fn per_layer(&self) -> (Vec<Measured>, Vec<String>) {
        let mut v: BTreeMap<&str, f64> = BTreeMap::new();
        let spans = &self.tracer.spans;
        let own = self.tracer.self_ns();
        // Shares of the measured window: self time of each layer inside the
        // timed operations over the operations' total time.
        let window: u64 =
            spans.iter().filter(|s| s.op > 0 && s.parent.is_none()).map(|s| s.busy_ns).sum();
        for (layer, metric) in SHARES {
            let t: u64 = spans
                .iter()
                .zip(&own)
                .filter(|(s, _)| s.op > 0 && s.layer() == layer)
                .map(|(_, &t)| t)
                .sum();
            v.insert(metric, 100.0 * t as f64 / window.max(1) as f64);
        }
        // Cost per simulated instruction of the layers that execute or
        // consume instructions.
        let per_inst = |layer: &str| {
            let (t, n) = spans
                .iter()
                .zip(&own)
                .filter(|(s, _)| s.layer() == layer && s.insts > 0)
                .fold((0u64, 0u64), |(t, n), (s, &o)| (t + o, n + s.insts));
            if n == 0 {
                0.0
            } else {
                t as f64 / n as f64
            }
        };
        let runtime_ns = per_inst("runtime");
        v.insert("runtime.ns_per_inst", runtime_ns);
        let timing_ns = per_inst("timing");
        v.insert("timing.feed_x", if runtime_ns > 0.0 { timing_ns / runtime_ns } else { 0.0 });
        let asm: Vec<f64> = spans
            .iter()
            .filter(|s| s.name == "asm.assemble")
            .map(|s| s.busy_ns as f64 / 1e3)
            .collect();
        v.insert("asm.program_us", median(&asm));
        let mips = |traced: bool| {
            let (i, t) = self
                .ops
                .iter()
                .filter(|o| o.traced == traced)
                .fold((0u64, 0u64), |(i, t), o| (i + o.insts, t + o.ns));
            i as f64 * 1e3 / t.max(1) as f64
        };
        let untraced = mips(false);
        v.insert("bench.trace_overhead", if untraced > 0.0 { mips(true) / untraced } else { 0.0 });
        for &(name, value) in &self.layers {
            v.insert(name, value);
        }

        let catalog = &spec().per_layer;
        for name in v.keys() {
            assert!(catalog.iter().any(|m| m.name == *name), "{name} is not in BENCHMARK.json");
        }
        let missing = ALWAYS_MEASURED
            .iter()
            .filter(|n| !v.get(*n).is_some_and(|x| x.is_finite() && *x > 0.0))
            .map(|n| n.to_string())
            .collect();
        let metrics = catalog
            .iter()
            .map(|m| {
                // A layer this workload never calls reports zero.
                let value = v.get(m.name.as_str()).copied().unwrap_or(0.0);
                Measured {
                    name: m.name.clone(),
                    unit: m.unit.clone(),
                    value,
                    q1: value,
                    q3: value,
                    n: 1,
                }
            })
            .collect();
        (metrics, missing)
    }
}

/// Formats a measured number with all its digits (shortest round-trip form).
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// The host a result was measured on.
#[derive(Debug, Clone)]
pub struct Host {
    /// Hardware threads available to the process.
    pub nproc: usize,
    /// CPU model name.
    pub cpu: String,
    /// Kernel release.
    pub kernel: String,
}

impl Host {
    /// Fingerprints the current host.
    pub fn current() -> Host {
        let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        let cpu = cpuinfo
            .lines()
            .find_map(|l| l.strip_prefix("model name").and_then(|r| r.split(':').nth(1)))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|| "unknown".to_string());
        let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".to_string());
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        Host { nproc, cpu, kernel }
    }

    /// The fingerprint as a JSON object.
    pub fn to_json(&self) -> String {
        let mut o = JsonObj::new();
        o.u64("nproc", self.nproc as u64).str("cpu", &self.cpu).str("kernel", &self.kernel);
        o.finish()
    }
}

/// Peak resident set (`VmHWM`) of a process in KiB: this one for `None`.
pub fn peak_rss_kb(pid: Option<u32>) -> u64 {
    let path = pid.map_or("/proc/self/status".to_string(), |p| format!("/proc/{p}/status"));
    std::fs::read_to_string(path)
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|r| r.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

/// A finished run as the benchmark reports it.
#[derive(Debug)]
pub struct Report<'a> {
    /// Workload name.
    pub workload: &'a str,
    /// Input seed.
    pub seed: u64,
    /// Whether this was the traced run.
    pub trace: bool,
    /// Timed rounds the run made.
    pub rounds: usize,
    /// The metrics the run emits.
    pub metrics: Vec<Measured>,
    /// The run's measurements.
    pub outcome: &'a Outcome,
}

impl Report<'_> {
    /// Operations attempted.
    pub fn attempted(&self) -> u64 {
        self.outcome.attempted.max(1)
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.outcome.failed == 0
    }

    /// `workload metric value unit` lines, details, and the host line.
    pub fn lines(&self, host: &Host) -> Vec<String> {
        let w = self.workload;
        let mut out: Vec<String> = self
            .metrics
            .iter()
            .map(|m| format!("{w} {} {} {}", m.name, num(m.value), m.unit))
            .collect();
        out.extend(
            self.outcome.details.iter().map(|(n, v, u)| format!("{w} detail.{n} {} {u}", num(*v))),
        );
        out.push(format!(
            "# {w}: seed={} trace={} ops={} failed={} sim_digest={:016x} nproc={} cpu=\"{}\" kernel={}",
            self.seed,
            u8::from(self.trace),
            self.outcome.attempted,
            self.outcome.failed,
            self.outcome.digest,
            host.nproc,
            host.cpu,
            host.kernel
        ));
        out
    }

    /// The result: the last line a run prints.
    pub fn result_json(&self) -> String {
        let mut metrics = JsonObj::new();
        for m in &self.metrics {
            let mut o = JsonObj::new();
            o.raw("value", &num(m.value)).str("unit", &m.unit);
            metrics.raw(&m.name, &o.finish());
        }
        let mut o = JsonObj::new();
        o.bool("correct", self.correct())
            .u64("attempted", self.attempted())
            .u64("failed", self.outcome.failed)
            .raw("metrics", &metrics.finish());
        o.finish()
    }

    /// The full record `--out` appends and `compare` reads.
    pub fn record_json(&self, host: &Host) -> String {
        let mut metrics = JsonObj::new();
        for m in &self.metrics {
            let mut o = JsonObj::new();
            o.raw("value", &num(m.value))
                .str("unit", &m.unit)
                .raw("q1", &num(m.q1))
                .raw("q3", &num(m.q3))
                .u64("n", m.n as u64);
            metrics.raw(&m.name, &o.finish());
        }
        let mut details = JsonObj::new();
        for (n, v, _) in &self.outcome.details {
            details.raw(n, &num(*v));
        }
        let mut o = JsonObj::new();
        o.str("workload", self.workload)
            .u64("seed", self.seed)
            .bool("trace", self.trace)
            .u64("rounds", self.rounds as u64)
            .raw("host", &host.to_json())
            .u64("ops", self.outcome.attempted)
            .u64("failed", self.outcome.failed)
            .bool("correct", self.correct())
            .str("sim_digest", &format!("{:016x}", self.outcome.digest))
            .raw("metrics", &metrics.finish())
            .raw("details", &details.finish());
        o.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn end_to_end_emits_exactly_the_catalog() {
        let mut o = Outcome::new(false);
        o.setup_s = vec![0.2, 0.1, 0.3];
        o.sim_mips = Sample::of(&[10.0, 12.0, 11.0]);
        o.ops_per_s = Sample::of(&[9.0, 10.0, 11.0]);
        o.op_ms = (1..=20).map(f64::from).collect();
        o.rss_kb = 2048;
        let m = o.end_to_end();
        let names: Vec<&str> = m.iter().map(|m| m.name.as_str()).collect();
        let want: Vec<&str> = spec().end_to_end.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, want);
        let get = |n: &str| m.iter().find(|m| m.name == n).unwrap().value;
        assert_eq!(get("sim_mips"), 11.0);
        assert_eq!(get("setup_s"), 0.2);
        assert_eq!(get("ops_per_s"), 10.0);
        assert_eq!(get("rss_mb"), 2.0);
        assert!(m.iter().all(|m| m.value > 0.0), "end-to-end metrics are never 0");
    }

    #[test]
    fn per_layer_emits_exactly_the_catalog_and_flags_unmeasured_times() {
        let o = Outcome::new(true);
        let (m, missing) = o.per_layer();
        let names: Vec<&str> = m.iter().map(|m| m.name.as_str()).collect();
        let want: Vec<&str> = spec().per_layer.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, want);
        assert_eq!(missing.len(), ALWAYS_MEASURED.len());
    }

    #[test]
    fn result_line_has_exactly_four_keys() {
        let mut o = Outcome::new(false);
        o.op(5, 1, false);
        o.check(false, || "x".into());
        let r = Report {
            workload: "w",
            seed: 1,
            trace: false,
            rounds: 1,
            metrics: o.end_to_end(),
            outcome: &o,
        };
        let v = lis_serve::json::parse(&r.result_json()).unwrap();
        let lis_serve::json::Value::Obj(keys) = &v else { panic!("not an object") };
        let keys: Vec<&str> = keys.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(v.get("correct").and_then(|c| c.as_bool()), Some(false));
        assert_eq!(v.get("failed").and_then(|c| c.as_u64()), Some(1));
    }

    #[test]
    fn numbers_keep_all_digits() {
        assert_eq!(num(11.843920348123), "11.843920348123");
        assert_eq!(num(f64::NAN), "null");
    }
}

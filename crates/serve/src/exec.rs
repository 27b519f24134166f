//! Request execution: each protocol operation mapped onto the existing
//! toolkit (`lis_runtime`, `lis_harness`, `lis_trace`) with the
//! CLI's exit-code vocabulary as the per-request `status`.
//!
//! The shared [`ArtifactStore`] is consulted only by clean `run` requests:
//! a warm hit seeds the simulator before execution, and a clean cold run
//! (halted, no chaos ever armed, no fallbacks, no demotions) publishes its
//! caches for later sessions of the same key. Chaos requests never touch
//! the store in either direction — their caches follow per-session
//! invalidation rules, and a translate-poisoned superblock is cached
//! *poisoned by design*, so the export side is double-gated (handler policy
//! here, sticky taint flag in the engine).

use crate::protocol::Request;
use lis_core::JsonObj;
use lis_harness::{chaos_run, verify_all, verify_isa, ChaosConfig, ChaosOutcome, VerifyConfig};
use lis_runtime::{ArtifactKey, ArtifactStore, Backend, ChaosPlan, SimStop, Simulator};
use std::sync::Arc;
use std::time::Duration;

/// Shared context a request executes against.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// The daemon-wide artifact store.
    pub store: Arc<ArtifactStore>,
    /// Per-request wall-clock deadline, if the daemon was started with one.
    pub deadline: Option<Duration>,
}

/// The result of executing one request: a CLI-vocabulary status code, a
/// rendered JSON payload for the response's `result` field (may be empty),
/// and an optional error message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outcome {
    /// 0 clean, 1 error, 2 usage/divergence, 3 storm/deadline, 4 corrupt
    /// trace, 5 lint.
    pub status: u8,
    /// Rendered JSON object, or empty.
    pub payload: String,
    /// Human-readable error, present whenever `status != 0`.
    pub error: Option<String>,
}

impl Outcome {
    fn ok(payload: String) -> Outcome {
        Outcome { status: 0, payload, error: None }
    }

    fn fail(status: u8, error: impl Into<String>) -> Outcome {
        Outcome { status, payload: String::new(), error: Some(error.into()) }
    }
}

/// Executes one request. Infallible by construction: every failure becomes
/// a nonzero-status [`Outcome`] (panics are caught one layer up).
pub fn execute(req: &Request, ctx: &Ctx) -> Outcome {
    match req {
        Request::Run { isa, kernel, src, buildset, backend, max } => {
            exec_run(ctx, isa, kernel.as_deref(), src.as_deref(), buildset, backend, *max)
        }
        Request::Verify { isa, full } => exec_verify(isa, *full),
        Request::Chaos { isa, kernel, buildset, backend, seed, period, runs, unmap, translate } => {
            exec_chaos(isa, kernel, buildset, backend, *seed, *period, *runs, *unmap, *translate)
        }
        Request::SweepCell { kernels, backends, timings, max } => {
            exec_sweep_cell(kernels, backends, timings, *max)
        }
        Request::TraceReplay { path, shards, timings } => exec_trace_replay(path, *shards, timings),
        // Handled at the session layer; reaching here is a daemon bug.
        Request::Status | Request::Shutdown => Outcome::fail(1, "internal: unroutable request"),
    }
}

fn backend_of(name: &str) -> Result<Backend, Outcome> {
    name.parse().map_err(|e| Outcome::fail(2, e))
}

fn spec_of(isa: &str) -> Result<&'static lis_core::IsaSpec, Outcome> {
    if lis_workloads::ISAS.contains(&isa) {
        Ok(lis_workloads::spec_of(isa))
    } else {
        Err(Outcome::fail(2, format!("unknown ISA `{isa}` (alpha|arm|ppc)")))
    }
}

fn buildset_of(name: &str) -> Result<lis_core::BuildsetDef, Outcome> {
    lis_core::find_buildset(name)
        .copied()
        .ok_or_else(|| Outcome::fail(2, format!("unknown buildset `{name}`")))
}

fn image_of(isa: &str, kernel: Option<&str>, src: Option<&str>) -> Result<lis_mem::Image, Outcome> {
    match (kernel, src) {
        (Some(k), None) => lis_workloads::kernel(isa, k)
            .ok_or_else(|| Outcome::fail(2, format!("unknown kernel `{k}`")))?
            .assemble()
            .map_err(|e| Outcome::fail(1, e.to_string())),
        (None, Some(s)) => {
            lis_workloads::assemble_source(isa, s).map_err(|e| Outcome::fail(1, e.to_string()))
        }
        _ => Err(Outcome::fail(2, "need exactly one of kernel|src")),
    }
}

fn build_sim(
    spec: &'static lis_core::IsaSpec,
    bs: lis_core::BuildsetDef,
) -> Result<Simulator, Outcome> {
    Simulator::new(spec, bs).map_err(|e| match e {
        lis_runtime::BuildError::Lint { .. } => Outcome::fail(5, e.to_string()),
        other => Outcome::fail(1, other.to_string()),
    })
}

fn exec_run(
    ctx: &Ctx,
    isa: &str,
    kernel: Option<&str>,
    src: Option<&str>,
    buildset: &str,
    backend: &str,
    max: u64,
) -> Outcome {
    let (spec, bs, backend, image) =
        match (spec_of(isa), buildset_of(buildset), backend_of(backend)) {
            (Ok(s), Ok(b), Ok(be)) => match image_of(isa, kernel, src) {
                Ok(img) => (s, b, be, img),
                Err(o) => return o,
            },
            (Err(o), _, _) | (_, Err(o), _) | (_, _, Err(o)) => return o,
        };
    let key = ArtifactKey::new(isa, &image, bs.name, backend);
    let shared = ctx.store.get(&key);

    let mut sim = match build_sim(spec, bs) {
        Ok(s) => s,
        Err(o) => return o,
    };
    sim.set_backend(backend);
    if let Some(d) = ctx.deadline {
        sim.set_deadline(d);
    }
    if let Err(f) = sim.load_program(&image) {
        return Outcome::fail(1, f.to_string());
    }
    let seeded = match &shared {
        // A mismatch here means the store was fed a colliding key — surface
        // it instead of silently running cold.
        Some(art) => match sim.seed_artifacts(art) {
            Ok(n) => n as u64,
            Err(e) => return Outcome::fail(1, format!("artifact store: {e}")),
        },
        None => 0,
    };

    match sim.run_to_halt(max) {
        Ok(summary) => {
            // Publish a clean cold run's caches: halted, never chaos-armed
            // (run requests can't arm chaos, but the taint gate also guards
            // engine reuse bugs), no trust degradations.
            if shared.is_none()
                && summary.halted
                && sim.stats.fallback_blocks == 0
                && sim.demotion_events().is_empty()
            {
                if let Some(art) = sim.export_artifacts() {
                    ctx.store.insert(key, Arc::new(art));
                }
            }
            let mut o = JsonObj::new();
            o.i64("exit_code", summary.exit_code)
                .bool("halted", summary.halted)
                .bool("warm", shared.is_some())
                .u64("seeded", seeded)
                .str("stdout", &String::from_utf8_lossy(sim.stdout()))
                .raw("stats", &sim.stats.to_json());
            Outcome::ok(o.finish())
        }
        Err(SimStop::Deadline) => Outcome::fail(3, "wall-clock deadline expired"),
        Err(stop) => Outcome::fail(1, stop.to_string()),
    }
}

fn exec_verify(isa: &str, full: bool) -> Outcome {
    let cfg = if full { VerifyConfig::full() } else { VerifyConfig::default() };
    let report = if isa.is_empty() {
        verify_all(&cfg)
    } else {
        if let Err(o) = spec_of(isa) {
            return o;
        }
        verify_isa(isa, &cfg)
    };
    let mut o = JsonObj::new();
    o.u64("jobs", report.jobs as u64)
        .u64("insts", report.insts)
        .u64("divergences", report.failures.len() as u64)
        .bool("ok", report.ok());
    let payload = o.finish();
    if report.ok() {
        Outcome::ok(payload)
    } else {
        let first =
            report.failures.first().map(|f| f.job.clone()).unwrap_or_else(|| "?".to_string());
        Outcome {
            status: 2,
            payload,
            error: Some(format!("{} divergence(s); first: {first}", report.failures.len())),
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn exec_chaos(
    isa: &str,
    kernel: &str,
    buildset: &str,
    backend: &str,
    seed: u64,
    period: u64,
    runs: u64,
    unmap: bool,
    translate: bool,
) -> Outcome {
    let (spec, bs, backend) = match (spec_of(isa), buildset_of(buildset), backend_of(backend)) {
        (Ok(s), Ok(b), Ok(be)) => (s, b, be),
        (Err(o), _, _) | (_, Err(o), _) | (_, _, Err(o)) => return o,
    };
    let image = match image_of(isa, Some(kernel), None) {
        Ok(img) => img,
        Err(o) => return o,
    };
    let cfg = ChaosConfig::default();
    let mut worst = 0u8;
    let (mut survived, mut storms, mut deadlines, mut events) = (0u64, 0u64, 0u64, 0u64);
    for i in 0..runs {
        let plan = ChaosPlan {
            seed: seed.wrapping_add(i),
            flip_period: Some(period),
            data_fault_period: Some(period),
            unmap_period: unmap.then_some(period),
            translate_fault_period: translate.then_some(period),
            start: 0,
            max_events: 0,
        };
        let report = match chaos_run(spec, &image, bs, backend, plan, &cfg) {
            Ok(r) => r,
            Err(e) => return Outcome::fail(1, e.to_string()),
        };
        events += report.events.len() as u64;
        match report.outcome {
            ChaosOutcome::Halted { .. } | ChaosOutcome::Budget => survived += 1,
            ChaosOutcome::Storm => {
                storms += 1;
                worst = worst.max(3);
            }
            ChaosOutcome::Deadline => {
                deadlines += 1;
                worst = worst.max(3);
            }
        }
    }
    let mut o = JsonObj::new();
    o.u64("runs", runs)
        .u64("survived", survived)
        .u64("storms", storms)
        .u64("deadlines", deadlines)
        .u64("events", events);
    let payload = o.finish();
    if worst == 0 {
        Outcome::ok(payload)
    } else {
        Outcome {
            status: worst,
            payload,
            error: Some(format!("{storms} fault storm(s), {deadlines} deadline(s)")),
        }
    }
}

fn exec_sweep_cell(kernels: &[String], backends: &str, timings: &[String], max: u64) -> Outcome {
    let backends = match Backend::select(backends) {
        Ok(b) => b,
        Err(e) => return Outcome::fail(2, e),
    };
    let timings = match lis_harness::sweep::resolve_timings(timings) {
        Ok(t) => t,
        Err(e) => return Outcome::fail(2, e),
    };
    // One worker: the scheduler already provides request-level parallelism,
    // and the sweep JSON is jobs-invariant (that is the point of the
    // byte-identity check the CI job runs against `lis sweep`).
    let cfg = lis_harness::sweep::SweepConfig {
        jobs: 1,
        kernels: kernels.to_vec(),
        backends,
        timings,
        max_insts: max,
        ..lis_harness::sweep::SweepConfig::default()
    };
    let report = match lis_harness::sweep::run_sweep(&cfg) {
        Ok(r) => r,
        Err(e) => return Outcome::fail(2, e),
    };
    let bad = report
        .cells
        .iter()
        .filter(|c| {
            c.deadline_expired
                || c.fault.is_some()
                || !c.halted
                || c.exit_code != 0
                || c.crashes > 0
        })
        .count();
    let mut o = JsonObj::new();
    o.u64("cells", report.cells.len() as u64)
        .u64("bad_cells", bad as u64)
        // The exact bytes `lis sweep` would write (minus the trailing
        // newline), shipped as a string so a client can byte-compare.
        .str("sweep", &lis_harness::sweep::to_json(&report));
    let payload = o.finish();
    if bad == 0 {
        Outcome::ok(payload)
    } else {
        Outcome { status: 3, payload, error: Some(format!("{bad} cell(s) failed")) }
    }
}

fn exec_trace_replay(path: &str, shards: usize, timings: &[String]) -> Outcome {
    let presets = match lis_harness::sweep::resolve_timings(timings) {
        Ok(t) => t,
        Err(e) => return Outcome::fail(2, e),
    };
    let file = match std::fs::File::open(path) {
        Ok(f) => f,
        Err(e) => return Outcome::fail(1, format!("{path}: {e}")),
    };
    let trace = match lis_trace::Trace::read_from(std::io::BufReader::new(file)) {
        Ok(t) => t,
        Err(e) => return Outcome::fail(4, format!("trace integrity failure: {e}")),
    };
    let spec = match spec_of(&trace.meta.isa) {
        Ok(s) => s,
        Err(o) => return o,
    };
    // The trace is read once; each preset is a separate re-timing pass over
    // the same recording. `report` stays the first preset's report so
    // single-preset clients keep their shape; `reports` carries the whole
    // set tagged by preset name.
    let mut reports = Vec::with_capacity(presets.len());
    for preset in &presets {
        let cfg = lis_trace::ReplayConfig {
            shards,
            core: lis_timing::CoreConfig { timing: *preset, ..Default::default() },
            ..Default::default()
        };
        match lis_trace::replay_ooo(spec, &trace, &cfg) {
            Ok(report) => reports.push((preset.name, report)),
            Err(e) => return Outcome::fail(4, format!("trace integrity failure: {e}")),
        }
    }
    let mut o = JsonObj::new();
    o.u64("insts", reports[0].1.insts)
        .u64("shards", shards as u64)
        .raw("report", &reports[0].1.to_json());
    if reports.len() > 1 {
        let mut arr = String::from("[");
        for (i, (name, report)) in reports.iter().enumerate() {
            if i > 0 {
                arr.push(',');
            }
            let mut ro = JsonObj::new();
            ro.str("timing", name).raw("report", &report.to_json());
            arr.push_str(&ro.finish());
        }
        arr.push(']');
        o.raw("reports", &arr);
    }
    Outcome::ok(o.finish())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> Ctx {
        Ctx { store: Arc::new(ArtifactStore::new()), deadline: None }
    }

    fn run_req(isa: &str, kernel: &str, buildset: &str, backend: &str) -> Request {
        Request::Run {
            isa: isa.into(),
            kernel: Some(kernel.into()),
            src: None,
            buildset: buildset.into(),
            backend: backend.into(),
            max: 100_000_000,
        }
    }

    #[test]
    fn run_cold_then_warm_shares_translations() {
        let ctx = ctx();
        let req = run_req("alpha", "gcd", "block-all", "compiled");
        let cold = execute(&req, &ctx);
        assert_eq!(cold.status, 0, "{:?}", cold.error);
        assert!(cold.payload.contains(r#""warm":false"#), "{}", cold.payload);
        assert!(cold.payload.contains(r#""seeded":0"#));

        let warm = execute(&req, &ctx);
        assert_eq!(warm.status, 0);
        assert!(warm.payload.contains(r#""warm":true"#), "{}", warm.payload);
        assert!(warm.payload.contains(r#""blocks_built":0"#), "{}", warm.payload);
        assert!(!warm.payload.contains(r#""seeded":0"#), "warm run adopted blocks");

        let s = ctx.store.stats();
        assert_eq!(s.entries, 1);
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 1);

        // Same outputs both ways.
        let stdout = |p: &str| {
            let v = crate::json::parse(p).expect("payload parses");
            v.get("stdout").and_then(crate::json::Value::as_str).map(str::to_string)
        };
        assert_eq!(stdout(&cold.payload), stdout(&warm.payload));
    }

    #[test]
    fn run_usage_errors_are_status_2() {
        let ctx = ctx();
        for req in [
            run_req("vax", "gcd", "block-all", "compiled"),
            run_req("alpha", "nope", "block-all", "compiled"),
            run_req("alpha", "gcd", "block-everything", "compiled"),
            run_req("alpha", "gcd", "block-all", "jit"),
        ] {
            let out = execute(&req, &ctx);
            assert_eq!(out.status, 2, "{req:?}");
            assert!(out.error.is_some());
        }
        assert_eq!(ctx.store.stats().entries, 0, "failed requests publish nothing");
    }

    #[test]
    fn chaos_never_touches_the_store() {
        let ctx = ctx();
        let req = Request::Chaos {
            isa: "alpha".into(),
            kernel: "strrev".into(),
            buildset: "block-all".into(),
            backend: "compiled".into(),
            seed: 0xC0FFEE,
            period: 200,
            runs: 2,
            unmap: false,
            translate: true,
        };
        let out = execute(&req, &ctx);
        assert!(out.status == 0 || out.status == 3, "{out:?}");
        assert!(out.payload.contains(r#""runs":2"#));
        let s = ctx.store.stats();
        assert_eq!(
            (s.hits, s.misses, s.inserts, s.entries),
            (0, 0, 0, 0),
            "chaos must bypass the shared store entirely"
        );
    }

    #[test]
    fn verify_quick_single_isa_is_clean() {
        let out = exec_verify("alpha", false);
        assert_eq!(out.status, 0, "{:?}", out.error);
        assert!(out.payload.contains(r#""divergences":0"#));
        assert!(out.payload.contains(r#""ok":true"#));
    }

    #[test]
    fn trace_replay_rejects_garbage_with_status_4() {
        let dir = std::env::temp_dir().join("lis-serve-exec-test");
        std::fs::create_dir_all(&dir).expect("tmpdir");
        let path = dir.join("garbage.lst");
        std::fs::write(&path, b"not a trace at all").expect("write");
        let out = exec_trace_replay(path.to_str().expect("utf8 path"), 1, &[]);
        assert_eq!(out.status, 4);
        let missing = exec_trace_replay("/nonexistent/trace.lst", 1, &[]);
        assert_eq!(missing.status, 1);
        let bad_preset = exec_trace_replay("/nonexistent/trace.lst", 1, &["nope".into()]);
        assert_eq!(bad_preset.status, 2, "unknown preset is usage, checked first");
    }

    #[test]
    fn trace_replay_retimes_one_recording_under_several_presets() {
        let dir = std::env::temp_dir().join("lis-serve-exec-test");
        std::fs::create_dir_all(&dir).expect("tmpdir");
        let path = dir.join("retimed.lst");
        let image = lis_workloads::kernel("alpha", "gcd")
            .expect("bundled kernel")
            .assemble()
            .expect("assembles");
        let file = std::fs::File::create(&path).expect("create");
        lis_trace::record(
            lis_workloads::spec_of("alpha"),
            &image,
            std::io::BufWriter::new(file),
            &lis_trace::RecordOptions::default(),
        )
        .expect("records");

        let out = exec_trace_replay(
            path.to_str().expect("utf8 path"),
            1,
            &["classic".into(), "minimal".into()],
        );
        assert_eq!(out.status, 0, "{:?}", out.error);
        assert!(out.payload.contains(r#""timing":"classic""#), "{}", out.payload);
        assert!(out.payload.contains(r#""timing":"minimal""#), "{}", out.payload);
        let v = crate::json::parse(&out.payload).expect("payload parses");
        let reports = v.get("reports").and_then(crate::json::Value::as_arr).expect("reports");
        assert_eq!(reports.len(), 2);
        let cycles = |r: &crate::json::Value| {
            r.get("report").and_then(|p| p.get("cycles")).and_then(crate::json::Value::as_u64)
        };
        let insts = |r: &crate::json::Value| {
            r.get("report").and_then(|p| p.get("insts")).and_then(crate::json::Value::as_u64)
        };
        assert_eq!(insts(&reports[0]), insts(&reports[1]), "same functional recording");
        assert_ne!(
            cycles(&reports[0]),
            cycles(&reports[1]),
            "presets must change the cycle count on gcd"
        );
    }
}

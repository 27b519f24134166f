//! The parallel full-matrix sweep engine behind `lis sweep`.
//!
//! The paper's core result is a *matrix* — 12 standard buildsets × 3 ISAs,
//! with detail costing up to 14.4× — and this module produces that whole
//! matrix in one command. Every (buildset × ISA × kernel × backend) cell is
//! an isolated job: a fresh simulator, run to halt, its [`SimStats`]
//! captured. Jobs are distributed over a pool of `std::thread` workers
//! pulling from a shared atomic counter (work stealing without a dependency)
//! and the per-cell results are re-assembled in matrix order, so the output
//! is independent of scheduling.
//!
//! ## Why ratios are bit-identical
//!
//! The sweep's headline table is *detail-cost ratios*, not MIPS. Each cell's
//! cost is [`SimStats::detail_units`] per retired instruction — interface
//! calls + published field stores + operand-set publications + undo records,
//! all deterministic counters — normalized to the `block-min` cell of the
//! same (ISA, kernel, backend) block, the paper's 1.0 baseline. Because no
//! wall-clock enters the metric, `BENCH_sweep.json` is byte-identical across
//! repeated runs, hosts, and any `--jobs` count. Wall-clock speed is the
//! repository benchmark's job (`benchmark/`), not the sweep's.

use crate::semantic_rank;
use lis_core::{BuildsetDef, JsonObj, STANDARD_BUILDSETS};
use lis_harness::Watchdog;
use lis_runtime::{Backend, SimStats, SimStop, Simulator};
use lis_timing::{run_functional_first_ooo, CoreConfig, OooConfig, TimingConfig, TimingReport};
use lis_workloads::{spec_of, suite_of, ISAS};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::Duration;

/// The buildset every block is normalized against (the paper's 1.0 row).
pub const BASELINE_BUILDSET: &str = "block-min";

/// Instructions between watchdog checks when driving one cell.
const CELL_STRIDE: u64 = 65_536;

/// Configuration of one sweep.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Worker threads; 0 = one per available core. Always clamped to the
    /// number of cells.
    pub jobs: usize,
    /// Kernel subset (empty = the full suite). Names are validated before
    /// any thread spawns.
    pub kernels: Vec<String>,
    /// Backends to sweep (default: compiled only).
    pub backends: Vec<Backend>,
    /// Per-cell instruction budget (kernels halt far below it; the budget
    /// is a runaway guard, not a truncation).
    pub max_insts: u64,
    /// Per-cell wall-clock watchdog; a wedged cell is marked, not hung on.
    pub deadline: Option<Duration>,
    /// Extra attempts for a cell whose run panics. Each retry runs one rung
    /// down the backend demotion ladder after a deterministic backoff; a
    /// cell that exhausts the budget is reported crashed, and the pool
    /// survives either way.
    pub retries: u32,
    /// Test hook: an `isa/buildset/kernel/backend` label whose first attempt
    /// deliberately panics, proving the isolation path end to end (the CI
    /// smoke test sets this through `LIS_SWEEP_PANIC`). With several timing
    /// presets the label matches one cell per preset.
    pub panic_cell: Option<String>,
    /// Timing presets to cross with the matrix (default: `classic` only).
    /// Every cell re-times its kernel under its preset's out-of-order model;
    /// the functional counters are preset-independent by construction.
    pub timings: Vec<TimingConfig>,
}

impl Default for SweepConfig {
    fn default() -> SweepConfig {
        SweepConfig {
            jobs: 0,
            kernels: Vec::new(),
            backends: vec![Backend::Compiled],
            max_insts: 50_000_000,
            deadline: Some(Duration::from_secs(120)),
            retries: 2,
            panic_cell: None,
            timings: vec![TimingConfig::CLASSIC],
        }
    }
}

/// One cell of the sweep matrix, before execution.
#[derive(Debug, Clone, Copy)]
pub struct SweepCell {
    /// ISA name.
    pub isa: &'static str,
    /// Interface buildset.
    pub buildset: BuildsetDef,
    /// Kernel name.
    pub kernel: &'static str,
    /// Execution backend.
    pub backend: Backend,
    /// Timing preset for the cell's out-of-order re-timing.
    pub timing: TimingConfig,
}

/// One executed cell.
#[derive(Debug, Clone)]
pub struct CellResult {
    /// ISA name.
    pub isa: &'static str,
    /// Buildset name.
    pub buildset: &'static str,
    /// Kernel name.
    pub kernel: &'static str,
    /// Execution backend.
    pub backend: Backend,
    /// Final engine statistics.
    pub stats: SimStats,
    /// Whether the kernel ran to completion.
    pub halted: bool,
    /// Guest exit code.
    pub exit_code: i64,
    /// Whether the per-cell watchdog expired.
    pub deadline_expired: bool,
    /// Fault that ended the run, rendered, if any.
    pub fault: Option<String>,
    /// Deterministic detail-work units per retired instruction.
    pub units_per_inst: f64,
    /// `units_per_inst` normalized to this block's `block-min` cell.
    pub ratio: f64,
    /// Timing preset the cell was re-timed under.
    pub timing: TimingConfig,
    /// Out-of-order model report under `timing` (absent when the functional
    /// pass faulted, wedged, or crashed).
    pub timing_report: Option<TimingReport>,
    /// Attempts that panicked before this result (0 for a clean cell).
    pub crashes: u32,
    /// Rendered crash messages, one per failed attempt.
    pub crash: Option<String>,
}

/// One row of the aggregated ratio table: a (buildset, backend) pair with
/// per-ISA geometric means over the kernel set.
#[derive(Debug, Clone)]
pub struct RatioRow {
    /// Buildset name.
    pub buildset: &'static str,
    /// Execution backend.
    pub backend: Backend,
    /// Geometric-mean detail units per instruction, indexed like [`ISAS`].
    pub units_per_inst: [f64; 3],
    /// Geometric-mean ratio vs `block-min`, indexed like [`ISAS`].
    pub ratio: [f64; 3],
}

/// Everything one sweep produced.
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// Per-cell results, in matrix order (backend, ISA, buildset, kernel).
    pub cells: Vec<CellResult>,
    /// Aggregated ratio table, one row per (buildset, backend).
    pub table: Vec<RatioRow>,
    /// Kernels actually swept.
    pub kernels: Vec<&'static str>,
    /// Backends actually swept.
    pub backends: Vec<Backend>,
    /// Timing presets actually swept.
    pub timings: Vec<TimingConfig>,
    /// Instruction budget per cell.
    pub max_insts: u64,
    /// Worker threads used.
    pub jobs: usize,
}

/// Resolves a requested job count against the cell count: 0 means one per
/// available core, and the result is always within `[1, cells]`. The policy
/// lives in [`lis_harness::resolve_jobs`] so the sweep pool and the service
/// scheduler share one derivation; this thin alias keeps the historical
/// bench-crate entry point.
pub fn resolve_jobs(requested: usize, cells: usize) -> usize {
    lis_harness::resolve_jobs(requested, cells)
}

/// Validates a kernel subset against the suite (which is identical across
/// ISAs by construction). Empty means the full suite.
///
/// # Errors
///
/// A human-readable message naming the unknown kernel and the valid names.
pub fn resolve_kernels(requested: &[String]) -> Result<Vec<&'static str>, String> {
    let all: Vec<&'static str> = suite_of("alpha").iter().map(|w| w.name).collect();
    if requested.is_empty() {
        return Ok(all);
    }
    let mut out = Vec::with_capacity(requested.len());
    for k in requested {
        match all.iter().find(|n| **n == k.as_str()) {
            Some(n) => out.push(*n),
            None => return Err(format!("unknown kernel '{k}' (valid: {})", all.join(", "))),
        }
    }
    Ok(out)
}

/// Parses a comma-separated timing-preset list against the catalog. Empty
/// means `classic` only.
///
/// # Errors
///
/// A human-readable message naming the unknown preset and the valid names.
pub fn resolve_timings(requested: &[String]) -> Result<Vec<TimingConfig>, String> {
    if requested.is_empty() {
        return Ok(vec![TimingConfig::CLASSIC]);
    }
    let mut out = Vec::with_capacity(requested.len());
    for name in requested {
        match TimingConfig::named(name) {
            Some(t) => out.push(t),
            None => {
                return Err(format!(
                    "unknown timing preset '{name}' (valid: {})",
                    TimingConfig::preset_names()
                ))
            }
        }
    }
    Ok(out)
}

/// Builds the full cell list in canonical matrix order: the timing preset is
/// the outermost axis, so a one-preset sweep keeps the historical order.
pub fn sweep_cells(
    kernels: &[&'static str],
    backends: &[Backend],
    timings: &[TimingConfig],
) -> Vec<SweepCell> {
    let mut cells = Vec::with_capacity(
        timings.len() * backends.len() * ISAS.len() * STANDARD_BUILDSETS.len() * kernels.len(),
    );
    for &timing in timings {
        for &backend in backends {
            for isa in ISAS {
                for &buildset in &STANDARD_BUILDSETS {
                    for &kernel in kernels {
                        cells.push(SweepCell { isa, buildset, kernel, backend, timing });
                    }
                }
            }
        }
    }
    cells
}

/// Canonical `isa/buildset/kernel/backend` label of a cell.
fn cell_label(cell: &SweepCell) -> String {
    format!("{}/{}/{}/{}", cell.isa, cell.buildset.name, cell.kernel, cell.backend.name())
}

/// FNV-1a over the cell label: a stable backoff seed that depends only on
/// the cell's identity, never on scheduling (std's `DefaultHasher` is not
/// guaranteed stable across releases).
fn cell_seed(label: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in label.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Runs one isolated cell: fresh simulator, run to halt under the budget and
/// the per-cell watchdog (the same [`Watchdog`] the chaos harness uses).
/// `attempt` > 0 is a retry after a panic and runs that many rungs down the
/// backend demotion ladder — a crash in backend machinery must not cost the
/// cell when a simpler backend can still produce it.
fn run_cell(cell: &SweepCell, cfg: &SweepConfig, attempt: u32) -> CellResult {
    let label = cell_label(cell);
    if attempt == 0 && cfg.panic_cell.as_deref() == Some(label.as_str()) {
        panic!("deliberate panic in cell {label}");
    }
    let mut backend = cell.backend;
    for _ in 0..attempt {
        if let Some(b) = backend.demoted() {
            backend = b;
        }
    }
    let image = lis_workloads::kernel(cell.isa, cell.kernel)
        .expect("kernel validated before dispatch")
        .assemble()
        .expect("suite kernels assemble");
    let mut sim =
        Simulator::new(spec_of(cell.isa), cell.buildset).expect("standard buildsets are valid");
    sim.set_backend(backend);
    sim.load_program(&image).expect("suite kernels load");

    let mut watchdog = Watchdog::new(cfg.deadline);
    let mut deadline_expired = false;
    let mut fault = None;
    loop {
        if sim.state.halted || sim.stats.insts >= cfg.max_insts {
            break;
        }
        if watchdog.expired() {
            deadline_expired = true;
            break;
        }
        let budget = CELL_STRIDE.min(cfg.max_insts - sim.stats.insts);
        match sim.run_to_halt(budget) {
            Ok(_) => break,
            Err(SimStop::MaxInsts) => continue,
            Err(SimStop::Deadline) => {
                deadline_expired = true;
                break;
            }
            Err(SimStop::Fault(f)) => {
                fault = Some(f.to_string());
                break;
            }
            Err(other) => {
                fault = Some(format!("{other:?}"));
                break;
            }
        }
    }
    let stats = sim.stats;
    let halted = sim.state.halted;
    let exit_code = sim.state.exit_code;
    let units_per_inst =
        if stats.insts == 0 { 0.0 } else { stats.detail_units() as f64 / stats.insts as f64 };
    // Re-time the kernel under the cell's preset: a separate functional-first
    // out-of-order pass whose component selection is the only variable. A
    // pure function of (ISA, kernel, preset) — deterministic across jobs and
    // hosts like every other counter in the cell.
    let timing_report = if halted && fault.is_none() && !deadline_expired {
        let core = CoreConfig { timing: cell.timing, ..CoreConfig::default() };
        run_functional_first_ooo(spec_of(cell.isa), &image, &core, &OooConfig::default()).ok()
    } else {
        None
    };
    CellResult {
        isa: cell.isa,
        buildset: cell.buildset.name,
        kernel: cell.kernel,
        backend: cell.backend,
        stats,
        halted,
        exit_code,
        deadline_expired,
        fault,
        units_per_inst,
        ratio: 0.0,
        timing: cell.timing,
        timing_report,
        crashes: 0,
        crash: None,
    }
}

/// [`run_cell`] under panic isolation: up to `1 + retries` attempts with
/// deterministic backoff, each retry one backend rung lower. A cell that
/// exhausts the budget becomes a structured crashed result — the pool and
/// the rest of the matrix are never at risk.
fn run_cell_isolated(cell: &SweepCell, cfg: &SweepConfig) -> CellResult {
    let label = cell_label(cell);
    let (result, attempts) =
        lis_harness::run_with_retry(cfg.retries, cell_seed(&label), |attempt| {
            run_cell(cell, cfg, attempt)
        });
    let crashes = attempts.len() as u32;
    let crash = if attempts.is_empty() { None } else { Some(attempts.join("; ")) };
    match result {
        Some(mut r) => {
            r.crashes = crashes;
            r.crash = crash;
            r
        }
        None => CellResult {
            isa: cell.isa,
            buildset: cell.buildset.name,
            kernel: cell.kernel,
            backend: cell.backend,
            stats: SimStats::default(),
            halted: false,
            exit_code: 0,
            deadline_expired: false,
            fault: None,
            units_per_inst: 0.0,
            ratio: 0.0,
            timing: cell.timing,
            timing_report: None,
            crashes,
            crash,
        },
    }
}

fn geomean(vals: &[f64]) -> f64 {
    if vals.is_empty() {
        return 0.0;
    }
    (vals.iter().map(|v| v.max(f64::MIN_POSITIVE).ln()).sum::<f64>() / vals.len() as f64).exp()
}

/// Runs the whole sweep: builds the matrix, executes every cell across the
/// worker pool, normalizes ratios, and aggregates the table.
///
/// # Errors
///
/// A usage-level message (unknown kernel, empty backend list) before any
/// work starts; cell-level trouble (fault, deadline) is recorded in the
/// cell, never an error.
pub fn run_sweep(cfg: &SweepConfig) -> Result<SweepReport, String> {
    if cfg.backends.is_empty() {
        return Err("no backends selected".into());
    }
    if cfg.timings.is_empty() {
        return Err("no timing presets selected".into());
    }
    let kernels = resolve_kernels(&cfg.kernels)?;
    let cells = sweep_cells(&kernels, &cfg.backends, &cfg.timings);
    let jobs = resolve_jobs(cfg.jobs, cells.len());

    // Work sharing: workers pull the next cell index from a shared counter,
    // so a slow cell (step-all-spec) never serializes the fast ones behind
    // it. Results carry their index and are re-sorted into matrix order —
    // the output never depends on which worker ran what.
    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, CellResult)>();
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            let tx = tx.clone();
            let next = &next;
            let cells = &cells;
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= cells.len() {
                    break;
                }
                if tx.send((i, run_cell_isolated(&cells[i], cfg))).is_err() {
                    break;
                }
            });
        }
    });
    drop(tx);
    let mut indexed: Vec<(usize, CellResult)> = rx.into_iter().collect();
    indexed.sort_by_key(|(i, _)| *i);
    let mut results: Vec<CellResult> = indexed.into_iter().map(|(_, r)| r).collect();

    // Normalize: each (ISA, kernel, backend, timing) block against its own
    // block-min cell — the paper's 1.0 baseline. (The functional counters
    // are preset-independent; keying on the preset keeps each slice
    // self-contained anyway.)
    let mut baseline: HashMap<(&str, &str, &str, &str), f64> = HashMap::new();
    for c in &results {
        if c.buildset == BASELINE_BUILDSET {
            baseline.insert((c.isa, c.kernel, c.backend.name(), c.timing.name), c.units_per_inst);
        }
    }
    for c in &mut results {
        let base = baseline
            .get(&(c.isa, c.kernel, c.backend.name(), c.timing.name))
            .copied()
            .unwrap_or_default();
        c.ratio = if base > 0.0 { c.units_per_inst / base } else { 0.0 };
    }

    // Aggregate: geometric mean over kernels per (buildset, backend, ISA).
    let mut table = Vec::new();
    for &backend in &cfg.backends {
        for bs in &STANDARD_BUILDSETS {
            let mut upi = [0.0f64; 3];
            let mut ratio = [0.0f64; 3];
            for (k, isa) in ISAS.iter().enumerate() {
                let block: Vec<&CellResult> = results
                    .iter()
                    .filter(|c| c.buildset == bs.name && c.isa == *isa && c.backend == backend)
                    .collect();
                upi[k] = geomean(&block.iter().map(|c| c.units_per_inst).collect::<Vec<_>>());
                ratio[k] = geomean(&block.iter().map(|c| c.ratio).collect::<Vec<_>>());
            }
            table.push(RatioRow { buildset: bs.name, backend, units_per_inst: upi, ratio });
        }
    }

    Ok(SweepReport {
        cells: results,
        table,
        kernels,
        backends: cfg.backends.clone(),
        timings: cfg.timings.clone(),
        max_insts: cfg.max_insts,
        jobs,
    })
}

fn json_str_array<S: AsRef<str>>(items: &[S]) -> String {
    let mut out = String::from("[");
    for (i, s) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        lis_core::write_json_str(&mut out, s.as_ref());
    }
    out.push(']');
    out
}

/// Renders the whole sweep as one JSON document (`BENCH_sweep.json`).
/// Deterministic by construction.
pub fn to_json(r: &SweepReport) -> String {
    let mut o = JsonObj::new();
    o.str("schema", "lis-sweep-v1");
    o.str("baseline", BASELINE_BUILDSET);
    o.raw("isas", &json_str_array(&ISAS));
    o.raw(
        "buildsets",
        &json_str_array(&STANDARD_BUILDSETS.iter().map(|b| b.name).collect::<Vec<_>>()),
    );
    o.raw("kernels", &json_str_array(&r.kernels));
    o.raw("backends", &json_str_array(&r.backends.iter().map(|b| b.name()).collect::<Vec<_>>()));
    o.raw("timings", &json_str_array(&r.timings.iter().map(|t| t.name).collect::<Vec<_>>()));
    o.u64("max_insts", r.max_insts);

    let mut cells = String::from("[");
    for (i, c) in r.cells.iter().enumerate() {
        if i > 0 {
            cells.push(',');
        }
        let mut co = JsonObj::new();
        co.str("isa", c.isa)
            .str("buildset", c.buildset)
            .str("kernel", c.kernel)
            .str("backend", c.backend.name())
            .bool("halted", c.halted)
            .i64("exit_code", c.exit_code)
            .u64("detail_units", c.stats.detail_units())
            .f64("units_per_inst", c.units_per_inst)
            .f64("ratio", c.ratio)
            .raw("stats", &c.stats.to_json());
        {
            let mut tim = JsonObj::new();
            tim.str("preset", c.timing.name)
                .str("predictor", c.timing.predictor.name())
                .str("replacement", c.timing.replacement.name())
                .str("prefetcher", c.timing.prefetcher.name());
            if let Some(tr) = &c.timing_report {
                tim.u64("cycles", tr.cycles)
                    .u64("insts", tr.insts)
                    .f64("ipc", tr.ipc())
                    .u64("icache_misses", tr.icache_misses)
                    .u64("dcache_misses", tr.dcache_misses)
                    .u64("mispredicts", tr.mispredicts);
            }
            co.raw("timing", &tim.finish());
        }
        if c.deadline_expired {
            co.bool("deadline_expired", true);
        }
        if let Some(f) = &c.fault {
            co.str("fault", f);
        }
        if c.crashes > 0 {
            co.u64("crashes", u64::from(c.crashes));
            if let Some(msg) = &c.crash {
                co.str("crash", msg);
            }
        }
        cells.push_str(&co.finish());
    }
    cells.push(']');
    o.raw("cells", &cells);

    let mut table = String::from("[");
    for (i, row) in r.table.iter().enumerate() {
        if i > 0 {
            table.push(',');
        }
        let mut to = JsonObj::new();
        to.str("buildset", row.buildset).str("backend", row.backend.name());
        for (k, isa) in ISAS.iter().enumerate() {
            to.f64(&format!("units_per_inst_{isa}"), row.units_per_inst[k]);
            to.f64(&format!("ratio_{isa}"), row.ratio[k]);
        }
        table.push_str(&to.finish());
    }
    table.push(']');
    o.raw("table", &table);
    o.finish()
}

/// The per-backend cost summary written to `BENCH_backend.json`: for every
/// (backend, buildset) pair, total deterministic `detail_units`, total
/// instructions, and units-per-instruction aggregated over every ISA and
/// kernel of the sweep. Pure counters — byte-identical across runs and job
/// counts, like the unit fields of [`to_json`].
pub fn backend_json(r: &SweepReport) -> String {
    let mut o = JsonObj::new();
    o.str("schema", "lis-backend-v1");
    o.raw("backends", &json_str_array(&r.backends.iter().map(|b| b.name()).collect::<Vec<_>>()));
    let mut rows = String::from("[");
    let mut first = true;
    for &backend in &r.backends {
        let total_units: u64 =
            r.cells.iter().filter(|c| c.backend == backend).map(|c| c.stats.detail_units()).sum();
        let total_insts: u64 =
            r.cells.iter().filter(|c| c.backend == backend).map(|c| c.stats.insts).sum();
        let mut bo = JsonObj::new();
        bo.str("backend", backend.name())
            .str("buildset", "*")
            .u64("detail_units", total_units)
            .u64("insts", total_insts)
            .f64("units_per_inst", total_units as f64 / total_insts.max(1) as f64);
        if !first {
            rows.push(',');
        }
        first = false;
        rows.push_str(&bo.finish());
        for bs in &STANDARD_BUILDSETS {
            let sel = |c: &&CellResult| c.backend == backend && c.buildset == bs.name;
            let units: u64 = r.cells.iter().filter(sel).map(|c| c.stats.detail_units()).sum();
            let insts: u64 = r.cells.iter().filter(sel).map(|c| c.stats.insts).sum();
            let mut bo = JsonObj::new();
            bo.str("backend", backend.name())
                .str("buildset", bs.name)
                .u64("detail_units", units)
                .u64("insts", insts)
                .f64("units_per_inst", units as f64 / insts.max(1) as f64);
            rows.push(',');
            rows.push_str(&bo.finish());
        }
    }
    rows.push(']');
    o.raw("rows", &rows);
    o.finish()
}

/// Renders the Tables I–III analog as a markdown report.
pub fn render_markdown(r: &SweepReport) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(out, "# LIS full-matrix sweep\n");
    let _ = writeln!(
        out,
        "{} cells ({} buildsets x {} ISAs x {} kernels x {} backend(s) x {} timing \
         preset(s)), normalized to `{}` = 1.0.\n",
        r.cells.len(),
        STANDARD_BUILDSETS.len(),
        ISAS.len(),
        r.kernels.len(),
        r.backends.len(),
        r.timings.len(),
        BASELINE_BUILDSET
    );

    let crashed: Vec<&CellResult> = r.cells.iter().filter(|c| c.crashes > 0).collect();
    if !crashed.is_empty() {
        let _ = writeln!(
            out,
            "**{} cell(s) crashed and were retried** ({} never recovered).\n",
            crashed.len(),
            crashed.iter().filter(|c| !c.halted).count()
        );
    }

    let _ = writeln!(out, "## Table I analog: specification sizes\n");
    let _ = writeln!(out, "```\n{}```\n", crate::render_table1());

    for &backend in &r.backends {
        let rows: Vec<&RatioRow> = r.table.iter().filter(|row| row.backend == backend).collect();
        let _ = writeln!(out, "## Table II analog: detail cost ({} backend)\n", backend.name());
        let _ = writeln!(
            out,
            "Deterministic interface-work units per instruction (calls + published \
             values + operand sets + undo records); ratio vs `{BASELINE_BUILDSET}`.\n"
        );
        let _ = writeln!(
            out,
            "| interface | alpha units/inst | arm units/inst | ppc units/inst \
             | alpha | arm | ppc |"
        );
        let _ = writeln!(out, "|---|---|---|---|---|---|---|");
        let mut sorted = rows.clone();
        sorted.sort_by_key(|row| {
            let idx = STANDARD_BUILDSETS.iter().position(|b| b.name == row.buildset);
            let bs = STANDARD_BUILDSETS.iter().find(|b| b.name == row.buildset).expect("known");
            (semantic_rank(bs), idx)
        });
        for row in &sorted {
            let _ = writeln!(
                out,
                "| {} | {:.2} | {:.2} | {:.2} | {:.2}x | {:.2}x | {:.2}x |",
                row.buildset,
                row.units_per_inst[0],
                row.units_per_inst[1],
                row.units_per_inst[2],
                row.ratio[0],
                row.ratio[1],
                row.ratio[2]
            );
        }
        let spread = rows.iter().flat_map(|row| row.ratio).fold(f64::MIN, f64::max);
        let _ = writeln!(
            out,
            "\nLargest detail-cost ratio: {spread:.1}x (paper reports up to 14.4x \
             in wall-clock terms).\n"
        );

        let _ = writeln!(
            out,
            "## Table III analog: incremental cost of detail ({} backend)\n",
            backend.name()
        );
        let get = |name: &str| -> [f64; 3] {
            rows.iter()
                .find(|row| row.buildset == name)
                .map(|row| row.units_per_inst)
                .unwrap_or_default()
        };
        let sub = |a: [f64; 3], b: [f64; 3]| [a[0] - b[0], a[1] - b[1], a[2] - b[2]];
        let base = get(BASELINE_BUILDSET);
        let spec_pairs = [
            ("block-decode", "block-decode-spec"),
            ("block-all", "block-all-spec"),
            ("one-decode", "one-decode-spec"),
            ("one-all", "one-all-spec"),
            ("step-all", "step-all-spec"),
        ];
        let mut spec = [0.0f64; 3];
        for (a, b) in spec_pairs {
            let d = sub(get(b), get(a));
            for k in 0..3 {
                spec[k] += d[k] / spec_pairs.len() as f64;
            }
        }
        let decomp = [
            ("base cost (block/min)", base),
            ("+ per-instruction calls", sub(get("one-min"), base)),
            ("+ decode information", sub(get("one-decode"), get("one-min"))),
            ("+ full information", sub(get("one-all"), get("one-min"))),
            ("+ multiple calls", sub(get("step-all"), get("one-all"))),
            ("+ speculation", spec),
        ];
        let _ = writeln!(out, "| component | alpha | arm | ppc |");
        let _ = writeln!(out, "|---|---|---|---|");
        for (label, ns) in decomp {
            let _ = writeln!(out, "| {label} | {:.2} | {:.2} | {:.2} |", ns[0], ns[1], ns[2]);
        }
        out.push('\n');
    }

    if !r.timings.is_empty() {
        let _ = writeln!(out, "## Timing-preset ablation\n");
        let _ = writeln!(
            out,
            "Each cell re-times its kernel under an out-of-order model whose branch \
             predictor, cache replacement policy, and prefetcher are selected by the \
             preset; the functional specification — and every unit table above — is \
             preset-independent. Geomean IPC over kernels, `{}` buildset, `{}` \
             backend.\n",
            BASELINE_BUILDSET,
            r.backends[0].name()
        );
        let _ = writeln!(
            out,
            "| preset | predictor | replacement | prefetcher | alpha IPC | arm IPC | ppc IPC |"
        );
        let _ = writeln!(out, "|---|---|---|---|---|---|---|");
        for t in &r.timings {
            let mut line = format!(
                "| {} | {} | {} | {} |",
                t.name,
                t.predictor.name(),
                t.replacement.name(),
                t.prefetcher.name()
            );
            for isa in ISAS {
                let ipcs: Vec<f64> = r
                    .cells
                    .iter()
                    .filter(|c| {
                        c.timing.name == t.name
                            && c.isa == isa
                            && c.buildset == BASELINE_BUILDSET
                            && c.backend == r.backends[0]
                    })
                    .filter_map(|c| c.timing_report.as_ref().map(|tr| tr.ipc()))
                    .collect();
                line.push_str(&format!(" {:.3} |", geomean(&ipcs)));
            }
            let _ = writeln!(out, "{line}");
        }
        out.push('\n');
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(jobs: usize) -> SweepConfig {
        SweepConfig { jobs, kernels: vec!["gcd".into()], ..Default::default() }
    }

    #[test]
    fn job_resolution_clamps() {
        assert_eq!(resolve_jobs(3, 100), 3);
        assert_eq!(resolve_jobs(64, 4), 4, "jobs beyond the cell count clamp down");
        assert_eq!(resolve_jobs(7, 0), 1, "an empty matrix still gets one worker");
        let auto = resolve_jobs(0, 1000);
        assert!((1..=1000).contains(&auto), "auto is within [1, cells]");
    }

    #[test]
    fn unknown_kernel_is_a_usage_error() {
        let err = resolve_kernels(&["nope".into()]).expect_err("must reject");
        assert!(err.contains("unknown kernel 'nope'"), "{err}");
        assert!(err.contains("sieve"), "error names the valid kernels: {err}");
        assert!(!resolve_kernels(&[]).unwrap().is_empty(), "empty means full suite");
    }

    #[test]
    fn matrix_covers_every_standard_buildset_and_isa() {
        let cells = sweep_cells(&["gcd"], &[Backend::Compiled], &[TimingConfig::CLASSIC]);
        assert_eq!(cells.len(), 12 * 3);
        for isa in ISAS {
            for bs in &STANDARD_BUILDSETS {
                assert!(
                    cells.iter().any(|c| c.isa == isa && c.buildset.name == bs.name),
                    "missing cell {isa}/{}",
                    bs.name
                );
            }
        }
    }

    #[test]
    fn sweep_json_is_bit_identical_across_job_counts() {
        // The acceptance criterion: the JSON is a pure function of the
        // configuration, not of scheduling.
        let a = to_json(&run_sweep(&tiny(1)).expect("sweeps"));
        let b = to_json(&run_sweep(&tiny(4)).expect("sweeps"));
        assert_eq!(a, b, "jobs=1 and jobs=4 must produce identical bytes");
    }

    #[test]
    fn unknown_timing_preset_is_a_usage_error() {
        let err = resolve_timings(&["nope".into()]).expect_err("must reject");
        assert!(err.contains("unknown timing preset 'nope'"), "{err}");
        assert!(err.contains("classic"), "error names the valid presets: {err}");
        assert_eq!(resolve_timings(&[]).unwrap(), vec![TimingConfig::CLASSIC]);
    }

    #[test]
    fn multi_preset_sweep_is_bit_identical_across_job_counts() {
        // The tentpole acceptance criterion: a timing axis crossing all
        // three component dimensions, and the JSON still a pure function of
        // the configuration.
        let multi = |jobs| SweepConfig {
            timings: resolve_timings(&["classic".into(), "aggressive".into()]).unwrap(),
            ..tiny(jobs)
        };
        let a = run_sweep(&multi(1)).expect("sweeps");
        let b = run_sweep(&multi(4)).expect("sweeps");
        assert_eq!(to_json(&a), to_json(&b), "jobs=1 and jobs=4 must produce identical bytes");

        assert_eq!(a.cells.len(), 2 * 12 * 3, "preset axis doubles the matrix");
        let json = to_json(&a);
        assert!(json.contains("\"timings\":[\"classic\",\"aggressive\"]"));
        assert!(json.contains("\"preset\":\"aggressive\""));
        // The presets genuinely differ: same kernel, same functional
        // counters, different cycle counts somewhere in the matrix.
        let classic: Vec<&CellResult> =
            a.cells.iter().filter(|c| c.timing.name == "classic").collect();
        let aggressive: Vec<&CellResult> =
            a.cells.iter().filter(|c| c.timing.name == "aggressive").collect();
        assert_eq!(classic.len(), aggressive.len());
        let mut cycles_differ = false;
        for (x, y) in classic.iter().zip(aggressive.iter()) {
            assert_eq!(x.stats, y.stats, "functional counters are preset-independent");
            if let (Some(tx), Some(ty)) = (&x.timing_report, &y.timing_report) {
                assert_eq!(tx.insts, ty.insts, "retired instructions are preset-independent");
                if tx.cycles != ty.cycles {
                    cycles_differ = true;
                }
            }
        }
        assert!(cycles_differ, "presets must change the timing somewhere");
        let md = render_markdown(&a);
        assert!(md.contains("Timing-preset ablation"));
        assert!(md.contains("| aggressive | gshare | lru | next-line |"));
    }

    #[test]
    fn panicked_cell_is_retried_and_the_sweep_stays_byte_identical() {
        // One deliberately crashed cell: the pool survives, the cell is
        // retried one backend rung lower and completes, the crash is
        // reported, and the JSON is still a pure function of the
        // configuration — identical bytes for jobs=1 and jobs=4.
        let panicky = |jobs| SweepConfig {
            panic_cell: Some("alpha/block-min/gcd/compiled".into()),
            ..tiny(jobs)
        };
        let a = run_sweep(&panicky(1)).expect("sweeps");
        let b = run_sweep(&panicky(4)).expect("sweeps");
        assert_eq!(to_json(&a), to_json(&b), "crash path must stay deterministic");

        let cell = a
            .cells
            .iter()
            .find(|c| {
                c.isa == "alpha" && c.buildset == "block-min" && c.backend == Backend::Compiled
            })
            .expect("cell present");
        assert_eq!(cell.crashes, 1, "first attempt panicked");
        assert!(cell.crash.as_deref().unwrap().contains("deliberate panic"), "{:?}", cell.crash);
        assert!(cell.halted, "the retry (demoted to interpreted) completes the cell");
        assert_eq!(cell.exit_code, 0);
        assert!(to_json(&a).contains("\"crashes\":1"));
        for c in &a.cells {
            if c.crashes == 0 {
                assert!(c.crash.is_none());
            }
        }
        // Every other cell is untouched by the neighbor's crash.
        let clean = run_sweep(&tiny(1)).expect("sweeps");
        for (x, y) in a.cells.iter().zip(clean.cells.iter()) {
            if x.crashes == 0 {
                assert_eq!(x.stats, y.stats, "{}/{}/{}", x.isa, x.buildset, x.kernel);
            }
        }
    }

    #[test]
    fn exhausted_retry_budget_reports_a_crashed_cell_without_sinking_the_pool() {
        // retries = 0 and a deliberate panic: the cell is reported crashed,
        // everything else completes normally.
        let cfg = SweepConfig {
            panic_cell: Some("ppc/step-all/gcd/compiled".into()),
            retries: 0,
            ..tiny(2)
        };
        let report = run_sweep(&cfg).expect("the pool must survive");
        let crashed = report
            .cells
            .iter()
            .find(|c| c.isa == "ppc" && c.buildset == "step-all")
            .expect("cell present");
        assert_eq!(crashed.crashes, 1);
        assert!(!crashed.halted);
        assert_eq!(crashed.stats.insts, 0, "no partial stats from a crashed cell");
        let survivors = report.cells.iter().filter(|c| c.halted).count();
        assert_eq!(survivors, report.cells.len() - 1, "exactly one casualty");
    }

    #[test]
    fn ratios_are_normalized_to_block_min() {
        let report = run_sweep(&tiny(0)).expect("sweeps");
        assert_eq!(report.cells.len(), 12 * 3);
        for c in &report.cells {
            assert!(c.halted, "{}/{}/{}: kernel halts", c.isa, c.buildset, c.kernel);
            assert_eq!(c.exit_code, 0, "{}/{}: clean exit", c.isa, c.buildset);
            if c.buildset == BASELINE_BUILDSET {
                assert!((c.ratio - 1.0).abs() < 1e-12, "baseline is exactly 1.0");
            } else {
                assert!(c.ratio >= 1.0, "{}/{}: below baseline", c.isa, c.buildset);
            }
        }
        // The paper's shape: maximum-detail step interfaces cost several
        // times the block-min baseline.
        for row in &report.table {
            if row.buildset == "step-all-spec" {
                for (k, isa) in ISAS.iter().enumerate() {
                    assert!(row.ratio[k] > 3.0, "{isa}: step-all-spec only {}", row.ratio[k]);
                }
            }
        }
        let json = to_json(&report);
        assert!(json.contains("\"schema\":\"lis-sweep-v1\""));
        assert!(!json.contains("\"secs\""), "no wall-clock in deterministic output");
        let md = render_markdown(&report);
        assert!(md.contains("Table II analog"));
        assert!(md.contains("block-min"));
    }
}

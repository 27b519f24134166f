//! # lis-bench — the evaluation harness
//!
//! Regenerates every table and figure of the paper's evaluation (§V):
//!
//! * **Table I** — specification sizes and lines per experimental buildset;
//! * **Table II** — simulation speed (MIPS) for the twelve standard
//!   interfaces on the three ISAs (geometric mean over the kernel suite);
//! * **Table III** — the cost of detail, as base-plus-increment costs per
//!   simulated instruction;
//! * **Figure 1** — the five decoupled organizations, run side by side;
//! * **Footnote 5** — interpreted vs compiled (binary-translation analog)
//!   base cost.
//!
//! Run `cargo run -p lis-bench --release --bin tables -- all` to regenerate
//! everything. Absolute numbers are host-dependent; the paper's *shape*
//! claims (orderings and ratios) are what the harness reports and what the
//! integration tests assert.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod sweep;
pub mod warm;

pub use sweep::{
    resolve_timings, run_sweep, CellResult, RatioRow, SweepCell, SweepConfig, SweepReport,
    BASELINE_BUILDSET,
};
pub use warm::{run_warm, WarmCell, WarmConfig, WarmReport};

use lis_core::{BuildsetDef, Semantic, STANDARD_BUILDSETS};
use lis_runtime::{Backend, Simulator};
use lis_workloads::{spec_of, suite_of, ISAS};
use std::time::Instant;

/// One speed measurement: a buildset on one ISA over the kernel suite.
#[derive(Debug, Clone, Copy)]
pub struct Measurement {
    /// Simulated millions of instructions per second (geometric mean).
    pub mips: f64,
    /// Nanoseconds per simulated instruction (derived, 1000/mips).
    pub ns_per_inst: f64,
    /// Total instructions simulated while measuring.
    pub insts: u64,
}

/// Minimum dynamic instructions to run per kernel per measurement
/// (overridable via `LIS_BENCH_INSTS`).
fn target_insts() -> u64 {
    match std::env::var("LIS_BENCH_INSTS") {
        Ok(v) => v.parse().unwrap_or(2_000_000),
        Err(_) => 2_000_000,
    }
}

/// Runs one already-loaded simulator to completion once; returns
/// (instructions, seconds). The caller resets it between runs.
fn run_image(sim: &mut Simulator, image: &lis_mem::Image) -> (u64, f64) {
    sim.reset_program(image).expect("kernel loads");
    let start = Instant::now();
    let summary = sim.run_to_halt(u64::MAX).expect("kernel runs to completion");
    let dt = start.elapsed().as_secs_f64();
    assert_eq!(summary.exit_code, 0, "kernel failed");
    (summary.insts, dt)
}

/// Accumulates runs of one kernel until it covers `target` instructions and
/// returns the observed MIPS.
fn sample(sim: &mut Simulator, image: &lis_mem::Image, target: u64) -> (f64, u64) {
    let mut insts = 0u64;
    let mut secs = 0.0f64;
    while insts < target {
        let (i, s) = run_image(sim, image);
        insts += i;
        secs += s;
    }
    (insts as f64 / secs / 1.0e6, insts)
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// Number of interleaved repetitions per (kernel, buildset) cell.
const REPS: usize = 3;

/// Measures a whole set of buildsets on one ISA at once.
///
/// To keep host-frequency drift from skewing comparisons, the measurement is
/// *interleaved*: for each kernel, all buildsets are sampled back to back,
/// repeatedly; each cell takes the median of its repetitions and the final
/// figure is the geometric mean across kernels — matching the paper's use of
/// geometric means over its benchmark suite.
pub fn measure_set(isa: &str, sets: &[BuildsetDef], backend: Backend) -> Vec<Measurement> {
    let target = target_insts() / REPS as u64;
    let kernels: Vec<_> =
        suite_of(isa).iter().map(|w| w.assemble().expect("kernel assembles")).collect();
    // samples[bs][kernel] = Vec of per-rep MIPS
    let mut samples = vec![vec![Vec::with_capacity(REPS); kernels.len()]; sets.len()];
    let mut insts = vec![0u64; sets.len()];
    for (k, image) in kernels.iter().enumerate() {
        // One warmed simulator per buildset, shared across repetitions so
        // predecode costs amortize (the paper's translation amortization).
        let mut sims: Vec<Simulator> = sets
            .iter()
            .map(|bs| {
                let mut s = Simulator::new(spec_of(isa), *bs).expect("valid buildset");
                s.set_backend(backend);
                s
            })
            .collect();
        // Warm-up (page cache, allocator, host branch history).
        let _ = run_image(&mut sims[0], image);
        for _ in 0..REPS {
            for (b, _) in sets.iter().enumerate() {
                let (mips, i) = sample(&mut sims[b], image, target);
                samples[b][k].push(mips);
                insts[b] += i;
            }
        }
    }
    sets.iter()
        .enumerate()
        .map(|(b, _)| {
            let log_sum: f64 = samples[b].iter().map(|reps| median(reps.clone()).ln()).sum();
            let mips = (log_sum / kernels.len() as f64).exp();
            Measurement { mips, ns_per_inst: 1000.0 / mips, insts: insts[b] }
        })
        .collect()
}

/// Measures one (ISA, buildset, backend) combination over the kernel suite.
pub fn measure(isa: &str, bs: BuildsetDef, backend: Backend) -> Measurement {
    measure_set(isa, &[bs], backend)[0]
}

/// Table II: every standard buildset on every ISA.
pub fn table2(backend: Backend) -> Vec<(BuildsetDef, [Measurement; 3])> {
    let per_isa: Vec<Vec<Measurement>> =
        ISAS.iter().map(|isa| measure_set(isa, &STANDARD_BUILDSETS, backend)).collect();
    STANDARD_BUILDSETS
        .iter()
        .enumerate()
        .map(|(i, bs)| (*bs, [per_isa[0][i], per_isa[1][i], per_isa[2][i]]))
        .collect()
}

/// Table III rows, derived from Table II the way the paper constructs them.
#[derive(Debug, Clone)]
pub struct CostRow {
    /// Row label.
    pub label: &'static str,
    /// Cost (ns per simulated instruction) per ISA, incremental except the
    /// base row.
    pub ns: [f64; 3],
}

/// Derives the cost-of-detail decomposition from Table II measurements.
pub fn table3(t2: &[(BuildsetDef, [Measurement; 3])]) -> Vec<CostRow> {
    let get = |name: &str| -> [f64; 3] {
        let (_, m) = t2.iter().find(|(b, _)| b.name == name).expect("standard buildset");
        [m[0].ns_per_inst, m[1].ns_per_inst, m[2].ns_per_inst]
    };
    let base = get("one-min");
    let sub = |a: [f64; 3], b: [f64; 3]| [a[0] - b[0], a[1] - b[1], a[2] - b[2]];
    // Speculation cost: mean increment over the nospec/spec pairs.
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
    vec![
        CostRow { label: "base cost (one/min)", ns: base },
        CostRow { label: "+ decode information", ns: sub(get("one-decode"), base) },
        CostRow { label: "+ full information", ns: sub(get("one-all"), base) },
        CostRow { label: "+ block-call (savings)", ns: sub(get("block-min"), base) },
        CostRow { label: "+ multiple calls", ns: sub(get("step-all"), get("one-all")) },
        CostRow { label: "+ speculation", ns: spec },
    ]
}

/// Shape checks the paper's qualitative claims against a Table II run.
/// Returns human-readable violations (empty = shape holds).
#[allow(clippy::neg_cmp_op_on_partial_ord)] // NaN would rightly trip the check
pub fn check_shape(t2: &[(BuildsetDef, [Measurement; 3])]) -> Vec<String> {
    let mut problems = Vec::new();
    let get = |name: &str| -> &[Measurement; 3] {
        &t2.iter().find(|(b, _)| b.name == name).expect("standard buildset").1
    };
    for (k, isa) in ISAS.iter().enumerate() {
        let m = |n: &str| get(n)[k].mips;
        // Semantic detail is the largest effect: step-level calls are far
        // slower than one-call interfaces (paper: the dominant factor).
        if !(m("one-all") > 2.0 * m("step-all")) {
            problems.push(format!("{isa}: step detail should cost at least 2x"));
        }
        // Block-level calls must not be slower than per-instruction calls.
        // (The paper sees a large block win from translator scope; our
        // in-process interface crossings are so cheap that the effect is
        // attenuated — see EXPERIMENTS.md — but it must not invert beyond
        // measurement noise.)
        if m("block-min") < 0.92 * m("one-min") || m("block-all") < 0.92 * m("one-all") {
            problems.push(format!("{isa}: block calls slower than per-instruction calls"));
        }
        // Informational detail: min > decode > all at fixed semantic, with a
        // small noise tolerance on the middle step.
        if !(m("one-min") > m("one-all")
            && m("one-min") * 1.02 > m("one-decode")
            && m("one-decode") * 1.02 > m("one-all"))
        {
            problems.push(format!("{isa}: informational ordering violated"));
        }
        // Speculation costs something (averaged over the variant pairs).
        let spec_cost: f64 = [
            m("block-decode") / m("block-decode-spec"),
            m("block-all") / m("block-all-spec"),
            m("one-decode") / m("one-decode-spec"),
            m("one-all") / m("one-all-spec"),
        ]
        .iter()
        .sum::<f64>()
            / 4.0;
        if spec_cost < 1.01 {
            problems.push(format!("{isa}: speculation should not be free"));
        }
        // Headline ratio: lowest vs highest detail is large.
        let ratio = m("block-min") / m("step-all-spec");
        if ratio < 3.0 {
            problems.push(format!("{isa}: lowest/highest ratio only {ratio:.1}x"));
        }
    }
    problems
}

/// Pretty-prints Table II in the paper's layout.
pub fn render_table2(t2: &[(BuildsetDef, [Measurement; 3])]) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(out, "Table II: simulation speed (MIPS, geometric mean over kernel suite)");
    let _ = writeln!(out, "{:<38} {:>9} {:>9} {:>9}", "interface", "alpha", "arm", "ppc");
    for (bs, m) in t2 {
        let _ = writeln!(
            out,
            "{:<38} {:>9.2} {:>9.2} {:>9.2}",
            format!("{} ({})", bs.name, bs.describe()),
            m[0].mips,
            m[1].mips,
            m[2].mips
        );
    }
    let best = t2.iter().map(|(_, m)| m[0].mips).fold(f64::MIN, f64::max);
    let worst = t2.iter().map(|(_, m)| m[0].mips).fold(f64::MAX, f64::min);
    let _ = writeln!(
        out,
        "alpha lowest/highest-detail ratio: {:.1}x (paper: up to 14.4x)",
        best / worst
    );
    out
}

/// Pretty-prints Table III.
pub fn render_table3(rows: &[CostRow]) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table III: cost of detail (ns per simulated instruction; paper uses host instructions)"
    );
    let _ = writeln!(out, "{:<26} {:>9} {:>9} {:>9}", "component", "alpha", "arm", "ppc");
    for r in rows {
        let _ = writeln!(out, "{:<26} {:>9.1} {:>9.1} {:>9.1}", r.label, r.ns[0], r.ns[1], r.ns[2]);
    }
    out
}

/// Table I data for one ISA.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// ISA name.
    pub isa: &'static str,
    /// Code lines of the ISA description.
    pub isa_lines: usize,
    /// Code lines of derived tooling (assembler + disassembler).
    pub tooling_lines: usize,
    /// Instructions in the description.
    pub instructions: usize,
}

/// Collects Table I: per-ISA rows plus `(buildset count, total buildset
/// lines)` measured from the actual definitions in `lis-core`.
pub fn table1() -> (Vec<Table1Row>, usize, usize) {
    let rows = vec![
        stats_row(lis_isa_alpha::spec_stats()),
        stats_row(lis_isa_arm::spec_stats()),
        stats_row(lis_isa_ppc::spec_stats()),
    ];
    let src = include_str!("../../core/src/buildset.rs");
    let (count, lines) = lis_core::count_macro_blocks(src, "buildset");
    (rows, count, lines)
}

fn stats_row(s: lis_core::SpecStats) -> Table1Row {
    Table1Row {
        isa: s.isa,
        isa_lines: s.isa_description_lines,
        tooling_lines: s.tooling_lines,
        instructions: s.num_instructions,
    }
}

/// Pretty-prints Table I.
pub fn render_table1() -> String {
    use std::fmt::Write;
    let (rows, buildsets, buildset_lines) = table1();
    let mut out = String::new();
    let _ = writeln!(out, "Table I: instruction-set description characteristics");
    let _ = writeln!(
        out,
        "{:<8} {:>18} {:>16} {:>14}",
        "ISA", "description lines", "tooling lines", "instructions"
    );
    for r in &rows {
        let _ = writeln!(
            out,
            "{:<8} {:>18} {:>16} {:>14}",
            r.isa, r.isa_lines, r.tooling_lines, r.instructions
        );
    }
    let _ = writeln!(
        out,
        "standard buildsets: {buildsets}; lines per experimental buildset: {:.1} (paper: ~13)",
        buildset_lines as f64 / buildsets as f64
    );
    out
}

/// Footnote 5, extended: per-backend base cost. For each ISA, the `one-min`
/// interface measured on every backend, in [`Backend::ALL`] order
/// (interpreted, compiled). The block interfaces, where superblock chaining
/// and publication elision also apply, are ablated by
/// [`block_backend_ablation`].
pub fn backend_ablation() -> Vec<(&'static str, [Measurement; 2])> {
    ISAS.iter()
        .map(|isa| (*isa, Backend::ALL.map(|b| measure(isa, lis_core::ONE_MIN, b))))
        .collect()
}

/// The block-interface ablation behind the compiled backend's headline
/// claim: `block-min` and `block-decode` wall-clock per backend. Returns
/// `(isa, buildset, [interpreted, compiled] MIPS)` rows.
pub fn block_backend_ablation() -> Vec<(&'static str, &'static str, [f64; 2])> {
    let mut out = Vec::new();
    for isa in ISAS {
        for bs in [lis_core::BLOCK_MIN, lis_core::BLOCK_DECODE] {
            out.push((isa, bs.name, Backend::ALL.map(|b| measure(isa, bs, b).mips)));
        }
    }
    out
}

/// Record-vs-replay speeds for one ISA (geometric mean over the kernel
/// suite), plus the trace encoding density.
#[derive(Debug, Clone)]
pub struct TraceSpeed {
    /// Execute-driven functional-first + ooo consumer, MIPS.
    pub live_mips: f64,
    /// Recording (functional run + trace encode), MIPS.
    pub record_mips: f64,
    /// Replay MIPS per shard count, in the order requested.
    pub replay_mips: Vec<(usize, f64)>,
    /// Mean encoded trace bytes per instruction.
    pub bytes_per_inst: f64,
}

/// Measures record / replay / live speeds on one ISA over the kernel suite.
///
/// Replay cost excludes the one-time recording: the record-once /
/// replay-many trade the table quantifies is `record_mips` paid once versus
/// `replay_mips` per subsequent timing experiment.
pub fn trace_speed(isa: &str, shards: &[usize]) -> TraceSpeed {
    use lis_timing::{run_functional_first_ooo, CoreConfig, OooConfig};
    use lis_trace::{record, replay_ooo, RecordOptions, ReplayConfig, Trace};

    let target = target_insts() / REPS as u64;
    let spec = spec_of(isa);
    let suite = suite_of(isa);
    let kernels: Vec<_> = suite.iter().map(|w| w.assemble().expect("assembles")).collect();

    // Geometric mean over kernels of the median of REPS samples, where one
    // sample repeats `f` until `target` instructions are covered.
    let geo = |f: &mut dyn FnMut(usize) -> u64| -> f64 {
        let mut log_sum = 0.0;
        for k in 0..kernels.len() {
            let mut reps = Vec::with_capacity(REPS);
            for _ in 0..REPS {
                let mut insts = 0u64;
                let t = Instant::now();
                while insts < target {
                    insts += f(k);
                }
                reps.push(insts as f64 / t.elapsed().as_secs_f64() / 1e6);
            }
            log_sum += median(reps).ln();
        }
        (log_sum / kernels.len() as f64).exp()
    };

    let cfg = CoreConfig::default();
    let ooo = OooConfig::default();
    let live_mips = geo(&mut |k| {
        run_functional_first_ooo(spec, &kernels[k], &cfg, &ooo).expect("kernel runs").insts
    });

    let opts: Vec<RecordOptions> = suite
        .iter()
        .map(|w| RecordOptions { kernel: w.name.to_string(), ..Default::default() })
        .collect();
    let record_mips = geo(&mut |k| {
        let mut sink = Vec::new();
        record(spec, &kernels[k], &mut sink, &opts[k]).expect("records").insts
    });

    let mut total_bytes = 0u64;
    let mut total_insts = 0u64;
    let traces: Vec<Trace> = kernels
        .iter()
        .zip(&opts)
        .map(|(image, o)| {
            let mut bytes = Vec::new();
            record(spec, image, &mut bytes, o).expect("records");
            total_bytes += bytes.len() as u64;
            let trace = Trace::read_from(bytes.as_slice()).expect("reads back");
            total_insts += trace.insts();
            trace
        })
        .collect();

    let replay_mips = shards
        .iter()
        .map(|&n| {
            let rcfg = ReplayConfig { shards: n, ..Default::default() };
            let mips = geo(&mut |k| replay_ooo(spec, &traces[k], &rcfg).expect("replays").insts);
            (n, mips)
        })
        .collect();

    TraceSpeed {
        live_mips,
        record_mips,
        replay_mips,
        bytes_per_inst: total_bytes as f64 / total_insts.max(1) as f64,
    }
}

/// Semantic group index for sorting (block, one, step).
pub fn semantic_rank(bs: &BuildsetDef) -> u8 {
    match bs.semantic {
        Semantic::Block => 0,
        Semantic::One => 1,
        Semantic::Step => 2,
    }
}

/// Design-choice ablation: how the maximum predecoded-block length affects
/// block-interface speed. Returns `(max_block, MIPS)` pairs for one ISA over
/// the kernel suite.
pub fn block_size_ablation(isa: &str, sizes: &[usize]) -> Vec<(usize, f64)> {
    let target = target_insts() / REPS as u64;
    let kernels: Vec<_> =
        suite_of(isa).iter().map(|w| w.assemble().expect("kernel assembles")).collect();
    let mut out = Vec::new();
    for &size in sizes {
        let mut log_sum = 0.0;
        for image in &kernels {
            let mut sim = Simulator::new(spec_of(isa), lis_core::BLOCK_MIN).unwrap();
            sim.set_max_block(size);
            let _ = run_image(&mut sim, image);
            let mut reps = Vec::with_capacity(REPS);
            for _ in 0..REPS {
                reps.push(sample(&mut sim, image, target).0);
            }
            log_sum += median(reps).ln();
        }
        out.push((size, (log_sum / kernels.len() as f64).exp()));
    }
    out
}

/// Ablation: the fast-forward entry point (no publication at all) vs the
/// block interface with minimal publication. Returns `(ff MIPS, block MIPS)`
/// per ISA.
pub fn fast_forward_ablation() -> Vec<(&'static str, f64, f64)> {
    let target = target_insts() / REPS as u64;
    ISAS.iter()
        .map(|isa| {
            let kernels: Vec<_> =
                suite_of(isa).iter().map(|w| w.assemble().expect("assembles")).collect();
            let mut ff_log = 0.0;
            let mut blk_log = 0.0;
            for image in &kernels {
                let mut sim = Simulator::new(spec_of(isa), lis_core::BLOCK_MIN).unwrap();
                let _ = run_image(&mut sim, image);
                let mut ff_reps = Vec::new();
                let mut blk_reps = Vec::new();
                for _ in 0..REPS {
                    // Fast-forward sample.
                    let mut insts = 0u64;
                    let mut secs = 0.0;
                    while insts < target {
                        sim.reset_program(image).unwrap();
                        let t = Instant::now();
                        insts += sim.fast_forward(u64::MAX).expect("block interface");
                        secs += t.elapsed().as_secs_f64();
                    }
                    ff_reps.push(insts as f64 / secs / 1e6);
                    // Regular block sample.
                    blk_reps.push(sample(&mut sim, image, target).0);
                }
                ff_log += median(ff_reps).ln();
                blk_log += median(blk_reps).ln();
            }
            let n = kernels.len() as f64;
            (*isa, (ff_log / n).exp(), (blk_log / n).exp())
        })
        .collect()
}

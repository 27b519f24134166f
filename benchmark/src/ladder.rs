//! `ladder`: the paper's Table II. One warmed simulator per (interface
//! rung × suite kernel) is built in set-up; each round re-runs every cell
//! once, in a seeded interleaved order, so host drift spreads evenly over the
//! rungs. Only the functional simulator works here — no timing consumer — so
//! the rungs' differences are the paper's differential decomposition:
//! execution alone (`fast-forward`), the run loop and stat charges
//! (`block-min`), publication (`block-all`), step reload (`step-all`), undo
//! capture (`-spec`), and translation (interpreted vs compiled).

use crate::common::{
    check_output, check_repeat, preflight_us, repeat_setup, suite_programs, timed_rounds, Cells,
    Program, RunCfg, Sample, Work, MAX_INSTS,
};
use crate::outcome::{peak_rss_kb, Outcome};
use crate::spans::Tracer;
use crate::stats::{geomean, SplitMix64};
use lis_core::{BuildsetDef, BLOCK_MIN, ONE_MIN, STANDARD_BUILDSETS};
use lis_runtime::{Backend, SimStats, Simulator};

/// Timed rounds of a run: about `run_seconds` on the reference host.
pub const ROUNDS: usize = 36;

/// One interface configuration of the ladder.
#[derive(Debug, Clone)]
struct Rung {
    name: String,
    bs: BuildsetDef,
    /// Explicit backend; `None` keeps the simulator's default.
    backend: Option<Backend>,
    /// Drive with `fast_forward` (no publication at all) instead of
    /// `run_to_halt`.
    fast_forward: bool,
}

/// The twelve standard interfaces on the default backend, then the extra
/// rungs that isolate execution and translation.
fn rungs() -> Vec<Rung> {
    let rung = |name: &str, bs, backend, fast_forward| Rung {
        name: name.to_string(),
        bs,
        backend,
        fast_forward,
    };
    let mut v: Vec<Rung> =
        STANDARD_BUILDSETS.iter().map(|bs| rung(bs.name, *bs, None, false)).collect();
    v.push(rung("fast-forward", BLOCK_MIN, None, true));
    v.push(rung("one-min.interpreted", ONE_MIN, Some(Backend::Interpreted), false));
    v.push(rung("one-min.compiled", ONE_MIN, Some(Backend::Compiled), false));
    v.push(rung("block-min.compiled", BLOCK_MIN, Some(Backend::Compiled), false));
    v
}

/// The Table III rows, as in the paper: the base cost, then each
/// increment (ns per simulated instruction).
const T3_ROWS: [&str; 6] =
    ["base", "decode_info", "full_info", "block_call", "multiple_calls", "speculation"];

/// One warmed simulator and the program it re-runs.
struct Cell {
    rung: usize,
    prog: usize,
    sim: Simulator,
}

/// Resets `cell` and times one run of its program on `clock`; returns the
/// start and length in nanoseconds, or the error that ended the run. The
/// reset is not timed, and the counters restart so they describe this run.
fn drive(clock: &Tracer, cell: &mut Cell, rung: &Rung, p: &Program) -> Result<(u64, u64), String> {
    cell.sim.reset_program(&p.image).map_err(|f| f.to_string())?;
    cell.sim.stats = SimStats::default();
    let start = clock.now();
    let run = if rung.fast_forward {
        cell.sim.fast_forward(MAX_INSTS).map(|_| ()).map_err(|e| e.to_string())
    } else {
        cell.sim.run_to_halt(MAX_INSTS).map(|_| ()).map_err(|e| e.to_string())
    };
    let ns = clock.now() - start;
    run.map(|()| (start, ns))
}

fn check_cell(o: &mut Outcome, cell: &Cell, rung: &Rung, p: &Program) -> bool {
    let sim = &cell.sim;
    o.check(sim.state.halted, || format!("{}/{} on {}: did not halt", p.isa, p.name, rung.name))
        && check_output(o, p, &rung.name, sim.state.exit_code, sim.stdout())
}

/// Runs the workload.
pub fn run(cfg: &RunCfg) -> Outcome {
    let mut o = Outcome::new(cfg.trace);
    let rungs = rungs();
    let (setup_s, (progs, mut cells)) = repeat_setup(cfg, || {
        let progs = suite_programs(cfg, &mut o.tracer);
        let mut cells = Vec::with_capacity(rungs.len() * progs.len());
        for (r, rung) in rungs.iter().enumerate() {
            for (i, p) in progs.iter().enumerate() {
                let mut sim =
                    Simulator::new(p.spec(), rung.bs).expect("standard buildsets are valid");
                if let Some(b) = rung.backend {
                    sim.set_backend(b);
                }
                let mut cell = Cell { rung: r, prog: i, sim };
                // Warm-up: predecode and translation happen here, once, the
                // way a long simulation amortizes them.
                let warm = drive(&o.tracer, &mut cell, rung, p);
                o.check(warm.is_ok(), || {
                    format!("{}/{} on {}: {warm:?}", p.isa, p.name, rung.name)
                });
                cells.push(cell);
            }
        }
        (progs, cells)
    });
    o.setup_s = setup_s;

    let mut times = Cells::new(cells.len());
    let mut first_stats: Vec<Option<String>> = vec![None; cells.len()];
    let mut work = Work::default();
    let mut rng = SplitMix64::new(cfg.seed);
    let mut op_id = 0u64;
    timed_rounds(cfg, |_, traced| {
        for c in rng.permutation(cells.len()) {
            op_id += 1;
            let cell = &mut cells[c];
            let (rung, p) = (&rungs[cell.rung], &progs[cell.prog]);
            let (start, ns) = match drive(&o.tracer, cell, rung, p) {
                Ok(t) => t,
                Err(e) => {
                    o.op(0, 0, traced);
                    o.check(false, || format!("{}/{} on {}: {e}", p.isa, p.name, rung.name));
                    continue;
                }
            };
            let insts = cell.sim.stats.insts;
            let name = if rung.fast_forward { "runtime.fast_forward" } else { "runtime.run" };
            o.span(traced, name, op_id, start, ns, insts);
            o.op(ns, insts, traced);
            if traced {
                work.add(&cell.sim.stats);
            } else {
                times.add(c, ns, insts);
            }
            if check_cell(&mut o, cell, rung, p) {
                check_repeat(&mut o, &mut first_stats[c], cell.sim.stats.to_json(), &rung.name);
            }
        }
    });
    o.rss_kb = peak_rss_kb(None);

    for (c, stats) in first_stats.iter().enumerate() {
        let (rung, p) = (&rungs[cells[c].rung], &progs[cells[c].prog]);
        o.digest(format!("{}/{}/{}:", p.isa, p.name, rung.name).as_bytes());
        o.digest(stats.as_deref().unwrap_or("").as_bytes());
    }

    // Table II: the geometric mean over the standard interfaces of each
    // one's MIPS on the whole suite.
    let rung_cells: Vec<Vec<usize>> = (0..rungs.len())
        .map(|r| (0..cells.len()).filter(|&c| cells[c].rung == r).collect())
        .collect();
    let standard = &rung_cells[..STANDARD_BUILDSETS.len()];
    o.sim_mips = Sample::at(times.rounds(), |p| {
        geomean(&standard.iter().map(|rc| times.mips(rc, p)).collect::<Vec<_>>())
    });
    o.ops_per_s = Sample::at(times.rounds(), |p| times.rate(&times.all(), p));
    o.op_ms = times.median_ms();

    let ns: Vec<f64> = rung_cells.iter().map(|rc| times.ns_per_inst(rc)).collect();
    let at = |name: &str| ns[rungs.iter().position(|r| r.name == name).expect("rung exists")];
    for (r, rung) in rungs.iter().enumerate() {
        o.detail(format!("ns.{}", rung.name), ns[r], "ns");
    }
    let t3 = table3(&at);
    for (row, v) in T3_ROWS.iter().zip(t3) {
        o.detail(format!("t3.{row}"), v, "ns");
    }
    let std_ns = &ns[..STANDARD_BUILDSETS.len()];
    let spread = std_ns.iter().copied().fold(0.0, f64::max)
        / std_ns.iter().copied().fold(f64::MAX, f64::min);
    let footnote5 = at("one-min.interpreted") / at("one-min.compiled");
    o.detail("spread", spread, "x");
    o.detail("footnote5", footnote5, "x");

    if cfg.trace {
        // Relative to the base cost, as Table III presents its increments.
        let base = at("one-min");
        for rung in rungs.iter().filter(|r| r.name != "one-min") {
            o.layers
                .push((catalog_name(format!("runtime.x.{}", rung.name)), at(&rung.name) / base));
        }
        for (row, v) in T3_ROWS.iter().zip(t3).skip(1) {
            o.layers.push((catalog_name(format!("runtime.t3.{row}")), v / base));
        }
        o.layers.push(("runtime.spread", spread));
        o.layers.push(("runtime.footnote5", footnote5));
        o.layers.extend(work.layers());
        let configs: Vec<_> = lis_workloads::ISAS
            .iter()
            .flat_map(|&isa| {
                STANDARD_BUILDSETS.iter().map(move |bs| (lis_workloads::spec_of(isa), *bs))
            })
            .collect();
        o.layers.push(("analyze.preflight_us", preflight_us(&configs)));
    }
    o
}

/// Table III from the per-rung costs, as the paper constructs it.
fn table3(at: &dyn Fn(&str) -> f64) -> [f64; 6] {
    let base = at("one-min");
    let pairs = [
        ("block-decode", "block-decode-spec"),
        ("block-all", "block-all-spec"),
        ("one-decode", "one-decode-spec"),
        ("one-all", "one-all-spec"),
        ("step-all", "step-all-spec"),
    ];
    let speculation = pairs.iter().map(|(a, b)| at(b) - at(a)).sum::<f64>() / pairs.len() as f64;
    [
        base,
        at("one-decode") - base,
        at("one-all") - base,
        at("block-min") - base,
        at("step-all") - at("one-all"),
        speculation,
    ]
}

/// `name` as the catalog spells it.
fn catalog_name(name: String) -> &'static str {
    crate::spec::spec()
        .per_layer
        .iter()
        .find(|m| m.name == name)
        .map(|m| m.name.as_str())
        .unwrap_or_else(|| panic!("{name} is not in BENCHMARK.json"))
}

//! Pieces every workload shares: the run settings, the program set, the
//! repeated set-up, the timed rounds, and the probes a traced run adds.

use crate::outcome::Outcome;
use crate::spans::Tracer;
use crate::stats::{median, percentile, quartiles};
use lis_core::{BuildsetDef, IsaSpec};
use lis_mem::Image;
use lis_runtime::Simulator;
use lis_timing::TimingReport;
use lis_workloads::{spec_of, suite_of, ISAS};
use std::time::Instant;

/// Instruction budget of one simulated program (the kernels run < 100k).
pub const MAX_INSTS: u64 = 100_000_000;

/// How one workload run is made.
#[derive(Debug, Clone)]
pub struct RunCfg {
    /// Seed every input derives from.
    pub seed: u64,
    /// Timed rounds (per connection for `serve-mixed`): the workload's
    /// `ROUNDS` in a real run, so every commit does the same work.
    pub rounds: usize,
    /// Traced run: spans on, per-layer metrics out.
    pub trace: bool,
    /// Times the set-up is repeated (`setup_s` is their median).
    pub setups: usize,
    /// Suite kernels to use; all eight when `None` (tests run fewer).
    pub kernels: Option<Vec<&'static str>>,
}

/// One program with the output it must print.
#[derive(Debug, Clone)]
pub struct Program {
    /// ISA name.
    pub isa: &'static str,
    /// Kernel name, or `gen<i>` for a generated program.
    pub name: String,
    /// Assembled image.
    pub image: Image,
    /// The stdout a correct run prints.
    pub expected: Vec<u8>,
}

impl Program {
    /// The ISA specification the program runs on.
    pub fn spec(&self) -> &'static IsaSpec {
        spec_of(self.isa)
    }
}

/// Assembles `src` for `isa`, as one `asm.assemble` span when tracing.
pub fn assemble(tr: &mut Tracer, isa: &str, src: &str) -> Image {
    let t0 = tr.now();
    let image = lis_workloads::assemble_source(isa, src)
        .unwrap_or_else(|e| panic!("{isa} program does not assemble: {e}"));
    let t1 = tr.now();
    tr.push("asm.assemble", 0, None, t0, t1, 0);
    image
}

/// The suite kernels of every ISA (filtered by `cfg.kernels`), assembled,
/// with their golden outputs.
pub fn suite_programs(cfg: &RunCfg, tr: &mut Tracer) -> Vec<Program> {
    ISAS.iter()
        .flat_map(|&isa| suite_of(isa).iter())
        .filter(|w| cfg.kernels.as_ref().is_none_or(|k| k.contains(&w.name)))
        .map(|w| Program {
            isa: w.isa,
            name: w.name.to_string(),
            image: assemble(tr, w.isa, w.source),
            expected: w.expected_stdout().into_bytes(),
        })
        .collect()
}

/// The stdout of `image` on the reference simulator: `one-min` on the
/// interpreted backend, the configuration every other one is checked
/// against.
pub fn reference_stdout(isa: &str, image: &Image) -> Result<Vec<u8>, String> {
    let mut sim = Simulator::new(spec_of(isa), lis_core::ONE_MIN).map_err(|e| e.to_string())?;
    sim.set_backend(lis_runtime::Backend::Interpreted);
    sim.load_program(image).map_err(|e| e.to_string())?;
    let s = sim.run_to_halt(MAX_INSTS).map_err(|e| e.to_string())?;
    if s.exit_code != 0 {
        return Err(format!("reference run exited {}", s.exit_code));
    }
    Ok(sim.stdout().to_vec())
}

/// Runs `setup` `cfg.setups` times, dropping each result before the next,
/// and returns the seconds of each repetition with the last result.
pub fn repeat_setup<S>(cfg: &RunCfg, mut setup: impl FnMut() -> S) -> (Vec<f64>, S) {
    let mut secs = Vec::with_capacity(cfg.setups);
    let mut last = None;
    for _ in 0..cfg.setups.max(1) {
        drop(last.take());
        let t = Instant::now();
        last = Some(setup());
        secs.push(t.elapsed().as_secs_f64());
    }
    (secs, last.expect("at least one set-up"))
}

/// Calls `round(index, traced)` `cfg.rounds` times. In a traced run every
/// odd round is traced, so the even ones measure the tracing overhead.
pub fn timed_rounds(cfg: &RunCfg, mut round: impl FnMut(usize, bool)) {
    for r in 0..cfg.rounds {
        round(r, cfg.trace && r % 2 == 1);
    }
}

/// Simulated MIPS of `insts` instructions in `ns` host nanoseconds.
fn mips(insts: u64, ns: f64) -> f64 {
    insts as f64 * 1e3 / ns.max(1.0)
}

/// A metric with the spread of the samples behind it.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sample {
    /// The metric.
    pub value: f64,
    /// Lower quartile.
    pub q1: f64,
    /// Upper quartile.
    pub q3: f64,
    /// Samples behind it.
    pub n: usize,
}

impl Sample {
    /// The median and quartiles of `v`.
    pub fn of(v: &[f64]) -> Sample {
        let (q1, q3) = quartiles(v);
        Sample { value: median(v), q1, q3, n: v.len() }
    }

    /// `f` evaluated at the median and at both quartiles of its inputs
    /// (`f(50.0)`, `f(25.0)`, `f(75.0)`), over `n` samples.
    pub fn at(n: usize, f: impl Fn(f64) -> f64) -> Sample {
        let (a, b) = (f(25.0), f(75.0));
        Sample { value: f(50.0), q1: a.min(b), q3: a.max(b), n }
    }
}

/// Host times of operations that every round repeats, kept per operation
/// ("cell"): an operation costs its median time over the run's rounds, so
/// that outside load during fewer than half of an operation's rounds barely
/// moves its cost.
#[derive(Debug, Clone)]
pub struct Cells {
    ns: Vec<Vec<f64>>,
    insts: Vec<u64>,
}

impl Cells {
    /// `n` operations, none timed yet.
    pub fn new(n: usize) -> Cells {
        Cells { ns: vec![Vec::new(); n], insts: vec![0; n] }
    }

    /// Adds one timing of `cell`, which simulates `insts` instructions.
    pub fn add(&mut self, cell: usize, ns: u64, insts: u64) {
        self.ns[cell].push(ns as f64);
        self.insts[cell] = insts;
    }

    /// Fewest timings of any cell.
    pub fn rounds(&self) -> usize {
        self.ns.iter().map(Vec::len).min().unwrap_or(0)
    }

    /// The `p`-th percentile time of each of `cells`, summed.
    fn ns(&self, cells: &[usize], p: f64) -> f64 {
        cells.iter().map(|&c| percentile(&self.ns[c], p)).sum()
    }

    /// Simulated MIPS of running each of `cells` once at its `p`-th
    /// percentile time.
    pub fn mips(&self, cells: &[usize], p: f64) -> f64 {
        mips(cells.iter().map(|&c| self.insts[c]).sum(), self.ns(cells, p))
    }

    /// Nanoseconds per simulated instruction over `cells` at the median.
    pub fn ns_per_inst(&self, cells: &[usize]) -> f64 {
        1e3 / self.mips(cells, 50.0)
    }

    /// Operations per second of running each of `cells` once at its `p`-th
    /// percentile time.
    pub fn rate(&self, cells: &[usize], p: f64) -> f64 {
        cells.len() as f64 * 1e9 / self.ns(cells, p).max(1.0)
    }

    /// Every cell index.
    pub fn all(&self) -> Vec<usize> {
        (0..self.ns.len()).collect()
    }

    /// Each timed cell's median time in milliseconds: the latencies of the
    /// operation mix, every operation at its typical speed.
    pub fn median_ms(&self) -> Vec<f64> {
        self.ns.iter().filter(|v| !v.is_empty()).map(|v| median(v) / 1e6).collect()
    }
}

/// The static analyzer's cost of building one simulator, in microseconds:
/// for each configuration, the median `Simulator::new` time minus the median
/// `Simulator::new_unchecked` time (the same build without the pre-flight),
/// then the median over configurations.
pub fn preflight_us(configs: &[(&'static IsaSpec, BuildsetDef)]) -> f64 {
    const REPS: usize = 7;
    let per_config: Vec<f64> = configs
        .iter()
        .map(|&(isa, bs)| {
            let (mut checked, mut unchecked) = (Vec::new(), Vec::new());
            for _ in 0..REPS {
                let t = Instant::now();
                let sim = Simulator::new(isa, bs).expect("catalog configurations are valid");
                checked.push(t.elapsed().as_secs_f64());
                drop(sim);
                let t = Instant::now();
                let sim = Simulator::new_unchecked(isa, bs).expect("valid specification");
                unchecked.push(t.elapsed().as_secs_f64());
                drop(sim);
            }
            (median(&checked) - median(&unchecked)) * 1e6
        })
        .collect();
    median(&per_config)
}

/// The simulated timing statistics of a set of reports, as per-layer
/// values: IPC and misses per thousand instructions. They describe the
/// modelled machine, not the simulator's speed.
pub fn timing_layers(reports: &[&TimingReport]) -> Vec<(&'static str, f64)> {
    let sum = |f: fn(&TimingReport) -> u64| reports.iter().map(|r| f(r)).sum::<u64>() as f64;
    let insts = sum(|r| r.insts).max(1.0);
    vec![
        ("timing.ipc", insts / sum(|r| r.cycles).max(1.0)),
        ("timing.icache_mpki", 1e3 * sum(|r| r.icache_misses) / insts),
        ("timing.dcache_mpki", 1e3 * sum(|r| r.dcache_misses) / insts),
        ("timing.mispredict_mpki", 1e3 * sum(|r| r.mispredicts) / insts),
    ]
}

/// Functional-simulator work summed over a traced run's simulators.
#[derive(Debug, Clone, Copy, Default)]
pub struct Work {
    insts: u64,
    blocks_built: u64,
    detail_units: u64,
}

impl Work {
    /// Adds one simulator's counters.
    pub fn add(&mut self, s: &lis_runtime::SimStats) {
        self.insts += s.insts;
        self.blocks_built += s.blocks_built;
        self.detail_units += s.detail_units();
    }

    /// Translation work and interface work per simulated instruction.
    pub fn layers(&self) -> [(&'static str, f64); 2] {
        let insts = self.insts.max(1) as f64;
        [
            ("runtime.blocks_built_per_kinst", 1e3 * self.blocks_built as f64 / insts),
            ("runtime.detail_units_per_inst", self.detail_units as f64 / insts),
        ]
    }
}

/// Checks one program run's outputs against the program's expectation.
pub fn check_output(o: &mut Outcome, p: &Program, what: &str, exit: i64, stdout: &[u8]) -> bool {
    o.check(exit == 0 && stdout == p.expected.as_slice(), || {
        format!(
            "{}/{} {what}: exit {exit}, stdout {:?} (want {:?})",
            p.isa,
            p.name,
            String::from_utf8_lossy(stdout),
            String::from_utf8_lossy(&p.expected)
        )
    })
}

/// Checks that `value` equals the first value seen in `slot`, storing it
/// there on first sight: every round must reproduce the first exactly.
pub fn check_repeat(o: &mut Outcome, slot: &mut Option<String>, value: String, what: &str) {
    match slot {
        None => *slot = Some(value),
        Some(first) => {
            let same = *first == value;
            o.check(same, || format!("{what}: simulated statistics changed between rounds"));
        }
    }
}

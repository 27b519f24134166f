//! `ooo-hot`: the paper's Figure 1 functional-first organization as
//! `lis run --timing ooo` runs it. Each round runs every suite kernel of
//! every ISA on a fresh `block-decode` simulator feeding the out-of-order
//! timing consumer. The kernels loop over working sets far inside the 16 KiB
//! caches, so translation is amortized and host time splits between the
//! functional simulator's `next_block` and the consumer's `feed`.

use crate::common::{
    check_output, check_repeat, preflight_us, repeat_setup, suite_programs, timed_rounds,
    timing_layers, Cells, Program, RunCfg, Sample, Work,
};
use crate::outcome::{peak_rss_kb, Outcome};
use crate::spans::{Agg, Tracer};
use crate::stats::SplitMix64;
use lis_core::{DynInst, BLOCK_DECODE};
use lis_runtime::{SimStop, Simulator};
use lis_timing::{run_functional_first_ooo, CoreConfig, OooConfig, OooCore, TimingReport};

/// Timed rounds of a run: about `run_seconds` on the reference host.
pub const ROUNDS: usize = 300;

/// Runs the workload.
pub fn run(cfg: &RunCfg) -> Outcome {
    let mut o = Outcome::new(cfg.trace);
    let (core, ooo) = (CoreConfig::default(), OooConfig::default());
    // Set-up assembles the suite and runs it once: the warm-up lets host
    // caches and lazy initialization settle, and its reports are the
    // reference every timed run must reproduce.
    let (setup_s, (progs, reference)) = repeat_setup(cfg, || {
        let progs = suite_programs(cfg, &mut o.tracer);
        let reference: Vec<Option<TimingReport>> = progs
            .iter()
            .map(|p| match run_functional_first_ooo(p.spec(), &p.image, &core, &ooo) {
                Ok(r) => {
                    check_output(&mut o, p, "warm-up", r.exit_code, &r.stdout);
                    Some(r)
                }
                Err(e) => {
                    o.check(false, || format!("{}/{} warm-up: {e}", p.isa, p.name));
                    None
                }
            })
            .collect();
        (progs, reference)
    });
    o.setup_s = setup_s;

    let mut first_json: Vec<Option<String>> =
        reference.iter().map(|r| r.as_ref().map(TimingReport::to_json)).collect();
    let mut work = Work::default();
    let mut cells = Cells::new(progs.len());
    let mut rng = SplitMix64::new(cfg.seed);
    let mut op_id = 0u64;
    timed_rounds(cfg, |_, traced| {
        for i in rng.permutation(progs.len()) {
            op_id += 1;
            let p = &progs[i];
            let (result, dt) = if traced {
                traced_run(&mut o.tracer, op_id, p, &core, &ooo, &mut work)
            } else {
                let t0 = o.tracer.now();
                let r = run_functional_first_ooo(p.spec(), &p.image, &core, &ooo);
                (r, o.tracer.now() - t0)
            };
            let n = result.as_ref().map_or(0, |r| r.insts);
            o.op(dt, n, traced);
            if !traced {
                cells.add(i, dt, n);
            }
            match result {
                Ok(report) => {
                    check_output(&mut o, p, "ooo run", report.exit_code, &report.stdout);
                    // The traced loop is built from the public calls the
                    // library function makes; its report must equal the
                    // library's.
                    check_repeat(&mut o, &mut first_json[i], report.to_json(), &p.name);
                }
                Err(e) => {
                    o.check(false, || format!("{}/{}: {e}", p.isa, p.name));
                }
            }
        }
    });
    o.rss_kb = peak_rss_kb(None);
    let all = cells.all();
    o.sim_mips = Sample::at(cells.rounds(), |p| cells.mips(&all, p));
    o.ops_per_s = Sample::at(cells.rounds(), |p| cells.rate(&all, p));
    o.op_ms = cells.median_ms();

    for json in first_json.iter().flatten() {
        o.digest(json.as_bytes());
    }
    if cfg.trace {
        let reports: Vec<&TimingReport> = reference.iter().flatten().collect();
        o.layers.extend(timing_layers(&reports));
        o.layers.extend(work.layers());
        let configs: Vec<_> = lis_workloads::ISAS
            .iter()
            .map(|&isa| (lis_workloads::spec_of(isa), BLOCK_DECODE))
            .collect();
        o.layers.push(("analyze.preflight_us", preflight_us(&configs)));
    }
    o
}

/// `run_functional_first_ooo` rebuilt from the calls it makes, with a span
/// per layer: simulator construction, `next_block` (runtime) and `feed`
/// (timing) folded per operation. Adds the simulator's counters to `work`.
fn traced_run(
    tr: &mut Tracer,
    op: u64,
    p: &Program,
    core_cfg: &CoreConfig,
    ooo: &OooConfig,
    work: &mut Work,
) -> (Result<TimingReport, SimStop>, u64) {
    let start = tr.now();
    let root = tr.push("bench.op", op, None, start, start, 0);
    let isa = p.spec();
    let mut sim = Simulator::new(isa, BLOCK_DECODE).expect("block-decode is valid");
    let loaded = sim.load_program(&p.image);
    let mut t = tr.now();
    tr.push("runtime.new", op, Some(root), start, t, 0);
    if let Err(f) = loaded {
        tr.close(root, t, 0);
        return (Err(SimStop::Fault(f)), t - start);
    }
    let mut core = OooCore::new(isa, core_cfg, ooo);
    let mut block: Vec<DynInst> = Vec::new();
    let (mut next, mut feed) = (Agg::default(), Agg::default());
    let result = loop {
        if sim.state.halted {
            break Ok(());
        }
        if sim.stats.insts >= 200_000_000 {
            break Err(SimStop::MaxInsts);
        }
        let n = match sim.next_block(&mut block) {
            Ok(n) => n as u64,
            Err(e) => break Err(SimStop::from(e)),
        };
        let t1 = tr.now();
        next.add(t, t1, n);
        let fed: Result<(), _> = block.iter().try_for_each(|di| core.feed(di));
        t = tr.now();
        feed.add(t1, t, n);
        if let Err(f) = fed {
            break Err(SimStop::Fault(f));
        }
    };
    tr.push_agg("runtime.next_block", op, Some(root), &next);
    tr.push_agg("timing.feed", op, Some(root), &feed);
    let end = tr.now();
    tr.close(root, end, sim.stats.insts);
    work.add(&sim.stats);
    let report = result.map(|()| {
        let mut r = core.report("functional-first-ooo");
        r.interface_calls = sim.stats.calls;
        r.fallback_blocks = sim.stats.fallback_blocks;
        r.exit_code = sim.state.exit_code;
        r.stdout = sim.stdout().to_vec();
        r
    });
    (report, end - start)
}

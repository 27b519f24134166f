//! `trace-replay`: record once, replay anywhere. Each round runs every
//! program live on a fresh `block-all` simulator (the reference the
//! recording must reproduce), records it at `block-all`, reads the trace
//! back, and replays it through the out-of-order consumer under every timing
//! preset, on one shard and on two. Besides the suite kernels, one generated
//! program per ISA (about 80 KiB of straight-line code, five times the
//! 16 KiB L1I) brings cold code. The trace codec writes as well as reads
//! here, and the timing components switch presets.

use crate::common::{
    assemble, check_output, check_repeat, preflight_us, reference_stdout, repeat_setup,
    suite_programs, timed_rounds, timing_layers, Cells, Program, RunCfg, Sample, Work, MAX_INSTS,
};
use crate::outcome::{peak_rss_kb, Outcome};
use crate::spans::{Agg, Tracer};
use crate::stats::{geomean, SplitMix64};
use lis_core::{DynInst, BLOCK_ALL};
use lis_runtime::Simulator;
use lis_timing::{CoreConfig, OooCore, TimingConfig, TimingReport};
use lis_trace::{decode_chunk, record, replay_ooo, RecordOptions, ReplayConfig, Trace, TraceError};

/// Timed rounds of a run: about `run_seconds` on the reference host.
pub const ROUNDS: usize = 13;

/// Static length of each generated program, in instructions.
const GEN_LEN: usize = 20_000;

/// Replay shard counts (the host has two cores to give them).
const SHARDS: [usize; 2] = [1, 2];

/// The operations each round makes on each program, in this order: the live
/// run, the recording, the read-back, then one replay per (preset, shard
/// count) pair, preset-major.
const LIVE: usize = 0;
const RECORD: usize = 1;
const READ: usize = 2;
const REPLAY: usize = 3;
const KINDS: usize = REPLAY + TimingConfig::PRESETS.len() * SHARDS.len();

/// Per-program reference outputs of the first round, one slot per check.
#[derive(Debug, Clone, Default)]
struct Firsts {
    live: Option<String>,
    replay: Vec<Option<String>>,
}

/// Runs the workload.
pub fn run(cfg: &RunCfg) -> Outcome {
    let mut o = Outcome::new(cfg.trace);
    // Inputs and their reference outputs come before the set-up timer: the
    // program under test receives only the generated sources.
    let mut rng = SplitMix64::new(cfg.seed);
    let generated: Vec<(&'static str, u64, String, Vec<u8>)> = lis_workloads::ISAS
        .iter()
        .map(|&isa| {
            let seed = rng.next_u64();
            let src = lis_workloads::gen::random_program(isa, seed, GEN_LEN);
            let image =
                lis_workloads::assemble_source(isa, &src).expect("generated programs assemble");
            let expected = reference_stdout(isa, &image).expect("generated programs run");
            (isa, seed, src, expected)
        })
        .collect();

    let (setup_s, progs) = repeat_setup(cfg, || {
        let mut progs = suite_programs(cfg, &mut o.tracer);
        for (i, (isa, _, src, expected)) in generated.iter().enumerate() {
            let image = assemble(&mut o.tracer, isa, src);
            progs.push(Program { isa, name: format!("gen{i}"), image, expected: expected.clone() });
        }
        progs
    });
    o.setup_s = setup_s;
    // The generator seed labels a recording's header (0 for suite kernels).
    let seeds: Vec<u64> = progs
        .iter()
        .map(|p| {
            p.name
                .strip_prefix("gen")
                .and_then(|i| i.parse::<usize>().ok())
                .map_or(0, |i| generated[i].1)
        })
        .collect();

    let presets = TimingConfig::PRESETS;
    let mut firsts = vec![Firsts { live: None, replay: vec![None; KINDS - REPLAY] }; progs.len()];
    let mut classic: Vec<Option<TimingReport>> = vec![None; progs.len()];
    let mut times = Cells::new(progs.len() * KINDS);
    let (mut bytes, mut recorded) = (0u64, 0u64);
    let mut work = Work::default();
    let mut op_id = 0u64;
    timed_rounds(cfg, |round, traced| {
        for i in rng.permutation(progs.len()) {
            let p = &progs[i];
            let spec = p.spec();
            let mut timed = |o: &mut Outcome, kind: usize, ns: u64, insts: u64| {
                if !traced {
                    times.add(i * KINDS + kind, ns, insts);
                }
                o.op(ns, insts, traced);
            };

            // Live run: the functional simulator alone.
            op_id += 1;
            let t0 = o.tracer.now();
            let mut sim = Simulator::new(spec, BLOCK_ALL).expect("block-all is valid");
            let ran = sim
                .load_program(&p.image)
                .map_err(|f| f.to_string())
                .and_then(|()| sim.run_with_sink(MAX_INSTS, |_| {}).map_err(|e| e.to_string()));
            let ns = o.tracer.now() - t0;
            let insts = sim.stats.insts;
            o.span(traced, "runtime.run", op_id, t0, ns, insts);
            timed(&mut o, LIVE, ns, insts);
            if traced {
                work.add(&sim.stats);
            }
            let halted = ran.is_ok() && sim.state.halted;
            if !o.check(halted, || format!("{}/{} live: {ran:?}", p.isa, p.name))
                || !check_output(&mut o, p, "live", sim.state.exit_code, sim.stdout())
            {
                continue;
            }
            check_repeat(&mut o, &mut firsts[i].live, sim.stats.to_json(), &p.name);

            // Record.
            op_id += 1;
            let opts = RecordOptions {
                kernel: p.name.clone(),
                seed: seeds[i],
                ..RecordOptions::default()
            };
            let mut buf = Vec::new();
            let t0 = o.tracer.now();
            let summary = record(spec, &p.image, &mut buf, &opts);
            let ns = o.tracer.now() - t0;
            o.span(traced, "trace.record", op_id, t0, ns, insts);
            timed(&mut o, RECORD, ns, insts);
            let ok = matches!(&summary, Ok(s) if s.halted && s.insts == insts);
            if !o.check(ok, || format!("{}/{} record: {summary:?}", p.isa, p.name)) {
                continue;
            }
            if round == 0 {
                bytes += buf.len() as u64;
                recorded += insts;
            }

            // Read back.
            op_id += 1;
            let t0 = o.tracer.now();
            let trace = Trace::read_from(buf.as_slice());
            let ns = o.tracer.now() - t0;
            o.span(traced, "trace.read", op_id, t0, ns, insts);
            timed(&mut o, READ, ns, insts);
            let trace = match trace {
                Ok(t) if t.footer.stats == sim.stats && t.footer.stdout == p.expected => t,
                other => {
                    o.check(false, || {
                        format!("{}/{} read: footer differs ({:?})", p.isa, p.name, other.err())
                    });
                    continue;
                }
            };

            // Replay under every preset and shard count.
            for (k, (preset, shards)) in
                presets.iter().flat_map(|p| SHARDS.iter().map(move |s| (p, *s))).enumerate()
            {
                op_id += 1;
                let rc = ReplayConfig {
                    shards,
                    core: CoreConfig { timing: *preset, ..CoreConfig::default() },
                    ..ReplayConfig::default()
                };
                let (report, ns) = if traced && shards == 1 {
                    traced_replay(&mut o.tracer, op_id, p, &trace, &rc)
                } else {
                    // The sharded replay runs decode and consumer together
                    // on its own threads; its span stays whole.
                    let t0 = o.tracer.now();
                    let r = replay_ooo(spec, &trace, &rc);
                    let ns = o.tracer.now() - t0;
                    o.span(traced, "trace.replay", op_id, t0, ns, insts);
                    (r, ns)
                };
                timed(&mut o, REPLAY + k, ns, insts);
                let report = match report {
                    Ok(r) => r,
                    Err(e) => {
                        o.check(false, || format!("{}/{} replay: {e}", p.isa, p.name));
                        continue;
                    }
                };
                check_output(&mut o, p, preset.name, report.exit_code, &report.stdout);
                let what = format!("{}/{} {} x{shards}", p.isa, p.name, preset.name);
                check_repeat(&mut o, &mut firsts[i].replay[k], report.to_json(), &what);
                if shards == 1 && preset.name == TimingConfig::CLASSIC.name {
                    classic[i].get_or_insert(report);
                }
            }
        }
    });
    o.rss_kb = peak_rss_kb(None);

    for (p, f) in progs.iter().zip(&firsts) {
        o.digest(format!("{}/{}:", p.isa, p.name).as_bytes());
        for s in std::iter::once(&f.live).chain(&f.replay) {
            o.digest(s.as_deref().unwrap_or("").as_bytes());
        }
    }
    let of = |kinds: &[usize]| -> Vec<usize> {
        (0..progs.len()).flat_map(|i| kinds.iter().map(move |k| i * KINDS + k)).collect()
    };
    let replays = |shard: usize| -> Vec<usize> {
        (0..presets.len()).map(|j| REPLAY + j * SHARDS.len() + shard).collect()
    };
    // Replay speed on one shard, geometric mean over the timing presets.
    o.sim_mips = Sample::at(times.rounds(), |p| {
        let per_preset: Vec<f64> =
            replays(0).into_iter().map(|k| times.mips(&of(&[k]), p)).collect();
        geomean(&per_preset)
    });
    o.ops_per_s = Sample::at(times.rounds(), |p| times.rate(&times.all(), p));
    o.op_ms = times.median_ms();
    let (live_ns, record_ns, read_ns) = (
        times.ns_per_inst(&of(&[LIVE])),
        times.ns_per_inst(&of(&[RECORD])),
        times.ns_per_inst(&of(&[READ])),
    );
    let replay_ns = [0, 1].map(|shard| times.ns_per_inst(&of(&replays(shard))));
    o.detail("ns.live", live_ns, "ns");
    o.detail("ns.record", record_ns, "ns");
    o.detail("ns.read", read_ns, "ns");
    o.detail("ns.replay1", replay_ns[0], "ns");
    o.detail("ns.replay2", replay_ns[1], "ns");
    o.detail("record_mips", 1e3 / record_ns, "MIPS");
    let bytes_per_inst = bytes as f64 / recorded.max(1) as f64;
    o.detail("bytes_per_inst", bytes_per_inst, "B");

    if cfg.trace {
        o.layers.push(("trace.record_x", record_ns / live_ns));
        o.layers.push(("trace.read_x", read_ns / live_ns));
        o.layers.push(("trace.shard_speedup", replay_ns[0] / replay_ns[1]));
        o.layers.push(("trace.bytes_per_inst", bytes_per_inst));
        let reports: Vec<&TimingReport> = classic.iter().flatten().collect();
        o.layers.extend(timing_layers(&reports));
        o.layers.extend(work.layers());
        let configs: Vec<_> = lis_workloads::ISAS
            .iter()
            .map(|&isa| (lis_workloads::spec_of(isa), BLOCK_ALL))
            .collect();
        o.layers.push(("analyze.preflight_us", preflight_us(&configs)));
    }
    o
}

/// Single-shard `replay_ooo` rebuilt from the calls it makes: the span's
/// own time is the trace decode, its `timing.feed` child the consumer.
fn traced_replay(
    tr: &mut Tracer,
    op: u64,
    p: &Program,
    trace: &Trace,
    rc: &ReplayConfig,
) -> (Result<TimingReport, TraceError>, u64) {
    let start = tr.now();
    let root = tr.push("trace.replay", op, None, start, start, 0);
    let mut core = OooCore::new(p.spec(), &rc.core, &rc.ooo);
    let (mut recs, mut block) = (Vec::new(), Vec::<DynInst>::new());
    let mut feed = Agg::default();
    let mut decoded = Ok(());
    for (payload, n) in &trace.chunks {
        if let Err(e) = decode_chunk(payload, *n, &mut recs) {
            decoded = Err(e);
            break;
        }
        block.clear();
        block.extend(recs.drain(..).map(|r| r.project(rc.projection).to_dyninst()));
        let t1 = tr.now();
        // A recorded fault ends the stream, as in `replay_ooo`.
        let fed = block.iter().try_for_each(|di| core.feed(di));
        feed.add(t1, tr.now(), block.len() as u64);
        if fed.is_err() {
            break;
        }
    }
    tr.push_agg("timing.feed", op, Some(root), &feed);
    let end = tr.now();
    tr.close(root, end, trace.insts());
    let report = decoded.map(|()| {
        let mut r = core.report("trace-ooo");
        r.interface_calls = trace.footer.stats.calls;
        r.fallback_blocks = trace.footer.stats.fallback_blocks;
        r.exit_code = trace.footer.exit_code;
        r.stdout = trace.footer.stdout.clone();
        r
    });
    (report, end - start)
}

//! `lis` — assemble and simulate programs under any derived interface.
//!
//! ```text
//! lis run <file.s> --isa alpha [--buildset one-all] [--backend interpreted|compiled]
//!                              [--trace] [--max N] [--deadline S] [--timing ORG]
//! lis asm <file.s> --isa ppc
//! lis disasm <file.s> --isa arm
//! lis kernels [--isa alpha]
//! lis buildsets
//! lis lint [--isa all] [--buildset all] [--format text|json|sarif] [--deny-warnings]
//! lis verify [--isa alpha] [--full] [--no-lint]
//! lis chaos --isa alpha [--chaos-seed N] [--period N] [--runs N] [--no-lint]
//! lis sweep [--jobs N] [--kernels a,b] [--backends all] [-o out.json] [--no-lint]
//! lis trace record <file.s> --isa alpha -o prog.lst
//! lis trace info <prog.lst>
//! lis trace replay <prog.lst> [--shards N] [--stats-json]
//! lis serve --listen 127.0.0.1:4915 [--jobs N] [--drain-deadline S]
//! lis serve --bench-warm [-o BENCH_serve.json]
//! lis connect <addr>
//! ```
//!
//! `verify` and `chaos` use exit codes 0 (clean), 2 (divergence detected),
//! and 3 (fault-storm or deadline abort); `trace info` and `trace replay`
//! use 4 for a corrupt or unreadable trace; `lint` — and the analyzer
//! pre-flight gate in `verify`/`chaos`/`sweep` — uses 5 for error-level
//! findings; `serve` uses 6 when a shutdown drain abandoned in-flight work;
//! all commands use 1 for ordinary errors and 2 for usage errors.

use lis_core::{BuildsetDef, DynInst, IsaSpec, Semantic, Step, Visibility, STANDARD_BUILDSETS};
use lis_harness::{
    chaos_run, minimize_plan, supervised_run, verify_all, verify_isa, ChaosConfig, ChaosOutcome,
    ChaosPlanFile, HarnessError, PlanExpect, SuperviseConfig, SuperviseOutcome, VerifyConfig,
};
use lis_runtime::{ChaosPlan, Simulator};
use lis_timing::{
    run_functional_first, run_functional_first_ooo, run_integrated,
    run_speculative_functional_first, run_timing_directed, run_timing_first, CoreConfig, OooConfig,
    TimingConfig,
};
use std::process::ExitCode;

mod opts;
use opts::Opts;

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
        return ExitCode::from(2);
    }
    let cmd = args.remove(0);
    // `trace` carries its own subcommand before the flags.
    let trace_sub = if cmd == "trace" {
        if args.is_empty() || args[0].starts_with('-') {
            eprintln!("error: `lis trace` needs a subcommand: record | info | replay");
            return ExitCode::from(2);
        }
        Some(args.remove(0))
    } else {
        None
    };
    let opts = match Opts::parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let result: Result<u8, String> = match cmd.as_str() {
        "run" => cmd_run(&opts).map(|()| 0),
        "asm" => cmd_asm(&opts).map(|()| 0),
        "disasm" => cmd_disasm(&opts).map(|()| 0),
        "kernels" => cmd_kernels(&opts).map(|()| 0),
        "buildsets" => cmd_buildsets().map(|()| 0),
        "lint" => cmd_lint(&opts),
        "verify" => cmd_verify(&opts),
        "chaos" => cmd_chaos(&opts),
        "sweep" => cmd_sweep(&opts),
        "trace" => cmd_trace(trace_sub.as_deref().unwrap_or(""), &opts),
        "serve" => cmd_serve(&opts),
        "connect" => cmd_connect(&opts),
        "help" | "--help" | "-h" => {
            usage();
            Ok(0)
        }
        other => Err(format!("unknown command `{other}`")),
    };
    match result {
        Ok(code) => ExitCode::from(code),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn usage() {
    eprintln!(
        "lis — single-specification simulator toolkit

usage:
  lis run <file.s> --isa <alpha|arm|ppc> [options]   assemble and simulate
  lis asm <file.s> --isa <isa>                       assemble, show image
  lis disasm <file.s> --isa <isa>                    assemble, then disassemble
  lis kernels [--isa <isa>]                          run the bundled kernels
  lis buildsets                                      list the standard interfaces
  lis lint [--isa <isa|all>]                         multi-pass static interface +
                                                     translation-soundness verifier
                                                     (codes LIS001-LIS010; see
                                                     `lis lint --list-passes`)
  lis verify [--isa <isa>] [--full]                  lockstep every buildset x backend
                                                     against the one-min reference
                                                     (--backend <b> restricts to one)
  lis chaos --isa <isa> [options]                    seeded fault-injection campaign
  lis sweep [options]                                full buildset x ISA matrix, in
                                                     parallel, to BENCH_sweep.json
  lis trace record <file.s> --isa <isa> [-o <out>]   record a max-detail trace
  lis trace info <trace>                             header, footer, integrity check
  lis trace replay <trace> [--shards <n>]            trace-driven ooo timing replay
  lis serve --listen <addr>                          multi-session simulation daemon
                                                     with a shared translation cache
  lis serve --bench-warm                             cold-vs-warm cache scoreboard,
                                                     to BENCH_serve.json
  lis connect <addr>                                 send request frames from stdin
                                                     to a daemon, print responses

options for `run`:
  --buildset <name>     interface to synthesize (default one-all)
  --backend <b>         interpreted | compiled (default compiled)
  --trace               print each dynamic instruction
  --mix                 print an instruction-class mix histogram
  --max <n>             instruction budget (default 100M)
  --deadline <secs>     wall-clock watchdog; exceeding it stops the run
  --timing <org>        drive a timing model instead:
                        integrated | functional-first | timing-directed |
                        timing-first | sff | ooo
  --preset <name>       timing-component preset for the model: classic |
                        aggressive | stream | minimal (selects the branch
                        predictor, replacement policy, and prefetcher;
                        default classic)
  --stats-json          print machine-readable run statistics as one JSON
                        object on stdout instead of the human summary

options for `trace`:
  -o, --output <path>   record: where to write the trace
                        (default: input path with a .lst extension)
  --buildset <name>     record: interface to record (default block-all,
                        the maximum detail every projection derives from)
  --label <name>        record: workload label stored in the header
  --shards <n>          replay: worker threads over chunk ranges (default 1;
                        1 is bit-identical to the execute-driven run)
  --warmup <n>          replay: warm-up chunks per shard (default 4)
  --project <vis>       replay: visibility projection min|decode|all
                        (default decode)
  --timing <p1,p2,..>   replay: re-time the one recording under each named
                        component preset (classic | aggressive | stream |
                        minimal; default classic)
  --stats-json          replay: print the merged TimingReport as JSON
                        (one object per preset when several are named)

options for `sweep`:
  --jobs <n>            worker threads (default: one per core; clamped to
                        the cell count)
  --kernels <a,b,..>    kernel subset (default: the full suite)
  --backends <set>      interpreted | compiled | all (default compiled)
  --timing <p1,p2,..>   timing presets to cross with the matrix: classic |
                        aggressive | stream | minimal (default classic)
  -o, --output <path>   where to write the JSON (default BENCH_sweep.json)
  --report <path>       also render the Tables I-III markdown report
  --max <n>             per-cell instruction budget
  --deadline <secs>     per-cell watchdog (default 120)
  --retries <n>         retry a panicked cell up to n times, each one
                        backend rung lower (default 2)

options for `lint`:
  --isa <isa|all>       ISA(s) to analyze (default: all)
  --buildset <name|all> buildset cell(s) (default: all standard buildsets)
  --format <f>          text | json | sarif (default text; json is one
                        object per line, sarif is a SARIF 2.1.0 document)
  --deny-warnings       exit 5 on warnings too, not just errors
  --list-passes         print the LIS001-LIS010 pass catalog and exit
  --baseline <file>     absent: write one fingerprint per finding and exit 0;
                        present: suppress the recorded findings and gate only
                        on new ones. Fingerprints hash (code, location, step)
                        only, so rewording messages never invalidates a
                        baseline; a finding at a new anchor is always new

options for `verify` / `chaos`:
  --no-lint             skip the analyzer pre-flight gate (also for sweep)
  --full                verify: all suite kernels (default: quick subset)
  --chaos-seed <n>      chaos: first campaign seed (default 1)
  --period <n>          chaos: mean insts between injections (default 500)
  --runs <n>            chaos: seeded runs in the campaign (default 4)
  --unmap               chaos: also unmap pages (persistent faults)
  --translate           chaos: also poison superblock translations (silent;
                        compiled backend only; needs --paranoid to be seen)
  --paranoid            chaos: shadow each run with a lockstep reference and
                        spot-check the full state every --spot-stride units
  --spot-stride <n>     chaos: units between supervised spot checks (64)
  --demote              recover from divergences by walking the backend
                        demotion ladder instead of aborting (chaos, verify)
  --minimize            chaos: delta-debug a divergence to a minimal
                        .chaosplan repro (implies --paranoid)
  --replay <file>       chaos: replay a committed .chaosplan and check its
                        expect line (0 holds, 3 stale repro, 2 regression)
  --deadline <secs>     chaos: wall-clock limit per run
  --snapshot <path>     crash-snapshot file (default derived:
                        lis-snapshot-<isa>-<buildset>-<seed>.txt)

options for `serve` / `connect`:
  --listen <addr>       address to bind, e.g. 127.0.0.1:4915 (port 0 picks
                        an ephemeral port, printed on startup)
  --jobs <n>            scheduler workers (default: one per core, the same
                        policy as sweep)
  --drain-deadline <s>  seconds a shutdown waits for in-flight sessions
                        before abandoning them (default 10)
  --deadline <secs>     per-request wall-clock watchdog
  --bench-warm          run the cold-vs-warm artifact-store benchmark and
                        write BENCH_serve.json instead of serving
  -o, --output <path>   bench-warm: where to write the JSON
  (connect takes the daemon address as its positional argument, reads one
   request frame per stdin line, prints one response line each, and exits
   with the highest status it saw)

exit codes (shared vocabulary: CLI exits, and per-request `status` fields
in serve responses):
  0  clean
  1  other errors (including a crashed, isolated serve request)
  2  usage errors, divergence detected, malformed protocol frames
  3  fault-storm or deadline abort
  4  corrupt or unreadable trace file
  5  lint failure (error-level diagnostics, or warnings under
     --deny-warnings)
  6  serve only: shutdown drain abandoned queued or in-flight work
     (each abandoned job leaves a lis-serve-abandoned-*.txt snapshot)"
    );
}

fn spec_of(isa: &str) -> Result<&'static IsaSpec, String> {
    match isa {
        "alpha" => Ok(lis_isa_alpha::spec()),
        "arm" => Ok(lis_isa_arm::spec()),
        "ppc" => Ok(lis_isa_ppc::spec()),
        "" => Err("missing --isa (alpha|arm|ppc)".into()),
        other => Err(format!("unknown ISA `{other}`")),
    }
}

fn assemble(isa: &str, src: &str) -> Result<lis_mem::Image, String> {
    let r = match isa {
        "alpha" => lis_isa_alpha::assemble(src),
        "arm" => lis_isa_arm::assemble(src),
        "ppc" => lis_isa_ppc::assemble(src),
        other => return Err(format!("unknown ISA `{other}`")),
    };
    r.map_err(|e| e.to_string())
}

fn read_source(opts: &Opts) -> Result<String, String> {
    let path = opts.input.as_ref().ok_or("missing input file (use `-` for stdin)")?;
    if path == "-" {
        use std::io::Read;
        let mut s = String::new();
        std::io::stdin().read_to_string(&mut s).map_err(|e| e.to_string())?;
        Ok(s)
    } else {
        std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))
    }
}

fn cmd_asm(opts: &Opts) -> Result<(), String> {
    let src = read_source(opts)?;
    let image = assemble(&opts.isa, &src)?;
    print!("{image}");
    let mut syms: Vec<_> = image.symbols.iter().collect();
    syms.sort_by_key(|(_, &a)| a);
    for (name, addr) in syms {
        println!("  {addr:#010x} {name}");
    }
    Ok(())
}

fn cmd_disasm(opts: &Opts) -> Result<(), String> {
    let src = read_source(opts)?;
    let spec = spec_of(&opts.isa)?;
    let image = assemble(&opts.isa, &src)?;
    for sec in image.sections.iter().filter(|s| s.name == ".text") {
        for (i, chunk) in sec.bytes.chunks_exact(4).enumerate() {
            let pc = sec.addr + 4 * i as u64;
            let word = match spec.endian {
                lis_mem::Endian::Big => u32::from_be_bytes(chunk.try_into().unwrap()),
                lis_mem::Endian::Little => u32::from_le_bytes(chunk.try_into().unwrap()),
            };
            println!("{pc:#010x}: {word:08x}  {}", (spec.disasm)(word, pc));
        }
    }
    Ok(())
}

fn cmd_run(opts: &Opts) -> Result<(), String> {
    let src = read_source(opts)?;
    let spec = spec_of(&opts.isa)?;
    let image = assemble(&opts.isa, &src)?;

    if let Some(org) = &opts.timing {
        let mut cfg = CoreConfig::default();
        if let Some(name) = &opts.preset {
            cfg.timing = TimingConfig::named(name).ok_or_else(|| {
                format!("unknown --preset `{name}` (valid: {})", TimingConfig::preset_names())
            })?;
        }
        let report = match org.as_str() {
            "integrated" => run_integrated(spec, &image, &cfg),
            "functional-first" => run_functional_first(spec, &image, &cfg),
            "timing-directed" => run_timing_directed(spec, &image, &cfg),
            "timing-first" => run_timing_first(spec, &image, &cfg, None),
            "sff" | "speculative-functional-first" => {
                run_speculative_functional_first(spec, &image, &cfg, &[])
            }
            "ooo" | "functional-first-ooo" => {
                run_functional_first_ooo(spec, &image, &cfg, &OooConfig::default())
            }
            other => return Err(format!("unknown organization `{other}`")),
        }
        .map_err(|e| e.to_string())?;
        if opts.stats_json {
            println!("{}", report.to_json());
        } else {
            print!("{}", String::from_utf8_lossy(&report.stdout));
            eprintln!("{report}");
        }
        return Ok(());
    }
    if opts.preset.is_some() {
        return Err("--preset selects timing components and needs --timing <org>".into());
    }

    let bs = *lis_core::find_buildset(&opts.buildset)
        .ok_or_else(|| format!("unknown buildset `{}` (see `lis buildsets`)", opts.buildset))?;
    let mut sim = Simulator::new(spec, bs).map_err(|e| e.to_string())?;
    sim.set_backend(opts.backend);
    if let Some(secs) = opts.deadline {
        sim.set_deadline(std::time::Duration::from_secs(secs));
    }
    sim.load_program(&image).map_err(|e| e.to_string())?;

    if opts.mix {
        return run_mix(spec, &image, opts.max);
    }
    if opts.trace {
        run_traced(&mut sim, spec, opts.max)?;
    } else {
        match sim.run_to_halt(opts.max) {
            Ok(summary) => {
                if opts.stats_json {
                    let mut o = lis_core::JsonObj::new();
                    o.i64("exit_code", summary.exit_code)
                        .str("stdout", &String::from_utf8_lossy(sim.stdout()))
                        .raw("stats", &sim.stats.to_json());
                    println!("{}", o.finish());
                } else {
                    print!("{}", String::from_utf8_lossy(sim.stdout()));
                    eprintln!("exit {}; {}", summary.exit_code, sim.stats);
                }
            }
            Err(stop) => {
                print!("{}", String::from_utf8_lossy(sim.stdout()));
                return Err(stop.to_string());
            }
        }
    }
    Ok(())
}

/// Prints an instruction-class mix histogram, using the decode-level
/// functional-first interface (exactly the informational detail a profiler
/// needs — opcode indices, nothing more).
fn run_mix(spec: &'static IsaSpec, image: &lis_mem::Image, max: u64) -> Result<(), String> {
    let mut sim = Simulator::new(spec, lis_core::BLOCK_DECODE).map_err(|e| e.to_string())?;
    sim.load_program(image).map_err(|e| e.to_string())?;
    let mut by_class: std::collections::BTreeMap<&str, u64> = Default::default();
    let mut by_inst: std::collections::BTreeMap<&str, u64> = Default::default();
    let mut trace = Vec::new();
    while !sim.state.halted && sim.stats.insts < max {
        sim.next_block(&mut trace).map_err(|e| e.to_string())?;
        for di in &trace {
            if let Some(f) = di.fault {
                return Err(f.to_string());
            }
            if let Some(op) = di.field(lis_core::F_OPCODE) {
                let def = spec.inst(op as u16);
                *by_class.entry(def.class.name()).or_default() += 1;
                *by_inst.entry(def.name).or_default() += 1;
            }
        }
    }
    print!("{}", String::from_utf8_lossy(sim.stdout()));
    let total = sim.stats.insts.max(1);
    eprintln!("instruction mix over {} instructions:", sim.stats.insts);
    for (class, n) in &by_class {
        eprintln!("  {class:<8} {n:>10} ({:5.1}%)", *n as f64 * 100.0 / total as f64);
    }
    let mut top: Vec<_> = by_inst.into_iter().collect();
    top.sort_by_key(|(_, n)| std::cmp::Reverse(*n));
    eprintln!("hottest instructions:");
    for (name, n) in top.iter().take(8) {
        eprintln!("  {name:<8} {n:>10} ({:5.1}%)", *n as f64 * 100.0 / total as f64);
    }
    Ok(())
}

fn run_traced(sim: &mut Simulator, spec: &'static IsaSpec, max: u64) -> Result<(), String> {
    let mut di = DynInst::new();
    let mut trace = Vec::new();
    while !sim.state.halted && sim.stats.insts < max {
        match sim.buildset().semantic {
            Semantic::One => {
                sim.next_inst(&mut di).map_err(|e| e.to_string())?;
                print_di(spec, &di);
                if let Some(f) = di.fault {
                    return Err(f.to_string());
                }
            }
            Semantic::Step => {
                for step in Step::ALL {
                    sim.step_inst(step, &mut di).map_err(|e| e.to_string())?;
                    if let Some(f) = di.fault {
                        print_di(spec, &di);
                        return Err(f.to_string());
                    }
                }
                print_di(spec, &di);
            }
            Semantic::Block => {
                sim.next_block(&mut trace).map_err(|e| e.to_string())?;
                for d in &trace {
                    print_di(spec, d);
                    if let Some(f) = d.fault {
                        return Err(f.to_string());
                    }
                }
            }
        }
    }
    print!("{}", String::from_utf8_lossy(sim.stdout()));
    eprintln!("exit {}; {}", sim.state.exit_code, sim.stats);
    Ok(())
}

fn print_di(spec: &IsaSpec, di: &DynInst) {
    let text = (spec.disasm)(di.header.instr_bits, di.header.pc);
    eprint!("{:#010x}: {text:<32}", di.header.pc);
    for desc in spec.all_fields() {
        if let Some(v) = di.field(desc.id) {
            eprint!(" {}={v:#x}", desc.name);
        }
    }
    eprintln!();
}

fn cmd_kernels(opts: &Opts) -> Result<(), String> {
    let isas: Vec<&str> = if opts.isa.is_empty() {
        lis_workloads::ISAS.to_vec()
    } else {
        vec![match opts.isa.as_str() {
            "alpha" => "alpha",
            "arm" => "arm",
            "ppc" => "ppc",
            other => return Err(format!("unknown ISA `{other}`")),
        }]
    };
    for isa in isas {
        for w in lis_workloads::suite_of(isa) {
            let image = w.assemble().map_err(|e| e.to_string())?;
            let mut sim = Simulator::new(lis_workloads::spec_of(isa), lis_core::ONE_ALL).unwrap();
            sim.load_program(&image).map_err(|e| e.to_string())?;
            let t = std::time::Instant::now();
            let summary = sim.run_to_halt(100_000_000).map_err(|e| e.to_string())?;
            let dt = t.elapsed().as_secs_f64();
            let got = String::from_utf8_lossy(sim.stdout()).into_owned();
            let ok = got == w.expected_stdout();
            println!(
                "{isa:<6} {:<8} {:>9} insts {:>8.2} MIPS  {} (output {})",
                w.name,
                summary.insts,
                summary.insts as f64 / dt / 1e6,
                if ok { "ok" } else { "MISMATCH" },
                got.trim(),
            );
            if !ok {
                return Err(format!("{isa}/{} output mismatch", w.name));
            }
        }
    }
    Ok(())
}

/// `lis lint`: run the full multi-pass static analyzer — interface passes
/// (LIS001–LIS005) plus translation-soundness passes over the compiled
/// backend's synthesized view (LIS006–LIS010) — over every requested
/// ISA × buildset cell. Exit 0 when no error-level diagnostic is found, 5
/// otherwise (`--deny-warnings` escalates warnings into the failing set).
fn cmd_lint(opts: &Opts) -> Result<u8, String> {
    if opts.list_passes {
        println!("{:<8} {:<26} {:<16} summary", "code", "pass", "severities");
        for p in lis_analyze::PASSES {
            println!("{:<8} {:<26} {:<16} {}", p.code.to_string(), p.name, p.levels, p.short);
        }
        return Ok(0);
    }
    let isas: Vec<&'static IsaSpec> = if opts.isa.is_empty() || opts.isa == "all" {
        vec![lis_isa_alpha::spec(), lis_isa_arm::spec(), lis_isa_ppc::spec()]
    } else {
        vec![spec_of(&opts.isa)?]
    };
    let cells: Vec<BuildsetDef> = if !opts.buildset_explicit || opts.buildset == "all" {
        STANDARD_BUILDSETS.to_vec()
    } else {
        vec![*lis_core::find_buildset(&opts.buildset)
            .ok_or_else(|| format!("unknown buildset `{}` (see `lis buildsets`)", opts.buildset))?]
    };

    let mut diags = Vec::new();
    for spec in &isas {
        diags.extend(lis_analyze::analyze_isa(spec));
        for bs in &cells {
            diags.extend(lis_analyze::analyze(spec, bs));
            let view = lis_runtime::synthesize_view(spec, bs);
            diags.extend(lis_analyze::analyze_translation(spec, bs, &view));
        }
    }
    let mut suppressed = 0usize;
    if let Some(path) = opts.baseline.as_deref() {
        match read_baseline(path)? {
            Some(known) => {
                let before = diags.len();
                diags.retain(|d| !known.contains(&d.fingerprint()));
                suppressed = before - diags.len();
            }
            None => {
                write_baseline(path, &diags)?;
                eprintln!(
                    "lint: wrote {} fingerprint(s) to {path}; future runs gate only on new \
                     findings",
                    diags.len()
                );
                return Ok(0);
            }
        }
    }
    let errors = lis_analyze::count(&diags, lis_analyze::Severity::Error);
    let warnings = lis_analyze::count(&diags, lis_analyze::Severity::Warning);

    match opts.format.as_deref() {
        None | Some("text") => {
            print!("{}", lis_analyze::render_text(&diags));
            let base = if suppressed > 0 {
                format!(", {suppressed} baseline-suppressed")
            } else {
                String::new()
            };
            eprintln!(
                "lint: {} ISA(s) x {} buildset(s): {errors} error(s), {warnings} warning(s){base}",
                isas.len(),
                cells.len()
            );
        }
        Some("json") => print!("{}", lis_analyze::render_json(&diags)),
        Some("sarif") => print!("{}", lis_analyze::render_sarif(&diags)),
        Some(other) => return Err(format!("unknown --format `{other}` (text|json|sarif)")),
    }
    Ok(if errors > 0 || (opts.deny_warnings && warnings > 0) { 5 } else { 0 })
}

/// Reads a `lis lint` baseline file into the set of suppressed
/// fingerprints, or `None` when the file does not exist yet (the caller
/// then writes one). Lines are `<16-hex-fingerprint> <code> <location>`;
/// only the fingerprint is load-bearing, the rest keeps diffs reviewable.
fn read_baseline(path: &str) -> Result<Option<std::collections::HashSet<u64>>, String> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(format!("--baseline {path}: {e}")),
    };
    let mut set = std::collections::HashSet::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let fp = line.split_whitespace().next().unwrap_or("");
        let fp = u64::from_str_radix(fp, 16)
            .map_err(|_| format!("--baseline {path}: malformed fingerprint line `{line}`"))?;
        set.insert(fp);
    }
    Ok(Some(set))
}

/// Writes a baseline file: deterministic (sorted, deduplicated) so two
/// runs over the same specs produce byte-identical files.
fn write_baseline(path: &str, diags: &[lis_analyze::Diagnostic]) -> Result<(), String> {
    let mut lines: Vec<String> = diags
        .iter()
        .map(|d| format!("{:016x} {} {}", d.fingerprint(), d.code, d.location()))
        .collect();
    lines.sort();
    lines.dedup();
    let mut out = String::from(
        "# lis lint baseline v1 — fingerprints of accepted findings.\n\
         # A fingerprint hashes (code, location, step) only; message wording may change\n\
         # without invalidating it. Regenerate by deleting this file and re-running lint.\n",
    );
    for l in &lines {
        out.push_str(l);
        out.push('\n');
    }
    std::fs::write(path, out).map_err(|e| format!("--baseline {path}: {e}"))
}

/// The errors-only analyzer gate `verify`/`chaos`/`sweep` run before doing
/// any expensive simulation: a broken interface is reported as LIS***
/// diagnostics up front instead of as a divergence hundreds of instructions
/// into a workload. Returns `true` (after printing the report) when any
/// cell fails; `--no-lint` skips the call entirely.
fn lint_gate(cells: &[(&'static IsaSpec, BuildsetDef)]) -> bool {
    let mut all = Vec::new();
    for (spec, bs) in cells {
        if let Err(d) = lis_analyze::preflight(spec, bs) {
            all.extend(d);
        }
        let view = lis_runtime::synthesize_view(spec, bs);
        if let Err(d) = lis_analyze::preflight_translation(spec, bs, &view) {
            all.extend(d);
        }
    }
    // `preflight` repeats the ISA-level pass per cell; collapse duplicates.
    let mut seen = std::collections::HashSet::new();
    all.retain(|d| seen.insert(d.to_string()));
    if all.is_empty() {
        return false;
    }
    eprint!("{}", lis_analyze::render_text(&all));
    eprintln!("lint: {} pre-flight error(s); pass --no-lint to run anyway", all.len());
    true
}

fn cmd_buildsets() -> Result<(), String> {
    println!("{:<20} {:<22} {:>10}", "name", "detail", "spec");
    for bs in STANDARD_BUILDSETS {
        println!("{:<20} {:<22} {:>10}", bs.name, bs.describe(), bs.speculation);
    }
    Ok(())
}

/// `lis verify`: lockstep every standard buildset on every backend against
/// the `one-min` interpreted reference, over suite kernels and generated
/// programs. `--backend <b>` restricts the matrix to one backend. Exit 0
/// when every cell agrees, 2 on any divergence.
fn cmd_verify(opts: &Opts) -> Result<u8, String> {
    if !opts.no_lint {
        let isas: Vec<&'static IsaSpec> = if opts.isa.is_empty() {
            vec![lis_isa_alpha::spec(), lis_isa_arm::spec(), lis_isa_ppc::spec()]
        } else {
            vec![spec_of(&opts.isa)?]
        };
        let cells: Vec<(&'static IsaSpec, BuildsetDef)> =
            isas.iter().flat_map(|s| STANDARD_BUILDSETS.iter().map(|bs| (*s, *bs))).collect();
        if lint_gate(&cells) {
            return Ok(5);
        }
    }
    let mut cfg = if opts.full { VerifyConfig::full() } else { VerifyConfig::default() };
    cfg.lockstep.max_insts = opts.max;
    // `--demote` additionally asserts that runs surviving a mid-run backend
    // demotion still match the reference.
    cfg.lockstep.demote = opts.demote;
    if opts.backend_explicit {
        cfg.backends = vec![opts.backend];
    }
    let t0 = std::time::Instant::now();
    let report = if opts.isa.is_empty() {
        verify_all(&cfg)
    } else {
        spec_of(&opts.isa)?; // validate the name
        verify_isa(&opts.isa, &cfg)
    };
    eprintln!("verify: {report} in {:.2}s", t0.elapsed().as_secs_f64());
    if report.ok() {
        return Ok(0);
    }
    for f in &report.failures {
        eprintln!("\nFAIL {}:\n{}", f.job, f.error);
    }
    // Persist the first structured divergence for post-mortem analysis. The
    // default snapshot name carries the failing cell's identity so parallel
    // CI shards never clobber each other.
    let first = report.failures.iter().find_map(|f| match &f.error {
        HarnessError::Divergence(r) => Some((&f.job, r)),
        _ => None,
    });
    if let Some((job, r)) = first {
        let path = if opts.snapshot_explicit {
            opts.snapshot.clone()
        } else {
            format!("lis-snapshot-{}.txt", job.replace('/', "-"))
        };
        std::fs::write(&path, r.snapshot()).map_err(|e| format!("{path}: {e}"))?;
        eprintln!("\ncrash snapshot written to {path}");
    }
    Ok(2)
}

/// `lis trace`: record, inspect, and replay max-detail instruction traces.
/// `info` and `replay` exit 4 when the trace file fails any integrity
/// check (bad magic, version mismatch, CRC, truncation, malformed record).
fn cmd_trace(sub: &str, opts: &Opts) -> Result<u8, String> {
    match sub {
        "record" => cmd_trace_record(opts).map(|()| 0),
        "info" => cmd_trace_info(opts),
        "replay" => cmd_trace_replay(opts),
        other => Err(format!("unknown trace subcommand `{other}` (record | info | replay)")),
    }
}

fn cmd_trace_record(opts: &Opts) -> Result<(), String> {
    let src = read_source(opts)?;
    let spec = spec_of(&opts.isa)?;
    let image = assemble(&opts.isa, &src)?;

    // Maximum detail by default: a block-all trace is the one every
    // lower-detail interface's trace can be derived from by projection.
    let bs_name = if opts.buildset_explicit { opts.buildset.as_str() } else { "block-all" };
    let bs = *lis_core::find_buildset(bs_name)
        .ok_or_else(|| format!("unknown buildset `{bs_name}` (see `lis buildsets`)"))?;

    let out_path = match &opts.output {
        Some(p) => p.clone(),
        None => {
            let input = opts.input.as_deref().unwrap_or("-");
            if input == "-" {
                "trace.lst".to_string()
            } else {
                format!("{}.lst", input.trim_end_matches(".s"))
            }
        }
    };
    let label = opts.label.clone().unwrap_or_else(|| {
        opts.input.as_deref().unwrap_or("stdin").rsplit('/').next().unwrap_or("stdin").to_string()
    });

    let file = std::fs::File::create(&out_path).map_err(|e| format!("{out_path}: {e}"))?;
    let record_opts = lis_trace::RecordOptions {
        buildset: bs,
        kernel: label,
        max_insts: opts.max,
        ..Default::default()
    };
    let summary = lis_trace::record(spec, &image, std::io::BufWriter::new(file), &record_opts)
        .map_err(|e| e.to_string())?;
    let bytes = std::fs::metadata(&out_path).map(|m| m.len()).unwrap_or(0);
    eprintln!(
        "recorded {} insts ({} bytes, {:.2} B/inst) from {}/{} to {out_path}{}",
        summary.insts,
        bytes,
        bytes as f64 / summary.insts.max(1) as f64,
        spec.name,
        bs.name,
        match summary.fault {
            Some(f) => format!("; run ended at fault: {f}"),
            None => format!("; exit {}", summary.exit_code),
        }
    );
    Ok(())
}

/// Opens a trace file; any failure here is usage, not integrity.
fn open_trace(opts: &Opts) -> Result<std::io::BufReader<std::fs::File>, String> {
    let path = opts.input.as_ref().ok_or("missing trace file argument")?;
    let file = std::fs::File::open(path).map_err(|e| format!("{path}: {e}"))?;
    Ok(std::io::BufReader::new(file))
}

fn cmd_trace_info(opts: &Opts) -> Result<u8, String> {
    let r = open_trace(opts)?;
    let info = match lis_trace::TraceInfo::scan(r) {
        Ok(info) => info,
        Err(e) => {
            eprintln!("trace integrity failure: {e}");
            return Ok(4);
        }
    };
    if opts.stats_json {
        let mut o = lis_core::JsonObj::new();
        o.str("isa", &info.meta.isa)
            .str("buildset", &info.meta.buildset)
            .str("kernel", &info.meta.kernel)
            .u64("seed", info.meta.seed)
            .u64("records", info.footer.insts)
            .u64("chunks", info.chunks as u64)
            .u64("data_bytes", info.data_bytes)
            .bool("halted", info.footer.halted)
            .i64("exit_code", info.footer.exit_code)
            .raw("stats", &info.footer.stats.to_json());
        println!("{}", o.finish());
    } else {
        println!("{info}");
    }
    Ok(0)
}

fn cmd_trace_replay(opts: &Opts) -> Result<u8, String> {
    let r = open_trace(opts)?;
    let trace = match lis_trace::Trace::read_from(r) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("trace integrity failure: {e}");
            return Ok(4);
        }
    };
    let spec = spec_of(&trace.meta.isa)?;
    let projection = match opts.project.as_deref() {
        None | Some("decode") => Visibility::DECODE,
        Some("min") => Visibility::MIN,
        Some("all") => Visibility::ALL,
        Some(other) => return Err(format!("unknown projection `{other}` (min|decode|all)")),
    };
    if !projection.fields.contains(lis_core::F_OPCODE) {
        eprintln!(
            "warning: projection hides fields the ooo consumer models with (opcode, \
             effective address); instructions are counted but contribute no latency"
        );
    }
    // `--timing p1,p2` re-times the one recording under several component
    // presets in a single invocation — the trace is read once, the timing
    // side varies, the functional specification never does.
    let presets = match opts.timing.as_deref() {
        None => vec![TimingConfig::CLASSIC],
        Some(list) => {
            let mut out = Vec::new();
            for name in list.split(',').filter(|s| !s.is_empty()) {
                out.push(TimingConfig::named(name).ok_or_else(|| {
                    format!(
                        "unknown timing preset `{name}` (valid: {})",
                        TimingConfig::preset_names()
                    )
                })?);
            }
            if out.is_empty() {
                return Err("--timing needs at least one preset name".into());
            }
            out
        }
    };
    for (pi, preset) in presets.iter().enumerate() {
        let cfg = lis_trace::ReplayConfig {
            shards: opts.shards,
            warmup_chunks: opts.warmup,
            core: CoreConfig { timing: *preset, ..CoreConfig::default() },
            projection,
            ..Default::default()
        };
        let t0 = std::time::Instant::now();
        let report = match lis_trace::replay_ooo(spec, &trace, &cfg) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("trace integrity failure: {e}");
                return Ok(4);
            }
        };
        let dt = t0.elapsed().as_secs_f64();
        if opts.stats_json {
            // One JSON object per preset, each tagged with the preset name
            // (a single-preset replay stays the bare TimingReport object for
            // existing consumers).
            if presets.len() == 1 {
                println!("{}", report.to_json());
            } else {
                let mut o = lis_core::JsonObj::new();
                o.str("timing", preset.name).raw("report", &report.to_json());
                println!("{}", o.finish());
            }
        } else {
            if pi == 0 {
                // The program output is a preset-independent functional
                // fact; print it once, not once per preset.
                print!("{}", String::from_utf8_lossy(&report.stdout));
            }
            if presets.len() > 1 {
                eprintln!("[timing {}]", preset.name);
            }
            eprintln!("{report}");
            eprintln!(
                "replayed {} insts on {} shard(s) in {dt:.3}s ({:.2} M insts/s)",
                report.insts,
                opts.shards,
                report.insts as f64 / dt / 1e6
            );
        }
    }
    Ok(0)
}

/// `lis sweep`: the full-matrix evaluation — every standard buildset on
/// every ISA (optionally every backend) over the kernel suite, run as
/// isolated parallel jobs. Writes `BENCH_sweep.json` (bit-identical across
/// runs and job counts) and an optional Tables I–III markdown report. Exit
/// 0 when every cell ran to a clean halt, 3 when any cell faulted or hit its
/// deadline.
fn cmd_sweep(opts: &Opts) -> Result<u8, String> {
    if !opts.no_lint {
        let cells: Vec<(&'static IsaSpec, BuildsetDef)> = lis_workloads::ISAS
            .iter()
            .map(|isa| lis_workloads::spec_of(isa))
            .flat_map(|s| STANDARD_BUILDSETS.iter().map(move |bs| (s, *bs)))
            .collect();
        if lint_gate(&cells) {
            return Ok(5);
        }
    }
    let timing_names: Vec<String> = opts
        .timing
        .as_deref()
        .unwrap_or("")
        .split(',')
        .filter(|s| !s.is_empty())
        .map(str::to_string)
        .collect();
    let timings = lis_bench::resolve_timings(&timing_names)?;
    let mut cfg = lis_bench::SweepConfig {
        jobs: opts.jobs,
        kernels: opts.kernels.clone(),
        timings,
        max_insts: opts.max,
        retries: opts.retries,
        // CI's isolation smoke test injects a deliberate panic into one
        // named cell; see SweepConfig::panic_cell.
        panic_cell: std::env::var("LIS_SWEEP_PANIC").ok(),
        ..lis_bench::SweepConfig::default()
    };
    if let Some(backends) = &opts.backends {
        cfg.backends = backends.clone();
    }
    if let Some(secs) = opts.deadline {
        cfg.deadline = Some(std::time::Duration::from_secs(secs));
    }

    let t0 = std::time::Instant::now();
    let report = lis_bench::run_sweep(&cfg)?;

    let json_path = opts.output.as_deref().unwrap_or("BENCH_sweep.json");
    std::fs::write(json_path, lis_bench::sweep::to_json(&report) + "\n")
        .map_err(|e| format!("{json_path}: {e}"))?;
    if report.backends.len() > 1 {
        // Multi-backend sweeps also emit the per-backend cost summary
        // (deterministic counters only, so byte-identical like the unit
        // fields of the main JSON).
        std::fs::write("BENCH_backend.json", lis_bench::sweep::backend_json(&report) + "\n")
            .map_err(|e| format!("BENCH_backend.json: {e}"))?;
    }
    if let Some(md_path) = &opts.report {
        std::fs::write(md_path, lis_bench::sweep::render_markdown(&report))
            .map_err(|e| format!("{md_path}: {e}"))?;
    }

    let bad: Vec<&lis_bench::CellResult> = report
        .cells
        .iter()
        .filter(|c| {
            c.deadline_expired
                || c.fault.is_some()
                || !c.halted
                || c.exit_code != 0
                || c.crashes > 0
        })
        .collect();
    eprintln!(
        "sweep: {} cells ({} kernels x {} buildsets x {} ISAs x {} backend(s) x \
         {} preset(s)) on {} worker(s) in {:.2}s -> {json_path}{}",
        report.cells.len(),
        report.kernels.len(),
        lis_core::STANDARD_BUILDSETS.len(),
        lis_workloads::ISAS.len(),
        report.backends.len(),
        report.timings.len(),
        report.jobs,
        t0.elapsed().as_secs_f64(),
        match &opts.report {
            Some(p) => format!(" + {p}"),
            None => String::new(),
        }
    );
    for c in &bad {
        eprintln!(
            "  FAIL {}/{}/{} ({}): {}",
            c.isa,
            c.buildset,
            c.kernel,
            c.backend.name(),
            match (&c.crash, &c.fault, c.deadline_expired) {
                (Some(msg), _, _) if c.halted && c.exit_code == 0 => {
                    format!("crashed {} time(s), recovered on retry [{msg}]", c.crashes)
                }
                (Some(msg), _, _) => format!("crashed {} time(s) [{msg}]", c.crashes),
                (None, Some(f), _) => f.clone(),
                (None, None, true) => "deadline expired".into(),
                (None, None, false) => format!("exit code {}", c.exit_code),
            }
        );
    }
    Ok(if bad.is_empty() { 0 } else { 3 })
}

/// Default crash-snapshot path: derived from the run's identity and seed so
/// parallel campaigns never clobber each other's post-mortems. An explicit
/// `--snapshot` always wins.
fn snapshot_path(opts: &Opts, isa: &str, buildset: &str, seed: u64) -> String {
    if opts.snapshot_explicit {
        opts.snapshot.clone()
    } else {
        format!("lis-snapshot-{isa}-{buildset}-{seed:#x}.txt")
    }
}

/// `lis chaos --replay <file>`: replay a committed `.chaosplan` repro and
/// judge it against its `expect` line. Exit 0 on a matching replay; 3 when
/// an expected divergence no longer reproduces (the repro went stale); 2
/// when a survive-plan diverges (a regression).
fn cmd_chaos_replay(path: &str) -> Result<u8, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let plan = ChaosPlanFile::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let replay = plan.replay().map_err(|e| format!("{path}: {e}"))?;
    println!("{}", replay.report);
    if replay.matched {
        println!("replay: plan verdict holds");
        return Ok(0);
    }
    match plan.expect {
        PlanExpect::Diverge => {
            eprintln!("replay: expected divergence did NOT reproduce");
            Ok(3)
        }
        PlanExpect::Survive => {
            eprintln!("replay: survive-plan diverged or failed verification");
            Ok(2)
        }
    }
}

/// `lis chaos`: a campaign of seeded fault-injection runs. Each seed runs
/// the workload under bit flips, transient data faults, and page unmaps,
/// with cache verification (graceful degradation) enabled. Exit 0 when
/// every run survives to halt or budget, 3 on a fault storm or deadline.
///
/// With `--paranoid` every run is supervised by a lockstep reference and the
/// full state is spot-checked; a divergence exits 2 — unless `--demote` lets
/// the engine walk down the backend ladder and finish the run anyway.
/// `--minimize` (implies `--paranoid`) delta-debugs a found divergence into
/// a minimal `.chaosplan` repro.
fn cmd_chaos(opts: &Opts) -> Result<u8, String> {
    if let Some(path) = &opts.replay {
        return cmd_chaos_replay(path);
    }
    let spec = spec_of(&opts.isa)?;
    let (image, workload) = match &opts.input {
        Some(path) => {
            let src = read_source(opts)?;
            (assemble(&opts.isa, &src)?, path.clone())
        }
        None => (
            lis_workloads::suite_of(&opts.isa)
                .iter()
                .find(|w| w.name == "hash31")
                .expect("bundled kernel")
                .assemble()
                .map_err(|e| e.to_string())?,
            "hash31".to_string(),
        ),
    };
    let bs = *lis_core::find_buildset(&opts.buildset)
        .ok_or_else(|| format!("unknown buildset `{}` (see `lis buildsets`)", opts.buildset))?;
    if !opts.no_lint && lint_gate(&[(spec, bs)]) {
        return Ok(5);
    }
    let supervised = opts.paranoid || opts.minimize || opts.demote;
    let mut worst = 0u8;
    for i in 0..opts.runs {
        let seed = opts.chaos_seed.wrapping_add(u64::from(i));
        // Transient channels by default; page unmaps are persistent faults
        // (the page stays gone), which usually storm, so they are opt-in —
        // as is translate poisoning, which only the supervisor can catch.
        let plan = ChaosPlan {
            seed,
            flip_period: Some(opts.period),
            data_fault_period: Some(opts.period),
            unmap_period: opts.unmap.then_some(opts.period),
            translate_fault_period: opts.translate.then_some(opts.period),
            start: 0,
            max_events: 0,
        };
        let snapshot = snapshot_path(opts, &opts.isa, bs.name, seed);
        let code = if supervised {
            let cfg = SuperviseConfig {
                max_insts: opts.max,
                spot_stride: opts.spot_stride,
                demote: opts.demote,
                deadline: opts.deadline.map(std::time::Duration::from_secs),
                ..SuperviseConfig::default()
            };
            let report = supervised_run(spec, &image, bs, opts.backend, plan, &cfg)
                .map_err(|e| e.to_string())?;
            println!("{report}");
            for d in &report.demotions {
                println!("  {d}");
            }
            match report.outcome {
                SuperviseOutcome::Diverged => {
                    std::fs::write(&snapshot, report.snapshot())
                        .map_err(|e| format!("{snapshot}: {e}"))?;
                    eprintln!("crash snapshot written to {snapshot}");
                    if opts.minimize {
                        minimize_to_file(opts, spec, &image, bs, &workload, seed, &report.events)?;
                    }
                    2
                }
                SuperviseOutcome::Storm | SuperviseOutcome::Deadline => {
                    std::fs::write(&snapshot, report.snapshot())
                        .map_err(|e| format!("{snapshot}: {e}"))?;
                    eprintln!("crash snapshot written to {snapshot}");
                    3
                }
                SuperviseOutcome::Halted { .. } | SuperviseOutcome::Budget => {
                    if report.verified {
                        0
                    } else {
                        eprintln!("run completed but final state failed verification");
                        2
                    }
                }
            }
        } else {
            let cfg = ChaosConfig {
                max_insts: opts.max,
                deadline: opts.deadline.map(std::time::Duration::from_secs),
                ..ChaosConfig::default()
            };
            let report =
                chaos_run(spec, &image, bs, opts.backend, plan, &cfg).map_err(|e| e.to_string())?;
            println!("{report}");
            if matches!(report.outcome, ChaosOutcome::Storm | ChaosOutcome::Deadline) {
                std::fs::write(&snapshot, report.snapshot())
                    .map_err(|e| format!("{snapshot}: {e}"))?;
                eprintln!("crash snapshot written to {snapshot}");
                3
            } else {
                0
            }
        };
        worst = worst.max(code);
    }
    Ok(worst)
}

/// Minimizes a diverging event log and writes the `.chaosplan` repro.
fn minimize_to_file(
    opts: &Opts,
    spec: &'static IsaSpec,
    image: &lis_mem::Image,
    bs: BuildsetDef,
    workload: &str,
    seed: u64,
    events: &[lis_runtime::ChaosEvent],
) -> Result<(), String> {
    if lis_workloads::kernel(&opts.isa, workload).is_none() {
        eprintln!(
            "minimize: repro plans reference bundled kernels; `{workload}` is not one — \
             not writing a plan"
        );
        return Ok(());
    }
    let cfg = SuperviseConfig {
        max_insts: opts.max,
        spot_stride: opts.spot_stride,
        ..SuperviseConfig::default()
    };
    let outcome = minimize_plan(spec, image, bs, opts.backend, seed, events, &cfg)
        .map_err(|e| e.to_string())?;
    let Some(min) = outcome else {
        eprintln!(
            "minimize: scripted replay of the event log does not reproduce; not writing a plan"
        );
        return Ok(());
    };
    let plan = ChaosPlanFile {
        isa: opts.isa.clone(),
        buildset: bs.name.to_string(),
        backend: opts.backend,
        kernel: workload.to_string(),
        seed,
        max_insts: opts.max,
        spot_stride: opts.spot_stride,
        expect: PlanExpect::Diverge,
        events: min.minimal.clone(),
    };
    let path = opts
        .output
        .clone()
        .unwrap_or_else(|| format!("lis-repro-{}-{}-{seed:#x}.chaosplan", opts.isa, bs.name));
    std::fs::write(&path, plan.to_text()).map_err(|e| format!("{path}: {e}"))?;
    eprintln!(
        "minimize: {} events -> {} in {} probes; repro written to {path}",
        min.initial,
        min.minimal.len(),
        min.probes
    );
    Ok(())
}

fn cmd_serve(opts: &Opts) -> Result<u8, String> {
    if opts.bench_warm {
        let cfg = lis_bench::warm::WarmConfig {
            max_insts: opts.max,
            ..lis_bench::warm::WarmConfig::default()
        };
        let report = lis_bench::run_warm(&cfg)?;
        let out = opts.output.clone().unwrap_or_else(|| "BENCH_serve.json".to_string());
        std::fs::write(&out, format!("{}\n", lis_bench::warm::to_json(&report)))
            .map_err(|e| format!("{out}: {e}"))?;
        print!("{}", lis_bench::warm::render(&report));
        println!("wrote {out}");
        return Ok(u8::from(!report.ok()));
    }
    let listen = opts.listen.clone().ok_or("serve needs --listen <addr> (or --bench-warm)")?;
    let cfg = lis_serve::ServeConfig {
        listen,
        jobs: opts.jobs,
        drain_deadline: std::time::Duration::from_secs(opts.drain_deadline),
        deadline: opts.deadline.map(std::time::Duration::from_secs),
    };
    let server = lis_serve::Server::bind(&cfg).map_err(|e| format!("bind {}: {e}", cfg.listen))?;
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    eprintln!("lis-serve listening on {addr} (protocol v{})", lis_serve::PROTOCOL_VERSION);
    Ok(server.run())
}

fn cmd_connect(opts: &Opts) -> Result<u8, String> {
    use std::io::BufRead;
    let addr = opts.input.clone().ok_or("connect needs a daemon address argument")?;
    let stream = std::net::TcpStream::connect(&addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let mut out = stream.try_clone().map_err(|e| e.to_string())?;
    let mut reader = std::io::BufReader::new(stream);
    let mut worst = 0u8;
    for line in std::io::stdin().lock().lines() {
        let line = line.map_err(|e| e.to_string())?;
        if line.trim().is_empty() {
            continue;
        }
        lis_serve::write_frame(&mut out, &line).map_err(|e| e.to_string())?;
        let mut resp = String::new();
        let n = reader.read_line(&mut resp).map_err(|e| e.to_string())?;
        if n == 0 {
            return Err("server closed the connection".into());
        }
        print!("{resp}");
        // Exit with the worst per-request status the session saw, mirroring
        // what running the same commands directly would have returned.
        let status = lis_serve::json::parse(resp.trim_end())
            .ok()
            .and_then(|v| v.get("status").and_then(lis_serve::json::Value::as_u64))
            .ok_or("malformed response from server")?;
        worst = worst.max(u8::try_from(status).unwrap_or(1));
    }
    Ok(worst)
}

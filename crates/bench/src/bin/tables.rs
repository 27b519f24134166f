//! Regenerates the paper's tables and figures from the command line.
//!
//! ```text
//! cargo run -p lis-bench --release --bin tables -- [table1|table2|table3|orgs|ablate-backend|all]
//! ```
//!
//! Set `LIS_BENCH_INSTS` to change the per-kernel instruction target
//! (default 2,000,000).

use lis_bench::{
    backend_ablation, block_backend_ablation, block_size_ablation, check_shape,
    fast_forward_ablation, render_table1, render_table2, render_table3, table2, table3,
    trace_speed,
};
use lis_runtime::Backend;
use lis_timing::{
    run_functional_first, run_functional_first_ooo, run_integrated,
    run_speculative_functional_first, run_timing_directed, run_timing_first, CoreConfig, OooConfig,
};
use lis_workloads::{spec_of, suite_of, ISAS};

fn main() {
    let arg = std::env::args().nth(1).unwrap_or_else(|| "all".to_string());
    match arg.as_str() {
        "table1" => table1_cmd(),
        "table2" => table2_cmd(),
        "table3" => table3_cmd(),
        "orgs" => orgs_cmd(),
        "ablate-backend" => ablate_cmd(),
        "ablate-blocksize" => ablate_blocksize_cmd(),
        "ablate-ff" => ablate_ff_cmd(),
        "trace" => trace_cmd(),
        "all" => {
            table1_cmd();
            println!();
            table2_cmd();
            println!();
            orgs_cmd();
            println!();
            ablate_cmd();
        }
        other => {
            eprintln!("unknown command `{other}`");
            eprintln!(
                "usage: tables [table1|table2|table3|orgs|ablate-backend|ablate-blocksize|ablate-ff|trace|all]"
            );
            std::process::exit(2);
        }
    }
}

fn table1_cmd() {
    print!("{}", render_table1());
}

fn table2_cmd() {
    eprintln!("measuring 12 interfaces x 3 ISAs (this takes a little while)...");
    let t2 = table2(Backend::Compiled);
    print!("{}", render_table2(&t2));
    println!();
    print!("{}", render_table3(&table3(&t2)));
    let problems = check_shape(&t2);
    if problems.is_empty() {
        println!("shape check: all of the paper's qualitative claims hold");
    } else {
        println!("shape check: {} issue(s):", problems.len());
        for p in problems {
            println!("  - {p}");
        }
    }
}

fn table3_cmd() {
    eprintln!("measuring the interfaces Table III depends on...");
    let t2 = table2(Backend::Compiled);
    print!("{}", render_table3(&table3(&t2)));
}

fn orgs_cmd() {
    println!("Figure 1: decoupled simulator organizations (kernel: sort)");
    let cfg = CoreConfig::default();
    for isa in ISAS {
        println!("[{isa}]");
        let w = suite_of(isa).iter().find(|w| w.name == "sort").expect("sort kernel");
        let image = w.assemble().expect("kernel assembles");
        let spec = spec_of(isa);
        let reports = [
            run_integrated(spec, &image, &cfg).expect("runs"),
            run_functional_first(spec, &image, &cfg).expect("runs"),
            run_functional_first_ooo(spec, &image, &cfg, &OooConfig::default()).expect("runs"),
            run_timing_directed(spec, &image, &cfg).expect("runs"),
            run_timing_first(spec, &image, &cfg, None).expect("runs"),
            run_speculative_functional_first(spec, &image, &cfg, &[]).expect("runs"),
        ];
        for r in &reports {
            println!("  {r}");
        }
    }
}

fn ablate_cmd() {
    eprintln!("footnote 5: backend base cost on one-min, plus block interfaces...");
    println!("Backend ablation (one/min interface): interpreted | compiled");
    println!("{:<8} {:>12} {:>12} {:>10}", "ISA", "interp", "compiled", "comp/int");
    for (isa, [interp, compiled]) in backend_ablation() {
        println!(
            "{:<8} {:>12.2} {:>12.2} {:>9.2}x",
            isa,
            interp.mips,
            compiled.mips,
            compiled.mips / interp.mips
        );
    }
    println!("(paper footnote 5: interpreted base cost ~2x the translated base cost)");
    println!();
    println!("Block-interface ablation (superblock chaining + publication elision)");
    println!(
        "{:<8} {:<14} {:>12} {:>12} {:>10}",
        "ISA", "interface", "interp", "compiled", "comp/int"
    );
    for (isa, bs, [interp, compiled]) in block_backend_ablation() {
        println!(
            "{:<8} {:<14} {:>12.2} {:>12.2} {:>9.2}x",
            isa,
            bs,
            interp,
            compiled,
            compiled / interp
        );
    }
}

fn ablate_blocksize_cmd() {
    eprintln!("design ablation: maximum predecoded-block length (block-min, alpha)...");
    println!("Block-size ablation (alpha, block-min interface)");
    println!("{:<12} {:>10}", "max block", "MIPS");
    for (size, mips) in block_size_ablation("alpha", &[1, 2, 4, 8, 16, 32, 64, 128]) {
        println!("{:<12} {:>10.2}", size, mips);
    }
    println!("(a max length of 1 degenerates the block interface to per-instruction calls)");
}

fn trace_cmd() {
    eprintln!("record-once / replay-anywhere speeds over the kernel suite...");
    println!("Trace record vs replay speed (MIPS, geometric mean over kernel suite)");
    println!(
        "{:<8} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "ISA", "live ooo", "record", "replay x1", "replay x4", "B/inst"
    );
    for isa in ISAS {
        let t = trace_speed(isa, &[1, 4]);
        println!(
            "{:<8} {:>10.2} {:>10.2} {:>10.2} {:>10.2} {:>10.2}",
            isa,
            t.live_mips,
            t.record_mips,
            t.replay_mips[0].1,
            t.replay_mips[1].1,
            t.bytes_per_inst
        );
    }
    println!("(recording is paid once; every later timing experiment replays at trace speed)");
}

fn ablate_ff_cmd() {
    eprintln!("ablation: fast-forward entry point vs block interface...");
    println!("Fast-forward ablation: execute-N-instructions call vs block-min publication");
    println!("{:<8} {:>14} {:>14} {:>8}", "ISA", "ff MIPS", "block MIPS", "ratio");
    for (isa, ff, blk) in fast_forward_ablation() {
        println!("{:<8} {:>14.2} {:>14.2} {:>7.2}x", isa, ff, blk, ff / blk);
    }
    println!(
        "(the paper's sampling discussion: fast-forward needs \"little, if any, information\")"
    );
}

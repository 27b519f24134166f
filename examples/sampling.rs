//! Sampled simulation (the paper's motivating use case for multiple
//! interfaces, after SMARTS): detailed timing simulation for short windows,
//! fast-forwarding through everything in between.
//!
//! Two simulators share architectural state: a fast `block-min` functional
//! simulator fast-forwards, and a detailed `step-all`-driven pipeline model
//! measures IPC inside sample windows. The fast-forward interface is exactly
//! the "low semantic detail, little information" interface the paper says
//! sampling needs — and using it instead of the detailed one is what makes
//! sampling pay off.
//!
//! ```text
//! cargo run -p lis-tests --release --example sampling
//! ```

use lis_core::{DynInst, Step, BLOCK_MIN, STEP_ALL};
use lis_runtime::Simulator;
use lis_timing::{CoreConfig, CoreModel};
use lis_workloads::{spec_of, suite_of};
use std::time::Instant;

const WINDOW: u64 = 2_000; // detailed instructions per sample
const PERIOD: u64 = 20_000; // instructions between window starts

fn main() {
    let isa = "alpha";
    let w = suite_of(isa).iter().find(|w| w.name == "sort").unwrap();
    let image = w.assemble().unwrap();

    // The fast-forward functional simulator and the detailed one.
    let mut fast = Simulator::new(spec_of(isa), BLOCK_MIN).unwrap();
    let mut detailed = Simulator::new(spec_of(isa), STEP_ALL).unwrap();
    fast.load_program(&image).unwrap();
    detailed.load_program(&image).unwrap();

    let mut model = CoreModel::new(&CoreConfig::default());
    let mut di = DynInst::new();
    let mut sampled_insts = 0u64;
    let mut sampled_cycles = 0u64;
    let mut windows = 0u32;
    let start = Instant::now();

    'outer: loop {
        // Fast-forward with the paper's execute-N-instructions call: no
        // records are published at all.
        fast.fast_forward(PERIOD - WINDOW).unwrap();
        if fast.state.halted {
            break 'outer;
        }
        // Transplant state into the detailed simulator and measure a window.
        detailed.state = fast.state.clone();
        detailed.os = fast.os.clone();
        let cycles_before = model.cycles;
        let window_start = detailed.stats.insts;
        while detailed.stats.insts - window_start < WINDOW && !detailed.state.halted {
            for step in Step::ALL {
                detailed.step_inst(step, &mut di).unwrap();
            }
            model.retire(spec_of(isa), &di);
        }
        sampled_insts += detailed.stats.insts - window_start;
        sampled_cycles += model.cycles - cycles_before;
        windows += 1;
        if detailed.state.halted {
            // The program finished inside a detailed window.
            fast.state = detailed.state.clone();
            fast.os = detailed.os.clone();
            break;
        }
        // Hand state back to the fast simulator.
        fast.state = detailed.state.clone();
        fast.os = detailed.os.clone();
    }

    let wall = start.elapsed().as_secs_f64();
    let total = fast.stats.insts + detailed.stats.insts;
    println!("program output: {:?}", String::from_utf8_lossy(fast.stdout()).trim());
    println!(
        "total instructions: {total} ({} fast-forwarded, {sampled_insts} detailed)",
        fast.stats.insts
    );
    println!("detailed windows: {windows}");
    if sampled_cycles > 0 {
        println!("sampled IPC estimate: {:.3}", sampled_insts as f64 / sampled_cycles as f64);
    }
    println!("wall time: {:.1} ms ({:.2} MIPS overall)", wall * 1e3, total as f64 / wall / 1e6);
    println!(
        "\nthe fast-forward interface (block-min) is {}x cheaper per call than the detailed one (step-all):",
        STEP_ALL.semantic.calls_per_inst()
    );
    println!(
        "  fast simulator made {} interface calls for {} instructions ({:.2}/inst)",
        fast.stats.calls,
        fast.stats.insts,
        fast.stats.calls_per_inst()
    );
    println!(
        "  detailed simulator made {} interface calls for {} instructions ({:.2}/inst)",
        detailed.stats.calls,
        detailed.stats.insts,
        detailed.stats.calls_per_inst()
    );
}

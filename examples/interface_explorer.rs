//! Interface explorer: run the same kernel through all twelve standard
//! interfaces and see what each one costs and what it publishes — a
//! miniature of the paper's Table II.
//!
//! ```text
//! cargo run -p lis-tests --release --example interface_explorer [isa] [kernel]
//! ```

use lis_core::STANDARD_BUILDSETS;
use lis_runtime::Simulator;
use lis_workloads::{spec_of, suite_of, ISAS};
use std::time::Instant;

fn main() {
    let isa = std::env::args().nth(1).unwrap_or_else(|| "alpha".into());
    let kernel = std::env::args().nth(2).unwrap_or_else(|| "sieve".into());
    if !ISAS.contains(&isa.as_str()) {
        eprintln!("unknown ISA `{isa}` (valid: {})", ISAS.join(", "));
        std::process::exit(2);
    }
    let Some(w) = suite_of(&isa).iter().find(|w| w.name == kernel) else {
        let names: Vec<&str> = suite_of(&isa).iter().map(|w| w.name).collect();
        eprintln!("unknown kernel `{kernel}` (valid: {})", names.join(", "));
        std::process::exit(2);
    };
    let image = w.assemble().expect("kernel assembles");
    println!("kernel `{kernel}` on {isa}: expected output {:?}", w.expected_stdout().trim());
    println!(
        "\n{:<20} {:>8} {:>12} {:>12} {:>10}",
        "interface", "MIPS", "insts", "iface calls", "calls/inst"
    );
    for bs in STANDARD_BUILDSETS {
        let mut sim = Simulator::new(spec_of(&isa), bs).expect("valid interface");
        sim.load_program(&image).expect("loads");
        // Warm predecode, then measure a fresh run with hot caches.
        sim.run_to_halt(u64::MAX).expect("runs");
        sim.reset_program(&image).expect("reloads");
        let t = Instant::now();
        let summary = sim.run_to_halt(u64::MAX).expect("runs");
        let dt = t.elapsed().as_secs_f64();
        assert_eq!(String::from_utf8_lossy(sim.stdout()), w.expected_stdout());
        println!(
            "{:<20} {:>8.2} {:>12} {:>12} {:>10.2}",
            bs.name,
            summary.insts as f64 / dt / 1e6,
            summary.insts,
            sim.stats.calls / 2, // two runs happened; calls accumulate
            sim.stats.calls_per_inst(),
        );
    }
    println!("\nall twelve interfaces produced identical program output.");
}

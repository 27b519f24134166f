//! The paper's headline development-time claim, demonstrated: deriving a
//! brand-new interface from the single specification takes a dozen lines —
//! and the interface lint catches invalid derivations before anything runs.
//!
//! ```text
//! cargo run -p lis-tests --release --example custom_buildset
//! ```

use lis_core::{
    buildset, check_interface, render_report, BuildsetDef, FieldSet, Semantic, Visibility,
    F_EFF_ADDR, F_OPCODE,
};
use lis_runtime::Simulator;
use lis_workloads::{spec_of, suite_of};

// ---------------------------------------------------------------------
// This is the entire cost of a new interface (the paper: "about a dozen
// lines ... created in mere minutes"): a memory-trace interface that runs a
// basic block per call and publishes only effective addresses and opcodes —
// exactly what a cache simulator needs, and nothing else.
buildset! {
    /// Block calls; effective addresses and opcodes only.
    pub const MEM_TRACE: BuildsetDef = {
        name: "mem-trace",
        semantic: Block,
        visibility: Visibility::MIN.plus(FieldSet::of(&[F_EFF_ADDR, F_OPCODE])),
        speculation: false,
    };
}
// ---------------------------------------------------------------------

fn main() {
    let isa = spec_of("alpha");
    let w = suite_of("alpha").iter().find(|w| w.name == "sort").unwrap();
    let image = w.assemble().unwrap();

    // The derived interface drives a toy cache simulator.
    let mut sim = Simulator::new(isa, MEM_TRACE).expect("lint accepts this interface");
    sim.load_program(&image).unwrap();
    let mut cache = lis_timing::Cache::new(lis_timing::CacheConfig::L1D);
    let mut trace = Vec::new();
    let mut accesses = 0u64;
    while !sim.state.halted {
        sim.next_block(&mut trace).unwrap();
        for di in &trace {
            if let Some(ea) = di.field(F_EFF_ADDR) {
                cache.access(ea);
                accesses += 1;
            }
        }
    }
    println!("interface `{}` ({}):", MEM_TRACE.name, MEM_TRACE.describe());
    println!(
        "  {} instructions, {} memory accesses, D-cache miss rate {:.2}%",
        sim.stats.insts,
        accesses,
        cache.miss_rate() * 100.0
    );
    println!("  program output: {:?}", String::from_utf8_lossy(sim.stdout()).trim());

    // And the guard rail: hiding a value that must cross a call boundary is
    // the paper's "typical interface specification error" — the lint rejects
    // it statically instead of letting simulation go wrong at run time.
    let broken = BuildsetDef {
        name: "step-mem-trace",
        semantic: Semantic::Step,
        visibility: Visibility::MIN.plus(FieldSet::of(&[F_EFF_ADDR])),
        speculation: false,
    };
    match check_interface(isa, &broken) {
        Ok(()) => unreachable!("the lint must reject this"),
        Err(diags) => {
            println!("\nan invalid derivation is rejected before anything runs:");
            print!("{}", render_report(&broken, &diags[..3.min(diags.len())]));
            println!("  ... ({} violations total)", diags.len());
        }
    }
}

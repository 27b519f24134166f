//! Quickstart: assemble a small Alpha program, synthesize a simulator with
//! the debugging-friendly `one-all` interface, and watch it run.
//!
//! ```text
//! cargo run -p lis-tests --example quickstart
//! ```

use lis_core::{DynInst, F_ALU_OUT, F_EFF_ADDR, ONE_ALL};
use lis_runtime::Simulator;

fn main() {
    // 1. A program, in Alpha assembly: sum the numbers 1..=10, store the
    //    result, print it, exit.
    let src = "
_start: mov 0, t0            ; acc
        mov 10, t1           ; i
loop:   addq t0, t1, t0
        subq t1, 1, t1
        bne t1, loop
        ldah t2, ha16(result)(zero)
        lda t2, slo16(result)(t2)
        stq t0, 0(t2)
        mov 4, v0            ; PUTUDEC syscall
        mov t0, a0
        callsys
        mov 1, v0            ; EXIT syscall
        mov 0, a0
        callsys
        .data
result: .space 8
";
    let image = lis_isa_alpha::assemble(src).expect("assembles");
    println!("assembled {} bytes, entry {:#x}", image.size(), image.entry);

    // 2. Synthesize a functional simulator from the single Alpha
    //    specification with the one-call-per-instruction, everything-visible
    //    interface the paper recommends for debugging.
    let mut sim = Simulator::new(lis_isa_alpha::spec(), ONE_ALL).expect("valid interface");
    sim.load_program(&image).expect("loads");

    // 3. Single-step the first few instructions, printing the published
    //    dynamic-instruction records (disassembly + interesting fields).
    let disasm = lis_isa_alpha::spec().disasm;
    let mut di = DynInst::new();
    println!("\nfirst eight dynamic instructions:");
    for _ in 0..8 {
        sim.next_inst(&mut di).expect("interface call");
        let text = disasm(di.header.instr_bits, di.header.pc);
        print!("  {:#06x}: {text:<28}", di.header.pc);
        if let Some(v) = di.field(F_ALU_OUT) {
            print!(" alu_out={v}");
        }
        if let Some(ea) = di.field(F_EFF_ADDR) {
            print!(" ea={ea:#x}");
        }
        println!();
    }

    // 4. Run to completion and show what the program printed.
    let summary = sim.run_to_halt(1_000_000).expect("runs");
    println!("\nprogram output: {}", String::from_utf8_lossy(sim.stdout()).trim());
    println!("exit code {}, {} instructions, {}", summary.exit_code, sim.stats.insts, sim.stats);
    let stored = sim.state.mem.read_u64(image.symbol("result").unwrap(), lis_mem::Endian::Little);
    println!("memory at `result`: {:?}", stored);
}

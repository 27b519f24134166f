//! The five decoupled simulator organizations of Figure 1.
//!
//! Each organization is a complete, runnable microarchitectural simulator
//! built on the synthesized functional simulators — and each uses exactly
//! the interface detail level the paper says its organization needs:
//!
//! | organization | buildset | why |
//! |---|---|---|
//! | integrated | `one-all` | functionality intermingled with timing |
//! | functional-first | `block-decode` | one-way trace, moderate info |
//! | timing-directed | `step-all` | timing controls each step, full info |
//! | timing-first | `one-min` (checker) | checker needs no per-inst info |
//! | speculative functional-first | `block-decode-spec` | trace + rollback |

use crate::model::{inst_def, CoreModel};
use crate::report::{CoreConfig, TimingReport};
use crate::scoreboard::Scoreboard;
use lis_core::{
    DynInst, InstClass, IsaSpec, OperandRef, Step, BLOCK_DECODE, BLOCK_DECODE_SPEC, ONE_ALL,
    ONE_MIN,
};
use lis_mem::Image;
use lis_runtime::{SimStop, Simulator};

/// Ceiling on simulated instructions for every driver in this module.
const DEFAULT_BUDGET: u64 = 200_000_000;

/// How many operand positions the timing-directed bypass network covers.
const BYPASS_WINDOW: usize = 4;

/// Scans a record's source operands against the scoreboard. Returns the
/// issue cycle (stalled until every source is ready — *all* sources count,
/// however many the record carries) and which positions inside the bypass
/// window must be re-fetched at issue time. Positions beyond the window
/// degrade to no re-fetch instead of indexing out of bounds: a hostile or
/// projected record with extra sources must never abort the run (the
/// crate's degrade-don't-abort rule, cf. the rob=0 regression test).
fn scan_sources(
    srcs: &[OperandRef],
    ready: &Scoreboard,
    decode_done: u64,
) -> (u64, [bool; BYPASS_WINDOW]) {
    let mut issue = decode_done + 1;
    let mut late_srcs = [false; BYPASS_WINDOW];
    for (i, &s) in srcs.iter().enumerate() {
        let t = ready.get(s);
        issue = issue.max(t);
        if t > decode_done + 1 {
            if let Some(slot) = late_srcs.get_mut(i) {
                *slot = true;
            }
        }
    }
    (issue, late_srcs)
}

fn finish_report(
    mut report: TimingReport,
    model: &CoreModel,
    sim: &Simulator,
) -> Result<TimingReport, SimStop> {
    model.fill(&mut report);
    report.insts = sim.stats.insts;
    report.interface_calls = sim.stats.calls;
    report.exit_code = sim.state.exit_code;
    report.stdout = sim.stdout().to_vec();
    Ok(report)
}

// -------------------------------------------------------------------------
// 1. Integrated
// -------------------------------------------------------------------------

/// The integrated organization: a single simulator computing timing and
/// functionality together (here: the functional engine with the timing model
/// folded into the same loop). The baseline every decoupled organization is
/// compared against.
///
/// # Errors
///
/// Returns [`SimStop`] on faults or budget exhaustion.
pub fn run_integrated(
    isa: &'static IsaSpec,
    image: &Image,
    cfg: &CoreConfig,
) -> Result<TimingReport, SimStop> {
    let mut sim = Simulator::new(isa, ONE_ALL).expect("one-all is always valid");
    sim.load_program(image).map_err(SimStop::Fault)?;
    let mut model = CoreModel::new(cfg);
    let mut di = DynInst::new();
    while !sim.state.halted {
        if sim.stats.insts >= DEFAULT_BUDGET {
            return Err(SimStop::MaxInsts);
        }
        sim.next_inst(&mut di)?;
        if let Some(f) = di.fault {
            return Err(SimStop::Fault(f));
        }
        model.retire(isa, &di);
    }
    finish_report(TimingReport { organization: "integrated", ..Default::default() }, &model, &sim)
}

// -------------------------------------------------------------------------
// 2. Functional-first
// -------------------------------------------------------------------------

/// The functional-first organization: the functional simulator runs ahead a
/// basic block at a time and produces a trace of dynamic-instruction records;
/// the timing model consumes the trace. Needs only `Decode`-level
/// informational detail and block-level semantic detail.
///
/// # Errors
///
/// Returns [`SimStop`] on faults or budget exhaustion.
pub fn run_functional_first(
    isa: &'static IsaSpec,
    image: &Image,
    cfg: &CoreConfig,
) -> Result<TimingReport, SimStop> {
    let mut sim = Simulator::new(isa, BLOCK_DECODE).expect("block-decode is always valid");
    sim.load_program(image).map_err(SimStop::Fault)?;
    let mut model = CoreModel::new(cfg);
    let mut trace: Vec<DynInst> = Vec::new();
    while !sim.state.halted {
        if sim.stats.insts >= DEFAULT_BUDGET {
            return Err(SimStop::MaxInsts);
        }
        sim.next_block(&mut trace)?;
        for di in &trace {
            if let Some(f) = di.fault {
                return Err(SimStop::Fault(f));
            }
            model.retire(isa, di);
        }
    }
    finish_report(
        TimingReport { organization: "functional-first", ..Default::default() },
        &model,
        &sim,
    )
}

// -------------------------------------------------------------------------
// 3. Timing-directed
// -------------------------------------------------------------------------

/// The timing-directed organization: the timing simulator is in control and
/// asks the functional simulator to perform each *step* of each instruction
/// when the pipeline reaches the corresponding stage. Models an in-order
/// five-stage pipeline with a register scoreboard built from the published
/// operand identifiers — information only the `step-all` interface provides.
///
/// # Errors
///
/// Returns [`SimStop`] on faults or budget exhaustion.
pub fn run_timing_directed(
    isa: &'static IsaSpec,
    image: &Image,
    cfg: &CoreConfig,
) -> Result<TimingReport, SimStop> {
    let mut sim = Simulator::new(isa, lis_core::STEP_ALL).expect("step-all is always valid");
    sim.load_program(image).map_err(SimStop::Fault)?;
    let mut model = CoreModel::new(cfg);
    // Scoreboard: cycle at which each register becomes available.
    let mut ready = Scoreboard::new(isa);
    let mut di = DynInst::new();
    while !sim.state.halted {
        if sim.stats.insts >= DEFAULT_BUDGET {
            return Err(SimStop::MaxInsts);
        }
        // Fetch stage.
        sim.step_inst(Step::Fetch, &mut di)?;
        if let Some(f) = di.fault {
            return Err(SimStop::Fault(f));
        }
        let fetch_done = model.cycles + 1 + model.icache.access(di.header.phys_pc);
        // Decode stage.
        sim.step_inst(Step::Decode, &mut di)?;
        if let Some(f) = di.fault {
            return Err(SimStop::Fault(f));
        }
        let decode_done = fetch_done + 1;
        // Operand fetch stalls until every source register is ready.
        sim.step_inst(Step::OperandFetch, &mut di)?;
        let (issue, late_srcs) = match di.operands() {
            Some(ops) => scan_sources(ops.srcs(), &ready, decode_done),
            None => (decode_done + 1, [false; BYPASS_WINDOW]),
        };
        // Sources produced by still-in-flight instructions arrive by bypass:
        // the timing model re-fetches exactly those operands at issue time —
        // the paper's individual operand-read control. A failed re-fetch
        // degrades (the operand-fetch value stands) rather than aborting.
        for (i, late) in late_srcs.into_iter().enumerate() {
            if late && sim.fetch_src_operand(&mut di, i).is_err() {
                break;
            }
        }
        // Execute.
        sim.step_inst(Step::Evaluate, &mut di)?;
        let exec_done = issue + 1;
        // Memory.
        sim.step_inst(Step::Memory, &mut di)?;
        if let Some(f) = di.fault {
            return Err(SimStop::Fault(f));
        }
        let mem_done =
            exec_done + di.field(lis_core::F_EFF_ADDR).map_or(0, |ea| model.dcache.access(ea));
        // Writeback: destinations become available.
        sim.step_inst(Step::Writeback, &mut di)?;
        let wb_done = mem_done + 1;
        if let Some(ops) = di.operands() {
            for &d in ops.dests() {
                ready.set(d, wb_done);
            }
        }
        sim.step_inst(Step::Exception, &mut di)?;
        if let Some(f) = di.fault {
            return Err(SimStop::Fault(f));
        }
        // Branch resolution at execute. An opcode outside the ISA's table
        // reads as unpublished, like a record without one.
        if let Some(def) = inst_def(isa, &di) {
            if matches!(def.class, InstClass::Branch | InstClass::Jump) {
                let taken = di.field(lis_core::F_BR_TAKEN).unwrap_or(0) != 0;
                let target = di.field(lis_core::F_BR_TARGET).unwrap_or(di.header.next_pc);
                if !model.pred.update(di.header.pc, taken, target) {
                    model.cycles = wb_done + cfg.mispredict_penalty;
                    continue;
                }
            }
        }
        model.cycles = wb_done.saturating_sub(4).max(model.cycles + 1);
    }
    finish_report(
        TimingReport { organization: "timing-directed", ..Default::default() },
        &model,
        &sim,
    )
}

// -------------------------------------------------------------------------
// 4. Timing-first
// -------------------------------------------------------------------------

/// The timing-first organization: the timing simulator implements
/// functionality itself and a functional simulator *checks* it after every
/// instruction; on a mismatch the timing simulator's state is reloaded from
/// the functional simulator (the paper's flush-and-reload).
///
/// `inject_bug_every` optionally corrupts the timing side every N
/// instructions so the checking machinery can be observed working — the
/// checker must catch every injected bug.
///
/// # Errors
///
/// Returns [`SimStop`] on faults or budget exhaustion.
pub fn run_timing_first(
    isa: &'static IsaSpec,
    image: &Image,
    cfg: &CoreConfig,
    inject_bug_every: Option<u64>,
) -> Result<TimingReport, SimStop> {
    // The "integrated" timing side.
    let mut timing = Simulator::new(isa, ONE_ALL).expect("one-all is always valid");
    timing.load_program(image).map_err(SimStop::Fault)?;
    // The checker: min detail — it is only queried for architectural state.
    let mut checker = Simulator::new(isa, ONE_MIN).expect("one-min is always valid");
    checker.load_program(image).map_err(SimStop::Fault)?;

    let mut model = CoreModel::new(cfg);
    let mut report = TimingReport { organization: "timing-first", ..Default::default() };
    let mut di = DynInst::new();
    let mut cdi = DynInst::new();
    while !timing.state.halted {
        if timing.stats.insts >= DEFAULT_BUDGET {
            return Err(SimStop::MaxInsts);
        }
        timing.next_inst(&mut di)?;
        if let Some(f) = di.fault {
            return Err(SimStop::Fault(f));
        }
        model.retire(isa, &di);
        if let Some(n) = inject_bug_every {
            if timing.stats.insts.is_multiple_of(n) {
                // A timing-model functionality bug: a register is corrupted.
                timing.state.gpr[5] ^= 0x1;
            }
        }
        // The checker executes the same instruction independently...
        checker.next_inst(&mut cdi)?;
        if let Some(f) = cdi.fault {
            return Err(SimStop::Fault(f));
        }
        // ...and the timing simulator's architectural state is compared.
        if !timing.state.regs_eq(&checker.state) {
            report.mismatches += 1;
            // Flush the pipeline and reload from the functional simulator.
            timing.state = checker.state.clone();
            timing.os = checker.os.clone();
            timing.clear_caches();
        }
    }
    model.fill(&mut report);
    report.insts = timing.stats.insts;
    report.interface_calls = checker.stats.calls; // the *interface* is the checker's
    report.exit_code = timing.state.exit_code;
    report.stdout = timing.stdout().to_vec();
    Ok(report)
}

// -------------------------------------------------------------------------
// 5. Speculative functional-first
// -------------------------------------------------------------------------

/// A timing-dependent memory override the timing simulator "discovers" while
/// verifying the speculative trace (e.g. another simulated thread's store
/// that should have been observed by a load).
#[derive(Debug, Clone, Copy)]
pub struct MemOverride {
    /// Trigger after this many retired instructions.
    pub after_insts: u64,
    /// Address whose value the timing simulator corrects.
    pub addr: u64,
    /// Width in bytes.
    pub size: u8,
    /// The corrected value.
    pub val: u64,
}

/// The speculative functional-first organization: the functional simulator
/// runs ahead block by block under a checkpoint; the timing simulator
/// verifies the speculative trace, and when it detects that execution should
/// have seen different memory contents it rolls the functional simulator
/// back, applies the corrected value, and re-executes.
///
/// # Errors
///
/// Returns [`SimStop`] on faults or budget exhaustion.
pub fn run_speculative_functional_first(
    isa: &'static IsaSpec,
    image: &Image,
    cfg: &CoreConfig,
    overrides: &[MemOverride],
) -> Result<TimingReport, SimStop> {
    let mut sim = Simulator::new(isa, BLOCK_DECODE_SPEC).expect("block-decode-spec is valid");
    sim.load_program(image).map_err(SimStop::Fault)?;
    let mut model = CoreModel::new(cfg);
    let mut report =
        TimingReport { organization: "speculative-functional-first", ..Default::default() };
    let mut trace: Vec<DynInst> = Vec::new();
    let mut pending: Vec<MemOverride> = overrides.to_vec();
    while !sim.state.halted {
        if sim.stats.insts >= DEFAULT_BUDGET {
            return Err(SimStop::MaxInsts);
        }
        let insts_before = sim.stats.insts;
        let cp = sim.checkpoint().expect("spec buildset has speculation");
        sim.next_block(&mut trace)?;
        // The timing simulator verifies the block: did the functional
        // simulator use memory values the timing model disagrees with?
        let divergence =
            pending.iter().position(|o| insts_before >= o.after_insts).map(|i| pending.remove(i));
        if let Some(o) = divergence {
            // Undo the speculative block, correct memory, re-execute.
            sim.rollback(cp).expect("checkpoint is open");
            sim.poke_mem(o.addr, o.size, o.val).map_err(SimStop::Fault)?;
            report.rollbacks += 1;
            continue;
        }
        sim.commit(cp).expect("checkpoint is open");
        for di in &trace {
            if let Some(f) = di.fault {
                return Err(SimStop::Fault(f));
            }
            model.retire(isa, di);
        }
    }
    model.fill(&mut report);
    report.insts = sim.stats.insts;
    report.interface_calls = sim.stats.calls;
    report.exit_code = sim.state.exit_code;
    report.stdout = sim.stdout().to_vec();
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hostile_source_count_degrades_instead_of_panicking() {
        // Regression: the scoreboard scan indexed a fixed `[bool; 4]` by
        // operand position, so a record carrying more sources than the
        // bypass window panicked instead of degrading. A hostile/projected
        // record may declare any number of sources; every one must stall
        // issue, and only in-window positions get bypass re-fetches.
        let mut ready = Scoreboard::new(lis_runtime::toy::spec());
        for r in 0..6u16 {
            ready.set(OperandRef { class: 0, index: r }, 100 + u64::from(r));
        }
        let srcs: Vec<OperandRef> = (0..6).map(|r| OperandRef { class: 0, index: r }).collect();
        let (issue, late) = scan_sources(&srcs, &ready, 1);
        assert_eq!(issue, 105, "the out-of-window source still stalls issue");
        assert_eq!(late, [true; BYPASS_WINDOW], "in-window sources are late");
    }

    #[test]
    fn ready_sources_need_no_bypass() {
        let mut ready = Scoreboard::new(lis_runtime::toy::spec());
        ready.set(OperandRef { class: 0, index: 1 }, 3); // ready by decode_done + 1
        ready.set(OperandRef { class: 0, index: 2 }, 9); // still in flight
        let srcs = [OperandRef { class: 0, index: 1 }, OperandRef { class: 0, index: 2 }];
        let (issue, late) = scan_sources(&srcs, &ready, 2);
        assert_eq!(issue, 9);
        assert_eq!(late, [false, true, false, false]);
        let (issue, late) = scan_sources(&[], &ready, 2);
        assert_eq!(issue, 3, "no sources: issue right after decode");
        assert_eq!(late, [false; BYPASS_WINDOW]);
    }
}

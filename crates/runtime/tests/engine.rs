//! Engine integration tests over the toy ISA.

use lis_core::{
    nr, BuildsetDef, DynInst, Fault, Semantic, Step, Visibility, BLOCK_ALL, BLOCK_MIN, F_ALU_OUT,
    F_EFF_ADDR, F_IMM, F_SRC1, ONE_ALL, ONE_ALL_SPEC, ONE_MIN, STANDARD_BUILDSETS, STEP_ALL,
};
use lis_mem::{Image, Section};
use lis_runtime::{toy, Backend, IfaceError, Simulator};

fn image(words: &[u32]) -> Image {
    Image {
        entry: 0x1000,
        sections: vec![Section {
            name: ".text".into(),
            addr: 0x1000,
            bytes: words.iter().flat_map(|w| w.to_le_bytes()).collect(),
        }],
        symbols: Default::default(),
    }
}

/// A program computing sum(1..=10) via a loop, printing it, then exiting 0.
fn loop_program() -> Image {
    image(&[
        toy::addi(2, 0, 0),  // 0x1000: acc = 0
        toy::addi(3, 0, 10), // 0x1004: i = 10
        toy::addi(4, 0, 0),  // 0x1008: zero
        // loop:
        toy::add(2, 2, 3),   // 0x100c: acc += i
        toy::addi(3, 3, -1), // 0x1010: i -= 1
        toy::bne(3, 4, -3),  // 0x1014: if i != 0 goto loop
        // print acc (sys putudec: r1 = 4, r2 = acc)
        toy::addi(1, 0, nr::PUTUDEC as i16),
        toy::add(2, 2, 0),
        toy::sys(),
        // exit 7
        toy::addi(1, 0, nr::EXIT as i16),
        toy::addi(2, 0, 7),
        toy::sys(),
    ])
}

fn run(bs: BuildsetDef, backend: Backend) -> Simulator {
    let mut sim = Simulator::new(toy::spec(), bs).unwrap();
    sim.set_backend(backend);
    sim.load_program(&loop_program()).unwrap();
    let summary = sim.run_to_halt(10_000).unwrap();
    assert!(summary.halted);
    assert_eq!(summary.exit_code, 7);
    sim
}

#[test]
fn loop_program_runs_under_one_all() {
    let sim = run(ONE_ALL, Backend::Compiled);
    assert_eq!(String::from_utf8_lossy(sim.stdout()), "55\n");
    // 3 setup + 10 * 3 loop + 3 print + 3 exit = 39 instructions
    assert_eq!(sim.stats.insts, 39);
    assert_eq!(sim.stats.calls, 39);
}

#[test]
fn all_standard_buildsets_agree() {
    let reference = run(ONE_ALL, Backend::Compiled);
    for bs in STANDARD_BUILDSETS {
        let sim = run(bs, Backend::Compiled);
        assert_eq!(sim.stdout(), reference.stdout(), "{}", bs.name);
        assert!(
            sim.state.regs_eq(&reference.state),
            "{}: {:?}",
            bs.name,
            sim.state.first_diff(&reference.state)
        );
        assert_eq!(sim.stats.insts, reference.stats.insts, "{}", bs.name);
    }
}

#[test]
fn interpreted_backend_agrees() {
    let compiled = run(BLOCK_ALL, Backend::Compiled);
    let interp = run(BLOCK_ALL, Backend::Interpreted);
    assert_eq!(compiled.stdout(), interp.stdout());
    assert!(compiled.state.regs_eq(&interp.state));
    // The compiled backend builds each block once; interpreted rebuilds per
    // call.
    assert!(compiled.stats.blocks_built < interp.stats.blocks_built);
}

#[test]
fn step_interface_makes_seven_calls_per_inst() {
    let sim = run(STEP_ALL, Backend::Compiled);
    assert_eq!(sim.stats.calls, sim.stats.insts * 7);
}

#[test]
fn block_interface_amortizes_calls() {
    let sim = run(BLOCK_MIN, Backend::Compiled);
    assert!(sim.stats.calls < sim.stats.insts);
    assert!(sim.stats.mean_block_len() > 1.0);
}

#[test]
fn min_interface_publishes_nothing_but_header() {
    let mut sim = Simulator::new(toy::spec(), ONE_MIN).unwrap();
    sim.load_program(&loop_program()).unwrap();
    let mut di = DynInst::new();
    sim.next_inst(&mut di).unwrap();
    assert_eq!(di.header.pc, 0x1000);
    assert_eq!(di.header.next_pc, 0x1004);
    assert!(di.fields_valid().is_empty());
    assert!(di.operands().is_none());
    assert!(di.fault.is_none());
}

#[test]
fn all_interface_publishes_fields_and_operands() {
    let mut sim = Simulator::new(toy::spec(), ONE_ALL).unwrap();
    sim.load_program(&loop_program()).unwrap();
    let mut di = DynInst::new();
    sim.next_inst(&mut di).unwrap();
    // addi r2, r0, 0
    assert_eq!(di.field(F_IMM), Some(0));
    assert_eq!(di.field(F_SRC1), Some(0));
    assert_eq!(di.field(F_ALU_OUT), Some(0));
    let ops = di.operands().unwrap();
    assert_eq!(ops.dests()[0].index, 2);
    assert_eq!(ops.srcs()[0].index, 0);
}

#[test]
fn step_calls_publish_progressively() {
    let mut sim = Simulator::new(toy::spec(), STEP_ALL).unwrap();
    sim.load_program(&image(&[
        toy::addi(2, 0, 0x40), // r2 = 0x40... wait for store base
        toy::st(2, 2, 0),      // st r2, 0(r2)
        toy::addi(1, 0, nr::EXIT as i16),
        toy::sys(),
    ]))
    .unwrap();
    let mut di = DynInst::new();
    // First instruction, step by step.
    sim.step_inst(Step::Fetch, &mut di).unwrap();
    assert_eq!(di.header.instr_bits, toy::addi(2, 0, 0x40));
    assert!(di.field(F_IMM).is_none(), "decode has not run yet");
    sim.step_inst(Step::Decode, &mut di).unwrap();
    assert_eq!(di.field(F_IMM), Some(0x40));
    sim.step_inst(Step::OperandFetch, &mut di).unwrap();
    assert_eq!(di.field(F_SRC1), Some(0));
    sim.step_inst(Step::Evaluate, &mut di).unwrap();
    assert_eq!(di.field(F_ALU_OUT), Some(0x40));
    sim.step_inst(Step::Memory, &mut di).unwrap();
    sim.step_inst(Step::Writeback, &mut di).unwrap();
    assert_eq!(sim.state.gpr[2], 0x40);
    sim.step_inst(Step::Exception, &mut di).unwrap();
    assert_eq!(sim.state.pc, 0x1004);

    // Second instruction: store; check the effective address is published.
    for s in [Step::Fetch, Step::Decode, Step::OperandFetch, Step::Evaluate] {
        sim.step_inst(s, &mut di).unwrap();
    }
    assert_eq!(di.field(F_EFF_ADDR), Some(0x40));
}

#[test]
fn step_bypass_injection_changes_result() {
    // The timing simulator overwrites a source operand value between
    // operand-fetch and evaluate; the final register must see the injected
    // value — this is how timing-directed simulators model bypassing.
    let mut sim = Simulator::new(toy::spec(), STEP_ALL).unwrap();
    sim.load_program(&image(&[
        toy::addi(2, 3, 5), // r2 = r3 + 5
        toy::addi(1, 0, nr::EXIT as i16),
        toy::sys(),
    ]))
    .unwrap();
    let mut di = DynInst::new();
    sim.step_inst(Step::Fetch, &mut di).unwrap();
    sim.step_inst(Step::Decode, &mut di).unwrap();
    sim.step_inst(Step::OperandFetch, &mut di).unwrap();
    assert_eq!(di.field(F_SRC1), Some(0));
    // Inject a bypassed value for src1.
    let mut frame = lis_core::Frame::new();
    let mut ops = lis_core::Operands::new();
    di.reload(&mut frame, &mut ops);
    frame.set(F_SRC1, 100);
    di.publish(&frame, lis_core::FieldSet::ALL, &ops, true);
    sim.step_inst(Step::Evaluate, &mut di).unwrap();
    assert_eq!(di.field(F_ALU_OUT), Some(105));
    sim.step_inst(Step::Memory, &mut di).unwrap();
    sim.step_inst(Step::Writeback, &mut di).unwrap();
    assert_eq!(sim.state.gpr[2], 105);
}

#[test]
fn wrong_semantic_entry_point_is_rejected() {
    let mut sim = Simulator::new(toy::spec(), ONE_ALL).unwrap();
    sim.load_program(&loop_program()).unwrap();
    let mut buf = Vec::new();
    let err = sim.next_block(&mut buf).unwrap_err();
    assert!(matches!(err, IfaceError::WrongSemantic { wanted: Semantic::Block, .. }));
    let mut di = DynInst::new();
    let err = sim.step_inst(Step::Fetch, &mut di).unwrap_err();
    assert!(matches!(err, IfaceError::WrongSemantic { wanted: Semantic::Step, .. }));
}

#[test]
fn out_of_order_step_is_rejected() {
    let mut sim = Simulator::new(toy::spec(), STEP_ALL).unwrap();
    sim.load_program(&loop_program()).unwrap();
    let mut di = DynInst::new();
    let err = sim.step_inst(Step::Evaluate, &mut di).unwrap_err();
    assert!(matches!(
        err,
        IfaceError::OutOfOrderStep { expected: Step::Fetch, got: Step::Evaluate }
    ));
}

#[test]
fn invalid_interface_is_rejected_at_construction() {
    let step_min = BuildsetDef {
        name: "step-min",
        semantic: Semantic::Step,
        visibility: Visibility::MIN,
        speculation: false,
    };
    let err = Simulator::new(toy::spec(), step_min).unwrap_err();
    assert!(err.to_string().contains("step-min"));
}

#[test]
fn illegal_instruction_faults() {
    let mut sim = Simulator::new(toy::spec(), ONE_ALL).unwrap();
    sim.load_program(&image(&[0xfa00_0000])).unwrap();
    let mut di = DynInst::new();
    sim.next_inst(&mut di).unwrap();
    assert!(matches!(di.fault, Some(Fault::IllegalInstruction { pc: 0x1000, .. })));
    // PC does not advance past the faulting instruction.
    assert_eq!(sim.state.pc, 0x1000);
    assert_eq!(sim.stats.faults, 1);
}

#[test]
fn data_fault_reported_with_address() {
    let mut sim = Simulator::new(toy::spec(), ONE_ALL).unwrap();
    // ld r2, 0(r0) -> address 0 -> null guard fault
    sim.load_program(&image(&[toy::ld(2, 0, 0)])).unwrap();
    let mut di = DynInst::new();
    sim.next_inst(&mut di).unwrap();
    assert!(matches!(di.fault, Some(Fault::DataAccess { addr: 0 })));
}

#[test]
fn speculation_checkpoint_rollback_restores_everything() {
    let mut sim = Simulator::new(toy::spec(), ONE_ALL_SPEC).unwrap();
    sim.load_program(&loop_program()).unwrap();
    let mut di = DynInst::new();
    // Execute the first three instructions, checkpoint, run to completion,
    // then roll back: state must be as at the checkpoint.
    for _ in 0..3 {
        sim.next_inst(&mut di).unwrap();
    }
    let pc_at_cp = sim.state.pc;
    let regs_at_cp = sim.state.clone();
    let cp = sim.checkpoint().unwrap();
    sim.run_to_halt(10_000).unwrap();
    assert!(sim.state.halted);
    assert!(!sim.stdout().is_empty());
    sim.rollback(cp).unwrap();
    assert_eq!(sim.state.pc, pc_at_cp);
    assert!(!sim.state.halted);
    assert!(sim.stdout().is_empty(), "stdout must be rolled back");
    assert!(sim.state.regs_eq(&regs_at_cp), "{:?}", sim.state.first_diff(&regs_at_cp));
    // And the program can re-run to the same result.
    let summary = sim.run_to_halt(10_000).unwrap();
    assert_eq!(summary.exit_code, 7);
    assert_eq!(String::from_utf8_lossy(sim.stdout()), "55\n");
}

#[test]
fn speculation_disabled_errors() {
    let mut sim = Simulator::new(toy::spec(), ONE_ALL).unwrap();
    assert!(matches!(sim.checkpoint(), Err(IfaceError::SpeculationDisabled)));
}

#[test]
fn bad_checkpoint_errors() {
    let mut sim = Simulator::new(toy::spec(), ONE_ALL_SPEC).unwrap();
    sim.load_program(&loop_program()).unwrap();
    let cp = sim.checkpoint().unwrap();
    sim.commit(cp).unwrap();
    assert!(matches!(sim.rollback(cp), Err(IfaceError::BadCheckpoint)));
    assert!(matches!(sim.commit(cp), Err(IfaceError::BadCheckpoint)));
}

#[test]
fn redirect_moves_fetch() {
    let mut sim = Simulator::new(toy::spec(), ONE_ALL).unwrap();
    sim.load_program(&loop_program()).unwrap();
    sim.redirect(0x100c);
    let mut di = DynInst::new();
    sim.next_inst(&mut di).unwrap();
    assert_eq!(di.header.pc, 0x100c);
}

#[test]
fn calling_after_halt_errors() {
    let mut sim = run(ONE_ALL, Backend::Compiled);
    let mut di = DynInst::new();
    assert!(matches!(sim.next_inst(&mut di), Err(IfaceError::Halted)));
}

#[test]
fn block_records_one_dyninst_per_inst() {
    let mut sim = Simulator::new(toy::spec(), BLOCK_ALL).unwrap();
    sim.load_program(&loop_program()).unwrap();
    let mut buf = Vec::new();
    let n = sim.next_block(&mut buf).unwrap();
    assert_eq!(n, 6); // up to and including the first bne
    assert_eq!(buf.len(), 6);
    assert_eq!(buf[0].header.pc, 0x1000);
    assert_eq!(buf[5].header.pc, 0x1014);
    // Taken backwards branch: next block starts at the loop head.
    let n2 = sim.next_block(&mut buf).unwrap();
    assert_eq!(n2, 3);
    assert_eq!(buf[0].header.pc, 0x100c);
}

#[test]
fn poke_mem_overrides_values() {
    let mut sim = Simulator::new(toy::spec(), ONE_ALL_SPEC).unwrap();
    sim.load_program(&image(&[
        toy::ld(2, 0, 0x2000), // r2 = [0x2000]
        toy::addi(1, 0, nr::EXIT as i16),
        toy::sys(),
    ]))
    .unwrap();
    sim.poke_mem(0x2000, 4, 0xbeef).unwrap();
    let mut di = DynInst::new();
    sim.next_inst(&mut di).unwrap();
    assert_eq!(sim.state.gpr[2], 0xbeef);
}

#[test]
fn max_insts_budget_enforced() {
    let mut sim = Simulator::new(toy::spec(), ONE_ALL).unwrap();
    // Infinite loop: jmp -1 (to itself).
    sim.load_program(&image(&[toy::jmp(-1)])).unwrap();
    let err = sim.run_to_halt(100).unwrap_err();
    assert!(matches!(err, lis_runtime::SimStop::MaxInsts));
    assert_eq!(sim.stats.insts, 100);
}

#[test]
fn sp_is_initialized() {
    let mut sim = Simulator::new(toy::spec(), ONE_ALL).unwrap();
    sim.load_program(&loop_program()).unwrap();
    assert_eq!(sim.state.gpr[15], lis_runtime::STACK_TOP);
}

#[test]
fn fast_forward_executes_without_publishing() {
    let mut sim = Simulator::new(toy::spec(), BLOCK_MIN).unwrap();
    sim.load_program(&loop_program()).unwrap();
    let done = sim.fast_forward(10).unwrap();
    assert_eq!(done, 10);
    assert!(!sim.state.halted);
    // Finishing the program through the regular interface agrees with a
    // plain run.
    let mut buf = Vec::new();
    while !sim.state.halted {
        sim.next_block(&mut buf).unwrap();
    }
    assert_eq!(String::from_utf8_lossy(sim.stdout()), "55\n");
    assert_eq!(sim.stats.insts, 39);
    // Fast-forwarding the whole program works too and stops at exit.
    let mut sim2 = Simulator::new(toy::spec(), BLOCK_MIN).unwrap();
    sim2.load_program(&loop_program()).unwrap();
    let done = sim2.fast_forward(1_000_000).unwrap();
    assert_eq!(done, 39);
    assert!(sim2.state.halted);
    assert_eq!(String::from_utf8_lossy(sim2.stdout()), "55\n");
}

#[test]
fn fast_forward_requires_block_semantic() {
    let mut sim = Simulator::new(toy::spec(), ONE_ALL).unwrap();
    sim.load_program(&loop_program()).unwrap();
    assert!(matches!(
        sim.fast_forward(5),
        Err(IfaceError::WrongSemantic { wanted: Semantic::Block, .. })
    ));
}

#[test]
fn fast_forward_stops_before_fault() {
    let mut sim = Simulator::new(toy::spec(), BLOCK_MIN).unwrap();
    sim.load_program(&image(&[toy::addi(1, 0, 1), 0xfa00_0000])).unwrap();
    let done = sim.fast_forward(100).unwrap();
    assert_eq!(done, 1, "stops at the illegal instruction");
    // The regular interface reports the fault at the same PC.
    let mut buf = Vec::new();
    sim.next_block(&mut buf).unwrap();
    assert!(matches!(buf.last().unwrap().fault, Some(Fault::IllegalInstruction { .. })));
}

#[test]
fn per_operand_read_sees_current_state() {
    // The paper's individual operand-read call: the timing simulator delays
    // fetching src1 until after it mutates the register, and the instruction
    // consumes the new value.
    let mut sim = Simulator::new(toy::spec(), STEP_ALL).unwrap();
    sim.load_program(&image(&[
        toy::add(2, 3, 4), // r2 = r3 + r4
        toy::addi(1, 0, nr::EXIT as i16),
        toy::sys(),
    ]))
    .unwrap();
    sim.state.gpr[3] = 5;
    sim.state.gpr[4] = 7;
    let mut di = DynInst::new();
    sim.step_inst(Step::Fetch, &mut di).unwrap();
    sim.step_inst(Step::Decode, &mut di).unwrap();
    sim.step_inst(Step::OperandFetch, &mut di).unwrap();
    assert_eq!(di.field(F_SRC1), Some(5));
    // A bypassed value "arrives": the timing simulator re-reads src1 now.
    sim.state.gpr[3] = 100;
    let v = sim.fetch_src_operand(&mut di, 0).unwrap();
    assert_eq!(v, Some(100));
    assert_eq!(di.field(F_SRC1), Some(100));
    assert_eq!(sim.fetch_src_operand(&mut di, 2).unwrap(), None, "no third source");
    sim.step_inst(Step::Evaluate, &mut di).unwrap();
    sim.step_inst(Step::Memory, &mut di).unwrap();
    sim.step_inst(Step::Writeback, &mut di).unwrap();
    assert_eq!(sim.state.gpr[2], 107);
}

#[test]
fn per_operand_write_commits_early() {
    let mut sim = Simulator::new(toy::spec(), STEP_ALL).unwrap();
    sim.load_program(&image(&[toy::addi(2, 0, 9), toy::addi(1, 0, nr::EXIT as i16), toy::sys()]))
        .unwrap();
    let mut di = DynInst::new();
    for s in [Step::Fetch, Step::Decode, Step::OperandFetch, Step::Evaluate] {
        sim.step_inst(s, &mut di).unwrap();
    }
    // Too early before evaluate would be rejected; here it works:
    assert!(sim.write_dest_operand(&di, 0).unwrap());
    assert_eq!(sim.state.gpr[2], 9, "written before the writeback step");
    assert!(!sim.write_dest_operand(&di, 1).unwrap(), "no second destination");
    sim.step_inst(Step::Memory, &mut di).unwrap();
    sim.step_inst(Step::Writeback, &mut di).unwrap();
    sim.step_inst(Step::Exception, &mut di).unwrap();
    assert_eq!(sim.state.gpr[2], 9);
}

#[test]
fn per_operand_calls_enforce_windows() {
    let mut sim = Simulator::new(toy::spec(), STEP_ALL).unwrap();
    sim.load_program(&loop_program()).unwrap();
    let mut di = DynInst::new();
    // Before decode: operand identifiers do not exist yet.
    assert!(matches!(sim.fetch_src_operand(&mut di, 0), Err(IfaceError::OutOfOrderStep { .. })));
    sim.step_inst(Step::Fetch, &mut di).unwrap();
    sim.step_inst(Step::Decode, &mut di).unwrap();
    // Before evaluate: destinations have no values yet.
    assert!(matches!(sim.write_dest_operand(&di, 0), Err(IfaceError::OutOfOrderStep { .. })));
    // Wrong semantic entirely.
    let mut one = Simulator::new(toy::spec(), ONE_ALL).unwrap();
    one.load_program(&loop_program()).unwrap();
    assert!(matches!(one.fetch_src_operand(&mut di, 0), Err(IfaceError::WrongSemantic { .. })));
}

#[test]
fn run_with_sink_sees_every_retired_record() {
    // The sink must observe exactly `insts` records, in program order,
    // regardless of the buildset's semantic level.
    for bs in [ONE_ALL, BLOCK_ALL, STEP_ALL] {
        let mut sim = Simulator::new(toy::spec(), bs).unwrap();
        sim.load_program(&loop_program()).unwrap();
        let mut pcs: Vec<u64> = Vec::new();
        let mut chained = true;
        let mut prev_next = None::<u64>;
        let summary = sim
            .run_with_sink(10_000, |di| {
                if let Some(p) = prev_next {
                    chained &= di.header.pc == p;
                }
                prev_next = Some(di.header.next_pc);
                pcs.push(di.header.pc);
            })
            .unwrap();
        assert_eq!(pcs.len() as u64, summary.insts, "{}", bs.name);
        assert_eq!(summary.insts, sim.stats.insts, "{}", bs.name);
        assert_eq!(pcs[0], 0x1000, "{}", bs.name);
        assert!(chained, "{}: control flow must chain", bs.name);
    }
}

#[test]
fn run_with_sink_delivers_faulting_record() {
    // An all-zero word is an illegal instruction; the sink must still see
    // the faulting record before run_with_sink returns the fault.
    let mut sim = Simulator::new(toy::spec(), ONE_ALL).unwrap();
    sim.load_program(&image(&[toy::addi(2, 0, 1), 0])).unwrap();
    let mut last_fault = None;
    let mut n = 0u64;
    let err = sim
        .run_with_sink(10_000, |di| {
            n += 1;
            last_fault = di.fault;
        })
        .unwrap_err();
    assert!(matches!(err, lis_runtime::SimStop::Fault(Fault::IllegalInstruction { .. })));
    assert_eq!(n, 2);
    assert!(matches!(last_fault, Some(Fault::IllegalInstruction { .. })));
}

#[test]
fn analyzer_preflight_gates_simulator_build() {
    use lis_core::{Exec, InstClass, InstDef, IsaSpec, StepActions};
    use lis_runtime::BuildError;

    fn act(_: &mut Exec<'_>) -> Result<(), Fault> {
        Ok(())
    }
    // An ALU-class instruction with an exception-step action: under a
    // speculative buildset its OS effects escape OsMark coverage (LIS002).
    static BROKEN: &[InstDef] = &[InstDef {
        name: "aluex",
        class: InstClass::Alu,
        mask: 0xff00_0000,
        bits: 0x0100_0000,
        operands: &[],
        actions: StepActions { exception: Some(act), ..StepActions::NONE },
        syntax: &[],
        extra_flows: &[],
    }];
    static SPEC: IsaSpec = IsaSpec {
        name: "broken-fix",
        word_bits: 32,
        endian: lis_mem::Endian::Little,
        insts: BROKEN,
        reg_classes: &[],
        isa_fields: &[],
        disasm: |_, _| String::new(),
        pc_mask: u32::MAX as u64,
        sp_gpr: 0,
    };
    let err = Simulator::new(&SPEC, ONE_ALL_SPEC).unwrap_err();
    match &err {
        BuildError::Lint { buildset, diags } => {
            assert_eq!(*buildset, "one-all-spec");
            assert!(diags.iter().any(|d| d.code == lis_analyze::LIS002), "{diags:?}");
            assert!(err.to_string().contains("LIS002"), "{err}");
        }
        other => panic!("expected Lint rejection, got {other:?}"),
    }
    // Without speculation the interface is acceptable, and the escape hatch
    // builds even the speculative cell.
    assert!(Simulator::new(&SPEC, ONE_ALL).is_ok());
    assert!(Simulator::new_unchecked(&SPEC, ONE_ALL_SPEC).is_ok());
}

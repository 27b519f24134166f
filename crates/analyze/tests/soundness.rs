//! Soundness: the analyzer's verdicts track what the engine actually does.
//!
//! Two claims, both tested dynamically rather than asserted:
//!
//! 1. For arbitrary buildsets over a real ISA, the pre-flight gate agrees
//!    exactly with simulator construction, and every cell the analyzer
//!    accepts runs a workload in lockstep without divergence (LIS001 is not
//!    just necessary but — on this ISA — sufficient).
//! 2. A fixture that trips LIS002 really is rollback-unsound: running it
//!    past a checkpoint and rolling back leaves corrupted state, while the
//!    fixed variant restores everything.
//! 3. Same story for the translation verifier: a backing declaration that
//!    trips LIS007 really makes the compiled backend diverge from the
//!    reference interface, and cells the translation passes accept run the
//!    workload on the compiled backend without divergence.

use lis_analyze::{
    pass_backing, pass_speculation, preflight, preflight_translation, Severity, LIS001, LIS002,
    LIS007,
};
use lis_core::DynInst;
use lis_core::{
    generic_operand_fetch, generic_writeback, ArchState, BuildsetDef, Exec, Fault, InstClass,
    InstDef, IsaSpec, OperandDir, OperandSpec, RegBacking, RegClass, RegClassDef, Semantic,
    StepActions, Visibility, BLOCK_MIN, F_DEST1, F_SRC1, ONE_ALL_SPEC,
};
use lis_harness::{lockstep, HarnessError, LockstepOutcome};
use lis_mem::{Endian, Image, Section};
use lis_runtime::{synthesize_view, toy, Backend, BuildError, Simulator};
use proptest::prelude::*;

fn image(entry_words: &[u32]) -> Image {
    Image {
        entry: 0x1000,
        sections: vec![Section {
            name: ".text".into(),
            addr: 0x1000,
            bytes: entry_words.iter().flat_map(|w| w.to_le_bytes()).collect(),
        }],
        symbols: Default::default(),
    }
}

// ------------------------------------------------------------------------
// A tiny runnable fixture ISA: one register class, one instruction that
// increments r7. The broken variant does it from a memory-step action by
// writing architectural state directly — exactly the uncovered-write
// pattern LIS002 rejects. The fixed variant routes the same effect through
// declared operands and the accessor path, which the undo log captures.

const GPR: RegClass = RegClass(0);

fn read_gpr(st: &ArchState, idx: u16) -> u64 {
    st.gpr[idx as usize]
}

fn write_gpr(st: &mut ArchState, idx: u16, val: u64) {
    st.gpr[idx as usize] = val;
}

const REG_CLASSES: &[RegClassDef] =
    &[RegClassDef { name: "gpr", count: 16, read: read_gpr, write: write_gpr, backing: None }];

fn sneak_memory_write(ex: &mut Exec<'_>) -> Result<(), Fault> {
    // Bypasses `Exec::write_reg`, so no `UndoRec::Reg` is captured.
    ex.state.gpr[7] = ex.state.gpr[7].wrapping_add(1);
    Ok(())
}

fn dec_inc(ex: &mut Exec<'_>) -> Result<(), Fault> {
    ex.ops.push_dest(GPR, 7);
    ex.ops.push_src(GPR, 7);
    Ok(())
}

fn ev_inc(ex: &mut Exec<'_>) -> Result<(), Fault> {
    ex.set(F_DEST1, ex.get(F_SRC1).wrapping_add(1));
    Ok(())
}

const R7: &[OperandSpec] = &[
    OperandSpec { name: "rd", dir: OperandDir::Dest, class: GPR },
    OperandSpec { name: "rs", dir: OperandDir::Src, class: GPR },
];

static BROKEN_INSTS: &[InstDef] = &[InstDef {
    name: "sneak",
    class: InstClass::Alu,
    mask: 0xff00_0000,
    bits: 0x0100_0000,
    operands: &[],
    actions: StepActions { memory: Some(sneak_memory_write), ..StepActions::NONE },
    syntax: &[],
    extra_flows: &[],
}];

static FIXED_INSTS: &[InstDef] = &[InstDef {
    name: "inc",
    class: InstClass::Alu,
    mask: 0xff00_0000,
    bits: 0x0100_0000,
    operands: R7,
    actions: StepActions {
        decode: Some(dec_inc),
        operand_fetch: Some(generic_operand_fetch),
        evaluate: Some(ev_inc),
        writeback: Some(generic_writeback),
        ..StepActions::NONE
    },
    syntax: &[],
    extra_flows: &[],
}];

const fn fixture(name: &'static str, insts: &'static [InstDef]) -> IsaSpec {
    IsaSpec {
        name,
        word_bits: 32,
        endian: Endian::Little,
        insts,
        reg_classes: REG_CLASSES,
        isa_fields: &[],
        disasm: |_, _| String::new(),
        pc_mask: u32::MAX as u64,
        sp_gpr: 15,
    }
}

static BROKEN: IsaSpec = fixture("broken", BROKEN_INSTS);
static FIXED: IsaSpec = fixture("fixed", FIXED_INSTS);

#[test]
fn lis002_fixture_really_fails_rollback() {
    // The analyzer rejects the speculative cell...
    let diags = pass_speculation(&BROKEN, &ONE_ALL_SPEC);
    assert!(diags.iter().any(|d| d.code == LIS002 && d.severity == Severity::Error), "{diags:?}");
    assert!(matches!(Simulator::new(&BROKEN, ONE_ALL_SPEC), Err(BuildError::Lint { .. })));

    // ...and it is right to: force the build past the gate, run the sneaky
    // instruction under a checkpoint, roll back, and observe that the
    // direct state write survived the rollback. Exactly the unsoundness
    // LIS002 promises to catch.
    let mut sim = Simulator::new_unchecked(&BROKEN, ONE_ALL_SPEC).unwrap();
    sim.load_program(&image(&[0x0100_0000])).unwrap();
    assert_eq!(sim.state.gpr[7], 0);
    let cp = sim.checkpoint().unwrap();
    let mut di = DynInst::new();
    sim.next_inst(&mut di).unwrap();
    assert_eq!(sim.state.gpr[7], 1, "the sneaky write must have happened");
    sim.rollback(cp).unwrap();
    assert_eq!(sim.state.gpr[7], 1, "rollback silently failed to restore r7: the bug is real");
}

#[test]
fn fixed_fixture_is_clean_and_rolls_back() {
    assert!(pass_speculation(&FIXED, &ONE_ALL_SPEC).is_empty());
    assert!(preflight(&FIXED, &ONE_ALL_SPEC).is_ok());

    let mut sim = Simulator::new(&FIXED, ONE_ALL_SPEC).unwrap();
    sim.load_program(&image(&[0x0100_0000])).unwrap();
    let cp = sim.checkpoint().unwrap();
    let mut di = DynInst::new();
    sim.next_inst(&mut di).unwrap();
    assert_eq!(sim.state.gpr[7], 1);
    sim.rollback(cp).unwrap();
    assert_eq!(sim.state.gpr[7], 0, "accessor-routed writes are undone");
}

// ------------------------------------------------------------------------
// A backing declaration the construction-time probe cannot fault: the
// write accessor silently drops index 5, and `IsaSpec::validate` only
// samples indices 0, count/2 and count-1. The RegBacking still claims the
// whole file is direct-lowerable, so the compiled backend stores to
// `gpr[5]` in place while the reference interface routes the write through
// the accessor and loses it. LIS007's exhaustive probe is the static check
// that sees the lie before any program runs.

fn write_gpr_dropping_5(st: &mut ArchState, idx: u16, val: u64) {
    if idx != 5 {
        st.gpr[idx as usize] = val;
    }
}

const BAD_BACKING_CLASSES: &[RegClassDef] = &[RegClassDef {
    name: "gpr",
    count: 16,
    read: read_gpr,
    write: write_gpr_dropping_5,
    backing: Some(RegBacking::Gpr { special: None, write_mask: u64::MAX }),
}];

fn dec_inc5(ex: &mut Exec<'_>) -> Result<(), Fault> {
    ex.ops.push_dest(GPR, 5);
    ex.ops.push_src(GPR, 5);
    Ok(())
}

fn ex_halt(ex: &mut Exec<'_>) -> Result<(), Fault> {
    ex.syscall(lis_core::nr::EXIT, 0, 0)?;
    Ok(())
}

static BAD_BACKING_INSTS: &[InstDef] = &[
    InstDef {
        name: "inc5",
        class: InstClass::Alu,
        mask: 0xff00_0000,
        bits: 0x0100_0000,
        operands: R7,
        actions: StepActions {
            decode: Some(dec_inc5),
            operand_fetch: Some(generic_operand_fetch),
            evaluate: Some(ev_inc),
            writeback: Some(generic_writeback),
            ..StepActions::NONE
        },
        syntax: &[],
        extra_flows: &[],
    },
    InstDef {
        name: "halt",
        class: InstClass::Syscall,
        mask: 0xff00_0000,
        bits: 0x0900_0000,
        operands: &[],
        actions: StepActions { exception: Some(ex_halt), ..StepActions::NONE },
        syntax: &[],
        extra_flows: &[],
    },
];

static BAD_BACKING: IsaSpec = IsaSpec {
    name: "bad-backing",
    word_bits: 32,
    endian: Endian::Little,
    insts: BAD_BACKING_INSTS,
    reg_classes: BAD_BACKING_CLASSES,
    isa_fields: &[],
    disasm: |_, _| String::new(),
    pc_mask: u32::MAX as u64,
    sp_gpr: 15,
};

#[test]
fn lis007_catches_what_the_sparse_probe_misses() {
    // Construction-time validation samples too few indices to notice,
    // and the classic interface passes have nothing to say either.
    assert!(BAD_BACKING.validate().is_ok());
    assert!(preflight(&BAD_BACKING, &BLOCK_MIN).is_ok());

    // The exhaustive LIS007 probe faults the backing with a located error...
    let view = synthesize_view(&BAD_BACKING, &BLOCK_MIN);
    let diags = pass_backing(&BAD_BACKING, &BLOCK_MIN, &view);
    assert!(diags.iter().any(|d| d.code == LIS007 && d.severity == Severity::Error), "{diags:?}");

    // ...so the guarded constructor refuses the cell outright.
    match Simulator::new(&BAD_BACKING, BLOCK_MIN) {
        Err(BuildError::Lint { diags, .. }) => {
            assert!(diags.iter().any(|d| d.code == LIS007), "{diags:?}")
        }
        other => panic!("expected a lint rejection, got {other:?}"),
    }

    // And the rejection is earned: forced past the gate, the compiled
    // backend's direct store diverges from the accessor-routed reference.
    let run = |backend| {
        let mut sim = Simulator::new_unchecked(&BAD_BACKING, BLOCK_MIN).unwrap();
        sim.set_backend(backend);
        sim.load_program(&image(&[0x0100_0000, 0x0900_0000])).unwrap();
        sim.run_to_halt(16).unwrap();
        sim.state.gpr[5]
    };
    assert_eq!(run(Backend::Interpreted), 0, "the accessor drops the write");
    assert_eq!(run(Backend::Compiled), 1, "the lowered direct store lands it");
}

// ------------------------------------------------------------------------
// Arbitrary buildsets over the toy ISA: gate ⟺ build, clean ⇒ lockstep.

/// The sum(1..=10) workload from the engine tests: loops, branches, loads
/// nothing, syscalls twice. 39 instructions, exit code 7, prints "55".
fn loop_program() -> Image {
    image(&[
        toy::addi(2, 0, 0),
        toy::addi(3, 0, 10),
        toy::addi(4, 0, 0),
        toy::add(2, 2, 3),
        toy::addi(3, 3, -1),
        toy::bne(3, 4, -3),
        toy::addi(1, 0, lis_core::nr::PUTUDEC as i16),
        toy::add(2, 2, 0),
        toy::sys(),
        toy::addi(1, 0, lis_core::nr::EXIT as i16),
        toy::addi(2, 0, 7),
        toy::sys(),
    ])
}

fn arb_buildset() -> impl Strategy<Value = BuildsetDef> {
    (
        proptest::sample::select(vec![Semantic::Block, Semantic::One, Semantic::Step]),
        any::<u64>(),
        any::<bool>(),
        any::<bool>(),
    )
        .prop_map(|(semantic, bits, operand_ids, speculation)| BuildsetDef {
            name: "prop",
            semantic,
            visibility: Visibility {
                fields: lis_core::FieldSet(bits & lis_core::FieldSet::ALL.0),
                operand_ids,
            },
            speculation,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The pre-flight gates (classic interface passes plus the translation
    /// verifier over the synthesized view) and simulator construction agree
    /// on every cell, and error-level findings on this ISA are always the
    /// LIS001 class the paper describes — the honest synthesized view never
    /// trips LIS006-LIS010.
    #[test]
    fn preflight_agrees_with_simulator_build(bs in arb_buildset()) {
        let classic = preflight(toy::spec(), &bs);
        let view = synthesize_view(toy::spec(), &bs);
        let translation = preflight_translation(toy::spec(), &bs, &view);
        let built = Simulator::new(toy::spec(), bs);
        prop_assert_eq!(classic.is_err() || translation.is_err(), built.is_err());
        prop_assert!(translation.is_ok(), "{:?}", translation);
        if let Err(diags) = &classic {
            prop_assert!(diags.iter().all(|d| d.code == LIS001), "{:?}", diags);
        }
    }

    /// Every cell the analyzer accepts runs the workload in lockstep with
    /// the reference interface, to completion, with the right answer.
    #[test]
    fn accepted_cells_run_clean(bs in arb_buildset()) {
        prop_assume!(preflight(toy::spec(), &bs).is_ok());
        match lockstep(toy::spec(), &loop_program(), bs, Backend::Interpreted) {
            Ok(LockstepOutcome::Halted { exit_code, stdout, .. }) => {
                prop_assert_eq!(exit_code, 7);
                let out = String::from_utf8_lossy(&stdout).into_owned();
                prop_assert_eq!(out, "55\n");
            }
            Ok(other) => prop_assert!(false, "unexpected outcome: {:?}", other),
            Err(HarnessError::Divergence(r)) => {
                prop_assert!(false, "lint-clean cell diverged: {}", r)
            }
            Err(e) => prop_assert!(false, "harness error: {}", e),
        }
    }

    /// Cells the translation verifier accepts run the workload on the
    /// compiled backend in lockstep with the reference interface —
    /// LIS006-LIS009 acceptance is backed by dynamic equivalence, not just
    /// static claims about the synthesized chains.
    #[test]
    fn translation_accepted_cells_run_compiled_clean(bs in arb_buildset()) {
        prop_assume!(preflight(toy::spec(), &bs).is_ok());
        let view = synthesize_view(toy::spec(), &bs);
        prop_assume!(preflight_translation(toy::spec(), &bs, &view).is_ok());
        match lockstep(toy::spec(), &loop_program(), bs, Backend::Compiled) {
            Ok(LockstepOutcome::Halted { exit_code, stdout, .. }) => {
                prop_assert_eq!(exit_code, 7);
                let out = String::from_utf8_lossy(&stdout).into_owned();
                prop_assert_eq!(out, "55\n");
            }
            Ok(other) => prop_assert!(false, "unexpected outcome: {:?}", other),
            Err(HarnessError::Divergence(r)) => {
                prop_assert!(false, "translation-clean cell diverged on compiled: {}", r)
            }
            Err(e) => prop_assert!(false, "harness error: {}", e),
        }
    }
}

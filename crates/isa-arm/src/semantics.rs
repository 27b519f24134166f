//! The single specification of the ARM v5 (user-mode integer) instruction
//! set.
//!
//! Covered: the sixteen data-processing operations (immediate, register
//! shift-by-immediate, and register shift-by-register forms, with the S
//! bit), `mul`/`mla`, `clz`, word/byte loads and stores with every
//! addressing mode (pre/post-indexed, writeback, register offsets with
//! shifts), halfword and signed loads/stores, `b`/`bl`, `bx`, and `swi`.
//! Every instruction is conditional, as on real ARM.
//!
//! Subset notes (documented deviations): no Thumb (so `bx` clears the low
//! two target bits), no `ldm`/`stm`, writes to `r15` via data-processing
//! results are discarded, and unaligned word accesses fault instead of
//! rotating.

use crate::fields::{F_ARM_CC, F_SHIFT_CARRY, F_SHIFT_OUT};
use crate::regs::{flags, CPSR, GPR};
use lis_core::{
    flow, generic_operand_fetch, generic_writeback, step_actions, Exec, Fault, Field, Flow,
    FlowItem, InstClass, InstDef, OperandDir, OperandSpec, Slot, Step, Suffix, F_ALU_OUT, F_COND,
    F_DEST1, F_DEST2, F_EFF_ADDR, F_IMM, F_MEM_DATA, F_SRC1, F_SRC2, F_SRC3,
};

const M32: u64 = 0xffff_ffff;

/// Inter-step dataflow every conditional ARM instruction adds on top of its
/// class defaults: the decoded condition code flows decode→evaluate, and the
/// evaluated predicate flows into the later steps that honour it.
pub const ARM_FLOWS: &[Flow] = &[
    flow(FlowItem::Field(F_ARM_CC), Step::Decode, Step::Evaluate),
    flow(FlowItem::Field(F_COND), Step::Evaluate, Step::Memory),
    flow(FlowItem::Field(F_COND), Step::Evaluate, Step::Writeback),
    flow(FlowItem::Field(F_COND), Step::Evaluate, Step::Exception),
];

// ---------------------------------------------------------------------
// Condition and flag helpers
// ---------------------------------------------------------------------

fn cond_pass(cc: u32, cpsr: u64) -> bool {
    let n = cpsr & flags::N != 0;
    let z = cpsr & flags::Z != 0;
    let c = cpsr & flags::C != 0;
    let v = cpsr & flags::V != 0;
    match cc {
        0x0 => z,
        0x1 => !z,
        0x2 => c,
        0x3 => !c,
        0x4 => n,
        0x5 => !n,
        0x6 => v,
        0x7 => !v,
        0x8 => c && !z,
        0x9 => !c || z,
        0xa => n == v,
        0xb => n != v,
        0xc => !z && n == v,
        0xd => z || n != v,
        0xe => true,
        _ => false, // 0xF: the NV space — never executed in this subset
    }
}

/// Evaluates the condition; records the predicate and returns whether the
/// instruction executes.
fn check_cond(ex: &mut Exec<'_>) -> bool {
    let cc = ex.get(F_ARM_CC) as u32;
    let cpsr = ex.read_reg(CPSR.0, 0);
    let pass = cond_pass(cc, cpsr);
    ex.set(F_COND, pass as u64);
    pass
}

fn pack_nzcv(n: bool, z: bool, c: bool, v: bool) -> u64 {
    (n as u64) << 31 | (z as u64) << 30 | (c as u64) << 29 | (v as u64) << 28
}

// ---------------------------------------------------------------------
// The shifter (ARM ARM A5.1)
// ---------------------------------------------------------------------

/// Computes the shifted value and carry-out. `amount_from_reg` selects the
/// register-specified semantics (e.g. `lsl r3` with amount 0 keeps the old
/// carry; immediate `lsr #0` means `lsr #32`).
fn shift_compute(kind: u32, v: u64, amount: u32, amount_from_reg: bool, c_in: bool) -> (u64, bool) {
    let v = v & M32;
    match kind {
        // LSL
        0 => match amount {
            0 => (v, c_in),
            1..=31 => ((v << amount) & M32, v & (1 << (32 - amount)) != 0),
            32 => (0, v & 1 != 0),
            _ => (0, false),
        },
        // LSR
        1 => {
            let amount = if amount == 0 && !amount_from_reg { 32 } else { amount };
            match amount {
                0 => (v, c_in),
                1..=31 => (v >> amount, v & (1 << (amount - 1)) != 0),
                32 => (0, v & (1 << 31) != 0),
                _ => (0, false),
            }
        }
        // ASR
        2 => {
            let amount = if amount == 0 && !amount_from_reg { 32 } else { amount };
            match amount {
                0 => (v, c_in),
                1..=31 => {
                    (((v as u32 as i32) >> amount) as u32 as u64, v & (1 << (amount - 1)) != 0)
                }
                _ => {
                    let sign = v & (1 << 31) != 0;
                    (if sign { M32 } else { 0 }, sign)
                }
            }
        }
        // ROR / RRX
        _ => {
            if amount == 0 && !amount_from_reg {
                // RRX: rotate right through carry by one.
                let out = ((c_in as u64) << 31) | (v >> 1);
                (out, v & 1 != 0)
            } else if amount == 0 {
                (v, c_in)
            } else if amount.is_multiple_of(32) {
                (v, v & (1 << 31) != 0)
            } else {
                let a = amount % 32;
                let out = ((v >> a) | (v << (32 - a))) & M32;
                (out, out & (1 << 31) != 0)
            }
        }
    }
}

/// Computes the shifter operand for the current data-processing instruction:
/// `(value, carry_out)`. `has_rn` tells which source slots hold `rm`/`rs`.
fn shifter_operand(ex: &mut Exec<'_>, has_rn: bool) -> (u64, bool) {
    let w = ex.header.instr_bits;
    let c_in = ex.read_reg(CPSR.0, 0) & flags::C != 0;
    if w & 0x0200_0000 != 0 {
        // Immediate: imm8 rotated right by 2*rot (value precomputed at decode
        // into F_IMM); carry is bit 31 when the rotation is non-zero.
        let val = ex.get(F_IMM);
        let rot = (w >> 8) & 0xf;
        let carry = if rot == 0 { c_in } else { val & (1 << 31) != 0 };
        (val, carry)
    } else {
        let rm_val = if has_rn { ex.get(F_SRC2) } else { ex.get(F_SRC1) };
        let kind = (w >> 5) & 3;
        if w & 0x10 != 0 {
            // Shift by register (low byte of rs).
            let rs_val = if has_rn { ex.get(F_SRC3) } else { ex.get(F_SRC2) };
            shift_compute(kind, rm_val, (rs_val & 0xff) as u32, true, c_in)
        } else {
            shift_compute(kind, rm_val, (w >> 7) & 0x1f, false, c_in)
        }
    }
}

// ---------------------------------------------------------------------
// Data processing
// ---------------------------------------------------------------------

#[derive(Clone, Copy, PartialEq)]
enum FlagKind {
    Logical,
    Add,
    Sub,
}

/// Whether a data-processing opcode reads `rn` / writes `rd`.
const fn dp_shape(opcode: u32) -> (bool, bool) {
    let has_rn = !matches!(opcode, 13 | 15); // mov, mvn
    let has_rd = !matches!(opcode, 8..=11); // tst, teq, cmp, cmn
    (has_rn, has_rd)
}

fn dec_dp(ex: &mut Exec<'_>) -> Result<(), Fault> {
    let w = ex.header.instr_bits;
    ex.set(F_ARM_CC, (w >> 28) as u64 & 0xf);
    let opcode = (w >> 21) & 0xf;
    let (has_rn, has_rd) = dp_shape(opcode);
    if has_rn {
        ex.ops.push_src(GPR, ((w >> 16) & 0xf) as u16);
    }
    if w & 0x0200_0000 != 0 {
        let rot = ((w >> 8) & 0xf) * 2;
        let val = (w & 0xff).rotate_right(rot);
        ex.set(F_IMM, val as u64);
    } else {
        ex.ops.push_src(GPR, (w & 0xf) as u16); // rm
        if w & 0x10 != 0 {
            ex.ops.push_src(GPR, ((w >> 8) & 0xf) as u16); // rs
        }
    }
    if has_rd {
        ex.ops.push_dest(GPR, ((w >> 12) & 0xf) as u16);
        if w & 0x0010_0000 != 0 {
            ex.ops.push_dest(CPSR, 0); // S bit: flags are the second dest
        }
    } else {
        ex.ops.push_dest(CPSR, 0); // tst/teq/cmp/cmn write only flags
    }
    Ok(())
}

macro_rules! dp_op {
    ($($fname:ident = ($kind:expr, $f:expr);)*) => {
        $(fn $fname(ex: &mut Exec<'_>) -> Result<(), Fault> {
            if !check_cond(ex) {
                return Ok(());
            }
            let w = ex.header.instr_bits;
            let opcode = (w >> 21) & 0xf;
            let (has_rn, has_rd) = dp_shape(opcode);
            let (b, shift_carry) = shifter_operand(ex, has_rn);
            ex.set(F_SHIFT_OUT, b);
            ex.set(F_SHIFT_CARRY, shift_carry as u64);
            let a = if has_rn { ex.get(F_SRC1) & M32 } else { 0 };
            let cpsr = ex.read_reg(CPSR.0, 0);
            let c_in = cpsr & flags::C != 0;
            #[allow(clippy::redundant_closure_call)]
            let wide: u64 = ($f)(a, b, c_in as u64);
            let res = wide & M32;
            ex.set(F_ALU_OUT, res);
            let s_bit = w & 0x0010_0000 != 0;
            if has_rd {
                ex.set(F_DEST1, res);
            }
            if s_bit || !has_rd {
                let n = res & (1 << 31) != 0;
                let z = res == 0;
                let (c, v) = match $kind {
                    FlagKind::Logical => (shift_carry, cpsr & flags::V != 0),
                    FlagKind::Add => (
                        wide > M32,
                        (!(a ^ b) & (a ^ res)) & (1 << 31) != 0,
                    ),
                    FlagKind::Sub => (
                        wide <= M32, // no borrow out of bit 32
                        ((a ^ b) & (a ^ res)) & (1 << 31) != 0,
                    ),
                };
                let new = pack_nzcv(n, z, c, v);
                if has_rd {
                    ex.set(F_DEST2, new);
                } else {
                    ex.set(F_DEST1, new);
                }
            }
            Ok(())
        })*
    };
}

// Sub-kind closures compute `a - b - borrow` with u64 wrapping arithmetic:
// a borrow wraps the result above `M32`, so C (no-borrow) is `wide <= M32`.
dp_op! {
    ev_and = (FlagKind::Logical, |a: u64, b: u64, _c: u64| a & b);
    ev_eor = (FlagKind::Logical, |a: u64, b: u64, _c: u64| a ^ b);
    ev_sub = (FlagKind::Sub, |a: u64, b: u64, _c: u64| a.wrapping_sub(b));
    ev_rsb = (FlagKind::Sub, |a: u64, b: u64, _c: u64| b.wrapping_sub(a));
    ev_add = (FlagKind::Add, |a: u64, b: u64, _c: u64| a + b);
    ev_adc = (FlagKind::Add, |a: u64, b: u64, c: u64| a + b + c);
    ev_sbc = (FlagKind::Sub, |a: u64, b: u64, c: u64| a.wrapping_sub(b).wrapping_sub(1 - c));
    ev_rsc = (FlagKind::Sub, |a: u64, b: u64, c: u64| b.wrapping_sub(a).wrapping_sub(1 - c));
    ev_tst = (FlagKind::Logical, |a: u64, b: u64, _c: u64| a & b);
    ev_teq = (FlagKind::Logical, |a: u64, b: u64, _c: u64| a ^ b);
    ev_cmp = (FlagKind::Sub, |a: u64, b: u64, _c: u64| a.wrapping_sub(b));
    ev_cmn = (FlagKind::Add, |a: u64, b: u64, _c: u64| a + b);
    ev_orr = (FlagKind::Logical, |a: u64, b: u64, _c: u64| a | b);
    ev_mov = (FlagKind::Logical, |_a: u64, b: u64, _c: u64| b);
    ev_bic = (FlagKind::Logical, |a: u64, b: u64, _c: u64| a & (!b & M32));
    ev_mvn = (FlagKind::Logical, |_a: u64, b: u64, _c: u64| !b & M32);
}

// ---------------------------------------------------------------------
// Multiply and clz
// ---------------------------------------------------------------------

fn dec_mul(ex: &mut Exec<'_>) -> Result<(), Fault> {
    let w = ex.header.instr_bits;
    ex.set(F_ARM_CC, (w >> 28) as u64 & 0xf);
    ex.ops.push_src(GPR, (w & 0xf) as u16); // rm
    ex.ops.push_src(GPR, ((w >> 8) & 0xf) as u16); // rs
    if w & 0x0020_0000 != 0 {
        ex.ops.push_src(GPR, ((w >> 12) & 0xf) as u16); // rn (mla)
    }
    ex.ops.push_dest(GPR, ((w >> 16) & 0xf) as u16);
    if w & 0x0010_0000 != 0 {
        ex.ops.push_dest(CPSR, 0);
    }
    Ok(())
}

fn ev_mul(ex: &mut Exec<'_>) -> Result<(), Fault> {
    if !check_cond(ex) {
        return Ok(());
    }
    let w = ex.header.instr_bits;
    let acc = if w & 0x0020_0000 != 0 { ex.get(F_SRC3) } else { 0 };
    let res = ex.get(F_SRC1).wrapping_mul(ex.get(F_SRC2)).wrapping_add(acc) & M32;
    ex.set(F_ALU_OUT, res);
    ex.set(F_DEST1, res);
    if w & 0x0010_0000 != 0 {
        let cpsr = ex.read_reg(CPSR.0, 0);
        let n = res & (1 << 31) != 0;
        let z = res == 0;
        let keep = cpsr & (flags::C | flags::V);
        ex.set(F_DEST2, pack_nzcv(n, z, false, false) | keep);
    }
    Ok(())
}

fn dec_clz(ex: &mut Exec<'_>) -> Result<(), Fault> {
    let w = ex.header.instr_bits;
    ex.set(F_ARM_CC, (w >> 28) as u64 & 0xf);
    ex.ops.push_src(GPR, (w & 0xf) as u16);
    ex.ops.push_dest(GPR, ((w >> 12) & 0xf) as u16);
    Ok(())
}

fn ev_clz(ex: &mut Exec<'_>) -> Result<(), Fault> {
    if !check_cond(ex) {
        return Ok(());
    }
    let res = (ex.get(F_SRC1) as u32).leading_zeros() as u64;
    ex.set(F_ALU_OUT, res);
    ex.set(F_DEST1, res);
    Ok(())
}

// ---------------------------------------------------------------------
// Loads and stores
// ---------------------------------------------------------------------

fn dec_mem(ex: &mut Exec<'_>) -> Result<(), Fault> {
    let w = ex.header.instr_bits;
    ex.set(F_ARM_CC, (w >> 28) as u64 & 0xf);
    let load = w & 0x0010_0000 != 0;
    ex.ops.push_src(GPR, ((w >> 16) & 0xf) as u16); // rn
    if !load {
        ex.ops.push_src(GPR, ((w >> 12) & 0xf) as u16); // rd as store data
    }
    if w & 0x0200_0000 != 0 {
        ex.ops.push_src(GPR, (w & 0xf) as u16); // rm
    } else {
        ex.set(F_IMM, (w & 0xfff) as u64);
    }
    let p = w & 0x0100_0000 != 0;
    let wbit = w & 0x0020_0000 != 0;
    if load {
        ex.ops.push_dest(GPR, ((w >> 12) & 0xf) as u16);
    }
    if wbit || !p {
        ex.ops.push_dest(GPR, ((w >> 16) & 0xf) as u16); // base writeback
    }
    Ok(())
}

/// Shared effective-address computation for word/byte transfers.
fn ev_mem(ex: &mut Exec<'_>) -> Result<(), Fault> {
    if !check_cond(ex) {
        return Ok(());
    }
    let w = ex.header.instr_bits;
    let load = w & 0x0010_0000 != 0;
    let base = ex.get(F_SRC1) & M32;
    let offset = if w & 0x0200_0000 != 0 {
        let rm_val = if load { ex.get(F_SRC2) } else { ex.get(F_SRC3) };
        let kind = (w >> 5) & 3;
        let amount = (w >> 7) & 0x1f;
        let c_in = ex.read_reg(CPSR.0, 0) & flags::C != 0;
        let (v, _) = shift_compute(kind, rm_val, amount, false, c_in);
        v
    } else {
        ex.get(F_IMM)
    };
    let up = w & 0x0080_0000 != 0;
    let indexed = if up { base.wrapping_add(offset) } else { base.wrapping_sub(offset) } & M32;
    let p = w & 0x0100_0000 != 0;
    let wbit = w & 0x0020_0000 != 0;
    let ea = if p { indexed } else { base };
    ex.set(F_EFF_ADDR, ea);
    if wbit || !p {
        if load {
            ex.set(F_DEST2, indexed);
        } else {
            ex.set(F_DEST1, indexed);
        }
    }
    Ok(())
}

macro_rules! mem_action {
    ($($fname:ident = ($size:expr, $signed:expr, $load:expr);)*) => {
        $(fn $fname(ex: &mut Exec<'_>) -> Result<(), Fault> {
            if ex.get(F_COND) == 0 {
                return Ok(());
            }
            if $load {
                let v = ex.load(ex.get(F_EFF_ADDR), $size, $signed)? & M32;
                ex.set(F_MEM_DATA, v);
                ex.set(F_DEST1, v);
            } else {
                let v = ex.get(F_SRC2) & M32;
                ex.set(F_MEM_DATA, v);
                ex.store(ex.get(F_EFF_ADDR), $size, v)?;
            }
            Ok(())
        })*
    };
}

mem_action! {
    mem_ldr = (4, false, true);
    mem_ldrb = (1, false, true);
    mem_ldrh = (2, false, true);
    mem_ldrsb = (1, true, true);
    mem_ldrsh = (2, true, true);
    mem_str = (4, false, false);
    mem_strb = (1, false, false);
    mem_strh = (2, false, false);
}

/// Halfword/signed transfers: different offset encoding (split imm8 or rm).
fn dec_memh(ex: &mut Exec<'_>) -> Result<(), Fault> {
    let w = ex.header.instr_bits;
    ex.set(F_ARM_CC, (w >> 28) as u64 & 0xf);
    let load = w & 0x0010_0000 != 0;
    ex.ops.push_src(GPR, ((w >> 16) & 0xf) as u16);
    if !load {
        ex.ops.push_src(GPR, ((w >> 12) & 0xf) as u16);
    }
    if w & 0x0040_0000 != 0 {
        ex.set(F_IMM, (((w >> 4) & 0xf0) | (w & 0xf)) as u64);
    } else {
        ex.ops.push_src(GPR, (w & 0xf) as u16);
    }
    let p = w & 0x0100_0000 != 0;
    let wbit = w & 0x0020_0000 != 0;
    if load {
        ex.ops.push_dest(GPR, ((w >> 12) & 0xf) as u16);
    }
    if wbit || !p {
        ex.ops.push_dest(GPR, ((w >> 16) & 0xf) as u16);
    }
    Ok(())
}

fn ev_memh(ex: &mut Exec<'_>) -> Result<(), Fault> {
    if !check_cond(ex) {
        return Ok(());
    }
    let w = ex.header.instr_bits;
    let load = w & 0x0010_0000 != 0;
    let base = ex.get(F_SRC1) & M32;
    let offset = if w & 0x0040_0000 != 0 {
        ex.get(F_IMM)
    } else if load {
        ex.get(F_SRC2) & M32
    } else {
        ex.get(F_SRC3) & M32
    };
    let up = w & 0x0080_0000 != 0;
    let indexed = if up { base.wrapping_add(offset) } else { base.wrapping_sub(offset) } & M32;
    let p = w & 0x0100_0000 != 0;
    let wbit = w & 0x0020_0000 != 0;
    ex.set(F_EFF_ADDR, if p { indexed } else { base });
    if wbit || !p {
        if load {
            ex.set(F_DEST2, indexed);
        } else {
            ex.set(F_DEST1, indexed);
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Branches and system calls
// ---------------------------------------------------------------------

fn dec_b(ex: &mut Exec<'_>) -> Result<(), Fault> {
    let w = ex.header.instr_bits;
    ex.set(F_ARM_CC, (w >> 28) as u64 & 0xf);
    let off = ((w & 0x00ff_ffff) << 8) as i32 >> 6; // sign-extend, times 4
    ex.set(F_IMM, off as i64 as u64);
    if w & 0x0100_0000 != 0 {
        ex.ops.push_dest(GPR, 14); // bl links into lr
    }
    Ok(())
}

fn ev_b(ex: &mut Exec<'_>) -> Result<(), Fault> {
    if !check_cond(ex) {
        ex.branch_not_taken();
        return Ok(());
    }
    let w = ex.header.instr_bits;
    if w & 0x0100_0000 != 0 {
        ex.set(F_DEST1, ex.header.pc.wrapping_add(4) & M32);
    }
    let target = ex.header.pc.wrapping_add(8).wrapping_add(ex.get(F_IMM)) & M32;
    ex.take_branch(target);
    Ok(())
}

fn dec_bx(ex: &mut Exec<'_>) -> Result<(), Fault> {
    let w = ex.header.instr_bits;
    ex.set(F_ARM_CC, (w >> 28) as u64 & 0xf);
    ex.ops.push_src(GPR, (w & 0xf) as u16);
    Ok(())
}

fn ev_bx(ex: &mut Exec<'_>) -> Result<(), Fault> {
    if !check_cond(ex) {
        ex.branch_not_taken();
        return Ok(());
    }
    // No Thumb support: force ARM alignment.
    let target = ex.get(F_SRC1) & M32 & !3;
    ex.take_branch(target);
    Ok(())
}

fn dec_swi(ex: &mut Exec<'_>) -> Result<(), Fault> {
    let w = ex.header.instr_bits;
    ex.set(F_ARM_CC, (w >> 28) as u64 & 0xf);
    // LIS OS ABI on ARM: r7 = number, r0/r1 = arguments, result in r0.
    ex.ops.push_src(GPR, 7);
    ex.ops.push_src(GPR, 0);
    ex.ops.push_src(GPR, 1);
    ex.ops.push_dest(GPR, 0);
    Ok(())
}

fn ev_swi(ex: &mut Exec<'_>) -> Result<(), Fault> {
    check_cond(ex);
    Ok(())
}

fn ex_swi(ex: &mut Exec<'_>) -> Result<(), Fault> {
    if ex.get(F_COND) == 0 {
        return Ok(());
    }
    let ret = ex.syscall(ex.get(F_SRC1), ex.get(F_SRC2), ex.get(F_SRC3))?;
    ex.set(F_DEST1, ret & M32);
    ex.write_reg(GPR.0, 0, ret & M32);
    Ok(())
}

// ---------------------------------------------------------------------
// The instruction table
// ---------------------------------------------------------------------

const RN_S: OperandSpec = OperandSpec { name: "rn", dir: OperandDir::Src, class: GPR };
const RM_S: OperandSpec = OperandSpec { name: "rm", dir: OperandDir::Src, class: GPR };
const RS_S: OperandSpec = OperandSpec { name: "rs", dir: OperandDir::Src, class: GPR };
const RD_D: OperandSpec = OperandSpec { name: "rd", dir: OperandDir::Dest, class: GPR };
const FLAGS_D: OperandSpec = OperandSpec { name: "cpsr", dir: OperandDir::Dest, class: CPSR };

const OPS_DP: &[OperandSpec] = &[RN_S, RM_S, RS_S, RD_D, FLAGS_D];
const OPS_MEM: &[OperandSpec] = &[RN_S, RM_S, RD_D];
const OPS_B: &[OperandSpec] = &[RD_D];
const OPS_SWI: &[OperandSpec] = &[RN_S, RD_D];

// ---------------------------------------------------------------------
// Assembly syntax
// ---------------------------------------------------------------------

/// The condition suffix every instruction takes (`addeq`, `ldrne`, `bls`).
pub(crate) const COND: Suffix = Suffix {
    field: Field::new(28, 4),
    names: &[
        "eq", "ne", "cs", "cc", "mi", "pl", "vs", "vc", "hi", "ls", "ge", "lt", "gt", "le", "",
        "nv",
    ],
    aliases: &[("hs", 2), ("lo", 3), ("al", 14)],
    // The NV space is never executed in this subset and does not assemble.
    print_only: 1 << 15,
};
/// The `s` suffix of data processing and multiply: set the flags.
const S_BIT: Suffix =
    Suffix { field: Field::new(20, 1), names: &["", "s"], aliases: &[], print_only: 0 };

/// Destination of data processing and transfers; the addend of `mla`.
pub(crate) const RD: Field = Field::new(12, 4);
/// Base of transfers, first operand of data processing, destination of
/// multiply.
pub(crate) const RN: Field = Field::new(16, 4);
/// Register shifted or offset by the shifter.
pub(crate) const RM: Field = Field::new(0, 4);
/// Shift-amount register, multiplier.
pub(crate) const RS: Field = Field::new(8, 4);
/// Operand 2 of data processing is an immediate; the offset of a word/byte
/// transfer is a register.
pub(crate) const I_BIT: Field = Field::new(25, 1);
/// Pre-indexed addressing.
pub(crate) const P_BIT: Field = Field::new(24, 1);
/// The offset is added (else subtracted).
pub(crate) const U_BIT: Field = Field::new(23, 1);
/// The offset of a halfword transfer is an immediate.
pub(crate) const H_IMM_BIT: Field = Field::new(22, 1);
/// Base writeback.
pub(crate) const W_BIT: Field = Field::new(21, 1);
/// The shifter's immediate: `IMM8` rotated right by twice `ROTATE`.
pub(crate) const IMM8: Field = Field::new(0, 8);
/// Half the rotation of the shifter's immediate.
pub(crate) const ROTATE: Field = Field::new(8, 4);
/// Shift amount of a shift by immediate.
pub(crate) const SHIFT_IMM: Field = Field::new(7, 5);
/// Shift kind (`lsl`, `lsr`, `asr`, `ror`).
pub(crate) const SHIFT_KIND: Field = Field::new(5, 2);
/// Shift by the register in `rs`.
pub(crate) const SHIFT_BY_REG: Field = Field::new(4, 1);
/// Immediate offset of a word/byte transfer.
pub(crate) const OFF12: Field = Field::new(0, 12);
/// Immediate offset of a halfword transfer: high and low nibble.
pub(crate) const OFF_HI: Field = Field::new(8, 4);
/// See [`OFF_HI`].
pub(crate) const OFF_LO: Field = Field::new(0, 4);

// Custom operand slots (encoded in `asm.rs`, printed in `disasm.rs`).

/// Operand 2 of data processing: `#imm`, `rm`, `rm, <shift> #n`, `rm, <shift> rs`.
pub const SHIFTER: u8 = 0;
/// The address of a word/byte transfer: `[rn, #off]{!}`, `[rn, rm, lsl #n]{!}`,
/// `[rn], #off`, `[rn], rm`, or a label (PC-relative).
pub const ADDR: u8 = 1;
/// The address of a halfword/signed transfer: an 8-bit immediate or `rm`.
pub const ADDR_H: u8 = 2;
/// The destination of `mov`/`mvn`: any register but `pc`.
pub const MOVE_RD: u8 = 3;

const C: Slot = Slot::Suffix(&COND);
const S: Slot = Slot::Suffix(&S_BIT);
const SYN_DP: &[Slot] = &[C, S, Slot::Reg(RD), Slot::Reg(RN), Slot::Custom(SHIFTER)];
const SYN_DP_TEST: &[Slot] = &[C, Slot::Reg(RN), Slot::Custom(SHIFTER)];
const SYN_DP_MOVE: &[Slot] = &[C, S, Slot::Custom(MOVE_RD), Slot::Custom(SHIFTER)];
const SYN_MEM: &[Slot] = &[C, Slot::Reg(RD), Slot::Custom(ADDR)];
const SYN_MEMH: &[Slot] = &[C, Slot::Reg(RD), Slot::Custom(ADDR_H)];
const SYN_B: &[Slot] =
    &[C, Slot::Target { field: Field::new(0, 24), scale: 2, bias: 8, absolute: 0 }];

/// Data-processing encoding mask: bits 27:26 plus the opcode field. Bit 25
/// (immediate) and the shift fields stay dynamic so one definition covers
/// all three forms.
pub const DP_MASK: u32 = 0x0de0_0000;

/// Builds data-processing match bits for `opcode`.
pub const fn dp_bits(opcode: u32) -> u32 {
    opcode << 21
}

macro_rules! dp_inst {
    ($name:literal, $opcode:expr, $ev:ident, $syntax:expr) => {
        dp_inst!($name, $opcode, $ev, $syntax, DP_MASK, dp_bits($opcode))
    };
    ($name:literal, $opcode:expr, $ev:ident, $syntax:expr, $mask:expr, $bits:expr) => {
        InstDef {
            name: $name,
            class: InstClass::Alu,
            mask: $mask,
            bits: $bits,
            operands: OPS_DP,
            syntax: $syntax,
            actions: step_actions! {
                decode: dec_dp,
                operand_fetch: generic_operand_fetch,
                evaluate: $ev,
                writeback: generic_writeback,
            },
            extra_flows: ARM_FLOWS,
        }
    };
}

macro_rules! mem_inst {
    ($name:literal, $class:ident, $mask:expr, $bits:expr, $syn:expr, $dec:ident, $ev:ident, $mem:ident) => {
        InstDef {
            name: $name,
            class: InstClass::$class,
            mask: $mask,
            bits: $bits,
            operands: OPS_MEM,
            syntax: $syn,
            actions: step_actions! {
                decode: $dec,
                operand_fetch: generic_operand_fetch,
                evaluate: $ev,
                memory: $mem,
                writeback: generic_writeback,
            },
            extra_flows: ARM_FLOWS,
        }
    };
}

/// Every instruction of the ARM description, in decode-priority order (the
/// specific bit patterns of the `000` space come before data processing).
pub const INSTS: &[InstDef] = &[
    InstDef {
        name: "swi",
        class: InstClass::Syscall,
        mask: 0x0f00_0000,
        bits: 0x0f00_0000,
        operands: OPS_SWI,
        syntax: &[C, Slot::UImm(Field::new(0, 24))],
        actions: step_actions! {
            decode: dec_swi,
            operand_fetch: generic_operand_fetch,
            evaluate: ev_swi,
            exception: ex_swi,
        },
        extra_flows: ARM_FLOWS,
    },
    InstDef {
        name: "bx",
        class: InstClass::Jump,
        mask: 0x0fff_fff0,
        bits: 0x012f_ff10,
        operands: &[RM_S],
        syntax: &[C, Slot::Reg(RM)],
        actions: step_actions! {
            decode: dec_bx,
            operand_fetch: generic_operand_fetch,
            evaluate: ev_bx,
        },
        extra_flows: ARM_FLOWS,
    },
    InstDef {
        name: "clz",
        class: InstClass::Alu,
        mask: 0x0fff_0ff0,
        bits: 0x016f_0f10,
        operands: &[RM_S, RD_D],
        syntax: &[C, Slot::Reg(RD), Slot::Reg(RM)],
        actions: step_actions! {
            decode: dec_clz,
            operand_fetch: generic_operand_fetch,
            evaluate: ev_clz,
            writeback: generic_writeback,
        },
        extra_flows: ARM_FLOWS,
    },
    InstDef {
        name: "mul",
        class: InstClass::Alu,
        mask: 0x0fe0_00f0,
        bits: 0x0000_0090,
        operands: &[RM_S, RS_S, RD_D, FLAGS_D],
        syntax: &[C, S, Slot::Reg(RN), Slot::Reg(RM), Slot::Reg(RS)],
        actions: step_actions! {
            decode: dec_mul,
            operand_fetch: generic_operand_fetch,
            evaluate: ev_mul,
            writeback: generic_writeback,
        },
        extra_flows: ARM_FLOWS,
    },
    InstDef {
        name: "mla",
        class: InstClass::Alu,
        mask: 0x0fe0_00f0,
        bits: 0x0020_0090,
        operands: &[RM_S, RS_S, RN_S, RD_D, FLAGS_D],
        syntax: &[C, S, Slot::Reg(RN), Slot::Reg(RM), Slot::Reg(RS), Slot::Reg(RD)],
        actions: step_actions! {
            decode: dec_mul,
            operand_fetch: generic_operand_fetch,
            evaluate: ev_mul,
            writeback: generic_writeback,
        },
        extra_flows: ARM_FLOWS,
    },
    // Halfword and signed transfers (the 1xx1 pattern of the 000 space).
    mem_inst!("strh", Store, 0x0e10_00f0, 0x0000_00b0, SYN_MEMH, dec_memh, ev_memh, mem_strh),
    mem_inst!("ldrh", Load, 0x0e10_00f0, 0x0010_00b0, SYN_MEMH, dec_memh, ev_memh, mem_ldrh),
    mem_inst!("ldrsb", Load, 0x0e10_00f0, 0x0010_00d0, SYN_MEMH, dec_memh, ev_memh, mem_ldrsb),
    mem_inst!("ldrsh", Load, 0x0e10_00f0, 0x0010_00f0, SYN_MEMH, dec_memh, ev_memh, mem_ldrsh),
    // Word/byte transfers.
    mem_inst!("str", Store, 0x0c50_0000, 0x0400_0000, SYN_MEM, dec_mem, ev_mem, mem_str),
    mem_inst!("ldr", Load, 0x0c50_0000, 0x0410_0000, SYN_MEM, dec_mem, ev_mem, mem_ldr),
    mem_inst!("strb", Store, 0x0c50_0000, 0x0440_0000, SYN_MEM, dec_mem, ev_mem, mem_strb),
    mem_inst!("ldrb", Load, 0x0c50_0000, 0x0450_0000, SYN_MEM, dec_mem, ev_mem, mem_ldrb),
    // Branches.
    InstDef {
        name: "b",
        class: InstClass::Branch,
        mask: 0x0f00_0000,
        bits: 0x0a00_0000,
        operands: &[],
        syntax: SYN_B,
        actions: step_actions! {
            decode: dec_b,
            evaluate: ev_b,
        },
        extra_flows: ARM_FLOWS,
    },
    InstDef {
        name: "bl",
        class: InstClass::Jump,
        mask: 0x0f00_0000,
        bits: 0x0b00_0000,
        operands: OPS_B,
        syntax: SYN_B,
        actions: step_actions! {
            decode: dec_b,
            evaluate: ev_b,
            writeback: generic_writeback,
        },
        extra_flows: ARM_FLOWS,
    },
    // Data processing (all three forms each).
    dp_inst!("and", 0x0, ev_and, SYN_DP),
    dp_inst!("eor", 0x1, ev_eor, SYN_DP),
    dp_inst!("sub", 0x2, ev_sub, SYN_DP),
    dp_inst!("rsb", 0x3, ev_rsb, SYN_DP),
    dp_inst!("add", 0x4, ev_add, SYN_DP),
    dp_inst!("adc", 0x5, ev_adc, SYN_DP),
    dp_inst!("sbc", 0x6, ev_sbc, SYN_DP),
    dp_inst!("rsc", 0x7, ev_rsc, SYN_DP),
    dp_inst!("tst", 0x8, ev_tst, SYN_DP_TEST, DP_MASK | 0x0010_0000, dp_bits(0x8) | 0x0010_0000),
    dp_inst!("teq", 0x9, ev_teq, SYN_DP_TEST, DP_MASK | 0x0010_0000, dp_bits(0x9) | 0x0010_0000),
    dp_inst!("cmp", 0xa, ev_cmp, SYN_DP_TEST, DP_MASK | 0x0010_0000, dp_bits(0xa) | 0x0010_0000),
    dp_inst!("cmn", 0xb, ev_cmn, SYN_DP_TEST, DP_MASK | 0x0010_0000, dp_bits(0xb) | 0x0010_0000),
    dp_inst!("orr", 0xc, ev_orr, SYN_DP),
    dp_inst!("mov", 0xd, ev_mov, SYN_DP_MOVE),
    dp_inst!("bic", 0xe, ev_bic, SYN_DP),
    dp_inst!("mvn", 0xf, ev_mvn, SYN_DP_MOVE),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cond_table() {
        let c = flags::C;
        let z = flags::Z;
        assert!(cond_pass(0x0, z)); // eq
        assert!(!cond_pass(0x0, 0));
        assert!(cond_pass(0x1, 0)); // ne
        assert!(cond_pass(0x2, c)); // cs
        assert!(cond_pass(0x8, c)); // hi
        assert!(!cond_pass(0x8, c | z));
        assert!(cond_pass(0xa, 0)); // ge with n==v==0
        assert!(cond_pass(0xa, flags::N | flags::V));
        assert!(!cond_pass(0xb, 0)); // lt
        assert!(cond_pass(0xe, 0)); // al
        assert!(!cond_pass(0xf, 0)); // nv
    }

    #[test]
    fn shifter_lsl_lsr() {
        // LSL #0 keeps value and carry.
        assert_eq!(shift_compute(0, 5, 0, false, true), (5, true));
        assert_eq!(shift_compute(0, 1, 4, false, false), (16, false));
        // Carry out of LSL is the last bit shifted out.
        assert_eq!(shift_compute(0, 0x8000_0001, 1, false, false), (2, true));
        // LSR #0 immediate means LSR #32.
        assert_eq!(shift_compute(1, 0x8000_0000, 0, false, false), (0, true));
        // LSR #0 from register keeps value.
        assert_eq!(shift_compute(1, 7, 0, true, true), (7, true));
        // LSL by register >= 33 gives 0 with no carry.
        assert_eq!(shift_compute(0, 1, 40, true, true), (0, false));
    }

    #[test]
    fn shifter_asr_ror() {
        assert_eq!(shift_compute(2, 0x8000_0000, 1, false, false), (0xc000_0000, false));
        // ASR #0 immediate = ASR #32 of a negative value.
        assert_eq!(shift_compute(2, 0x8000_0000, 0, false, false), (M32, true));
        // ROR #4.
        assert_eq!(shift_compute(3, 0xf, 4, false, false), (0xf000_0000, true));
        // RRX: carry in becomes bit 31, bit 0 becomes carry out.
        assert_eq!(shift_compute(3, 1, 0, false, true), (0x8000_0000, true));
        // ROR by register multiple of 32 keeps value, carry = bit31.
        assert_eq!(shift_compute(3, 0x8000_0000, 32, true, false), (0x8000_0000, true));
    }

    #[test]
    fn instruction_count() {
        assert_eq!(INSTS.len(), 31);
    }

    #[test]
    fn dp_shape_table() {
        assert_eq!(dp_shape(13), (false, true)); // mov
        assert_eq!(dp_shape(10), (true, false)); // cmp
        assert_eq!(dp_shape(4), (true, true)); // add
    }
}

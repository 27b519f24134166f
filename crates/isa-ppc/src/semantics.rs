//! The single specification of the PowerPC (32-bit user-mode integer)
//! instruction set.
//!
//! Covered: D-form arithmetic and logical immediates, XO-form arithmetic
//! (including the CA-carrying `addic`/`adde`/`addze`/`subfic`/`subfe`),
//! X-form logicals, shifts (`slw`/`srw`/`sraw`/`srawi`), the rotate-and-mask
//! family (`rlwinm`/`rlwimi`/`rlwnm`), sign extension and `cntlzw`,
//! compares into any CR field, loads/stores (byte/half/word, update and
//! indexed forms, `lha`), the full `bc` machinery (CTR decrement + CR test),
//! `b`/`bclr`/`bcctr` with LK, `mfspr`/`mtspr`/`mfcr`, and `sc`.
//!
//! Subset notes: record (`.`) forms are supported on non-carrying X/XO/M
//! instructions only (carrying record forms would need three destination
//! operands); OE overflow forms are excluded; `divw`/`divwu` by zero yield
//! zero instead of an undefined value.

use crate::fields::{F_CA_OUT, F_CR_NIBBLE};
use crate::regs::{CR, CTR, GPR, LR, SPRS, XER, XER_CA};
use lis_core::{
    flow, generic_operand_fetch, generic_writeback, step_actions, Exec, Fault, Field, Flow,
    FlowItem, InstClass, InstDef, OperandDir, OperandSpec, Slot, Step, Suffix, F_ALU_OUT, F_COND,
    F_DEST1, F_DEST2, F_EFF_ADDR, F_IMM, F_MEM_DATA, F_SRC1, F_SRC2, F_SRC3,
};

const M32: u64 = 0xffff_ffff;

// Encoding helpers --------------------------------------------------------

/// D-form mask: primary opcode only.
pub const D_MASK: u32 = 0xfc00_0000;
/// X/XO-form mask: primary opcode + extended opcode (bits 10:1).
pub const X_MASK: u32 = 0xfc00_07fe;
/// X/XO-form mask with the record bit pinned to zero (carrying ops).
pub const X_MASK_NORC: u32 = 0xfc00_07ff;

/// Builds D-form match bits.
pub const fn d_bits(op: u32) -> u32 {
    op << 26
}

/// Builds X/XO-form match bits for opcode 31 (or 19) with extended opcode.
pub const fn x_bits(op: u32, xop: u32) -> u32 {
    (op << 26) | (xop << 1)
}

#[inline]
fn rd_field(w: u32) -> u16 {
    ((w >> 21) & 31) as u16
}

#[inline]
fn ra_field(w: u32) -> u16 {
    ((w >> 16) & 31) as u16
}

#[inline]
fn rb_field(w: u32) -> u16 {
    ((w >> 11) & 31) as u16
}

#[inline]
fn simm(w: u32) -> u64 {
    (w & 0xffff) as u16 as i16 as i64 as u64
}

#[inline]
fn uimm(w: u32) -> u64 {
    (w & 0xffff) as u64
}

#[inline]
fn rc_bit(w: u32) -> bool {
    w & 1 != 0
}

// CR helpers ---------------------------------------------------------------

/// Computes the (LT, GT, EQ, SO) nibble for a signed 32-bit result.
fn cr_nibble_signed(res: u64, so: bool) -> u64 {
    let v = res as u32 as i32;
    let mut n = 0u64;
    if v < 0 {
        n |= 8;
    } else if v > 0 {
        n |= 4;
    } else {
        n |= 2;
    }
    if so {
        n |= 1;
    }
    n
}

fn cr_nibble_cmp_signed(a: i32, b: i32, so: bool) -> u64 {
    let mut n = if a < b {
        8
    } else if a > b {
        4
    } else {
        2
    };
    if so {
        n |= 1;
    }
    n
}

fn cr_nibble_cmp_unsigned(a: u32, b: u32, so: bool) -> u64 {
    let mut n = if a < b {
        8
    } else if a > b {
        4
    } else {
        2
    };
    if so {
        n |= 1;
    }
    n
}

/// Inserts `nibble` into CR field `crf` of `cr`.
fn cr_insert(cr: u64, crf: u16, nibble: u64) -> u64 {
    let shift = 28 - 4 * crf as u32;
    (cr & !(0xf << shift)) | (nibble << shift)
}

// Result plumbing ----------------------------------------------------------

/// Finishes a computational instruction: the result goes to `dest1`; with
/// Rc set, the CR0 nibble goes to `dest2` (the CR destination pushed at
/// decode).
fn finish(ex: &mut Exec<'_>, res: u64) {
    let res = res & M32;
    ex.set(F_ALU_OUT, res);
    ex.set(F_DEST1, res);
    if rc_bit(ex.header.instr_bits) {
        let so = ex.read_reg(XER.0, 0) & (1 << 31) != 0;
        let nib = cr_nibble_signed(res, so);
        ex.set(F_CR_NIBBLE, nib);
        let cr = ex.read_reg(CR.0, 0);
        ex.set(F_DEST2, cr_insert(cr, 0, nib));
    }
}

/// Finishes a carrying instruction: result to `dest1`, updated XER (with the
/// new CA) to `dest2`.
fn finish_carry(ex: &mut Exec<'_>, res: u64, carry: bool) {
    let res = res & M32;
    ex.set(F_ALU_OUT, res);
    ex.set(F_DEST1, res);
    ex.set(F_CA_OUT, carry as u64);
    let xer = ex.read_reg(XER.0, 0);
    ex.set(F_DEST2, if carry { xer | XER_CA } else { xer & !XER_CA });
}

// Decode actions -----------------------------------------------------------

/// `rD, rA|0, simm` arithmetic (addi family).
fn dec_d_arith(ex: &mut Exec<'_>) -> Result<(), Fault> {
    let w = ex.header.instr_bits;
    if ra_field(w) != 0 {
        ex.ops.push_src(GPR, ra_field(w));
    }
    ex.ops.push_dest(GPR, rd_field(w));
    ex.set(F_IMM, simm(w));
    Ok(())
}

/// `rD, rA, simm` carrying arithmetic (addic/subfic/mulli — rA literal 0 not
/// special here).
fn dec_d_carry(ex: &mut Exec<'_>) -> Result<(), Fault> {
    let w = ex.header.instr_bits;
    ex.ops.push_src(GPR, ra_field(w));
    ex.ops.push_dest(GPR, rd_field(w));
    ex.ops.push_dest(XER, 0);
    ex.set(F_IMM, simm(w));
    Ok(())
}

/// `rA, rS, uimm` logical immediates (rS sits in the rD slot).
fn dec_d_logic(ex: &mut Exec<'_>) -> Result<(), Fault> {
    let w = ex.header.instr_bits;
    ex.ops.push_src(GPR, rd_field(w));
    ex.ops.push_dest(GPR, ra_field(w));
    if matches!(w >> 26, 28 | 29) {
        ex.ops.push_dest(CR, 0); // andi./andis. always record
    }
    ex.set(F_IMM, uimm(w));
    Ok(())
}

/// `rD, rA, simm` plain register-immediate (mulli).
fn dec_d_ri(ex: &mut Exec<'_>) -> Result<(), Fault> {
    let w = ex.header.instr_bits;
    ex.ops.push_src(GPR, ra_field(w));
    ex.ops.push_dest(GPR, rd_field(w));
    ex.set(F_IMM, simm(w));
    Ok(())
}

/// XO-form `rD, rA, rB`.
fn dec_xo(ex: &mut Exec<'_>) -> Result<(), Fault> {
    let w = ex.header.instr_bits;
    ex.ops.push_src(GPR, ra_field(w));
    ex.ops.push_src(GPR, rb_field(w));
    ex.ops.push_dest(GPR, rd_field(w));
    if rc_bit(w) {
        ex.ops.push_dest(CR, 0);
    }
    Ok(())
}

/// XO-form carrying `rD, rA, rB` (+ XER in and out).
fn dec_xo_carry(ex: &mut Exec<'_>) -> Result<(), Fault> {
    let w = ex.header.instr_bits;
    ex.ops.push_src(GPR, ra_field(w));
    ex.ops.push_src(GPR, rb_field(w));
    ex.ops.push_src(XER, 0);
    ex.ops.push_dest(GPR, rd_field(w));
    ex.ops.push_dest(XER, 0);
    Ok(())
}

/// `rD, rA` unary XO (neg, addze).
fn dec_xo_unary(ex: &mut Exec<'_>) -> Result<(), Fault> {
    let w = ex.header.instr_bits;
    ex.ops.push_src(GPR, ra_field(w));
    if (w >> 1) & 0x3ff == 202 {
        ex.ops.push_src(XER, 0); // addze reads CA
        ex.ops.push_dest(GPR, rd_field(w));
        ex.ops.push_dest(XER, 0);
    } else {
        ex.ops.push_dest(GPR, rd_field(w));
        if rc_bit(w) {
            ex.ops.push_dest(CR, 0);
        }
    }
    Ok(())
}

/// X-form logical/shift `rA, rS, rB` (rS in the rD slot).
fn dec_x_logic(ex: &mut Exec<'_>) -> Result<(), Fault> {
    let w = ex.header.instr_bits;
    ex.ops.push_src(GPR, rd_field(w));
    ex.ops.push_src(GPR, rb_field(w));
    ex.ops.push_dest(GPR, ra_field(w));
    if rc_bit(w) {
        ex.ops.push_dest(CR, 0);
    }
    Ok(())
}

/// X-form unary `rA, rS` (extsb/extsh/cntlzw) and srawi (`rA, rS, sh`).
fn dec_x_unary(ex: &mut Exec<'_>) -> Result<(), Fault> {
    let w = ex.header.instr_bits;
    ex.ops.push_src(GPR, rd_field(w));
    ex.ops.push_dest(GPR, ra_field(w));
    if (w >> 1) & 0x3ff == 824 {
        // srawi carries.
        ex.ops.push_dest(XER, 0);
        ex.set(F_IMM, rb_field(w) as u64);
    } else if rc_bit(w) {
        ex.ops.push_dest(CR, 0);
    }
    Ok(())
}

/// sraw: `rA, rS, rB` with carry.
fn dec_sraw(ex: &mut Exec<'_>) -> Result<(), Fault> {
    let w = ex.header.instr_bits;
    ex.ops.push_src(GPR, rd_field(w));
    ex.ops.push_src(GPR, rb_field(w));
    ex.ops.push_dest(GPR, ra_field(w));
    ex.ops.push_dest(XER, 0);
    Ok(())
}

/// M-form rotates: rlwinm/rlwnm `rA, rS, ..`; rlwimi also reads rA.
fn dec_m(ex: &mut Exec<'_>) -> Result<(), Fault> {
    let w = ex.header.instr_bits;
    let op = w >> 26;
    ex.ops.push_src(GPR, rd_field(w));
    if op == 20 {
        ex.ops.push_src(GPR, ra_field(w)); // rlwimi inserts into rA
    } else if op == 23 {
        ex.ops.push_src(GPR, rb_field(w)); // rlwnm shifts by rB
    }
    ex.ops.push_dest(GPR, ra_field(w));
    if rc_bit(w) {
        ex.ops.push_dest(CR, 0);
    }
    Ok(())
}

/// Compares: `crfD, rA, rB` or `crfD, rA, simm` — read-modify-write CR.
fn dec_cmp(ex: &mut Exec<'_>) -> Result<(), Fault> {
    let w = ex.header.instr_bits;
    ex.ops.push_src(GPR, ra_field(w));
    if matches!(w >> 26, 31) {
        ex.ops.push_src(GPR, rb_field(w));
    } else {
        ex.set(F_IMM, if w >> 26 == 11 { simm(w) } else { uimm(w) });
    }
    ex.ops.push_src(CR, 0);
    ex.ops.push_dest(CR, 0);
    Ok(())
}

/// D-form loads: `rD, d(rA|0)`; update forms also write rA.
fn dec_load(ex: &mut Exec<'_>) -> Result<(), Fault> {
    let w = ex.header.instr_bits;
    if ra_field(w) != 0 {
        ex.ops.push_src(GPR, ra_field(w));
    }
    ex.ops.push_dest(GPR, rd_field(w));
    if is_update(w) {
        ex.ops.push_dest(GPR, ra_field(w));
    }
    ex.set(F_IMM, simm(w));
    Ok(())
}

/// D-form stores: `rS, d(rA|0)`.
fn dec_store(ex: &mut Exec<'_>) -> Result<(), Fault> {
    let w = ex.header.instr_bits;
    if ra_field(w) != 0 {
        ex.ops.push_src(GPR, ra_field(w));
    }
    ex.ops.push_src(GPR, rd_field(w)); // data
    if is_update(w) {
        ex.ops.push_dest(GPR, ra_field(w));
    }
    ex.set(F_IMM, simm(w));
    Ok(())
}

/// Whether a D-form memory opcode is an update form.
fn is_update(w: u32) -> bool {
    matches!(w >> 26, 33 | 35 | 41 | 37 | 39 | 45)
}

/// X-form indexed loads: `rD, rA|0, rB`.
fn dec_loadx(ex: &mut Exec<'_>) -> Result<(), Fault> {
    let w = ex.header.instr_bits;
    if ra_field(w) != 0 {
        ex.ops.push_src(GPR, ra_field(w));
    }
    ex.ops.push_src(GPR, rb_field(w));
    ex.ops.push_dest(GPR, rd_field(w));
    Ok(())
}

/// X-form indexed stores: `rS, rA|0, rB`.
fn dec_storex(ex: &mut Exec<'_>) -> Result<(), Fault> {
    let w = ex.header.instr_bits;
    if ra_field(w) != 0 {
        ex.ops.push_src(GPR, ra_field(w));
    }
    ex.ops.push_src(GPR, rd_field(w)); // data
    ex.ops.push_src(GPR, rb_field(w));
    Ok(())
}

fn dec_b(ex: &mut Exec<'_>) -> Result<(), Fault> {
    let w = ex.header.instr_bits;
    let off = ((w & 0x03ff_fffc) << 6) as i32 >> 6;
    ex.set(F_IMM, off as i64 as u64);
    if w & 1 != 0 {
        ex.ops.push_dest(LR, 0);
    }
    Ok(())
}

fn dec_bc(ex: &mut Exec<'_>) -> Result<(), Fault> {
    let w = ex.header.instr_bits;
    ex.ops.push_src(CR, 0);
    ex.ops.push_src(CTR, 0);
    let off = ((w & 0xfffc) as u16 as i16) as i64;
    ex.set(F_IMM, off as u64);
    let bo = (w >> 21) & 0x1f;
    if w & 1 != 0 {
        ex.ops.push_dest(LR, 0);
    }
    if bo & 4 == 0 {
        ex.ops.push_dest(CTR, 0);
    }
    Ok(())
}

fn dec_bclr(ex: &mut Exec<'_>) -> Result<(), Fault> {
    let w = ex.header.instr_bits;
    ex.ops.push_src(CR, 0);
    ex.ops.push_src(CTR, 0);
    ex.ops.push_src(LR, 0);
    let bo = (w >> 21) & 0x1f;
    if w & 1 != 0 {
        ex.ops.push_dest(LR, 0);
    }
    if bo & 4 == 0 {
        ex.ops.push_dest(CTR, 0);
    }
    Ok(())
}

fn dec_bcctr(ex: &mut Exec<'_>) -> Result<(), Fault> {
    let w = ex.header.instr_bits;
    ex.ops.push_src(CR, 0);
    ex.ops.push_src(CTR, 0);
    if w & 1 != 0 {
        ex.ops.push_dest(LR, 0);
    }
    Ok(())
}

fn dec_mfspr(ex: &mut Exec<'_>) -> Result<(), Fault> {
    let w = ex.header.instr_bits;
    let class = spr_class(w)?;
    ex.ops.push_src(class, 0);
    ex.ops.push_dest(GPR, rd_field(w));
    Ok(())
}

fn dec_mtspr(ex: &mut Exec<'_>) -> Result<(), Fault> {
    let w = ex.header.instr_bits;
    let class = spr_class(w)?;
    ex.ops.push_src(GPR, rd_field(w));
    ex.ops.push_dest(class, 0);
    Ok(())
}

fn spr_class(w: u32) -> Result<lis_core::RegClass, Fault> {
    let n = ((w >> 16) & 0x1f) | (((w >> 11) & 0x1f) << 5);
    SPRS.iter()
        .find(|spr| u32::from(spr.1) == n)
        .map(|spr| spr.2)
        .ok_or(Fault::IllegalInstruction { pc: 0, bits: w })
}

fn dec_mfcr(ex: &mut Exec<'_>) -> Result<(), Fault> {
    let w = ex.header.instr_bits;
    ex.ops.push_src(CR, 0);
    ex.ops.push_dest(GPR, rd_field(w));
    Ok(())
}

fn dec_sc(ex: &mut Exec<'_>) -> Result<(), Fault> {
    // LIS OS ABI on PowerPC: r0 = number, r3/r4 = arguments, result in r3.
    ex.ops.push_src(GPR, 0);
    ex.ops.push_src(GPR, 3);
    ex.ops.push_src(GPR, 4);
    ex.ops.push_dest(GPR, 3);
    Ok(())
}

// Evaluate actions ----------------------------------------------------------

/// rA|0 convention: src1 when rA != 0, literal zero otherwise.
fn base_or_zero(ex: &Exec<'_>) -> u64 {
    if ra_field(ex.header.instr_bits) == 0 {
        0
    } else {
        ex.get(F_SRC1)
    }
}

fn ev_addi(ex: &mut Exec<'_>) -> Result<(), Fault> {
    finish(ex, base_or_zero(ex).wrapping_add(ex.get(F_IMM)));
    Ok(())
}

fn ev_addis(ex: &mut Exec<'_>) -> Result<(), Fault> {
    finish(ex, base_or_zero(ex).wrapping_add(ex.get(F_IMM) << 16));
    Ok(())
}

fn ev_mulli(ex: &mut Exec<'_>) -> Result<(), Fault> {
    finish(ex, ex.get(F_SRC1).wrapping_mul(ex.get(F_IMM)));
    Ok(())
}

fn ev_addic(ex: &mut Exec<'_>) -> Result<(), Fault> {
    let a = ex.get(F_SRC1) & M32;
    let b = ex.get(F_IMM) & M32;
    let wide = a + b;
    finish_carry(ex, wide, wide > M32);
    Ok(())
}

fn ev_subfic(ex: &mut Exec<'_>) -> Result<(), Fault> {
    let a = ex.get(F_SRC1) & M32;
    let b = ex.get(F_IMM) & M32;
    // ¬a + imm + 1
    let wide = (!a & M32) + b + 1;
    finish_carry(ex, wide, wide > M32);
    Ok(())
}

macro_rules! xo_op {
    ($($fname:ident = $f:expr;)*) => {
        $(fn $fname(ex: &mut Exec<'_>) -> Result<(), Fault> {
            let a = ex.get(F_SRC1) & M32;
            let b = ex.get(F_SRC2) & M32;
            #[allow(clippy::redundant_closure_call)]
            let v: u64 = ($f)(a, b);
            finish(ex, v);
            Ok(())
        })*
    };
}

xo_op! {
    ev_add = |a: u64, b: u64| a.wrapping_add(b);
    ev_subf = |a: u64, b: u64| b.wrapping_sub(a);
    ev_mullw = |a: u64, b: u64| a.wrapping_mul(b);
    ev_mulhw = |a: u64, b: u64| (((a as u32 as i32 as i64) * (b as u32 as i32 as i64)) >> 32) as u64;
    ev_mulhwu = |a: u64, b: u64| (a * b) >> 32;
    ev_divw = |a: u64, b: u64| {
        let (a, b) = (a as u32 as i32, b as u32 as i32);
        if b == 0 || (a == i32::MIN && b == -1) { 0 } else { (a / b) as u32 as u64 }
    };
    ev_divwu = |a: u64, b: u64| if b == 0 { 0 } else { (a as u32 / b as u32) as u64 };
    ev_and = |a: u64, b: u64| a & b;
    ev_or = |a: u64, b: u64| a | b;
    ev_xor = |a: u64, b: u64| a ^ b;
    ev_nand = |a: u64, b: u64| !(a & b);
    ev_nor = |a: u64, b: u64| !(a | b);
    ev_andc = |a: u64, b: u64| a & !b;
    ev_orc = |a: u64, b: u64| a | !b;
    ev_eqv = |a: u64, b: u64| !(a ^ b);
    ev_slw = |a: u64, b: u64| {
        let sh = b & 0x3f;
        if sh > 31 { 0 } else { a << sh }
    };
    ev_srw = |a: u64, b: u64| {
        let sh = b & 0x3f;
        if sh > 31 { 0 } else { a >> sh }
    };
}

fn ev_adde(ex: &mut Exec<'_>) -> Result<(), Fault> {
    let a = ex.get(F_SRC1) & M32;
    let b = ex.get(F_SRC2) & M32;
    let ca = (ex.get(F_SRC3) & XER_CA != 0) as u64;
    let wide = a + b + ca;
    finish_carry(ex, wide, wide > M32);
    Ok(())
}

fn ev_subfe(ex: &mut Exec<'_>) -> Result<(), Fault> {
    let a = ex.get(F_SRC1) & M32;
    let b = ex.get(F_SRC2) & M32;
    let ca = (ex.get(F_SRC3) & XER_CA != 0) as u64;
    let wide = (!a & M32) + b + ca;
    finish_carry(ex, wide, wide > M32);
    Ok(())
}

fn ev_addze(ex: &mut Exec<'_>) -> Result<(), Fault> {
    let a = ex.get(F_SRC1) & M32;
    let ca = (ex.get(F_SRC2) & XER_CA != 0) as u64;
    let wide = a + ca;
    finish_carry(ex, wide, wide > M32);
    Ok(())
}

fn ev_neg(ex: &mut Exec<'_>) -> Result<(), Fault> {
    finish(ex, (ex.get(F_SRC1) as u32).wrapping_neg() as u64);
    Ok(())
}

macro_rules! d_logic {
    ($($fname:ident = $f:expr;)*) => {
        $(fn $fname(ex: &mut Exec<'_>) -> Result<(), Fault> {
            let s = ex.get(F_SRC1) & M32;
            let i = ex.get(F_IMM);
            #[allow(clippy::redundant_closure_call)]
            let v: u64 = ($f)(s, i);
            // andi./andis. always record; the others never do (their low bit
            // is part of the immediate, so `finish` would misfire).
            let res = v & M32;
            ex.set(F_ALU_OUT, res);
            ex.set(F_DEST1, res);
            if matches!(ex.header.instr_bits >> 26, 28 | 29) {
                let so = ex.read_reg(XER.0, 0) & (1 << 31) != 0;
                let nib = cr_nibble_signed(res, so);
                ex.set(F_CR_NIBBLE, nib);
                let cr = ex.read_reg(CR.0, 0);
                ex.set(F_DEST2, cr_insert(cr, 0, nib));
            }
            Ok(())
        })*
    };
}

d_logic! {
    ev_ori = |s: u64, i: u64| s | i;
    ev_oris = |s: u64, i: u64| s | (i << 16);
    ev_xori = |s: u64, i: u64| s ^ i;
    ev_xoris = |s: u64, i: u64| s ^ (i << 16);
    ev_andi = |s: u64, i: u64| s & i;
    ev_andis = |s: u64, i: u64| s & (i << 16);
}

fn ev_extsb(ex: &mut Exec<'_>) -> Result<(), Fault> {
    finish(ex, ex.get(F_SRC1) as u8 as i8 as i64 as u64);
    Ok(())
}

fn ev_extsh(ex: &mut Exec<'_>) -> Result<(), Fault> {
    finish(ex, ex.get(F_SRC1) as u16 as i16 as i64 as u64);
    Ok(())
}

fn ev_cntlzw(ex: &mut Exec<'_>) -> Result<(), Fault> {
    finish(ex, (ex.get(F_SRC1) as u32).leading_zeros() as u64);
    Ok(())
}

fn ev_sraw(ex: &mut Exec<'_>) -> Result<(), Fault> {
    let s = ex.get(F_SRC1) as u32 as i32;
    let sh = (ex.get(F_SRC2) & 0x3f) as u32;
    let (res, ca) = if sh > 31 {
        let sign = s < 0;
        (if sign { M32 } else { 0 }, sign)
    } else {
        let res = ((s as i64) >> sh) as u64 & M32;
        let lost = sh > 0 && s < 0 && (s as u32) << (32 - sh) != 0;
        (res, lost)
    };
    finish_carry(ex, res, ca);
    Ok(())
}

fn ev_srawi(ex: &mut Exec<'_>) -> Result<(), Fault> {
    let s = ex.get(F_SRC1) as u32 as i32;
    let sh = (ex.get(F_IMM) & 31) as u32;
    let res = ((s as i64) >> sh) as u64 & M32;
    let lost = sh > 0 && s < 0 && (s as u32) << (32 - sh) != 0;
    finish_carry(ex, res, lost);
    Ok(())
}

/// MASK(mb, me) in PowerPC bit numbering (bit 0 is the MSB).
fn ppc_mask(mb: u32, me: u32) -> u64 {
    let x = 0xffff_ffffu32;
    if mb <= me {
        ((x >> mb) & (x << (31 - me))) as u64
    } else {
        ((x >> mb) | (x << (31 - me))) as u64
    }
}

fn ev_rlwinm(ex: &mut Exec<'_>) -> Result<(), Fault> {
    let w = ex.header.instr_bits;
    let sh = (w >> 11) & 31;
    let mb = (w >> 6) & 31;
    let me = (w >> 1) & 31;
    let rot = (ex.get(F_SRC1) as u32).rotate_left(sh) as u64;
    finish(ex, rot & ppc_mask(mb, me));
    Ok(())
}

fn ev_rlwimi(ex: &mut Exec<'_>) -> Result<(), Fault> {
    let w = ex.header.instr_bits;
    let sh = (w >> 11) & 31;
    let mb = (w >> 6) & 31;
    let me = (w >> 1) & 31;
    let rot = (ex.get(F_SRC1) as u32).rotate_left(sh) as u64;
    let mask = ppc_mask(mb, me);
    let old = ex.get(F_SRC2) & M32;
    finish(ex, (rot & mask) | (old & !mask));
    Ok(())
}

fn ev_rlwnm(ex: &mut Exec<'_>) -> Result<(), Fault> {
    let w = ex.header.instr_bits;
    let mb = (w >> 6) & 31;
    let me = (w >> 1) & 31;
    let sh = (ex.get(F_SRC2) & 31) as u32;
    let rot = (ex.get(F_SRC1) as u32).rotate_left(sh) as u64;
    finish(ex, rot & ppc_mask(mb, me));
    Ok(())
}

macro_rules! cmp_op {
    ($($fname:ident = ($signed:expr, $reg:expr);)*) => {
        $(fn $fname(ex: &mut Exec<'_>) -> Result<(), Fault> {
            let w = ex.header.instr_bits;
            let crf = ((w >> 23) & 7) as u16;
            let a = ex.get(F_SRC1) & M32;
            let b = if $reg { ex.get(F_SRC2) & M32 } else { ex.get(F_IMM) & M32 };
            let cr_old = if $reg { ex.get(F_SRC3) } else { ex.get(F_SRC2) };
            let so = ex.read_reg(XER.0, 0) & (1 << 31) != 0;
            let nib = if $signed {
                cr_nibble_cmp_signed(a as u32 as i32, b as u32 as i32, so)
            } else {
                cr_nibble_cmp_unsigned(a as u32, b as u32, so)
            };
            ex.set(F_CR_NIBBLE, nib);
            ex.set(F_COND, nib);
            ex.set(F_DEST1, cr_insert(cr_old, crf, nib));
            Ok(())
        })*
    };
}

cmp_op! {
    ev_cmpwi = (true, false);
    ev_cmplwi = (false, false);
    ev_cmpw = (true, true);
    ev_cmplw = (false, true);
}

fn ev_ea_d(ex: &mut Exec<'_>) -> Result<(), Fault> {
    let ea = base_or_zero(ex).wrapping_add(ex.get(F_IMM)) & M32;
    ex.set(F_EFF_ADDR, ea);
    if is_update(ex.header.instr_bits) {
        ex.set(F_DEST2, ea); // update forms write the EA back to rA
    }
    Ok(())
}

fn ev_ea_d_store(ex: &mut Exec<'_>) -> Result<(), Fault> {
    let ea = base_or_zero(ex).wrapping_add(ex.get(F_IMM)) & M32;
    ex.set(F_EFF_ADDR, ea);
    if is_update(ex.header.instr_bits) {
        ex.set(F_DEST1, ea);
    }
    Ok(())
}

fn ev_ea_x(ex: &mut Exec<'_>) -> Result<(), Fault> {
    let w = ex.header.instr_bits;
    // srcs: [ra?] [rb] for loads, [ra?] [rs] [rb] for stores.
    let (base, index) =
        if ra_field(w) == 0 { (0, ex.get(F_SRC1)) } else { (ex.get(F_SRC1), ex.get(F_SRC2)) };
    ex.set(F_EFF_ADDR, base.wrapping_add(index) & M32);
    Ok(())
}

fn ev_ea_x_store(ex: &mut Exec<'_>) -> Result<(), Fault> {
    let w = ex.header.instr_bits;
    let (base, index) =
        if ra_field(w) == 0 { (0, ex.get(F_SRC2)) } else { (ex.get(F_SRC1), ex.get(F_SRC3)) };
    ex.set(F_EFF_ADDR, base.wrapping_add(index) & M32);
    Ok(())
}

macro_rules! mem_load {
    ($($fname:ident = ($size:expr, $signed:expr);)*) => {
        $(fn $fname(ex: &mut Exec<'_>) -> Result<(), Fault> {
            let v = ex.load(ex.get(F_EFF_ADDR), $size, $signed)? & M32;
            ex.set(F_MEM_DATA, v);
            ex.set(F_DEST1, v);
            Ok(())
        })*
    };
}

mem_load! {
    mem_lwz = (4, false);
    mem_lhz = (2, false);
    mem_lha = (2, true);
    mem_lbz = (1, false);
}

/// Stores read the data value from the slot decode placed it in: src2 for
/// D-form with a base, src1 when rA was 0, src2/src3 for X-form.
fn store_data_d(ex: &Exec<'_>) -> u64 {
    if ra_field(ex.header.instr_bits) == 0 {
        ex.get(F_SRC1)
    } else {
        ex.get(F_SRC2)
    }
}

macro_rules! mem_store_d {
    ($($fname:ident = $size:expr;)*) => {
        $(fn $fname(ex: &mut Exec<'_>) -> Result<(), Fault> {
            let v = store_data_d(ex) & M32;
            ex.set(F_MEM_DATA, v);
            ex.store(ex.get(F_EFF_ADDR), $size, v)
        })*
    };
}

mem_store_d! {
    mem_stw = 4;
    mem_sth = 2;
    mem_stb = 1;
}

fn store_data_x(ex: &Exec<'_>) -> u64 {
    if ra_field(ex.header.instr_bits) == 0 {
        // srcs: [rs, rb]
        ex.get(F_SRC1)
    } else {
        // srcs: [ra, rs, rb]
        ex.get(F_SRC2)
    }
}

macro_rules! mem_store_x {
    ($($fname:ident = $size:expr;)*) => {
        $(fn $fname(ex: &mut Exec<'_>) -> Result<(), Fault> {
            let v = store_data_x(ex) & M32;
            ex.set(F_MEM_DATA, v);
            ex.store(ex.get(F_EFF_ADDR), $size, v)
        })*
    };
}

mem_store_x! {
    mem_stwx = 4;
    mem_sthx = 2;
    mem_stbx = 1;
}

// Branches -------------------------------------------------------------

fn ev_b(ex: &mut Exec<'_>) -> Result<(), Fault> {
    let w = ex.header.instr_bits;
    if w & 1 != 0 {
        ex.set(F_DEST1, ex.header.pc.wrapping_add(4) & M32);
    }
    let off = ex.get(F_IMM);
    let target = if w & 2 != 0 { off } else { ex.header.pc.wrapping_add(off) };
    ex.take_branch(target & M32);
    Ok(())
}

/// The bc condition machinery, shared by bc/bclr/bcctr. Returns
/// `(taken, ctr_decremented, new_ctr)`.
fn bc_taken(ex: &mut Exec<'_>) -> (bool, bool, u64) {
    let w = ex.header.instr_bits;
    let bo = (w >> 21) & 0x1f;
    let bi = (w >> 16) & 0x1f;
    let cr = ex.get(F_SRC1);
    let mut ctr = ex.get(F_SRC2) & M32;
    let mut dec = false;
    let ctr_ok = if bo & 4 != 0 {
        true
    } else {
        ctr = ctr.wrapping_sub(1) & M32;
        dec = true;
        (ctr != 0) != (bo & 2 != 0)
    };
    let cond_ok = if bo & 16 != 0 {
        true
    } else {
        let bit = (cr >> (31 - bi)) & 1;
        bit == ((bo >> 3) & 1) as u64
    };
    (ctr_ok && cond_ok, dec, ctr)
}

/// Writes the LR/CTR destinations of a bc-family instruction in the order
/// decode declared them.
fn bc_dests(ex: &mut Exec<'_>, link: bool, dec: bool, new_ctr: u64) {
    let ret = ex.header.pc.wrapping_add(4) & M32;
    match (link, dec) {
        (true, true) => {
            ex.set(F_DEST1, ret);
            ex.set(F_DEST2, new_ctr);
        }
        (true, false) => ex.set(F_DEST1, ret),
        (false, true) => ex.set(F_DEST1, new_ctr),
        (false, false) => {}
    }
}

fn ev_bc(ex: &mut Exec<'_>) -> Result<(), Fault> {
    let w = ex.header.instr_bits;
    let (taken, dec, new_ctr) = bc_taken(ex);
    bc_dests(ex, w & 1 != 0, dec, new_ctr);
    if taken {
        let off = ex.get(F_IMM);
        let target = if w & 2 != 0 { off } else { ex.header.pc.wrapping_add(off) };
        ex.take_branch(target & M32);
    } else {
        ex.branch_not_taken();
    }
    Ok(())
}

fn ev_bclr(ex: &mut Exec<'_>) -> Result<(), Fault> {
    let w = ex.header.instr_bits;
    let (taken, dec, new_ctr) = bc_taken(ex);
    let lr = ex.get(F_SRC3) & !3;
    bc_dests(ex, w & 1 != 0, dec, new_ctr);
    if taken {
        ex.take_branch(lr & M32);
    } else {
        ex.branch_not_taken();
    }
    Ok(())
}

fn ev_bcctr(ex: &mut Exec<'_>) -> Result<(), Fault> {
    let w = ex.header.instr_bits;
    let (taken, _, _) = bc_taken(ex);
    if w & 1 != 0 {
        ex.set(F_DEST1, ex.header.pc.wrapping_add(4) & M32);
    }
    if taken {
        let target = ex.get(F_SRC2) & !3;
        ex.take_branch(target & M32);
    } else {
        ex.branch_not_taken();
    }
    Ok(())
}

// Moves and system call --------------------------------------------------

fn ev_mfspr(ex: &mut Exec<'_>) -> Result<(), Fault> {
    finish(ex, ex.get(F_SRC1));
    Ok(())
}

fn ev_mtspr(ex: &mut Exec<'_>) -> Result<(), Fault> {
    ex.set(F_DEST1, ex.get(F_SRC1) & M32);
    Ok(())
}

fn ev_mfcr(ex: &mut Exec<'_>) -> Result<(), Fault> {
    ex.set(F_DEST1, ex.get(F_SRC1) & M32);
    Ok(())
}

fn ex_sc(ex: &mut Exec<'_>) -> Result<(), Fault> {
    let ret = ex.syscall(ex.get(F_SRC1), ex.get(F_SRC2), ex.get(F_SRC3))?;
    ex.set(F_DEST1, ret & M32);
    ex.write_reg(GPR.0, 3, ret & M32);
    Ok(())
}

// The instruction table ----------------------------------------------------

const RD_D: OperandSpec = OperandSpec { name: "rd", dir: OperandDir::Dest, class: GPR };
const RA_S: OperandSpec = OperandSpec { name: "ra", dir: OperandDir::Src, class: GPR };
const RB_S: OperandSpec = OperandSpec { name: "rb", dir: OperandDir::Src, class: GPR };
const RS_S: OperandSpec = OperandSpec { name: "rs", dir: OperandDir::Src, class: GPR };
const RA_D: OperandSpec = OperandSpec { name: "ra", dir: OperandDir::Dest, class: GPR };
const CR_D: OperandSpec = OperandSpec { name: "cr", dir: OperandDir::Dest, class: CR };

const OPS_XO: &[OperandSpec] = &[RA_S, RB_S, RD_D, CR_D];
const OPS_XL: &[OperandSpec] = &[RS_S, RB_S, RA_D, CR_D];
const OPS_D: &[OperandSpec] = &[RA_S, RD_D];
const OPS_LOAD: &[OperandSpec] = &[RA_S, RD_D];
const OPS_STORE: &[OperandSpec] = &[RA_S, RS_S];

// Assembly syntax ----------------------------------------------------------

/// The record suffix `.`: also set CR0 from the result.
const RC: Suffix =
    Suffix { field: Field::new(0, 1), names: &["", "."], aliases: &[], print_only: 0 };
/// The link suffix `l`: also set LR to the next instruction's address.
const LK: Suffix =
    Suffix { field: Field::new(0, 1), names: &["", "l"], aliases: &[], print_only: 0 };

/// `rD`/`rS`, or a branch's BO.
pub(crate) const RT: Field = Field::new(21, 5);
/// `rA`, or a branch's BI.
pub(crate) const RA: Field = Field::new(16, 5);
/// `rB`, or a shift amount.
pub(crate) const RB: Field = Field::new(11, 5);
const IMM16: Field = Field::new(0, 16);
const MB: Field = Field::new(6, 5);
const ME: Field = Field::new(1, 5);
/// The CR field a compare writes.
pub(crate) const CRF: Field = Field::new(23, 3);
/// The SPR number of `mfspr`/`mtspr`: its low half sits in the `rA` field,
/// its high half in the `rB` field.
pub(crate) const SPR_LO: Field = RA;
/// See [`SPR_LO`].
pub(crate) const SPR_HI: Field = RB;

// Custom operand slots (encoded in `asm.rs`, printed in `disasm.rs`).

/// A CR field `crN`, which may be left out (`cr0`).
pub const CR_FIELD: u8 = 0;
/// An SPR number; a named SPR prints inside the mnemonic (`mflr`).
pub const SPR: u8 = 1;

const R: Slot = Slot::Suffix(&RC);
const L: Slot = Slot::Suffix(&LK);
const SYN_D_ARITH: &[Slot] = &[Slot::Reg(RT), Slot::Reg(RA), Slot::SImm(IMM16)];
const SYN_D_HIGH: &[Slot] = &[Slot::Reg(RT), Slot::Reg(RA), Slot::HImm(IMM16)];
const SYN_D_LOGIC: &[Slot] = &[Slot::Reg(RA), Slot::Reg(RT), Slot::UImm(IMM16)];
const SYN_CMPI: &[Slot] = &[Slot::Custom(CR_FIELD), Slot::Reg(RA), Slot::SImm(IMM16)];
const SYN_CMPLI: &[Slot] = &[Slot::Custom(CR_FIELD), Slot::Reg(RA), Slot::UImm(IMM16)];
const SYN_CMP: &[Slot] = &[Slot::Custom(CR_FIELD), Slot::Reg(RA), Slot::Reg(RB)];
const SYN_ROTI: &[Slot] =
    &[R, Slot::Reg(RA), Slot::Reg(RT), Slot::UImm(RB), Slot::UImm(MB), Slot::UImm(ME)];
const SYN_ROT: &[Slot] =
    &[R, Slot::Reg(RA), Slot::Reg(RT), Slot::Reg(RB), Slot::UImm(MB), Slot::UImm(ME)];
const SYN_BCLR: &[Slot] = &[L, Slot::UImm(RT), Slot::UImm(RA)];
const SYN_MEM: &[Slot] =
    &[Slot::Reg(RT), Slot::Disp { disp: IMM16, base: RA, zero: 0, update: false }];
const SYN_MEM_U: &[Slot] =
    &[Slot::Reg(RT), Slot::Disp { disp: IMM16, base: RA, zero: 0, update: true }];
const SYN_MEM_X: &[Slot] = &[Slot::Reg(RT), Slot::Reg(RA), Slot::Reg(RB)];
const SYN_XO: &[Slot] = &[R, Slot::Reg(RT), Slot::Reg(RA), Slot::Reg(RB)];
const SYN_XO_UNARY: &[Slot] = &[R, Slot::Reg(RT), Slot::Reg(RA)];
const SYN_XL: &[Slot] = &[R, Slot::Reg(RA), Slot::Reg(RT), Slot::Reg(RB)];
const SYN_XL_UNARY: &[Slot] = &[R, Slot::Reg(RA), Slot::Reg(RT)];
const SYN_SRAWI: &[Slot] = &[R, Slot::Reg(RA), Slot::Reg(RT), Slot::UImm(RB)];
const SYN_MFCR: &[Slot] = &[Slot::Reg(RT)];
const SYN_MFSPR: &[Slot] = &[Slot::Reg(RT), Slot::Custom(SPR)];
const SYN_MTSPR: &[Slot] = &[Slot::Custom(SPR), Slot::Reg(RT)];

macro_rules! alu_inst {
    ($name:literal, $mask:expr, $bits:expr, $ops:expr, $syn:expr, $dec:ident, $ev:ident) => {
        InstDef {
            name: $name,
            class: InstClass::Alu,
            mask: $mask,
            bits: $bits,
            operands: $ops,
            syntax: $syn,
            actions: step_actions! {
                decode: $dec,
                operand_fetch: generic_operand_fetch,
                evaluate: $ev,
                writeback: generic_writeback,
            },
            extra_flows: &[],
        }
    };
}

macro_rules! load_inst {
    ($name:literal, $mask:expr, $bits:expr, $syn:expr, $dec:ident, $ev:ident, $mem:ident) => {
        InstDef {
            name: $name,
            class: InstClass::Load,
            mask: $mask,
            bits: $bits,
            operands: OPS_LOAD,
            syntax: $syn,
            actions: step_actions! {
                decode: $dec,
                operand_fetch: generic_operand_fetch,
                evaluate: $ev,
                memory: $mem,
                writeback: generic_writeback,
            },
            extra_flows: &[],
        }
    };
}

macro_rules! store_inst {
    ($name:literal, $mask:expr, $bits:expr, $syn:expr, $dec:ident, $ev:ident, $mem:ident) => {
        InstDef {
            name: $name,
            class: InstClass::Store,
            mask: $mask,
            bits: $bits,
            operands: OPS_STORE,
            syntax: $syn,
            actions: step_actions! {
                decode: $dec,
                operand_fetch: generic_operand_fetch,
                evaluate: $ev,
                memory: $mem,
                writeback: generic_writeback,
            },
            extra_flows: &[],
        }
    };
}

/// `bc` is the only Branch-class instruction with a writeback step: it may
/// write LR (link forms) and CTR (decrementing forms), both pushed as dest
/// operands at decode and valued at evaluate. The class flow table has no
/// edge into writeback, so without these declarations the step is invisible
/// to interface checking (lis-analyze flags it as LIS005 dead-step).
const BC_WRITEBACK_FLOWS: &[Flow] = &[
    flow(FlowItem::OperandIds, Step::Decode, Step::Writeback),
    flow(FlowItem::Field(F_DEST1), Step::Evaluate, Step::Writeback),
    flow(FlowItem::Field(F_DEST2), Step::Evaluate, Step::Writeback),
];

/// Every instruction of the PowerPC description.
pub const INSTS: &[InstDef] = &[
    // System call
    InstDef {
        name: "sc",
        class: InstClass::Syscall,
        mask: 0xfc00_0002,
        bits: d_bits(17) | 2,
        operands: &[],
        syntax: &[],
        actions: step_actions! {
            decode: dec_sc,
            operand_fetch: generic_operand_fetch,
            exception: ex_sc,
        },
        extra_flows: &[],
    },
    // D-form arithmetic
    alu_inst!("mulli", D_MASK, d_bits(7), OPS_D, SYN_D_ARITH, dec_d_ri, ev_mulli),
    alu_inst!("subfic", D_MASK, d_bits(8), OPS_D, SYN_D_ARITH, dec_d_carry, ev_subfic),
    alu_inst!("addic", D_MASK, d_bits(12), OPS_D, SYN_D_ARITH, dec_d_carry, ev_addic),
    alu_inst!("addi", D_MASK, d_bits(14), OPS_D, SYN_D_ARITH, dec_d_arith, ev_addi),
    alu_inst!("addis", D_MASK, d_bits(15), OPS_D, SYN_D_HIGH, dec_d_arith, ev_addis),
    // D-form compares
    alu_inst!("cmplwi", D_MASK, d_bits(10), OPS_D, SYN_CMPLI, dec_cmp, ev_cmplwi),
    alu_inst!("cmpwi", D_MASK, d_bits(11), OPS_D, SYN_CMPI, dec_cmp, ev_cmpwi),
    // D-form logical
    alu_inst!("ori", D_MASK, d_bits(24), OPS_D, SYN_D_LOGIC, dec_d_logic, ev_ori),
    alu_inst!("oris", D_MASK, d_bits(25), OPS_D, SYN_D_LOGIC, dec_d_logic, ev_oris),
    alu_inst!("xori", D_MASK, d_bits(26), OPS_D, SYN_D_LOGIC, dec_d_logic, ev_xori),
    alu_inst!("xoris", D_MASK, d_bits(27), OPS_D, SYN_D_LOGIC, dec_d_logic, ev_xoris),
    alu_inst!("andi.", D_MASK, d_bits(28), OPS_D, SYN_D_LOGIC, dec_d_logic, ev_andi),
    alu_inst!("andis.", D_MASK, d_bits(29), OPS_D, SYN_D_LOGIC, dec_d_logic, ev_andis),
    // M-form rotates
    alu_inst!("rlwimi", D_MASK, d_bits(20), OPS_XL, SYN_ROTI, dec_m, ev_rlwimi),
    alu_inst!("rlwinm", D_MASK, d_bits(21), OPS_XL, SYN_ROTI, dec_m, ev_rlwinm),
    alu_inst!("rlwnm", D_MASK, d_bits(23), OPS_XL, SYN_ROT, dec_m, ev_rlwnm),
    // Branches
    InstDef {
        name: "b",
        class: InstClass::Jump,
        mask: D_MASK,
        bits: d_bits(18),
        operands: &[],
        syntax: &[L, Slot::Target { field: Field::new(2, 24), scale: 2, bias: 0, absolute: 2 }],
        actions: step_actions! {
            decode: dec_b,
            evaluate: ev_b,
            writeback: generic_writeback,
        },
        extra_flows: &[],
    },
    InstDef {
        name: "bc",
        class: InstClass::Branch,
        mask: D_MASK,
        bits: d_bits(16),
        operands: &[],
        syntax: &[
            L,
            Slot::UImm(RT),
            Slot::UImm(RA),
            Slot::Target { field: Field::new(2, 14), scale: 2, bias: 0, absolute: 2 },
        ],
        actions: step_actions! {
            decode: dec_bc,
            operand_fetch: generic_operand_fetch,
            evaluate: ev_bc,
            writeback: generic_writeback,
        },
        extra_flows: BC_WRITEBACK_FLOWS,
    },
    InstDef {
        name: "bclr",
        class: InstClass::Jump,
        mask: 0xfc00_07fe,
        bits: x_bits(19, 16),
        operands: &[],
        syntax: SYN_BCLR,
        actions: step_actions! {
            decode: dec_bclr,
            operand_fetch: generic_operand_fetch,
            evaluate: ev_bclr,
            writeback: generic_writeback,
        },
        extra_flows: &[],
    },
    InstDef {
        name: "bcctr",
        class: InstClass::Jump,
        mask: 0xfc00_07fe,
        bits: x_bits(19, 528),
        operands: &[],
        syntax: SYN_BCLR,
        actions: step_actions! {
            decode: dec_bcctr,
            operand_fetch: generic_operand_fetch,
            evaluate: ev_bcctr,
            writeback: generic_writeback,
        },
        extra_flows: &[],
    },
    // D-form loads/stores
    load_inst!("lwz", D_MASK, d_bits(32), SYN_MEM, dec_load, ev_ea_d, mem_lwz),
    load_inst!("lwzu", D_MASK, d_bits(33), SYN_MEM_U, dec_load, ev_ea_d, mem_lwz),
    load_inst!("lbz", D_MASK, d_bits(34), SYN_MEM, dec_load, ev_ea_d, mem_lbz),
    load_inst!("lbzu", D_MASK, d_bits(35), SYN_MEM_U, dec_load, ev_ea_d, mem_lbz),
    load_inst!("lhz", D_MASK, d_bits(40), SYN_MEM, dec_load, ev_ea_d, mem_lhz),
    load_inst!("lhzu", D_MASK, d_bits(41), SYN_MEM_U, dec_load, ev_ea_d, mem_lhz),
    load_inst!("lha", D_MASK, d_bits(42), SYN_MEM, dec_load, ev_ea_d, mem_lha),
    store_inst!("stw", D_MASK, d_bits(36), SYN_MEM, dec_store, ev_ea_d_store, mem_stw),
    store_inst!("stwu", D_MASK, d_bits(37), SYN_MEM_U, dec_store, ev_ea_d_store, mem_stw),
    store_inst!("stb", D_MASK, d_bits(38), SYN_MEM, dec_store, ev_ea_d_store, mem_stb),
    store_inst!("stbu", D_MASK, d_bits(39), SYN_MEM_U, dec_store, ev_ea_d_store, mem_stb),
    store_inst!("sth", D_MASK, d_bits(44), SYN_MEM, dec_store, ev_ea_d_store, mem_sth),
    store_inst!("sthu", D_MASK, d_bits(45), SYN_MEM_U, dec_store, ev_ea_d_store, mem_sth),
    // X-form indexed loads/stores (opcode 31)
    load_inst!("lwzx", X_MASK, x_bits(31, 23), SYN_MEM_X, dec_loadx, ev_ea_x, mem_lwz),
    load_inst!("lbzx", X_MASK, x_bits(31, 87), SYN_MEM_X, dec_loadx, ev_ea_x, mem_lbz),
    load_inst!("lhzx", X_MASK, x_bits(31, 279), SYN_MEM_X, dec_loadx, ev_ea_x, mem_lhz),
    store_inst!("stwx", X_MASK, x_bits(31, 151), SYN_MEM_X, dec_storex, ev_ea_x_store, mem_stwx),
    store_inst!("stbx", X_MASK, x_bits(31, 215), SYN_MEM_X, dec_storex, ev_ea_x_store, mem_stbx),
    store_inst!("sthx", X_MASK, x_bits(31, 407), SYN_MEM_X, dec_storex, ev_ea_x_store, mem_sthx),
    // X-form compares
    alu_inst!("cmpw", X_MASK, x_bits(31, 0), OPS_XO, SYN_CMP, dec_cmp, ev_cmpw),
    alu_inst!("cmplw", X_MASK, x_bits(31, 32), OPS_XO, SYN_CMP, dec_cmp, ev_cmplw),
    // XO-form arithmetic
    alu_inst!("subfc", X_MASK_NORC, x_bits(31, 8), OPS_XO, SYN_XO, dec_xo_carry, ev_subfe_c),
    alu_inst!("addc", X_MASK_NORC, x_bits(31, 10), OPS_XO, SYN_XO, dec_xo_carry, ev_adde_c),
    alu_inst!("mulhwu", X_MASK, x_bits(31, 11), OPS_XO, SYN_XO, dec_xo, ev_mulhwu),
    alu_inst!("subf", X_MASK, x_bits(31, 40), OPS_XO, SYN_XO, dec_xo, ev_subf),
    alu_inst!("mulhw", X_MASK, x_bits(31, 75), OPS_XO, SYN_XO, dec_xo, ev_mulhw),
    alu_inst!("neg", X_MASK, x_bits(31, 104), OPS_D, SYN_XO_UNARY, dec_xo_unary, ev_neg),
    alu_inst!("subfe", X_MASK_NORC, x_bits(31, 136), OPS_XO, SYN_XO, dec_xo_carry, ev_subfe),
    alu_inst!("adde", X_MASK_NORC, x_bits(31, 138), OPS_XO, SYN_XO, dec_xo_carry, ev_adde),
    alu_inst!("addze", X_MASK_NORC, x_bits(31, 202), OPS_D, SYN_XO_UNARY, dec_xo_unary, ev_addze),
    alu_inst!("mullw", X_MASK, x_bits(31, 235), OPS_XO, SYN_XO, dec_xo, ev_mullw),
    alu_inst!("add", X_MASK, x_bits(31, 266), OPS_XO, SYN_XO, dec_xo, ev_add),
    alu_inst!("divwu", X_MASK, x_bits(31, 459), OPS_XO, SYN_XO, dec_xo, ev_divwu),
    alu_inst!("divw", X_MASK, x_bits(31, 491), OPS_XO, SYN_XO, dec_xo, ev_divw),
    // X-form logical
    alu_inst!("slw", X_MASK, x_bits(31, 24), OPS_XL, SYN_XL, dec_x_logic, ev_slw),
    alu_inst!("cntlzw", X_MASK, x_bits(31, 26), OPS_D, SYN_XL_UNARY, dec_x_unary, ev_cntlzw),
    alu_inst!("and", X_MASK, x_bits(31, 28), OPS_XL, SYN_XL, dec_x_logic, ev_and),
    alu_inst!("andc", X_MASK, x_bits(31, 60), OPS_XL, SYN_XL, dec_x_logic, ev_andc),
    alu_inst!("nor", X_MASK, x_bits(31, 124), OPS_XL, SYN_XL, dec_x_logic, ev_nor),
    alu_inst!("eqv", X_MASK, x_bits(31, 284), OPS_XL, SYN_XL, dec_x_logic, ev_eqv),
    alu_inst!("xor", X_MASK, x_bits(31, 316), OPS_XL, SYN_XL, dec_x_logic, ev_xor),
    alu_inst!("orc", X_MASK, x_bits(31, 412), OPS_XL, SYN_XL, dec_x_logic, ev_orc),
    alu_inst!("or", X_MASK, x_bits(31, 444), OPS_XL, SYN_XL, dec_x_logic, ev_or),
    alu_inst!("nand", X_MASK, x_bits(31, 476), OPS_XL, SYN_XL, dec_x_logic, ev_nand),
    alu_inst!("srw", X_MASK, x_bits(31, 536), OPS_XL, SYN_XL, dec_x_logic, ev_srw),
    alu_inst!("sraw", X_MASK_NORC, x_bits(31, 792), OPS_XL, SYN_XL, dec_sraw, ev_sraw),
    alu_inst!("srawi", X_MASK_NORC, x_bits(31, 824), OPS_D, SYN_SRAWI, dec_x_unary, ev_srawi),
    alu_inst!("extsh", X_MASK, x_bits(31, 922), OPS_D, SYN_XL_UNARY, dec_x_unary, ev_extsh),
    alu_inst!("extsb", X_MASK, x_bits(31, 954), OPS_D, SYN_XL_UNARY, dec_x_unary, ev_extsb),
    // SPR moves
    alu_inst!("mfcr", 0xfc00_07fe, x_bits(31, 19), OPS_D, SYN_MFCR, dec_mfcr, ev_mfcr),
    alu_inst!("mfspr", 0xfc00_07fe, x_bits(31, 339), OPS_D, SYN_MFSPR, dec_mfspr, ev_mfspr),
    alu_inst!("mtspr", 0xfc00_07fe, x_bits(31, 467), OPS_D, SYN_MTSPR, dec_mtspr, ev_mtspr),
];

// subfc/addc are the carry-setting base forms: same semantics as
// adde/subfe but with no carry *in*.
fn ev_adde_c(ex: &mut Exec<'_>) -> Result<(), Fault> {
    let a = ex.get(F_SRC1) & M32;
    let b = ex.get(F_SRC2) & M32;
    let wide = a + b;
    finish_carry(ex, wide, wide > M32);
    Ok(())
}

fn ev_subfe_c(ex: &mut Exec<'_>) -> Result<(), Fault> {
    let a = ex.get(F_SRC1) & M32;
    let b = ex.get(F_SRC2) & M32;
    let wide = (!a & M32) + b + 1;
    finish_carry(ex, wide, wide > M32);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cr_helpers() {
        assert_eq!(cr_nibble_signed(0, false), 2);
        assert_eq!(cr_nibble_signed(5, false), 4);
        assert_eq!(cr_nibble_signed(0xffff_fff6, true), 9);
        assert_eq!(cr_nibble_cmp_signed(-1, 1, false), 8);
        assert_eq!(cr_nibble_cmp_unsigned(0xffff_ffff, 1, false), 4);
        let cr = cr_insert(0, 0, 0x8);
        assert_eq!(cr, 0x8000_0000);
        let cr = cr_insert(cr, 7, 0x2);
        assert_eq!(cr, 0x8000_0002);
        let cr = cr_insert(cr, 0, 0x4);
        assert_eq!(cr, 0x4000_0002);
    }

    #[test]
    fn masks() {
        assert_eq!(ppc_mask(0, 31), 0xffff_ffff);
        assert_eq!(ppc_mask(0, 0), 0x8000_0000);
        assert_eq!(ppc_mask(31, 31), 1);
        assert_eq!(ppc_mask(24, 31), 0xff);
        // Wrapped mask.
        assert_eq!(ppc_mask(30, 1), 0xc000_0003);
    }

    #[test]
    fn instruction_count() {
        assert_eq!(INSTS.len(), 73);
    }

    #[test]
    fn no_ambiguous_encodings() {
        for (i, a) in INSTS.iter().enumerate() {
            for b in &INSTS[i + 1..] {
                let shared = a.mask & b.mask;
                assert!(
                    a.bits & shared != b.bits & shared,
                    "{} and {} are ambiguous",
                    a.name,
                    b.name
                );
            }
        }
    }
}

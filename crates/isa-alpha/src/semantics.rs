//! The single specification of the Alpha (user-mode integer) instruction set.
//!
//! Everything the toolkit knows about Alpha instruction behaviour lives in
//! this file, exactly once: encodings (mask/bits), operand declarations,
//! assembly syntax, and the per-step semantic actions. The assembler, the
//! disassembler, and every derived interface are synthesized from the
//! [`INSTS`] table.
//!
//! Formats (Alpha Architecture Handbook):
//!
//! ```text
//! Operate: opcode[31:26] ra[25:21] rb[20:16] 000 0 func[11:5] rc[4:0]
//!          opcode[31:26] ra[25:21] lit[20:13]    1 func[11:5] rc[4:0]
//! Memory:  opcode[31:26] ra[25:21] rb[20:16] disp[15:0]
//! Branch:  opcode[31:26] ra[25:21] disp[20:0]
//! PALcode: 000000 palfunc[25:0]
//! ```

use crate::regs::GPR;
use lis_core::{
    generic_operand_fetch, generic_writeback, step_actions, Exec, Fault, Field, InstClass, InstDef,
    OperandDir, OperandSpec, Slot, F_ALU_OUT, F_COND, F_DEST1, F_EFF_ADDR, F_IMM, F_MEM_DATA,
    F_SRC1, F_SRC2, F_SRC3,
};

/// Operate-format encoding mask (opcode + function code; the literal bit is
/// deliberately outside the mask so one definition covers both forms).
pub const OPERATE_MASK: u32 = 0xfc00_0fe0;
/// Memory/branch-format encoding mask (opcode only).
pub const MEM_MASK: u32 = 0xfc00_0000;

/// Builds operate-format match bits.
pub const fn operate_bits(op: u32, func: u32) -> u32 {
    (op << 26) | (func << 5)
}

/// Builds memory/branch-format match bits.
pub const fn op_bits(op: u32) -> u32 {
    op << 26
}

#[inline]
fn sext32(v: u64) -> u64 {
    v as u32 as i32 as i64 as u64
}

/// Second operand of an operate instruction: the 8-bit literal when present,
/// otherwise the fetched `rb` value.
#[inline]
fn srcb(ex: &Exec<'_>) -> u64 {
    if ex.has(F_IMM) {
        ex.get(F_IMM)
    } else {
        ex.get(F_SRC2)
    }
}

#[inline]
fn out(ex: &mut Exec<'_>, v: u64) {
    ex.set(F_ALU_OUT, v);
    ex.set(F_DEST1, v);
}

// ---------------------------------------------------------------------
// Decode actions (one per format)
// ---------------------------------------------------------------------

fn dec_operate(ex: &mut Exec<'_>) -> Result<(), Fault> {
    let w = ex.header.instr_bits;
    ex.ops.push_src(GPR, ((w >> 21) & 31) as u16);
    if w & 0x1000 != 0 {
        ex.set(F_IMM, ((w >> 13) & 0xff) as u64);
    } else {
        ex.ops.push_src(GPR, ((w >> 16) & 31) as u16);
    }
    ex.ops.push_dest(GPR, (w & 31) as u16);
    Ok(())
}

fn dec_mem_load(ex: &mut Exec<'_>) -> Result<(), Fault> {
    let w = ex.header.instr_bits;
    ex.ops.push_dest(GPR, ((w >> 21) & 31) as u16);
    ex.ops.push_src(GPR, ((w >> 16) & 31) as u16);
    ex.set(F_IMM, (w & 0xffff) as u16 as i16 as i64 as u64);
    Ok(())
}

fn dec_mem_store(ex: &mut Exec<'_>) -> Result<(), Fault> {
    let w = ex.header.instr_bits;
    ex.ops.push_src(GPR, ((w >> 16) & 31) as u16); // base
    ex.ops.push_src(GPR, ((w >> 21) & 31) as u16); // data
    ex.set(F_IMM, (w & 0xffff) as u16 as i16 as i64 as u64);
    Ok(())
}

fn dec_cbranch(ex: &mut Exec<'_>) -> Result<(), Fault> {
    let w = ex.header.instr_bits;
    ex.ops.push_src(GPR, ((w >> 21) & 31) as u16);
    let disp = ((w & 0x1f_ffff) << 11) as i32 >> 11; // sign-extend 21 bits
    ex.set(F_IMM, disp as i64 as u64);
    Ok(())
}

fn dec_br(ex: &mut Exec<'_>) -> Result<(), Fault> {
    let w = ex.header.instr_bits;
    ex.ops.push_dest(GPR, ((w >> 21) & 31) as u16);
    let disp = ((w & 0x1f_ffff) << 11) as i32 >> 11;
    ex.set(F_IMM, disp as i64 as u64);
    Ok(())
}

fn dec_jump(ex: &mut Exec<'_>) -> Result<(), Fault> {
    let w = ex.header.instr_bits;
    ex.ops.push_dest(GPR, ((w >> 21) & 31) as u16);
    ex.ops.push_src(GPR, ((w >> 16) & 31) as u16);
    Ok(())
}

fn dec_callsys(ex: &mut Exec<'_>) -> Result<(), Fault> {
    // LIS OS ABI on Alpha: v0 (r0) = number, a0 (r16), a1 (r17) = arguments.
    ex.ops.push_src(GPR, 0);
    ex.ops.push_src(GPR, 16);
    ex.ops.push_src(GPR, 17);
    Ok(())
}

// ---------------------------------------------------------------------
// Evaluate actions
// ---------------------------------------------------------------------

macro_rules! alu {
    ($($fname:ident = $f:expr;)*) => {
        $(fn $fname(ex: &mut Exec<'_>) -> Result<(), Fault> {
            let a = ex.get(F_SRC1);
            let b = srcb(ex);
            #[allow(clippy::redundant_closure_call)]
            let v: u64 = ($f)(a, b);
            out(ex, v);
            Ok(())
        })*
    };
}

alu! {
    ev_addl = |a: u64, b: u64| sext32(a.wrapping_add(b));
    ev_addq = |a: u64, b: u64| a.wrapping_add(b);
    ev_subl = |a: u64, b: u64| sext32(a.wrapping_sub(b));
    ev_subq = |a: u64, b: u64| a.wrapping_sub(b);
    ev_s4addl = |a: u64, b: u64| sext32((a << 2).wrapping_add(b));
    ev_s4addq = |a: u64, b: u64| (a << 2).wrapping_add(b);
    ev_s8addl = |a: u64, b: u64| sext32((a << 3).wrapping_add(b));
    ev_s8addq = |a: u64, b: u64| (a << 3).wrapping_add(b);
    ev_s4subl = |a: u64, b: u64| sext32((a << 2).wrapping_sub(b));
    ev_s4subq = |a: u64, b: u64| (a << 2).wrapping_sub(b);
    ev_s8subl = |a: u64, b: u64| sext32((a << 3).wrapping_sub(b));
    ev_s8subq = |a: u64, b: u64| (a << 3).wrapping_sub(b);
    ev_cmpeq = |a: u64, b: u64| (a == b) as u64;
    ev_cmplt = |a: u64, b: u64| ((a as i64) < b as i64) as u64;
    ev_cmple = |a: u64, b: u64| (a as i64 <= b as i64) as u64;
    ev_cmpult = |a: u64, b: u64| (a < b) as u64;
    ev_cmpule = |a: u64, b: u64| (a <= b) as u64;
    ev_and = |a: u64, b: u64| a & b;
    ev_bic = |a: u64, b: u64| a & !b;
    ev_bis = |a: u64, b: u64| a | b;
    ev_ornot = |a: u64, b: u64| a | !b;
    ev_xor = |a: u64, b: u64| a ^ b;
    ev_eqv = |a: u64, b: u64| a ^ !b;
    ev_sll = |a: u64, b: u64| a << (b & 63);
    ev_srl = |a: u64, b: u64| a >> (b & 63);
    ev_sra = |a: u64, b: u64| ((a as i64) >> (b & 63)) as u64;
    ev_mull = |a: u64, b: u64| sext32(a.wrapping_mul(b));
    ev_mulq = |a: u64, b: u64| a.wrapping_mul(b);
    ev_umulh = |a: u64, b: u64| ((a as u128).wrapping_mul(b as u128) >> 64) as u64;
    ev_zapnot = |a: u64, b: u64| zap_bytes(a, !(b as u8));
    ev_zap = |a: u64, b: u64| zap_bytes(a, b as u8);
    ev_extbl = |a: u64, b: u64| (a >> ((b & 7) * 8)) & 0xff;
    ev_extwl = |a: u64, b: u64| (a >> ((b & 7) * 8)) & 0xffff;
    ev_insbl = |a: u64, b: u64| (a & 0xff) << ((b & 7) * 8);
    ev_cmpbge = |a: u64, b: u64| cmpbge(a, b);
}

fn zap_bytes(a: u64, mask: u8) -> u64 {
    let mut v = a;
    for i in 0..8 {
        if mask & (1 << i) != 0 {
            v &= !(0xffu64 << (i * 8));
        }
    }
    v
}

fn cmpbge(a: u64, b: u64) -> u64 {
    let mut r = 0u64;
    for i in 0..8 {
        let ab = (a >> (i * 8)) as u8;
        let bb = (b >> (i * 8)) as u8;
        if ab >= bb {
            r |= 1 << i;
        }
    }
    r
}

macro_rules! cmov {
    ($($fname:ident = $cond:expr;)*) => {
        $(fn $fname(ex: &mut Exec<'_>) -> Result<(), Fault> {
            let a = ex.get(F_SRC1);
            #[allow(clippy::redundant_closure_call)]
            let take = ($cond)(a);
            ex.set(F_COND, take as u64);
            if take {
                out(ex, srcb(ex));
            }
            Ok(())
        })*
    };
}

cmov! {
    ev_cmoveq = |a: u64| a == 0;
    ev_cmovne = |a: u64| a != 0;
    ev_cmovlt = |a: u64| (a as i64) < 0;
    ev_cmovle = |a: u64| (a as i64) <= 0;
    ev_cmovgt = |a: u64| (a as i64) > 0;
    ev_cmovge = |a: u64| (a as i64) >= 0;
    ev_cmovlbs = |a: u64| a & 1 != 0;
    ev_cmovlbc = |a: u64| a & 1 == 0;
}

macro_rules! cbranch {
    ($($fname:ident = $cond:expr;)*) => {
        $(fn $fname(ex: &mut Exec<'_>) -> Result<(), Fault> {
            let a = ex.get(F_SRC1);
            #[allow(clippy::redundant_closure_call)]
            let take = ($cond)(a);
            ex.set(F_COND, take as u64);
            if take {
                let t = ex.header.pc.wrapping_add(4).wrapping_add(ex.get(F_IMM) << 2);
                ex.take_branch(t);
            } else {
                ex.branch_not_taken();
            }
            Ok(())
        })*
    };
}

cbranch! {
    ev_beq = |a: u64| a == 0;
    ev_bne = |a: u64| a != 0;
    ev_blt = |a: u64| (a as i64) < 0;
    ev_ble = |a: u64| (a as i64) <= 0;
    ev_bgt = |a: u64| (a as i64) > 0;
    ev_bge = |a: u64| (a as i64) >= 0;
    ev_blbs = |a: u64| a & 1 != 0;
    ev_blbc = |a: u64| a & 1 == 0;
}

fn ev_br(ex: &mut Exec<'_>) -> Result<(), Fault> {
    ex.set(F_DEST1, ex.header.pc.wrapping_add(4));
    let t = ex.header.pc.wrapping_add(4).wrapping_add(ex.get(F_IMM) << 2);
    ex.take_branch(t);
    Ok(())
}

fn ev_jmp(ex: &mut Exec<'_>) -> Result<(), Fault> {
    ex.set(F_DEST1, ex.header.pc.wrapping_add(4));
    let t = ex.get(F_SRC1) & !3;
    ex.take_branch(t);
    Ok(())
}

fn ev_lda(ex: &mut Exec<'_>) -> Result<(), Fault> {
    out(ex, ex.get(F_SRC1).wrapping_add(ex.get(F_IMM)));
    Ok(())
}

fn ev_ldah(ex: &mut Exec<'_>) -> Result<(), Fault> {
    out(ex, ex.get(F_SRC1).wrapping_add(ex.get(F_IMM) << 16));
    Ok(())
}

fn ev_ea(ex: &mut Exec<'_>) -> Result<(), Fault> {
    let ea = ex.get(F_SRC1).wrapping_add(ex.get(F_IMM));
    ex.set(F_EFF_ADDR, ea);
    Ok(())
}

// ---------------------------------------------------------------------
// Memory actions
// ---------------------------------------------------------------------

macro_rules! load {
    ($($fname:ident = ($size:expr, $signed:expr);)*) => {
        $(fn $fname(ex: &mut Exec<'_>) -> Result<(), Fault> {
            let v = ex.load(ex.get(F_EFF_ADDR), $size, $signed)?;
            ex.set(F_MEM_DATA, v);
            ex.set(F_DEST1, v);
            Ok(())
        })*
    };
}

load! {
    mem_ldq = (8, false);
    mem_ldl = (4, true);
    mem_ldwu = (2, false);
    mem_ldbu = (1, false);
}

macro_rules! store {
    ($($fname:ident = $size:expr;)*) => {
        $(fn $fname(ex: &mut Exec<'_>) -> Result<(), Fault> {
            let v = ex.get(F_SRC2);
            ex.set(F_MEM_DATA, v);
            ex.store(ex.get(F_EFF_ADDR), $size, v)
        })*
    };
}

store! {
    mem_stq = 8;
    mem_stl = 4;
    mem_stw = 2;
    mem_stb = 1;
}

fn ex_callsys(ex: &mut Exec<'_>) -> Result<(), Fault> {
    let ret = ex.syscall(ex.get(F_SRC1), ex.get(F_SRC2), ex.get(F_SRC3))?;
    ex.set(F_DEST1, ret);
    ex.write_reg(GPR.0, 0, ret);
    Ok(())
}

// ---------------------------------------------------------------------
// The instruction table
// ---------------------------------------------------------------------

const RA_S: OperandSpec = OperandSpec { name: "ra", dir: OperandDir::Src, class: GPR };
const RB_S: OperandSpec = OperandSpec { name: "rb", dir: OperandDir::Src, class: GPR };
const RA_D: OperandSpec = OperandSpec { name: "ra", dir: OperandDir::Dest, class: GPR };
const RC_D: OperandSpec = OperandSpec { name: "rc", dir: OperandDir::Dest, class: GPR };

const OPS_OPERATE: &[OperandSpec] = &[RA_S, RB_S, RC_D];
const OPS_LOAD: &[OperandSpec] = &[RA_D, RB_S];
const OPS_STORE: &[OperandSpec] = &[RA_S, RB_S];
const OPS_CBR: &[OperandSpec] = &[RA_S];
const OPS_BR: &[OperandSpec] = &[RA_D];
const OPS_JMP: &[OperandSpec] = &[RA_D, RB_S];

// Assembly syntax, one per format: `addq ra, rb|lit, rc`, `ldq ra, disp(rb)`,
// `jmp [ra,] (rb)`, `br [ra,] target`, `beq ra, target`.
const RA: Field = Field::new(21, 5);
const RB: Field = Field::new(16, 5);
const RC: Field = Field::new(0, 5);
const OPERATE_B: Slot = Slot::RegOrLit { reg: RB, lit: Field::new(13, 8), flag: Field::new(12, 1) };
const MEM_DISP: Slot = Slot::Disp { disp: Field::new(0, 16), base: RB, zero: 31, update: false };
const BR_TARGET: Slot = Slot::Target { field: Field::new(0, 21), scale: 2, bias: 4, absolute: 0 };

const SYN_OPERATE: &[Slot] = &[Slot::Reg(RA), OPERATE_B, Slot::Reg(RC)];
const SYN_MEM: &[Slot] = &[Slot::Reg(RA), MEM_DISP];
const SYN_JMP: &[Slot] = &[Slot::OptReg(RA, 31), Slot::Indirect(RB)];
const SYN_BR: &[Slot] = &[Slot::OptReg(RA, 31), BR_TARGET];
const SYN_BSR: &[Slot] = &[Slot::OptReg(RA, 26), BR_TARGET];
const SYN_CBR: &[Slot] = &[Slot::Reg(RA), BR_TARGET];

macro_rules! operate {
    ($name:literal, $op:expr, $func:expr, $ev:ident) => {
        InstDef {
            name: $name,
            class: InstClass::Alu,
            mask: OPERATE_MASK,
            bits: operate_bits($op, $func),
            operands: OPS_OPERATE,
            syntax: SYN_OPERATE,
            actions: step_actions! {
                decode: dec_operate,
                operand_fetch: generic_operand_fetch,
                evaluate: $ev,
                writeback: generic_writeback,
            },
            extra_flows: &[],
        }
    };
}

macro_rules! load_inst {
    ($name:literal, $op:expr, $mem:ident) => {
        InstDef {
            name: $name,
            class: InstClass::Load,
            mask: MEM_MASK,
            bits: op_bits($op),
            operands: OPS_LOAD,
            syntax: SYN_MEM,
            actions: step_actions! {
                decode: dec_mem_load,
                operand_fetch: generic_operand_fetch,
                evaluate: ev_ea,
                memory: $mem,
                writeback: generic_writeback,
            },
            extra_flows: &[],
        }
    };
}

macro_rules! store_inst {
    ($name:literal, $op:expr, $mem:ident) => {
        InstDef {
            name: $name,
            class: InstClass::Store,
            mask: MEM_MASK,
            bits: op_bits($op),
            operands: OPS_STORE,
            syntax: SYN_MEM,
            actions: step_actions! {
                decode: dec_mem_store,
                operand_fetch: generic_operand_fetch,
                evaluate: ev_ea,
                memory: $mem,
            },
            extra_flows: &[],
        }
    };
}

macro_rules! cbranch_inst {
    ($name:literal, $op:expr, $ev:ident) => {
        InstDef {
            name: $name,
            class: InstClass::Branch,
            mask: MEM_MASK,
            bits: op_bits($op),
            operands: OPS_CBR,
            syntax: SYN_CBR,
            actions: step_actions! {
                decode: dec_cbranch,
                operand_fetch: generic_operand_fetch,
                evaluate: $ev,
            },
            extra_flows: &[],
        }
    };
}

/// Every instruction of the Alpha description, in decode-priority order.
pub const INSTS: &[InstDef] = &[
    // PALcode (exact match, highest priority)
    InstDef {
        name: "callsys",
        class: InstClass::Syscall,
        mask: 0xffff_ffff,
        bits: 0x0000_0083,
        operands: &[],
        syntax: &[],
        actions: step_actions! {
            decode: dec_callsys,
            operand_fetch: generic_operand_fetch,
            exception: ex_callsys,
        },
        extra_flows: &[],
    },
    // Memory format
    InstDef {
        name: "lda",
        class: InstClass::Alu,
        mask: MEM_MASK,
        bits: op_bits(0x08),
        operands: OPS_LOAD,
        syntax: SYN_MEM,
        actions: step_actions! {
            decode: dec_mem_load,
            operand_fetch: generic_operand_fetch,
            evaluate: ev_lda,
            writeback: generic_writeback,
        },
        extra_flows: &[],
    },
    InstDef {
        name: "ldah",
        class: InstClass::Alu,
        mask: MEM_MASK,
        bits: op_bits(0x09),
        operands: OPS_LOAD,
        syntax: SYN_MEM,
        actions: step_actions! {
            decode: dec_mem_load,
            operand_fetch: generic_operand_fetch,
            evaluate: ev_ldah,
            writeback: generic_writeback,
        },
        extra_flows: &[],
    },
    load_inst!("ldbu", 0x0a, mem_ldbu),
    load_inst!("ldwu", 0x0c, mem_ldwu),
    load_inst!("ldl", 0x28, mem_ldl),
    load_inst!("ldq", 0x29, mem_ldq),
    store_inst!("stb", 0x0e, mem_stb),
    store_inst!("stw", 0x0d, mem_stw),
    store_inst!("stl", 0x2c, mem_stl),
    store_inst!("stq", 0x2d, mem_stq),
    // Integer arithmetic (opcode 0x10)
    operate!("addl", 0x10, 0x00, ev_addl),
    operate!("s4addl", 0x10, 0x02, ev_s4addl),
    operate!("subl", 0x10, 0x09, ev_subl),
    operate!("s4subl", 0x10, 0x0b, ev_s4subl),
    operate!("cmpbge", 0x10, 0x0f, ev_cmpbge),
    operate!("s8addl", 0x10, 0x12, ev_s8addl),
    operate!("s8subl", 0x10, 0x1b, ev_s8subl),
    operate!("cmpult", 0x10, 0x1d, ev_cmpult),
    operate!("addq", 0x10, 0x20, ev_addq),
    operate!("s4addq", 0x10, 0x22, ev_s4addq),
    operate!("subq", 0x10, 0x29, ev_subq),
    operate!("s4subq", 0x10, 0x2b, ev_s4subq),
    operate!("cmpeq", 0x10, 0x2d, ev_cmpeq),
    operate!("s8addq", 0x10, 0x32, ev_s8addq),
    operate!("s8subq", 0x10, 0x3b, ev_s8subq),
    operate!("cmpule", 0x10, 0x3d, ev_cmpule),
    operate!("cmplt", 0x10, 0x4d, ev_cmplt),
    operate!("cmple", 0x10, 0x6d, ev_cmple),
    // Logical (opcode 0x11)
    operate!("and", 0x11, 0x00, ev_and),
    operate!("bic", 0x11, 0x08, ev_bic),
    operate!("cmovlbs", 0x11, 0x14, ev_cmovlbs),
    operate!("cmovlbc", 0x11, 0x16, ev_cmovlbc),
    operate!("bis", 0x11, 0x20, ev_bis),
    operate!("cmoveq", 0x11, 0x24, ev_cmoveq),
    operate!("cmovne", 0x11, 0x26, ev_cmovne),
    operate!("ornot", 0x11, 0x28, ev_ornot),
    operate!("xor", 0x11, 0x40, ev_xor),
    operate!("cmovlt", 0x11, 0x44, ev_cmovlt),
    operate!("cmovge", 0x11, 0x46, ev_cmovge),
    operate!("eqv", 0x11, 0x48, ev_eqv),
    operate!("cmovle", 0x11, 0x64, ev_cmovle),
    operate!("cmovgt", 0x11, 0x66, ev_cmovgt),
    // Shift/byte (opcode 0x12)
    operate!("extbl", 0x12, 0x06, ev_extbl),
    operate!("extwl", 0x12, 0x16, ev_extwl),
    operate!("insbl", 0x12, 0x0b, ev_insbl),
    operate!("zap", 0x12, 0x30, ev_zap),
    operate!("zapnot", 0x12, 0x31, ev_zapnot),
    operate!("srl", 0x12, 0x34, ev_srl),
    operate!("sll", 0x12, 0x39, ev_sll),
    operate!("sra", 0x12, 0x3c, ev_sra),
    // Multiply (opcode 0x13)
    operate!("mull", 0x13, 0x00, ev_mull),
    operate!("mulq", 0x13, 0x20, ev_mulq),
    operate!("umulh", 0x13, 0x30, ev_umulh),
    // Jump (opcode 0x1a; jsr/ret share the encoding, hint bits ignored)
    InstDef {
        name: "jmp",
        class: InstClass::Jump,
        mask: MEM_MASK,
        bits: op_bits(0x1a),
        operands: OPS_JMP,
        syntax: SYN_JMP,
        actions: step_actions! {
            decode: dec_jump,
            operand_fetch: generic_operand_fetch,
            evaluate: ev_jmp,
            writeback: generic_writeback,
        },
        extra_flows: &[],
    },
    // Branch format
    InstDef {
        name: "br",
        class: InstClass::Jump,
        mask: MEM_MASK,
        bits: op_bits(0x30),
        operands: OPS_BR,
        syntax: SYN_BR,
        actions: step_actions! {
            decode: dec_br,
            evaluate: ev_br,
            writeback: generic_writeback,
        },
        extra_flows: &[],
    },
    InstDef {
        name: "bsr",
        class: InstClass::Jump,
        mask: MEM_MASK,
        bits: op_bits(0x34),
        operands: OPS_BR,
        syntax: SYN_BSR,
        actions: step_actions! {
            decode: dec_br,
            evaluate: ev_br,
            writeback: generic_writeback,
        },
        extra_flows: &[],
    },
    cbranch_inst!("blbc", 0x38, ev_blbc),
    cbranch_inst!("beq", 0x39, ev_beq),
    cbranch_inst!("blt", 0x3a, ev_blt),
    cbranch_inst!("ble", 0x3b, ev_ble),
    cbranch_inst!("blbs", 0x3c, ev_blbs),
    cbranch_inst!("bne", 0x3d, ev_bne),
    cbranch_inst!("bge", 0x3e, ev_bge),
    cbranch_inst!("bgt", 0x3f, ev_bgt),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn helper_semantics() {
        assert_eq!(sext32(0x8000_0000), 0xffff_ffff_8000_0000);
        assert_eq!(zap_bytes(0x1122_3344_5566_7788, 0x0f), 0x1122_3344_0000_0000);
        // byte0: 2>=1 set; byte1: 1>=2 clear; bytes 2..7: 0>=0 set.
        assert_eq!(cmpbge(0x0102, 0x0201), 0xfd);
    }

    #[test]
    fn cmpbge_per_byte() {
        assert_eq!(cmpbge(0x02, 0x01), 0xff);
        assert_eq!(cmpbge(0x01, 0x02), 0xfe);
    }

    #[test]
    fn instruction_count_is_stable() {
        // 1 pal + 2 lda/ldah + 8 load/store + 43 operate + 1 jump + 2 br + 8 cbr.
        assert_eq!(INSTS.len(), 65);
    }

    #[test]
    fn encodings_do_not_collide() {
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

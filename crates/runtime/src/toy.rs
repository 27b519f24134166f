//! A deliberately tiny ISA description used to test and document the engine.
//!
//! The toy ISA exists so the synthesis engine has a self-contained,
//! dependency-free instruction set for unit tests, doctests, and engine
//! benchmarks. It exercises every instruction class and every step action
//! exactly the way the real descriptions (`lis-isa-*`) do.
//!
//! Encoding (32-bit little-endian words, top byte is the opcode):
//!
//! | op | mnemonic | layout |
//! |----|----------|--------|
//! | 01 | `addi rd, rs, imm16` | `rd[23:20] rs[19:16] imm[15:0]` |
//! | 02 | `add rd, rs, rt` | `rd[23:20] rs[19:16] rt[15:12]` |
//! | 03 | `mul rd, rs, rt` | same as `add` |
//! | 04 | `ld rd, imm16(rs)` | same as `addi` |
//! | 05 | `st rt, imm16(rs)` | `rt[23:20] rs[19:16] imm[15:0]` |
//! | 06 | `beq rs, rt, off16` | `rs[23:20] rt[19:16] off[15:0]` (words) |
//! | 07 | `bne rs, rt, off16` | same |
//! | 08 | `jmp off24` | `off[23:0]` (words, signed) |
//! | 09 | `sys` | number in `r1`, args in `r2`,`r3`, result in `r1` |
//!
//! There are 16 registers; `r15` is the stack pointer.

use lis_core::{
    generic_operand_fetch, generic_writeback, ArchState, Exec, Fault, InstClass, InstDef, IsaSpec,
    OperandDir, OperandSpec, RegBacking, RegClass, RegClassDef, F_ALU_OUT, F_DEST1, F_EFF_ADDR,
    F_IMM, F_MEM_DATA, F_SRC1, F_SRC2, F_SRC3,
};
use lis_mem::Endian;

/// The toy general-purpose register class.
pub const GPR: RegClass = RegClass(0);

fn read_gpr(st: &ArchState, idx: u16) -> u64 {
    st.gpr[idx as usize]
}

fn write_gpr(st: &mut ArchState, idx: u16, val: u64) {
    st.gpr[idx as usize] = val & 0xffff_ffff;
}

const REG_CLASSES: &[RegClassDef] = &[RegClassDef {
    name: "gpr",
    count: 16,
    read: read_gpr,
    write: write_gpr,
    backing: Some(RegBacking::Gpr { special: None, write_mask: 0xffff_ffff }),
}];

#[inline]
fn rd(w: u32) -> u16 {
    ((w >> 20) & 0xf) as u16
}

#[inline]
fn rs(w: u32) -> u16 {
    ((w >> 16) & 0xf) as u16
}

#[inline]
fn rt(w: u32) -> u16 {
    ((w >> 12) & 0xf) as u16
}

#[inline]
fn imm16(w: u32) -> u64 {
    (w & 0xffff) as u16 as i16 as i64 as u64
}

fn dec_rr_imm(ex: &mut Exec<'_>) -> Result<(), Fault> {
    let w = ex.header.instr_bits;
    ex.ops.push_dest(GPR, rd(w));
    ex.ops.push_src(GPR, rs(w));
    ex.set(F_IMM, imm16(w));
    Ok(())
}

fn dec_rrr(ex: &mut Exec<'_>) -> Result<(), Fault> {
    let w = ex.header.instr_bits;
    ex.ops.push_dest(GPR, rd(w));
    ex.ops.push_src(GPR, rs(w));
    ex.ops.push_src(GPR, rt(w));
    Ok(())
}

fn dec_store(ex: &mut Exec<'_>) -> Result<(), Fault> {
    let w = ex.header.instr_bits;
    ex.ops.push_src(GPR, rs(w)); // base
    ex.ops.push_src(GPR, rd(w)); // data (rt field reuses the rd slot)
    ex.set(F_IMM, imm16(w));
    Ok(())
}

fn dec_branch(ex: &mut Exec<'_>) -> Result<(), Fault> {
    let w = ex.header.instr_bits;
    ex.ops.push_src(GPR, rd(w));
    ex.ops.push_src(GPR, rs(w));
    ex.set(F_IMM, imm16(w));
    Ok(())
}

fn dec_jmp(ex: &mut Exec<'_>) -> Result<(), Fault> {
    let w = ex.header.instr_bits;
    let off = ((w & 0x00ff_ffff) << 8) as i32 >> 8; // sign-extend 24 bits
    ex.set(F_IMM, off as i64 as u64);
    Ok(())
}

fn dec_sys(ex: &mut Exec<'_>) -> Result<(), Fault> {
    ex.ops.push_src(GPR, 1);
    ex.ops.push_src(GPR, 2);
    ex.ops.push_src(GPR, 3);
    Ok(())
}

fn ev_addi(ex: &mut Exec<'_>) -> Result<(), Fault> {
    let v = ex.get(F_SRC1).wrapping_add(ex.get(F_IMM)) & 0xffff_ffff;
    ex.set(F_ALU_OUT, v);
    ex.set(F_DEST1, v);
    Ok(())
}

fn ev_add(ex: &mut Exec<'_>) -> Result<(), Fault> {
    let v = ex.get(F_SRC1).wrapping_add(ex.get(F_SRC2)) & 0xffff_ffff;
    ex.set(F_ALU_OUT, v);
    ex.set(F_DEST1, v);
    Ok(())
}

fn ev_mul(ex: &mut Exec<'_>) -> Result<(), Fault> {
    let v = ex.get(F_SRC1).wrapping_mul(ex.get(F_SRC2)) & 0xffff_ffff;
    ex.set(F_ALU_OUT, v);
    ex.set(F_DEST1, v);
    Ok(())
}

fn ev_ea(ex: &mut Exec<'_>) -> Result<(), Fault> {
    let ea = ex.get(F_SRC1).wrapping_add(ex.get(F_IMM)) & 0xffff_ffff;
    ex.set(F_EFF_ADDR, ea);
    Ok(())
}

fn mem_load(ex: &mut Exec<'_>) -> Result<(), Fault> {
    let v = ex.load(ex.get(F_EFF_ADDR), 4, false)?;
    ex.set(F_MEM_DATA, v);
    ex.set(F_DEST1, v);
    Ok(())
}

fn mem_store(ex: &mut Exec<'_>) -> Result<(), Fault> {
    let v = ex.get(F_SRC2);
    ex.set(F_MEM_DATA, v);
    ex.store(ex.get(F_EFF_ADDR), 4, v)
}

fn ev_beq(ex: &mut Exec<'_>) -> Result<(), Fault> {
    if ex.get(F_SRC1) == ex.get(F_SRC2) {
        let t = ex.header.pc.wrapping_add(4).wrapping_add(ex.get(F_IMM) << 2);
        ex.take_branch(t);
    } else {
        ex.branch_not_taken();
    }
    Ok(())
}

fn ev_bne(ex: &mut Exec<'_>) -> Result<(), Fault> {
    if ex.get(F_SRC1) != ex.get(F_SRC2) {
        let t = ex.header.pc.wrapping_add(4).wrapping_add(ex.get(F_IMM) << 2);
        ex.take_branch(t);
    } else {
        ex.branch_not_taken();
    }
    Ok(())
}

fn ev_jmp(ex: &mut Exec<'_>) -> Result<(), Fault> {
    let t = ex.header.pc.wrapping_add(4).wrapping_add(ex.get(F_IMM) << 2);
    ex.take_branch(t);
    Ok(())
}

fn ex_sys(ex: &mut Exec<'_>) -> Result<(), Fault> {
    let ret = ex.syscall(ex.get(F_SRC1), ex.get(F_SRC2), ex.get(F_SRC3))?;
    ex.set(F_DEST1, ret);
    ex.write_reg(GPR.0, 1, ret);
    Ok(())
}

const OP_RD: OperandSpec = OperandSpec { name: "rd", dir: OperandDir::Dest, class: GPR };
const OP_RS: OperandSpec = OperandSpec { name: "rs", dir: OperandDir::Src, class: GPR };
const OP_RT: OperandSpec = OperandSpec { name: "rt", dir: OperandDir::Src, class: GPR };

use lis_core::step_actions as actions;

const INSTS: &[InstDef] = &[
    InstDef {
        name: "addi",
        class: InstClass::Alu,
        mask: 0xff00_0000,
        bits: 0x0100_0000,
        operands: &[OP_RD, OP_RS],
        actions: actions! {
            decode: dec_rr_imm,
            operand_fetch: generic_operand_fetch,
            evaluate: ev_addi,
            writeback: generic_writeback,
        },
        syntax: &[],
        extra_flows: &[],
    },
    InstDef {
        name: "add",
        class: InstClass::Alu,
        mask: 0xff00_0000,
        bits: 0x0200_0000,
        operands: &[OP_RD, OP_RS, OP_RT],
        actions: actions! {
            decode: dec_rrr,
            operand_fetch: generic_operand_fetch,
            evaluate: ev_add,
            writeback: generic_writeback,
        },
        syntax: &[],
        extra_flows: &[],
    },
    InstDef {
        name: "mul",
        class: InstClass::Alu,
        mask: 0xff00_0000,
        bits: 0x0300_0000,
        operands: &[OP_RD, OP_RS, OP_RT],
        actions: actions! {
            decode: dec_rrr,
            operand_fetch: generic_operand_fetch,
            evaluate: ev_mul,
            writeback: generic_writeback,
        },
        syntax: &[],
        extra_flows: &[],
    },
    InstDef {
        name: "ld",
        class: InstClass::Load,
        mask: 0xff00_0000,
        bits: 0x0400_0000,
        operands: &[OP_RD, OP_RS],
        actions: actions! {
            decode: dec_rr_imm,
            operand_fetch: generic_operand_fetch,
            evaluate: ev_ea,
            memory: mem_load,
            writeback: generic_writeback,
        },
        syntax: &[],
        extra_flows: &[],
    },
    InstDef {
        name: "st",
        class: InstClass::Store,
        mask: 0xff00_0000,
        bits: 0x0500_0000,
        operands: &[OP_RT, OP_RS],
        actions: actions! {
            decode: dec_store,
            operand_fetch: generic_operand_fetch,
            evaluate: ev_ea,
            memory: mem_store,
        },
        syntax: &[],
        extra_flows: &[],
    },
    InstDef {
        name: "beq",
        class: InstClass::Branch,
        mask: 0xff00_0000,
        bits: 0x0600_0000,
        operands: &[OP_RS, OP_RT],
        actions: actions! {
            decode: dec_branch,
            operand_fetch: generic_operand_fetch,
            evaluate: ev_beq,
        },
        syntax: &[],
        extra_flows: &[],
    },
    InstDef {
        name: "bne",
        class: InstClass::Branch,
        mask: 0xff00_0000,
        bits: 0x0700_0000,
        operands: &[OP_RS, OP_RT],
        actions: actions! {
            decode: dec_branch,
            operand_fetch: generic_operand_fetch,
            evaluate: ev_bne,
        },
        syntax: &[],
        extra_flows: &[],
    },
    InstDef {
        name: "jmp",
        class: InstClass::Jump,
        mask: 0xff00_0000,
        bits: 0x0800_0000,
        operands: &[],
        actions: actions! {
            decode: dec_jmp,
            evaluate: ev_jmp,
        },
        syntax: &[],
        extra_flows: &[],
    },
    InstDef {
        name: "sys",
        class: InstClass::Syscall,
        mask: 0xff00_0000,
        bits: 0x0900_0000,
        operands: &[],
        actions: actions! {
            decode: dec_sys,
            operand_fetch: generic_operand_fetch,
            exception: ex_sys,
        },
        syntax: &[],
        extra_flows: &[],
    },
];

fn disasm(word: u32, _pc: u64) -> String {
    match word >> 24 {
        0x01 => format!("addi r{}, r{}, {}", rd(word), rs(word), imm16(word) as i64),
        0x02 => format!("add r{}, r{}, r{}", rd(word), rs(word), rt(word)),
        0x03 => format!("mul r{}, r{}, r{}", rd(word), rs(word), rt(word)),
        0x04 => format!("ld r{}, {}(r{})", rd(word), imm16(word) as i64, rs(word)),
        0x05 => format!("st r{}, {}(r{})", rd(word), imm16(word) as i64, rs(word)),
        0x06 => format!("beq r{}, r{}, {}", rd(word), rs(word), imm16(word) as i64),
        0x07 => format!("bne r{}, r{}, {}", rd(word), rs(word), imm16(word) as i64),
        0x08 => format!("jmp {}", ((word & 0xff_ffff) << 8) as i32 >> 8),
        0x09 => "sys".to_string(),
        _ => format!(".word {word:#010x}"),
    }
}

static SPEC: IsaSpec = IsaSpec {
    name: "toy",
    word_bits: 32,
    endian: Endian::Little,
    insts: INSTS,
    reg_classes: REG_CLASSES,
    isa_fields: &[],
    disasm,
    pc_mask: u32::MAX as u64,
    sp_gpr: 15,
};

/// The toy ISA specification.
pub fn spec() -> &'static IsaSpec {
    &SPEC
}

/// Encodes `addi rd, rs, imm`.
pub fn addi(rd: u8, rs: u8, imm: i16) -> u32 {
    0x0100_0000 | enc_ri(rd, rs, imm)
}

/// Encodes `add rd, rs, rt`.
pub fn add(rd: u8, rs: u8, rt: u8) -> u32 {
    0x0200_0000 | enc_rrr(rd, rs, rt)
}

/// Encodes `mul rd, rs, rt`.
pub fn mul(rd: u8, rs: u8, rt: u8) -> u32 {
    0x0300_0000 | enc_rrr(rd, rs, rt)
}

/// Encodes `ld rd, imm(rs)`.
pub fn ld(rd: u8, rs: u8, imm: i16) -> u32 {
    0x0400_0000 | enc_ri(rd, rs, imm)
}

/// Encodes `st rt, imm(rs)`.
pub fn st(rt: u8, rs: u8, imm: i16) -> u32 {
    0x0500_0000 | enc_ri(rt, rs, imm)
}

/// Encodes `beq rs, rt, off` (offset in words from the next instruction).
pub fn beq(rs: u8, rt: u8, off: i16) -> u32 {
    0x0600_0000 | enc_ri(rs, rt, off)
}

/// Encodes `bne rs, rt, off`.
pub fn bne(rs: u8, rt: u8, off: i16) -> u32 {
    0x0700_0000 | enc_ri(rs, rt, off)
}

/// Encodes `jmp off` (offset in words from the next instruction).
pub fn jmp(off: i32) -> u32 {
    0x0800_0000 | ((off as u32) & 0x00ff_ffff)
}

/// Encodes `sys`.
pub fn sys() -> u32 {
    0x0900_0000
}

fn enc_ri(a: u8, b: u8, imm: i16) -> u32 {
    ((a as u32 & 0xf) << 20) | ((b as u32 & 0xf) << 16) | (imm as u16 as u32)
}

fn enc_rrr(a: u8, b: u8, c: u8) -> u32 {
    ((a as u32 & 0xf) << 20) | ((b as u32 & 0xf) << 16) | ((c as u32 & 0xf) << 12)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_is_valid() {
        spec().validate().unwrap();
        assert_eq!(spec().num_insts(), 9);
    }

    #[test]
    fn encoders_decode_back() {
        let s = spec();
        assert_eq!(s.inst(s.decode(addi(1, 2, -5)).unwrap()).name, "addi");
        assert_eq!(s.inst(s.decode(st(3, 15, 8)).unwrap()).name, "st");
        assert_eq!(s.inst(s.decode(sys()).unwrap()).name, "sys");
        assert_eq!(s.decode(0xaa00_0000), None);
    }

    #[test]
    fn disasm_round_trip_mentions_regs() {
        assert_eq!(disasm(addi(1, 2, -5), 0), "addi r1, r2, -5");
        assert_eq!(disasm(jmp(-3), 0), "jmp -3");
    }
}

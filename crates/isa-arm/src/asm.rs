//! The ARM assembler — encodings derived from the instruction table.
//!
//! Classic (pre-UAL) syntax: `add r0, r1, r2, lsl #3`, `ldrbeq r0, [r1, #4]!`,
//! `str r2, [r3], #8`, `bl label`, `swi 0`. Condition suffixes follow the
//! base mnemonic, then `s` (data processing) — e.g. `addeqs`, `ldrne`,
//! `ldrbne`. `ldr rd, label` assembles a PC-relative literal load. Every
//! real instruction encodes by the syntax its [`INSTS`] entry declares; this
//! file holds only the custom operands (the shifter, the two addressing
//! modes, and the `mov`/`mvn` destination) and the `nop` pseudo-instruction.

use crate::regs::{parse_reg, reg_name};
use crate::semantics::{
    ADDR, ADDR_H, COND, H_IMM_BIT, IMM8, INSTS, I_BIT, MOVE_RD, OFF12, OFF_HI, OFF_LO, P_BIT, RD,
    RM, RN, ROTATE, RS, SHIFTER, SHIFT_BY_REG, SHIFT_IMM, SHIFT_KIND, U_BIT, W_BIT,
};
use lis_asm::{EncodeCtx, IsaAssembler, Operand, Reg, Table};
use lis_mem::Endian;

/// The ARM [`IsaAssembler`].
#[derive(Debug, Default, Clone, Copy)]
pub struct ArmAsm;

fn reg(op: &Operand<'_>, what: &str) -> Result<u32, String> {
    op.reg().map(u32::from).ok_or_else(|| format!("expected register for {what}"))
}

/// Encodes a data-processing immediate: finds a rotation such that
/// `imm8 ror (2*rot) == val`.
fn encode_imm(val: u32) -> Option<u32> {
    for rot in 0..16u32 {
        let v = val.rotate_left(rot * 2);
        if v <= IMM8.max() {
            return Some(ROTATE.put(rot) | IMM8.put(v));
        }
    }
    None
}

/// Encodes the register-form shifter tail: `rm [, shift]`.
fn encode_reg_shift(
    rm: &Operand<'_>,
    shift: Option<&Operand<'_>>,
    ctx: &EncodeCtx<'_>,
) -> Result<u32, String> {
    let rm = RM.put(reg(rm, "rm")?);
    let Some(shift) = shift else { return Ok(rm) };
    let &Operand::Shift { kind, arg } = shift else {
        return Err("expected a shift specifier (`lsl #n`, ...)".into());
    };
    let kind = u32::from(kind);
    match ctx.items(arg) {
        [Operand::Imm(n)] => {
            // `lsr #32` and `asr #32` are architectural and encode as 0.
            let n = if *n == 32 && (kind == 1 || kind == 2) { 0 } else { *n };
            if !(0..=31).contains(&n) {
                return Err(format!("shift amount {n} out of range"));
            }
            Ok(SHIFT_IMM.put(n as u32) | SHIFT_KIND.put(kind) | rm)
        }
        [rs @ Operand::Reg(_)] => {
            let rs = u32::from(rs.reg().ok_or("bad shift register")?);
            Ok(RS.put(rs) | SHIFT_KIND.put(kind) | SHIFT_BY_REG.put(1) | rm)
        }
        _ => Err("shift argument must be an immediate or register".into()),
    }
}

/// Encodes the full shifter operand (operands after rd/rn).
fn encode_shifter(ops: &[Operand<'_>], ctx: &EncodeCtx<'_>) -> Result<u32, String> {
    match ops {
        [Operand::Imm(v)] => {
            let enc = encode_imm(*v as u32)
                .ok_or_else(|| format!("immediate {v:#x} not encodable as imm8 ror n"))?;
            Ok(I_BIT.put(1) | enc)
        }
        [rm] => encode_reg_shift(rm, None, ctx),
        [rm, sh] => encode_reg_shift(rm, Some(sh), ctx),
        _ => Err("bad shifter operand".into()),
    }
}

/// Encodes the addressing mode of a word/byte (`halfword` false) or
/// halfword/signed transfer: every bit but the opcode, `L` and `rd`.
fn encode_addr(ops: &[Operand<'_>], ctx: &EncodeCtx<'_>, halfword: bool) -> Result<u32, String> {
    // The offset form: a register offset on word/byte transfers, an
    // immediate one on halfword transfers.
    let (imm_form, reg_form) = if halfword { (H_IMM_BIT.put(1), 0) } else { (0, I_BIT.put(1)) };
    let imm = |off: i64| -> Result<u32, String> {
        let (u, mag) = if off < 0 { (0, off.unsigned_abs()) } else { (1, off as u64) };
        let limit = if halfword { IMM8.max() } else { OFF12.max() };
        if mag > u64::from(limit) {
            return Err(format!("offset {off} out of range"));
        }
        let mag = mag as u32;
        let bits = if halfword { OFF_HI.put(mag >> 4) | OFF_LO.put(mag) } else { OFF12.put(mag) };
        Ok(U_BIT.put(u) | imm_form | bits)
    };
    let base = |op: &Operand<'_>| reg(op, "base register").map(|rn| RN.put(rn));
    match ops {
        // ldr rd, label  ->  pc-relative
        [Operand::Imm(target)] => {
            Ok(P_BIT.put(1) | RN.put(15) | imm(target.wrapping_sub(ctx.addr as i64 + 8))?)
        }
        [Operand::Mem { items, writeback }] => {
            let pre = P_BIT.put(1) | W_BIT.put(u32::from(*writeback));
            match ctx.items(*items) {
                [rn] => Ok(pre | base(rn)? | imm(0)?),
                [rn, Operand::Imm(off)] => Ok(pre | base(rn)? | imm(*off)?),
                [rn, rm] if halfword => Ok(pre | U_BIT.put(1) | base(rn)? | RM.put(reg(rm, "rm")?)),
                [_, _, _] if halfword => Err("halfword transfers take no shift".into()),
                [rn, rm, shift @ ..] if !halfword && shift.len() <= 1 => {
                    let off = encode_reg_shift(rm, shift.first(), ctx)?;
                    Ok(pre | reg_form | U_BIT.put(1) | base(rn)? | off)
                }
                _ => Err("bad addressing mode".into()),
            }
        }
        // post-indexed: ldr rd, [rn], #off  or  [rn], rm
        [Operand::Mem { items, writeback: false }, post] if items.len() == 1 => {
            let rn = base(&ctx.items(*items)[0])?;
            match post {
                Operand::Imm(off) => Ok(rn | imm(*off)?),
                Operand::Reg(_) => Ok(reg_form | U_BIT.put(1) | rn | RM.put(reg(post, "rm")?)),
                _ => Err("bad post-index operand".into()),
            }
        }
        _ => Err("bad addressing mode".into()),
    }
}

impl IsaAssembler for ArmAsm {
    fn name(&self) -> &'static str {
        "arm"
    }

    fn endian(&self) -> Endian {
        Endian::Little
    }

    fn table(&self) -> &'static Table {
        static TABLE: Table = Table::new(INSTS);
        &TABLE
    }

    fn reg(&self, name: &str) -> Option<u16> {
        parse_reg(name)
    }

    fn reg_name(&self, n: u16) -> String {
        reg_name(n)
    }

    fn encode_pseudo(
        &self,
        mn: &str,
        ops: &[Operand<'_>],
        ctx: &EncodeCtx<'_>,
    ) -> Result<u32, String> {
        // nop{cond} is mov{cond} r0, r0.
        let cond = mn.strip_prefix("nop").ok_or_else(|| format!("unknown mnemonic `{mn}`"))?;
        if !COND.spellings().any(|(s, _)| s == cond) {
            return Err(format!("unknown mnemonic `{mn}`"));
        }
        if !ops.is_empty() {
            return Err("`nop` takes no operands".into());
        }
        // `mov` and the condition, spelled in place of `nop`'s.
        let mut buf = [0; 8];
        let spelled = &mut buf[..mn.len()];
        spelled.copy_from_slice(mn.as_bytes());
        spelled[..3].copy_from_slice(b"mov");
        let mov = std::str::from_utf8(spelled).expect("a condition spelling is ASCII");
        let r0 = Operand::Reg(Reg { name: "r0", num: 0, other: false });
        self.encode(mov, &[r0, r0], ctx)
    }

    fn encode_custom(
        &self,
        kind: u8,
        ops: &[Operand<'_>],
        ctx: &EncodeCtx<'_>,
    ) -> Result<(u32, usize), String> {
        let bits = match kind {
            SHIFTER => encode_shifter(ops, ctx)?,
            ADDR | ADDR_H => encode_addr(ops, ctx, kind == ADDR_H)?,
            MOVE_RD => {
                let rd = reg(ops.first().ok_or("missing destination register")?, "rd")?;
                if rd == 15 {
                    return Err(
                        "writing pc with data processing is not supported in this subset".into()
                    );
                }
                return Ok((RD.put(rd), 1));
            }
            _ => unreachable!("ARM declares no custom slot {kind}"),
        };
        Ok((bits, ops.len()))
    }

    fn print_custom(&self, kind: u8, word: u32, line: &mut lis_asm::Line) {
        crate::disasm::print_custom(kind, word, line);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lis_asm::assemble;

    fn enc(line: &str) -> u32 {
        let img = assemble(&ArmAsm, line).unwrap();
        u32::from_le_bytes(img.sections[0].bytes[0..4].try_into().unwrap())
    }

    /// Splits a mnemonic into `(base, cond, s_flag)` the way the encoder
    /// reads it.
    fn split_mnemonic(mn: &str) -> Option<(&'static str, u32, bool)> {
        let (def, bits) = ArmAsm.table().lookup(mn)?;
        Some((def.name, COND.field.get(bits), bits & 0x0010_0000 != 0))
    }

    #[test]
    fn mnemonic_splitting() {
        assert_eq!(split_mnemonic("add"), Some(("add", 0xe, false)));
        assert_eq!(split_mnemonic("addeq"), Some(("add", 0x0, false)));
        assert_eq!(split_mnemonic("addeqs"), Some(("add", 0x0, true)));
        assert_eq!(split_mnemonic("adds"), Some(("add", 0xe, true)));
        assert_eq!(split_mnemonic("bls"), Some(("b", 0x9, false)));
        assert_eq!(split_mnemonic("bl"), Some(("bl", 0xe, false)));
        assert_eq!(split_mnemonic("ldrneb"), None); // type suffix precedes cond
        assert_eq!(split_mnemonic("ldrbne"), Some(("ldrb", 0x1, false)));
        assert_eq!(split_mnemonic("zzz"), None);
    }

    #[test]
    fn dp_encodings() {
        let w = enc("add r0, r1, r2");
        assert_eq!(w, 0xe081_0002);
        let w = enc("addeqs r0, r1, #1");
        assert_eq!(w, 0x0291_0001);
        let w = enc("mov r3, r4, lsl #2");
        assert_eq!(w, 0xe1a0_3104);
        let w = enc("mov r3, r4, lsl r5");
        assert_eq!(w, 0xe1a0_3514);
        let w = enc("cmp r1, #255");
        assert_eq!(w, 0xe351_00ff);
    }

    #[test]
    fn imm_rotation() {
        assert_eq!(encode_imm(0xff), Some(0xff));
        // 0x101 spans nine bits and no even rotation fits it into eight.
        assert_eq!(encode_imm(0x101), None);
        // Every encodable value round-trips through the hardware decoding.
        for val in [0x0002_0000u32, 0x104, 0xff00_0000, 0x3fc] {
            let e = encode_imm(val).unwrap();
            let rot = (e >> 8) * 2;
            assert_eq!((e & 0xff).rotate_right(rot), val);
        }
        assert!(assemble(&ArmAsm, "mov r0, #0x101").is_err());
    }

    #[test]
    fn mem_encodings() {
        assert_eq!(enc("ldr r0, [r1]"), 0xe591_0000);
        assert_eq!(enc("ldr r0, [r1, #4]"), 0xe591_0004);
        assert_eq!(enc("ldr r0, [r1, #-4]!"), 0xe531_0004);
        assert_eq!(enc("str r0, [r1], #8"), 0xe481_0008);
        assert_eq!(enc("ldr r0, [r1, r2]"), 0xe791_0002);
        assert_eq!(enc("ldr r0, [r1, r2, lsl #2]"), 0xe791_0102);
        assert_eq!(enc("ldrb r0, [r1]"), 0xe5d1_0000);
        // pc-relative literal: the word right after the load sits at
        // pc + 8 - 4, so the offset is -4.
        let w = enc("ldr r0, x\nx: .word 123");
        assert_eq!((w >> 16) & 0xf, 15);
        assert_eq!(w & 0x0080_0000, 0, "offset is negative");
        assert_eq!(w & 0xfff, 4);
    }

    #[test]
    fn halfword_encodings() {
        assert_eq!(enc("ldrh r0, [r1, #6]"), 0xe1d1_00b6);
        assert_eq!(enc("strh r0, [r1]"), 0xe1c1_00b0);
        assert_eq!(enc("ldrsb r0, [r1, #1]"), 0xe1d1_00d1);
        assert_eq!(enc("ldrsh r0, [r1, r2]"), 0xe191_00f2);
    }

    #[test]
    fn branches_and_misc() {
        // b to self: offset -8 -> words -2.
        assert_eq!(enc("x: b x"), 0xeaff_fffe);
        assert_eq!(enc("x: blne x"), 0x1bff_fffe);
        assert_eq!(enc("bx lr"), 0xe12f_ff1e);
        assert_eq!(enc("swi 7"), 0xef00_0007);
        assert_eq!(enc("mul r1, r2, r3"), 0xe001_0392);
        assert_eq!(enc("mla r1, r2, r3, r4"), 0xe021_4392);
        assert_eq!(enc("clz r1, r2"), 0xe16f_1f12);
    }

    #[test]
    fn pc_write_rejected() {
        assert!(assemble(&ArmAsm, "mov pc, lr").is_err());
    }
}

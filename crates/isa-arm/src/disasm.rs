//! The ARM disassembler — each word printed by the syntax its
//! instruction-table entry declares. This file prints the custom operands:
//! the shifter, the two addressing modes, and the `mov`/`mvn` destination.

use crate::asm::ArmAsm;
use crate::regs::reg_name;
use crate::semantics::{
    ADDR, ADDR_H, H_IMM_BIT, IMM8, I_BIT, MOVE_RD, OFF12, OFF_HI, OFF_LO, P_BIT, RD, RM, RN,
    ROTATE, RS, SHIFTER, SHIFT_BY_REG, SHIFT_IMM, SHIFT_KIND, U_BIT, W_BIT,
};
use lis_asm::Line;
use lis_core::Field;

fn reg(f: Field, word: u32) -> String {
    reg_name(f.get(word) as u16)
}

/// The register form of the shifter: `rm`, `rm, <shift> #n` or `rm, <shift> rs`.
fn reg_shift(word: u32) -> String {
    let rm = reg(RM, word);
    let kind = lis_asm::SHIFTS[SHIFT_KIND.get(word) as usize];
    if SHIFT_BY_REG.get(word) != 0 {
        format!("{rm}, {kind} {}", reg(RS, word))
    } else {
        let amount = SHIFT_IMM.get(word);
        if amount == 0 && kind == "lsl" {
            rm
        } else {
            format!("{rm}, {kind} #{amount}")
        }
    }
}

/// Prints ARM's custom operand slot `kind` of `word` into `line`.
pub(crate) fn print_custom(kind: u8, word: u32, line: &mut Line) {
    match kind {
        SHIFTER if I_BIT.get(word) != 0 => {
            let rot = ROTATE.get(word) * 2;
            line.operands.push(format!("#{}", IMM8.get(word).rotate_right(rot)));
        }
        SHIFTER => line.operands.push(reg_shift(word)),
        MOVE_RD => line.operands.push(reg(RD, word)),
        ADDR | ADDR_H => {
            let (off, imm) = if kind == ADDR_H {
                let imm8 = OFF_HI.get(word) << 4 | OFF_LO.get(word);
                if H_IMM_BIT.get(word) != 0 {
                    (format!("#{imm8}"), imm8)
                } else {
                    (reg(RM, word), 1)
                }
            } else if I_BIT.get(word) != 0 {
                (reg_shift(word), OFF12.get(word))
            } else {
                (format!("#{}", OFF12.get(word)), OFF12.get(word))
            };
            // A zero offset prints unsigned whichever way it is applied.
            let minus = if U_BIT.get(word) != 0 || imm == 0 { "" } else { "-" };
            let off = match off.strip_prefix('#') {
                Some(n) => format!("#{minus}{n}"),
                None => format!("{minus}{off}"),
            };
            let rn = reg(RN, word);
            if P_BIT.get(word) != 0 {
                let wb = if W_BIT.get(word) != 0 { "!" } else { "" };
                line.operands.push(format!("[{rn}, {off}]{wb}"));
            } else {
                line.operands.push(format!("[{rn}]"));
                line.operands.push(off);
            }
        }
        _ => unreachable!("ARM declares no custom slot {kind}"),
    }
}

/// Renders one instruction word as assembly.
pub fn disasm(word: u32, pc: u64) -> String {
    lis_asm::syntax::disasm(&ArmAsm, word, pc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lis_asm::assemble;

    fn round(line: &str) -> String {
        let img = assemble(&ArmAsm, line).unwrap();
        let w = u32::from_le_bytes(img.sections[0].bytes[0..4].try_into().unwrap());
        disasm(w, 0x1000)
    }

    #[test]
    fn round_trips() {
        assert_eq!(round("add r0, r1, r2"), "add r0, r1, r2");
        assert_eq!(round("addeqs r0, r1, #1"), "addeqs r0, r1, #1");
        assert_eq!(round("mov r3, r4, lsl #2"), "mov r3, r4, lsl #2");
        assert_eq!(round("cmp r1, #255"), "cmp r1, #255");
        assert_eq!(round("ldr r0, [r1, #4]"), "ldr r0, [r1, #4]");
        assert_eq!(round("str r0, [r1], #8"), "str r0, [r1], #8");
        assert_eq!(round("ldrh r0, [r1, #6]"), "ldrh r0, [r1, #6]");
        assert_eq!(round("x: b x"), "b 0x1000");
        assert_eq!(round("bx lr"), "bx lr");
        assert_eq!(round("swi 3"), "swi 3");
        assert_eq!(round("mul r1, r2, r3"), "mul r1, r2, r3");
    }
}

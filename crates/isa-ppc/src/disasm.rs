//! The PowerPC disassembler — each word printed by the syntax its
//! instruction-table entry declares. This file prints the custom operands:
//! the CR field and the SPR number.

use crate::asm::PpcAsm;
use crate::regs::SPRS;
use crate::semantics::{CRF, CR_FIELD, SPR, SPR_HI, SPR_LO};
use lis_asm::Line;

/// Prints PowerPC's custom operand slot `kind` of `word` into `line`.
pub(crate) fn print_custom(kind: u8, word: u32, line: &mut Line) {
    match kind {
        CR_FIELD => line.operands.push(format!("cr{}", CRF.get(word))),
        SPR => {
            let n = SPR_LO.get(word) | SPR_HI.get(word) << SPR_LO.width;
            match SPRS.iter().find(|spr| u32::from(spr.1) == n) {
                Some(spr) => line.mnemonic = line.mnemonic.replace("spr", spr.0),
                None => line.operands.push(n.to_string()),
            }
        }
        _ => unreachable!("PowerPC declares no custom slot {kind}"),
    }
}

/// Renders one instruction word as assembly.
pub fn disasm(word: u32, pc: u64) -> String {
    lis_asm::syntax::disasm(&PpcAsm, word, pc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lis_asm::assemble;

    fn round(line: &str) -> String {
        let img = assemble(&PpcAsm, line).unwrap();
        let w = u32::from_be_bytes(img.sections[0].bytes[0..4].try_into().unwrap());
        disasm(w, 0x1000)
    }

    #[test]
    fn round_trips() {
        assert_eq!(round("addi r3, r1, 8"), "addi r3, r1, 8");
        assert_eq!(round("add r3, r4, r5"), "add r3, r4, r5");
        assert_eq!(round("add. r3, r4, r5"), "add. r3, r4, r5");
        assert_eq!(round("or r3, r4, r5"), "or r3, r4, r5");
        assert_eq!(round("rlwinm r5, r6, 3, 0, 28"), "rlwinm r5, r6, 3, 0, 28");
        assert_eq!(round("lwz r4, 12(r1)"), "lwz r4, 12(r1)");
        assert_eq!(round("stwx r3, r4, r5"), "stwx r3, r4, r5");
        assert_eq!(round("x: b x"), "b 0x1000");
        assert_eq!(round("x: bdnz x"), "bc 16, 0, 0x1000");
        assert_eq!(round("blr"), "bclr 20, 0");
        assert_eq!(round("mflr r0"), "mflr r0");
        assert_eq!(round("sc"), "sc");
        assert_eq!(round("cmpwi cr1, r3, 5"), "cmpwi cr1, r3, 5");
        assert_eq!(disasm(0x0000_0000, 0), ".word 0x00000000");
    }
}

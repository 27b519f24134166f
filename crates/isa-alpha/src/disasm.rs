//! The Alpha disassembler — each word printed by the syntax its
//! instruction-table entry declares.

use crate::asm::AlphaAsm;

/// Renders one instruction word as assembly (for traces and debugging).
pub fn disasm(word: u32, pc: u64) -> String {
    lis_asm::syntax::disasm(&AlphaAsm, word, pc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lis_asm::assemble;

    fn round(line: &str) -> String {
        let img = assemble(&AlphaAsm, line).unwrap();
        let w = u32::from_le_bytes(img.sections[0].bytes[0..4].try_into().unwrap());
        disasm(w, 0x1000)
    }

    #[test]
    fn round_trips() {
        assert_eq!(round("addq r1, r2, r3"), "addq r1, r2, r3");
        assert_eq!(round("addq r1, 99, r3"), "addq r1, 99, r3");
        assert_eq!(round("ldq r5, -8(r30)"), "ldq r5, -8(r30)");
        assert_eq!(round("x: beq r1, x"), "beq r1, 0x1000");
        assert_eq!(round("callsys"), "callsys");
        assert_eq!(round("ret"), "jmp r31, (r26)");
        assert_eq!(disasm(0x1c00_0000, 0), ".word 0x1c000000");
    }
}

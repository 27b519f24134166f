//! The Alpha assembler — encodings derived from the instruction table.
//!
//! Syntax follows the Alpha convention: `addq r1, r2, r3` (the middle
//! operand may be a 0..255 literal), `ldq r1, 8(r2)`, `beq r1, label`,
//! `br label`, `bsr ra, label`, `jmp (r2)`, `ret`. Every real instruction
//! encodes by the syntax its [`INSTS`] entry declares; the
//! pseudo-instructions `nop`, `unop`, `mov`, `clr`, `negq`, `jsr` and `ret`
//! expand onto real instructions by name.

use crate::regs::{parse_reg, reg_name};
use crate::semantics::INSTS;
use lis_asm::{EncodeCtx, IsaAssembler, Operand, Reg, Table};
use lis_mem::Endian;

/// The Alpha [`IsaAssembler`].
#[derive(Debug, Default, Clone, Copy)]
pub struct AlphaAsm;

/// The register that reads as zero.
const ZERO: Operand<'static> = Operand::Reg(Reg { name: "r31", num: 31, other: false });
/// The return-address register.
const RA: Operand<'static> = Operand::Reg(Reg { name: "r26", num: 26, other: false });

impl IsaAssembler for AlphaAsm {
    fn name(&self) -> &'static str {
        "alpha"
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
        let real = |name: &str, ops: &[Operand<'_>]| self.encode(name, ops, ctx);
        match (mn, ops) {
            ("nop" | "unop", []) => real("bis", &[ZERO, ZERO, ZERO]),
            ("clr", [rc]) => real("bis", &[ZERO, ZERO, *rc]),
            // bis's literal when the value fits it, else lda's displacement.
            ("mov", [src, rc]) => real("bis", &[ZERO, *src, *rc]).or_else(|e| {
                let Operand::Imm(v) = src else { return Err(e) };
                real("lda", &[*rc, Operand::Imm(*v)])
                    .map_err(|_| "mov immediate out of range (use lda/ldah)".into())
            }),
            ("negq", [rb, rc]) => real("subq", &[ZERO, *rb, *rc]),
            // ret [ra,] [(rb)] — defaults ra=r31, rb=r26.
            ("ret", []) => real("jmp", &[ZERO, RA]),
            ("ret", [rb]) => real("jmp", &[ZERO, *rb]),
            // jsr [ra,] (rb) — default ra=r26.
            ("jsr", [rb]) => real("jmp", &[RA, *rb]),
            ("ret" | "jsr", [_, _]) => real("jmp", ops),
            ("nop" | "unop" | "clr" | "mov" | "negq" | "ret" | "jsr", _) => {
                Err(format!("wrong number of operands for `{mn}`"))
            }
            _ => Err(format!("unknown mnemonic `{mn}`")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lis_asm::assemble;

    fn enc(line: &str) -> u32 {
        let img = assemble(&AlphaAsm, line).unwrap();
        u32::from_le_bytes(img.sections[0].bytes[0..4].try_into().unwrap())
    }

    #[test]
    fn operate_register_and_literal() {
        let w = enc("addq r1, r2, r3");
        assert_eq!(w >> 26, 0x10);
        assert_eq!((w >> 21) & 31, 1);
        assert_eq!((w >> 16) & 31, 2);
        assert_eq!(w & 31, 3);
        assert_eq!(w & 0x1000, 0);
        let w = enc("addq r1, 200, r3");
        assert_eq!(w & 0x1000, 0x1000);
        assert_eq!((w >> 13) & 0xff, 200);
    }

    #[test]
    fn memory_and_branches() {
        let w = enc("ldq r5, -8(sp)");
        assert_eq!(w >> 26, 0x29);
        assert_eq!((w >> 21) & 31, 5);
        assert_eq!((w >> 16) & 31, 30);
        assert_eq!(w & 0xffff, 0xfff8);
        // Backwards branch to self: disp = -1.
        let w = enc("x: beq r1, x");
        assert_eq!(w >> 26, 0x39);
        assert_eq!(w & 0x1f_ffff, 0x1f_ffff);
    }

    #[test]
    fn jumps_and_pseudos() {
        let w = enc("ret");
        assert_eq!(w >> 26, 0x1a);
        assert_eq!((w >> 21) & 31, 31);
        assert_eq!((w >> 16) & 31, 26);
        let w = enc("jsr (r27)");
        assert_eq!((w >> 21) & 31, 26);
        assert_eq!((w >> 16) & 31, 27);
        let w = enc("nop");
        assert_eq!(w >> 26, 0x11);
        let w = enc("mov 7, r4");
        assert_eq!(w >> 26, 0x11); // bis with literal
        let w = enc("mov 5000, r4");
        assert_eq!(w >> 26, 0x08); // lda
        let w = enc("clr r9");
        assert_eq!(w & 31, 9);
    }

    #[test]
    fn errors_are_reported() {
        assert!(assemble(&AlphaAsm, "addq r1, 300, r3").is_err());
        assert!(assemble(&AlphaAsm, "ldq r1, 99999(r2)").is_err());
        assert!(assemble(&AlphaAsm, "frobnicate r1").is_err());
        assert!(assemble(&AlphaAsm, "addq r1, r2").is_err());
    }
}

//! The PowerPC assembler — encodings derived from the instruction table.
//!
//! Standard syntax: `addi r3, r1, 8`, `lwz r4, 12(r1)`, `stwu r1, -16(r1)`,
//! `bc 16, 0, loop`, `bdnz loop`, `beq cr1, out`, `rlwinm r5, r6, 3, 0, 28`,
//! `mfspr r3, 8`. Record forms take the trailing dot (`add. r3, r4, r5`),
//! link forms the trailing `l` (`bl`, `bcl`, `bclrl`). Compares take an
//! optional CR field (`cmpw cr1, r3, r4`). Every real instruction encodes by
//! the syntax its [`INSTS`] entry declares; the usual pseudo-instructions
//! expand onto real instructions by name: `li`, `lis`, `la`, `subi`, `mr`,
//! `not`, `slwi`/`srwi`, `nop`, `blr`/`blrl`, `bctr`/`bctrl`, `bdnz`, `bdz`,
//! `beq`/`bne`/`blt`/`ble`/`bgt`/`bge`/`bso`/`bns`, and
//! `mflr`/`mtlr`/`mfctr`/`mtctr`/`mfxer`/`mtxer`.

use crate::regs::{parse_crf, parse_reg, reg_name, SPRS};
use crate::semantics::{CRF, CR_FIELD, INSTS, SPR, SPR_HI, SPR_LO};
use lis_asm::{EncodeCtx, IsaAssembler, Line, Operand, Reg, Table};
use lis_mem::Endian;

/// The PowerPC [`IsaAssembler`].
#[derive(Debug, Default, Clone, Copy)]
pub struct PpcAsm;

/// `beq`-family condition encodings: `(BO, BI-within-field)`.
const COND_BRANCHES: &[(&str, i64, i64)] = &[
    ("blt", 12, 0),
    ("bgt", 12, 1),
    ("beq", 12, 2),
    ("bso", 12, 3),
    ("bge", 4, 0),
    ("ble", 4, 1),
    ("bne", 4, 2),
    ("bns", 4, 3),
];

/// The CR field `op` names, if it names one.
fn cr_field(op: &Operand<'_>) -> Option<u16> {
    match op {
        Operand::Reg(r) if r.other => Some(r.num),
        _ => None,
    }
}

/// The number of the SPR `name` names (`lr`, `ctr`, `xer`).
fn spr_named(name: &str) -> Option<i64> {
    SPRS.iter().find(|spr| spr.0 == name).map(|spr| i64::from(spr.1))
}

impl IsaAssembler for PpcAsm {
    fn name(&self) -> &'static str {
        "ppc"
    }

    fn endian(&self) -> Endian {
        Endian::Big
    }

    fn table(&self) -> &'static Table {
        static TABLE: Table = Table::new(INSTS);
        &TABLE
    }

    fn reg(&self, name: &str) -> Option<u16> {
        parse_reg(name)
    }

    fn other_reg(&self, name: &str) -> Option<u16> {
        parse_crf(name)
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
        let r0 = Operand::Reg(Reg { name: "r0", num: 0, other: false });
        let imm = Operand::Imm;
        let wrong = || Err(format!("wrong number of operands for `{mn}`"));
        let unknown = || Err(format!("unknown mnemonic `{mn}`"));

        // Pseudo-instructions that keep the record form.
        let (base, dot) = mn.strip_suffix('.').map_or((mn, false), |b| (b, true));
        let record = |plain, dotted| if dot { dotted } else { plain };
        match (base, ops) {
            ("mr", [ra, rs]) => return real(record("or", "or."), &[*ra, *rs, *rs]),
            ("not", [ra, rs]) => return real(record("nor", "nor."), &[*ra, *rs, *rs]),
            ("slwi" | "srwi", [ra, rs, n]) => {
                let n = &n.imm().ok_or("expected a shift amount")?;
                if !(0..32).contains(n) {
                    return Err(format!("shift {n} out of range 0..32"));
                }
                let (sh, mb, me) = if base == "slwi" { (*n, 0, 31 - n) } else { (32 - n, *n, 31) };
                let ops = [*ra, *rs, imm(sh % 32), imm(mb), imm(me)];
                return real(record("rlwinm", "rlwinm."), &ops);
            }
            ("mr" | "not" | "slwi" | "srwi", _) => return wrong(),
            _ if dot => return unknown(),
            _ => {}
        }

        // Condition-branch pseudos: beq [crf,] target (and friends).
        if let Some(&(_, bo, bit)) = COND_BRANCHES.iter().find(|(n, _, _)| *n == mn) {
            let (crf, target) = match ops {
                [target] => (0, target),
                [crf, target] => (cr_field(crf).ok_or("expected a CR field (cr0..cr7)")?, target),
                _ => return wrong(),
            };
            return real("bc", &[imm(bo), imm(i64::from(crf) * 4 + bit), *target]);
        }

        match (mn, ops) {
            ("nop", []) => real("ori", &[r0, r0, imm(0)]),
            ("li", [rd, v]) => real("addi", &[*rd, r0, *v]),
            ("lis", [rd, v]) => real("addis", &[*rd, r0, *v]),
            ("la", [rd, Operand::BaseDisp { disp, base }]) => {
                real("addi", &[*rd, Operand::Reg(*base), imm(*disp)])
            }
            ("subi", [rd, ra, Operand::Imm(v)]) => real("addi", &[*rd, *ra, imm(v.wrapping_neg())]),
            ("blr", []) => real("bclr", &[imm(20), imm(0)]),
            ("blrl", []) => real("bclrl", &[imm(20), imm(0)]),
            ("bctr", []) => real("bcctr", &[imm(20), imm(0)]),
            ("bctrl", []) => real("bcctrl", &[imm(20), imm(0)]),
            ("bdnz", [target]) => real("bc", &[imm(16), imm(0), *target]),
            ("bdz", [target]) => real("bc", &[imm(18), imm(0), *target]),
            ("mflr" | "mfctr" | "mfxer", [rd]) => {
                real("mfspr", &[*rd, imm(spr_named(&mn[2..]).unwrap_or_default())])
            }
            ("mtlr" | "mtctr" | "mtxer", [rs]) => {
                real("mtspr", &[imm(spr_named(&mn[2..]).unwrap_or_default()), *rs])
            }
            (
                "nop" | "li" | "lis" | "la" | "subi" | "blr" | "blrl" | "bctr" | "bctrl" | "bdnz"
                | "bdz" | "mflr" | "mfctr" | "mfxer" | "mtlr" | "mtctr" | "mtxer",
                _,
            ) => wrong(),
            _ => unknown(),
        }
    }

    fn encode_custom(
        &self,
        kind: u8,
        ops: &[Operand<'_>],
        _ctx: &EncodeCtx<'_>,
    ) -> Result<(u32, usize), String> {
        match (kind, ops.first()) {
            (CR_FIELD, op) => match op.and_then(cr_field) {
                Some(crf) => Ok((CRF.put(u32::from(crf)), 1)),
                None => Ok((0, 0)),
            },
            (SPR, Some(Operand::Imm(n))) if (0..1024).contains(n) => {
                let n = *n as u32;
                Ok((SPR_LO.put(n) | SPR_HI.put(n >> SPR_LO.width), 1))
            }
            (SPR, _) => Err("expected an SPR number (0..1024)".into()),
            _ => unreachable!("PowerPC declares no custom slot {kind}"),
        }
    }

    fn print_custom(&self, kind: u8, word: u32, line: &mut Line) {
        crate::disasm::print_custom(kind, word, line);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lis_asm::assemble;

    fn enc(line: &str) -> u32 {
        let img = assemble(&PpcAsm, line).unwrap();
        u32::from_be_bytes(img.sections[0].bytes[0..4].try_into().unwrap())
    }

    #[test]
    fn d_form_arith() {
        // addi r3, r1, 8 -> 0x38610008
        assert_eq!(enc("addi r3, r1, 8"), 0x3861_0008);
        assert_eq!(enc("li r5, -1"), 0x38a0_ffff);
        assert_eq!(enc("lis r4, 0x1234"), 0x3c80_1234);
        assert_eq!(enc("subi r3, r3, 4"), 0x3863_fffc);
    }

    #[test]
    fn xo_and_logical() {
        // add r3, r4, r5 -> 0x7c642a14
        assert_eq!(enc("add r3, r4, r5"), 0x7c64_2a14);
        assert_eq!(enc("add. r3, r4, r5"), 0x7c64_2a15);
        // or r3, r4, r5: rs=r4 in rd slot -> 0x7c832b78
        assert_eq!(enc("or r3, r4, r5"), 0x7c83_2b78);
        assert_eq!(enc("mr r7, r8"), 0x7d07_4378);
        assert_eq!(enc("srawi r3, r4, 2"), 0x7c83_1670);
    }

    #[test]
    fn rotates() {
        // rlwinm r5, r6, 3, 0, 28 -> 0x54c51838
        assert_eq!(enc("rlwinm r5, r6, 3, 0, 28"), 0x54c5_1838);
        assert_eq!(enc("slwi r5, r6, 3"), enc("rlwinm r5, r6, 3, 0, 28"));
        assert_eq!(enc("srwi r5, r6, 3"), enc("rlwinm r5, r6, 29, 3, 31"));
    }

    #[test]
    fn memory() {
        // lwz r4, 12(r1) -> 0x8081000c
        assert_eq!(enc("lwz r4, 12(r1)"), 0x8081_000c);
        assert_eq!(enc("stwu r1, -16(r1)"), 0x9421_fff0);
        assert_eq!(enc("lwzx r3, r4, r5"), 0x7c64_282e);
        assert!(assemble(&PpcAsm, "lwzu r4, 4(r0)").is_err());
    }

    #[test]
    fn branches() {
        // b to self: offset 0
        assert_eq!(enc("x: b x"), 0x4800_0000);
        assert_eq!(enc("x: bl x"), 0x4800_0001);
        // bdnz to self: bc 16,0 off 0 -> 0x42000000
        assert_eq!(enc("x: bdnz x"), 0x4200_0000);
        // beq cr0 to self: bc 12,2 -> 0x41820000
        assert_eq!(enc("x: beq x"), 0x4182_0000);
        assert_eq!(enc("x: bne cr1, x"), 0x4086_0000);
        assert_eq!(enc("blr"), 0x4e80_0020);
        assert_eq!(enc("bctr"), 0x4e80_0420);
    }

    #[test]
    fn spr_moves_and_sc() {
        assert_eq!(enc("mflr r0"), 0x7c08_02a6);
        assert_eq!(enc("mtlr r0"), 0x7c08_03a6);
        assert_eq!(enc("mtctr r9"), 0x7d29_03a6);
        assert_eq!(enc("sc"), 0x4400_0002);
        assert_eq!(enc("mfcr r3"), 0x7c60_0026);
    }

    #[test]
    fn compares() {
        // cmpwi r3, 0 -> 0x2c030000
        assert_eq!(enc("cmpwi r3, 0"), 0x2c03_0000);
        assert_eq!(enc("cmpwi cr1, r3, 5"), 0x2c83_0005);
        assert_eq!(enc("cmpw r3, r4"), 0x7c03_2000);
        assert_eq!(enc("cmplwi r3, 10"), 0x2803_000a);
    }

    #[test]
    fn errors() {
        assert!(assemble(&PpcAsm, "addi r1, r2, 99999").is_err());
        assert!(assemble(&PpcAsm, "frob r1").is_err());
        assert!(assemble(&PpcAsm, "adde. r1, r2, r3").is_err());
        assert!(assemble(&PpcAsm, "rlwinm r1, r2, 40, 0, 31").is_err());
    }
}

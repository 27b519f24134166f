//! # lis-isa-alpha — single specification of the Alpha instruction set
//!
//! A user-mode, integer-only subset of the Alpha architecture (the first of
//! the three ISAs evaluated in the paper): 61 instructions covering the
//! operate (arithmetic, logical, shift, multiply, conditional move), memory
//! (including the BWX byte/word extension), branch, jump, and PALcode
//! (`callsys`) formats. `r31` reads as zero; floating point and kernel mode
//! are excluded, as in the paper's evaluation.
//!
//! Everything — simulators at every interface detail level, the assembler,
//! and the disassembler — derives from the one instruction table in
//! [`semantics`]: the single-specification principle.
//!
//! System calls use the LIS OS ABI: number in `v0` (r0), arguments in
//! `a0`/`a1` (r16/r17), result in `v0`, invoked by `callsys`.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod asm;
pub mod disasm;
pub mod regs;
pub mod semantics;

use lis_core::{count_lines, IsaSpec, SpecStats};
use lis_mem::Endian;

pub use asm::AlphaAsm;

/// The Alpha ISA specification.
static SPEC: IsaSpec = IsaSpec {
    name: "alpha",
    word_bits: 64,
    endian: Endian::Little,
    insts: semantics::INSTS,
    reg_classes: regs::REG_CLASSES,
    isa_fields: &[],
    disasm: disasm::disasm,
    pc_mask: !3,
    sp_gpr: 30,
};

/// Returns the Alpha ISA specification.
pub fn spec() -> &'static IsaSpec {
    &SPEC
}

/// Assembles Alpha source into a loadable image.
///
/// # Errors
///
/// Returns the first assembly error with its line number.
///
/// # Examples
///
/// ```
/// let image = lis_isa_alpha::assemble("_start: addq r1, r2, r3\n")?;
/// assert_eq!(image.entry, 0x1000);
/// # Ok::<(), lis_asm::AsmError>(())
/// ```
pub fn assemble(src: &str) -> Result<lis_mem::Image, lis_asm::AsmError> {
    lis_asm::assemble(&AlphaAsm, src)
}

/// Mechanical Table I statistics for the Alpha description.
pub fn spec_stats() -> SpecStats {
    let isa = count_lines(include_str!("semantics.rs")).add(count_lines(include_str!("regs.rs")));
    let tooling = count_lines(include_str!("asm.rs")).add(count_lines(include_str!("disasm.rs")));
    SpecStats {
        isa: "alpha",
        isa_description_lines: isa.code,
        os_support_lines: 0, // the OS convention lives inside the description
        tooling_lines: tooling.code,
        num_instructions: semantics::INSTS.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_validates() {
        spec().validate().unwrap();
    }

    #[test]
    fn pc_mask_keeps_alignment() {
        assert_eq!(0x1003u64 & spec().pc_mask, 0x1000);
    }

    #[test]
    fn stats_are_plausible() {
        let s = spec_stats();
        assert_eq!(s.num_instructions, 65);
        assert!(s.isa_description_lines > 300);
        // The tooling is derived from the description, so it is the smaller.
        assert!(s.tooling_lines > 0 && s.tooling_lines < s.isa_description_lines);
    }
}

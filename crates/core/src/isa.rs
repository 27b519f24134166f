//! The complete ISA specification object.

use crate::field::{FieldDesc, COMMON_FIELDS};
use crate::inst::InstDef;
use crate::operand::RegClassDef;
use lis_mem::Endian;
use std::fmt;

/// A complete single specification of an instruction set.
///
/// One static `IsaSpec` per ISA holds everything the toolkit knows about it:
/// every instruction definition, every register class and its accessors,
/// every declared field, and the byte-level conventions needed to fetch and
/// print instructions. All interfaces, assemblers, and simulators are
/// derived from this object.
#[derive(Clone, Copy)]
pub struct IsaSpec {
    /// ISA name (`alpha`, `arm`, `ppc`).
    pub name: &'static str,
    /// Architectural word width in bits (32 or 64).
    pub word_bits: u8,
    /// Byte order of data and instruction accesses.
    pub endian: Endian,
    /// Every instruction definition.
    pub insts: &'static [InstDef],
    /// Register classes and their accessors.
    pub reg_classes: &'static [RegClassDef],
    /// ISA-specific field descriptors (common fields are implicit).
    pub isa_fields: &'static [FieldDesc],
    /// Renders one instruction word as assembly for traces and debugging.
    pub disasm: fn(u32, u64) -> String,
    /// Mask applied to every PC value (truncates to 32 bits on 32-bit ISAs).
    pub pc_mask: u64,
    /// GPR index holding the stack pointer, for program loaders.
    pub sp_gpr: u8,
}

impl IsaSpec {
    /// Finds the instruction matching `word` by linear scan.
    ///
    /// The runtime builds an indexed decode table on top of this; the linear
    /// scan is the reference implementation and the fallback.
    pub fn decode(&self, word: u32) -> Option<u16> {
        self.insts.iter().position(|d| d.matches(word)).map(|i| i as u16)
    }

    /// The instruction definition at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range (indices come from
    /// [`IsaSpec::decode`] and are trusted).
    #[inline]
    pub fn inst(&self, index: u16) -> &InstDef {
        &self.insts[index as usize]
    }

    /// Number of instructions in the description.
    pub fn num_insts(&self) -> usize {
        self.insts.len()
    }

    /// All field descriptors: common fields followed by ISA-specific ones.
    pub fn all_fields(&self) -> impl Iterator<Item = &FieldDesc> {
        COMMON_FIELDS.iter().chain(self.isa_fields)
    }

    /// Architectural word mask (`u32::MAX` as u64 for 32-bit ISAs).
    #[inline]
    pub const fn word_mask(&self) -> u64 {
        if self.word_bits == 64 {
            u64::MAX
        } else {
            u32::MAX as u64
        }
    }

    /// Checks internal consistency of the description; called by ISA crate
    /// tests. Verifies encodings are self-consistent and unambiguous and
    /// that the description fits the engine's structural limits.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first problem found.
    pub fn validate(&self) -> Result<(), String> {
        if self.insts.is_empty() {
            return Err("no instructions defined".into());
        }
        if self.insts.len() > u16::MAX as usize {
            return Err("too many instructions".into());
        }
        for (i, d) in self.insts.iter().enumerate() {
            if d.bits & !d.mask != 0 {
                return Err(format!("{}: match bits outside mask", d.name));
            }
            // Earlier definitions take priority, so a *later* definition
            // that can never match (shadowed by an earlier, more general
            // one) is a specification error.
            for e in &self.insts[..i] {
                let shared = d.mask & e.mask;
                if d.bits & shared == e.bits & shared && e.mask & !d.mask == 0 {
                    return Err(format!("{}: unreachable, shadowed by {}", d.name, e.name));
                }
            }
        }
        for d in self.isa_fields {
            if (d.id.0 as usize) < COMMON_FIELDS.len() {
                return Err(format!("ISA field {} overlaps common fields", d.name));
            }
        }
        for c in self.reg_classes {
            c.validate_backing()?;
        }
        Ok(())
    }
}

impl fmt::Debug for IsaSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("IsaSpec")
            .field("name", &self.name)
            .field("word_bits", &self.word_bits)
            .field("endian", &self.endian)
            .field("num_insts", &self.insts.len())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::{InstClass, StepActions};

    fn dis(_w: u32, _pc: u64) -> String {
        String::new()
    }

    const INSTS: &[InstDef] = &[
        InstDef {
            name: "a",
            class: InstClass::Alu,
            mask: 0xff00_0000,
            bits: 0x0100_0000,
            operands: &[],
            actions: StepActions {
                decode: None,
                operand_fetch: None,
                evaluate: None,
                memory: None,
                writeback: None,
                exception: None,
            },
            syntax: &[],
            extra_flows: &[],
        },
        InstDef {
            name: "b",
            class: InstClass::Alu,
            mask: 0xff00_0000,
            bits: 0x0200_0000,
            operands: &[],
            actions: StepActions {
                decode: None,
                operand_fetch: None,
                evaluate: None,
                memory: None,
                writeback: None,
                exception: None,
            },
            syntax: &[],
            extra_flows: &[],
        },
    ];

    fn spec() -> IsaSpec {
        IsaSpec {
            name: "test",
            word_bits: 32,
            endian: Endian::Little,
            insts: INSTS,
            reg_classes: &[],
            isa_fields: &[],
            disasm: dis,
            pc_mask: u32::MAX as u64,
            sp_gpr: 30,
        }
    }

    #[test]
    fn decode_finds_first_match() {
        let s = spec();
        assert_eq!(s.decode(0x0100_0042), Some(0));
        assert_eq!(s.decode(0x0200_0000), Some(1));
        assert_eq!(s.decode(0x0300_0000), None);
    }

    #[test]
    fn validate_accepts_good_spec() {
        assert!(spec().validate().is_ok());
    }

    #[test]
    fn validate_rejects_shadowed_encoding() {
        static SHADOWED: &[InstDef] = &[
            InstDef {
                name: "wide",
                class: InstClass::Alu,
                mask: 0xf000_0000,
                bits: 0x1000_0000,
                operands: &[],
                actions: StepActions {
                    decode: None,
                    operand_fetch: None,
                    evaluate: None,
                    memory: None,
                    writeback: None,
                    exception: None,
                },
                syntax: &[],
                extra_flows: &[],
            },
            InstDef {
                name: "narrow",
                class: InstClass::Alu,
                mask: 0xff00_0000,
                bits: 0x1200_0000,
                operands: &[],
                actions: StepActions {
                    decode: None,
                    operand_fetch: None,
                    evaluate: None,
                    memory: None,
                    writeback: None,
                    exception: None,
                },
                syntax: &[],
                extra_flows: &[],
            },
        ];
        let mut s = spec();
        s.insts = SHADOWED;
        let err = s.validate().unwrap_err();
        assert!(err.contains("narrow"), "{err}");
    }

    #[test]
    fn word_mask_by_width() {
        let mut s = spec();
        assert_eq!(s.word_mask(), u32::MAX as u64);
        s.word_bits = 64;
        assert_eq!(s.word_mask(), u64::MAX);
    }
}

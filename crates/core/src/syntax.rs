//! Operand syntax: how an instruction's fields read and print as assembly.
//!
//! Each [`InstDef`](crate::InstDef) carries its assembly syntax as a list of
//! [`Slot`]s, declared once next to the instruction table. A slot names the
//! bit field it fills and the form it takes in source text: a mnemonic
//! suffix, a register, an immediate, a displacement with a base register, or
//! a PC-relative target. The assembler encodes by these slots and the
//! disassembler prints by them, so neither restates an encoding.

/// A bit field of a 32-bit instruction word: `width` bits starting at `lo`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Field {
    /// Lowest bit.
    pub lo: u8,
    /// Width in bits (1..=32).
    pub width: u8,
}

impl Field {
    /// The field of `width` bits starting at bit `lo`.
    pub const fn new(lo: u8, width: u8) -> Field {
        Field { lo, width }
    }

    /// The largest value the field holds.
    pub const fn max(self) -> u32 {
        (((1u64) << self.width) - 1) as u32
    }

    /// The field's bits within a word.
    pub const fn mask(self) -> u32 {
        self.max() << self.lo
    }

    /// The field's value in `word`, zero-extended.
    pub const fn get(self, word: u32) -> u32 {
        (word >> self.lo) & self.max()
    }

    /// The field's value in `word`, sign-extended.
    pub const fn sext(self, word: u32) -> i64 {
        let shift = 32 - self.width as u32;
        ((self.get(word) << shift) as i32 >> shift) as i64
    }

    /// `value`'s low `width` bits placed in the field.
    pub const fn put(self, value: u32) -> u32 {
        (value & self.max()) << self.lo
    }
}

/// A mnemonic suffix: one field spelled as letters after the name, as in
/// ARM's condition (`addeq`) and `s` bit (`adds`), or PowerPC's record
/// (`add.`) and link (`bl`) bits.
///
/// A suffix takes part in an instruction's syntax only while its field lies
/// outside the instruction's encoding mask: `cmp` always sets ARM's `s` bit,
/// so `cmps` is not a mnemonic and `cmp` prints without it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Suffix {
    /// The field the suffix sets.
    pub field: Field,
    /// The spelling of each field value, indexed by value. The value spelled
    /// `""` is the one an absent suffix selects.
    pub names: &'static [&'static str],
    /// Further spellings the assembler accepts, with their values.
    pub aliases: &'static [(&'static str, u32)],
    /// Bit `v` set: value `v` prints but does not assemble.
    pub print_only: u32,
}

impl Suffix {
    /// Every spelling the assembler accepts, `""` (no suffix) included, with
    /// its value.
    pub fn spellings(&self) -> impl Iterator<Item = (&'static str, u32)> + '_ {
        let named = self.names.iter().enumerate().map(|(v, n)| (*n, v as u32));
        named.chain(self.aliases.iter().copied()).filter(|&(_, v)| self.print_only & (1 << v) == 0)
    }

    /// The spelling of `value` (`"?"` for a value with no name).
    pub fn name(&self, value: u32) -> &'static str {
        self.names.get(value as usize).copied().unwrap_or("?")
    }
}

/// One slot of an instruction's assembly syntax. Suffix slots come first,
/// in the order they follow the name; operand slots follow in source order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Slot {
    /// A mnemonic suffix.
    Suffix(&'static Suffix),
    /// A register.
    Reg(Field),
    /// A register operand that may be left out, and the register number it
    /// then stands for. It is present when more operands remain than the
    /// slots after it require (Alpha's `br label` is `br r31, label`).
    OptReg(Field, u8),
    /// A register in parentheses: `(rb)`.
    Indirect(Field),
    /// A signed immediate.
    SImm(Field),
    /// An unsigned immediate.
    UImm(Field),
    /// A high-half immediate: written signed or unsigned, printed signed.
    HImm(Field),
    /// A register, or an unsigned literal with the `flag` bit set.
    RegOrLit {
        /// The register field.
        reg: Field,
        /// The literal field.
        lit: Field,
        /// The one-bit field that selects the literal.
        flag: Field,
    },
    /// `disp(base)`; a bare address means `disp(r<zero>)`. `update` forms
    /// write the address back to the base, which must then not be `zero`.
    Disp {
        /// The signed displacement field.
        disp: Field,
        /// The base register field.
        base: Field,
        /// The base register a bare address uses.
        zero: u8,
        /// Whether the base register is written back.
        update: bool,
    },
    /// A code address: `pc + bias + (disp << scale)`, where `disp` is the
    /// sign-extended field. With the `absolute` bit set in the word the
    /// address is `disp << scale` alone.
    Target {
        /// The signed displacement field.
        field: Field,
        /// Left shift applied to the displacement.
        scale: u8,
        /// Distance from the instruction's address to the displacement's origin.
        bias: u8,
        /// The bit that makes the target absolute (0 if none).
        absolute: u32,
    },
    /// An operand only its ISA's assembler and disassembler know, numbered
    /// by that ISA.
    Custom(u8),
}

impl Slot {
    /// Whether this slot is an operand the source text must supply (suffixes
    /// and optional registers are not; custom operands count as required).
    pub const fn required(self) -> bool {
        !matches!(self, Slot::Suffix(_) | Slot::OptReg(..))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn field_round_trips() {
        let f = Field::new(5, 7);
        assert_eq!(f.max(), 0x7f);
        assert_eq!(f.mask(), 0x7f << 5);
        assert_eq!(f.get(f.put(0x55)), 0x55);
        assert_eq!(Field::new(0, 21).sext(0x1f_ffff), -1);
        assert_eq!(Field::new(0, 32).max(), u32::MAX);
    }

    const COND: Suffix = Suffix {
        field: Field::new(28, 4),
        names: &["eq", "ne", "", "nv"],
        aliases: &[("al", 2)],
        print_only: 1 << 3,
    };

    #[test]
    fn suffix_spells_names_and_aliases() {
        let spelled: Vec<_> = COND.spellings().collect();
        assert_eq!(spelled, [("eq", 0), ("ne", 1), ("", 2), ("al", 2)], "nv is print-only");
        assert_eq!(COND.name(3), "nv");
        assert_eq!(COND.name(9), "?");
    }
}

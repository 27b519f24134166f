//! Syntax-driven encoding and printing.
//!
//! Every instruction's [`InstDef`] carries its assembly syntax as a list of
//! [`Slot`]s. [`encode`] looks the instruction up by name, starts from its
//! fixed `bits`, and places each operand by its slot; [`disasm`] matches a
//! word to its `InstDef` and prints it by the same slots. The only operands
//! an ISA encodes and prints itself are its [`Slot::Custom`] ones, through
//! [`IsaAssembler::encode_custom`] and [`IsaAssembler::print_custom`].

use crate::{EncodeCtx, IsaAssembler, Operand, Reg};
use lis_core::{Field, InstDef, Slot, Suffix};
use std::sync::OnceLock;

/// An instruction table, with an index of every mnemonic it spells built
/// on first use.
#[derive(Debug)]
pub struct Table {
    insts: &'static [InstDef],
    /// Every spelling of every entry with its suffixes, hashed.
    mnemonics: OnceLock<Index>,
}

/// `(mnemonic key, entry, suffix bits)` slots of an open-addressed hash
/// table, a power of two at least four times the spellings in size.
type Index = Vec<Option<(u64, &'static InstDef, u32)>>;

/// The home slot of `key` in an index of `len` slots.
fn home(key: u64, len: usize) -> usize {
    (key.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> (64 - len.trailing_zeros())) as usize
}

/// A mnemonic of at most eight bytes packed into one integer: the index key.
fn key(mnemonic: &str) -> Option<u64> {
    let bytes = mnemonic.as_bytes();
    (bytes.len() <= 8).then(|| bytes.iter().rev().fold(0, |key, &b| key << 8 | u64::from(b)))
}

/// Every spelling of `def`'s mnemonic, each suffix present or left out, with
/// the bits its suffixes set.
fn spellings(def: &InstDef) -> Vec<(String, u32)> {
    let mut forms = vec![(def.name.to_string(), 0)];
    for sfx in def.syntax.iter().filter_map(|slot| active_suffix(def, slot)) {
        forms = (forms.iter())
            .flat_map(|(text, bits)| {
                sfx.spellings().map(move |(s, v)| (format!("{text}{s}"), bits | sfx.field.put(v)))
            })
            .collect();
    }
    forms
}

impl Table {
    /// The table over `insts`.
    pub const fn new(insts: &'static [InstDef]) -> Table {
        Table { insts, mnemonics: OnceLock::new() }
    }

    /// The instructions, in decode-priority order.
    pub fn insts(&self) -> &'static [InstDef] {
        self.insts
    }

    /// The instruction `mnemonic` names, with the bits its suffixes spell
    /// (`addeqs` is `add` with the `eq` condition and the `s` bit).
    ///
    /// # Panics
    ///
    /// Panics on first use if a spelling is longer than eight bytes or names
    /// two instructions.
    #[inline]
    pub fn lookup(&self, mnemonic: &str) -> Option<(&'static InstDef, u32)> {
        let index = self.mnemonics.get_or_init(|| {
            let entries: Vec<_> = (self.insts.iter())
                .flat_map(|def| spellings(def).into_iter().map(move |(s, bits)| (s, def, bits)))
                .collect();
            let mut index: Index = vec![None; (entries.len() * 4).next_power_of_two()];
            for (spelling, def, bits) in entries {
                let key = key(&spelling).expect("mnemonics fit in eight bytes");
                let mut i = home(key, index.len());
                while let Some((other, ..)) = index[i] {
                    assert!(other != key, "`{spelling}` names two instructions");
                    i = (i + 1) % index.len();
                }
                index[i] = Some((key, def, bits));
            }
            index
        });
        let key = key(mnemonic)?;
        let mut i = home(key, index.len());
        loop {
            match index[i] {
                Some((k, def, bits)) if k == key => return Some((def, bits)),
                Some(_) => i = (i + 1) % index.len(),
                None => return None,
            }
        }
    }
}

/// One instruction being printed: its mnemonic, suffixes included, and its
/// operands in source order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Line {
    /// The mnemonic with its suffixes.
    pub mnemonic: String,
    /// The operands, each already formatted.
    pub operands: Vec<String>,
}

impl Line {
    fn render(self) -> String {
        if self.operands.is_empty() {
            self.mnemonic
        } else {
            format!("{} {}", self.mnemonic, self.operands.join(", "))
        }
    }
}

/// Whether `slot` is a suffix `def` spells: one whose field lies outside the
/// encoding mask.
fn active_suffix(def: &InstDef, slot: &Slot) -> Option<&'static Suffix> {
    match slot {
        Slot::Suffix(s) if s.field.mask() & def.mask == 0 => Some(s),
        _ => None,
    }
}

fn reg(op: &Operand<'_>) -> Result<u32, String> {
    match op {
        Operand::Reg(r) => slot_reg(r),
        _ => Err("expected a register".into()),
    }
}

/// The number of `r`, which the parser resolved, if a register slot takes it.
fn slot_reg(r: &Reg<'_>) -> Result<u32, String> {
    if r.other {
        Err(format!("`{}` is not a register here", r.name.to_ascii_lowercase()))
    } else {
        Ok(u32::from(r.num))
    }
}

fn imm(op: &Operand<'_>) -> Result<i64, String> {
    op.imm().ok_or_else(|| "expected an immediate".into())
}

/// `v` as a signed value of `f`'s width, placed.
fn signed(f: Field, v: i64) -> Result<u32, String> {
    let half = 1i64 << (f.width - 1);
    if !(-half..half).contains(&v) {
        return Err(format!("{v} out of range for a signed {}-bit field", f.width));
    }
    Ok(f.put(v as u32))
}

/// `v` as an unsigned value of `f`'s width, placed.
fn unsigned(f: Field, v: i64) -> Result<u32, String> {
    if !(0..=i64::from(f.max())).contains(&v) {
        return Err(format!("{v} out of range for an unsigned {}-bit field", f.width));
    }
    Ok(f.put(v as u32))
}

/// Encodes one operand by a slot that takes exactly one operand.
fn place(slot: Slot, op: &Operand<'_>, ctx: &EncodeCtx<'_>) -> Result<u32, String> {
    match slot {
        Slot::Reg(f) => Ok(f.put(reg(op)?)),
        Slot::Indirect(f) => match op {
            Operand::BaseDisp { disp: 0, base } | Operand::Reg(base) => Ok(f.put(slot_reg(base)?)),
            _ => Err("expected `(reg)`".into()),
        },
        Slot::SImm(f) => signed(f, imm(op)?),
        Slot::UImm(f) => unsigned(f, imm(op)?),
        Slot::HImm(f) => match imm(op)? {
            v if v >= 0 => unsigned(f, v),
            v => signed(f, v),
        },
        Slot::RegOrLit { reg: r, lit, flag } => match op {
            Operand::Reg(_) => Ok(r.put(reg(op)?)),
            Operand::Imm(v) => Ok(unsigned(lit, *v)? | flag.put(1)),
            _ => Err("expected a register or a literal".into()),
        },
        Slot::Disp { disp, base, zero, update } => {
            let (d, b) = match op {
                Operand::BaseDisp { disp, base } => (*disp, slot_reg(base)?),
                Operand::Imm(addr) => (*addr, u32::from(zero)),
                _ => return Err("expected `disp(base)` or an absolute address".into()),
            };
            if update && b == u32::from(zero) {
                return Err(format!("an update form cannot use base register {zero}"));
            }
            Ok(signed(disp, d)? | base.put(b))
        }
        Slot::Target { field, scale, bias, .. } => {
            let target = op.imm().ok_or("expected a target address")?;
            let off = target.wrapping_sub(ctx.addr as i64 + i64::from(bias));
            if off & ((1 << scale) - 1) != 0 {
                return Err("branch target is not aligned".into());
            }
            signed(field, off >> scale).map_err(|_| format!("branch offset {off} out of range"))
        }
        Slot::Suffix(_) | Slot::OptReg(..) | Slot::Custom(_) => unreachable!("placed by encode"),
    }
}

/// Encodes `ops` as instruction `def`, whose mnemonic spelled the suffix
/// bits `suffixes` ([`Table::lookup`]), by its syntax.
///
/// # Errors
///
/// A missing or extra operand, or an operand its slot cannot hold.
pub fn encode<A: IsaAssembler + ?Sized>(
    isa: &A,
    (def, suffixes): (&InstDef, u32),
    ops: &[Operand<'_>],
    ctx: &EncodeCtx<'_>,
) -> Result<u32, String> {
    let mut word = def.bits | suffixes;
    let mut rest = ops;
    for (i, &slot) in def.syntax.iter().enumerate() {
        match slot {
            Slot::Suffix(_) => {}
            Slot::Custom(kind) => {
                let (bits, used) = isa.encode_custom(kind, rest, ctx)?;
                word |= bits;
                rest = &rest[used..];
            }
            Slot::OptReg(f, default) => {
                let needed = def.syntax[i + 1..].iter().filter(|s| s.required()).count();
                let n = match rest {
                    [op, tail @ ..] if rest.len() > needed => {
                        rest = tail;
                        reg(op)?
                    }
                    _ => u32::from(default),
                };
                word |= f.put(n);
            }
            slot => {
                let [op, tail @ ..] = rest else {
                    return Err(format!("`{}` is missing an operand", def.name));
                };
                word |= place(slot, op, ctx)?;
                rest = tail;
            }
        }
    }
    if !rest.is_empty() {
        return Err(format!("too many operands for `{}`", def.name));
    }
    Ok(word)
}

/// Prints `word`, fetched from `pc`, by the syntax of the first instruction
/// it matches (`.word` when it matches none).
pub fn disasm<A: IsaAssembler + ?Sized>(isa: &A, word: u32, pc: u64) -> String {
    let Some(def) = isa.table().insts().iter().find(|d| d.matches(word)) else {
        return format!(".word {word:#010x}");
    };
    let mut line = Line { mnemonic: def.name.to_string(), operands: Vec::new() };
    let reg = |f: Field| isa.reg_name(f.get(word) as u16);
    for slot in def.syntax {
        let text = match *slot {
            Slot::Suffix(_) => {
                if let Some(sfx) = active_suffix(def, slot) {
                    line.mnemonic.push_str(sfx.name(sfx.field.get(word)));
                }
                continue;
            }
            Slot::Custom(kind) => {
                isa.print_custom(kind, word, &mut line);
                continue;
            }
            Slot::Reg(f) | Slot::OptReg(f, _) => reg(f),
            Slot::Indirect(f) => format!("({})", reg(f)),
            Slot::SImm(f) | Slot::HImm(f) => f.sext(word).to_string(),
            Slot::UImm(f) => f.get(word).to_string(),
            Slot::RegOrLit { reg: r, lit, flag } => {
                if flag.get(word) != 0 {
                    lit.get(word).to_string()
                } else {
                    reg(r)
                }
            }
            Slot::Disp { disp, base, .. } => format!("{}({})", disp.sext(word), reg(base)),
            Slot::Target { field, scale, bias, absolute } => {
                let off = (field.sext(word) << scale) as u64;
                let target = if word & absolute != 0 {
                    off
                } else {
                    pc.wrapping_add(u64::from(bias)).wrapping_add(off)
                };
                format!("{target:#x}")
            }
        };
        line.operands.push(text);
    }
    line.render()
}

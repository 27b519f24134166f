//! # lis-asm — a two-pass assembler framework
//!
//! The LIS workloads are written in each ISA's own assembly language;
//! this crate provides the machinery shared by all three assemblers:
//! lexing, labels, directives, constant expressions, section management,
//! and the two-pass symbol resolution. Each ISA crate supplies an
//! [`IsaAssembler`] that knows its register names, its instruction table,
//! and its pseudo-instructions; [`syntax`] encodes and prints every real
//! instruction from the syntax its `InstDef` declares.
//!
//! Supported directives: `.text`, `.data`, `.org`, `.align`, `.word`,
//! `.half`, `.byte`, `.ascii`, `.asciz`, `.space`, `.equ`, `.global`.
//!
//! The output is an [`lis_mem::Image`] loadable by the simulators.
//! The entry point is the `_start` label when present, otherwise the start
//! of `.text`.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod error;
mod expr;
mod parse;
pub mod syntax;

pub use error::AsmError;
pub use expr::{eval, SymTab};
pub use parse::{parse_lines, parse_operand, parse_string, split_operands, Body, Operand, Stmt};
pub use syntax::{Line, Table};

use lis_mem::{Endian, Image, Section};

/// Default load address of `.text`.
pub const TEXT_BASE: u64 = 0x1000;
/// Default load address of `.data`.
pub const DATA_BASE: u64 = 0x2_0000;

/// Context handed to per-ISA encoders.
#[derive(Debug)]
pub struct EncodeCtx<'a> {
    /// Address of the instruction being encoded.
    pub addr: u64,
    /// The complete symbol table (pass 2).
    pub syms: &'a SymTab,
}

/// The per-ISA half of an assembler: register names, the instruction table,
/// pseudo-instructions, and the ISA's custom operand slots.
pub trait IsaAssembler {
    /// ISA name for diagnostics.
    fn name(&self) -> &'static str;

    /// Byte order for emitted words.
    fn endian(&self) -> Endian;

    /// Whether `name` (already lower-cased) is a register.
    fn is_reg(&self, name: &str) -> bool {
        self.reg(name).is_some()
    }

    /// Encodes one instruction: one the [table](IsaAssembler::table) names
    /// by the syntax it declares ([`syntax::encode`]), any other as a
    /// pseudo-instruction.
    ///
    /// # Errors
    ///
    /// Returns a description of the problem (unknown mnemonic, operand
    /// count/kind mismatch, out-of-range immediate...).
    fn encode(&self, mnemonic: &str, ops: &[Operand], ctx: &EncodeCtx<'_>) -> Result<u32, String> {
        match self.table().lookup(mnemonic) {
            Some(found) => syntax::encode(self, found, ops, ctx),
            None => self.encode_pseudo(mnemonic, ops, ctx),
        }
    }

    /// Encodes a mnemonic the table does not name: a pseudo-instruction
    /// expands onto real instructions through [`IsaAssembler::encode`].
    ///
    /// # Errors
    ///
    /// As [`IsaAssembler::encode`]; by default, an unknown mnemonic.
    fn encode_pseudo(
        &self,
        mnemonic: &str,
        ops: &[Operand],
        ctx: &EncodeCtx<'_>,
    ) -> Result<u32, String> {
        let _ = (ops, ctx);
        Err(format!("unknown mnemonic `{mnemonic}`"))
    }

    /// The instruction table [`syntax`] encodes and prints by.
    fn table(&self) -> &'static Table {
        static NONE: Table = Table::new(&[]);
        &NONE
    }

    /// The number of the register `name` (already lower-cased) that a
    /// [`lis_core::Slot::Reg`] operand may name.
    fn reg(&self, name: &str) -> Option<u16> {
        let _ = name;
        None
    }

    /// The printed name of register `n`.
    fn reg_name(&self, n: u16) -> String {
        format!("r{n}")
    }

    /// Encodes the ISA's custom operand slot `kind` from the front of `ops`:
    /// the field bits and how many operands it took.
    ///
    /// # Errors
    ///
    /// Returns a description of an operand the slot cannot hold.
    fn encode_custom(
        &self,
        kind: u8,
        ops: &[Operand],
        ctx: &EncodeCtx<'_>,
    ) -> Result<(u32, usize), String> {
        let _ = (ops, ctx);
        Err(format!("{}: no custom operand {kind}", self.name()))
    }

    /// Prints the ISA's custom operand slot `kind` of `word` into `line`.
    fn print_custom(&self, kind: u8, word: u32, line: &mut Line) {
        let _ = (kind, word, line);
    }
}

#[derive(Debug)]
struct SectionBuf {
    name: &'static str,
    base: u64,
    data: Vec<u8>,
}

impl SectionBuf {
    fn lc(&self) -> u64 {
        self.base + self.data.len() as u64
    }

    fn pad_to(&mut self, addr: u64, line: usize) -> Result<(), AsmError> {
        if addr < self.lc() {
            return Err(AsmError::new(
                line,
                format!("{}: location counter cannot move backwards to {addr:#x}", self.name),
            ));
        }
        self.data.resize((addr - self.base) as usize, 0);
        Ok(())
    }
}

/// Section selector during assembly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Sect {
    Text,
    Data,
}

/// Assembles `src` for the given ISA into a loadable image.
///
/// # Errors
///
/// Returns the first [`AsmError`] (with line number) encountered.
///
/// # Examples
///
/// Assembling for a trivial ISA whose single instruction `nop` encodes as 0:
///
/// ```
/// use lis_asm::{assemble, EncodeCtx, IsaAssembler, Operand};
/// use lis_mem::Endian;
///
/// struct Nop;
/// impl IsaAssembler for Nop {
///     fn name(&self) -> &'static str { "nop" }
///     fn endian(&self) -> Endian { Endian::Little }
///     fn is_reg(&self, _: &str) -> bool { false }
///     fn encode(&self, mn: &str, _: &[Operand], _: &EncodeCtx<'_>) -> Result<u32, String> {
///         if mn == "nop" { Ok(0) } else { Err(format!("unknown mnemonic `{mn}`")) }
///     }
/// }
///
/// let image = assemble(&Nop, "_start: nop\n nop\n")?;
/// assert_eq!(image.entry, 0x1000);
/// assert_eq!(image.sections[0].bytes.len(), 8);
/// # Ok::<(), lis_asm::AsmError>(())
/// ```
pub fn assemble(isa: &dyn IsaAssembler, src: &str) -> Result<Image, AsmError> {
    let stmts = parse_lines(src)?;
    let mut syms = SymTab::new();

    // Pass 1: sizing — compute every label address and `.equ` value.
    {
        let mut text = SectionBuf { name: ".text", base: TEXT_BASE, data: Vec::new() };
        let mut data = SectionBuf { name: ".data", base: DATA_BASE, data: Vec::new() };
        let mut cur = Sect::Text;
        for stmt in &stmts {
            if let Some(label) = &stmt.label {
                let sec = if cur == Sect::Text { &text } else { &data };
                if syms.insert(label.clone(), sec.lc()).is_some() {
                    return Err(AsmError::new(stmt.line, format!("duplicate label `{label}`")));
                }
            }
            match &stmt.body {
                None => {}
                Some(Body::Insn(..)) => {
                    let sec = if cur == Sect::Text { &mut text } else { &mut data };
                    sec.data.extend_from_slice(&[0; 4]);
                }
                Some(Body::Directive(d, args)) => {
                    size_directive(d, args, stmt.line, &mut cur, &mut text, &mut data, &mut syms)?;
                }
            }
        }
    }

    // Pass 2: emission.
    let mut text = SectionBuf { name: ".text", base: TEXT_BASE, data: Vec::new() };
    let mut data = SectionBuf { name: ".data", base: DATA_BASE, data: Vec::new() };
    let mut cur = Sect::Text;
    let endian = isa.endian();
    for stmt in &stmts {
        match &stmt.body {
            None => {}
            Some(Body::Insn(mn, args)) => {
                let sec = if cur == Sect::Text { &mut text } else { &mut data };
                let addr = sec.lc();
                let is_reg = |n: &str| isa.is_reg(n);
                let ops = split_operands(args)
                    .iter()
                    .map(|p| parse_operand(p, &is_reg, &syms, true))
                    .collect::<Result<Vec<_>, _>>()
                    .map_err(|e| AsmError::new(stmt.line, e))?;
                let word = isa
                    .encode(mn, &ops, &EncodeCtx { addr, syms: &syms })
                    .map_err(|e| AsmError::new(stmt.line, e))?;
                let bytes = match endian {
                    Endian::Little => word.to_le_bytes(),
                    Endian::Big => word.to_be_bytes(),
                };
                sec.data.extend_from_slice(&bytes);
            }
            Some(Body::Directive(d, args)) => {
                emit_directive(isa, d, args, stmt.line, &mut cur, &mut text, &mut data, &syms)?;
            }
        }
    }

    let entry = syms.get("_start").copied().unwrap_or(TEXT_BASE);
    let mut sections = Vec::new();
    if !text.data.is_empty() {
        sections.push(Section { name: ".text".into(), addr: text.base, bytes: text.data });
    }
    if !data.data.is_empty() {
        sections.push(Section { name: ".data".into(), addr: data.base, bytes: data.data });
    }
    Ok(Image { entry, sections, symbols: syms.into_iter().collect() })
}

#[allow(clippy::too_many_arguments)]
fn size_directive(
    d: &str,
    args: &str,
    line: usize,
    cur: &mut Sect,
    text: &mut SectionBuf,
    data: &mut SectionBuf,
    syms: &mut SymTab,
) -> Result<(), AsmError> {
    let sec = if *cur == Sect::Text { text } else { data };
    match d {
        "text" => *cur = Sect::Text,
        "data" => *cur = Sect::Data,
        "global" | "globl" => {}
        "org" => {
            let addr = eval(args, syms, true).map_err(|e| AsmError::new(line, e))? as u64;
            sec.pad_to(addr, line)?;
        }
        "align" => {
            let n = eval(args, syms, true).map_err(|e| AsmError::new(line, e))? as u64;
            if n == 0 || !n.is_power_of_two() {
                return Err(AsmError::new(line, "alignment must be a power of two"));
            }
            let target = (sec.lc() + n - 1) & !(n - 1);
            sec.pad_to(target, line)?;
        }
        "word" => sec.data.extend(std::iter::repeat_n(0, 4 * split_operands(args).len())),
        "half" => sec.data.extend(std::iter::repeat_n(0, 2 * split_operands(args).len())),
        "byte" => sec.data.extend(std::iter::repeat_n(0, split_operands(args).len())),
        "ascii" | "asciz" => {
            let mut bytes = parse_string(args).map_err(|e| AsmError::new(line, e))?;
            if d == "asciz" {
                bytes.push(0);
            }
            sec.data.extend(bytes);
        }
        "space" => {
            let n = eval(args, syms, true).map_err(|e| AsmError::new(line, e))? as usize;
            sec.data.extend(std::iter::repeat_n(0, n));
        }
        "equ" => {
            let parts = split_operands(args);
            if parts.len() != 2 {
                return Err(AsmError::new(line, ".equ needs `name, value`"));
            }
            let v = eval(&parts[1], syms, true).map_err(|e| AsmError::new(line, e))?;
            if syms.insert(parts[0].clone(), v as u64).is_some() {
                return Err(AsmError::new(line, format!("duplicate symbol `{}`", parts[0])));
            }
        }
        _ => return Err(AsmError::new(line, format!("unknown directive `.{d}`"))),
    }
    Ok(())
}

#[allow(clippy::too_many_arguments)]
fn emit_directive(
    isa: &dyn IsaAssembler,
    d: &str,
    args: &str,
    line: usize,
    cur: &mut Sect,
    text: &mut SectionBuf,
    data: &mut SectionBuf,
    syms: &SymTab,
) -> Result<(), AsmError> {
    let endian = isa.endian();
    let sec = if *cur == Sect::Text { text } else { data };
    match d {
        "text" => *cur = Sect::Text,
        "data" => *cur = Sect::Data,
        "global" | "globl" | "equ" => {}
        "org" => {
            let addr = eval(args, syms, true).map_err(|e| AsmError::new(line, e))? as u64;
            sec.pad_to(addr, line)?;
        }
        "align" => {
            let n = eval(args, syms, true).map_err(|e| AsmError::new(line, e))? as u64;
            let target = (sec.lc() + n - 1) & !(n - 1);
            sec.pad_to(target, line)?;
        }
        "word" | "half" | "byte" => {
            for part in split_operands(args) {
                let v = eval(&part, syms, true).map_err(|e| AsmError::new(line, e))?;
                match (d, endian) {
                    ("word", Endian::Little) => sec.data.extend((v as u32).to_le_bytes()),
                    ("word", Endian::Big) => sec.data.extend((v as u32).to_be_bytes()),
                    ("half", Endian::Little) => sec.data.extend((v as u16).to_le_bytes()),
                    ("half", Endian::Big) => sec.data.extend((v as u16).to_be_bytes()),
                    _ => sec.data.push(v as u8),
                }
            }
        }
        "ascii" | "asciz" => {
            let mut bytes = parse_string(args).map_err(|e| AsmError::new(line, e))?;
            if d == "asciz" {
                bytes.push(0);
            }
            sec.data.extend(bytes);
        }
        "space" => {
            let n = eval(args, syms, true).map_err(|e| AsmError::new(line, e))? as usize;
            sec.data.extend(std::iter::repeat_n(0, n));
        }
        _ => return Err(AsmError::new(line, format!("unknown directive `.{d}`"))),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fake ISA: `li rN, imm` encodes as `0x10 | N<<16 | imm`, `b label`
    /// encodes a word offset.
    struct Fake;

    impl IsaAssembler for Fake {
        fn name(&self) -> &'static str {
            "fake"
        }

        fn endian(&self) -> Endian {
            Endian::Big
        }

        fn is_reg(&self, name: &str) -> bool {
            name.strip_prefix('r').is_some_and(|n| n.parse::<u8>().is_ok_and(|v| v < 16))
        }

        fn encode(&self, mn: &str, ops: &[Operand], ctx: &EncodeCtx<'_>) -> Result<u32, String> {
            match mn {
                "li" => {
                    let r = ops[0].reg().ok_or("li needs a register")?;
                    let n: u32 = r[1..].parse().unwrap();
                    let imm = ops[1].imm().ok_or("li needs an immediate")? as u32 & 0xffff;
                    Ok(0x1000_0000 | n << 16 | imm)
                }
                "b" => {
                    let target = ops[0].imm().ok_or("b needs a target")? as u64;
                    let off = ((target as i64 - ctx.addr as i64) / 4) as u32 & 0x00ff_ffff;
                    Ok(0x2000_0000 | off)
                }
                _ => Err(format!("unknown mnemonic `{mn}`")),
            }
        }
    }

    #[test]
    fn end_to_end_with_labels_and_data() {
        let src = r#"
        .equ TEN, 10
_start: li r1, TEN          ; comment
loop:   b loop
        .data
msg:    .asciz "hi"
        .align 4
nums:   .word 1, loop, 0x10
        .half 7
        .byte 'x'
        .space 3
"#;
        let img = assemble(&Fake, src).unwrap();
        assert_eq!(img.entry, TEXT_BASE);
        assert_eq!(img.symbol("loop"), Some(TEXT_BASE + 4));
        assert_eq!(img.symbol("msg"), Some(DATA_BASE));
        assert_eq!(img.symbol("nums"), Some(DATA_BASE + 4));
        let text = &img.sections[0];
        assert_eq!(text.bytes.len(), 8);
        // li r1, 10 big-endian
        assert_eq!(&text.bytes[0..4], &0x1001_000au32.to_be_bytes());
        // b loop with offset 0
        assert_eq!(&text.bytes[4..8], &0x2000_0000u32.to_be_bytes());
        let data = &img.sections[1];
        assert_eq!(&data.bytes[..3], b"hi\0");
        // .word loop is a 32-bit big-endian pointer at offset 4 (after align).
        assert_eq!(&data.bytes[8..12], &(TEXT_BASE as u32 + 4).to_be_bytes());
        assert_eq!(data.bytes.len(), 4 + 12 + 2 + 1 + 3);
    }

    #[test]
    fn duplicate_label_is_rejected() {
        let err = assemble(&Fake, "a: li r1, 1\na: li r2, 2\n").unwrap_err();
        assert!(err.to_string().contains("duplicate label"));
        assert_eq!(err.line, 2);
    }

    #[test]
    fn forward_references_resolve() {
        let img = assemble(&Fake, "b fwd\nfwd: li r0, 0\n").unwrap();
        // offset (0x1004 - 0x1000)/4 = 1
        assert_eq!(&img.sections[0].bytes[0..4], &0x2000_0001u32.to_be_bytes());
    }

    #[test]
    fn unknown_mnemonic_reports_line() {
        let err = assemble(&Fake, "li r1, 1\nbogus r1\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.to_string().contains("bogus"));
    }

    #[test]
    fn org_moves_forward_only() {
        let img = assemble(&Fake, ".org 0x1010\nli r1, 1\n").unwrap();
        assert_eq!(img.sections[0].bytes.len(), 0x14);
        let err = assemble(&Fake, "li r1, 1\n.org 0x1000\n").unwrap_err();
        assert!(err.to_string().contains("backwards"));
    }

    #[test]
    fn bad_alignment_is_rejected() {
        let err = assemble(&Fake, ".align 3\n").unwrap_err();
        assert!(err.to_string().contains("power of two"));
    }

    #[test]
    fn entry_defaults_and_start() {
        assert_eq!(assemble(&Fake, "li r1, 1\n").unwrap().entry, TEXT_BASE);
        let img = assemble(&Fake, "li r1, 1\n_start: li r2, 2\n").unwrap();
        assert_eq!(img.entry, TEXT_BASE + 4);
    }
}

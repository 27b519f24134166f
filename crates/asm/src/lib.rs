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
pub use parse::{
    parse_lines, parse_operand, parse_string, Body, Items, Operand, Operands, Reg, Stmt, SHIFTS,
};
pub use syntax::{Line, Table};

use lis_mem::{Endian, FxBuildHasher, Image, Section, STACK_TOP};

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
    pub syms: &'a SymTab<'a>,
    /// The items of the line's bracketed operands and shifts.
    pub items: &'a [Operand<'a>],
}

impl<'a> EncodeCtx<'a> {
    /// The operands `items` names: a bracketed operand's items, or a
    /// shift's argument.
    pub fn items(&self, items: Items) -> &'a [Operand<'a>] {
        &self.items[items.range()]
    }
}

/// The per-ISA half of an assembler: register names, the instruction table,
/// pseudo-instructions, and the ISA's custom operand slots.
pub trait IsaAssembler {
    /// ISA name for diagnostics.
    fn name(&self) -> &'static str;

    /// Byte order for emitted words.
    fn endian(&self) -> Endian;

    /// Encodes one instruction: one the [table](IsaAssembler::table) names
    /// by the syntax it declares ([`syntax::encode`]), any other as a
    /// pseudo-instruction.
    ///
    /// # Errors
    ///
    /// Returns a description of the problem (unknown mnemonic, operand
    /// count/kind mismatch, out-of-range immediate...).
    fn encode(
        &self,
        mnemonic: &str,
        ops: &[Operand<'_>],
        ctx: &EncodeCtx<'_>,
    ) -> Result<u32, String> {
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
        ops: &[Operand<'_>],
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

    /// The number of the register `name` (already lower-cased) names in the
    /// ISA's other register class, one that no [`lis_core::Slot::Reg`]
    /// takes but a custom slot may (PowerPC's CR fields).
    fn other_reg(&self, name: &str) -> Option<u16> {
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
        ops: &[Operand<'_>],
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

/// One section's location counter and, in pass 2, its bytes.
#[derive(Debug)]
struct SectionBuf {
    name: &'static str,
    base: u64,
    /// The address the location counter may not pass, and what is there.
    limit: (u64, &'static str),
    lc: u64,
    /// Whether this pass writes bytes (pass 2) or only counts them.
    emit: bool,
    bytes: Vec<u8>,
}

impl SectionBuf {
    fn new(name: &'static str, base: u64, limit: (u64, &'static str)) -> SectionBuf {
        SectionBuf { name, base, limit, lc: base, emit: false, bytes: Vec::new() }
    }

    /// Rewinds for pass 2, with room for the bytes pass 1 counted.
    fn start_emit(&mut self) {
        self.bytes = Vec::with_capacity((self.lc - self.base) as usize);
        self.lc = self.base;
        self.emit = true;
    }

    /// Checks a move of the location counter to `to` (`None`: past the end
    /// of the address space) before anything grows.
    fn check(&self, to: Option<u64>) -> Result<u64, String> {
        let (limit, what) = self.limit;
        match to {
            Some(to) if to < self.lc => {
                Err(format!("{}: location counter cannot move backwards to {to:#x}", self.name))
            }
            Some(to) if to <= limit => Ok(to),
            _ => Err(format!("{}: location counter would pass {what} at {limit:#x}", self.name)),
        }
    }

    /// Moves the location counter forward to `to`, padding with zeros.
    fn move_to(&mut self, to: Option<u64>) -> Result<(), String> {
        self.lc = self.check(to)?;
        if self.emit {
            self.bytes.resize((self.lc - self.base) as usize, 0);
        }
        Ok(())
    }

    /// Moves the location counter past `n` more bytes, padding with zeros.
    fn skip(&mut self, n: u64) -> Result<(), String> {
        self.move_to(self.lc.checked_add(n))
    }

    /// Appends `bytes` (in pass 1, only moves past them).
    fn put(&mut self, bytes: &[u8]) -> Result<(), String> {
        self.lc = self.check(self.lc.checked_add(bytes.len() as u64))?;
        if self.emit {
            self.bytes.extend_from_slice(bytes);
        }
        Ok(())
    }
}

/// Section selector during assembly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Sect {
    Text,
    Data,
}

/// The state of one assembly across its two passes.
struct Assembler<'i, 'a> {
    isa: &'i dyn IsaAssembler,
    syms: SymTab<'a>,
    text: SectionBuf,
    data: SectionBuf,
    cur: Sect,
    /// The current line's operands and their nested items, reused from
    /// line to line.
    ops: Vec<Operand<'a>>,
    items: Vec<Operand<'a>>,
}

/// Assembles `src` for the given ISA into a loadable image.
///
/// `.text` may not run into `.data`, and no section may reach the initial
/// stack pointer [`STACK_TOP`].
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
///     fn encode(&self, mn: &str, _: &[Operand<'_>], _: &EncodeCtx<'_>) -> Result<u32, String> {
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
    let labels = stmts.iter().filter(|s| s.label.is_some()).count();
    let mut asm = Assembler {
        isa,
        syms: SymTab::with_capacity_and_hasher(labels, FxBuildHasher),
        text: SectionBuf::new(".text", TEXT_BASE, (DATA_BASE, ".data")),
        data: SectionBuf::new(".data", DATA_BASE, (STACK_TOP, "the stack")),
        cur: Sect::Text,
        ops: Vec::new(),
        items: Vec::new(),
    };
    // Pass 1: sizing — compute every label address and `.equ` value.
    asm.pass(&stmts)?;
    // Pass 2: emission.
    asm.text.start_emit();
    asm.data.start_emit();
    asm.pass(&stmts)?;

    let entry = asm.syms.get("_start").copied().unwrap_or(TEXT_BASE);
    let sections = [asm.text, asm.data]
        .into_iter()
        .filter(|s| !s.bytes.is_empty())
        .map(|s| Section { name: s.name.into(), addr: s.base, bytes: s.bytes })
        .collect();
    let symbols = asm.syms.iter().map(|(name, &addr)| (name.to_string(), addr)).collect();
    Ok(Image { entry, sections, symbols })
}

impl<'a> Assembler<'_, 'a> {
    fn sec(&mut self) -> &mut SectionBuf {
        match self.cur {
            Sect::Text => &mut self.text,
            Sect::Data => &mut self.data,
        }
    }

    /// One pass over `stmts`: pass 1 defines the symbols, pass 2 (once the
    /// sections emit) writes the bytes.
    fn pass(&mut self, stmts: &[Stmt<'a>]) -> Result<(), AsmError> {
        self.cur = Sect::Text;
        let emit = self.text.emit;
        let endian = self.isa.endian();
        for stmt in stmts {
            let line = stmt.line;
            if let (Some(label), false) = (stmt.label, emit) {
                let lc = self.sec().lc;
                if self.syms.insert(label, lc).is_some() {
                    return Err(AsmError::new(line, format!("duplicate label `{label}`")));
                }
            }
            let done = match stmt.body {
                None => Ok(()),
                Some(Body::Insn(mn, args)) if emit => {
                    let addr = self.sec().lc;
                    self.encode(mn, args, addr).and_then(|word| {
                        self.sec().put(&match endian {
                            Endian::Little => word.to_le_bytes(),
                            Endian::Big => word.to_be_bytes(),
                        })
                    })
                }
                Some(Body::Insn(..)) => self.sec().skip(4),
                Some(Body::Directive(d, args)) => self.directive(d, args, emit),
            };
            done.map_err(|e| AsmError::new(line, e))?;
        }
        Ok(())
    }

    /// Parses the operands `args` and encodes `mn` with them at `addr`.
    fn encode(&mut self, mn: &str, args: &'a str, addr: u64) -> Result<u32, String> {
        self.ops.clear();
        self.items.clear();
        for part in Operands::new(args) {
            let op = parse_operand(part, self.isa, &self.syms, &mut self.items)?;
            self.ops.push(op);
        }
        let mut buf = [0; 16];
        let mn = parse::lower(mn, &mut buf);
        self.isa.encode(&mn, &self.ops, &EncodeCtx { addr, syms: &self.syms, items: &self.items })
    }

    /// Applies the directive `.d args`: pass 1 moves the location counter
    /// and defines `.equ` symbols, pass 2 (`emit`) also writes the bytes.
    fn directive(&mut self, d: &str, args: &'a str, emit: bool) -> Result<(), String> {
        match d {
            "text" => self.cur = Sect::Text,
            "data" => self.cur = Sect::Data,
            "global" | "globl" => {}
            "org" => {
                let addr = eval(args, &self.syms, true)? as u64;
                self.sec().move_to(Some(addr))?;
            }
            "align" => {
                let n = eval(args, &self.syms, true)? as u64;
                if n == 0 || !n.is_power_of_two() {
                    return Err("alignment must be a power of two".into());
                }
                let sec = self.sec();
                sec.move_to(sec.lc.checked_add(n - 1).map(|end| end & !(n - 1)))?;
            }
            "word" | "half" | "byte" if !emit => {
                let width = match d {
                    "word" => 4,
                    "half" => 2,
                    _ => 1,
                };
                self.sec().skip(width * Operands::new(args).count() as u64)?;
            }
            "word" | "half" | "byte" => {
                let endian = self.isa.endian();
                for part in Operands::new(args) {
                    let v = eval(part, &self.syms, true)?;
                    let sec = self.sec();
                    match (d, endian) {
                        ("word", Endian::Little) => sec.put(&(v as u32).to_le_bytes())?,
                        ("word", Endian::Big) => sec.put(&(v as u32).to_be_bytes())?,
                        ("half", Endian::Little) => sec.put(&(v as u16).to_le_bytes())?,
                        ("half", Endian::Big) => sec.put(&(v as u16).to_be_bytes())?,
                        _ => sec.put(&[v as u8])?,
                    }
                }
            }
            "ascii" | "asciz" => {
                // Counted first, so the section grows only after the check.
                let mut n = u64::from(d == "asciz");
                parse_string(args, |_| n += 1)?;
                let sec = self.sec();
                let at = sec.bytes.len();
                sec.skip(n)?;
                if sec.emit {
                    let mut out = sec.bytes[at..].iter_mut();
                    parse_string(args, |b| *out.next().expect("counted above") = b)?;
                }
            }
            "space" => {
                let n = eval(args, &self.syms, true)? as u64;
                self.sec().skip(n)?;
            }
            "equ" if emit => {}
            "equ" => {
                let mut parts = Operands::new(args);
                let (Some(name), Some(value), None) = (parts.next(), parts.next(), parts.next())
                else {
                    return Err(".equ needs `name, value`".into());
                };
                let v = eval(value, &self.syms, true)?;
                if self.syms.insert(name, v as u64).is_some() {
                    return Err(format!("duplicate symbol `{name}`"));
                }
            }
            _ => return Err(format!("unknown directive `.{d}`")),
        }
        Ok(())
    }
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

        fn reg(&self, name: &str) -> Option<u16> {
            name.strip_prefix('r')?.parse::<u16>().ok().filter(|&v| v < 16)
        }

        fn encode(
            &self,
            mn: &str,
            ops: &[Operand<'_>],
            ctx: &EncodeCtx<'_>,
        ) -> Result<u32, String> {
            match mn {
                "li" => {
                    let n = u32::from(ops[0].reg().ok_or("li needs a register")?);
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
    fn sections_stop_at_their_limits() {
        let err = |src: &str| assemble(&Fake, src).unwrap_err().to_string();
        let huge = "0x100000000000000";
        let data_full = "line 3: .data: location counter would pass the stack at 0xf00000";
        assert_eq!(err(&format!("li r1, 1\n.data\n.space {huge}\n")), data_full);
        assert_eq!(err(&format!("li r1, 1\n.data\n.org {huge}\n")), data_full);
        assert_eq!(err("li r1, 1\n.data\n.align 0x4000000000000000\n"), data_full);
        assert_eq!(err("li r1, 1\n.data\n.space -1\n"), data_full);
        let text_full = "line 2: .text: location counter would pass .data at 0x20000";
        assert_eq!(err("li r1, 1\n.space 0x1f000\nli r2, 2\n"), text_full);
        assert_eq!(err("li r1, 1\n.org 0x20001\n"), text_full);
        // Up to the limit is fine: .text may end where .data starts.
        let img = assemble(&Fake, ".space 0x1effc\nli r1, 1\n.data\n.org 0xeffffc\n.word 1\n");
        let img = img.unwrap();
        assert_eq!(img.sections[0].end(), DATA_BASE);
        assert_eq!(img.sections[1].end(), STACK_TOP);
        assert!(err("li r1, 1\n.data\n.org 0xeffffc\n.word 1, 2\n").starts_with("line 4:"));
        assert!(err(".data\n.ascii \"ab\"\n.org 0xeffffe\n.asciz \"x\"\n.asciz \"y\"\n")
            .starts_with("line 5:"));
    }

    #[test]
    fn strings_and_data_directives() {
        let img = assemble(&Fake, ".data\n.ascii \"a\\tb\"\n.asciz \"c\"\n.half 0x102\n").unwrap();
        assert_eq!(img.sections[0].bytes, b"a\tbc\0\x01\x02");
        let err = |src: &str| assemble(&Fake, src).unwrap_err().to_string();
        assert_eq!(err(".equ A\n"), "line 1: .equ needs `name, value`");
        assert_eq!(err(".equ A, 1\n.equ A, 2\n"), "line 2: duplicate symbol `A`");
        assert_eq!(err(".bogus\n"), "line 1: unknown directive `.bogus`");
        assert_eq!(err("li r99, 1\n"), "line 1: undefined symbol `r99`");
    }

    #[test]
    fn entry_defaults_and_start() {
        assert_eq!(assemble(&Fake, "li r1, 1\n").unwrap().entry, TEXT_BASE);
        let img = assemble(&Fake, "li r1, 1\n_start: li r2, 2\n").unwrap();
        assert_eq!(img.entry, TEXT_BASE + 4);
    }
}

//! Source-line and operand parsing.
//!
//! Statements and operands borrow from the source. [`parse_lines`] scans
//! each line once into a [`Stmt`]; [`Operands`] splits an operand list at
//! its top-level commas; [`parse_operand`] reads one operand, resolving a
//! register name to its number once, as it reads it. Bracketed items and
//! shift arguments go into a caller-owned buffer that is reused from line to
//! line, so nothing on the common path allocates.

use crate::error::AsmError;
use crate::expr::{eval, SymTab, MAX_NESTING};
use crate::IsaAssembler;
use std::borrow::Cow;

/// A register operand: the name as written, and the register it names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reg<'a> {
    /// The name as written in the source.
    pub name: &'a str,
    /// The register's number within its class.
    pub num: u16,
    /// Whether it is of the ISA's other class ([`IsaAssembler::other_reg`]),
    /// which no [`lis_core::Slot::Reg`] takes.
    pub other: bool,
}

/// Where a bracketed operand's items, or a shift's argument, sit in the
/// item buffer [`parse_operand`] fills ([`crate::EncodeCtx::items`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Items {
    start: u32,
    len: u32,
}

impl Items {
    /// How many operands there are.
    pub fn len(self) -> usize {
        self.len as usize
    }

    /// Whether there are none.
    pub fn is_empty(self) -> bool {
        self.len == 0
    }

    /// Their positions in the item buffer.
    pub fn range(self) -> std::ops::Range<usize> {
        self.start as usize..(self.start + self.len) as usize
    }
}

/// The shift keywords, in encoding order: [`Operand::Shift`]'s `kind`
/// indexes them.
pub const SHIFTS: [&str; 4] = ["lsl", "lsr", "asr", "ror"];

/// One parsed operand of an instruction.
///
/// The framework parses the syntax shared by the three ISAs; the per-ISA
/// assembler names the registers ([`IsaAssembler::reg`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Operand<'a> {
    /// A register (`r3`, `sp`, `lr`, `cr0`).
    Reg(Reg<'a>),
    /// An immediate: `#imm`, a number, or a label expression.
    Imm(i64),
    /// Displacement-plus-base syntax: `8(r2)`.
    BaseDisp {
        /// Evaluated displacement.
        disp: i64,
        /// Base register.
        base: Reg<'a>,
    },
    /// Bracketed memory syntax: `[r1, #4]` (`!` sets `writeback`).
    Mem {
        /// The comma-separated items inside the brackets.
        items: Items,
        /// Whether a trailing `!` requested base writeback.
        writeback: bool,
    },
    /// A shift: `lsl #2`, `asr r4`.
    Shift {
        /// The keyword, as an index into [`SHIFTS`].
        kind: u8,
        /// Its one argument.
        arg: Items,
    },
}

impl Operand<'_> {
    /// The immediate value, if this operand is one.
    pub fn imm(&self) -> Option<i64> {
        match self {
            Operand::Imm(v) => Some(*v),
            _ => None,
        }
    }

    /// The register number, if this operand is a register that a
    /// [`lis_core::Slot::Reg`] may take.
    pub fn reg(&self) -> Option<u16> {
        match self {
            Operand::Reg(r) if !r.other => Some(r.num),
            _ => None,
        }
    }
}

/// One statement extracted from a source line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Body<'a> {
    /// `.directive rest-of-line`
    Directive(&'a str, &'a str),
    /// `mnemonic rest-of-line`, the mnemonic as written.
    Insn(&'a str, &'a str),
}

/// A parsed source line: optional label plus optional statement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stmt<'a> {
    /// 1-based source line.
    pub line: usize,
    /// Label defined at this line, if any.
    pub label: Option<&'a str>,
    /// The statement body, if any.
    pub body: Option<Body<'a>>,
}

/// A byte that ends a line (2) or may start a comment or a literal (1).
const LINE_BYTES: [u8; 256] = {
    let mut class = [0; 256];
    class[b'\n' as usize] = 2;
    class[b';' as usize] = 1;
    class[b'/' as usize] = 1;
    class[b'"' as usize] = 1;
    class[b'\'' as usize] = 1;
    class
};

/// The source's lines as [`str::lines`] splits them, each without its
/// comment (`;` or `//` outside string/char literals): one pass over the
/// bytes.
struct Lines<'a> {
    rest: &'a str,
}

impl<'a> Iterator for Lines<'a> {
    type Item = &'a str;

    fn next(&mut self) -> Option<&'a str> {
        if self.rest.is_empty() {
            return None;
        }
        let b = self.rest.as_bytes();
        let (mut end, mut special) = (0, None);
        while let Some(&c) = b.get(end) {
            match LINE_BYTES[usize::from(c)] {
                0 => {}
                1 => special = special.or(Some(end)),
                _ => break,
            }
            end += 1;
        }
        let mut line = &self.rest[..end];
        if end < b.len() {
            line = line.strip_suffix('\r').unwrap_or(line);
            self.rest = &self.rest[end + 1..];
        } else {
            self.rest = "";
        }
        // Nothing before the first special byte can open a literal.
        Some(match special {
            Some(at) => strip_comment(line, at),
            None => line,
        })
    }
}

/// `line` without its comment, where `at` is the first byte that may start
/// a comment or a literal.
fn strip_comment(line: &str, at: usize) -> &str {
    let b = line.as_bytes();
    let mut in_str = false;
    let mut in_char = false;
    let mut i = at;
    while i < b.len() {
        match b[i] {
            b'\\' if in_str || in_char => i += 1,
            b'"' if !in_char => in_str = !in_str,
            b'\'' if !in_str => in_char = !in_char,
            b';' if !in_str && !in_char => return &line[..i],
            b'/' if !in_str && !in_char && b.get(i + 1) == Some(&b'/') => return &line[..i],
            _ => {}
        }
        i += 1;
    }
    line
}

/// Splits a label off the front of `text`: an identifier that does not
/// start with a digit, followed at once by `:`.
fn split_label(text: &str) -> (Option<&str>, &str) {
    let b = text.as_bytes();
    let n = b
        .iter()
        .position(|&c| !(c.is_ascii_alphanumeric() || matches!(c, b'_' | b'.' | b'$')))
        .unwrap_or(b.len());
    if n > 0 && b.get(n) == Some(&b':') && !b[0].is_ascii_digit() {
        (Some(&text[..n]), text[n + 1..].trim())
    } else {
        (None, text)
    }
}

/// `text` split at its first whitespace: the word and the rest, trimmed.
fn split_word(text: &str) -> (&str, &str) {
    match text.find(char::is_whitespace) {
        Some(ws) => (&text[..ws], text[ws..].trim()),
        None => (text, ""),
    }
}

/// Parses the whole source into statements.
///
/// # Errors
///
/// Returns a syntax error with its line number.
pub fn parse_lines(src: &str) -> Result<Vec<Stmt<'_>>, AsmError> {
    let mut out = Vec::new();
    for (idx, text) in (Lines { rest: src }).enumerate() {
        let line = idx + 1;
        let (label, text) = split_label(text.trim());
        let body = if text.is_empty() {
            None
        } else if let Some(rest) = text.strip_prefix('.') {
            let (name, args) = split_word(rest);
            if name.is_empty() {
                return Err(AsmError::new(line, "empty directive"));
            }
            Some(Body::Directive(name, args))
        } else {
            let (mn, args) = split_word(text);
            Some(Body::Insn(mn, args))
        };
        out.push(Stmt { line, label, body });
    }
    Ok(out)
}

/// The operands of an operand list: its parts between top-level commas
/// (commas inside `[]`, `()` and quotes do not split), trimmed, with empty
/// parts left out.
#[derive(Debug, Clone)]
pub struct Operands<'a> {
    rest: Option<&'a str>,
}

impl<'a> Operands<'a> {
    /// The operands of `list`.
    pub fn new(list: &'a str) -> Operands<'a> {
        Operands { rest: Some(list) }
    }
}

impl<'a> Iterator for Operands<'a> {
    type Item = &'a str;

    fn next(&mut self) -> Option<&'a str> {
        loop {
            let s = self.rest?;
            let (mut depth, mut in_str, mut in_char) = (0i32, false, false);
            let comma = s.bytes().position(|c| {
                match c {
                    b',' if depth == 0 && !in_str && !in_char => return true,
                    b'"' if !in_char => in_str = !in_str,
                    b'\'' if !in_str => in_char = !in_char,
                    b'[' | b'(' if !in_str && !in_char => depth += 1,
                    b']' | b')' if !in_str && !in_char => depth -= 1,
                    _ => {}
                }
                false
            });
            let part = match comma {
                Some(at) => {
                    self.rest = Some(&s[at + 1..]);
                    &s[..at]
                }
                None => {
                    self.rest = None;
                    s
                }
            };
            let part = part.trim();
            if !part.is_empty() {
                return Some(part);
            }
        }
    }
}

/// `s` in lower case: `s` itself when it has no upper-case letter, else a
/// copy in `buf` when it fits there, else a new string.
pub(crate) fn lower<'b>(s: &'b str, buf: &'b mut [u8; 16]) -> Cow<'b, str> {
    if !s.bytes().any(|b| b.is_ascii_uppercase()) {
        return Cow::Borrowed(s);
    }
    match buf.get_mut(..s.len()) {
        Some(out) => {
            out.copy_from_slice(s.as_bytes());
            out.make_ascii_lowercase();
            Cow::Borrowed(std::str::from_utf8(out).expect("ASCII case mapping keeps UTF-8"))
        }
        None => Cow::Owned(s.to_ascii_lowercase()),
    }
}

/// The register `name` names, in any case, if it names one.
fn reg_named<'a>(isa: &dyn IsaAssembler, name: &'a str) -> Option<Reg<'a>> {
    let mut buf = [0; 16];
    let lower = lower(name, &mut buf);
    match isa.reg(&lower) {
        Some(num) => Some(Reg { name, num, other: false }),
        None => isa.other_reg(&lower).map(|num| Reg { name, num, other: true }),
    }
}

/// The shift `s` is, if its first word is a shift keyword: the keyword's
/// index into [`SHIFTS`], and its argument.
fn shift(s: &str) -> Option<(u8, &str)> {
    let ws = s.find(char::is_whitespace)?;
    let kind = SHIFTS.iter().position(|k| k.eq_ignore_ascii_case(&s[..ws]))?;
    Some((kind as u8, s[ws..].trim()))
}

/// Parses `parts`, nested inside an operand `depth` brackets and shifts
/// deep, into consecutive slots at the end of `items`; operands nested
/// inside them go after those slots.
fn nest<'a>(
    parts: impl Iterator<Item = &'a str> + Clone,
    isa: &dyn IsaAssembler,
    syms: &SymTab<'_>,
    items: &mut Vec<Operand<'a>>,
    depth: usize,
) -> Result<Items, String> {
    if depth == MAX_NESTING {
        return Err("operand nested too deeply".into());
    }
    let start = items.len();
    let len = parts.clone().count();
    items.resize(start + len, Operand::Imm(0));
    for (i, part) in parts.enumerate() {
        items[start + i] = operand(part, isa, syms, items, depth + 1)?;
    }
    Ok(Items { start: start as u32, len: len as u32 })
}

/// Parses one operand.
///
/// A register is whatever `isa` names one; anything that is not a register,
/// bracketed memory, displacement syntax, or a shift is evaluated as a
/// constant expression against `syms`. The items of a bracketed operand and
/// the argument of a shift are appended to `items`.
///
/// # Errors
///
/// Returns a description of the first syntax error or undefined symbol, or
/// of an operand or expression nested too deeply.
pub fn parse_operand<'a>(
    s: &'a str,
    isa: &dyn IsaAssembler,
    syms: &SymTab<'_>,
    items: &mut Vec<Operand<'a>>,
) -> Result<Operand<'a>, String> {
    operand(s.trim(), isa, syms, items, 0)
}

/// [`parse_operand`] of the trimmed `s`, nested `depth` brackets and shifts
/// deep.
fn operand<'a>(
    s: &'a str,
    isa: &dyn IsaAssembler,
    syms: &SymTab<'_>,
    items: &mut Vec<Operand<'a>>,
    depth: usize,
) -> Result<Operand<'a>, String> {
    match s.as_bytes().first() {
        None => return Err("empty operand".into()),
        Some(b'#') => return Ok(Operand::Imm(eval(&s[1..], syms, true)?)),
        Some(b'[') => {
            let rest = &s[1..];
            let (inner, writeback) = match rest.strip_suffix("]!") {
                Some(inner) => (inner, true),
                None => match rest.strip_suffix(']') {
                    Some(inner) => (inner, false),
                    None => return Err(format!("unterminated `[` in `{s}`")),
                },
            };
            let items = nest(Operands::new(inner), isa, syms, items, depth)?;
            return Ok(Operand::Mem { items, writeback });
        }
        Some(_) => {}
    }
    // disp(base) — base must be a register.
    if let Some(open) = s.strip_suffix(')').and_then(|body| body.rfind('(')) {
        if let Some(base) = reg_named(isa, &s[open + 1..s.len() - 1]) {
            let prefix = s[..open].trim();
            let disp = if prefix.is_empty() { 0 } else { eval(prefix, syms, true)? };
            return Ok(Operand::BaseDisp { disp, base });
        }
    }
    if let Some((kind, arg)) = shift(s) {
        let arg = nest(std::iter::once(arg), isa, syms, items, depth)?;
        return Ok(Operand::Shift { kind, arg });
    }
    match reg_named(isa, s) {
        Some(r) => Ok(Operand::Reg(r)),
        None => Ok(Operand::Imm(eval(s, syms, true)?)),
    }
}

/// Parses a `.ascii`/`.asciz` string literal, handing each byte to `out`.
///
/// # Errors
///
/// Returns a description of the syntax error.
pub fn parse_string(s: &str, mut out: impl FnMut(u8)) -> Result<(), String> {
    let s = s.trim();
    let inner = s
        .strip_prefix('"')
        .and_then(|t| t.strip_suffix('"'))
        .ok_or_else(|| format!("expected quoted string, found `{s}`"))?;
    let mut chars = inner.bytes();
    while let Some(c) = chars.next() {
        if c == b'\\' {
            match chars.next() {
                Some(b'n') => out(b'\n'),
                Some(b't') => out(b'\t'),
                Some(b'0') => out(0),
                Some(b'\\') => out(b'\\'),
                Some(b'"') => out(b'"'),
                other => {
                    return Err(format!("bad string escape `\\{:?}`", other.map(|b| b as char)))
                }
            }
        } else {
            out(c);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EncodeCtx, SymTab};
    use lis_mem::Endian;

    /// Registers `r0`..`r255` and `sp`; `cr0`..`cr7` are of the other class.
    struct Regs;

    impl IsaAssembler for Regs {
        fn name(&self) -> &'static str {
            "regs"
        }

        fn endian(&self) -> Endian {
            Endian::Little
        }

        fn reg(&self, name: &str) -> Option<u16> {
            match name {
                "sp" => Some(1),
                _ => name.strip_prefix('r')?.parse::<u8>().ok().map(u16::from),
            }
        }

        fn other_reg(&self, name: &str) -> Option<u16> {
            name.strip_prefix("cr")?.parse::<u16>().ok().filter(|&n| n < 8)
        }

        fn encode(&self, _: &str, _: &[Operand<'_>], _: &EncodeCtx<'_>) -> Result<u32, String> {
            Ok(0)
        }
    }

    fn syms() -> SymTab<'static> {
        [("loop", 0x1010u64)].into_iter().collect()
    }

    fn reg(name: &str, num: u16) -> Reg<'_> {
        Reg { name, num, other: false }
    }

    fn parse<'a>(s: &'a str, items: &mut Vec<Operand<'a>>) -> Operand<'a> {
        parse_operand(s, &Regs, &syms(), items).unwrap()
    }

    #[test]
    fn lines_with_labels_and_comments() {
        let stmts =
            parse_lines("start: addi r1, r0, 1 ; init\n .word 5 // data\n\nend:\n").unwrap();
        assert_eq!(stmts[0].label, Some("start"));
        assert_eq!(stmts[0].body, Some(Body::Insn("addi", "r1, r0, 1")));
        assert_eq!(stmts[1].body, Some(Body::Directive("word", "5")));
        assert!(stmts[2].body.is_none() && stmts[2].label.is_none());
        assert_eq!(stmts[3].label, Some("end"));
        assert_eq!(stmts[3].line, 4);
    }

    #[test]
    fn labels_need_an_identifier_and_a_colon() {
        let stmts = parse_lines("1x: nop\nx.y$: nop\nx : nop\n\"a;b\": nop ; c\n").unwrap();
        assert_eq!(stmts[0].label, None);
        assert_eq!(stmts[1].label, Some("x.y$"));
        assert_eq!(stmts[2].label, None);
        assert_eq!(stmts[2].body, Some(Body::Insn("x", ": nop")));
        assert_eq!(stmts[3].body, Some(Body::Insn("\"a;b\":", "nop")));
        assert!(parse_lines(". text\n").is_err());
    }

    #[test]
    fn split_respects_brackets() {
        let split = |s| Operands::new(s).collect::<Vec<_>>();
        assert_eq!(split("r0, [r1, #4], r2"), ["r0", "[r1, #4]", "r2"]);
        assert_eq!(split("8(r2), r3"), ["8(r2)", "r3"]);
        assert_eq!(split("'a,', \"b,c\", d"), ["'a,'", "\"b,c\"", "d"]);
        assert_eq!(split("a,, b ,"), ["a", "b"]);
        assert_eq!(split("a], b, [c, d"), ["a], b, [c", "d"]);
        assert!(split("").is_empty() && split(" , ").is_empty());
    }

    #[test]
    fn operand_forms() {
        let mut items = Vec::new();
        assert_eq!(parse("r3", &mut items), Operand::Reg(reg("r3", 3)));
        assert_eq!(parse("R3", &mut items), Operand::Reg(reg("R3", 3)));
        assert_eq!(
            parse("cr7", &mut items),
            Operand::Reg(Reg { name: "cr7", num: 7, other: true })
        );
        assert_eq!(parse("#-4", &mut items), Operand::Imm(-4));
        assert_eq!(parse("loop+8", &mut items), Operand::Imm(0x1018));
        assert_eq!(parse("8(r2)", &mut items), Operand::BaseDisp { disp: 8, base: reg("r2", 2) });
        assert_eq!(parse("(sp)", &mut items), Operand::BaseDisp { disp: 0, base: reg("sp", 1) });
        assert!(items.is_empty());
    }

    #[test]
    fn nested_operands_go_to_the_item_buffer() {
        let mut items = Vec::new();
        let Operand::Mem { items: mem, writeback: true } = parse("[r1, r2, LSL #2]!", &mut items)
        else {
            panic!("not a bracketed operand")
        };
        assert_eq!(mem.range(), 0..3);
        assert_eq!(items[..2], [Operand::Reg(reg("r1", 1)), Operand::Reg(reg("r2", 2))]);
        let Operand::Shift { kind: 0, arg } = items[2] else { panic!("not a shift") };
        assert_eq!(items[arg.range()], [Operand::Imm(2)]);
        let Operand::Shift { kind: 2, arg } = parse("asr r4", &mut items) else {
            panic!("not a shift")
        };
        assert_eq!(items[arg.range()], [Operand::Reg(reg("r4", 4))]);
    }

    #[test]
    fn undefined_symbol_strictness() {
        let s = SymTab::default();
        let err = |text| parse_operand(text, &Regs, &s, &mut Vec::new()).unwrap_err();
        for text in ["nolabel", "#nolabel", "nolabel(r1)", "[r1, nolabel]", "lsl nolabel"] {
            assert_eq!(err(text), "undefined symbol `nolabel`", "{text}");
        }
    }

    #[test]
    fn operand_errors() {
        let s = SymTab::default();
        let err = |text| parse_operand(text, &Regs, &s, &mut Vec::new()).unwrap_err();
        assert!(err("[r1, #4").contains("unterminated `[`"));
        assert!(err("lsl (r1)").contains("undefined symbol `lsl`"));
        assert_eq!(err(" "), "empty operand");
    }

    #[test]
    fn nesting_is_bounded() {
        let brackets = |n| format!("{}r1{}", "[".repeat(n), "]".repeat(n));
        let shifts = |n| format!("{}r1", "lsl ".repeat(n));
        let parse = |s: &str| parse_operand(s, &Regs, &syms(), &mut Vec::new()).map(|_| ());
        assert_eq!(parse(&brackets(MAX_NESTING)), Ok(()));
        assert_eq!(parse(&shifts(MAX_NESTING)), Ok(()));
        assert_eq!(parse(&format!("[{}]", shifts(MAX_NESTING - 1))), Ok(()));
        let deep = Err("operand nested too deeply".to_string());
        for n in [MAX_NESTING + 1, 100_000] {
            assert_eq!(parse(&brackets(n)), deep);
            assert_eq!(parse(&shifts(n)), deep);
        }
        assert_eq!(parse(&format!("[{}]", shifts(MAX_NESTING))), deep);
        let expr = format!("#{}1", "-".repeat(100_000));
        assert_eq!(parse(&expr), Err("expression nested too deeply".to_string()));
    }

    #[test]
    fn string_literals() {
        let string = |s| {
            let mut out = Vec::new();
            parse_string(s, |b| out.push(b)).map(|()| out)
        };
        assert_eq!(string(r#""hi\n""#).unwrap(), b"hi\n");
        assert_eq!(string(r#""a\"b""#).unwrap(), b"a\"b");
        assert!(string("unquoted").is_err());
    }

    #[test]
    fn lines_split_as_str_lines_does() {
        let srcs =
            ["", "\n", "a", "a\n", "a\r\nb\r", "a\n\nb\n", "\r\n\r", "x ; c\r\n", "'\\\n;'\n"];
        for src in srcs {
            let lines: Vec<_> = (Lines { rest: src }).collect();
            let want: Vec<_> = src.lines().map(|l| strip_comment(l, 0)).collect();
            assert_eq!(lines, want, "{src:?}");
        }
        let strip = |l| strip_comment(l, 0);
        assert_eq!(strip("a ; b"), "a ");
        assert_eq!(strip("a // b"), "a ");
        assert_eq!(strip("a / b"), "a / b");
        assert_eq!(strip(".ascii \"x;\\\"y\" ; z"), ".ascii \"x;\\\"y\" ");
        assert_eq!(strip("'\\'' ; c"), "'\\'' ");
    }

    #[test]
    fn lower_borrows_when_it_can() {
        let mut buf = [0; 16];
        assert!(matches!(lower("addq", &mut buf), Cow::Borrowed("addq")));
        assert_eq!(lower("ADDq", &mut buf), "addq");
        assert!(matches!(lower(&"X".repeat(17), &mut buf), Cow::Owned(s) if s == "x".repeat(17)));
    }

    #[test]
    fn accessors() {
        assert_eq!(Operand::Imm(3).imm(), Some(3));
        assert_eq!(Operand::Reg(reg("r1", 1)).reg(), Some(1));
        assert_eq!(Operand::Reg(Reg { name: "cr1", num: 1, other: true }).reg(), None);
        assert_eq!(Operand::Imm(3).reg(), None);
    }
}

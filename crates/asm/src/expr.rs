//! Constant-expression evaluation with symbols.
//!
//! Grammar (standard precedence):
//!
//! ```text
//! expr   := term (('+' | '-' | '|' | '&' | '^') term)*
//! term   := factor (('*' | '/' | '%' | "<<" | ">>") factor)*
//! factor := number | symbol | func '(' expr ')' | '(' expr ')' | '-' factor | '~' factor
//! ```
//!
//! Arithmetic wraps at 64 bits; only a zero divisor is an error. Numbers may
//! be decimal, `0x` hex, `0b` binary, or character literals (`'a'`), and are
//! read in place, as are symbol names. The functions `hi16`, `lo16`,
//! `slo16`, and `ha16` extract halves of an address (`ha16` is the PowerPC
//! "high adjusted" form that compensates for the sign of the low half).

use lis_mem::FxBuildHasher;
use std::collections::HashMap;

/// Symbol table mapping labels and `.equ` names, borrowed from the source,
/// to values.
pub type SymTab<'a> = HashMap<&'a str, u64, FxBuildHasher>;

/// Evaluates `src` against `syms`.
///
/// # Errors
///
/// Returns a message describing the first syntax error, an expression
/// nested too deeply, or (when `require_symbols` is true) an unknown symbol.
/// With `require_symbols` false, unknown symbols evaluate to 0.
pub fn eval(src: &str, syms: &SymTab<'_>, require_symbols: bool) -> Result<i64, String> {
    let mut p = Parser { src, s: src.as_bytes(), pos: 0, depth: 0, syms, require_symbols };
    let v = p.expr()?;
    p.skip_ws();
    if p.pos != p.s.len() {
        return Err(format!("trailing input in expression `{src}`"));
    }
    Ok(v)
}

/// How deeply an expression (in `-`, `~`, `(` and function calls) or an
/// operand (in brackets and shifts) may nest. Far deeper than any real
/// source, and shallow enough that parsing it takes a small part of any
/// thread's stack: deeper nesting is an error, not a stack overflow that
/// would abort the whole process.
pub(crate) const MAX_NESTING: usize = 64;

struct Parser<'a> {
    src: &'a str,
    s: &'a [u8],
    pos: usize,
    /// How many factors enclose the one being read.
    depth: usize,
    syms: &'a SymTab<'a>,
    require_symbols: bool,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.pos < self.s.len() && self.s[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.s.get(self.pos).copied()
    }

    fn eat(&mut self, c: u8) -> bool {
        if self.peek() == Some(c) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expr(&mut self) -> Result<i64, String> {
        let mut v = self.term()?;
        loop {
            match self.peek() {
                Some(b'+') => {
                    self.pos += 1;
                    v = v.wrapping_add(self.term()?);
                }
                Some(b'-') => {
                    self.pos += 1;
                    v = v.wrapping_sub(self.term()?);
                }
                Some(b'|') => {
                    self.pos += 1;
                    v |= self.term()?;
                }
                Some(b'&') => {
                    self.pos += 1;
                    v &= self.term()?;
                }
                Some(b'^') => {
                    self.pos += 1;
                    v ^= self.term()?;
                }
                _ => return Ok(v),
            }
        }
    }

    fn term(&mut self) -> Result<i64, String> {
        let mut v = self.factor()?;
        loop {
            self.skip_ws();
            if self.s[self.pos..].starts_with(b"<<") {
                self.pos += 2;
                v = v.wrapping_shl(self.factor()? as u32);
            } else if self.s[self.pos..].starts_with(b">>") {
                self.pos += 2;
                v = ((v as u64) >> (self.factor()? as u32 & 63)) as i64;
            } else {
                match self.peek() {
                    Some(b'*') => {
                        self.pos += 1;
                        v = v.wrapping_mul(self.factor()?);
                    }
                    Some(b'/') => {
                        self.pos += 1;
                        let d = self.factor()?;
                        if d == 0 {
                            return Err("division by zero in expression".into());
                        }
                        v = v.wrapping_div(d);
                    }
                    Some(b'%') => {
                        self.pos += 1;
                        let d = self.factor()?;
                        if d == 0 {
                            return Err("modulo by zero in expression".into());
                        }
                        v = v.wrapping_rem(d);
                    }
                    _ => return Ok(v),
                }
            }
        }
    }

    fn factor(&mut self) -> Result<i64, String> {
        if self.depth > MAX_NESTING {
            return Err("expression nested too deeply".into());
        }
        self.depth += 1;
        let v = match self.peek() {
            Some(b'-') => {
                self.pos += 1;
                Ok(self.factor()?.wrapping_neg())
            }
            Some(b'~') => {
                self.pos += 1;
                Ok(!self.factor()?)
            }
            Some(b'(') => {
                self.pos += 1;
                let v = self.expr()?;
                if !self.eat(b')') {
                    return Err("missing `)`".into());
                }
                Ok(v)
            }
            Some(b'\'') => self.char_lit(),
            Some(c) if c.is_ascii_digit() => self.number(),
            Some(c) if c == b'_' || c == b'.' || c.is_ascii_alphabetic() => self.symbol_or_func(),
            other => Err(match other {
                Some(c) => format!("unexpected `{}` in expression", c as char),
                None => "unexpected end of expression".into(),
            }),
        };
        self.depth -= 1;
        v
    }

    fn char_lit(&mut self) -> Result<i64, String> {
        // self.peek() already saw the quote
        self.pos += 1;
        let c = *self.s.get(self.pos).ok_or("unterminated char literal")?;
        let v = if c == b'\\' {
            self.pos += 1;
            match self.s.get(self.pos) {
                Some(b'n') => b'\n',
                Some(b't') => b'\t',
                Some(b'0') => 0,
                Some(b'\\') => b'\\',
                Some(b'\'') => b'\'',
                _ => return Err("bad escape in char literal".into()),
            }
        } else {
            c
        };
        self.pos += 1;
        if !self.eat(b'\'') {
            return Err("unterminated char literal".into());
        }
        Ok(v as i64)
    }

    fn number(&mut self) -> Result<i64, String> {
        let start = self.pos;
        let radix = match self.s.get(self.pos..self.pos + 2) {
            Some(b"0x" | b"0X") => 16,
            Some(b"0b" | b"0B") => 2,
            _ => 10,
        };
        if radix != 10 {
            self.pos += 2;
        }
        // Every letter, digit and `_` belongs to the number; `_` separates.
        let mut v = Some(0u64);
        let mut digits = 0;
        while let Some(&c) =
            self.s.get(self.pos).filter(|c| c.is_ascii_alphanumeric() || **c == b'_')
        {
            self.pos += 1;
            if c != b'_' {
                digits += 1;
                v = (char::from(c).to_digit(radix))
                    .and_then(|d| v?.checked_mul(radix.into())?.checked_add(d.into()));
            }
        }
        match v {
            Some(v) if digits > 0 => Ok(v as i64),
            _ => Err(format!("bad number `{}`", &self.src[start..self.pos])),
        }
    }

    fn symbol_or_func(&mut self) -> Result<i64, String> {
        let start = self.pos;
        while self.pos < self.s.len()
            && (self.s[self.pos].is_ascii_alphanumeric()
                || self.s[self.pos] == b'_'
                || self.s[self.pos] == b'.'
                || self.s[self.pos] == b'$')
        {
            self.pos += 1;
        }
        let name = &self.src[start..self.pos];
        if self.peek() == Some(b'(') {
            self.pos += 1;
            let arg = self.expr()?;
            if !self.eat(b')') {
                return Err("missing `)` after function argument".into());
            }
            return match name {
                "hi16" => Ok(((arg as u64 >> 16) & 0xffff) as i64),
                "lo16" => Ok((arg as u64 & 0xffff) as i64),
                "slo16" => Ok((arg as u64 & 0xffff) as u16 as i16 as i64),
                // High-adjusted: compensates for the low half being
                // sign-extended by a following addi/lwz.
                "ha16" => Ok((((arg as u64).wrapping_add(0x8000) >> 16) & 0xffff) as i64),
                _ => Err(format!("unknown function `{name}`")),
            };
        }
        match self.syms.get(name) {
            Some(&v) => Ok(v as i64),
            None if !self.require_symbols => Ok(0),
            None => Err(format!("undefined symbol `{name}`")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn syms() -> SymTab<'static> {
        [("base", 0x12345u64), ("n", 10u64)].into_iter().collect()
    }

    #[test]
    fn arithmetic_and_precedence() {
        let s = SymTab::default();
        assert_eq!(eval("1+2*3", &s, true).unwrap(), 7);
        assert_eq!(eval("(1+2)*3", &s, true).unwrap(), 9);
        assert_eq!(eval("-4+1", &s, true).unwrap(), -3);
        assert_eq!(eval("10/3", &s, true).unwrap(), 3);
        assert_eq!(eval("10%3", &s, true).unwrap(), 1);
        assert_eq!(eval("1<<4 | 2", &s, true).unwrap(), 18);
        assert_eq!(eval("0xff & 0x0f", &s, true).unwrap(), 0xf);
        assert_eq!(eval("~0 ^ -1", &s, true).unwrap(), 0);
    }

    #[test]
    fn radix_and_chars() {
        let s = SymTab::default();
        assert_eq!(eval("0x10", &s, true).unwrap(), 16);
        assert_eq!(eval("0b101", &s, true).unwrap(), 5);
        assert_eq!(eval("1_000", &s, true).unwrap(), 1000);
        assert_eq!(eval("'a'", &s, true).unwrap(), 97);
        assert_eq!(eval("'\\n'", &s, true).unwrap(), 10);
    }

    #[test]
    fn symbols_resolve() {
        assert_eq!(eval("base+4*n", &syms(), true).unwrap(), 0x12345 + 40);
        assert!(eval("missing", &syms(), true).is_err());
        assert_eq!(eval("missing", &syms(), false).unwrap(), 0);
    }

    #[test]
    fn half_functions() {
        let s = syms();
        assert_eq!(eval("hi16(base)", &s, true).unwrap(), 0x1);
        assert_eq!(eval("lo16(base)", &s, true).unwrap(), 0x2345);
        // ha16 compensates when the low half is negative as i16.
        assert_eq!(eval("ha16(0x1_8000)", &s, true).unwrap(), 0x2);
        assert_eq!(eval("ha16(0x1_7fff)", &s, true).unwrap(), 0x1);
        assert_eq!(eval("slo16(0x1_8001)", &s, true).unwrap(), -0x7fff);
        assert_eq!(eval("slo16(0x1_0001)", &s, true).unwrap(), 1);
        // ha16/slo16 compose: (ha16 << 16) + slo16 == original (mod 2^32).
        for v in [0x1_8000i64, 0x1_7fffi64, 0x2_0000i64] {
            let hi = eval(&format!("ha16({v})"), &s, true).unwrap();
            let lo = eval(&format!("slo16({v})"), &s, true).unwrap();
            assert_eq!((hi << 16) + lo, v);
        }
    }

    #[test]
    fn errors_are_descriptive() {
        let s = SymTab::default();
        assert!(eval("1+", &s, true).unwrap_err().contains("unexpected end"));
        assert!(eval("(1", &s, true).unwrap_err().contains(")"));
        assert!(eval("1/0", &s, true).unwrap_err().contains("division"));
        assert!(eval("1 2", &s, true).unwrap_err().contains("trailing"));
        assert!(eval("foo(1)", &s, true).unwrap_err().contains("unknown function"));
        assert!(eval("1%0", &s, true).unwrap_err().contains("modulo by zero"));
        assert_eq!(eval("0x1g", &s, true).unwrap_err(), "bad number `0x1g`");
        assert_eq!(eval("0x", &s, true).unwrap_err(), "bad number `0x`");
        assert_eq!(eval("0b_", &s, true).unwrap_err(), "bad number `0b_`");
        assert_eq!(eval("0b12", &s, true).unwrap_err(), "bad number `0b12`");
        let overflow = eval("18446744073709551616", &s, true).unwrap_err();
        assert_eq!(overflow, "bad number `18446744073709551616`");
        assert_eq!(eval("18446744073709551615", &s, true).unwrap(), -1);
        assert_eq!(eval("-", &s, true).unwrap_err(), "unexpected end of expression");
        assert_eq!(eval("$x", &s, true).unwrap_err(), "unexpected `$` in expression");
        assert_eq!(eval("nope", &s, true).unwrap_err(), "undefined symbol `nope`");
    }

    #[test]
    fn nesting_is_bounded() {
        let s = syms();
        let nested = |open: &str, close: &str, n| format!("{}n{}", open.repeat(n), close.repeat(n));
        assert_eq!(eval(&nested("-", "", MAX_NESTING), &s, true).unwrap(), 10);
        assert_eq!(eval(&nested("(", ")", MAX_NESTING), &s, true).unwrap(), 10);
        assert_eq!(eval(&nested("lo16(", ")", MAX_NESTING), &s, true).unwrap(), 10);
        assert_eq!(eval(&nested("~-", "", MAX_NESTING / 2), &s, true).unwrap(), 10 - 32);
        let deep = "expression nested too deeply";
        for (open, close) in [("-", ""), ("~", ""), ("(", ")"), ("hi16(", ")")] {
            assert_eq!(eval(&nested(open, close, MAX_NESTING + 1), &s, true).unwrap_err(), deep);
            // Far deeper than a thread's stack could recurse.
            assert_eq!(eval(&nested(open, close, 100_000), &s, true).unwrap_err(), deep);
        }
        // Long but flat expressions are not nested.
        assert_eq!(eval(&vec!["n"; 10_000].join("+"), &s, true).unwrap(), 100_000);
    }

    #[test]
    fn division_and_remainder_wrap() {
        let s = SymTab::default();
        assert_eq!(eval("0x8000000000000000 / -1", &s, true).unwrap(), i64::MIN);
        assert_eq!(eval("0x8000000000000000 % -1", &s, true).unwrap(), 0);
        assert_eq!(eval("-7 / 2", &s, true).unwrap(), -3);
        assert_eq!(eval("-7 % 2", &s, true).unwrap(), -1);
        assert_eq!(eval("7 % -2", &s, true).unwrap(), 1);
        assert!(eval("0x8000000000000000 / 0", &s, true).unwrap_err().contains("division"));
    }
}

//! A minimal recursive-descent JSON reader for protocol frames.
//!
//! The workspace writes JSON with [`lis_core::JsonObj`] but has never needed
//! to *read* any until the service protocol arrived; this parser is the
//! read half. It is deliberately strict (no trailing garbage, no unpaired
//! surrogates smuggled through `\u` escapes silently — they decode to
//! U+FFFD) and hardened the way the trace reader is: bounded depth, every
//! error a typed offset-carrying value, never a panic on hostile input.

/// Maximum nesting depth accepted before a frame is rejected as hostile.
pub const MAX_DEPTH: usize = 64;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (the protocol only uses integers that fit in `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in source order (duplicate keys keep the last value on
    /// lookup, matching common parser behavior).
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Object field lookup (last occurrence wins).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload as a non-negative integer, if it is one exactly.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The array items, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// A parse failure: what went wrong and the byte offset it went wrong at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input.
    pub offset: usize,
    /// Human-readable description.
    pub msg: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "byte {}: {}", self.offset, self.msg)
    }
}

impl std::error::Error for JsonError {}

/// Parses one complete JSON value; trailing non-whitespace is an error.
///
/// # Errors
///
/// A [`JsonError`] with the byte offset of the first problem.
pub fn parse(input: &str) -> Result<Value, JsonError> {
    let mut p = Parser { src: input, bytes: input.as_bytes(), pos: 0 };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after value"));
    }
    Ok(v)
}

struct Parser<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> JsonError {
        JsonError { offset: self.pos, msg: msg.to_string() }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii digits");
        match text.parse::<f64>() {
            Ok(n) if n.is_finite() => Ok(Value::Num(n)),
            _ => {
                self.pos = start;
                Err(self.err("malformed number"))
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => out.push(self.unicode_escape()?),
                        _ => {
                            self.pos -= 1;
                            return Err(self.err("unknown escape"));
                        }
                    }
                }
                Some(c) if c < 0x20 => return Err(self.err("raw control character in string")),
                Some(_) => {
                    // Copy the whole run of unescaped bytes at once. A run
                    // ends on an ASCII byte (or the end of input), so both
                    // ends are char boundaries of the `&str` input.
                    let start = self.pos;
                    let run = self.bytes[start..]
                        .iter()
                        .position(|&c| c == b'"' || c == b'\\' || c < 0x20)
                        .unwrap_or(self.bytes.len() - start);
                    self.pos += run;
                    out.push_str(&self.src[start..self.pos]);
                }
            }
        }
    }

    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let hi = self.hex4()?;
        if (0xD800..0xDC00).contains(&hi) {
            // A high surrogate must be followed by `\u` + low surrogate.
            if self.bytes[self.pos..].starts_with(b"\\u") {
                self.pos += 2;
                let lo = self.hex4()?;
                if (0xDC00..0xE000).contains(&lo) {
                    let c = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                    return Ok(char::from_u32(c).unwrap_or('\u{FFFD}'));
                }
            }
            return Ok('\u{FFFD}');
        }
        Ok(char::from_u32(hi).unwrap_or('\u{FFFD}'))
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let b = self.peek().ok_or_else(|| self.err("truncated \\u escape"))?;
            let d = (b as char).to_digit(16).ok_or_else(|| self.err("bad \\u hex digit"))?;
            v = (v << 4) | d;
            self.pos += 1;
        }
        Ok(v)
    }

    fn object(&mut self, depth: usize) -> Result<Value, JsonError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let v = self.value(depth + 1)?;
            fields.push((key, v));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(fields));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Value, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_shapes_the_protocol_uses() {
        let v = parse(r#"{"lis":1,"id":7,"cmd":"run","full":true,"kernels":["gcd","fib"]}"#)
            .expect("parses");
        assert_eq!(v.get("lis").and_then(Value::as_u64), Some(1));
        assert_eq!(v.get("id").and_then(Value::as_u64), Some(7));
        assert_eq!(v.get("cmd").and_then(Value::as_str), Some("run"));
        assert_eq!(v.get("full").and_then(Value::as_bool), Some(true));
        let ks = v.get("kernels").and_then(Value::as_arr).expect("array");
        assert_eq!(ks.len(), 2);
        assert_eq!(ks[0].as_str(), Some("gcd"));
    }

    #[test]
    fn round_trips_jsonobj_output() {
        let mut o = lis_core::JsonObj::new();
        o.str("s", "a\"b\\c\nd\u{1F600}").u64("n", u64::MAX / 2).bool("b", false).f64("f", 1.5);
        let v = parse(&o.finish()).expect("parses our own writer");
        assert_eq!(v.get("s").and_then(Value::as_str), Some("a\"b\\c\nd\u{1F600}"));
        assert_eq!(v.get("b").and_then(Value::as_bool), Some(false));
        assert_eq!(v.get("f"), Some(&Value::Num(1.5)));
    }

    #[test]
    fn escapes_and_surrogates() {
        assert_eq!(parse(r#""\u0041\t""#).unwrap(), Value::Str("A\t".into()));
        assert_eq!(parse(r#""\ud83d\ude00""#).unwrap(), Value::Str("\u{1F600}".into()));
        // Lone surrogates decode to the replacement character, never panic.
        assert_eq!(parse(r#""\ud800x""#).unwrap(), Value::Str("\u{FFFD}x".into()));
    }

    #[test]
    fn hostile_inputs_error_and_never_panic() {
        for bad in [
            "",
            "{",
            "}",
            "[",
            "]",
            "{]",
            "nul",
            "tru",
            "+1",
            "1.2.3",
            "\"",
            "\"\\",
            "\"\\q\"",
            "\"\\u12\"",
            "{\"a\"}",
            "{\"a\":}",
            "{\"a\":1,}",
            "[1,]",
            "[1 2]",
            "{} {}",
            "01x",
            "\u{1}",
            "\"\u{1}\"",
            "--",
            "1e999",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must be rejected");
        }
        // Depth bomb: rejected, not a stack overflow.
        let bomb = "[".repeat(MAX_DEPTH + 2) + &"]".repeat(MAX_DEPTH + 2);
        let err = parse(&bomb).expect_err("depth bomb rejected");
        assert!(err.msg.contains("deep"), "{err}");
    }

    proptest::proptest! {
        /// Whatever `JsonObj` writes, `parse` reads back unchanged: plain
        /// runs, escapes, control characters and multi-byte characters in
        /// any mix.
        #[test]
        fn strings_round_trip_through_jsonobj(
            chars in proptest::collection::vec(
                proptest::sample::select(vec![
                    'a', 'Z', '0', ' ', '/', '~', '"', '\\', '\n', '\r', '\t', '\u{0}',
                    '\u{8}', '\u{c}', '\u{1f}', '\u{7f}', 'é', 'ß', '€', '\u{fffd}', '😀',
                    '\u{10ffff}',
                ]),
                0..48,
            )
        ) {
            let s: String = chars.into_iter().collect();
            let mut o = lis_core::JsonObj::new();
            o.str("s", &s);
            let v = parse(&o.finish()).expect("parses our own writer");
            proptest::prop_assert_eq!(v.get("s").and_then(Value::as_str), Some(s.as_str()));
        }
    }

    #[test]
    fn numbers_and_integer_views() {
        assert_eq!(parse("-3").unwrap(), Value::Num(-3.0));
        assert_eq!(parse("2.5").unwrap().as_u64(), None, "fractions are not integers");
        assert_eq!(parse("-1").unwrap().as_u64(), None, "negatives are not u64");
        assert_eq!(parse("100000000").unwrap().as_u64(), Some(100_000_000));
    }
}

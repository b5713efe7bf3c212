//! A minimal JSON codec for the wire protocol.
//!
//! The build is hermetic (no serde_json), so frames are parsed and
//! rendered by hand. One lexer holds the grammar. [`parse`] builds a
//! [`Value`] tree on it, which reads responses, metrics snapshots and
//! test fixtures; `protocol::parse_request` reads request frames on it
//! straight into their fields, without a tree, so a malformed request
//! fails with the same message at the same byte as [`parse`] would give.
//! Unlike the machine-written files the xtask auditor reads, frame
//! payloads arrive from the network, so the lexer is hardened: it never
//! panics (no indexing, no unwrap), bounds recursion with [`MAX_DEPTH`],
//! and reports typed errors that the server turns into protocol-level
//! error frames without dropping the connection.

use std::collections::BTreeMap;
use std::fmt;

/// Maximum nesting depth a payload may use. Deeper documents are
/// rejected before recursion can exhaust the stack.
pub const MAX_DEPTH: u32 = 64;

/// A parsed JSON value. Object keys are name-ordered so traversal and
/// re-rendering are deterministic regardless of wire order.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (stored as f64; protocol integers stay far inside
    /// f64's exact range).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object.
    Obj(BTreeMap<String, Value>),
}

impl Value {
    /// The object map, if this is an object.
    pub fn as_obj(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Obj(m) => Some(m),
            _ => None,
        }
    }

    /// The array items, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The number, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The number as u64, if this is a non-negative integral number.
    pub fn as_u64(&self) -> Option<u64> {
        self.as_f64().and_then(f64_as_u64)
    }

    /// The boolean, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The string, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// A parse failure, with the byte offset it was detected at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset into the payload.
    pub at: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.at)
    }
}

impl std::error::Error for ParseError {}

fn err(at: usize, message: impl Into<String>) -> ParseError {
    ParseError {
        at,
        message: message.into(),
    }
}

/// Parses one JSON document. Trailing whitespace is allowed; trailing
/// garbage is an error.
pub fn parse(bytes: &[u8]) -> Result<Value, ParseError> {
    let mut lex = Lexer::new(bytes);
    let value = parse_value(&mut lex, 0)?;
    lex.finish()?;
    Ok(value)
}

fn parse_value(lex: &mut Lexer<'_>, depth: u32) -> Result<Value, ParseError> {
    Ok(match lex.value_start(depth)? {
        Start::Object => {
            let mut map = BTreeMap::new();
            let mut first = true;
            while let Some(key) = lex.next_member(first)? {
                first = false;
                map.insert(key, parse_value(lex, depth + 1)?);
            }
            Value::Obj(map)
        }
        Start::Array => {
            let mut out = Vec::new();
            while lex.next_item(out.is_empty())? {
                out.push(parse_value(lex, depth + 1)?);
            }
            Value::Arr(out)
        }
        Start::Str => Value::Str(lex.string()?),
        Start::Number => Value::Num(lex.number()?),
        Start::Bool(b) => Value::Bool(b),
        Start::Null => Value::Null,
    })
}

/// `n` as a u64 when it is non-negative and whole. JSON has one number
/// type, so this is how every integer field reads its value.
pub(crate) fn f64_as_u64(n: f64) -> Option<u64> {
    (n >= 0.0 && n.fract() == 0.0 && n <= u64::MAX as f64).then_some(n as u64)
}

/// How a value begins, as [`Lexer::value_start`] found it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Start {
    /// `{`, consumed; step through it with [`Lexer::next_member`].
    Object,
    /// `[`, consumed; step through it with [`Lexer::next_item`].
    Array,
    /// A string, not consumed; read it with [`Lexer::string`].
    Str,
    /// A number, not consumed; read it with [`Lexer::number`].
    Number,
    /// `true` or `false`, consumed.
    Bool(bool),
    /// `null`, consumed.
    Null,
}

/// The one JSON grammar of this crate: whitespace, literals, strings and
/// their escapes, the number token, the punctuation between members and
/// items, the depth limit, and every [`ParseError`] with its offset.
/// [`parse`] builds a [`Value`] tree with it, and
/// [`crate::protocol::parse_request`] reads requests straight into their
/// fields with it, so both report the same error at the same byte for
/// the same malformed payload.
#[derive(Debug)]
pub(crate) struct Lexer<'a> {
    bytes: &'a Payload,
    pos: usize,
}

/// The bytes of one payload.
pub(crate) type Payload = [u8];

impl<'a> Lexer<'a> {
    /// A lexer at the start of `bytes`.
    pub(crate) fn new(bytes: &'a Payload) -> Self {
        Lexer { bytes, pos: 0 }
    }

    /// The bytes not yet read.
    pub(crate) fn rest(&self) -> &'a Payload {
        self.bytes.get(self.pos..).unwrap_or_default()
    }

    /// Marks the next `n` bytes of [`Lexer::rest`] read, for a caller that
    /// read a whole value from them.
    pub(crate) fn advance(&mut self, n: usize) {
        self.pos += n;
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(u8::is_ascii_whitespace)
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect_byte(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(err(self.pos, format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, word: &[u8]) -> bool {
        let found = self.bytes.get(self.pos..self.pos + word.len()) == Some(word);
        if found {
            self.pos += word.len();
        }
        found
    }

    /// Starts the value at nesting `depth` (the document is depth 0, and
    /// each object member or array item one deeper than its parent).
    pub(crate) fn value_start(&mut self, depth: u32) -> Result<Start, ParseError> {
        if depth > MAX_DEPTH {
            return Err(err(self.pos, "nesting too deep"));
        }
        self.skip_ws();
        let start = match self.peek() {
            Some(b'{') => Start::Object,
            Some(b'[') => Start::Array,
            Some(b'"') => return Ok(Start::Str),
            Some(b't') if self.literal(b"true") => return Ok(Start::Bool(true)),
            Some(b'f') if self.literal(b"false") => return Ok(Start::Bool(false)),
            Some(b'n') if self.literal(b"null") => return Ok(Start::Null),
            Some(c) if c.is_ascii_digit() || c == b'-' => return Ok(Start::Number),
            Some(c) => return Err(err(self.pos, format!("unexpected `{}`", c as char))),
            None => return Err(err(self.pos, "unexpected end of input")),
        };
        self.pos += 1;
        Ok(start)
    }

    /// Steps to the next member of an object: `first` right after its
    /// `{`, then after each member's value. Returns the member's key with
    /// its `:` consumed, or `None` once the closing `}` is consumed.
    pub(crate) fn next_member(&mut self, first: bool) -> Result<Option<String>, ParseError> {
        self.skip_ws();
        match self.peek() {
            Some(b'}') => {
                self.pos += 1;
                return Ok(None);
            }
            Some(b',') if !first => self.pos += 1,
            _ if first => {}
            _ => return Err(err(self.pos, "expected `,` or `}`")),
        }
        self.skip_ws();
        let key = self.string()?;
        self.skip_ws();
        self.expect_byte(b':')?;
        Ok(Some(key))
    }

    /// Steps to the next item of an array: `first` right after its `[`,
    /// then after each item. Returns whether an item follows, or `false`
    /// once the closing `]` is consumed.
    pub(crate) fn next_item(&mut self, first: bool) -> Result<bool, ParseError> {
        self.skip_ws();
        match self.peek() {
            Some(b']') => {
                self.pos += 1;
                Ok(false)
            }
            Some(b',') if !first => {
                self.pos += 1;
                Ok(true)
            }
            _ if first => Ok(true),
            _ => Err(err(self.pos, "expected `,` or `]`")),
        }
    }

    /// Reads the rest of a started value without keeping it.
    pub(crate) fn skip(&mut self, start: Start, depth: u32) -> Result<(), ParseError> {
        match start {
            Start::Object => {
                let mut first = true;
                while self.next_member(first)?.is_some() {
                    first = false;
                    self.skip_value(depth + 1)?;
                }
            }
            Start::Array => {
                let mut first = true;
                while self.next_item(first)? {
                    first = false;
                    self.skip_value(depth + 1)?;
                }
            }
            Start::Str => {
                self.string()?;
            }
            Start::Number => {
                self.number()?;
            }
            Start::Bool(_) | Start::Null => {}
        }
        Ok(())
    }

    /// Reads a whole value at nesting `depth` without keeping it.
    pub(crate) fn skip_value(&mut self, depth: u32) -> Result<(), ParseError> {
        let start = self.value_start(depth)?;
        self.skip(start, depth)
    }

    /// Ends the document: only whitespace may follow its value.
    pub(crate) fn finish(&mut self) -> Result<(), ParseError> {
        self.skip_ws();
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(err(self.pos, "trailing garbage"))
        }
    }

    /// Reads a string literal, unescaped.
    pub(crate) fn string(&mut self) -> Result<String, ParseError> {
        self.expect_byte(b'"')?;
        let mut out = Vec::new();
        while let Some(b) = self.peek() {
            self.pos += 1;
            match b {
                b'"' => {
                    return String::from_utf8(out)
                        .map_err(|_| err(self.pos, "invalid UTF-8 in string"))
                }
                b'\\' => {
                    let esc = self
                        .peek()
                        .ok_or_else(|| err(self.pos, "unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' | b'\\' | b'/' => out.push(esc),
                        b'n' => out.push(b'\n'),
                        b't' => out.push(b'\t'),
                        b'r' => out.push(b'\r'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| err(self.pos, "truncated \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| err(self.pos, "bad \\u escape"))?;
                            self.pos += 4;
                            // Protocol writers only escape BMP control
                            // characters, so no surrogate-pair handling;
                            // lone surrogates are rejected by from_u32.
                            let ch = char::from_u32(code)
                                .ok_or_else(|| err(self.pos, "bad \\u code point"))?;
                            let mut buf = [0u8; 4];
                            out.extend_from_slice(ch.encode_utf8(&mut buf).as_bytes());
                        }
                        other => {
                            return Err(err(
                                self.pos,
                                format!("unsupported escape `\\{}`", other as char),
                            ))
                        }
                    }
                }
                _ => out.push(b),
            }
        }
        Err(err(self.pos, "unterminated string"))
    }

    /// Reads a number token: an optional `-`, then the longest run of
    /// digits, `.`, `e`, `E`, `+` and `-`, which must spell a finite f64.
    /// A short plain decimal gets its value in the pass that finds the
    /// token's end ([`scan_number`]); any other spelling is left to
    /// `str::parse` over the same token.
    pub(crate) fn number(&mut self) -> Result<f64, ParseError> {
        let start = self.pos;
        let (len, plain) = scan_number(self.rest());
        self.pos += len;
        if let Some(n) = plain {
            return Ok(n);
        }
        self.bytes
            .get(start..self.pos)
            .and_then(|token| std::str::from_utf8(token).ok())
            .and_then(|s| s.parse::<f64>().ok())
            .filter(|n| n.is_finite())
            .ok_or_else(|| err(start, "bad number"))
    }
}

/// Powers of ten up to 10^15, each exact in an f64.
const POW10: [f64; 16] = [
    1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15,
];

/// Scans the number token at the start of `bytes`, an optional `-` and
/// then the longest run of digits, `.`, `e`, `E`, `+` and `-`, in one
/// pass. Returns the token's length and, when the token is a short plain
/// decimal, its value.
///
/// A short plain decimal is an optional `-`, digits, and optionally a `.`
/// followed by more digits, 15 digits in all at most. Such a number is
/// `m / 10^k` with `m < 10^15` and `k ≤ 15`, both exact in an f64, so the
/// one correctly rounded division gives the f64 `str::parse` gives, and
/// an integer is `m` itself. An exponent, a `+`, a sign after the first
/// byte, a 16th digit or a second dot makes the token another spelling,
/// which gets no value here.
pub(crate) fn scan_number(bytes: &[u8]) -> (usize, Option<f64>) {
    let negative = bytes.first() == Some(&b'-');
    let mut len = usize::from(negative);
    let (mut m, mut digits) = (0u64, 0usize);
    // How many digits came before the dot, once there is one.
    let mut dot: Option<usize> = None;
    let mut plain = true;
    while let Some(&b) = bytes.get(len) {
        match b {
            b'0'..=b'9' => {
                // Past 15 digits the token is not plain and `m` unused.
                if digits < 15 {
                    m = m * 10 + u64::from(b - b'0');
                }
                digits += 1;
            }
            b'.' if digits > 0 && dot.is_none() => dot = Some(digits),
            b'.' | b'e' | b'E' | b'+' | b'-' => plain = false,
            _ => break,
        }
        len += 1;
    }
    let fraction = digits - dot.unwrap_or(digits);
    if !plain || digits == 0 || digits > 15 || (dot.is_some() && fraction == 0) {
        return (len, None);
    }
    let n = match fraction {
        0 => Some(m as f64),
        k => POW10.get(k).map(|p| m as f64 / p),
    };
    (len, n.map(|n| if negative { -n } else { n }))
}

/// Renders a value as compact JSON. Deterministic: object keys are
/// emitted in name order (they are stored sorted) and numbers render via
/// Rust's shortest-round-trip formatting.
pub fn render(value: &Value) -> String {
    let mut out = String::new();
    render_into(value, &mut out);
    out
}

fn render_into(value: &Value, out: &mut String) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::Num(n) => render_f64(*n, out),
        Value::Str(s) => render_str(s, out),
        Value::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                render_into(item, out);
            }
            out.push(']');
        }
        Value::Obj(map) => {
            out.push('{');
            for (i, (k, v)) in map.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                render_str(k, out);
                out.push(':');
                render_into(v, out);
            }
            out.push('}');
        }
    }
}

/// Renders a finite f64 the way the transcript writers do (non-finite
/// values have no JSON spelling and render as `null`).
pub fn render_f64(n: f64, out: &mut String) {
    use std::fmt::Write as _;
    if n.is_finite() {
        let _ = write!(out, "{n}");
    } else {
        out.push_str("null");
    }
}

/// Renders a JSON string literal with the escapes the parser accepts.
pub fn render_str(s: &str, out: &mut String) {
    use std::fmt::Write as _;
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_protocol_shapes() {
        let v = parse(
            br#"{"op":"reading","second":12,"readings":[[0,3],[1,7]],"x":-2.5,"ok":true,"none":null}"#,
        )
        .expect("parses");
        let obj = v.as_obj().unwrap();
        assert_eq!(obj["op"].as_str(), Some("reading"));
        assert_eq!(obj["second"].as_u64(), Some(12));
        assert_eq!(obj["x"].as_f64(), Some(-2.5));
        let rendered = render(&v);
        assert_eq!(parse(rendered.as_bytes()).unwrap(), v);
    }

    #[test]
    fn rejects_garbage_with_positions() {
        assert!(parse(b"{").is_err());
        assert!(parse(b"{} trailing").is_err());
        assert!(parse(b"\"unterminated").is_err());
        assert!(parse(b"nul").is_err());
        assert!(parse(b"1e999").is_err(), "non-finite numbers rejected");
        assert!(parse(b"[1,]").is_err());
        let e = parse(b"  !").unwrap_err();
        assert_eq!(e.at, 2);
    }

    #[test]
    fn depth_limit_blocks_stack_exhaustion() {
        let deep: Vec<u8> = std::iter::repeat_n(b'[', 10_000)
            .chain(std::iter::repeat_n(b']', 10_000))
            .collect();
        let e = parse(&deep).unwrap_err();
        assert!(e.message.contains("deep"));
        // Well inside the limit is fine.
        let ok = parse(b"[[[[[[[[[[1]]]]]]]]]]").unwrap();
        assert!(matches!(ok, Value::Arr(_)));
    }

    /// The number reader before [`scan_number`], kept as its reference:
    /// [`Lexer::number`] found the token's end, then [`short_decimal`]
    /// read the token again, and `str::parse` read any other spelling.
    fn two_pass_number(lex: &mut Lexer<'_>) -> Result<f64, ParseError> {
        let start = lex.pos;
        if lex.peek() == Some(b'-') {
            lex.pos += 1;
        }
        while lex
            .peek()
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            lex.pos += 1;
        }
        let token = lex.bytes.get(start..lex.pos).unwrap_or_default();
        short_decimal(token)
            .or_else(|| {
                std::str::from_utf8(token)
                    .ok()
                    .and_then(|s| s.parse::<f64>().ok())
            })
            .filter(|n| n.is_finite())
            .ok_or_else(|| err(start, "bad number"))
    }

    /// The value of a short plain decimal token, `None` for any other.
    fn short_decimal(token: &[u8]) -> Option<f64> {
        let (sign, body) = match token.split_first() {
            Some((b'-', rest)) => (-1.0, rest),
            _ => (1.0, token),
        };
        let (mut m, mut digits) = (0u64, 0usize);
        // Digits after the dot, once there is one.
        let mut scale: Option<usize> = None;
        for &b in body {
            match b {
                b'0'..=b'9' if digits < 15 => {
                    m = m * 10 + u64::from(b - b'0');
                    digits += 1;
                    if let Some(k) = scale.as_mut() {
                        *k += 1;
                    }
                }
                b'.' if digits > 0 && scale.is_none() => scale = Some(0),
                _ => return None,
            }
        }
        if digits == 0 || scale == Some(0) {
            return None;
        }
        Some(sign * (m as f64 / POW10.get(scale.unwrap_or(0))?))
    }

    /// The plain value [`scan_number`] gives a whole token, if any.
    fn plain_value(token: &str) -> Option<f64> {
        let (len, n) = scan_number(token.as_bytes());
        assert_eq!(len, token.len(), "{token}");
        n
    }

    /// A decimal token from digit choices: `int` digits, then `frac`
    /// digits after a dot when there are any.
    fn decimal_token(negative: bool, digits: &[u8], int: usize) -> String {
        let digit = |d: &u8| char::from(b'0' + d % 10);
        let mut token = String::from(if negative { "-" } else { "" });
        token.extend(digits.iter().take(int.max(1)).map(digit));
        if digits.len() > int.max(1) {
            token.push('.');
            token.extend(digits.iter().skip(int.max(1)).map(digit));
        }
        token
    }

    /// The bytes number tokens are drawn from, digits weighted up so that
    /// short plain decimals are common.
    const TOKEN_BYTES: &[u8] = b"01234567890123456789..--eE+";

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(2000))]

        /// Up to 15 digits, the plain value is bit-equal to `str::parse`.
        #[test]
        fn short_decimals_equal_str_parse(
            negative in 0u8..2,
            digits in proptest::collection::vec(0u8..10, 1..16),
            int in 0usize..16,
        ) {
            let token = decimal_token(negative == 1, &digits, int);
            let fast = plain_value(&token).map(f64::to_bits);
            proptest::prop_assert_eq!(fast, token.parse::<f64>().ok().map(f64::to_bits), "{}", token);
        }

        /// Past 15 digits the scan gives no value and `str::parse` decides.
        #[test]
        fn long_decimals_are_left_to_str_parse(
            negative in 0u8..2,
            digits in proptest::collection::vec(0u8..10, 16..24),
            int in 0usize..24,
        ) {
            let token = decimal_token(negative == 1, &digits, int);
            proptest::prop_assert_eq!(plain_value(&token), None, "{}", token);
            let parsed = parse(token.as_bytes()).ok().and_then(|v| v.as_f64());
            proptest::prop_assert_eq!(
                parsed.map(f64::to_bits),
                token.parse::<f64>().ok().map(f64::to_bits),
                "{}",
                token
            );
        }

        /// The one-pass reader and the two-pass reference agree on tokens
        /// of `0-9 . e E + -` followed by any bytes, read from an offset:
        /// the same f64 bits or the same error at the same byte, and the
        /// same end.
        #[test]
        fn one_pass_numbers_equal_the_two_pass_reference(
            lead in proptest::collection::vec(0u8..=255u8, 0..3),
            token in proptest::collection::vec(0usize..TOKEN_BYTES.len(), 0..24),
            tail in proptest::collection::vec(0u8..=255u8, 0..4),
        ) {
            let mut payload = lead.clone();
            payload.extend(token.iter().filter_map(|&i| TOKEN_BYTES.get(i)));
            payload.extend(&tail);
            let mut fused = Lexer { bytes: &payload, pos: lead.len() };
            let mut reference = Lexer { bytes: &payload, pos: lead.len() };
            let got = fused.number().map(f64::to_bits);
            let want = two_pass_number(&mut reference).map(f64::to_bits);
            proptest::prop_assert_eq!(got, want, "{}", payload.escape_ascii());
            proptest::prop_assert_eq!(fused.pos, reference.pos, "{}", payload.escape_ascii());
        }
    }

    #[test]
    fn other_number_spellings_are_left_to_str_parse() {
        for token in [
            "1.", ".5", "1e5", "1E-2", "-.5", "1.2.3", "-", "", "+1", "1-2", "--1",
        ] {
            assert_eq!(plain_value(token), None, "{token}");
        }
        assert_eq!(
            plain_value("-0").map(f64::to_bits),
            Some((-0.0f64).to_bits())
        );
        assert_eq!(plain_value("007"), Some(7.0));
        assert_eq!(plain_value("123456789012345"), Some(123_456_789_012_345.0));
        assert_eq!(plain_value("1234567890123456"), None);
        // The token ends at the first byte that cannot continue it.
        assert_eq!(scan_number(b"61.05,123,4]"), (5, Some(61.05)));
        assert_eq!(scan_number(b"2e0,1"), (3, None));
        assert_eq!(scan_number(b"x"), (0, None));
    }

    #[test]
    fn strings_escape_and_unescape() {
        let v = Value::Str("a\"b\\c\nd\u{1}".to_string());
        let r = render(&v);
        assert_eq!(parse(r.as_bytes()).unwrap(), v);
        assert!(r.contains("\\u0001"));
    }
}

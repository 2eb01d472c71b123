//! The workspace's one JSON codec (no external dependencies).
//!
//! Two users share it. The trace sink writes one flat object per line from
//! typed [`Value`]s; the `omnet serve` wire protocol renders and parses
//! whole documents as [`Json`] trees. Both go through the same string
//! escaper and the same `f64` formatter, so a string or a float is spelled
//! identically in a trace line and in a wire frame.
//!
//! Numeric fidelity is load-bearing for the wire: finite `f64`s are written
//! with Rust's shortest-roundtrip formatting and parse back exactly, and
//! parsed numbers keep their raw token so a `u64` never passes through an
//! `f64`. Non-finite floats serialize as `null` — JSON has no NaN/Infinity
//! literals.

use std::fmt;
use std::fmt::Write as _;

/// A typed field value carried by spans and events.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point; non-finite values serialize as `null`.
    F64(f64),
    /// Boolean.
    Bool(bool),
    /// String (escaped on write).
    Str(String),
}

impl From<u64> for Value {
    fn from(v: u64) -> Value {
        Value::U64(v)
    }
}

impl From<u32> for Value {
    fn from(v: u32) -> Value {
        Value::U64(v as u64)
    }
}

impl From<usize> for Value {
    fn from(v: usize) -> Value {
        Value::U64(v as u64)
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Value {
        Value::I64(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Value::F64(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::Str(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::Str(v)
    }
}

/// Appends `s` as a JSON string literal (quotes and escapes included).
pub(crate) fn push_str(buf: &mut String, s: &str) {
    buf.push('"');
    for c in s.chars() {
        match c {
            '"' => buf.push_str("\\\""),
            '\\' => buf.push_str("\\\\"),
            '\n' => buf.push_str("\\n"),
            '\r' => buf.push_str("\\r"),
            '\t' => buf.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(buf, "\\u{:04x}", c as u32);
            }
            c => buf.push(c),
        }
    }
    buf.push('"');
}

/// Appends a finite `f64` as a JSON number (`null` when non-finite —
/// JSON has no NaN/Infinity literals).
pub(crate) fn push_f64(buf: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(buf, "{v}");
    } else {
        buf.push_str("null");
    }
}

/// Appends one typed value.
pub(crate) fn push_value(buf: &mut String, v: &Value) {
    match v {
        Value::U64(x) => {
            let _ = write!(buf, "{x}");
        }
        Value::I64(x) => {
            let _ = write!(buf, "{x}");
        }
        Value::F64(x) => push_f64(buf, *x),
        Value::Bool(x) => buf.push_str(if *x { "true" } else { "false" }),
        Value::Str(s) => push_str(buf, s),
    }
}

/// A parsed or to-be-rendered JSON document. Numbers keep their raw
/// source token so integers round-trip at full `u64` precision and floats
/// at full shortest-form fidelity — nothing is funneled through a lossy
/// intermediate.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as its raw token (e.g. `-1.5e3`, `18446744073709551615`).
    Num(String),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An unsigned integer token.
    pub fn u64(v: u64) -> Json {
        Json::Num(v.to_string())
    }

    /// An unsigned integer token.
    pub fn usize(v: usize) -> Json {
        Json::Num(v.to_string())
    }

    /// An unsigned integer token.
    pub fn u32(v: u32) -> Json {
        Json::Num(v.to_string())
    }

    /// A finite float as its shortest-roundtrip token; non-finite as `null`.
    pub fn f64(v: f64) -> Json {
        if v.is_finite() {
            let mut raw = String::new();
            push_f64(&mut raw, v);
            Json::Num(raw)
        } else {
            Json::Null
        }
    }

    /// A string.
    pub fn str(v: &str) -> Json {
        Json::Str(v.to_string())
    }

    /// Field lookup on an object; `None` on non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Serializes to compact JSON text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(raw) => out.push_str(raw),
            Json::Str(s) => push_str(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    push_str(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// Why [`parse`] rejected a document.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParseError {
    /// What the parser was reading when the bytes stopped being JSON.
    pub context: &'static str,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "malformed JSON: {}", self.context)
    }
}

impl std::error::Error for ParseError {}

/// Recursion ceiling for the parser — protocol messages are at most a few
/// levels deep, so anything deeper is garbage, not data.
const MAX_DEPTH: u32 = 32;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

fn malformed(context: &'static str) -> ParseError {
    ParseError { context }
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8, context: &'static str) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(malformed(context))
        }
    }

    fn eat_lit(&mut self, lit: &str, value: Json) -> Result<Json, ParseError> {
        let end = self.pos + lit.len();
        if self.bytes.get(self.pos..end) == Some(lit.as_bytes()) {
            self.pos = end;
            Ok(value)
        } else {
            Err(malformed("unknown literal"))
        }
    }

    fn value(&mut self, depth: u32) -> Result<Json, ParseError> {
        if depth > MAX_DEPTH {
            return Err(malformed("nesting too deep"));
        }
        self.skip_ws();
        match self.peek() {
            Some(b'n') => self.eat_lit("null", Json::Null),
            Some(b't') => self.eat_lit("true", Json::Bool(true)),
            Some(b'f') => self.eat_lit("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(malformed("unexpected byte")),
        }
    }

    fn array(&mut self, depth: u32) -> Result<Json, ParseError> {
        self.eat(b'[', "expected '['")?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(malformed("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self, depth: u32) -> Result<Json, ParseError> {
        self.eat(b'{', "expected '{'")?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':', "expected ':' after object key")?;
            let value = self.value(depth + 1)?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(malformed("expected ',' or '}' in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.eat(b'"', "expected '\"'")?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: run of plain bytes up to the next quote/escape.
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| malformed("invalid UTF-8 in string"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    self.escape(&mut out)?;
                }
                _ => return Err(malformed("unterminated string")),
            }
        }
    }

    fn escape(&mut self, out: &mut String) -> Result<(), ParseError> {
        let Some(b) = self.peek() else {
            return Err(malformed("truncated escape"));
        };
        self.pos += 1;
        match b {
            b'"' => out.push('"'),
            b'\\' => out.push('\\'),
            b'/' => out.push('/'),
            b'n' => out.push('\n'),
            b'r' => out.push('\r'),
            b't' => out.push('\t'),
            b'b' => out.push('\u{8}'),
            b'f' => out.push('\u{c}'),
            b'u' => {
                let hi = self.hex4()?;
                let code = if (0xD800..0xDC00).contains(&hi) {
                    // Surrogate pair: a second \uXXXX must follow.
                    if self.bytes.get(self.pos..self.pos + 2) != Some(b"\\u") {
                        return Err(malformed("lone high surrogate"));
                    }
                    self.pos += 2;
                    let lo = self.hex4()?;
                    if !(0xDC00..0xE000).contains(&lo) {
                        return Err(malformed("invalid low surrogate"));
                    }
                    0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                } else {
                    hi
                };
                out.push(char::from_u32(code).ok_or(malformed("invalid code point"))?);
            }
            _ => return Err(malformed("unknown escape")),
        }
        Ok(())
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let end = self.pos + 4;
        let chunk = self
            .bytes
            .get(self.pos..end)
            .ok_or(malformed("truncated \\u escape"))?;
        let s = std::str::from_utf8(chunk).map_err(|_| malformed("invalid \\u escape"))?;
        let v = u32::from_str_radix(s, 16).map_err(|_| malformed("invalid \\u escape"))?;
        self.pos = end;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let digits_from = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == digits_from {
            return Err(malformed("number without digits"));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            let frac_from = self.pos;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == frac_from {
                return Err(malformed("number with empty fraction"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            let exp_from = self.pos;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == exp_from {
                return Err(malformed("number with empty exponent"));
            }
        }
        // The slice is ASCII by construction.
        let raw = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| malformed("number token"))?;
        Ok(Json::Num(raw.to_string()))
    }
}

/// Parses one JSON document; trailing non-whitespace is rejected.
pub fn parse(bytes: &[u8]) -> Result<Json, ParseError> {
    let mut p = Parser { bytes, pos: 0 };
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != bytes.len() {
        return Err(malformed("trailing bytes after document"));
    }
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn render(v: Value) -> String {
        let mut buf = String::new();
        push_value(&mut buf, &v);
        buf
    }

    #[test]
    fn scalars_render_as_json() {
        assert_eq!(render(Value::from(7u64)), "7");
        assert_eq!(render(Value::from(-3i64)), "-3");
        assert_eq!(render(Value::from(1.5f64)), "1.5");
        assert_eq!(render(Value::from(true)), "true");
        assert_eq!(render(Value::from("plain")), "\"plain\"");
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(render(Value::from(f64::NAN)), "null");
        assert_eq!(render(Value::from(f64::INFINITY)), "null");
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(
            render(Value::from("a\"b\\c\nd\te\u{1}")),
            "\"a\\\"b\\\\c\\nd\\te\\u0001\""
        );
    }

    #[test]
    fn documents_parse_and_rerender() {
        let src =
            br#"{"a": [1, -2.5, 1e3], "b": "q\"\\\n\u0041\ud83d\ude00", "c": null, "d": true}"#;
        let v = parse(src).unwrap();
        assert_eq!(
            v.get("b"),
            Some(&Json::Str("q\"\\\nA\u{1F600}".to_string()))
        );
        // render → parse is the identity.
        assert_eq!(parse(v.render().as_bytes()).unwrap(), v);
    }

    #[test]
    fn parser_rejects_garbage() {
        for bad in [
            &b"{"[..],
            b"[1,]",
            b"{\"a\" 1}",
            b"nul",
            b"1.e3",
            b"--1",
            b"\"unterminated",
            b"{} trailing",
            b"\"\\ud800\"",
        ] {
            assert!(parse(bad).is_err(), "{:?}", String::from_utf8_lossy(bad));
        }
        let deep = "[".repeat(MAX_DEPTH as usize + 2);
        assert_eq!(
            parse(deep.as_bytes()).unwrap_err().context,
            "nesting too deep"
        );
    }

    #[test]
    fn trees_and_values_share_one_spelling() {
        for v in [0.1, 1.0 / 3.0, 1e300, f64::NAN, f64::INFINITY] {
            assert_eq!(Json::f64(v).render(), render(Value::from(v)));
        }
        let s = "a\"b\\c\nd\te\u{1}";
        assert_eq!(Json::str(s).render(), render(Value::from(s)));
    }
}

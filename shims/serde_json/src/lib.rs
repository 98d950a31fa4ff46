//! Vendored minimal stand-in for `serde_json`.
//!
//! Implements the slice of the serde_json API the workspace uses —
//! [`to_string`], [`to_string_pretty`], [`from_str`], and an [`Error`] type
//! that satisfies the serde shim's error traits — over the shim's
//! [`Value`] tree. The parser handles the full JSON grammar (strings with
//! escapes, nested arrays/objects, scientific-notation numbers, booleans,
//! null); the writer emits integers without a trailing `.0` so that
//! integer-typed fields round-trip cleanly.

#![deny(missing_docs)]

use std::fmt;

pub use serde::Value;

/// Errors from JSON serialization or deserialization.
#[derive(Debug, Clone)]
pub struct Error {
    message: String,
}

impl Error {
    fn new(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for Error {}

impl serde::ser::Error for Error {
    fn custom<T: fmt::Display>(msg: T) -> Self {
        Error::new(msg.to_string())
    }
}

impl serde::de::Error for Error {
    fn custom<T: fmt::Display>(msg: T) -> Self {
        Error::new(msg.to_string())
    }
}

/// Serializes `value` to a compact JSON string.
pub fn to_string<T: serde::Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let tree: Value = serde::to_value::<T, Error>(value)?;
    let mut out = String::new();
    write_value(&tree, None, 0, &mut out);
    Ok(out)
}

/// Serializes `value` to a human-readable, two-space-indented JSON string.
pub fn to_string_pretty<T: serde::Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let tree: Value = serde::to_value::<T, Error>(value)?;
    let mut out = String::new();
    write_value(&tree, Some(2), 0, &mut out);
    Ok(out)
}

/// Deserializes a value from a JSON string.
pub fn from_str<'de, T: serde::Deserialize<'de>>(input: &str) -> Result<T, Error> {
    let mut parser = Parser::new(input.as_bytes());
    parser.skip_whitespace();
    let value = parser.parse_value()?;
    parser.skip_whitespace();
    if parser.pos != parser.bytes.len() {
        return Err(Error::new(format!(
            "trailing characters at byte {}",
            parser.pos
        )));
    }
    serde::from_value::<T, Error>(value)
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

fn write_value(value: &Value, indent: Option<usize>, depth: usize, out: &mut String) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::Number(n) => write_number(*n, out),
        Value::String(s) => write_string(s, out),
        Value::Array(items) => write_compound(
            items.iter().map(|v| (None, v)),
            indent,
            depth,
            out,
            '[',
            ']',
        ),
        Value::Object(fields) => write_compound(
            fields.iter().map(|(k, v)| (Some(k.as_str()), v)),
            indent,
            depth,
            out,
            '{',
            '}',
        ),
    }
}

fn write_compound<'a, I>(
    items: I,
    indent: Option<usize>,
    depth: usize,
    out: &mut String,
    open: char,
    close: char,
) where
    I: ExactSizeIterator<Item = (Option<&'a str>, &'a Value)>,
{
    out.push(open);
    let len = items.len();
    if len == 0 {
        out.push(close);
        return;
    }
    for (i, (key, value)) in items.enumerate() {
        if let Some(width) = indent {
            out.push('\n');
            out.push_str(&" ".repeat(width * (depth + 1)));
        }
        if let Some(key) = key {
            write_string(key, out);
            out.push(':');
            if indent.is_some() {
                out.push(' ');
            }
        }
        write_value(value, indent, depth + 1, out);
        if i + 1 < len {
            out.push(',');
        }
    }
    if let Some(width) = indent {
        out.push('\n');
        out.push_str(&" ".repeat(width * depth));
    }
    out.push(close);
}

fn write_number(n: f64, out: &mut String) {
    if !n.is_finite() {
        // JSON has no Infinity/NaN; emit null exactly as real serde_json
        // does. Note this makes non-finite floats one-way: null does not
        // parse back into f64, so values that must round-trip need a
        // `#[serde(with = ...)]` sentinel (see TcpInfo::last_send_gap_s).
        out.push_str("null");
    } else if n == n.trunc() && n.abs() < 9.007_199_254_740_992e15 {
        out.push_str(&format!("{}", n as i64));
    } else {
        out.push_str(&format!("{n}"));
    }
}

fn write_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

/// Deepest array/object nesting the parser accepts, as in upstream
/// serde_json. The parser recurses once per level, so without a bound a
/// single line of `[[[[…` would overflow the thread's stack and abort the
/// whole process; past the bound it returns an [`Error`] instead.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open around `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Self {
            bytes,
            pos: 0,
            depth: 0,
        }
    }

    fn skip_whitespace(&mut self) {
        while self.pos < self.bytes.len()
            && matches!(self.bytes[self.pos], b' ' | b'\t' | b'\n' | b'\r')
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, byte: u8) -> Result<(), Error> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::new(format!(
                "expected `{}` at byte {}",
                byte as char, self.pos
            )))
        }
    }

    fn parse_value(&mut self) -> Result<Value, Error> {
        self.skip_whitespace();
        match self.peek() {
            Some(open @ (b'{' | b'[')) => {
                if self.depth == MAX_DEPTH {
                    return Err(Error::new(format!(
                        "recursion limit exceeded: more than {MAX_DEPTH} nested arrays or \
                         objects at byte {}",
                        self.pos
                    )));
                }
                self.depth += 1;
                let value = if open == b'{' {
                    self.parse_object()
                } else {
                    self.parse_array()
                };
                self.depth -= 1;
                value
            }
            Some(b'"') => Ok(Value::String(self.parse_string()?)),
            Some(b't') => self.parse_keyword("true", Value::Bool(true)),
            Some(b'f') => self.parse_keyword("false", Value::Bool(false)),
            Some(b'n') => self.parse_keyword("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.parse_number(),
            Some(c) => Err(Error::new(format!(
                "unexpected character `{}` at byte {}",
                c as char, self.pos
            ))),
            None => Err(Error::new("unexpected end of input")),
        }
    }

    fn parse_keyword(&mut self, word: &str, value: Value) -> Result<Value, Error> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(Error::new(format!("invalid literal at byte {}", self.pos)))
        }
    }

    fn parse_number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).expect("number bytes are ascii");
        text.parse::<f64>()
            .map(Value::Number)
            .map_err(|_| Error::new(format!("invalid number `{text}` at byte {start}")))
    }

    fn parse_string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: run of plain bytes.
            while matches!(self.peek(), Some(c) if c != b'"' && c != b'\\') {
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| Error::new("invalid utf-8 in string"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000C}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| Error::new("truncated \\u escape"))?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex)
                                    .map_err(|_| Error::new("invalid \\u escape"))?,
                                16,
                            )
                            .map_err(|_| Error::new("invalid \\u escape"))?;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| Error::new("invalid \\u code point"))?,
                            );
                            self.pos += 4;
                        }
                        other => {
                            return Err(Error::new(format!("invalid escape {other:?}")));
                        }
                    }
                    self.pos += 1;
                }
                _ => return Err(Error::new("unterminated string")),
            }
        }
    }

    fn parse_array(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => {
                    return Err(Error::new(format!(
                        "expected `,` or `]` at byte {}",
                        self.pos
                    )))
                }
            }
        }
    }

    fn parse_object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(fields));
        }
        loop {
            self.skip_whitespace();
            let key = self.parse_string()?;
            self.skip_whitespace();
            self.expect(b':')?;
            let value = self.parse_value()?;
            fields.push((key, value));
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                _ => {
                    return Err(Error::new(format!(
                        "expected `,` or `}}` at byte {}",
                        self.pos
                    )))
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_scalars_and_collections() {
        let v: Vec<f64> = from_str("[1, 2.5, -3e2]").unwrap();
        assert_eq!(v, vec![1.0, 2.5, -300.0]);
        let s: String = from_str("\"a\\nb\\u0041\"").unwrap();
        assert_eq!(s, "a\nbA");
        let none: Option<f64> = from_str("null").unwrap();
        assert_eq!(none, None);
        assert_eq!(to_string(&vec![1.0f64, 2.0]).unwrap(), "[1,2]");
    }

    #[test]
    fn pretty_output_is_reparsable() {
        let value = Value::Object(vec![
            ("name".to_owned(), Value::String("x".to_owned())),
            (
                "xs".to_owned(),
                Value::Array(vec![Value::Number(1.0), Value::Number(2.25)]),
            ),
            ("flag".to_owned(), Value::Bool(true)),
        ]);
        let mut out = String::new();
        write_value(&value, Some(2), 0, &mut out);
        let mut parser = Parser::new(out.as_bytes());
        let back = parser.parse_value().unwrap();
        assert_eq!(back, value);
    }

    #[test]
    fn nesting_is_bounded_by_a_typed_error() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(from_str::<Value>(&nested(MAX_DEPTH)).is_ok());
        let err = from_str::<Value>(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.to_string().contains("recursion limit"), "{err}");
        let objects = format!(
            "{}1{}",
            "{\"a\":".repeat(MAX_DEPTH + 1),
            "}".repeat(MAX_DEPTH + 1)
        );
        assert!(from_str::<Value>(&objects).is_err());
        // Unclosed, far past any stack: an error, not an abort.
        let deep = format!("{{\"query\": {}", "[".repeat(100_000));
        assert!(from_str::<Value>(&deep).is_err());
        assert!(from_str::<Value>(&"[".repeat(100_000)).is_err());
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(from_str::<f64>("1 junk").is_err());
    }

    #[test]
    fn integers_print_without_decimal_point() {
        let mut out = String::new();
        write_number(42.0, &mut out);
        assert_eq!(out, "42");
        out.clear();
        write_number(0.5, &mut out);
        assert_eq!(out, "0.5");
    }
}

//! Vendored minimal stand-in for `serde_json`.
//!
//! Implements the slice of the serde_json API the workspace uses —
//! [`to_writer`], [`to_string`], [`to_string_pretty`], [`from_str`], and
//! an [`Error`] type that satisfies the serde shim's error traits.
//!
//! Serialization streams: one serializer writes each `serialize_*` call a
//! `Serialize` impl makes straight into the output, compact or two-space
//! indented, with no intermediate tree. Integers of every width print
//! their exact digits, and so do integer-valued `f64`s below 2^53 (no
//! trailing `.0`); non-finite numbers print as `null`, and control
//! characters other than `\n`, `\r` and `\t` print as `\u00XX`.
//!
//! Deserialization decodes as it parses, with no intermediate tree: the
//! parser is the serde shim's pull `Deserializer`, so [`from_str`] reads
//! each value straight into the type that asks for it and matches struct
//! member names in place (a name without escapes is borrowed from the
//! input). It builds a [`Value`] only for `from_str::<Value>`, a `Value`
//! field, or a member a struct skips. Every path runs the same checks.
//! The parser follows RFC 8259: strings with escapes, including UTF-16
//! surrogate pairs; arrays and objects nested at most 128 deep; booleans;
//! null; and numbers by the RFC's grammar, so a leading zero (`01`), a
//! bare `.` (`1.`, `1.e5`) or an exponent without digits is an error, and
//! so is a number past the `f64` range (`1e309`), as upstream. An integer
//! type reads an integer literal from its digits, so one past the type's
//! range (`18446744073709551616` as a `u64`) is an error, not the nearest
//! `f64`.

#![deny(missing_docs)]

use std::fmt;
use std::io;

use serde::de::{Number, SeqAccess, SeqVisitor, StructAccess, StructVisitor, Visitor};
use serde::Deserialize;

pub use serde::Value;

/// Errors from JSON serialization or deserialization.
#[derive(Debug, Clone)]
pub struct Error {
    message: String,
    /// The kind of the I/O error a failed write raised, so
    /// `io::Error::from` gives it back.
    io: Option<io::ErrorKind>,
}

impl Error {
    fn new(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
            io: None,
        }
    }

    fn io(error: io::Error) -> Self {
        Self {
            message: error.to_string(),
            io: Some(error.kind()),
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

impl From<Error> for io::Error {
    /// A failed write converts back to an error of its own kind; any
    /// other error is `InvalidData`, as upstream.
    fn from(error: Error) -> Self {
        io::Error::new(
            error.io.unwrap_or(io::ErrorKind::InvalidData),
            error.message,
        )
    }
}

/// Serializes `value` as compact JSON into `writer`.
pub fn to_writer<W: io::Write, T: serde::Serialize + ?Sized>(
    writer: W,
    value: &T,
) -> Result<(), Error> {
    value.serialize(&mut Serializer::new(writer))
}

/// Serializes `value` to a compact JSON string.
pub fn to_string<T: serde::Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = Vec::with_capacity(128);
    value.serialize(&mut Serializer::new(&mut out))?;
    into_string(out)
}

/// Serializes `value` to a human-readable, two-space-indented JSON string.
pub fn to_string_pretty<T: serde::Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = Vec::with_capacity(128);
    value.serialize(&mut Serializer::pretty(&mut out))?;
    into_string(out)
}

/// The serializer writes only `&str` pieces and ASCII, so its output is
/// always UTF-8.
fn into_string(bytes: Vec<u8>) -> Result<String, Error> {
    String::from_utf8(bytes).map_err(|e| Error::new(e.to_string()))
}

/// Deserializes a value from a JSON string, decoding it as it parses.
pub fn from_str<'de, T: Deserialize<'de>>(input: &str) -> Result<T, Error> {
    let mut parser = Parser::new(input.as_bytes());
    let value = T::deserialize(&mut parser)?;
    parser.skip_whitespace();
    if parser.pos != parser.bytes.len() {
        return Err(Error::new(format!(
            "trailing characters at byte {}",
            parser.pos
        )));
    }
    Ok(value)
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// A JSON serializer that writes each `serialize_*` call straight into
/// `W`: compact ([`Serializer::new`]) or with every array element and
/// object member on its own two-space-indented line
/// ([`Serializer::pretty`]). Empty arrays and objects print as `[]` and
/// `{}` in both forms.
struct Serializer<W> {
    writer: W,
    pretty: bool,
    /// Arrays and objects open around the next value.
    depth: usize,
}

impl<W: io::Write> Serializer<W> {
    /// A serializer writing compact JSON.
    fn new(writer: W) -> Self {
        Self {
            writer,
            pretty: false,
            depth: 0,
        }
    }

    /// A serializer writing two-space-indented JSON.
    fn pretty(writer: W) -> Self {
        Self {
            writer,
            pretty: true,
            depth: 0,
        }
    }

    fn write(&mut self, bytes: &[u8]) -> Result<(), Error> {
        self.writer.write_all(bytes).map_err(Error::io)
    }

    /// A line break and the indentation of the current depth.
    fn newline(&mut self) -> Result<(), Error> {
        const SPACES: [u8; 64] = [b' '; 64];
        self.write(b"\n")?;
        let mut width = 2 * self.depth;
        while width > 0 {
            let run = width.min(SPACES.len());
            self.write(&SPACES[..run])?;
            width -= run;
        }
        Ok(())
    }

    fn write_number(&mut self, n: f64) -> Result<(), Error> {
        if !n.is_finite() {
            // JSON has no Infinity/NaN; emit null exactly as real serde_json
            // does. Note this makes non-finite floats one-way: null does not
            // parse back into f64, so values that must round-trip need a
            // `#[serde(with = ...)]` sentinel (see TcpInfo::last_send_gap_s).
            self.write(b"null")
        } else if n == n.trunc() && n.abs() < 9.007_199_254_740_992e15 {
            self.write_integer(n < 0.0, n.abs() as u64)
        } else {
            write!(self.writer, "{n}").map_err(Error::io)
        }
    }

    /// The decimal digits of `magnitude`, most significant first, after a
    /// `-` when `negative`, without `format!`.
    fn write_integer(&mut self, negative: bool, magnitude: u64) -> Result<(), Error> {
        let mut buf = [0u8; 21];
        let mut pos = buf.len();
        let mut rest = magnitude;
        loop {
            pos -= 1;
            buf[pos] = b'0' + (rest % 10) as u8;
            rest /= 10;
            if rest == 0 {
                break;
            }
        }
        if negative {
            pos -= 1;
            buf[pos] = b'-';
        }
        self.write(&buf[pos..])
    }

    /// `s` quoted, written in runs between the bytes that need escaping.
    /// Every byte of a multi-byte UTF-8 character is at least 0x80, so a
    /// run never ends inside a character.
    fn write_string(&mut self, s: &str) -> Result<(), Error> {
        const HEX: &[u8; 16] = b"0123456789abcdef";
        self.write(b"\"")?;
        let bytes = s.as_bytes();
        let mut run = 0;
        for (i, &byte) in bytes.iter().enumerate() {
            let short: &[u8] = match byte {
                b'"' => b"\\\"",
                b'\\' => b"\\\\",
                b'\n' => b"\\n",
                b'\r' => b"\\r",
                b'\t' => b"\\t",
                0x00..=0x1f => b"",
                _ => continue,
            };
            self.write(&bytes[run..i])?;
            if short.is_empty() {
                let hex = [
                    b'\\',
                    b'u',
                    b'0',
                    b'0',
                    HEX[usize::from(byte >> 4)],
                    HEX[usize::from(byte & 0xf)],
                ];
                self.write(&hex)?;
            } else {
                self.write(short)?;
            }
            run = i + 1;
        }
        self.write(&bytes[run..])?;
        self.write(b"\"")
    }

    fn begin(&mut self, open: u8, close: u8) -> Result<Compound<'_, W>, Error> {
        self.write(&[open])?;
        self.depth += 1;
        Ok(Compound {
            ser: self,
            close,
            empty: true,
        })
    }
}

impl<'a, W: io::Write> serde::Serializer for &'a mut Serializer<W> {
    type Ok = ();
    type Error = Error;
    type SerializeSeq = Compound<'a, W>;
    type SerializeStruct = Compound<'a, W>;

    fn serialize_bool(self, v: bool) -> Result<(), Error> {
        self.write(if v { b"true" } else { b"false" })
    }

    fn serialize_i64(self, v: i64) -> Result<(), Error> {
        self.write_integer(v < 0, v.unsigned_abs())
    }

    fn serialize_u64(self, v: u64) -> Result<(), Error> {
        self.write_integer(false, v)
    }

    fn serialize_f64(self, v: f64) -> Result<(), Error> {
        self.write_number(v)
    }

    fn serialize_str(self, v: &str) -> Result<(), Error> {
        self.write_string(v)
    }

    fn serialize_unit(self) -> Result<(), Error> {
        self.write(b"null")
    }

    fn serialize_none(self) -> Result<(), Error> {
        self.write(b"null")
    }

    fn serialize_some<T: ?Sized + serde::Serialize>(self, value: &T) -> Result<(), Error> {
        value.serialize(self)
    }

    fn serialize_seq(self, _len: Option<usize>) -> Result<Compound<'a, W>, Error> {
        self.begin(b'[', b']')
    }

    fn serialize_struct(self, _name: &'static str, _len: usize) -> Result<Compound<'a, W>, Error> {
        self.begin(b'{', b'}')
    }
}

/// An open array or object of a [`Serializer`]: writes the separator
/// before each item and the closing bracket at the end.
struct Compound<'a, W> {
    ser: &'a mut Serializer<W>,
    close: u8,
    empty: bool,
}

impl<W: io::Write> Compound<'_, W> {
    /// The separator before the next item: a comma after the first item,
    /// and in pretty output a new indented line.
    fn next_item(&mut self) -> Result<(), Error> {
        if !self.empty {
            self.ser.write(b",")?;
        }
        self.empty = false;
        if self.ser.pretty {
            self.ser.newline()?;
        }
        Ok(())
    }

    fn finish(self) -> Result<(), Error> {
        self.ser.depth -= 1;
        if self.ser.pretty && !self.empty {
            self.ser.newline()?;
        }
        self.ser.write(&[self.close])
    }
}

impl<W: io::Write> serde::ser::SerializeSeq for Compound<'_, W> {
    type Ok = ();
    type Error = Error;

    fn serialize_element<T: ?Sized + serde::Serialize>(&mut self, value: &T) -> Result<(), Error> {
        self.next_item()?;
        value.serialize(&mut *self.ser)
    }

    fn end(self) -> Result<(), Error> {
        self.finish()
    }
}

impl<W: io::Write> serde::ser::SerializeStruct for Compound<'_, W> {
    type Ok = ();
    type Error = Error;

    fn serialize_field<T: ?Sized + serde::Serialize>(
        &mut self,
        name: &'static str,
        value: &T,
    ) -> Result<(), Error> {
        self.next_item()?;
        self.ser.write_string(name)?;
        self.ser.write(if self.ser.pretty { b": " } else { b":" })?;
        value.serialize(&mut *self.ser)
    }

    fn end(self) -> Result<(), Error> {
        self.finish()
    }
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

/// Deepest array/object nesting the parser accepts, as in upstream
/// serde_json. The parser recurses once per level, so without a bound a
/// single line of `[[[[…` would overflow the thread's stack and abort the
/// whole process; past the bound it returns an [`Error`] instead.
const MAX_DEPTH: usize = 128;

/// A JSON parser over one input, and through `&mut Parser` the format's
/// [`serde::Deserializer`]: each typed read parses exactly the value it
/// asks for. [`Value`] trees are built only when a `Value` is asked for.
struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open around `pos`.
    depth: usize,
    /// The decoded text of the last string literal that had escapes.
    unescaped: String,
}

impl<'a> Parser<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Self {
            bytes,
            pos: 0,
            depth: 0,
            unescaped: String::new(),
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

    /// The first byte after whitespace, left unread.
    fn peek_token(&mut self) -> Option<u8> {
        self.skip_whitespace();
        self.peek()
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

    /// The error for a value that is not `what`.
    fn invalid(&self, what: &str) -> Error {
        match self.peek() {
            Some(c) => Error::new(format!(
                "expected {what}, found `{}` at byte {}",
                c as char, self.pos
            )),
            None => Error::new(format!("expected {what}, found the end of input")),
        }
    }

    fn parse_value(&mut self) -> Result<Value, Error> {
        match self.peek_token() {
            Some(b'{') => self.nested(b'}', |parser| {
                let mut members = Members {
                    parser,
                    first: true,
                };
                let mut fields = Vec::new();
                while let Some(key) = members.next_member()? {
                    let key = key.to_owned();
                    fields.push((key, members.member_value()?));
                }
                Ok(Value::Object(fields))
            }),
            Some(b'[') => Vec::deserialize(self).map(Value::Array),
            Some(b'"') => self.parse_string().map(Value::String),
            Some(b't') => self.parse_keyword("true").map(|()| Value::Bool(true)),
            Some(b'f') => self.parse_keyword("false").map(|()| Value::Bool(false)),
            Some(b'n') => self.parse_keyword("null").map(|()| Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.parse_number().map(Value::Number),
            _ => Err(self.invalid("a JSON value")),
        }
    }

    /// Parses the array or object whose opener is the next byte, inside
    /// the nesting bound: `visit` reads the items, and the `close` bracket
    /// must follow them.
    fn nested<T>(
        &mut self,
        close: u8,
        visit: impl FnOnce(&mut Self) -> Result<T, Error>,
    ) -> Result<T, Error> {
        if self.depth == MAX_DEPTH {
            return Err(Error::new(format!(
                "recursion limit exceeded: more than {MAX_DEPTH} nested arrays or \
                 objects at byte {}",
                self.pos
            )));
        }
        self.depth += 1;
        self.pos += 1;
        let value = visit(self)?;
        self.skip_whitespace();
        self.expect(close)?;
        self.depth -= 1;
        Ok(value)
    }

    /// Moves to the next item of the open array or object that `close`
    /// ends: `false` at the closing bracket, which stays unread; otherwise
    /// past the `,` that separates the item from the one before (every
    /// item but the `first`).
    fn next_item(&mut self, close: u8, first: &mut bool) -> Result<bool, Error> {
        match self.peek_token() {
            Some(c) if c == close => Ok(false),
            _ if *first => {
                *first = false;
                Ok(true)
            }
            Some(b',') => {
                self.pos += 1;
                Ok(true)
            }
            _ => Err(Error::new(format!(
                "expected `,` or `{}` at byte {}",
                close as char, self.pos
            ))),
        }
    }

    fn parse_keyword(&mut self, word: &str) -> Result<(), Error> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(())
        } else {
            Err(Error::new(format!("invalid literal at byte {}", self.pos)))
        }
    }

    /// A number as `f64`. A number too large for `f64` is an error, as
    /// upstream; one too small reads as zero.
    fn parse_number(&mut self) -> Result<f64, Error> {
        let start = self.pos;
        self.scan_number()?;
        self.float_from(start)
    }

    /// A number for an integer type: an integer literal exactly, any
    /// other number as [`Parser::parse_number`] reads it.
    fn parse_integer(&mut self) -> Result<Number, Error> {
        let start = self.pos;
        if self.scan_number()? {
            Ok(Number::Integer(exact_integer(&self.bytes[start..self.pos])))
        } else {
            self.float_from(start).map(Number::Float)
        }
    }

    /// The number scanned from byte `start` up to the cursor, as `f64`.
    fn float_from(&self, start: usize) -> Result<f64, Error> {
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).expect("number bytes are ascii");
        match text.parse::<f64>() {
            Ok(n) if n.is_finite() => Ok(n),
            Ok(_) => Err(Error::new(format!(
                "number out of range `{text}` at byte {start}"
            ))),
            Err(_) => Err(Error::new(format!(
                "invalid number `{text}` at byte {start}"
            ))),
        }
    }

    /// Moves past a number by RFC 8259's grammar: an optional `-`, then
    /// `0` or a nonzero digit and more digits, then optionally `.` and at
    /// least one digit, then optionally `e`/`E`, a sign and at least one
    /// digit. Returns whether it is an integer literal: no fraction and no
    /// exponent.
    fn scan_number(&mut self) -> Result<bool, Error> {
        let invalid = |at: usize| Error::new(format!("invalid number at byte {at}"));
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        match self.peek() {
            Some(b'0') => {
                self.pos += 1;
                if matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                    return Err(invalid(self.pos));
                }
            }
            Some(b'1'..=b'9') => self.skip_digits(),
            _ => return Err(invalid(self.pos)),
        }
        let mut integer = true;
        if self.peek() == Some(b'.') {
            integer = false;
            self.pos += 1;
            if !matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                return Err(invalid(self.pos));
            }
            self.skip_digits();
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            integer = false;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                return Err(invalid(self.pos));
            }
            self.skip_digits();
        }
        Ok(integer)
    }

    fn skip_digits(&mut self) {
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
    }

    fn parse_string(&mut self) -> Result<String, Error> {
        Ok(match self.parse_str()? {
            Some(text) => text.to_owned(),
            None => self.unescaped.clone(),
        })
    }

    /// Reads a string literal. Text without escapes is borrowed from the
    /// input (`Some`); text with escapes is decoded into `unescaped`
    /// (`None`).
    fn parse_str(&mut self) -> Result<Option<&'a str>, Error> {
        self.expect(b'"')?;
        let run = self.plain_run()?;
        if self.peek() == Some(b'"') {
            self.pos += 1;
            return Ok(Some(run));
        }
        self.unescaped.clear();
        self.unescaped.push_str(run);
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(None);
                }
                Some(b'\\') => {
                    let c = self.parse_escape()?;
                    self.unescaped.push(c);
                    let run = self.plain_run()?;
                    self.unescaped.push_str(run);
                }
                _ => return Err(Error::new("unterminated string")),
            }
        }
    }

    /// The bytes up to the next `"` or `\`, which stays unread. Both are
    /// ASCII, so a run never ends inside a UTF-8 character.
    fn plain_run(&mut self) -> Result<&'a str, Error> {
        let bytes: &'a [u8] = self.bytes;
        let start = self.pos;
        let len = bytes[start..]
            .iter()
            .position(|&c| c == b'"' || c == b'\\')
            .unwrap_or(bytes.len() - start);
        self.pos += len;
        std::str::from_utf8(&bytes[start..self.pos])
            .map_err(|_| Error::new("invalid utf-8 in string"))
    }

    /// Decodes the escape at `pos` (a backslash) and moves past it.
    fn parse_escape(&mut self) -> Result<char, Error> {
        self.pos += 1;
        let c = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'b') => '\u{0008}',
            Some(b'f') => '\u{000C}',
            Some(b'u') => {
                let mut code = self.hex4(self.pos + 1)?;
                self.pos += 4;
                // An astral character travels as a UTF-16 surrogate pair:
                // a high surrogate escape directly followed by a low
                // surrogate one.
                if (0xD800..0xDC00).contains(&code) {
                    let low = match self.bytes.get(self.pos + 1..self.pos + 3) {
                        Some(b"\\u") => self.hex4(self.pos + 3)?,
                        _ => return Err(Error::new("unpaired surrogate in \\u escape")),
                    };
                    if !(0xDC00..0xE000).contains(&low) {
                        return Err(Error::new("unpaired surrogate in \\u escape"));
                    }
                    code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                    self.pos += 6;
                }
                // A lone low surrogate is no scalar value.
                char::from_u32(code).ok_or_else(|| Error::new("invalid \\u code point"))?
            }
            other => return Err(Error::new(format!("invalid escape {other:?}"))),
        };
        self.pos += 1;
        Ok(c)
    }

    /// The code unit of the four hex digits at `at`, the body of a `\u`
    /// escape.
    fn hex4(&self, at: usize) -> Result<u32, Error> {
        let digits = self
            .bytes
            .get(at..at + 4)
            .ok_or_else(|| Error::new("truncated \\u escape"))?;
        digits.iter().try_fold(0, |code, &digit| {
            let value = char::from(digit)
                .to_digit(16)
                .ok_or_else(|| Error::new("invalid \\u escape"))?;
            Ok(code << 4 | value)
        })
    }
}

/// The value of an integer literal (an optional `-`, then ASCII digits),
/// or `None` past the range of `i128`. The digits accumulate as a
/// negative number, so `i128::MIN` itself reads exactly.
fn exact_integer(literal: &[u8]) -> Option<i128> {
    let (negative, digits) = match literal {
        [b'-', digits @ ..] => (true, digits),
        digits => (false, digits),
    };
    let mut value: i128 = 0;
    for &digit in digits {
        value = value
            .checked_mul(10)?
            .checked_sub(i128::from(digit - b'0'))?;
    }
    if negative {
        Some(value)
    } else {
        value.checked_neg()
    }
}

impl<'de> serde::Deserializer<'de> for &mut Parser<'_> {
    type Error = Error;

    fn deserialize_bool(self) -> Result<bool, Error> {
        match self.peek_token() {
            Some(b't') => self.parse_keyword("true").map(|()| true),
            Some(b'f') => self.parse_keyword("false").map(|()| false),
            _ => Err(self.invalid("a bool")),
        }
    }

    fn deserialize_f64(self) -> Result<f64, Error> {
        match self.peek_token() {
            Some(c) if c == b'-' || c.is_ascii_digit() => self.parse_number(),
            _ => Err(self.invalid("a number")),
        }
    }

    fn deserialize_integer(self) -> Result<Number, Error> {
        match self.peek_token() {
            Some(c) if c == b'-' || c.is_ascii_digit() => self.parse_integer(),
            _ => Err(self.invalid("a number")),
        }
    }

    fn deserialize_str<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Error> {
        if self.peek_token() != Some(b'"') {
            return Err(self.invalid(&Expected(&visitor).to_string()));
        }
        let text = match self.parse_str()? {
            Some(text) => text,
            None => &self.unescaped,
        };
        visitor.visit_str(text)
    }

    fn deserialize_unit(self) -> Result<(), Error> {
        match self.peek_token() {
            Some(b'n') => self.parse_keyword("null"),
            _ => Err(self.invalid("null")),
        }
    }

    fn deserialize_option(self) -> Result<Option<Self>, Error> {
        if self.peek_token() == Some(b'n') {
            self.parse_keyword("null")?;
            Ok(None)
        } else {
            Ok(Some(self))
        }
    }

    fn deserialize_seq<V: SeqVisitor<'de>>(self, visitor: V) -> Result<V::Value, Error> {
        match self.peek_token() {
            Some(b'[') => self.nested(b']', |parser| {
                visitor.visit_seq(Elements {
                    parser,
                    first: true,
                })
            }),
            _ => Err(self.invalid("an array")),
        }
    }

    fn deserialize_struct<V: StructVisitor<'de>>(
        self,
        name: &'static str,
        visitor: V,
    ) -> Result<V::Value, Error> {
        match self.peek_token() {
            Some(b'{') => self.nested(b'}', |parser| {
                visitor.visit_struct(Members {
                    parser,
                    first: true,
                })
            }),
            _ => Err(self.invalid(&format!("a JSON object for struct `{name}`"))),
        }
    }

    fn deserialize_value(self) -> Result<Value, Error> {
        self.parse_value()
    }
}

/// What a string visitor expects, as error text.
struct Expected<'v, V>(&'v V);

impl<'de, V: Visitor<'de>> fmt::Display for Expected<'_, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.expecting(f)
    }
}

/// The elements of an array open in a [`Parser`].
struct Elements<'p, 'a> {
    parser: &'p mut Parser<'a>,
    first: bool,
}

impl<'de> SeqAccess<'de> for Elements<'_, '_> {
    type Error = Error;

    fn next_element<T: Deserialize<'de>>(&mut self) -> Result<Option<T>, Error> {
        if !self.parser.next_item(b']', &mut self.first)? {
            return Ok(None);
        }
        T::deserialize(&mut *self.parser).map(Some)
    }
}

/// The members of an object open in a [`Parser`].
struct Members<'p, 'a> {
    parser: &'p mut Parser<'a>,
    first: bool,
}

impl<'de> StructAccess<'de> for Members<'_, '_> {
    type Error = Error;

    /// The name is borrowed from the input, or from the parser's
    /// `unescaped` buffer when it has escapes.
    fn next_member(&mut self) -> Result<Option<&str>, Error> {
        if !self.parser.next_item(b'}', &mut self.first)? {
            return Ok(None);
        }
        self.parser.skip_whitespace();
        Ok(Some(match self.parser.parse_str()? {
            Some(text) => text,
            None => &self.parser.unescaped,
        }))
    }

    fn member_value<T: Deserialize<'de>>(&mut self) -> Result<T, Error> {
        self.parser.skip_whitespace();
        self.parser.expect(b':')?;
        T::deserialize(&mut *self.parser)
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
        // A tuple reads an array of exactly its length.
        let pair: (String, u32) = from_str(r#"["a", 1]"#).unwrap();
        assert_eq!(pair, ("a".to_owned(), 1));
        for bad in [r#"["a"]"#, r#"["a", 1, 2]"#, r#"["a", 1,]"#, "[]"] {
            assert!(from_str::<(String, u32)>(bad).is_err(), "{bad}");
        }
        assert_eq!(to_string(&vec![1.0f64, 2.0]).unwrap(), "[1,2]");
    }

    #[test]
    fn pretty_output_is_reparsable() {
        struct Doc;
        impl serde::Serialize for Doc {
            fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
                use serde::ser::SerializeStruct;
                let mut state = serializer.serialize_struct("Doc", 4)?;
                state.serialize_field("name", "x")?;
                state.serialize_field("xs", &[1.0, 2.25])?;
                state.serialize_field("none", &Vec::<f64>::new())?;
                state.serialize_field("flag", &true)?;
                state.end()
            }
        }
        let out = to_string_pretty(&Doc).unwrap();
        assert_eq!(
            out,
            "{\n  \"name\": \"x\",\n  \"xs\": [\n    1,\n    2.25\n  ],\n  \"none\": [],\n  \"flag\": true\n}"
        );
        let back: Value = from_str(&out).unwrap();
        assert_eq!(
            back,
            Value::Object(vec![
                ("name".to_owned(), Value::String("x".to_owned())),
                (
                    "xs".to_owned(),
                    Value::Array(vec![Value::Number(1.0), Value::Number(2.25)]),
                ),
                ("none".to_owned(), Value::Array(Vec::new())),
                ("flag".to_owned(), Value::Bool(true)),
            ])
        );
    }

    #[test]
    fn to_writer_streams_into_the_writer_and_reports_its_failures() {
        let mut out = b"> ".to_vec();
        to_writer(&mut out, &vec![Some(1.5), None]).unwrap();
        assert_eq!(out, b"> [1.5,null]");

        struct Full;
        impl io::Write for Full {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                Err(io::Error::new(io::ErrorKind::BrokenPipe, "peer gone"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let err = to_writer(Full, &"x").unwrap_err();
        assert_eq!(io::Error::from(err).kind(), io::ErrorKind::BrokenPipe);
    }

    #[test]
    fn a_surrogate_pair_decodes_to_its_astral_character() {
        let s: String = from_str(r#""caf\u00e9 \ud83d\ude00""#).unwrap();
        assert_eq!(s, "café \u{1F600}");
        let upper: String = from_str(r#""\uD83D\uDE00!""#).unwrap();
        assert_eq!(upper, "\u{1F600}!");
        // Lone, reversed and unpaired surrogates stay typed errors.
        for bad in [
            r#""\ud800""#,
            r#""\ude00""#,
            r#""\ude00\ud83d""#,
            r#""\ud83d x""#,
            r#""\ud83d\u0041""#,
            r#""\ud83d\ud83d""#,
            r#""\ud83d\n""#,
            r#""\ud83d\ude0""#,
        ] {
            assert!(from_str::<String>(bad).is_err(), "{bad} must not parse");
        }
        // Four hex digits, no sign.
        assert!(from_str::<String>(r#""\u+041""#).is_err());
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
    fn numbers_follow_the_json_grammar() {
        for bad in [
            "01",
            "-01",
            "00",
            "1.",
            "1.e5",
            "-",
            "-a",
            "1e",
            "1e+",
            "1E-",
            ".5",
            "+1",
            "1e309",
            "-1e309",
            "1e400",
            "[01]",
            "[1.]",
            "{\"a\": 00}",
        ] {
            assert!(from_str::<Value>(bad).is_err(), "{bad} must not parse");
        }
        let err = from_str::<f64>("1e309").unwrap_err();
        assert!(err.to_string().contains("out of range"), "{err}");
        for (text, value) in [
            ("0", 0.0),
            ("-0", -0.0),
            ("0.5", 0.5),
            ("1E+2", 100.0),
            ("1e-400", 0.0),
            ("-2.5e-3", -0.0025),
            ("10", 10.0),
            ("1.7976931348623157e308", f64::MAX),
        ] {
            let n: f64 = from_str(text).unwrap();
            assert_eq!(n.to_bits(), value.to_bits(), "{text}");
        }
        // Every finite number the golden tests write parses back to itself.
        let two_53 = 9_007_199_254_740_992.0;
        for n in [
            0.0,
            42.0,
            -7.0,
            0.5,
            1e-7,
            1e21,
            two_53 - 1.0,
            two_53,
            -two_53,
            two_53 * 2.0,
            u64::MAX as f64,
            i64::MIN as f64,
            0.1 + 0.2,
            1.0 / 3.0,
            -2.5e-10,
            1.5e300,
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::from(0.1f32),
            123_456.789,
            std::f64::consts::E,
        ] {
            let text = to_string(&n).unwrap();
            assert_eq!(from_str::<f64>(&text).unwrap(), n, "{text}");
        }
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(from_str::<f64>("1 junk").is_err());
    }

    #[test]
    fn integers_print_without_decimal_point() {
        assert_eq!(to_string(&42.0).unwrap(), "42");
        assert_eq!(to_string(&-7i64).unwrap(), "-7");
        assert_eq!(to_string(&0.5).unwrap(), "0.5");
    }

    /// An integer literal one past a 64-bit type's range is a range error
    /// that names the type; it used to read as the maximum through `f64`.
    #[test]
    fn an_integer_one_past_its_range_is_an_error() {
        for (result, ty) in [
            (from_str::<u64>("18446744073709551616").map(|_| ()), "u64"),
            (
                from_str::<usize>("18446744073709551616").map(|_| ()),
                "usize",
            ),
            (from_str::<i64>("9223372036854775808").map(|_| ()), "i64"),
            (from_str::<i64>("-9223372036854775809").map(|_| ()), "i64"),
            (from_str::<u64>("-1").map(|_| ()), "u64"),
            (from_str::<u8>("256").map(|_| ()), "u8"),
        ] {
            let err = result.expect_err(ty).to_string();
            assert!(
                err.contains("out of range for ") && err.ends_with(ty),
                "{err}"
            );
        }
        // Past i128, whatever the type.
        let err = from_str::<u64>(&"9".repeat(60)).unwrap_err();
        assert_eq!(err.to_string(), "integer is out of range for u64");
        assert_eq!(from_str::<u64>("18446744073709551615").unwrap(), u64::MAX);
        assert_eq!(from_str::<i64>("9223372036854775807").unwrap(), i64::MAX);
        assert_eq!(from_str::<i64>("-9223372036854775808").unwrap(), i64::MIN);
        assert_eq!(from_str::<u64>("-0").unwrap(), 0);
    }

    /// 2^53 + 1 is not an `f64`, but it is a `u64`: it reads and writes
    /// exactly, as does every extreme of the 64-bit types.
    #[test]
    fn integers_past_2_53_round_trip_exactly() {
        assert_eq!(
            from_str::<u64>("9007199254740993").unwrap(),
            9_007_199_254_740_993
        );
        assert_eq!(
            to_string(&9_007_199_254_740_993u64).unwrap(),
            "9007199254740993"
        );
        assert_eq!(
            from_str::<i64>("-9007199254740993").unwrap(),
            -9_007_199_254_740_993
        );
        for n in [u64::MAX, u64::MAX - 1, 1 << 63, (1 << 53) + 1] {
            let text = to_string(&n).unwrap();
            assert_eq!(text, n.to_string());
            assert_eq!(from_str::<u64>(&text).unwrap(), n);
        }
        for n in [i64::MIN, i64::MIN + 1, i64::MAX, -(1 << 53) - 1] {
            let text = to_string(&n).unwrap();
            assert_eq!(text, n.to_string());
            assert_eq!(from_str::<i64>(&text).unwrap(), n);
        }
        // Below 2^53 the wire bytes are those of the f64 path.
        for n in [0u64, 1, 42, (1 << 53) - 1] {
            assert_eq!(to_string(&n).unwrap(), to_string(&(n as f64)).unwrap());
        }
        assert_eq!(to_string(&-5i64).unwrap(), to_string(&-5.0).unwrap());
    }

    /// A number with a fraction or an exponent still reads as `f64` for an
    /// integer type: integral and in range, or an error. The range's top is
    /// exact now: `2^64` as a `u64` and `2^63` as an `i64` are refused.
    #[test]
    fn non_integer_literals_keep_the_fraction_and_range_checks() {
        assert_eq!(from_str::<u64>("1.0").unwrap(), 1);
        assert_eq!(from_str::<u64>("1e3").unwrap(), 1000);
        assert_eq!(from_str::<i8>("-1.28e2").unwrap(), -128);
        assert_eq!(
            from_str::<u64>("1.8446744073709550e19").unwrap(),
            18_446_744_073_709_549_568
        );
        for (text, result) in [
            ("1.5", from_str::<u64>("1.5").map(|_| ())),
            ("2.56e2", from_str::<u8>("2.56e2").map(|_| ())),
            ("-1e0", from_str::<u32>("-1e0").map(|_| ())),
            (
                "1.8446744073709552e19",
                from_str::<u64>("1.8446744073709552e19").map(|_| ()),
            ),
            (
                "9.223372036854775808e18",
                from_str::<i64>("9.223372036854775808e18").map(|_| ()),
            ),
        ] {
            let err = result.expect_err(text).to_string();
            assert!(err.contains("is not a valid"), "{text}: {err}");
        }
        assert_eq!(
            from_str::<i64>("-9.223372036854775808e18").unwrap(),
            i64::MIN
        );
    }
}

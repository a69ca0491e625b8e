//! Offline stand-in for `serde_json`, rendering the vendored serde
//! shim's [`Value`] tree as JSON and parsing JSON text back into it.
//!
//! Output conventions match real `serde_json`: struct fields in
//! declaration order, `None` and non-finite floats as `null`, unit enum
//! variants as strings, data-carrying variants as single-key objects.

use std::fmt;

pub use serde::Value;
use serde::{Deserialize, Serialize};

/// Error for JSON parsing or value conversion.
#[derive(Debug, Clone, PartialEq)]
pub struct Error {
    msg: String,
}

impl Error {
    fn new(msg: impl fmt::Display) -> Self {
        Error { msg: msg.to_string() }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.msg)
    }
}

impl std::error::Error for Error {}

impl From<serde::Error> for Error {
    fn from(e: serde::Error) -> Self {
        Error::new(e)
    }
}

impl From<Error> for std::io::Error {
    fn from(e: Error) -> Self {
        std::io::Error::new(std::io::ErrorKind::InvalidData, e.msg)
    }
}

/// Converts any serializable value into a [`Value`] tree.
pub fn to_value<T: Serialize + ?Sized>(value: &T) -> Value {
    value.to_value()
}

/// Serializes to compact JSON.
///
/// # Errors
///
/// Infallible for the shim's data model; the `Result` mirrors the real
/// `serde_json` signature.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), None, 0);
    Ok(out)
}

/// Serializes to pretty-printed JSON (two-space indent).
///
/// # Errors
///
/// Infallible for the shim's data model; the `Result` mirrors the real
/// `serde_json` signature.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), Some("  "), 0);
    Ok(out)
}

/// Parses JSON text into a typed value.
///
/// # Errors
///
/// Returns [`Error`] on malformed JSON or a shape mismatch with `T`.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    let value = parse_value(s)?;
    Ok(T::from_value(&value)?)
}

/// Builds a [`Value`] literal with JSON syntax.
///
/// Supports the subset used here: object literals with string-literal
/// keys and serializable expression values, array literals, `null`, and
/// bare serializable expressions. Nest objects by nesting `json!` calls.
#[macro_export]
macro_rules! json {
    (null) => { $crate::Value::Null };
    ({ $($key:literal : $val:expr),* $(,)? }) => {
        $crate::Value::Object(::std::vec![
            $( (::std::string::String::from($key), $crate::to_value(&$val)) ),*
        ])
    };
    ([ $($item:expr),* $(,)? ]) => {
        $crate::Value::Array(::std::vec![ $( $crate::to_value(&$item) ),* ])
    };
    ($other:expr) => { $crate::to_value(&$other) };
}

// ---------------------------------------------------------------------------
// Printer
// ---------------------------------------------------------------------------

fn write_value(out: &mut String, v: &Value, indent: Option<&str>, depth: usize) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::I64(n) => out.push_str(&n.to_string()),
        Value::U64(n) => out.push_str(&n.to_string()),
        Value::F64(f) => write_f64(out, *f),
        Value::Str(s) => write_escaped(out, s),
        Value::Array(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                write_value(out, item, indent, depth + 1);
            }
            newline_indent(out, indent, depth);
            out.push(']');
        }
        Value::Object(pairs) => {
            if pairs.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (k, item)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                write_escaped(out, k);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(out, item, indent, depth + 1);
            }
            newline_indent(out, indent, depth);
            out.push('}');
        }
    }
}

fn newline_indent(out: &mut String, indent: Option<&str>, depth: usize) {
    if let Some(pad) = indent {
        out.push('\n');
        for _ in 0..depth {
            out.push_str(pad);
        }
    }
}

fn write_f64(out: &mut String, f: f64) {
    if !f.is_finite() {
        out.push_str("null");
    } else if f == f.trunc() && f.abs() < 1e15 {
        // Match serde_json: whole floats print with a trailing `.0`.
        out.push_str(&format!("{f:.1}"));
    } else {
        out.push_str(&format!("{f}"));
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

fn parse_value(s: &str) -> Result<Value, Error> {
    let mut p = Parser { bytes: s.as_bytes(), pos: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error::new(format!("trailing characters at byte {}", p.pos)));
    }
    Ok(v)
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

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::new(format!("expected `{}` at byte {}", b as char, self.pos)))
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        match self.peek() {
            Some(b'n') if self.eat_keyword("null") => Ok(Value::Null),
            Some(b't') if self.eat_keyword("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat_keyword("false") => Ok(Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            _ => Err(Error::new(format!("unexpected input at byte {}", self.pos))),
        }
    }

    fn array(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(Error::new(format!("expected `,` or `]` at byte {}", self.pos))),
            }
        }
    }

    fn object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            pairs.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(pairs));
                }
                _ => return Err(Error::new(format!("expected `,` or `}}` at byte {}", self.pos))),
            }
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(std::str::from_utf8(&self.bytes[start..self.pos]).map_err(Error::new)?);
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| Error::new("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000C}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| Error::new("truncated \\u escape"))?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(Error::new)?,
                                16,
                            )
                            .map_err(Error::new)?;
                            self.pos += 4;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| Error::new("invalid \\u escape"))?,
                            );
                        }
                        other => {
                            return Err(Error::new(format!("invalid escape `\\{}`", other as char)))
                        }
                    }
                }
                _ => return Err(Error::new("unterminated string")),
            }
        }
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(Error::new)?;
        if !is_float {
            if let Ok(n) = text.parse::<i64>() {
                return Ok(Value::I64(n));
            }
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Value::U64(n));
            }
        }
        text.parse::<f64>()
            .map(Value::F64)
            .map_err(|e| Error::new(format!("bad number `{text}`: {e}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_and_pretty_match_serde_json_shapes() {
        let v = Value::Object(vec![
            ("name".to_string(), Value::Str("dc1".into())),
            ("racks".to_string(), Value::U64(331)),
            ("rate".to_string(), Value::F64(0.5)),
            ("tags".to_string(), Value::Array(vec![Value::I64(1), Value::I64(2)])),
        ]);
        assert_eq!(to_string(&v).unwrap(), r#"{"name":"dc1","racks":331,"rate":0.5,"tags":[1,2]}"#);
        let pretty = to_string_pretty(&v).unwrap();
        assert!(pretty.contains("\n  \"name\": \"dc1\""));
    }

    #[test]
    fn whole_floats_keep_decimal_point() {
        assert_eq!(to_string(&2.0f64).unwrap(), "2.0");
        assert_eq!(to_string(&f64::NAN).unwrap(), "null");
    }

    #[test]
    fn parse_round_trips() {
        let text =
            r#"{"a": [1, -2, 3.5, null, true], "b": "x\ny", "c": {"d": 18446744073709551615}}"#;
        let v: Value = from_str(text).unwrap();
        let back = to_string(&v).unwrap();
        let v2: Value = from_str(&back).unwrap();
        assert_eq!(v, v2);
        assert_eq!(v.field("c").field("d"), &Value::U64(u64::MAX));
    }

    #[test]
    fn typed_parse() {
        let back: Vec<f64> = from_str("[1.0, 2.5]").unwrap();
        assert_eq!(back, vec![1.0, 2.5]);
    }

    #[test]
    fn json_macro_builds_objects() {
        let racks = 42u64;
        let v = json!({
            "racks": racks,
            "nested": json!({ "ok": true }),
            "list": json!([1, 2]),
            "none": json!(null),
        });
        assert_eq!(
            to_string(&v).unwrap(),
            r#"{"racks":42,"nested":{"ok":true},"list":[1,2],"none":null}"#
        );
    }

    #[test]
    fn errors_report_position() {
        assert!(from_str::<Value>("{\"a\": }").is_err());
        assert!(from_str::<Value>("[1, 2").is_err());
        let io: std::io::Error = from_str::<Value>("nope").unwrap_err().into();
        assert_eq!(io.kind(), std::io::ErrorKind::InvalidData);
    }
}

//! Offline stand-in for `serde_json`.
//!
//! JSON text for the serde shim. Covers the API surface this workspace
//! uses: [`to_string`], [`to_string_pretty`], [`to_vec`] and
//! [`to_vec_pretty`] run a type's streaming [`Serialize`] impl through
//! one [`Serializer`]; [`from_str`] and [`from_slice`] parse text into
//! the [`Value`] tree and hand it to [`Deserialize`]. Numbers
//! round-trip faithfully: integers stay integers, and floats are
//! printed with Rust's shortest round-trip formatting.

#![warn(missing_docs)]

use serde::{DeError, Deserialize, Num, Serialize, Serializer, Value};
use std::fmt;

/// Serialization or parse error.
#[derive(Debug, Clone)]
pub struct Error(String);

impl Error {
    fn new(msg: impl Into<String>) -> Self {
        Error(msg.into())
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

impl From<DeError> for Error {
    fn from(e: DeError) -> Self {
        Error(e.to_string())
    }
}

/// Serialize to compact JSON text.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    to_vec(value).map(into_string)
}

/// Serialize to two-space-indented JSON text.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    to_vec_pretty(value).map(into_string)
}

/// Serialize to compact JSON bytes.
pub fn to_vec<T: Serialize + ?Sized>(value: &T) -> Result<Vec<u8>, Error> {
    write(value, false)
}

/// Serialize to pretty JSON bytes.
pub fn to_vec_pretty<T: Serialize + ?Sized>(value: &T) -> Result<Vec<u8>, Error> {
    write(value, true)
}

fn write<T: Serialize + ?Sized>(value: &T, pretty: bool) -> Result<Vec<u8>, Error> {
    let mut out = Vec::new();
    let mut s = if pretty {
        Serializer::pretty(&mut out)
    } else {
        Serializer::new(&mut out)
    };
    value.serialize(&mut s);
    s.finish().map_err(Error::new)?;
    Ok(out)
}

fn into_string(bytes: Vec<u8>) -> String {
    String::from_utf8(bytes).expect("the serializer writes UTF-8")
}

/// Deserialize from JSON text.
pub fn from_str<T: Deserialize>(text: &str) -> Result<T, Error> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error::new(format!("trailing data at byte {}", p.pos)));
    }
    Ok(T::deserialize(&v)?)
}

/// Deserialize from JSON bytes (must be UTF-8).
pub fn from_slice<T: Deserialize>(bytes: &[u8]) -> Result<T, Error> {
    let text = std::str::from_utf8(bytes).map_err(|e| Error::new(e.to_string()))?;
    from_str(text)
}

// -------------------------------------------------------------- parsing

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Result<u8, Error> {
        self.bytes
            .get(self.pos)
            .copied()
            .ok_or_else(|| Error::new("unexpected end of input"))
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek()? == b {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::new(format!(
                "expected `{}` at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, Error> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(Error::new(format!("invalid literal at byte {}", self.pos)))
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        match self.peek()? {
            b'n' => self.literal("null", Value::Null),
            b't' => self.literal("true", Value::Bool(true)),
            b'f' => self.literal("false", Value::Bool(false)),
            b'"' => self.string().map(Value::Str),
            b'[' => self.sequence(),
            b'{' => self.object(),
            b'-' | b'0'..=b'9' => self.number(),
            other => Err(Error::new(format!(
                "unexpected `{}` at byte {}",
                other as char, self.pos
            ))),
        }
    }

    fn sequence(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek()? == b']' {
            self.pos += 1;
            return Ok(Value::Seq(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek()? {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    return Ok(Value::Seq(items));
                }
                other => {
                    return Err(Error::new(format!(
                        "expected `,` or `]`, got `{}` at byte {}",
                        other as char, self.pos
                    )))
                }
            }
        }
    }

    fn object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek()? == b'}' {
            self.pos += 1;
            return Ok(Value::Object(entries));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            entries.push((key, value));
            self.skip_ws();
            match self.peek()? {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return Ok(Value::Object(entries));
                }
                other => {
                    return Err(Error::new(format!(
                        "expected `,` or `}}`, got `{}` at byte {}",
                        other as char, self.pos
                    )))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while self.peek()? != b'"' && self.bytes[self.pos] != b'\\' {
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|e| Error::new(e.to_string()))?,
            );
            if self.bytes[self.pos] == b'"' {
                self.pos += 1;
                return Ok(out);
            }
            self.pos += 1; // backslash
            let esc = self.peek()?;
            self.pos += 1;
            match esc {
                b'"' => out.push('"'),
                b'\\' => out.push('\\'),
                b'/' => out.push('/'),
                b'n' => out.push('\n'),
                b'r' => out.push('\r'),
                b't' => out.push('\t'),
                b'b' => out.push('\u{0008}'),
                b'f' => out.push('\u{000c}'),
                b'u' => {
                    let hex = self
                        .bytes
                        .get(self.pos..self.pos + 4)
                        .ok_or_else(|| Error::new("truncated \\u escape"))?;
                    let code = u32::from_str_radix(
                        std::str::from_utf8(hex).map_err(|e| Error::new(e.to_string()))?,
                        16,
                    )
                    .map_err(|e| Error::new(e.to_string()))?;
                    self.pos += 4;
                    out.push(char::from_u32(code).ok_or_else(|| {
                        Error::new("invalid \\u escape (surrogates unsupported)")
                    })?);
                }
                other => {
                    return Err(Error::new(format!(
                        "invalid escape `\\{}` at byte {}",
                        other as char, self.pos
                    )))
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek()? == b'-' {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(&b) = self.bytes.get(self.pos) {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|e| Error::new(e.to_string()))?;
        if !is_float {
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Value::Num(Num::U(u)));
            }
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Value::Num(Num::I(i)));
            }
        }
        text.parse::<f64>()
            .map(|f| Value::Num(Num::F(f)))
            .map_err(|e| Error::new(format!("bad number `{text}`: {e}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_round_trips_through_text() {
        let v = Value::Object(vec![
            ("name".into(), Value::Str("wean \"trial\"\n".into())),
            ("count".into(), Value::Num(Num::U(18446744073709551615))),
            ("delta".into(), Value::Num(Num::I(-42))),
            ("ratio".into(), Value::Num(Num::F(0.1 + 0.2))),
            ("whole".into(), Value::Num(Num::F(1500.0))),
            ("flag".into(), Value::Bool(true)),
            ("gap".into(), Value::Null),
            (
                "items".into(),
                Value::Seq(vec![Value::Num(Num::U(1)), Value::Num(Num::U(2))]),
            ),
            ("empty".into(), Value::Seq(vec![])),
        ]);
        for text in [to_string(&v).unwrap(), to_string_pretty(&v).unwrap()] {
            let back: Value = from_str(&text).unwrap();
            // Integral floats keep their `.0`, so 1500.0 reads back as
            // a float rather than narrowing to an integer.
            assert_eq!(back, v, "through {text}");
        }
    }

    #[test]
    fn non_finite_floats_do_not_serialize() {
        for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let err = to_string(&vec![1.0, x]).unwrap_err();
            assert_eq!(err.to_string(), "cannot serialize non-finite float");
            assert!(to_string_pretty(&x).is_err());
        }
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(from_str::<bool>("true false").is_err());
        assert!(from_str::<u64>("12,").is_err());
    }

    #[test]
    fn parses_escapes() {
        let s: String = from_str("\"a\\u0041\\n\\\"b\\\\\"").unwrap();
        assert_eq!(s, "aA\n\"b\\");
    }
}

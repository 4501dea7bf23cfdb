//! Offline stand-in for `serde`.
//!
//! The build environment has no crate registry, so this workspace
//! vendors a miniature serde. [`Serialize`] streams a value as JSON
//! tokens into one byte buffer through a [`Serializer`]; no
//! intermediate tree is built. [`Deserialize`] reads the [`Value`]
//! parse tree that `serde_json` produces. `#[derive(Serialize,
//! Deserialize)]` is provided by the sibling `serde_derive` shim. The
//! representation matches serde's defaults for the shapes this
//! workspace uses: structs as objects, unit enum variants as strings,
//! data-carrying variants as externally tagged single-entry objects,
//! tuples as arrays, `None` as null.

#![warn(missing_docs)]

pub use serde_derive::{Deserialize, Serialize};

use std::fmt;
use std::io::Write as _;

/// A parsed data tree (the JSON data model).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// A boolean.
    Bool(bool),
    /// Any number.
    Num(Num),
    /// A string.
    Str(String),
    /// An array.
    Seq(Vec<Value>),
    /// An object; insertion order is preserved.
    Object(Vec<(String, Value)>),
}

/// A JSON number, kept in its narrowest faithful representation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Num {
    /// Non-negative integer.
    U(u64),
    /// Negative integer.
    I(i64),
    /// Anything with a fractional part or exponent.
    F(f64),
}

impl Value {
    /// Borrow the entries when this is an object.
    pub fn as_object(&self) -> Option<&Vec<(String, Value)>> {
        match self {
            Value::Object(entries) => Some(entries),
            _ => None,
        }
    }

    /// Look up a field of an object `Value` by name.
    pub fn field<'a>(entries: &'a [(String, Value)], name: &str) -> Option<&'a Value> {
        entries.iter().find(|(k, _)| k == name).map(|(_, v)| v)
    }
}

/// Error produced when a [`Value`] does not match the expected shape.
#[derive(Debug, Clone)]
pub struct DeError(String);

impl DeError {
    /// An error with the given message.
    pub fn new(msg: impl Into<String>) -> Self {
        DeError(msg.into())
    }
}

impl fmt::Display for DeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for DeError {}

/// Message of the one serialization error: JSON has no NaN or infinity.
const NON_FINITE: &str = "cannot serialize non-finite float";

/// Two ASCII digits for every value in `0..100`, for integer output.
const DIGIT_PAIRS: [u8; 200] = {
    let mut t = [0u8; 200];
    let mut i = 0;
    while i < 100 {
        t[2 * i] = b'0' + (i / 10) as u8;
        t[2 * i + 1] = b'0' + (i % 10) as u8;
        i += 1;
    }
    t
};

/// Writes JSON tokens straight into a byte buffer.
///
/// [`Serialize`] impls call the value methods ([`null`](Self::null),
/// [`u64`](Self::u64), [`str`](Self::str), …) for scalars, and bracket
/// containers with [`begin_seq`](Self::begin_seq) /
/// [`end_seq`](Self::end_seq) or [`begin_object`](Self::begin_object) /
/// [`end_object`](Self::end_object), writing each entry with
/// [`item`](Self::item), or with [`field`](Self::field) (or
/// [`key`](Self::key) followed by the value). The serializer places
/// separators and, in pretty mode, newlines and indentation. A
/// non-finite float records an error that [`finish`](Self::finish)
/// reports; output written after it is meaningless.
pub struct Serializer<'a> {
    out: &'a mut Vec<u8>,
    /// Two-space indented output instead of compact.
    pretty: bool,
    depth: usize,
    /// True from a container's opening bracket until its first entry.
    empty: bool,
    error: Option<&'static str>,
}

impl<'a> Serializer<'a> {
    /// A serializer appending compact JSON to `out`.
    pub fn new(out: &'a mut Vec<u8>) -> Self {
        Serializer {
            out,
            pretty: false,
            depth: 0,
            empty: false,
            error: None,
        }
    }

    /// A serializer appending JSON indented by two spaces per level.
    pub fn pretty(out: &'a mut Vec<u8>) -> Self {
        Serializer {
            pretty: true,
            ..Serializer::new(out)
        }
    }

    /// The first error met, if any.
    pub fn finish(self) -> Result<(), &'static str> {
        self.error.map_or(Ok(()), Err)
    }

    /// Write `null`.
    pub fn null(&mut self) {
        self.out.extend_from_slice(b"null");
    }

    /// Write `true` or `false`.
    pub fn bool(&mut self, b: bool) {
        self.out
            .extend_from_slice(if b { b"true" } else { b"false" });
    }

    /// Write a non-negative integer.
    pub fn u64(&mut self, mut n: u64) {
        let mut buf = [0u8; 20];
        let mut pos = buf.len();
        while n >= 100 {
            let d = (n % 100) as usize * 2;
            n /= 100;
            pos -= 2;
            buf[pos..pos + 2].copy_from_slice(&DIGIT_PAIRS[d..d + 2]);
        }
        if n >= 10 {
            let d = n as usize * 2;
            pos -= 2;
            buf[pos..pos + 2].copy_from_slice(&DIGIT_PAIRS[d..d + 2]);
        } else {
            pos -= 1;
            buf[pos] = b'0' + n as u8;
        }
        self.out.extend_from_slice(&buf[pos..]);
    }

    /// Write a signed integer.
    pub fn i64(&mut self, n: i64) {
        if n < 0 {
            self.out.push(b'-');
        }
        self.u64(n.unsigned_abs());
    }

    /// Write a float in Rust's shortest round-trip `Display` form, with
    /// `.0` appended to integral values so they read back as floats.
    /// A non-finite value records an error.
    pub fn f64(&mut self, x: f64) {
        if !x.is_finite() {
            self.error.get_or_insert(NON_FINITE);
            self.null();
            return;
        }
        let start = self.out.len();
        write!(self.out, "{x}").expect("writing to a Vec cannot fail");
        if !self.out[start..]
            .iter()
            .any(|b| matches!(b, b'.' | b'e' | b'E'))
        {
            self.out.extend_from_slice(b".0");
        }
    }

    /// Write a quoted string, escaping `"`, `\` and control characters.
    /// Runs of bytes that need no escape are copied in one piece.
    pub fn str(&mut self, s: &str) {
        const HEX: &[u8; 16] = b"0123456789abcdef";
        let bytes = s.as_bytes();
        self.out.push(b'"');
        let mut run = 0;
        let mut ctl = *b"\\u0000";
        for (i, &b) in bytes.iter().enumerate() {
            let esc: &[u8] = match b {
                b'"' => b"\\\"",
                b'\\' => b"\\\\",
                b'\n' => b"\\n",
                b'\r' => b"\\r",
                b'\t' => b"\\t",
                0..=0x1f => {
                    ctl[4] = HEX[usize::from(b >> 4)];
                    ctl[5] = HEX[usize::from(b & 0xf)];
                    &ctl
                }
                _ => continue,
            };
            self.out.extend_from_slice(&bytes[run..i]);
            self.out.extend_from_slice(esc);
            run = i + 1;
        }
        self.out.extend_from_slice(&bytes[run..]);
        self.out.push(b'"');
    }

    /// Open an array.
    pub fn begin_seq(&mut self) {
        self.open(b'[');
    }

    /// Close the innermost array.
    pub fn end_seq(&mut self) {
        self.close(b']');
    }

    /// Open an object.
    pub fn begin_object(&mut self) {
        self.open(b'{');
    }

    /// Start the next object entry with key `k`; its value follows.
    pub fn key(&mut self, k: &str) {
        self.entry();
        self.str(k);
        self.out.push(b':');
        if self.pretty {
            self.out.push(b' ');
        }
    }

    /// Close the innermost object.
    pub fn end_object(&mut self) {
        self.close(b'}');
    }

    /// Write one object entry: [`key`](Self::key) then the value.
    pub fn field<T: Serialize + ?Sized>(&mut self, k: &str, v: &T) {
        self.key(k);
        v.serialize(self);
    }

    /// Write one array element.
    pub fn item<T: Serialize + ?Sized>(&mut self, v: &T) {
        self.entry();
        v.serialize(self);
    }

    fn open(&mut self, bracket: u8) {
        self.out.push(bracket);
        self.depth += 1;
        self.empty = true;
    }

    fn entry(&mut self) {
        if !self.empty {
            self.out.push(b',');
        }
        self.empty = false;
        self.newline();
    }

    fn close(&mut self, bracket: u8) {
        self.depth -= 1;
        if !self.empty {
            self.newline();
        }
        // The closed container was itself an entry of its parent.
        self.empty = false;
        self.out.push(bracket);
    }

    fn newline(&mut self) {
        if self.pretty {
            self.out.push(b'\n');
            let n = self.out.len() + 2 * self.depth;
            self.out.resize(n, b' ');
        }
    }
}

/// Conversion into JSON tokens.
pub trait Serialize {
    /// Write `self` through `s`.
    fn serialize(&self, s: &mut Serializer<'_>);
}

/// Conversion out of the [`Value`] tree.
pub trait Deserialize: Sized {
    /// Reconstruct `Self` from a tree.
    fn deserialize(v: &Value) -> Result<Self, DeError>;
}

impl Serialize for Value {
    fn serialize(&self, s: &mut Serializer<'_>) {
        match self {
            Value::Null => s.null(),
            Value::Bool(b) => s.bool(*b),
            Value::Num(Num::U(x)) => s.u64(*x),
            Value::Num(Num::I(x)) => s.i64(*x),
            Value::Num(Num::F(x)) => s.f64(*x),
            Value::Str(x) => s.str(x),
            Value::Seq(items) => items.serialize(s),
            Value::Object(entries) => {
                s.begin_object();
                for (k, v) in entries {
                    s.field(k, v);
                }
                s.end_object();
            }
        }
    }
}

impl Deserialize for Value {
    fn deserialize(v: &Value) -> Result<Self, DeError> {
        Ok(v.clone())
    }
}

impl Serialize for bool {
    fn serialize(&self, s: &mut Serializer<'_>) {
        s.bool(*self);
    }
}

impl Deserialize for bool {
    fn deserialize(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Bool(b) => Ok(*b),
            other => Err(DeError::new(format!("expected bool, got {other:?}"))),
        }
    }
}

macro_rules! impl_serde_uint {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize(&self, s: &mut Serializer<'_>) {
                s.u64(*self as u64);
            }
        }
        impl Deserialize for $t {
            fn deserialize(v: &Value) -> Result<Self, DeError> {
                let wide = match v {
                    Value::Num(Num::U(x)) => *x,
                    Value::Num(Num::I(x)) if *x >= 0 => *x as u64,
                    Value::Num(Num::F(x)) if x.fract() == 0.0 && *x >= 0.0 => *x as u64,
                    other => {
                        return Err(DeError::new(format!(
                            "expected unsigned integer, got {other:?}"
                        )))
                    }
                };
                <$t>::try_from(wide)
                    .map_err(|_| DeError::new(format!("{wide} out of range for {}", stringify!($t))))
            }
        }
    )*};
}

impl_serde_uint!(u8, u16, u32, u64, usize);

macro_rules! impl_serde_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize(&self, s: &mut Serializer<'_>) {
                s.i64(*self as i64);
            }
        }
        impl Deserialize for $t {
            fn deserialize(v: &Value) -> Result<Self, DeError> {
                let wide = match v {
                    Value::Num(Num::I(x)) => *x,
                    Value::Num(Num::U(x)) => i64::try_from(*x)
                        .map_err(|_| DeError::new(format!("{x} out of i64 range")))?,
                    Value::Num(Num::F(x)) if x.fract() == 0.0 => *x as i64,
                    other => {
                        return Err(DeError::new(format!(
                            "expected integer, got {other:?}"
                        )))
                    }
                };
                <$t>::try_from(wide)
                    .map_err(|_| DeError::new(format!("{wide} out of range for {}", stringify!($t))))
            }
        }
    )*};
}

impl_serde_int!(i8, i16, i32, i64, isize);

impl Serialize for f64 {
    fn serialize(&self, s: &mut Serializer<'_>) {
        s.f64(*self);
    }
}

impl Deserialize for f64 {
    fn deserialize(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Num(Num::F(x)) => Ok(*x),
            Value::Num(Num::U(x)) => Ok(*x as f64),
            Value::Num(Num::I(x)) => Ok(*x as f64),
            other => Err(DeError::new(format!("expected number, got {other:?}"))),
        }
    }
}

impl Serialize for f32 {
    fn serialize(&self, s: &mut Serializer<'_>) {
        s.f64(f64::from(*self));
    }
}

impl Deserialize for f32 {
    fn deserialize(v: &Value) -> Result<Self, DeError> {
        f64::deserialize(v).map(|x| x as f32)
    }
}

impl Serialize for String {
    fn serialize(&self, s: &mut Serializer<'_>) {
        s.str(self);
    }
}

impl Deserialize for String {
    fn deserialize(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Str(s) => Ok(s.clone()),
            other => Err(DeError::new(format!("expected string, got {other:?}"))),
        }
    }
}

impl Serialize for str {
    fn serialize(&self, s: &mut Serializer<'_>) {
        s.str(self);
    }
}

impl<T: Serialize> Serialize for [T] {
    fn serialize(&self, s: &mut Serializer<'_>) {
        s.begin_seq();
        for item in self {
            s.item(item);
        }
        s.end_seq();
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize(&self, s: &mut Serializer<'_>) {
        self.as_slice().serialize(s);
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn deserialize(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Seq(items) => items.iter().map(Deserialize::deserialize).collect(),
            other => Err(DeError::new(format!("expected array, got {other:?}"))),
        }
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize(&self, s: &mut Serializer<'_>) {
        match self {
            Some(inner) => inner.serialize(s),
            None => s.null(),
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn deserialize(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Null => Ok(None),
            other => T::deserialize(other).map(Some),
        }
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize(&self, s: &mut Serializer<'_>) {
        (**self).serialize(s);
    }
}

macro_rules! impl_serde_tuple {
    ($(($($t:ident . $idx:tt),+))*) => {$(
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn serialize(&self, s: &mut Serializer<'_>) {
                s.begin_seq();
                $(s.item(&self.$idx);)+
                s.end_seq();
            }
        }
        impl<$($t: Deserialize),+> Deserialize for ($($t,)+) {
            fn deserialize(v: &Value) -> Result<Self, DeError> {
                const LEN: usize = [$($idx),+].len();
                match v {
                    Value::Seq(items) if items.len() == LEN => {
                        Ok(($($t::deserialize(&items[$idx])?,)+))
                    }
                    other => Err(DeError::new(format!(
                        "expected {LEN}-element array, got {other:?}"
                    ))),
                }
            }
        }
    )*};
}

impl_serde_tuple! {
    (A.0)
    (A.0, B.1)
    (A.0, B.1, C.2)
    (A.0, B.1, C.2, D.3)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn compact<T: Serialize + ?Sized>(v: &T) -> String {
        let mut out = Vec::new();
        let mut s = Serializer::new(&mut out);
        v.serialize(&mut s);
        s.finish().unwrap();
        String::from_utf8(out).unwrap()
    }

    #[test]
    fn integers_match_display() {
        let mut probes = vec![0u64, 9, 10, 99, 100, 101, 999, 1000, u64::MAX, u64::MAX - 1];
        let mut p = 1u64;
        while let Some(next) = p.checked_mul(10) {
            probes.extend([p - 1, p, p + 1]);
            p = next;
        }
        for n in probes {
            assert_eq!(compact(&n), n.to_string());
        }
        for n in [-1i64, -9, -10, -12345, i64::MIN, i64::MIN + 1] {
            assert_eq!(compact(&n), n.to_string());
        }
    }

    #[test]
    fn floats_match_display_with_integral_suffix() {
        let probes = [
            0.0,
            -0.0,
            1.0,
            -1500.0,
            0.1 + 0.2,
            1e-7,
            5e-324,
            1e15,
            9_007_199_254_740_991.0,
            9_007_199_254_740_992.0,
            1e21,
            -1.7976931348623157e308,
            123.456,
        ];
        for x in probes {
            let text = x.to_string();
            let want = if text.contains('.') {
                text
            } else {
                format!("{text}.0")
            };
            assert_eq!(compact(&x), want, "{x:?}");
        }
    }

    #[test]
    fn non_finite_floats_are_an_error() {
        for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut out = Vec::new();
            let mut s = Serializer::new(&mut out);
            vec![1.0, x].serialize(&mut s);
            assert_eq!(s.finish(), Err(NON_FINITE));
        }
    }

    #[test]
    fn strings_escape_quotes_backslashes_and_controls() {
        assert_eq!(
            compact("a\"b\\c\nd\re\tf\u{1}g\u{1f}h\u{7f}é漢"),
            "\"a\\\"b\\\\c\\nd\\re\\tf\\u0001g\\u001fh\u{7f}é漢\""
        );
        assert_eq!(compact(""), "\"\"");
    }

    #[test]
    fn containers_place_separators_and_indentation() {
        let v = (vec![1u8, 2], Vec::<u8>::new(), Some(true), None::<u8>);
        assert_eq!(compact(&v), "[[1,2],[],true,null]");
        let mut out = Vec::new();
        let mut s = Serializer::pretty(&mut out);
        s.begin_object();
        s.field("xs", &v.0);
        s.field("empty", &v.1);
        s.key("obj");
        s.begin_object();
        s.end_object();
        s.end_object();
        s.finish().unwrap();
        assert_eq!(
            String::from_utf8(out).unwrap(),
            "{\n  \"xs\": [\n    1,\n    2\n  ],\n  \"empty\": [],\n  \"obj\": {}\n}"
        );
    }
}

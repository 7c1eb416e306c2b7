//! Offline stand-in for `serde`.
//!
//! The workspace builds in a container without registry access, so this
//! crate supplies the minimal serde surface the codebase uses: the
//! `Serialize` / `Deserialize` traits, derive macros re-exported from the
//! sibling `serde_derive` shim, and impls for the primitives and
//! containers that appear in derived types. An impl with no caller in the
//! workspace (its tests included) is not kept: `Deserialize` covers
//! `bool`, the integers, the floats, `String`, `Option`, `Vec`, tuples
//! and maps; `Serialize` also covers `str`, `char`, `&T`, slices, arrays,
//! `Box` and `Arc`. Map keys ([`MapKey`]) are `String`, `u32` and `i64`.
//!
//! The two directions are not symmetric. [`Serialize`] *streams*: its one
//! method appends the value's JSON text to a `String`, so no write path
//! builds an intermediate tree (a derived struct pushes its pre-escaped
//! keys as literals and recurses into its fields). [`Deserialize`] reads a
//! JSON-like [`Value`] tree, which is what the `serde_json` shim's parser
//! produces. `Value` itself implements `Serialize`, and every other impl
//! goes through the same string escaping and number formatting, so there is
//! one printer for strings, numbers and punctuation.
//!
//! The text is compact (no whitespace). Floats print as their `f64`
//! widening's `{:?}` (`0.1f32` is `0.10000000149011612`, integral values
//! keep `.0`), non-finite floats as `null`. `HashMap`s print with their
//! keys sorted *as strings* (`"10"` before `"2"`), so output is
//! deterministic regardless of iteration order; `BTreeMap`s in key order.

use std::collections::{BTreeMap, HashMap};
use std::fmt::{self, Write as _};
use std::hash::Hash;
use std::sync::Arc;

pub use serde_derive::{Deserialize, Serialize};

/// JSON-like data model `Deserialize` reads — what a parsed document is.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Int(i64),
    UInt(u64),
    Float(f64),
    Str(String),
    Seq(Vec<Value>),
    Map(Vec<(String, Value)>),
}

impl Value {
    #[must_use]
    pub fn as_map(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Map(m) => Some(m),
            _ => None,
        }
    }

    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// Deserialization error.
#[derive(Debug, Clone)]
pub struct Error(pub String);

impl Error {
    #[must_use]
    pub fn expected(what: &str, context: &str) -> Self {
        Error(format!("expected {what} while deserializing {context}"))
    }

    #[must_use]
    pub fn unknown_variant(variant: &str, ty: &str) -> Self {
        Error(format!("unknown variant `{variant}` for {ty}"))
    }

    #[must_use]
    pub fn custom(msg: impl Into<String>) -> Self {
        Error(msg.into())
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

pub trait Serialize {
    /// Appends this value's compact JSON text to `out`.
    fn write_json(&self, out: &mut String);
}

/// Appends `s` as a JSON string literal: quoted, `"` and `\` preceded by a
/// backslash, newline, carriage return and tab as `\n`, `\r`, `\t`, every
/// other control character as `\u00XX`, and everything else (non-ASCII
/// included) copied as it is, one unescaped run at a time.
fn write_str(s: &str, out: &mut String) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.push('"');
    // Every escaped byte is ASCII, so `start` and `i` are char boundaries.
    let mut start = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        let two_char = match b {
            b'"' => Some("\\\""),
            b'\\' => Some("\\\\"),
            b'\n' => Some("\\n"),
            b'\r' => Some("\\r"),
            b'\t' => Some("\\t"),
            0..=0x1f => None,
            _ => continue,
        };
        out.push_str(&s[start..i]);
        match two_char {
            Some(escape) => out.push_str(escape),
            None => {
                out.push_str("\\u00");
                out.push(char::from(HEX[usize::from(b >> 4)]));
                out.push(char::from(HEX[usize::from(b & 0xf)]));
            }
        }
        start = i + 1;
    }
    out.push_str(&s[start..]);
    out.push('"');
}

/// Appends the items as a JSON array.
pub fn write_seq<I>(items: I, out: &mut String)
where
    I: IntoIterator,
    I::Item: Serialize,
{
    out.push('[');
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        item.write_json(out);
    }
    out.push(']');
}

/// Appends `(key, value)` pairs, in the order given, as a JSON object.
fn write_map<K: AsRef<str>, V: Serialize>(
    entries: impl IntoIterator<Item = (K, V)>,
    out: &mut String,
) {
    out.push('{');
    for (i, (k, v)) in entries.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_str(k.as_ref(), out);
        out.push(':');
        v.write_json(out);
    }
    out.push('}');
}

impl Serialize for Value {
    fn write_json(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => b.write_json(out),
            Value::Int(i) => i.write_json(out),
            Value::UInt(u) => u.write_json(out),
            Value::Float(f) => f.write_json(out),
            Value::Str(s) => write_str(s, out),
            Value::Seq(xs) => write_seq(xs, out),
            Value::Map(m) => write_map(m.iter().map(|(k, v)| (k, v)), out),
        }
    }
}

pub trait Deserialize: Sized {
    fn deserialize(v: &Value) -> Result<Self, Error>;

    /// The value to use when a struct field is absent entirely. Only
    /// types that model absence (i.e. `Option`) return `Some`; for
    /// everything else a missing field is an error, matching real
    /// serde's `missing field` behavior.
    fn deserialize_missing() -> Option<Self> {
        None
    }
}

/// Looks up a struct field in a serialized map. Missing fields error,
/// except `Option` fields which treat absence as `None`.
pub fn de_field<T: Deserialize>(
    m: &[(String, Value)],
    name: &str,
    context: &str,
) -> Result<T, Error> {
    match m.iter().find(|(k, _)| k == name) {
        Some((_, v)) => T::deserialize(v),
        None => T::deserialize_missing()
            .ok_or_else(|| Error(format!("missing field `{name}` in {context}"))),
    }
}

// ---------------------------------------------------------------- primitives

impl Serialize for bool {
    fn write_json(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
}

impl Deserialize for bool {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Bool(b) => Ok(*b),
            _ => Err(Error::expected("bool", "bool")),
        }
    }
}

macro_rules! impl_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn write_json(&self, out: &mut String) {
                write!(out, "{self}").expect("writing to a String cannot fail");
            }
        }
        impl Deserialize for $t {
            fn deserialize(v: &Value) -> Result<Self, Error> {
                match v {
                    Value::UInt(u) => <$t>::try_from(*u)
                        .map_err(|_| Error::custom(format!("integer {u} out of range for {}", stringify!($t)))),
                    Value::Int(i) => <$t>::try_from(*i)
                        .map_err(|_| Error::custom(format!("integer {i} out of range for {}", stringify!($t)))),
                    _ => Err(Error::expected("integer", stringify!($t))),
                }
            }
        }
    )*};
}

impl_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_float {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn write_json(&self, out: &mut String) {
                if self.is_finite() {
                    // Always as the `f64` widening. `{:?}` keeps a trailing
                    // `.0` on integral floats, which is still valid JSON
                    // and preserves float-ness on re-parse.
                    write!(out, "{:?}", f64::from(*self)).expect("writing to a String cannot fail");
                } else {
                    // Mirrors serde_json: non-finite floats become null.
                    out.push_str("null");
                }
            }
        }
        impl Deserialize for $t {
            fn deserialize(v: &Value) -> Result<Self, Error> {
                match v {
                    Value::Float(f) => Ok(*f as $t),
                    Value::UInt(u) => Ok(*u as $t),
                    Value::Int(i) => Ok(*i as $t),
                    Value::Null => Ok(<$t>::NAN),
                    _ => Err(Error::expected("number", stringify!($t))),
                }
            }
        }
    )*};
}

impl_float!(f32, f64);

impl Serialize for String {
    fn write_json(&self, out: &mut String) {
        write_str(self, out);
    }
}

impl Deserialize for String {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Str(s) => Ok(s.clone()),
            _ => Err(Error::expected("string", "String")),
        }
    }
}

impl Serialize for str {
    fn write_json(&self, out: &mut String) {
        write_str(self, out);
    }
}

impl Serialize for char {
    fn write_json(&self, out: &mut String) {
        write_str(self.encode_utf8(&mut [0; 4]), out);
    }
}

// ---------------------------------------------------------------- containers

impl<T: Serialize + ?Sized> Serialize for &T {
    fn write_json(&self, out: &mut String) {
        (**self).write_json(out);
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn write_json(&self, out: &mut String) {
        match self {
            Some(x) => x.write_json(out),
            None => out.push_str("null"),
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Null => Ok(None),
            other => T::deserialize(other).map(Some),
        }
    }

    fn deserialize_missing() -> Option<Self> {
        Some(None)
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn write_json(&self, out: &mut String) {
        write_seq(self, out);
    }
}

impl<T: Serialize> Serialize for [T] {
    fn write_json(&self, out: &mut String) {
        write_seq(self, out);
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn write_json(&self, out: &mut String) {
        write_seq(self, out);
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Seq(xs) => xs.iter().map(T::deserialize).collect(),
            _ => Err(Error::expected("sequence", "Vec")),
        }
    }
}

impl<T: Serialize> Serialize for Box<T> {
    fn write_json(&self, out: &mut String) {
        (**self).write_json(out);
    }
}

impl<T: Serialize + ?Sized> Serialize for Arc<T> {
    fn write_json(&self, out: &mut String) {
        (**self).write_json(out);
    }
}

macro_rules! impl_tuple {
    ($(($($t:ident : $idx:tt),+)),+) => {$(
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn write_json(&self, out: &mut String) {
                out.push('[');
                $(
                    if $idx > 0 {
                        out.push(',');
                    }
                    self.$idx.write_json(out);
                )+
                out.push(']');
            }
        }
        impl<$($t: Deserialize),+> Deserialize for ($($t,)+) {
            fn deserialize(v: &Value) -> Result<Self, Error> {
                match v {
                    Value::Seq(xs) => {
                        let mut it = xs.iter();
                        Ok(($(
                            {
                                let _ = $idx;
                                $t::deserialize(it.next().ok_or_else(|| Error::expected("tuple element", "tuple"))?)?
                            },
                        )+))
                    }
                    _ => Err(Error::expected("sequence", "tuple")),
                }
            }
        }
    )+};
}

impl_tuple!((A: 0), (A: 0, B: 1), (A: 0, B: 1, C: 2));

/// Map keys must render to/from strings (JSON object keys).
pub trait MapKey: Sized {
    fn to_key(&self) -> String;
    fn from_key(s: &str) -> Result<Self, Error>;
}

impl MapKey for String {
    fn to_key(&self) -> String {
        self.clone()
    }
    fn from_key(s: &str) -> Result<Self, Error> {
        Ok(s.to_string())
    }
}

macro_rules! impl_mapkey_int {
    ($($t:ty),*) => {$(
        impl MapKey for $t {
            fn to_key(&self) -> String {
                self.to_string()
            }
            fn from_key(s: &str) -> Result<Self, Error> {
                s.parse().map_err(|_| Error::custom(format!("bad integer map key `{s}`")))
            }
        }
    )*};
}

impl_mapkey_int!(u32, i64);

impl<K: MapKey + Eq + Hash, V: Serialize> Serialize for HashMap<K, V> {
    fn write_json(&self, out: &mut String) {
        let mut entries: Vec<(String, &V)> = self.iter().map(|(k, v)| (k.to_key(), v)).collect();
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        write_map(entries, out);
    }
}

impl<K: MapKey + Eq + Hash, V: Deserialize> Deserialize for HashMap<K, V> {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Map(m) => m
                .iter()
                .map(|(k, v)| Ok((K::from_key(k)?, V::deserialize(v)?)))
                .collect(),
            _ => Err(Error::expected("map", "HashMap")),
        }
    }
}

impl<K: MapKey + Ord, V: Serialize> Serialize for BTreeMap<K, V> {
    fn write_json(&self, out: &mut String) {
        write_map(self.iter().map(|(k, v)| (k.to_key(), v)), out);
    }
}

impl<K: MapKey + Ord, V: Deserialize> Deserialize for BTreeMap<K, V> {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Map(m) => m
                .iter()
                .map(|(k, v)| Ok((K::from_key(k)?, V::deserialize(v)?)))
                .collect(),
            _ => Err(Error::expected("map", "BTreeMap")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn json<T: Serialize + ?Sized>(value: &T) -> String {
        let mut out = String::new();
        value.write_json(&mut out);
        out
    }

    #[test]
    fn a_shared_slice_serializes_as_an_array() {
        let v = Value::Seq(vec![Value::Str("a\"".into()), Value::Str(String::new())]);
        let shared: Arc<[String]> = vec!["a\"".to_string(), String::new()].into();
        assert_eq!(json(&shared), json(&v));
        assert_eq!(json(&shared), r#"["a\"",""]"#);
    }

    #[test]
    fn an_empty_shared_slice_is_an_empty_array() {
        let shared: Arc<[u8]> = Vec::new().into();
        assert_eq!(json(&shared), "[]");
    }
}

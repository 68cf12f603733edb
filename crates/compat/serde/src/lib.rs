//! Offline stand-in for the crates.io `serde` crate.
//!
//! The workspace must build without network access, so this crate provides
//! the subset of serde the repository relies on: a [`Serialize`] trait that
//! renders JSON directly, a [`Deserialize`] trait that reads a parsed JSON
//! [`Value`] tree back into Rust types, `#[derive(Serialize)]` /
//! `#[derive(Deserialize)]` re-exported from the companion `serde_derive`
//! shim, and impls for the primitive / container types that appear in
//! derived structs. Both derives generate real impls with serde-compatible
//! shapes (external tagging for enums, transparent newtypes); the JSON
//! *parser* lives in the companion `serde_json` shim, which produces the
//! [`Value`] tree consumed here.
//!
//! Two deliberate divergences from real serde, both in favour of the
//! spec-file use case this workspace deserializes for:
//!
//! * Derived struct impls **reject unknown fields** (real serde ignores them
//!   unless `deny_unknown_fields` is set), so a typo in a hand-written spec
//!   surfaces as an error naming the stray field instead of being silently
//!   dropped.
//! * Numbers keep their source text ([`Number`]), so `u64`/`i64` values
//!   outside the exact-`f64` range round-trip losslessly.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

// The derive macro emits `::serde::Serialize` paths; alias this crate under
// that name so the derives also work from inside this crate's own tests.
extern crate self as serde;

pub use serde_derive::{Deserialize, Serialize};

/// Types that can render themselves as JSON.
///
/// This intentionally skips real serde's serializer abstraction: every user
/// in this workspace ultimately wants JSON text (see the `figures` binary),
/// so the trait writes JSON straight into a string buffer.
pub trait Serialize {
    /// Appends the JSON representation of `self` to `out`.
    fn write_json(&self, out: &mut String);
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn write_json(&self, out: &mut String) {
        (**self).write_json(out);
    }
}

macro_rules! serialize_display_int {
    ($($ty:ty),*) => {$(
        impl Serialize for $ty {
            fn write_json(&self, out: &mut String) {
                out.push_str(&self.to_string());
            }
        }
    )*};
}
serialize_display_int!(i8, i16, i32, i64, i128, isize, u8, u16, u32, u64, u128, usize);

macro_rules! serialize_float {
    ($($ty:ty),*) => {$(
        impl Serialize for $ty {
            fn write_json(&self, out: &mut String) {
                if self.is_finite() {
                    out.push_str(&self.to_string());
                } else {
                    // JSON has no NaN/Infinity literals; serde_json emits null.
                    out.push_str("null");
                }
            }
        }
    )*};
}
serialize_float!(f32, f64);

impl Serialize for bool {
    fn write_json(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
}

impl Serialize for str {
    fn write_json(&self, out: &mut String) {
        write_json_string(self, out);
    }
}

impl Serialize for String {
    fn write_json(&self, out: &mut String) {
        write_json_string(self, out);
    }
}

impl<T: Serialize> Serialize for [T] {
    fn write_json(&self, out: &mut String) {
        out.push('[');
        for (i, item) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            item.write_json(out);
        }
        out.push(']');
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn write_json(&self, out: &mut String) {
        self.as_slice().write_json(out);
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn write_json(&self, out: &mut String) {
        self.as_slice().write_json(out);
    }
}

macro_rules! serialize_tuple {
    ($(($($name:ident . $idx:tt),+)),+ $(,)?) => {$(
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn write_json(&self, out: &mut String) {
                out.push('[');
                let mut first = true;
                $(
                    if !first {
                        out.push(',');
                    }
                    first = false;
                    self.$idx.write_json(out);
                )+
                let _ = first;
                out.push(']');
            }
        }
    )+};
}
serialize_tuple!((A.0), (A.0, B.1), (A.0, B.1, C.2), (A.0, B.1, C.2, D.3));

impl<T: Serialize> Serialize for Option<T> {
    fn write_json(&self, out: &mut String) {
        match self {
            Some(v) => v.write_json(out),
            None => out.push_str("null"),
        }
    }
}

impl<K: std::fmt::Display, V: Serialize> Serialize for std::collections::BTreeMap<K, V> {
    fn write_json(&self, out: &mut String) {
        out.push('{');
        for (i, (k, v)) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_json_string(&k.to_string(), out);
            out.push(':');
            v.write_json(out);
        }
        out.push('}');
    }
}

// ---------------------------------------------------------------------------
// Deserialization: the parsed-JSON value tree and the `Deserialize` trait
// ---------------------------------------------------------------------------

/// A JSON number, kept as its source text so integers outside the exact-`f64`
/// range (e.g. large `u64` seeds) survive a round trip losslessly. A literal
/// of up to 30 bytes (any `u64` or `i64`, or a 17-digit `f64` in exponent
/// form) is stored in place, so parsing one allocates nothing, and a
/// [`Value`] stays 32 bytes.
#[derive(Clone, PartialEq)]
pub struct Number(Literal);

#[derive(Clone, PartialEq)]
enum Literal {
    Inline { len: u8, bytes: [u8; Number::INLINE] },
    Heap(String),
}

impl Number {
    /// The longest literal stored in place.
    const INLINE: usize = 30;

    /// Wraps an already-validated JSON number literal.
    ///
    /// The text must match the JSON number grammar; the parser in the
    /// `serde_json` shim guarantees this for parsed documents.
    pub fn from_literal(text: impl AsRef<str> + Into<String>) -> Self {
        let short = text.as_ref().as_bytes();
        if short.len() <= Self::INLINE {
            let mut bytes = [0; Self::INLINE];
            bytes[..short.len()].copy_from_slice(short);
            return Number(Literal::Inline { len: short.len() as u8, bytes });
        }
        Number(Literal::Heap(text.into()))
    }

    /// The source text of the number.
    pub fn as_literal(&self) -> &str {
        match &self.0 {
            Literal::Inline { len, bytes } => std::str::from_utf8(&bytes[..usize::from(*len)])
                .expect("an inline literal is copied from a str"),
            Literal::Heap(text) => text,
        }
    }

    /// The number as an `f64` (always succeeds for JSON numbers, with the
    /// usual rounding for values outside the exact range).
    pub fn as_f64(&self) -> f64 {
        self.as_literal().parse().unwrap_or(f64::NAN)
    }

    /// The number as a `u64`, if it is a non-negative integer in range.
    pub fn as_u64(&self) -> Option<u64> {
        self.as_literal().parse().ok()
    }

    /// The number as an `i64`, if it is an integer in range.
    pub(crate) fn as_i64(&self) -> Option<i64> {
        self.as_literal().parse().ok()
    }
}

/// Shows the literal, as a `Number(String)` would.
impl std::fmt::Debug for Number {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Number").field(&self.as_literal()).finish()
    }
}

/// A parsed JSON document: the output of the `serde_json` shim's parser and
/// the input of [`Deserialize`].
///
/// Objects preserve key order as a plain pair list — spec files are small, so
/// linear key lookup beats pulling in a map type, and serialization order is
/// kept stable for readable diffs.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (see [`Number`]).
    Number(Number),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, as ordered `(key, value)` pairs.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Looks up a key in an object; `None` for missing keys and non-objects.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// A short name of the value's JSON type, for error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "a boolean",
            Value::Number(_) => "a number",
            Value::String(_) => "a string",
            Value::Array(_) => "an array",
            Value::Object(_) => "an object",
        }
    }
}

impl Serialize for Value {
    fn write_json(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => b.write_json(out),
            Value::Number(n) => out.push_str(n.as_literal()),
            Value::String(s) => write_json_string(s, out),
            Value::Array(items) => items.write_json(out),
            Value::Object(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_json_string(k, out);
                    out.push(':');
                    v.write_json(out);
                }
                out.push('}');
            }
        }
    }
}

/// Types that can reconstruct themselves from a parsed JSON [`Value`].
///
/// The shim equivalent of serde's `Deserialize`; `#[derive(Deserialize)]`
/// generates an impl with the same JSON shape the `Serialize` derive writes,
/// so derived types round-trip through `serde_json::to_string` /
/// `serde_json::from_str`.
pub trait Deserialize: Sized {
    /// Reads a value of this type out of `value`.
    fn read_json(value: &Value) -> Result<Self, de::Error>;
}

/// Deserialization errors and the helper functions the derive macro targets.
pub mod de {
    use super::{Deserialize, Value};
    use std::fmt;

    /// A deserialization error: what failed, at which field/variant path.
    #[derive(Debug, Clone, PartialEq)]
    pub struct Error {
        message: String,
    }

    impl Error {
        /// An error with the given message.
        pub fn custom(message: impl Into<String>) -> Self {
            Error { message: message.into() }
        }

        /// "expected X, found Y" for a mistyped value.
        pub fn expected(what: &str, found: &Value, ty: &str) -> Self {
            Error::custom(format!("{ty}: expected {what}, found {}", found.type_name()))
        }

        /// Prefixes the error with the field it occurred under.
        #[must_use]
        pub(crate) fn in_field(self, field: &str) -> Self {
            Error::custom(format!("{field}: {}", self.message))
        }
    }

    impl fmt::Display for Error {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str(&self.message)
        }
    }

    impl std::error::Error for Error {}

    /// Views `value` as an object's pair list (derive helper for structs).
    pub fn object<'v>(value: &'v Value, ty: &str) -> Result<&'v [(String, Value)], Error> {
        match value {
            Value::Object(pairs) => Ok(pairs),
            other => Err(Error::expected("an object", other, ty)),
        }
    }

    /// Reads one struct field. A missing key deserializes like an explicit
    /// `null` — `Option` fields may simply be omitted — but reports
    /// "missing field" if the field's type rejects null.
    pub fn field<T: Deserialize>(
        pairs: &[(String, Value)],
        name: &str,
        ty: &str,
    ) -> Result<T, Error> {
        match pairs.iter().find(|(k, _)| k == name) {
            Some((_, v)) => T::read_json(v).map_err(|e| e.in_field(&format!("{ty}.{name}"))),
            None => T::read_json(&Value::Null)
                .map_err(|_| Error::custom(format!("{ty}: missing field `{name}`"))),
        }
    }

    /// Rejects keys outside `allowed` — a typo in a hand-written spec names
    /// the stray field instead of being silently ignored.
    pub fn deny_unknown(
        pairs: &[(String, Value)],
        allowed: &[&str],
        ty: &str,
    ) -> Result<(), Error> {
        for (key, _) in pairs {
            if !allowed.iter().any(|a| a == key) {
                return Err(Error::custom(format!(
                    "{ty}: unknown field `{key}` (expected one of: {})",
                    allowed.join(", ")
                )));
            }
        }
        Ok(())
    }

    /// Splits an externally-tagged enum value into `(variant, payload)`:
    /// a bare string is a unit variant, a single-key object carries the
    /// variant's data (derive helper for enums).
    pub fn variant<'v>(value: &'v Value, ty: &str) -> Result<(&'v str, Option<&'v Value>), Error> {
        match value {
            Value::String(name) => Ok((name, None)),
            Value::Object(pairs) if pairs.len() == 1 => Ok((&pairs[0].0, Some(&pairs[0].1))),
            other => Err(Error::expected("a variant name or single-variant object", other, ty)),
        }
    }

    /// Asserts a unit variant carries no payload.
    pub fn no_payload(payload: Option<&Value>, variant: &str) -> Result<(), Error> {
        match payload {
            None | Some(Value::Null) => Ok(()),
            Some(other) => Err(Error::expected("no data", other, variant)),
        }
    }

    /// Unwraps the payload of a data-carrying variant.
    pub fn payload<'v>(payload: Option<&'v Value>, variant: &str) -> Result<&'v Value, Error> {
        payload.ok_or_else(|| Error::custom(format!("{variant}: variant is missing its data")))
    }

    /// Views a tuple-variant payload as an array of exactly `n` elements.
    pub fn array_n<'v>(value: &'v Value, n: usize, ty: &str) -> Result<&'v [Value], Error> {
        match value {
            Value::Array(items) if items.len() == n => Ok(items),
            Value::Array(items) => {
                Err(Error::custom(format!("{ty}: expected {n} elements, found {}", items.len())))
            }
            other => Err(Error::expected("an array", other, ty)),
        }
    }

    /// "unknown variant" error listing the expected variant names.
    pub fn unknown_variant(found: &str, expected: &[&str], ty: &str) -> Error {
        Error::custom(format!(
            "{ty}: unknown variant `{found}` (expected one of: {})",
            expected.join(", ")
        ))
    }
}

macro_rules! deserialize_int {
    ($($ty:ty => $via:ident),*) => {$(
        impl Deserialize for $ty {
            fn read_json(value: &Value) -> Result<Self, de::Error> {
                let n = match value {
                    Value::Number(n) => n,
                    other => return Err(de::Error::expected("an integer", other, stringify!($ty))),
                };
                n.$via()
                    .and_then(|wide| <$ty>::try_from(wide).ok())
                    .ok_or_else(|| de::Error::custom(format!(
                        concat!("expected a ", stringify!($ty), ", found {}"),
                        n.as_literal()
                    )))
            }
        }
    )*};
}
deserialize_int!(u8 => as_u64, u16 => as_u64, u32 => as_u64, u64 => as_u64, usize => as_u64,
                 i8 => as_i64, i16 => as_i64, i32 => as_i64, i64 => as_i64, isize => as_i64);

macro_rules! deserialize_float {
    ($($ty:ty),*) => {$(
        impl Deserialize for $ty {
            fn read_json(value: &Value) -> Result<Self, de::Error> {
                match value {
                    Value::Number(n) => Ok(n.as_f64() as $ty),
                    // Deliberately NOT accepting null (although the serializer
                    // writes non-finite floats as null): `de::field` maps a
                    // *missing* key to null, so accepting it here would turn
                    // "missing required field" into a silent NaN.
                    other => Err(de::Error::expected("a number", other, stringify!($ty))),
                }
            }
        }
    )*};
}
deserialize_float!(f32, f64);

impl Deserialize for bool {
    fn read_json(value: &Value) -> Result<Self, de::Error> {
        match value {
            Value::Bool(b) => Ok(*b),
            other => Err(de::Error::expected("a boolean", other, "bool")),
        }
    }
}

impl Deserialize for String {
    fn read_json(value: &Value) -> Result<Self, de::Error> {
        match value {
            Value::String(s) => Ok(s.clone()),
            other => Err(de::Error::expected("a string", other, "String")),
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn read_json(value: &Value) -> Result<Self, de::Error> {
        match value {
            Value::Null => Ok(None),
            other => T::read_json(other).map(Some),
        }
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn read_json(value: &Value) -> Result<Self, de::Error> {
        match value {
            Value::Array(items) => items
                .iter()
                .enumerate()
                .map(|(i, v)| T::read_json(v).map_err(|e| e.in_field(&format!("[{i}]"))))
                .collect(),
            other => Err(de::Error::expected("an array", other, "Vec")),
        }
    }
}

impl Deserialize for Value {
    fn read_json(value: &Value) -> Result<Self, de::Error> {
        Ok(value.clone())
    }
}

/// Mirrors the Display-keyed `Serialize` impl: keys are parsed back from
/// their string form.
impl<K: std::str::FromStr + Ord, V: Deserialize> Deserialize for std::collections::BTreeMap<K, V> {
    fn read_json(value: &Value) -> Result<Self, de::Error> {
        let pairs = de::object(value, "BTreeMap")?;
        pairs
            .iter()
            .map(|(k, v)| {
                let key = k
                    .parse()
                    .map_err(|_| de::Error::custom(format!("BTreeMap: invalid key `{k}`")))?;
                let value = V::read_json(v).map_err(|e| e.in_field(k))?;
                Ok((key, value))
            })
            .collect()
    }
}

macro_rules! deserialize_tuple {
    ($(($($name:ident . $idx:tt),+; $len:literal)),+ $(,)?) => {$(
        impl<$($name: Deserialize),+> Deserialize for ($($name,)+) {
            fn read_json(value: &Value) -> Result<Self, de::Error> {
                let items = de::array_n(value, $len, "tuple")?;
                Ok(($($name::read_json(&items[$idx])
                    .map_err(|e| e.in_field(&format!("[{}]", $idx)))?,)+))
            }
        }
    )+};
}
deserialize_tuple!((A.0; 1), (A.0, B.1; 2), (A.0, B.1, C.2; 3), (A.0, B.1, C.2, D.3; 4));

/// Writes `s` as a JSON string literal, escaping as required by RFC 8259.
pub fn write_json_string(s: &str, out: &mut String) {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn number_literals_keep_their_text_stored_in_place_or_not() {
        let long = "1.00000000000000000000000000000001";
        for text in ["0", "-7", "18446744073709551615", "-2.2250738585072014e-308", long] {
            let n = Number::from_literal(text);
            assert_eq!(n.as_literal(), text);
            assert_eq!(n, Number::from_literal(text.to_string()));
            assert_eq!(format!("{n:?}"), format!("Number({text:?})"));
            assert!(matches!(n.0, Literal::Inline { .. }) == (text.len() <= Number::INLINE));
        }
        assert_ne!(Number::from_literal("1"), Number::from_literal("1.0"));
        assert_eq!(std::mem::size_of::<Value>(), 32);
        assert_eq!(Number::from_literal("18446744073709551615").as_u64(), Some(u64::MAX));
        assert_eq!(Number::from_literal(long).as_f64(), 1.0);
    }

    #[test]
    fn primitives_render_as_json() {
        let mut out = String::new();
        42u64.write_json(&mut out);
        out.push(',');
        (-1.5f64).write_json(&mut out);
        out.push(',');
        f32::NAN.write_json(&mut out);
        out.push(',');
        true.write_json(&mut out);
        out.push(',');
        "a\"b\n".write_json(&mut out);
        assert_eq!(out, r#"42,-1.5,null,true,"a\"b\n""#);
    }

    #[test]
    fn containers_render_as_json() {
        let mut out = String::new();
        vec![1u32, 2, 3].write_json(&mut out);
        out.push(',');
        Option::<u32>::None.write_json(&mut out);
        out.push(',');
        Some("x".to_string()).write_json(&mut out);
        assert_eq!(out, r#"[1,2,3],null,"x""#);
    }

    #[derive(Serialize)]
    struct Row {
        label: String,
        value: f64,
        tags: Vec<u32>,
    }

    #[derive(Serialize)]
    enum Kind {
        Plain,
        Weighted { factor: f64 },
        Pair(u8, u8),
    }

    #[test]
    fn derived_struct_and_enum_render_as_json() {
        let mut out = String::new();
        Row { label: "r".into(), value: 0.5, tags: vec![7] }.write_json(&mut out);
        assert_eq!(out, r#"{"label":"r","value":0.5,"tags":[7]}"#);

        let mut out = String::new();
        Kind::Plain.write_json(&mut out);
        out.push(',');
        Kind::Weighted { factor: 2.0 }.write_json(&mut out);
        out.push(',');
        Kind::Pair(1, 2).write_json(&mut out);
        assert_eq!(out, r#""Plain",{"Weighted":{"factor":2}},{"Pair":[1,2]}"#);
    }
}

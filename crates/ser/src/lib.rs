//! Minimal, dependency-free JSON layer for the Nimblock workspace.
//!
//! The build environment has no access to a crates.io registry, so the
//! workspace cannot depend on `serde`/`serde_json`. This crate provides the
//! small slice of their functionality the repo actually uses:
//!
//! * [`Json`] — an owned JSON document tree. Objects preserve insertion
//!   order so encode→decode→encode round-trips are byte-identical (the
//!   golden-file tests in `tests/goldens/` rely on this).
//! * [`ToJson`] / [`FromJson`] — the encode/decode traits, implemented for
//!   the usual primitives, `String`, `Vec<T>`, `Option<T>`, `Arc<T>`,
//!   2/3-tuples, and `BTreeMap<String, T>`.
//! * [`to_string`] / [`to_string_pretty`] / [`from_str`] — the
//!   `serde_json`-shaped entry points.
//! * [`impl_json_struct!`], [`impl_json_newtype!`],
//!   [`impl_json_enum_units!`], [`impl_json_enum_structs!`] — declarative
//!   macros replacing `#[derive(Serialize, Deserialize)]` for the type
//!   shapes that appear in this workspace.
//!
//! The wire format matches what `serde_json` produced for the same types
//! (externally-tagged enums, structs as objects, newtypes transparent), so
//! stimulus files written by earlier builds still parse.
//!
//! # Example
//!
//! ```
//! use nimblock_ser::{impl_json_struct, from_str, to_string, FromJson, ToJson};
//!
//! #[derive(Debug, PartialEq)]
//! struct Point { x: u32, y: u32 }
//! impl_json_struct!(Point { x, y });
//!
//! let p = Point { x: 3, y: 4 };
//! let text = to_string(&p);
//! assert_eq!(text, r#"{"x":3,"y":4}"#);
//! assert_eq!(from_str::<Point>(&text).unwrap(), p);
//! ```

mod macros;
mod parse;
mod value;
mod write;

pub use parse::parse;
pub use value::{Json, JsonError};
pub use write::write_string;

use std::collections::BTreeMap;
use std::sync::Arc;

/// Encodes a value as a [`Json`] tree.
pub trait ToJson {
    /// Returns the JSON representation of `self`.
    fn to_json(&self) -> Json;
}

/// Decodes a value from a [`Json`] tree.
pub trait FromJson: Sized {
    /// Reconstructs a value from its JSON representation.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] describing the first shape mismatch.
    fn from_json(v: &Json) -> Result<Self, JsonError>;
}

/// Encodes `value` as compact JSON text.
pub fn to_string<T: ToJson + ?Sized>(value: &T) -> String {
    value.to_json().to_compact()
}

/// Encodes `value` as pretty-printed JSON text (two-space indent).
pub fn to_string_pretty<T: ToJson + ?Sized>(value: &T) -> String {
    value.to_json().to_pretty()
}

/// Parses JSON text and decodes a `T` from it.
///
/// # Errors
///
/// Returns a [`JsonError`] on malformed JSON or a shape mismatch.
pub fn from_str<T: FromJson>(text: &str) -> Result<T, JsonError> {
    T::from_json(&parse(text)?)
}

// ---------------------------------------------------------------------------
// Trait impls for primitives and std containers.
// ---------------------------------------------------------------------------

macro_rules! impl_unsigned {
    ($($ty:ty),+) => {$(
        impl ToJson for $ty {
            fn to_json(&self) -> Json { Json::U64(u64::from(*self)) }
        }
        impl FromJson for $ty {
            fn from_json(v: &Json) -> Result<Self, JsonError> {
                let raw = v.as_u64().ok_or_else(|| JsonError::expected(stringify!($ty), v))?;
                <$ty>::try_from(raw).map_err(|_| JsonError::new(format!(
                    "number {raw} out of range for {}", stringify!($ty))))
            }
        }
    )+};
}
impl_unsigned!(u8, u16, u32, u64);

impl ToJson for usize {
    fn to_json(&self) -> Json {
        Json::U64(*self as u64)
    }
}
impl FromJson for usize {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let raw = v.as_u64().ok_or_else(|| JsonError::expected("usize", v))?;
        usize::try_from(raw).map_err(|_| JsonError::new(format!("number {raw} out of range for usize")))
    }
}

macro_rules! impl_signed {
    ($($ty:ty),+) => {$(
        impl ToJson for $ty {
            fn to_json(&self) -> Json { Json::I64(i64::from(*self)) }
        }
        impl FromJson for $ty {
            fn from_json(v: &Json) -> Result<Self, JsonError> {
                let raw = v.as_i64().ok_or_else(|| JsonError::expected(stringify!($ty), v))?;
                <$ty>::try_from(raw).map_err(|_| JsonError::new(format!(
                    "number {raw} out of range for {}", stringify!($ty))))
            }
        }
    )+};
}
impl_signed!(i8, i16, i32, i64);

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::F64(*self)
    }
}
impl FromJson for f64 {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_f64().ok_or_else(|| JsonError::expected("f64", v))
    }
}

impl ToJson for f32 {
    fn to_json(&self) -> Json {
        Json::F64(f64::from(*self))
    }
}
impl FromJson for f32 {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(v.as_f64().ok_or_else(|| JsonError::expected("f32", v))? as f32)
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}
impl FromJson for bool {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v {
            Json::Bool(b) => Ok(*b),
            other => Err(JsonError::expected("bool", other)),
        }
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}
impl FromJson for String {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v {
            Json::Str(s) => Ok(s.clone()),
            other => Err(JsonError::expected("string", other)),
        }
    }
}

impl ToJson for str {
    fn to_json(&self) -> Json {
        Json::Str(self.to_owned())
    }
}

impl ToJson for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
}
impl FromJson for Json {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(v.clone())
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Array(self.iter().map(ToJson::to_json).collect())
    }
}
impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v {
            Json::Array(items) => items.iter().map(T::from_json).collect(),
            other => Err(JsonError::expected("array", other)),
        }
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Json {
        Json::Array(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            None => Json::Null,
            Some(value) => value.to_json(),
        }
    }
}
impl<T: FromJson> FromJson for Option<T> {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v {
            Json::Null => Ok(None),
            other => Ok(Some(T::from_json(other)?)),
        }
    }
}

impl<T: ToJson + ?Sized> ToJson for Arc<T> {
    fn to_json(&self) -> Json {
        (**self).to_json()
    }
}
impl<T: FromJson> FromJson for Arc<T> {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(Arc::new(T::from_json(v)?))
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn to_json(&self) -> Json {
        (**self).to_json()
    }
}

impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn to_json(&self) -> Json {
        Json::Array(vec![self.0.to_json(), self.1.to_json()])
    }
}
impl<A: FromJson, B: FromJson> FromJson for (A, B) {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v {
            Json::Array(items) if items.len() == 2 => {
                Ok((A::from_json(&items[0])?, B::from_json(&items[1])?))
            }
            other => Err(JsonError::expected("2-element array", other)),
        }
    }
}

impl<A: ToJson, B: ToJson, C: ToJson> ToJson for (A, B, C) {
    fn to_json(&self) -> Json {
        Json::Array(vec![self.0.to_json(), self.1.to_json(), self.2.to_json()])
    }
}
impl<A: FromJson, B: FromJson, C: FromJson> FromJson for (A, B, C) {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v {
            Json::Array(items) if items.len() == 3 => Ok((
                A::from_json(&items[0])?,
                B::from_json(&items[1])?,
                C::from_json(&items[2])?,
            )),
            other => Err(JsonError::expected("3-element array", other)),
        }
    }
}

impl<T: ToJson> ToJson for BTreeMap<String, T> {
    fn to_json(&self) -> Json {
        Json::Object(self.iter().map(|(k, v)| (k.clone(), v.to_json())).collect())
    }
}
impl<T: FromJson> FromJson for BTreeMap<String, T> {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v {
            Json::Object(pairs) => pairs
                .iter()
                .map(|(k, v)| Ok((k.clone(), T::from_json(v)?)))
                .collect(),
            other => Err(JsonError::expected("object", other)),
        }
    }
}

/// Looks up `key` in an object's pair list and decodes it (used by
/// [`impl_json_struct!`]; not intended for direct use).
///
/// # Errors
///
/// Returns a [`JsonError`] if the key is missing or its value is malformed.
#[doc(hidden)]
pub fn field_from_json<T: FromJson>(pairs: &[(String, Json)], key: &str) -> Result<T, JsonError> {
    match pairs.iter().find(|(k, _)| k == key) {
        Some((_, value)) => {
            T::from_json(value).map_err(|e| JsonError::new(format!("field `{key}`: {e}")))
        }
        None => Err(JsonError::new(format!("missing field `{key}`"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_roundtrip() {
        assert_eq!(from_str::<u64>(&to_string(&u64::MAX)).unwrap(), u64::MAX);
        assert_eq!(from_str::<u32>("7").unwrap(), 7);
        assert_eq!(from_str::<i64>("-9").unwrap(), -9);
        assert_eq!(from_str::<bool>("true").unwrap(), true);
        assert_eq!(from_str::<f64>("2.5").unwrap(), 2.5);
        assert_eq!(from_str::<String>("\"hi\"").unwrap(), "hi");
    }

    #[test]
    fn u64_max_keeps_integer_fidelity() {
        // f64 cannot represent u64::MAX exactly; the U64 variant must.
        let text = to_string(&u64::MAX);
        assert_eq!(text, "18446744073709551615");
        assert_eq!(from_str::<u64>(&text).unwrap(), u64::MAX);
    }

    #[test]
    fn out_of_range_numbers_error() {
        assert!(from_str::<u8>("300").is_err());
        assert!(from_str::<u32>("-1").is_err());
    }

    #[test]
    fn containers_roundtrip() {
        let v = vec![1u32, 2, 3];
        assert_eq!(from_str::<Vec<u32>>(&to_string(&v)).unwrap(), v);
        let opt: Option<u32> = None;
        assert_eq!(to_string(&opt), "null");
        assert_eq!(from_str::<Option<u32>>("null").unwrap(), None);
        assert_eq!(from_str::<Option<u32>>("4").unwrap(), Some(4));
        let pair = (1u32, "x".to_owned());
        assert_eq!(from_str::<(u32, String)>(&to_string(&pair)).unwrap(), pair);
        let arc = Arc::new(5u64);
        assert_eq!(from_str::<Arc<u64>>(&to_string(&arc)).unwrap(), arc);
    }

    #[test]
    fn map_roundtrips_sorted() {
        let mut map = BTreeMap::new();
        map.insert("b".to_owned(), 2u32);
        map.insert("a".to_owned(), 1u32);
        let text = to_string(&map);
        assert_eq!(text, r#"{"a":1,"b":2}"#);
        assert_eq!(from_str::<BTreeMap<String, u32>>(&text).unwrap(), map);
    }

    #[test]
    fn missing_field_is_reported_by_name() {
        let err = field_from_json::<u32>(&[("x".to_owned(), Json::U64(1))], "y").unwrap_err();
        assert!(err.to_string().contains("missing field `y`"));
    }
}

//! Offline stand-in for the `serde` crate.
//!
//! Instead of serde's visitor-based data model this shim round-trips
//! everything through a single in-memory [`Value`] tree. `Serialize`
//! maps a type *to* a `Value`; `Deserialize` rebuilds it *from* one.
//! The companion `serde_json` shim renders `Value` as JSON using the
//! same conventions as real serde (unit enum variants as strings,
//! newtype variants as single-key objects, `None` as `null`), so
//! serialized output is drop-in compatible for the shapes this
//! workspace uses.

use std::collections::BTreeMap;
use std::fmt;

#[cfg(feature = "derive")]
pub use serde_derive::{Deserialize, Serialize};

/// The self-describing data model every serializable type maps through.
///
/// Object keys keep insertion order (field declaration order), matching
/// what `serde_json` emits for structs.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// JSON boolean.
    Bool(bool),
    /// Signed integer.
    I64(i64),
    /// Unsigned integer (used when the value does not fit `i64`).
    U64(u64),
    /// Floating point number.
    F64(f64),
    /// String.
    Str(String),
    /// Array.
    Array(Vec<Value>),
    /// Object as an ordered list of key/value pairs.
    Object(Vec<(String, Value)>),
}

/// Shared `Null` returned for missing object fields.
pub const NULL: Value = Value::Null;

impl Value {
    /// Looks up a key when `self` is an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Returns the element pairs when `self` is an object.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// Returns the elements when `self` is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Returns the string when `self` is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Numeric view of the value, when it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::I64(v) => Some(*v as f64),
            Value::U64(v) => Some(*v as f64),
            Value::F64(v) => Some(*v),
            _ => None,
        }
    }

    /// One-word description of the value's kind, for error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::I64(_) | Value::U64(_) => "integer",
            Value::F64(_) => "number",
            Value::Str(_) => "string",
            Value::Array(_) => "array",
            Value::Object(_) => "object",
        }
    }

    /// Field lookup that treats a missing key as `null`, so optional
    /// fields deserialize to `None` and required fields produce a clear
    /// type error. Used by derived `Deserialize` impls.
    pub fn field(&self, key: &str) -> &Value {
        self.get(key).unwrap_or(&NULL)
    }
}

/// Error produced while rebuilding a type from a [`Value`].
#[derive(Debug, Clone, PartialEq)]
pub struct Error {
    msg: String,
}

impl Error {
    /// Builds an error from any displayable message.
    pub fn custom(msg: impl fmt::Display) -> Self {
        Error { msg: msg.to_string() }
    }

    /// Standard "wrong kind" error.
    pub fn expected(what: &str, got: &Value) -> Self {
        Error::custom(format!("expected {what}, got {}", got.kind()))
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.msg)
    }
}

impl std::error::Error for Error {}

/// Maps a value into the [`Value`] data model.
pub trait Serialize {
    /// Converts `self` to a `Value` tree.
    fn to_value(&self) -> Value;
}

/// Rebuilds a value from the [`Value`] data model.
pub trait Deserialize: Sized {
    /// Converts a `Value` tree back into `Self`.
    ///
    /// # Errors
    ///
    /// Returns [`Error`] when the value's shape does not match `Self`.
    fn from_value(v: &Value) -> Result<Self, Error>;
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Bool(b) => Ok(*b),
            other => Err(Error::expected("bool", other)),
        }
    }
}

macro_rules! impl_serde_signed {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::I64(*self as i64)
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                let raw: i64 = match v {
                    Value::I64(n) => *n,
                    Value::U64(n) => i64::try_from(*n)
                        .map_err(|_| Error::custom("integer out of range"))?,
                    other => return Err(Error::expected("integer", other)),
                };
                <$t>::try_from(raw).map_err(|_| Error::custom("integer out of range"))
            }
        }
    )*};
}
impl_serde_signed!(i8, i16, i32, i64, isize);

macro_rules! impl_serde_unsigned {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::U64(*self as u64)
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                let raw: u64 = match v {
                    Value::U64(n) => *n,
                    Value::I64(n) => u64::try_from(*n)
                        .map_err(|_| Error::custom("integer out of range"))?,
                    other => return Err(Error::expected("integer", other)),
                };
                <$t>::try_from(raw).map_err(|_| Error::custom("integer out of range"))
            }
        }
    )*};
}
impl_serde_unsigned!(u8, u16, u32, u64, usize);

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::F64(*self)
    }
}

impl Deserialize for f64 {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            // serde_json writes non-finite floats as null; accept the
            // round trip back as NaN.
            Value::Null => Ok(f64::NAN),
            other => other.as_f64().ok_or_else(|| Error::expected("number", other)),
        }
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Str(s) => Ok(s.clone()),
            other => Err(Error::expected("string", other)),
        }
    }
}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

impl Deserialize for Value {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Ok(v.clone())
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(x) => x.to_value(),
            None => Value::Null,
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Array(items) => items.iter().map(T::from_value).collect(),
            other => Err(Error::expected("array", other)),
        }
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

/// Map key types, rendered as JSON object keys (integers stringified,
/// matching `serde_json`'s map-key behaviour).
pub trait MapKey: Ord {
    /// Renders the key as an object-key string.
    fn to_key(&self) -> String;
}

impl MapKey for String {
    fn to_key(&self) -> String {
        self.clone()
    }
}

macro_rules! impl_map_key_int {
    ($($t:ty),*) => {$(
        impl MapKey for $t {
            fn to_key(&self) -> String {
                self.to_string()
            }
        }
    )*};
}
impl_map_key_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl<K: MapKey, V: Serialize> Serialize for BTreeMap<K, V> {
    fn to_value(&self) -> Value {
        Value::Object(self.iter().map(|(k, v)| (k.to_key(), v.to_value())).collect())
    }
}

impl<A: Serialize, B: Serialize> Serialize for (A, B) {
    fn to_value(&self) -> Value {
        Value::Array(vec![self.0.to_value(), self.1.to_value()])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        assert_eq!(u64::from_value(&42u64.to_value()).unwrap(), 42);
        assert_eq!(i32::from_value(&(-7i32).to_value()).unwrap(), -7);
        assert_eq!(f64::from_value(&1.5f64.to_value()).unwrap(), 1.5);
        assert_eq!(String::from_value(&"hi".to_string().to_value()).unwrap(), "hi");
        assert_eq!(Vec::<u8>::from_value(&vec![3u8, 1].to_value()).unwrap(), vec![3, 1]);
    }

    #[test]
    fn kind_errors_are_reported() {
        assert!(u64::from_value(&Value::Str("x".into())).is_err());
        assert!(String::from_value(&Value::I64(1)).is_err());
        let err = bool::from_value(&Value::Null).unwrap_err();
        assert!(err.to_string().contains("bool"));
    }
}

//! Offline stand-in for `serde`.
//!
//! The real serde is a zero-copy framework generic over data formats; this
//! workspace only ever serializes plain data structs to JSON and back, so
//! the stand-in collapses the design to one intermediate [`Value`] tree:
//!
//! * [`Serialize`] renders a type into a [`Value`],
//! * [`Deserialize`] rebuilds a type from a [`Value`],
//! * `#[derive(Serialize, Deserialize)]` (from the sibling `serde_derive`
//!   crate) generates both for named-field structs and enums,
//! * the sibling `serde_json` crate prints and parses `Value` as JSON.
//!
//! The derive macros mirror serde's default representations: structs are
//! objects keyed by field name, unit enum variants are strings, and data
//! variants are single-key objects (externally tagged).

#![deny(missing_docs)]

pub use serde_derive::{Deserialize, Serialize};

/// A serialized value tree (the JSON data model plus distinct integer
/// variants so `u64` seeds survive round trips exactly).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null` (used for `Option::None`).
    Null,
    /// A boolean.
    Bool(bool),
    /// A signed integer.
    Int(i64),
    /// An unsigned integer (used when the value exceeds `i64::MAX`).
    UInt(u64),
    /// A floating-point number. NaN and infinities are representable and
    /// round-trip through the JSON layer via extended literals.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object: insertion-ordered key/value pairs.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Looks up `name` in an object, failing with a descriptive error for
    /// non-objects and missing fields.
    pub fn field(&self, name: &str) -> Result<&Value, Error> {
        match self {
            Value::Object(pairs) => pairs
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| v)
                .ok_or_else(|| Error::new(format!("missing field `{name}`"))),
            other => Err(Error::new(format!(
                "expected object with field `{name}`, found {}",
                other.kind()
            ))),
        }
    }

    /// A short name of the variant for error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Int(_) | Value::UInt(_) => "integer",
            Value::Float(_) => "float",
            Value::Str(_) => "string",
            Value::Array(_) => "array",
            Value::Object(_) => "object",
        }
    }

    fn as_f64(&self) -> Result<f64, Error> {
        match *self {
            Value::Int(i) => Ok(i as f64),
            Value::UInt(u) => Ok(u as f64),
            Value::Float(f) => Ok(f),
            ref other => Err(Error::new(format!(
                "expected number, found {}",
                other.kind()
            ))),
        }
    }

    fn as_i128(&self) -> Result<i128, Error> {
        match *self {
            Value::Int(i) => Ok(i as i128),
            Value::UInt(u) => Ok(u as i128),
            Value::Float(f) if f.fract() == 0.0 => Ok(f as i128),
            ref other => Err(Error::new(format!(
                "expected integer, found {}",
                other.kind()
            ))),
        }
    }
}

/// Serialization/deserialization error: a message, optionally wrapping the
/// JSON parser's position information.
#[derive(Debug, Clone)]
pub struct Error {
    msg: String,
}

impl Error {
    /// Creates an error from a message.
    pub fn new(msg: impl Into<String>) -> Self {
        Self { msg: msg.into() }
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.msg)
    }
}

impl std::error::Error for Error {}

/// Types renderable into a [`Value`].
pub trait Serialize {
    /// Renders `self` into a value tree.
    fn serialize(&self) -> Value;
}

/// Types rebuildable from a [`Value`].
pub trait Deserialize: Sized {
    /// Rebuilds `Self` from a value tree.
    ///
    /// # Errors
    ///
    /// Returns [`Error`] when the tree does not have the expected shape.
    fn deserialize(v: &Value) -> Result<Self, Error>;
}

// ---- primitive impls -------------------------------------------------

impl Serialize for bool {
    fn serialize(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Bool(b) => Ok(*b),
            other => Err(Error::new(format!("expected bool, found {}", other.kind()))),
        }
    }
}

impl Serialize for f64 {
    fn serialize(&self) -> Value {
        Value::Float(*self)
    }
}

impl Deserialize for f64 {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        v.as_f64()
    }
}

impl Serialize for f32 {
    fn serialize(&self) -> Value {
        Value::Float(*self as f64)
    }
}

impl Deserialize for f32 {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        Ok(v.as_f64()? as f32)
    }
}

macro_rules! impl_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            #[allow(unused_comparisons)]
            fn serialize(&self) -> Value {
                let wide = *self as i128;
                if wide >= 0 && wide > i64::MAX as i128 {
                    Value::UInt(*self as u64)
                } else {
                    Value::Int(*self as i64)
                }
            }
        }
        impl Deserialize for $t {
            fn deserialize(v: &Value) -> Result<Self, Error> {
                let wide = v.as_i128()?;
                <$t>::try_from(wide)
                    .map_err(|_| Error::new(format!("integer {wide} out of range")))
            }
        }
    )*};
}
impl_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Serialize for String {
    fn serialize(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Deserialize for String {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Str(s) => Ok(s.clone()),
            other => Err(Error::new(format!(
                "expected string, found {}",
                other.kind()
            ))),
        }
    }
}

impl Serialize for str {
    fn serialize(&self) -> Value {
        Value::Str(self.to_string())
    }
}

/// `&'static str` deserialization interns the parsed string.
///
/// The real serde cannot produce `&'static str`; this workspace stores
/// small fixed advisory labels (`"CLIMB"`, `"COC"`, …) in traces, so the
/// stand-in interns each distinct label once and hands out the leaked
/// reference thereafter.
impl Deserialize for &'static str {
    #[allow(clippy::disallowed_types, reason = "lookup-only, so order never leaks")]
    fn deserialize(v: &Value) -> Result<Self, Error> {
        use std::collections::HashSet;
        use std::sync::{Mutex, OnceLock};
        static INTERNED: OnceLock<Mutex<HashSet<&'static str>>> = OnceLock::new();
        let s = match v {
            Value::Str(s) => s.as_str(),
            other => {
                return Err(Error::new(format!(
                    "expected string, found {}",
                    other.kind()
                )))
            }
        };
        let mut set = INTERNED
            .get_or_init(|| Mutex::new(HashSet::new()))
            .lock()
            .unwrap();
        if let Some(&hit) = set.get(s) {
            return Ok(hit);
        }
        let leaked: &'static str = Box::leak(s.to_string().into_boxed_str());
        set.insert(leaked);
        Ok(leaked)
    }
}

// ---- containers ------------------------------------------------------

impl<T: Serialize> Serialize for Option<T> {
    fn serialize(&self) -> Value {
        match self {
            Some(x) => x.serialize(),
            None => Value::Null,
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Null => Ok(None),
            other => Ok(Some(T::deserialize(other)?)),
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize(&self) -> Value {
        Value::Array(self.iter().map(Serialize::serialize).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Array(items) => items.iter().map(T::deserialize).collect(),
            other => Err(Error::new(format!(
                "expected array, found {}",
                other.kind()
            ))),
        }
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn serialize(&self) -> Value {
        Value::Array(self.iter().map(Serialize::serialize).collect())
    }
}

impl<T: Deserialize, const N: usize> Deserialize for [T; N] {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        let items = Vec::<T>::deserialize(v)?;
        let len = items.len();
        items
            .try_into()
            .map_err(|_| Error::new(format!("expected array of length {N}, found {len}")))
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize(&self) -> Value {
        (**self).serialize()
    }
}

impl<T: Serialize + ?Sized> Serialize for Box<T> {
    fn serialize(&self) -> Value {
        (**self).serialize()
    }
}

impl<T: Deserialize> Deserialize for Box<T> {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        Ok(Box::new(T::deserialize(v)?))
    }
}

macro_rules! impl_tuple {
    ($(($($t:ident : $idx:tt),+)),+) => {$(
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn serialize(&self) -> Value {
                Value::Array(vec![$(self.$idx.serialize()),+])
            }
        }
        impl<$($t: Deserialize),+> Deserialize for ($($t,)+) {
            fn deserialize(v: &Value) -> Result<Self, Error> {
                match v {
                    Value::Array(items) => {
                        let expected = [$($idx),+].len();
                        if items.len() != expected {
                            return Err(Error::new(format!(
                                "expected tuple of length {expected}, found {}",
                                items.len()
                            )));
                        }
                        Ok(($($t::deserialize(&items[$idx])?,)+))
                    }
                    other => Err(Error::new(format!("expected array, found {}", other.kind()))),
                }
            }
        }
    )+};
}
impl_tuple!((A: 0), (A: 0, B: 1), (A: 0, B: 1, C: 2), (A: 0, B: 1, C: 2, D: 3));

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        assert_eq!(f64::deserialize(&3.5f64.serialize()).unwrap(), 3.5);
        assert_eq!(u64::deserialize(&u64::MAX.serialize()).unwrap(), u64::MAX);
        assert_eq!(i64::deserialize(&(-7i64).serialize()).unwrap(), -7);
        assert!(bool::deserialize(&true.serialize()).unwrap());
        assert_eq!(
            String::deserialize(&"hi".to_string().serialize()).unwrap(),
            "hi"
        );
        assert_eq!(Option::<f64>::deserialize(&Value::Null).unwrap(), None);
        assert_eq!(
            Vec::<u8>::deserialize(&vec![1u8, 2].serialize()).unwrap(),
            vec![1, 2]
        );
        assert_eq!(
            <[f64; 2]>::deserialize(&[1.0, 2.0].serialize()).unwrap(),
            [1.0, 2.0]
        );
        let t: (u8, f64) = Deserialize::deserialize(&(3u8, 0.5f64).serialize()).unwrap();
        assert_eq!(t, (3, 0.5));
    }

    #[test]
    fn static_str_interning() {
        let v = Value::Str("CLIMB".to_string());
        let a = <&'static str>::deserialize(&v).unwrap();
        let b = <&'static str>::deserialize(&v).unwrap();
        assert_eq!(a, "CLIMB");
        assert!(std::ptr::eq(a, b), "second lookup reuses the interned copy");
    }

    #[test]
    fn field_lookup_errors_are_descriptive() {
        let obj = Value::Object(vec![("a".into(), Value::Int(1))]);
        assert!(obj.field("a").is_ok());
        let err = obj.field("b").unwrap_err().to_string();
        assert!(err.contains("missing field `b`"), "{err}");
        let err = Value::Null.field("a").unwrap_err().to_string();
        assert!(err.contains("expected object"), "{err}");
    }
}

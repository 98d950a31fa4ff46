//! Vendored minimal stand-in for `serde`.
//!
//! The build environment has no crates.io access, so the workspace vendors a
//! small serde-compatible core: the [`Serialize`] / [`Deserialize`] traits,
//! a [`Serializer`] / [`Deserializer`] pair narrowed to the operations the
//! Veritas code uses, and `#[derive(Serialize, Deserialize)]` proc-macros
//! (from the sibling `serde_derive` shim) for non-generic structs with
//! named fields.
//!
//! # Derive attributes
//!
//! The derives take the real-serde attributes the workspace uses, with
//! real serde's meaning:
//!
//! * container `#[serde(deny_unknown_fields)]`;
//! * field `#[serde(default)]` and `#[serde(default = "path")]`;
//! * field `#[serde(skip)]` and `#[serde(with = "module")]`;
//! * field `#[serde(skip_serializing_if = "path")]`.
//!
//! A derived `Deserialize` has one rule for absent and `null` members:
//! either reads as the field's default when it has one, and as `None` for
//! an `Option` field; otherwise it is a `missing field` error that names
//! the member. Code outside the shims spells its JSON field policy with
//! these attributes and hand-writes only string-valued impls over
//! `String::deserialize`, so swapping the real crates back in is a
//! manifest change, not a source change.
//!
//! # Where the shim differs from real serde
//!
//! * Serialization streams as in real serde: a `Serialize` impl drives the
//!   format's [`Serializer`] call by call. Deserialization is **value
//!   based**, unlike real serde's visitor-driven data model: a
//!   [`Deserializer`] yields one JSON-like [`Value`] tree and typed values
//!   lift from it through [`ValueDeserializer`]. The tree is this shim's
//!   internal data model; it keeps the derive macro and the format crate
//!   tiny while preserving serde's public trait signatures.
//! * A `null` member reads as an absent one. Real serde hands `null` to
//!   the field's own decoder, so there an `Option<Option<T>>` reads
//!   `Some(None)`, a `with` decoder may map `null` to a value, and a
//!   defaulted non-`Option` field refuses `null`.
//! * Without `deny_unknown_fields`, a repeated member is ignored and the
//!   first occurrence wins; real serde refuses it as a `duplicate field`.
//!   With the attribute, both refuse it.
//! * Numbers are `f64`: integers round-trip exactly up to 2^53.

#![deny(missing_docs)]

use std::marker::PhantomData;

pub use serde_derive::{Deserialize, Serialize};

pub mod de;
pub mod ser;

mod impls;

/// A JSON-like tree: the data model this shim deserializes out of. Only
/// the shims name it; typed code lifts from it through [`Deserialize`].
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// A boolean.
    Bool(bool),
    /// Any number. JSON does not distinguish integers from floats; 53-bit
    /// integer precision is sufficient for every quantity in this workspace.
    Number(f64),
    /// A string.
    String(String),
    /// An ordered sequence.
    Array(Vec<Value>),
    /// An object; insertion-ordered, no duplicate keys expected.
    Object(Vec<(String, Value)>),
}

/// A data structure that can be serialized.
pub trait Serialize {
    /// Serializes `self` into the given serializer.
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error>;
}

/// A serializer: the sink side of the data model.
///
/// Narrowed to the forms the workspace emits: scalars, strings, options,
/// sequences, and named-field structs.
pub trait Serializer: Sized {
    /// Output produced on success.
    type Ok;
    /// Error type.
    type Error: ser::Error;
    /// Sub-serializer for sequences.
    type SerializeSeq: ser::SerializeSeq<Ok = Self::Ok, Error = Self::Error>;
    /// Sub-serializer for structs.
    type SerializeStruct: ser::SerializeStruct<Ok = Self::Ok, Error = Self::Error>;

    /// Serializes a boolean.
    fn serialize_bool(self, v: bool) -> Result<Self::Ok, Self::Error>;
    /// Serializes a signed integer.
    fn serialize_i64(self, v: i64) -> Result<Self::Ok, Self::Error>;
    /// Serializes an unsigned integer.
    fn serialize_u64(self, v: u64) -> Result<Self::Ok, Self::Error>;
    /// Serializes a floating-point number.
    fn serialize_f64(self, v: f64) -> Result<Self::Ok, Self::Error>;
    /// Serializes a string.
    fn serialize_str(self, v: &str) -> Result<Self::Ok, Self::Error>;
    /// Serializes a unit value (`null`).
    fn serialize_unit(self) -> Result<Self::Ok, Self::Error>;
    /// Serializes `None`.
    fn serialize_none(self) -> Result<Self::Ok, Self::Error>;
    /// Serializes `Some(value)`.
    fn serialize_some<T: ?Sized + Serialize>(self, value: &T) -> Result<Self::Ok, Self::Error>;
    /// Begins serializing a sequence.
    fn serialize_seq(self, len: Option<usize>) -> Result<Self::SerializeSeq, Self::Error>;
    /// Begins serializing a struct with named fields.
    fn serialize_struct(
        self,
        name: &'static str,
        len: usize,
    ) -> Result<Self::SerializeStruct, Self::Error>;
}

/// A data structure that can be deserialized.
pub trait Deserialize<'de>: Sized {
    /// Deserializes `Self` from the given deserializer.
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error>;
}

/// A deserializer: the source side of the data model.
///
/// In this value-based shim, a deserializer is anything that can yield one
/// [`Value`] tree; typed deserialization then lifts from the tree.
pub trait Deserializer<'de>: Sized {
    /// Error type.
    type Error: de::Error;

    /// Consumes the deserializer, yielding its value tree.
    fn deserialize_value(self) -> Result<Value, Self::Error>;
}

/// A [`Deserializer`] over an in-memory [`Value`], parameterized over the
/// caller's error type so derive-generated code can thread `D::Error`
/// through nested field deserialization.
pub struct ValueDeserializer<E> {
    value: Value,
    _marker: PhantomData<fn() -> E>,
}

impl<E> ValueDeserializer<E> {
    /// Wraps a value tree.
    pub fn new(value: Value) -> Self {
        Self {
            value,
            _marker: PhantomData,
        }
    }
}

impl<'de, E: de::Error> Deserializer<'de> for ValueDeserializer<E> {
    type Error = E;

    fn deserialize_value(self) -> Result<Value, E> {
        Ok(self.value)
    }
}

/// Lifts a typed value out of a [`Value`] tree.
pub fn from_value<'de, T: Deserialize<'de>, E: de::Error>(value: Value) -> Result<T, E> {
    T::deserialize(ValueDeserializer::<E>::new(value))
}

/// Support code for derive-generated implementations. Not public API.
#[doc(hidden)]
pub mod __private {
    use super::Value;

    /// Removes the first member named `name` from a struct's decoded
    /// member list and returns its value; `None` when the member is absent
    /// or `null`, so the derive reads both the same way.
    pub fn take_struct_field(fields: &mut Vec<(String, Value)>, name: &str) -> Option<Value> {
        let idx = fields.iter().position(|(k, _)| k == name)?;
        match fields.swap_remove(idx).1 {
            Value::Null => None,
            value => Some(value),
        }
    }

    /// Error text for a struct decoded from a non-object value.
    pub fn expected_object(struct_name: &str, got: &Value) -> String {
        format!("expected a JSON object for struct `{struct_name}`, got {got:?}")
    }

    /// Error text for a missing struct field.
    pub fn missing_field(struct_name: &str, field: &str) -> String {
        format!("missing field `{field}` in struct `{struct_name}`")
    }

    /// Error text for a member left over after every field took its own:
    /// a repeat of a `known` field, or a member no field takes.
    pub fn unknown_field(struct_name: &str, member: &str, known: &[&str]) -> String {
        let what = if known.contains(&member) {
            "duplicate"
        } else {
            "unknown"
        };
        format!("{what} field `{member}` in struct `{struct_name}`")
    }
}

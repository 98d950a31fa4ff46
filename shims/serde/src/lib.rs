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
//!   format's [`Serializer`] call by call. Deserialization pulls, as the
//!   format parses: a `Deserialize` impl asks the format's
//!   [`Deserializer`] for the shape it expects (a bool, a number, a
//!   string, `null`, an option, a sequence through a
//!   [`de::SeqVisitor`], a struct through a [`de::StructVisitor`]) and
//!   the format decodes exactly that, with no intermediate tree. It is a
//!   narrowed form of real serde's visitor-driven model: the format is
//!   told the type rather than describing itself, and a struct visitor
//!   matches each member name in place. [`Value`], the one
//!   self-describing type, comes from [`Deserializer::deserialize_value`].
//! * A `null` member reads as an absent one. Real serde hands `null` to
//!   the field's own decoder, so there an `Option<Option<T>>` reads
//!   `Some(None)`, a `with` decoder may map `null` to a value, and a
//!   defaulted non-`Option` field refuses `null`.
//! * Without `deny_unknown_fields`, a repeated member is ignored and the
//!   first occurrence wins; real serde refuses it as a `duplicate field`.
//!   With the attribute, both refuse it.
//! * An integer type reads an integer literal from its digits and writes
//!   its digits, so every `u64` and `i64` round-trips exactly, and a
//!   literal past the type's range is an error. Every other number, and
//!   every number in a [`Value`], is an `f64`.

#![deny(missing_docs)]

pub use serde_derive::{Deserialize, Serialize};

pub mod de;
pub mod ser;

mod impls;

/// A JSON-like tree: the self-describing type, read by
/// [`Deserializer::deserialize_value`]. Typed code never goes through it;
/// a format builds one only when asked for a `Value`, or to skip a member
/// a struct ignores.
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
/// A typed pull interface: each method is called by the [`Deserialize`]
/// impl of the type it names, consumes exactly one value of that shape
/// from the input, and fails with a typed error on anything else.
pub trait Deserializer<'de>: Sized {
    /// Error type.
    type Error: de::Error;

    /// Reads a boolean.
    fn deserialize_bool(self) -> Result<bool, Self::Error>;
    /// Reads a number as `f64`.
    fn deserialize_f64(self) -> Result<f64, Self::Error>;
    /// Reads a number for an integer type: an integer literal exactly,
    /// from its digits, and any other number as `f64`. The integer type
    /// checks the range, and the fraction of an `f64`, itself.
    fn deserialize_integer(self) -> Result<de::Number, Self::Error>;
    /// Reads a string.
    fn deserialize_string(self) -> Result<String, Self::Error>;
    /// Reads a unit value (`null`).
    fn deserialize_unit(self) -> Result<(), Self::Error>;
    /// Reads an option: `None` after consuming a `null`, otherwise the
    /// deserializer back, positioned at the present value.
    fn deserialize_option(self) -> Result<Option<Self>, Self::Error>;
    /// Reads a sequence, handing its elements to `visitor`.
    fn deserialize_seq<V: de::SeqVisitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    /// Reads a struct named `name` (for errors), handing its members to
    /// `visitor`.
    fn deserialize_struct<V: de::StructVisitor<'de>>(
        self,
        name: &'static str,
        visitor: V,
    ) -> Result<V::Value, Self::Error>;
    /// Reads any value as a [`Value`] tree.
    fn deserialize_value(self) -> Result<Value, Self::Error>;
}

/// Support code for derive-generated implementations. Not public API.
#[doc(hidden)]
pub mod __private {
    /// Error text for a missing struct field.
    pub fn missing_field(struct_name: &str, field: &str) -> String {
        format!("missing field `{field}` in struct `{struct_name}`")
    }

    /// Error text for a member a `deny_unknown_fields` struct refuses: a
    /// repeat of a `known` field, or a member no field takes.
    pub fn unknown_field(struct_name: &str, member: &str, known: &[&str]) -> String {
        let what = if known.contains(&member) {
            "duplicate"
        } else {
            "unknown"
        };
        format!("{what} field `{member}` in struct `{struct_name}`")
    }
}

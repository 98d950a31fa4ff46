//! Deserialization-side helper traits: the error trait, and the visitors
//! and accessors through which a [`crate::Deserializer`] hands a string, a
//! sequence or a struct to the type decoding it.

use std::fmt::{self, Display};

use crate::Deserialize;

/// Errors produced while deserializing.
pub trait Error: Sized + std::error::Error {
    /// Builds an error from an arbitrary message.
    fn custom<T: Display>(msg: T) -> Self;
}

/// A number as a [`crate::Deserializer`] reads it for an integer type
/// ([`crate::Deserializer::deserialize_integer`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Number {
    /// An integer literal (digits only, no fraction or exponent), exactly;
    /// `None` when its magnitude is past `i128`, which no integer type
    /// holds.
    Integer(Option<i128>),
    /// Any other number.
    Float(f64),
}

/// Builds a value from a string the format lends
/// ([`crate::Deserializer::deserialize_str`]): real serde's `Visitor`,
/// narrowed to strings, with the same method signatures.
pub trait Visitor<'de>: Sized {
    /// The value built.
    type Value;

    /// Writes what the visitor expects, such as "a string", for the
    /// error on a value that is not a string.
    fn expecting(&self, formatter: &mut fmt::Formatter<'_>) -> fmt::Result;

    /// Builds the value from the string, which lives only for this call.
    fn visit_str<E: Error>(self, v: &str) -> Result<Self::Value, E>;
}

/// The elements of a sequence, pulled one at a time in input order.
pub trait SeqAccess<'de> {
    /// Error type.
    type Error: Error;

    /// Decodes the next element, or returns `None` after the last one.
    fn next_element<T: Deserialize<'de>>(&mut self) -> Result<Option<T>, Self::Error>;
}

/// The members of a struct, pulled one at a time in input order: each
/// [`StructAccess::next_member`] names a member and exactly one
/// [`StructAccess::member_value`] call then reads its value.
pub trait StructAccess<'de> {
    /// Error type.
    type Error: Error;

    /// The next member's name, or `None` after the last member. The name
    /// lives until the next call, so matching it allocates nothing.
    fn next_member(&mut self) -> Result<Option<&str>, Self::Error>;

    /// Decodes the value of the member [`StructAccess::next_member`] just
    /// named.
    fn member_value<T: Deserialize<'de>>(&mut self) -> Result<T, Self::Error>;
}

/// Builds a value from the elements of a sequence
/// ([`crate::Deserializer::deserialize_seq`]).
pub trait SeqVisitor<'de> {
    /// The value built.
    type Value;

    /// Pulls elements from `seq`. Elements left unread are an error of the
    /// format, which checks that the sequence ends.
    fn visit_seq<A: SeqAccess<'de>>(self, seq: A) -> Result<Self::Value, A::Error>;
}

/// Builds a value from the members of a struct
/// ([`crate::Deserializer::deserialize_struct`]).
pub trait StructVisitor<'de> {
    /// The value built.
    type Value;

    /// Pulls every member from `members`.
    fn visit_struct<A: StructAccess<'de>>(self, members: A) -> Result<Self::Value, A::Error>;
}

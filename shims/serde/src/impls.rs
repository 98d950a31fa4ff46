//! `Serialize` / `Deserialize` implementations for std types.

use std::fmt;
use std::marker::PhantomData;

use crate::de::{SeqAccess, SeqVisitor};
use crate::ser::SerializeSeq as _;
use crate::{de, Deserialize, Deserializer, Serialize, Serializer, Value};

// ---------------------------------------------------------------------------
// Serialize
// ---------------------------------------------------------------------------

macro_rules! serialize_signed {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
                serializer.serialize_i64(*self as i64)
            }
        }
    )*};
}
serialize_signed!(i8, i16, i32, i64, isize);

macro_rules! serialize_unsigned {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
                serializer.serialize_u64(*self as u64)
            }
        }
    )*};
}
serialize_unsigned!(u8, u16, u32, u64, usize);

impl Serialize for f64 {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_f64(*self)
    }
}

impl Serialize for f32 {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_f64(f64::from(*self))
    }
}

impl Serialize for bool {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_bool(*self)
    }
}

impl Serialize for str {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_str(self)
    }
}

impl Serialize for String {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_str(self)
    }
}

impl Serialize for () {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_unit()
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        (**self).serialize(serializer)
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        match self {
            Some(v) => serializer.serialize_some(v),
            None => serializer.serialize_none(),
        }
    }
}

impl<T: Serialize> Serialize for [T] {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let mut seq = serializer.serialize_seq(Some(self.len()))?;
        for item in self {
            seq.serialize_element(item)?;
        }
        seq.end()
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        self.as_slice().serialize(serializer)
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        self.as_slice().serialize(serializer)
    }
}

impl<A: Serialize, B: Serialize> Serialize for (A, B) {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let mut seq = serializer.serialize_seq(Some(2))?;
        seq.serialize_element(&self.0)?;
        seq.serialize_element(&self.1)?;
        seq.end()
    }
}

impl<A: Serialize, B: Serialize, C: Serialize> Serialize for (A, B, C) {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let mut seq = serializer.serialize_seq(Some(3))?;
        seq.serialize_element(&self.0)?;
        seq.serialize_element(&self.1)?;
        seq.serialize_element(&self.2)?;
        seq.end()
    }
}

// ---------------------------------------------------------------------------
// Deserialize
// ---------------------------------------------------------------------------

/// An integer literal converts exactly or fails with a range error. Any
/// other number must be integral and in range: `MAX as f64 + 1.0` is the
/// exact power of two past the range, also where `MAX as f64` rounds up
/// to it (`u64`, `i64`).
macro_rules! deserialize_int {
    ($($t:ty),*) => {$(
        impl<'de> Deserialize<'de> for $t {
            fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
                match deserializer.deserialize_integer()? {
                    de::Number::Integer(n) => n
                        .and_then(|n| <$t>::try_from(n).ok())
                        .ok_or_else(|| {
                            let literal = n.map_or("integer".to_string(), |n| format!("integer {n}"));
                            de::Error::custom(format!(
                                "{literal} is out of range for {}", stringify!($t)
                            ))
                        }),
                    de::Number::Float(n) => {
                        if n.fract() != 0.0
                            || n < <$t>::MIN as f64
                            || n >= <$t>::MAX as f64 + 1.0
                        {
                            return Err(de::Error::custom(format!(
                                "number {n} is not a valid {}", stringify!($t)
                            )));
                        }
                        Ok(n as $t)
                    }
                }
            }
        }
    )*};
}
deserialize_int!(i8, i16, i32, i64, isize, u8, u16, u32, u64, usize);

impl<'de> Deserialize<'de> for f64 {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        deserializer.deserialize_f64()
    }
}

impl<'de> Deserialize<'de> for f32 {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        Ok(deserializer.deserialize_f64()? as f32)
    }
}

impl<'de> Deserialize<'de> for bool {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        deserializer.deserialize_bool()
    }
}

/// Copies a lent string into a `String`.
struct StringVisitor;

impl<'de> de::Visitor<'de> for StringVisitor {
    type Value = String;

    fn expecting(&self, formatter: &mut fmt::Formatter<'_>) -> fmt::Result {
        formatter.write_str("a string")
    }

    fn visit_str<E: de::Error>(self, v: &str) -> Result<String, E> {
        Ok(v.to_owned())
    }
}

impl<'de> Deserialize<'de> for String {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        deserializer.deserialize_str(StringVisitor)
    }
}

impl<'de> Deserialize<'de> for () {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        deserializer.deserialize_unit()
    }
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for Option<T> {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        match deserializer.deserialize_option()? {
            None => Ok(None),
            Some(present) => T::deserialize(present).map(Some),
        }
    }
}

/// Collects every element of a sequence into a `Vec<T>`.
struct VecVisitor<T>(PhantomData<T>);

impl<'de, T: Deserialize<'de>> SeqVisitor<'de> for VecVisitor<T> {
    type Value = Vec<T>;

    fn visit_seq<A: SeqAccess<'de>>(self, mut seq: A) -> Result<Vec<T>, A::Error> {
        let mut items = Vec::new();
        while let Some(item) = seq.next_element()? {
            items.push(item);
        }
        Ok(items)
    }
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for Vec<T> {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        deserializer.deserialize_seq(VecVisitor(PhantomData))
    }
}

/// Reads a tuple from a sequence of its length; the format refuses
/// elements left over.
struct TupleVisitor<T>(PhantomData<T>);

/// The next element of a tuple of `len` elements.
fn tuple_element<'de, T: Deserialize<'de>, A: SeqAccess<'de>>(
    seq: &mut A,
    len: usize,
) -> Result<T, A::Error> {
    seq.next_element()?
        .ok_or_else(|| de::Error::custom(format!("expected a {len}-element array")))
}

macro_rules! deserialize_tuple {
    ($len:literal => $($t:ident)+) => {
        impl<'de, $($t: Deserialize<'de>),+> SeqVisitor<'de> for TupleVisitor<($($t,)+)> {
            type Value = ($($t,)+);

            fn visit_seq<S: SeqAccess<'de>>(self, mut seq: S) -> Result<Self::Value, S::Error> {
                Ok(($(tuple_element::<$t, S>(&mut seq, $len)?,)+))
            }
        }

        impl<'de, $($t: Deserialize<'de>),+> Deserialize<'de> for ($($t,)+) {
            fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
                deserializer.deserialize_seq(TupleVisitor::<Self>(PhantomData))
            }
        }
    };
}
deserialize_tuple!(2 => A B);
deserialize_tuple!(3 => A B C);

impl<'de> Deserialize<'de> for Value {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        deserializer.deserialize_value()
    }
}

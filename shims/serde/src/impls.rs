//! `Serialize` / `Deserialize` implementations for std types.

use crate::ser::SerializeSeq as _;
use crate::{de, Deserialize, Deserializer, Serialize, Serializer, Value, ValueDeserializer};

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

fn number<'de, D: Deserializer<'de>>(deserializer: D, what: &str) -> Result<f64, D::Error> {
    match deserializer.deserialize_value()? {
        Value::Number(n) => Ok(n),
        other => Err(de::Error::custom(format!("expected {what}, got {other:?}"))),
    }
}

macro_rules! deserialize_int {
    ($($t:ty),*) => {$(
        impl<'de> Deserialize<'de> for $t {
            fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
                let n = number(deserializer, stringify!($t))?;
                if n.fract() != 0.0 || n < <$t>::MIN as f64 || n > <$t>::MAX as f64 {
                    return Err(de::Error::custom(format!(
                        "number {n} is not a valid {}", stringify!($t)
                    )));
                }
                Ok(n as $t)
            }
        }
    )*};
}
deserialize_int!(i8, i16, i32, i64, isize, u8, u16, u32, u64, usize);

impl<'de> Deserialize<'de> for f64 {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        number(deserializer, "f64")
    }
}

impl<'de> Deserialize<'de> for f32 {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        Ok(number(deserializer, "f32")? as f32)
    }
}

impl<'de> Deserialize<'de> for bool {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        match deserializer.deserialize_value()? {
            Value::Bool(b) => Ok(b),
            other => Err(de::Error::custom(format!("expected bool, got {other:?}"))),
        }
    }
}

impl<'de> Deserialize<'de> for String {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        match deserializer.deserialize_value()? {
            Value::String(s) => Ok(s),
            other => Err(de::Error::custom(format!("expected string, got {other:?}"))),
        }
    }
}

impl<'de> Deserialize<'de> for () {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        match deserializer.deserialize_value()? {
            Value::Null => Ok(()),
            other => Err(de::Error::custom(format!("expected null, got {other:?}"))),
        }
    }
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for Option<T> {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        match deserializer.deserialize_value()? {
            Value::Null => Ok(None),
            value => Ok(Some(T::deserialize(ValueDeserializer::<D::Error>::new(
                value,
            ))?)),
        }
    }
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for Vec<T> {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        match deserializer.deserialize_value()? {
            Value::Array(items) => items
                .into_iter()
                .map(|v| T::deserialize(ValueDeserializer::<D::Error>::new(v)))
                .collect(),
            other => Err(de::Error::custom(format!("expected array, got {other:?}"))),
        }
    }
}

impl<'de, A: Deserialize<'de>, B: Deserialize<'de>> Deserialize<'de> for (A, B) {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        match deserializer.deserialize_value()? {
            Value::Array(items) if items.len() == 2 => {
                let mut it = items.into_iter();
                let a = A::deserialize(ValueDeserializer::<D::Error>::new(it.next().unwrap()))?;
                let b = B::deserialize(ValueDeserializer::<D::Error>::new(it.next().unwrap()))?;
                Ok((a, b))
            }
            other => Err(de::Error::custom(format!(
                "expected 2-element array, got {other:?}"
            ))),
        }
    }
}

impl<'de, A: Deserialize<'de>, B: Deserialize<'de>, C: Deserialize<'de>> Deserialize<'de>
    for (A, B, C)
{
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        match deserializer.deserialize_value()? {
            Value::Array(items) if items.len() == 3 => {
                let mut it = items.into_iter();
                let a = A::deserialize(ValueDeserializer::<D::Error>::new(it.next().unwrap()))?;
                let b = B::deserialize(ValueDeserializer::<D::Error>::new(it.next().unwrap()))?;
                let c = C::deserialize(ValueDeserializer::<D::Error>::new(it.next().unwrap()))?;
                Ok((a, b, c))
            }
            other => Err(de::Error::custom(format!(
                "expected 3-element array, got {other:?}"
            ))),
        }
    }
}

impl<'de> Deserialize<'de> for Value {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        deserializer.deserialize_value()
    }
}

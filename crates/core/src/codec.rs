//! `napcode`: the Naplet wire format.
//!
//! The paper relies on Java object serialization to move agents, state and
//! messages between servers. The approved offline dependency set contains
//! `serde` but no serialization *format* crate, so Naplet-RS ships its own
//! compact, non-self-describing binary format (in the spirit of bincode):
//!
//! * unsigned integers: LEB128 varint
//! * signed integers: zigzag + varint
//! * floats: little-endian IEEE-754
//! * strings / byte strings: varint length prefix + raw bytes. `Vec<u8>`
//!   and `[u8]` are byte strings (the vendored serde shim routes them to
//!   `serialize_bytes`); a fixed-size `[u8; N]` is a tuple of `N` `u8`s
//! * options: 1-byte tag
//! * enums: varint variant index + payload
//! * sequences / maps: varint element count + elements
//! * tuples / structs: fields in declaration order, no framing
//!
//! A value that already holds its own napcode encoding
//! ([`SharedNaplet`](crate::naplet::SharedNaplet)) is spliced, not walked:
//! the encoder appends the held bytes, the size counter adds their length
//! and the decoder hands back the span a value was read from (the vendored
//! shim's `serialize_encoded` / `deserialize_spanned` hooks). The bytes are
//! the ones the walk would write.
//!
//! Because the format is not self-describing, both ends must agree on the
//! type — exactly the contract Java serialization gives the paper (both
//! sides load the same class). Every byte written is accounted by the
//! network fabric, which makes traffic measurements byte-accurate.

use std::fmt::Display;

use serde::de::{self, DeserializeSeed, IntoDeserializer, Visitor};
use serde::ser::{self, Serialize};
use serde::Deserialize;

use crate::error::{NapletError, Result};

/// Serialize a value into a fresh byte vector.
pub fn to_bytes<T: Serialize + ?Sized>(value: &T) -> Result<Vec<u8>> {
    let mut out = Vec::with_capacity(64);
    value.serialize(&mut Encoder { out: &mut out })?;
    Ok(out)
}

/// Serialize a value into a caller-supplied scratch buffer.
///
/// The buffer is cleared first, so its capacity is reused across calls —
/// the hot-path alternative to [`to_bytes`] when the same thread encodes
/// many values in a row. The bytes produced are identical to
/// [`to_bytes`].
pub fn to_bytes_into<T: Serialize + ?Sized>(value: &T, out: &mut Vec<u8>) -> Result<()> {
    out.clear();
    value.serialize(&mut Encoder { out })?;
    Ok(())
}

/// Deserialize a value from a byte slice, requiring full consumption.
pub fn from_bytes<'de, T: Deserialize<'de>>(bytes: &'de [u8]) -> Result<T> {
    let mut de = Decoder { input: bytes };
    let value = T::deserialize(&mut de)?;
    if de.input.is_empty() {
        Ok(value)
    } else {
        Err(NapletError::Codec(format!(
            "{} trailing bytes after value",
            de.input.len()
        )))
    }
}

/// Serialized size of a value in bytes — the framework's canonical measure
/// of "how much would this cost on the wire", used for traffic metering
/// and memory budgeting.
///
/// Computed by a counting serializer that never materialises the bytes,
/// so sizing a large agent costs no allocation. The result is always
/// exactly `to_bytes(value)?.len()`.
pub fn encoded_size<T: Serialize + ?Sized>(value: &T) -> Result<u64> {
    let mut counter = SizeCounter { len: 0 };
    value.serialize(&mut counter)?;
    Ok(counter.len)
}

impl ser::Error for NapletError {
    fn custom<T: Display>(msg: T) -> Self {
        NapletError::Codec(msg.to_string())
    }
}

impl de::Error for NapletError {
    fn custom<T: Display>(msg: T) -> Self {
        NapletError::Codec(msg.to_string())
    }
}

// ---------------------------------------------------------------------------
// varint primitives
// ---------------------------------------------------------------------------

pub(crate) fn write_uvarint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Encoded length in bytes of `v` as a LEB128 uvarint (1..=10).
pub fn uvarint_len(v: u64) -> u64 {
    u64::from((64 - v.max(1).leading_zeros()).div_ceil(7))
}

pub(crate) fn read_uvarint(input: &mut &[u8]) -> Result<u64> {
    let mut result: u64 = 0;
    let mut shift = 0u32;
    loop {
        let (&byte, rest) = input
            .split_first()
            .ok_or_else(|| NapletError::Codec("eof in varint".into()))?;
        *input = rest;
        if shift == 63 && byte > 1 {
            return Err(NapletError::Codec("varint overflow".into()));
        }
        result |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(result);
        }
        shift += 7;
        if shift > 63 {
            return Err(NapletError::Codec("varint too long".into()));
        }
    }
}

#[inline]
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

#[inline]
fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

// ---------------------------------------------------------------------------
// Encoder
// ---------------------------------------------------------------------------

struct Encoder<'a> {
    out: &'a mut Vec<u8>,
}

impl<'a> Encoder<'a> {
    fn put_u64(&mut self, v: u64) {
        write_uvarint(self.out, v);
    }
    fn put_i64(&mut self, v: i64) {
        write_uvarint(self.out, zigzag(v));
    }
    fn put_bytes(&mut self, b: &[u8]) {
        self.put_u64(b.len() as u64);
        self.out.extend_from_slice(b);
    }
}

/// Sequence/map serializer that knows the count up-front.
struct SizedCompound<'a, 'b> {
    enc: &'b mut Encoder<'a>,
}

/// Sequence/map serializer for iterators of unknown length: elements are
/// buffered, counted, then emitted with a varint count prefix.
struct BufferedCompound<'a, 'b> {
    enc: &'b mut Encoder<'a>,
    buf: Vec<u8>,
    count: u64,
}

impl<'a, 'b> ser::Serializer for &'b mut Encoder<'a> {
    type Ok = ();
    type Error = NapletError;
    type SerializeSeq = CompoundEncoder<'a, 'b>;
    type SerializeTuple = SizedCompound<'a, 'b>;
    type SerializeTupleStruct = SizedCompound<'a, 'b>;
    type SerializeTupleVariant = SizedCompound<'a, 'b>;
    type SerializeMap = CompoundEncoder<'a, 'b>;
    type SerializeStruct = SizedCompound<'a, 'b>;
    type SerializeStructVariant = SizedCompound<'a, 'b>;

    fn serialize_bool(self, v: bool) -> Result<()> {
        self.out.push(v as u8);
        Ok(())
    }
    fn serialize_i8(self, v: i8) -> Result<()> {
        self.put_i64(v.into());
        Ok(())
    }
    fn serialize_i16(self, v: i16) -> Result<()> {
        self.put_i64(v.into());
        Ok(())
    }
    fn serialize_i32(self, v: i32) -> Result<()> {
        self.put_i64(v.into());
        Ok(())
    }
    fn serialize_i64(self, v: i64) -> Result<()> {
        self.put_i64(v);
        Ok(())
    }
    fn serialize_u8(self, v: u8) -> Result<()> {
        self.put_u64(v.into());
        Ok(())
    }
    fn serialize_u16(self, v: u16) -> Result<()> {
        self.put_u64(v.into());
        Ok(())
    }
    fn serialize_u32(self, v: u32) -> Result<()> {
        self.put_u64(v.into());
        Ok(())
    }
    fn serialize_u64(self, v: u64) -> Result<()> {
        self.put_u64(v);
        Ok(())
    }
    fn serialize_f32(self, v: f32) -> Result<()> {
        self.out.extend_from_slice(&v.to_le_bytes());
        Ok(())
    }
    fn serialize_f64(self, v: f64) -> Result<()> {
        self.out.extend_from_slice(&v.to_le_bytes());
        Ok(())
    }
    fn serialize_char(self, v: char) -> Result<()> {
        self.put_u64(v as u64);
        Ok(())
    }
    fn serialize_str(self, v: &str) -> Result<()> {
        self.put_bytes(v.as_bytes());
        Ok(())
    }
    fn serialize_bytes(self, v: &[u8]) -> Result<()> {
        self.put_bytes(v);
        Ok(())
    }
    fn serialize_none(self) -> Result<()> {
        self.out.push(0);
        Ok(())
    }
    fn serialize_some<T: Serialize + ?Sized>(self, value: &T) -> Result<()> {
        self.out.push(1);
        value.serialize(self)
    }
    fn serialize_unit(self) -> Result<()> {
        Ok(())
    }
    fn serialize_unit_struct(self, _name: &'static str) -> Result<()> {
        Ok(())
    }
    fn serialize_unit_variant(
        self,
        _name: &'static str,
        variant_index: u32,
        _variant: &'static str,
    ) -> Result<()> {
        self.put_u64(variant_index.into());
        Ok(())
    }
    fn serialize_newtype_struct<T: Serialize + ?Sized>(
        self,
        _name: &'static str,
        value: &T,
    ) -> Result<()> {
        value.serialize(self)
    }
    fn serialize_newtype_variant<T: Serialize + ?Sized>(
        self,
        _name: &'static str,
        variant_index: u32,
        _variant: &'static str,
        value: &T,
    ) -> Result<()> {
        self.put_u64(variant_index.into());
        value.serialize(self)
    }
    fn serialize_seq(self, len: Option<usize>) -> Result<Self::SerializeSeq> {
        match len {
            Some(n) => {
                self.put_u64(n as u64);
                Ok(CompoundEncoder::Sized(SizedCompound { enc: self }))
            }
            None => Ok(CompoundEncoder::Buffered(BufferedCompound {
                enc: self,
                buf: Vec::new(),
                count: 0,
            })),
        }
    }
    fn serialize_tuple(self, _len: usize) -> Result<Self::SerializeTuple> {
        Ok(SizedCompound { enc: self })
    }
    fn serialize_tuple_struct(
        self,
        _name: &'static str,
        _len: usize,
    ) -> Result<Self::SerializeTupleStruct> {
        Ok(SizedCompound { enc: self })
    }
    fn serialize_tuple_variant(
        self,
        _name: &'static str,
        variant_index: u32,
        _variant: &'static str,
        _len: usize,
    ) -> Result<Self::SerializeTupleVariant> {
        self.put_u64(variant_index.into());
        Ok(SizedCompound { enc: self })
    }
    fn serialize_map(self, len: Option<usize>) -> Result<Self::SerializeMap> {
        match len {
            Some(n) => {
                self.put_u64(n as u64);
                Ok(CompoundEncoder::Sized(SizedCompound { enc: self }))
            }
            None => Ok(CompoundEncoder::Buffered(BufferedCompound {
                enc: self,
                buf: Vec::new(),
                count: 0,
            })),
        }
    }
    fn serialize_struct(self, _name: &'static str, _len: usize) -> Result<Self::SerializeStruct> {
        Ok(SizedCompound { enc: self })
    }
    fn serialize_struct_variant(
        self,
        _name: &'static str,
        variant_index: u32,
        _variant: &'static str,
        _len: usize,
    ) -> Result<Self::SerializeStructVariant> {
        self.put_u64(variant_index.into());
        Ok(SizedCompound { enc: self })
    }

    fn is_human_readable(&self) -> bool {
        false
    }

    fn serialize_encoded<T: Serialize + ?Sized>(self, _value: &T, image: &[u8]) -> Result<()> {
        self.out.extend_from_slice(image);
        Ok(())
    }
}

/// Either-sized compound encoder used for seqs and maps.
enum CompoundEncoder<'a, 'b> {
    Sized(SizedCompound<'a, 'b>),
    Buffered(BufferedCompound<'a, 'b>),
}

impl<'a, 'b> ser::SerializeSeq for CompoundEncoder<'a, 'b> {
    type Ok = ();
    type Error = NapletError;
    fn serialize_element<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<()> {
        match self {
            CompoundEncoder::Sized(s) => value.serialize(&mut *s.enc),
            CompoundEncoder::Buffered(b) => {
                b.count += 1;
                value.serialize(&mut Encoder { out: &mut b.buf })
            }
        }
    }
    fn end(self) -> Result<()> {
        match self {
            CompoundEncoder::Sized(_) => Ok(()),
            CompoundEncoder::Buffered(b) => {
                b.enc.put_u64(b.count);
                b.enc.out.extend_from_slice(&b.buf);
                Ok(())
            }
        }
    }
}

impl<'a, 'b> ser::SerializeMap for CompoundEncoder<'a, 'b> {
    type Ok = ();
    type Error = NapletError;
    fn serialize_key<T: Serialize + ?Sized>(&mut self, key: &T) -> Result<()> {
        ser::SerializeSeq::serialize_element(self, key)
    }
    fn serialize_value<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<()> {
        ser::SerializeSeq::serialize_element(self, value)
    }
    fn end(self) -> Result<()> {
        ser::SerializeSeq::end(self)
    }
}

macro_rules! impl_sized_compound {
    ($trait:ident, $method:ident) => {
        impl<'a, 'b> ser::$trait for SizedCompound<'a, 'b> {
            type Ok = ();
            type Error = NapletError;
            fn $method<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<()> {
                value.serialize(&mut *self.enc)
            }
            fn end(self) -> Result<()> {
                Ok(())
            }
        }
    };
    ($trait:ident, $method:ident, named) => {
        impl<'a, 'b> ser::$trait for SizedCompound<'a, 'b> {
            type Ok = ();
            type Error = NapletError;
            fn $method<T: Serialize + ?Sized>(
                &mut self,
                _key: &'static str,
                value: &T,
            ) -> Result<()> {
                value.serialize(&mut *self.enc)
            }
            fn end(self) -> Result<()> {
                Ok(())
            }
        }
    };
}

impl_sized_compound!(SerializeTuple, serialize_element);
impl_sized_compound!(SerializeTupleStruct, serialize_field);
impl_sized_compound!(SerializeTupleVariant, serialize_field);
impl_sized_compound!(SerializeStruct, serialize_field, named);
impl_sized_compound!(SerializeStructVariant, serialize_field, named);

// ---------------------------------------------------------------------------
// Size counter
// ---------------------------------------------------------------------------

/// Serializer twin of [`Encoder`] that adds up byte lengths instead of
/// writing them. Every arm must mirror the encoder exactly — the
/// `encoded_size_matches_bytes` tests (unit + proptest) hold the two in
/// lock-step.
struct SizeCounter {
    len: u64,
}

impl SizeCounter {
    fn put_u64(&mut self, v: u64) {
        self.len += uvarint_len(v);
    }
    fn put_i64(&mut self, v: i64) {
        self.put_u64(zigzag(v));
    }
    fn put_bytes(&mut self, b: &[u8]) {
        self.put_u64(b.len() as u64);
        self.len += b.len() as u64;
    }
}

/// Compound counter: sized compounds already counted their prefix;
/// unknown-length seqs/maps count elements as they stream by and charge
/// the count prefix at `end` (position is irrelevant for a sum).
enum CountCompound<'a> {
    Sized(&'a mut SizeCounter),
    Counted {
        counter: &'a mut SizeCounter,
        count: u64,
    },
}

impl<'a> ser::Serializer for &'a mut SizeCounter {
    type Ok = ();
    type Error = NapletError;
    type SerializeSeq = CountCompound<'a>;
    type SerializeTuple = CountCompound<'a>;
    type SerializeTupleStruct = CountCompound<'a>;
    type SerializeTupleVariant = CountCompound<'a>;
    type SerializeMap = CountCompound<'a>;
    type SerializeStruct = CountCompound<'a>;
    type SerializeStructVariant = CountCompound<'a>;

    fn serialize_bool(self, _v: bool) -> Result<()> {
        self.len += 1;
        Ok(())
    }
    fn serialize_i8(self, v: i8) -> Result<()> {
        self.put_i64(v.into());
        Ok(())
    }
    fn serialize_i16(self, v: i16) -> Result<()> {
        self.put_i64(v.into());
        Ok(())
    }
    fn serialize_i32(self, v: i32) -> Result<()> {
        self.put_i64(v.into());
        Ok(())
    }
    fn serialize_i64(self, v: i64) -> Result<()> {
        self.put_i64(v);
        Ok(())
    }
    fn serialize_u8(self, v: u8) -> Result<()> {
        self.put_u64(v.into());
        Ok(())
    }
    fn serialize_u16(self, v: u16) -> Result<()> {
        self.put_u64(v.into());
        Ok(())
    }
    fn serialize_u32(self, v: u32) -> Result<()> {
        self.put_u64(v.into());
        Ok(())
    }
    fn serialize_u64(self, v: u64) -> Result<()> {
        self.put_u64(v);
        Ok(())
    }
    fn serialize_f32(self, _v: f32) -> Result<()> {
        self.len += 4;
        Ok(())
    }
    fn serialize_f64(self, _v: f64) -> Result<()> {
        self.len += 8;
        Ok(())
    }
    fn serialize_char(self, v: char) -> Result<()> {
        self.put_u64(v as u64);
        Ok(())
    }
    fn serialize_str(self, v: &str) -> Result<()> {
        self.put_bytes(v.as_bytes());
        Ok(())
    }
    fn serialize_bytes(self, v: &[u8]) -> Result<()> {
        self.put_bytes(v);
        Ok(())
    }
    fn serialize_none(self) -> Result<()> {
        self.len += 1;
        Ok(())
    }
    fn serialize_some<T: Serialize + ?Sized>(self, value: &T) -> Result<()> {
        self.len += 1;
        value.serialize(self)
    }
    fn serialize_unit(self) -> Result<()> {
        Ok(())
    }
    fn serialize_unit_struct(self, _name: &'static str) -> Result<()> {
        Ok(())
    }
    fn serialize_unit_variant(
        self,
        _name: &'static str,
        variant_index: u32,
        _variant: &'static str,
    ) -> Result<()> {
        self.put_u64(variant_index.into());
        Ok(())
    }
    fn serialize_newtype_struct<T: Serialize + ?Sized>(
        self,
        _name: &'static str,
        value: &T,
    ) -> Result<()> {
        value.serialize(self)
    }
    fn serialize_newtype_variant<T: Serialize + ?Sized>(
        self,
        _name: &'static str,
        variant_index: u32,
        _variant: &'static str,
        value: &T,
    ) -> Result<()> {
        self.put_u64(variant_index.into());
        value.serialize(self)
    }
    fn serialize_seq(self, len: Option<usize>) -> Result<Self::SerializeSeq> {
        match len {
            Some(n) => {
                self.put_u64(n as u64);
                Ok(CountCompound::Sized(self))
            }
            None => Ok(CountCompound::Counted {
                counter: self,
                count: 0,
            }),
        }
    }
    fn serialize_tuple(self, _len: usize) -> Result<Self::SerializeTuple> {
        Ok(CountCompound::Sized(self))
    }
    fn serialize_tuple_struct(
        self,
        _name: &'static str,
        _len: usize,
    ) -> Result<Self::SerializeTupleStruct> {
        Ok(CountCompound::Sized(self))
    }
    fn serialize_tuple_variant(
        self,
        _name: &'static str,
        variant_index: u32,
        _variant: &'static str,
        _len: usize,
    ) -> Result<Self::SerializeTupleVariant> {
        self.put_u64(variant_index.into());
        Ok(CountCompound::Sized(self))
    }
    fn serialize_map(self, len: Option<usize>) -> Result<Self::SerializeMap> {
        match len {
            Some(n) => {
                self.put_u64(n as u64);
                Ok(CountCompound::Sized(self))
            }
            None => Ok(CountCompound::Counted {
                counter: self,
                count: 0,
            }),
        }
    }
    fn serialize_struct(self, _name: &'static str, _len: usize) -> Result<Self::SerializeStruct> {
        Ok(CountCompound::Sized(self))
    }
    fn serialize_struct_variant(
        self,
        _name: &'static str,
        variant_index: u32,
        _variant: &'static str,
        _len: usize,
    ) -> Result<Self::SerializeStructVariant> {
        self.put_u64(variant_index.into());
        Ok(CountCompound::Sized(self))
    }

    fn is_human_readable(&self) -> bool {
        false
    }

    fn serialize_encoded<T: Serialize + ?Sized>(self, _value: &T, image: &[u8]) -> Result<()> {
        self.len += image.len() as u64;
        Ok(())
    }
}

impl CountCompound<'_> {
    fn count_element<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<()> {
        match self {
            CountCompound::Sized(c) => value.serialize(&mut **c),
            CountCompound::Counted { counter, count } => {
                *count += 1;
                value.serialize(&mut **counter)
            }
        }
    }
    fn finish(self) -> Result<()> {
        if let CountCompound::Counted { counter, count } = self {
            counter.put_u64(count);
        }
        Ok(())
    }
}

impl ser::SerializeSeq for CountCompound<'_> {
    type Ok = ();
    type Error = NapletError;
    fn serialize_element<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<()> {
        self.count_element(value)
    }
    fn end(self) -> Result<()> {
        self.finish()
    }
}

impl ser::SerializeMap for CountCompound<'_> {
    type Ok = ();
    type Error = NapletError;
    fn serialize_key<T: Serialize + ?Sized>(&mut self, key: &T) -> Result<()> {
        self.count_element(key)
    }
    fn serialize_value<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<()> {
        self.count_element(value)
    }
    fn end(self) -> Result<()> {
        self.finish()
    }
}

macro_rules! impl_count_compound {
    ($trait:ident, $method:ident) => {
        impl ser::$trait for CountCompound<'_> {
            type Ok = ();
            type Error = NapletError;
            fn $method<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<()> {
                self.count_element(value)
            }
            fn end(self) -> Result<()> {
                self.finish()
            }
        }
    };
    ($trait:ident, $method:ident, named) => {
        impl ser::$trait for CountCompound<'_> {
            type Ok = ();
            type Error = NapletError;
            fn $method<T: Serialize + ?Sized>(
                &mut self,
                _key: &'static str,
                value: &T,
            ) -> Result<()> {
                self.count_element(value)
            }
            fn end(self) -> Result<()> {
                self.finish()
            }
        }
    };
}

impl_count_compound!(SerializeTuple, serialize_element);
impl_count_compound!(SerializeTupleStruct, serialize_field);
impl_count_compound!(SerializeTupleVariant, serialize_field);
impl_count_compound!(SerializeStruct, serialize_field, named);
impl_count_compound!(SerializeStructVariant, serialize_field, named);

// ---------------------------------------------------------------------------
// Decoder
// ---------------------------------------------------------------------------

struct Decoder<'de> {
    input: &'de [u8],
}

impl<'de> Decoder<'de> {
    fn take(&mut self, n: usize) -> Result<&'de [u8]> {
        if self.input.len() < n {
            return Err(NapletError::Codec(format!(
                "eof: wanted {n} bytes, have {}",
                self.input.len()
            )));
        }
        let (head, rest) = self.input.split_at(n);
        self.input = rest;
        Ok(head)
    }
    fn get_u64(&mut self) -> Result<u64> {
        read_uvarint(&mut self.input)
    }
    fn get_i64(&mut self) -> Result<i64> {
        Ok(unzigzag(self.get_u64()?))
    }
    fn get_len_bytes(&mut self) -> Result<&'de [u8]> {
        let len = self.get_u64()? as usize;
        self.take(len)
    }
}

macro_rules! de_int {
    ($fn:ident, $visit:ident, $ty:ty, signed) => {
        fn $fn<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value> {
            let v = self.get_i64()?;
            let narrowed = <$ty>::try_from(v).map_err(|_| {
                NapletError::Codec(format!("{} out of range for {}", v, stringify!($ty)))
            })?;
            visitor.$visit(narrowed)
        }
    };
    ($fn:ident, $visit:ident, $ty:ty, unsigned) => {
        fn $fn<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value> {
            let v = self.get_u64()?;
            let narrowed = <$ty>::try_from(v).map_err(|_| {
                NapletError::Codec(format!("{} out of range for {}", v, stringify!($ty)))
            })?;
            visitor.$visit(narrowed)
        }
    };
}

impl<'de> de::Deserializer<'de> for &mut Decoder<'de> {
    type Error = NapletError;

    fn deserialize_any<V: Visitor<'de>>(self, _visitor: V) -> Result<V::Value> {
        Err(NapletError::Codec(
            "napcode is not self-describing; deserialize_any unsupported".into(),
        ))
    }

    fn deserialize_bool<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value> {
        match self.take(1)?[0] {
            0 => visitor.visit_bool(false),
            1 => visitor.visit_bool(true),
            b => Err(NapletError::Codec(format!("invalid bool byte {b}"))),
        }
    }

    de_int!(deserialize_i8, visit_i8, i8, signed);
    de_int!(deserialize_i16, visit_i16, i16, signed);
    de_int!(deserialize_i32, visit_i32, i32, signed);
    de_int!(deserialize_u8, visit_u8, u8, unsigned);
    de_int!(deserialize_u16, visit_u16, u16, unsigned);
    de_int!(deserialize_u32, visit_u32, u32, unsigned);

    fn deserialize_i64<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value> {
        let v = self.get_i64()?;
        visitor.visit_i64(v)
    }
    fn deserialize_u64<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value> {
        let v = self.get_u64()?;
        visitor.visit_u64(v)
    }
    fn deserialize_f32<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value> {
        let b = self.take(4)?;
        visitor.visit_f32(f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }
    fn deserialize_f64<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value> {
        let b = self.take(8)?;
        visitor.visit_f64(f64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }
    fn deserialize_char<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value> {
        let v = u32::try_from(self.get_u64()?)
            .ok()
            .and_then(char::from_u32)
            .ok_or_else(|| NapletError::Codec("invalid char".into()))?;
        visitor.visit_char(v)
    }
    fn deserialize_str<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value> {
        let bytes = self.get_len_bytes()?;
        let s = std::str::from_utf8(bytes)
            .map_err(|e| NapletError::Codec(format!("invalid utf8: {e}")))?;
        visitor.visit_borrowed_str(s)
    }
    fn deserialize_string<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value> {
        self.deserialize_str(visitor)
    }
    fn deserialize_bytes<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value> {
        let bytes = self.get_len_bytes()?;
        visitor.visit_borrowed_bytes(bytes)
    }
    fn deserialize_byte_buf<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value> {
        self.deserialize_bytes(visitor)
    }
    fn deserialize_option<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value> {
        match self.take(1)?[0] {
            0 => visitor.visit_none(),
            1 => visitor.visit_some(self),
            b => Err(NapletError::Codec(format!("invalid option tag {b}"))),
        }
    }
    fn deserialize_unit<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value> {
        visitor.visit_unit()
    }
    fn deserialize_unit_struct<V: Visitor<'de>>(
        self,
        _name: &'static str,
        visitor: V,
    ) -> Result<V::Value> {
        visitor.visit_unit()
    }
    fn deserialize_newtype_struct<V: Visitor<'de>>(
        self,
        _name: &'static str,
        visitor: V,
    ) -> Result<V::Value> {
        visitor.visit_newtype_struct(self)
    }
    fn deserialize_seq<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value> {
        let len = self.get_u64()? as usize;
        visitor.visit_seq(CountedAccess {
            de: self,
            remaining: len,
        })
    }
    fn deserialize_tuple<V: Visitor<'de>>(self, len: usize, visitor: V) -> Result<V::Value> {
        visitor.visit_seq(CountedAccess {
            de: self,
            remaining: len,
        })
    }
    fn deserialize_tuple_struct<V: Visitor<'de>>(
        self,
        _name: &'static str,
        len: usize,
        visitor: V,
    ) -> Result<V::Value> {
        self.deserialize_tuple(len, visitor)
    }
    fn deserialize_map<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value> {
        let len = self.get_u64()? as usize;
        visitor.visit_map(CountedAccess {
            de: self,
            remaining: len,
        })
    }
    fn deserialize_struct<V: Visitor<'de>>(
        self,
        _name: &'static str,
        fields: &'static [&'static str],
        visitor: V,
    ) -> Result<V::Value> {
        self.deserialize_tuple(fields.len(), visitor)
    }
    fn deserialize_enum<V: Visitor<'de>>(
        self,
        _name: &'static str,
        _variants: &'static [&'static str],
        visitor: V,
    ) -> Result<V::Value> {
        visitor.visit_enum(EnumAccess { de: self })
    }
    fn deserialize_identifier<V: Visitor<'de>>(self, _visitor: V) -> Result<V::Value> {
        Err(NapletError::Codec("identifiers not encoded".into()))
    }
    fn deserialize_ignored_any<V: Visitor<'de>>(self, _visitor: V) -> Result<V::Value> {
        Err(NapletError::Codec(
            "cannot skip unknown fields in napcode".into(),
        ))
    }

    fn is_human_readable(&self) -> bool {
        false
    }

    fn deserialize_spanned<T: Deserialize<'de>>(self) -> Result<(T, Option<&'de [u8]>)> {
        let input = self.input;
        let value = T::deserialize(&mut *self)?;
        Ok((value, Some(&input[..input.len() - self.input.len()])))
    }
}

struct CountedAccess<'de, 'a> {
    de: &'a mut Decoder<'de>,
    remaining: usize,
}

impl<'de, 'a> de::SeqAccess<'de> for CountedAccess<'de, 'a> {
    type Error = NapletError;
    fn next_element_seed<T: DeserializeSeed<'de>>(&mut self, seed: T) -> Result<Option<T::Value>> {
        if self.remaining == 0 {
            return Ok(None);
        }
        self.remaining -= 1;
        seed.deserialize(&mut *self.de).map(Some)
    }
    fn size_hint(&self) -> Option<usize> {
        Some(self.remaining)
    }
}

impl<'de, 'a> de::MapAccess<'de> for CountedAccess<'de, 'a> {
    type Error = NapletError;
    fn next_key_seed<K: DeserializeSeed<'de>>(&mut self, seed: K) -> Result<Option<K::Value>> {
        if self.remaining == 0 {
            return Ok(None);
        }
        self.remaining -= 1;
        seed.deserialize(&mut *self.de).map(Some)
    }
    fn next_value_seed<V: DeserializeSeed<'de>>(&mut self, seed: V) -> Result<V::Value> {
        seed.deserialize(&mut *self.de)
    }
    fn size_hint(&self) -> Option<usize> {
        Some(self.remaining)
    }
}

struct EnumAccess<'de, 'a> {
    de: &'a mut Decoder<'de>,
}

impl<'de, 'a> de::EnumAccess<'de> for EnumAccess<'de, 'a> {
    type Error = NapletError;
    type Variant = VariantAccess<'de, 'a>;
    fn variant_seed<V: DeserializeSeed<'de>>(self, seed: V) -> Result<(V::Value, Self::Variant)> {
        let index = u32::try_from(self.de.get_u64()?)
            .map_err(|_| NapletError::Codec("variant index overflow".into()))?;
        let value = seed.deserialize(index.into_deserializer())?;
        Ok((value, VariantAccess { de: self.de }))
    }
}

struct VariantAccess<'de, 'a> {
    de: &'a mut Decoder<'de>,
}

impl<'de, 'a> de::VariantAccess<'de> for VariantAccess<'de, 'a> {
    type Error = NapletError;
    fn unit_variant(self) -> Result<()> {
        Ok(())
    }
    fn newtype_variant_seed<T: DeserializeSeed<'de>>(self, seed: T) -> Result<T::Value> {
        seed.deserialize(self.de)
    }
    fn tuple_variant<V: Visitor<'de>>(self, len: usize, visitor: V) -> Result<V::Value> {
        de::Deserializer::deserialize_tuple(self.de, len, visitor)
    }
    fn struct_variant<V: Visitor<'de>>(
        self,
        fields: &'static [&'static str],
        visitor: V,
    ) -> Result<V::Value> {
        de::Deserializer::deserialize_tuple(self.de, fields.len(), visitor)
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use serde::{Deserialize, Serialize};

    use super::*;

    fn round_trip<T>(value: &T) -> T
    where
        T: Serialize + for<'de> Deserialize<'de> + PartialEq + std::fmt::Debug,
    {
        let bytes = to_bytes(value).expect("encode");
        let back: T = from_bytes(&bytes).expect("decode");
        assert_eq!(&back, value);
        back
    }

    #[test]
    fn primitives() {
        round_trip(&true);
        round_trip(&false);
        round_trip(&0u8);
        round_trip(&255u8);
        round_trip(&-1i32);
        round_trip(&i64::MIN);
        round_trip(&i64::MAX);
        round_trip(&u64::MAX);
        round_trip(&3.5f32);
        round_trip(&-0.25f64);
        round_trip(&'λ');
        round_trip(&"hello naplet".to_string());
    }

    #[test]
    fn small_negative_ints_are_compact() {
        // zigzag makes -1 cost one byte
        assert_eq!(to_bytes(&-1i64).unwrap().len(), 1);
        assert_eq!(to_bytes(&1i64).unwrap().len(), 1);
        assert_eq!(to_bytes(&0i64).unwrap().len(), 1);
    }

    #[test]
    fn collections() {
        round_trip(&vec![1u32, 2, 3, 4, 5]);
        round_trip(&vec!["a".to_string(), "b".to_string()]);
        let mut m = BTreeMap::new();
        m.insert("x".to_string(), 1i64);
        m.insert("y".to_string(), -2i64);
        round_trip(&m);
        round_trip(&Some(42u16));
        round_trip(&Option::<u16>::None);
        round_trip(&(1u8, "two".to_string(), 3.0f64));
    }

    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    enum Sample {
        Unit,
        New(u32),
        Tup(i8, String),
        Struct { a: Vec<u8>, b: Option<bool> },
    }

    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    struct Nested {
        name: String,
        samples: Vec<Sample>,
        flags: (bool, bool),
        blob: Vec<u8>,
    }

    #[test]
    fn enums_and_structs() {
        round_trip(&Sample::Unit);
        round_trip(&Sample::New(7));
        round_trip(&Sample::Tup(-3, "t".into()));
        round_trip(&Sample::Struct {
            a: vec![1, 2],
            b: Some(false),
        });
        round_trip(&Nested {
            name: "czxu@ece".into(),
            samples: vec![Sample::Unit, Sample::New(1)],
            flags: (true, false),
            blob: vec![0; 300],
        });
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = to_bytes(&5u32).unwrap();
        bytes.push(0);
        assert!(from_bytes::<u32>(&bytes).is_err());
    }

    #[test]
    fn truncated_input_rejected() {
        let bytes = to_bytes(&"hello".to_string()).unwrap();
        assert!(from_bytes::<String>(&bytes[..bytes.len() - 1]).is_err());
    }

    #[test]
    fn encoded_size_matches_bytes() {
        let v = Nested {
            name: "n".into(),
            samples: vec![Sample::New(9)],
            flags: (false, true),
            blob: vec![7; 19],
        };
        assert_eq!(
            encoded_size(&v).unwrap(),
            to_bytes(&v).unwrap().len() as u64
        );
    }

    const PAYLOAD: [u8; 4] = [0x00, 0x7f, 0x80, 0xff];

    /// The format, pinned: a byte buffer is its length and then its
    /// bytes untouched, whatever their value and wherever it sits.
    /// Fails if `vendor/serde` is swapped for upstream serde, which
    /// encodes `Vec<u8>` as a sequence of `u8` elements.
    #[test]
    fn byte_strings_golden() {
        use crate::naplet::AgentKind;
        use crate::value::Value;

        let golden = [4, 0x00, 0x7f, 0x80, 0xff];
        assert_eq!(to_bytes(&PAYLOAD.to_vec()).unwrap(), golden);
        assert_eq!(to_bytes(&PAYLOAD[..]).unwrap(), golden);
        assert_eq!(from_bytes::<Vec<u8>>(&golden).unwrap(), PAYLOAD);
        // enum variant index, then the same five bytes
        let value = Value::Bytes(PAYLOAD.to_vec());
        assert_eq!(to_bytes(&value).unwrap(), [5, 4, 0x00, 0x7f, 0x80, 0xff]);
        assert_eq!(round_trip(&value), value);
        let kind = AgentKind::Vm(PAYLOAD.to_vec());
        assert_eq!(to_bytes(&kind).unwrap(), [1, 4, 0x00, 0x7f, 0x80, 0xff]);
        assert_eq!(round_trip(&kind), kind);
        // a fixed-size array is a tuple: no prefix, one varint per element
        assert_eq!(
            to_bytes(&PAYLOAD).unwrap(),
            [0x00, 0x7f, 0x80, 0x01, 0xff, 0x01]
        );
        assert_eq!(round_trip(&PAYLOAD), PAYLOAD);
    }

    /// Sequences of anything but `u8` are what they always were.
    #[test]
    fn other_sequences_golden() {
        let shorts = vec![1u16, 300, 65535];
        assert_eq!(
            to_bytes(&shorts).unwrap(),
            [3, 0x01, 0xac, 0x02, 0xff, 0xff, 0x03]
        );
        round_trip(&shorts);
        let strings = vec!["a".to_string(), "bc".to_string()];
        assert_eq!(to_bytes(&strings).unwrap(), [2, 1, b'a', 2, b'b', b'c']);
        round_trip(&strings);
        let nested = vec![vec![0xffu8], vec![]];
        assert_eq!(to_bytes(&nested).unwrap(), [2, 1, 0xff, 0]);
        round_trip(&nested);
    }

    #[test]
    fn byte_strings_round_trip_at_length_prefix_boundaries() {
        use rand::{rngs::StdRng, RngCore, SeedableRng};

        let mut rng = StdRng::seed_from_u64(15);
        for len in [0usize, 1, 127, 128, 16_383, 16_384, 70_000] {
            let mut blob = vec![0u8; len];
            rng.fill_bytes(&mut blob);
            let bytes = to_bytes(&blob).unwrap();
            let prefix = uvarint_len(len as u64) as usize;
            assert_eq!(bytes.len(), prefix + len, "len={len}");
            assert_eq!(&bytes[prefix..], &blob[..], "payload is verbatim");
            assert_eq!(encoded_size(&blob).unwrap(), bytes.len() as u64);
            assert_eq!(from_bytes::<Vec<u8>>(&bytes).unwrap(), blob);
            let v = crate::value::Value::Bytes(blob);
            assert_eq!(encoded_size(&v).unwrap(), 1 + bytes.len() as u64);
            round_trip(&v);
        }
    }

    #[test]
    fn byte_string_length_beyond_input_is_an_error_not_an_allocation() {
        // claims 1 GiB, 16 EiB; carries three bytes
        for claimed in [1u64 << 30, u64::MAX] {
            let mut bad = Vec::new();
            write_uvarint(&mut bad, claimed);
            bad.extend_from_slice(&[1, 2, 3]);
            let mut de = Decoder { input: &bad };
            let Err(NapletError::Codec(why)) = de.get_len_bytes() else {
                panic!("length {claimed} over 3 bytes of input must not decode");
            };
            assert!(why.starts_with("eof"), "refused before any copy: {why}");
            assert!(matches!(
                from_bytes::<Vec<u8>>(&bad),
                Err(NapletError::Codec(_))
            ));
            assert!(matches!(
                from_bytes::<crate::value::Value>(&[&[5u8][..], &bad].concat()),
                Err(NapletError::Codec(_))
            ));
        }
        // one byte short is refused the same way
        assert!(from_bytes::<Vec<u8>>(&[4, 0x00, 0x7f, 0x80]).is_err());
    }

    #[test]
    fn uvarint_boundaries() {
        for v in [0u64, 1, 127, 128, 16383, 16384, u32::MAX as u64, u64::MAX] {
            let mut out = Vec::new();
            write_uvarint(&mut out, v);
            let mut slice = out.as_slice();
            assert_eq!(read_uvarint(&mut slice).unwrap(), v);
            assert!(slice.is_empty());
        }
    }

    #[test]
    fn uvarint_len_matches_write_uvarint() {
        for shift in 0..64 {
            for v in [1u64 << shift, (1u64 << shift) - 1, (1u64 << shift) + 1] {
                let mut out = Vec::new();
                write_uvarint(&mut out, v);
                assert_eq!(uvarint_len(v), out.len() as u64, "v={v}");
            }
        }
    }

    /// Serializes through `serialize_seq(None)`, forcing the buffered /
    /// counted compound path that derived impls never exercise.
    struct UnsizedSeq(Vec<i64>);

    impl Serialize for UnsizedSeq {
        fn serialize<S: serde::Serializer>(
            &self,
            serializer: S,
        ) -> std::result::Result<S::Ok, S::Error> {
            use serde::ser::SerializeSeq;
            let mut seq = serializer.serialize_seq(None)?;
            for v in &self.0 {
                seq.serialize_element(v)?;
            }
            seq.end()
        }
    }

    #[test]
    fn counted_size_matches_bytes_for_unsized_seq() {
        // 200 elements pushes the count prefix to two varint bytes
        let v = UnsizedSeq((0..200).map(|i| i - 100).collect());
        assert_eq!(
            encoded_size(&v).unwrap(),
            to_bytes(&v).unwrap().len() as u64
        );
    }

    #[test]
    fn to_bytes_into_reuses_and_matches() {
        let v = Nested {
            name: "scratch".into(),
            samples: vec![Sample::Tup(-3, "x".into()), Sample::Unit],
            flags: (true, true),
            blob: vec![9; 100],
        };
        let mut scratch = Vec::new();
        to_bytes_into(&"first".to_string(), &mut scratch).unwrap();
        to_bytes_into(&v, &mut scratch).unwrap();
        assert_eq!(scratch, to_bytes(&v).unwrap());
        let back: Nested = from_bytes(&scratch).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn varint_overflow_detected() {
        // 10 bytes of 0xFF encodes more than 64 bits
        let bad = [0xffu8; 10];
        let mut slice = &bad[..];
        assert!(read_uvarint(&mut slice).is_err());
    }
}

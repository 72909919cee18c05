//! `napcode`: the Naplet wire format.
//!
//! The paper relies on Java object serialization to move agents, state and
//! messages between servers. Naplet-RS ships its own compact,
//! non-self-describing binary format (in the spirit of bincode), written
//! by one pair of traits: [`Encode`] writes a value into a [`Sink`] and
//! [`Decode`] reads it back off a [`Reader`]. `#[derive(Encode, Decode)]`
//! generates both, field by field, for non-generic structs and enums.
//!
//! * unsigned integers: LEB128 varint
//! * signed integers: zigzag + varint
//! * floats: little-endian IEEE-754
//! * strings / byte strings: varint length prefix + raw bytes. `Vec<u8>`
//!   and `[u8]` are byte strings (`u8` overrides the slice hooks of both
//!   traits); a fixed-size `[u8; N]` is a tuple of `N` `u8`s
//! * options: 1-byte tag
//! * enums: varint variant index + payload
//! * sequences / maps: varint element count + elements
//! * tuples / structs: fields in declaration order, no framing
//!
//! Nesting is bounded: every enum, option, sequence and map level counts,
//! and a value nested deeper than [`MAX_DEPTH`] levels neither encodes,
//! sizes nor decodes. A hostile frame therefore cannot recurse the decoding
//! thread off its stack, and no value that encodes fails to decode.
//!
//! A value that already holds its own napcode encoding
//! ([`SharedNaplet`](crate::naplet::SharedNaplet)) is spliced, not walked:
//! its `Encode` appends the held bytes and its `Decode` keeps the span it
//! was read from. The bytes are the ones the walk would write, and the
//! image nests from zero wherever it sits, spliced or walked.
//!
//! Because the format is not self-describing, both ends must agree on the
//! type — exactly the contract Java serialization gives the paper (both
//! sides load the same class). Every byte written is accounted by the
//! network fabric, which makes traffic measurements byte-accurate.
//!
//! Only the types the workspace carries have impls: a `VecDeque<u8>`, for
//! one, is neither a byte string nor a sequence.
//!
//! ```compile_fail
//! naplet_core::codec::to_bytes(&std::collections::VecDeque::<u8>::new());
//! ```

use std::collections::{BTreeMap, BTreeSet};

use crate::error::{NapletError, Result};

pub use napcode_derive::{Decode, Encode};

/// How deeply enums, options, sequences and maps may nest in one value.
pub const MAX_DEPTH: u32 = 128;

/// Serialize a value into a fresh byte vector.
pub fn to_bytes<T: Encode + ?Sized>(value: &T) -> Result<Vec<u8>> {
    let mut out = Vec::with_capacity(64);
    value.encode(&mut Writer::new(&mut out))?;
    Ok(out)
}

/// Serialize a value into a caller-supplied scratch buffer.
///
/// The buffer is cleared first, so its capacity is reused across calls —
/// the hot-path alternative to [`to_bytes`] when the same thread encodes
/// many values in a row. The bytes produced are identical to
/// [`to_bytes`].
pub fn to_bytes_into<T: Encode + ?Sized>(value: &T, out: &mut Vec<u8>) -> Result<()> {
    out.clear();
    value.encode(&mut Writer::new(out))
}

/// Deserialize a value from a byte slice, requiring full consumption.
pub fn from_bytes<T: Decode>(bytes: &[u8]) -> Result<T> {
    let mut reader = Reader {
        input: bytes,
        depth: 0,
    };
    let value = T::decode(&mut reader)?;
    match reader.input.len() {
        0 => Ok(value),
        n => Err(NapletError::Codec(format!(
            "{n} trailing bytes after value"
        ))),
    }
}

/// Serialized size of a value in bytes — the framework's canonical measure
/// of "how much would this cost on the wire", used for traffic metering
/// and memory budgeting.
///
/// The encoder's own walk over a sink that only adds lengths, so sizing a
/// large agent costs no allocation. The result is always exactly
/// `to_bytes(value)?.len()`.
pub fn encoded_size<T: Encode + ?Sized>(value: &T) -> Result<u64> {
    let mut count = Count(0);
    value.encode(&mut Writer::new(&mut count))?;
    Ok(count.0)
}

/// A value napcode can write.
pub trait Encode {
    /// Write `self` in declaration order.
    fn encode<S: Sink>(&self, w: &mut Writer<'_, S>) -> Result<()>;

    /// Write a slice of `Self`: the element count, then each element,
    /// one level deeper. `u8` writes one byte string instead.
    #[doc(hidden)]
    fn encode_slice<S: Sink>(items: &[Self], w: &mut Writer<'_, S>) -> Result<()>
    where
        Self: Sized,
    {
        w.enter()?;
        w.uvarint(items.len() as u64);
        for item in items {
            item.encode(w)?;
        }
        w.leave();
        Ok(())
    }
}

/// A value napcode can read.
pub trait Decode: Sized {
    /// Read a `Self` in declaration order.
    fn decode(r: &mut Reader<'_>) -> Result<Self>;

    /// Read a vector of `Self`, the mirror of
    /// [`Encode::encode_slice`]. `u8` reads one byte string instead.
    #[doc(hidden)]
    fn decode_vec(r: &mut Reader<'_>) -> Result<Vec<Self>> {
        let len = r.len()?;
        r.enter()?;
        let mut items = Vec::with_capacity(len.min(r.input.len()));
        for _ in 0..len {
            items.push(Self::decode(r)?);
        }
        r.leave();
        Ok(items)
    }
}

/// Where [`Encode`] writes: a `Vec<u8>` appends the bytes, the size
/// counter behind [`encoded_size`] adds up their lengths.
pub trait Sink {
    /// Take `bytes` as they are.
    fn put(&mut self, bytes: &[u8]);
    /// Take `v` as a LEB128 varint.
    fn put_uvarint(&mut self, v: u64);
}

impl Sink for Vec<u8> {
    #[inline]
    fn put(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
    #[inline]
    fn put_uvarint(&mut self, v: u64) {
        write_uvarint(self, v);
    }
}

struct Count(u64);

impl Sink for Count {
    #[inline]
    fn put(&mut self, bytes: &[u8]) {
        self.0 += bytes.len() as u64;
    }
    #[inline]
    fn put_uvarint(&mut self, v: u64) {
        self.0 += uvarint_len(v);
    }
}

#[inline]
fn deeper(depth: &mut u32) -> Result<()> {
    if *depth == MAX_DEPTH {
        return Err(NapletError::Codec(format!(
            "nested deeper than {MAX_DEPTH} levels"
        )));
    }
    *depth += 1;
    Ok(())
}

/// An encoding in progress: its sink and the nesting level it is at.
pub struct Writer<'a, S> {
    sink: &'a mut S,
    depth: u32,
}

impl<'a, S: Sink> Writer<'a, S> {
    fn new(sink: &'a mut S) -> Writer<'a, S> {
        Writer { sink, depth: 0 }
    }
    /// Write `bytes` as they are: a held encoding (see
    /// [`Reader::spanned_root`]).
    pub(crate) fn put(&mut self, bytes: &[u8]) {
        self.sink.put(bytes);
    }
    fn uvarint(&mut self, v: u64) {
        self.sink.put_uvarint(v);
    }
    #[inline]
    fn enter(&mut self) -> Result<()> {
        deeper(&mut self.depth)
    }
    /// Open enum variant `index`, one level deeper.
    pub fn variant(&mut self, index: u32) -> Result<()> {
        self.enter()?;
        self.uvarint(index.into());
        Ok(())
    }
    /// Close the level a [`variant`](Self::variant) opened.
    pub fn leave(&mut self) {
        self.depth -= 1;
    }
    /// Walk `value` as its own root, nesting from zero.
    pub(crate) fn root<T: Encode>(&mut self, value: &T) -> Result<()> {
        let depth = std::mem::take(&mut self.depth);
        let walked = value.encode(self);
        self.depth = depth;
        walked
    }
}

/// A decoding in progress: the bytes left and the nesting level.
pub struct Reader<'de> {
    input: &'de [u8],
    depth: u32,
}

impl<'de> Reader<'de> {
    #[inline]
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
    #[inline]
    fn byte(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }
    #[inline]
    fn uvarint(&mut self) -> Result<u64> {
        read_uvarint(&mut self.input)
    }
    #[inline]
    fn len(&mut self) -> Result<usize> {
        Ok(self.uvarint()? as usize)
    }
    #[inline]
    fn byte_string(&mut self) -> Result<&'de [u8]> {
        let len = self.len()?;
        self.take(len)
    }
    #[inline]
    fn enter(&mut self) -> Result<()> {
        deeper(&mut self.depth)
    }
    /// Read an enum's variant index, one level deeper.
    #[inline]
    pub fn variant(&mut self) -> Result<u32> {
        self.enter()?;
        u32::try_from(self.uvarint()?)
            .map_err(|_| NapletError::Codec("variant index overflow".into()))
    }
    /// Close the level a [`variant`](Self::variant) opened.
    #[inline]
    pub fn leave(&mut self) {
        self.depth -= 1;
    }
    /// The error for a variant index `name` does not have.
    pub fn bad_variant(&self, index: u32, name: &str) -> NapletError {
        NapletError::Codec(format!("invalid variant index {index} for enum {name}"))
    }
    /// Read a `T` as its own root, nesting from zero, with the span of
    /// input it was read from.
    pub(crate) fn spanned_root<T: Decode>(&mut self) -> Result<(T, &'de [u8])> {
        let (input, depth) = (self.input, std::mem::take(&mut self.depth));
        let value = T::decode(self);
        self.depth = depth;
        Ok((value?, &input[..input.len() - self.input.len()]))
    }
}

// ---------------------------------------------------------------------------
// varint primitives
// ---------------------------------------------------------------------------

#[inline]
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
#[inline]
pub fn uvarint_len(v: u64) -> u64 {
    u64::from((64 - v.max(1).leading_zeros()).div_ceil(7))
}

#[inline]
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

// ---------------------------------------------------------------------------
// impls for the std types the workspace carries
// ---------------------------------------------------------------------------

fn narrow<T: TryFrom<u64>>(v: u64, ty: &str) -> Result<T> {
    T::try_from(v).map_err(|_| NapletError::Codec(format!("{v} out of range for {ty}")))
}

/// Leaf types: `encode` writes `$v`, a copy of `self`, to `$w`, and
/// `decode` reads one off `$r`. Inlined into the derived code that calls
/// them, as the generic walk is.
macro_rules! leaf {
    ($($ty:ty: |$v:ident, $w:ident| $encode:expr, |$r:ident| $decode:expr;)*) => {$(
        impl Encode for $ty {
            #[inline]
            fn encode<S: Sink>(&self, $w: &mut Writer<'_, S>) -> Result<()> {
                let $v = *self;
                $encode;
                Ok(())
            }
        }
        impl Decode for $ty {
            #[inline]
            fn decode($r: &mut Reader<'_>) -> Result<$ty> {
                $decode
            }
        }
    )*};
}

leaf! {
    u16: |v, w| w.uvarint(v.into()), |r| narrow(r.uvarint()?, "u16");
    u32: |v, w| w.uvarint(v.into()), |r| narrow(r.uvarint()?, "u32");
    u64: |v, w| w.uvarint(v), |r| r.uvarint();
    usize: |v, w| w.uvarint(v as u64), |r| narrow(r.uvarint()?, "usize");
    // zigzag: small magnitudes of either sign take few bytes
    i64: |v, w| w.uvarint(((v << 1) ^ (v >> 63)) as u64),
        |r| r.uvarint().map(|v| ((v >> 1) as i64) ^ -((v & 1) as i64));
    bool: |v, w| w.put(&[u8::from(v)]), |r| match r.byte()? {
        0 => Ok(false),
        1 => Ok(true),
        b => Err(NapletError::Codec(format!("invalid bool byte {b}"))),
    };
    f64: |v, w| w.put(&v.to_le_bytes()), |r| {
        let mut le = [0; 8];
        le.copy_from_slice(r.take(8)?);
        Ok(f64::from_le_bytes(le))
    };
}

impl Encode for u8 {
    #[inline]
    fn encode<S: Sink>(&self, w: &mut Writer<'_, S>) -> Result<()> {
        w.uvarint((*self).into());
        Ok(())
    }
    fn encode_slice<S: Sink>(items: &[u8], w: &mut Writer<'_, S>) -> Result<()> {
        w.uvarint(items.len() as u64);
        w.put(items);
        Ok(())
    }
}

impl Decode for u8 {
    #[inline]
    fn decode(r: &mut Reader<'_>) -> Result<u8> {
        narrow(r.uvarint()?, "u8")
    }
    fn decode_vec(r: &mut Reader<'_>) -> Result<Vec<u8>> {
        Ok(r.byte_string()?.to_vec())
    }
}

impl Encode for str {
    fn encode<S: Sink>(&self, w: &mut Writer<'_, S>) -> Result<()> {
        u8::encode_slice(self.as_bytes(), w)
    }
}

impl Encode for String {
    fn encode<S: Sink>(&self, w: &mut Writer<'_, S>) -> Result<()> {
        self.as_str().encode(w)
    }
}

impl Decode for String {
    #[inline]
    fn decode(r: &mut Reader<'_>) -> Result<String> {
        let bytes = r.byte_string()?;
        match std::str::from_utf8(bytes) {
            Ok(s) => Ok(s.to_owned()),
            Err(e) => Err(NapletError::Codec(format!("invalid utf8: {e}"))),
        }
    }
}

impl<T: Encode + ?Sized> Encode for &T {
    fn encode<S: Sink>(&self, w: &mut Writer<'_, S>) -> Result<()> {
        (**self).encode(w)
    }
}

impl<T: Encode + ?Sized> Encode for Box<T> {
    fn encode<S: Sink>(&self, w: &mut Writer<'_, S>) -> Result<()> {
        (**self).encode(w)
    }
}

impl<T: Decode> Decode for Box<T> {
    fn decode(r: &mut Reader<'_>) -> Result<Box<T>> {
        T::decode(r).map(Box::new)
    }
}

impl<T: Encode> Encode for Option<T> {
    fn encode<S: Sink>(&self, w: &mut Writer<'_, S>) -> Result<()> {
        let Some(value) = self else {
            w.put(&[0]);
            return Ok(());
        };
        w.put(&[1]);
        w.enter()?;
        value.encode(w)?;
        w.leave();
        Ok(())
    }
}

impl<T: Decode> Decode for Option<T> {
    fn decode(r: &mut Reader<'_>) -> Result<Option<T>> {
        match r.byte()? {
            0 => Ok(None),
            1 => {
                r.enter()?;
                let value = T::decode(r)?;
                r.leave();
                Ok(Some(value))
            }
            b => Err(NapletError::Codec(format!("invalid option tag {b}"))),
        }
    }
}

impl<T: Encode> Encode for [T] {
    fn encode<S: Sink>(&self, w: &mut Writer<'_, S>) -> Result<()> {
        T::encode_slice(self, w)
    }
}

impl<T: Encode> Encode for Vec<T> {
    fn encode<S: Sink>(&self, w: &mut Writer<'_, S>) -> Result<()> {
        T::encode_slice(self, w)
    }
}

impl<T: Decode> Decode for Vec<T> {
    fn decode(r: &mut Reader<'_>) -> Result<Vec<T>> {
        T::decode_vec(r)
    }
}

impl<T: Encode, const N: usize> Encode for [T; N] {
    fn encode<S: Sink>(&self, w: &mut Writer<'_, S>) -> Result<()> {
        self.iter().try_for_each(|item| item.encode(w))
    }
}

impl<T: Decode, const N: usize> Decode for [T; N] {
    fn decode(r: &mut Reader<'_>) -> Result<[T; N]> {
        let mut items: [Option<T>; N] = std::array::from_fn(|_| None);
        for item in &mut items {
            *item = Some(T::decode(r)?);
        }
        Ok(items.map(|item| item.expect("every element decoded")))
    }
}

impl<K: Encode, V: Encode> Encode for BTreeMap<K, V> {
    fn encode<S: Sink>(&self, w: &mut Writer<'_, S>) -> Result<()> {
        w.enter()?;
        w.uvarint(self.len() as u64);
        for (key, value) in self {
            key.encode(w)?;
            value.encode(w)?;
        }
        w.leave();
        Ok(())
    }
}

impl<K: Decode + Ord, V: Decode> Decode for BTreeMap<K, V> {
    fn decode(r: &mut Reader<'_>) -> Result<BTreeMap<K, V>> {
        let len = r.len()?;
        r.enter()?;
        let mut map = BTreeMap::new();
        for _ in 0..len {
            let key = K::decode(r)?;
            map.insert(key, V::decode(r)?);
        }
        r.leave();
        Ok(map)
    }
}

impl<T: Encode> Encode for BTreeSet<T> {
    fn encode<S: Sink>(&self, w: &mut Writer<'_, S>) -> Result<()> {
        w.enter()?;
        w.uvarint(self.len() as u64);
        self.iter().try_for_each(|item| item.encode(w))?;
        w.leave();
        Ok(())
    }
}

impl<T: Decode + Ord> Decode for BTreeSet<T> {
    fn decode(r: &mut Reader<'_>) -> Result<BTreeSet<T>> {
        let len = r.len()?;
        r.enter()?;
        let mut set = BTreeSet::new();
        for _ in 0..len {
            set.insert(T::decode(r)?);
        }
        r.leave();
        Ok(set)
    }
}

/// As the enum `enum Result<T, E> { Ok(T), Err(E) }` would derive.
impl<T: Encode, E: Encode> Encode for std::result::Result<T, E> {
    fn encode<S: Sink>(&self, w: &mut Writer<'_, S>) -> Result<()> {
        match self {
            Ok(value) => {
                w.variant(0)?;
                value.encode(w)?;
            }
            Err(error) => {
                w.variant(1)?;
                error.encode(w)?;
            }
        }
        w.leave();
        Ok(())
    }
}

impl<T: Decode, E: Decode> Decode for std::result::Result<T, E> {
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        let value = match r.variant()? {
            0 => Ok(T::decode(r)?),
            1 => Err(E::decode(r)?),
            i => return Err(r.bad_variant(i, "Result")),
        };
        r.leave();
        Ok(value)
    }
}

macro_rules! tuple {
    ($(($($t:ident $i:tt),+))*) => {$(
        impl<$($t: Encode),+> Encode for ($($t,)+) {
            fn encode<S: Sink>(&self, w: &mut Writer<'_, S>) -> Result<()> {
                $(self.$i.encode(w)?;)+
                Ok(())
            }
        }
        impl<$($t: Decode),+> Decode for ($($t,)+) {
            fn decode(r: &mut Reader<'_>) -> Result<Self> {
                Ok(($($t::decode(r)?,)+))
            }
        }
    )*};
}

tuple! {
    (A 0, B 1)
    (A 0, B 1, C 2)
    (A 0, B 1, C 2, D 3)
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use super::*;
    use crate::value::Value;

    fn round_trip<T>(value: &T) -> T
    where
        T: Encode + Decode + PartialEq + std::fmt::Debug,
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
        round_trip(&-1i64);
        round_trip(&i64::MIN);
        round_trip(&i64::MAX);
        round_trip(&u64::MAX);
        round_trip(&-0.25f64);
        round_trip(&"hello naplet λ".to_string());
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

    #[derive(Debug, Clone, PartialEq, Encode, Decode)]
    enum Sample {
        Unit,
        New(u32),
        Tup(i64, String),
        Struct { a: Vec<u8>, b: Option<bool> },
    }

    #[derive(Debug, Clone, PartialEq, Encode, Decode)]
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
    /// Fails if `Vec<u8>` takes the sequence path, one varint per
    /// element.
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
            let mut reader = Reader {
                input: &bad,
                depth: 0,
            };
            let Err(NapletError::Codec(why)) = reader.byte_string() else {
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

    /// The byte-string rule, seen from every way a workspace type holds
    /// bytes: an owned vector, a slice, a borrowed slice and an empty one
    /// are one length and the bytes.
    #[test]
    fn byte_vectors_and_slices_encode_as_one_byte_string() {
        let payload = vec![0x00u8, 0x7f, 0x80, 0xff];
        let borrowed: &[u8] = &payload[1..3];
        assert_eq!(to_bytes(&borrowed).unwrap(), [2, 0x7f, 0x80]);
        assert_eq!(
            to_bytes(&&payload[..]).unwrap(),
            to_bytes(&payload).unwrap()
        );
        assert_eq!(to_bytes(&Vec::<u8>::new()).unwrap(), [0]);
        assert_eq!(encoded_size(&borrowed).unwrap(), 3);
        // one allocation of exactly the payload, not a grown sequence
        let back = from_bytes::<Vec<u8>>(&to_bytes(&payload).unwrap()).unwrap();
        assert_eq!((back.len(), back.capacity()), (4, 4));
    }

    /// Every other element type, and a byte array, stays a sequence of
    /// elements: `Vec<Vec<u8>>` is a count of byte strings, `[u8; N]` a
    /// tuple of varints.
    #[test]
    fn every_other_element_type_and_byte_arrays_stay_sequences() {
        assert_eq!(to_bytes(&vec![-1i64, 2]).unwrap(), [2, 0x01, 0x04]);
        let nested = vec![vec![1u8], vec![2u8]];
        assert_eq!(to_bytes(&nested).unwrap(), [2, 1, 1, 1, 2]);
        assert_eq!(to_bytes(&[7u8; 4]).unwrap(), [7; 4]);
        assert_eq!(from_bytes::<Vec<u16>>(&[0]).unwrap(), Vec::<u16>::new());
        assert_eq!(
            from_bytes::<Vec<Vec<u8>>>(&[0]).unwrap(),
            Vec::<Vec<u8>>::new()
        );
    }

    /// `Value::List` nested `levels` deep around a `Nil`: each level is
    /// an enum and a sequence, the `Nil` one more enum level.
    fn nested(levels: usize) -> Value {
        (0..levels).fold(Value::Nil, |inner, _| Value::List(vec![inner]))
    }

    /// Its frame, written by hand: `[6, 1]` per level, then `Nil`.
    fn nested_frame(levels: usize) -> Vec<u8> {
        let mut frame = [6u8, 1].repeat(levels);
        frame.push(0);
        frame
    }

    /// Unnest without recursing: dropping a deep value is as recursive
    /// as walking it.
    fn dismantle(mut value: Value) {
        while let Value::List(mut items) = value {
            value = items.pop().unwrap_or_default();
        }
    }

    #[test]
    fn nesting_up_to_the_bound_round_trips_and_one_level_more_does_not() {
        // 2 * 63 + 1 = 127 levels; 2 * 64 + 1 = 129
        let levels = MAX_DEPTH as usize / 2;
        let deepest = nested(levels - 1);
        assert_eq!(round_trip(&deepest), deepest);
        let too_deep = nested(levels);
        for refused in [
            to_bytes(&too_deep).map(drop),
            encoded_size(&too_deep).map(drop),
            from_bytes::<Value>(&nested_frame(levels)).map(drop),
        ] {
            let Err(NapletError::Codec(why)) = refused else {
                panic!("{levels} levels must be refused");
            };
            assert_eq!(why, "nested deeper than 128 levels");
        }
    }

    /// A 40 KB frame of a list nested 20 000 deep: the decoder stops at
    /// the bound instead of recursing off the stack, and the encoder and
    /// the size counter refuse the value it describes.
    #[test]
    fn a_frame_nested_20000_deep_is_an_error_not_a_stack_overflow() {
        let frame = nested_frame(20_000);
        assert_eq!(frame.len(), 40_001);
        assert!(matches!(
            from_bytes::<Value>(&frame),
            Err(NapletError::Codec(_))
        ));
        let value = nested(20_000);
        assert!(matches!(to_bytes(&value), Err(NapletError::Codec(_))));
        assert!(matches!(encoded_size(&value), Err(NapletError::Codec(_))));
        dismantle(value);
    }

    #[test]
    fn padded_varints_still_decode() {
        // 5 as two bytes: a continuation bit over a zero high group
        assert_eq!(from_bytes::<u32>(&[0x85, 0x00]).unwrap(), 5);
        assert_eq!(from_bytes::<Vec<u8>>(&[0x81, 0x00, 9]).unwrap(), [9]);
    }
}

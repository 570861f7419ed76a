//! The decoding half of the format: the [`Decode`] trait and its impls.

use std::collections::{BTreeMap, HashMap};
use std::hash::{BuildHasher, Hash};

use crate::error::{Error, Result};
use crate::varint;

/// A value that can be read back from the SplitServe wire format.
///
/// `decode` consumes from the front of the slice, advancing it past the
/// value — so records can be streamed out of a shuffle block back to back.
pub trait Decode: Sized {
    /// Decodes one value from the front of `input`, advancing it.
    ///
    /// # Errors
    ///
    /// Returns an error on truncated or malformed input. Implementations
    /// must never panic on arbitrary bytes.
    fn decode(input: &mut &[u8]) -> Result<Self>;

    /// Decodes `len` values back to back from the front of `input`,
    /// advancing it: the element half of a sequence's decoding, `len`
    /// being the already-read (and `read_len`-checked) prefix. `Vec<T>`
    /// reaches its elements only through this hook, so a type whose values
    /// can be read faster together than apart (`u8`) overrides it — with
    /// the same values, consumption and errors as this per-element
    /// default.
    ///
    /// # Errors
    ///
    /// The first element's error, as [`decode`](Decode::decode) reports it.
    fn decode_vec(input: &mut &[u8], len: usize) -> Result<Vec<Self>> {
        decode_each(input, len)
    }
}

/// The per-element sequence reader: the default of
/// [`Decode::decode_vec`], and what an override falls back to on input its
/// fast path does not recognize.
fn decode_each<T: Decode>(input: &mut &[u8], len: usize) -> Result<Vec<T>> {
    let mut out = Vec::with_capacity(len.min(4096));
    for _ in 0..len {
        out.push(T::decode(input)?);
    }
    Ok(out)
}

/// Deserializes a value of type `T` from `bytes`, requiring the whole input
/// to be consumed.
///
/// # Errors
///
/// Returns an error on malformed input or if trailing bytes remain.
///
/// # Examples
///
/// ```
/// let bytes = splitserve_codec::to_bytes(&vec![1u8, 2, 3]).expect("encode");
/// let v: Vec<u8> = splitserve_codec::from_bytes(&bytes).expect("decode");
/// assert_eq!(v, vec![1, 2, 3]);
/// ```
pub fn from_bytes<T: Decode>(bytes: &[u8]) -> Result<T> {
    let mut input = bytes;
    let value = T::decode(&mut input)?;
    if input.is_empty() {
        Ok(value)
    } else {
        Err(Error::TrailingBytes(input.len()))
    }
}

/// Deserializes a value from the front of `*bytes`, advancing the slice.
/// Used to stream records out of a shuffle block.
///
/// # Errors
///
/// Returns an error on malformed input.
pub fn from_bytes_seq<T: Decode>(bytes: &mut &[u8]) -> Result<T> {
    T::decode(bytes)
}

/// Reads a length prefix, rejecting values implausibly large for the
/// remaining input (each element occupies at least one byte except
/// zero-sized ones, which are bounded elsewhere); this guards against
/// absurd allocations from corrupt input.
pub(crate) fn read_len(input: &mut &[u8]) -> Result<usize> {
    let n = varint::read_u64(input)?;
    if n > (input.len() as u64).saturating_mul(8).saturating_add(64) {
        return Err(Error::LengthOverflow(n));
    }
    Ok(n as usize)
}

fn take<'a>(input: &mut &'a [u8], n: usize) -> Result<&'a [u8]> {
    if input.len() < n {
        return Err(Error::UnexpectedEof);
    }
    let (head, rest) = input.split_at(n);
    *input = rest;
    Ok(head)
}

// ----- primitives ------------------------------------------------------

impl Decode for bool {
    fn decode(input: &mut &[u8]) -> Result<bool> {
        match take(input, 1)?[0] {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(Error::InvalidBool(b)),
        }
    }
}

macro_rules! decode_unsigned {
    ($($ty:ty),*) => {$(
        impl Decode for $ty {
            fn decode(input: &mut &[u8]) -> Result<$ty> {
                let v = varint::read_u64(input)?;
                <$ty>::try_from(v)
                    .map_err(|_| Error::Message(format!("integer {v} out of range")))
            }
        }
    )*};
}
decode_unsigned!(u16, u32, u64, usize);

impl Decode for u8 {
    fn decode(input: &mut &[u8]) -> Result<u8> {
        let v = varint::read_u64(input)?;
        u8::try_from(v).map_err(|_| Error::Message(format!("integer {v} out of range")))
    }
    fn decode_vec(input: &mut &[u8], len: usize) -> Result<Vec<u8>> {
        match varint::read_u8s(input, len) {
            Some(bytes) => Ok(bytes),
            // Not the canonical encoding of `len` bytes: the per-element
            // reader decides what it is worth (a padded varint is still
            // accepted) and which error it is.
            None => decode_each(input, len),
        }
    }
}

macro_rules! decode_signed {
    ($($ty:ty),*) => {$(
        impl Decode for $ty {
            fn decode(input: &mut &[u8]) -> Result<$ty> {
                let v = varint::read_i64(input)?;
                <$ty>::try_from(v)
                    .map_err(|_| Error::Message(format!("integer {v} out of range")))
            }
        }
    )*};
}
decode_signed!(i8, i16, i32, i64, isize);

impl Decode for f32 {
    fn decode(input: &mut &[u8]) -> Result<f32> {
        let b = take(input, 4)?;
        Ok(f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }
}

impl Decode for f64 {
    fn decode(input: &mut &[u8]) -> Result<f64> {
        let b = take(input, 8)?;
        Ok(f64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }
}

impl Decode for char {
    fn decode(input: &mut &[u8]) -> Result<char> {
        let scalar = varint::read_u64(input)?;
        let scalar = u32::try_from(scalar).map_err(|_| Error::InvalidChar(u32::MAX))?;
        char::from_u32(scalar).ok_or(Error::InvalidChar(scalar))
    }
}

impl Decode for String {
    fn decode(input: &mut &[u8]) -> Result<String> {
        let len = read_len(input)?;
        let bytes = take(input, len)?;
        std::str::from_utf8(bytes)
            .map(str::to_owned)
            .map_err(|_| Error::InvalidUtf8)
    }
}

// ----- compound types --------------------------------------------------

impl<T: Decode> Decode for Box<T> {
    fn decode(input: &mut &[u8]) -> Result<Box<T>> {
        T::decode(input).map(Box::new)
    }
}

impl<T: Decode> Decode for Option<T> {
    fn decode(input: &mut &[u8]) -> Result<Option<T>> {
        match take(input, 1)?[0] {
            0 => Ok(None),
            1 => T::decode(input).map(Some),
            b => Err(Error::InvalidOptionTag(b)),
        }
    }
}

impl<T: Decode> Decode for Vec<T> {
    fn decode(input: &mut &[u8]) -> Result<Vec<T>> {
        let len = read_len(input)?;
        T::decode_vec(input, len)
    }
}

impl<K: Decode + Ord, V: Decode> Decode for BTreeMap<K, V> {
    fn decode(input: &mut &[u8]) -> Result<BTreeMap<K, V>> {
        let len = read_len(input)?;
        let mut out = BTreeMap::new();
        for _ in 0..len {
            let k = K::decode(input)?;
            let v = V::decode(input)?;
            out.insert(k, v);
        }
        Ok(out)
    }
}

impl<K: Decode + Hash + Eq, V: Decode, S: BuildHasher + Default> Decode for HashMap<K, V, S> {
    fn decode(input: &mut &[u8]) -> Result<HashMap<K, V, S>> {
        let len = read_len(input)?;
        let mut out = HashMap::with_hasher(S::default());
        for _ in 0..len {
            let k = K::decode(input)?;
            let v = V::decode(input)?;
            out.insert(k, v);
        }
        Ok(out)
    }
}

impl Decode for () {
    fn decode(_input: &mut &[u8]) -> Result<()> {
        Ok(())
    }
}

macro_rules! decode_tuple {
    ($($name:ident),+) => {
        impl<$($name: Decode),+> Decode for ($($name,)+) {
            fn decode(input: &mut &[u8]) -> Result<Self> {
                Ok(($($name::decode(input)?,)+))
            }
        }
    };
}
decode_tuple!(A);
decode_tuple!(A, B);
decode_tuple!(A, B, C);
decode_tuple!(A, B, C, D);
decode_tuple!(A, B, C, D, E);
decode_tuple!(A, B, C, D, E, F);
decode_tuple!(A, B, C, D, E, F, G);
decode_tuple!(A, B, C, D, E, F, G, H);

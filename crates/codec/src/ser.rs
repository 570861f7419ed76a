//! The encoding half of the format: the [`Encode`] trait and its impls for
//! primitives, tuples, collections and smart pointers.

use std::collections::{BTreeMap, HashMap};

use crate::error::Result;
use crate::varint;

/// A value that can be written to the SplitServe wire format.
///
/// Encoding is infallible: every encodable value is already in memory with
/// a known shape, so the only possible failures (unknown-length sequences
/// in serde's data model) cannot arise.
///
/// Implement via [`crate::impl_record!`] for plain structs; by hand for
/// enums (write the variant index as a `u32`, then the payload).
pub trait Encode {
    /// Appends this value's encoding to `out`.
    fn encode(&self, out: &mut Vec<u8>);

    /// The exact number of bytes [`encode`](Encode::encode) will append.
    ///
    /// The shuffle write path sums this over a bucket's records to size
    /// its output buffer exactly, so encoding never reallocates and
    /// blocks carry no spare capacity. Every impl in this crate computes
    /// the length arithmetically; the default is a correct fallback for
    /// hand-written impls (it encodes into pooled scratch and measures),
    /// so `encoded_len == encode'd byte count` is an invariant, not a
    /// hint.
    fn encoded_len(&self) -> usize {
        let mut scratch = splitserve_rt::pool::take(0);
        self.encode(&mut scratch);
        let n = scratch.len();
        splitserve_rt::pool::give(scratch);
        n
    }

    /// Appends the encodings of `items` back to back, with no length
    /// prefix: the element half of a sequence's encoding. `[T]` and
    /// `Vec<T>` reach their elements only through this hook, so a type
    /// whose values can be written faster together than apart (`u8`)
    /// overrides it — with the same bytes as the per-element default.
    fn encode_slice(items: &[Self], out: &mut Vec<u8>)
    where
        Self: Sized,
    {
        for item in items {
            item.encode(out);
        }
    }

    /// The exact number of bytes [`encode_slice`](Encode::encode_slice)
    /// will append for `items`.
    fn encoded_len_slice(items: &[Self]) -> usize
    where
        Self: Sized,
    {
        items.iter().map(Encode::encoded_len).sum()
    }
}

/// Serializes `value` into a fresh byte vector.
///
/// # Errors
///
/// Infallible today (kept `Result` so call sites and future format
/// revisions keep a stable signature).
///
/// # Examples
///
/// ```
/// let bytes = splitserve_codec::to_bytes(&(1u32, "hi")).expect("encode");
/// let back: (u32, String) = splitserve_codec::from_bytes(&bytes).expect("decode");
/// assert_eq!(back, (1, "hi".to_string()));
/// ```
pub fn to_bytes<T: Encode + ?Sized>(value: &T) -> Result<Vec<u8>> {
    let mut out = Vec::new();
    value.encode(&mut out);
    Ok(out)
}

// ----- primitives ------------------------------------------------------

impl Encode for bool {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(*self as u8);
    }
    fn encoded_len(&self) -> usize {
        1
    }
}

macro_rules! encode_unsigned {
    ($($ty:ty),*) => {$(
        impl Encode for $ty {
            fn encode(&self, out: &mut Vec<u8>) {
                varint::write_u64(out, *self as u64);
            }
            fn encoded_len(&self) -> usize {
                varint::len_u64(*self as u64)
            }
        }
    )*};
}
encode_unsigned!(u16, u32, u64, usize);

/// A `u8` is a varint like every other unsigned integer — values of 128
/// and up take two bytes — so byte payloads (`Vec<u8>`) keep that layout;
/// the slice hooks only produce it in bulk.
impl Encode for u8 {
    fn encode(&self, out: &mut Vec<u8>) {
        varint::write_u64(out, u64::from(*self));
    }
    fn encoded_len(&self) -> usize {
        varint::len_u64(u64::from(*self))
    }
    fn encode_slice(items: &[u8], out: &mut Vec<u8>) {
        varint::write_u8s(out, items);
    }
    fn encoded_len_slice(items: &[u8]) -> usize {
        varint::len_u8s(items)
    }
}

macro_rules! encode_signed {
    ($($ty:ty),*) => {$(
        impl Encode for $ty {
            fn encode(&self, out: &mut Vec<u8>) {
                varint::write_i64(out, *self as i64);
            }
            fn encoded_len(&self) -> usize {
                varint::len_i64(*self as i64)
            }
        }
    )*};
}
encode_signed!(i8, i16, i32, i64, isize);

impl Encode for f32 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
    fn encoded_len(&self) -> usize {
        4
    }
}

impl Encode for f64 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
    fn encoded_len(&self) -> usize {
        8
    }
}

impl Encode for char {
    fn encode(&self, out: &mut Vec<u8>) {
        varint::write_u64(out, *self as u64);
    }
    fn encoded_len(&self) -> usize {
        varint::len_u64(*self as u64)
    }
}

impl Encode for str {
    fn encode(&self, out: &mut Vec<u8>) {
        varint::write_u64(out, self.len() as u64);
        out.extend_from_slice(self.as_bytes());
    }
    fn encoded_len(&self) -> usize {
        varint::len_u64(self.len() as u64) + self.len()
    }
}

impl Encode for String {
    fn encode(&self, out: &mut Vec<u8>) {
        self.as_str().encode(out);
    }
    fn encoded_len(&self) -> usize {
        self.as_str().encoded_len()
    }
}

// ----- compound types --------------------------------------------------

impl<T: Encode + ?Sized> Encode for &T {
    fn encode(&self, out: &mut Vec<u8>) {
        (**self).encode(out);
    }
    fn encoded_len(&self) -> usize {
        (**self).encoded_len()
    }
}

impl<T: Encode + ?Sized> Encode for Box<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        (**self).encode(out);
    }
    fn encoded_len(&self) -> usize {
        (**self).encoded_len()
    }
}

impl<T: Encode> Encode for Option<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.encode(out);
            }
        }
    }
    fn encoded_len(&self) -> usize {
        match self {
            None => 1,
            Some(v) => 1 + v.encoded_len(),
        }
    }
}

impl<T: Encode> Encode for [T] {
    fn encode(&self, out: &mut Vec<u8>) {
        varint::write_u64(out, self.len() as u64);
        T::encode_slice(self, out);
    }
    fn encoded_len(&self) -> usize {
        varint::len_u64(self.len() as u64) + T::encoded_len_slice(self)
    }
}

impl<T: Encode> Encode for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.as_slice().encode(out);
    }
    fn encoded_len(&self) -> usize {
        self.as_slice().encoded_len()
    }
}

impl<K: Encode, V: Encode> Encode for BTreeMap<K, V> {
    fn encode(&self, out: &mut Vec<u8>) {
        varint::write_u64(out, self.len() as u64);
        for (k, v) in self {
            k.encode(out);
            v.encode(out);
        }
    }
    fn encoded_len(&self) -> usize {
        varint::len_u64(self.len() as u64)
            + self
                .iter()
                .map(|(k, v)| k.encoded_len() + v.encoded_len())
                .sum::<usize>()
    }
}

impl<K: Encode, V: Encode, S> Encode for HashMap<K, V, S> {
    fn encode(&self, out: &mut Vec<u8>) {
        varint::write_u64(out, self.len() as u64);
        for (k, v) in self {
            k.encode(out);
            v.encode(out);
        }
    }
    fn encoded_len(&self) -> usize {
        varint::len_u64(self.len() as u64)
            + self
                .iter()
                .map(|(k, v)| k.encoded_len() + v.encoded_len())
                .sum::<usize>()
    }
}

impl Encode for () {
    fn encode(&self, _out: &mut Vec<u8>) {}
    fn encoded_len(&self) -> usize {
        0
    }
}

macro_rules! encode_tuple {
    ($($name:ident : $idx:tt),+) => {
        impl<$($name: Encode),+> Encode for ($($name,)+) {
            fn encode(&self, out: &mut Vec<u8>) {
                $( self.$idx.encode(out); )+
            }
            fn encoded_len(&self) -> usize {
                0 $( + self.$idx.encoded_len() )+
            }
        }
    };
}
encode_tuple!(A: 0);
encode_tuple!(A: 0, B: 1);
encode_tuple!(A: 0, B: 1, C: 2);
encode_tuple!(A: 0, B: 1, C: 2, D: 3);
encode_tuple!(A: 0, B: 1, C: 2, D: 3, E: 4);
encode_tuple!(A: 0, B: 1, C: 2, D: 3, E: 4, F: 5);
encode_tuple!(A: 0, B: 1, C: 2, D: 3, E: 4, F: 5, G: 6);
encode_tuple!(A: 0, B: 1, C: 2, D: 3, E: 4, F: 5, G: 6, H: 7);

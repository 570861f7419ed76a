//! # splitserve-codec — compact binary shuffle format
//!
//! The wire format used to serialize shuffle records into storage blocks in
//! the SplitServe reproduction. It is a bincode-style, non-self-describing
//! binary format: LEB128 varints for integers (zigzag for signed),
//! little-endian IEEE floats, length-prefixed strings/bytes/sequences, and
//! variant indices for enums.
//!
//! The format is defined by the in-tree [`Encode`]/[`Decode`] traits rather
//! than serde: the hermetic build has no registry access, and pinning both
//! the data model and the byte layout in-tree guarantees shuffle blocks are
//! byte-for-byte reproducible across toolchains. Plain record structs get
//! their impls from [`impl_record!`]; enums implement the traits by hand
//! (variant index as a varint, then the payload fields in order).
//!
//! # Examples
//!
//! ```
//! #[derive(PartialEq, Debug)]
//! struct Edge {
//!     src: u64,
//!     dst: u64,
//!     weight: f64,
//! }
//! splitserve_codec::impl_record!(Edge { src, dst, weight });
//!
//! # fn main() -> Result<(), splitserve_codec::Error> {
//! let e = Edge { src: 3, dst: 7, weight: 0.5 };
//! let bytes = splitserve_codec::to_bytes(&e)?;
//! let back: Edge = splitserve_codec::from_bytes(&bytes)?;
//! assert_eq!(back, e);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod de;
mod error;
mod ser;
mod varint;

pub use de::{from_bytes, from_bytes_seq, Decode};
pub use error::{Error, Result};
pub use ser::{to_bytes, Encode};

/// Implements [`Encode`] and [`Decode`] for a struct with named fields by
/// encoding the fields in declaration order — the same layout serde's
/// derive produced for this format, so records stay wire-compatible.
///
/// # Examples
///
/// ```
/// struct Row { key: u64, score: f64, tags: Vec<String> }
/// splitserve_codec::impl_record!(Row { key, score, tags });
/// ```
#[macro_export]
macro_rules! impl_record {
    ($name:ident { $($field:ident),* $(,)? }) => {
        impl $crate::Encode for $name {
            fn encode(&self, out: &mut ::std::vec::Vec<u8>) {
                $( $crate::Encode::encode(&self.$field, out); )*
            }
            fn encoded_len(&self) -> usize {
                0 $( + $crate::Encode::encoded_len(&self.$field) )*
            }
        }
        impl $crate::Decode for $name {
            fn decode(input: &mut &[u8]) -> $crate::Result<Self> {
                ::std::result::Result::Ok($name {
                    $( $field: $crate::Decode::decode(input)?, )*
                })
            }
        }
    };
}

/// Encoded size of `value` in bytes, computed arithmetically via
/// [`Encode::encoded_len`] — no serialization happens.
///
/// # Errors
///
/// Infallible today (kept `Result` so call sites and future format
/// revisions keep a stable signature).
pub fn encoded_len<T: Encode + ?Sized>(value: &T) -> Result<usize> {
    Ok(value.encoded_len())
}

#[cfg(test)]
mod tests {
    use crate::{Decode, Encode, Error, Result};
    use std::collections::BTreeMap;

    fn roundtrip<T>(v: &T)
    where
        T: Encode + Decode + PartialEq + std::fmt::Debug,
    {
        let bytes = crate::to_bytes(v).expect("encode");
        let back: T = crate::from_bytes(&bytes).expect("decode");
        assert_eq!(&back, v);
    }

    #[test]
    fn primitives_roundtrip() {
        roundtrip(&true);
        roundtrip(&false);
        roundtrip(&0u8);
        roundtrip(&u64::MAX);
        roundtrip(&i64::MIN);
        roundtrip(&-1i32);
        roundtrip(&3.25f32);
        roundtrip(&f64::NEG_INFINITY);
        roundtrip(&'λ');
        roundtrip(&"hello world".to_string());
        roundtrip(&String::new());
    }

    #[test]
    fn containers_roundtrip() {
        roundtrip(&vec![1u32, 2, 3]);
        roundtrip(&Vec::<u32>::new());
        roundtrip(&Some(42u64));
        roundtrip(&Option::<u64>::None);
        roundtrip(&(1u8, "pair".to_string(), 2.5f64));
        let mut m = BTreeMap::new();
        m.insert("a".to_string(), 1u32);
        m.insert("b".to_string(), 2u32);
        roundtrip(&m);
        roundtrip(&vec![vec![1u8], vec![], vec![2, 3]]);
    }

    #[derive(PartialEq, Debug)]
    enum Shape {
        Unit,
        New(u32),
        Tuple(u32, String),
        Struct { x: f64, y: f64 },
    }

    // The hand-written pattern for enums: variant index, then payload.
    impl Encode for Shape {
        fn encode(&self, out: &mut Vec<u8>) {
            match self {
                Shape::Unit => 0u32.encode(out),
                Shape::New(a) => {
                    1u32.encode(out);
                    a.encode(out);
                }
                Shape::Tuple(a, b) => {
                    2u32.encode(out);
                    a.encode(out);
                    b.encode(out);
                }
                Shape::Struct { x, y } => {
                    3u32.encode(out);
                    x.encode(out);
                    y.encode(out);
                }
            }
        }
    }
    impl Decode for Shape {
        fn decode(input: &mut &[u8]) -> Result<Shape> {
            Ok(match u32::decode(input)? {
                0 => Shape::Unit,
                1 => Shape::New(Decode::decode(input)?),
                2 => Shape::Tuple(Decode::decode(input)?, Decode::decode(input)?),
                3 => Shape::Struct {
                    x: Decode::decode(input)?,
                    y: Decode::decode(input)?,
                },
                i => return Err(Error::InvalidVariant(i.into())),
            })
        }
    }

    #[test]
    fn enums_roundtrip() {
        roundtrip(&Shape::Unit);
        roundtrip(&Shape::New(7));
        roundtrip(&Shape::Tuple(1, "t".into()));
        roundtrip(&Shape::Struct { x: 1.0, y: -2.0 });
        roundtrip(&vec![Shape::Unit, Shape::New(1)]);
    }

    #[test]
    fn unknown_variant_rejected() {
        let bytes = crate::to_bytes(&9u32).expect("encode");
        let r: Result<Shape> = crate::from_bytes(&bytes);
        assert!(matches!(r, Err(Error::InvalidVariant(9))));
    }

    #[derive(PartialEq, Debug)]
    struct Nested {
        id: u64,
        tags: Vec<String>,
        inner: Option<Box<Nested>>,
    }
    crate::impl_record!(Nested { id, tags, inner });

    #[test]
    fn nested_structs_roundtrip() {
        roundtrip(&Nested {
            id: 1,
            tags: vec!["a".into(), "b".into()],
            inner: Some(Box::new(Nested {
                id: 2,
                tags: vec![],
                inner: None,
            })),
        });
    }

    #[test]
    fn varints_keep_small_records_small() {
        // A (u64 key, f64 value) record with a small key: 1 + 8 bytes.
        let n = crate::encoded_len(&(5u64, 1.0f64)).expect("len");
        assert_eq!(n, 9);
    }

    /// The wire format of a byte payload, pinned literally: a `u8` is a
    /// varint, so 128 and up take two bytes. The bulk hooks must keep it.
    #[test]
    fn byte_payload_wire_bytes_are_pinned() {
        let bytes = crate::to_bytes(&vec![0u8, 1, 127, 128, 255]).expect("encode");
        assert_eq!(bytes, [5, 0, 1, 127, 128, 1, 255, 1]);
        let record = (300u64, vec![0x7fu8, 0x80, 0xa5]);
        let bytes = crate::to_bytes(&record).expect("encode");
        assert_eq!(bytes, [0xac, 0x02, 3, 0x7f, 0x80, 0x01, 0xa5, 0x01]);
        roundtrip(&record);
    }

    #[test]
    fn encoded_len_is_exact_for_every_impl() {
        fn assert_exact<T: Encode + std::fmt::Debug>(v: &T) {
            let bytes = crate::to_bytes(v).expect("encode");
            assert_eq!(v.encoded_len(), bytes.len(), "encoded_len({v:?})");
        }
        assert_exact(&true);
        assert_exact(&0u8);
        assert_exact(&127u64);
        assert_exact(&128u64);
        assert_exact(&u64::MAX);
        assert_exact(&-1i32);
        assert_exact(&i64::MIN);
        assert_exact(&3.25f32);
        assert_exact(&f64::NAN);
        assert_exact(&'λ');
        assert_exact(&"hello".to_string());
        assert_exact(&vec![1u32, 200, 40_000]);
        assert_exact(&Vec::<u64>::new());
        assert_exact(&Some("x".to_string()));
        assert_exact(&Option::<u8>::None);
        assert_exact(&(5u64, 1.0f64, "k".to_string()));
        assert_exact(&());
        let mut m = BTreeMap::new();
        m.insert(1u32, vec![9u8; 3]);
        assert_exact(&m);
        // Hand-written impls without an override go through the default
        // (measure-by-encoding) fallback and must agree too.
        assert_exact(&Shape::Tuple(1, "t".into()));
        assert_exact(&Shape::Unit);
        // impl_record! structs compute arithmetically.
        assert_exact(&Nested {
            id: 9,
            tags: vec!["a".into()],
            inner: Some(Box::new(Nested {
                id: 1,
                tags: vec![],
                inner: None,
            })),
        });
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = crate::to_bytes(&1u32).expect("encode");
        bytes.push(0);
        let r: Result<u32> = crate::from_bytes(&bytes);
        assert!(matches!(r, Err(Error::TrailingBytes(1))));
    }

    #[test]
    fn truncated_input_rejected() {
        let bytes = crate::to_bytes("hello").expect("encode");
        let r: Result<String> = crate::from_bytes(&bytes[..bytes.len() - 1]);
        assert!(matches!(r, Err(Error::UnexpectedEof)));
    }

    #[test]
    fn absurd_length_prefix_rejected() {
        // Sequence claiming u64::MAX/2 elements with 2 bytes of input.
        let mut bytes = Vec::new();
        crate::varint::write_u64(&mut bytes, u64::MAX / 2);
        let r: Result<Vec<u8>> = crate::from_bytes(&bytes);
        assert!(matches!(r, Err(Error::LengthOverflow(_))));
    }

    #[test]
    fn streaming_decode_advances() {
        let mut buf = Vec::new();
        (1u32, 2u32).encode(&mut buf);
        (3u32, 4u32).encode(&mut buf);
        let mut slice = buf.as_slice();
        let a: (u32, u32) = crate::from_bytes_seq(&mut slice).expect("decode");
        let b: (u32, u32) = crate::from_bytes_seq(&mut slice).expect("decode");
        assert_eq!(a, (1, 2));
        assert_eq!(b, (3, 4));
        assert!(slice.is_empty());
    }

    #[test]
    fn invalid_bool_rejected() {
        let r: Result<bool> = crate::from_bytes(&[2]);
        assert!(matches!(r, Err(Error::InvalidBool(2))));
    }

    #[test]
    fn invalid_utf8_rejected() {
        // len=2, bytes = invalid UTF-8
        let bytes = [2u8, 0xff, 0xfe];
        let r: Result<String> = crate::from_bytes(&bytes);
        assert!(matches!(r, Err(Error::InvalidUtf8)));
    }
}

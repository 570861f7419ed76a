//! Property-based roundtrip tests: for every value the format can
//! describe, `from_bytes(to_bytes(v)) == v`, and arbitrary garbage input
//! never panics the decoder.

use std::collections::BTreeMap;

use splitserve_codec::{Decode, Encode, Error, Result};
use splitserve_rt::check::{self, Gen};

#[derive(PartialEq, Debug, Clone)]
enum Record {
    Empty,
    Scalar(i64),
    Pair(u64, f64),
    Labeled { name: String, values: Vec<f32> },
}

impl Encode for Record {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Record::Empty => 0u32.encode(out),
            Record::Scalar(v) => {
                1u32.encode(out);
                v.encode(out);
            }
            Record::Pair(k, v) => {
                2u32.encode(out);
                k.encode(out);
                v.encode(out);
            }
            Record::Labeled { name, values } => {
                3u32.encode(out);
                name.encode(out);
                values.encode(out);
            }
        }
    }
}

impl Decode for Record {
    fn decode(input: &mut &[u8]) -> Result<Record> {
        Ok(match u32::decode(input)? {
            0 => Record::Empty,
            1 => Record::Scalar(Decode::decode(input)?),
            2 => Record::Pair(Decode::decode(input)?, Decode::decode(input)?),
            3 => Record::Labeled {
                name: Decode::decode(input)?,
                values: Decode::decode(input)?,
            },
            i => return Err(Error::InvalidVariant(i.into())),
        })
    }
}

fn arb_record(g: &mut Gen) -> Record {
    match g.usize_in(0, 4) {
        0 => Record::Empty,
        1 => Record::Scalar(g.rng().gen()),
        2 => Record::Pair(g.u64(), {
            // NaN breaks PartialEq; resample to a non-NaN pattern.
            let mut f = g.f64_bits();
            while f.is_nan() {
                f = g.f64_bits();
            }
            f
        }),
        _ => Record::Labeled {
            name: g.lowercase(0, 13),
            values: (0..g.usize_in(0, 8))
                .map(|_| {
                    let mut f = g.f32_bits();
                    while f.is_nan() {
                        f = g.f32_bits();
                    }
                    f
                })
                .collect(),
        },
    }
}

fn roundtrip<T: Encode + Decode>(v: &T) -> T {
    let bytes = splitserve_codec::to_bytes(v).expect("encode");
    splitserve_codec::from_bytes(&bytes).expect("decode")
}

#[test]
fn u64_roundtrips() {
    check::run("u64_roundtrips", 256, |g| {
        let v = g.u64();
        assert_eq!(roundtrip(&v), v);
    });
}

#[test]
fn i64_roundtrips() {
    check::run("i64_roundtrips", 256, |g| {
        let v: i64 = g.rng().gen();
        assert_eq!(roundtrip(&v), v);
    });
}

#[test]
fn f64_roundtrips_bitwise() {
    check::run("f64_roundtrips_bitwise", 256, |g| {
        let v = g.f64_bits();
        assert_eq!(roundtrip(&v).to_bits(), v.to_bits());
    });
}

#[test]
fn strings_roundtrip() {
    check::run("strings_roundtrip", 256, |g| {
        let s = g.string(0, 65);
        assert_eq!(roundtrip(&s), s);
    });
}

#[test]
fn byte_vectors_roundtrip() {
    check::run("byte_vectors_roundtrip", 256, |g| {
        let v = g.bytes(0, 256);
        assert_eq!(roundtrip(&v), v);
    });
}

#[test]
fn maps_roundtrip() {
    check::run("maps_roundtrip", 128, |g| {
        let m: BTreeMap<u32, String> = (0..g.usize_in(0, 32))
            .map(|_| (g.rng().gen(), g.lowercase(0, 9)))
            .collect();
        assert_eq!(roundtrip(&m), m);
    });
}

#[test]
fn records_roundtrip() {
    check::run("records_roundtrip", 128, |g| {
        let r = g.vec(0, 32, arb_record);
        assert_eq!(roundtrip(&r), r);
    });
}

#[test]
fn options_and_nesting_roundtrip() {
    check::run("options_and_nesting_roundtrip", 128, |g| {
        let v: Vec<Option<(u16, Vec<i32>)>> = g.vec(0, 16, |g| {
            if g.bool() {
                Some((g.rng().gen(), g.vec(0, 4, |g| g.rng().gen())))
            } else {
                None
            }
        });
        assert_eq!(roundtrip(&v), v);
    });
}

#[test]
fn nested_map_of_records_roundtrips() {
    check::run("nested_map_of_records_roundtrips", 64, |g| {
        let m: BTreeMap<String, Vec<Record>> = (0..g.usize_in(0, 8))
            .map(|_| (g.lowercase(1, 5), g.vec(0, 4, arb_record)))
            .collect();
        let got: BTreeMap<String, Vec<Record>> = roundtrip(&m);
        assert_eq!(got, m);
    });
}

// ----- byte payloads: the bulk `u8` hooks against a per-element reference --

/// `Vec<u8>` encoded the way the format defines it: length prefix, then
/// one varint per byte, each through the scalar `u8` impl.
fn reference_encode(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    (payload.len() as u64).encode(&mut out);
    for b in payload {
        b.encode(&mut out);
    }
    out
}

/// `Vec<u8>` decoded one element at a time through the scalar `u8` impl,
/// behind the same plausibility check on the prefix as the codec's.
fn reference_decode(input: &mut &[u8]) -> Result<Vec<u8>> {
    let len = u64::decode(input)?;
    if len > (input.len() as u64) * 8 + 64 {
        return Err(Error::LengthOverflow(len));
    }
    let mut out = Vec::new();
    for _ in 0..len {
        out.push(u8::decode(input)?);
    }
    Ok(out)
}

/// Payloads of every shape the bulk paths treat differently: lengths on
/// both sides of the eight-byte round and the 64-byte staging chunk, and
/// fills that never, always or sometimes set the high bit.
fn arb_payload(g: &mut Gen) -> Vec<u8> {
    const LENGTHS: [usize; 14] = [0, 1, 7, 8, 9, 15, 16, 17, 63, 64, 65, 127, 128, 129];
    let len = if g.bool() {
        LENGTHS[g.usize_in(0, LENGTHS.len())]
    } else {
        g.usize_in(0, 400)
    };
    let mut v = g.bytes(len, len);
    match g.usize_in(0, 4) {
        0 => v.iter_mut().for_each(|b| *b &= 0x7f),
        1 => v.iter_mut().for_each(|b| *b |= 0x80),
        // Runs: a high-bit stretch inside a low one.
        2 => {
            let (a, b) = (g.usize_in(0, len + 1), g.usize_in(0, len + 1));
            for (i, x) in v.iter_mut().enumerate() {
                *x = if (a.min(b)..a.max(b)).contains(&i) {
                    *x | 0x80
                } else {
                    *x & 0x7f
                };
            }
        }
        _ => {}
    }
    v
}

#[test]
fn bulk_byte_encoding_equals_the_per_element_reference() {
    check::run("bulk_byte_encoding_equals_reference", 1024, |g| {
        let payload = arb_payload(g);
        let bytes = splitserve_codec::to_bytes(&payload).expect("encode");
        assert_eq!(bytes, reference_encode(&payload));
        assert_eq!(payload.encoded_len(), bytes.len());
        assert_eq!(payload.as_slice().encoded_len(), bytes.len());
        assert_eq!(roundtrip(&payload), payload);
        // Appending must leave what the buffer already holds alone, and a
        // payload must decode the same mid-stream as at the end of input.
        let mut framed = vec![0xee];
        (7u64, &payload, 9u64).encode(&mut framed);
        let back: (u64, Vec<u8>, u64) = splitserve_codec::from_bytes(&framed[1..]).expect("decode");
        assert_eq!((framed[0], back), (0xee, (7, payload, 9)));
    });
}

/// On arbitrary *input* the bulk decoder and the per-element reference
/// agree on everything observable: the value and how much input it took,
/// or the error. Inputs are valid encodings, valid encodings damaged in
/// one place, and noise.
#[test]
fn byte_decoding_matches_the_reference_on_hostile_input() {
    check::run("byte_decoding_matches_reference", 4096, |g| {
        let mut bytes = match g.usize_in(0, 4) {
            0 => g.bytes(0, 96),
            _ => {
                let mut b = reference_encode(&arb_payload(g));
                b.extend(g.bytes(0, 12));
                b
            }
        };
        if !bytes.is_empty() {
            let at = g.usize_in(0, bytes.len());
            match g.usize_in(0, 6) {
                0 => bytes.truncate(at),
                1 => bytes[at] = g.rng().gen(),
                2 => bytes[at] ^= 0x80,
                // A padded (non-canonical) varint, which the format accepts.
                3 => drop(bytes.splice(at..at, [0x80, 0x00])),
                4 => drop(bytes.splice(at..at, [0xff, 0x02])),
                _ => {}
            }
        }
        let mut fast = bytes.as_slice();
        let mut slow = bytes.as_slice();
        let got = Vec::<u8>::decode(&mut fast);
        let expect = reference_decode(&mut slow);
        assert_eq!(got, expect, "input {bytes:02x?}");
        if got.is_ok() {
            assert_eq!(fast.len(), slow.len(), "bytes consumed, input {bytes:02x?}");
        }
    });
}

#[test]
fn hostile_byte_payloads_keep_their_verdicts() {
    let decode = |bytes: &[u8]| splitserve_codec::from_bytes::<Vec<u8>>(bytes);
    // Truncated after a high byte.
    assert_eq!(decode(&[1, 0x80]), Err(Error::UnexpectedEof));
    assert_eq!(
        decode(&[9, 1, 2, 3, 4, 5, 6, 7, 0xff]),
        Err(Error::UnexpectedEof)
    );
    // Non-canonical zero is still zero.
    assert_eq!(decode(&[1, 0x80, 0x00]), Ok(vec![0]));
    assert_eq!(decode(&[2, 0x80, 0x80, 0x00, 5]), Ok(vec![0, 5]));
    // 383 does not fit a u8.
    assert!(
        matches!(decode(&[1, 0xff, 0x02]), Err(Error::Message(m)) if m.contains("out of range"))
    );
    // A prefix the plausibility check admits (8 x remaining + 64) with
    // nowhere near enough input behind it.
    assert_eq!(decode(&[72, 1]), Err(Error::UnexpectedEof));
    assert_eq!(decode(&[73, 1]), Err(Error::LengthOverflow(73)));
}

/// Arbitrary garbage input never panics — it either decodes or errors.
#[test]
fn fuzz_decoding_never_panics() {
    check::run("fuzz_decoding_never_panics", 512, |g| {
        let bytes = g.bytes(0, 128);
        let _: Result<Vec<Record>> = splitserve_codec::from_bytes(&bytes);
        let _: Result<(String, u64, f64)> = splitserve_codec::from_bytes(&bytes);
        let _: Result<BTreeMap<u32, String>> = splitserve_codec::from_bytes(&bytes);
    });
}

//! LEB128 variable-length integers with zigzag encoding for signed values.

use crate::error::{Error, Result};

/// Appends `v` to `out` as an LEB128 varint (1–10 bytes).
pub(crate) fn write_u64(out: &mut Vec<u8>, mut v: u64) {
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

/// Appends `v` zigzag-encoded so small-magnitude negatives stay short.
pub(crate) fn write_i64(out: &mut Vec<u8>, v: i64) {
    write_u64(out, zigzag(v));
}

/// Encoded length of `v` as an LEB128 varint, without writing anything
/// (the size-hint half of [`write_u64`]).
pub(crate) fn len_u64(v: u64) -> usize {
    // 7 significant bits per byte; zero still takes one byte.
    let bits = 64 - (v | 1).leading_zeros() as usize;
    bits.div_ceil(7)
}

/// Encoded length of `v` as a zigzag varint.
pub(crate) fn len_i64(v: i64) -> usize {
    len_u64(zigzag(v))
}

/// Maps signed to unsigned preserving small magnitudes: 0,-1,1,-2 → 0,1,2,3.
pub(crate) fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
pub(crate) fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Reads an LEB128 varint from the front of `input`, advancing it.
///
/// # Errors
///
/// [`Error::UnexpectedEof`] if input ends mid-varint;
/// [`Error::VarintOverflow`] if more than 64 bits are encoded.
pub(crate) fn read_u64(input: &mut &[u8]) -> Result<u64> {
    let mut result: u64 = 0;
    let mut shift = 0u32;
    loop {
        let (&byte, rest) = input.split_first().ok_or(Error::UnexpectedEof)?;
        *input = rest;
        if shift == 63 && byte > 1 {
            return Err(Error::VarintOverflow);
        }
        result |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(result);
        }
        shift += 7;
        if shift > 63 {
            return Err(Error::VarintOverflow);
        }
    }
}

/// Appends every byte of `items` as its own LEB128 varint — byte for byte
/// what [`write_u64`] per element produces, at memory speed.
///
/// A `u8`'s varint is the byte itself, followed by `0x01` iff its high bit
/// is set. So each element is one unconditional two-byte store (`b`, `1`)
/// and the cursor advances by `1 + (b >> 7)`: when the high bit is clear
/// the next element overwrites the spare `1`. No branch depends on the
/// data.
pub(crate) fn write_u8s(out: &mut Vec<u8>, items: &[u8]) {
    // Elements scattered per round; the round's staging buffer is twice
    // that (the worst case) plus the spare byte of the last store.
    const CHUNK: usize = 64;
    out.reserve(items.len());
    let mut staged = [0u8; 2 * CHUNK + 1];
    for chunk in items.chunks(CHUNK) {
        let mut w = 0usize;
        for &b in chunk {
            // `w <= 2 * (CHUNK - 1)` here, so the mask changes nothing; it
            // is what lets the compiler see the store is in bounds.
            let at = w & (2 * CHUNK - 1);
            staged[at..at + 2].copy_from_slice(&[b, 1]);
            w += 1 + usize::from(b >> 7);
        }
        out.extend_from_slice(&staged[..w]);
    }
}

/// Total encoded length of `items` as per-element varints: one byte each,
/// plus one for every element with its high bit set.
pub(crate) fn len_u8s(items: &[u8]) -> usize {
    items.len() + items.iter().filter(|b| **b >= 0x80).count()
}

/// Reads `len` per-element `u8` varints from the front of `input` in one
/// branch-free pass, advancing it — or returns `None`, with `input`
/// untouched, when the input is anything but the canonical encoding of
/// `len` bytes (truncated, over-long, out of range). The caller then
/// decodes element by element, so what is accepted and which error is
/// reported never depends on this path.
///
/// In canonical form a byte with its high bit set is always a value byte
/// (the only continuation this type ever needs is `0x01`), so whether
/// position `j` holds a value or a continuation depends on `input[j - 1]`
/// alone: the pass copies every byte to the output cursor and advances the
/// cursor only past value bytes, OR-ing "continuation byte is not `0x01`"
/// into one flag checked at the end.
pub(crate) fn read_u8s(input: &mut &[u8], len: usize) -> Option<Vec<u8>> {
    const ONES: u64 = 0x0101_0101_0101_0101;
    let src = *input;
    // Every element takes at least one byte: never allocate for more
    // elements than the input could hold.
    if len > src.len() {
        return None;
    }
    let mut out = vec![0u8; len];
    let (mut w, mut r) = (0usize, 0usize);
    let (mut carry, mut bad) = (0u64, 0u64);
    // Eight source bytes per round, one per lane of a word. A round yields
    // at most eight values, so with eight free slots it cannot overrun.
    while out.len() - w >= 8 && src.len() - r >= 8 {
        let mut word = [0u8; 8];
        word.copy_from_slice(&src[r..r + 8]);
        let word = u64::from_le_bytes(word);
        let high = (word >> 7) & ONES;
        // Lanes holding a continuation: those after a high byte, the first
        // lane taking the previous round's last.
        let continuation = (high << 8) | carry;
        carry = high >> 56;
        bad |= (word ^ ONES) & (continuation * 0xff);
        let value = continuation ^ ONES;
        // Lane i of `upto` counts the value lanes up to and including i
        // (at most 8, so lanes never carry into each other); less the lane
        // itself, that is the slot lane i's byte belongs in.
        let upto = value.wrapping_mul(ONES);
        let slot = upto - value;
        let slots = &mut out[w..w + 8];
        for lane in 0..8 {
            slots[(slot >> (8 * lane)) as usize & 7] = (word >> (8 * lane)) as u8;
        }
        w += (upto >> 56) as usize;
        r += 8;
    }
    // The last few values, a byte at a time by the same rule.
    let mut bytes = src[r..].iter();
    let mut continuation = carry as u8;
    let mut bad = u8::from(bad != 0);
    while w < out.len() {
        let &b = bytes.next()?;
        out[w] = b;
        bad |= continuation.wrapping_neg() & (b ^ 1);
        w += usize::from(continuation ^ 1);
        continuation = b >> 7;
    }
    if continuation == 1 && bytes.next() != Some(&1) {
        return None;
    }
    if bad != 0 {
        return None;
    }
    *input = bytes.as_slice();
    Some(out)
}

/// Reads a zigzag-encoded signed varint.
///
/// # Errors
///
/// Same as [`read_u64`].
pub(crate) fn read_i64(input: &mut &[u8]) -> Result<i64> {
    read_u64(input).map(unzigzag)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_u(v: u64) -> u64 {
        let mut buf = Vec::new();
        write_u64(&mut buf, v);
        let mut s = buf.as_slice();
        let got = read_u64(&mut s).expect("roundtrip");
        assert!(s.is_empty(), "leftover bytes");
        got
    }

    #[test]
    fn u64_roundtrip_edges() {
        for v in [0, 1, 127, 128, 16_383, 16_384, u32::MAX as u64, u64::MAX] {
            assert_eq!(roundtrip_u(v), v);
        }
    }

    #[test]
    fn small_values_are_one_byte() {
        let mut buf = Vec::new();
        write_u64(&mut buf, 127);
        assert_eq!(buf.len(), 1);
    }

    #[test]
    fn len_matches_write_exactly() {
        let edges = [
            0u64,
            1,
            127,
            128,
            16_383,
            16_384,
            u32::MAX as u64,
            u64::MAX,
        ];
        for v in edges {
            let mut buf = Vec::new();
            write_u64(&mut buf, v);
            assert_eq!(len_u64(v), buf.len(), "len_u64({v})");
        }
        for v in [0i64, -1, 1, 63, -64, 64, i64::MIN, i64::MAX] {
            let mut buf = Vec::new();
            write_i64(&mut buf, v);
            assert_eq!(len_i64(v), buf.len(), "len_i64({v})");
        }
    }

    #[test]
    fn zigzag_pairs() {
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
        assert_eq!(zigzag(i64::MIN), u64::MAX);
        for v in [-5i64, 0, 5, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn i64_roundtrip() {
        for v in [0i64, -1, 1, i64::MIN, i64::MAX, -123_456_789] {
            let mut buf = Vec::new();
            write_i64(&mut buf, v);
            let mut s = buf.as_slice();
            assert_eq!(read_i64(&mut s).expect("roundtrip"), v);
        }
    }

    #[test]
    fn bulk_read_declines_without_consuming() {
        for (bytes, len) in [
            (&[0x80u8, 0x00][..], 1),    // padded zero: valid, not canonical
            (&[0xff, 0x02], 1),          // 383
            (&[1, 2, 0x80], 3),          // ends inside a varint
            (&[1, 2], 3),                // ends early
            (&[0x80, 0x80, 0x00, 4], 2), // three-byte zero
            (&[0; 16], 17),
        ] {
            let mut input = bytes;
            assert_eq!(read_u8s(&mut input, len), None, "{bytes:02x?}");
            assert_eq!(input, bytes);
        }
    }

    /// A length the input cannot back is turned down before anything is
    /// allocated for it — this request would abort the process otherwise.
    #[test]
    fn bulk_read_never_allocates_past_the_input() {
        let mut input: &[u8] = &[1, 2, 3];
        assert_eq!(read_u8s(&mut input, usize::MAX / 2), None);
        assert_eq!(input.len(), 3);
    }

    #[test]
    fn eof_mid_varint_errors() {
        let mut s: &[u8] = &[0x80];
        assert_eq!(read_u64(&mut s), Err(Error::UnexpectedEof));
    }

    #[test]
    fn overlong_varint_errors() {
        // 11 continuation bytes cannot fit in 64 bits.
        let bytes = [0xffu8; 11];
        let mut s = bytes.as_slice();
        assert_eq!(read_u64(&mut s), Err(Error::VarintOverflow));
    }
}

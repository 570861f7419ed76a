//! Shared byte buffers for shuffle blocks.
//!
//! [`Bytes`] is an immutable, cheaply-clonable view into a reference-counted
//! buffer: cloning or slicing never copies the payload, which is what lets
//! one map output fan out to many reduce-side readers without duplicating
//! memory. [`BytesMut`] is the growable writer half; [`BytesMut::freeze`]
//! turns the accumulated buffer into a [`Bytes`] with one exact-size copy.
//!
//! That copy is inherent to the representation: the shared buffer is an
//! `Arc<[u8]>`, whose bytes live in the same allocation as its reference
//! counts, so a `Vec<u8>` can only enter it by being copied — whether
//! through [`Bytes::copy_from_slice`], `Bytes::from(Vec<u8>)` or `freeze`.
//! It is the price of one allocation per block (an `Arc<Vec<u8>>` would
//! adopt the vector but add a second); what it costs on the shuffle write
//! path is measured in DESIGN.md §8.

use std::fmt;
use std::ops::{Deref, DerefMut, RangeBounds};
use std::sync::Arc;

/// An immutable, reference-counted byte buffer. Clones and slices share
/// the underlying allocation.
///
/// # Examples
///
/// ```
/// use splitserve_rt::Bytes;
///
/// let b = Bytes::from(vec![1u8, 2, 3, 4]);
/// let tail = b.slice(2..);
/// assert_eq!(&tail[..], &[3, 4]);
/// assert_eq!(b.len(), 4); // the original view is unaffected
/// ```
#[derive(Clone)]
pub struct Bytes {
    buf: Arc<[u8]>,
    start: usize,
    end: usize,
}

impl Bytes {
    /// An empty buffer (no allocation is shared, but none is needed).
    pub fn new() -> Bytes {
        Bytes::from(Vec::new())
    }

    /// Wraps a static byte string.
    pub fn from_static(bytes: &'static [u8]) -> Bytes {
        Bytes::from(bytes.to_vec())
    }

    /// Copies `bytes` into a fresh shared buffer.
    ///
    /// This is a single copy straight into the shared allocation, and the
    /// result holds exactly `bytes.len()` bytes — snapshotting a pooled
    /// scratch buffer through here never pins its spare capacity.
    pub fn copy_from_slice(bytes: &[u8]) -> Bytes {
        let end = bytes.len();
        Bytes {
            buf: Arc::from(bytes),
            start: 0,
            end,
        }
    }

    /// Number of bytes in this view.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// `true` if the view is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// A sub-view sharing the same allocation.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds or inverted.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        use std::ops::Bound;
        let lo = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let hi = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => self.len(),
        };
        assert!(
            lo <= hi && hi <= self.len(),
            "slice {lo}..{hi} out of bounds for {} bytes",
            self.len()
        );
        Bytes {
            buf: Arc::clone(&self.buf),
            start: self.start + lo,
            end: self.start + hi,
        }
    }

    /// Copies this view into an owned vector.
    pub fn to_vec(&self) -> Vec<u8> {
        self[..].to_vec()
    }
}

impl Default for Bytes {
    fn default() -> Bytes {
        Bytes::new()
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.buf[self.start..self.end]
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl From<Vec<u8>> for Bytes {
    /// Copies `v`'s contents into a fresh shared buffer of exactly
    /// `v.len()` bytes and frees `v` (spare capacity included).
    fn from(v: Vec<u8>) -> Bytes {
        let end = v.len();
        Bytes {
            buf: v.into(),
            start: 0,
            end,
        }
    }
}

impl From<&[u8]> for Bytes {
    fn from(v: &[u8]) -> Bytes {
        Bytes::copy_from_slice(v)
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        self[..] == other[..]
    }
}
impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        &self[..] == other
    }
}

impl std::hash::Hash for Bytes {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self[..].hash(state)
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Bytes({} bytes)", self.len())
    }
}

/// A growable byte buffer: the writer half of [`Bytes`].
///
/// # Examples
///
/// ```
/// use splitserve_rt::BytesMut;
///
/// let mut w = BytesMut::with_capacity(16);
/// w.put_slice(b"shuffle");
/// w.put_u8(b'!');
/// let frozen = w.freeze();
/// assert_eq!(&frozen[..], b"shuffle!");
/// ```
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct BytesMut {
    vec: Vec<u8>,
}

impl BytesMut {
    /// An empty writer.
    pub fn new() -> BytesMut {
        BytesMut { vec: Vec::new() }
    }

    /// An empty writer with `cap` bytes pre-allocated.
    pub fn with_capacity(cap: usize) -> BytesMut {
        BytesMut {
            vec: Vec::with_capacity(cap),
        }
    }

    /// Appends a slice.
    pub fn put_slice(&mut self, bytes: &[u8]) {
        self.vec.extend_from_slice(bytes);
    }

    /// Reserves room for at least `additional` more bytes, so a caller
    /// with a size hint pays one allocation instead of doubling growth.
    pub fn reserve(&mut self, additional: usize) {
        self.vec.reserve(additional);
    }

    /// Clears the contents, keeping the allocation for reuse.
    pub fn clear(&mut self) {
        self.vec.clear();
    }

    /// Bytes the writer can hold without reallocating.
    pub fn capacity(&self) -> usize {
        self.vec.capacity()
    }

    /// Unwraps the underlying vector (e.g. to return it to
    /// [`crate::pool`]).
    pub fn into_vec(self) -> Vec<u8> {
        self.vec
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, b: u8) {
        self.vec.push(b);
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.vec.len()
    }

    /// `true` if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.vec.is_empty()
    }

    /// Converts the accumulated buffer into an immutable [`Bytes`]: one
    /// copy into a shared buffer of exactly [`len`](BytesMut::len) bytes,
    /// after which the writer's allocation is freed.
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.vec)
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.vec
    }
}

impl DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.vec
    }
}

impl From<Vec<u8>> for BytesMut {
    fn from(vec: Vec<u8>) -> BytesMut {
        BytesMut { vec }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clone_shares_allocation() {
        let a = Bytes::from(vec![9u8; 1024]);
        let b = a.clone();
        assert_eq!(a, b);
        assert!(std::ptr::eq(a.as_ref().as_ptr(), b.as_ref().as_ptr()));
    }

    #[test]
    fn slices_alias_and_nest() {
        let a = Bytes::from((0u8..32).collect::<Vec<_>>());
        let mid = a.slice(8..24);
        let inner = mid.slice(4..8);
        assert_eq!(&inner[..], &[12, 13, 14, 15]);
        assert!(std::ptr::eq(a.as_ref()[12..].as_ptr(), inner.as_ref().as_ptr()));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_slice_panics() {
        Bytes::from(vec![0u8; 4]).slice(2..9);
    }

    /// Pins what the docs say: freezing copies. The frozen view never
    /// aliases the writer's buffer, and holds none of its spare capacity.
    #[test]
    fn freeze_copies_into_an_exact_size_buffer() {
        let mut w = BytesMut::with_capacity(4096);
        w.put_slice(b"block");
        let source = w.as_ptr();
        let frozen = w.freeze();
        assert_eq!(&frozen[..], b"block");
        assert!(!std::ptr::eq(frozen.as_ptr(), source));
        assert_eq!(frozen.buf.len(), 5);

        let v = vec![7u8; 64];
        let source = v.as_ptr();
        assert!(!std::ptr::eq(Bytes::from(v).as_ptr(), source));
    }

    #[test]
    fn freeze_preserves_contents() {
        let mut w = BytesMut::new();
        w.put_slice(b"abc");
        w.put_u8(b'd');
        assert_eq!(w.len(), 4);
        assert_eq!(&w.freeze()[..], b"abcd");
    }
}

//! Shared byte buffers for shuffle blocks.
//!
//! [`Bytes`] is an immutable, cheaply-clonable view into a reference-counted
//! buffer: cloning or slicing never copies the payload, which is what lets
//! one map output fan out to many reduce-side readers without duplicating
//! memory. A writer's `Vec<u8>` becomes a [`Bytes`] with one exact-size
//! copy.
//!
//! That copy is inherent to the representation: the shared buffer is an
//! `Arc<[u8]>`, whose bytes live in the same allocation as its reference
//! counts, so a `Vec<u8>` can only enter it by being copied — whether
//! through [`Bytes::copy_from_slice`] or `Bytes::from(Vec<u8>)`.
//! It is the price of one allocation per block (an `Arc<Vec<u8>>` would
//! adopt the vector but add a second); what it costs on the shuffle write
//! path is measured in DESIGN.md §8.

use std::fmt;
use std::ops::{Deref, RangeBounds};
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

    /// Pins what the docs say: a vector enters by copy. The shared view
    /// never aliases the writer's buffer, and holds none of its spare
    /// capacity.
    #[test]
    fn from_vec_copies_into_an_exact_size_buffer() {
        let mut w = Vec::with_capacity(4096);
        w.extend_from_slice(b"block");
        let source = w.as_ptr();
        let shared = Bytes::from(w);
        assert_eq!(&shared[..], b"block");
        assert!(!std::ptr::eq(shared.as_ptr(), source));
        assert_eq!(shared.buf.len(), 5);
    }
}

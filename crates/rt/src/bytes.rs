//! Shared byte buffers for shuffle blocks.
//!
//! [`Bytes`] is an immutable, cheaply-clonable view into a reference-counted
//! buffer: cloning or slicing never copies the payload, which is what lets
//! one map output fan out to many reduce-side readers without duplicating
//! memory. A writer's `Vec<u8>` becomes a [`Bytes`] with one exact-size
//! copy, and several writers' vectors become one with [`Bytes::concat`]:
//! a map task freezes its small buckets into one buffer and hands each
//! reduce partition a slice of it.
//!
//! That copy is inherent to the representation: the shared buffer is an
//! `Arc<[u8]>`, whose bytes live in the same allocation as its reference
//! counts, so a `Vec<u8>` can only enter it by being copied — whether
//! through [`Bytes::copy_from_slice`], `Bytes::from(Vec<u8>)` or
//! [`Bytes::concat`]. It is the price of one allocation per buffer (an
//! `Arc<Vec<u8>>` would adopt the vector but add a second); what it costs
//! on the shuffle write path is measured in DESIGN.md §8. An empty
//! [`Bytes`] allocates nothing.

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
    /// An empty buffer. Allocates nothing: every empty `Arc<[u8]>` shares
    /// one static allocation.
    pub fn new() -> Bytes {
        Bytes {
            buf: Arc::default(),
            start: 0,
            end: 0,
        }
    }

    /// Wraps a static byte string.
    ///
    /// Test aid: only tests call this.
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

    /// Copies `parts` back to back into one fresh shared buffer of
    /// exactly their total length: one allocation however many parts
    /// there are, and none when they are all empty. Several parts cost a
    /// zero fill of the buffer before the copy; one part costs the copy
    /// alone.
    ///
    /// # Examples
    ///
    /// ```
    /// use splitserve_rt::Bytes;
    ///
    /// let joined = Bytes::concat(&[b"ab".to_vec(), Vec::new(), b"c".to_vec()]);
    /// assert_eq!(&joined[..], b"abc");
    /// ```
    pub fn concat<P: AsRef<[u8]>>(parts: &[P]) -> Bytes {
        let end = parts.iter().map(|p| p.as_ref().len()).sum();
        match parts {
            _ if end == 0 => return Bytes::new(),
            [one] => return Bytes::copy_from_slice(one.as_ref()),
            _ => {}
        }
        // `repeat_n` reports its exact length, so the collect allocates
        // the shared buffer once; it is still unshared, so `make_mut`
        // hands it back without cloning.
        let mut buf: Arc<[u8]> = std::iter::repeat_n(0, end).collect();
        let mut rest = Arc::make_mut(&mut buf);
        for part in parts {
            let (head, tail) = std::mem::take(&mut rest).split_at_mut(part.as_ref().len());
            head.copy_from_slice(part.as_ref());
            rest = tail;
        }
        Bytes { buf, start: 0, end }
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

    #[test]
    fn concat_lays_parts_back_to_back_in_one_exact_buffer() {
        let parts = [b"map".to_vec(), Vec::new(), b"side".to_vec()];
        let joined = Bytes::concat(&parts);
        assert_eq!(&joined[..], b"mapside");
        assert_eq!(joined.buf.len(), 7, "no spare bytes");
        assert!(Bytes::concat::<Vec<u8>>(&[Vec::new(), Vec::new()]).is_empty());
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

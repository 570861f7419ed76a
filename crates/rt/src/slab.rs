//! A slot table: values parked under small dense indices.
//!
//! The simulator's event payloads, in-flight flows, admitted store
//! requests and launched task bodies all wait for an event that names
//! them by a `u64` token. Parking each in a [`Slab`] makes that token a
//! plain index — no hashing to find it, no allocation to hold it once the
//! table has grown to the run's high-water mark — and a vacated slot is
//! handed to the next arrival.

/// Values under `u32` slots; a slot vacated by [`Slab::take`] is reused by
/// a later [`Slab::insert`] (most recently vacated first).
///
/// # Examples
///
/// ```
/// use splitserve_rt::Slab;
///
/// let mut parked = Slab::default();
/// let a = parked.insert("a");
/// let b = parked.insert("b");
/// assert_eq!(parked.take(a), Some("a"));
/// assert_eq!(parked.take(a), None); // vacated
/// assert_eq!(parked.insert("c"), a); // the slot is reused
/// assert_eq!((parked.get(b), parked.len()), (Some(&"b"), 2));
/// ```
#[derive(Debug)]
pub struct Slab<T> {
    slots: Vec<Option<T>>,
    free: Vec<u32>,
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Slab {
            slots: Vec::new(),
            free: Vec::new(),
        }
    }
}

impl<T> Slab<T> {
    /// Parks `value`, returning its slot.
    ///
    /// # Panics
    ///
    /// Panics if more than `u32::MAX` values are parked at once.
    #[inline]
    pub fn insert(&mut self, value: T) -> u32 {
        match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = Some(value);
                slot
            }
            None => {
                let slot = u32::try_from(self.slots.len()).expect("slab overflow");
                self.slots.push(Some(value));
                slot
            }
        }
    }

    /// Removes and returns the value in `slot`, vacating it; `None` if the
    /// slot is vacant or was never handed out.
    #[inline]
    pub fn take(&mut self, slot: u32) -> Option<T> {
        let value = self.slots.get_mut(slot as usize)?.take()?;
        self.free.push(slot);
        Some(value)
    }

    /// The value in `slot`, if occupied.
    #[inline]
    pub fn get(&self, slot: u32) -> Option<&T> {
        self.slots.get(slot as usize)?.as_ref()
    }

    /// The value in `slot`, if occupied.
    #[inline]
    pub fn get_mut(&mut self, slot: u32) -> Option<&mut T> {
        self.slots.get_mut(slot as usize)?.as_mut()
    }

    /// Every parked value, in slot order.
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut T> {
        self.slots.iter_mut().flatten()
    }

    /// Number of occupied slots.
    pub fn len(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// `true` when nothing is parked.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Slots ever created, occupied or vacant: the table's high-water mark.
    pub fn slots(&self) -> usize {
        self.slots.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_are_reused_and_vacant_ones_answer_none() {
        let mut slab = Slab::default();
        assert!(slab.is_empty() && slab.take(0).is_none() && slab.get(3).is_none());
        let slots: Vec<u32> = (0..4).map(|i| slab.insert(i * 10)).collect();
        assert_eq!(slots, [0, 1, 2, 3]);
        assert_eq!(slab.take(1), Some(10));
        assert_eq!(slab.take(2), Some(20));
        assert_eq!((slab.take(1), slab.get(1)), (None, None));
        assert!(slab.get_mut(2).is_none());
        assert_eq!(slab.len(), 2);
        // Most recently vacated first.
        assert_eq!((slab.insert(5), slab.insert(6), slab.insert(7)), (2, 1, 4));
        *slab.get_mut(1).expect("occupied") += 1;
        assert_eq!(slab.get(1), Some(&7));
        assert_eq!((slab.len(), slab.slots()), (5, 5));
        slab.take(3);
        slab.values_mut().for_each(|v| *v += 100);
        assert_eq!(
            slab.values_mut().map(|v| *v).collect::<Vec<_>>(),
            [100, 107, 105, 107]
        );
    }
}

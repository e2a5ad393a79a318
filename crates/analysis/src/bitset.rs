//! A dense, fixed-capacity bit set used as the domain of most dataflow
//! analyses (one bit per [`rstudy_mir::Local`] or block).

use std::fmt;

/// A fixed-size set of small indices backed by `u64` words.
#[derive(PartialEq, Eq, Hash)]
pub struct BitSet {
    words: Vec<u64>,
    capacity: usize,
}

impl Clone for BitSet {
    fn clone(&self) -> BitSet {
        BitSet {
            words: self.words.clone(),
            capacity: self.capacity,
        }
    }

    /// Copies `source` into this set's words, reusing their allocation (the
    /// derived `clone_from` would allocate a fresh copy).
    fn clone_from(&mut self, source: &BitSet) {
        self.words.clone_from(&source.words);
        self.capacity = source.capacity;
    }
}

impl BitSet {
    /// An empty set able to hold indices `0..capacity`.
    pub fn new(capacity: usize) -> BitSet {
        BitSet {
            words: vec![0; capacity.div_ceil(64)],
            capacity,
        }
    }

    /// A set containing every index in `0..capacity`.
    pub fn full(capacity: usize) -> BitSet {
        let mut s = BitSet::new(capacity);
        for i in 0..capacity {
            s.insert(i);
        }
        s
    }

    /// The maximum number of elements this set can hold.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Inserts `i`, returning `true` if it was newly added.
    ///
    /// # Panics
    ///
    /// Panics if `i >= capacity`.
    pub fn insert(&mut self, i: usize) -> bool {
        assert!(
            i < self.capacity,
            "index {i} out of capacity {}",
            self.capacity
        );
        let (w, b) = (i / 64, i % 64);
        let old = self.words[w];
        self.words[w] |= 1 << b;
        self.words[w] != old
    }

    /// Removes `i`, returning `true` if it was present.
    pub fn remove(&mut self, i: usize) -> bool {
        if i >= self.capacity {
            return false;
        }
        let (w, b) = (i / 64, i % 64);
        let old = self.words[w];
        self.words[w] &= !(1 << b);
        self.words[w] != old
    }

    /// Returns `true` if `i` is in the set.
    pub fn contains(&self, i: usize) -> bool {
        if i >= self.capacity {
            return false;
        }
        let (w, b) = (i / 64, i % 64);
        (self.words[w] >> b) & 1 == 1
    }

    /// Unions `other` into `self`, returning `true` if `self` changed.
    ///
    /// # Panics
    ///
    /// Panics if capacities differ.
    pub fn union_with(&mut self, other: &BitSet) -> bool {
        assert_eq!(self.capacity, other.capacity, "capacity mismatch");
        let mut changed = false;
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            let old = *a;
            *a |= b;
            changed |= *a != old;
        }
        changed
    }

    /// Intersects `other` into `self`, returning `true` if `self` changed.
    ///
    /// # Panics
    ///
    /// Panics if capacities differ.
    pub fn intersect_with(&mut self, other: &BitSet) -> bool {
        assert_eq!(self.capacity, other.capacity, "capacity mismatch");
        let mut changed = false;
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            let old = *a;
            *a &= b;
            changed |= *a != old;
        }
        changed
    }

    /// Removes every element of `other` from `self`.
    pub fn subtract(&mut self, other: &BitSet) {
        assert_eq!(self.capacity, other.capacity, "capacity mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= !b;
        }
    }

    /// Removes all elements.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Number of elements present.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Returns `true` if no element is present.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Iterates over the present indices in ascending order, one word at a
    /// time: the cost is the number of words plus the number of elements.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(w, &word)| {
            let mut rest = word;
            std::iter::from_fn(move || {
                let bit = rest.trailing_zeros() as usize;
                rest &= rest.wrapping_sub(1);
                (bit < 64).then_some(64 * w + bit)
            })
        })
    }
}

impl fmt::Debug for BitSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove() {
        let mut s = BitSet::new(130);
        assert!(s.insert(0));
        assert!(s.insert(64));
        assert!(s.insert(129));
        assert!(!s.insert(64), "double insert reports no change");
        assert!(s.contains(0) && s.contains(64) && s.contains(129));
        assert!(!s.contains(1));
        assert!(s.remove(64));
        assert!(!s.remove(64));
        assert!(!s.contains(64));
        assert_eq!(s.count(), 2);
    }

    #[test]
    fn union_reports_change() {
        let mut a = BitSet::new(10);
        let mut b = BitSet::new(10);
        b.insert(3);
        b.insert(7);
        assert!(a.union_with(&b));
        assert!(!a.union_with(&b), "second union is a no-op");
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![3, 7]);
    }

    #[test]
    fn intersect_and_subtract() {
        let mut a = BitSet::full(8);
        let mut b = BitSet::new(8);
        b.insert(1);
        b.insert(2);
        assert!(a.intersect_with(&b));
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![1, 2]);
        a.subtract(&b);
        assert!(a.is_empty());
    }

    #[test]
    fn full_and_clear() {
        let mut s = BitSet::full(70);
        assert_eq!(s.count(), 70);
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.capacity(), 70);
    }

    #[test]
    #[should_panic(expected = "out of capacity")]
    fn insert_out_of_range_panics() {
        BitSet::new(4).insert(4);
    }

    #[test]
    fn contains_out_of_range_is_false() {
        let s = BitSet::new(4);
        assert!(!s.contains(100));
    }

    #[test]
    fn iter_walks_each_word_in_ascending_order() {
        let members = [0, 1, 63, 64, 65, 127, 128, 191, 199];
        let mut s = BitSet::new(200);
        members.iter().for_each(|&i| assert!(s.insert(i)));
        assert_eq!(s.iter().collect::<Vec<_>>(), members);
        let mut copy = BitSet::new(8);
        copy.clone_from(&s);
        assert_eq!(copy, s);
        assert!(BitSet::new(130).iter().next().is_none());
    }

    #[test]
    fn debug_formats_as_set() {
        let mut s = BitSet::new(8);
        s.insert(2);
        s.insert(5);
        assert_eq!(format!("{s:?}"), "{2, 5}");
    }
}

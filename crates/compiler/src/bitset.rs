//! Fixed-width bitmask used to encode dependency closures (Alg. 1 of the
//! paper applies "a state compression optimization that encodes all the
//! dependency closures in the DAG as bitmasks").

use std::fmt;

/// A 256-bit set over condensed-graph operator indices.
///
/// 256 bits comfortably cover the largest benchmark (EfficientNetB0
/// condenses to fewer than 100 MVM groups) while keeping subset tests a
/// handful of word operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct BitMask256 {
    words: [u64; 4],
}

impl BitMask256 {
    /// Number of representable elements.
    pub const CAPACITY: usize = 256;

    /// The empty set.
    pub fn empty() -> Self {
        Self::default()
    }

    /// The set containing `0..len`.
    ///
    /// # Panics
    ///
    /// Panics if `len` exceeds [`Self::CAPACITY`].
    pub fn full(len: usize) -> Self {
        assert!(len <= Self::CAPACITY, "bitmask capacity exceeded");
        let mut mask = Self::empty();
        for i in 0..len {
            mask.insert(i);
        }
        mask
    }

    /// Inserts an element.
    ///
    /// # Panics
    ///
    /// Panics if `index` is not below [`Self::CAPACITY`].
    pub fn insert(&mut self, index: usize) {
        assert!(index < Self::CAPACITY, "bitmask capacity exceeded");
        self.words[index / 64] |= 1u64 << (index % 64);
    }

    /// Removes an element.
    pub fn remove(&mut self, index: usize) {
        if index < Self::CAPACITY {
            self.words[index / 64] &= !(1u64 << (index % 64));
        }
    }

    /// Whether the element is present.
    pub fn contains(&self, index: usize) -> bool {
        index < Self::CAPACITY && self.words[index / 64] & (1u64 << (index % 64)) != 0
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|w| *w == 0)
    }

    /// Number of elements in the set.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether `self` is a subset of `other` (the Alg. 1 transition test
    /// `D[i] & D[j] == D[j]`).
    pub fn is_subset_of(&self, other: &Self) -> bool {
        self.words.iter().zip(&other.words).all(|(a, b)| a & b == *a)
    }

    /// Set union.
    pub fn union(&self, other: &Self) -> Self {
        let mut out = *self;
        for (w, o) in out.words.iter_mut().zip(&other.words) {
            *w |= o;
        }
        out
    }

    /// Set intersection.
    pub fn intersection(&self, other: &Self) -> Self {
        let mut out = *self;
        for (w, o) in out.words.iter_mut().zip(&other.words) {
            *w &= o;
        }
        out
    }

    /// Set difference (`self \ other`) — the paper's "extract the set
    /// difference of dependencies as a partition" step.
    pub fn difference(&self, other: &Self) -> Self {
        let mut out = *self;
        for (w, o) in out.words.iter_mut().zip(&other.words) {
            *w &= !o;
        }
        out
    }

    /// Iterates over the contained indices in increasing order, one set
    /// bit at a time.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(w, &word)| {
            let mut rest = word;
            std::iter::from_fn(move || {
                (rest != 0).then(|| {
                    let bit = rest.trailing_zeros() as usize;
                    rest &= rest - 1;
                    w * 64 + bit
                })
            })
        })
    }
}

impl fmt::Display for BitMask256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (n, i) in self.iter().enumerate() {
            if n > 0 {
                write!(f, ",")?;
            }
            write!(f, "{i}")?;
        }
        write!(f, "}}")
    }
}

impl FromIterator<usize> for BitMask256 {
    fn from_iter<T: IntoIterator<Item = usize>>(iter: T) -> Self {
        let mut mask = Self::empty();
        for i in iter {
            mask.insert(i);
        }
        mask
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_contains() {
        let mut m = BitMask256::empty();
        assert!(m.is_empty());
        m.insert(0);
        m.insert(63);
        m.insert(64);
        m.insert(255);
        assert_eq!(m.len(), 4);
        assert!(m.contains(63) && m.contains(64) && m.contains(255));
        assert!(!m.contains(100));
        m.remove(64);
        assert!(!m.contains(64));
        assert_eq!(m.len(), 3);
    }

    #[test]
    fn subset_union_difference() {
        let a: BitMask256 = [1, 2, 3].into_iter().collect();
        let b: BitMask256 = [1, 2, 3, 70, 80].into_iter().collect();
        assert!(a.is_subset_of(&b));
        assert!(!b.is_subset_of(&a));
        assert_eq!(b.difference(&a), [70, 80].into_iter().collect());
        assert_eq!(a.union(&b), b);
        assert_eq!(a.intersection(&b), a);
        assert!(BitMask256::empty().is_subset_of(&a));
    }

    #[test]
    fn full_and_iter_are_consistent() {
        let m = BitMask256::full(100);
        assert_eq!(m.len(), 100);
        let collected: Vec<usize> = m.iter().collect();
        assert_eq!(collected.len(), 100);
        assert_eq!(collected[0], 0);
        assert_eq!(collected[99], 99);
    }

    #[test]
    fn display_lists_members() {
        let m: BitMask256 = [3, 65].into_iter().collect();
        assert_eq!(m.to_string(), "{3,65}");
    }

    #[test]
    #[should_panic(expected = "capacity exceeded")]
    fn oversized_insert_panics() {
        let mut m = BitMask256::empty();
        m.insert(256);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn union_difference_partition(xs in prop::collection::btree_set(0usize..256, 0..60),
                                          ys in prop::collection::btree_set(0usize..256, 0..60)) {
                let a: BitMask256 = xs.iter().copied().collect();
                let b: BitMask256 = ys.iter().copied().collect();
                let diff = a.difference(&b);
                let inter = a.intersection(&b);
                // difference and intersection partition a.
                prop_assert_eq!(diff.union(&inter), a);
                prop_assert!(diff.intersection(&b).is_empty());
                prop_assert_eq!(a.len(), diff.len() + inter.len());
                // subset relation agrees with set semantics.
                prop_assert_eq!(a.is_subset_of(&b), xs.is_subset(&ys));
            }

            #[test]
            fn iter_yields_the_members_in_increasing_order(
                xs in prop::collection::btree_set(0usize..256, 0..80)
            ) {
                let mask: BitMask256 = xs.iter().copied().collect();
                let members: Vec<usize> = mask.iter().collect();
                prop_assert_eq!(members, xs.into_iter().collect::<Vec<_>>());
            }
        }
    }
}

//! A dense, fixed-capacity bit set used as the lattice element of the
//! dataflow analyses, and the one CFG reachability walk
//! ([`BitSet::reach`]) the analyses and passes share.

use simt_ir::BlockId;
use std::fmt;

/// A fixed-capacity set of small integers backed by `u64` words.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BitSet {
    words: Vec<u64>,
    capacity: usize,
}

impl BitSet {
    /// Creates an empty set able to hold elements `0..capacity`.
    pub fn new(capacity: usize) -> Self {
        Self { words: vec![0; capacity.div_ceil(64)], capacity }
    }

    /// Creates a set containing every element in `0..capacity`.
    pub fn full(capacity: usize) -> Self {
        let mut s = Self::new(capacity);
        for i in 0..capacity {
            s.insert(i);
        }
        s
    }

    /// The capacity this set was created with.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Inserts an element. Returns whether the set changed.
    ///
    /// # Panics
    ///
    /// Panics if `i >= capacity`.
    pub fn insert(&mut self, i: usize) -> bool {
        assert!(i < self.capacity, "bitset index {i} out of capacity {}", self.capacity);
        let (w, b) = (i / 64, i % 64);
        let old = self.words[w];
        self.words[w] |= 1 << b;
        self.words[w] != old
    }

    /// Removes an element. Returns whether the set changed.
    pub fn remove(&mut self, i: usize) -> bool {
        if i >= self.capacity {
            return false;
        }
        let (w, b) = (i / 64, i % 64);
        let old = self.words[w];
        self.words[w] &= !(1 << b);
        self.words[w] != old
    }

    /// Membership test.
    pub fn contains(&self, i: usize) -> bool {
        if i >= self.capacity {
            return false;
        }
        let (w, b) = (i / 64, i % 64);
        self.words[w] & (1 << b) != 0
    }

    /// Removes all elements.
    pub fn clear(&mut self) {
        self.words.iter_mut().for_each(|w| *w = 0);
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// In-place union. Returns whether the set changed.
    ///
    /// # Panics
    ///
    /// Panics if the capacities differ.
    pub fn union_with(&mut self, other: &BitSet) -> bool {
        assert_eq!(self.capacity, other.capacity, "bitset capacity mismatch");
        let mut changed = false;
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            let old = *a;
            *a |= b;
            changed |= *a != old;
        }
        changed
    }

    /// In-place intersection. Returns whether the set changed.
    ///
    /// # Panics
    ///
    /// Panics if the capacities differ.
    pub fn intersect_with(&mut self, other: &BitSet) -> bool {
        assert_eq!(self.capacity, other.capacity, "bitset capacity mismatch");
        let mut changed = false;
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            let old = *a;
            *a &= b;
            changed |= *a != old;
        }
        changed
    }

    /// In-place difference (`self - other`). Returns whether the set
    /// changed.
    ///
    /// # Panics
    ///
    /// Panics if the capacities differ.
    pub fn subtract(&mut self, other: &BitSet) -> bool {
        assert_eq!(self.capacity, other.capacity, "bitset capacity mismatch");
        let mut changed = false;
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            let old = *a;
            *a &= !b;
            changed |= *a != old;
        }
        changed
    }

    /// Whether `self` is a subset of `other`.
    pub fn is_subset(&self, other: &BitSet) -> bool {
        assert_eq!(self.capacity, other.capacity, "bitset capacity mismatch");
        self.words.iter().zip(&other.words).all(|(a, b)| a & !b == 0)
    }

    /// Whether `self` and `other` share any element.
    pub fn intersects(&self, other: &BitSet) -> bool {
        assert_eq!(self.capacity, other.capacity, "bitset capacity mismatch");
        self.words.iter().zip(&other.words).any(|(a, b)| a & b != 0)
    }

    /// The blocks reachable from `seeds` along `next` (a block's
    /// successors, or its predecessors for a backward walk) without
    /// entering a block `keep` rejects. Seeds are members unless `keep`
    /// rejects them; `capacity` is the function's block count. Every
    /// CFG reachability question of the passes goes through this one
    /// walk.
    pub fn reach<E: IntoIterator<Item = BlockId>>(
        capacity: usize,
        seeds: impl IntoIterator<Item = BlockId>,
        mut next: impl FnMut(BlockId) -> E,
        mut keep: impl FnMut(BlockId) -> bool,
    ) -> BitSet {
        let mut seen = BitSet::new(capacity);
        let mut stack: Vec<BlockId> = seeds.into_iter().collect();
        while let Some(b) = stack.pop() {
            if !seen.contains(b.index()) && keep(b) {
                seen.insert(b.index());
                stack.extend(next(b));
            }
        }
        seen
    }

    /// Iterates over elements in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            (0..64).filter_map(move |b| if w & (1 << b) != 0 { Some(wi * 64 + b) } else { None })
        })
    }
}

impl fmt::Debug for BitSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl FromIterator<usize> for BitSet {
    /// Collects elements into a set sized to the maximum element + 1.
    fn from_iter<T: IntoIterator<Item = usize>>(iter: T) -> Self {
        let items: Vec<usize> = iter.into_iter().collect();
        let cap = items.iter().copied().max().map_or(0, |m| m + 1);
        let mut s = BitSet::new(cap);
        for i in items {
            s.insert(i);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_contains() {
        let mut s = BitSet::new(130);
        assert!(s.insert(0));
        assert!(s.insert(129));
        assert!(!s.insert(129));
        assert!(s.contains(0));
        assert!(s.contains(129));
        assert!(!s.contains(64));
        assert_eq!(s.len(), 2);
        assert!(s.remove(0));
        assert!(!s.remove(0));
        assert!(!s.contains(0));
    }

    #[test]
    fn set_algebra() {
        let mut a = BitSet::new(10);
        a.insert(1);
        a.insert(3);
        let mut b = BitSet::new(10);
        b.insert(3);
        b.insert(5);

        let mut u = a.clone();
        assert!(u.union_with(&b));
        assert_eq!(u.iter().collect::<Vec<_>>(), vec![1, 3, 5]);

        let mut i = a.clone();
        assert!(i.intersect_with(&b));
        assert_eq!(i.iter().collect::<Vec<_>>(), vec![3]);

        let mut d = a.clone();
        assert!(d.subtract(&b));
        assert_eq!(d.iter().collect::<Vec<_>>(), vec![1]);

        assert!(i.is_subset(&a));
        assert!(!a.is_subset(&b));
        assert!(a.intersects(&b));
    }

    #[test]
    fn full_and_clear() {
        let mut s = BitSet::full(70);
        assert_eq!(s.len(), 70);
        s.clear();
        assert!(s.is_empty());
    }

    #[test]
    fn from_iterator_sizes_to_max() {
        let s: BitSet = [2usize, 7, 4].into_iter().collect();
        assert_eq!(s.capacity(), 8);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![2, 4, 7]);
    }

    #[test]
    fn reach_walks_either_direction_and_never_enters_a_rejected_block() {
        // 0 -> 1 -> 2 -> 1, 2 -> 3, and 4 -> 3 off to the side.
        let succs = [vec![1], vec![2], vec![1, 3], vec![], vec![3]];
        let mut preds = vec![Vec::new(); succs.len()];
        for (b, ss) in succs.iter().enumerate() {
            for &s in ss {
                preds[s].push(BlockId::new(b));
            }
        }
        let next = |b: BlockId| succs[b.index()].iter().map(|&s| BlockId::new(s));
        let ids = |s: BitSet| s.iter().collect::<Vec<_>>();
        assert_eq!(ids(BitSet::reach(5, [BlockId(0)], next, |_| true)), [0, 1, 2, 3]);
        let back = |b: BlockId| preds[b.index()].clone();
        assert_eq!(ids(BitSet::reach(5, [BlockId(3)], back, |_| true)), [0, 1, 2, 3, 4]);
        // A rejected block is neither a member nor walked through, even
        // as a seed.
        let not_2 = |b: BlockId| b != BlockId(2);
        assert_eq!(ids(BitSet::reach(5, [BlockId(0)], next, not_2)), [0, 1]);
        assert_eq!(ids(BitSet::reach(5, [BlockId(3)], back, not_2)), [3, 4]);
        assert!(BitSet::reach(5, [BlockId(2)], next, not_2).is_empty());
    }

    #[test]
    #[should_panic(expected = "out of capacity")]
    fn insert_out_of_capacity_panics() {
        BitSet::new(4).insert(4);
    }
}

//! Selection of NoC planes participating in an operation.
//!
//! Each neuron of a core owns one plane of the PS NoC and one plane of the
//! spike NoC. In hardware every plane has its own configuration memory, so
//! different planes of the same tile can execute different operations in
//! the same cycle (the conv mapping of Fig. 4 relies on this: only boundary
//! neurons exchange partial sums). [`PlaneSet`] is the software rendering
//! of "which per-plane config memories hold this op at this cycle".

use serde::{Deserialize, Serialize};

/// A set of NoC plane indices (equivalently, neuron indices within a core).
///
/// ```
/// use shenjing_hw::PlaneSet;
/// let all = PlaneSet::all();
/// assert!(all.contains(255));
///
/// let some = PlaneSet::from_indices([1u16, 3, 5]);
/// assert!(some.contains(3));
/// assert!(!some.contains(2));
/// assert_eq!(some.len(), 3);
/// assert!(some.intersects(&PlaneSet::from_indices([5u16])));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PlaneSet {
    /// Every plane of the tile.
    All,
    /// An explicit bitmask of planes; word `i` holds planes `64*i..64*i+64`.
    Mask(Vec<u64>),
}

impl PlaneSet {
    /// The set containing every plane.
    pub fn all() -> PlaneSet {
        PlaneSet::All
    }

    /// The empty set.
    pub fn empty() -> PlaneSet {
        PlaneSet::Mask(Vec::new())
    }

    /// A set with exactly the planes in `indices`.
    pub fn from_indices<I, T>(indices: I) -> PlaneSet
    where
        I: IntoIterator<Item = T>,
        T: Into<u16>,
    {
        let mut words: Vec<u64> = Vec::new();
        for idx in indices {
            let idx = idx.into() as usize;
            let word = idx / 64;
            if words.len() <= word {
                words.resize(word + 1, 0);
            }
            words[word] |= 1u64 << (idx % 64);
        }
        PlaneSet::Mask(words)
    }

    /// A set with the contiguous planes `range`.
    pub fn from_range(range: std::ops::Range<u16>) -> PlaneSet {
        PlaneSet::from_indices(range)
    }

    /// Whether plane `idx` is in the set.
    pub fn contains(&self, idx: u16) -> bool {
        match self {
            PlaneSet::All => true,
            PlaneSet::Mask(words) => {
                let word = idx as usize / 64;
                words.get(word).map(|w| w & (1u64 << (idx as usize % 64)) != 0).unwrap_or(false)
            }
        }
    }

    /// Number of planes selected, given that the tile has `total` planes.
    pub fn count(&self, total: u16) -> usize {
        match self {
            PlaneSet::All => total as usize,
            PlaneSet::Mask(words) => words.iter().map(|w| w.count_ones() as usize).sum(),
        }
    }

    /// Number of planes in an explicit mask.
    ///
    /// For [`PlaneSet::All`] the size depends on the tile; use
    /// [`count`](PlaneSet::count) there. This method treats `All` as
    /// unbounded and panics to catch misuse.
    ///
    /// # Panics
    ///
    /// Panics when called on [`PlaneSet::All`].
    pub fn len(&self) -> usize {
        match self {
            PlaneSet::All => panic!("PlaneSet::All has no intrinsic length; use count(total)"),
            PlaneSet::Mask(words) => words.iter().map(|w| w.count_ones() as usize).sum(),
        }
    }

    /// Whether the set selects no planes at all.
    pub fn is_empty(&self) -> bool {
        match self {
            PlaneSet::All => false,
            PlaneSet::Mask(words) => words.iter().all(|w| *w == 0),
        }
    }

    /// Whether the two sets share any plane.
    pub fn intersects(&self, other: &PlaneSet) -> bool {
        match (self, other) {
            (PlaneSet::All, o) => !o.is_empty(),
            (s, PlaneSet::All) => !s.is_empty(),
            (PlaneSet::Mask(a), PlaneSet::Mask(b)) => {
                a.iter().zip(b.iter()).any(|(x, y)| x & y != 0)
            }
        }
    }

    /// Grows this set to also contain every plane of `other`.
    ///
    /// Once either side is [`PlaneSet::All`] the union saturates to `All`.
    pub fn union_with(&mut self, other: &PlaneSet) {
        match (&mut *self, other) {
            (PlaneSet::All, _) => {}
            (_, PlaneSet::All) => *self = PlaneSet::All,
            (PlaneSet::Mask(a), PlaneSet::Mask(b)) => {
                if a.len() < b.len() {
                    a.resize(b.len(), 0);
                }
                for (x, y) in a.iter_mut().zip(b.iter()) {
                    *x |= y;
                }
            }
        }
    }

    /// The selected planes among `64 * w .. 64 * w + 64` of a
    /// `total`-plane tile as a bitmask — the unit the batched routers
    /// walk an op's planes in.
    #[inline]
    pub fn word(&self, w: usize, total: u16) -> u64 {
        let in_range = match (total as usize).saturating_sub(w * 64) {
            0 => return 0,
            left if left >= 64 => u64::MAX,
            left => (1 << left) - 1,
        };
        match self {
            PlaneSet::All => in_range,
            PlaneSet::Mask(words) => words.get(w).copied().unwrap_or(0) & in_range,
        }
    }

    /// Iterates the selected plane indices among `0..total`, ascending.
    ///
    /// For [`PlaneSet::All`] this is a plain range; for a mask it walks the
    /// words popping one set bit per step — `O(selected + words)`, not
    /// `O(total)` membership probes. The router `exec` loops run on this
    /// iterator, so it is hot-path code.
    pub fn iter(&self, total: u16) -> PlaneIter<'_> {
        let mode = match self {
            PlaneSet::All => PlaneIterMode::All(0..total),
            PlaneSet::Mask(words) => PlaneIterMode::Mask {
                words,
                word: words.first().copied().unwrap_or(0),
                word_idx: 0,
            },
        };
        PlaneIter { total, mode }
    }
}

/// Iterator over the planes of a [`PlaneSet`], yielded in ascending order
/// (see [`PlaneSet::iter`]).
#[derive(Debug, Clone)]
pub struct PlaneIter<'a> {
    total: u16,
    mode: PlaneIterMode<'a>,
}

#[derive(Debug, Clone)]
enum PlaneIterMode<'a> {
    All(std::ops::Range<u16>),
    Mask { words: &'a [u64], word: u64, word_idx: usize },
}

impl Iterator for PlaneIter<'_> {
    type Item = u16;

    #[inline]
    fn next(&mut self) -> Option<u16> {
        match &mut self.mode {
            PlaneIterMode::All(range) => range.next(),
            PlaneIterMode::Mask { words, word, word_idx } => loop {
                if *word == 0 {
                    *word_idx += 1;
                    match words.get(*word_idx) {
                        Some(&w) => {
                            *word = w;
                            continue;
                        }
                        None => return None,
                    }
                }
                let bit = word.trailing_zeros() as usize;
                *word &= *word - 1; // pop the lowest set bit
                let plane = *word_idx * 64 + bit;
                if plane < self.total as usize {
                    return Some(plane as u16);
                }
                // Mask words may carry bits at or beyond `total`; indices
                // ascend, so the first such bit exhausts the iteration.
                *word = 0;
                *word_idx = words.len();
                return None;
            },
        }
    }
}

impl FromIterator<u16> for PlaneSet {
    fn from_iter<I: IntoIterator<Item = u16>>(iter: I) -> Self {
        PlaneSet::from_indices(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_contains_everything() {
        let all = PlaneSet::all();
        assert!(all.contains(0));
        assert!(all.contains(65535));
        assert_eq!(all.count(256), 256);
        assert!(!all.is_empty());
    }

    #[test]
    fn empty_set() {
        let e = PlaneSet::empty();
        assert!(!e.contains(0));
        assert!(e.is_empty());
        assert_eq!(e.count(256), 0);
        assert!(!e.intersects(&PlaneSet::all()));
        assert!(!PlaneSet::all().intersects(&e));
    }

    #[test]
    fn from_indices_membership() {
        let s = PlaneSet::from_indices([0u16, 63, 64, 255]);
        for i in [0u16, 63, 64, 255] {
            assert!(s.contains(i), "missing {i}");
        }
        for i in [1u16, 62, 65, 254] {
            assert!(!s.contains(i), "spurious {i}");
        }
        assert_eq!(s.len(), 4);
    }

    #[test]
    fn from_range() {
        let s = PlaneSet::from_range(10..20);
        assert_eq!(s.len(), 10);
        assert!(s.contains(10));
        assert!(s.contains(19));
        assert!(!s.contains(20));
        assert!(!s.contains(9));
    }

    #[test]
    fn intersection_logic() {
        let a = PlaneSet::from_indices([1u16, 2, 3]);
        let b = PlaneSet::from_indices([3u16, 4]);
        let c = PlaneSet::from_indices([5u16]);
        assert!(a.intersects(&b));
        assert!(!a.intersects(&c));
        assert!(PlaneSet::all().intersects(&a));
        assert!(a.intersects(&PlaneSet::all()));
    }

    #[test]
    fn iter_yields_sorted_indices() {
        let s = PlaneSet::from_indices([5u16, 1, 3]);
        let v: Vec<u16> = s.iter(16).collect();
        assert_eq!(v, vec![1, 3, 5]);
        let all: Vec<u16> = PlaneSet::all().iter(4).collect();
        assert_eq!(all, vec![0, 1, 2, 3]);
    }

    #[test]
    fn iter_walks_word_boundaries() {
        // Bits straddling the 64-bit word seams must come out in order.
        let s = PlaneSet::from_indices([0u16, 63, 64, 127, 128, 255]);
        let v: Vec<u16> = s.iter(256).collect();
        assert_eq!(v, vec![0, 63, 64, 127, 128, 255]);
    }

    #[test]
    fn iter_stops_at_total() {
        // Mask bits at or beyond `total` are not yielded, and a bit past
        // the first out-of-range one does not resurrect the iterator.
        let s = PlaneSet::from_indices([2u16, 10, 20, 300]);
        let v: Vec<u16> = s.iter(16).collect();
        assert_eq!(v, vec![2, 10]);
        let mut it = s.iter(16);
        assert_eq!(it.next(), Some(2));
        assert_eq!(it.next(), Some(10));
        assert_eq!(it.next(), None);
        assert_eq!(it.next(), None, "exhausted iterator stays exhausted");
    }

    #[test]
    fn iter_of_empty_and_all() {
        assert_eq!(PlaneSet::empty().iter(64).count(), 0);
        assert_eq!(PlaneSet::Mask(vec![0, 0, 0]).iter(256).count(), 0);
        let all: Vec<u16> = PlaneSet::all().iter(3).collect();
        assert_eq!(all, vec![0, 1, 2]);
    }

    #[test]
    fn collect_from_iterator() {
        let s: PlaneSet = (0u16..4).collect();
        assert_eq!(s.len(), 4);
    }

    #[test]
    #[should_panic(expected = "no intrinsic length")]
    fn len_of_all_panics() {
        let _ = PlaneSet::all().len();
    }

    #[test]
    fn union_with_merges_masks() {
        let mut a = PlaneSet::from_indices([1u16, 64]);
        a.union_with(&PlaneSet::from_indices([2u16, 200]));
        let v: Vec<u16> = a.iter(256).collect();
        assert_eq!(v, vec![1, 2, 64, 200]);

        let mut e = PlaneSet::empty();
        e.union_with(&PlaneSet::from_indices([7u16]));
        assert!(e.contains(7));

        let mut m = PlaneSet::from_indices([3u16]);
        m.union_with(&PlaneSet::all());
        assert_eq!(m, PlaneSet::All);

        let mut all = PlaneSet::all();
        all.union_with(&PlaneSet::empty());
        assert_eq!(all, PlaneSet::All);
    }

    #[test]
    fn beyond_mask_words_not_contained() {
        let s = PlaneSet::from_indices([1u16]);
        assert!(!s.contains(1000));
    }
}

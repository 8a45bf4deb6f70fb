//! Worlds and packed sets of worlds.
//!
//! A [`WorldId`] names a possible world (a *point* of the system, in the
//! terminology of Halpern–Moses Section 5) inside a fixed finite model. A
//! [`WorldSet`] is a packed bitset over the worlds of one model; it is the
//! concrete representation of the set-valued semantics `φ ↦ φ^M(A)` of
//! Appendix A of the paper, so every connective becomes a cheap word-wise
//! set operation.

use std::fmt;

/// Identifier of a world within a fixed model.
///
/// Worlds are dense indices `0..model.num_worlds()`; the id is only
/// meaningful relative to the model that issued it.
///
/// # Examples
///
/// ```
/// use hm_kripke::WorldId;
/// let w = WorldId::new(3);
/// assert_eq!(w.index(), 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct WorldId(u32);

impl WorldId {
    /// Creates a world id from a dense index.
    #[inline]
    pub fn new(index: usize) -> Self {
        WorldId(u32::try_from(index).expect("world index exceeds u32::MAX"))
    }

    /// Returns the dense index of this world.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for WorldId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "w{}", self.0)
    }
}

impl From<usize> for WorldId {
    fn from(index: usize) -> Self {
        WorldId::new(index)
    }
}

const BITS: usize = u64::BITS as usize;

/// A set of worlds, packed 64 per machine word.
///
/// All sets carry the universe size (`len`) of the model they belong to, so
/// complement is well defined. Binary operations require both operands to
/// come from the same universe and panic otherwise — mixing sets from
/// different models is always a logic error.
///
/// # Examples
///
/// ```
/// use hm_kripke::WorldSet;
/// let mut a = WorldSet::empty(10);
/// a.insert(1.into());
/// a.insert(7.into());
/// let b = WorldSet::full(10);
/// assert!(a.is_subset(&b));
/// assert_eq!(a.complement().count(), 8);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct WorldSet {
    len: usize,
    words: Vec<u64>,
}

impl WorldSet {
    /// The empty set over a universe of `len` worlds.
    pub fn empty(len: usize) -> Self {
        WorldSet {
            len,
            words: vec![0; len.div_ceil(BITS)],
        }
    }

    /// The full set over a universe of `len` worlds.
    pub fn full(len: usize) -> Self {
        let mut s = WorldSet {
            len,
            words: vec![!0u64; len.div_ceil(BITS)],
        };
        s.trim();
        s
    }

    /// Builds a set over `len` worlds from the ids yielded by `iter`.
    ///
    /// # Panics
    ///
    /// Panics if any id is out of range.
    pub fn from_iter_len<I: IntoIterator<Item = WorldId>>(len: usize, iter: I) -> Self {
        let mut s = WorldSet::empty(len);
        for w in iter {
            s.insert(w);
        }
        s
    }

    /// Builds the singleton `{w}` over `len` worlds.
    pub fn singleton(len: usize, w: WorldId) -> Self {
        let mut s = WorldSet::empty(len);
        s.insert(w);
        s
    }

    /// Number of worlds in the universe (not the cardinality of the set).
    #[inline]
    pub fn universe_len(&self) -> usize {
        self.len
    }

    /// Clears bits beyond `len` (slack in the last word).
    fn trim(&mut self) {
        let rem = self.len % BITS;
        if rem != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << rem) - 1;
            }
        }
    }

    /// Inserts a world. Returns `true` if it was not already present.
    ///
    /// # Panics
    ///
    /// Panics if `w` is outside the universe.
    #[inline]
    pub fn insert(&mut self, w: WorldId) -> bool {
        let i = w.index();
        assert!(i < self.len, "world {i} outside universe of {}", self.len);
        let (word, bit) = (i / BITS, i % BITS);
        let had = self.words[word] & (1 << bit) != 0;
        self.words[word] |= 1 << bit;
        !had
    }

    /// Removes a world. Returns `true` if it was present.
    #[inline]
    pub fn remove(&mut self, w: WorldId) -> bool {
        let i = w.index();
        assert!(i < self.len, "world {i} outside universe of {}", self.len);
        let (word, bit) = (i / BITS, i % BITS);
        let had = self.words[word] & (1 << bit) != 0;
        self.words[word] &= !(1 << bit);
        had
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, w: WorldId) -> bool {
        let i = w.index();
        i < self.len && self.words[i / BITS] & (1 << (i % BITS)) != 0
    }

    /// Cardinality of the set.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// `true` iff no world is in the set.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// `true` iff every world of the universe is in the set.
    pub fn is_full(&self) -> bool {
        self.count() == self.len
    }

    fn check_universe(&self, other: &WorldSet) {
        assert_eq!(
            self.len, other.len,
            "world sets from different universes ({} vs {})",
            self.len, other.len
        );
    }

    /// In-place union.
    pub fn union_with(&mut self, other: &WorldSet) {
        self.check_universe(other);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// In-place union that reports the worlds *newly added* by it, one
    /// machine word at a time (`on_new` receives each world of
    /// `other \ self`). This is the word-wise kernel of the frontier BFS
    /// used by the common-knowledge reachability engine.
    pub fn union_with_diff(&mut self, other: &WorldSet, mut on_new: impl FnMut(WorldId)) {
        self.check_universe(other);
        for (i, (a, b)) in self.words.iter_mut().zip(&other.words).enumerate() {
            let mut fresh = b & !*a;
            *a |= b;
            while fresh != 0 {
                let bit = fresh.trailing_zeros() as usize;
                fresh &= fresh - 1;
                on_new(WorldId::new(i * BITS + bit));
            }
        }
    }

    /// In-place intersection.
    pub fn intersect_with(&mut self, other: &WorldSet) {
        self.check_universe(other);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
    }

    /// In-place set difference (`self \ other`).
    fn difference_with(&mut self, other: &WorldSet) {
        self.check_universe(other);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= !b;
        }
    }

    /// Returns the union as a new set.
    pub fn union(&self, other: &WorldSet) -> WorldSet {
        let mut s = self.clone();
        s.union_with(other);
        s
    }

    /// Returns the intersection as a new set.
    pub fn intersection(&self, other: &WorldSet) -> WorldSet {
        let mut s = self.clone();
        s.intersect_with(other);
        s
    }

    /// Returns the difference `self \ other` as a new set.
    pub fn difference(&self, other: &WorldSet) -> WorldSet {
        let mut s = self.clone();
        s.difference_with(other);
        s
    }

    /// Returns the complement within the universe.
    pub fn complement(&self) -> WorldSet {
        let mut s = WorldSet {
            len: self.len,
            words: self.words.iter().map(|w| !w).collect(),
        };
        s.trim();
        s
    }

    /// Subset test (`self ⊆ other`).
    pub fn is_subset(&self, other: &WorldSet) -> bool {
        self.check_universe(other);
        self.words
            .iter()
            .zip(&other.words)
            .all(|(a, b)| a & !b == 0)
    }

    /// `true` iff the two sets share no world.
    pub fn is_disjoint(&self, other: &WorldSet) -> bool {
        self.check_universe(other);
        self.words.iter().zip(&other.words).all(|(a, b)| a & b == 0)
    }

    /// Iterates over members in increasing index order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            set: self,
            word_idx: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }

    /// Smallest member, if any.
    pub fn first(&self) -> Option<WorldId> {
        self.iter().next()
    }

    /// The greatest fixed point of a monotone `step` over a universe of
    /// `len` worlds, by downward iteration from the full set until two
    /// iterates agree. Common knowledge and its attainable variants are
    /// such fixed points (`νX. E_G(φ ∧ X)`, Section 10 / Appendix A).
    ///
    /// The iterates only shrink, so a monotone `step` settles within
    /// `len + 1` rounds. An error from `step` (a budget check between
    /// rounds, say) stops the iteration and is returned.
    pub fn try_gfp<E>(
        len: usize,
        mut step: impl FnMut(&WorldSet) -> Result<WorldSet, E>,
    ) -> Result<WorldSet, E> {
        let mut x = WorldSet::full(len);
        loop {
            let next = step(&x)?;
            if next == x {
                return Ok(x);
            }
            x = next;
        }
    }

    /// [`try_gfp`](Self::try_gfp) for a step that cannot fail.
    pub fn gfp(len: usize, mut step: impl FnMut(&WorldSet) -> WorldSet) -> WorldSet {
        Self::try_gfp(len, |x| Ok::<_, std::convert::Infallible>(step(x)))
            .unwrap_or_else(|e| match e {})
    }
}

impl fmt::Debug for WorldSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "WorldSet{{")?;
        for (k, w) in self.iter().enumerate() {
            if k > 0 {
                write!(f, ",")?;
            }
            write!(f, "{w}")?;
        }
        write!(f, "}}/{}", self.len)
    }
}

impl fmt::Display for WorldSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl<'a> IntoIterator for &'a WorldSet {
    type Item = WorldId;
    type IntoIter = Iter<'a>;
    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

impl Extend<WorldId> for WorldSet {
    fn extend<T: IntoIterator<Item = WorldId>>(&mut self, iter: T) {
        for w in iter {
            self.insert(w);
        }
    }
}

/// Iterator over the members of a [`WorldSet`].
#[derive(Debug, Clone)]
pub struct Iter<'a> {
    set: &'a WorldSet,
    word_idx: usize,
    current: u64,
}

impl Iterator for Iter<'_> {
    type Item = WorldId;

    fn next(&mut self) -> Option<WorldId> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1;
                return Some(WorldId::new(self.word_idx * BITS + bit));
            }
            self.word_idx += 1;
            if self.word_idx >= self.set.words.len() {
                return None;
            }
            self.current = self.set.words[self.word_idx];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_full() {
        let e = WorldSet::empty(70);
        assert!(e.is_empty());
        assert_eq!(e.count(), 0);
        let f = WorldSet::full(70);
        assert!(f.is_full());
        assert_eq!(f.count(), 70);
        assert!(e.is_subset(&f));
        assert!(!f.is_subset(&e));
    }

    #[test]
    fn full_trims_slack_bits() {
        // Universe of 65 needs 2 words; the second word must hold only 1 bit.
        let f = WorldSet::full(65);
        assert_eq!(f.count(), 65);
        assert_eq!(f.complement().count(), 0);
    }

    #[test]
    fn insert_remove_contains() {
        let mut s = WorldSet::empty(130);
        assert!(s.insert(WorldId::new(0)));
        assert!(s.insert(WorldId::new(64)));
        assert!(s.insert(WorldId::new(129)));
        assert!(!s.insert(WorldId::new(64)), "double insert reports false");
        assert!(s.contains(WorldId::new(129)));
        assert!(!s.contains(WorldId::new(128)));
        assert!(s.remove(WorldId::new(64)));
        assert!(!s.remove(WorldId::new(64)));
        assert_eq!(s.count(), 2);
    }

    #[test]
    #[should_panic(expected = "outside universe")]
    fn insert_out_of_range_panics() {
        WorldSet::empty(4).insert(WorldId::new(4));
    }

    #[test]
    #[should_panic(expected = "different universes")]
    fn mixed_universe_panics() {
        let a = WorldSet::empty(4);
        let b = WorldSet::empty(5);
        a.union(&b);
    }

    #[test]
    fn boolean_algebra() {
        let a = WorldSet::from_iter_len(10, [0, 1, 2, 5].map(WorldId::new));
        let b = WorldSet::from_iter_len(10, [2, 3, 5, 9].map(WorldId::new));
        assert_eq!(
            a.union(&b),
            WorldSet::from_iter_len(10, [0, 1, 2, 3, 5, 9].map(WorldId::new))
        );
        assert_eq!(
            a.intersection(&b),
            WorldSet::from_iter_len(10, [2, 5].map(WorldId::new))
        );
        assert_eq!(
            a.difference(&b),
            WorldSet::from_iter_len(10, [0, 1].map(WorldId::new))
        );
        // De Morgan: ¬(a ∪ b) = ¬a ∩ ¬b
        assert_eq!(
            a.union(&b).complement(),
            a.complement().intersection(&b.complement())
        );
        // Double complement is the identity.
        assert_eq!(a.complement().complement(), a);
    }

    #[test]
    fn iter_yields_sorted_members() {
        let ids = [3usize, 64, 65, 127, 128, 9];
        let s = WorldSet::from_iter_len(200, ids.map(WorldId::new));
        let out: Vec<usize> = s.iter().map(|w| w.index()).collect();
        assert_eq!(out, vec![3, 9, 64, 65, 127, 128]);
        assert_eq!(s.first(), Some(WorldId::new(3)));
    }

    #[test]
    fn iter_empty_set() {
        assert_eq!(WorldSet::empty(100).iter().count(), 0);
        assert_eq!(WorldSet::empty(0).iter().count(), 0);
        assert!(WorldSet::empty(0).is_full(), "empty universe: ∅ is full");
    }

    #[test]
    fn disjointness() {
        let a = WorldSet::from_iter_len(8, [0, 2].map(WorldId::new));
        let b = WorldSet::from_iter_len(8, [1, 3].map(WorldId::new));
        assert!(a.is_disjoint(&b));
        assert!(!a.is_disjoint(&a.union(&b)));
    }

    #[test]
    fn singleton_and_extend() {
        let mut s = WorldSet::singleton(6, WorldId::new(2));
        assert_eq!(s.count(), 1);
        s.extend([WorldId::new(4), WorldId::new(5)]);
        assert_eq!(s.count(), 3);
    }

    #[test]
    fn gfp_iterates_down_from_the_full_set() {
        // X ↦ A ∩ shift(X), where shift drops 0 and moves w+1 to w: the
        // largest fixed point inside A = {0..4} ∪ {6} is the empty set
        // (every chain of A-worlds runs out), reached one world a round.
        let a = WorldSet::from_iter_len(8, [0, 1, 2, 3, 4, 6].map(WorldId::new));
        let shift = |x: &WorldSet| {
            let next = x
                .iter()
                .filter(|w| w.index() > 0)
                .map(|w| WorldId::new(w.index() - 1));
            WorldSet::from_iter_len(8, next).intersection(&a)
        };
        let mut rounds = 0;
        assert!(WorldSet::gfp(8, |x| {
            rounds += 1;
            shift(x)
        })
        .is_empty());
        assert_eq!(rounds, 7, "full, A, then one world fewer a round");
        // Identity: the full set is already fixed.
        assert!(WorldSet::gfp(8, WorldSet::clone).is_full());
    }

    #[test]
    fn try_gfp_stops_at_the_first_error() {
        let mut rounds = 0;
        let out = WorldSet::try_gfp(4, |x| {
            rounds += 1;
            if rounds == 2 {
                return Err("budget");
            }
            Ok(x.difference(&WorldSet::singleton(4, WorldId::new(rounds))))
        });
        assert_eq!(out, Err("budget"));
        assert_eq!(rounds, 2);
    }

    #[test]
    fn display_formats() {
        let s = WorldSet::from_iter_len(5, [1, 3].map(WorldId::new));
        assert_eq!(format!("{s}"), "WorldSet{w1,w3}/5");
        assert_eq!(format!("{}", WorldId::new(7)), "w7");
    }
}

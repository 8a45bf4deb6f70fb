//! Partitions of the world set into indistinguishability classes.
//!
//! Under a view-based knowledge interpretation (Halpern–Moses Section 6),
//! agent `i`'s accessibility relation is the *equivalence relation* "has the
//! same view at both points". A [`Partition`] stores such a relation as its
//! equivalence classes, which is both the natural S5 representation and the
//! efficient one: the knowledge operator `K_i` is a per-block subset test.

use crate::world::{WorldId, WorldSet};
use std::collections::HashMap;
use std::hash::Hash;

/// A partition of the worlds `0..n` into non-empty disjoint blocks.
///
/// Block ids are dense indices `0..num_blocks()`. The partition is the
/// equivalence relation: `w ~ w'` iff `block_of(w) == block_of(w')`.
///
/// # Examples
///
/// ```
/// use hm_kripke::{Partition, WorldId};
/// // Partition worlds 0..4 by parity.
/// let p = Partition::from_key(4, |w| w.index() % 2);
/// assert_eq!(p.num_blocks(), 2);
/// assert!(p.same_block(WorldId::new(0), WorldId::new(2)));
/// assert!(!p.same_block(WorldId::new(0), WorldId::new(1)));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    /// `block_of[w]` is the block containing world `w`.
    block_of: Vec<u32>,
    /// Flat member storage (CSR layout): the members of block `b` are
    /// `member_data[starts[b]..starts[b+1]]`, sorted ascending. One arena
    /// for all blocks — no per-block allocation, sequential scans.
    member_data: Vec<u32>,
    /// Block boundaries into `member_data`; length `num_blocks + 1`.
    starts: Vec<u32>,
}

impl Partition {
    /// The discrete partition: every world is its own block (an agent with
    /// perfect information — the *complete-history* extreme).
    pub fn discrete(n: usize) -> Self {
        Partition {
            block_of: (0..n as u32).collect(),
            member_data: (0..n as u32).collect(),
            starts: (0..=n as u32).collect(),
        }
    }

    /// The trivial partition: one block containing every world (the single
    /// view `Λ` of Section 6, under which the hierarchy collapses).
    ///
    /// For `n == 0` this is the empty partition with no blocks.
    pub fn trivial(n: usize) -> Self {
        if n == 0 {
            return Partition {
                block_of: vec![],
                member_data: vec![],
                starts: vec![0],
            };
        }
        Partition {
            block_of: vec![0; n],
            member_data: (0..n as u32).collect(),
            starts: vec![0, n as u32],
        }
    }

    /// Builds a partition by grouping worlds with equal keys.
    ///
    /// This is the primary constructor: a view function `v(i, ·)` induces
    /// agent `i`'s partition by `key = v(i, w)`.
    pub fn from_key<K, F>(n: usize, mut key: F) -> Self
    where
        K: Hash + Eq,
        F: FnMut(WorldId) -> K,
    {
        let mut block_ids: HashMap<K, u32> = HashMap::new();
        let mut block_of = Vec::with_capacity(n);
        let mut num_blocks = 0u32;
        for w in 0..n {
            let k = key(WorldId::new(w));
            let b = *block_ids.entry(k).or_insert_with(|| {
                let fresh = num_blocks;
                num_blocks += 1;
                fresh
            });
            block_of.push(b);
        }
        Partition::from_canonical_labels(block_of, num_blocks)
    }

    /// Builds a partition from pre-interned dense keys (e.g. view ids from
    /// a `ViewInterner`), without hashing: `keys[w]` is any integer label,
    /// `num_keys` an exclusive upper bound on the labels.
    ///
    /// Blocks are renumbered canonically (first-seen order of world index),
    /// so the result is identical to `from_key(n, |w| keys[w.index()])` —
    /// in O(n + num_keys) time and with no hash table.
    ///
    /// # Panics
    ///
    /// Panics if `keys.len() != n` or some key is `>= num_keys`.
    pub fn from_dense_keys(n: usize, keys: &[u32], num_keys: usize) -> Self {
        assert_eq!(keys.len(), n, "one key per world");
        let mut remap = vec![u32::MAX; num_keys];
        let mut block_of = Vec::with_capacity(n);
        let mut num_blocks = 0u32;
        for &k in keys {
            let slot = &mut remap[k as usize];
            if *slot == u32::MAX {
                *slot = num_blocks;
                num_blocks += 1;
            }
            block_of.push(*slot);
        }
        Partition::from_canonical_labels(block_of, num_blocks)
    }

    /// Finishes construction from canonical block labels: `block_of[w]` is
    /// already dense (`0..num_blocks`) and in first-seen world order.
    /// The CSR member arena is built by a counting pass — O(n + num_blocks)
    /// and exactly two allocations, however many blocks there are.
    fn from_canonical_labels(block_of: Vec<u32>, num_blocks: u32) -> Self {
        let nb = num_blocks as usize;
        let mut starts = vec![0u32; nb + 1];
        for &b in &block_of {
            starts[b as usize + 1] += 1;
        }
        for i in 0..nb {
            starts[i + 1] += starts[i];
        }
        let mut cursor = starts.clone();
        let mut member_data = vec![0u32; block_of.len()];
        for (w, &b) in block_of.iter().enumerate() {
            let c = &mut cursor[b as usize];
            member_data[*c as usize] = w as u32;
            *c += 1;
        }
        Partition {
            block_of,
            member_data,
            starts,
        }
    }

    /// The members of block `b` as a sorted slice of world indices.
    #[inline]
    pub(crate) fn block_slice(&self, b: usize) -> &[u32] {
        &self.member_data[self.starts[b] as usize..self.starts[b + 1] as usize]
    }

    /// Builds a partition from explicit pairs, closing under reflexivity,
    /// symmetry and transitivity (union–find closure).
    ///
    /// The tests' reference for the graph view of Section 6, where
    /// indistinguishability is given as an edge list.
    #[cfg(test)]
    fn from_pairs<I: IntoIterator<Item = (WorldId, WorldId)>>(n: usize, pairs: I) -> Self {
        let mut uf = UnionFind::new(n);
        for (a, b) in pairs {
            assert!(a.index() < n && b.index() < n, "world outside universe");
            uf.union(a.index(), b.index());
        }
        Partition::from_key(n, |w| uf.find(w.index()))
    }

    /// Number of worlds partitioned.
    pub fn num_worlds(&self) -> usize {
        self.block_of.len()
    }

    /// Number of blocks.
    pub fn num_blocks(&self) -> usize {
        self.starts.len() - 1
    }

    /// The block containing `w`.
    ///
    /// # Panics
    ///
    /// Panics if `w` is outside the universe.
    #[inline]
    pub fn block_of(&self, w: WorldId) -> usize {
        self.block_of[w.index()] as usize
    }

    /// The members of block `b`, sorted ascending.
    pub fn block_members(&self, b: usize) -> impl Iterator<Item = WorldId> + '_ {
        self.block_slice(b)
            .iter()
            .map(|&w| WorldId::new(w as usize))
    }

    /// `true` iff `a` and `b` are indistinguishable (same block).
    #[inline]
    pub fn same_block(&self, a: WorldId, b: WorldId) -> bool {
        self.block_of[a.index()] == self.block_of[b.index()]
    }

    /// The *knowledge operator* of this partition:
    /// `K(A) = { w : [w] ⊆ A }` — the worlds where the agent knows the
    /// (set-denoted) fact `A`. This is clause (f) of Appendix A.
    pub fn knowledge(&self, a: &WorldSet) -> WorldSet {
        assert_eq!(a.universe_len(), self.num_worlds(), "universe mismatch");
        let mut out = WorldSet::empty(self.num_worlds());
        'blocks: for block in self.blocks() {
            for &w in block {
                if !a.contains(WorldId::new(w as usize)) {
                    continue 'blocks;
                }
            }
            for &w in block {
                out.insert(WorldId::new(w as usize));
            }
        }
        out
    }

    /// The dual *possibility operator*:
    /// `P(A) = { w : [w] ∩ A ≠ ∅ }` — the worlds where the agent considers
    /// `A` possible. Satisfies `P(A) = ¬K(¬A)`.
    pub fn possibility(&self, a: &WorldSet) -> WorldSet {
        assert_eq!(a.universe_len(), self.num_worlds(), "universe mismatch");
        let mut touched = vec![false; self.num_blocks()];
        for w in a.iter() {
            touched[self.block_of(w)] = true;
        }
        let mut out = WorldSet::empty(self.num_worlds());
        for (b, &t) in touched.iter().enumerate() {
            if t {
                for &w in self.block_slice(b) {
                    out.insert(WorldId::new(w as usize));
                }
            }
        }
        out
    }

    /// The meet (coarsest common refinement) of two partitions: worlds are
    /// equivalent iff equivalent under *both*.
    ///
    /// The joint view of a group (distributed knowledge, clause (g)) is the
    /// meet of its members' partitions.
    ///
    /// Runs in O(n + num_blocks) with no hashing: worlds are scanned one
    /// block of `self` at a time, and a stamp array indexed by `other`'s
    /// block ids splits each block in place. The block numbering is the
    /// canonical (first-seen world order) one, identical to what
    /// [`from_key`](Self::from_key) over `(self.block_of, other.block_of)`
    /// pairs would produce.
    pub fn meet(&self, other: &Partition) -> Partition {
        assert_eq!(self.num_worlds(), other.num_worlds(), "universe mismatch");
        let n = self.num_worlds();
        // stamp[b2] == current self-block id marks "pair (b1, b2) seen";
        // pair_id[b2] is then the label assigned to that pair.
        let mut stamp = vec![u32::MAX; other.num_blocks()];
        let mut pair_id = vec![0u32; other.num_blocks()];
        let mut labels = vec![0u32; n];
        let mut num_pairs = 0u32;
        for (b1, block) in self.blocks().enumerate() {
            for &w in block {
                let b2 = other.block_of[w as usize] as usize;
                if stamp[b2] != b1 as u32 {
                    stamp[b2] = b1 as u32;
                    pair_id[b2] = num_pairs;
                    num_pairs += 1;
                }
                labels[w as usize] = pair_id[b2];
            }
        }
        // The labels above are dense but assigned in block-scan order, not
        // world order; one more pass renumbers them canonically.
        let mut remap = vec![u32::MAX; num_pairs as usize];
        let mut num_blocks = 0u32;
        for l in &mut labels {
            let slot = &mut remap[*l as usize];
            if *slot == u32::MAX {
                *slot = num_blocks;
                num_blocks += 1;
            }
            *l = *slot;
        }
        Partition::from_canonical_labels(labels, num_blocks)
    }

    /// The join (finest common coarsening) of two partitions: the
    /// equivalence closure of the union of the two relations.
    ///
    /// The join over a group G's partitions gives *G-reachability*, i.e. the
    /// common-knowledge relation of Section 6.
    ///
    /// Join classes are the connected components of the bipartite *block
    /// graph* — one vertex per block of either partition, with block `B` of
    /// `self` adjacent to block `B'` of `other` iff they share a world.
    /// Rather than union–find over world indices (pointer-chasing `find`
    /// per world), this walks that graph directly over the two CSR member
    /// arenas: an alternating BFS marks whole blocks, scanning each block's
    /// sorted member slice exactly once — O(n + blocks), no hashing, no
    /// path compression. Component ids fall out in canonical (first-seen
    /// world) order because block ids already are canonical, so the final
    /// labelling needs no extra renumbering pass.
    pub fn join(&self, other: &Partition) -> Partition {
        assert_eq!(self.num_worlds(), other.num_worlds(), "universe mismatch");
        let mut comp_self = vec![u32::MAX; self.num_blocks()];
        let mut comp_other = vec![u32::MAX; other.num_blocks()];
        let mut frontier_self: Vec<u32> = Vec::new();
        let mut frontier_other: Vec<u32> = Vec::new();
        let mut num_comps = 0u32;
        for b in 0..self.num_blocks() {
            if comp_self[b] != u32::MAX {
                continue;
            }
            let c = num_comps;
            num_comps += 1;
            comp_self[b] = c;
            frontier_self.push(b as u32);
            while !frontier_self.is_empty() || !frontier_other.is_empty() {
                while let Some(sb) = frontier_self.pop() {
                    for &w in self.block_slice(sb as usize) {
                        let ob = other.block_of[w as usize] as usize;
                        if comp_other[ob] == u32::MAX {
                            comp_other[ob] = c;
                            frontier_other.push(ob as u32);
                        }
                    }
                }
                while let Some(ob) = frontier_other.pop() {
                    for &w in other.block_slice(ob as usize) {
                        let sb = self.block_of[w as usize] as usize;
                        if comp_self[sb] == u32::MAX {
                            comp_self[sb] = c;
                            frontier_self.push(sb as u32);
                        }
                    }
                }
            }
        }
        // Component c's first world is the first world of its minimal
        // self-block, and components are numbered by minimal self-block —
        // so labels are already dense in first-seen world order.
        let labels: Vec<u32> = self
            .block_of
            .iter()
            .map(|&b| comp_self[b as usize])
            .collect();
        Partition::from_canonical_labels(labels, num_comps)
    }

    /// `true` iff `self` refines `other` (every block of `self` is contained
    /// in a block of `other`): the agent with partition `self` has at least
    /// as much information.
    pub fn refines(&self, other: &Partition) -> bool {
        assert_eq!(self.num_worlds(), other.num_worlds(), "universe mismatch");
        self.blocks().all(|block| {
            let mut it = block.iter().map(|&w| other.block_of[w as usize]);
            match it.next() {
                None => true,
                Some(first) => it.all(|b| b == first),
            }
        })
    }

    /// Restricts the partition to the sub-universe `keep`, re-indexing the
    /// surviving worlds densely in increasing order of old id.
    ///
    /// This is the partition half of a public announcement (Section 2's
    /// father): discarding the worlds where the announced fact fails.
    pub fn restrict(&self, keep: &WorldSet) -> Partition {
        assert_eq!(keep.universe_len(), self.num_worlds(), "universe mismatch");
        let old_of_new: Vec<u32> = keep.iter().map(|w| w.index() as u32).collect();
        Partition::from_key(old_of_new.len(), |new_w| {
            self.block_of[old_of_new[new_w.index()] as usize]
        })
    }

    /// Iterates over the blocks as sorted member slices.
    pub fn blocks(&self) -> impl Iterator<Item = &[u32]> + '_ {
        (0..self.num_blocks()).map(|b| self.block_slice(b))
    }

    /// One sweep of the reachability closure (the frontier of the
    /// common-knowledge BFS, advanced a whole relation at a time): every
    /// block not yet absorbed that touches `closed` is unioned into it and
    /// marked `done`. Blocks spanning many worlds are merged word-wise via
    /// `scratch` (must be empty on entry; left empty on exit); small
    /// blocks insert member-by-member. Returns whether `closed` grew.
    ///
    /// `forward` sets the scan direction. Callers alternate it between
    /// sweeps: a chain of blocks ordered against one direction would
    /// otherwise absorb a single block per sweep (quadratic); alternating
    /// collapses monotone chains to O(1) sweeps either way.
    pub(crate) fn absorb_touched_blocks(
        &self,
        closed: &mut WorldSet,
        done: &mut [bool],
        scratch: &mut WorldSet,
        forward: bool,
    ) -> bool {
        let mut grew = false;
        let nb = done.len();
        for k in 0..nb {
            let b = if forward { k } else { nb - 1 - k };
            if done[b] {
                continue;
            }
            let members = self.block_slice(b);
            if !members
                .iter()
                .any(|&m| closed.contains(WorldId::new(m as usize)))
            {
                continue;
            }
            done[b] = true;
            if members.len() < 64 {
                for &m in members {
                    grew |= closed.insert(WorldId::new(m as usize));
                }
            } else {
                for &m in members {
                    scratch.insert(WorldId::new(m as usize));
                }
                let mut added = false;
                closed.union_with_diff(scratch, |_| added = true);
                grew |= added;
                for &m in members {
                    scratch.remove(WorldId::new(m as usize));
                }
            }
        }
        grew
    }
}

/// A classic union–find (disjoint-set) structure with path compression and
/// union by size, used for equivalence closures and G-reachability.
#[derive(Debug, Clone)]
pub struct UnionFind {
    parent: Vec<u32>,
    size: Vec<u32>,
}

impl UnionFind {
    /// `n` singleton sets.
    pub fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n as u32).collect(),
            size: vec![1; n],
        }
    }

    /// Representative of `x`'s set.
    pub fn find(&mut self, x: usize) -> usize {
        let mut root = x;
        while self.parent[root] as usize != root {
            root = self.parent[root] as usize;
        }
        // Path compression.
        let mut cur = x;
        while self.parent[cur] as usize != root {
            let next = self.parent[cur] as usize;
            self.parent[cur] = root as u32;
            cur = next;
        }
        root
    }

    /// Merges the sets of `a` and `b`. Returns `true` if they were distinct.
    pub fn union(&mut self, a: usize, b: usize) -> bool {
        let (mut ra, mut rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        if self.size[ra] < self.size[rb] {
            std::mem::swap(&mut ra, &mut rb);
        }
        self.parent[rb] = ra as u32;
        self.size[ra] += self.size[rb];
        true
    }

    /// `true` iff `a` and `b` are in the same set.
    pub fn connected(&mut self, a: usize, b: usize) -> bool {
        self.find(a) == self.find(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ws(n: usize, ids: &[usize]) -> WorldSet {
        WorldSet::from_iter_len(n, ids.iter().map(|&i| WorldId::new(i)))
    }

    #[test]
    fn discrete_and_trivial() {
        let d = Partition::discrete(5);
        assert_eq!(d.num_blocks(), 5);
        let t = Partition::trivial(5);
        assert_eq!(t.num_blocks(), 1);
        assert!(d.refines(&t));
        assert!(!t.refines(&d));
        assert!(d.refines(&d) && t.refines(&t), "refines is reflexive");
    }

    #[test]
    fn trivial_empty_universe() {
        let t = Partition::trivial(0);
        assert_eq!(t.num_blocks(), 0);
        assert_eq!(t.num_worlds(), 0);
    }

    #[test]
    fn knowledge_operator_is_block_kernel() {
        // Blocks by parity over 0..6: {0,2,4}, {1,3,5}.
        let p = Partition::from_key(6, |w| w.index() % 2);
        // A = {0,2,4,1}: even block fully inside, odd block not.
        let a = ws(6, &[0, 1, 2, 4]);
        assert_eq!(p.knowledge(&a), ws(6, &[0, 2, 4]));
        // K(full) = full, K(empty) = empty.
        assert_eq!(p.knowledge(&WorldSet::full(6)), WorldSet::full(6));
        assert_eq!(p.knowledge(&WorldSet::empty(6)), WorldSet::empty(6));
    }

    #[test]
    fn possibility_is_dual_of_knowledge() {
        let p = Partition::from_key(8, |w| w.index() / 3);
        let a = ws(8, &[1, 6]);
        let lhs = p.possibility(&a);
        let rhs = p.knowledge(&a.complement()).complement();
        assert_eq!(lhs, rhs);
        assert_eq!(lhs, ws(8, &[0, 1, 2, 6, 7]));
    }

    #[test]
    fn knowledge_truth_axiom_setwise() {
        // K(A) ⊆ A for any partition and set (the knowledge axiom A1).
        let p = Partition::from_key(10, |w| w.index() % 3);
        let a = ws(10, &[0, 3, 6, 9, 1, 2]);
        assert!(p.knowledge(&a).is_subset(&a));
    }

    #[test]
    fn meet_and_join() {
        let by2 = Partition::from_key(12, |w| w.index() % 2);
        let by3 = Partition::from_key(12, |w| w.index() % 3);
        let m = by2.meet(&by3);
        assert_eq!(m.num_blocks(), 6, "meet of mod-2 and mod-3 is mod-6");
        assert!(m.refines(&by2) && m.refines(&by3));
        let j = by2.join(&by3);
        assert_eq!(j.num_blocks(), 1, "join of mod-2 and mod-3 connects all");
        assert!(by2.refines(&j) && by3.refines(&j));
    }

    #[test]
    fn join_numbering_matches_union_find_reference() {
        // The BFS join must reproduce the canonical (first-seen world)
        // block numbering exactly — the same partition the union–find
        // closure over within-block adjacencies produces.
        for (n, bp, bq, seed) in [(1usize, 1u64, 1u64, 0u64), (37, 5, 3, 1), (64, 9, 2, 2)] {
            let mut mix = seed;
            let mut next = || {
                mix = mix
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                mix >> 33
            };
            let kp: Vec<u64> = (0..n).map(|_| next() % bp).collect();
            let kq: Vec<u64> = (0..n).map(|_| next() % bq).collect();
            let p = Partition::from_key(n, |w| kp[w.index()]);
            let q = Partition::from_key(n, |w| kq[w.index()]);
            let pairs = p.blocks().chain(q.blocks()).flat_map(|b| {
                b.windows(2)
                    .map(|w| (WorldId::new(w[0] as usize), WorldId::new(w[1] as usize)))
                    .collect::<Vec<_>>()
            });
            let reference = Partition::from_pairs(n, pairs);
            assert_eq!(p.join(&q), reference, "n={n} bp={bp} bq={bq}");
        }
    }

    #[test]
    fn join_of_chained_blocks_closes_fully() {
        // A chain p:{0,1},{2,3},... q:{1,2},{3,4},... must collapse to one
        // block — the shape that forces the BFS to alternate sides.
        let n = 100;
        let p = Partition::from_key(n, |w| w.index() / 2);
        let q = Partition::from_key(n, |w| w.index().div_ceil(2));
        let j = p.join(&q);
        assert_eq!(j.num_blocks(), 1);
    }

    #[test]
    fn join_with_discrete_is_identity() {
        let p = Partition::from_key(9, |w| w.index() / 2);
        let j = p.join(&Partition::discrete(9));
        assert_eq!(j.num_blocks(), p.num_blocks());
        assert!(p.refines(&j) && j.refines(&p));
    }

    #[test]
    fn from_pairs_closure() {
        // 0-1, 1-2 chain must close transitively.
        let p = Partition::from_pairs(
            5,
            [(0, 1), (1, 2)].map(|(a, b)| (WorldId::new(a), WorldId::new(b))),
        );
        assert!(p.same_block(WorldId::new(0), WorldId::new(2)));
        assert!(!p.same_block(WorldId::new(0), WorldId::new(3)));
        assert_eq!(p.num_blocks(), 3);
    }

    #[test]
    fn restrict_reindexes_densely() {
        // Blocks {0,1},{2,3},{4,5}; keep {1,2,3,5}.
        let p = Partition::from_key(6, |w| w.index() / 2);
        let keep = ws(6, &[1, 2, 3, 5]);
        let r = p.restrict(&keep);
        assert_eq!(r.num_worlds(), 4);
        // New ids: 1→0, 2→1, 3→2, 5→3. Blocks: {0}, {1,2}, {3}.
        assert_eq!(r.num_blocks(), 3);
        assert!(r.same_block(WorldId::new(1), WorldId::new(2)));
        assert!(!r.same_block(WorldId::new(0), WorldId::new(1)));
    }

    #[test]
    fn union_find_basics() {
        let mut uf = UnionFind::new(4);
        assert!(uf.union(0, 1));
        assert!(!uf.union(1, 0), "already merged");
        assert!(uf.connected(0, 1));
        assert!(!uf.connected(0, 2));
        uf.union(2, 3);
        uf.union(0, 3);
        assert!(uf.connected(1, 2));
    }
}

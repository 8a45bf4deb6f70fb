//! Finite S5 Kripke models.
//!
//! A [`KripkeModel`] is the finite form of a view-based knowledge
//! interpretation `I = (R, π, v)` (Halpern–Moses Section 6): a finite set of
//! worlds (points), one indistinguishability [`Partition`] per agent (the
//! relation "same view at both points"), and a valuation `π` assigning to
//! each ground atom the set of worlds where it holds.

use crate::agent::{AgentGroup, AgentId};
use crate::partition::Partition;
use crate::world::{WorldId, WorldSet};
use std::collections::HashMap;
use std::fmt;

/// Identifier of a ground atomic proposition within a model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AtomId(u32);

impl AtomId {
    /// Creates an atom id from a dense index.
    #[inline]
    pub fn new(index: usize) -> Self {
        AtomId(u32::try_from(index).expect("atom index exceeds u32::MAX"))
    }

    /// Returns the dense index of this atom.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for AtomId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "a{}", self.0)
    }
}

impl From<usize> for AtomId {
    fn from(index: usize) -> Self {
        AtomId::new(index)
    }
}

/// A finite S5 Kripke model: worlds, per-agent partitions, and a valuation.
///
/// Construct one with [`ModelBuilder`]. Every accessibility relation is an
/// equivalence relation by construction, so the S5 axioms hold by
/// Proposition 1 of the paper (and are re-verified by property tests).
///
/// # Examples
///
/// ```
/// use hm_kripke::{ModelBuilder, AgentId, WorldId};
/// // Two worlds: p true in w0 only; agent 0 cannot tell them apart.
/// let mut b = ModelBuilder::new(1);
/// let w0 = b.add_world("w0");
/// let w1 = b.add_world("w1");
/// let p = b.atom("p");
/// b.set_atom(p, w0, true);
/// b.set_partition_by_key(AgentId::new(0), |_w| 0u8);
/// let m = b.build();
/// // Agent 0 does not know p at w0: it considers w1 (where ¬p) possible.
/// let known = m.knowledge(AgentId::new(0), &m.atom_set(p));
/// assert!(!known.contains(w0));
/// ```
#[derive(Debug, Clone)]
pub struct KripkeModel {
    num_worlds: usize,
    /// Labels of the first `world_labels.len()` worlds; later worlds are
    /// unlabelled.
    world_labels: Vec<String>,
    partitions: Vec<Partition>,
    atom_names: Vec<String>,
    atom_index: HashMap<String, AtomId>,
    valuation: Vec<WorldSet>,
}

impl KripkeModel {
    /// Number of worlds.
    pub fn num_worlds(&self) -> usize {
        self.num_worlds
    }

    /// Number of agents.
    pub fn num_agents(&self) -> usize {
        self.partitions.len()
    }

    /// Number of ground atoms.
    pub fn num_atoms(&self) -> usize {
        self.atom_names.len()
    }

    /// The group of all agents of this model.
    pub fn all_agents(&self) -> AgentGroup {
        AgentGroup::all(self.num_agents())
    }

    /// All world ids of this model, in order.
    pub fn worlds(&self) -> impl Iterator<Item = WorldId> {
        (0..self.num_worlds).map(WorldId::new)
    }

    /// The label attached to a world at build time (`""` for worlds added
    /// by [`ModelBuilder::add_worlds`]).
    ///
    /// # Panics
    ///
    /// Panics if `w` is outside the universe.
    pub fn world_label(&self, w: WorldId) -> &str {
        assert!(w.index() < self.num_worlds, "world outside universe");
        self.world_labels.get(w.index()).map_or("", String::as_str)
    }

    /// Looks up a world by its label (linear scan).
    #[cfg(test)]
    fn world_by_label(&self, label: &str) -> Option<WorldId> {
        self.world_labels
            .iter()
            .position(|l| l == label)
            .map(WorldId::new)
    }

    /// Agent `i`'s indistinguishability partition.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn partition(&self, i: AgentId) -> &Partition {
        &self.partitions[i.index()]
    }

    /// Resolves an atom name, if declared.
    pub fn atom_id(&self, name: &str) -> Option<AtomId> {
        self.atom_index.get(name).copied()
    }

    /// The declared name of an atom.
    pub fn atom_name(&self, a: AtomId) -> &str {
        &self.atom_names[a.index()]
    }

    /// The set of worlds where atom `a` holds (`π⁻¹(a)`).
    pub fn atom_set(&self, a: AtomId) -> WorldSet {
        self.valuation[a.index()].clone()
    }

    /// The set of worlds where atom `a` holds, borrowed.
    pub(crate) fn atom_worlds(&self, a: AtomId) -> &WorldSet {
        &self.valuation[a.index()]
    }

    /// Whether atom `a` holds at world `w`.
    pub fn atom_holds(&self, a: AtomId, w: WorldId) -> bool {
        self.valuation[a.index()].contains(w)
    }

    /// The empty set over this model's universe.
    pub fn empty_set(&self) -> WorldSet {
        WorldSet::empty(self.num_worlds)
    }

    /// The full set over this model's universe.
    pub fn full_set(&self) -> WorldSet {
        WorldSet::full(self.num_worlds)
    }

    /// `K_i(A)`: worlds where agent `i` knows the fact denoted by `A`
    /// (Appendix A clause (f)).
    pub fn knowledge(&self, i: AgentId, a: &WorldSet) -> WorldSet {
        self.partitions[i.index()].knowledge(a)
    }

    /// `¬K_i¬(A)`: worlds where agent `i` considers `A` possible.
    pub fn possibility(&self, i: AgentId, a: &WorldSet) -> WorldSet {
        self.partitions[i.index()].possibility(a)
    }

    /// `E_G(A) = ⋂_{i∈G} K_i(A)`: everyone in `G` knows (Section 3).
    pub fn everyone_set(&self, g: &AgentGroup, a: &WorldSet) -> WorldSet {
        let mut out = self.full_set();
        for i in g.iter() {
            out.intersect_with(&self.knowledge(i, a));
        }
        out
    }

    /// `S_G(A) = ⋃_{i∈G} K_i(A)`: someone in `G` knows (Section 3).
    pub fn someone_set(&self, g: &AgentGroup, a: &WorldSet) -> WorldSet {
        let mut out = self.empty_set();
        for i in g.iter() {
            out.union_with(&self.knowledge(i, a));
        }
        out
    }

    /// `D_G(A)`: distributed knowledge — knowledge of the agent whose view is
    /// the group's joint view, i.e. the kernel under the *meet* of G's
    /// partitions (Section 6 clause (g) and surrounding discussion).
    pub fn distributed_knowledge(&self, g: &AgentGroup, a: &WorldSet) -> WorldSet {
        self.joint_partition(g).knowledge(a)
    }

    /// The meet of the group's partitions (the joint view `v(G,·)`).
    fn joint_partition(&self, g: &AgentGroup) -> Partition {
        let mut it = g.iter();
        let first = it.next().expect("group is non-empty");
        let mut acc = self.partitions[first.index()].clone();
        for i in it {
            acc = acc.meet(&self.partitions[i.index()]);
        }
        acc
    }

    /// The join of the group's partitions: its blocks are the G-reachability
    /// components of Section 6 (connected components of the union of the
    /// members' edges).
    pub fn reachability_partition(&self, g: &AgentGroup) -> Partition {
        let mut it = g.iter();
        let first = it.next().expect("group is non-empty");
        let mut acc = self.partitions[first.index()].clone();
        for i in it {
            acc = acc.join(&self.partitions[i.index()]);
        }
        acc
    }

    /// `C_G(A)`: common knowledge, computed via the G-reachability
    /// characterisation — `C_G A` holds at `w` iff `A` holds at every world
    /// G-reachable from `w` in finitely many steps (Section 6).
    ///
    /// Rather than materialising the reachability partition (pairwise
    /// joins with a fresh partition per agent), this runs a BFS from `¬A`
    /// over the union of the group's indistinguishability relations: a
    /// world fails `C_G A` iff it can reach a `¬A` world. The frontier
    /// advances one whole relation at a time — each sweep absorbs every
    /// block touching the closure so far, word-wise for large blocks — and
    /// each `(agent, block)` pair is absorbed at most once overall.
    ///
    /// [`common_knowledge_gfp`](Self::common_knowledge_gfp) computes the same
    /// set from the fixed-point definition; tests assert they agree.
    pub fn common_knowledge(&self, g: &AgentGroup, a: &WorldSet) -> WorldSet {
        assert_eq!(a.universe_len(), self.num_worlds, "universe mismatch");
        let mut closed = a.complement();
        if closed.is_empty() {
            return self.full_set();
        }
        let agents: Vec<&Partition> = g.iter().map(|i| &self.partitions[i.index()]).collect();
        let mut done: Vec<Vec<bool>> = agents.iter().map(|p| vec![false; p.num_blocks()]).collect();
        let mut scratch = self.empty_set();
        let mut grew = true;
        let mut forward = true;
        while grew {
            grew = false;
            for (gi, p) in agents.iter().enumerate() {
                grew |= p.absorb_touched_blocks(&mut closed, &mut done[gi], &mut scratch, forward);
            }
            // Alternate scan direction so block chains ordered against one
            // direction still close in O(1) sweeps.
            forward = !forward;
        }
        closed.complement()
    }

    /// `C_G(A)` as the greatest fixed point of `X ↦ E_G(A ∩ X)` (the
    /// definitional form, Section 10 / Appendix A), by downward iteration
    /// from the full set. This is the reference the reachability form is
    /// tested against.
    pub fn common_knowledge_gfp(&self, g: &AgentGroup, a: &WorldSet) -> WorldSet {
        WorldSet::gfp(self.num_worlds, |x| {
            self.everyone_set(g, &a.intersection(x))
        })
    }

    /// `true` iff the fact denoted by `A` is *valid in the system*: holds at
    /// every world. Validity is the hypothesis of the rule of necessitation
    /// R1 and the induction rule C2.
    pub fn is_valid(&self, a: &WorldSet) -> bool {
        a.is_full()
    }

    /// Returns a model restricted to the worlds in `keep` (used by public
    /// announcements), together with the dense old→new re-indexing.
    ///
    /// # Panics
    ///
    /// Panics if `keep` is empty: a Kripke model needs at least one world.
    pub fn restrict(&self, keep: &WorldSet) -> (KripkeModel, WorldRemap) {
        assert!(!keep.is_empty(), "cannot restrict a model to no worlds");
        assert_eq!(keep.universe_len(), self.num_worlds, "universe mismatch");
        let old_of_new: Vec<u32> = keep.iter().map(|w| w.index() as u32).collect();
        let mut new_of_old = vec![u32::MAX; self.num_worlds];
        for (new, &old) in old_of_new.iter().enumerate() {
            new_of_old[old as usize] = new as u32;
        }
        let n_new = old_of_new.len();
        let model = KripkeModel {
            num_worlds: n_new,
            // Old ids ascend, so the labelled survivors are a prefix.
            world_labels: old_of_new
                .iter()
                .map_while(|&o| self.world_labels.get(o as usize).cloned())
                .collect(),
            partitions: self.partitions.iter().map(|p| p.restrict(keep)).collect(),
            atom_names: self.atom_names.clone(),
            atom_index: self.atom_index.clone(),
            valuation: self
                .valuation
                .iter()
                .map(|v| {
                    WorldSet::from_iter_len(
                        n_new,
                        old_of_new
                            .iter()
                            .enumerate()
                            .filter(|&(_new, &old)| v.contains(WorldId::new(old as usize)))
                            .map(|(new, _)| WorldId::new(new)),
                    )
                })
                .collect(),
        };
        (
            model,
            WorldRemap {
                old_of_new,
                new_of_old,
            },
        )
    }
}

/// The world re-indexing produced by [`KripkeModel::restrict`].
#[derive(Debug, Clone)]
pub struct WorldRemap {
    old_of_new: Vec<u32>,
    new_of_old: Vec<u32>,
}

impl WorldRemap {
    /// The old id of a surviving world.
    pub fn old_id(&self, new: WorldId) -> WorldId {
        WorldId::new(self.old_of_new[new.index()] as usize)
    }

    /// The new id of an old world, if it survived.
    pub fn new_id(&self, old: WorldId) -> Option<WorldId> {
        match self.new_of_old[old.index()] {
            u32::MAX => None,
            n => Some(WorldId::new(n as usize)),
        }
    }
}

/// Incremental builder for [`KripkeModel`] (C-BUILDER).
///
/// Worlds and atoms may be declared in any order; agent partitions default
/// to *discrete* (perfect information) until set.
#[derive(Debug, Clone)]
pub struct ModelBuilder {
    num_agents: usize,
    num_worlds: usize,
    /// Labels of the first `world_labels.len()` worlds, as in
    /// [`KripkeModel`].
    world_labels: Vec<String>,
    partitions: Vec<Option<Partition>>,
    atom_names: Vec<String>,
    atom_index: HashMap<String, AtomId>,
    /// Per-atom list of worlds set true (resolved to bitsets at build).
    true_at: Vec<Vec<WorldId>>,
}

impl ModelBuilder {
    /// Starts a model with `num_agents` agents and no worlds.
    ///
    /// # Panics
    ///
    /// Panics if `num_agents == 0`.
    pub fn new(num_agents: usize) -> Self {
        assert!(num_agents > 0, "a model needs at least one agent");
        ModelBuilder {
            num_agents,
            num_worlds: 0,
            world_labels: Vec::new(),
            partitions: vec![None; num_agents],
            atom_names: Vec::new(),
            atom_index: HashMap::new(),
            true_at: Vec::new(),
        }
    }

    /// Number of worlds added so far.
    pub fn num_worlds(&self) -> usize {
        self.num_worlds
    }

    /// Number of agents the model will have.
    pub fn num_agents(&self) -> usize {
        self.num_agents
    }

    /// Adds a world with a human-readable label; returns its id.
    pub fn add_world(&mut self, label: impl Into<String>) -> WorldId {
        let id = WorldId::new(self.num_worlds);
        self.world_labels.resize(self.num_worlds, String::new());
        self.world_labels.push(label.into());
        self.num_worlds += 1;
        id
    }

    /// Bulk-adds `count` unlabelled worlds and returns the id of the first.
    ///
    /// Nothing is stored for these worlds (their label is `""`); callers
    /// that need diagnostic names for them (e.g. interpreted systems,
    /// whose worlds are points `run@t`) keep their own lazy name scheme
    /// instead of paying a `format!` per world at build time.
    pub fn add_worlds(&mut self, count: usize) -> WorldId {
        let id = WorldId::new(self.num_worlds);
        self.num_worlds += count;
        id
    }

    /// Declares (or looks up) an atom by name; returns its id.
    pub fn atom(&mut self, name: impl Into<String>) -> AtomId {
        let name = name.into();
        if let Some(&id) = self.atom_index.get(&name) {
            return id;
        }
        let id = AtomId::new(self.atom_names.len());
        self.atom_names.push(name.clone());
        self.atom_index.insert(name, id);
        self.true_at.push(Vec::new());
        id
    }

    /// Sets the truth value of `atom` at `world`.
    pub fn set_atom(&mut self, atom: AtomId, world: WorldId, value: bool) -> &mut Self {
        let list = &mut self.true_at[atom.index()];
        if value {
            // Duplicates are tolerated: the valuation is materialised as
            // a bit set at `build`, so a repeated push is idempotent
            // there — and an O(n) containment scan here would make bulk
            // valuation loading quadratic (it dominated whole-system
            // builds at ~10^5 worlds before it was dropped).
            list.push(world);
        } else {
            list.retain(|&w| w != world);
        }
        self
    }

    /// Sets agent `i`'s partition explicitly.
    ///
    /// # Panics
    ///
    /// Panics at [`build`](Self::build) time if the partition's universe
    /// does not match the final number of worlds.
    pub fn set_partition(&mut self, i: AgentId, partition: Partition) -> &mut Self {
        self.partitions[i.index()] = Some(partition);
        self
    }

    /// Sets agent `i`'s partition from a view-key function over the worlds
    /// added *so far* (call after all worlds are added).
    pub fn set_partition_by_key<K: std::hash::Hash + Eq>(
        &mut self,
        i: AgentId,
        key: impl FnMut(WorldId) -> K,
    ) -> &mut Self {
        let p = Partition::from_key(self.num_worlds, key);
        self.partitions[i.index()] = Some(p);
        self
    }

    /// Finalises the model, moving the builder's partitions and labels
    /// into it.
    ///
    /// # Panics
    ///
    /// Panics if no world was added, or if an explicitly-set partition has
    /// the wrong universe size.
    pub fn build(self) -> KripkeModel {
        let n = self.num_worlds;
        assert!(n > 0, "a model needs at least one world");
        let partitions: Vec<Partition> = self
            .partitions
            .into_iter()
            .enumerate()
            .map(|(i, p)| match p {
                Some(p) => {
                    assert_eq!(
                        p.num_worlds(),
                        n,
                        "agent {i}: partition universe {} != {} worlds",
                        p.num_worlds(),
                        n
                    );
                    p
                }
                None => Partition::discrete(n),
            })
            .collect();
        let valuation = self
            .true_at
            .iter()
            .map(|list| WorldSet::from_iter_len(n, list.iter().copied()))
            .collect();
        KripkeModel {
            num_worlds: n,
            world_labels: self.world_labels,
            partitions,
            atom_names: self.atom_names,
            atom_index: self.atom_index,
            valuation,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The two-world "does agent 0 know p?" model.
    fn two_world_model() -> (KripkeModel, AtomId) {
        let mut b = ModelBuilder::new(2);
        let w0 = b.add_world("p-world");
        let _w1 = b.add_world("not-p-world");
        let p = b.atom("p");
        b.set_atom(p, w0, true);
        // Agent 0 is blind; agent 1 has perfect information.
        b.set_partition_by_key(AgentId::new(0), |_| 0u8);
        (b.build(), p)
    }

    #[test]
    fn builder_roundtrip() {
        let (m, p) = two_world_model();
        assert_eq!(m.num_worlds(), 2);
        assert_eq!(m.num_agents(), 2);
        assert_eq!(m.num_atoms(), 1);
        assert_eq!(m.atom_name(p), "p");
        assert_eq!(m.atom_id("p"), Some(p));
        assert_eq!(m.atom_id("q"), None);
        assert_eq!(m.world_by_label("p-world"), Some(WorldId::new(0)));
        assert_eq!(m.world_by_label("nope"), None);
        assert!(m.atom_holds(p, WorldId::new(0)));
        assert!(!m.atom_holds(p, WorldId::new(1)));
    }

    #[test]
    fn atom_interning_and_unset() {
        let mut b = ModelBuilder::new(1);
        let w = b.add_world("w");
        let p1 = b.atom("p");
        let p2 = b.atom("p");
        assert_eq!(p1, p2, "atoms are interned by name");
        b.set_atom(p1, w, true);
        b.set_atom(p1, w, false);
        assert!(!b.build().atom_holds(p1, w));
    }

    #[test]
    fn knowledge_requires_distinguishing() {
        let (m, p) = two_world_model();
        let pa = m.atom_set(p);
        // Blind agent 0 knows p nowhere.
        assert!(m.knowledge(AgentId::new(0), &pa).is_empty());
        // Perfect agent 1 knows p exactly where p holds.
        assert_eq!(m.knowledge(AgentId::new(1), &pa), pa);
        // Blind agent still considers p possible everywhere.
        assert!(m.possibility(AgentId::new(0), &pa).is_full());
    }

    #[test]
    fn everyone_someone_distributed() {
        let (m, p) = two_world_model();
        let g = m.all_agents();
        let pa = m.atom_set(p);
        let (k0, k1) = (
            m.knowledge(AgentId::new(0), &pa),
            m.knowledge(AgentId::new(1), &pa),
        );
        // E = K0 ∩ K1 = ∅; S = K0 ∪ K1 = {w0}; D uses the meet (= discrete).
        assert!(k0.intersection(&k1).is_empty());
        assert!(m.everyone_set(&g, &pa).is_empty());
        assert_eq!(k0.union(&k1), pa);
        assert_eq!(m.someone_set(&g, &pa), pa);
        assert_eq!(m.distributed_knowledge(&g, &pa), pa);
    }

    #[test]
    fn common_knowledge_two_ways_agree() {
        let (m, p) = two_world_model();
        let g = m.all_agents();
        let pa = m.atom_set(p);
        assert_eq!(m.common_knowledge(&g, &pa), m.common_knowledge_gfp(&g, &pa));
        // p is not common knowledge anywhere (agent 0's blindness connects
        // the worlds), but the full set is.
        assert!(m.common_knowledge(&g, &pa).is_empty());
        assert!(m.common_knowledge(&g, &m.full_set()).is_full());
    }

    #[test]
    fn restrict_remaps_everything() {
        let mut b = ModelBuilder::new(1);
        let w0 = b.add_world("a");
        let w1 = b.add_world("b");
        let w2 = b.add_world("c");
        let p = b.atom("p");
        b.set_atom(p, w1, true);
        b.set_atom(p, w2, true);
        b.set_partition_by_key(AgentId::new(0), |w| w.index() / 2); // {a,b},{c}
        let m = b.build();
        let keep = WorldSet::from_iter_len(3, [w1, w2]);
        let (m2, remap) = m.restrict(&keep);
        assert_eq!(m2.num_worlds(), 2);
        assert_eq!(remap.new_id(w0), None);
        assert_eq!(remap.new_id(w1), Some(WorldId::new(0)));
        assert_eq!(remap.old_id(WorldId::new(1)), w2);
        assert_eq!(m2.world_label(WorldId::new(0)), "b");
        // p now holds everywhere, and the partition separated b from c.
        assert!(m2.atom_set(m2.atom_id("p").unwrap()).is_full());
        assert_eq!(m2.partition(AgentId::new(0)).num_blocks(), 2);
    }

    #[test]
    fn unlabelled_worlds_read_empty() {
        let mut b = ModelBuilder::new(1);
        b.add_worlds(2);
        let named = b.add_world("named");
        b.add_worlds(2);
        assert_eq!(b.num_worlds(), 5);
        let m = b.build();
        let labels: Vec<&str> = m.worlds().map(|w| m.world_label(w)).collect();
        assert_eq!(labels, ["", "", "named", "", ""]);
        let keep = WorldSet::from_iter_len(5, [WorldId::new(1), named, WorldId::new(4)]);
        let (m2, _) = m.restrict(&keep);
        let labels: Vec<&str> = m2.worlds().map(|w| m2.world_label(w)).collect();
        assert_eq!(labels, ["", "named", ""]);
    }

    #[test]
    #[should_panic(expected = "at least one world")]
    fn build_without_worlds_panics() {
        ModelBuilder::new(1).build();
    }

    #[test]
    #[should_panic(expected = "no worlds")]
    fn restrict_to_empty_panics() {
        let (m, _) = two_world_model();
        m.restrict(&m.empty_set());
    }
}

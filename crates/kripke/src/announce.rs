//! Public announcements.
//!
//! Section 2 of Halpern–Moses analyses the muddy-children puzzle: the
//! father's *public announcement* of a fact `φ` transforms the group's state
//! of knowledge by eliminating every world where `φ` fails — afterwards `φ`
//! (and the fact of its announcement) is common knowledge. This module
//! provides that model transformation, both as a materialised sub-model and
//! as a cheap *relativised* view that keeps the original world indexing
//! (convenient for iterated announcements such as the father's repeated
//! questions).

use crate::agent::AgentId;
use crate::model::{KripkeModel, WorldRemap};
use crate::world::WorldSet;

/// Publicly announces the fact denoted by `truth_set`: returns the model
/// restricted to the worlds where the fact holds, or `None` if the
/// announcement is inconsistent (true nowhere).
///
/// After the announcement, the announced fact is common knowledge in the new
/// model (it holds at *every* remaining world), mirroring the role of the
/// father's statement in the puzzle.
///
/// # Examples
///
/// ```
/// use hm_kripke::{ModelBuilder, AgentId, announce};
/// let mut b = ModelBuilder::new(1);
/// let w0 = b.add_world("muddy");
/// let w1 = b.add_world("clean");
/// let m_atom = b.atom("m");
/// b.set_atom(m_atom, w0, true);
/// b.set_partition_by_key(AgentId::new(0), |_| 0u8); // cannot tell apart
/// let m = b.build();
/// let (after, _remap) = announce(&m, &m.atom_set(m_atom)).expect("consistent");
/// // Only the muddy world survives; m is now known (indeed common knowledge).
/// assert_eq!(after.num_worlds(), 1);
/// ```
pub fn announce(model: &KripkeModel, truth_set: &WorldSet) -> Option<(KripkeModel, WorldRemap)> {
    if truth_set.is_empty() {
        return None;
    }
    Some(model.restrict(truth_set))
}

/// A non-materialised restriction of a model to a set of surviving worlds.
///
/// Knowledge is *relativised* to the surviving set: agent `i`'s
/// accessibility at `w` is `[w]_i ∩ alive`. Iterated announcements just
/// shrink `alive`, with no re-indexing — this is how the muddy-children
/// rounds are computed. Group operators over the survivors are evaluated
/// on the materialised model ([`to_model`](Self::to_model)).
///
/// # Examples
///
/// ```
/// use hm_kripke::{ModelBuilder, AgentId, Restriction};
/// let mut b = ModelBuilder::new(1);
/// let w0 = b.add_world("w0");
/// let w1 = b.add_world("w1");
/// let p = b.atom("p");
/// b.set_atom(p, w0, true);
/// b.set_partition_by_key(AgentId::new(0), |_| 0u8);
/// let m = b.build();
/// let mut r = Restriction::new(&m);
/// r.announce(&m.atom_set(p)).expect("consistent");
/// assert!(r.knowledge(AgentId::new(0), &m.atom_set(p)).contains(w0));
/// ```
#[derive(Debug, Clone)]
pub struct Restriction<'a> {
    model: &'a KripkeModel,
    alive: WorldSet,
}

/// Error returned when an announcement would eliminate every world.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InconsistentAnnouncement;

impl std::fmt::Display for InconsistentAnnouncement {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "announcement is true at no surviving world")
    }
}

impl std::error::Error for InconsistentAnnouncement {}

impl<'a> Restriction<'a> {
    /// Starts with all worlds of `model` alive.
    pub fn new(model: &'a KripkeModel) -> Self {
        Restriction {
            model,
            alive: model.full_set(),
        }
    }

    /// The underlying model.
    pub fn model(&self) -> &'a KripkeModel {
        self.model
    }

    /// The currently surviving worlds (in the original indexing).
    pub fn alive(&self) -> &WorldSet {
        &self.alive
    }

    /// Announces the fact denoted by `truth_set` (original indexing):
    /// surviving worlds become `alive ∩ truth_set`.
    ///
    /// # Errors
    ///
    /// Returns [`InconsistentAnnouncement`] (leaving the restriction
    /// unchanged) if the intersection is empty.
    pub fn announce(&mut self, truth_set: &WorldSet) -> Result<(), InconsistentAnnouncement> {
        let next = self.alive.intersection(truth_set);
        if next.is_empty() {
            return Err(InconsistentAnnouncement);
        }
        self.alive = next;
        Ok(())
    }

    /// Relativised `K_i(A)`: worlds `w ∈ alive` with `[w]_i ∩ alive ⊆ A`,
    /// i.e. `alive ∩ K_i(A ∪ ¬alive)` — the unrestricted `K_i`, with the
    /// eliminated worlds counting as no evidence against `A`.
    pub fn knowledge(&self, i: AgentId, a: &WorldSet) -> WorldSet {
        let mut a_or_dead = self.alive.complement();
        a_or_dead.union_with(a);
        let mut out = self.model.partition(i).knowledge(&a_or_dead);
        out.intersect_with(&self.alive);
        out
    }

    /// Materialises the restriction as a standalone model.
    pub fn to_model(&self) -> (KripkeModel, WorldRemap) {
        self.model.restrict(&self.alive)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ModelBuilder;
    use crate::world::WorldId;

    /// Three worlds; agent 0 groups {0,1}, agent 1 groups {1,2}.
    fn chain_model() -> KripkeModel {
        let mut b = ModelBuilder::new(2);
        for i in 0..3 {
            b.add_world(format!("w{i}"));
        }
        let p = b.atom("p");
        b.set_atom(p, WorldId::new(0), true);
        b.set_atom(p, WorldId::new(1), true);
        b.set_partition_by_key(AgentId::new(0), |w| w.index().min(1));
        b.set_partition_by_key(AgentId::new(1), |w| w.index().max(1));
        b.build()
    }

    #[test]
    fn announce_makes_fact_common_knowledge() {
        let m = chain_model();
        let p = m.atom_id("p").unwrap();
        let (after, _) = announce(&m, &m.atom_set(p)).unwrap();
        let g = after.all_agents();
        let p_after = after.atom_set(after.atom_id("p").unwrap());
        assert!(after.common_knowledge(&g, &p_after).is_full());
    }

    #[test]
    fn announce_inconsistent_returns_none() {
        let m = chain_model();
        assert!(announce(&m, &m.empty_set()).is_none());
    }

    #[test]
    fn restriction_agrees_with_materialised_model() {
        let m = chain_model();
        let p = m.atom_id("p").unwrap();
        let pa = m.atom_set(p);
        let mut r = Restriction::new(&m);
        r.announce(&pa).unwrap();
        let (sub, remap) = r.to_model();
        // Compare relativised K_0 and K_1 against the materialised sub-model.
        let sub_p = sub.atom_set(sub.atom_id("p").unwrap());
        for i in [AgentId::new(0), AgentId::new(1)] {
            let (rel, sub_set) = (r.knowledge(i, &pa), sub.knowledge(i, &sub_p));
            let lifted: Vec<bool> = sub
                .worlds()
                .map(|w| rel.contains(remap.old_id(w)))
                .collect();
            let direct: Vec<bool> = sub.worlds().map(|w| sub_set.contains(w)).collect();
            assert_eq!(lifted, direct);
        }
    }

    #[test]
    fn restriction_rejects_inconsistent_and_preserves_state() {
        let m = chain_model();
        let mut r = Restriction::new(&m);
        let before = r.alive().clone();
        assert_eq!(r.announce(&m.empty_set()), Err(InconsistentAnnouncement));
        assert_eq!(r.alive(), &before, "failed announcement must not mutate");
        assert!(!InconsistentAnnouncement.to_string().is_empty());
    }

    #[test]
    fn iterated_announcements_shrink_monotonically() {
        let m = chain_model();
        let p = m.atom_id("p").unwrap();
        let mut r = Restriction::new(&m);
        r.announce(&m.atom_set(p)).unwrap();
        let first = r.alive().clone();
        // Announce what agent 1 knows after round one.
        let k1 = r.knowledge(AgentId::new(1), &m.atom_set(p));
        r.announce(&k1).unwrap();
        assert!(r.alive().is_subset(&first));
    }

    #[test]
    fn relativised_knowledge_gains_from_elimination() {
        // In chain_model, agent 0 groups {w1,w2}; at w1 it does not know p
        // (w2 is possible, ¬p there). After announcing p, w2 dies and
        // agent 0 knows p at w1.
        let m = chain_model();
        let p = m.atom_id("p").unwrap();
        let pa = m.atom_set(p);
        let before = m.knowledge(AgentId::new(0), &pa);
        assert!(!before.contains(WorldId::new(1)));
        let mut r = Restriction::new(&m);
        r.announce(&pa).unwrap();
        assert!(r.knowledge(AgentId::new(0), &pa).contains(WorldId::new(1)));
    }
}

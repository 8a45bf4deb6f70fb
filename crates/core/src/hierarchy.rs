//! The hierarchy of states of group knowledge (Section 3).
//!
//! `C_G φ ⊃ … ⊃ E_G^{k+1} φ ⊃ E_G^k φ ⊃ … ⊃ E_G φ ⊃ S_G φ ⊃ D_G φ ⊃ φ`.
//!
//! The paper claims the chain of implications is always valid, is *strict*
//! in genuinely distributed systems (every adjacent pair separated by some
//! situation), and *collapses* when all agents share one view (common
//! memory, the `Λ` interpretation). Experiment E2 checks all three.

use hm_kripke::{AgentGroup, WorldId, WorldSet};
use hm_logic::Frame;

/// One level of the hierarchy, from weakest to strongest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Level {
    /// The fact itself.
    Fact,
    /// `D_G` — distributed knowledge.
    Distributed,
    /// `S_G` — someone knows.
    Someone,
    /// `E_G^k` — everyone knows, iterated (`k ≥ 1`).
    EveryoneK(u32),
    /// `C_G` — common knowledge.
    Common,
}

impl std::fmt::Display for Level {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Level::Fact => write!(f, "phi"),
            Level::Distributed => write!(f, "D"),
            Level::Someone => write!(f, "S"),
            Level::EveryoneK(1) => write!(f, "E"),
            Level::EveryoneK(k) => write!(f, "E^{k}"),
            Level::Common => write!(f, "C"),
        }
    }
}

/// The denotations of every level of the hierarchy for one fact.
#[derive(Debug, Clone)]
pub struct Hierarchy {
    /// `(level, set of worlds where it holds)`, weakest first:
    /// `φ, D, S, E, E², …, E^k_max, C`.
    pub levels: Vec<(Level, WorldSet)>,
}

/// Computes the hierarchy chain for `fact` over group `g`, with `E^k`
/// levels up to `k_max`.
pub fn hierarchy(frame: &dyn Frame, g: &AgentGroup, fact: &WorldSet, k_max: u32) -> Hierarchy {
    let model = frame.model();
    let mut levels = Vec::with_capacity(4 + k_max as usize);
    levels.push((Level::Fact, fact.clone()));
    levels.push((Level::Distributed, model.distributed_knowledge(g, fact)));
    levels.push((Level::Someone, model.someone_set(g, fact)));
    let mut e = fact.clone();
    for k in 1..=k_max {
        e = model.everyone_set(g, &e);
        levels.push((Level::EveryoneK(k), e.clone()));
    }
    levels.push((Level::Common, model.common_knowledge(g, fact)));
    Hierarchy { levels }
}

impl Hierarchy {
    /// `true` iff every stronger level is included in every weaker one
    /// (the paper's chain of implications) — must hold in every model.
    pub fn inclusions_hold(&self) -> bool {
        self.levels.windows(2).all(|w| w[1].1.is_subset(&w[0].1))
    }

    /// For each adjacent pair (weaker, stronger), a world where the weaker
    /// level holds and the stronger fails — `None` where the two coincide.
    /// A fully strict hierarchy has a witness at every step.
    pub fn strictness_witnesses(&self) -> Vec<Option<WorldId>> {
        self.levels
            .windows(2)
            .map(|w| w[0].1.difference(&w[1].1).first())
            .collect()
    }

    /// `true` iff all levels denote the same set (the collapsed hierarchy
    /// of shared-memory / `Λ`-view systems).
    #[cfg(test)]
    fn collapsed(&self) -> bool {
        self.levels.windows(2).all(|w| w[0].1 == w[1].1)
    }

    /// `true` iff `D`, `S`, `E^k` and `C` all coincide, while possibly
    /// differing from the bare fact (the paper's common-memory claim:
    /// `Cφ ≡ E^kφ ≡ Eφ ≡ Sφ ≡ Dφ`).
    pub fn knowledge_levels_collapsed(&self) -> bool {
        self.levels[1..].windows(2).all(|w| w[0].1 == w[1].1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::puzzles::muddy::MuddyChildren;
    use hm_kripke::{random_model, AgentId, ModelBuilder, Partition, RandomModelSpec};
    use hm_logic::{evaluate, Formula};

    #[test]
    fn inclusions_hold_on_random_models() {
        for seed in 0..25 {
            let m = random_model(seed, RandomModelSpec::default());
            let g = AgentGroup::all(m.num_agents());
            let fact = Frame::atom_set(&m, "q0").unwrap();
            let h = hierarchy(&m, &g, &fact, 4);
            assert!(h.inclusions_hold(), "seed {seed}");
        }
    }

    #[test]
    fn muddy_children_hierarchy_is_strict_above_distributed() {
        // n = 5 children, fact m: every adjacent pair from D upward is
        // separated. (φ and D coincide here: the joint view determines
        // the whole world, so D m ≡ m — see the next test for a model
        // separating φ from D.)
        let p = MuddyChildren::new(5);
        let h = hierarchy(p.model(), &p.group(), &p.m_set(), 4);
        assert!(h.inclusions_hold());
        let witnesses = h.strictness_witnesses();
        for (i, w) in witnesses.iter().enumerate().skip(2) {
            assert!(w.is_some(), "no witness separating level pair {i}");
        }
        assert!(witnesses[0].is_none(), "D m ≡ m in the pure muddy model");
        assert!(
            witnesses[1].is_none(),
            "S m ≡ D m here: every other child sees the mud"
        );
        assert!(!h.collapsed());
    }

    #[test]
    fn split_secret_separates_distributed_from_someone() {
        // The paper's own D-example: one agent knows ψ (the value of x),
        // the other knows ψ ⊃ φ (the value of y); together they know
        // φ = "x equals y", but neither knows it alone.
        let mut b = ModelBuilder::new(2);
        for (x, y) in [(0u64, 0u64), (0, 1), (1, 0), (1, 1)] {
            b.add_world(format!("x{x}y{y}"));
        }
        let eq = b.atom("x_eq_y");
        b.set_atom(eq, 0.into(), true);
        b.set_atom(eq, 3.into(), true);
        b.set_partition_by_key(AgentId::new(0), |w| w.index() / 2); // sees x
        b.set_partition_by_key(AgentId::new(1), |w| w.index() % 2); // sees y
        let m = b.build();
        let g = AgentGroup::all(2);
        let h = hierarchy(&m, &g, &Frame::atom_set(&m, "x_eq_y").unwrap(), 1);
        assert!(h.inclusions_hold());
        let w = h.strictness_witnesses();
        assert!(w[0].is_none(), "D(x=y) ≡ x=y: the joint view decides it");
        assert!(
            w[1].is_some(),
            "distributed but nobody knows: D strictly above S"
        );
    }

    #[test]
    fn hidden_coin_separates_fact_from_distributed_knowledge() {
        // Muddy children n = 3 plus a hidden coin no child can see:
        // worlds are (mask, coin); the fact "coin is heads" is not even
        // distributed knowledge, completing the strictness of the chain
        // φ ⊅ D at the bottom of the hierarchy.
        let n = 3usize;
        let mut b = ModelBuilder::new(n);
        for w in 0..(1u64 << (n + 1)) {
            b.add_world(format!("{w:04b}"));
        }
        let heads = b.atom("heads");
        for w in 0..(1u64 << (n + 1)) {
            if w & (1 << n) != 0 {
                b.set_atom(heads, (w as usize).into(), true);
            }
        }
        for i in 0..n {
            // Child i sees everything except its own forehead and the coin.
            let mask = !((1u64 << i) | (1u64 << n));
            b.set_partition_by_key(AgentId::new(i), move |w| (w.index() as u64) & mask);
        }
        let m = b.build();
        let g = AgentGroup::all(n);
        let h = hierarchy(&m, &g, &Frame::atom_set(&m, "heads").unwrap(), 2);
        assert!(h.inclusions_hold());
        let witnesses = h.strictness_witnesses();
        assert!(
            witnesses[0].is_some(),
            "heads holds somewhere without being distributed knowledge"
        );
        // Nobody ever knows the coin: D, S, E, C all empty.
        for (level, set) in &h.levels[1..] {
            assert!(set.is_empty(), "{level} should be empty");
        }
    }

    #[test]
    fn shared_memory_collapses_knowledge_levels() {
        // All agents share the same partition (common memory): blocks by
        // world parity, fact = even worlds. D = S = E^k = C.
        let mut b = ModelBuilder::new(3);
        for i in 0..8 {
            b.add_world(format!("w{i}"));
        }
        let q = b.atom("q");
        for i in [0usize, 2, 4, 6] {
            b.set_atom(q, i.into(), true);
        }
        let shared = Partition::from_key(8, |w| w.index() % 2);
        for i in 0..3 {
            b.set_partition(AgentId::new(i), shared.clone());
        }
        let m = b.build();
        let g = AgentGroup::all(3);
        let h = hierarchy(&m, &g, &Frame::atom_set(&m, "q").unwrap(), 3);
        assert!(h.knowledge_levels_collapsed());
        // Here knowledge coincides with the fact too (parity-measurable).
        assert!(h.collapsed());
    }

    #[test]
    fn e_chain_matches_direct_iteration() {
        let p = MuddyChildren::new(4);
        let m_set = p.m_set();
        let g = p.group();
        let h = hierarchy(p.model(), &g, &m_set, 5);
        for k in 1..=5u32 {
            let ek = Formula::everyone_k(g.clone(), k, Formula::atom("m"));
            let direct = evaluate(p.model(), &ek).unwrap();
            let level = h
                .levels
                .iter()
                .find(|(l, _)| *l == Level::EveryoneK(k))
                .map(|(_, s)| s.clone())
                .unwrap();
            assert_eq!(direct, level, "k={k}");
        }
    }

    #[test]
    fn level_display() {
        assert_eq!(Level::Fact.to_string(), "phi");
        assert_eq!(Level::EveryoneK(1).to_string(), "E");
        assert_eq!(Level::EveryoneK(3).to_string(), "E^3");
        assert_eq!(Level::Common.to_string(), "C");
        assert_eq!(Level::Distributed.to_string(), "D");
        assert_eq!(Level::Someone.to_string(), "S");
    }
}

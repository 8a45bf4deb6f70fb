//! Evaluation frames: what a formula is checked against.
//!
//! A [`Frame`] is anything that supplies a finite universe of worlds, a
//! valuation for ground atoms, and the knowledge operators; a finite S5
//! [`KripkeModel`] is the canonical instance. Frames with *run/time*
//! structure (the interpreted systems of Sections 5–6, built in `hm-runs`)
//! additionally expose a [`TemporalStructure`], enabling the temporal
//! operators of Sections 11–12.

use hm_kripke::{AgentGroup, AgentId, KripkeModel, WorldId, WorldSet};

/// A finite evaluation frame for the static (non-temporal) fragment.
///
/// Implementors must guarantee that `knowledge_set` and `distributed_set`
/// are the kernels of equivalence relations (S5). The group operators
/// `everyone_set` (`E_G`) and `someone_set` (`S_G`) are built from
/// `knowledge_set` here, once for every frame; the default `common_set`
/// computes the greatest fixed point of `X ↦ E_G(A ∩ X)` and may be
/// overridden with a faster characterisation.
pub trait Frame {
    /// Number of worlds (points) in the frame.
    fn num_worlds(&self) -> usize;

    /// Number of agents.
    fn num_agents(&self) -> usize;

    /// The set of worlds where the named ground atom holds, or `None` if
    /// the atom is not part of this frame's vocabulary.
    fn atom_set(&self, name: &str) -> Option<WorldSet>;

    /// `K_i(A)`.
    fn knowledge_set(&self, i: AgentId, a: &WorldSet) -> WorldSet;

    /// `D_G(A)` (kernel of the joint view).
    fn distributed_set(&self, g: &AgentGroup, a: &WorldSet) -> WorldSet;

    /// `E_G(A) = ⋂_{i∈G} K_i(A)`.
    fn everyone_set(&self, g: &AgentGroup, a: &WorldSet) -> WorldSet {
        let mut out = WorldSet::full(self.num_worlds());
        for i in g.iter() {
            out.intersect_with(&self.knowledge_set(i, a));
        }
        out
    }

    /// `S_G(A) = ⋃_{i∈G} K_i(A)`: someone in `G` knows (Section 3).
    fn someone_set(&self, g: &AgentGroup, a: &WorldSet) -> WorldSet {
        let mut out = WorldSet::empty(self.num_worlds());
        for i in g.iter() {
            out.union_with(&self.knowledge_set(i, a));
        }
        out
    }

    /// `C_G(A)`, by default as the greatest fixed point of
    /// `X ↦ E_G(A ∩ X)`.
    fn common_set(&self, g: &AgentGroup, a: &WorldSet) -> WorldSet {
        WorldSet::gfp(self.num_worlds(), |x| {
            self.everyone_set(g, &a.intersection(x))
        })
    }

    /// Run/time structure, when this frame has it. Frames returning `None`
    /// reject temporal operators at evaluation time.
    fn temporal(&self) -> Option<&dyn TemporalStructure> {
        None
    }

    /// The frame's dense atom table, when it has one. The default shim
    /// returns `None`, meaning the frame only supports name-based lookup
    /// through [`atom_set`](Self::atom_set) — existing frames keep working
    /// unchanged; frames with an interned vocabulary (Kripke models,
    /// interpreted systems) expose it so compiled formulas resolve atoms
    /// by id instead of by `&str`.
    fn atom_table(&self) -> Option<&dyn AtomTable> {
        None
    }
}

/// A dense atom vocabulary: the id-based fast path of a [`Frame`] used by
/// compiled evaluation ([`compile`](crate::compile)). Ids are
/// frame-local indices `0..` with no meaning across frames.
pub trait AtomTable {
    /// Resolves an atom name to its frame-local dense id, if interpreted.
    fn atom_index(&self, name: &str) -> Option<usize>;

    /// The set of worlds where the atom with dense id `id` holds.
    ///
    /// # Panics
    ///
    /// May panic if `id` was not produced by
    /// [`atom_index`](Self::atom_index) on the same frame.
    fn atom_set_by_id(&self, id: usize) -> WorldSet;
}

/// Run/time structure over the worlds of a frame.
///
/// Worlds are grouped into *runs*; within a run, worlds sit at dense time
/// indices `0..run_len`. Truncation of the paper's infinite runs at a
/// finite horizon is the caller's responsibility (choose horizons larger
/// than the modal depth under test).
pub trait TemporalStructure {
    /// Number of runs.
    fn num_runs(&self) -> usize;

    /// The run containing world `w`.
    fn run_of(&self, w: WorldId) -> usize;

    /// The time index of world `w` within its run.
    fn time_of(&self, w: WorldId) -> u64;

    /// The world at `(run, t)`, if `t < run_len(run)`.
    fn point(&self, run: usize, t: u64) -> Option<WorldId>;

    /// Number of points in `run` (times are `0..run_len`).
    fn run_len(&self, run: usize) -> u64;

    /// Agent `i`'s clock reading at the point `(run, t)`; `None` when the
    /// agent has not yet woken up or the system has no clocks.
    fn clock(&self, i: AgentId, run: usize, t: u64) -> Option<u64>;
}

impl Frame for KripkeModel {
    fn num_worlds(&self) -> usize {
        KripkeModel::num_worlds(self)
    }

    fn num_agents(&self) -> usize {
        KripkeModel::num_agents(self)
    }

    fn atom_set(&self, name: &str) -> Option<WorldSet> {
        self.atom_id(name).map(|a| KripkeModel::atom_set(self, a))
    }

    fn knowledge_set(&self, i: AgentId, a: &WorldSet) -> WorldSet {
        self.knowledge(i, a)
    }

    fn distributed_set(&self, g: &AgentGroup, a: &WorldSet) -> WorldSet {
        self.distributed_knowledge(g, a)
    }

    fn common_set(&self, g: &AgentGroup, a: &WorldSet) -> WorldSet {
        // Fast path: G-reachability components (Section 6).
        self.common_knowledge(g, a)
    }

    fn atom_table(&self) -> Option<&dyn AtomTable> {
        Some(self)
    }
}

impl AtomTable for KripkeModel {
    fn atom_index(&self, name: &str) -> Option<usize> {
        self.atom_id(name).map(|a| a.index())
    }

    fn atom_set_by_id(&self, id: usize) -> WorldSet {
        KripkeModel::atom_set(self, id.into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hm_kripke::ModelBuilder;

    #[test]
    fn kripke_model_implements_frame() {
        let mut b = ModelBuilder::new(2);
        let w0 = b.add_world("w0");
        b.add_world("w1");
        let p = b.atom("p");
        b.set_atom(p, w0, true);
        b.set_partition_by_key(AgentId::new(0), |_| ());
        let m = b.build();
        let f: &dyn Frame = &m;
        assert_eq!(f.num_worlds(), 2);
        assert_eq!(f.num_agents(), 2);
        assert!(f.atom_set("p").is_some());
        assert!(f.atom_set("zz").is_none());
        assert!(f.temporal().is_none());
        let pa = f.atom_set("p").unwrap();
        // Default everyone_set equals intersection of knowledge.
        let e = f.everyone_set(&AgentGroup::all(2), &pa);
        assert!(e.is_empty());
        // ...and someone_set their union: the sighted agent 1 knows p at w0.
        assert_eq!(f.someone_set(&AgentGroup::all(2), &pa), pa);
    }

    #[test]
    fn default_common_matches_reachability_override() {
        for seed in 0..10 {
            let m = hm_kripke::random_model(seed, hm_kripke::RandomModelSpec::default());
            let g = AgentGroup::all(m.num_agents());
            let a = Frame::atom_set(&m, "q0").unwrap();
            // Call the trait default explicitly via a shim frame that does
            // not override common_set.
            struct Shim<'a>(&'a KripkeModel);
            impl Frame for Shim<'_> {
                fn num_worlds(&self) -> usize {
                    Frame::num_worlds(self.0)
                }
                fn num_agents(&self) -> usize {
                    Frame::num_agents(self.0)
                }
                fn atom_set(&self, name: &str) -> Option<WorldSet> {
                    Frame::atom_set(self.0, name)
                }
                fn knowledge_set(&self, i: AgentId, a: &WorldSet) -> WorldSet {
                    self.0.knowledge(i, a)
                }
                fn distributed_set(&self, g: &AgentGroup, a: &WorldSet) -> WorldSet {
                    self.0.distributed_knowledge(g, a)
                }
            }
            assert_eq!(
                Shim(&m).common_set(&g, &a),
                Frame::common_set(&m, &g, &a),
                "seed {seed}"
            );
        }
    }
}

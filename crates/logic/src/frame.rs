//! Evaluation frames: what a formula is checked against.
//!
//! A [`Frame`] is a finite S5 [`KripkeModel`] — the knowledge operators
//! are the model's, so S5 holds by construction — plus, optionally,
//! *run/time* structure. The interpreted systems of Sections 5–6 (built
//! in `hm-runs`) are Kripke models whose worlds are points and whose
//! relations are "same view"; they add a [`TemporalStructure`], enabling
//! the temporal operators of Sections 11–12.

use hm_kripke::{AgentId, KripkeModel, WorldId, WorldSet};

/// A finite evaluation frame: a Kripke model, plus run/time structure
/// when the frame has it.
pub trait Frame {
    /// The Kripke model: worlds, agent partitions and atom valuation.
    /// Every knowledge operator is evaluated on it.
    fn model(&self) -> &KripkeModel;

    /// Run/time structure, when this frame has it. Frames returning `None`
    /// reject temporal operators at evaluation time.
    fn temporal(&self) -> Option<&dyn TemporalStructure> {
        None
    }

    /// Number of worlds (points) in the frame.
    fn num_worlds(&self) -> usize {
        self.model().num_worlds()
    }

    /// Number of agents.
    fn num_agents(&self) -> usize {
        self.model().num_agents()
    }

    /// The set of worlds where the named ground atom holds, or `None` if
    /// the atom is not part of this frame's vocabulary.
    fn atom_set(&self, name: &str) -> Option<WorldSet> {
        let m = self.model();
        m.atom_id(name).map(|a| m.atom_set(a))
    }
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
    fn model(&self) -> &KripkeModel {
        self
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
        assert!(std::ptr::eq(f.model(), &m));
    }
}

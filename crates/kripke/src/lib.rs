//! Finite S5 Kripke models for epistemic reasoning.
//!
//! This crate is the model-theoretic substrate of the Halpern–Moses
//! reproduction: the "graph corresponding to `R` and `v`" of Section 6 of
//! *Knowledge and Common Knowledge in a Distributed Environment* (PODC
//! '84; journal version JACM 1990), made finite and executable.
//!
//! - Worlds are dense indices ([`WorldId`]); sets of worlds are packed
//!   bitsets ([`WorldSet`]) so the set-valued semantics of Appendix A is a
//!   sequence of word-wise operations.
//! - Each agent's accessibility relation is an equivalence [`Partition`]
//!   ("same view at both points"), making every model S5 by construction.
//! - [`KripkeModel`] bundles worlds, partitions and a ground-atom valuation
//!   and exposes every knowledge operator: `K_i`, `E_G`, `S_G`, `D_G` and
//!   `C_G` (the latter both by G-reachability and as the greatest fixed
//!   point of `E_G`, [`WorldSet::gfp`]). Every evaluation frame of
//!   `hm-logic` evaluates knowledge on one of these models.
//! - [`announce`]/[`Restriction`] implement public announcements (the
//!   father in the muddy-children puzzle).
//! - [`random_model`] generates reproducible pseudo-random models for
//!   property-based testing, with no external dependencies.
//!
//! # Quick start
//!
//! ```
//! use hm_kripke::{ModelBuilder, AgentId, AgentGroup};
//!
//! // Muddy children with n = 2: worlds are muddiness bit-vectors, child i
//! // cannot see bit i.
//! let mut b = ModelBuilder::new(2);
//! for bits in 0..4u32 {
//!     b.add_world(format!("{bits:02b}"));
//! }
//! let m_atom = b.atom("at-least-one-muddy");
//! for bits in 1..4u32 {
//!     b.set_atom(m_atom, (bits as usize).into(), true);
//! }
//! for child in 0..2 {
//!     b.set_partition_by_key(AgentId::new(child), move |w| w.index() & !(1 << child));
//! }
//! let model = b.build();
//! let g = AgentGroup::all(2);
//! let m_set = model.atom_set(m_atom);
//!
//! // With both children muddy (world 0b11), everyone knows m …
//! let e = model.everyone_set(&g, &m_set);
//! assert!(e.contains(3.into()));
//! // … but E²m fails (Alice thinks Bob may see no muddy child): Section 3.
//! assert!(!model.everyone_set(&g, &e).contains(3.into()));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod agent;
mod announce;
mod generate;
mod minimize;
mod model;
mod partition;
mod world;

pub use agent::{AgentGroup, AgentId};
pub use announce::{announce, InconsistentAnnouncement, Restriction};
pub use generate::{random_model, RandomModelSpec, SplitMix64};
pub use minimize::{minimize, Minimized};
pub use model::{AtomId, KripkeModel, ModelBuilder, WorldRemap};
pub use partition::{Partition, UnionFind};
pub use world::{Iter, WorldId, WorldSet};

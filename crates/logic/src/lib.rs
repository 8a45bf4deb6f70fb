//! An epistemic µ-calculus model checker.
//!
//! This crate implements the logical language and semantics of Halpern &
//! Moses, *Knowledge and Common Knowledge in a Distributed Environment*
//! (PODC '84; journal version JACM 1990): the group-knowledge operators
//! of Section 3, the
//! view-based Kripke semantics of Section 6, the attainable variants
//! `C^ε`/`C^◇`/`C^T` of Sections 11–12, and — following Appendix A — a
//! propositional logic of knowledge with explicit greatest/least fixed
//! points, evaluated exactly over finite frames.
//!
//! - [`Formula`] is the AST; [`parse`] reads the textual syntax; `Display`
//!   round-trips through the parser.
//! - [`Frame`] is what formulas are checked against: a Kripke model from
//!   `hm-kripke`, whose operators every knowledge clause uses, plus — for
//!   the interpreted systems of `hm-runs` — the [`TemporalStructure`]
//!   needed by `E^ε`, `E^◇`, `E^T` and the run-temporal operators.
//! - [`evaluate`] runs the model checker;
//!   [`compile`] lowers a formula once to a flat instruction buffer
//!   ([`CompiledFormula`]) for repeated evaluation ([`EvalCache`] keeps
//!   compiled+bound formulas across calls), and [`evaluate_tree`] keeps
//!   the tree-walking reference semantics.
//! - [`evaluate_interval`] runs the same compiled machine in the
//!   interval domain ([`IntervalSet`]): on a frame whose run set was
//!   truncated by a budget, it brackets each formula's full-system truth
//!   set soundly at the surviving points — run-local temporal operators
//!   stay exact, knowledge-like operators keep only an upper bound.
//! - [`analysis`] lints formulas *before* bind/eval: [`Analyzer`]
//!   produces typed [`Diagnostics`] (unknown atoms/agents, unbound
//!   variables, dead subformulas, quotient-safety paths, …) and
//!   [`simplify`] rewrites formulas into equivalents that compile to
//!   fewer instructions.
//! - [`axioms`] turns Proposition 1 (S5), the fixed-point axiom C1, the
//!   induction rule C2, and Lemma 2 into executable checks.
//!
//! # Example: the coordinated-attack ladder
//!
//! ```
//! use hm_logic::{parse, evaluate};
//! use hm_kripke::{ModelBuilder, AgentId};
//!
//! // Tiny two-point system: in w0 the message arrived, in w1 it did not.
//! // B (agent 1) can tell; A (agent 0) cannot.
//! let mut b = ModelBuilder::new(2);
//! let w0 = b.add_world("delivered");
//! let w1 = b.add_world("lost");
//! let d = b.atom("delivered");
//! b.set_atom(d, w0, true);
//! b.set_partition_by_key(AgentId::new(0), |_| ());
//! let m = b.build();
//!
//! // B knows the message was delivered, A does not know that B knows.
//! let kb = parse("K1 delivered")?;
//! let kakb = parse("K0 K1 delivered")?;
//! assert!(evaluate(&m, &kb)?.contains(w0));
//! assert!(!evaluate(&m, &kakb)?.contains(w0));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod axioms;
mod compile;
mod eval;
mod formula;
mod frame;
mod interval;
pub mod json;
pub mod temporal;

mod parser;

pub use analysis::{simplify, Analyzer, DiagKind, Diagnostic, Diagnostics, Facts, Severity};
pub use compile::{compile, Bound, CompiledFormula, EvalCache};
pub use eval::{evaluate, evaluate_tree, EvalError};
pub use formula::{Formula, F};
pub use frame::{Frame, TemporalStructure};
pub use interval::{evaluate_interval, IntervalSet};
pub use parser::{parse, ParseError, MAX_FORMULA_DEPTH};

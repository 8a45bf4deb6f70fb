//! The runs-and-systems model of distributed computation.
//!
//! Implements Sections 5–6 of Halpern & Moses, *Knowledge and Common
//! Knowledge in a Distributed Environment* (PODC '84; journal version
//! JACM 1990): processors with
//! local histories and optional clocks, [`Run`]s as complete executions,
//! [`System`]s as sets of runs, [`ViewFunction`]s assigning views to
//! points, and [`InterpretedSystem`]s — the triple `(R, π, v)` — which
//! materialise the indistinguishability Kripke model and plug into the
//! `hm-logic` model checker (including its temporal operators).
//!
//! A [`System`] keeps all of its runs in one flat store (event, clock and
//! name arenas plus one fixed-size record per run and per processor);
//! [`Run`] and [`ProcRecord`] are borrowed views into it, and runs are
//! appended through a [`SystemBuilder`] (see [`System`] for the layout).
//!
//! The [`conditions`] module turns the structural hypotheses of the
//! paper's impossibility theorems (NG1/NG2, NG1′, temporal imprecision)
//! into decidable checks over finite systems.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod conditions;
mod event;
mod intern;
mod interpreted;
mod run;
mod system;
mod view;

pub use event::{Event, Message, TimedEvent};
pub use intern::ViewInterner;
pub use interpreted::{FactFn, InterpretedSystem, InterpretedSystemBuilder};
pub use run::{ProcRecord, Run, RunBuilder};
pub use system::{Point, RunId, System, SystemBuilder};
pub use view::{
    complete_history_key, encode_complete_history, encode_history, intern_history_trie,
    last_event_view, ClockOnly, CompleteHistory, SharedLambda, StateProjection, ViewFunction,
};

//! Deterministic distributed-protocol simulation with exhaustive
//! adversarial run enumeration.
//!
//! The impossibility results of Halpern & Moses (PODC '84; journal
//! version JACM 1990) quantify over
//! *all* runs of a protocol under an unreliable medium. This crate makes
//! those quantifications finite and checkable: a [`JointProtocol`] is a
//! deterministic function of local history (Section 5's definition), an
//! [`Adversary`] enumerates the medium's choices per message, and
//! [`enumerate_runs`] explores every combination, yielding the complete
//! `hm-runs` [`System`](hm_runs::System) over a horizon.
//!
//! [`scenarios`] packages the paper's worked examples: the
//! coordinated-attack handshake (Section 4), the R2–D2 channel in its
//! three variants (Section 8), and the OK-protocol (Section 11).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod adversary;
mod executor;
mod protocol;
pub mod scenarios;

pub use adversary::{
    Adversary, BoundedUncertainDelay, InstantOrLost, InstantOrLostWindow, LossyFixedDelay, Outcome,
    SynchronousDelay, UnboundedDelay,
};
pub use executor::{enumerate_runs, Clocks, EnumerateError, Enumeration, ExecutionSpec};
pub use protocol::{Command, FnProtocol, JointProtocol, LocalView, SeenEvent, Silent};

//! Deterministic fault injection at phase boundaries.
//!
//! Every governed phase calls [`check`] with a stable site name
//! (`"netsim::enumerate"`, `"core::canonicalize"`, `"runs::build"`,
//! `"kripke::refine"`, `"logic::eval"`). Without the `failpoints`
//! cargo feature this compiles to an inlined `Ok(())`; with it, a global
//! registry (configured through a `FailScenario` guard, in the spirit
//! of the `fail` crate) can force any site to report resource
//! exhaustion, cancellation, or — to exercise panic containment — an
//! actual panic.
//!
//! Failpoint tests share one process-global registry, so
//! `FailScenario::setup` also serializes tests: it holds a global lock
//! for the scenario's lifetime and clears the registry on entry and
//! drop.

#[cfg(feature = "failpoints")]
use crate::Resource;
use crate::{LimitExceeded, Phase};

/// What a configured failpoint does when hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Report the given resource as exhausted (`spent = limit = 0`).
    Exhaust(ExhaustKind),
    /// Report cancellation.
    Cancel,
    /// Panic — for testing that worker panics are contained, never
    /// propagated as process aborts.
    Panic,
}

/// Which resource an [`Action::Exhaust`] reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExhaustKind {
    /// Exhaust the run budget.
    Runs,
    /// Exhaust the world budget.
    Worlds,
    /// Exhaust the visited-state budget.
    States,
    /// Exceed the deadline.
    Deadline,
}

/// Consults the registry for site `name` running in `phase`.
///
/// # Errors
///
/// [`LimitExceeded`] when the site is configured with
/// [`Action::Exhaust`] or [`Action::Cancel`].
///
/// # Panics
///
/// Panics when the site is configured with [`Action::Panic`] (that is
/// the point: callers must contain it).
#[cfg(not(feature = "failpoints"))]
#[inline(always)]
pub fn check(_name: &str, _phase: Phase) -> Result<(), LimitExceeded> {
    Ok(())
}

/// Consults the registry for site `name` running in `phase`.
///
/// # Errors
///
/// [`LimitExceeded`] when the site is configured with
/// [`Action::Exhaust`] or [`Action::Cancel`].
///
/// # Panics
///
/// Panics when the site is configured with [`Action::Panic`] (that is
/// the point: callers must contain it).
#[cfg(feature = "failpoints")]
pub fn check(name: &str, phase: Phase) -> Result<(), LimitExceeded> {
    let action = {
        let map = enabled::registry()
            .lock()
            .unwrap_or_else(|p| p.into_inner());
        map.get(name).copied()
    };
    match action {
        None => Ok(()),
        Some(Action::Exhaust(kind)) => Err(LimitExceeded {
            resource: match kind {
                ExhaustKind::Runs => Resource::Runs,
                ExhaustKind::Worlds => Resource::Worlds,
                ExhaustKind::States => Resource::StatesVisited,
                ExhaustKind::Deadline => Resource::Deadline,
            },
            phase,
            spent: 0,
            limit: 0,
        }),
        Some(Action::Cancel) => Err(LimitExceeded {
            resource: Resource::Cancelled,
            phase,
            spent: 0,
            limit: 0,
        }),
        Some(Action::Panic) => panic!("failpoint `{name}`: injected panic"),
    }
}

#[cfg(feature = "failpoints")]
mod enabled {
    use super::Action;
    use std::collections::BTreeMap;
    use std::sync::{Mutex, MutexGuard, PoisonError};

    static REGISTRY: Mutex<BTreeMap<String, Action>> = Mutex::new(BTreeMap::new());
    static SERIAL: Mutex<()> = Mutex::new(());

    pub(super) fn registry() -> &'static Mutex<BTreeMap<String, Action>> {
        &REGISTRY
    }

    /// Exclusive access to the failpoint registry for the duration of
    /// one test scenario. Constructed with
    /// [`setup`](FailScenario::setup); dropping it clears every
    /// configured site and releases the serialization lock.
    pub struct FailScenario {
        _guard: MutexGuard<'static, ()>,
    }

    impl FailScenario {
        /// Acquires the global scenario lock (serializing failpoint
        /// tests) and clears any leftover configuration.
        #[must_use]
        pub fn setup() -> Self {
            let guard = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
            registry()
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .clear();
            FailScenario { _guard: guard }
        }

        /// Configures site `name` to perform `action` on every hit.
        pub fn configure(&self, name: &str, action: Action) {
            registry()
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .insert(name.to_string(), action);
        }

        /// Removes the configuration for site `name`.
        pub fn clear(&self, name: &str) {
            registry()
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .remove(name);
        }
    }

    impl Drop for FailScenario {
        fn drop(&mut self) {
            registry()
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .clear();
        }
    }
}

#[cfg(feature = "failpoints")]
pub use enabled::FailScenario;

#[cfg(all(test, feature = "failpoints"))]
mod tests {
    use super::*;
    use crate::Resource;

    #[test]
    fn configured_sites_fire_and_clear_on_drop() {
        {
            let sc = FailScenario::setup();
            check("t::site", Phase::Build).unwrap();
            sc.configure("t::site", Action::Exhaust(ExhaustKind::Runs));
            let e = check("t::site", Phase::Build).unwrap_err();
            assert_eq!(e.resource, Resource::Runs);
            assert_eq!(e.phase, Phase::Build);
            sc.configure("t::site", Action::Cancel);
            let e = check("t::site", Phase::Eval).unwrap_err();
            assert_eq!(e.resource, Resource::Cancelled);
            sc.clear("t::site");
            check("t::site", Phase::Eval).unwrap();
        }
        // Dropped: no residue.
        check("t::site", Phase::Build).unwrap();
    }

    #[test]
    fn panic_action_panics() {
        let sc = FailScenario::setup();
        sc.configure("t::boom", Action::Panic);
        let err = std::panic::catch_unwind(|| check("t::boom", Phase::Enumerate)).unwrap_err();
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("injected panic"), "{msg}");
    }
}

#[cfg(all(test, not(feature = "failpoints")))]
mod tests {
    use super::*;

    #[test]
    fn disabled_checks_are_noops() {
        check("anything", Phase::Eval).unwrap();
    }
}

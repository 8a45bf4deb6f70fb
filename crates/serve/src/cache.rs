//! The LRU cache of built engines.
//!
//! Building a [`Session`] is the expensive half of a query — run
//! enumeration, interpreted-system construction, optionally
//! minimisation — while asking a cached session is microseconds. The
//! server therefore keeps the last `capacity` sessions alive, keyed by
//! the *canonical* spec string (parameter order and defaults
//! normalised, see `ScenarioRegistry::canonical_spec`) plus the build
//! options, and evicts least-recently-used entries beyond that.
//!
//! Sessions are `Send + Sync` (their formula caches are lock-striped),
//! so one cached session is shared by every worker thread answering
//! queries for its spec. Requests that carry their own resource limits
//! bypass the cache entirely: a budget is anchored at build time and
//! consumed across the session's life, so a limited session is built
//! fresh, used once, and dropped, compiling its one formula as part of
//! analysing it.

use hm_engine::{EngineError, Session};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// LRU map from cache key to a shared, concurrently-askable session.
///
/// Also hosts the per-spec *quarantine* circuit breaker: a spec whose
/// requests keep panicking (contained per request, but each one burns a
/// worker for the whole build) trips after
/// [`quarantine_threshold`](crate::ServeConfig::quarantine_threshold)
/// consecutive panics and answers `503 quarantined` for the cooldown,
/// after which one probe request is let through (half-open): a panic
/// re-trips immediately, a success closes the breaker.
pub(crate) struct EngineCache {
    capacity: usize,
    inner: Mutex<Inner>,
    evictions: AtomicU64,
    quarantine: Mutex<HashMap<String, Breaker>>,
    quarantine_threshold: u32,
    quarantine_cooldown: Duration,
}

/// Panic bookkeeping for one canonical spec.
struct Breaker {
    /// Panics since the last success for this spec.
    consecutive_panics: u32,
    /// When the breaker tripped; `None` while closed or half-open.
    tripped_at: Option<Instant>,
}

struct Inner {
    map: HashMap<String, Entry>,
    /// Logical clock for recency: bumped on every touch.
    tick: u64,
}

struct Entry {
    session: Arc<Session>,
    last_used: u64,
}

/// Formula-cache totals over the cached sessions, for `/stats`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FormulaCounts {
    pub(crate) cached: usize,
    pub(crate) evictions: u64,
}

impl EngineCache {
    /// An empty cache holding at most `capacity` sessions (minimum 1),
    /// with the quarantine breaker tripping after `quarantine_threshold`
    /// consecutive panics (minimum 1) for `quarantine_cooldown`.
    pub(crate) fn new(
        capacity: usize,
        quarantine_threshold: u32,
        quarantine_cooldown: Duration,
    ) -> Self {
        EngineCache {
            capacity: capacity.max(1),
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                tick: 0,
            }),
            evictions: AtomicU64::new(0),
            quarantine: Mutex::new(HashMap::new()),
            quarantine_threshold: quarantine_threshold.max(1),
            quarantine_cooldown,
        }
    }

    /// The session for `key`, building it with `build` on a miss.
    ///
    /// The builder runs *outside* the lock — engine construction can
    /// take seconds under a large horizon, and must not block queries
    /// for already-cached specs. Two threads racing on the same key may
    /// both build; the first insertion wins. Returns the session and
    /// whether it was a hit.
    pub(crate) fn get_or_build(
        &self,
        key: &str,
        build: impl FnOnce() -> Result<Session, EngineError>,
    ) -> Result<(Arc<Session>, bool), EngineError> {
        if let Some(session) = self.touch(key) {
            return Ok((session, true));
        }
        let fresh = Arc::new(build()?);
        let mut inner = self.lock();
        inner.tick += 1;
        let tick = inner.tick;
        let entry = inner.map.entry(key.to_string()).or_insert_with(|| Entry {
            session: Arc::clone(&fresh),
            last_used: tick,
        });
        entry.last_used = tick;
        let session = Arc::clone(&entry.session);
        if inner.map.len() > self.capacity {
            if let Some(lru) = inner
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            {
                inner.map.remove(&lru);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        Ok((session, false))
    }

    /// Looks `key` up and refreshes its recency.
    fn touch(&self, key: &str) -> Option<Arc<Session>> {
        let mut inner = self.lock();
        inner.tick += 1;
        let tick = inner.tick;
        let entry = inner.map.get_mut(key)?;
        entry.last_used = tick;
        Some(Arc::clone(&entry.session))
    }

    /// Number of cached sessions.
    pub(crate) fn len(&self) -> usize {
        self.lock().map.len()
    }

    /// The configured capacity.
    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    /// Sessions dropped to make room, since startup.
    pub(crate) fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Compiled formulas held, and formula-cache evictions, summed over
    /// the sessions cached now (each session's formula caches are
    /// bounded; see `hm_engine::FORMULA_CACHE_CAPACITY`).
    pub(crate) fn formula_counts(&self) -> FormulaCounts {
        let inner = self.lock();
        let sessions = inner.map.values().map(|e| &e.session);
        FormulaCounts {
            cached: sessions.clone().map(|s| s.cached_queries()).sum(),
            evictions: sessions.map(|s| s.formula_evictions()).sum(),
        }
    }

    /// Whether `spec` is currently quarantined. A breaker past its
    /// cooldown transitions to half-open here: this call returns
    /// `false` and lets one probe through, primed so the next panic
    /// re-trips immediately.
    pub(crate) fn is_quarantined(&self, spec: &str) -> bool {
        let mut map = self.lock_quarantine();
        let Some(b) = map.get_mut(spec) else {
            return false;
        };
        match b.tripped_at {
            Some(at) if at.elapsed() < self.quarantine_cooldown => true,
            Some(_) => {
                b.tripped_at = None;
                b.consecutive_panics = self.quarantine_threshold - 1;
                false
            }
            None => false,
        }
    }

    /// Records a contained panic for `spec`; trips the breaker at the
    /// threshold. Returns `true` when this panic tripped it.
    pub(crate) fn note_panic(&self, spec: &str) -> bool {
        let mut map = self.lock_quarantine();
        let b = map.entry(spec.to_string()).or_insert(Breaker {
            consecutive_panics: 0,
            tripped_at: None,
        });
        b.consecutive_panics += 1;
        if b.consecutive_panics >= self.quarantine_threshold && b.tripped_at.is_none() {
            b.tripped_at = Some(Instant::now());
            return true;
        }
        false
    }

    /// Records a successful request for `spec`: closes its breaker and
    /// forgets the panic history.
    pub(crate) fn note_ok(&self, spec: &str) {
        self.lock_quarantine().remove(spec);
    }

    /// Number of specs whose breaker is currently tripped.
    pub(crate) fn quarantined_specs(&self) -> usize {
        let map = self.lock_quarantine();
        map.values()
            .filter(|b| {
                b.tripped_at
                    .is_some_and(|at| at.elapsed() < self.quarantine_cooldown)
            })
            .count()
    }

    fn lock_quarantine(&self) -> std::sync::MutexGuard<'_, HashMap<String, Breaker>> {
        self.quarantine
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        // A worker that panicked mid-insert (failpoints) must not brick
        // the cache: the map only ever holds complete entries.
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hm_engine::Engine;

    fn build(spec: &str) -> Result<Session, EngineError> {
        Engine::for_scenario(spec).build()
    }

    fn cache(capacity: usize) -> EngineCache {
        EngineCache::new(capacity, 5, Duration::from_secs(30))
    }

    #[test]
    fn hit_after_miss_and_lru_eviction() {
        let cache = cache(2);
        let (a1, hit) = cache
            .get_or_build("muddy:n=2,dirty=1", || build("muddy:n=2,dirty=1"))
            .unwrap();
        assert!(!hit);
        let (a2, hit) = cache
            .get_or_build("muddy:n=2,dirty=1", || panic!("must not rebuild"))
            .unwrap();
        assert!(hit);
        assert!(Arc::ptr_eq(&a1, &a2));

        cache
            .get_or_build("muddy:n=2,dirty=2", || build("muddy:n=2,dirty=2"))
            .unwrap();
        // Touch the first key so the second becomes the LRU victim.
        cache
            .get_or_build("muddy:n=2,dirty=1", || panic!("must not rebuild"))
            .unwrap();
        cache
            .get_or_build("muddy:n=3,dirty=1", || build("muddy:n=3,dirty=1"))
            .unwrap();
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.evictions(), 1);
        let (_, hit) = cache
            .get_or_build("muddy:n=2,dirty=1", || panic!("was evicted"))
            .unwrap();
        assert!(hit, "recently-touched entry survived the eviction");
    }

    #[test]
    fn build_errors_are_not_cached() {
        let cache = cache(2);
        assert!(cache.get_or_build("nope", || build("nope")).is_err());
        assert_eq!(cache.len(), 0);
    }

    #[test]
    fn breaker_trips_at_threshold_and_success_resets() {
        let cache = EngineCache::new(2, 3, Duration::from_secs(30));
        assert!(!cache.is_quarantined("s"));
        assert!(!cache.note_panic("s"));
        assert!(!cache.note_panic("s"));
        assert!(!cache.is_quarantined("s"), "below threshold");
        // A success between panics clears the streak.
        cache.note_ok("s");
        assert!(!cache.note_panic("s"));
        assert!(!cache.note_panic("s"));
        assert!(cache.note_panic("s"), "third consecutive panic trips");
        assert!(cache.is_quarantined("s"));
        assert_eq!(cache.quarantined_specs(), 1);
        // Other specs are unaffected.
        assert!(!cache.is_quarantined("t"));
    }

    #[test]
    fn breaker_half_opens_after_cooldown() {
        let cache = EngineCache::new(2, 2, Duration::from_millis(40));
        cache.note_panic("s");
        assert!(cache.note_panic("s"));
        assert!(cache.is_quarantined("s"));
        std::thread::sleep(Duration::from_millis(60));
        // Past the cooldown: one probe is allowed…
        assert!(!cache.is_quarantined("s"));
        assert_eq!(cache.quarantined_specs(), 0);
        // …and a single panic on the probe re-trips immediately.
        assert!(cache.note_panic("s"));
        assert!(cache.is_quarantined("s"));
        // A successful probe would have closed it for good.
        std::thread::sleep(Duration::from_millis(60));
        assert!(!cache.is_quarantined("s"));
        cache.note_ok("s");
        assert!(!cache.note_panic("s"), "history was forgotten");
    }
}

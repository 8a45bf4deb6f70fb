//! Sharded, lock-striped caches backing a [`Session`](crate::Session).
//!
//! PR 3 left a follow-up: the per-formula compile/bind caches were plain
//! `HashMap`s behind `&mut self`, so one `Session` could not serve
//! concurrent askers. This module closes it. A [`ShardedMap`] stripes a
//! hash map across `SHARDS` independent `RwLock`s — readers of distinct
//! formulas almost never contend, and a writer only stalls readers
//! hashing into the same shard. Values are handed out by clone (callers
//! store `Arc`s), so no lock is held while a formula is compiled, bound,
//! or evaluated.
//!
//! A session keeps two such maps: the analyzer's report for each formula
//! together with the program the analyzer compiled, and that program
//! bound to the session's frame. Nothing is shared across sessions: the
//! analysis depends on the frame, so each session compiles each formula
//! exactly once, as part of analysing it.

use hm_logic::Formula;
use std::collections::hash_map::{DefaultHasher, Entry};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::RwLock;

/// Number of lock stripes. A small power of two: enough that a handful
/// of worker threads rarely collide, small enough that iterating every
/// shard (for counters) stays trivial.
const SHARDS: usize = 16;

/// A hash map striped over [`SHARDS`] reader-writer locks.
///
/// Lookups take one shard's read lock; insertions take its write lock.
/// [`get_or_insert_with`](Self::get_or_insert_with) runs the producer
/// *outside* any lock, so two threads racing on the same key may both
/// produce — the first insertion wins and the loser's value is dropped.
/// That trades a rare duplicated compile for never blocking other keys
/// behind a slow producer.
pub(crate) struct ShardedMap<V> {
    shards: Vec<RwLock<HashMap<Formula, V>>>,
}

impl<V: Clone> ShardedMap<V> {
    pub(crate) fn new() -> Self {
        ShardedMap {
            shards: (0..SHARDS).map(|_| RwLock::new(HashMap::new())).collect(),
        }
    }

    fn shard(&self, key: &Formula) -> &RwLock<HashMap<Formula, V>> {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() as usize) % SHARDS]
    }

    /// Clones the cached value for `key`, if present.
    ///
    /// Lock poisoning is deliberately ignored (`into_inner`): a panic in
    /// some other asker — e.g. an injected failpoint — must not turn the
    /// whole session read-only. The maps hold only fully-constructed
    /// values inserted by single `insert` calls, so a poisoned shard is
    /// still structurally sound.
    pub(crate) fn get(&self, key: &Formula) -> Option<V> {
        self.shard(key)
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .get(key)
            .cloned()
    }

    /// Returns the cached value for `key`, running `produce` (outside
    /// any lock) and inserting its result when absent. On a race the
    /// first insertion wins and is returned to everyone.
    pub(crate) fn get_or_insert_with<E>(
        &self,
        key: &Formula,
        produce: impl FnOnce() -> Result<V, E>,
    ) -> Result<V, E> {
        if let Some(v) = self.get(key) {
            return Ok(v);
        }
        let fresh = produce()?;
        let mut guard = self
            .shard(key)
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        Ok(match guard.entry(key.clone()) {
            Entry::Occupied(e) => e.get().clone(),
            Entry::Vacant(e) => e.insert(fresh).clone(),
        })
    }

    /// Total entries across all shards.
    pub(crate) fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                s.read()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .len()
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn sharded_map_basic_ops() {
        let m: ShardedMap<Arc<u32>> = ShardedMap::new();
        let k = hm_logic::parse("p & q").unwrap();
        assert!(m.get(&k).is_none());
        let v = m
            .get_or_insert_with(&k, || Ok::<_, ()>(Arc::new(7)))
            .unwrap();
        assert_eq!(*v, 7);
        // Second producer loses: the first insertion is returned.
        let v2 = m
            .get_or_insert_with(&k, || Ok::<_, ()>(Arc::new(9)))
            .unwrap();
        assert_eq!(*v2, 7);
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn producer_errors_are_not_cached() {
        let m: ShardedMap<Arc<u32>> = ShardedMap::new();
        let k = hm_logic::parse("p").unwrap();
        assert!(m
            .get_or_insert_with(&k, || Err::<Arc<u32>, _>("no"))
            .is_err());
        assert_eq!(m.len(), 0);
        assert!(m
            .get_or_insert_with(&k, || Ok::<_, ()>(Arc::new(1)))
            .is_ok());
        assert_eq!(m.len(), 1);
    }
}

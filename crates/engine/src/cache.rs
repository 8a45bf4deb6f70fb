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
//! A session keeps one such map with one entry per formula: the
//! analyzer's report together with the program the analyzer compiled,
//! bound to the session's frame (or the error every ask reports). A first
//! ask therefore hashes the formula once, takes one write lock and stores
//! one copy of it; an eviction frees one entry. Nothing is shared across
//! sessions: the analysis depends on the frame, so each session compiles
//! each formula once, as part of analysing it.
//!
//! The map holds at most [`CAPACITY`] formulas, so a session that is
//! asked an endless stream of new formulas (a long-lived `hm serve`
//! engine) stays bounded. A full shard evicts by CLOCK: a hit marks its
//! entry referenced, and an insertion sweeps the shard's hand past
//! referenced entries, clearing their marks, to the first unmarked one.
//! A new entry starts marked, so the entry inserted last is never the
//! next victim. An evicted formula is recompiled on its next ask.
//!
//! A formula is hashed once per lookup: the hash picks the stripe and is
//! the stripe's index key, and the stored formula is compared on a hit,
//! so a hash collision costs a recompile, never a wrong answer.

use hm_logic::Formula;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{PoisonError, RwLock};

/// Number of lock stripes. A small power of two: enough that a handful
/// of worker threads rarely collide, small enough that iterating every
/// shard (for counters) stays trivial.
const SHARDS: usize = 16;

/// Formulas a [`Session`](crate::Session)'s formula cache keeps at most,
/// split evenly over its lock stripes. A formula evicted to make room is
/// recompiled on its next ask.
pub const CAPACITY: usize = 1024;

const SHARD_CAPACITY: usize = CAPACITY / SHARDS;

/// A hash map striped over [`SHARDS`] reader-writer locks, bounded at
/// [`CAPACITY`] entries with CLOCK eviction per shard.
///
/// Lookups take one shard's read lock; insertions take its write lock.
/// [`get_or_insert_with`](Self::get_or_insert_with) runs the producer
/// *outside* any lock, so two threads racing on the same key may both
/// produce — the first insertion wins and the loser's value is dropped.
/// That trades a rare duplicated compile for never blocking other keys
/// behind a slow producer.
pub(crate) struct ShardedMap<V> {
    shards: Vec<RwLock<Shard<V>>>,
    /// Entries dropped to make room.
    evicted: AtomicU64,
}

/// One stripe: entries in CLOCK order plus an index by formula hash.
struct Shard<V> {
    index: HashMap<u64, usize, BuildHasherDefault<Prehashed>>,
    slots: Vec<Slot<V>>,
    /// The next slot the CLOCK sweep examines.
    hand: usize,
}

struct Slot<V> {
    key: Formula,
    hash: u64,
    value: V,
    /// Set by every hit, cleared as the sweep passes.
    referenced: AtomicBool,
}

/// The index's hasher: its keys are formula hashes already.
#[derive(Default)]
struct Prehashed(u64);

impl Hasher for Prehashed {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("the index is keyed by u64 hashes only")
    }

    fn write_u64(&mut self, hash: u64) {
        self.0 = hash;
    }
}

fn hash_of(key: &Formula) -> u64 {
    let mut h = DefaultHasher::new();
    key.hash(&mut h);
    h.finish()
}

impl<V: Clone> Shard<V> {
    fn get(&self, hash: u64, key: &Formula) -> Option<V> {
        let slot = &self.slots[*self.index.get(&hash)?];
        if slot.key != *key {
            return None;
        }
        slot.referenced.store(true, Ordering::Relaxed);
        Some(slot.value.clone())
    }

    /// Inserts `value` under `key` (absent), returning the entry it
    /// displaced, if any: the CLOCK victim of a full shard, or a
    /// different formula with the same hash.
    fn insert(&mut self, hash: u64, key: &Formula, value: V) -> Option<Slot<V>> {
        let slot = Slot {
            key: key.clone(),
            hash,
            value,
            referenced: AtomicBool::new(true),
        };
        if let Some(&colliding) = self.index.get(&hash) {
            return Some(std::mem::replace(&mut self.slots[colliding], slot));
        }
        if self.slots.len() < SHARD_CAPACITY {
            self.index.insert(hash, self.slots.len());
            self.slots.push(slot);
            return None;
        }
        while self.slots[self.hand]
            .referenced
            .swap(false, Ordering::Relaxed)
        {
            self.hand = (self.hand + 1) % self.slots.len();
        }
        let victim = self.hand;
        self.hand = (victim + 1) % self.slots.len();
        self.index.remove(&self.slots[victim].hash);
        self.index.insert(hash, victim);
        Some(std::mem::replace(&mut self.slots[victim], slot))
    }
}

impl<V: Clone> ShardedMap<V> {
    pub(crate) fn new() -> Self {
        ShardedMap {
            shards: (0..SHARDS)
                .map(|_| {
                    RwLock::new(Shard {
                        index: HashMap::default(),
                        slots: Vec::new(),
                        hand: 0,
                    })
                })
                .collect(),
            evicted: AtomicU64::new(0),
        }
    }

    /// The stripe of a hash: bits the index's own table does not use
    /// (it takes the low bits for buckets and the top ones as tags).
    fn shard(&self, hash: u64) -> &RwLock<Shard<V>> {
        &self.shards[(hash >> 32) as usize % SHARDS]
    }

    /// Clones the cached value for `key`, if present, and marks it
    /// recently used.
    #[cfg(test)]
    fn get(&self, key: &Formula) -> Option<V> {
        let hash = hash_of(key);
        self.read(hash).get(hash, key)
    }

    /// The read guard of `hash`'s stripe.
    ///
    /// Lock poisoning is deliberately ignored (`into_inner`): a panic in
    /// some other asker — e.g. an injected failpoint — must not turn the
    /// whole session read-only. The maps hold only fully-constructed
    /// values inserted by single `insert` calls, so a poisoned shard is
    /// still structurally sound.
    fn read(&self, hash: u64) -> std::sync::RwLockReadGuard<'_, Shard<V>> {
        self.shard(hash)
            .read()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Returns the cached value for `key`, running `produce` (outside
    /// any lock) and inserting its result when absent. On a race the
    /// first insertion wins and is returned to everyone.
    pub(crate) fn get_or_insert_with<E>(
        &self,
        key: &Formula,
        produce: impl FnOnce() -> Result<V, E>,
    ) -> Result<V, E> {
        let hash = hash_of(key);
        if let Some(v) = self.read(hash).get(hash, key) {
            return Ok(v);
        }
        let fresh = produce()?;
        let mut guard = self
            .shard(hash)
            .write()
            .unwrap_or_else(PoisonError::into_inner);
        if let Some(v) = guard.get(hash, key) {
            return Ok(v);
        }
        let displaced = guard.insert(hash, key, fresh.clone());
        drop(guard);
        if displaced.is_some() {
            self.evicted.fetch_add(1, Ordering::Relaxed);
        }
        Ok(fresh)
    }

    /// Total entries across all shards.
    pub(crate) fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.read().unwrap_or_else(PoisonError::into_inner).slots.len())
            .sum()
    }

    /// Entries evicted since creation.
    pub(crate) fn evicted(&self) -> u64 {
        self.evicted.load(Ordering::Relaxed)
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

    #[test]
    fn full_shards_evict_by_clock() {
        let m: ShardedMap<u32> = ShardedMap::new();
        let key = |i: u32| hm_logic::Formula::atom(format!("p{i}"));
        for i in 0..10 * CAPACITY as u32 {
            let k = key(i);
            let v = m.get_or_insert_with(&k, || Ok::<_, ()>(i)).unwrap();
            assert_eq!(v, i);
            // The entry inserted last is never the victim of the next
            // insertion into its shard: it survives until asked again.
            assert_eq!(m.get(&k), Some(i), "fresh entry {i} present");
        }
        assert_eq!(m.len(), CAPACITY, "every shard full, none over");
        assert_eq!(m.evicted(), 9 * CAPACITY as u64);
    }

    #[test]
    fn referenced_entries_survive_a_sweep() {
        let m: ShardedMap<u32> = ShardedMap::new();
        // Keys that all land in shard 0: one shard's worth, plus two.
        let shard_of = |f: &hm_logic::Formula| (hash_of(f) >> 32) as usize % SHARDS;
        let keys: Vec<hm_logic::F> = (0..)
            .map(|i| hm_logic::Formula::atom(format!("q{i}")))
            .filter(|f| shard_of(f) == 0)
            .take(SHARD_CAPACITY + 2)
            .collect();
        let insert = |i: usize| m.get_or_insert_with(&keys[i], || Ok::<_, ()>(i as u32));
        for i in 0..SHARD_CAPACITY {
            insert(i).unwrap();
        }
        // Every entry is still marked from its insertion: the sweep
        // clears them all and wraps around to slot 0.
        insert(SHARD_CAPACITY).unwrap();
        assert_eq!(m.get(&keys[0]), None);
        // A hit re-marks key 1, so the next sweep passes it and takes
        // key 2; the newest entry and key 1 stay.
        assert_eq!(m.get(&keys[1]), Some(1));
        insert(SHARD_CAPACITY + 1).unwrap();
        assert_eq!(m.get(&keys[2]), None);
        assert_eq!(m.get(&keys[1]), Some(1));
        assert_eq!(m.get(&keys[SHARD_CAPACITY]), Some(SHARD_CAPACITY as u32));
        assert_eq!(m.evicted(), 2);
    }
}

//! Hash-consing of view-key encodings into dense `u32` view ids.
//!
//! Building an interpreted system needs, per agent, a partition of all
//! points by view. A [`ViewInterner`] stores every distinct key once in a
//! flat arena and resolves a key to a dense id with one open-address
//! probe sequence. Keys come in two forms. A whole-view encoding (the
//! default [`ViewFunction::intern_run`](crate::ViewFunction::intern_run))
//! is one key per point. A history trie
//! ([`intern_history_trie`](crate::intern_history_trie)) interns
//! `[parent id, token…]` per history step, so each key is a few words and
//! a point's id is the node its history ends at; the interner also keeps
//! the last run walked, so that the next one resumes where the two
//! histories diverge. Ids are handed out in first-intern order;
//! partitions renumber them canonically (see
//! `Partition::from_dense_keys`), so only their equality matters.

use crate::view::LastRun;

/// A hash-consing table mapping `&[u64]` view encodings to dense `u32` ids.
///
/// All distinct keys live concatenated in one arena; per-point work does no
/// heap allocation beyond the arena's amortised growth.
///
/// # Examples
///
/// ```
/// use hm_runs::ViewInterner;
/// let mut interner = ViewInterner::new();
/// let a = interner.intern(&[1, 2, 3]);
/// let b = interner.intern(&[9]);
/// assert_eq!(interner.intern(&[1, 2, 3]), a);
/// assert_ne!(a, b);
/// assert_eq!(interner.get(a), &[1, 2, 3]);
/// assert_eq!(interner.len(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ViewInterner {
    /// Concatenated key payloads.
    data: Vec<u64>,
    /// `(start, len)` of each interned key within `data`, indexed by id.
    spans: Vec<(u32, u32)>,
    /// Open-addressing slots, at most half full: the high 32 bits of the
    /// key's hash above the id in the low 32 (so most mismatches are
    /// rejected without reading the arena), or [`EMPTY`].
    table: Vec<u64>,
    /// The last run a history trie walked, for the next one to resume.
    pub(crate) last_run: LastRun,
}

const EMPTY: u64 = u64::MAX;

/// The hash bits a table slot keeps beside the id.
const TAG: u64 = !0xFFFF_FFFF;

/// Multiplicative word mixer (splitmix64's finalizer constants); the whole
/// key is folded in, so equal slices hash equal and order matters.
fn hash_key(key: &[u64]) -> u64 {
    let mut h = 0x9E37_79B9_7F4A_7C15u64 ^ (key.len() as u64);
    for &w in key {
        h = (h ^ w).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h ^= h >> 27;
    }
    h
}

impl ViewInterner {
    /// An empty interner.
    pub fn new() -> Self {
        ViewInterner {
            data: Vec::new(),
            spans: Vec::new(),
            table: vec![EMPTY; 16],
            last_run: LastRun::default(),
        }
    }

    /// Number of distinct keys interned so far (ids are `0..len()`).
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// `true` iff nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// The key interned under `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not issued by this interner.
    pub fn get(&self, id: u32) -> &[u64] {
        let (start, len) = self.spans[id as usize];
        &self.data[start as usize..(start + len) as usize]
    }

    /// Resolves `key` to its dense id, interning it on first sight.
    /// Ids are issued in first-intern order: `0, 1, 2, …`.
    pub fn intern(&mut self, key: &[u64]) -> u32 {
        if self.spans.len() * 2 >= self.table.len() {
            self.grow();
        }
        let mask = self.table.len() - 1;
        let hash = hash_key(key);
        let mut slot = hash as usize & mask;
        loop {
            let entry = self.table[slot];
            if entry == EMPTY {
                let new_id = u32::try_from(self.spans.len()).expect("too many distinct views");
                let start = u32::try_from(self.data.len()).expect("view arena exceeds u32 range");
                self.data.extend_from_slice(key);
                self.spans.push((start, key.len() as u32));
                self.table[slot] = (hash & TAG) | u64::from(new_id);
                return new_id;
            }
            if entry & TAG == hash & TAG && self.get(entry as u32) == key {
                return entry as u32;
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Doubles the table (a defaulted interner starts with none) and
    /// reinserts every id.
    fn grow(&mut self) {
        let new_cap = (self.table.len() * 2).max(16);
        let mask = new_cap - 1;
        let mut table = vec![EMPTY; new_cap];
        for id in 0..self.spans.len() as u32 {
            let hash = hash_key(self.get(id));
            let mut slot = hash as usize & mask;
            while table[slot] != EMPTY {
                slot = (slot + 1) & mask;
            }
            table[slot] = (hash & TAG) | u64::from(id);
        }
        self.table = table;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interns_by_value_in_first_seen_order() {
        let mut i = ViewInterner::new();
        assert!(i.is_empty());
        assert_eq!(i.intern(&[]), 0, "empty key is a valid view (asleep)");
        assert_eq!(i.intern(&[1, 2]), 1);
        assert_eq!(i.intern(&[2, 1]), 2, "order matters");
        assert_eq!(i.intern(&[1, 2]), 1);
        assert_eq!(i.intern(&[]), 0);
        assert_eq!(i.len(), 3);
        assert_eq!(i.get(2), &[2, 1]);
    }

    #[test]
    fn survives_growth_past_initial_capacity() {
        let mut i = ViewInterner::new();
        let ids: Vec<u32> = (0..1000u64).map(|k| i.intern(&[k, k ^ 7])).collect();
        assert_eq!(i.len(), 1000);
        for (k, &id) in ids.iter().enumerate() {
            assert_eq!(id, k as u32);
            assert_eq!(i.get(id), &[k as u64, k as u64 ^ 7]);
        }
        // Re-interning returns the same ids.
        for (k, &id) in ids.iter().enumerate() {
            assert_eq!(i.intern(&[k as u64, k as u64 ^ 7]), id);
        }
    }

    #[test]
    fn default_interner_works() {
        let mut i = ViewInterner::default();
        assert_eq!(i.intern(&[4]), 0);
        assert_eq!(i.intern(&[4]), 0);
    }

    #[test]
    fn length_is_part_of_the_key() {
        let mut i = ViewInterner::new();
        let a = i.intern(&[0]);
        let b = i.intern(&[0, 0]);
        let c = i.intern(&[0, 0, 0]);
        assert_eq!(i.len(), 3);
        assert!(a != b && b != c && a != c);
    }
}

//! Property-based tests of the Kripke substrate against naive reference
//! implementations: bitset laws, partition laws, announcement laws.

use halpern_moses::kripke::{
    announce, random_model, AgentGroup, AgentId, Partition, RandomModelSpec, Restriction,
    SplitMix64, WorldId, WorldSet,
};
use proptest::prelude::*;
use std::collections::BTreeSet;

fn naive_from(ws: &WorldSet) -> BTreeSet<usize> {
    ws.iter().map(|w| w.index()).collect()
}

fn random_set(n: usize, seed: u64) -> WorldSet {
    let mut rng = SplitMix64::new(seed);
    let mut s = WorldSet::empty(n);
    for w in 0..n {
        if rng.next_bool(1, 2) {
            s.insert(WorldId::new(w));
        }
    }
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn bitset_ops_match_btreeset(n in 1usize..200, sa in 0u64..1000, sb in 0u64..1000) {
        let a = random_set(n, sa);
        let b = random_set(n, sb);
        let (na, nb) = (naive_from(&a), naive_from(&b));
        prop_assert_eq!(naive_from(&a.union(&b)), na.union(&nb).cloned().collect::<BTreeSet<_>>());
        prop_assert_eq!(naive_from(&a.intersection(&b)), na.intersection(&nb).cloned().collect::<BTreeSet<_>>());
        prop_assert_eq!(naive_from(&a.difference(&b)), na.difference(&nb).cloned().collect::<BTreeSet<_>>());
        prop_assert_eq!(a.count(), na.len());
        prop_assert_eq!(a.is_subset(&b), na.is_subset(&nb));
        prop_assert_eq!(a.is_disjoint(&b), na.is_disjoint(&nb));
        let comp = naive_from(&a.complement());
        let expected: BTreeSet<usize> = (0..n).filter(|w| !na.contains(w)).collect();
        prop_assert_eq!(comp, expected);
    }

    #[test]
    fn partition_laws(n in 1usize..60, seed in 0u64..1000) {
        let mut rng = SplitMix64::new(seed);
        let blocks = 1 + rng.next_below(6);
        let keys: Vec<u64> = (0..n).map(|_| rng.next_below(blocks)).collect();
        let p = Partition::from_key(n, |w| keys[w.index()]);
        let keys2: Vec<u64> = (0..n).map(|_| rng.next_below(blocks)).collect();
        let q = Partition::from_key(n, |w| keys2[w.index()]);
        // meet refines both; both refine join.
        let meet = p.meet(&q);
        let join = p.join(&q);
        prop_assert!(meet.refines(&p) && meet.refines(&q));
        prop_assert!(p.refines(&join) && q.refines(&join));
        // Knowledge under the meet contains knowledge under either
        // (finer = more knowledge); join is the reverse.
        let a = random_set(n, seed ^ 0xAA);
        prop_assert!(p.knowledge(&a).is_subset(&meet.knowledge(&a)));
        prop_assert!(join.knowledge(&a).is_subset(&p.knowledge(&a)));
        // K(A) ⊆ A ⊆ P(A), and P is the dual of K.
        let k = p.knowledge(&a);
        let poss = p.possibility(&a);
        prop_assert!(k.is_subset(&a));
        prop_assert!(a.is_subset(&poss));
        prop_assert_eq!(poss, p.knowledge(&a.complement()).complement());
    }

    #[test]
    fn knowledge_via_naive_blocks(n in 1usize..40, seed in 0u64..500) {
        // Reference implementation: w ∈ K(A) iff the whole block of w is
        // inside A, computed by scanning.
        let mut rng = SplitMix64::new(seed);
        let keys: Vec<u64> = (0..n).map(|_| rng.next_below(4)).collect();
        let p = Partition::from_key(n, |w| keys[w.index()]);
        let a = random_set(n, seed ^ 0xBB);
        let fast = p.knowledge(&a);
        for w in 0..n {
            let expected = (0..n)
                .filter(|&v| keys[v] == keys[w])
                .all(|v| a.contains(WorldId::new(v)));
            prop_assert_eq!(fast.contains(WorldId::new(w)), expected, "w={}", w);
        }
    }

    #[test]
    fn announcement_laws(seed in 0u64..2000) {
        let m = random_model(seed, RandomModelSpec {
            num_agents: 2,
            num_worlds: 10,
            num_atoms: 2,
            max_blocks: 4,
        });
        let q0 = m.atom_set(0.into());
        prop_assume!(!q0.is_empty());
        // Announcing φ makes φ common knowledge in the restricted model.
        let (sub, _) = announce(&m, &q0).unwrap();
        let g = AgentGroup::all(2);
        let q0_sub = sub.atom_set(sub.atom_id("q0").unwrap());
        prop_assert!(sub.common_knowledge(&g, &q0_sub).is_full());
        // Announcing twice = announcing once (idempotence).
        let mut r = Restriction::new(&m);
        r.announce(&q0).unwrap();
        let once = r.alive().clone();
        r.announce(&q0).unwrap();
        prop_assert_eq!(&once, r.alive());
        // Announcing `true` changes nothing.
        let mut r2 = Restriction::new(&m);
        r2.announce(&m.full_set()).unwrap();
        prop_assert!(r2.alive().is_full());
    }

    #[test]
    fn restriction_matches_materialised_model(seed in 0u64..2000) {
        let m = random_model(seed, RandomModelSpec::default());
        let q0 = m.atom_set(0.into());
        prop_assume!(!q0.is_empty());
        let mut r = Restriction::new(&m);
        r.announce(&q0).unwrap();
        let (sub, remap) = r.to_model();
        let q1 = m.atom_set(1.into());
        let q1_sub = sub.atom_set(sub.atom_id("q1").unwrap());
        // Relativised knowledge agrees with the materialised sub-model and
        // with its definition, `[w]_i ∩ alive ⊆ A`, at every world.
        for i in 0..m.num_agents() {
            let i = AgentId::new(i);
            let relk = r.knowledge(i, &q1);
            let matk = sub.knowledge(i, &q1_sub);
            for w in sub.worlds() {
                prop_assert_eq!(matk.contains(w), relk.contains(remap.old_id(w)));
            }
            let part = m.partition(i);
            for w in m.worlds() {
                let naive = r.alive().contains(w)
                    && part
                        .block_members(part.block_of(w))
                        .filter(|v| r.alive().contains(*v))
                        .all(|v| q1.contains(v));
                prop_assert_eq!(naive, relk.contains(w));
            }
        }
    }

    #[test]
    fn from_dense_keys_matches_from_key(n in 1usize..300, seed in 0u64..1000) {
        let mut rng = SplitMix64::new(seed);
        let num_keys = 1 + rng.next_below(24) as usize;
        let keys: Vec<u32> = (0..n).map(|_| rng.next_below(num_keys as u64) as u32).collect();
        let dense = Partition::from_dense_keys(n, &keys, num_keys);
        let hashed = Partition::from_key(n, |w| keys[w.index()]);
        prop_assert_eq!(dense, hashed);
    }

    #[test]
    fn common_knowledge_agrees_with_materialised_reachability(seed in 0u64..500) {
        let m = random_model(seed, RandomModelSpec {
            num_agents: 3,
            num_worlds: 40,
            num_atoms: 1,
            max_blocks: 8,
        });
        let g = AgentGroup::all(3);
        let fact = m.atom_set(0.into());
        let bfs = m.common_knowledge(&g, &fact);
        let via_join = m.reachability_partition(&g).knowledge(&fact);
        prop_assert_eq!(&bfs, &via_join);
        prop_assert_eq!(&bfs, &m.common_knowledge_gfp(&g, &fact));
    }

    #[test]
    fn e_tower_decreases_and_c_is_its_limit(seed in 0u64..2000) {
        // E^{k+1} ⊆ E^k, and once the tower stabilises it equals C (on
        // finite models the limit is reached).
        let m = random_model(seed, RandomModelSpec {
            num_agents: 3,
            num_worlds: 14,
            num_atoms: 1,
            max_blocks: 5,
        });
        let g = AgentGroup::all(3);
        let fact = m.atom_set(0.into());
        let mut prev = fact.clone();
        let mut tower = Vec::new();
        for _ in 0..40 {
            let next = m.everyone_set(&g, &prev);
            prop_assert!(next.is_subset(&prev));
            if next == prev {
                break;
            }
            tower.push(next.clone());
            prev = next;
        }
        prop_assert_eq!(prev, m.common_knowledge(&g, &fact));
    }
}

/// Blocks of a partition as a canonical (sorted) list of sorted lists, for
/// representation-independent comparison with naive references.
fn sorted_blocks(p: &Partition) -> Vec<Vec<usize>> {
    let mut out: Vec<Vec<usize>> = p
        .blocks()
        .map(|b| b.iter().map(|&w| w as usize).collect())
        .collect();
    out.sort();
    out
}

/// Naive meet: block-by-block set intersection, the reference semantics
/// the O(n) stamp-based kernel must reproduce.
fn naive_meet_blocks(p: &Partition, q: &Partition) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    for bp in p.blocks() {
        let sp: BTreeSet<usize> = bp.iter().map(|&w| w as usize).collect();
        for bq in q.blocks() {
            let inter: Vec<usize> = bq
                .iter()
                .map(|&w| w as usize)
                .filter(|w| sp.contains(w))
                .collect();
            if !inter.is_empty() {
                out.push(inter);
            }
        }
    }
    out.sort();
    out
}

/// Naive join: start from `p`'s blocks and merge, for each block of `q`,
/// every current class its members touch (global relabel — one pass is a
/// full equivalence closure, since relabelling keeps classes whole).
fn naive_join_blocks(p: &Partition, q: &Partition, n: usize) -> Vec<Vec<usize>> {
    let mut label: Vec<usize> = (0..n).map(|w| p.block_of(WorldId::new(w))).collect();
    for bq in q.blocks() {
        let touched: BTreeSet<usize> = bq.iter().map(|&w| label[w as usize]).collect();
        let target = *touched.iter().next().expect("blocks are non-empty");
        if touched.len() > 1 {
            for l in label.iter_mut() {
                if touched.contains(l) {
                    *l = target;
                }
            }
        }
    }
    let mut groups: std::collections::BTreeMap<usize, Vec<usize>> = Default::default();
    for (w, &l) in label.iter().enumerate() {
        groups.entry(l).or_default().push(w);
    }
    let mut out: Vec<Vec<usize>> = groups.into_values().collect();
    out.sort();
    out
}

fn random_partition(n: usize, max_blocks: u64, seed: u64) -> Partition {
    let mut rng = SplitMix64::new(seed);
    let blocks = 1 + rng.next_below(max_blocks);
    let keys: Vec<u64> = (0..n).map(|_| rng.next_below(blocks)).collect();
    Partition::from_key(n, |w| keys[w.index()])
}

proptest! {
    // Large universes (up to 4096 worlds) against the naive references;
    // fewer cases, since each one is big.
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn meet_matches_naive_block_intersection(n in 1usize..4097, seed in 0u64..1_000_000) {
        let p = random_partition(n, n as u64 / 8 + 1, seed);
        let q = random_partition(n, 16, seed ^ 0x5EED);
        prop_assert_eq!(sorted_blocks(&p.meet(&q)), naive_meet_blocks(&p, &q));
        // Canonical numbering: the kernel agrees with from_key on pairs.
        let pairwise = Partition::from_key(n, |w| (p.block_of(w), q.block_of(w)));
        prop_assert_eq!(p.meet(&q), pairwise);
    }

    #[test]
    fn join_matches_naive_closure(n in 1usize..4097, seed in 0u64..1_000_000) {
        let p = random_partition(n, n as u64 / 8 + 1, seed);
        let q = random_partition(n, 16, seed ^ 0x1015);
        prop_assert_eq!(sorted_blocks(&p.join(&q)), naive_join_blocks(&p, &q, n));
    }
}

//! Bisimulation minimisation of S5 models.
//!
//! Two worlds are *epistemically bisimilar* if they satisfy the same
//! atoms and every agent's accessibility from them reaches bisimilar
//! worlds. On S5 models (partitions) the coarsest bisimulation is
//! computed by the standard partition-refinement iteration: start from
//! the atom-valuation partition and repeatedly split classes whose
//! members see different *sets of classes* through some agent.
//!
//! Minimisation matters for the run systems of Sections 5–8: many points
//! of an interpreted system are epistemically interchangeable (e.g. all
//! quiet ticks between deliveries), and the quotient model evaluates any
//! formula of the language to the same answers — which the property
//! tests verify — while being much smaller.

use crate::agent::AgentId;
use crate::model::{KripkeModel, ModelBuilder};
use crate::partition::Partition;
use crate::world::WorldId;
use hm_limits::{failpoints, Budget, LimitExceeded, Phase};
use std::collections::HashMap;

/// The result of minimising a model: the quotient model plus the mapping
/// from old worlds to their bisimulation class (= new world id).
#[derive(Debug, Clone)]
pub struct Minimized {
    /// The quotient model (one world per bisimulation class).
    pub model: KripkeModel,
    /// `class_of[w]` is the quotient world of old world `w`.
    pub class_of: Vec<u32>,
}

impl Minimized {
    /// The quotient world corresponding to an original world.
    pub fn image(&self, w: WorldId) -> WorldId {
        WorldId::new(self.class_of[w.index()] as usize)
    }
}

/// Computes the coarsest epistemic bisimulation quotient of `model`
/// under `budget`.
///
/// The signature of a world under the current candidate partition `P` is
/// `(atom valuation, for each agent: the set of P-classes its
/// indistinguishability block meets)`; iterating the signature refinement
/// reaches the coarsest fixed point in at most `|worlds|` rounds.
///
/// Every formula of the **`D`-free** static language (atoms, Booleans,
/// `K_i`, `E_G`, `E^k_G`, `S_G`, `C_G`) has the same truth value at `w`
/// and `image(w)` — see the tests. Distributed knowledge `D_G` is *not*
/// bisimulation-invariant (a standard fact of epistemic logic: the joint
/// view can separate worlds that no individual modality can), so `D_G`
/// must be evaluated on the original model.
///
/// Each refinement round charges `budget` one visited state per world (a
/// round recomputes every world's signature) and re-checks the
/// deadline/cancellation, so a runaway minimisation stops between rounds
/// with all partial state dropped.
///
/// # Errors
///
/// [`LimitExceeded`] (phase [`Phase::Minimize`]) when the budget is
/// exhausted or the `kripke::refine` failpoint fires.
pub fn minimize(model: &KripkeModel, budget: &Budget) -> Result<Minimized, LimitExceeded> {
    let n = model.num_worlds();
    // Initial partition: by atom valuation.
    let init = Partition::from_key(n, |w| {
        (0..model.num_atoms())
            .map(|a| model.atom_holds(a.into(), w) as u64)
            .collect::<Vec<u64>>()
    });
    let relations: Vec<&Partition> = (0..model.num_agents())
        .map(|a| model.partition(AgentId::new(a)))
        .collect();
    let classes = coarsest_refinement(init, &relations, budget)?;
    Ok(build_quotient(model, &classes))
}

/// The coarsest partition refining `init` that is *stable* under every
/// relation: two worlds stay together only if, through each relation,
/// their blocks meet the same set of classes. Budgeted and failpointed
/// as documented on [`minimize`].
fn coarsest_refinement(
    init: Partition,
    relations: &[&Partition],
    budget: &Budget,
) -> Result<Partition, LimitExceeded> {
    failpoints::check("kripke::refine", Phase::Minimize)?;
    let n = init.num_worlds();
    let mut current = init;
    loop {
        budget.charge(Phase::Minimize, n as u64)?;
        let class_sets: Vec<Vec<u32>> = relations
            .iter()
            .map(|part| block_class_sets(part, &current))
            .collect();
        let next = Partition::from_key(n, |w| {
            let mut sig = Vec::with_capacity(1 + relations.len());
            sig.push(current.block_of(w) as u32);
            for (part, ids) in relations.iter().zip(&class_sets) {
                sig.push(ids[part.block_of(w)]);
            }
            sig
        });
        if next.num_blocks() == current.num_blocks() {
            return Ok(current);
        }
        current = next;
    }
}

/// The refinement signature of a world under candidate partition `p` is
/// its own class plus, per relation, the set of classes its block meets.
/// All members of a block share that set, so it is computed once per
/// block and interned: `ids[b]` is equal for two blocks of `part` iff
/// they meet the same `p`-classes.
fn block_class_sets(part: &Partition, p: &Partition) -> Vec<u32> {
    let mut interned: HashMap<Vec<u32>, u32> = HashMap::new();
    (0..part.num_blocks())
        .map(|b| {
            let mut seen: Vec<u32> = part
                .block_members(b)
                .map(|v| p.block_of(v) as u32)
                .collect();
            seen.sort_unstable();
            seen.dedup();
            let fresh = interned.len() as u32;
            *interned.entry(seen).or_insert(fresh)
        })
        .collect()
}

/// Pushes each relation down to the class universe: classes `b`, `b'` are
/// related iff some members are. For S5 relations quotiented by a
/// bisimulation (a `coarsest_refinement` fixed point) the images are
/// themselves equivalences; built by union–find over member blocks.
fn quotient_partitions(classes: &Partition, relations: &[&Partition]) -> Vec<Partition> {
    let k = classes.num_blocks();
    relations
        .iter()
        .map(|part| {
            let mut uf = crate::partition::UnionFind::new(k);
            for block in part.blocks() {
                let mut members = block
                    .iter()
                    .map(|&w| classes.block_of(WorldId::new(w as usize)));
                if let Some(first) = members.next() {
                    for m in members {
                        uf.union(first, m);
                    }
                }
            }
            Partition::from_key(k, |w| uf.find(w.index()))
        })
        .collect()
}

fn build_quotient(model: &KripkeModel, classes: &Partition) -> Minimized {
    let n = model.num_worlds();
    let k = classes.num_blocks();
    // Representative (smallest world) per class, and the old→new map.
    let mut class_of = vec![0u32; n];
    let mut rep: Vec<WorldId> = Vec::with_capacity(k);
    for b in 0..k {
        let first = classes
            .block_members(b)
            .next()
            .expect("blocks are non-empty");
        rep.push(first);
        for w in classes.block_members(b) {
            class_of[w.index()] = b as u32;
        }
    }
    let mut builder = ModelBuilder::new(model.num_agents());
    for (b, r) in rep.iter().enumerate() {
        builder.add_world(format!("[{}]{}", b, model.world_label(*r)));
    }
    for a in 0..model.num_atoms() {
        let atom = builder.atom(model.atom_name(a.into()));
        for (b, r) in rep.iter().enumerate() {
            if model.atom_holds(a.into(), *r) {
                builder.set_atom(atom, WorldId::new(b), true);
            }
        }
    }
    let relations: Vec<&Partition> = (0..model.num_agents())
        .map(|a| model.partition(AgentId::new(a)))
        .collect();
    for (agent, part) in quotient_partitions(classes, &relations)
        .into_iter()
        .enumerate()
    {
        builder.set_partition(AgentId::new(agent), part);
    }
    Minimized {
        model: builder.build(),
        class_of,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent::AgentGroup;
    use crate::generate::{random_model, RandomModelSpec};

    #[test]
    fn duplicate_worlds_collapse() {
        // Two identical copies of a two-world model: minimises to 2.
        let mut b = ModelBuilder::new(1);
        for i in 0..4 {
            b.add_world(format!("w{i}"));
        }
        let p = b.atom("p");
        b.set_atom(p, WorldId::new(0), true);
        b.set_atom(p, WorldId::new(2), true);
        // Agent groups {0,1} and {2,3} — two indistinguishable copies.
        b.set_partition_by_key(AgentId::new(0), |w| w.index() / 2);
        let m = b.build();
        let min = minimize(&m, &Budget::unlimited()).unwrap();
        assert_eq!(min.model.num_worlds(), 2);
        assert_eq!(min.image(WorldId::new(0)), min.image(WorldId::new(2)));
        assert_ne!(min.image(WorldId::new(0)), min.image(WorldId::new(1)));
    }

    #[test]
    fn distinguishable_worlds_survive() {
        // A world separated by an atom cannot merge, nor can worlds with
        // different epistemic horizons.
        let mut b = ModelBuilder::new(2);
        for i in 0..3 {
            b.add_world(format!("w{i}"));
        }
        let p = b.atom("p");
        b.set_atom(p, WorldId::new(0), true);
        b.set_atom(p, WorldId::new(1), true);
        // Agent 0 merges {w0,w1}, agent 1 merges {w1,w2}: a chain — all
        // three worlds have distinct signatures (w0: sees p-only block;
        // w2: ¬p; w1: between).
        b.set_partition_by_key(AgentId::new(0), |w| w.index().min(1));
        b.set_partition_by_key(AgentId::new(1), |w| w.index().max(1));
        let m = b.build();
        let min = minimize(&m, &Budget::unlimited()).unwrap();
        assert_eq!(min.model.num_worlds(), 3, "chain is already minimal");
    }

    #[test]
    fn knowledge_preserved_under_quotient() {
        for seed in 0..30u64 {
            let m = random_model(
                seed,
                RandomModelSpec {
                    num_agents: 2 + (seed % 2) as usize,
                    num_worlds: 6 + (seed % 18) as usize,
                    num_atoms: 1,
                    max_blocks: 3,
                },
            );
            let min = minimize(&m, &Budget::unlimited()).unwrap();
            let g = AgentGroup::all(m.num_agents());
            // Compare K_i and C on the atom through the quotient map (the
            // group operators built from K_i are compared at the formula
            // level by the workspace's minimization tests).
            let fact_old = m.atom_set(0.into());
            let fact_new = min.model.atom_set(0.into());
            // D_G is deliberately absent: it is not bisimulation-
            // invariant (see the module docs and the test below).
            let pairs = [
                (
                    m.knowledge(AgentId::new(0), &fact_old),
                    min.model.knowledge(AgentId::new(0), &fact_new),
                ),
                (
                    m.common_knowledge(&g, &fact_old),
                    min.model.common_knowledge(&g, &fact_new),
                ),
            ];
            for (w, (old_set, new_set)) in
                m.worlds().flat_map(|w| pairs.iter().map(move |p| (w, p)))
            {
                assert_eq!(
                    old_set.contains(w),
                    new_set.contains(min.image(w)),
                    "seed {seed} world {w}"
                );
            }
        }
    }

    #[test]
    fn distributed_knowledge_is_not_bisimulation_invariant() {
        // The documented counterexample shape: four worlds where agent 0
        // sees the first bit and agent 1 the second; q0 holds on the
        // diagonal. Individually both agents are blind to q0, so every
        // world is bisimilar to every world with the same q0 value —
        // but D(q0) = q0 on the original (the joint view is complete)
        // while the quotient's joint view knows nothing.
        let mut b = ModelBuilder::new(2);
        for w in 0..4 {
            b.add_world(format!("w{w}"));
        }
        let q = b.atom("q0");
        b.set_atom(q, WorldId::new(0), true);
        b.set_atom(q, WorldId::new(3), true);
        b.set_partition_by_key(AgentId::new(0), |w| w.index() / 2);
        b.set_partition_by_key(AgentId::new(1), |w| w.index() % 2);
        let m = b.build();
        let g = AgentGroup::all(2);
        let fact = m.atom_set(0.into());
        assert_eq!(m.distributed_knowledge(&g, &fact), fact);
        let min = minimize(&m, &Budget::unlimited()).unwrap();
        assert_eq!(min.model.num_worlds(), 2);
        let fact_new = min.model.atom_set(0.into());
        assert!(min.model.distributed_knowledge(&g, &fact_new).is_empty());
    }

    #[test]
    fn minimize_is_idempotent() {
        for seed in 0..10u64 {
            let m = random_model(seed, RandomModelSpec::default());
            let once = minimize(&m, &Budget::unlimited()).unwrap();
            let twice = minimize(&once.model, &Budget::unlimited()).unwrap();
            assert_eq!(
                once.model.num_worlds(),
                twice.model.num_worlds(),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn quotient_never_larger() {
        for seed in 0..20u64 {
            let m = random_model(seed, RandomModelSpec::default());
            let min = minimize(&m, &Budget::unlimited()).unwrap();
            assert!(min.model.num_worlds() <= m.num_worlds());
        }
    }

    #[test]
    fn refinement_matches_per_world_signatures() {
        // Reference: recompute every world's signature from its own block
        // each round. The per-block interning must give the identical
        // partition, numbering included.
        fn reference(init: Partition, relations: &[&Partition]) -> Partition {
            let n = init.num_worlds();
            let mut current = init;
            loop {
                let next = Partition::from_key(n, |w| {
                    let mut sig = vec![current.block_of(w) as u64];
                    for part in relations {
                        let mut seen: Vec<u64> = part
                            .block_members(part.block_of(w))
                            .map(|v| current.block_of(v) as u64)
                            .collect();
                        seen.sort_unstable();
                        seen.dedup();
                        sig.push(u64::MAX);
                        sig.extend(seen);
                    }
                    sig
                });
                if next.num_blocks() == current.num_blocks() {
                    return current;
                }
                current = next;
            }
        }
        for seed in 0..40u64 {
            let spec = RandomModelSpec {
                num_worlds: 64 + (seed as usize % 5) * 200,
                max_blocks: 3 + seed as usize % 20,
                ..RandomModelSpec::default()
            };
            let m = random_model(seed, spec);
            let init = Partition::from_key(m.num_worlds(), |w| m.atom_holds(0.into(), w));
            let relations: Vec<&Partition> = (0..m.num_agents())
                .map(|a| m.partition(AgentId::new(a)))
                .collect();
            assert_eq!(
                coarsest_refinement(init.clone(), &relations, &Budget::unlimited()).unwrap(),
                reference(init, &relations),
                "seed {seed}"
            );
        }
    }
}

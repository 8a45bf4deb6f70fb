//! Bisimulation minimisation of S5 models.
//!
//! Two worlds are *epistemically bisimilar* if they satisfy the same
//! atoms and every agent's accessibility from them reaches bisimilar
//! worlds. The coarsest bisimulation is found by splitter-queue partition
//! refinement (Paige & Tarjan, "Three partition refinement algorithms",
//! SIAM J. Comput. 1987) on a two-layer graph. Every S5 relation factors
//! through its blocks: world `w` steps to its `a`-block `β` (one edge per
//! agent), and `β` steps to each of its members (one edge per world and
//! agent). That graph has `2·k·n` edges for `k` agents and `n` worlds,
//! where the relations themselves have `Σ|β|²`.
//!
//! Worlds and block nodes are refined together, in one refinable
//! partition (Valmari & Lehtinen, STACS 2008), starting from the
//! atom-valuation classes and one block-node class per agent:
//!
//! - A block-node class splits world classes. Each world has exactly one
//!   `a`-block, so this step is a function, and Hopcroft's rule applies:
//!   when a class splits, every piece but the heaviest is queued (all of
//!   them if the class was queued already). A piece weighs the worlds
//!   its blocks hold.
//! - A world class splits block-node classes. A block has many members,
//!   so this step keeps a count per (block, compound world class) and
//!   splits three ways: blocks that meet the splitter only, blocks that
//!   meet both it and the rest of its compound, and blocks that meet only
//!   the rest.
//!
//! A queued piece weighs at most half its parent, so each edge is
//! scanned in at most `log₂ n` splitters: O(k·n·log n) time in all.
//!
//! Minimisation matters for the run systems of Sections 5–8: many points
//! of an interpreted system are epistemically interchangeable (e.g. all
//! quiet ticks between deliveries), and the quotient model evaluates any
//! formula of the language to the same answers — which the property
//! tests verify — while being much smaller.

use crate::agent::AgentId;
use crate::model::{KripkeModel, ModelBuilder};
use crate::partition::Partition;
use crate::world::{WorldId, WorldSet};
use hm_limits::{failpoints, Budget, LimitExceeded, Phase};

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
/// The classes are refined on the two-layer world/block graph described
/// in the module docs, in O(k·n·log n) for `k` agents and `n` worlds.
/// Quotient worlds are numbered by their first member, so the result
/// does not depend on the order in which splitters were processed.
///
/// Every formula of the **`D`-free** static language (atoms, Booleans,
/// `K_i`, `E_G`, `E^k_G`, `S_G`, `C_G`) has the same truth value at `w`
/// and `image(w)` — see the tests. Distributed knowledge `D_G` is *not*
/// bisimulation-invariant (a standard fact of epistemic logic: the joint
/// view can separate worlds that no individual modality can), so `D_G`
/// must be evaluated on the original model.
///
/// Each processed splitter charges `budget` one visited state per world
/// it scans (its members, or the members of its blocks) and re-checks
/// the deadline and cancellation, so a runaway minimisation stops between
/// splitters with all partial state dropped. In all that is at most
/// `(k + 1)·n·log₂ n` states.
///
/// # Errors
///
/// [`LimitExceeded`] (phase [`Phase::Minimize`]) when the budget is
/// exhausted or the `kripke::refine` failpoint fires.
pub fn minimize(model: &KripkeModel, budget: &Budget) -> Result<Minimized, LimitExceeded> {
    let atoms: Vec<&WorldSet> = (0..model.num_atoms())
        .map(|a| model.atom_worlds(a.into()))
        .collect();
    let relations: Vec<&Partition> = (0..model.num_agents())
        .map(|a| model.partition(AgentId::new(a)))
        .collect();
    let classes = coarsest_refinement(model.num_worlds(), &atoms, &relations, budget)?;
    Ok(build_quotient(model, &classes))
}

/// The coarsest partition of the worlds `0..n` that refines every atom
/// set and is *stable* under every relation: two worlds stay together
/// only if, through each relation, their blocks meet the same set of
/// classes. Budgeted and failpointed as documented on [`minimize`].
fn coarsest_refinement(
    n: usize,
    atoms: &[&WorldSet],
    relations: &[&Partition],
    budget: &Budget,
) -> Result<Partition, LimitExceeded> {
    failpoints::check("kripke::refine", Phase::Minimize)?;
    let mut graph = BlockGraph::new(n, relations);
    for atom in atoms {
        for w in atom.iter() {
            graph.classes.mark(w.index(), 1);
        }
        graph.classes.split();
    }
    while let Some(splitter) = graph.classes.queue.pop() {
        let set = &mut graph.classes.sets[splitter as usize];
        set.queued = false;
        let (first, weight) = (graph.classes.elems[set.start as usize], set.weight);
        budget.charge(Phase::Minimize, u64::from(weight))?;
        if (first as usize) < n {
            graph.split_blocks_by(splitter);
        } else {
            graph.split_worlds_by(splitter);
        }
    }
    Ok(Partition::from_dense_keys(
        n,
        &graph.classes.set_of[..n],
        graph.classes.sets.len(),
    ))
}

/// An empty `hit_of` slot.
const NONE: u32 = u32::MAX;

/// The two-layer graph of a model's relations and the refinable
/// partition of its nodes. Node ids `0..n` are the worlds; agent `a`'s
/// block `b` is node `n + first_block[a] + b`.
struct BlockGraph<'a> {
    n: usize,
    relations: &'a [&'a Partition],
    /// Prefix sums of the agents' block counts (length `k + 1`).
    first_block: Vec<usize>,
    classes: Refinable,
    /// `record_of[a * n + w]` is the count record of the edge from `w`'s
    /// `a`-block to `w`: how many members that block has in `w`'s
    /// compound class.
    record_of: Vec<u32>,
    counts: Vec<u32>,
    free_records: Vec<u32>,
    /// Per block (indexed like `first_block`): its entry in `hits`, or
    /// [`NONE`] when the current world splitter has not reached it.
    hit_of: Vec<u32>,
    hits: Vec<Hit>,
}

/// A block reached by the current world splitter: its old count record
/// (members in the splitter's compound) and new one (in the splitter).
#[derive(Clone, Copy)]
struct Hit {
    block: u32,
    old: u32,
    new: u32,
}

impl<'a> BlockGraph<'a> {
    /// The worlds in one class, each agent's blocks in one class, every
    /// block's count record covering the whole world set.
    fn new(n: usize, relations: &'a [&'a Partition]) -> Self {
        let mut first_block = vec![0];
        let mut counts = Vec::new();
        let mut record_of = Vec::with_capacity(relations.len() * n);
        for rel in relations {
            let first = *first_block.last().expect("non-empty");
            first_block.push(first + rel.num_blocks());
            counts.extend(rel.blocks().map(|b| b.len() as u32));
            record_of.extend((0..n).map(|w| (first + rel.block_of(WorldId::new(w))) as u32));
        }
        let num_blocks = counts.len();
        let mut ranges = vec![(0, n, n as u32)];
        ranges.extend(
            first_block
                .windows(2)
                .map(|f| (n + f[0], n + f[1], n as u32)),
        );
        BlockGraph {
            n,
            relations,
            first_block,
            classes: Refinable::new(n + num_blocks, &ranges),
            record_of,
            counts,
            free_records: Vec::new(),
            hit_of: vec![NONE; num_blocks],
            hits: Vec::new(),
        }
    }

    /// The members of block `block` (indexed like `first_block`).
    fn members(&self, block: usize) -> &'a [u32] {
        let agent = self.first_block.partition_point(|&f| f <= block) - 1;
        self.relations[agent].block_slice(block - self.first_block[agent])
    }

    /// Splits the world classes by a block-node class: each world moves
    /// with the class of its block of that agent (Hopcroft's step).
    fn split_worlds_by(&mut self, splitter: u32) {
        let Set { start, end, .. } = self.classes.sets[splitter as usize];
        for i in start..end {
            let block = self.classes.elems[i as usize] as usize - self.n;
            for &w in self.members(block) {
                self.classes.mark(w as usize, 1);
            }
        }
        self.classes.split();
    }

    /// Splits the block-node classes by a world class: blocks that meet
    /// only the splitter, both it and the rest of its compound, and only
    /// the rest go apart (Paige–Tarjan's three-way step). The splitter
    /// then becomes a compound of its own.
    fn split_blocks_by(&mut self, splitter: u32) {
        let (n, relations) = (self.n, self.relations);
        let Set { start, end, .. } = self.classes.sets[splitter as usize];
        for i in start..end {
            let w = self.classes.elems[i as usize] as usize;
            for (agent, rel) in relations.iter().enumerate() {
                let block = self.first_block[agent] + rel.block_of(WorldId::new(w));
                let edge = agent * n + w;
                if self.hit_of[block] == NONE {
                    self.hit_of[block] = self.hits.len() as u32;
                    let new = self.free_records.pop().unwrap_or_else(|| {
                        self.counts.push(0);
                        self.counts.len() as u32 - 1
                    });
                    self.hits.push(Hit {
                        block: block as u32,
                        old: self.record_of[edge],
                        new,
                    });
                }
                let hit = self.hits[self.hit_of[block] as usize];
                self.counts[hit.new as usize] += 1;
                self.record_of[edge] = hit.new;
            }
        }
        for k in 0..self.hits.len() {
            let block = self.hits[k].block as usize;
            let weight = self.members(block).len() as u32;
            self.classes.mark(n + block, weight);
        }
        self.classes.split();
        for k in 0..self.hits.len() {
            let Hit { block, old, new } = self.hits[k];
            if self.counts[new as usize] < self.counts[old as usize] {
                let weight = self.members(block as usize).len() as u32;
                self.classes.mark(n + block as usize, weight);
            }
        }
        self.classes.split();
        for Hit { block, old, new } in self.hits.drain(..) {
            self.hit_of[block as usize] = NONE;
            self.counts[old as usize] -= self.counts[new as usize];
            if self.counts[old as usize] == 0 {
                self.free_records.push(old);
            }
        }
    }
}

/// A partition of the elements `0..len` refined in place (Valmari &
/// Lehtinen, STACS 2008): each set is a contiguous range of `elems`, and
/// marking an element swaps it into the marked prefix of its set, so a
/// split costs only the marked elements. Every set carries a weight;
/// splits queue pieces by Hopcroft's rule.
struct Refinable {
    elems: Vec<u32>,
    /// `pos[e]` is `e`'s index in `elems`.
    pos: Vec<u32>,
    set_of: Vec<u32>,
    sets: Vec<Set>,
    /// Sets with at least one marked element.
    touched: Vec<u32>,
    /// Splitters still to process.
    queue: Vec<u32>,
}

/// One set of a [`Refinable`]: `elems[start..end]`, of which
/// `elems[start..mid]` are marked.
#[derive(Clone, Copy)]
struct Set {
    start: u32,
    mid: u32,
    end: u32,
    weight: u32,
    marked_weight: u32,
    queued: bool,
}

impl Refinable {
    /// One set per `(start, end, weight)` range; the ranges must tile
    /// `0..len` in order. Nothing is queued.
    fn new(len: usize, ranges: &[(usize, usize, u32)]) -> Self {
        let mut set_of = vec![0; len];
        let sets = ranges
            .iter()
            .enumerate()
            .map(|(s, &(start, end, weight))| {
                set_of[start..end].fill(s as u32);
                Set {
                    start: start as u32,
                    mid: start as u32,
                    end: end as u32,
                    weight,
                    marked_weight: 0,
                    queued: false,
                }
            })
            .collect();
        Refinable {
            elems: (0..len as u32).collect(),
            pos: (0..len as u32).collect(),
            set_of,
            sets,
            touched: Vec::new(),
            queue: Vec::new(),
        }
    }

    /// Marks element `e`, of weight `weight`, for the next [`split`](Self::split).
    fn mark(&mut self, e: usize, weight: u32) {
        let s = self.set_of[e] as usize;
        let set = &mut self.sets[s];
        let at = self.pos[e];
        if at < set.mid {
            return;
        }
        if set.mid == set.start {
            self.touched.push(s as u32);
        }
        let to = set.mid;
        set.mid += 1;
        set.marked_weight += weight;
        let other = self.elems[to as usize];
        self.elems.swap(at as usize, to as usize);
        self.pos[e] = to;
        self.pos[other as usize] = at;
    }

    /// Moves the marked elements of every touched set into a new set,
    /// unless the whole set was marked, and clears the marks. Of the two
    /// pieces the lighter is queued, or both if the set was queued.
    fn split(&mut self) {
        while let Some(s) = self.touched.pop() {
            let s = s as usize;
            let set = self.sets[s];
            if set.mid == set.end {
                self.sets[s].mid = set.start;
                self.sets[s].marked_weight = 0;
                continue;
            }
            let new = self.sets.len() as u32;
            let rest = set.weight - set.marked_weight;
            self.sets.push(Set {
                start: set.start,
                mid: set.start,
                end: set.mid,
                weight: set.marked_weight,
                marked_weight: 0,
                queued: false,
            });
            self.sets[s] = Set {
                start: set.mid,
                weight: rest,
                marked_weight: 0,
                ..set
            };
            for &e in &self.elems[set.start as usize..set.mid as usize] {
                self.set_of[e as usize] = new;
            }
            if set.queued || set.marked_weight <= rest {
                self.enqueue(new);
            } else {
                self.enqueue(s as u32);
            }
        }
    }

    fn enqueue(&mut self, s: u32) {
        self.sets[s as usize].queued = true;
        self.queue.push(s);
    }
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
    use crate::generate::{random_model, RandomModelSpec, SplitMix64};
    use hm_limits::Limits;

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

    /// The round-based refinement this module used before the splitter
    /// queue, kept as the oracle: every round recomputes every world's
    /// signature (its class and, per agent, the set of classes its block
    /// meets) until the class count stops growing. Returns the partition
    /// and the number of rounds.
    fn per_world_signatures(m: &KripkeModel) -> (Partition, usize) {
        let n = m.num_worlds();
        let mut current = Partition::from_key(n, |w| {
            (0..m.num_atoms())
                .map(|a| m.atom_holds(a.into(), w))
                .collect::<Vec<bool>>()
        });
        for rounds in 1.. {
            let next = Partition::from_key(n, |w| {
                let mut sig = vec![current.block_of(w) as u64];
                for a in 0..m.num_agents() {
                    let part = m.partition(AgentId::new(a));
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
                return (current, rounds);
            }
            current = next;
        }
        unreachable!()
    }

    /// The splitter-queue classes of `m`, unbudgeted.
    fn refined(m: &KripkeModel) -> Partition {
        let atoms: Vec<&WorldSet> = (0..m.num_atoms())
            .map(|a| m.atom_worlds(a.into()))
            .collect();
        let relations: Vec<&Partition> = (0..m.num_agents())
            .map(|a| m.partition(AgentId::new(a)))
            .collect();
        coarsest_refinement(m.num_worlds(), &atoms, &relations, &Budget::unlimited()).unwrap()
    }

    /// A path of `n` worlds, `q0` at world 0 only: agent 0 pairs worlds
    /// `{2i, 2i+1}`, agent 1 pairs `{2i+1, 2i+2}`, and any further agent
    /// groups runs of `extra` worlds. Only the distance to world 0 tells
    /// worlds apart, one more world per round of the oracle.
    fn ladder(n: usize, agents: usize, extra: usize) -> KripkeModel {
        let mut b = ModelBuilder::new(agents);
        b.add_worlds(n);
        let q = b.atom("q0");
        b.set_atom(q, WorldId::new(0), true);
        b.set_partition_by_key(AgentId::new(0), |w| w.index() / 2);
        if agents > 1 {
            b.set_partition_by_key(AgentId::new(1), |w| w.index().div_ceil(2));
        }
        for a in 2..agents {
            b.set_partition_by_key(AgentId::new(a), |w| w.index() / extra);
        }
        b.build()
    }

    #[test]
    fn refinement_matches_per_world_signatures() {
        // Random models: 1–4 agents, 1–3 atoms, a few to many blocks.
        for seed in 0..40u64 {
            let m = random_model(
                seed,
                RandomModelSpec {
                    num_agents: 1 + seed as usize % 4,
                    num_worlds: 64 + (seed as usize % 5) * 200,
                    num_atoms: 1 + seed as usize % 3,
                    max_blocks: 3 + seed as usize % 20,
                },
            );
            assert_eq!(refined(&m), per_world_signatures(&m).0, "seed {seed}");
        }
        // One world; and discrete and trivial relations mixed with
        // random ones, under 0–3 random atoms.
        let mut rng = SplitMix64::new(7);
        for n in [1usize, 2, 5, 40] {
            for agents in 1..=4usize {
                for atoms in 0..=3usize {
                    let mut b = ModelBuilder::new(agents);
                    b.add_worlds(n);
                    for a in 0..atoms {
                        let atom = b.atom(format!("q{a}"));
                        for w in 0..n {
                            if rng.next_bool(1, 2) {
                                b.set_atom(atom, WorldId::new(w), true);
                            }
                        }
                    }
                    for a in 0..agents {
                        // Agent 0 stays discrete (the builder's default).
                        if a == 1 {
                            b.set_partition(AgentId::new(a), Partition::trivial(n));
                        } else if a > 1 {
                            let keys: Vec<u64> =
                                (0..n).map(|_| rng.next_below(1 + n as u64 / 3)).collect();
                            b.set_partition_by_key(AgentId::new(a), |w| keys[w.index()]);
                        }
                    }
                    let m = b.build();
                    assert_eq!(
                        refined(&m),
                        per_world_signatures(&m).0,
                        "n={n} agents={agents} atoms={atoms}"
                    );
                }
            }
        }
        // Ladders, where the oracle needs about one round per world.
        for (n, agents, extra) in [
            (2usize, 2usize, 1usize),
            (3, 1, 1),
            (64, 2, 1),
            (200, 3, 3),
            (301, 4, 7),
        ] {
            let m = ladder(n, agents, extra);
            let (expected, rounds) = per_world_signatures(&m);
            if agents == 2 {
                assert!(rounds >= n - 1, "n={n}: {rounds} rounds");
            }
            assert_eq!(refined(&m), expected, "ladder n={n} agents={agents}");
        }
    }

    #[test]
    fn refinement_charges_k_plus_one_n_log_n() {
        // A 4,096-world ladder is already minimal, and the round-based
        // refinement needed ~n rounds of n states each (~1.7e7) for it.
        // The splitter queue scans each edge in at most log2 n splitters.
        let (n, k) = (4096u64, 2u64);
        let m = ladder(n as usize, k as usize, 1);
        let bound = (k + 1) * n * u64::from(n.ilog2());
        let budget = Limits::none().max_states_visited(bound).budget();
        let min = minimize(&m, &budget).expect("within (k+1)·n·log2 n");
        assert_eq!(min.model.num_worlds(), n as usize);
    }
}
